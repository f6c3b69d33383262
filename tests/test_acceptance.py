"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines;
every tolerance here is exact equality over F2 data.
"""

import json
import random

from moravak import gf2
from moravak import twistgroup as tw
from moravak.ahss import SpaceModel, e2_page, first_differential, turn_page
from moravak.cli import main
from moravak.fgl import FGL, Series, grouplike_check, height, solve_theta, two_series
from moravak.obstruct import (
    ManifoldData,
    ORIENTED,
    heterotic_check,
    phase_invariance_check,
    twisted_string_check,
    wu_sq,
)
from moravak.rbk import RbkModule, TensorModule, b_degree, bar_e2, khorami_quotient, tor
from moravak.spacefile import parse_file, parse_module
from moravak.steenrod import milnor_q, sq
from moravak.twistgroup import AlgebraHom

from conftest import (
    FIXTURES,
    SEED,
    exterior_pair,
    projective_product,
    projective_space,
    random_element,
    truncated_projective,
)
from oracles import brute_milnor_on_power, dense_cokernel_rank
from test_rbk import random_module, random_tensor


def report(n: int, text: str):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def test_criterion_01_milnor_oracle():
    alg, act = projective_space(40)
    t = alg.generator("t")
    for j in range(4):
        recursion = milnor_q(j, t, act)
        brute = alg.zero
        for e in brute_milnor_on_power(j, 1):
            brute = brute + alg.element(f"t^{e}")
        assert recursion == brute == alg.element(f"t^{2 ** (j + 1)}"), j
    report(1, "Q_j(t) = t^(2^(j+1)) for j in 0..3, recursion == brute force")


def test_criterion_02_derivation_property():
    rng = random.Random(SEED)
    fixtures = [projective_space(14), projective_product(3, 12),
                truncated_projective(9, 12), exterior_pair(12)]
    pairs = 0
    for alg, act in fixtures:
        for _ in range(60):
            a = random_element(alg, rng.randint(1, 4), rng)
            b = random_element(alg, rng.randint(1, 4), rng)
            for j in (0, 1, 2):
                lhs = milnor_q(j, alg.mul(a, b), act)
                rhs = alg.mul(milnor_q(j, a, act), b) + \
                    alg.mul(a, milnor_q(j, b, act))
                assert alg.reduce(lhs + rhs) == alg.zero, (str(a), str(b), j)
            pairs += 1
    assert pairs >= 200
    report(2, f"Q_j(ab) = Q_j(a)b + aQ_j(b) on {pairs} pairs in "
              f"{len(fixtures)} algebras, zero failures")


def test_criterion_03_twist_group_isomorphism():
    M = 8
    mask = (1 << (1 << M)) - 1
    series = [tw.decode(tw.Dyadic(d, M)).series_bits for d in range(1 << M)]
    assert len(set(series)) == 1 << M  # encode is injective, hence bijective
    for d1 in range(1 << M):
        for d2 in range(d1, 1 << M):
            product = tw.clmul(series[d1], series[d2]) & mask
            assert product == series[(d1 + d2) % (1 << M)], (d1, d2)
    bits = 0b11
    for k in range(M):
        assert bits == 1 | (1 << (1 << k)), k
        bits = tw.clmul(bits, bits) & mask
    report(3, "encode is an isomorphism onto Z/2^8 exhaustively; "
              "(1+y)^(2^k) = 1+y^(2^k) for k < 8")


def test_criterion_04_flatness():
    rng = random.Random(SEED + 4)
    modules = [random_module(rng) for _ in range(50)]
    # M_0, N_0 and the free R_0 on 1 and b_0
    modules += [RbkModule(2, 0, (0,), (0,)), RbkModule(2, 0, (0,), (1,)),
                RbkModule(2, 0, (0, b_degree(2, 0)), (0b10, 0b10))]
    for P in modules:
        for i in range(1, 5):
            assert tor(P, "M", i).rank == 0, P
            assert tor(P, "N", i).rank == 0, P
        identity = [1 << i for i in range(P.rank)]
        bv = [P.operator[i] ^ identity[i] for i in range(P.rank)]
        assert tor(P, "M", 0).rank == dense_cokernel_rank(list(P.operator), P.rank)
        assert tor(P, "N", 0).rank == dense_cokernel_rank(bv, P.rank)
    report(4, f"Tor_i(P, M_k) = Tor_i(P, N_k) = 0 for i in 1..4 over "
              f"{len(modules)} modules; Tor_0 matches dense recomputation")


def test_criterion_05_khorami_universal_case():
    for n in (1, 2, 3):
        assert khorami_quotient(TensorModule(n, 6, (0,), ((0,),) * 6)).rank == 0, n
    rng = random.Random(SEED + 5)
    tested = 0
    samples = [random_tensor(rng) for _ in range(20)]
    samples.append(TensorModule.from_single(
        RbkModule(2, 0, (0, b_degree(2, 0)), (0b10, 0b10))))
    samples.append(parse_module(FIXTURES / "point.module"))
    for P in samples:
        hom = AlgebraHom.universal(P.n, P.truncation)
        page = bar_e2(P, hom, max_degree=2)
        assert page[0].degree_classes == khorami_quotient(P).degree_classes
        assert all(entry.rank == 0 for entry in page[1:])
        tested += 1
    report(5, f"khorami_quotient(point) = 0 for n in 1..3; quotient == "
              f"bar page degree 0 on {tested} modules")


def test_criterion_06_tahss_golden_case():
    space = parse_file(FIXTURES / "s3.space").model
    fundamental = space.algebra.generator("h")
    e4 = turn_page(first_differential(e2_page(space, 1), space, fundamental))
    assert not e4.incomplete
    assert all(e4.rank(p) == 0 for p in e4.window)
    zero = space.algebra.zero
    e4z = turn_page(first_differential(e2_page(space, 1), space, zero))
    for p in e4z.window:
        assert e4z.rank(p) == len(space.algebra.basis(p))
    report(6, "S^3 at n=1: fundamental twist clears E4; zero twist gives E4 = E2")


def test_criterion_07_d7_formula():
    syn = parse_file(FIXTURES / "synth12.space").model.space
    alg, act = syn.algebra, syn.action
    h4 = alg.element("h4")
    page = first_differential(e2_page(syn, 2), syn, h4)
    expected = sq(3, h4, act) + sq(2, sq(1, h4, act), act)
    assert alg.element_from_bits(7, page.diff[0][0]) == expected != alg.zero
    assert page.differential_matrix(0, 6) == page.differential_matrix(0, -12)

    honest = SpaceModel(*projective_product(3, 16))
    h = sq(1, honest.algebra.element("t1*t2*t3"), honest.action)
    phi = milnor_q(1, h, honest.action)
    rng = random.Random(SEED + 7)
    for _ in range(100):
        a = random_element(honest.algebra, rng.randint(1, 4), rng)
        b = random_element(honest.algebra, rng.randint(1, 4), rng)
        ab = honest.algebra.mul(a, b)
        d = lambda x: milnor_q(2, x, honest.action) + honest.algebra.mul(x, phi)  # noqa: E731
        lhs = d(ab)
        rhs = honest.algebra.mul(milnor_q(2, a, honest.action), b) + \
            honest.algebra.mul(a, d(b))
        assert honest.algebra.reduce(lhs + rhs) == honest.algebra.zero

    filled = first_differential(e2_page(honest, 2), honest, h)
    composable = 0
    for p in filled.window:
        if p in filled.diff and p + filled.step in filled.diff:
            for col in filled.diff[p]:
                assert gf2.apply_columns(filled.diff[p + filled.step], col) == 0
            composable += 1
    assert composable > 0
    report(7, "d7(1 v^k) = (Sq^3 h4 + Sq^2 Sq^1 h4) v^(k-1) exactly; module "
              "property on 100 pairs; d.d = 0 on every computed window")


def test_criterion_08_fgl():
    gm = FGL.multiplicative()
    assert solve_theta(gm, 5) == (1, 0, 0, 0, 0)
    assert height(gm) == 1
    alpha = Series(1, 16, 2, {(0,): 1, (1,): 1})
    assert grouplike_check(alpha, gm)
    lhs = alpha.compose([gm.law])
    expected = Series(2, 16, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert lhs == expected  # alpha(F) = 1 + y + z + yz on the nose
    assert not grouplike_check(Series(1, 16, 2, {(0,): 1, (1,): 1, (2,): 1}), gm)
    assert two_series(gm) == Series(1, 16, 2, {(2,): 1})
    report(8, "theta(gm) = (1,0,0,...); height 1; 1+x grouplike with the "
              "product expansion; 1+x+x^2 not grouplike")


def test_criterion_09_wu_golden_case():
    parsed = parse_file(FIXTURES / "genspin.space")
    gs = parsed.model
    alg = gs.space.algebra
    assert wu_sq(gs, 7, 8) == alg.element("w7*w8 + w6*w9 + w5*w10 + w4*w11 + w15")
    sw0 = {i: (alg.zero if i in (4, 5, 6, 7) else alg.generator(f"w{i}"))
           for i in range(4, 16)}
    reduced = ManifoldData(space=gs.space, dimension=15, sw=sw0,
                           flags=frozenset({"oriented", "spin", "string"}))
    assert wu_sq(reduced, 7, 8) == alg.element("w15")
    report(9, "Sq^7 w_8 = w7w8 + w6w9 + w5w10 + w4w11 + w15 symbol-for-symbol; "
              "reduces to w15 under spin + w4 = 0 + string")


def test_criterion_10_physics_verdicts():
    syn = parse_file(FIXTURES / "synth12.space").model
    alg = syn.space.algebra
    assert twisted_string_check(syn, alg.element("h4")).status == ORIENTED
    fb = parse_file(FIXTURES / "fb12.space").model
    assert twisted_string_check(fb, fb.space.algebra.zero).status == ORIENTED
    m10doc = parse_file(FIXTURES / "m10.space")
    m10 = m10doc.model
    malg = m10.space.algebra
    assert twisted_string_check(m10, malg.zero).status == ORIENTED

    het = heterotic_check(m10, malg.element("c"), malg.zero)
    assert het.status == ORIENTED and het.hypothesis_ok
    het_bad = heterotic_check(m10, malg.element("b"), malg.element("b + c"))
    assert not het_bad.hypothesis_ok and het_bad.failed_hypotheses

    phase = phase_invariance_check(m10, m10doc.index,
                                   malg.element("c"), malg.element("b"))
    assert phase.invariant and phase.sq3_condition_holds
    report(10, "string checks oriented on all three examples; heterotic "
               "W7 + Sq_Z^3 b structure with hypothesis reporting; phase "
               "invariant for a = lambda")


def test_criterion_11_determinism(capsys):
    commands = [
        ("twist", "--encode", "(0,2,5)"),
        ("twist", "--vanishing", "4", "2"),
        ("ahss", "--space", "s3", "--n", "1", "--twist", "fundamental"),
        ("ahss", "--space", "point", "--n", "1", "--twist", "0"),
        ("ahss", "--space", "rp_inf", "--n", "1", "--twist", "0"),
        ("ahss", "--space", "synth12", "--n", "2", "--twist", "h4", "--integral"),
        ("ahss", "--space", "fb12", "--n", "3", "--twist", "q5"),
        ("tor", "--module", "r0free"),
        ("tor", "--module", "point"),
        ("khorami", "--module", "r0free"),
        ("khorami", "--module", "point"),
        ("fgl", "--law", "gm", "--two-series", "--solve-theta", "3", "--height"),
        ("fgl", "--law", "additive", "--height"),
        ("obstruct", "--manifold", "synth12", "--check", "string", "--h4", "h4"),
        ("obstruct", "--manifold", "m10", "--check", "heterotic", "--a", "c", "--b", "0"),
        ("obstruct", "--manifold", "m10", "--check", "quadratic", "--a", "b", "--a2", "c"),
        ("obstruct", "--manifold", "m10", "--check", "phase", "--a", "c", "--b", "b"),
        ("obstruct", "--manifold", "fb12", "--check", "fivebrane", "--h5", "q5"),
        ("obstruct", "--manifold", "genspin", "--check", "wu", "--i", "7", "--j", "8"),
        ("obstruct", "--manifold", "genspin", "--check", "integral-sw", "--i", "7"),
        ("obstruct", "--manifold", "pair12", "--check", "relative", "--h4", "u4"),
    ]
    for argv in commands:
        outs = []
        for _ in range(2):
            code = main(list(argv))
            assert code == 0, argv
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], argv
        json.loads(outs[0].partition("--- json ---")[2])  # block stays parseable
    report(11, f"byte-identical reports across two runs for {len(commands)} "
               "commands over every bundled fixture")
