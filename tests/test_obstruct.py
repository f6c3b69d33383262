import itertools

import pytest

from moravak.ahss import SpaceModel
from moravak.cli import main
from moravak.errors import HypothesisViolatedError, ValidationError
from moravak.f2alg import ONE, AlgebraMap, GradedGenerator, PresentedAlgebra
from moravak.obstruct import (
    IndexTable,
    ManifoldData,
    OBSTRUCTED,
    ORIENTED,
    PairModel,
    UNDECIDED,
    fivebrane_check,
    heterotic_check,
    integral_sw,
    phase_invariance_check,
    quadratic_refinement_check,
    relative_obstruction,
    twisted_string_check,
    wu_sq,
)
from moravak.spacefile import parse_file
from moravak.steenrod import IntegralityData, SqAction, TriState, milnor_q, sq, sq_z

from conftest import FIXTURES


def load(name):
    return parse_file(FIXTURES / name)


@pytest.fixture(scope="module")
def genspin():
    return load("genspin.space").model


@pytest.fixture(scope="module")
def m10():
    return load("m10.space")


@pytest.fixture(scope="module")
def synth12():
    return load("synth12.space").model


@pytest.fixture(scope="module")
def fb12():
    return load("fb12.space").model


def generic_low_model():
    """All of w1, w2, w3 present as free symbols (no spin flag)."""
    gens = [GradedGenerator(f"w{i}", i) for i in range(1, 7)]
    alg = PresentedAlgebra(gens, (), 8)
    act = SqAction(alg, {})
    space = SpaceModel(alg, act)
    sw = {i: alg.generator(f"w{i}") for i in range(1, 7)}
    return ManifoldData(space=space, dimension=8, sw=sw)


def test_wu_golden_case(genspin):
    alg = genspin.space.algebra
    expected = alg.element("w7*w8 + w6*w9 + w5*w10 + w4*w11 + w15")
    assert wu_sq(genspin, 7, 8) == expected


def test_wu_reduces_to_top_class_under_string_conditions(genspin):
    alg = genspin.space.algebra
    sw = {i: (alg.zero if i in (4, 5, 6, 7) else alg.generator(f"w{i}"))
          for i in range(4, 16)}
    reduced = ManifoldData(space=genspin.space, dimension=15, sw=sw,
                           flags=frozenset({"oriented", "spin", "string"}))
    assert wu_sq(reduced, 7, 8) == alg.element("w15")


def test_wu_simplification_chain(genspin):
    """With w4 = 0 the chain w5 = Sq^1 w4, w6 = Sq^2 w4 + w2 w4,
    w7 = Sq^3 w4 forces all three shadows to vanish."""
    alg = genspin.space.algebra
    assert wu_sq(genspin, 1, 4) == alg.element("w5")      # w1 = 0 on spin
    assert wu_sq(genspin, 2, 4) + alg.mul(genspin.sw_class(2), genspin.sw_class(4)) \
        == alg.element("w6")
    assert wu_sq(genspin, 3, 4) == alg.element("w7")      # spin kills the rest


def test_wu_low_degree_examples():
    m = generic_low_model()
    alg = m.space.algebra
    assert wu_sq(m, 0, 3) == alg.element("w3")
    assert wu_sq(m, 1, 2) == alg.element("w1*w2 + w3")
    assert wu_sq(m, 1, 4) == alg.element("w1*w4 + w5")


def test_wu_errors(genspin):
    with pytest.raises(ValidationError):
        wu_sq(genspin, 3, 2)
    with pytest.raises(ValidationError,
                       match=r"^Sq\^9\(w_15\) has degree 24, beyond the cap 16$"):
        wu_sq(genspin, 9, 15)
    m = generic_low_model()
    with pytest.raises(ValidationError, match="^w_7 is required but was not declared$"):
        wu_sq(m, 1, 6)  # needs w7, not declared and below the dimension


def test_integral_sw(genspin, fb12, m10):
    rep, cert = integral_sw(genspin, 7)
    assert rep == genspin.space.algebra.element("w7")
    assert cert is TriState.NO
    # Wu consistency: the shadow of the degree-7 class is Sq^1 w6
    assert rep == wu_sq(genspin, 1, 6)
    rep0, cert0 = integral_sw(fb12, 7)
    assert rep0 == fb12.space.algebra.zero and cert0 is TriState.YES
    rep1, cert1 = integral_sw(m10.model, 7)
    assert cert1 is TriState.YES
    with pytest.raises(ValidationError):
        integral_sw(genspin, 4)


def test_twisted_string_cancellation(synth12):
    """w7-shadow = Sq^3 h4 = g7 on both sides, so the combined class
    w6 + Sq^2 h4 vanishes and the verdict is conclusive."""
    alg = synth12.space.algebra
    report = twisted_string_check(synth12, alg.element("h4"))
    assert report.status == ORIENTED
    assert report.obstruction == alg.zero
    assert report.certificate is TriState.YES
    # with zero twist the same data is conclusively obstructed
    report0 = twisted_string_check(synth12, alg.zero)
    assert report0.status == OBSTRUCTED
    assert report0.obstruction == alg.element("g7")


def test_twisted_string_on_string_manifold(fb12):
    report = twisted_string_check(fb12, fb12.space.algebra.zero)
    assert report.status == ORIENTED and not report.warnings


def test_twisted_string_dimension_warning(genspin):
    alg = genspin.space.algebra
    big = ManifoldData(space=genspin.space, dimension=15,
                       sw={6: alg.zero}, flags=frozenset({"oriented", "spin"}))
    report = twisted_string_check(big, alg.zero)
    assert report.warnings and "dimension" in report.warnings[0]


def test_heterotic_cases(m10):
    model = m10.model
    alg = model.space.algebra
    # a = lambda, b = 0 recovers the untwisted condition, conclusive here
    report = heterotic_check(model, alg.element("c"), alg.zero)
    assert report.status == ORIENTED and report.hypothesis_ok
    # a = b breaks the lifting hypothesis Sq^3 a = 0 and is reported
    report2 = heterotic_check(model, alg.element("b"), alg.element("b + c"))
    assert not report2.hypothesis_ok
    assert report2.failed_hypotheses == ("Sq3(a) = 0",)
    assert report2.status == OBSTRUCTED
    with pytest.raises(ValidationError, match="^a \\+ b = lambda fails on this data$"):
        heterotic_check(model, alg.element("b"), alg.element("b"))


def test_heterotic_on_string_manifold(fb12):
    alg = fb12.space.algebra
    report = heterotic_check(fb12, alg.zero, alg.zero)
    assert report.status == ORIENTED


def test_heterotic_swap_consistent_with_sq3_linearity(m10):
    """Swapping a and b moves beta Sq^2 between the two roles; the two
    obstructions differ by the image of Sq^3(a + b) = Sq^3 a + Sq^3 b."""
    model = m10.model
    alg, act = model.space.algebra, model.space.action
    a, b = alg.element("c"), alg.zero
    sq3 = lambda x: sq(1, sq(2, x, act), act)  # noqa: E731
    assert sq3(alg.reduce(a + b)) == alg.reduce(sq3(a) + sq3(b))
    direct = heterotic_check(model, a, b)
    swapped = heterotic_check(model, b, a)
    assert direct.status == ORIENTED and swapped.status == ORIENTED
    assert alg.reduce(direct.obstruction + swapped.obstruction) == \
        alg.reduce(sq3(a) + sq3(b))


def test_string_obstruction_matches_d7_twist_term(synth12):
    """Cross-module consistency: on data with w_6 = 0 the string
    obstruction shadow is exactly the height-2 differential of 1."""
    from moravak.ahss import e2_page, integral_first_differential
    alg = synth12.space.algebra
    model = ManifoldData(space=synth12.space, dimension=12, sw={6: alg.zero},
                         flags=frozenset({"oriented", "spin"}))
    h4 = alg.element("h4")
    report = twisted_string_check(model, h4)
    result = integral_first_differential(e2_page(synth12.space, 2),
                                         synth12.space, h4)
    d7_of_unit = alg.element_from_bits(7, result.page.diff[0][0])
    assert report.obstruction == d7_of_unit == alg.element("g7")


def test_fivebrane(fb12):
    alg = fb12.space.algebra
    report = fivebrane_check(fb12, alg.element("q5"))
    assert report.status == ORIENTED
    assert report.alpha8 == alg.zero
    assert report.cross_check_agrees
    assert not report.warnings
    report0 = fivebrane_check(fb12, alg.zero)
    assert report0.status == ORIENTED


def test_fivebrane_warns_without_string_flag(synth12):
    alg = synth12.space.algebra
    plain = ManifoldData(space=synth12.space, dimension=12,
                         sw={6: alg.element("g6")},
                         flags=frozenset({"oriented", "spin"}))
    report = fivebrane_check(plain, alg.zero)
    assert report.warnings


def test_fivebrane_cross_check_on_honest_classes():
    """Q_2 Q_1 agrees with Sq^7 Sq^3 on Sq^1-killed degree-5 classes of a
    genuine space; scan a basis of the kernel rather than one point."""
    from moravak import gf2
    gens = [GradedGenerator(f"t{i}", 1) for i in range(1, 5)]
    alg = PresentedAlgebra(gens, (), 16)
    act = SqAction(alg, {})
    space = SpaceModel(alg, act)
    model = ManifoldData(space=space, dimension=12, sw={6: alg.zero},
                         flags=frozenset({"oriented", "spin", "string"}))
    basis5 = alg.basis_elements(5)
    cols = [alg.express_bits(sq(1, e, act), 6) for e in basis5]
    hits = 0
    for vec in gf2.kernel_basis(cols, len(basis5)):
        h5 = alg.zero
        for i in gf2.bits(vec):
            h5 = h5 + basis5[i]
        report = fivebrane_check(model, h5)
        assert report.cross_check_agrees, str(h5)
        if milnor_q(2, milnor_q(1, h5, act), act):
            hits += 1
    assert hits > 0  # the agreement was exercised on a nonzero value


def test_quadratic_refinement_table(m10):
    model, table = m10.model, m10.index
    alg = model.space.algebra
    classes = [alg.zero, alg.element("b"), alg.element("c"), alg.element("b + c")]
    for a, a2 in itertools.product(classes, repeat=2):
        assert quadratic_refinement_check(model, table, a, a2)


def test_quadratic_refinement_rejects_corrupted_table(m10):
    model = m10.model
    bad = IndexTable({0: 1, 1: 0, 2: 0, 3: 1})  # f(0) = 1 cannot refine
    assert not quadratic_refinement_check(model, bad, model.space.algebra.zero,
                                          model.space.algebra.zero)


def test_quadratic_refinement_dimension_guard(genspin):
    with pytest.raises(ValidationError):
        quadratic_refinement_check(genspin, IndexTable({0: 0}),
                                   genspin.space.algebra.zero,
                                   genspin.space.algebra.zero)


def test_phase_invariance(m10):
    model, table = m10.model, m10.index
    alg = model.space.algebra
    # a = lambda: the two pairing terms coincide
    report = phase_invariance_check(model, table, alg.element("c"), alg.element("b"))
    assert report.invariant and report.sq3_condition_holds
    assert report.orientation_status == ORIENTED
    # a = b: <b Sq^2 c> + <b Sq^2 b> = 1, the phase moves
    report2 = phase_invariance_check(model, table, alg.element("b"), alg.element("b"))
    assert not report2.invariant and report2.correction == 1


def test_phase_hypothesis_errors(m10):
    model, table = m10.model, m10.index
    alg = model.space.algebra
    with pytest.raises(HypothesisViolatedError):
        phase_invariance_check(model, table, alg.element("c"), alg.element("c"))
    broken = IndexTable({0: 0, 1: 1, 2: 0, 3: 1})  # f(b) = 1
    with pytest.raises(HypothesisViolatedError):
        phase_invariance_check(model, broken, alg.element("c"), alg.element("b"))


def test_phase_field_must_have_degree_4(m10, capsys):
    model, table = m10.model, m10.index
    alg = model.space.algebra
    with pytest.raises(ValidationError, match="class a must have degree 4"):
        phase_invariance_check(model, table, alg.element("r"), alg.element("b"))
    with pytest.raises(ValidationError, match="not homogeneous"):
        phase_invariance_check(model, table, alg.element("c + r"), alg.element("b"))
    assert main(["obstruct", "--manifold", "m10", "--check", "phase",
                 "--a", "r", "--b", "b"]) == 3
    assert capsys.readouterr().err == "error: class a must have degree 4\n"


def test_relative_obstruction(m10):
    pair = load("pair12.space").model
    alg = pair.space.algebra
    report = relative_obstruction(pair, alg.zero)
    assert report.status == OBSTRUCTED
    assert report.obstruction == alg.element("m7")
    # the twist u4 cancels the relative w7-shadow
    report2 = relative_obstruction(pair, alg.element("u4"))
    assert report2.status == ORIENTED
    # no boundary: coincides with the absolute check
    closed = load("synth12.space").model
    h4 = closed.space.algebra.element("h4")
    assert relative_obstruction(closed, h4).status == \
        twisted_string_check(closed, h4).status


def test_relative_identity_restriction_needs_zero_classes():
    """With the identity restriction the only relative classes are zero,
    and on zero relative data the verdict is 'oriented'."""
    alg = PresentedAlgebra([GradedGenerator("u4", 4)], (), 16)
    act = SqAction(alg, {})
    space = SpaceModel(alg, act)
    identity = AlgebraMap(alg, alg, {"u4": alg.generator("u4")})
    pair = PairModel(SpaceModel(alg, act), identity)
    model = ManifoldData(space=space, dimension=12, sw={6: alg.zero},
                         flags=frozenset({"oriented", "spin"}), boundary=pair)
    report = relative_obstruction(model, alg.zero)
    assert report.status == ORIENTED
    # nonzero classes are rejected as non-relative
    with pytest.raises(ValidationError):
        relative_obstruction(model, alg.element("u4"))


def test_restriction_must_commute_with_sq():
    X = PresentedAlgebra([GradedGenerator("u4", 4), GradedGenerator("m6", 6)], (), 12)
    actX = SqAction(X, {"u4": {2: X.element("m6")}})
    A = PresentedAlgebra([GradedGenerator("e4", 4), GradedGenerator("f6", 6)], (), 12)
    actA = SqAction(A, {})  # Sq^2 e4 = 0 over here
    fmap = AlgebraMap(X, A, {"u4": A.generator("e4"), "m6": A.generator("f6")})
    pair = PairModel(SpaceModel(A, actA), fmap)
    with pytest.raises(ValidationError, match="^restriction does not commute with Sq$"):
        ManifoldData(space=SpaceModel(X, actX), dimension=12,
                     sw={6: X.element("m6")}, flags=frozenset({"oriented"}),
                     boundary=pair)


def test_manifold_validation():
    alg = PresentedAlgebra([GradedGenerator("w1", 1)], (), 6)
    act = SqAction(alg, {})
    space = SpaceModel(alg, act)
    with pytest.raises(ValidationError):
        ManifoldData(space=space, dimension=6, sw={1: alg.generator("w1")},
                     flags=frozenset({"spin"}))
    with pytest.raises(ValidationError):
        ManifoldData(space=space, dimension=6, flags=frozenset({"string"}),
                     lam=alg.element("w1^4"))  # lambda must vanish on string data
    with pytest.raises(ValidationError):
        ManifoldData(space=space, dimension=6, flags=frozenset({"bogus"}))
    string_model = ManifoldData(space=space, dimension=6,
                                flags=frozenset({"string"}))
    assert string_model.is_spin  # string implies spin
    with pytest.raises(ValidationError, match="^w_4 is required but was not declared$"):
        m = ManifoldData(space=space, dimension=6)
        m.sw_class(4)


BETA_CASES = {
    # case: (Sq^1 d, integral classes or None for no section, x, shadow, verdict)
    "zero class": ("e", "c", "0", "0", TriState.YES),
    "in the integral image": ("0", "c d", "d", "0", TriState.YES),
    "nonzero shadow": ("e", "c", "d", "e", TriState.NO),
    "zero shadow outside the image": ("0", "c", "d", "0", TriState.UNKNOWN),
    "no integral section": ("0", None, "d", "0", TriState.UNKNOWN),
    "no integral section, nonzero shadow": ("e", None, "d", "e", TriState.NO),
}


@pytest.mark.parametrize("sq1d, integral, x, shadow, verdict",
                         BETA_CASES.values(), ids=BETA_CASES)
def test_beta_certificate_rule_at_every_entry_point(sq1d, integral, x, shadow, verdict):
    """beta(x) vanishes when x is zero or in the integral image, a nonzero
    shadow Sq^1 x proves that it does not, and a zero shadow alone decides
    nothing.  On F2[c4, d6, e7] with Sq^2 c = d, x is Sq^2 of c or 0 for
    sq_z, w_6 for integral_sw, and w_6 + Sq^2 c for twisted_string_check."""
    alg = PresentedAlgebra([GradedGenerator("c", 4), GradedGenerator("d", 6),
                            GradedGenerator("e", 7)], (), 9)
    act = SqAction(alg, {"c": {2: alg.element("d")}, "d": {1: alg.element(sq1d)}})
    c, d, x = alg.element("c"), alg.element("d"), alg.element(x)
    integ = None
    if integral is not None:
        spans = {alg.degree_of(alg.element(g)): [alg.element(g)] for g in integral.split()}
        integ = IntegralityData(act, {**spans, 8: [alg.mul(c, c)]})
    want = (alg.element(shadow), verdict)
    if integ is None:  # only the unit is known to be integral
        with pytest.raises(ValidationError,
                           match="^class is not in the declared integral image: c$"):
            sq_z(1, c, act, IntegralityData(act))
    else:
        assert sq_z(1, c if x else alg.zero, act, integ) == want
    space = SpaceModel(alg, act, integ)
    assert integral_sw(ManifoldData(space=space, dimension=9, sw={6: x}), 7) == want
    m = ManifoldData(space=space, dimension=9, sw={6: x + d})
    report = twisted_string_check(m, c)
    assert (report.obstruction, report.certificate) == want
    status = {TriState.YES: ORIENTED, TriState.NO: OBSTRUCTED, TriState.UNKNOWN: UNDECIDED}
    assert report.status == status[verdict]


def test_w0_is_canonical_when_the_unit_vanishes():
    """Under the relation 1 = 0 every class is zero, w_0 included, so
    beta(w_0) vanishes even with no integral section."""
    alg = PresentedAlgebra([GradedGenerator("t", 1)], [ONE], 4)
    m = ManifoldData(space=SpaceModel(alg, SqAction(alg, {})), dimension=4)
    assert integral_sw(m, 1) == (alg.zero, TriState.YES)
