import re
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from moravak.errors import ValidationError
from moravak.f2alg import (
    EXTERIOR,
    ZERO,
    AlgebraMap,
    GradedElement,
    GradedGenerator,
    PresentedAlgebra,
    monomial,
    parse_element,
)
from moravak.steenrod import (
    IntegralityData,
    SqAction,
    TriState,
    adem_spot_check,
    check_derivation,
    commutes_with_sq,
    milnor_q,
    sq,
    sq_z,
)

from conftest import (
    ILL_FORMED,
    exterior_pair,
    presentations,
    projective_product,
    projective_space,
    random_element,
    random_unreduced,
    truncated_projective,
)
from oracles import (
    brute_milnor_multi,
    brute_milnor_on_power,
    dense_rank_mod2,
    sq_on_multipower,
)
from test_input_files import SETTINGS


class ReferenceSq:
    """Sq^i and Q_j on elements as they were computed term by term: the
    total square of a monomial is the product of the total squares
    sum_i Sq^i(g) of its factors, one generator factor at a time, Sq^i
    keeps the terms of that image of one degree, and Q_j recurses on
    elements."""

    def __init__(self, action: SqAction):
        self.algebra = alg = action.algebra
        self.totals = {}
        for g in alg.generators:
            total = ZERO
            for i in range(g.degree + 1):
                total = total + action.generator_sq(g.name, i)
            self.totals[g.name] = total
        self.images = {}

    def total(self, m) -> GradedElement:
        """The total square of m; an exterior square maps to zero."""
        alg = self.algebra
        if m not in self.images:
            out = alg.one if alg._check_monomial(m) else ZERO
            for name, exp in m:
                for _ in range(exp):
                    out = alg.mul(out, self.totals[name])
            self.images[m] = out
        return self.images[m]

    def sq(self, i: int, e: GradedElement) -> GradedElement:
        alg = self.algebra
        out: set = set()
        for m in e.terms:
            target = alg.monomial_degree(m) + i
            if target > alg.degree_cap:
                continue
            for mono in self.total(m).terms:
                if alg.monomial_degree(mono) == target:
                    out ^= {mono}
        return GradedElement(frozenset(out))

    def milnor_q(self, j: int, e: GradedElement) -> GradedElement:
        if not e:
            return ZERO
        if j == 0:
            return self.sq(1, e)
        s = 1 << j
        return self.sq(s, self.milnor_q(j - 1, e)) + self.milnor_q(j - 1, self.sq(s, e))


def corrupted_action():
    """Valid-by-axioms table that is not a genuine Steenrod action:
    Sq^1 g = h and Sq^1 h = g^2 violates Sq^1 Sq^1 = 0."""
    alg = PresentedAlgebra([GradedGenerator("g", 2), GradedGenerator("h", 3)], (), 12)
    table = {"g": {1: alg.element("h")},
             "h": {1: alg.element("g^2"), 2: alg.element("g*h")}}
    return alg, SqAction(alg, table)


def exterior_chain():
    """Lambda(x3, z5) (x) F2[y2]/(y^4) with Sq^2 x = z, Sq^1 z = y^3."""
    gens = [GradedGenerator("x", 3, EXTERIOR), GradedGenerator("y", 2),
            GradedGenerator("z", 5, EXTERIOR)]
    alg = PresentedAlgebra(gens, [parse_element("y^4")], 12)
    return alg, SqAction(alg, {"x": {2: alg.element("z")}, "z": {1: alg.element("y^3")}})


ACTIONS = {
    "projective": lambda: projective_space(12), "product": lambda: projective_product(3, 10),
    "truncated": lambda: truncated_projective(9, 12), "exterior": exterior_pair,
    "corrupted": corrupted_action, "exterior-chain": exterior_chain,
}


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_sq_and_q_match_term_by_term_reference(name, rng):
    alg, act = ACTIONS[name]()
    ref = ReferenceSq(act)
    elements = [random_unreduced(alg, rng) for _ in range(25)]
    elements += [random_element(alg, rng.randint(0, alg.degree_cap), rng) for _ in range(25)]
    for e in elements:
        for i in range(alg.degree_cap + 2):
            assert sq(i, e, act) == ref.sq(i, e), (i, e)
        for j in range(4):
            assert milnor_q(j, e, act) == ref.milnor_q(j, e), (j, e)


def _outcome(call):
    try:
        return call()
    except ValidationError as exc:
        assert re.match(ILL_FORMED, str(exc)), exc
        return str(exc)


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_terms_outside_the_window_as_before(name):
    """An unknown generator raises; a negative exponent raises unless
    Sq^i of its term leaves the window; exterior squares and terms above
    the cap are zero, next to a window term."""
    alg, act = ACTIONS[name]()
    ref = ReferenceSq(act)
    cap = alg.degree_cap
    g, *others = alg.generators
    window_term = ((g.name, 1),)
    bad = [(("nope", 1),), ((g.name, -1),), ((g.name, cap + 1),)]
    bad += [((x.name, 2),) for x in alg.generators if x.kind == EXTERIOR]
    # of degree above the cap, so Sq^i of it leaves the window
    high = [monomial((g.name, -1), (x.name, cap + g.degree)) for x in others]
    for term in bad + high:
        e = GradedElement(frozenset({window_term, term}))
        for i in range(cap + 2):
            assert _outcome(lambda: sq(i, e, act)) == _outcome(lambda: ref.sq(i, e)), (i, term)
        for j in range(3):
            assert _outcome(lambda: milnor_q(j, e, act)) == \
                _outcome(lambda: ref.milnor_q(j, e)), (j, term)
    negative = GradedElement(frozenset({bad[1]}))
    assert isinstance(_outcome(lambda: sq(0, negative, act)), str)
    for term in high:
        assert sq(1, GradedElement(frozenset({term})), act) == ZERO


def test_sq_masks_are_built_per_target_degree():
    alg, act = projective_space(40)
    assert not act._masks
    sq(3, alg.element("t^5"), act)
    assert set(act._masks) == {8}
    sq(1, alg.element("t^40"), act)  # leaves the window
    assert set(act._masks) == {8}


def test_sq_above_the_degree_builds_nothing():
    """Sq^i of a degree-d term is zero for i > d (the unstable axiom), and
    the term is skipped before its total square or a mask is built."""
    alg, act = projective_space(40)
    assert sq(5, alg.element("t^3"), act) == ZERO
    assert not act._squares._images and not act._masks


def element_from_exponents(alg, exps):
    out = alg.zero
    for e in exps:
        out = out + alg.element(f"t^{e}" if e else "1")
    return out


def test_sq_binomial_oracle():
    alg, act = projective_space(20)
    for m in range(0, 10):
        e = alg.element(f"t^{m}" if m else "1")
        for i in range(0, 10):
            exps = {m + i} if i <= m and comb(m, i) % 2 else set()
            assert sq(i, e, act) == element_from_exponents(alg, exps), (i, m)


def test_sq_examples():
    alg, act = projective_space(16)
    assert sq(1, alg.generator("t"), act) == alg.element("t^2")
    assert sq(2, alg.element("t^3"), act) == alg.element("t^5")
    assert sq(3, alg.element("t^4"), act) == alg.zero


def test_sq_multivariable_against_convolution_oracle(rng):
    alg, act = projective_product(3, 14)
    for _ in range(40):
        exps = tuple(rng.randint(0, 3) for _ in range(3))
        mono = "*".join(f"t{i+1}^{e}" for i, e in enumerate(exps) if e) or "1"
        e = alg.element(mono)
        i = rng.randint(0, 5)
        expected = alg.zero
        for vec in sq_on_multipower(i, exps):
            term = "*".join(f"t{k+1}^{x}" for k, x in enumerate(vec) if x) or "1"
            expected = expected + alg.element(term)
        assert sq(i, e, act) == alg.reduce(expected), (i, exps)


def test_cartan_identity(rng):
    alg, act = projective_product(2, 12)
    for _ in range(200):
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        a = random_element(alg, da, rng)
        b = random_element(alg, db, rng)
        for k in range(0, 4):
            lhs = sq(k, alg.mul(a, b), act)
            rhs = alg.zero
            for i in range(k + 1):
                rhs = rhs + alg.mul(sq(i, a, act), sq(k - i, b, act))
            assert lhs == alg.reduce(rhs)


@pytest.mark.parametrize("fixture", [
    lambda: projective_space(10), lambda: projective_product(2, 10),
    lambda: truncated_projective(9, 12), exterior_pair,
], ids=["projective", "product", "truncated", "exterior"])
def test_sq_is_canonical_on_unreduced_input(fixture, rng):
    alg, act = fixture()
    for _ in range(40):
        e = random_unreduced(alg, rng)
        for i in range(6):
            out = sq(i, e, act)
            assert out == sq(i, alg.reduce(e), act) == alg.reduce(out), (i, e)


def test_milnor_oracle_on_powers():
    alg, act = projective_space(40)
    for j in range(4):
        for m in (1, 2, 3, 5):
            got = milnor_q(j, alg.element(f"t^{m}"), act)
            expected = element_from_exponents(alg, brute_milnor_on_power(j, m))
            assert got == expected, (j, m)


def test_milnor_classical_values():
    alg, act = projective_space(40)
    t = alg.generator("t")
    for j in range(4):
        assert milnor_q(j, t, act) == alg.element(f"t^{2 ** (j + 1)}")


def test_milnor_multivariable_oracle(rng):
    alg, act = projective_product(2, 16)
    for _ in range(25):
        exps = (rng.randint(0, 3), rng.randint(0, 3))
        mono = "*".join(f"t{i+1}^{e}" for i, e in enumerate(exps) if e) or "1"
        for j in (0, 1, 2):
            got = milnor_q(j, alg.element(mono), act)
            expected = alg.zero
            for vec in brute_milnor_multi(j, exps):
                term = "*".join(f"t{k+1}^{x}" for k, x in enumerate(vec) if x) or "1"
                expected = expected + alg.element(term)
            assert got == alg.reduce(expected), (j, exps)


def test_milnor_kills_unit_and_squares():
    alg, act = projective_product(2, 16)
    for j in range(3):
        assert milnor_q(j, alg.one, act) == alg.zero
        assert milnor_q(j, alg.element("t1^2*t2^2"), act) == alg.zero


def test_milnor_degree_shift(rng):
    alg, act = projective_product(2, 16)
    for _ in range(20):
        d = rng.randint(1, 4)
        e = random_element(alg, d, rng)
        for j in (0, 1, 2):
            out = milnor_q(j, e, act)
            if out:
                assert alg.degree_of(out) == d + 2 ** (j + 1) - 1


def test_milnor_squares_to_zero(rng):
    alg, act = projective_product(2, 16)
    for _ in range(25):
        e = random_element(alg, rng.randint(1, 4), rng)
        for j in (0, 1):
            assert milnor_q(j, milnor_q(j, e, act), act) == alg.zero


def test_derivation_property(rng):
    fixtures = [projective_space(14), projective_product(3, 12),
                truncated_projective(9, 12)]
    for alg, act in fixtures:
        for _ in range(80):
            a = random_element(alg, rng.randint(1, 4), rng)
            b = random_element(alg, rng.randint(1, 4), rng)
            for j in (0, 1, 2):
                assert check_derivation(j, a, b, act)


def test_derivation_fails_on_corrupted_table():
    alg, act = corrupted_action()
    g, h = alg.generator("g"), alg.generator("h")
    # Q_1 is a derivation for any Cartan-extended table (the cross terms
    # come in equal pairs), so the corruption first shows up at Q_2
    assert check_derivation(1, g, h, act)
    assert not check_derivation(2, g, h, act)


def test_adem_spot_check():
    _, act = projective_product(2, 12)
    assert adem_spot_check(act, 8)
    _, bad = corrupted_action()
    assert not adem_spot_check(bad, 8)


def test_unstable_axioms_enforced():
    alg, _ = projective_space(12)
    with pytest.raises(ValidationError):
        SqAction(alg, {"t": {2: alg.element("t^3")}})  # above the degree
    alg2 = PresentedAlgebra([GradedGenerator("g", 2)], (), 12)
    with pytest.raises(ValidationError):
        SqAction(alg2, {"g": {1: alg2.element("g^2")}})  # inhomogeneous degree
    with pytest.raises(ValidationError):
        SqAction(alg2, {"g": {2: alg2.element("g^2") + alg2.one}})  # bad top
    with pytest.raises(ValidationError):
        SqAction(alg2, {"nope": {}})


def test_relation_compatibility_checked():
    # Sq^1(x^3) = x^2 y is nonzero against y^2 + x^3, so the table is refused
    gens = [GradedGenerator("x", 2), GradedGenerator("y", 3)]
    alg = PresentedAlgebra(gens, [parse_element("y^2 + x^3")], 12)
    with pytest.raises(ValidationError):
        SqAction(alg, {"x": {1: alg.element("y")}})
    # the compatible truncated model loads fine
    truncated_projective(9, 12)


@pytest.mark.parametrize("table, i", [
    ({}, 2),  # Sq^2(r) = x*y^2 and Sq^4(r) = x^2*y^2 are nonzero, Sq^1(r) is zero
    ({"x": {1: "y"}}, 1),  # Sq^1, Sq^3 and Sq^5 of r are nonzero
])
def test_relation_check_names_the_lowest_failing_square(table, i):
    gens = [GradedGenerator("x", 2), GradedGenerator("y", 3)]
    alg = PresentedAlgebra(gens, [parse_element("y^2 + x^3")], 12)
    table = {g: {k: alg.element(v) for k, v in row.items()} for g, row in table.items()}
    with pytest.raises(ValidationError) as exc:
        SqAction(alg, table)
    assert str(exc.value) == \
        f"action does not descend to the quotient: Sq^{i}(x^3 + y^2) is nonzero"


def test_folded_power_relation_is_checked():
    """a^2 = 0 is folded into the window, so it has no window number; the
    check still reads Sq(a^2) = Sq(a)^2 = (a + b + a^2)^2 = b^2 mod a^2."""
    gens = [GradedGenerator("a", 2), GradedGenerator("b", 3)]
    alg = PresentedAlgebra(gens, [parse_element("a^2")], 8)
    with pytest.raises(ValidationError) as exc:
        SqAction(alg, {"a": {1: alg.element("b")}})
    assert str(exc.value) == "action does not descend to the quotient: Sq^2(a^2) is nonzero"


def test_exterior_squares_checked():
    """Sq^{2i}(x^2) = (Sq^i x)^2 in characteristic 2, so an exterior x
    needs (Sq^i x)^2 = 0 inside the window."""
    gens = [GradedGenerator("x", 3, EXTERIOR), GradedGenerator("y", 4)]
    alg = PresentedAlgebra(gens, (), 12)
    with pytest.raises(ValidationError) as exc:
        SqAction(alg, {"x": {1: alg.element("y")}})
    assert str(exc.value) == "action does not descend to the quotient: Sq^2(x^2) is nonzero"
    gens = [GradedGenerator("x", 5, EXTERIOR), GradedGenerator("y", 7)]
    alg = PresentedAlgebra(gens, (), 16)
    with pytest.raises(ValidationError) as exc:
        SqAction(alg, {"x": {2: alg.element("y")}})
    assert str(exc.value) == "action does not descend to the quotient: Sq^4(x^2) is nonzero"
    # Lambda(x3, z5) with Sq^2 x = z: z^2 = 0, so the table is consistent
    gens = [GradedGenerator("x", 3, EXTERIOR), GradedGenerator("z", 5, EXTERIOR)]
    alg = PresentedAlgebra(gens, (), 12)
    act = SqAction(alg, {"x": {2: alg.element("z")}})
    assert sq(2, alg.element("x"), act) == alg.element("z")
    assert sq(2, alg.element("x*z"), act) == alg.zero  # z^2 = 0


def reference_refusal(action: SqAction) -> str | None:
    """The load check as it was made entry by entry: (Sq^i x)^2 for each
    exterior x in generator order and each declared i ascending, then the
    lowest nonzero Sq^i of each relation, term by term."""
    alg = action.algebra
    for g in alg.generators:
        row = action._table[g.name]
        for i in sorted(row) if g.kind == EXTERIOR else ():
            if alg.mul(row[i], row[i]):
                return f"action does not descend to the quotient: Sq^{2 * i}({g.name}^2) is nonzero"
    ref = ReferenceSq(action)
    for r in alg.relations:
        for i in range(alg.degree_of(r) + 1):
            if ref.sq(i, r):
                return f"action does not descend to the quotient: Sq^{i}({r}) is nonzero"
    return None


@settings(SETTINGS, max_examples=200)  # about one in ten is refused
@given(presentations(), st.randoms(use_true_random=False))
def test_presentation_check_matches_the_per_entry_reference(alg, rnd):
    """The one check through the total-square map refuses exactly the
    tables the per-entry check refused, with the same message."""
    table = {g.name: {i: random_element(alg, g.degree + i, rnd)
                      for i in range(1, min(g.degree, alg.degree_cap - g.degree + 1))
                      if rnd.random() < 0.7} for g in alg.generators}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SqAction, "_check_relations", lambda self: None)
        expected = reference_refusal(SqAction(alg, table))
    try:
        SqAction(alg, table)
    except ValidationError as err:
        assert str(err) == expected
    else:
        assert expected is None


def test_generators_above_the_window_cost_nothing():
    """Sq^i(g) has degree |g| + i, so past the cap it is zero: a generator
    of huge degree adds no work to building or checking an action."""
    gens = [GradedGenerator("t", 1), GradedGenerator("h", 10**20),
            GradedGenerator("e", 10**20, EXTERIOR)]
    alg = PresentedAlgebra(gens, (), 12)
    act = SqAction(alg, {})
    assert sq(1, alg.generator("t"), act) == alg.element("t^2")
    assert sq(1, alg.generator("h"), act) == alg.zero
    identity = AlgebraMap(alg, alg, {g.name: alg.generator(g.name) for g in gens})
    assert commutes_with_sq(identity, act, act)


def reference_commutes(fmap, source, target) -> bool:
    """f(Sq^i g) = Sq^i f(g) compared one generator and one index at a
    time, for each i <= |g| with |g| + i within the larger cap."""
    cap = max(fmap.source.degree_cap, fmap.target.degree_cap)
    return all(fmap.apply(source.generator_sq(g.name, i)) == sq(i, fmap.images[g.name], target)
               for g in fmap.source.generators
               for i in range(min(g.degree, cap - g.degree) + 1))


def free_action(degrees, cap, table):
    """F2[g0, g1, ...] in the given degrees at the cap, with Sq table
    {k: {i: element}} on generator gk."""
    alg = PresentedAlgebra([GradedGenerator(f"g{k}", d) for k, d in enumerate(degrees)],
                           (), cap)
    return alg, SqAction(alg, {f"g{k}": row for k, row in table.items()})


@SETTINGS
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(3, 9),
       st.integers(3, 9), st.randoms(use_true_random=False), st.data())
def test_commutation_matches_the_per_index_reference(degrees, cap1, cap2, rnd, data):
    """Free algebras on the same generators at two caps, with one table,
    one entry of it perhaps changed in the target, and a map that sends
    each generator to itself plus, at times, other terms of its degree."""
    # every table entry has degree below 8; each side truncates its own
    whole = PresentedAlgebra([GradedGenerator(f"g{k}", d) for k, d in enumerate(degrees)],
                             (), 8)
    table = {k: {i: random_element(whole, d + i, rnd) for i in range(1, d)
                 if rnd.random() < 0.5} for k, d in enumerate(degrees)}
    changed = {k: dict(row) for k, row in table.items()}
    spots = [(k, i) for k, d in enumerate(degrees) for i in range(1, d)]
    if spots and data.draw(st.booleans()):
        k, i = data.draw(st.sampled_from(spots))
        changed[k][i] = random_element(whole, degrees[k] + i, rnd)
    source, source_action = free_action(degrees, cap1, table)
    target, target_action = free_action(degrees, cap2, changed)
    images = {f"g{k}": whole.generator(f"g{k}") + (random_element(whole, d, rnd)
                                                    if rnd.random() < 0.3 else ZERO)
              for k, d in enumerate(degrees)}
    fmap = AlgebraMap(source, target, images)
    assert commutes_with_sq(fmap, source_action, target_action) == \
        reference_commutes(fmap, source_action, target_action)


def test_commutation_failing_at_one_square():
    """F2[g0, g1, g2] in degrees 4, 6, 7 with Sq^2 g0 = g1, Sq^3 g0 = g2
    and Sq^1 g1 = g2; the target drops Sq^3 g0 = g2 alone, so the
    identity fails at (g0, 3) and nowhere else."""
    el = parse_element
    table = {0: {2: el("g1"), 3: el("g2")}, 1: {1: el("g2")}}
    source, source_action = free_action((4, 6, 7), 14, table)
    target, target_action = free_action((4, 6, 7), 14, {0: {2: el("g1")}, 1: {1: el("g2")}})
    fmap = AlgebraMap(source, target, {g.name: target.generator(g.name)
                                       for g in source.generators})
    failing = [(g.name, i) for g in source.generators for i in range(g.degree + 1)
               if fmap.apply(source_action.generator_sq(g.name, i))
               != sq(i, fmap.images[g.name], target_action)]
    assert failing == [("g0", 3)]
    assert not commutes_with_sq(fmap, source_action, target_action)
    assert commutes_with_sq(fmap, source_action, source_action)


@pytest.mark.parametrize("source_cap, target_cap, commutes", [(8, 11, False), (11, 8, True)])
def test_commutation_between_two_caps(source_cap, target_cap, commutes):
    """Sq^3 g = h, of degree 9, is declared on both sides but lies in
    one window only; g^2, of degree 12, lies in neither.  Seen in the
    target alone it breaks commutation, while a source square that
    leaves the target's window maps to zero as it should."""
    table = {0: {3: parse_element("g1")}}
    source, source_action = free_action((6, 9), source_cap, table)
    target, target_action = free_action((6, 9), target_cap, table)
    fmap = AlgebraMap(source, target, {"g0": target.generator("g0"),
                                       "g1": target.generator("g1")})
    assert commutes_with_sq(fmap, source_action, target_action) is commutes
    assert reference_commutes(fmap, source_action, target_action) is commutes


def even_integrality(cap=12):
    """RP^infty with the even powers declared integral."""
    alg, act = projective_space(cap)
    spans = {d: [alg.element(f"t^{d}")] for d in range(2, cap + 1, 2)}
    return alg, act, IntegralityData(act, spans)


def test_sq_z_examples():
    alg, act, integ = even_integrality()
    rep, verdict = sq_z(1, alg.zero, act, integ)
    assert rep == alg.zero and verdict is TriState.YES
    # Sq^2(t^2) = t^4 is declared integral, so beta of it vanishes
    rep, verdict = sq_z(1, alg.element("t^2"), act, integ)
    assert rep == alg.zero and verdict is TriState.YES
    with pytest.raises(ValidationError,
                       match="^class is not in the declared integral image: t$"):
        sq_z(1, alg.generator("t"), act, integ)


def chain_model(sq1d):
    """F2[c4, d6, e7] with Sq^2 c = d and Sq^1 d as given."""
    alg = PresentedAlgebra([GradedGenerator("c", 4), GradedGenerator("d", 6),
                            GradedGenerator("e", 7)], (), 9)
    act = SqAction(alg, {"c": {2: alg.element("d")}, "d": {1: alg.element(sq1d)}})
    integ = IntegralityData(act, {4: [alg.element("c")], 8: [alg.element("c^2")]})
    return alg, act, integ


def test_sq_z_no_and_unknown():
    alg, act, integ = chain_model("e")
    # Sq^1 Sq^2 c = e is a nonzero shadow: conclusive nonvanishing
    rep, verdict = sq_z(1, alg.element("c"), act, integ)
    assert rep == alg.element("e") and verdict is TriState.NO
    # with Sq^1 d = 0 the shadow dies but d has no certificate either way
    alg2, act2, integ2 = chain_model("0")
    rep2, verdict2 = sq_z(1, alg2.element("c"), act2, integ2)
    assert rep2 == alg2.zero and verdict2 is TriState.UNKNOWN


def test_integrality_validation():
    alg, act = projective_space(10)
    with pytest.raises(ValidationError):
        IntegralityData(act, {1: [alg.generator("t")]})  # Sq^1 t = t^2 != 0
    with pytest.raises(ValidationError):
        IntegralityData(act, {2: [alg.element("t^2")], 4: [alg.element("t^4")],
                              6: [alg.element("t^6")]})  # t^2 * t^6 escapes
    with pytest.raises(ValidationError):
        IntegralityData(act, {3: [alg.element("t^2")]})  # wrong degree slot


def reference_closed(alg, spans) -> bool:
    """Every product of two declared entries of positive degrees summing
    to at most the cap lies in their span, by dense ranks."""
    entries = [(d, alg.reduce(e)) for d, elems in spans.items() for e in elems]
    return all(reference_contains(alg, spans, alg.mul(a, b))
               for d1, a in entries for d2, b in entries
               if d1 and d2 and d1 + d2 <= alg.degree_cap)


def closure_outcome(act, spans) -> bool:
    """Whether IntegralityData accepts the spans as closed under products."""
    try:
        IntegralityData(act, spans)
    except ValidationError as err:
        assert "not closed under products" in str(err)
        return False
    return True


@SETTINGS
@given(st.randoms(use_true_random=False))
def test_closure_matches_the_per_entry_reference(rnd):
    """F2[g0, g1, g2] in degrees 2, 2, 4, where Sq^1 is zero, at cap 8:
    each even degree declares nothing, its whole basis, or a few random
    sums; half the time these are closed under products, and then one
    entry may go."""
    alg, act = free_action((2, 2, 4), 8, {})
    spans = {}
    for d in (2, 4, 6, 8):
        mode = rnd.randrange(3)
        if mode == 1:
            spans[d] = set(alg.basis_elements(d))
        elif mode == 2:
            spans[d] = {random_element(alg, d, rnd) for _ in range(rnd.randint(1, 4))}
    if rnd.random() < 0.5:
        for _ in range(3):  # degrees 2 -> 4 -> 6 -> 8
            entries = [(d, e) for d, elems in spans.items() for e in elems]
            for d1, a in entries:
                for d2, b in entries:
                    if d1 + d2 <= 8:
                        spans.setdefault(d1 + d2, set()).add(alg.mul(a, b))
        entries = [(d, e) for d in sorted(spans) for e in sorted(spans[d], key=str)]
        if entries and rnd.random() < 0.5:
            d, e = rnd.choice(entries)
            spans[d].discard(e)
    spans = {d: sorted(elems, key=str) for d, elems in spans.items()}
    assert closure_outcome(act, spans) == reference_closed(alg, spans)


def test_closure_escape_through_rows_that_are_sums_of_entries():
    """The degree-2 entries g0 + g1, g1 + g2 and g0 + g1 + g2 are none
    of the echelon rows g0, g1, g2; the degree-4 entries lack g1*g2, so
    the product of the rows g1 and g2 escapes."""
    alg, act = free_action((2, 2, 2), 4, {})
    el = parse_element
    spans = {2: [el("g0 + g1"), el("g1 + g2"), el("g0 + g1 + g2")],
             4: [el("g0^2"), el("g1^2"), el("g2^2"), el("g0*g1"), el("g0*g2")]}
    assert not reference_closed(alg, spans)
    with pytest.raises(ValidationError) as err:
        IntegralityData(act, spans)
    assert str(err.value) == "integral image is not closed under products: (g1)*(g2) escapes"
    spans[4].append(el("g1*g2"))
    assert reference_closed(alg, spans) and closure_outcome(act, spans)


@lru_cache(maxsize=None)
def square_integrality(space: str):
    """The squares declared integral, on a space with relations: each even
    degree 2d spans the squares of a basis of degree d.  Squares are killed
    by Sq^1, and their span is closed under products, since squaring is
    additive."""
    if space == "truncated":
        alg, act = truncated_projective(9, 12)
    else:  # a Frobenius relation beside a monomial one
        alg = PresentedAlgebra([GradedGenerator("t1", 1), GradedGenerator("t2", 1)],
                               [parse_element("t1^2 + t2^2"), parse_element("t1^5")], 10)
        act = SqAction(alg, {})
    spans = {2 * d: [alg.mul(b, b) for b in alg.basis_elements(d)]
             for d in range(1, alg.degree_cap // 2 + 1)}
    return alg, IntegralityData(act, spans), spans


def reference_contains(alg, spans, e) -> bool:
    """Per degree of the canonical form: the degree part lies in the span
    of that degree's declared elements, by dense ranks."""
    for d in alg.degrees_of(alg.reduce(e)):
        rows = [alg.express_bits(x, d) for x in spans.get(d, [])]
        if d == 0:
            rows.append(alg.express_bits(alg.one, 0))
        dim = len(alg.basis(d))
        vec = alg.express_bits(e, d)
        if dense_rank_mod2(rows + [vec], dim) != dense_rank_mod2(rows, dim):
            return False
    return True


@SETTINGS
@given(st.sampled_from(["truncated", "frobenius"]), st.data())
def test_integral_image_contains_matches_per_degree_spans(space, data):
    """Inhomogeneous sums of declared elements, with and without unreduced
    extra terms (some above the cap), against a per-degree reference."""
    alg, integ, spans = square_integrality(space)
    declared = [x for d in sorted(spans) for x in spans[d]] + [alg.one]
    e = ZERO
    for x in data.draw(st.lists(st.sampled_from(declared), max_size=6)):
        e = e + x
    names = [g.name for g in alg.generators]
    for exps in data.draw(st.sets(st.tuples(*[st.integers(0, 7)] * len(names)),
                                  max_size=3)):
        e = e + GradedElement(frozenset({monomial(*zip(names, exps))}))
    assert integ.contains(e) == reference_contains(alg, spans, e)
