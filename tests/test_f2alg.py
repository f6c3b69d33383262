from functools import lru_cache
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st
from moravak import f2alg, gf2
from moravak.errors import ComputationError, ValidationError
from moravak.f2alg import (
    EXTERIOR,
    POLYNOMIAL,
    ZERO,
    AlgebraMap,
    GradedElement,
    GradedGenerator,
    PresentedAlgebra,
    format_monomial,
    monomial,
    parse_element,
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
from test_input_files import SETTINGS


def rbk_algebra(n=2, cap=12):
    v = GradedGenerator("v", 2 ** (n + 1) - 2)
    b0 = GradedGenerator("b0", 2 ** (n + 1) - 2)
    return PresentedAlgebra([v, b0], [parse_element("b0^2 + v*b0")], cap)


def test_polynomial_square():
    alg, _ = projective_space(12)
    t = alg.generator("t")
    assert str(alg.mul(t, t)) == "t^2"


def test_rbk_defining_relation():
    alg = rbk_algebra()
    b0 = alg.generator("b0")
    assert alg.mul(b0, b0) == alg.element("v*b0")


def test_truncated_binomial_square():
    # (1+u)^2 = 1 + u^2: the cross terms cancel in characteristic 2
    alg = PresentedAlgebra([GradedGenerator("u", 1)], (), 8)
    e = alg.element("1 + u")
    assert alg.mul(e, e) == alg.element("1 + u^2")


def test_degreewise_basis_examples():
    alg, _ = projective_space(12)
    assert [format_monomial(m) for m in alg.basis(3)] == ["t^3"]
    ext, _ = exterior_pair()
    assert [format_monomial(m) for m in ext.basis(8)] == ["x3*x5"]
    rbk = rbk_algebra()
    assert [format_monomial(m) for m in rbk.basis(6)] == ["b0", "v"]


def test_basis_out_of_window():
    alg, _ = projective_space(8)
    with pytest.raises(ValidationError, match=r"^degree 9 outside window \[0, 8\]$"):
        alg.basis(9)
    with pytest.raises(ValidationError, match=r"^degree -1 outside window \[0, 8\]$"):
        alg.basis(-1)
    for d in (-1, 9):
        with pytest.raises(ValidationError) as exc:
            alg.express_bits(alg.generator("t"), d)
        assert str(exc.value) == f"degree {d} outside window [0, 8]"


def test_express_examples():
    alg, _ = projective_space(12)
    assert all(alg.express_bits(alg.zero, d) == 0 for d in range(13))
    assert alg.express_bits(alg.element("t^2 + t^2"), 2) == 0
    rbk = rbk_algebra()
    assert rbk.express_bits(rbk.element("v + b0 + v"), 6) == 0b01


def test_express_roundtrip():
    rbk = rbk_algebra()
    for d in (0, 6, 12):
        for bits in range(1 << len(rbk.basis(d))):
            e = rbk.element_from_bits(d, bits)
            assert rbk.express_bits(e, d) == bits


def test_unknown_generator_rejected():
    alg, _ = projective_space(8)
    with pytest.raises(ValidationError, match="^unknown generator 'nope'$"):
        alg.reduce(parse_element("t + nope"))
    with pytest.raises(ValidationError, match="^unknown generator 'nope'$"):
        alg.generator("nope")
    # every factor is checked, also in a term that an exterior square or
    # a folded power zeroes, whatever the name order
    gens = [GradedGenerator("e", 1, EXTERIOR), GradedGenerator("t", 1),
            GradedGenerator("z", 1, EXTERIOR)]
    alg = PresentedAlgebra(gens, [parse_element("t^5")], 12)
    for text in ("e^2*nope", "nope*z^2", "t^9*nope"):
        with pytest.raises(ValidationError) as exc:
            alg.reduce(parse_element(text))
        assert str(exc.value) == "unknown generator 'nope'"


def test_negative_exponents_refused():
    alg, _ = projective_space(8)
    inverse, square = parse_element("t^-1"), alg.element("t^2")
    for call in (lambda: alg.reduce(inverse), lambda: alg.mul(inverse, square),
                 lambda: alg.mul(square, inverse)):
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == "negative exponent on non-invertible generator t"
    rbk = rbk_algebra()
    with pytest.raises(ValidationError,
                       match="^negative exponent on non-invertible generator v$"):
        rbk.reduce(parse_element("v^-1 * b0"))


def test_associative_commutative_unital(rng):
    algebras = [projective_space(10)[0], projective_product(2, 10)[0],
                rbk_algebra(cap=18)]
    for alg in algebras:
        for _ in range(70):
            a = random_element(alg, rng.randint(0, 4), rng)
            b = random_element(alg, rng.randint(0, 4), rng)
            c = random_element(alg, rng.randint(0, 4), rng)
            assert alg.mul(a, b) == alg.mul(b, a)
            assert alg.mul(alg.mul(a, b), c) == alg.mul(a, alg.mul(b, c))
            assert alg.mul(a, alg.one) == alg.reduce(a)


def test_multiplication_bilinear(rng):
    alg = projective_product(2, 10)[0]
    for _ in range(60):
        d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
        a1 = random_element(alg, d1, rng)
        a2 = random_element(alg, d1, rng)
        b = random_element(alg, d2, rng)
        lhs = alg.mul(a1 + a2, b)
        rhs = alg.mul(a1, b) + alg.mul(a2, b)
        assert lhs == alg.reduce(rhs)


def test_canonical_form_idempotent(rng):
    rbk = rbk_algebra(cap=18)
    for _ in range(50):
        e = random_element(rbk, 6 * rng.randint(0, 3), rng)
        prod = rbk.mul(e, rbk.generator("b0"))
        assert rbk.reduce(prod) == prod


def test_relations_express_to_zero():
    rbk = rbk_algebra()
    for r in rbk.relations:
        assert all(rbk.express_bits(r, d) == 0 for d in range(rbk.degree_cap + 1))


def test_exterior_squares_vanish():
    ext, _ = exterior_pair()
    x3 = ext.generator("x3")
    assert ext.mul(x3, x3) == ext.zero
    assert ext.reduce(parse_element("x3^2")) == ext.zero


def test_relation_validation():
    with pytest.raises(ValidationError):
        PresentedAlgebra([GradedGenerator("t", 1)],
                         [parse_element("t + t^2")], 8)  # inhomogeneous
    with pytest.raises(ValidationError):
        PresentedAlgebra([GradedGenerator("t", 1)],
                         [parse_element("t^9")], 8)  # beyond the cap


def test_generator_validation():
    with pytest.raises(ValidationError):
        GradedGenerator("t", 0)
    with pytest.raises(ValidationError):
        GradedGenerator("bad name", 2)
    with pytest.raises(ValidationError):
        PresentedAlgebra([GradedGenerator("t", 1), GradedGenerator("t", 2)], (), 8)
    for kind in ("laurent-unit", "bogus"):
        with pytest.raises(ValidationError) as exc:
            GradedGenerator("u", 2, kind)
        assert str(exc.value) == f"unknown generator kind {kind!r}"


def _window_by_enumeration(gens, cap, heights=()):
    """Monomials of degree <= cap, listed exponent by exponent, with their
    degrees; heights holds (name, e) for relations g^e = 0 folded in."""
    heights = dict(heights)
    ranges = [range(2 if g.kind == EXTERIOR else
                    min(cap // g.degree + 1, heights.get(g.name, cap + 1))) for g in gens]
    out = []
    for exps in product(*ranges):
        d = sum(e * g.degree for e, g in zip(exps, gens))
        if d <= cap:
            out.append((tuple(sorted((g.name, e) for e, g in zip(exps, gens) if e)), d))
    return out


WINDOW_ALGEBRAS = [
    ([GradedGenerator(f"t{i}", 1) for i in range(4)] + [GradedGenerator("h", 20)], 16),
    ([GradedGenerator("v", 6), GradedGenerator("b0", 2), GradedGenerator("t", 1)], 12),
    ([GradedGenerator("a", 2), GradedGenerator("e", 3, EXTERIOR),
      GradedGenerator("c", 5), GradedGenerator("f", 1, EXTERIOR)], 14),
    # declared out of name order
    ([GradedGenerator("z", 1), GradedGenerator("m", 2, EXTERIOR),
      GradedGenerator("u", 4), GradedGenerator("b", 3),
      GradedGenerator("a", 1, EXTERIOR)], 13),
]


@pytest.mark.parametrize("gens, cap", WINDOW_ALGEBRAS)
def test_window_count_is_exact(monkeypatch, gens, cap):
    window = _window_by_enumeration(gens, cap)
    count = len(window)
    assert count > cap  # so that the limit on degrees does not decide
    monkeypatch.setattr(f2alg, "MAX_WINDOW", count)
    alg = PresentedAlgebra(gens, (), cap)
    for d in range(cap + 1):
        assert sorted(alg.basis(d)) == sorted(m for m, md in window if md == d)
    monkeypatch.setattr(f2alg, "MAX_WINDOW", count - 1)
    with pytest.raises(ComputationError) as exc:
        PresentedAlgebra(gens, (), cap)
    assert f"holds {count} monomials;" in str(exc.value)


def test_window_degrees_are_bounded():
    x = GradedGenerator("x", 3, EXTERIOR)
    PresentedAlgebra([x], (), f2alg.MAX_WINDOW - 1)
    with pytest.raises(ComputationError):
        PresentedAlgebra([x], (), f2alg.MAX_WINDOW)
    # the widest admitted window of a polynomial generator: every basis
    # is one power, and building all of them stays linear in the window
    t = PresentedAlgebra([GradedGenerator("t", 1)], (), f2alg.MAX_WINDOW - 1)
    assert all(t.basis(d) == ((("t", d),) if d else (),)
               for d in range(f2alg.MAX_WINDOW))


# names whose string order is not their numeric order ("t1" < "t10" < "t2")
_DRAWN_GENERATORS = st.lists(
    st.tuples(st.sampled_from(["a", "b", "t1", "t10", "t2", "z"]),
              st.integers(1, 3) | st.just(11), st.sampled_from([POLYNOMIAL, EXTERIOR])),
    min_size=2, max_size=4, unique_by=lambda drawn: drawn[0])


def degree_monomials(alg: PresentedAlgebra, d: int) -> list:
    """The window monomials of degree d, decoded in window-number order."""
    return [alg._monomial(n) for n in range(alg._offsets[d], alg._offsets[d + 1])]


def degree_keys(alg: PresentedAlgebra, d: int) -> list[int]:
    """The keys of degree d as the walk listed them."""
    return alg._number_keys[alg._offsets[d]:alg._offsets[d + 1]]


@SETTINGS
@given(_DRAWN_GENERATORS, st.integers(0, 10))
def test_window_walk_lists_each_degree_in_monomial_order(drawn, cap):
    """Generators given out of name order, exterior and polynomial, some
    of degree above the cap: every bucket is sorted, is the degree's
    monomials, and the keys walk lists their keys in the same order."""
    names = [name for name, _, _ in drawn]
    assume(names != sorted(names))
    gens = tuple(GradedGenerator(*g) for g in drawn)
    alg = PresentedAlgebra(gens, (), cap)
    expected = _enumerated_candidates(gens, cap)
    for d in range(cap + 1):
        bucket = degree_monomials(alg, d)
        assert bucket == sorted(bucket)
        assert tuple(bucket) == expected.get(d, ())
        assert degree_keys(alg, d) == [alg._key(m) for m in bucket]


def _intake_raises(kinds: dict, m) -> bool:
    """Whether a term outside the window raises: every factor is checked,
    also those of a term that an exterior square or a folded power
    zeroes."""
    return any(name not in kinds or e < 0 for name, e in m)


@settings(SETTINGS, max_examples=300)
@given(_DRAWN_GENERATORS, st.integers(0, 10), st.data())
def test_key_intake_agrees_with_the_reference_window(drawn, cap, data):
    """Single terms over the generators and one unknown name, with zero
    and negative exponents, exterior squares, generators above the cap
    and degrees above the cap: a term is nonzero exactly when it is a
    monomial of the enumerated window, and raises only for an unknown
    generator or a negative exponent."""
    gens = tuple(GradedGenerator(*g) for g in drawn)
    alg = PresentedAlgebra(gens, (), cap)
    window = {m for ms in _enumerated_candidates(gens, cap).values() for m in ms}
    kinds = {g.name: g.kind for g in gens}
    names = st.lists(st.sampled_from(sorted(kinds) + ["nope"]), unique=True, max_size=4)
    exponents = st.sampled_from([-1, 0, 1, 2]) | st.integers(-2, cap + 2)
    drawn_term = names.flatmap(lambda ns: st.tuples(
        *(st.tuples(st.just(n), exponents) for n in sorted(ns))))
    m = data.draw(st.sampled_from(sorted(window)) | drawn_term)
    e = GradedElement(frozenset({m}))
    if m not in window and _intake_raises(kinds, m):
        with pytest.raises(ValidationError, match=ILL_FORMED):
            alg._bits(e)
    else:
        assert bool(alg._bits(e)) == (m in window)


class DenseQuotient:
    """The quotient over the unfolded window: every monomial of degree at
    most the cap below the exterior squares, with every multiple of every
    relation, pure powers included, as a relation row of its degree."""

    def __init__(self, gens, relations, cap):
        self.window = _enumerated_candidates(tuple(gens), cap)
        self.degree = {g.name: g.degree for g in gens}
        self.rows = {}
        for d, candidates in self.window.items():
            rows = []
            for r in relations:
                for mult in self.window.get(d - self.degree_of(next(iter(r.terms))), ()):
                    products = (monomial(*mult, *t) for t in r.terms)
                    rows.append(sum(1 << candidates.index(m) for m in products
                                    if m in candidates))  # else an exterior square
            self.rows[d] = gf2.reduce_rows(row for row in rows if row)

    def degree_of(self, m) -> int:
        return sum(self.degree[n] * e for n, e in m)

    def basis(self, d: int) -> tuple:
        pivots = {row.bit_length() - 1 for row in self.rows.get(d, ())}
        return tuple(m for i, m in enumerate(self.window.get(d, ())) if i not in pivots)

    def reduce(self, e: GradedElement) -> GradedElement:
        by_degree: dict[int, int] = {}
        for m in e.terms:
            d = self.degree_of(m)
            if m in self.window.get(d, ()):  # else above the cap or an exterior square
                by_degree[d] = by_degree.get(d, 0) ^ 1 << self.window[d].index(m)
        return GradedElement(frozenset(
            self.window[d][i] for d, vec in by_degree.items()
            for i in gf2.bits(gf2.reduce_vector(vec, self.rows[d]))))

    def mul(self, a: GradedElement, b: GradedElement) -> GradedElement:
        raw: set = set()
        for ma in a.terms:
            for mb in b.terms:
                raw ^= {monomial(*ma, *mb)}
        return self.reduce(GradedElement(frozenset(raw)))


@st.composite
def algebras_with_pure_powers(draw):
    """Up to three generators, polynomial or exterior, at a cap up to 9;
    up to two relations g^e = 0 per polynomial g, one of them sometimes
    above the other, and sometimes one relation of two terms, which may
    hold a multiple of a pure power."""
    gens = [GradedGenerator(*g) for g in draw(st.lists(
        st.tuples(st.sampled_from(["a", "b", "e", "t"]), st.integers(1, 3),
                  st.sampled_from([POLYNOMIAL, EXTERIOR])),
        min_size=1, max_size=3, unique_by=lambda g: g[0]))]
    cap = draw(st.integers(0, 9))
    relations = [GradedElement(frozenset({((g.name, e),)}))
                 for g in gens if g.kind == POLYNOMIAL and g.degree <= cap
                 for e in draw(st.lists(st.integers(1, cap // g.degree), max_size=2))]
    window = _enumerated_candidates(tuple(gens), cap)
    sums = [ms for d, ms in sorted(window.items()) if d and len(ms) > 1]
    if sums and draw(st.booleans()):
        relations.append(GradedElement(frozenset(draw(st.lists(
            st.sampled_from(draw(st.sampled_from(sums))), min_size=2, max_size=2,
            unique=True)))))
    return gens, draw(st.permutations(relations)), cap


@settings(SETTINGS, max_examples=120)
@given(algebras_with_pure_powers(), st.data())
def test_folded_window_matches_the_dense_quotient(drawn, data):
    """basis, reduce and mul with pure powers folded into the window
    equal the dense quotient over the unfolded window."""
    gens, relations, cap = drawn
    alg = PresentedAlgebra(gens, relations, cap)
    dense = DenseQuotient(gens, relations, cap)
    for d in range(cap + 1):
        assert tuple(degree_monomials(alg, d)) == reference_candidates(alg, d)
        assert alg.basis(d) == dense.basis(d)
    monomials = sorted(m for ms in dense.window.values() for m in ms)
    elements = st.frozensets(st.sampled_from(monomials), max_size=6).map(GradedElement)
    for _ in range(3):
        a, b = data.draw(elements), data.draw(elements)
        assert alg.reduce(a) == dense.reduce(a)
        assert alg.mul(a, b) == dense.mul(a, b)


def test_exterior_power_does_not_spill_into_the_next_field():
    """e^5 overflows the two-bit field of the exterior e: encoded as it
    stands, its high bit would land in f's field and read as e*f, of the
    same degree 5."""
    alg = PresentedAlgebra([GradedGenerator("e", 1, EXTERIOR), GradedGenerator("f", 4)], (), 5)
    assert alg._bits(parse_element("e^5")) == 0
    assert alg._bits(parse_element("e*f")) != 0


def test_two_degree_one_generators_just_under_the_limit():
    """154 degrees of up to 154 monomials, 11 935 in all: the widest
    admitted window of two generators builds."""
    gens = (GradedGenerator("b", 1), GradedGenerator("a", 1))
    alg = PresentedAlgebra(gens, (), 153)
    assert alg._offsets[-1] == 11935 <= f2alg.MAX_WINDOW
    expected = _enumerated_candidates(gens, 153)
    for d in range(154):
        assert tuple(degree_monomials(alg, d)) == alg.basis(d) == expected[d]


def test_truncation_drops_high_degrees():
    alg, _ = projective_space(4)
    t4 = alg.element("t^4")
    assert alg.mul(t4, alg.generator("t")) == alg.zero


def test_algebra_map_validation():
    src, _ = exterior_pair()
    dst = projective_product(2, 12)[0]
    with pytest.raises(ValidationError, match="^image of x3 is not homogeneous of degree 3$"):
        AlgebraMap(src, dst, {"x3": dst.element("t1^2"), "x5": dst.element("t1^5")})
    # degree-preserving zero map is always fine
    fmap = AlgebraMap(src, dst, {"x3": dst.zero, "x5": dst.zero})
    assert fmap.apply(src.element("x3*x5")) == dst.zero
    # maps must carry relations to zero, also t^3 = 0, which the source
    # window folds in and which so has no window number
    trunc = PresentedAlgebra([GradedGenerator("t", 1)], [parse_element("t^3")], 8)
    free = projective_space(8)[0]
    with pytest.raises(ValidationError) as exc:
        AlgebraMap(trunc, free, {"t": free.generator("t")})
    assert str(exc.value) == "relation t^3 is not carried to zero"
    short = PresentedAlgebra([GradedGenerator("s", 1)], [parse_element("s^3")], 8)
    fmap = AlgebraMap(trunc, short, {"t": short.generator("s")})
    assert fmap.apply(parse_element("t^2 + t^4")) == short.element("s^2")


def test_exterior_square_must_map_to_zero():
    """e^2 = 0 in Lambda(e3), but t^2 is nonzero in F2[t3]: no ring map
    sends e to t."""
    source = PresentedAlgebra([GradedGenerator("e", 3, EXTERIOR)], (), 8)
    target = PresentedAlgebra([GradedGenerator("t", 3)], (), 8)
    with pytest.raises(ValidationError) as exc:
        AlgebraMap(source, target, {"e": target.generator("t")})
    assert str(exc.value) == "relation e^2 is not carried to zero"
    short = PresentedAlgebra([GradedGenerator("t", 3)], (), 5)
    AlgebraMap(source, short, {"e": short.generator("t")})  # t^2 lies above the cap


def reference_map_refusal(source, target, images) -> str | None:
    """The presentation check made part by part in the target: f(x)^2
    for each exterior x in generator order, then each relation as a sum
    of products of its factors' powers."""
    images = {name: target.reduce(img) for name, img in images.items()}
    for g in source.generators:
        if g.kind == EXTERIOR and target.mul(images[g.name], images[g.name]):
            return f"relation {g.name}^2 is not carried to zero"
    for r in source.relations:
        image = target.zero
        for m in r.terms:
            term = target.one
            for name, e in m:
                for _ in range(e):
                    term = target.mul(term, images[name])
            image = image + term
        if image:
            return f"relation {r} is not carried to zero"
    return None


@settings(SETTINGS, max_examples=200)
@given(presentations(), presentations(), st.randoms(use_true_random=False))
def test_map_check_matches_the_per_part_reference(source, target, rnd):
    images = {g.name: random_element(target, g.degree, rnd) for g in source.generators}
    expected = reference_map_refusal(source, target, images)
    try:
        AlgebraMap(source, target, images)
    except ValidationError as err:
        assert str(err) == expected
    else:
        assert expected is None


def cubic_relation(cap=12):
    """F2[x2, y3]/(y^2 + x^3): a relation that is not a monomial."""
    gens = [GradedGenerator("x", 2), GradedGenerator("y", 3)]
    return PresentedAlgebra(gens, [parse_element("y^2 + x^3")], cap)


ALGEBRAS = {
    "projective": lambda: projective_space(8)[0],
    "product": lambda: projective_product(2, 8)[0],
    "truncated": lambda: truncated_projective(9, 12)[0],
    "exterior": lambda: exterior_pair()[0],
    "cubic": cubic_relation,
    "rbk": lambda: rbk_algebra(cap=18),
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_canonical_routes_agree_on_unreduced_input(name, rng):
    alg = ALGEBRAS[name]()
    for _ in range(40):
        e = random_unreduced(alg, rng)
        r = alg.reduce(e)
        assert alg.reduce(r) == r
        for d in range(alg.degree_cap + 1):
            assert alg.express_bits(e, d) == alg.express_bits(r, d)


def expand(fmap: AlgebraMap, e: GradedElement) -> GradedElement:
    """The image of e written out: multiply the generator images into
    each monomial one factor at a time as raw monomial sets, add the
    terms, and reduce once at the end."""
    out: set = set()
    for m in e.terms:
        term = {()}
        for name, exp in m:
            for _ in range(exp):
                nxt: set = set()
                for a in term:
                    for b in fmap.images[name].terms:
                        nxt ^= {monomial(*a, *b)}
                term = nxt
        out ^= term
    return fmap.target.reduce(GradedElement(frozenset(out)))


def algebra_maps():
    """(source, target, images as text) for a few maps of algebras."""
    plane = PresentedAlgebra([GradedGenerator("a", 1), GradedGenerator("b", 1)], (), 8)
    node = PresentedAlgebra([GradedGenerator("x", 1), GradedGenerator("y", 1)],
                            [parse_element("x^2 + x*y")], 8)
    trunc = truncated_projective(9, 12)[0]
    short = PresentedAlgebra([GradedGenerator("s", 1)], [parse_element("s^5")], 12)
    odd = PresentedAlgebra([GradedGenerator("a", 3)], (), 12)
    ext, _ = exterior_pair()
    return {
        "plane-to-node": (plane, node, {"a": "x + y", "b": "y"}),
        "truncated": (trunc, short, {"t": "s"}),
        "to-exterior": (odd, ext, {"a": "x3"}),
        "cubic": (cubic_relation(), cubic_relation(), {"x": "x", "y": "y"}),
    }


@pytest.mark.parametrize("name", sorted(algebra_maps()))
def test_algebra_map_matches_product_expansion(name, rng):
    source, target, images = algebra_maps()[name]
    fmap = AlgebraMap(source, target, {g: target.element(t) for g, t in images.items()})
    for _ in range(30):
        e = random_element(source, rng.randint(0, source.degree_cap), rng)
        assert fmap.apply(e) == expand(fmap, e)


# -- the window index against the term-by-term kernel -------------------------

def reference_degree(alg: PresentedAlgebra, m) -> int:
    """monomial_degree without the window map: a sum over the factors."""
    return sum(alg._gen(n).degree * e for n, e in m)


@lru_cache(maxsize=None)
def _enumerated_candidates(gens: tuple, cap: int, heights: tuple = ()) -> dict[int, tuple]:
    by_degree: dict[int, list] = {}
    for m, d in _window_by_enumeration(gens, cap, heights):
        by_degree.setdefault(d, []).append(m)
    return {d: tuple(sorted(ms)) for d, ms in by_degree.items()}


def reference_heights(alg: PresentedAlgebra) -> tuple:
    """(name, e) for the least e of the relations g^e = 0 of each
    polynomial g: the relations that are one power of one generator."""
    heights: dict = {}
    for r in alg.relations:
        (m, *rest) = r.terms
        if not rest and len(m) == 1 and alg._gen(m[0][0]).kind == POLYNOMIAL:
            name, e = m[0]
            heights[name] = min(e, heights.get(name, e))
    return tuple(sorted(heights.items()))


def reference_candidates(alg: PresentedAlgebra, d: int) -> tuple:
    """The degree-d monomials of the folded window, listed exponent by
    exponent below each generator's height and sorted as tuples."""
    return _enumerated_candidates(alg.generators, alg.degree_cap,
                                  reference_heights(alg)).get(d, ())


def reference_coordinates(alg: PresentedAlgebra, e: GradedElement) -> dict[int, int]:
    """Reduced coordinate vectors of e over the reference candidates, one
    per degree, with every term checked and its degree summed."""
    cap = alg.degree_cap
    by_degree: dict[int, int] = {}
    for m in e.terms:
        if not alg._check_monomial(m):
            continue
        d = reference_degree(alg, m)
        if not 0 <= d <= cap or m not in reference_candidates(alg, d):
            continue  # a multiple of a folded power is zero
        bit = reference_candidates(alg, d).index(m)
        by_degree[d] = by_degree.get(d, 0) ^ 1 << bit
    return {d: gf2.reduce_vector(vec, reference_relation_rows(alg, d))
            for d, vec in by_degree.items()}


@lru_cache(maxsize=None)
def reference_relation_rows(alg: PresentedAlgebra, d: int) -> list[int]:
    """The reduced relation rows of degree d, each multiple checked term
    by term and located in the reference candidate order."""
    candidates = reference_candidates(alg, d)
    rows = []
    for r in alg.relations:
        for mult in reference_candidates(alg, d - alg.degree_of(r)):
            vec = 0
            for term in r.terms:
                m = monomial(*mult, *term)
                # an exterior square or a multiple of a folded power is zero
                if alg._check_monomial(m) and m in candidates:
                    vec ^= 1 << candidates.index(m)
            if vec:
                rows.append(vec)
    return gf2.reduce_rows(rows)


def reference_basis_indices(alg: PresentedAlgebra, d: int) -> list[int]:
    """The positions among the reference candidates of degree d that are
    no pivots of its reference relation rows."""
    pivots = {row.bit_length() - 1 for row in reference_relation_rows(alg, d)}
    return [i for i in range(len(reference_candidates(alg, d))) if i not in pivots]


def reference_routes(alg: PresentedAlgebra, e: GradedElement):
    """reduce and express_bits (every degree) read from the reference
    coordinates."""
    coords = reference_coordinates(alg, e)
    reduced, bits = set(), {}
    for d, vec in sorted(coords.items()):
        candidates = reference_candidates(alg, d)
        reduced.update(candidates[i] for i in gf2.bits(vec))
        bits[d] = sum(1 << pos for pos, i in enumerate(reference_basis_indices(alg, d))
                      if (vec >> i) & 1)
    return GradedElement(frozenset(reduced)), bits


def _error(call) -> str:
    with pytest.raises(ValidationError, match=ILL_FORMED) as exc:
        call()
    return str(exc.value)


def exterior_relation(cap=10):
    """Lambda(e1) (x) F2[a1, f2]/(a^3 + e*a^2 + a*f): e sorts just before
    f, of twice its degree, and multiples of the relation by e hold the
    exterior square e^2*a^2."""
    gens = [GradedGenerator("a", 1), GradedGenerator("e", 1, EXTERIOR),
            GradedGenerator("f", 2)]
    return PresentedAlgebra(gens, [parse_element("a^3 + e*a^2 + a*f")], cap)


def two_relations_of_one_degree(cap=8):
    """F2[a1, b1, c1]/(a*b + c^2, a^2 + b*c): the relations' echelon has
    two rows of degree 2, and the ideal needs the multiples of both."""
    gens = [GradedGenerator(name, 1) for name in "abc"]
    return PresentedAlgebra(gens, [parse_element("a*b + c^2"), parse_element("a^2 + b*c")],
                            cap)


def test_each_degree_is_eliminated_at_its_own_width(monkeypatch):
    """After the relations' own echelon, the load eliminates the relation
    multiples one degree at a time, each row no wider than its degree's
    monomial count, not as window-wide ints."""
    calls = []
    reduce_rows = gf2.reduce_rows

    def recording(rows):
        calls.append(list(rows))
        return reduce_rows(calls[-1])

    monkeypatch.setattr(gf2, "reduce_rows", recording)
    alg = two_relations_of_one_degree()
    relations, *degrees = calls
    assert len(relations) == 2 and len(degrees) == alg.degree_cap - 1  # degrees 2 .. cap
    for d, rows in zip(range(2, alg.degree_cap + 1), degrees):
        count = alg._offsets[d + 1] - alg._offsets[d]
        assert rows and all(0 < row < 1 << count for row in rows)


INDEX_ALGEBRAS = [lambda gens=gens, cap=cap: PresentedAlgebra(gens, (), cap)
                  for gens, cap in WINDOW_ALGEBRAS] + [
    lambda: truncated_projective(9, 12)[0], cubic_relation, lambda: rbk_algebra(cap=18),
    exterior_relation, two_relations_of_one_degree]


@pytest.mark.parametrize("make", INDEX_ALGEBRAS)
def test_window_index_matches_reference_kernel(make, rng):
    alg = make()
    for d in range(alg.degree_cap + 1):
        assert tuple(degree_monomials(alg, d)) == reference_candidates(alg, d)
        low, high = alg._offsets[d], alg._offsets[d + 1]
        rows = [row >> low for p, row in alg._pivots.items() if low <= p < high]
        assert sorted(rows, reverse=True) == reference_relation_rows(alg, d)
        assert alg._basis_numbers(d) == [low + i for i in reference_basis_indices(alg, d)]
    for _ in range(60):
        e = random_unreduced(alg, rng)
        for m in e.terms:
            assert alg.monomial_degree(m) == reference_degree(alg, m)
        reduced, bits = reference_routes(alg, e)
        assert alg.reduce(e) == reduced
        for d in range(alg.degree_cap + 1):
            assert alg.express_bits(e, d) == bits.get(d, 0)
    # terms the window map does not hold still take every check
    gen = alg.generators[0]
    window_term = degree_monomials(alg, gen.degree)[0]
    for bad in ((("nope", 1),), ((gen.name, -1),)):
        e = GradedElement(frozenset({window_term, bad}))
        message = _error(lambda: reference_coordinates(alg, e))
        assert _error(lambda: alg.reduce(e)) == message
        assert _error(lambda: alg.express_bits(e, gen.degree)) == message
    assert _error(lambda: alg.monomial_degree((("nope", 1),))) == \
        _error(lambda: reference_degree(alg, (("nope", 1),)))


# -- window keys and numbers against the monomial kernel ----------------------

def reference_mul(alg: PresentedAlgebra, a: GradedElement, b: GradedElement):
    """The product as it was built term by term: monomial(*ma, *mb) for
    every pair, reduced by the reference kernel."""
    raw: set = set()
    for ma in a.terms:
        for mb in b.terms:
            raw ^= {monomial(*ma, *mb)}
    return reference_routes(alg, GradedElement(frozenset(raw)))[0]


def window_keys(alg: PresentedAlgebra) -> dict:
    return {m: k for d in range(alg.degree_cap + 1)
            for m, k in zip(degree_monomials(alg, d), degree_keys(alg, d))}


@pytest.mark.parametrize("make", INDEX_ALGEBRAS)
def test_key_sums_are_products(make, rng):
    alg = make()
    keys = window_keys(alg)
    window = sorted(keys)
    assert len(set(keys.values())) == len(window)
    assert all(alg._key(m) == k for m, k in keys.items())
    # every exponent field at its maximum: the top window power of each
    # generator, times itself and times the top powers of the others
    tops = [max((m for m in window if len(m) == 1 and m[0][0] == g.name), default=())
            for g in alg.generators]
    pairs = [(a, b) for a in tops for b in tops]
    pairs += [(rng.choice(window), rng.choice(window)) for _ in range(1500)]
    exterior = [m for m in window if any(alg._gen(n).kind == EXTERIOR for n, _ in m)]
    pairs += [(rng.choice(exterior), rng.choice(exterior)) for _ in range(300) if exterior]
    squares = 0
    for a, b in pairs:
        product = monomial(*a, *b)
        total = keys[a] + keys[b]
        if product in keys:
            assert total == keys[product], (a, b)
        else:
            assert total not in keys.values(), (a, b)
            squares += not alg._check_monomial(product)
        x, y = alg._reduced_bits(GradedElement(frozenset({a}))), \
            alg._reduced_bits(GradedElement(frozenset({b})))
        assert alg._element(alg._mul_bits(x, alg._keys(y))) == \
            reference_mul(alg, GradedElement(frozenset({a})), GradedElement(frozenset({b})))
    assert squares or not exterior
    for _ in range(40):
        a = random_element(alg, rng.randint(0, alg.degree_cap // 2), rng)
        b = random_element(alg, rng.randint(0, alg.degree_cap // 2), rng)
        assert alg.mul(a, b) == reference_mul(alg, a, b)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_products_outside_the_window_as_before(name, rng):
    """Factors with terms outside the window (exterior squares, degrees
    above the cap) multiply as their term-by-term products; a negative
    exponent or an unknown generator in either factor raises as it does
    in reduce."""
    alg = ALGEBRAS[name]()
    for _ in range(40):
        a, b = random_unreduced(alg, rng), random_unreduced(alg, rng)
        try:
            expected = reference_mul(alg, a, b)
        except ValidationError as exc:
            assert _error(lambda: alg.mul(a, b)) == str(exc)
        else:
            assert alg.mul(a, b) == expected
    gen = alg.generators[0]
    inverse = GradedElement(frozenset({((gen.name, -1),)}))
    square = GradedElement(frozenset({((gen.name, 2),)}))
    message = _error(lambda: alg.reduce(inverse))
    assert _error(lambda: alg.mul(inverse, square)) == message
    assert _error(lambda: alg.mul(square, inverse)) == message
    nope = GradedElement(frozenset({(("nope", 1),)}))
    assert _error(lambda: alg.mul(nope, square)) == \
        _error(lambda: reference_mul(alg, nope, square))


def test_construction_builds_the_whole_window():
    """Both limit shapes build every degree at load: F2[t] at the widest
    cap, with no relation, and F2[a1, b1]/(a*b + b^2) at cap 153, whose
    ranks follow the Hilbert series (1 + t)/(1 - t)."""
    cap = f2alg.MAX_WINDOW - 1
    t = PresentedAlgebra([GradedGenerator("t", 1)], (), cap)
    assert t._free == list(range(cap + 1)) and t._pivots == {}
    ab = PresentedAlgebra([GradedGenerator("a", 1), GradedGenerator("b", 1)],
                          [parse_element("a*b + b^2")], 153)
    assert [len(ab._basis_numbers(d)) for d in range(154)] == [1] + [2] * 153


def test_products_of_the_built_window():
    alg = PresentedAlgebra([GradedGenerator("a", 1), GradedGenerator("b", 2)],
                           [parse_element("a^4")], 12)
    x, y = alg.element("a*b"), alg.element("b^2")
    assert alg.mul(x, y) == alg.element("a*b^3") != ZERO
    # a product whose term is not in the window
    ext = PresentedAlgebra([GradedGenerator("e", 1, EXTERIOR), GradedGenerator("f", 2)], (), 4)
    e = ext.generator("e")
    assert ext.mul(e, e) == ZERO


# -- total squares from cached prefixes ---------------------------------------

def fold_total(action, m) -> GradedElement:
    """The total square of m folded one generator factor at a time from
    the unit, each step a reference product with the total square of
    that generator."""
    alg = action.algebra
    out = reference_routes(alg, alg.one)[0]
    for name, exp in m:
        total = ZERO
        for i in range(alg._gen(name).degree + 1):
            total = total + action.generator_sq(name, i)
        for _ in range(exp):
            out = reference_mul(alg, out, total)
    return out


def window_monomials(alg: PresentedAlgebra):
    for d in range(alg.degree_cap + 1):
        yield from degree_monomials(alg, d)


@pytest.mark.parametrize("make", [lambda: projective_space(10),
                                  lambda: projective_product(3, 8),
                                  lambda: truncated_projective(9, 12), exterior_pair])
def test_sq_total_images_match_factor_fold(make):
    alg, action = make()
    for m in window_monomials(alg):
        n = alg._number(m)
        assert alg._monomial(n) == m
        assert alg._element(action._total(n)) == fold_total(action, m), m


# -- algebra map images from cached prefixes ----------------------------------

def fold_image(fmap: AlgebraMap, m) -> GradedElement:
    """The image of m folded one generator factor at a time from the
    target's unit, each step a product with that factor's cached power."""
    gmap, target = fmap._map, fmap.target
    out = target._element(gmap._unit) if fmap.source._check_monomial(m) else ZERO
    for name, exp in m:
        out = target.mul(out, target._element(gmap._power(name, exp)))
    return out


def map_image(fmap: AlgebraMap, m) -> GradedElement:
    """The shared evaluator's image of a window monomial; an exterior
    square is no window monomial and maps to zero through apply."""
    n = fmap.source._number(m)
    if n is None:
        return fmap.apply(GradedElement(frozenset({m})))
    return fmap.target._element(fmap._map.image(n))


def test_algebra_map_images_match_factor_fold():
    source = PresentedAlgebra([GradedGenerator("a", 1), GradedGenerator("b", 1),
                               GradedGenerator("c", 2), GradedGenerator("e", 1, EXTERIOR)],
                              (), 8)
    target = PresentedAlgebra([GradedGenerator("s", 1), GradedGenerator("u", 2),
                               GradedGenerator("f", 1, EXTERIOR)],
                              [parse_element("s^3")], 8)
    fmap = AlgebraMap(source, target, {"a": target.element("s"), "b": target.element("s"),
                                       "c": target.element("u + s^2"),
                                       "e": target.element("f")})
    zero_prefixes = 0
    for m in window_monomials(source):
        assert map_image(fmap, m) == fold_image(fmap, m)
        zero_prefixes += len(m) > 1 and not map_image(fmap, m[:-1])
    assert zero_prefixes  # a^3 = s^3 = 0 is a prefix of a^3*b and others
    # e^2 is no window monomial of the source: it maps to zero
    for m in ((("e", 2),), (("a", 1), ("e", 2)), (("c", 1), ("e", 2))):
        assert map_image(fmap, m) == fold_image(fmap, m) == ZERO


def test_algebra_map_drops_terms_above_the_source_cap():
    source = PresentedAlgebra([GradedGenerator("a", 1)], (), 4)
    target = PresentedAlgebra([GradedGenerator("s", 1)], (), 8)
    fmap = AlgebraMap(source, target, {"a": target.generator("s")})
    # a^5 is zero in the source, though s^5 is not in the target
    assert fmap.apply(parse_element("a^5 + a^2")) == target.element("s^2")


@lru_cache(maxsize=None)
def capped_map() -> AlgebraMap:
    """F2[a1, b2, e1 exterior]/(b^2 + a^4) at cap 4 into
    F2[s1, u2, f1 exterior]/(u^2) at cap 8: b^2 + a^4 maps to
    (u + s^2)^2 + s^4 = u^2 = 0, and e^2 to f^2 = 0."""
    source = PresentedAlgebra([GradedGenerator("a", 1), GradedGenerator("b", 2),
                               GradedGenerator("e", 1, EXTERIOR)],
                              [parse_element("b^2 + a^4")], 4)
    target = PresentedAlgebra([GradedGenerator("s", 1), GradedGenerator("u", 2),
                               GradedGenerator("f", 1, EXTERIOR)],
                              [parse_element("u^2")], 8)
    return AlgebraMap(source, target, {"a": target.element("s"),
                                       "b": target.element("u + s^2"),
                                       "e": target.element("f")})


@SETTINGS
@given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 3), st.integers(0, 2)),
               max_size=8))
def test_algebra_map_apply_factors_through_the_source_reduction(exponents):
    """Terms above the source cap, exterior squares and relation terms,
    unreduced: each maps as its canonical form in the source does."""
    fmap = capped_map()
    e = GradedElement(frozenset(monomial(("a", a), ("b", b), ("e", x))
                                for a, b, x in exponents))
    assert fmap.apply(e) == fmap.apply(fmap.source.reduce(e))
