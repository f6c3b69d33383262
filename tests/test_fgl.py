import pytest
from hypothesis import given, strategies as st

from moravak import fgl
from moravak.errors import ComputationError, ValidationError
from moravak.fgl import (
    FGL,
    MAX_THETA_COUNT,
    Series,
    change_coordinates,
    grouplike_check,
    height,
    solve_theta,
    two_series,
)

from oracles import honda_height2_coefficients
from test_input_files import SETTINGS


def x_power(e, trunc=16, modulus=2, coeff=1):
    return Series(1, trunc, modulus, {(e,): coeff})


def test_two_series_examples():
    gm = FGL.multiplicative()
    assert two_series(gm) == x_power(2)
    add = FGL.additive()
    assert two_series(add).is_zero()
    gm4 = FGL.multiplicative(8, 4)
    assert two_series(gm4) == Series(1, 8, 4, {(1,): 2, (2,): 1})


def test_solve_theta_multiplicative():
    thetas = solve_theta(FGL.multiplicative(), 5)
    assert thetas == (1, 0, 0, 0, 0)
    # theta_i is entry i - 1
    assert thetas[1 - 1] == 1 and thetas[2 - 1] == 0


def test_solve_theta_count_is_bounded():
    # theta_i for 2^i above the truncation order 16 is zero without any work
    values = solve_theta(FGL.multiplicative(), MAX_THETA_COUNT)
    assert values == (1,) + (0,) * (MAX_THETA_COUNT - 1)
    with pytest.raises(ComputationError):
        solve_theta(FGL.multiplicative(), MAX_THETA_COUNT + 1)


def test_solve_theta_additive():
    assert solve_theta(FGL.additive(), 4) == (0, 0, 0, 0)


def test_solve_theta_honda_shape_target():
    # a 2-series that is exactly x^4 forces theta_2 = 1 and nothing else
    for law in (FGL.multiplicative(), FGL.additive()):
        thetas = solve_theta(law, 4, target=x_power(4))
        assert thetas == (0, 1, 0, 0)


def test_solve_theta_not_2_typical_mod4():
    with pytest.raises(ComputationError, match="^not 2-typical: unmatched term at degree 3$"):
        solve_theta(FGL.multiplicative(12, 4), 3)


def test_solve_theta_odd_linear_term_mod4():
    # an odd linear term is a unit at modulus 4, which no theta sum matches
    with pytest.raises(ComputationError) as err:
        solve_theta(FGL.multiplicative(12, 4), 3, target=x_power(1, 12, 4))
    assert str(err.value) == "2-series has a unit linear term"


def test_solve_theta_roundtrip(rng):
    for law in (FGL.multiplicative(), FGL.additive()):
        for _ in range(20):
            values = tuple(rng.randint(0, 1) for _ in range(4))
            terms = [x_power(1 << i) for i, v in enumerate(values, start=1) if v]
            target = law.formal_sum(terms)
            assert solve_theta(law, 4, target=target) == values


def test_height_examples():
    assert height(FGL.multiplicative()) == 1
    assert height(FGL.additive()) is None
    honda = FGL.from_coefficients(honda_height2_coefficients(16), 16)
    assert height(honda) == 2
    assert two_series(honda) == x_power(4, 16)
    assert solve_theta(honda, 3) == (0, 1, 0)


def test_height_rejects_non_characteristic_2():
    with pytest.raises(ValidationError):
        height(FGL.multiplicative(8, 4))


def test_grouplike_examples():
    gm = FGL.multiplicative()
    assert grouplike_check(Series(1, 16, 2, {(0,): 1, (1,): 1}), gm)
    assert grouplike_check(Series(1, 16, 2, {(0,): 1}), gm)
    assert not grouplike_check(Series(1, 16, 2, {(0,): 1, (1,): 1, (2,): 1}), gm)
    with pytest.raises(ValidationError):
        grouplike_check(x_power(1), gm)


def test_grouplike_alpha_squared_expansion():
    # alpha = 1 + x against y + z + yz: both sides are 1 + y + z + yz
    gm = FGL.multiplicative(6, 2)
    alpha = Series(1, 6, 2, {(0,): 1, (1,): 1})
    lhs = alpha.compose([gm.law])
    y = Series.variable(0, 2, 6, 2)
    z = Series.variable(1, 2, 6, 2)
    expected = Series(2, 6, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert lhs == expected
    assert alpha.compose([y]) * alpha.compose([z]) == expected


def test_twist_series_are_exactly_the_grouplikes():
    """(1+x)^d is grouplike under y + z + yz for every truncated dyadic d;
    this is the character-level picture of the twist group."""
    from moravak.twistgroup import Dyadic, decode
    gm = FGL.multiplicative(32, 2)
    for d in range(32):
        bits = decode(Dyadic(d, 5)).series_bits
        alpha = Series(1, 32, 2, {(e,): 1 for e in range(32) if (bits >> e) & 1})
        assert grouplike_check(alpha, gm), d


def test_grouplike_closed_under_products(rng):
    """Products of (1 + x^{2^k}) stay grouplike for the multiplicative
    law; this is the twist group law seen through characters."""
    gm = FGL.multiplicative()
    for _ in range(30):
        ks = [k for k in range(4) if rng.random() < 0.5]
        alpha = x_power(0)
        for k in ks:
            alpha = alpha * Series(1, 16, 2, {(0,): 1, (1 << k,): 1})
        assert grouplike_check(alpha, gm)
        beta = alpha * Series(1, 16, 2, {(0,): 1, (1,): 1})
        assert grouplike_check(beta, gm)


def test_associativity_validation_rejects_perturbation():
    # flip one (symmetric) pair of coefficients of y + z + yz
    with pytest.raises(ValidationError):
        FGL.from_coefficients({(1, 0): 1, (0, 1): 1, (1, 1): 1,
                               (2, 1): 1, (1, 2): 1}, 8)


def test_unitality_and_commutativity_validation():
    with pytest.raises(ValidationError):
        FGL.from_coefficients({(1, 0): 1, (0, 1): 1, (2, 0): 1}, 8)
    with pytest.raises(ValidationError):
        FGL.from_coefficients({(1, 0): 1, (0, 1): 1, (2, 1): 1}, 8)


def test_height_invariant_under_coordinate_changes(rng):
    gm = FGL.multiplicative()
    honda = FGL.from_coefficients(honda_height2_coefficients(16), 16)
    for law, expected in ((gm, 1), (honda, 2)):
        for _ in range(10):
            coeffs = [0, 1] + [rng.randint(0, 1) for _ in range(6)]
            g = Series(1, law.trunc, 2, {(i,): c for i, c in enumerate(coeffs)})
            assert height(change_coordinates(law, g)) == expected


def test_compositional_inverse():
    g = Series(1, 12, 2, {(1,): 1, (2,): 1, (4,): 1})
    h = g.compositional_inverse()
    x = Series.variable(0, 1, 12, 2)
    assert g.compose([h]) == x
    assert h.compose([g]) == x


def naive_product(a: Series, b: Series) -> Series:
    """Every pair of terms, its degree summed afresh, kept below the
    truncation and added coefficientwise."""
    out: dict = {}
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            if sum(mono) <= a.trunc:
                out[mono] = out.get(mono, 0) + c1 * c2
    return Series(a.nvars, a.trunc, a.modulus, out)


def random_series(rng, nvars, trunc, modulus):
    coeffs = {}
    for _ in range(rng.randint(0, 12)):
        mono = tuple(rng.randint(0, trunc) for _ in range(nvars))
        coeffs[mono] = rng.randrange(modulus)
    return Series(nvars, trunc, modulus, coeffs)


@pytest.mark.parametrize("modulus", [2, 4, 8])
@pytest.mark.parametrize("nvars", [1, 2])
def test_product_matches_naive_product(rng, modulus, nvars):
    for trunc in (0, 1, 5, 16):
        for _ in range(25):
            a = random_series(rng, nvars, trunc, modulus)
            b = random_series(rng, nvars, trunc, modulus)
            assert a * b == naive_product(a, b)
            assert list((a * b).coeffs) == list(naive_product(a, b).coeffs)
            # sums and differences through the checked constructor
            for got, sign in ((a + b, 1), (a - b, -1)):
                coeffs = dict(a.coeffs)
                for mono, c in b.coeffs.items():
                    coeffs[mono] = coeffs.get(mono, 0) + sign * c
                want = Series(nvars, trunc, modulus, coeffs)
                assert got == want and list(got.coeffs) == list(want.coeffs)


def test_products_above_the_pair_limit_are_refused(monkeypatch):
    monkeypatch.setattr(fgl, "MAX_PRODUCT_PAIRS", 8)
    two, three, four = (Series(1, 16, 2, {(e,): 1 for e in range(n)}) for n in (2, 3, 4))
    assert two * four == naive_product(two, four)
    with pytest.raises(ComputationError,
                       match="series product of 3 by 3 terms exceeds the limit of 8 term pairs"):
        three * three


def test_compose_power_terms_above_the_limit_are_refused(monkeypatch):
    # x + x^2 squared is x^2 + x^4 (2 terms), times x + x^2 is x^3..x^6 (4 terms)
    arg, cube = Series(1, 16, 2, {(1,): 1, (2,): 1}), Series(1, 16, 2, {(3,): 1})
    monkeypatch.setattr(fgl, "MAX_POWER_TERMS", 6)
    assert cube.compose([arg]) == naive_compose(cube, [arg])
    monkeypatch.setattr(fgl, "MAX_POWER_TERMS", 5)
    with pytest.raises(ComputationError, match="series substitution would hold 6 terms "
                       "of argument powers, exceeding the limit of 5"):
        cube.compose([arg])


@pytest.mark.parametrize("modulus", [2, 8])
def test_refused_compose_builds_no_product_over_the_limit(monkeypatch, modulus):
    """Every product a refused compose builds is a power it keeps, so the
    terms those products hold stay within the limit."""
    arg = Series(1, 40, modulus, {(1,): 1, (2,): 3, (3,): 1})
    outer = Series(1, 40, modulus, {(29,): 1})
    built = []
    product = Series.__mul__

    def counted(a, b):
        out = product(a, b)
        built.append(len(out.coeffs))
        return out

    monkeypatch.setattr(Series, "__mul__", counted)
    outer.compose([arg])
    held = sum(built)
    for limit in range(held):
        built.clear()
        monkeypatch.setattr(fgl, "MAX_POWER_TERMS", limit)
        with pytest.raises(ComputationError):
            outer.compose([arg])
        assert sum(built) <= limit


@pytest.mark.parametrize("modulus", [2, 8])
@pytest.mark.parametrize("law", [FGL.multiplicative, FGL.additive])
def test_pow_matches_repeated_products(law, modulus):
    F = law(modulus=modulus).law
    want = Series(2, F.trunc, modulus, {(0, 0): 1})
    for k in range(10):
        assert Series(1, F.trunc, modulus, {(k,): 1}).compose([F]) == want
        want = want * F


def naive_compose(f: Series, args) -> Series:
    """Each term of f as its constant times one argument factor at a
    time, the terms summed with +."""
    nvars = args[0].nvars
    out = Series.zero(nvars, f.trunc, f.modulus)
    for mono, c in f.coeffs.items():
        term = Series(nvars, f.trunc, f.modulus, {(0,) * nvars: c})
        for arg, e in zip(args, mono):
            for _ in range(e):
                term = term * arg
        out = out + term
    return out


def drawn_series(data, nvars, trunc, modulus, max_exp):
    coeffs = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * nvars), st.integers(0, modulus - 1),
        max_size=6))
    return Series(nvars, trunc, modulus, coeffs)


@SETTINGS
@given(data=st.data(), outer=st.integers(1, 3), inner=st.integers(1, 3),
       modulus=st.sampled_from([2, 4, 8]), trunc=st.integers(0, 12))
def test_compose_matches_repeated_products(data, outer, inner, modulus, trunc):
    f = drawn_series(data, outer, trunc, modulus, trunc)
    args = [drawn_series(data, inner, trunc, modulus, 4) for _ in range(outer)]
    assert f.compose(args) == naive_compose(f, args)
