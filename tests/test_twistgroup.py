import itertools

import pytest

from moravak import twistgroup as tw
from moravak.errors import ComputationError, ValidationError


def test_from_exponents_examples():
    u = tw.from_exponents((0,), 4)
    assert u.series_bits == 0b11  # 1 + y
    assert tw.from_exponents((), 4).series_bits == 1
    f = tw.from_exponents((0, 1), 4)
    assert f.series_bits == 0b1111  # 1 + y + y^2 + y^3


def test_malformed_exponent_lists():
    with pytest.raises(ValidationError, match=r"^exponents must strictly increase: \(1, 1\)$"):
        tw.from_exponents((1, 1), 4)
    with pytest.raises(ValidationError, match=r"^exponents must strictly increase: \(2, 1\)$"):
        tw.from_exponents((2, 1), 4)
    with pytest.raises(ValidationError, match=r"^exponents must lie in \[0, 4\): \(4,\)$"):
        tw.from_exponents((4,), 4)


def test_multiply_examples():
    u = tw.from_exponents((0,), 4)
    assert tw.multiply(u, u).exponents == (1,)      # carry: 1 + 1 = 2
    f = tw.from_exponents((0, 1), 4)
    assert tw.multiply(f, tw.from_exponents((), 4)) == f
    g = tw.from_exponents((1,), 4)
    assert tw.multiply(u, g).exponents == (0, 1)    # no carry


def test_encode_decode_examples():
    assert tw.encode(tw.from_exponents((0,))).value == 1
    assert tw.encode(tw.from_exponents(())).value == 0
    assert tw.encode(tw.from_exponents((0, 1))).value == 3
    assert tw.decode(tw.Dyadic(1)).exponents == (0,)
    assert tw.decode(tw.Dyadic(0)).exponents == ()
    assert tw.decode(tw.Dyadic(5)).exponents == (0, 2)


def test_encode_decode_roundtrip_exhaustive():
    for M in (3, 6, 8):
        for d in range(1 << M):
            dy = tw.Dyadic(d, M)
            assert tw.encode(tw.decode(dy)) == dy
    for ks in itertools.chain.from_iterable(
            itertools.combinations(range(6), r) for r in range(7)):
        f = tw.from_exponents(ks, 8)
        assert tw.decode(tw.encode(f)) == f


def test_group_law_is_addition_exhaustive():
    """encode(multiply(f, g)) = encode(f) + encode(g) mod 2^8, with the
    product computed by honest series multiplication."""
    M = 8
    mask = (1 << (1 << M)) - 1
    series = [tw.decode(tw.Dyadic(d, M)).series_bits for d in range(1 << M)]
    for d1 in range(1 << M):
        s1 = series[d1]
        for d2 in range(d1, 1 << M):
            product = tw.clmul(s1, series[d2]) & mask
            assert product == series[(d1 + d2) % (1 << M)], (d1, d2)


def test_multiply_matches_addition_spotchecks():
    M = 8
    for d1, d2 in [(1, 1), (3, 5), (127, 129), (255, 1), (200, 100), (64, 64)]:
        f, g = tw.decode(tw.Dyadic(d1, M)), tw.decode(tw.Dyadic(d2, M))
        assert tw.encode(tw.multiply(f, g)).value == (d1 + d2) % (1 << M)


def test_frobenius_squaring_identity():
    """(1+y)^{2^k} = 1 + y^{2^k}, checked by repeated honest squaring."""
    M = 8
    mask = (1 << (1 << M)) - 1
    bits = 0b11  # 1 + y
    for k in range(M):
        assert bits == (1 | (1 << (1 << k))) & mask, k
        bits = tw.clmul(bits, bits) & mask


def test_not_grouplike_guard():
    not_a_product = r"^series is not a product of \(1 \+ y\^\{2\^k\}\) factors$"
    with pytest.raises(ComputationError, match=not_a_product):
        tw.factor_series(0b1001, 4)  # 1 + y^3 has no 2-power factorization
    with pytest.raises(ComputationError, match="^series has no constant term 1$"):
        tw.factor_series(0b10, 4)
    # 1 + y + y^2 misses the y^3 term of (1+y)(1+y^2)
    with pytest.raises(ComputationError, match=not_a_product):
        tw.factor_series(0b111, 4)


def test_truncation_mismatch_rejected():
    with pytest.raises(ValidationError):
        tw.multiply(tw.from_exponents((0,), 4), tw.from_exponents((0,), 8))


def test_truncation_order_is_bounded():
    top = tw.MAX_SERIES_TRUNCATION
    assert tw.decode(tw.Dyadic.residue(-1, top)).exponents == tuple(range(top))
    assert tw.from_exponents((0,), top).series_string() == "1 + y"
    with pytest.raises(ComputationError, match=f"2\\^{top + 1} coefficients"):
        tw.Dyadic.residue(3, top + 1)
    with pytest.raises(ValidationError):
        tw.from_exponents((), -1)


def test_to_algebra_hom():
    hom = tw.to_algebra_hom(tw.from_exponents((0,), 8), 2, 6)
    assert hom.assignment(0) == 1
    assert all(hom.assignment(k) is None for k in range(1, 6))
    identity = tw.to_algebra_hom(tw.from_exponents((), 8), 2, 6)
    assert all(identity.assignment(k) is None for k in range(6))
    f = tw.from_exponents((1,), 8)
    hom1 = tw.to_algebra_hom(f, 3, 6)
    assert hom1.assignment(1) == 2 and hom1.assignment(0) is None


def test_hom_respects_multiplication_bitwise(rng):
    for _ in range(50):
        d1, d2 = rng.randrange(256), rng.randrange(256)
        f, g = tw.decode(tw.Dyadic(d1, 8)), tw.decode(tw.Dyadic(d2, 8))
        hom = tw.to_algebra_hom(tw.multiply(f, g), 2, 8)
        total = (d1 + d2) % 256
        assert hom.active == {k for k in range(8) if (total >> k) & 1}


def test_vanishing_check():
    assert tw.vanishing_check(5, 2) is tw.TwistVerdict.NO_NONTRIVIAL_TWISTS
    assert tw.vanishing_check(4, 2) is tw.TwistVerdict.TWIST_GROUP_Z2
    assert tw.vanishing_check(3, 1) is tw.TwistVerdict.TWIST_GROUP_Z2
    assert tw.vanishing_check(4, 2, p=3) is tw.TwistVerdict.ODD_PRIME_TRIVIAL
    assert tw.vanishing_check(9, 1, p=5) is tw.TwistVerdict.NO_NONTRIVIAL_TWISTS
    with pytest.raises(ValidationError):
        tw.vanishing_check(2, 2)
    with pytest.raises(ValidationError):
        tw.vanishing_check(0, 1)


def test_vanishing_check_bounds_p_to_the_n_before_primality():
    """A height above MAX_HEIGHT, or a p whose degree note would print
    numbers past p^n of MAX_POWER_BITS bits, is refused before the power
    is built; only then is p tested for primality."""
    top = tw.MAX_HEIGHT
    for n, p in ((top + 1, 2), (2 ** 64, 4), (1, 1 << tw.MAX_PRIME_BITS),
                 (tw.MAX_POWER_BITS // 5 + 1, 17), (1000, 1000000007)):
        with pytest.raises(ComputationError, match="^(height|p of)"):
            tw.vanishing_check(n + 2, n, p)
    # n times the bits of p at the limit: 1024 * 4 for 13, 819 * 5 for 17
    assert tw.vanishing_check(top + 2, top, 13) is tw.TwistVerdict.ODD_PRIME_TRIVIAL
    assert tw.vanishing_check(821, 819, 17) is tw.TwistVerdict.ODD_PRIME_TRIVIAL
    assert len(tw.degree_obstruction_report(top, 13)) < 2500


def test_vanishing_check_takes_only_a_prime_p():
    accepted = []
    for p in range(2, 50):
        try:
            tw.vanishing_check(3, 1, p)
            accepted.append(p)
        except ValidationError as error:
            assert str(error) == f"p must be prime: {p}"
    assert accepted == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert tw.vanishing_check(3, 1, 4294967291) is tw.TwistVerdict.ODD_PRIME_TRIVIAL
    with pytest.raises(ValidationError, match="^p must be prime: 4292870399$"):
        tw.vanishing_check(3, 1, 65519 * 65521)  # two primes near 2^16
