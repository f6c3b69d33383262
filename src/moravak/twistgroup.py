"""The group of twists as grouplike truncated power series over F2.

A twist is a series prod_i (1 + y^{2^{k_i}}) in F2[[y]] truncated at
y^{2^M}, equivalently (1+y)^d for the truncated 2-adic integer
d = sum 2^{k_i}; the exponent list is the canonical form and the series
is derived on demand.  Multiplication of series is binary addition of
the encodings, with carries showing up as (1+y^m)^2 = 1+y^{2m}.

Series are stored as int bitmasks (bit e = coefficient of y^e), so the
group law can be checked honestly by carry-less polynomial
multiplication followed by refactoring into 2-power factors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isqrt

from . import gf2
from .errors import ComputationError, ValidationError

DEFAULT_TRUNCATION = 8
# a series truncated at y^(2^M) is an int of 2^M bits; this bounds it
MAX_SERIES_TRUNCATION = 16
# an algebra hom is reported with one assignment per tensor factor
MAX_FACTORS = 64
# reports name 2^(n+1) - 1 and |v| = 2^(n+1) - 2; past n of about 14 000
# these numbers no longer convert to a string
MAX_HEIGHT = 1024
# the degree note prints numbers near p^n; p is tested for primality by
# trial division up to its square root
MAX_PRIME_BITS = 32
MAX_POWER_BITS = 4096


def _check_truncation(truncation: int) -> None:
    if truncation < 0:
        raise ValidationError(f"truncation order must be >= 0: {truncation}")
    if truncation > MAX_SERIES_TRUNCATION:
        raise ComputationError(
            f"truncation order {truncation} means series of 2^{truncation} "
            f"coefficients; the limit is 2^{MAX_SERIES_TRUNCATION}")


def _check_height(n: int) -> None:
    if n > MAX_HEIGHT:
        raise ComputationError(f"height {n} exceeds the limit {MAX_HEIGHT}")


def _check_factors(truncation: int) -> None:
    if truncation < 1:
        raise ValidationError(f"tensor truncation must be >= 1: {truncation}")
    if truncation > MAX_FACTORS:
        raise ComputationError(
            f"tensor truncation {truncation} exceeds the limit {MAX_FACTORS}")


@dataclass(frozen=True)
class TwistElement:
    """Canonical form: strictly increasing exponents k_i < M."""

    exponents: tuple[int, ...]
    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        _check_truncation(self.truncation)
        ks = self.exponents
        if list(ks) != sorted(set(ks)):
            raise ValidationError(f"exponents must strictly increase: {ks}")
        if ks and (ks[0] < 0 or ks[-1] >= self.truncation):
            raise ValidationError(f"exponents must lie in [0, {self.truncation}): {ks}")

    @property
    def series_bits(self) -> int:
        """Bitmask of y-exponents of prod (1 + y^{2^k_i})."""
        bits = 1
        for k in self.exponents:
            bits = clmul(bits, 1 | (1 << (1 << k)))
        return bits & ((1 << (1 << self.truncation)) - 1)

    def series_string(self) -> str:
        terms = []
        for e in gf2.bits(self.series_bits):
            terms.append("1" if e == 0 else ("y" if e == 1 else f"y^{e}"))
        return " + ".join(terms) if terms else "0"

    def __str__(self) -> str:
        if not self.exponents:
            return "1"
        return "".join(f"(1+y^{1 << k})" if k else "(1+y)" for k in self.exponents)


@dataclass(frozen=True)
class Dyadic:
    """Truncated 2-adic integer: a residue mod 2^M."""

    value: int
    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        _check_truncation(self.truncation)
        if not 0 <= self.value < (1 << self.truncation):
            raise ValidationError(
                f"dyadic value {self.value} outside [0, 2^{self.truncation})")

    @classmethod
    def residue(cls, value: int, truncation: int = DEFAULT_TRUNCATION) -> "Dyadic":
        """Any integer, reduced mod 2^M."""
        _check_truncation(truncation)
        return cls(value % (1 << truncation), truncation)


@dataclass(frozen=True)
class AlgebraHom:
    """Graded ring map from the truncated tensor of R(b_k) factors to
    the coefficient ring: each b_k goes to v^{2^k} or to 0."""

    height: int
    truncation: int
    active: frozenset

    def __post_init__(self):
        if self.height < 1:
            raise ValidationError("height must be >= 1")
        _check_height(self.height)
        _check_factors(self.truncation)
        if any(k < 0 or k >= self.truncation for k in self.active):
            raise ValidationError("active factors must lie below the truncation")

    def assignment(self, k: int) -> int | None:
        """v-exponent b_k is sent to, or None for the zero assignment."""
        return (1 << k) if k in self.active else None

    @classmethod
    def universal(cls, height: int, truncation: int) -> "AlgebraHom":
        """b_0 acts as v, all higher b_k act as zero."""
        return cls(height, truncation, frozenset({0}))


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[y]) product of bitmask polynomials."""
    out = 0
    while b:
        low = b & -b
        out ^= a << (low.bit_length() - 1)
        b ^= low
    return out


def from_exponents(exponents, truncation: int = DEFAULT_TRUNCATION) -> TwistElement:
    return TwistElement(tuple(exponents), truncation)


def factor_series(bits: int, truncation: int) -> TwistElement:
    """Refactor a truncated series into canonical 2-power factors.

    A product of distinct factors (1+y^{2^k}) has exponent set equal to
    the submasks of d = sum 2^k, so d is the bitwise OR of the exponents
    and the submask structure is verified exhaustively.
    """
    _check_truncation(truncation)
    mask = (1 << (1 << truncation)) - 1
    bits &= mask
    if not bits & 1:
        raise ComputationError("series has no constant term 1")
    exps = gf2.bits(bits)
    d = 0
    for e in exps:
        d |= e
    if d >= (1 << truncation):
        raise ComputationError("series exponents exceed the truncation order")
    if len(exps) != (1 << bin(d).count("1")) or any((e & d) != e for e in exps):
        raise ComputationError("series is not a product of (1 + y^{2^k}) factors")
    return TwistElement(tuple(gf2.bits(d)), truncation)


def multiply(f: TwistElement, g: TwistElement) -> TwistElement:
    """Group law: honest series product, refactored into canonical form."""
    if f.truncation != g.truncation:
        raise ValidationError("twists have different truncation orders")
    product = clmul(f.series_bits, g.series_bits)
    return factor_series(product, f.truncation)


def encode(f: TwistElement) -> Dyadic:
    """Isomorphism onto (Z/2^M, +): the exponent list, read in binary."""
    return Dyadic(sum(1 << k for k in f.exponents), f.truncation)


def decode(d: Dyadic) -> TwistElement:
    """Inverse isomorphism: set bits of d become the exponent list."""
    return TwistElement(tuple(gf2.bits(d.value)), d.truncation)


def to_algebra_hom(f: TwistElement, n: int, truncation: int) -> AlgebraHom:
    """The coefficient-module structure induced by a twist: b_k acts as
    v^{2^k} exactly for k in the exponent list, and as 0 otherwise."""
    return AlgebraHom(n, truncation,
                      frozenset(k for k in f.exponents if k < truncation))


class TwistVerdict(enum.Enum):
    NO_NONTRIVIAL_TWISTS = "no-nontrivial-twists"
    TWIST_GROUP_Z2 = "twist-group-Z2"
    ODD_PRIME_TRIVIAL = "odd-prime-trivial"


def vanishing_check(m: int, n: int, p: int = 2) -> TwistVerdict:
    """Classify the twist group for twists by degree-m integral classes.

    Above the boundary degree m = n+2 every twist is trivial; at the
    boundary the group is the (truncated) 2-adics when p = 2, while for
    odd p the coefficient ring has no class in degree 2 p^k (p^n-1)/(p-1)
    for the candidate images to land in, so only the trivial twist
    remains.  Below the boundary the classification is not part of this
    tool's contract.  A height or p whose degree note could not be
    printed is refused before p^n is built, and only then is p tested
    for primality.
    """
    if p < 2:
        raise ValidationError(f"p must be at least 2: {p}")
    if m < 1:
        raise ValidationError("m must be >= 1")
    if n < 1:
        raise ValidationError("n must be >= 1")
    _check_height(n)
    bits = p.bit_length()
    if bits > MAX_PRIME_BITS or n * bits > MAX_POWER_BITS:
        raise ComputationError(
            f"p of {bits} bits at n = {n}: p must lie below 2^{MAX_PRIME_BITS} "
            f"and n times its bits must be at most {MAX_POWER_BITS}")
    if not all(p % d for d in range(2, isqrt(p) + 1)):
        raise ValidationError(f"p must be prime: {p}")
    if m > n + 2:
        return TwistVerdict.NO_NONTRIVIAL_TWISTS
    if m == n + 2:
        return TwistVerdict.TWIST_GROUP_Z2 if p == 2 else TwistVerdict.ODD_PRIME_TRIVIAL
    raise ValidationError(f"twists by K(Z, {m}) with m < n+2 = {n + 2} are not classified here")


def degree_obstruction_report(n: int, p: int) -> str:
    """Why odd-prime boundary twists die: |b_1| is not a multiple of |v_n|.
    For an (n, p) that vanishing_check accepts."""
    b1 = 2 * p * (p**n - 1) // (p - 1)
    vn = 2 * (p**n - 1)
    if p == 2:
        return f"p=2: |b_1| = {b1} = 2^1*|v_n|, so b_1 can act as v_n^2"
    return (f"p={p}: |b_1| = {b1} is not a multiple of |v_n| = {vn}, "
            "so every graded map kills b_1")
