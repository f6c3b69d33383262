"""Truncated formal group law arithmetic over Z/2^r coefficients.

Laws are stored as 2-variable truncated polynomials F(y, z) with
unitality, commutativity and (to the truncation order) associativity
checked at load.  The operations in scope: the 2-series [2](x) = F(x,x),
solving [2](x) = formal-sum of theta_i x^{2^i} degree by degree, height
detection from the leading 2-series exponent, and the grouplike test
alpha(F(y,z)) = alpha(y) alpha(z) that characterizes series inducing
ring-level characters.

All of them substitute through ``Series.compose``, which adds each
term c * (product of argument powers) into one accumulator.  Each
argument's powers come from one memo per call: a^h for h a power of 2
is the square of a^(h/2), and any other a^e is a^(e-h) a^h for the top
bit h of e, so each new exponent costs one product by a square power,
which mod 2 stays as sparse as the argument.  Each product counts its
term pairs first and refuses more than MAX_PRODUCT_PAIRS, and one
``compose`` refuses, before each product of powers, to hold more than
MAX_POWER_TERMS terms of powers.
"""

from __future__ import annotations

from functools import reduce
from math import comb
from operator import add, mul
from typing import Mapping, Sequence

from .errors import ComputationError, ValidationError

DEFAULT_TRUNCATION = 16
# solve_theta reports one value per theta; longer lists are refused
MAX_THETA_COUNT = 1024
# term pairs one series product may visit; larger products are refused
MAX_PRODUCT_PAIRS = 2_000_000
# terms of argument powers one compose may hold; more are refused
MAX_POWER_TERMS = 200_000


class Series:
    """Truncated multivariate polynomial over Z/2^r.

    coeffs maps exponent tuples (one entry per variable) to nonzero
    residues; all terms have total degree <= trunc.
    """

    __slots__ = ("nvars", "trunc", "modulus", "coeffs")

    def __init__(self, nvars: int, trunc: int, modulus: int,
                 coeffs: Mapping[tuple, int] | None = None):
        if modulus < 2 or modulus & (modulus - 1):
            raise ValidationError(f"modulus must be a power of 2, at least 2: {modulus}")
        self.nvars = nvars
        self.trunc = trunc
        self.modulus = modulus
        data = {}
        for mono, c in (coeffs or {}).items():
            c %= modulus
            if c and sum(mono) <= trunc:
                data[tuple(mono)] = c
        self.coeffs = data

    @classmethod
    def zero(cls, nvars: int, trunc: int, modulus: int) -> "Series":
        return cls(nvars, trunc, modulus)

    @classmethod
    def variable(cls, i: int, nvars: int, trunc: int, modulus: int) -> "Series":
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, trunc, modulus, {mono: 1})

    def _reduced(self, coeffs: dict) -> "Series":
        """A series of this shape from integer coefficients on terms
        within the truncation: each is taken modulo the modulus, zero
        residues are dropped, and the terms keep their order."""
        out = object.__new__(Series)
        out.nvars, out.trunc, out.modulus = self.nvars, self.trunc, self.modulus
        mod = self.modulus
        out.coeffs = {mono: r for mono, c in coeffs.items() if (r := c % mod)}
        return out

    def __eq__(self, other) -> bool:
        return (self.nvars, self.trunc, self.modulus, self.coeffs) == \
            (other.nvars, other.trunc, other.modulus, other.coeffs)

    def __add__(self, other: "Series") -> "Series":
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, 0) + c
        return self._reduced(out)

    def __sub__(self, other: "Series") -> "Series":
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, 0) - c
        return self._reduced(out)

    def __mul__(self, other: "Series") -> "Series":
        if len(self.coeffs) * len(other.coeffs) > MAX_PRODUCT_PAIRS:
            raise ComputationError(
                f"series product of {len(self.coeffs)} by {len(other.coeffs)} terms "
                f"exceeds the limit of {MAX_PRODUCT_PAIRS} term pairs")
        out: dict[tuple, int] = {}
        get = out.get
        right = [(m2, sum(m2), c2) for m2, c2 in other.coeffs.items()]
        for m1, c1 in self.coeffs.items():
            room = self.trunc - sum(m1)
            for m2, d2, c2 in right:
                if d2 <= room:
                    mono = tuple(map(add, m1, m2))
                    out[mono] = get(mono, 0) + c1 * c2
        return self._reduced(out)

    def scale(self, c: int) -> "Series":
        return Series(self.nvars, self.trunc, self.modulus,
                      {m: v * c for m, v in self.coeffs.items()})

    def compose(self, args: Sequence["Series"]) -> "Series":
        """Substitute args[i] for variable i; args share a variable space.
        Powers and products as in the module docstring."""
        if len(args) != self.nvars:
            raise ValidationError("wrong number of substitution arguments")
        nvars = args[0].nvars if args else 0
        powers = [{1: a} for a in args]
        held = 0  # terms of the powers made so far

        def keep(memo: dict, e: int, a: Series, b: Series):
            """memo[e] = a * b, refused before the product is built if it
            could take the held terms over the limit: a square mod 2 has at
            most the terms of its root (Frobenius), any product at most
            len(a) * len(b), and no series more than its monomials."""
            nonlocal held
            bound = len(a.coeffs) if a is b and a.modulus == 2 \
                else len(a.coeffs) * len(b.coeffs)
            bound = min(bound, comb(a.trunc + a.nvars, a.nvars))
            if held + bound > MAX_POWER_TERMS:
                raise ComputationError(
                    f"series substitution would hold {held + bound} terms of argument "
                    f"powers, exceeding the limit of {MAX_POWER_TERMS}")
            memo[e] = p = a * b
            held += len(p.coeffs)

        def power(i: int, e: int) -> Series:
            memo = powers[i]
            if e not in memo:
                low, h = 0, 1  # low: the bits of e below h
                while h <= e:
                    if h not in memo:
                        keep(memo, h, memo[h >> 1], memo[h >> 1])
                    if e & h:
                        if low + h not in memo:
                            keep(memo, low + h, memo[low], memo[h])
                        low += h
                    h <<= 1
            return memo[e]

        out: dict[tuple, int] = {}
        unit = {(0,) * nvars: 1}
        for mono, c in self.coeffs.items():
            factors = [power(i, e) for i, e in enumerate(mono) if e]
            term = reduce(mul, factors).coeffs if factors else unit
            for m, v in term.items():
                out[m] = out.get(m, 0) + c * v
        return Series(nvars, self.trunc, self.modulus, out)

    def coefficient(self, mono: tuple) -> int:
        return self.coeffs.get(tuple(mono), 0)

    def lowest_term(self) -> tuple[tuple, int] | None:
        if not self.coeffs:
            return None
        mono = min(self.coeffs, key=lambda m: (sum(m), m))
        return mono, self.coeffs[mono]

    def is_zero(self) -> bool:
        return not self.coeffs

    def compositional_inverse(self) -> "Series":
        """Inverse under substitution for 1-variable series with unit
        linear coefficient and zero constant term."""
        if self.nvars != 1:
            raise ValidationError("compositional inverse needs one variable")
        if self.coefficient((0,)) != 0:
            raise ValidationError("series must have zero constant term")
        lin = self.coefficient((1,))
        if lin % 2 == 0:
            raise ValidationError("linear coefficient must be invertible")
        lin_inv = pow(lin, -1, self.modulus)
        x = Series.variable(0, 1, self.trunc, self.modulus)
        h = x.scale(lin_inv)
        for k in range(2, self.trunc + 1):
            resid = self.compose([h]) - x
            c = resid.coefficient((k,))
            if c:
                h = h - Series(1, self.trunc, self.modulus, {(k,): c * lin_inv})
        if not (self.compose([h]) - x).is_zero():
            raise ComputationError("compositional inverse failed within truncation")
        return h

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        names = "xyzw"
        parts = []
        for mono, c in sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            factors = [] if c == 1 and any(mono) else [str(c)]
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            parts.append("*".join(factors) if factors else str(c))
        return " + ".join(parts)

    __repr__ = __str__


class FGL:
    """A commutative one-dimensional formal group law, truncated."""

    def __init__(self, law: Series):
        if law.nvars != 2:
            raise ValidationError("a formal group law has two variables")
        if law.trunc < 1:
            raise ValidationError(f"truncation order must be >= 1: {law.trunc}")
        self.law = law
        self.trunc = law.trunc
        self.modulus = law.modulus
        self._validate()

    @classmethod
    def from_coefficients(cls, coeffs: Mapping[tuple[int, int], int],
                          trunc: int = DEFAULT_TRUNCATION, modulus: int = 2) -> "FGL":
        return cls(Series(2, trunc, modulus, dict(coeffs)))

    @classmethod
    def multiplicative(cls, trunc: int = DEFAULT_TRUNCATION, modulus: int = 2) -> "FGL":
        """F(y, z) = y + z + yz."""
        return cls.from_coefficients({(1, 0): 1, (0, 1): 1, (1, 1): 1}, trunc, modulus)

    @classmethod
    def additive(cls, trunc: int = DEFAULT_TRUNCATION, modulus: int = 2) -> "FGL":
        return cls.from_coefficients({(1, 0): 1, (0, 1): 1}, trunc, modulus)

    def _validate(self):
        law = self.law
        for (i, j), c in law.coeffs.items():
            if (i == 0 or j == 0) and c:
                if (i, j) not in ((1, 0), (0, 1)):
                    raise ValidationError(
                        f"unitality fails: coefficient at y^{i} z^{j} must vanish")
        if law.coefficient((1, 0)) != 1 or law.coefficient((0, 1)) != 1:
            raise ValidationError("unitality fails: F(y,0) = y and F(0,z) = z required")
        for (i, j), c in law.coeffs.items():
            if law.coefficient((j, i)) != c:
                raise ValidationError("commutativity fails")
        if not self._associative():
            raise ValidationError("associativity fails within the truncation order")

    def _associative(self) -> bool:
        t, mod = self.trunc, self.modulus
        y = Series.variable(0, 3, t, mod)
        z = Series.variable(1, 3, t, mod)
        w = Series.variable(2, 3, t, mod)
        fyz = self.law.compose([y, z])
        fzw = self.law.compose([z, w])
        return (self.law.compose([fyz, w]) - self.law.compose([y, fzw])).is_zero()

    def formal_sum(self, terms: Sequence[Series]) -> Series:
        """Left-fold a_1 +_F a_2 +_F ... of 1-variable series."""
        if not terms:
            return Series.zero(1, self.trunc, self.modulus)
        acc = terms[0]
        for t in terms[1:]:
            acc = self.law.compose([acc, t])
        return acc


def two_series(F: FGL) -> Series:
    """[2](x) = F(x, x)."""
    x = Series.variable(0, 1, F.trunc, F.modulus)
    return F.law.compose([x, x])


def solve_theta(F: FGL, count: int, target: Series | None = None) -> tuple[int, ...]:
    """Solve target = (linear term) +_F sum_F theta_i x^{2^i} for theta;
    returns (theta_1, ..., theta_count).

    The default target is F's own 2-series.  theta_i is read off degree
    2^i of the residual because mixed formal-sum terms start strictly
    higher; after count steps the match must be exact up to the
    truncation order, else the law is rejected as not 2-typical at the
    first unmatched degree.  The formal sum is folded one nonzero theta
    at a time; theta_i is 0 once 2^i exceeds the truncation order.
    """
    if count < 1:
        raise ValidationError(f"theta count must be >= 1: {count}")
    if count > MAX_THETA_COUNT:
        raise ComputationError(
            f"theta count {count} exceeds the limit {MAX_THETA_COUNT}")
    if target is None:
        target = two_series(F)
    lin = target.coefficient((1,))
    if lin % 2 != 0 and F.modulus > 2:
        raise ComputationError("2-series has a unit linear term")

    def plus(acc: Series, exponent: int, c: int) -> Series:
        """acc +_F c x^exponent; F(0, z) = z needs no composition."""
        term = Series(1, F.trunc, F.modulus, {(exponent,): c})
        return term if acc.is_zero() else F.law.compose([acc, term])

    # the left fold of the nonzero terms so far
    folded = plus(Series.zero(1, F.trunc, F.modulus), 1, lin)
    thetas = [0] * count
    for i in range(1, min(count, F.trunc.bit_length() - 1) + 1):
        thetas[i - 1] = (target - folded).coefficient((1 << i,))
        if thetas[i - 1]:
            folded = plus(folded, 1 << i, thetas[i - 1])
    resid = target - folded
    low = resid.lowest_term()
    if low is not None:
        raise ComputationError(f"not 2-typical: unmatched term at degree {sum(low[0])}")
    return tuple(thetas)


def height(F: FGL) -> int | None:
    """log2 of the leading 2-series exponent; None when [2] = 0 to the
    truncation order (height at least log2 of the truncation)."""
    if F.modulus != 2:
        raise ValidationError("height detection requires characteristic 2")
    low = two_series(F).lowest_term()
    if low is None:
        return None
    exp = low[0][0]
    if exp & (exp - 1):
        raise ComputationError(
            f"leading 2-series exponent {exp} is not a power of 2")
    return exp.bit_length() - 1


def grouplike_check(alpha: Series, F: FGL) -> bool:
    """Whether alpha(F(y,z)) = alpha(y) alpha(z) to the truncation order."""
    if alpha.coefficient((0,)) != 1:
        raise ValidationError("grouplike candidates have constant term 1")
    y = Series.variable(0, 2, F.trunc, F.modulus)
    z = Series.variable(1, 2, F.trunc, F.modulus)
    lhs = alpha.compose([F.law])
    rhs = alpha.compose([y]) * alpha.compose([z])
    return (lhs - rhs).is_zero()


def change_coordinates(F: FGL, g: Series) -> FGL:
    """Conjugate by a coordinate change x -> g(x) = x + higher terms."""
    if g.coefficient((1,)) % 2 == 0 or g.coefficient((0,)) != 0:
        raise ValidationError("coordinate changes fix the origin with unit slope")
    g_inv = g.compositional_inverse()
    y = Series.variable(0, 2, F.trunc, F.modulus)
    z = Series.variable(1, 2, F.trunc, F.modulus)
    inner = F.law.compose([g.compose([y]), g.compose([z])])
    return FGL(g_inv.compose([inner]))
