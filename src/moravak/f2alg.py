"""Graded-commutative F2 algebras presented by generators and relations.

Elements are F2-sums of monomials; a monomial is a sorted tuple of
(generator name, exponent) pairs, so presence of a monomial means
coefficient 1 and addition is symmetric difference.  Exponents are
positive, and exterior generators square to zero.

Quotient bases are computed one degree at a time by GF(2) linear
algebra on the span of relation multiples.  Every algebra carries a
hard degree cap ``D``: monomials of degree above ``D`` are truncated
away, which keeps each degree window finite and exact.  One walk over
the generators, in reverse name order, counts the window's monomials,
refusing more than ``MAX_WINDOW`` of them before any is built, then
lists them by degree, each degree already in monomial order: no degree
is ever sorted, and its basis and relation multiples are read from it.

The same loop lists each monomial's packed key beside it: one bit
field per generator, in name order, wide enough for twice the
generator's largest window exponent, and the degree above them all
(packed exponent vectors, as in Monagan-Pearce, CASC 2007).  Each
monomial's degree is also kept in one window-wide map.  Two window keys
add without carries, so the key of a product is the sum of its
factors' keys, and a sum that is no window key is a product that
vanishes: an exterior square, or a degree above the cap.

The window monomials are also numbered, degree-major: degree d holds
the numbers from its offset, the count of all lower degrees, in bucket
order.  An element is then one int with bit n for monomial n.  Each
degree numbers its keys when it is first built, and registers its
relation rows, shifted to its offset, in one window-wide pivot index;
different degrees have disjoint supports, so one elimination against
that index reduces an element of any degrees.  A product of two such
elements is a sum of keys per pair of terms and one elimination.
``reduce``, ``mul`` and ``express_bits`` all go through these numbers;
a term outside the window raises on an unknown generator or a negative
exponent and is dropped otherwise.  Reduction is linear and works
degree by degree, so a sum of canonical forms, and the part of one
degree of a canonical form, are canonical.  A ring map given on
generators, ``AlgebraMap`` here and the total square in ``steenrod``,
maps window numbers through one ``_GeneratorMap``: a monomial's image
is the cached image of its prefix, all factors but the last, times one
cached power.
"""

from __future__ import annotations

import re
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

from . import gf2
from .errors import (
    ComputationError,
    DegreeCapExceededError,
    IllFormedElementError,
    InvalidPairError,
    ParseError,
    ValidationError,
)

POLYNOMIAL = "polynomial"
EXTERIOR = "exterior"

_KINDS = (POLYNOMIAL, EXTERIOR)

# an algebra whose window [0, cap] has more degrees or more monomials
# than this is refused before any monomial is enumerated
MAX_WINDOW = 12000

Monomial = tuple  # tuple[(name, exponent), ...] sorted by name


@dataclass(frozen=True)
class GradedGenerator:
    name: str
    degree: int
    kind: str = POLYNOMIAL

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown generator kind {self.kind!r}")
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", self.name):
            raise ValidationError(f"bad generator name {self.name!r}")
        if self.degree < 1:
            # degree-0 generators have no finite degreewise bases; the
            # truncated series types carry their own truncation instead
            raise ValidationError(
                f"generator {self.name} must have degree >= 1 (got {self.degree})")


@dataclass(frozen=True)
class GradedElement:
    """F2 linear combination of monomials (presence = coefficient 1)."""

    terms: frozenset

    def __add__(self, other: "GradedElement") -> "GradedElement":
        return GradedElement(self.terms ^ other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(format_monomial(m) for m in sorted(self.terms))

    __repr__ = __str__


ZERO = GradedElement(frozenset())
ONE = GradedElement(frozenset({()}))


def monomial(*pairs: tuple[str, int]) -> Monomial:
    merged: dict[str, int] = {}
    for name, exp in pairs:
        merged[name] = merged.get(name, 0) + exp
    return tuple(sorted((n, e) for n, e in merged.items() if e != 0))


def format_monomial(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in m)


# -- element expression parsing ----------------------------------------------

_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def parse_element(text: str, line: int | None = None) -> GradedElement:
    """Parse a sum-of-monomials expression like ``t^3 + v*b0``."""
    text = text.strip()
    if not text:
        raise ParseError("empty expression", line)
    terms: set[Monomial] = set()
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if chunk == "0":
            continue
        pairs: list[tuple[str, int]] = []
        for factor in chunk.split("*"):
            factor = factor.strip()
            if factor == "1":
                continue
            match = _FACTOR_RE.fullmatch(factor)
            if not match:
                raise ParseError(f"bad monomial factor {factor!r}", line)
            try:
                pairs.append((match.group(1), int(match.group(2) or 1)))
            except ValueError:  # more digits than int() converts
                raise ParseError("exponent has too many digits", line) from None
        mono = monomial(*pairs)
        terms ^= {mono}
    return GradedElement(frozenset(terms))


class PresentedAlgebra:
    """Generators, homogeneous relations and a degree cap.

    Monomials of a given degree are ordered as sorted tuples; the
    per-degree quotient basis consists of the monomials not eliminated
    by relation multiples, eliminating the largest monomial of each
    relation row so that the surviving representatives are
    lexicographically least.
    """

    def __init__(self, generators: Sequence[GradedGenerator],
                 relations: Sequence[GradedElement] = (),
                 degree_cap: int = 16):
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ValidationError("generator names must be unique")
        if degree_cap < 0:
            raise ValidationError("degree cap must be nonnegative")
        self.generators = tuple(generators)
        self.degree_cap = degree_cap
        self._by_name = {g.name: g for g in generators}
        # window monomials by degree, each sorted, and their keys
        self._buckets, self._bucket_keys = self._window()
        self._degrees = {m: d for d, bucket in enumerate(self._buckets) for m in bucket}
        self._offsets = list(accumulate(map(len, self._buckets), initial=0))
        self._numbered = [m for bucket in self._buckets for m in bucket]  # window numbers
        self._number_keys = [0] * self._offsets[-1]
        self._key_numbers: dict[int, int] = {}
        self._pivots: dict[int, int] = {}  # window-wide pivot index
        self._pivot_mask = 0
        self.relations = tuple(self._normalize_relation(r) for r in relations)
        self._degree_cache: dict[int, _DegreeData] = {}
        self._reduced_relations_ok()

    # -- basic queries --------------------------------------------------

    def generator(self, name: str) -> GradedElement:
        if name not in self._by_name:
            raise IllFormedElementError(f"unknown generator {name!r}")
        return GradedElement(frozenset({((name, 1),)}))

    def element(self, text: str) -> GradedElement:
        return self.reduce(parse_element(text))

    @property
    def zero(self) -> GradedElement:
        return ZERO

    @property
    def one(self) -> GradedElement:
        return ONE

    def monomial_degree(self, m: Monomial) -> int:
        d = self._degrees.get(m)
        return d if d is not None else sum(self._gen(n).degree * e for n, e in m)

    # bench/tracer.py names these two as leaf helpers
    def laurent_free_degree(self, m: Monomial) -> int:
        return self.monomial_degree(m)

    def monomial_key(self, m: Monomial):
        return m

    def degrees_of(self, e: GradedElement) -> set[int]:
        return {self.monomial_degree(m) for m in e.terms}

    def degree_of(self, e: GradedElement) -> int | None:
        """Degree of a homogeneous element, None for 0."""
        degs = self.degrees_of(e)
        if not degs:
            return None
        if len(degs) > 1:
            raise IllFormedElementError(f"element is not homogeneous: {e}")
        return degs.pop()

    # -- canonical form ---------------------------------------------------

    def _gen(self, name: str) -> GradedGenerator:
        try:
            return self._by_name[name]
        except KeyError:
            raise IllFormedElementError(f"unknown generator {name!r}") from None

    def _check_monomial(self, m: Monomial) -> bool:
        """Validate exponents; returns False if the monomial is zero."""
        for name, exp in m:
            g = self._gen(name)
            if exp < 0:
                raise IllFormedElementError(
                    f"negative exponent on non-invertible generator {name}")
            if g.kind == EXTERIOR and exp >= 2:
                return False
        return True

    def reduce(self, e: GradedElement) -> GradedElement:
        """Canonical form: truncate, then reduce modulo relations."""
        return self._element(self._reduced_bits(e))

    def mul(self, a: GradedElement, b: GradedElement) -> GradedElement:
        """Product in the quotient, truncated above the degree cap."""
        return self._element(self._mul_bits(self._reduced_bits(a), self._reduced_bits(b)))

    # -- window numbers ------------------------------------------------------

    def _key(self, m: Monomial) -> int:
        """The key of a window monomial, summed over its factors."""
        return sum(e << self._fields[n] for n, e in m) + \
            (self._degrees[m] << self._degree_shift)

    def _number(self, m: Monomial) -> int | None:
        """Window number of m, building its degree on first use; None
        outside the window."""
        d = self._degrees.get(m)
        return None if d is None else self._offsets[d] + self._deg_data(d).index[m]

    def _number_of_key(self, k: int) -> int | None:
        """Number of a key, building its degree on first use; None for a
        key of no window monomial."""
        n = self._key_numbers.get(k)
        if n is None:
            d = k >> self._degree_shift
            if d <= self.degree_cap and d not in self._degree_cache:
                self._deg_data(d)
                n = self._key_numbers.get(k)
        return n

    def _bits(self, e: GradedElement, reach: int | None = None) -> int:
        """The terms of e in window numbers, not reduced.  A term outside
        the window raises on an unknown generator or a negative exponent,
        and is zero otherwise: an exterior square, or a degree above the
        cap.  With a reach, only a term that an operator raising degree
        by reach could carry into the window is checked."""
        vec = 0
        for m in e.terms:
            n = self._number(m)
            if n is not None:
                vec ^= 1 << n
            elif reach is None or self.monomial_degree(m) + reach <= self.degree_cap:
                self._check_monomial(m)
        return vec

    def _reduced_bits(self, e: GradedElement) -> int:
        """The canonical form of e in window numbers."""
        return gf2._eliminate(self._bits(e), self._pivot_mask, self._pivots)

    def _mul_bits(self, x: int, y: int) -> int:
        """Canonical product of two window vectors: each pair of terms
        multiplies by adding keys, and the sum reduces in one elimination."""
        keys, numbers = self._number_keys, self._key_numbers
        right = [keys[n] for n in gf2.bits(y)]
        out = 0
        for n in gf2.bits(x):
            left = keys[n]
            for k in right:
                p = numbers.get(left + k)
                if p is None:
                    p = self._number_of_key(left + k)
                    if p is None:  # an exterior square or a degree above the cap
                        continue
                out ^= 1 << p
        return gf2._eliminate(out, self._pivot_mask, self._pivots)

    def _element(self, vec: int) -> GradedElement:
        return GradedElement(frozenset(map(self._numbered.__getitem__, gf2.bits(vec))))

    def _basis_bits(self, vec: int, d: int) -> int:
        """Coordinates over basis(d) of the degree-d part of a reduced
        window vector."""
        low, high = self._offsets[d], self._offsets[d + 1]
        return self._deg_data(d).basis_bits((vec & (1 << high) - 1) >> low)

    # -- degreewise linear algebra ----------------------------------------

    def basis(self, d: int) -> tuple[Monomial, ...]:
        """Deterministic monomial basis of the degree-d quotient space."""
        self._check_degree(d)
        return self._deg_data(d).basis

    def basis_elements(self, d: int) -> tuple[GradedElement, ...]:
        return tuple(GradedElement(frozenset({m})) for m in self.basis(d))

    def express_bits(self, e: GradedElement, d: int) -> int:
        """Coordinates in degree d as a bitmask over basis(d)."""
        self._check_degree(d)
        return self._basis_bits(self._reduced_bits(e), d)

    def element_from_bits(self, d: int, coords: int) -> GradedElement:
        basis = self.basis(d)
        return GradedElement(frozenset(basis[i] for i in gf2.bits(coords)))

    # -- internals ----------------------------------------------------------

    def _check_degree(self, d: int):
        if d < 0 or d > self.degree_cap:
            raise DegreeCapExceededError(
                f"degree {d} outside window [0, {self.degree_cap}]")

    def _normalize_relation(self, r: GradedElement) -> GradedElement:
        degs = {self.monomial_degree(m) for m in r.terms}
        if len(degs) != 1:
            raise ValidationError(f"relation must be homogeneous and nonzero: {r}")
        d = degs.pop()
        if d > self.degree_cap:
            raise ValidationError(
                f"relation degree {d} exceeds cap {self.degree_cap}: {r}")
        for m in r.terms:
            if not self._check_monomial(m):
                raise ValidationError(f"relation contains an exterior square: {r}")
        return r

    def _window(self) -> tuple[list[list[Monomial]], list[list[int]]]:
        """The monomials of each degree 0..cap, each degree in monomial
        order, and their keys in the same order.

        One walk puts the generators in front one at a time, in reverse
        name order, so each degree d comes out sorted: g times the old
        degree d - |g|, then g times the part of the new degree d - |g|
        that holds g (not for an exterior g), then the old degree d.
        Times g is plus g's unit on keys, so the keys come from the same
        loop.  The walk runs on counts first, so an oversized window is
        refused before any monomial is built.  Each generator's key field
        holds twice its largest window exponent, and the degree sits
        above all fields."""
        cap = self.degree_cap
        if cap >= MAX_WINDOW:
            raise ComputationError(f"degree cap {cap} exceeds the limit {MAX_WINDOW - 1}")
        gens = sorted((g for g in self.generators if g.degree <= cap), key=lambda g: g.name)
        walk = [(g.name, g.degree, g.kind == POLYNOMIAL) for g in reversed(gens)]
        fields = list(accumulate(
            ((2 * min(cap // g.degree, 1 if g.kind == EXTERIOR else cap)).bit_length()
             for g in gens), initial=0))
        self._fields = {g.name: shift for g, shift in zip(gens, fields)}
        self._degree_shift = fields[-1]
        counts = [1] + [0] * cap
        for _, w, polynomial in walk:
            for d in range(w, cap + 1) if polynomial else range(cap, w - 1, -1):
                counts[d] += counts[d - w]
        total = sum(counts)
        if total > MAX_WINDOW:
            raise ComputationError(f"degree window [0, {cap}] holds {total} laurent-free "
                                   f"monomials; the limit is {MAX_WINDOW}")
        window: list[list[Monomial]] = [[()]] + [[] for _ in range(cap)]
        keys: list[list[int]] = [[0]] + [[] for _ in range(cap)]
        for name, w, polynomial in walk:
            first, unit = ((name, 1),), (1 << self._fields[name]) + (w << self._degree_shift)
            with_g, with_keys = [[]] * w, [[]] * w  # the part of each degree with g
            for d in range(w, cap + 1):
                part, below = [first + m for m in window[d - w]], keys[d - w]
                if polynomial and with_g[d - w]:
                    part += [((name, m[0][1] + 1),) + m[1:] for m in with_g[d - w]]
                    below = below + with_keys[d - w]
                with_g.append(part)
                with_keys.append([k + unit for k in below])
            window[w:] = [a + b if a else b for a, b in zip(with_g[w:], window[w:])]
            keys[w:] = [a + b if a else b for a, b in zip(with_keys[w:], keys[w:])]
        return window, keys

    def _reduced_relations_ok(self):
        for r in self.relations:
            if self.reduce(r) != ZERO:
                raise ValidationError(f"relation does not reduce to zero: {r}")

    def _deg_data(self, d: int) -> "_DegreeData":
        if d not in self._degree_cache:
            self._degree_cache[d] = self._build_degree(d)
        return self._degree_cache[d]

    def _build_degree(self, d: int) -> "_DegreeData":
        # number the bucket as it stands (the walk sorted it), then its relation rows
        candidates, keys = self._buckets[d], self._bucket_keys[d]
        offset, end, numbers = self._offsets[d], self._offsets[d + 1], self._key_numbers
        self._number_keys[offset:end] = keys
        numbers.update(zip(keys, range(offset, end)))
        index = dict(zip(candidates, range(end - offset)))
        rows = []
        for r in self.relations:
            dr, terms = self.degree_of(r), [self._key(t) for t in r.terms]
            for k in self._bucket_keys[d - dr] if dr <= d else ():
                # a sum that is no key is an exterior square, which is zero
                rows.append(sum(1 << numbers[k + t] - offset for t in terms if k + t in numbers))
        rel_rows = gf2.reduce_rows(row for row in rows if row)
        for p, row in rel_rows.by_pivot.items():
            self._pivots[p + offset] = row << offset
        self._pivot_mask |= rel_rows.mask << offset
        return _DegreeData(candidates, index, rel_rows)


class _DegreeData:
    __slots__ = ("index", "rel_rows", "basis_indices", "basis", "pivots")

    def __init__(self, candidates, index, rel_rows):
        self.index = index
        self.rel_rows = rel_rows  # keeps the pivot index of gf2.reduce_rows
        pivots = gf2.pivots(rel_rows)
        self.basis_indices = tuple(i for i in range(len(candidates)) if i not in pivots)
        self.basis = tuple(candidates[i] for i in self.basis_indices)
        self.pivots = sorted(pivots)

    def basis_bits(self, vec: int) -> int:
        """A reduced vector over the candidates as a bitmask over the
        basis: candidate i that is no pivot sits at basis position i less
        the number of pivots below it."""
        out = 0
        for i in gf2.bits(vec):
            out |= 1 << i - bisect(self.pivots, i)
        return out


class _GeneratorMap:
    """A ring map given on generators, on window numbers: images maps
    each source generator to a reduced target vector.  The image of
    monomial n is the cached image of its prefix (all factors but the
    last) times one cached power of its last factor's image; the empty
    monomial maps to the target's reduced unit.  Products in the
    quotient are associative and canonical forms unique, so every cached
    image is the canonical form of the product of all its factors'
    images."""

    def __init__(self, source: PresentedAlgebra, target: PresentedAlgebra,
                 images: Mapping[str, int]):
        self.source, self.target, self.images = source, target, images
        self._unit = target._reduced_bits(ONE)
        self._powers: dict[str, list[int]] = {}
        self._images: dict[int, int] = {}  # window number -> image

    def _power(self, name: str, exp: int) -> int:
        powers = self._powers.setdefault(name, [self._unit])
        while len(powers) <= exp and powers[-1]:
            powers.append(self.target._mul_bits(powers[-1], self.images[name]))
        return powers[exp] if exp < len(powers) else 0

    def image(self, n: int) -> int:
        out = self._images.get(n)
        if out is None:
            source = self.source
            m = source._numbered[n]
            out = self._power(*m[-1]) if m else self._unit
            if len(m) > 1:
                out = self.target._mul_bits(self.image(source._number(m[:-1])), out)
            self._images[n] = out
        return out


class AlgebraMap:
    """Degree-preserving algebra map given on generators.

    Validated to carry every relation of the source to zero; used for
    naturality of pages and for boundary restriction maps.  Monomials
    map through one ``_GeneratorMap``; source monomials outside the
    source window (exterior squares, degrees above the cap) map to zero.
    """

    def __init__(self, source: PresentedAlgebra, target: PresentedAlgebra,
                 images: Mapping[str, GradedElement]):
        self.source = source
        self.target = target
        self.images = {}
        for g in source.generators:
            if g.name not in images:
                raise InvalidPairError(f"no image supplied for generator {g.name}")
            img = target.reduce(images[g.name])
            if img and target.degree_of(img) != g.degree:
                raise InvalidPairError(
                    f"image of {g.name} is not homogeneous of degree {g.degree}")
            self.images[g.name] = img
        self._map = _GeneratorMap(source, target, {
            name: target._reduced_bits(img) for name, img in self.images.items()})
        for r in source.relations:
            if self.apply(r) != target.zero:
                raise InvalidPairError(f"relation {r} is not carried to zero")

    def apply(self, e: GradedElement) -> GradedElement:
        """The image of e, term by term: a sum of canonical forms, hence
        canonical.  The terms are not reduced first, so a relation is
        carried to zero only if the map respects it."""
        out = 0
        for n in gf2.bits(self.source._bits(e)):
            out ^= self._map.image(n)
        return self.target._element(out)
