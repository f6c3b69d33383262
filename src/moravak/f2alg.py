"""Graded-commutative F2 algebras presented by generators and relations.

Elements are F2-sums of monomials; a monomial is a sorted tuple of
(generator name, exponent) pairs, so presence of a monomial means
coefficient 1 and addition is symmetric difference.  Exponents are
positive, and exterior generators square to zero.

Quotient bases come from GF(2) linear algebra on the span of relation
multiples.  Every algebra carries a hard degree cap ``D``: monomials of
degree above ``D`` are truncated away, which keeps each degree window
finite and exact.  A relation g^e = 0 on one polynomial generator is
folded into the window instead: it gives g the height e, as an exterior
generator has height 2, and the window holds only the exponents below
each generator's height, so no multiple of g^e is listed or needs a
relation row.

The window is held as packed keys, not as monomials: one bit field per
generator, in name order, wide enough for twice the generator's largest
window exponent, and the degree above them all (packed exponent
vectors, as in Monagan-Pearce, CASC 2007).  One walk over the
generators, in reverse name order, counts the window's monomials,
refusing more than ``MAX_WINDOW`` of them before any key is listed,
then lists the keys by degree, each degree already in monomial order:
no degree is ever sorted, and its basis and relation multiples are read
from it.  Two window keys add without carries, so the key of a product
is the sum of its factors' keys, and a sum that is no window key is a
product that vanishes: an exterior square, a multiple of a folded
power, or a degree above the cap.

The window monomials are also numbered, degree-major: degree d holds
the numbers from its offset, the count of all lower degrees, in walk
order.  An element is then one int with bit n for monomial n.  The
whole window is built when the algebra loads: one numbering of every
key, and per degree one echelon of every relation times every window
key it can multiply into that degree, eliminated at that degree's width.
Different degrees have disjoint supports, so the span of all the rows
is the direct sum of the degrees' spans; a fully reduced echelon
depends only on its span, so the degrees' echelons, shifted back into
the window, form one window-wide index, and one elimination against it
reduces an element of any degrees.  The window numbers that
are no pivots, ascending, are the basis numbers, each degree a slice.
A product of two elements is a sum of keys per pair of terms and one
elimination.  ``reduce``, ``mul`` and ``express_bits`` all go through
these numbers.

Monomial tuples exist only at the edges.  A term comes in through
``_bits``, which encodes its key factor by factor; a term outside the
window raises on an unknown generator or a negative exponent and is
dropped otherwise.  A number is decoded back to its tuple only where an
element leaves: ``_element``, ``basis`` and ``element_from_bits``.
Reduction is linear and works degree by degree, so a sum of canonical
forms, and the part of one degree of a canonical form, are canonical.
A ring map given on generators, ``AlgebraMap`` here and the total
square in ``steenrod``, maps window numbers through one
``_GeneratorMap``: a monomial's image is the cached image of its
prefix, all factors but the last, times one cached power.  The last
factor is the highest nonzero field of the key, and the prefix key is
the key less that factor's key.  ``_GeneratorMap`` also holds the one
presentation check of such a map: each exterior square x^2 and each
relation of the source must map to zero, and the first that does not
is named.
"""

from __future__ import annotations

import re
from bisect import bisect, bisect_left
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import ne
from typing import Mapping, Sequence

from . import gf2
from .errors import ComputationError, ParseError, ValidationError

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
        # window keys in number order, degree by degree; see _window
        self._number_keys, self._offsets = self._window(self._heights(relations))
        self._key_numbers = dict(zip(self._number_keys, range(len(self._number_keys))))
        self.relations = tuple(self._normalize_relation(r) for r in relations)
        self._reduce_relations()

    # -- basic queries --------------------------------------------------

    def generator(self, name: str) -> GradedElement:
        if name not in self._by_name:
            raise ValidationError(f"unknown generator {name!r}")
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
        return sum(self._gen(n).degree * e for n, e in m)

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
            raise ValidationError(f"element is not homogeneous: {e}")
        return degs.pop()

    def _homogeneous(self, e: GradedElement, degree: int, message: str) -> GradedElement:
        """The canonical form of a declared class, which must be zero or
        of the given degree, else ValidationError(message); a form of
        several degrees raises as in degree_of."""
        e = self.reduce(e)
        if e and self.degree_of(e) != degree:
            raise ValidationError(message)
        return e

    # -- canonical form ---------------------------------------------------

    def _gen(self, name: str) -> GradedGenerator:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"unknown generator {name!r}") from None

    def _check_monomial(self, m: Monomial) -> bool:
        """Validate every factor's generator and exponent; returns False
        if the monomial holds an exterior square."""
        square = False
        for name, exp in m:
            g = self._gen(name)
            if exp < 0:
                raise ValidationError(
                    f"negative exponent on non-invertible generator {name}")
            square = square or g.kind == EXTERIOR and exp >= 2
        return not square

    def reduce(self, e: GradedElement) -> GradedElement:
        """Canonical form: truncate, then reduce modulo relations."""
        return self._element(self._reduced_bits(e))

    def mul(self, a: GradedElement, b: GradedElement) -> GradedElement:
        """Product in the quotient, truncated above the degree cap."""
        x, y = self._reduced_bits(a), self._reduced_bits(b)
        return self._element(self._mul_bits(x, self._keys(y)))

    # -- window numbers ------------------------------------------------------

    def _key(self, m: Monomial) -> int | None:
        """The key of m, encoded factor by factor; None if m is no window
        monomial: an unknown generator or one outside the window, an
        exponent below 1 or at or above its generator's height (an
        exterior square, a multiple of a folded power), or a degree above
        the cap.  Each exponent is held to its window top before it is
        added, so no field carries into the next."""
        fields, key = self._fields, 0
        for name, e in m:
            field = fields.get(name)
            if field is None:
                return None
            unit, top = field
            if not 0 < e <= top:
                return None
            key += e * unit
        return key if key >> self._degree_shift <= self.degree_cap else None

    def _number(self, m: Monomial) -> int | None:
        """Window number of m; None outside the window."""
        return self._key_numbers.get(self._key(m))

    def _monomial(self, n: int) -> Monomial:
        """The monomial of window number n, decoded from its key."""
        k = self._number_keys[n]
        return tuple((name, e) for name, shift, mask, _ in self._factors
                     if (e := k >> shift & mask))

    def _bits(self, e: GradedElement, reach: int | None = None) -> int:
        """The terms of e in window numbers, not reduced.  A term outside
        the window raises on an unknown generator or a negative exponent,
        and is zero otherwise: an exterior square, a multiple of a folded
        power, or a degree above the cap.  With a reach, only a term that
        an operator raising degree by reach could carry into the window is
        checked."""
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

    def _mul_bits(self, x: int, right: list[int]) -> int:
        """Canonical product of window vector x and the terms keyed right."""
        keys, numbers = self._number_keys, self._key_numbers
        out = 0
        for n in gf2.bits(x):
            left = keys[n]
            for k in right:
                p = numbers.get(left + k)
                if p is not None:  # else an exterior square, a folded power or above the cap
                    out ^= 1 << p
        return gf2._eliminate(out, self._pivot_mask, self._pivots)

    def _keys(self, vec: int) -> list[int]:
        return [self._number_keys[n] for n in gf2.bits(vec)]

    def _element(self, vec: int) -> GradedElement:
        return GradedElement(frozenset(map(self._monomial, gf2.bits(vec))))

    def _basis_numbers(self, d: int) -> list[int]:
        """The window numbers of basis(d), ascending."""
        return self._free[self._free_offsets[d]:self._free_offsets[d + 1]]

    def _basis_bits(self, vec: int, d: int) -> int:
        """Coordinates over basis(d) of the degree-d part of a reduced
        window vector: its window numbers are no pivots, so each is found
        in the basis numbers."""
        free, low, high = self._free, self._free_offsets[d], self._free_offsets[d + 1]
        offset = self._offsets[d]
        out = 0
        for i in gf2.bits(vec >> offset & (1 << self._offsets[d + 1] - offset) - 1):
            out |= 1 << bisect_left(free, offset + i, low, high) - low
        return out

    # -- degreewise linear algebra ----------------------------------------

    def basis(self, d: int) -> tuple[Monomial, ...]:
        """Deterministic monomial basis of the degree-d quotient space."""
        self._check_degree(d)
        return tuple(map(self._monomial, self._basis_numbers(d)))

    def basis_elements(self, d: int) -> tuple[GradedElement, ...]:
        return tuple(GradedElement(frozenset({m})) for m in self.basis(d))

    def express_bits(self, e: GradedElement, d: int) -> int:
        """Coordinates in degree d as a bitmask over basis(d)."""
        self._check_degree(d)
        return self._basis_bits(self._reduced_bits(e), d)

    def element_from_bits(self, d: int, coords: int) -> GradedElement:
        self._check_degree(d)
        numbers = self._basis_numbers(d)
        return GradedElement(frozenset(self._monomial(numbers[i]) for i in gf2.bits(coords)))

    # -- internals ----------------------------------------------------------

    def _check_degree(self, d: int):
        if d < 0 or d > self.degree_cap:
            raise ValidationError(
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

    def _heights(self, relations: Sequence[GradedElement]) -> dict[str, int]:
        """The height of each generator that has one, the least e with
        g^e = 0: 2 for an exterior g, and for a polynomial g the least e
        of its relations g^e with e * |g| <= cap, which the window folds
        in.  Such a relation always passes _normalize_relation."""
        heights = {g.name: 2 for g in self.generators if g.kind == EXTERIOR}
        for r in relations:
            if len(r.terms) == 1 and len(m := next(iter(r.terms))) == 1:
                (name, e), = m
                g = self._by_name.get(name)
                if g and g.kind == POLYNOMIAL and 1 <= e and e * g.degree <= self.degree_cap:
                    heights[name] = min(e, heights.get(name, e))
        return heights

    def _window(self, heights: Mapping[str, int]) -> tuple[list[int], list[int]]:
        """The keys of the monomials of degrees 0..cap, each degree in
        monomial order, and the offset of each degree in that list.

        A generator's window top is its largest exponent below its height
        whose degree is within the cap; a generator whose top is 0 (of
        height 1, or of degree above the cap) is left out.  One walk puts
        the generators in front one at a time, in reverse name order, so
        each degree d comes out sorted: g times the old degree d - |g|,
        then g times the part of the new degree d - |g| that holds g, less
        that part's tail that holds g^top, then the old degree d.  Times g
        is plus g's unit on keys, so the walk lists keys alone.  It runs on
        counts first, so an oversized window is refused before any key is
        listed: degree d gains the old degree d - |g| and the part of the
        new degree d - |g| that holds g, less that tail, which is the old
        degree d - (top + 1)|g| times g^top.  The key walk then visits
        only the degrees that gain.  Each generator's key field holds
        twice its window top, and the degree sits above all fields."""
        cap = self.degree_cap
        if cap >= MAX_WINDOW:
            raise ComputationError(f"degree cap {cap} exceeds the limit {MAX_WINDOW - 1}")
        tops = {g.name: min(cap // g.degree, heights.get(g.name, cap + 1) - 1)
                for g in self.generators}
        gens = sorted((g for g in self.generators if tops[g.name]), key=lambda g: g.name)
        widths = [(2 * tops[g.name]).bit_length() for g in gens]
        shifts = list(accumulate(widths, initial=0))
        self._degree_shift = shifts.pop()
        self._shifts = shifts
        units = [(1 << s) + (g.degree << self._degree_shift) for g, s in zip(gens, shifts)]
        # name -> (unit key, window top), for encoding
        self._fields = {g.name: (unit, tops[g.name]) for g, unit in zip(gens, units)}
        # in name order, (name, field shift, field mask, unit key), for decoding
        self._factors = [(g.name, s, (1 << width) - 1, unit)
                         for g, s, width, unit in zip(gens, shifts, widths, units)]
        counts = [1] + [0] * cap
        walk = []  # (|g|, (top + 1)|g|, unit key, the degrees that gain monomials with g)
        for g, unit in zip(reversed(gens), reversed(units)):
            w, cut = g.degree, (tops[g.name] + 1) * g.degree
            old = counts[:]
            # counts[d] = old[d] - old[d - cut] + counts[d - w], in two passes
            for d in range(cap, cut - 1, -1):
                counts[d] -= counts[d - cut]
            for d in range(w, cap + 1):
                counts[d] += counts[d - w]
            walk.append((w, cut, unit, list(compress(range(cap + 1), map(ne, counts, old)))))
        total = sum(counts)
        if total > MAX_WINDOW:
            raise ComputationError(f"degree window [0, {cap}] holds {total} monomials; "
                                   f"the limit is {MAX_WINDOW}")
        keys: list[list[int]] = [[0]] + [[] for _ in range(cap)]
        for w, cut, unit, gains in walk:
            with_g = [[]] * (cap + 1)  # the keys of each degree's part with g
            for d in gains:
                below, part = keys[d - w], with_g[d - w]
                if part:  # less its tail with g^top, as long as the old degree d - cut
                    below = below + (part[:len(part) - len(keys[d - cut])] if d >= cut else part)
                with_g[d] = [k + unit for k in below]
            for d in gains:
                keys[d] = with_g[d] + keys[d]
        return [k for degree in keys for k in degree], list(accumulate(counts, initial=0))

    def _reduce_relations(self):
        """One echelon of every relation times every window key of degree
        at most the cap less the relation's, as the window-wide pivot
        index, and the window numbers that are no pivots, ascending, with
        the start of each degree among them.

        Only the rows of the relations' own echelon are multiplied: its
        multiples span what the relations' multiples span, and the fully
        reduced echelon depends only on the span, so a repeated relation
        or a sum of others adds no work.  Every multiple is homogeneous,
        so each degree is eliminated on its own, with its numbers shifted
        down to start at 0; the fully reduced echelon of the window is
        the union of the degrees' echelons, shifted back."""
        keys, offsets, numbers = self._number_keys, self._offsets, self._key_numbers
        # a term that is a multiple of a folded power is zero in _bits; each
        # row is homogeneous, of the degree of its top key
        relations = [(keys[row.bit_length() - 1] >> self._degree_shift, self._keys(row))
                     for row in gf2.reduce_rows(map(self._bits, self.relations))]
        lowest = min((dr for dr, _ in relations), default=self.degree_cap + 1)
        pivots, mask, free = {}, 0, list(range(offsets[lowest]))
        for d in range(lowest, self.degree_cap + 1):
            low = offsets[d]
            # a sum that is no key is zero: an exterior square or a folded
            # power; the rows are made as the elimination takes them
            rows = (sum(1 << numbers[k + t] - low for t in terms if k + t in numbers)
                    for dr, terms in relations if dr <= d
                    for k in keys[offsets[d - dr]:offsets[d - dr + 1]])
            echelon = gf2.reduce_rows(row for row in rows if row)
            for pivot, row in echelon.by_pivot.items():
                pivots[low + pivot] = row << low
            mask |= echelon.mask << low
            free += [n for n in range(low, offsets[d + 1]) if n - low not in echelon.by_pivot]
        self._pivots, self._pivot_mask, self._free = pivots, mask, free
        self._free_offsets = [bisect_left(free, offset) for offset in offsets]


class _GeneratorMap:
    """A ring map given on generators, on window numbers: images maps
    each source generator to a reduced target vector.  The image of
    monomial n is the cached image of its prefix (all factors but the
    last) times one cached power of its last factor's image, or that
    power alone where there is no prefix; the empty monomial maps to the
    target's reduced unit.  Products in the
    quotient are associative and canonical forms unique, so every cached
    image is the canonical form of the product of all its factors'
    images."""

    def __init__(self, source: PresentedAlgebra, target: PresentedAlgebra,
                 images: Mapping[str, int]):
        self.source, self.target, self.images = source, target, images
        self._unit = target._reduced_bits(ONE)
        self._generator_keys = {name: target._keys(img) for name, img in images.items()}
        self._powers = {name: [self._unit] for name in images}
        self._power_keys: dict[tuple[str, int], list[int]] = {}  # right operands only
        self._images: dict[int, int] = {}  # window number -> image

    def _power(self, name: str, exp: int) -> int:
        powers = self._powers[name]
        while len(powers) <= exp and powers[-1]:
            powers.append(self.target._mul_bits(powers[-1], self._generator_keys[name]))
        return powers[exp] if exp < len(powers) else 0

    def _right(self, name: str, exp: int) -> list[int]:
        """The keys of a power that is the right operand of a product."""
        keys = self._power_keys.get((name, exp))
        if keys is None:
            keys = self._power_keys[name, exp] = self.target._keys(self._power(name, exp))
        return keys

    def _first_nonzero(self) -> tuple[GradedElement, int] | None:
        """The first part of the source presentation that the map does not
        carry to zero, with its image: the square x^2 of each exterior
        generator x, in generator order, then each relation; None if every
        part maps to zero.  A part's image is each term's factors' powers
        multiplied out.  x^2 and a relation folded into the source window,
        g^e = 0, have no window number, so they are read as _power(x, 2)
        and _power(g, e): a map that does not carry them to zero is still
        caught."""
        squares = [GradedElement(frozenset({((g.name, 2),)}))
                   for g in self.source.generators if g.kind == EXTERIOR]
        for r in (*squares, *self.source.relations):
            out = 0
            for m in r.terms:
                x = self._unit
                for name, e in m:
                    x = self.target._mul_bits(x, self._right(name, e))
                out ^= x
            if out:
                return r, out
        return None

    def image(self, n: int) -> int:
        out = self._images.get(n)
        if out is None:
            source = self.source
            k = source._number_keys[n]
            exps = k & (1 << source._degree_shift) - 1
            if not exps:  # the empty monomial
                out = self._unit
            else:
                # the last factor holds the highest nonzero exponent field
                name, shift, _, unit = source._factors[
                    bisect(source._shifts, exps.bit_length() - 1) - 1]
                e = exps >> shift
                if exps & (1 << shift) - 1:
                    prefix = source._key_numbers[k - e * unit]
                    out = self.target._mul_bits(self.image(prefix), self._right(name, e))
                else:  # one factor: the image is the power
                    out = self._power(name, e)
            self._images[n] = out
        return out

    def _apply(self, vec: int) -> int:
        """The image of window vector vec, a sum of canonical forms."""
        out = 0
        for n in gf2.bits(vec):
            out ^= self.image(n)
        return out


class AlgebraMap:
    """Degree-preserving algebra map given on generators.

    Validated to carry every exterior square and every relation of the
    source to zero, through ``_GeneratorMap._first_nonzero``; used for
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
                raise ValidationError(f"no image supplied for generator {g.name}")
            self.images[g.name] = target._homogeneous(
                images[g.name], g.degree,
                f"image of {g.name} is not homogeneous of degree {g.degree}")
        self._map = _GeneratorMap(source, target, {
            name: target._reduced_bits(img) for name, img in self.images.items()})
        if failing := self._map._first_nonzero():
            raise ValidationError(f"relation {failing[0]} is not carried to zero")

    def apply(self, e: GradedElement) -> GradedElement:
        """The image of e, term by term: a sum of canonical forms, hence
        canonical.  The terms are not reduced first, so a relation is
        carried to zero only if the map respects it."""
        return self.target._element(self._map._apply(self.source._bits(e)))
