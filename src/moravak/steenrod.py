"""Steenrod squares on presented algebras, Milnor primitives, and the
mod-2 bookkeeping for odd integral operations beta∘Sq^{2k}.

A SqAction stores Sq^i only on generators.  By the Cartan formula
Sq^k(ab) = sum_{i+j=k} Sq^i(a) Sq^j(b), the total square
Sq = sum_i Sq^i is a ring map, and the unstable axioms on generators
propagate to everything.  The action works in the algebra's window
numbers, where an element is one int: the total square is the
algebra's ``_GeneratorMap`` from each generator to its total square,
so each window monomial's total square is one cached int.
Sq^i of a degree-d monomial is the degree-(d+i) part of that int, one
AND with the mask of that degree's numbers, and Q_j runs its
commutator recursion on these ints.  The table holds no entry above a
generator's degree, so a degree-d total square lies in degrees d..2d:
Sq^i of a degree-d term is zero for i > d (the unstable axiom), and
such a term is skipped before its total square is built.  ``sq`` and
``milnor_q`` take an element in through the algebra's one intake,
``_bits`` with the operator's reach, and convert back on exit.
Validation is eager and cannot be skipped: an action whose table is
incompatible with the algebra's presentation (some Sq^i(r) nonzero in
the quotient, for r an exterior square x^2 or a relation) is rejected
at load, since a silently inconsistent table would poison every
differential computed from it.  The check is the presentation check of
``_GeneratorMap`` on the total square, whose image of r names the
lowest failing i.  A ring map commutes with the action when it carries
each generator's total square to the total square of the generator's
image.

Integral statements are never decided on integral cohomology itself;
they are decided through mod-2 representatives plus a declared
"integral image" subspace (the span of reductions of integral classes,
held as one echelon over window numbers).  Its product closure is
checked on the echelon's rows, one product per unordered pair.  One
certificate, ``_beta_certificate``, decides whether beta(x) vanishes:
yes when x is zero or in the integral image, no when the shadow
Sq^1(x) is nonzero, unknown otherwise.  ``sq_z`` and the checks in
``obstruct`` take their verdicts from it.
"""

from __future__ import annotations

import enum
from typing import Mapping, Sequence

from . import gf2
from .errors import ValidationError
from .f2alg import (
    AlgebraMap,
    GradedElement,
    PresentedAlgebra,
    ZERO,
    _GeneratorMap,
)


class TriState(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class SqAction:
    """Table of Sq^i on generators, extended by Cartan and additivity.

    table maps a generator name to {i: element} for 0 < i < |g|; the
    endpoints are forced (Sq^0 = id, Sq^{|g|} = squaring) and entries
    above the degree are zero.
    """

    def __init__(self, algebra: PresentedAlgebra,
                 table: Mapping[str, Mapping[int, GradedElement]] | None = None):
        self.algebra = algebra
        table = dict(table or {})
        self._table: dict[str, dict[int, GradedElement]] = {}
        for g in algebra.generators:
            row = {int(i): algebra.reduce(e) for i, e in table.pop(g.name, {}).items()}
            for i in sorted(row):
                e = row[i]
                if i == 0 or i == g.degree:
                    # endpoints are forced; tolerate redundant declarations
                    forced = self.generator_sq(g.name, i)
                    if e != forced:
                        raise ValidationError(
                            f"Sq^{i}({g.name}) is forced to {forced}, got {e}")
                    del row[i]
                    continue
                if i < 0 or i > g.degree:
                    raise ValidationError(
                        f"Sq^{i}({g.name}) vanishes for i > {g.degree}; do not declare it")
                if e and algebra.degree_of(e) != g.degree + i:
                    raise ValidationError(
                        f"Sq^{i}({g.name}) must be homogeneous of degree {g.degree + i}")
            self._table[g.name] = row
        if table:
            raise ValidationError(f"Sq table for unknown generators: {sorted(table)}")
        # Sq g = g + the row's entries + g^2; an entry or square above the
        # cap is zero, as every other Sq^i(g) is
        self._generator_totals = {}
        for g in algebra.generators:
            ends = self.generator_sq(g.name, 0) + self.generator_sq(g.name, g.degree)
            total = sum(self._table[g.name].values(), ends)
            self._generator_totals[g.name] = algebra._reduced_bits(total)
        self._squares = _GeneratorMap(algebra, algebra, self._generator_totals)
        # the total square of window monomial n, a canonical form
        self._total = self._squares.image
        self._masks: dict[int, int] = {}  # degree -> its window numbers
        self._check_relations()

    def generator_sq(self, name: str, i: int) -> GradedElement:
        g = self.algebra._gen(name)
        if i < 0 or i > g.degree:
            return ZERO
        if i == 0:
            return self.algebra.generator(name)
        if i == g.degree:
            gen = self.algebra.generator(name)
            return self.algebra.mul(gen, gen)
        return self._table[name].get(i, ZERO)

    def _sq(self, i: int, x: int) -> int:
        """Sq^i of window vector x: each term's total square masked to
        the term's degree plus i.  A term of degree d < i is skipped
        before its total square is built: that square lies in degrees
        d..2d, so Sq^i of the term is zero."""
        alg = self.algebra
        keys, shift, offsets = alg._number_keys, alg._degree_shift, alg._offsets
        top = alg.degree_cap - i
        out = 0
        while x:
            low = x & -x
            x ^= low
            n = low.bit_length() - 1
            d = keys[n] >> shift
            if i <= d <= top:
                d += i
                mask = self._masks.get(d) or \
                    self._masks.setdefault(d, (1 << offsets[d + 1]) - (1 << offsets[d]))
                out ^= self._total(n) & mask
        return out

    def _q(self, j: int, x: int) -> int:
        """Q_j of window vector x by the commutator recursion, which
        makes no call on a zero vector: Q_j is linear."""
        if not x:
            return 0
        if j == 0:
            return self._sq(1, x)
        s = 1 << j
        y, z = self._q(j - 1, x), self._sq(s, x)
        return (y and self._sq(s, y)) ^ (z and self._q(j - 1, z))

    def _check_relations(self):
        """Sq^i(r) = 0 for every part r of the presentation, each exterior
        square x^2 and each relation, tested on r's total square, whose
        lowest nonzero degree part names the failing i.  For x^2 that is
        Sq^{2i}(x^2) = (Sq^i x)^2, in characteristic 2."""
        alg = self.algebra
        if failing := self._squares._first_nonzero():
            r, total = failing
            low = alg._number_keys[(total & -total).bit_length() - 1] >> alg._degree_shift
            raise ValidationError(f"action does not descend to the quotient: "
                                  f"Sq^{low - alg.degree_of(r)}({r}) is nonzero")


def sq(i: int, e: GradedElement, action: SqAction) -> GradedElement:
    """Sq^i extended additively and by Cartan from the generator table.

    The total square of a monomial is its image under the ring map
    g -> sum_i Sq^i(g); Sq^i of a degree-d monomial is the degree-(d+i)
    part of that image.  The images are canonical forms, and a degree
    part of a sum of canonical forms is canonical, so the result needs
    no further reduction.
    """
    if i < 0:
        raise ValidationError("Sq index must be nonnegative")
    return action.algebra._element(action._sq(i, action.algebra._bits(e, i)))


def milnor_q(j: int, e: GradedElement, action: SqAction) -> GradedElement:
    """Milnor primitive Q_j, raising degree by 2^{j+1} - 1.

    Q_0 = Sq^1 and Q_j = Sq^{2^j} Q_{j-1} + Q_{j-1} Sq^{2^j}; the
    commutator step uses the square matching Q_j's degree shift, so the
    shift telescopes to 2^j + (2^j - 1).  The recursion first applies
    Sq^1 to e, so e's terms are checked as for Sq^1.
    """
    if j < 0:
        raise ValidationError("Milnor index must be nonnegative")
    return action.algebra._element(action._q(j, action.algebra._bits(e, 1)))


def check_derivation(j: int, a: GradedElement, b: GradedElement,
                     action: SqAction) -> bool:
    """Whether Q_j(ab) = Q_j(a)b + aQ_j(b) holds for this pair."""
    alg = action.algebra
    lhs = milnor_q(j, alg.mul(a, b), action)
    rhs = alg.mul(milnor_q(j, a, action), b) + alg.mul(a, milnor_q(j, b, action))
    return lhs == rhs


def adem_spot_check(action: SqAction, max_degree: int | None = None) -> bool:
    """Sq^1 Sq^1 = 0 and Sq^1 Sq^2 = Sq^3 on all basis elements."""
    alg = action.algebra
    top = alg.degree_cap - 3 if max_degree is None else max_degree
    for d in range(top + 1):
        for e in alg.basis_elements(d):
            if sq(1, sq(1, e, action), action) != ZERO:
                return False
            if sq(1, sq(2, e, action), action) != sq(3, e, action):
                return False
    return True


class IntegralityData:
    """Declared span of mod-2 reductions of integral classes, per degree.

    The unit is always integral.  Validation enforces that the span is
    killed by Sq^1 (reductions of integral classes are) and that it is
    closed under products, both within the degree window.
    """

    def __init__(self, action: SqAction,
                 spans: Mapping[int, Sequence[GradedElement]] | None = None):
        self.action = action
        self.algebra = action.algebra
        spans = spans or {}
        elements: dict[int, list[GradedElement]] = {0: [self.algebra.one]}
        for d, elems in spans.items():
            for e in elems:
                e = self.algebra.reduce(e)
                if not e:
                    continue
                if self.algebra.degree_of(e) != d:
                    raise ValidationError(
                        f"integral-image entry of wrong degree: {e} declared in {d}")
                elements.setdefault(d, []).append(e)
        self._elements = elements
        # one echelon over window numbers: the degrees' numbers are
        # disjoint, so it is the direct sum of the per-degree spans
        self._span = gf2.reduce_rows(self.algebra._reduced_bits(e)
                                     for elems in elements.values() for e in elems)
        self._validate()

    def contains(self, e: GradedElement) -> bool:
        return gf2.in_span(self.algebra._reduced_bits(e), self._span)

    def _validate(self):
        """Sq^1 kills each declared entry, and the span is closed under
        products: the echelon rows span it, each is homogeneous, and
        products commute, so one product per unordered pair of rows of
        positive degrees summing to at most the cap decides it."""
        alg, span = self.algebra, self._span
        for elems in self._elements.values():
            for e in elems:
                if sq(1, e, self.action) != ZERO:
                    raise ValidationError(
                        f"integral-image entry not killed by Sq^1: {e}")
        keys, shift = alg._number_keys, alg._degree_shift
        # by ascending pivot, so by degree; the unit's row has degree 0
        rows = [(d, row, alg._keys(row)) for row in reversed(span)
                if (d := keys[row.bit_length() - 1] >> shift)]
        for i, (d1, a, _) in enumerate(rows):
            for d2, b, right in rows[i:]:
                if d1 + d2 > alg.degree_cap:
                    break
                if not gf2.in_span(alg._mul_bits(a, right), span):
                    raise ValidationError(
                        "integral image is not closed under products: "
                        f"({alg._element(a)})*({alg._element(b)}) escapes")


def _beta_certificate(x: GradedElement, action: SqAction,
                      integ: IntegralityData | None) -> tuple[GradedElement, TriState]:
    """Mod-2 shadow Sq^1(x) and vanishing certificate of beta(x), for a
    canonical x.  beta(x) vanishes when x lifts integrally: x is zero or
    lies in the declared integral image (when there is one).  A nonzero
    shadow certifies nonvanishing; a zero shadow alone decides nothing."""
    shadow = sq(1, x, action)
    if not x or integ is not None and integ.contains(x):
        return shadow, TriState.YES
    return shadow, TriState.NO if shadow else TriState.UNKNOWN


def sq_z(k: int, e: GradedElement, action: SqAction,
         integ: IntegralityData) -> tuple[GradedElement, TriState]:
    """Mod-2 shadow and vanishing certificate of the odd operation
    beta∘Sq^{2k} on (the integral lift of) e: the beta-certificate of
    Sq^{2k}(e)."""
    if k < 0:
        raise ValidationError("index must be nonnegative")
    e = action.algebra.reduce(e)
    if not integ.contains(e):
        raise ValidationError(f"class is not in the declared integral image: {e}")
    return _beta_certificate(sq(2 * k, e, action), action, integ)


def commutes_with_sq(fmap: AlgebraMap, source_action: SqAction,
                     target_action: SqAction) -> bool:
    """Whether f(Sq^i g) = Sq^i f(g) for every generator and index, read
    off the total squares once per generator: f keeps degrees, so the
    degree-(|g| + i) parts of f(Sq g) and Sq f(g) are the two sides at
    i, each zero where it leaves its window."""
    f, totals = fmap._map, source_action._generator_totals
    return all(f._apply(totals[g.name]) == target_action._squares._apply(f.images[g.name])
               for g in fmap.source.generators)
