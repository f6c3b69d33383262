"""The twisted Atiyah-Hirzebruch page at its first nontrivial differential.

The coefficient ring is a graded field on one invertible class v of
degree w = 2^{n+1} - 2, so a page is determined by one fundamental
strip: for each column p we store a basis of the cell, as coordinate
ints over the algebra's ``basis(p)``, and one differential matrix into
column p + (2^{n+1} - 1); every other row of the page is the v-power
translate of the strip, and the differential sends the v-exponent e to
e - 1.  On E2 every column is the identity over ``basis(p)``, so no
coordinate int is built: its classes are read as their window numbers.
Classes are built as elements only on request.

The twist is a plain degree-(n+2) class of the space, assumed to reduce
from an integral class.  The differential on the starting page is
    d(m * v^e) = (Q_n(m) + m * phi) * v^{e-1},
where phi is the degree-(2^{n+1}-1) class obtained from the twist by
applying Q_{n-1} ... Q_1 (the twist itself at n = 1).  When d^2 != 0,
Sq^1 of the twist is checked: a nonzero one shows it reduces from no
integral class.  Turning the page takes kernel mod image per column
with deterministic representatives.

Columns whose outgoing differential would leave a truncated window are
flagged edge-incomplete instead of being reported as ranks: the kernel
there depends on classes the model does not contain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional

from . import gf2
from .errors import ComputationError, ValidationError
from .f2alg import GradedElement, PresentedAlgebra, ZERO
from .rbk import _check_height, v_degree
from .steenrod import IntegralityData, SqAction, TriState, sq


@dataclass
class SpaceModel:
    """A space as its presented mod-2 cohomology with a Steenrod action.

    top_degree is the dimension: when it sits strictly below the degree
    cap the model asserts that cohomology vanishes above it (validated),
    and page windows are then complete; when it equals the cap the model
    is a truncation and boundary columns are flagged.
    """

    algebra: PresentedAlgebra
    action: SqAction
    integ: Optional[IntegralityData] = None
    top_degree: Optional[int] = None
    # (twist element, n) -> phi in window numbers; see _twist_bits
    _phis: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.action.algebra is not self.algebra:
            raise ValidationError("action is attached to a different algebra")
        if self.top_degree is None:
            self.top_degree = self.algebra.degree_cap
        if self.top_degree > self.algebra.degree_cap:
            raise ValidationError("top degree exceeds the degree cap")
        if self.top_degree < self.algebra.degree_cap:
            for d in range(self.top_degree + 1, self.algebra.degree_cap + 1):
                if self.algebra._basis_numbers(d):
                    raise ValidationError(
                        f"model of dimension {self.top_degree} has classes in degree {d}")

    @property
    def closed_window(self) -> bool:
        return self.top_degree < self.algebra.degree_cap


class Page:
    """One fundamental strip of a bigraded page plus its differential.

    ``coords[p]`` holds one int per class of column p, bit i for the i-th
    monomial of ``algebra.basis(p)``, or None for an identity column, whose
    classes are the monomials of ``basis(p)`` themselves, as on E2.
    ``bases`` builds the elements."""

    def __init__(self, n: int, algebra: PresentedAlgebra,
                 coords: Mapping[int, Optional[tuple[int, ...]]],
                 diff: Optional[Mapping[int, tuple[int, ...]]],
                 incomplete: frozenset, label: str):
        self.n = n
        self.algebra = algebra
        self.coords = dict(coords)
        self.diff = dict(diff) if diff is not None else None
        self.incomplete = frozenset(incomplete)
        self.label = label

    @property
    def step(self) -> int:
        """Column shift of the differential, 2^{n+1} - 1."""
        return 2 ** (self.n + 1) - 1

    @property
    def v_width(self) -> int:
        return v_degree(self.n)

    @property
    def window(self) -> range:
        return range(0, self.algebra.degree_cap + 1)

    @cached_property
    def bases(self) -> dict[int, tuple[GradedElement, ...]]:
        return {p: tuple(map(self.algebra._element, self._vectors(p))) for p in self.coords}

    def rank(self, p: int) -> int:
        cols = self.coords.get(p, ())
        return len(self.algebra._basis_numbers(p) if cols is None else cols)

    def _vectors(self, p: int) -> list[int]:
        """The classes of column p in window numbers: its basis numbers'
        bits on an identity column, else each coordinate int through them."""
        units = [1 << n for n in self.algebra._basis_numbers(p)]
        cols = self.coords[p]
        return units if cols is None else [gf2.apply_columns(units, c) for c in cols]

    def is_incomplete(self, p: int) -> bool:
        return p in self.incomplete

    def cell(self, p: int, q: int) -> tuple[tuple[GradedElement, int], ...]:
        """Basis of E^{p,q}: pairs (class, v-exponent), empty off the
        nonzero rows q = e * (2^{n+1}-2)."""
        if q % self.v_width:
            return ()
        e = q // self.v_width
        return tuple((b, e) for b in self.bases.get(p, ()))

    def differential_matrix(self, p: int, q: int = 0) -> tuple[int, ...] | None:
        """Columns of d at (p, q); independent of q by v-linearity."""
        if q % self.v_width:
            raise ValidationError("no cell on that row")
        if self.diff is None:
            return None
        return self.diff.get(p)


def twist_term(space: SpaceModel, twist: GradedElement, n: int) -> GradedElement:
    """The degree-(2^{n+1}-1) class Q_{n-1}...Q_1 applied to the twist;
    at n = 1 the twist itself.  The steps run on window numbers, so only
    the twist and the result are built as monomials."""
    return space.algebra._element(_twist_bits(space, twist, n))


def _twist_bits(space: SpaceModel, twist: GradedElement, n: int) -> int:
    """twist_term in window numbers, evaluated once per twist and n on
    this space."""
    key = (twist, n)
    if key not in space._phis:
        alg = space.algebra
        phi = alg._bits(alg._homogeneous(
            twist, n + 2, f"twist must be homogeneous of degree {n + 2}"))
        for j in range(1, n):
            phi = space.action._q(j, phi)
        space._phis[key] = phi
    return space._phis[key]


def e2_page(space: SpaceModel, n: int) -> Page:
    """Starting page: column p carries the degree-p quotient basis."""
    if n < 1:
        raise ValidationError("height must be >= 1")
    _check_height(n)
    identity = dict.fromkeys(range(space.algebra.degree_cap + 1))
    return Page(n, space.algebra, identity, None, frozenset(), "E2")


def first_differential(page: Page, space: SpaceModel, twist: GradedElement) -> Page:
    """Fill d(m v^e) = (Q_n(m) + m.phi) v^{e-1} and verify d^2 = 0."""
    if page.diff is not None:
        raise ValidationError("differential is already filled on this page")
    if page.algebra is not space.algebra:
        raise ValidationError("page was built from a different space")
    n, R = page.n, page.step
    alg, action = space.algebra, space.action
    # columns are built in the algebra's window numbers (see f2alg)
    phi = alg._keys(_twist_bits(space, twist, n))
    diff: dict[int, tuple[int, ...]] = {}
    incomplete: set[int] = set()
    for p in page.window:
        if p + R <= alg.degree_cap:
            # basis monomials are no pivots, so their window bits are reduced
            diff[p] = tuple(alg._basis_bits(action._q(n, x) ^ alg._mul_bits(x, phi), p + R)
                            for x in page._vectors(p))
        elif space.closed_window:
            # target degree exceeds the dimension: the map is honestly zero
            diff[p] = (0,) * len(page._vectors(p))
        else:
            incomplete.add(p)
    for p in page.window:
        if p in diff and (p + R) in diff:
            down = diff[p + R]
            for col in diff[p]:
                if gf2.apply_columns(down, col):
                    h = alg.reduce(twist)
                    if beta := sq(1, h, action):  # then h is no integral reduction
                        raise ValidationError(
                            f"twist {h} reduces from no integral class: Sq^1 of it is {beta}")
                    raise ComputationError(
                        f"d^2 != 0 out of column {p}; the Sq table is inconsistent")
    return Page(n, page.algebra, page.coords, diff, frozenset(incomplete), page.label)


def turn_page(page: Page) -> Page:
    """Homology of the differential, with deterministic representatives.

    Surviving classes in column p are kernel-mod-image vectors reduced to
    their lexicographically least form, mapped through the old column's
    coordinates, and kept as they are on an identity column; incomplete
    columns keep their old coordinates and stay flagged, since their
    kernel is not computable inside the window.
    """
    if page.diff is None:
        raise ComputationError("fill the differential before turning")
    R = page.step
    coords = dict(page.coords)  # incomplete columns have no diff and stay
    for p, out in page.diff.items():  # out has one column per class
        old, image = page.coords[p], page.diff[p - R] if p - R >= 0 else ()
        reps = gf2.homology(out, len(out), image) if out else ()  # no classes, no homology
        coords[p] = tuple(reps if old is None else (gf2.apply_columns(old, r) for r in reps))
    zero_diff = {p: (0,) * len(coords[p]) for p in page.diff}
    label = f"E{2 ** (page.n + 1)}" if page.label == "E2" \
        else page.label + "+ (upper bound)"
    return Page(page.n, page.algebra, coords, zero_diff, page.incomplete, label)


@dataclass(frozen=True)
class IntegralPageResult:
    """Mod-2 shadow of the integral differential plus, for every matrix
    column, a three-valued certificate for vanishing of the underlying
    integral class."""

    page: Page
    certificates: dict


def integral_first_differential(page: Page, space: SpaceModel,
                                twist: GradedElement) -> IntegralPageResult:
    """Shadow of the integral first differential with vanishing certificates.

    The shadow matrix agrees with the mod-2 differential.  A nonzero
    shadow certifies integral nonvanishing.  A zero shadow upgrades to a
    vanishing certificate only when the beta-certificates resolve: the
    leading term of the integral lift of Q_n is beta Sq^{2^{n+1}-2}, so
    the source class must have Sq^{2^{n+1}-2} inside the declared
    integral image, and the twist contribution must vanish integrally
    (zero twist, or Sq^2 of the twist inside the image, which kills the
    innermost factor of the composite).  Everything else is unknown.
    """
    if space.integ is None:
        raise ValidationError("the space carries no integral-image data")
    integ = space.integ
    filled = first_differential(page, space, twist)
    h = space.algebra.reduce(twist)
    if h == ZERO:
        twist_ok = True
    elif page.n >= 2:
        twist_ok = integ.contains(sq(2, h, space.action))
    else:
        twist_ok = False
    certificates: dict[int, tuple] = {}
    for p, cols in filled.diff.items():  # the complete columns
        verdicts = []
        for x, col in zip(filled._vectors(p), cols):
            if col:
                verdicts.append(TriState.NO)
            else:
                m = space.algebra._element(x)
                qn_ok = integ.contains(sq(filled.v_width, m, space.action))
                verdicts.append(TriState.YES if (qn_ok and twist_ok)
                                else TriState.UNKNOWN)
        certificates[p] = tuple(verdicts)
    return IntegralPageResult(filled, certificates)
