"""Orientation-obstruction checks on manifold-like data.

Every "integral class vanishes" question here is 2-torsion: the classes
at stake are values of beta (the connecting operation of multiplication
by 2), so a class beta(x) vanishes exactly when x is the reduction of an
integral class.  Verdicts are therefore computed from a mod-2
representative Sq^1(x) plus membership of x in the declared integral
image, and stay three-valued when neither resolves; a nonzero
representative is always conclusive, a zero one is not.  Every verdict
comes from the one certificate ``steenrod._beta_certificate``, and a
report's status is looked up from its verdict.

The checks in scope: integral Stiefel-Whitney classes via Sq^1 of the
even classes, the universal Wu formula for Sq^i(w_j), the twisted string
condition on the degree-7 obstruction, the heterotic anomaly relation
a + b = lambda, the fivebrane condition in degree 15, the quadratic
refinement of the mod-2 index, the phase-invariance criterion for the
degree-4 field, and the relative-pair variant through a validated
boundary restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Mapping, Optional

from . import gf2
from .ahss import SpaceModel
from .errors import HypothesisViolatedError, ValidationError
from .f2alg import AlgebraMap, GradedElement, ZERO
from .steenrod import TriState, _beta_certificate, commutes_with_sq, milnor_q, sq

ORIENTED = "oriented"
OBSTRUCTED = "obstructed"
UNDECIDED = "undecided"

_STATUS = {TriState.YES: ORIENTED, TriState.NO: OBSTRUCTED, TriState.UNKNOWN: UNDECIDED}

_FLAGS = {"oriented", "spin", "string"}


@dataclass
class PairModel:
    """Boundary data: the boundary's space model and the restriction map.

    The restriction must be a map of algebras (enforced when the
    AlgebraMap is built) landing in the boundary algebra; commutation
    with the Sq tables is validated by the owning ManifoldData, which
    knows the total space's action.
    """

    space: SpaceModel
    restriction: AlgebraMap

    def __post_init__(self):
        if self.restriction.target is not self.space.algebra:
            raise ValidationError("restriction does not land in the boundary algebra")


@dataclass
class ManifoldData:
    """A space model enriched with characteristic-class data.

    sw maps i to the class w_i; w_0 is the unit, classes above the
    dimension are zero, and under the spin flag w_1, w_2, w_3 are zero
    without being declared.  lam is the mod-2 representative of the
    degree-4 spin class (validated against w_4 when both are present).
    pairing is evaluation against the fundamental class, recorded as a
    top-degree expression paired by coordinatewise dot product.
    """

    space: SpaceModel
    dimension: int
    sw: Mapping[int, GradedElement] = field(default_factory=dict)
    lam: GradedElement = ZERO
    pairing: GradedElement = ZERO
    flags: frozenset = frozenset()
    torsion4: tuple = ()
    boundary: Optional[PairModel] = None

    def __post_init__(self):
        alg = self.space.algebra
        self.flags = frozenset(self.flags)
        if not self.flags <= _FLAGS:
            raise ValidationError(f"unknown flags: {sorted(self.flags - _FLAGS)}")
        if self.dimension < 0 or self.dimension > alg.degree_cap:
            raise ValidationError("dimension must sit inside the degree window")
        self.sw = {int(i): alg._homogeneous(w, int(i),
                                            f"declared w_{i} is not homogeneous of degree {i}")
                   for i, w in self.sw.items()}
        self.lam = alg._homogeneous(self.lam, 4, "lambda must be a degree-4 class")
        if self.is_spin:
            for i in (1, 2):
                if self.sw.get(i):
                    raise ValidationError(f"spin flag contradicts nonzero w_{i}")
        if self.is_string:
            # string silently implies spin; the flags need not repeat it
            if self.lam != ZERO:
                raise ValidationError("string flag requires lambda = 0")
            if self.sw.get(4):
                raise ValidationError("string flag requires w_4 = 0")
        if self.lam != ZERO:
            if 4 not in self.sw:
                raise ValidationError("lambda declared but w_4 is missing")
            if self.lam != self.sw[4]:
                raise ValidationError("lambda must reduce to w_4 mod 2")
        self.pairing = alg._homogeneous(self.pairing, self.dimension,
                                        "pairing must be a top-degree expression")
        self.torsion4 = tuple(alg._homogeneous(t, 4, f"torsion class {t} must have degree 4")
                              for t in self.torsion4)
        if self.boundary is not None:
            res = self.boundary.restriction
            if res.source is not alg:
                raise ValidationError("restriction is not defined on this space")
            if not commutes_with_sq(res, self.space.action, self.boundary.space.action):
                raise ValidationError("restriction does not commute with Sq")

    @property
    def is_spin(self) -> bool:
        return "spin" in self.flags or "string" in self.flags

    @property
    def is_string(self) -> bool:
        return "string" in self.flags

    def sw_class(self, i: int) -> GradedElement:
        """w_i as a canonical form."""
        if i == 0:
            return self.space.algebra.reduce(self.space.algebra.one)
        if i in self.sw:
            return self.sw[i]
        if i > self.dimension:
            return ZERO
        if self.is_spin and i in (1, 2, 3):
            return ZERO
        raise ValidationError(f"w_{i} is required but was not declared")

    def pair(self, e: GradedElement) -> int:
        """Evaluation <e, [X]> against the declared pairing functional."""
        alg = self.space.algebra
        e = alg._homogeneous(e, self.dimension, "pairing applies to top-degree classes only")
        if e == ZERO:
            return 0
        vec = alg.express_bits(e, self.dimension)
        ref = alg.express_bits(self.pairing, self.dimension)
        return bin(vec & ref).count("1") % 2


@dataclass(frozen=True)
class ObstructionReport:
    status: str
    obstruction: GradedElement
    certificate: TriState
    warnings: tuple = ()


def _w7_certificate(m: ManifoldData, h: GradedElement) -> tuple[GradedElement, TriState]:
    """Shadow and certificate of W_7 + beta Sq^2(h), the beta-image of
    w_6 + Sq^2(h)."""
    act = m.space.action
    return _beta_certificate(m.sw_class(6) + sq(2, h, act), act, m.space.integ)


def integral_sw(m: ManifoldData, odd: int) -> tuple[GradedElement, TriState]:
    """Shadow and vanishing certificate of the odd integral class W_{2k+1},
    the beta-image of w_{2k}."""
    if odd < 1 or odd % 2 == 0:
        raise ValidationError("integral Stiefel-Whitney classes have odd index")
    return _beta_certificate(m.sw_class(odd - 1), m.space.action, m.space.integ)


def wu_sq(m: ManifoldData, i: int, j: int) -> GradedElement:
    """Sq^i(w_j) = sum_t C(j-i+t-1, t) w_{i-t} w_{j+t}, evaluated on the
    declared classes (the universal Wu expansion)."""
    if i < 0 or j < 1 or i > j:
        raise ValidationError("wu_sq expects 0 <= i <= j with j >= 1")
    alg = m.space.algebra
    if i + j > alg.degree_cap:
        raise ValidationError(
            f"Sq^{i}(w_{j}) has degree {i + j}, beyond the cap {alg.degree_cap}")
    out = ZERO
    for t in range(i + 1):
        top = j - i + t - 1
        coeff = 1 if t == 0 else (comb(top, t) % 2 if top >= t else 0)
        if not coeff:
            continue
        out = out + alg.mul(m.sw_class(i - t), m.sw_class(j + t))
    return out


def _require_integral_degree(m: ManifoldData, e: GradedElement, degree: int,
                             what: str) -> GradedElement:
    e = m.space.algebra._homogeneous(e, degree, f"{what} must be homogeneous of degree {degree}")
    if m.space.integ is not None and not m.space.integ.contains(e):
        raise ValidationError(f"{what} is not in the declared integral image")
    return e


def twisted_string_check(m: ManifoldData, h4: GradedElement) -> ObstructionReport:
    """Vanishing of the degree-7 obstruction W_7 + beta Sq^2 H_4.

    The twist h4 is a plain degree-4 class, assumed to reduce from an
    integral class; where the data declares an integral image, h4 must
    lie in it.  Both summands are beta-images, so the verdict is the
    beta-certificate of w_6 + Sq^2(h_4); cancellations between the two
    terms are decided on that combined class, not termwise.
    """
    warnings = []
    if m.dimension > 12:
        warnings.append(f"stated for dimension <= 12; data has dimension {m.dimension}")
    h = _require_integral_degree(m, h4, 4, "twist class")
    rep, cert = _w7_certificate(m, h)
    return ObstructionReport(_STATUS[cert], rep, cert, tuple(warnings))


@dataclass(frozen=True)
class HeteroticReport:
    status: str
    obstruction: GradedElement
    certificate: TriState
    hypothesis_ok: bool
    failed_hypotheses: tuple = ()


def heterotic_check(m: ManifoldData, a: GradedElement,
                    b: GradedElement) -> HeteroticReport:
    """Anomaly check for two degree-4 classes with a + b = lambda.

    Requires Sq^3(a) = 0 (a lifts); the resulting obstruction is the
    degree-7 class W_7 + beta Sq^2(b), reported with its certificate.
    The a + b = lambda relation is a hard error; a failing Sq^3(a) = 0
    hypothesis is reported, not raised.
    """
    alg = m.space.algebra
    a, b = (alg._homogeneous(cls, 4, f"class {name} must have degree 4")
            for name, cls in (("a", a), ("b", b)))
    if a + b != m.lam:
        raise ValidationError("a + b = lambda fails on this data")
    failed = []
    if sq(1, sq(2, a, m.space.action), m.space.action) != ZERO:
        failed.append("Sq3(a) = 0")
    rep, cert = _w7_certificate(m, b)
    return HeteroticReport(_STATUS[cert], rep, cert, not failed, tuple(failed))


@dataclass(frozen=True)
class FivebraneReport:
    status: str
    obstruction: GradedElement
    certificate: TriState
    alpha8: GradedElement
    cross_check_agrees: bool
    warnings: tuple = ()


def fivebrane_check(m: ManifoldData, h5: GradedElement) -> FivebraneReport:
    """Degree-15 obstruction W_15 + beta Sq^6(alpha_8) with
    alpha_8 = beta Sq^2(h_5)'s shadow, on string-flagged data.

    Also reports whether the Milnor route Q_2 Q_1(h_5) agrees with the
    square route Sq^7 Sq^3(h_5); the two coincide for genuine Steenrod
    actions on classes killed by Sq^1, so a mismatch flags synthetic
    tables.
    """
    warnings = []
    if not m.is_string:
        warnings.append("stated on string-flagged data; string flag absent")
    h5 = _require_integral_degree(m, h5, 5, "degree-5 twist")
    act = m.space.action
    alpha8 = sq(1, sq(2, h5, act), act)
    rep, cert = _beta_certificate(m.sw_class(14) + sq(6, alpha8, act), act, m.space.integ)
    agrees = milnor_q(2, milnor_q(1, h5, act), act) == sq(7, sq(3, h5, act), act)
    return FivebraneReport(_STATUS[cert], rep, cert, alpha8, agrees, tuple(warnings))


@dataclass(frozen=True)
class IndexTable:
    """The mod-2 index as a plain value table on degree-4 coordinates.

    Keys are coordinate bitmasks over the degree-4 basis; the function is
    analytic input and is only ever validated, never computed.
    """

    values: Mapping[int, int]

    def evaluate(self, m: ManifoldData, e: GradedElement) -> int:
        alg = m.space.algebra
        key = alg.express_bits(
            alg._homogeneous(e, 4, "the index function is defined on degree 4"), 4)
        if key not in self.values:
            raise ValidationError(f"index table does not cover coordinates {key:b}")
        return self.values[key] % 2


def quadratic_refinement_check(m: ManifoldData, f: IndexTable, a: GradedElement,
                               a2: GradedElement) -> bool:
    """Whether f(a + a') = f(a) + f(a') + <a Sq^2 a', [X]> holds."""
    alg = m.space.algebra
    if m.dimension != 10:
        raise ValidationError("the refinement identity is stated in dimension 10")
    for name, cls in (("a", a), ("a2", a2)):
        alg._homogeneous(cls, 4, f"class {name} must have degree 4")
    lhs = f.evaluate(m, a + a2)
    cross = m.pair(alg.mul(a, sq(2, a2, m.space.action)))
    rhs = (f.evaluate(m, a) + f.evaluate(m, a2) + cross) % 2
    return lhs == rhs


@dataclass(frozen=True)
class PhaseReport:
    invariant: bool
    correction: int
    sq3_condition_holds: bool
    orientation_status: str
    orientation_certificate: TriState


def phase_invariance_check(m: ManifoldData, f: IndexTable, a: GradedElement,
                           b: GradedElement) -> PhaseReport:
    """Invariance of the index phase under shifting the degree-4 field by
    a torsion class b with f(b) = 0.

    The phase is invariant exactly when <b Sq^2 lambda> + <b Sq^2 a>
    vanishes; since b is torsion this is implied by Sq^3(lambda + a) = 0,
    which is the degree-7 orientation criterion W_7 + beta Sq^2(a) = 0,
    reported alongside with its certificate.
    """
    alg = m.space.algebra
    if m.dimension != 10:
        raise ValidationError("the phase criterion is stated in dimension 10")
    a = alg._homogeneous(a, 4, "class a must have degree 4")
    b = alg.reduce(b)
    rows = [alg.express_bits(t, 4) for t in m.torsion4 if t]
    if b and not gf2.in_span(alg.express_bits(b, 4), gf2.reduce_rows(rows)):
        raise HypothesisViolatedError("b is not among the declared torsion classes")
    if f.evaluate(m, b) != 0:
        raise HypothesisViolatedError("the variation class must satisfy f(b) = 0")
    act = m.space.action
    correction = (m.pair(alg.mul(b, sq(2, m.lam, act))) +
                  m.pair(alg.mul(b, sq(2, a, act)))) % 2
    sq3 = sq(1, sq(2, m.lam + a, act), act)
    _, cert = _w7_certificate(m, a)
    return PhaseReport(correction == 0, correction, sq3 == ZERO, _STATUS[cert], cert)


def relative_obstruction(m: ManifoldData, h4: GradedElement) -> ObstructionReport:
    """Relative form of the twisted string check, on the same degree-4
    twist h4 as ``twisted_string_check``.

    With no boundary this is the absolute check.  With boundary data the
    participating classes must restrict to zero (be relative classes);
    the shadow rules are then applied unchanged on the total space.
    """
    if m.boundary is None:
        return twisted_string_check(m, h4)
    res = m.boundary.restriction
    alg = m.space.algebra
    h = alg.reduce(h4)
    for name, cls in (("twist", h), ("w_6", m.sw_class(6))):
        if res.apply(cls) != ZERO:
            raise ValidationError(
                f"{name} does not restrict to zero; not a relative class")
    return twisted_string_check(m, h4)
