"""Module theory over R(b_k) = K(n)_*[b_k]/(b_k^2 - v^{2^k} b_k) and over
truncated tensor products of these rings.

Modules are finite-rank free over the coefficient ring F2[v^{+-1}], so
after normalizing the forced v-power out of every matrix entry the
operator b_k becomes a plain F2 matrix B with B^2 = B, and all kernel,
image and cokernel computations are exact GF(2) linear algebra.  The
defining relation makes B idempotent, which is what drives the
vanishing of all higher Tor groups against the two cyclic quotients
M_k (b_k acts by 0) and N_k (b_k acts by v^{2^k}).

Two independent computational routes are kept deliberately separate:
Tor via the explicit 2-periodic resolution and the bar page via an
honest multicomplex, against the one-shot stacked-cokernel quotient.
The bar page ranks the coboundaries d_m^T of the multicomplex in
ascending degree with clearing, so a column known to be a sum of lower
columns is never built; over F2 the dual complex has the homology
dimensions of the complex, and representatives are built only where
they are nonzero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb
from typing import Sequence

from . import gf2
from .errors import ComputationError, ValidationError
from .twistgroup import AlgebraHom

DEFAULT_TENSOR_TRUNCATION = 6
# bar_e2 refuses complexes with more generators than this (the slowest
# shape at the limit, rank 1 over one factor, takes 23-33 ms on 2 shared vCPUs)
MAX_BAR_COMPLEX = 5000
# reports name 2^(n+1) - 1 and |v| = 2^(n+1) - 2; past n of about 14 000
# these numbers no longer convert to a string
MAX_HEIGHT = 1024


def v_degree(n: int) -> int:
    """Degree of the periodicity class at height n."""
    return 2 ** (n + 1) - 2


def _check_height(n: int) -> None:
    if n > MAX_HEIGHT:
        raise ComputationError(f"height {n} exceeds the limit {MAX_HEIGHT}")


def b_degree(n: int, k: int) -> int:
    return 2**k * v_degree(n)


class StandardModule(enum.Enum):
    M = "M"  # R(b_k)/(b_k)
    N = "N"  # R(b_k)/(b_k - v^{2^k})
    R = "R"  # R(b_k) as a module over itself


def _check_operator(cols: Sequence[int], degrees: Sequence[int], n: int,
                    what: str) -> tuple[int, ...]:
    r = len(degrees)
    if len(cols) != r:
        raise ValidationError(f"{what}: operator must be {r}x{r}")
    w = v_degree(n)
    same_class: dict[int, int] = {}  # degree mod |v| -> mask of its generators
    for i, d in enumerate(degrees):
        same_class[d % w] = same_class.get(d % w, 0) | 1 << i
    for j, col in enumerate(cols):
        if col >> r:
            raise ValidationError(f"{what}: column {j} has out-of-range bits")
        if col & ~same_class[degrees[j] % w]:
            raise ValidationError(
                f"{what}: entry mixes generator degrees that differ mod |v| = {w}")
    if gf2.compose_columns(cols, cols) != list(cols):
        raise ValidationError(
            f"{what}: defining relation fails, B^2 != v^(2^k) B in normalized form")
    return tuple(cols)


@dataclass(frozen=True)
class RbkModule:
    """Finite-rank free module over the height-n coefficients with one
    operator B_k; entries are stored v-normalized, so B is over F2."""

    n: int
    k: int
    degrees: tuple[int, ...]
    operator: tuple[int, ...]  # columns as bitmasks

    def __post_init__(self):
        if self.n < 1 or self.k < 0:
            raise ValidationError("need height n >= 1 and factor index k >= 0")
        _check_height(self.n)
        object.__setattr__(self, "degrees", tuple(self.degrees))
        object.__setattr__(self, "operator",
                           _check_operator(self.operator, self.degrees, self.n,
                                           f"R(b_{self.k})-module"))

    @property
    def rank(self) -> int:
        return len(self.degrees)


@dataclass(frozen=True)
class TensorModule:
    """Module over the truncated tensor of R(b_k), 0 <= k < truncation,
    with commuting idempotent (normalized) operators."""

    n: int
    truncation: int
    degrees: tuple[int, ...]
    operators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("need height n >= 1")
        _check_height(self.n)
        if len(self.operators) != self.truncation:
            raise ValidationError("one operator per tensor factor is required")
        object.__setattr__(self, "degrees", tuple(self.degrees))
        ops = tuple(tuple(cols) for cols in self.operators)
        # a repeated operator passes or fails the checks as its first copy
        # does, and it commutes with everything, as zero does; checking
        # only first copies still names the first failing factor and pair
        first: dict[tuple[int, ...], int] = {}
        for k, cols in enumerate(ops):
            first.setdefault(cols, k)
        for cols, k in first.items():
            _check_operator(cols, self.degrees, self.n, f"factor {k}")
        distinct = [(cols, k) for cols, k in first.items() if any(cols)]
        for i, (a_cols, a) in enumerate(distinct):
            for b_cols, b in distinct[i + 1:]:
                if gf2.compose_columns(a_cols, b_cols) != gf2.compose_columns(b_cols, a_cols):
                    raise ValidationError(f"operators {a} and {b} do not commute")
        object.__setattr__(self, "operators", ops)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def factor(self, k: int) -> RbkModule:
        if not 0 <= k < self.truncation:
            raise ValidationError(
                f"factor index {k} outside the tensor truncation [0, {self.truncation})")
        return RbkModule(self.n, k, self.degrees, self.operators[k])

    @classmethod
    def from_single(cls, module: RbkModule) -> "TensorModule":
        """Place one R(b_k)-module in the default tensor truncation; other
        factors act by 0."""
        K = DEFAULT_TENSOR_TRUNCATION
        if module.k >= K:
            raise ValidationError(f"factor index k = {module.k} is at or above the "
                                  f"default tensor truncation {K}")
        ops = [(0,) * module.rank] * K
        ops[module.k] = module.operator
        return cls(module.n, K, module.degrees, tuple(ops))


@dataclass(frozen=True)
class GradedKnModule:
    """Free graded module over the height-n coefficient ring, recorded by
    generator degrees; degrees are only meaningful mod |v|."""

    n: int
    degree_classes: tuple[int, ...]

    def __post_init__(self):
        w = v_degree(self.n)
        object.__setattr__(self, "degree_classes",
                           tuple(sorted(d % w for d in self.degree_classes)))

    @property
    def rank(self) -> int:
        return len(self.degree_classes)


def _resolution_maps(operator: Sequence[int],
                     against: StandardModule) -> tuple[list[int], list[int]]:
    """The two maps of the 2-periodic resolution, normalized; the map at
    position i is the entry i % 2.

    Against M_k the maps alternate (b, b - v^{2^k}, b, ...) starting at
    position 1; against N_k the two alternate in the other order.
    """
    b = list(operator)
    b_minus_v = [col ^ 1 << i for i, col in enumerate(b)]
    return (b_minus_v, b) if against is StandardModule.M else (b, b_minus_v)


def _transpose(cols: Sequence[int], r: int) -> list[int]:
    """Columns of the transpose of an r x r matrix given by columns."""
    return [sum((col >> j & 1) << i for i, col in enumerate(cols)) for j in range(r)]


def _quotient_module(n: int, degrees: Sequence[int], out_cols: Sequence[int],
                     image: Sequence[int]) -> GradedKnModule:
    """Degree classes of ker(out_cols) / span(image) over the generators."""
    classes = []
    w = v_degree(n)
    for rep in gf2.homology(out_cols, len(degrees), image):
        support = gf2.bits(rep)
        cls = {degrees[i] % w for i in support}
        if len(cls) != 1:
            raise ValidationError("representative mixes degree classes")
        classes.append(cls.pop())
    return GradedKnModule(n, tuple(classes))


def tor(P: RbkModule, against: StandardModule | str, i: int) -> GradedKnModule:
    """Tor_i of P against M_k or N_k via the explicit periodic resolution."""
    against = StandardModule(against)
    if against is StandardModule.R:
        raise ValidationError("Tor is computed against the cyclic quotients M or N")
    if i < 0:
        raise ValidationError(f"homological index must be nonnegative: {i}")
    maps = _resolution_maps(P.operator, against)
    out = maps[i % 2] if i else [0] * P.rank
    image = maps[(i + 1) % 2]
    return _quotient_module(P.n, P.degrees, out, image)


def _factor_kind(hom: AlgebraHom, k: int) -> StandardModule:
    """Which cyclic quotient the hom turns the coefficients into at factor k."""
    return StandardModule.N if hom.assignment(k) is not None else StandardModule.M


def bar_e2(P: TensorModule, hom: AlgebraHom,
           max_degree: int = 4) -> list[GradedKnModule]:
    """Homological-degree decomposition of the bar page E_2 = Tor over
    the tensor ring, computed from the tensored periodic resolutions.

    The total complex in degree m is a direct sum of copies of P over
    multi-indices alpha with |alpha| = m, with the k-th differential
    alternating along the k-th resolution; its homology is returned per
    degree.  As d^2 = 0, dim H_m = dim T_m - rank d_m - rank d_{m+1},
    each rank read from the coboundary d_m^T in ascending m with clearing
    (Chen & Kerber's twist, on the dual complex): a pivot of d_m^T is the
    highest bit of a coboundary c with d_{m+1}^T c = 0, so that column of
    d_{m+1}^T is a sum of lower ones and is neither built nor eliminated.
    Where dim H_m is not 0, representatives (so degree classes) come from
    ker d_{m+1}^T / im d_m^T: every operator is block diagonal over the
    generator classes mod |v|, so the complex and its dual split by class,
    and per class, over a field, both have the same dimension.  With
    valid inputs everything above degree 0 vanishes.

    Only the universal hom computes twisted homology; other homs are
    accepted as experimental coefficient structures.
    """
    if max_degree < 0:
        raise ValidationError(f"max_degree must be >= 0: {max_degree}")
    if hom.height != P.n:
        raise ValidationError("hom height does not match the module height")
    if hom.truncation != P.truncation:
        raise ValidationError("hom truncation does not match the module truncation")
    K, r = P.truncation, P.rank
    size = r * comb(max_degree + 1 + K, K)  # copies of P in degrees 0 .. max_degree + 1
    if size > MAX_BAR_COMPLEX:
        raise ComputationError(
            f"bar complex to degree {max_degree + 1} has {size} generators; "
            f"the limit is {MAX_BAR_COMPLEX}")
    # the coboundary takes beta to alpha = beta + e_k by the transpose of
    # the resolution map at alpha_k, so the pair is indexed by beta_k % 2
    maps = [_resolution_maps(_transpose(P.operators[k], r), _factor_kind(hom, k))[::-1]
            for k in range(K)]
    # multi-indices alpha with |alpha| = m as ints, one field per factor
    # and factor 0 highest, so int order is tuple order; each layer sorted
    width = (max_degree + 1).bit_length()
    shifts = [width * (K - 1 - k) for k in range(K)]
    units = [1 << s for s in shifts]
    layers = [[0]]
    for _ in range(max_degree + 1):
        layers.append(sorted({a + u for a in layers[-1] for u in units}))

    def coboundary(m: int, cleared: int = 0) -> list[int]:
        """Columns of the coboundary d_m^T: T_{m-1} -> T_m, but none for
        the bits of cleared.  Column (beta, j) is row (beta, j) of d_m, so
        each factor adds row j of its B_k-entry at beta + e_k; the
        r columns of one beta are packed in one int with stride W =
        dim T_m, split at the end."""
        if cleared == (1 << r * len(layers[m - 1])) - 1:
            return []
        W = r * len(layers[m])
        mask, strides, full = (1 << W) - 1, [j * W for j in range(r)], (1 << r) - 1
        factors = [(shift, unit, [sum(c << s for s, c in zip(strides, op)) for op in pair])
                   for shift, unit, pair in zip(shifts, units, maps)]
        above = {a: idx * r for idx, a in enumerate(layers[m])}
        cols = []
        for idx, beta in enumerate(layers[m - 1]):
            keep = ~cleared >> idx * r & full
            if keep:
                acc = 0
                for shift, unit, ops in factors:
                    acc ^= ops[beta >> shift & 1] << above[beta + unit]
                cols += [acc >> strides[j] & mask for j in range(r) if keep >> j & 1]
        return cols

    # clearing is exact as d^2 = 0: validated operators are idempotent
    # and commute
    images, ranks, cleared = [[]], [0], 0
    for m in range(1, max_degree + 2):
        images.append(coboundary(m, cleared))
        cleared = gf2.pivots(images[-1])
        ranks.append(cleared.bit_count())
    out = [GradedKnModule(P.n, ())] * (max_degree + 1)
    for m in range(max_degree + 1):
        dim = len(layers[m]) * r
        if dim - ranks[m] - ranks[m + 1]:
            degrees = [P.degrees[i % r] for i in range(dim)]
            out[m] = _quotient_module(P.n, degrees, coboundary(m + 1), images[m])
    return out


def khorami_quotient(P: TensorModule) -> GradedKnModule:
    """Quotient of P by (b_0 - v, b_1, b_2, ...): the stacked cokernel.

    This is the closed-form answer for the homology twisted by the
    universal twist, and must agree with the degree-0 bar page entry.
    """
    r = P.rank
    identity = [1 << i for i in range(r)]
    stacked: list[int] = []
    for k in range(P.truncation):
        cols = list(P.operators[k])
        if k == 0:
            cols = [cols[i] ^ identity[i] for i in range(r)]
        stacked.extend(cols)
    return _quotient_module(P.n, P.degrees, [0] * r, stacked)
