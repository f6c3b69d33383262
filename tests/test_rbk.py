import itertools
import random

import pytest
from hypothesis import given, strategies as st

from moravak import gf2, rbk
from moravak.errors import ValidationError
from moravak.rbk import (
    GradedKnModule,
    RbkModule,
    StandardModule,
    TensorModule,
    bar_e2,
    b_degree,
    khorami_quotient,
    tor,
    v_degree,
)
from moravak.spacefile import parse_module
from moravak.twistgroup import AlgebraHom

from conftest import FIXTURES
from oracles import dense_cokernel_rank, dense_rank_mod2
from test_input_files import SETTINGS


def test_standard_modules():
    """The cyclic quotients M_k, N_k and the free rank-2 module R_k."""
    M0 = RbkModule(2, 0, (0,), (0,))
    assert M0.rank == 1 and M0.operator == (0,)
    N0 = RbkModule(2, 0, (0,), (1,))
    assert N0.operator == (1,)
    # free on 1 and b_k; columns: b.1 = b, b.b = v^{2^k} b
    R0 = RbkModule(2, 0, (0, b_degree(2, 0)), (0b10, 0b10))
    assert R0.degrees == (0, b_degree(2, 0))
    assert R0.operator == (0b10, 0b10)


def test_degree_constants():
    assert v_degree(2) == 6
    assert b_degree(2, 0) == 6 and b_degree(2, 1) == 12
    assert b_degree(1, 3) == 16


def test_relation_guard():
    with pytest.raises(ValidationError):
        RbkModule(2, 0, (0, 0), (0b10, 0b01))  # a swap is not idempotent
    with pytest.raises(ValidationError):
        RbkModule(2, 0, (0, 1), (0b11, 0b11))  # mixes degree classes mod |v|
    RbkModule(2, 0, (0, 6), (0b10, 0b10))      # classes agree mod 6


def test_commutation_guard():
    ops_bad = ((0b10, 0b00), (0b00, 0b01))
    # neither operator is idempotent, so the defining relation fails first
    with pytest.raises(ValidationError, match="^factor 0: defining relation fails, "):
        TensorModule(2, 2, (0, 0), ops_bad)
    # both idempotent, but B_0 B_1 e_1 = e_0 while B_1 B_0 e_1 = 0
    ops_non_commuting = ((0b01, 0b00), (0b01, 0b01))
    with pytest.raises(ValidationError, match="^operators 0 and 1 do not commute$"):
        TensorModule(2, 2, (0, 0), ops_non_commuting)


def test_tor_examples():
    M0 = RbkModule(2, 0, (0,), (0,))
    N0 = RbkModule(2, 0, (0,), (1,))
    R0 = RbkModule(2, 0, (0, b_degree(2, 0)), (0b10, 0b10))
    # Tor_0(M_0, M_0) has rank 1; Tor_0(N_0, M_0) dies since b acts invertibly
    assert tor(M0, "M", 0).rank == 1
    assert tor(N0, "M", 0).rank == 0
    assert tor(N0, "N", 0).rank == 1
    assert tor(M0, "N", 0).rank == 0
    for i in range(1, 5):
        for P in (M0, N0, R0):
            assert tor(P, "M", i).rank == 0
            assert tor(P, "N", i).rank == 0
    with pytest.raises(ValidationError, match="^homological index must be nonnegative: -1$"):
        tor(M0, "M", -1)
    with pytest.raises(ValidationError):
        tor(M0, "R", 0)


def random_idempotent(rnd: random.Random, rank: int) -> tuple[int, ...]:
    """U D U^{-1} for random invertible U and random 0/1 diagonal D."""
    while True:
        cols = tuple(rnd.randrange(1 << rank) for _ in range(rank))
        inv = gf2.invert_columns(cols, rank)
        if inv is not None:
            break
    diag = [rnd.randint(0, 1) for _ in range(rank)]
    scaled = [cols[i] if diag[i] else 0 for i in range(rank)]
    return tuple(gf2.apply_columns(scaled, inv[j]) for j in range(rank))


def random_module(rnd: random.Random, n: int = 2, k: int = 0) -> RbkModule:
    rank = rnd.randint(1, 4)
    degrees = tuple(v_degree(n) * rnd.randint(0, 2) for _ in range(rank))
    return RbkModule(n, k, degrees, random_idempotent(rnd, rank))


def test_flatness_randomized(rng):
    for _ in range(60):
        P = random_module(rng)
        for i in range(1, 5):
            assert tor(P, "M", i).rank == 0, P
            assert tor(P, "N", i).rank == 0, P


def test_tor0_matches_dense_recomputation(rng):
    for _ in range(60):
        P = random_module(rng)
        rank = P.rank
        identity = [1 << i for i in range(rank)]
        b_cols = list(P.operator)
        bv_cols = [b_cols[i] ^ identity[i] for i in range(rank)]
        assert tor(P, "M", 0).rank == dense_cokernel_rank(b_cols, rank)
        assert tor(P, "N", 0).rank == dense_cokernel_rank(bv_cols, rank)


def test_periodicity_structurally(rng):
    for _ in range(20):
        P = random_module(rng)
        for i in (1, 2):
            for against in ("M", "N"):
                a = tor(P, against, i)
                b = tor(P, against, i + 2)
                assert a.degree_classes == b.degree_classes


def random_tensor(rnd: random.Random, n: int = 2, K: int = 4) -> TensorModule:
    """Commuting idempotents via a shared conjugating matrix."""
    rank = rnd.randint(1, 4)
    while True:
        cols = tuple(rnd.randrange(1 << rank) for _ in range(rank))
        inv = gf2.invert_columns(cols, rank)
        if inv is not None:
            break
    ops = []
    for _ in range(K):
        diag = [rnd.randint(0, 1) for _ in range(rank)]
        scaled = [cols[i] if diag[i] else 0 for i in range(rank)]
        ops.append(tuple(gf2.apply_columns(scaled, inv[j]) for j in range(rank)))
    degrees = tuple(v_degree(n) * rnd.randint(0, 2) for _ in range(rank))
    return TensorModule(n, K, degrees, tuple(ops))


def test_bar_page_concentrated_in_degree_zero(rng):
    for _ in range(25):
        P = random_tensor(rng)
        hom = AlgebraHom.universal(P.n, P.truncation)
        page = bar_e2(P, hom, max_degree=3)
        for entry in page[1:]:
            assert entry.rank == 0
        assert page[0].degree_classes == khorami_quotient(P).degree_classes


def test_khorami_examples():
    for n in (1, 2, 3):
        assert khorami_quotient(TensorModule(n, 6, (0,), ((0,),) * 6)).rank == 0
    # B_0 = v: the stacked map vanishes on the first factor
    P = TensorModule(2, 6, (0,), ((1,),) + ((0,),) * 5)
    assert khorami_quotient(P).rank == 1
    Rfree = TensorModule.from_single(RbkModule(2, 0, (0, b_degree(2, 0)), (0b10, 0b10)))
    assert khorami_quotient(Rfree).rank == 1
    page = bar_e2(Rfree, AlgebraHom.universal(2, 6))
    assert [e.rank for e in page] == [1, 0, 0, 0, 0]


def test_bar_page_augmentation_module():
    # every operator zero: the quotient forces the unit to die
    P = parse_module(FIXTURES / "point.module")
    page = bar_e2(P, AlgebraHom.universal(2, 6))
    assert page[0].rank == 0


def test_bar_page_hom_mismatch():
    P = TensorModule(2, 4, (0,), ((0,),) * 4)
    with pytest.raises(ValidationError):
        bar_e2(P, AlgebraHom.universal(2, 6))
    with pytest.raises(ValidationError):
        bar_e2(P, AlgebraHom.universal(3, 4))


def test_nonuniversal_hom_changes_the_answer():
    # against the identity-augmentation hom (all b_k -> 0) the free module
    # has nonvanishing Tor_0 of rank 1 as well, but N_0 vs M_0 matters for
    # modules where b_0 acts invertibly
    P = TensorModule(2, 3, (0,), ((1,), (0,), (0,)))  # b_0 acts as v
    universal = AlgebraHom.universal(2, 3)
    augmentation = AlgebraHom(2, 3, frozenset())
    assert bar_e2(P, universal)[0].rank == 1
    assert bar_e2(P, augmentation)[0].rank == 0


def test_graded_module_normalizes_degrees():
    m = GradedKnModule(2, (0, 6, 13))
    assert m.degree_classes == (0, 0, 1)


def all_idempotents(rank: int) -> list[tuple[int, ...]]:
    out = []
    for cols in itertools.product(range(1 << rank), repeat=rank):
        if gf2.compose_columns(cols, cols) == list(cols):
            out.append(tuple(cols))
    return out


def test_khorami_agrees_with_bar_page_exhaustively():
    """Every commuting pair of idempotent 2x2 operators: the stacked
    cokernel and the bar-page degree-0 entry agree, and the higher
    entries vanish."""
    idems = all_idempotents(2)
    assert len(idems) == 8  # 0, I, and six rank-1 projections
    pairs = 0
    for B0, B1 in itertools.product(idems, repeat=2):
        if gf2.compose_columns(B0, B1) != gf2.compose_columns(B1, B0):
            continue
        P = TensorModule(2, 2, (0, 0), (B0, B1))
        hom = AlgebraHom.universal(2, 2)
        page = bar_e2(P, hom, max_degree=3)
        assert page[0].degree_classes == khorami_quotient(P).degree_classes
        assert all(entry.rank == 0 for entry in page[1:])
        pairs += 1
    assert pairs >= 40


def test_non_commuting_pair_named_among_repeats(rng):
    """Zero and repeated operators are skipped by the commutation check;
    the error still names the first failing pair by index, as a check of
    every pair in order does."""
    zero, ident = (0, 0), (0b01, 0b10)
    A, B = (0b01, 0), (0b01, 0b01)  # idempotents with AB != BA
    ops = (zero, ident, A, zero, A, ident, B, A, B, zero)
    with pytest.raises(ValidationError) as exc:
        TensorModule(2, len(ops), (0, 0), ops)
    assert str(exc.value) == "operators 2 and 6 do not commute"

    def first_failing_pair(ops):
        for a, b in itertools.combinations(range(len(ops)), 2):
            if gf2.compose_columns(ops[a], ops[b]) != gf2.compose_columns(ops[b], ops[a]):
                return f"operators {a} and {b} do not commute"
        return None

    for _ in range(60):
        ops = tuple(rng.choice([zero, ident, A, B]) for _ in range(rng.randint(2, 9)))
        expected = first_failing_pair(ops)
        if expected is None:
            assert TensorModule(2, len(ops), (0, 0), ops).operators == ops
            continue
        with pytest.raises(ValidationError) as exc:
            TensorModule(2, len(ops), (0, 0), ops)
        assert str(exc.value) == expected


def test_each_distinct_operator_checked_once(monkeypatch):
    """A repeated operator is checked once, and a failing one is named
    by its first copy."""
    zero, swap, A = (0, 0), (0b10, 0b01), (0b01, 0)  # the swap is not idempotent
    with pytest.raises(ValidationError) as exc:
        TensorModule(2, 3, (0, 0), (zero, swap, swap))
    assert str(exc.value) == ("factor 1: defining relation fails, "
                              "B^2 != v^(2^k) B in normalized form")

    calls = []
    check = rbk._check_operator
    monkeypatch.setattr(rbk, "_check_operator",
                        lambda cols, *args: calls.append(cols) or check(cols, *args))
    ops = (zero, A, A, zero, A)
    assert TensorModule(2, len(ops), (0, 0), ops).operators == ops
    assert calls == [zero, A]


def classed_tensor(rnd: random.Random, n: int, rank: int, K: int) -> TensorModule:
    """Commuting idempotents U D_k U^{-1} whose generators lie in several
    classes mod |v|: U is invertible and block diagonal over the classes,
    so no operator entry mixes two classes."""
    w = v_degree(n)
    degrees = tuple(rnd.choice((0, w // 2, w, w + 1)) for _ in range(rank))
    same = [sum(1 << i for i in range(rank) if (degrees[i] - degrees[j]) % w == 0)
            for j in range(rank)]
    while True:
        cols = tuple(rnd.randrange(1 << rank) & same[j] for j in range(rank))
        inv = gf2.invert_columns(cols, rank)
        if inv is not None:
            break
    ops = []
    for _ in range(K):
        scaled = [col if rnd.randint(0, 1) else 0 for col in cols]
        ops.append(tuple(gf2.apply_columns(scaled, inv[j]) for j in range(rank)))
    return TensorModule(n, K, degrees, tuple(ops))


def reference_bar_ranks(P: TensorModule, hom: AlgebraHom, max_degree: int) -> list[int]:
    """Homology dimensions of the tensored periodic resolutions, built on
    tuple multi-indices and ranked by dense elimination.  Along factor k
    the map from alpha to alpha - e_k is B_k where the resolution of the
    cyclic quotient has b (M_k at odd alpha_k, N_k at even) and B_k + 1
    elsewhere; d^2 = 0 is checked, not assumed."""
    K, r = P.truncation, P.rank
    layers = [sorted(alpha for alpha in itertools.product(range(m + 1), repeat=K)
                     if sum(alpha) == m) for m in range(max_degree + 2)]

    def entry(k: int, a_k: int) -> list[int]:
        b = list(P.operators[k])
        plain = (a_k % 2 == 1) == (hom.assignment(k) is None)
        return b if plain else [col ^ 1 << i for i, col in enumerate(b)]

    def boundary(m: int) -> list[int]:
        position = {alpha: i for i, alpha in enumerate(layers[m - 1])}
        cols = []
        for alpha in layers[m]:
            block = [0] * r
            for k in range(K):
                if alpha[k]:
                    beta = list(alpha)
                    beta[k] -= 1
                    at = position[tuple(beta)] * r
                    block = [x ^ col << at for x, col in zip(block, entry(k, alpha[k]))]
            cols.extend(block)
        return cols

    d = [[0] * r] + [boundary(m) for m in range(1, max_degree + 2)]
    for m in range(1, max_degree + 1):
        assert gf2.compose_columns(d[m], d[m + 1]) == [0] * len(d[m + 1])
    ranks = [dense_rank_mod2(cols, len(layers[m - 1]) * r) if m else 0
             for m, cols in enumerate(d)]
    return [len(layers[m]) * r - ranks[m] - ranks[m + 1] for m in range(max_degree + 1)]


@SETTINGS
@given(seed=st.integers(0, 2**32), rank=st.integers(1, 4),
       K=st.integers(1, 6), max_degree=st.integers(0, 4),
       kind=st.sampled_from(["universal", "augmentation", "mixed"]))
def test_bar_page_matches_reference_multicomplex(seed, rank, K, max_degree, kind):
    rnd = random.Random(seed)
    P = classed_tensor(rnd, 2, rank, K)
    active = {"universal": {0}, "augmentation": set(),
              "mixed": {k for k in range(K) if rnd.randint(0, 1)}}[kind]
    hom = AlgebraHom(2, K, frozenset(active))
    page = bar_e2(P, hom, max_degree)
    assert [entry.rank for entry in page] == reference_bar_ranks(P, hom, max_degree)
    if kind == "universal":
        assert page[0].degree_classes == khorami_quotient(P).degree_classes


def test_bar_page_builds_at_most_one_kernel(monkeypatch):
    """Homology dimensions come from coboundary ranks: only a degree with
    nonzero homology (here degree 0) reduces a kernel for representatives."""
    ops = ((0b0001, 0b0010, 0, 0), (0, 0b0010, 0b0100, 0)) + ((0, 0, 0, 0),) * 4
    P = TensorModule(2, 6, (0, 0, 6, 6), ops)
    calls = []
    kernel_basis = gf2.kernel_basis
    monkeypatch.setattr(gf2, "kernel_basis",
                        lambda *args: calls.append(args) or kernel_basis(*args))
    page = bar_e2(P, AlgebraHom.universal(2, 6), max_degree=4)
    assert [entry.rank for entry in page] == [1, 0, 0, 0, 0]
    assert len(calls) <= 1


def test_bar_page_ranks_only_columns_that_can_be_pivots(monkeypatch):
    """Clearing: a pivot of one coboundary's elimination names a column
    of the next that is never built, so on a module with no homology
    every vector handed to the elimination is a pivot.  Ranking every
    column of d_1 .. d_5 would hand it 24 + 84 + 224 + 504 + 1008."""
    ops = ((0, 0, 0, 0), (0b0001, 0b0010, 0, 0), (0, 0b0010, 0b0100, 0)) + ((0, 0, 0, 0),) * 3
    P = TensorModule(2, 6, (0, 0, 6, 6), ops)
    handed = []
    pivots = gf2.pivots

    def recording(rows):
        handed.append(list(rows))
        return pivots(handed[-1])

    monkeypatch.setattr(gf2, "pivots", recording)
    page = bar_e2(P, AlgebraHom.universal(2, 6), max_degree=4)
    assert all(entry.rank == 0 for entry in page)
    assert [len(rows) for rows in handed] == [4, 20, 64, 160, 344]
    assert all(pivots(rows).bit_count() == len(rows) for rows in handed)


def class_blocks(P: TensorModule) -> dict[int, TensorModule]:
    """P split over its generator classes mod |v|: no operator entry
    mixes two classes, so each class spans a submodule."""
    w = v_degree(P.n)
    blocks = {}
    for c in sorted({d % w for d in P.degrees}):
        idx = [i for i, d in enumerate(P.degrees) if d % w == c]
        ops = tuple(tuple(sum((cols[i] >> a & 1) << b for b, a in enumerate(idx)) for i in idx)
                    for cols in P.operators)
        blocks[c] = TensorModule(P.n, P.truncation, tuple(P.degrees[i] for i in idx), ops)
    return blocks


@SETTINGS
@given(seed=st.integers(0, 2**32), rank=st.integers(1, 4),
       K=st.integers(1, 6), max_degree=st.integers(0, 4),
       kind=st.sampled_from(["universal", "augmentation", "mixed"]))
def test_bar_page_classes_match_reference_per_class_block(seed, rank, K, max_degree, kind):
    """The degree classes of every entry, read from the dual complex,
    are those of the homology: each class block of the multicomplex,
    ranked on its own by the reference, contributes its dimension."""
    rnd = random.Random(seed)
    P = classed_tensor(rnd, 2, rank, K)
    active = {"universal": {0}, "augmentation": set(),
              "mixed": {k for k in range(K) if rnd.randint(0, 1)}}[kind]
    hom = AlgebraHom(2, K, frozenset(active))
    expected = [() for _ in range(max_degree + 1)]
    for c, block in class_blocks(P).items():
        for m, dim in enumerate(reference_bar_ranks(block, hom, max_degree)):
            expected[m] += (c,) * dim
    assert [entry.degree_classes for entry in bar_e2(P, hom, max_degree)] == expected
