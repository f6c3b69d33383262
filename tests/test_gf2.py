import random

from hypothesis import given, strategies as st

from moravak import gf2

from conftest import SEED
from oracles import dense_rank_mod2
from test_input_files import SETTINGS


def to_cols(rows):
    """Row-of-lists matrix to column bitmasks."""
    r, c = len(rows), len(rows[0])
    return [sum((rows[i][j] & 1) << i for i in range(r)) for j in range(c)]


def test_reduce_rows_and_pivots():
    reduced = gf2.reduce_rows([0b110, 0b011, 0b101])
    assert len(reduced) == 2
    # fully reduced: each pivot appears in exactly one row
    pivots = {row.bit_length() - 1 for row in reduced}
    for row in reduced:
        assert sum(1 for p in pivots if (row >> p) & 1) == 1


def test_in_span():
    basis = gf2.reduce_rows([0b101, 0b011])
    assert gf2.in_span(0b110, basis)
    assert gf2.in_span(0, basis)
    assert not gf2.in_span(0b001, basis)


def test_kernel_basis():
    # map e0 -> a, e1 -> a, e2 -> 0: kernel is span(e0+e1, e2)
    kernel = gf2.kernel_basis([0b1, 0b1, 0b0], 3)
    assert len(kernel) == 2
    assert gf2.in_span(0b011, kernel) and gf2.in_span(0b100, kernel)
    assert not gf2.in_span(0b001, kernel)


def test_invert_roundtrip():
    rnd = random.Random(SEED)
    for _ in range(50):
        dim = rnd.randint(1, 6)
        cols = [rnd.randrange(1 << dim) for _ in range(dim)]
        inv = gf2.invert_columns(cols, dim)
        if inv is None:
            assert gf2.kernel_basis(cols, dim)
        else:
            for i in range(dim):
                assert gf2.apply_columns(cols, inv[i]) == 1 << i


def test_homology():
    # zero out-map: the whole space modulo span(e0 + e1)
    reps = gf2.homology([0, 0, 0], 3, [0b011])
    assert len(reps) == 2
    # representatives avoid the eliminated pivot of the image row
    assert all(not (rep >> 1) & 1 for rep in reps)


def test_homology_dimension(rng):
    for _ in range(40):
        rows, dim = rng.randint(1, 7), rng.randint(1, 7)
        out = [rng.randrange(1 << rows) for _ in range(dim)]
        kernel = gf2.kernel_basis(out, dim)
        incoming = [gf2.apply_columns(kernel, rng.randrange(1 << len(kernel)))
                    for _ in range(rng.randint(0, 4))]
        reps = gf2.homology(out, dim, incoming)
        image = gf2.reduce_rows(incoming)
        assert len(reps) == len(kernel) - len(image)
        assert all(gf2.apply_columns(out, rep) == 0 for rep in reps)
        assert len(gf2.reduce_rows(reps + image)) == len(kernel)


def test_compose_columns():
    swap = [0b10, 0b01]
    assert gf2.compose_columns(swap, swap) == [0b01, 0b10]
    proj = [0b01, 0b01]
    assert gf2.compose_columns(proj, proj) == list(proj)


def test_kernel_image_dimensions_match(rng):
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        matrix = [rng.randrange(1 << rows) for _ in range(cols)]
        k = len(gf2.kernel_basis(matrix, cols))
        r = len(gf2.reduce_rows(matrix))
        assert k + r == cols


# The scan-and-back-substitute kernel that the pivot index replaced, kept
# as the reference: every reduced row is scanned for each vector, and
# each new row is substituted back into all older ones at once.

def reference_reduce_vector(vec, reduced):
    for b in reduced:
        if vec and (vec >> (b.bit_length() - 1)) & 1:
            vec ^= b
    return vec


def reference_reduce_rows(rows):
    basis = []
    for row in rows:
        row = reference_reduce_vector(row, basis)
        if row:
            pivot = row.bit_length() - 1
            basis = [b ^ row if (b >> pivot) & 1 else b for b in basis]
            basis.append(row)
    basis.sort(key=int.bit_length, reverse=True)
    return basis


def random_rows(rng, width):
    """Rows of the given width: sparse, dense, dependent (sums of a few
    generators) or augmented (image << dim | tag) like kernel_basis."""
    count = rng.randint(1, min(2 * width, 120))
    shape = rng.choice(["dense", "sparse", "dependent", "augmented"])
    if shape == "dense":
        return [rng.getrandbits(width) for _ in range(count)]
    if shape == "sparse":
        return [sum(1 << rng.randrange(width) for _ in range(rng.randint(0, 3)))
                for _ in range(count)]
    if shape == "dependent":
        gens = [rng.getrandbits(width) for _ in range(rng.randint(1, max(1, count // 3)))]
        return [_xor(g for g in gens if rng.random() < 0.5) for _ in range(count)]
    dim = max(1, width // 2)
    return [(rng.getrandbits(width - dim) << dim) | 1 << j for j in range(dim)]


def _xor(values):
    out = 0
    for v in values:
        out ^= v
    return out


def test_pivot_index_matches_reference_kernel(rng):
    for width in (3, 64, 200, 2000):
        for _ in range(12 if width == 2000 else 40):
            rows = random_rows(rng, width)
            expected = reference_reduce_rows(rows)
            shuffled = list(rows)
            rng.shuffle(shuffled)
            reduced = gf2.reduce_rows(shuffled)
            assert reduced == expected
            assert gf2.reduce_rows(reversed(rows)) == expected
            for _ in range(8):
                vec = rng.getrandbits(width)
                if rng.random() < 0.5 and rows:
                    vec = _xor(r for r in rows if rng.random() < 0.5)
                want = reference_reduce_vector(vec, expected)
                assert gf2.reduce_vector(vec, reduced) == want
                assert gf2.in_span(vec, reduced) == (want == 0)


def test_kernel_basis_list_in_span(rng):
    for width in (3, 64, 200):
        for _ in range(10):
            dim = rng.randint(1, width)
            cols = [rng.getrandbits(rng.randint(1, width)) for _ in range(dim)]
            kernel = gf2.kernel_basis(cols, dim)
            for _ in range(6):
                member = _xor(k for k in kernel if rng.random() < 0.5)
                assert gf2.apply_columns(cols, member) == 0
                assert gf2.in_span(member, kernel)
                vec = rng.getrandbits(dim)
                assert gf2.in_span(vec, kernel) == (gf2.apply_columns(cols, vec) == 0)


@SETTINGS
@given(data=st.data(), width=st.integers(0, 12))
def test_rank_is_the_size_of_the_reduced_rows(data, width):
    rows = data.draw(st.lists(st.one_of(st.just(0), st.integers(0, (1 << width) - 1)),
                              max_size=14))
    if rows:  # duplicates, anywhere
        rows = data.draw(st.permutations(
            rows + data.draw(st.lists(st.sampled_from(rows), max_size=4))))
    assert gf2.pivots(iter(rows)).bit_count() == len(gf2.reduce_rows(rows)) == \
        dense_rank_mod2(rows, width)
    assert gf2.pivots(rows) == gf2.reduce_rows(rows).mask
