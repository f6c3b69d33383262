"""Metamorphic AHSS checks: relations between two runs that hold
whatever the right ranks are, so no code of the engine is re-implemented
to predict them.

Relabeling: renaming the generators by a permutation of their names
changes the name order, and with it the window walk, the monomial
order, the bases and the pivots of every elimination.  The algebra, its
Sq action and the twist are the same up to that isomorphism, so every
E2 and E_{2^{n+1}} rank and every ``edge-incomplete`` flag must stay.

Euler characteristic: the differential moves a class by 2^{n+1} - 1
columns, an odd number, so on a closed window, where no column is
edge-incomplete, each rank it has cancels between two columns of
opposite sign and the sum over p of (-1)^p rank is the same on E2 and
E_{2^{n+1}}.  It cannot see a wrong differential, only a wrong
``turn_page``.

Kunneth: Q_n is a derivation, so on X x Y with a twist pulled back from
X the first differential is d_X (x) 1 + 1 (x) d_Y, and over F2 the
homology of a tensor product of complexes is the tensor product of
their homologies.  So the E_{2^{n+1}} ranks of the product are the
convolution of the factors' ranks.

Certificates: a zero shadow is upgraded to a vanishing certificate only
through the declared integral image.  Shrinking that image to a closed
sub-span can turn ``yes`` into ``unknown``, but never ``unknown`` or
``no`` into ``yes``, and never changes a ``no``; relabeling keeps each
column's multiset of verdicts.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from moravak import fixtures
from moravak.ahss import e2_page, first_differential, turn_page
from moravak.cli import _twist_from_arg, main
from moravak.errors import MoravakError
from moravak.f2alg import GradedElement
from moravak.spacefile import parse_file

from test_input_files import SETTINGS, spaces, text_file

NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def renamed(text: str, names: dict[str, str]) -> str:
    """text with every whole name in names replaced by its image."""
    return NAME.sub(lambda match: names.get(match[0], match[0]), text)


def pages(path: Path, n: int, twist: str) -> int | dict:
    """The ranks of each page of ``ahss --json``, or the exit code of a
    run that ends in a typed error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["ahss", "--space", str(path), "--n", str(n), "--twist", twist, "--json"])
    if code:
        return code
    payload = json.loads(out.getvalue())["payload"]
    return {page["label"]: page["ranks"] for page in payload.values() if isinstance(page, dict)}


def assert_relabeling_keeps_ranks(text: str, data) -> None:
    """Run the space of text and its renamed copy at n = 1 and 2, with
    twist 0 and with a nonzero twist where degree n + 2 has a class.  A
    file that does not load is skipped."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "space.space"
        path.write_text(text)
        try:
            model = parse_file(path).model
        except MoravakError:
            return
        algebra = getattr(model, "space", model).algebra
        names = [g.name for g in algebra.generators]
        permutation = dict(zip(names, data.draw(st.permutations(names), label="names")))
        relabeled = Path(tmp) / "relabeled.space"
        relabeled.write_text(renamed(text, permutation))
        for n in (1, 2):
            twists = ["0"]
            if n + 2 <= algebra.degree_cap and (basis := algebra.basis(n + 2)):
                terms = data.draw(st.sets(st.sampled_from(basis), min_size=1, max_size=3))
                twists.append(str(GradedElement(frozenset(terms))))
            for twist in twists:
                assert pages(path, n, twist) == \
                    pages(relabeled, n, renamed(twist, permutation)), (n, twist, permutation)


@settings(SETTINGS, max_examples=150)
@given(spaces().filter(lambda sections: len(sections["generators"]) > 1), st.data())
def test_relabeling_keeps_every_rank(sections, data):
    """Spaces with two or more generators, whose order a renaming can
    change."""
    assert_relabeling_keeps_ranks(text_file(sections, []), data)


@pytest.mark.parametrize("fixture", ["rp6", "trunc_mix", "synth12"])
@settings(SETTINGS, max_examples=8)
@given(data=st.data())
def test_relabeling_keeps_every_fixture_rank(fixture, data):
    assert_relabeling_keeps_ranks(fixtures.path(fixture, ".space").read_text(), data)


def euler_characteristics(space, n: int, twist: GradedElement) -> tuple[int, int]:
    """Sum of (-1)^p rank over the columns of E2 and of E_{2^{n+1}}."""
    e2 = e2_page(space, n)
    turned = turn_page(first_differential(e2, space, twist))
    assert not turned.incomplete
    return tuple(sum((-1) ** p * page.rank(p) for p in page.window) for page in (e2, turned))


@pytest.mark.parametrize("fixture, n, twist", [
    ("rp6", 1, "0"), ("rp6", 1, "fundamental"), ("rp6", 2, "0"), ("rp6", 2, "fundamental"),
    ("s3", 1, "0"), ("s3", 1, "fundamental"), ("s3", 2, "0")])
def test_turning_keeps_the_euler_characteristic_of_a_fixture(fixture, n, twist):
    space = parse_file(fixtures.path(fixture, ".space")).model
    e2, turned = euler_characteristics(space, n, _twist_from_arg(space, n, twist))
    assert e2 == turned


@settings(SETTINGS, max_examples=100)
@given(a=st.integers(1, 2), e=st.integers(2, 9), b=st.integers(1, 4),
       spare=st.integers(1, 2), n=st.integers(1, 3), data=st.data())
def test_turning_keeps_the_euler_characteristic(a, e, b, spare, n, data):
    """F2[x]/(x^e) with |x| = a, tensor an exterior y with |y| = b: a
    closed window from its top degree a(e - 1) + b to a cap above it.
    The twist is 0 and, where degree n + 2 has classes, a drawn nonzero
    class; a run that ends in a typed error (a twist that reduces from no
    integral class) is skipped."""
    top = a * (e - 1) + b
    text = (f"[generators]\nx {a} polynomial\ny {b} exterior\n[relations]\nx^{e}\n"
            f"[metadata]\ncap {top + spare}\ntopdegree {top}\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "product.space"
        path.write_text(text)
        space = parse_file(path).model
    twists = [GradedElement(frozenset())]
    if n + 2 <= top + spare and (basis := space.algebra.basis(n + 2)):
        twists.append(GradedElement(frozenset(data.draw(
            st.sets(st.sampled_from(basis), min_size=1, max_size=3)))))
    for twist in twists:
        try:
            e2, turned = euler_characteristics(space, n, twist)
        except MoravakError:
            continue
        assert e2 == turned, twist


def projective(names: str, tops: tuple[int, ...]) -> str:
    """The product of the RP^top, one degree-1 generator each, as a closed
    window: the sum of the tops is its top degree, the cap one above."""
    gens = "".join(f"{x} 1 polynomial\n" for x in names)
    rels = "".join(f"{x}^{top + 1}\n" for x, top in zip(names, tops))
    return (f"[generators]\n{gens}[relations]\n{rels}"
            f"[metadata]\ncap {sum(tops) + 1}\ntopdegree {sum(tops)}\n")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("a, b", [(3, 2), (5, 4), (7, 3), (6, 6), (9, 5)])
def test_product_ranks_are_the_convolution_of_the_factors(a, b, n, tmp_path):
    """E_{2^{n+1}} ranks of RP^a x RP^b against those of RP^a and RP^b,
    untwisted and with the twist x^{n+2} of RP^a where it is nonzero."""
    label = f"E{2 ** (n + 1)}"
    files = {}
    for names, tops in (("x", (a,)), ("y", (b,)), ("xy", (a, b))):
        files[names] = tmp_path / f"{names}.space"
        files[names].write_text(projective(names, tops))
    right = pages(files["y"], n, "0")[label]
    for twist in ["0"] + ([f"x^{n + 2}"] if n + 2 <= a else []):
        left = pages(files["x"], n, twist)[label]
        product = pages(files["xy"], n, twist)[label]
        convolution = {f"p={p:02d}": sum(left.get(f"p={i:02d}", 0) * right.get(f"p={p - i:02d}", 0)
                                         for i in range(p + 1))
                       for p in range(a + b + 2)}
        assert product == convolution, twist


INTEGRAL_FIXTURES = ["fb12", "m10", "pair12", "rp6", "synth12", "trunc_mix"]
# (full image, shrunk image): a verdict may only lose its yes
SHRINKS = {("yes", "yes"), ("yes", "unknown"), ("unknown", "unknown"), ("no", "no")}
LOSES_A_YES = {("m10", 1), ("m10", 2), ("rp6", 1), ("trunc_mix", 1)}


def certificates(path: Path, n: int, twist: str) -> int | dict:
    """The certificates of ``ahss --integral --json``, or the exit code of
    a run that ends in a typed error."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["ahss", "--space", str(path), "--n", str(n), "--twist", twist, "--integral", "--json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code or json.loads(out.getvalue())["payload"]["certificates"]


def with_integral(text: str, rows: list[str]) -> str:
    """text with the rows of its [integral] section replaced by rows."""
    out, inside = [], False
    for line in text.splitlines():
        if line.startswith("["):
            inside = line.strip() == "[integral]"
            out += [line, *rows] if inside else [line]
        elif not inside or not line.strip() or line.lstrip().startswith("#"):
            out.append(line)
    return "\n".join(out) + "\n"


def closed_sub_spans(text: str, algebra) -> list[list[str]]:
    """Rows of closed sub-spans of the declared integral image: the unit
    alone (an empty section would declare no image at all), and for each
    declared row x the powers of x and of x^2.  The image is closed under
    products, so each power lies in it."""
    section = text.split("[integral]", 1)[1].split("\n[", 1)[0]
    spans = [["0 1"]]
    for line in section.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        degree, expr = line.split(None, 1)
        x = algebra.element(expr)
        for base, step in ((x, int(degree)), (algebra.mul(x, x), 2 * int(degree))):
            rows, power, d = [], base, step
            while power and d <= algebra.degree_cap:
                rows.append(f"{d} {power}")
                power, d = algebra.mul(power, base), d + step
            if rows and rows not in spans:
                spans.append(rows)
    return spans


def fixture_algebra(path: Path):
    model = parse_file(path).model
    return getattr(model, "space", model).algebra


def fixture_twists(algebra, n: int) -> list[str]:
    """0 and each basis class of degree n + 2."""
    if n + 2 > algebra.degree_cap:
        return ["0"]
    return ["0"] + [str(e) for e in algebra.basis_elements(n + 2)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("fixture", INTEGRAL_FIXTURES)
def test_shrinking_the_integral_image_never_upgrades_a_verdict(fixture, n, tmp_path):
    """Every declared image against each of its closed sub-spans, with the
    twist 0 and each basis class of degree n + 2.  Some yes turns into
    unknown exactly on the fixtures of LOSES_A_YES, so the relation is
    not met by leaving every verdict as it was."""
    full = fixtures.path(fixture, ".space")
    text, algebra = full.read_text(), fixture_algebra(full)
    shrunk = tmp_path / "shrunk.space"
    lost = 0
    for rows in closed_sub_spans(text, algebra):
        shrunk.write_text(with_integral(text, rows))
        for twist in fixture_twists(algebra, n):
            was, now = certificates(full, n, twist), certificates(shrunk, n, twist)
            if isinstance(was, int):
                assert now == was, (rows, twist)
                continue
            assert now.keys() == was.keys(), (rows, twist)
            for p, row in was.items():
                assert len(now[p]) == len(row) and set(zip(row, now[p])) <= SHRINKS, \
                    (rows, twist, p)
                lost += sum(a != b for a, b in zip(row, now[p]))
    assert bool(lost) == ((fixture, n) in LOSES_A_YES)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("fixture", INTEGRAL_FIXTURES)
def test_relabeling_keeps_each_columns_verdicts(fixture, n, tmp_path):
    """The generators renamed by reversing and by rotating their names."""
    path = fixtures.path(fixture, ".space")
    text, algebra = path.read_text(), fixture_algebra(path)
    names = [g.name for g in algebra.generators]
    relabeled = tmp_path / "relabeled.space"
    for image in (names[::-1], names[1:] + names[:1]):
        permutation = dict(zip(names, image))
        relabeled.write_text(renamed(text, permutation))
        for twist in fixture_twists(algebra, n):
            was = certificates(path, n, twist)
            now = certificates(relabeled, n, renamed(twist, permutation))
            if isinstance(was, int):
                assert now == was, (permutation, twist)
            else:
                assert {p: sorted(row) for p, row in now.items()} == \
                    {p: sorted(row) for p, row in was.items()}, (permutation, twist)
