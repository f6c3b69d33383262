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
