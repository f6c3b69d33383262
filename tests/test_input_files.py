"""Generated space and module files, fed to the command line in-process.

Every file, well-formed or not, must end in a report (exit 0) or a typed
error (exit 2, 3, 4 or 5) within a time bound; any other exception fails
the test.  Files are drawn from small pieces -- a handful of generators,
degree caps of at most 12, modules of rank at most 4 -- mixed with bad
tokens (one of them a 30-digit number), wrong JSON shapes and stray
lines, so the examples stay fast and reach both the reports and the
error paths.
"""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from moravak.cli import main

TYPED_EXITS = {0, 2, 3, 4, 5}
SECONDS = 2.0

NAMES = ["a", "b", "x", "y3"]
BAD_TOKENS = ["", "x", "two", "1.5", "-", "[", "]", "{", "1e3", "+", "0x1", "9" * 30]
# the last two are unknown kinds
KINDS = ["polynomial", "exterior", "ext", "laurent-unit", "bogus"]
STRAY_LINES = ["[nonsense]", "stray text", "[generators]", "[operator]", "[module]",
               "{", "w", "cap"]

SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


def rarely(bad, good, odds: int = 8):
    """good, with bad drawn about one time in odds (hypothesis favours the
    ends of an integer range, so bad sits in the middle)."""
    return st.integers(1, odds).flatmap(lambda r: bad if r == odds // 2 else good)


def small_int(lo: int, hi: int):
    return st.integers(lo, hi).map(str)


def token(lo: int, hi: int):
    """Mostly an integer in [lo, hi], sometimes a bad token."""
    return rarely(st.sampled_from(BAD_TOKENS), small_int(lo, hi), odds=24)


def expressions(names: list[str]):
    """Sums of monomials in the names, sometimes malformed or in an
    undeclared generator q."""
    factor = rarely(st.just("q"), st.sampled_from(names), 24) if names else st.just("1")
    monomial = st.lists(st.tuples(factor, st.integers(1, 3)), min_size=1, max_size=2).map(
        lambda factors: "*".join(n if e == 1 else f"{n}^{e}" for n, e in factors))
    return rarely(st.sampled_from(["0", "a +", "*", "a^-1", "a^"]),
                  st.lists(monomial, min_size=1, max_size=3).map(" + ".join), 24)


stray_lines = rarely(st.lists(st.tuples(st.integers(0, 20), st.sampled_from(STRAY_LINES)),
                              min_size=1, max_size=1), st.just([]))


@st.composite
def spaces(draw):
    """Section name -> rows of a space file; the cap is at most 12 unless
    its token is a bad one."""
    names = draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True))
    kinds = rarely(st.sampled_from(KINDS), st.sampled_from(KINDS[:2]), 24)
    gens = [(name, draw(token(1, 6)), draw(kinds)) for name in names]
    expr = expressions(names)
    sections = {
        "generators": [" ".join(row) for row in gens],
        "relations": draw(rarely(st.lists(expr, min_size=1, max_size=2), st.just([]))),
        "sq": [f"{g} {i} {e}" for g, i, e in draw(rarely(st.lists(
            st.tuples(st.sampled_from(NAMES), token(-1, 6), expr), max_size=3),
            st.just([])))],
        "integral": [f"{d} {e}" for d, e in draw(st.lists(
            st.tuples(token(0, 8), expr), max_size=2))],
        "metadata": draw(st.lists(st.one_of(
            token(0, 12).map("topdegree {}".format),
            token(0, 12).map("dimension {}".format),
            rarely(st.sampled_from(["bogus 1", "index a 2", "flags"]),
                   st.sampled_from(["flags oriented spin", "pairing 0", "torsion a",
                                    "index a 1", "lambda a"])),
            st.tuples(token(1, 6), expr).map(lambda t: f"w {t[0]} {t[1]}"),
        ), max_size=3)) + [draw(token(0, 12).map("cap {}".format))],
    }
    if draw(st.integers(0, 3)) == 2:
        sections["boundary-generators"] = ["d 3 exterior"]
        sections["restriction"] = [f"{g} {draw(expr)}" for g, _, _ in gens]
    return sections


def text_file(sections: dict, stray: list[tuple[int, str]]) -> str:
    lines = []
    for name, rows in sections.items():
        lines.append(f"[{name}]")
        lines.extend(rows)
    for position, line in stray:
        lines.insert(min(position, len(lines)), line)
    return "\n".join(lines) + "\n"


def json_file(sections: dict, wrong: tuple[str, object] | None) -> str:
    """The JSON form of the same rows, with one field of a wrong shape."""
    def pairs(rows):
        return [row.split(None, 1) + [""] for row in rows]

    doc: dict = {
        "generators": [[p for p in row.split()] for row in sections["generators"]],
        "relations": sections["relations"],
        "sq": {},
        "integral": {},
        "metadata": {},
    }
    for row in sections["sq"]:
        gen, i, expr = (row.split(None, 2) + ["", ""])[:3]
        doc["sq"].setdefault(gen, {})[i] = expr
    for degree, expr in (p[:2] for p in pairs(sections["integral"])):
        doc["integral"].setdefault(degree, []).append(expr)
    for key, value in (p[:2] for p in pairs(sections["metadata"])):
        if key == "w":
            i, expr = (value.split(None, 1) + [""])[:2]
            doc["metadata"].setdefault("w", {})[i] = expr
        elif key == "flags":
            doc["metadata"]["flags"] = value.split()
        elif key in ("torsion", "index"):
            doc["metadata"].setdefault(key, []).append(value)
        else:
            doc["metadata"][key] = int(value) if value.isdigit() else value
    if "boundary-generators" in sections:
        doc["boundary"] = {"generators": [["d", 3, "exterior"]]}
        doc["restriction"] = dict(p[:2] for p in pairs(sections["restriction"]))
    if wrong is not None:
        path, value = wrong
        block = doc
        *parents, key = path.split(".")
        for parent in parents:
            block = block.setdefault(parent, {})
            if not isinstance(block, dict):
                break
        else:
            block[key] = value
    return json.dumps(doc)


json_values = st.one_of(st.none(), st.integers(-2, 5), st.text("ab 1", max_size=3),
                        st.lists(st.integers(0, 2), max_size=2),
                        st.dictionaries(st.sampled_from(["a", "1"]), st.integers(0, 2),
                                        max_size=2))
json_paths = st.sampled_from(["generators", "relations", "sq", "sq.a", "integral",
                              "integral.4", "metadata", "metadata.w", "metadata.flags",
                              "metadata.torsion", "metadata.cap", "boundary",
                              "boundary.generators", "boundary.sq", "restriction"])


@st.composite
def modules(draw) -> str:
    """A module file at height 2 (|v| = 6), mostly well-formed: diagonal
    0/1 operators are commuting idempotents."""
    rank, K = draw(st.integers(0, 4)), draw(st.integers(1, 6))
    lines = ["[module]"]
    header = [("n", rarely(token(-1, 3), st.just("2"))), ("k", token(-1, 3)),
              ("rank", rarely(token(-1, 5), st.just(str(rank)))),
              ("truncation", rarely(st.sampled_from(["70", "0", "x"]), st.just(str(K))))]
    for key, values in header:
        if draw(rarely(st.just(False), st.just(True), 24)):
            lines.append(f"{key} {draw(values)}")
    if draw(st.booleans()):
        degree = rarely(token(0, 12), st.sampled_from(["0", "6", "12"]))
        lines.append("degrees " + " ".join(draw(st.lists(degree, min_size=rank,
                                                         max_size=rank))))
    index = rarely(st.sampled_from(["", "-1", "9", "x"]), small_int(0, K - 1))
    for k in draw(st.lists(index, max_size=3, unique=True)):
        lines.append(f"[operator {k}]".replace(" ]", "]"))
        diagonal = draw(st.lists(st.booleans(), min_size=rank, max_size=rank))
        rows = [" ".join(str(int(i == j and bit)) for j in range(rank))
                for i, bit in enumerate(diagonal)]
        if draw(st.integers(0, 7)) == 3:  # a random matrix, bad entry or wrong size
            rows = [" ".join(draw(st.lists(st.sampled_from("0112z"), min_size=rank,
                                           max_size=rank + 1))) for _ in range(rank)]
        lines.extend(rows)
    for position, line in draw(stray_lines):
        lines.insert(position, line)
    return "\n".join(lines) + "\n"


def run_file(name: str, content: str, argv: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(content)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace("FILE", str(path)) for arg in argv])
        elapsed = time.perf_counter() - start
    assert code in TYPED_EXITS, (code, content)
    assert elapsed < SECONDS, (elapsed, content)
    if code:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), content


SPACE_COMMANDS = st.sampled_from([
    ["ahss", "--space", "FILE", "--n", "1"],
    ["ahss", "--space", "FILE", "--n", "2", "--integral"],
    ["obstruct", "--manifold", "FILE", "--check", "wu", "--i", "1", "--j", "2"],
])


@SETTINGS
@given(spaces(), stray_lines, SPACE_COMMANDS)
def test_generated_space_files_end_typed(sections, stray, argv):
    run_file("case.space", text_file(sections, stray), argv)


@SETTINGS
@given(spaces(), rarely(st.tuples(json_paths, json_values), st.none()), SPACE_COMMANDS)
def test_generated_json_space_files_end_typed(sections, wrong, argv):
    run_file("case.json", json_file(sections, wrong), argv)


@SETTINGS
@given(modules(), st.sampled_from([
    ["tor", "--module", "FILE", "--k", "0"],
    ["tor", "--module", "FILE", "--k", "1", "--against", "N", "--i", "0", "3"],
    ["khorami", "--module", "FILE", "--max-degree", "2"],
]))
def test_generated_module_files_end_typed(content, argv):
    run_file("case.module", content, argv)
