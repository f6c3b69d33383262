import json
import tempfile
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from moravak import gf2
from moravak.ahss import SpaceModel
from moravak.cli import main
from moravak.errors import ParseError, ValidationError
from moravak.obstruct import ManifoldData
from moravak.rbk import RbkModule
from moravak.twistgroup import MAX_FACTORS
from moravak.spacefile import (
    MAX_MODULE_RANK,
    _int,
    parse_file,
    parse_module,
    serialize_model,
)

from conftest import FIXTURES


def write(tmp_path, text, name="case.space"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_all_fixtures_parse():
    for name in ("s3", "point", "rp_inf"):
        model = parse_file(FIXTURES / f"{name}.space").model
        assert isinstance(model, SpaceModel)
    for name in ("synth12", "fb12", "m10", "pair12", "genspin"):
        model = parse_file(FIXTURES / f"{name}.space").model
        assert isinstance(model, ManifoldData)


def test_serialize_reparse_identity(tmp_path):
    for name in ("s3", "rp_inf", "synth12", "m10", "pair12", "genspin"):
        parsed = parse_file(FIXTURES / f"{name}.space")
        doc = serialize_model(parsed)
        path = write(tmp_path, json.dumps(doc), f"{name}.json.space")
        assert serialize_model(parse_file(path)) == doc


def test_parse_errors_carry_line_numbers(tmp_path):
    path = write(tmp_path, "[generators]\nt one polynomial\n")
    with pytest.raises(ParseError) as exc:
        parse_file(path).model
    assert "line 2" in str(exc.value)
    path = write(tmp_path, "stray content\n")
    with pytest.raises(ParseError) as exc:
        parse_file(path).model
    assert "line 1" in str(exc.value)
    path = write(tmp_path, "[nonsense]\n")
    with pytest.raises(ParseError):
        parse_file(path).model
    path = write(tmp_path, "[generators]\nt 1\n[sq]\nt t^2\n")
    with pytest.raises(ParseError):
        parse_file(path).model


def test_validation_errors_name_the_axiom(tmp_path):
    path = write(tmp_path, "[generators]\nt 1\n[relations]\nt + t^2\n")
    with pytest.raises(ValidationError) as exc:
        parse_file(path).model
    assert "homogeneous" in str(exc.value)
    path = write(tmp_path, """
[generators]
g 2
h 3

[sq]
g 1 g
""".strip())
    with pytest.raises(ValidationError) as exc:
        parse_file(path).model
    assert "homogeneous of degree 3" in str(exc.value)


def test_comments_and_blank_lines_ignored(tmp_path):
    path = write(tmp_path, """
# leading comment
[generators]
t 1 polynomial   # trailing comment

[metadata]
cap 6            # another
""".strip())
    model = parse_file(path).model
    assert model.algebra.degree_cap == 6


def test_missing_file():
    with pytest.raises(ParseError):
        parse_file("/nonexistent/nowhere.space").model
    with pytest.raises(ParseError):
        parse_module("/nonexistent/nowhere.module")


def test_json_document_accepted(tmp_path):
    doc = {
        "generators": [["t", 1, "polynomial"]],
        "sq": {"t": {"1": "t^2"}},
        "metadata": {"cap": 8},
    }
    model = parse_file(write(tmp_path, json.dumps(doc))).model
    assert isinstance(model, SpaceModel)
    assert model.algebra.degree_cap == 8
    with pytest.raises(ParseError):
        parse_file(write(tmp_path, "{not json")).model


def test_restriction_without_boundary_rejected(tmp_path):
    path = write(tmp_path, """
[generators]
u4 4

[restriction]
u4 0

[metadata]
dimension 8
w 6 0
""".strip())
    with pytest.raises(ParseError):
        parse_file(path).model


def test_module_file_errors(tmp_path):
    path = write(tmp_path, "[module]\nk 0\nrank 1\n", "m.module")
    with pytest.raises(ParseError):  # n is mandatory
        parse_module(path)
    path = write(tmp_path, "[module]\nn 2\nrank 2\ndegrees 0 6\n[operator]\n0 0\n",
                 "m2.module")
    with pytest.raises(ParseError):  # matrix must be 2x2
        parse_module(path)
    path = write(tmp_path,
                 "[module]\nn 2\ntruncation 2\nrank 1\ndegrees 0\n[operator 5]\n0\n",
                 "m3.module")
    with pytest.raises(ParseError):  # operator beyond the truncation
        parse_module(path)


def test_module_file_single_factor(tmp_path):
    path = write(tmp_path, """
[module]
n 2
k 1
rank 1
degrees 0

[operator]
1
""".strip(), "n1.module")
    mod = parse_module(path)
    assert mod.k == 1 and mod.operator == (1,)


MODULE_HEAD = "[module]\nn 2\nrank 1\ndegrees 0\n"


MALFORMED = [
    ("opx.module", MODULE_HEAD + "[operator x]\n0\n", "tor", 2),
    ("ntwo.module", "[module]\nn two\n", "tor", 2),
    ("degz.module", "[module]\nn 2\ndegrees 0 z\n", "tor", 2),
    ("nbare.module", "[module]\nn\n", "tor", 2),
    ("trunc.module", "[module]\nn 2\ntruncation 1500\nrank 1\ndegrees 0\n", "tor", 4),
    ("trunc.module", "[module]\nn 2\ntruncation 1500\nrank 1\ndegrees 0\n", "khorami", 4),
    ("rank.module", "[module]\nn 2\nrank 30000000\n", "tor", 4),
    ("height.module", "[module]\nn 20000\nrank 2\ndegrees 0 6\n[operator]\n0 0\n1 1\n",
     "tor", 4),
    ("repeat.module", MODULE_HEAD + "[operator]\n0\n[operator 0]\n1\n", "tor", 2),
    ("entry.module", MODULE_HEAD + "[operator]\n2\n", "tor", 2),
    # an explicit block index names the factor: it must be the module's k
    ("opk.module", MODULE_HEAD + "[operator 3]\n1\n", "tor", 2),
    ("opk.module", MODULE_HEAD + "[operator 3]\n1\n", "khorami", 2),
    ("opk1.module", MODULE_HEAD + "k 1\n[operator 0]\n1\n", "tor", 2),
    # k names the factor of a single-factor module; a tensor module has none
    ("ktensor.module", "[module]\nn 2\ntruncation 2\nk 7\nrank 1\n[operator]\n1\n",
     "khorami", 2),
    ("w.space", "[generators]\nt 1\n[metadata]\nw x g\n", "ahss", 2),
    ("integral.space", "[generators]\nt 1\n[integral]\nx g\n", "ahss", 2),
    ("gens.space", '{"generators": 5}', "ahss", 2),
    ("flags.space", '{"metadata": {"flags": 3}}', "ahss", 2),
    ("sq.space", '{"sq": {"t": [1]}}', "ahss", 2),
    ("exponent.space", "[generators]\nt 1\n[relations]\nt^" + "9" * 5000 + "\n", "ahss", 2),
    ("binary.space", b"\xff\xfe\x00binary", "ahss", 2),
    ("cap60.space", "[generators]\na 1\nb 1\nc 1\nd 1\n[metadata]\ncap 60\n", "ahss", 4),
    # an index row is keyed by degree-4 coordinates, outside a cap-3 window
    ("index.space", "[generators]\nt 1 polynomial\n[metadata]\ncap 3\ndimension 3\n"
     "index 0 0\n", "obstruct", 3),
]


@pytest.mark.parametrize("name, content, command, code", MALFORMED,
                         ids=[f"{name}-{command}" for name, _, command, _ in MALFORMED])
def test_malformed_files_end_in_typed_errors(tmp_path, capsys, name, content, command,
                                             code):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    argv = {"tor": ["tor", "--module", str(path)],
            "khorami": ["khorami", "--module", str(path)],
            "ahss": ["ahss", "--space", str(path), "--n", "1"],
            "obstruct": ["obstruct", "--manifold", str(path), "--check", "wu"]}[command]
    start = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_laurent_kinds_are_unknown(tmp_path, capsys):
    for kind in ("laurent-unit", "laurent", "unit"):
        path = write(tmp_path, f"[generators]\nt 1\n\nv 6 {kind}\n")
        assert main(["ahss", "--space", str(path), "--n", "1"]) == 2
        assert capsys.readouterr().err == f"error: line 4: unknown generator kind {kind!r}\n"


def test_size_errors_name_their_limit(tmp_path, capsys):
    path = write(tmp_path, "[module]\nn 2\ntruncation 65\nrank 1\ndegrees 0\n", "t.module")
    for command in ("tor", "khorami"):
        assert main([command, "--module", str(path)]) == 4
        err = capsys.readouterr().err
        assert f"tensor truncation 65 exceeds the limit {MAX_FACTORS}" in err
    path = write(tmp_path, f"[module]\nn 2\nrank {MAX_MODULE_RANK + 1}\n", "r.module")
    assert main(["tor", "--module", str(path)]) == 4
    assert f"module rank {MAX_MODULE_RANK + 1} exceeds the limit {MAX_MODULE_RANK}" \
        in capsys.readouterr().err


def test_largest_admitted_module_is_bounded(tmp_path, capsys):
    """Truncation MAX_FACTORS and rank MAX_MODULE_RANK with dense commuting
    idempotents: every operator is validated and every pair commuted."""
    r = MAX_MODULE_RANK
    b = r - 1 + r % 2  # an all-ones block of odd size b is idempotent
    rows = [" ".join("1" if j < b else "0" for j in range(r))] * b + \
        [" ".join(str(int(i == j)) for j in range(r)) for i in range(b, r)]
    lines = ["[module]", "n 2", f"truncation {MAX_FACTORS}", f"rank {r}"]
    for k in range(MAX_FACTORS):
        lines += [f"[operator {k}]"] + rows
    path = write(tmp_path, "\n".join(lines) + "\n", "dense.module")
    start = time.perf_counter()
    assert main(["tor", "--module", str(path), "--json"]) == 0
    assert time.perf_counter() - start < 2.0
    # against M, Tor_0 is the cokernel of an operator of rank 1 + r - b
    assert json.loads(capsys.readouterr().out)["payload"]["Tor_0"]["rank"] == b - 1


def test_json_errors_carry_no_line_number(tmp_path):
    doc = {"generators": [["t", "one"]]}
    with pytest.raises(ParseError) as exc:
        parse_file(write(tmp_path, json.dumps(doc))).model
    assert str(exc.value) == "bad degree 'one'"
    doc = {"generators": [["t", 1]], "boundary": {"sq": []}}
    with pytest.raises(ParseError) as exc:
        parse_file(write(tmp_path, json.dumps(doc))).model
    assert str(exc.value) == "bad JSON document: boundary.sq must be an object"
    for doc, field in (({"generator": [["t", 1]]}, "generator"),
                       ({"boundary": {"integral": {}}}, "boundary.integral")):
        with pytest.raises(ParseError) as exc:
            parse_file(write(tmp_path, json.dumps(doc))).model
        assert str(exc.value) == f"bad JSON document: unknown field {field}"


def test_repeated_sections_rejected(tmp_path):
    path = write(tmp_path, "[generators]\nt 1\n[metadata]\ncap 4\n[generators]\ns 2\n")
    with pytest.raises(ParseError) as exc:
        parse_file(path).model
    assert str(exc.value) == "line 5: repeated section [generators]"


# m10's index and torsion classes have degree 4, and each index class one bit
@pytest.mark.parametrize("row, message", [
    ("index r 1", "index class r must have degree 4"),
    ("index b 1", "index class b is given both bits"),
    ("torsion r", "torsion class r must have degree 4"),
])
@pytest.mark.parametrize("form", ["text", "json"])
def test_index_and_torsion_classes_are_checked(tmp_path, capsys, form, row, message):
    if form == "text":
        path = write(tmp_path, (FIXTURES / "m10.space").read_text() + row + "\n")
    else:
        doc = serialize_model(parse_file(FIXTURES / "m10.space"))
        key, value = row.split(None, 1)
        doc["metadata"][key].append(value)
        path = write(tmp_path, json.dumps(doc))
    argv = ["obstruct", "--manifold", str(path), "--check", "quadratic", "--a", "b",
            "--a2", "c"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_operator_block_index_is_the_module_factor(tmp_path):
    """[operator j] in a single-factor file is the block of factor j: it
    loads under k j and is refused, at its header's line, under another k."""
    block = "[operator 3]\n1\n"
    assert parse_module(write(tmp_path, MODULE_HEAD + "k 3\n" + block, "k3.module")).k == 3
    with pytest.raises(ParseError) as exc:
        parse_module(write(tmp_path, MODULE_HEAD + block, "k0.module"))
    assert str(exc.value) == "line 5: operator index 3 differs from the module's k = 0"


def reference_columns(rows, rank):
    """Columns of operator rows as parse_module read them before its fast
    path for plain 0/1 rows: every entry through _int, then the shape."""
    bits = [[_int(x, lineno, "matrix rows must be 0/1 entries", (0, 1))
             for x in line.split()] for lineno, line in rows]
    if len(bits) != rank or any(len(row) != rank for row in bits):
        raise ParseError(f"operator matrix must be {rank}x{rank}")
    return tuple(sum(bits[i][j] << i for i in range(rank)) for j in range(rank))


def outcome(load):
    try:
        return load()
    except (ParseError, ValidationError) as err:
        return type(err), str(err), getattr(err, "line", None)


# every idempotent matrix of rank 1..3, by columns: most drawn rows load
IDEMPOTENTS = {r: [cols for cols in product(range(1 << r), repeat=r)
                   if gf2.compose_columns(cols, cols) == list(cols)] for r in (1, 2, 3)}
SPELLINGS = {0: ["0", "00", "+0", "-0", "0_0", "\u0660"],  # U+0660: Arabic-Indic zero
             1: ["1", "01", "+1", "0_1", "\u0661"]}
BAD_ENTRIES = ["2", "x", "1_0", "-1", "1.0", "_1", "0x1"]


@st.composite
def operator_rows(draw):
    """Rank and rows of an idempotent matrix: entries mostly plain, some in
    other spellings int() reads, rarely a bad entry, a row too long or too
    short, or a row too many or too few."""
    rank = draw(st.integers(1, 3))
    cols = draw(st.sampled_from(IDEMPOTENTS[rank]))
    plain = st.integers(0, 5).map(lambda r: r > 1)
    rows = []
    for i in range(rank):
        entries = [SPELLINGS[c >> i & 1][0] if draw(plain)
                   else draw(st.sampled_from(SPELLINGS[c >> i & 1])) for c in cols]
        if draw(st.integers(0, 15)) == 0:
            entries[draw(st.integers(0, rank - 1))] = draw(st.sampled_from(BAD_ENTRIES))
        if draw(st.integers(0, 15)) == 0:
            entries = entries[:-1] if draw(st.booleans()) else entries + ["0"]
        rows.append(" ".join(entries))
    if draw(st.integers(0, 15)) == 0:
        rows = rows[:-1] if draw(st.booleans()) else rows + [" ".join("0" * rank)]
    return rank, rows


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=operator_rows())
def test_matrix_rows_read_as_every_entry_through_int(drawn):
    """parse_module reads plain 0/1 rows without int(); it must give the
    columns, or the error and line, that reading every entry does."""
    rank, rows = drawn
    head = ["[module]", "n 2", f"rank {rank}", "degrees " + " ".join("0" * rank),
            "[operator]"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.module"
        path.write_text("\n".join(head + rows) + "\n", encoding="utf-8")
        got = outcome(lambda: parse_module(path))
    numbered = list(enumerate(rows, start=len(head) + 1))
    assert got == outcome(lambda: RbkModule(2, 0, (0,) * rank,
                                            reference_columns(numbered, rank)))
