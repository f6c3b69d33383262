import argparse
import contextlib
import enum
import gc
import io
import json
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from moravak import cli
from moravak.cli import build_parser, main
from moravak.rbk import TensorModule, tor
from moravak.spacefile import parse_module

from test_golden import GOLDEN, README, corpus_argv
from test_golden import run as run_captured
from test_input_files import SETTINGS

def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv: str) -> dict:
    code, out = run(capsys, *argv, "--json")
    assert code == 0, out
    return json.loads(out)


def test_twist_encode(capsys):
    doc = run_json(capsys, "twist", "--encode", "(0,1)")
    assert doc["payload"]["encoded"] == 3
    assert doc["payload"]["series"] == "1 + y + y^2 + y^3"


def test_twist_decode_multiply_vanishing(capsys):
    doc = run_json(capsys, "twist", "--decode", "5")
    assert doc["payload"]["exponents"] == [0, 2]
    doc = run_json(capsys, "twist", "--multiply", "(0)", "(0)")
    assert doc["payload"]["product_encoded"] == 2
    doc = run_json(capsys, "twist", "--vanishing", "5", "2")
    assert doc["payload"]["verdict"] == "no-nontrivial-twists"
    doc = run_json(capsys, "twist", "--hom", "(0)", "--n", "2")
    assert doc["payload"]["assignments"]["b0"] == "v^1"


def test_ahss_s3_report(capsys):
    doc = run_json(capsys, "ahss", "--space", "s3", "--n", "1",
                   "--twist", "fundamental")
    ranks = doc["payload"]["E4"]["ranks"]
    assert all(v == 0 for v in ranks.values())
    e2 = doc["payload"]["E2"]["ranks"]
    assert e2["p=00"] == 1 and e2["p=03"] == 1


def test_ahss_integral_certificates(capsys):
    doc = run_json(capsys, "ahss", "--space", "synth12", "--n", "2",
                   "--twist", "0", "--integral")
    certs = doc["payload"]["certificates"]
    assert certs["p=00"] == ["yes"]
    assert certs["p=04"] == ["no"]
    assert certs["p=06"] == ["unknown"]


def test_tor_and_khorami(capsys):
    doc = run_json(capsys, "tor", "--module", "r0free", "--against", "M")
    assert doc["payload"]["Tor_0"]["rank"] == 1
    assert all(doc["payload"][f"Tor_{i}"]["rank"] == 0 for i in (1, 2, 3, 4))
    doc = run_json(capsys, "khorami", "--module", "point")
    assert doc["payload"]["quotient"]["rank"] == 0
    assert doc["payload"]["agrees"] is True
    doc = run_json(capsys, "khorami", "--module", "r0free")
    assert doc["payload"]["quotient"]["rank"] == 1


def test_bar_complex_size_limit(capsys):
    """r0free has rank 2 over six factors, so its bar complex to degree
    m + 1 has 2 * C(m + 7, 6) generators: 3432 at --max-degree 6, 6006 at 7."""
    doc = run_json(capsys, "khorami", "--module", "r0free", "--max-degree", "6")
    page = doc["payload"]["bar_page"]
    assert sorted(page) == [f"degree_{m}" for m in range(7)]
    assert all(page[f"degree_{m}"] == 0 for m in range(1, 7))
    assert main(["khorami", "--module", "r0free", "--max-degree", "7"]) == 4
    assert capsys.readouterr() == \
        ("", "error: bar complex to degree 8 has 6006 generators; the limit is 5000\n")
    assert main(["khorami", "--module", "r0free", "--max-degree", "-1"]) == 3


def test_fgl_commands(capsys):
    doc = run_json(capsys, "fgl", "--law", "gm", "--check-grouplike", "1+x")
    assert doc["payload"]["grouplike"] is True
    doc = run_json(capsys, "fgl", "--law", "gm", "--check-grouplike", "1+x+x^2")
    assert doc["payload"]["grouplike"] is False
    # signs count mod 4; mod 2, 1 - x is the grouplike 1 + x
    doc = run_json(capsys, "fgl", "--modulus", "4", "--check-grouplike", "1-x")
    assert doc["payload"]["grouplike"] is False
    doc = run_json(capsys, "fgl", "--modulus", "4", "--check-grouplike", "1+x")
    assert doc["payload"]["grouplike"] is True
    doc = run_json(capsys, "fgl", "--check-grouplike", "1-x")
    assert doc["payload"]["grouplike"] is True
    doc = run_json(capsys, "fgl", "--law", "gm", "--two-series",
                   "--solve-theta", "4", "--height")
    assert doc["payload"]["two_series"] == "x^2"
    assert doc["payload"]["theta"] == {"theta_1": 1, "theta_2": 0,
                                       "theta_3": 0, "theta_4": 0}
    assert doc["payload"]["height"] == 1


def test_obstruct_commands(capsys):
    doc = run_json(capsys, "obstruct", "--manifold", "synth12",
                   "--check", "string", "--h4", "h4")
    assert doc["payload"]["status"] == "oriented"
    doc = run_json(capsys, "obstruct", "--manifold", "genspin",
                   "--check", "wu", "--i", "7", "--j", "8")
    # monomial factors render sorted by generator name
    assert set(doc["payload"]["wu"].split(" + ")) == \
        {"w7*w8", "w6*w9", "w10*w5", "w11*w4", "w15"}
    doc = run_json(capsys, "obstruct", "--manifold", "m10",
                   "--check", "phase", "--a", "c", "--b", "b")
    assert doc["payload"]["invariant"] is True
    doc = run_json(capsys, "obstruct", "--manifold", "m10",
                   "--check", "quadratic", "--a", "b", "--a2", "c")
    assert doc["payload"]["refinement_holds"] is True
    doc = run_json(capsys, "obstruct", "--manifold", "pair12",
                   "--check", "relative", "--h4", "0")
    assert doc["payload"]["status"] == "obstructed"
    doc = run_json(capsys, "obstruct", "--manifold", "fb12",
                   "--check", "fivebrane", "--h5", "q5")
    assert doc["payload"]["cross_check_agrees"] is True


def test_reports_are_deterministic(capsys):
    commands = [
        ("twist", "--encode", "(0,1,3)"),
        ("ahss", "--space", "s3", "--n", "1", "--twist", "fundamental"),
        ("ahss", "--space", "rp_inf", "--n", "1", "--twist", "0"),
        ("ahss", "--space", "synth12", "--n", "2", "--twist", "h4", "--integral"),
        ("ahss", "--space", "point", "--n", "2", "--twist", "0"),
        ("tor", "--module", "r0free"),
        ("khorami", "--module", "point"),
        ("khorami", "--module", "r0free"),
        ("fgl", "--law", "gm", "--two-series", "--height"),
        ("obstruct", "--manifold", "m10", "--check", "heterotic",
         "--a", "c", "--b", "0"),
        ("obstruct", "--manifold", "fb12", "--check", "fivebrane", "--h5", "q5"),
        ("obstruct", "--manifold", "genspin", "--check", "wu"),
        ("obstruct", "--manifold", "pair12", "--check", "relative"),
    ]
    for argv in commands:
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2, argv


def test_report_echo_reparses_to_the_same_model(capsys, tmp_path):
    for fixture, argv in [
        ("synth12", ("ahss", "--space", "synth12", "--n", "2", "--twist", "h4")),
        ("m10", ("obstruct", "--manifold", "m10", "--check", "quadratic",
                 "--a", "b", "--a2", "c")),
        ("pair12", ("obstruct", "--manifold", "pair12", "--check", "relative")),
    ]:
        doc = run_json(capsys, *argv)
        echo = doc["inputs"]["echo"]
        path = tmp_path / f"{fixture}-echo.space"
        path.write_text(json.dumps(echo))
        from moravak.spacefile import parse_file, serialize_model
        assert serialize_model(parse_file(path)) == echo


def test_exit_codes(capsys):
    code, _ = run(capsys, "ahss", "--space", "definitely-missing", "--n", "1")
    assert code == 2
    code, _ = run(capsys, "ahss", "--space", "s3", "--n", "2",
                  "--twist", "fundamental")
    assert code == 3  # no rank-1 degree-4 space on S^3
    code, _ = run(capsys, "fgl", "--law", "gm", "--modulus", "4",
                  "--solve-theta", "3")
    assert code == 4  # the mod-4 multiplicative law is not 2-typical
    code, _ = run(capsys, "obstruct", "--manifold", "m10", "--check", "phase",
                  "--a", "c", "--b", "c")
    assert code == 5  # c is not a declared torsion class


@pytest.mark.parametrize("twist, beta", [
    ("t1*t2*t3^2", "t1*t2^2*t3^2 + t1^2*t2*t3^2"),
    ("t1^2*t2*t3", "t1^2*t2*t3^2 + t1^2*t2^2*t3"),
])
def test_non_integral_twist_is_exit_3(capsys, tmp_path, twist, beta):
    """On (RP^inf)^3, whose Sq table the Cartan formula fixes, a twist with
    Sq^1 != 0 reduces from no integral class and makes d^2 != 0: the error
    names the twist and its Sq^1, not the table."""
    path = tmp_path / "rp3.space"
    path.write_text("[generators]\nt1 1\nt2 1\nt3 1\n\n[metadata]\ncap 16\n")
    code = main(["ahss", "--space", str(path), "--n", "2", "--twist", twist])
    assert code == 3
    assert capsys.readouterr().err == \
        f"error: twist {twist} reduces from no integral class: Sq^1 of it is {beta}\n"
    # Sq^1 t1^4 = 0, and the same table turns the page
    assert main(["ahss", "--space", str(path), "--n", "2", "--twist", "t1^4"]) == 0


def test_restriction_must_carry_exterior_squares_to_zero(capsys, tmp_path):
    """e^2 = 0 on the total space, but t^2 is nonzero on the boundary:
    the restriction e -> t is no ring map, and the error names e^2."""
    path = tmp_path / "pair.space"
    path.write_text("[generators]\ne 3 exterior\n\n[metadata]\ncap 8\ndimension 3\n\n"
                    "[boundary-generators]\nt 3 polynomial\n\n[restriction]\ne t\n")
    assert main(["ahss", "--space", str(path), "--n", "1", "--twist", "0"]) == 3
    assert capsys.readouterr().err == "error: relation e^2 is not carried to zero\n"


def fresh_interpreter_env(**extra: str) -> dict:
    """The environment of a fresh interpreter that imports the moravak
    these tests import, whether it came from PYTHONPATH or pytest's
    pythonpath setting."""
    import os
    from pathlib import Path
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_determinism_across_hash_seeds():
    """Reports must not leak set/dict iteration order: two fresh
    interpreters with different hash randomization agree bytewise."""
    import subprocess
    import sys
    argv = [sys.executable, "-m", "moravak.cli", "ahss", "--space", "synth12",
            "--n", "2", "--twist", "h4", "--integral"]
    outputs = []
    for seed in ("1", "1337"):
        env = fresh_interpreter_env(PYTHONHASHSEED=seed)
        result = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_closed_stdout_is_exit_141_without_traceback():
    """A reader that stops after one line, as ``| head -1`` does, ends the
    run with 128 + SIGPIPE and nothing but the report's start written."""
    import subprocess
    import sys
    # about 160 kB of report, far more than a pipe buffer holds
    argv = [sys.executable, "-m", "moravak.cli", "tor", "--module", "r0free",
            "--i", "0", "1500"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=fresh_interpreter_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first.startswith(b"moravak ")
    assert b"Traceback" not in err


def test_usage_error_is_exit_2():
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["twist", "--no-such-flag"])
    assert exc.value.code == 2


def test_text_report_contains_json_block(capsys):
    code, out = run(capsys, "twist", "--encode", "(1)")
    assert code == 0
    text, _, blob = out.partition("--- json ---")
    assert "moravak" in text
    assert json.loads(blob)["payload"]["encoded"] == 2


def line_module(tmp_path) -> str:
    """Rank 1 over one factor, b_0 acting as v: its bar complex has one
    generator per degree, the shape that reaches MAX_BAR_COMPLEX."""
    path = tmp_path / "line.module"
    path.write_text("[module]\nn 2\ntruncation 1\nrank 1\ndegrees 0\n\n[operator 0]\n1\n")
    return str(path)


# 1 and x^k for Fibonacci k up to 89, at modulus 2^20 and truncation 400:
# its largest series product, 351 by 2145 terms, is within the limit, while
# x^144 would need a 2145 by 2145 one
GROUPLIKE_FIBONACCI = "1+x+x^2+x^3+x^5+x^8+x^13+x^21+x^34+x^55+x^89"


@pytest.mark.parametrize("argv, code", [
    (("twist", "--decode", "3", "--truncation", "-1"), 3),
    (("twist", "--decode", "3", "--truncation", "100000"), 4),
    (("fgl", "--modulus", "0", "--two-series"), 3),
    (("khorami", "--module", "point", "--max-degree", "-1"), 3),
    (("twist", "--vanishing", "4", "2", "--p", "1"), 3),
    (("twist", "--vanishing", "4", "2", "--p", "0"), 3),
    (("twist", "--vanishing", "4", "2", "--p", "-3"), 3),
    (("tor", "--module", "r0free", "--k", "99"), 3),
    (("twist", "--hom", "(0,1)", "--factors", "-1"), 3),
    (("fgl", "--solve-theta", "0"), 3),
    (("fgl", "--solve-theta", "-1"), 3),
    (("fgl", "--truncation", "0", "--two-series"), 3),
    (("fgl", "--truncation", "-1", "--two-series"), 3),
    (("fgl", "--check-grouplike", "x^"), 2),
    (("fgl", "--check-grouplike", "1+x^-1"), 2),
    (("ahss", "--space", "s3", "--n", "1025", "--twist", "0"), 4),
    (("tor", "--module", "r0free", "--i", "0", "100000"), 4),
    (("khorami", "--module", "r0free", "--max-degree", "9"), 4),
    (("khorami", "--module", "r0free", "--max-degree", "12"), 4),
    (("twist", "--hom", "(0,1)", "--factors", "3000000"), 4),
    (("fgl", "--solve-theta", "1025"), 4),
    (("fgl", "--solve-theta", "20000"), 4),
    (("fgl", "--check-grouplike", "1+" + "7" * 5000), 2),
    (("fgl", "--check-grouplike", "1+x^" + "7" * 5000), 2),
    (("fgl", "--law", "gm", "--modulus", "1048576", "--truncation", "400",
      "--check-grouplike", GROUPLIKE_FIBONACCI + "+x^144+x^233+x^377"), 4),
    (("fgl", "--law", "gm", "--truncation", "1000000000",
      "--check-grouplike", "1+x^5592405"), 4),
    # 5 001 generators, one past MAX_BAR_COMPLEX
    (("khorami", "--module", "{line}", "--max-degree", "4999"), 4),
    # both report element and series, so one would overwrite the other
    (("twist", "--encode", "(0,1)", "--decode", "5"), 2),
    # the file's k is 1; --k may repeat it, not contradict it
    (("tor", "--module", "b1free", "--k", "0"), 2),
    # an option given to a mode or check that does not read it
    (("twist", "--encode", "(0,1)", "--n", "9"), 2),
    (("twist", "--encode", "(0,1)", "--factors", "3"), 2),
    (("twist", "--hom", "(0,1)", "--p", "5"), 2),
    (("obstruct", "--manifold", "genspin", "--check", "wu", "--h4", "w4"), 2),
    (("obstruct", "--manifold", "genspin", "--check", "wu", "--h5", "w4"), 2),
    (("obstruct", "--manifold", "genspin", "--check", "wu", "--a", "w4"), 2),
    (("obstruct", "--manifold", "genspin", "--check", "wu", "--b", "w4"), 2),
    (("obstruct", "--manifold", "genspin", "--check", "wu", "--a2", "w4"), 2),
])
def test_out_of_range_arguments_are_typed_errors(capsys, tmp_path, argv, code):
    argv = [arg.format(line=line_module(tmp_path)) for arg in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("obstruct", "--manifold", "no-such-file", "--check", "wu", "--i", "5", "--h4", "w4"),
     "--check wu does not read --h4"),
    (("obstruct", "--manifold", "no-such-file", "--check", "string", "--j", "3"),
     "--check string does not read --j"),
    (("twist", "--encode", "(0,1)", "--n", "9", "--factors", "3", "--p", "5"),
     "twist: --n is read only with --hom"),
    (("twist", "--vanishing", "4", "2", "--hom", "(0,1)", "--p", "3", "--factors", "3"),
     None),
])
def test_an_unread_option_is_refused_before_a_file_is_read(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    if message is None:  # each option goes with a mode that is given
        assert code == 0 and captured.err == ""
    else:
        assert (code, captured.err) == (2, f"error: {message}\n")


# a valid value, other than the default, of each twist and obstruct option
# that a golden argv can lack (every obstruct argv names its manifold and check)
OPTION_VALUES = {
    "--json": [], "--encode": ["(0,2)"], "--decode": ["5"], "--multiply": ["(0)", "(1)"],
    "--hom": ["(0,2)"], "--vanishing": ["4", "2"], "--p": ["3"], "--n": ["3"],
    "--factors": ["4"], "--truncation": ["6"], "--h4": ["b"], "--h5": ["b"], "--a": ["c"],
    "--b": ["b"], "--a2": ["b"], "--i": ["5"], "--j": ["6"],
}


def test_no_option_is_accepted_and_then_ignored():
    """Each twist or obstruct option that a golden argv lacks, added with a
    value other than its default, changes what the argv prints or ends in
    a typed error.  The options come from the parser, so a new one needs
    a value above."""
    recorded = {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text())}
    commands = build_parser().commands
    for argv in corpus_argv():
        if argv[0] not in ("twist", "obstruct"):
            continue
        options = [action.option_strings[-1] for action in commands[argv[0]]._actions]
        for option in set(options) - {"--help", *argv}:
            got = run_captured([*argv, option, *OPTION_VALUES[option]])
            was = recorded[" ".join(argv)]
            assert got["code"] in (2, 3, 4, 5) and got["stderr"].startswith("error: ") or (
                got["code"] == 0 and got["stdout"] != was["stdout"]), got["argv"]


def test_series_argument_is_built_from_its_terms_in_degree_order():
    series = cli._parse_series("x^5 + 3 - x + x^20 + x - x", 16, 8)
    assert list(series.coeffs.items()) == [((0,), 3), ((1,), 7), ((5,), 1)]


def test_truncation_error_names_the_order(capsys):
    assert main(["fgl", "--truncation", "0", "--two-series"]) == 3
    assert "truncation order must be >= 1: 0" in capsys.readouterr().err


def test_tor_k_of_a_single_factor_module(capsys):
    assert main(["tor", "--module", "b1free", "--k", "5"]) == 2
    assert capsys.readouterr().err == "error: --k 5 differs from the module's k = 1\n"


def test_khorami_k_of_a_single_factor_module(capsys, tmp_path):
    module = tmp_path / "b7.module"
    module.write_text("[module]\nn 2\nk 7\nrank 1\n\n[operator]\n1\n")
    assert main(["khorami", "--module", str(module)]) == 3
    assert capsys.readouterr().err == (
        "error: factor index k = 7 is at or above the default tensor truncation 6\n")
    assert main(["tor", "--module", str(module)]) == 0


@pytest.mark.parametrize("argv", [
    ("ahss", "--space", "s3", "--n", "20", "--twist", "0"),
    ("ahss", "--space", "s3", "--n", "1024", "--twist", "0"),
    ("ahss", "--space", "rp_inf", "--n", "40", "--twist", "0"),
    ("tor", "--module", "r0free", "--i", "0", "2047"),
    ("twist", "--hom", "(0,1)", "--factors", "64"),
    ("fgl", "--solve-theta", "1024"),
    ("fgl", "--law", "additive", "--truncation", "64", "--solve-theta", "1024"),
    ("fgl", "--law", "gm", "--modulus", "1048576", "--truncation", "400",
     "--check-grouplike", GROUPLIKE_FIBONACCI),
    ("fgl", "--law", "gm", "--truncation", "1000000000", "--check-grouplike", "1+x"),
    # F2[a1, b1] at cap 200 would hold 20 301 monomials; a^3 = b^3 = 0 folds it to 9
    ("ahss", "--space", "{folded}", "--n", "1", "--twist", "0"),
    # 5 000 generators, the most MAX_BAR_COMPLEX admits
    ("khorami", "--module", "{line}", "--max-degree", "4998"),
    # 400 generators of degree 6 000 .. 6 399 at cap 11 999: each could
    # carry about 6 000 squares, but has at most its table row and g^2
    ("ahss", "--space", "{near_cap}", "--n", "1", "--twist", "0"),
    # 1 000 [integral] rows t^2, t^4, ..., t^2000 on F2[t] at cap 2 000:
    # closure takes one product per unordered pair of echelon rows
    ("ahss", "--space", "{integral}", "--n", "1", "--twist", "0"),
    # 100 generators of degree 6 000 .. 6 099 at cap 11 999, restricted to
    # a copy of themselves: commutation takes one comparison per generator
    ("obstruct", "--manifold", "{restricted}", "--check", "relative"),
    # F2[a1, b1, c1] at cap 38 with the relation a + b given 200 and 1 000
    # times: its copies add no row to the relations' echelon
    ("ahss", "--space", "{tmp}/repeated200.space", "--n", "1", "--twist", "0"),
    ("ahss", "--space", "{tmp}/repeated1000.space", "--n", "1", "--twist", "0"),
])
def test_work_at_the_limits_is_bounded(capsys, tmp_path, argv):
    folded = tmp_path / "folded.space"
    folded.write_text("[generators]\na 1\nb 1\n\n[relations]\na^3\nb^3\n\n"
                      "[metadata]\ncap 200\n")
    near_cap = tmp_path / "near_cap.space"
    near_cap.write_text("[generators]\n" + "".join(f"g{i} {6000 + i}\n" for i in range(400))
                        + "\n[metadata]\ncap 11999\n")
    integral = tmp_path / "integral.space"
    integral.write_text("[generators]\nt 1\n\n[integral]\n"
                        + "".join(f"{2 * i} t^{2 * i}\n" for i in range(1, 1001))
                        + "\n[metadata]\ncap 2000\n")
    generators = "".join(f"g{i} {6000 + i}\n" for i in range(100))
    restricted = tmp_path / "restricted.space"
    restricted.write_text("[generators]\n" + generators + "\n[metadata]\ncap 11999\nw 6 0\n\n"
                          "[boundary-generators]\n" + generators + "\n[restriction]\n"
                          + "".join(f"g{i} g{i}\n" for i in range(100)))
    for copies in (200, 1000):
        (tmp_path / f"repeated{copies}.space").write_text(
            "[generators]\na 1\nb 1\nc 1\n\n[relations]\n" + "a + b\n" * copies
            + "\n[metadata]\ncap 38\n")
    argv = [arg.format(folded=folded, near_cap=near_cap, integral=integral,
                       restricted=restricted, line=line_module(tmp_path), tmp=tmp_path)
            for arg in argv]
    start = time.perf_counter()
    assert main(list(argv)) == 0
    assert time.perf_counter() - start < 2.0
    capsys.readouterr()


@pytest.mark.parametrize("module, k", [("r0free", "0"), ("r0free", "1"), ("point", "0")])
@pytest.mark.parametrize("against", ["M", "N"])
def test_tor_range_matches_each_index(capsys, module, k, against):
    from moravak import fixtures
    mod = parse_module(fixtures.path(module, ".module"))
    if isinstance(mod, TensorModule):
        mod = mod.factor(int(k))
    # odd and even lo >= 1, single indices of each parity, and lo > hi
    for lo, hi in [(0, 9), (3, 40), (2, 41), (1, 1), (7, 7), (5, 3)]:
        doc = run_json(capsys, "tor", "--module", module, "--k", k, "--against", against,
                       "--i", str(lo), str(hi))
        assert doc["payload"] == {
            f"Tor_{i}": {"rank": group.rank, "degrees_mod_v": list(group.degree_classes)}
            for i in range(lo, hi + 1) for group in [tor(mod, against, i)]}


def test_tor_range_with_a_negative_index_is_exit_3(capsys):
    assert main(["tor", "--module", "r0free", "--i", "-1", "3"]) == 3
    assert capsys.readouterr() == ("", "error: homological index must be nonnegative: -1\n")


# three idempotent operators over a truncation-3 tensor ring: Tor_0 is
# nonzero against M at k = 0 and 1 and against N at k = 0 and 2
TENSOR_MODULE = """[module]
n 2
truncation 3
rank 3
degrees 0 6 2

[operator 0]
0 0 0
1 1 0
0 0 0

[operator 1]
0 0 0
0 0 0
0 0 0

[operator 2]
1 0 0
0 1 0
0 0 1
"""


@pytest.fixture(scope="module")
def tensor_module(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("tor") / "three.module"
    path.write_text(TENSOR_MODULE)
    return str(path)


def tor_per_index(module: str, k: int, against: str, lo: int, hi: int,
                  json_only: bool) -> str:
    """The tor report with one payload entry per index, rendered by
    Report.render through its generic dict branches."""
    mod = parse_module(cli._resolve_path(module, ".module"))
    if isinstance(mod, TensorModule):
        mod = mod.factor(k)

    def entry(i: int) -> dict:
        group = tor(mod, against, i)
        return {"rank": group.rank, "degrees_mod_v": list(group.degree_classes)}

    inputs = {"module": Path(module).name, "against": against, "range": [lo, hi],
              **cli._module_payload(mod)}
    payload = {f"Tor_{i}": entry(i) for i in range(lo, hi + 1)}
    return cli.Report("tor", inputs, payload).render(json_only) + "\n"


INDEX = st.integers(0, 1200)
# far from 0, where a range meets whole blocks of 1-3 digits under a prefix
# and cuts through prefixes of 4-8 digits
FAR = st.tuples(st.integers(1, 10**7), st.integers(0, cli.MAX_TOR_INDICES - 1)).map(
    lambda pair: (pair[0], pair[0] + pair[1]))
# decimal boundaries, a whole range from 1, the longest range, one index and none
BOUNDARIES = [(9, 10), (99, 101), (999, 1001), (1, 1500), (1000, 3047),
              (99_990, 100_100), (10**6, 10**6), (1, 1), (5, 4)]


def at_boundaries(test):
    for i, bounds in enumerate(BOUNDARIES):
        for json_only in (False, True):
            test = example(module=[("r0free", 0), (None, 1)][i % 2], against="MN"[i % 2],
                           bounds=bounds, json_only=json_only)(test)
    return test


@SETTINGS
@given(module=st.sampled_from([("r0free", 0), (None, 0), (None, 1), (None, 2)]),
       against=st.sampled_from("MN"),
       bounds=st.one_of(st.tuples(INDEX, INDEX), INDEX.map(lambda i: (i, i)), FAR),
       json_only=st.booleans())
@example(module=("r0free", 0), against="M", bounds=(0, cli.MAX_TOR_INDICES - 1),
         json_only=False)
@example(module=(None, 0), against="N", bounds=(0, cli.MAX_TOR_INDICES - 1),
         json_only=True)
@at_boundaries
def test_tor_range_renders_like_one_entry_per_index(tensor_module, module, against,
                                                     bounds, json_only):
    """The range payload expands per parity class to the bytes of a plain
    dict with one entry per index; None stands for the tensor module."""
    name, k = module
    name = name or tensor_module
    lo, hi = bounds
    argv = ["tor", "--module", name, "--k", str(k), "--against", against,
            "--i", str(lo), str(hi)] + ["--json"] * json_only
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue() == tor_per_index(name, k, against, lo, hi, json_only)


def test_rendering_leaves_no_cyclic_garbage():
    """The renderers free what they build by reference counting: a report's
    pieces do not wait for the cyclic collector."""
    args = build_parser().parse_args(["tor", "--module", "r0free", "--i", "0",
                                      str(cli.MAX_TOR_INDICES - 1)])
    report = cli.cmd_tor(args)
    gc.collect()
    gc.disable()
    try:
        for json_only in (False, True):
            report.render(json_only)
        assert gc.collect() == 0
    finally:
        gc.enable()


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


ANY_CHARACTER = st.one_of(
    st.characters(exclude_categories=()),
    st.characters(max_codepoint=0x1F),  # controls
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF,
                  exclude_categories=()),  # lone surrogates
)
# the leaves a report holds, and the ones it never holds
REPORT_LEAVES = st.one_of(
    st.text(ANY_CHARACTER, max_size=6),
    st.integers(),
    st.integers(-2**200, 2**200),
    st.booleans(),
    st.none(),
)
LEAVES = st.one_of(REPORT_LEAVES, st.floats(), st.sampled_from(Level))


def nested(leaves, *dicts):
    """Lists, tuples and the given dicts of the leaves, nested."""
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        *(st.dictionaries(keys, inner, max_size=size) for keys, size in dicts),
    ), max_leaves=20)


STR_KEYS = (st.text(ANY_CHARACTER, max_size=4), 4)
REPORT_VALUES = nested(REPORT_LEAVES, STR_KEYS)
VALUES = nested(LEAVES, STR_KEYS, (st.integers(-3, 3), 3))


def shared_at_two_depths(value, other):
    """One object reached at depths 1, 2 and 3, and twice at depth 2."""
    return {"top": value, "deeper": [value, {"again": value}], "other": other,
            "twice": (value, value)}


def tor_shaped(odd_keys, even_keys, odd, even, other):
    """Many keys sharing one of two values, below depth 0, as in the
    payload of a long tor report."""
    return {"inputs": other,
            "payload": {**dict.fromkeys(odd_keys, odd), **dict.fromkeys(even_keys, even)}}


MANY_KEYS = st.lists(st.text(ANY_CHARACTER, max_size=4), max_size=40)


def tor_shapes(values):
    entries = st.one_of(values, st.lists(values, min_size=1, max_size=3),
                        st.dictionaries(st.text(max_size=4), values, min_size=1, max_size=3))
    return st.builds(tor_shaped, MANY_KEYS, MANY_KEYS, entries, entries, values)


TOR_SHAPED = tor_shapes(VALUES)


@SETTINGS
@given(value=st.one_of(REPORT_VALUES, st.builds(shared_at_two_depths, REPORT_VALUES,
                                                REPORT_VALUES), tor_shapes(REPORT_VALUES)))
def test_json_renderer_matches_json_dumps(value):
    assert cli._json(value, 0) == json.dumps(value, sort_keys=True, indent=2)


@st.composite
def nested_tor_ranges(draw):
    """A _TorRange two levels deep in dicts and lists beside other values,
    and the same value with the range as the plain dict it renders as."""
    lo, hi = draw(st.one_of(st.tuples(st.integers(-3, 30), st.integers(-3, 30)), FAR))
    start = max(lo, 1)
    low = {i: draw(REPORT_VALUES) for i in range(lo, min(hi, 0) + 1)}
    classes = {i % 2: draw(REPORT_VALUES) for i in range(start, min(hi, start + 1) + 1)}
    value = cli._TorRange(low, classes, start, hi)
    plain = {**{f"Tor_{i}": entry for i, entry in low.items()},
             **{f"Tor_{i}": classes[i % 2] for i in range(start, hi + 1)}}
    for _ in range(2):
        other, key, other_key = draw(REPORT_VALUES), draw(st.text(max_size=3)), draw(
            st.text(max_size=3))
        if draw(st.booleans()):
            value, plain = [other, value], [other, plain]
        else:
            value, plain = {other_key: other, key: value}, {other_key: other, key: plain}
    return value, plain


@SETTINGS
@given(drawn=nested_tor_ranges())
def test_json_renderer_expands_a_nested_tor_range(drawn):
    value, plain = drawn
    assert cli._json(value, 0) == json.dumps(plain, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {2: None}}, 0.5, {"a": [1, 1.5]},
                                   Level.LOW, {"a": (Level.HIGH,)}],
                         ids=["int-key", "nested-int-key", "float", "nested-float",
                              "int-enum", "nested-int-enum"])
def test_json_renderer_refuses_what_no_report_holds(value):
    """A float, an int enum and a dict with a non-str key are no report
    values: the renderer raises instead of guessing their text."""
    with pytest.raises(TypeError):
        cli._json(value, 0)


@SETTINGS
@given(value=st.one_of(TOR_SHAPED.map(lambda doc: doc["payload"]),
                       st.builds(shared_at_two_depths, VALUES, VALUES)))
def test_text_renderer_writes_shared_containers_like_single_keys(value):
    """A dict renders as its keys would one at a time, so sharing a
    value between keys changes no line."""
    assert cli._render(value, 1) == [
        line for key in sorted(value, key=str) for line in cli._render({key: value[key]}, 1)]


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    assert main(["twist", "--encode", "(0)"]) == 0
    assert main(["fgl", "--two-series"]) == 0
    assert builds == [1]
    capsys.readouterr()


def test_named_command_is_parsed_only_by_its_subparser(monkeypatch, capsys):
    parser = build_parser()
    calls = []

    def counting_parse_known_args(*args, **kwargs):
        calls.append(args)
        return argparse.ArgumentParser.parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counting_parse_known_args)
    monkeypatch.setattr(cli, "_parser", parser)
    for argv in README:
        assert main(list(argv)) == 0, argv
    assert calls == []
    for argv in ([], ["bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert len(calls) == 2
    capsys.readouterr()


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    assert main(["twist", "--encode", "(0,1)"]) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["moravak", "twist", "--encode", "(0,1)"])
    assert main() == 0
    assert capsys.readouterr() == expected


def test_dispatch_follows_a_patched_command(monkeypatch, capsys):
    assert main(["twist", "--encode", "(0)"]) == 0
    capsys.readouterr()
    seen = []

    def patched(args):
        seen.append(args.encode)
        return cli.Report("twist", {}, {"patched": True})

    monkeypatch.setattr(cli, "cmd_twist", patched)
    assert main(["twist", "--encode", "(1)", "--json"]) == 0
    assert seen == ["(1)"]
    assert json.loads(capsys.readouterr().out)["payload"] == {"patched": True}
