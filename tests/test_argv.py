"""Generated command lines, run through the command line in-process.

Every argv, well-formed or not, must end in a report (exit 0), a typed
error (exit 2, 3, 4 or 5) or argparse's own usage error
(``SystemExit(2)``) within a time bound; any other exception fails the
test.  Each subcommand draws from its own flags, with values that are
mostly small and valid and sometimes negative, huge, not integers or
outside the choices, plus unknown flags and stray words.
"""

import contextlib
import io
import json
import sys
import time

from hypothesis import given, strategies as st

from moravak import cli
from moravak.cli import main
from moravak.errors import MoravakError

from test_input_files import SECONDS, SETTINGS, TYPED_EXITS, rarely

SPACES = ["point", "s3", "rp_inf", "m10", "fb12", "genspin", "pair12", "synth12"]
MODULES = ["point", "r0free"]
MISSING = "no-such-file"
BAD_INTS = ["-1", "-7", "0", str(10**6), str(2**64), "9" * 30, "1.5", "x", "", "1e3",
            "0x10", "--"]
BAD_WORDS = ["", "x", "(", "1,", "bogus", "0x1", "--json", "-", "9" * 30]
EXPRESSIONS = ["0", "1", "t", "t^2", "t + t^3", "x", "w4", "w4 + w6", "a*b", "h4", "b",
               "c", "x3", "q", "t^-1", "a +", "*", "t^" + "9" * 30, "fundamental"]
ODDS = 12  # one value in ODDS is bad, so most argv reach a report


def integer(lo: int, hi: int):
    """Mostly an integer in [lo, hi], sometimes a bad one."""
    return rarely(st.sampled_from(BAD_INTS), st.integers(lo, hi).map(str), ODDS)


def choice(values: list[str]):
    """Mostly one of values, sometimes a bad word."""
    return rarely(st.sampled_from(BAD_WORDS), st.sampled_from(values), ODDS)


def exponent_list():
    good = st.lists(st.integers(0, 20), max_size=4).map(
        lambda xs: "(" + ",".join(map(str, xs)) + ")")
    bad = st.sampled_from(["(-1)", "(x)", "(" + "9" * 30 + ")", "1 2", "()", "(1,,2)"])
    return rarely(bad, good, ODDS)


def flag(name: str, *values):
    """The flag with its values (none for a switch), or nothing."""
    return st.one_of(st.just([]), required(name, *values))


def required(name: str, *values):
    """The flag with its values, rarely left out."""
    return rarely(st.just([]), st.tuples(*values).map(lambda vs: [name, *vs]), ODDS)


def command(name: str, *flags):
    """The subcommand with its flags in a drawn order, sometimes with an
    unknown flag or a stray word."""
    extra = rarely(st.sampled_from([["--bogus"], ["stray"], ["--n"], ["--json", "1"]]),
                   st.just([]), 10)
    return st.permutations(flags + (flag("--json"), extra)).flatmap(
        lambda order: st.tuples(*order)).map(
        lambda parts: [name] + [word for part in parts for word in part])


TWIST = command(
    "twist",
    flag("--encode", exponent_list()),
    flag("--decode", integer(-100, 10**6)),
    flag("--multiply", exponent_list(), exponent_list()),
    flag("--hom", exponent_list()),
    flag("--vanishing", integer(0, 64), integer(0, 64)),
    flag("--p", integer(2, 7)),
    flag("--n", integer(1, 6)),
    flag("--factors", integer(1, 64)),
    flag("--truncation", integer(1, 16)),
)
TOR = command(
    "tor",
    required("--module", choice(MODULES + [MISSING, "s3"])),
    flag("--against", choice(["M", "N"])),
    flag("--k", integer(0, 6)),
    flag("--i", integer(0, 20), integer(0, 2100)),
)
KHORAMI = command(
    "khorami",
    required("--module", choice(MODULES + [MISSING, "s3"])),
    flag("--max-degree", integer(0, 8)),
)
AHSS = command(
    "ahss",
    required("--space", choice(SPACES + [MISSING, "r0free"])),
    required("--n", integer(1, 3)),
    flag("--twist", choice(EXPRESSIONS)),
    flag("--integral"),
)
FGL = command(
    "fgl",
    flag("--law", choice(["gm", "multiplicative", "additive"])),
    flag("--modulus", integer(2, 64)),
    flag("--truncation", integer(1, 64)),
    flag("--two-series"),
    flag("--solve-theta", integer(1, 1024)),
    flag("--height"),
    flag("--check-grouplike", choice(["1", "1+x", "1-x", "1+x^2", "x^", "1+x^-1",
                                      "1 + 3x"])),
)
OBSTRUCT = command(
    "obstruct",
    required("--manifold", choice(SPACES + [MISSING])),
    required("--check", choice(["string", "heterotic", "fivebrane", "quadratic", "phase",
                            "relative", "wu", "integral-sw"])),
    *(flag(f"--{name}", choice(EXPRESSIONS)) for name in ("h4", "h5", "a", "b", "a2")),
    flag("--i", integer(0, 16)),
    flag("--j", integer(0, 16)),
)


def check(argv):
    """main(argv) ends in a typed exit, or argparse's usage exit, in time;
    a typed error prints one error line and no report."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage error 2, --help 0
            assert exc.code in (0, 2), (argv, exc.code)
            code = None
    assert time.perf_counter() - start < SECONDS, argv
    if code is not None:
        assert code in TYPED_EXITS, (argv, code)
        if code:
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith("error: ") and \
                err.getvalue().count("\n") == 1, (argv, err.getvalue())


@SETTINGS
@given(argv=st.one_of(TWIST, FGL))
def test_series_commands(argv):
    check(argv)


@SETTINGS
@given(argv=st.one_of(TOR, KHORAMI))
def test_module_commands(argv):
    check(argv)


@SETTINGS
@given(argv=st.one_of(AHSS, OBSTRUCT))
def test_space_commands(argv):
    check(argv)


@SETTINGS
@given(argv=st.lists(st.sampled_from(["twist", "tor", "ahss", "--json", "--n", "1",
                                      "bogus", "-h", "--help", ""]), max_size=4))
def test_stray_words(argv):
    check(argv)


# help, argparse errors and valid commands of every subcommand
PARSER_ARGV = [
    ["--help"],
    ["twist", "--encode", "(0,1)"],
    ["tor", "-h"],
    [],
    ["tor", "--module", "r0free", "--i", "0", "5", "--json"],
    ["twist", "--bogus"],
    ["khorami", "--module", "point"],
    ["tor", "--module", "point", "--against", "X"],
    ["ahss", "--space", "s3", "--n", "1", "--twist", "fundamental"],
    ["ahss", "--space", "s3"],
    ["fgl", "--two-series", "--height", "--json"],
    ["obstruct", "--manifold", "m10", "--check", "bogus"],
    ["obstruct", "--manifold", "genspin", "--check", "wu"],
    ["bogus"],
    ["twist", "--decode", "x"],
    ["khorami", "--help"],
    ["tor"],
    ["twist", "--vanishing", "5", "2", "--json"],
    ["fgl", "--solve-theta", "3", "stray"],
    ["twist"],
]


def outcome(argv):
    """Exit code, stdout and stderr of main(argv), argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_answers_like_a_fresh_one(monkeypatch):
    shared = cli.build_parser()
    codes = set()
    for argv in PARSER_ARGV + PARSER_ARGV[::-1]:
        monkeypatch.setattr(cli, "_parser", shared)
        reused = outcome(argv)
        monkeypatch.setattr(cli, "_parser", None)  # main builds a fresh parser
        fresh = outcome(argv)
        assert reused == fresh, argv
        codes.add(fresh[0])
    assert codes == {0, 2}


def test_long_tor_report_is_json_dumps():
    code, out, err = outcome(["tor", "--module", "r0free", "--i", "0", "1500", "--json"])
    assert code == 0 and err == ""
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def reference(argv):
    """Exit code, stdout and stderr when the top-level parser parses all
    of argv, subcommand included, and the command runs and renders as
    main runs and renders it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = cli.build_parser().parse_args(list(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
        try:
            report = getattr(cli, f"cmd_{args.command}")(args)
        except MoravakError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = exc.exit_code
        else:
            print(report.render(json_only=args.json), flush=True)
            code = 0
    return code, out.getvalue(), err.getvalue()


# abbreviated and =-joined flags, leftover words before and after --, a
# flag before the command, a truncated command, a negative pair value
EDGE_ARGV = [
    ["fgl", "--trunc", "8", "--two-series"],
    ["fgl", "--truncation=8", "--two-series"],
    ["twist", "--encode", "(0)", "extra", "more"],
    ["--json", "twist", "--encode", "(0)"],
    ["twist", "--encode", "(0)", "--", "x"],
    ["tw"],
    ["tor", "--module", "r0free", "--i", "-1", "4"],
]


def test_dispatch_answers_like_the_top_level_parser():
    for argv in PARSER_ARGV + EDGE_ARGV:
        assert outcome(argv) == reference(argv), argv


@SETTINGS
@given(argv=st.one_of(TWIST, TOR, KHORAMI, AHSS, FGL, OBSTRUCT))
def test_generated_dispatch_answers_like_the_top_level_parser(argv):
    assert outcome(argv) == reference(argv), argv
