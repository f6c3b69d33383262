"""Golden corpus: every recorded argv must reproduce its exit code,
stdout and stderr byte for byte.

Record the argv that the corpus lacks:

    PYTHONPATH=src python tests/test_golden.py

The recorder never rewrites a recorded entry.  If one's output has
changed it writes nothing and exits 1, naming each such argv; to
re-record an entry on purpose, delete it from the corpus first.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from moravak import fixtures
from moravak.cli import main
from moravak.f2alg import format_monomial
from moravak.obstruct import ManifoldData
from moravak.spacefile import parse_file

GOLDEN = Path(__file__).parent / "golden" / "corpus.json"

README = [
    ("twist", "--encode", "(0,1)"),
    ("twist", "--vanishing", "4", "2"),
    ("tor", "--module", "r0free", "--against", "M"),
    ("khorami", "--module", "r0free"),
    ("ahss", "--space", "s3", "--n", "1", "--twist", "fundamental"),
    ("ahss", "--space", "synth12", "--n", "2", "--twist", "h4", "--integral"),
    ("fgl", "--law", "gm", "--check-grouplike", "1+x"),
    ("fgl", "--law", "gm", "--two-series", "--solve-theta", "4", "--height"),
    ("obstruct", "--manifold", "genspin", "--check", "wu", "--i", "7", "--j", "8"),
    ("obstruct", "--manifold", "m10", "--check", "phase", "--a", "c", "--b", "b"),
    ("obstruct", "--manifold", "pair12", "--check", "relative", "--h4", "u4"),
]
SPACES = ["fb12", "genspin", "m10", "pair12", "point", "rp6", "rp_inf", "s3", "synth12",
          "trunc_mix"]
MANIFOLDS = ["genspin", "m10", "pair12", "fb12", "synth12"]
CHECKS = ["string", "heterotic", "fivebrane", "quadratic",
          "phase", "relative", "wu", "integral-sw"]


def twists(space: str) -> list[tuple[str, list[str]]]:
    """(n, twists) for n in 1..3 with n + 2 within the cap: every basis
    monomial of degree n + 2, plus their sum when there are several."""
    model = parse_file(fixtures.path(space)).model
    algebra = (model.space if isinstance(model, ManifoldData) else model).algebra
    out = []
    for n in (1, 2, 3):
        if n + 2 > algebra.degree_cap:
            continue
        terms = [format_monomial(m) for m in algebra.basis(n + 2)]
        if len(terms) > 1:
            terms.append(" + ".join(terms))
        out.append((str(n), terms))
    return out


def corpus_argv() -> list[list[str]]:
    argvs = [[*argv, "--json"] for argv in README]
    for space in SPACES:
        for n in ("1", "2"):
            base = ["ahss", "--space", space, "--n", n, "--twist", "0"]
            argvs += [base, base + ["--integral"]]
    for space in SPACES:
        for n, terms in twists(space):
            for twist in terms:
                base = ["ahss", "--space", space, "--n", n, "--twist", twist]
                argvs += [base, base + ["--integral"]]
    argvs += [["obstruct", "--manifold", m, "--check", c]
              for m in MANIFOLDS for c in CHECKS]
    for module in ("point", "r0free"):
        argvs += [["tor", "--module", module, "--against", "M"],
                  ["tor", "--module", module, "--against", "N"],
                  ["khorami", "--module", module]]
    # long ranges, where the indices i >= 1 share one entry per parity
    argvs += [["tor", "--module", "r0free", "--i", "3", "40"],
              ["tor", "--module", "r0free", "--k", "1", "--against", "N",
               "--i", "2", "41", "--json"]]
    # range edges: empty, index 0 alone and with one class, one class alone,
    # key order across a change of digit count, and a negative first index
    tor = ["tor", "--module", "r0free", "--i"]
    argvs += [tor + ["5", "4"], tor + ["0", "0"], tor + ["0", "1"],
              tor + ["1", "1", "--json"], tor + ["95", "105", "--json"],
              tor + ["995", "1005"], tor + ["-1", "3"]]
    # twist and fgl routes that no argv above reaches
    argvs += [["twist", "--hom", "(0,2)", "--n", "2", "--factors", "4"],
              ["twist", "--decode", "5", "--truncation", "4"],
              ["twist", "--multiply", "(0)", "(0,1)"],
              ["fgl", "--law", "additive", "--two-series", "--solve-theta", "3", "--height"],
              ["fgl", "--law", "gm", "--modulus", "8", "--truncation", "8", "--two-series"]]
    # a wrong-degree twist is refused before the integral data is asked for
    argvs += [["ahss", "--space", "rp_inf", "--n", "1", "--twist", "t^2", "--integral"],
              ["ahss", "--space", "rp_inf", "--n", "1", "--twist", "t^2"]]
    # declared classes of the wrong degree, or of none, on every checked route
    argvs += [["obstruct", "--manifold", "m10", "--check", "heterotic", "--a", "r", "--b", "c"],
              ["obstruct", "--manifold", "m10", "--check", "heterotic", "--a", "b", "--b", "r"],
              ["obstruct", "--manifold", "m10", "--check", "quadratic", "--a", "b", "--a2", "r"],
              ["obstruct", "--manifold", "synth12", "--check", "string", "--h4", "g6"],
              ["obstruct", "--manifold", "fb12", "--check", "fivebrane", "--h5", "g7"],
              ["obstruct", "--manifold", "m10", "--check", "string", "--h4", "b+r"],
              ["ahss", "--space", "synth12", "--n", "2", "--twist", "g6"],
              ["ahss", "--space", "synth12", "--n", "2", "--twist", "h4+g6"]]
    # the fundamental twist and the string checks with a nonzero twist
    argvs += [["ahss", "--space", "rp6", "--n", "1", "--twist", "fundamental"],
              ["ahss", "--space", "rp6", "--n", "2", "--twist", "fundamental", "--integral"],
              ["ahss", "--space", "s3", "--n", "1", "--twist", "fundamental", "--integral"],
              ["ahss", "--space", "m10", "--n", "2", "--twist", "fundamental"],
              ["obstruct", "--manifold", "synth12", "--check", "string", "--h4", "h4"],
              ["obstruct", "--manifold", "m10", "--check", "string", "--h4", "b"],
              ["obstruct", "--manifold", "pair12", "--check", "string", "--h4", "u4"],
              ["obstruct", "--manifold", "m10", "--check", "relative", "--h4", "c"]]
    # a single-factor module file, which tor reads as is and khorami places
    # in the default tensor truncation
    argvs += [["tor", "--module", "b1free", "--against", "M"],
              ["tor", "--module", "b1free", "--against", "N"],
              ["tor", "--module", "b1free", "--k", "1"],
              ["khorami", "--module", "b1free"]]
    # the degree note at an odd prime
    argvs += [["twist", "--vanishing", "5", "3", "--p", "3"]]
    return argvs


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def merge(corpus: list[dict], argvs: list[list[str]], run) -> tuple[list[dict], list[str]]:
    """The corpus with an entry appended for each argv it lacks, and the
    recorded argv whose output ``run`` no longer reproduces."""
    recorded = {" ".join(case["argv"]) for case in corpus}
    changed = [" ".join(case["argv"]) for case in corpus if run(case["argv"]) != case]
    return corpus + [run(argv) for argv in argvs if " ".join(argv) not in recorded], changed


def test_recorder_adds_missing_argv_and_rewrites_none():
    outputs = {"a": 0, "b": 3}
    fake = lambda argv: {"argv": argv, "code": outputs[argv[0]]}  # noqa: E731
    corpus, changed = merge([fake(["a"])], [["a"], ["b"]], fake)
    assert corpus == [fake(["a"]), fake(["b"])] and changed == []
    outputs["a"] = 2
    assert merge(corpus, [["a"], ["b"]], fake) == (corpus, ["a"])


@pytest.fixture(scope="module")
def recorded() -> dict:
    return {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", corpus_argv(), ids=" ".join)
def test_golden(argv, recorded):
    assert run(argv) == recorded[" ".join(argv)]


if __name__ == "__main__":
    corpus = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    corpus, changed = merge(corpus, corpus_argv(), run)
    if changed:
        sys.exit("recorded output changed; delete the entry to re-record it:\n  "
                 + "\n  ".join(changed))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(corpus, indent=1) + "\n")
