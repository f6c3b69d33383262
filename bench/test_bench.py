"""Tests of the benchmark itself: tiny runs of every workload with all
checks on, and checks of the checkers."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def keep_program_modules():
    """run.load_program re-imports moravak; give other tests theirs back."""
    saved = {k: v for k, v in sys.modules.items()
             if k == "moravak" or k.startswith("moravak.")}
    yield
    for name in [k for k in sys.modules if k == "moravak" or k.startswith("moravak.")]:
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct(workload, trace):
    result, lines = run.run_workload(workload, 7, seconds=0, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= run.SETUP_REPEATS + 1
    json.dumps(result)
    if trace:
        metrics = result["metrics"]
        assert metrics["trace.overhead_ratio"]["value"] > 0
        assert metrics["cli.calls"]["value"] > 0
        if workload == "khorami-bar":
            assert metrics["f2alg.calls"]["value"] == 0
            assert metrics["steenrod.calls"]["value"] == 0
    else:
        assert set(result["metrics"]) == {"requests_per_s", "latency_p50_ms",
                                          "setup_s", "peak_rss_mb"}


def _corrupt(value):
    """Change the first integer leaf, else the first flag, else the first
    string, in sorted key order."""
    for kind in (int, bool, str):
        new, done = _corrupt_first(value, kind)
        if done:
            return new
    raise AssertionError(f"nothing to corrupt in {value!r}")


def _corrupt_first(value, kind):
    """(value with its first leaf of this kind changed, whether there was one)"""
    if isinstance(value, dict):
        for key in sorted(value):
            new, done = _corrupt_first(value[key], kind)
            if done:
                return {**value, key: new}, True
    elif isinstance(value, list):
        for i, item in enumerate(value):
            new, done = _corrupt_first(item, kind)
            if done:
                return value[:i] + [new] + value[i + 1:], True
    elif kind is int and type(value) is int:
        return value + 1, True
    elif kind is bool and type(value) is bool:
        return not value, True
    elif kind is str and isinstance(value, str):
        return value + "x", True
    return value, False


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_reports_fail_their_checks(workload, tmp_path):
    cli = run.load_program()
    for request in workloads.build(workload, 7, tmp_path, tiny=True):
        code, out, _ = run.call(cli, request.argv)
        assert request.check(code, out) is None, request.argv
        text, sep, block = out.partition("\n--- json ---\n")
        doc = json.loads(block if sep else out)
        doc["payload"] = _corrupt(doc["payload"])
        bad = json.dumps(doc, sort_keys=True, indent=2)
        assert request.check(code, text + sep + bad if sep else bad) is not None, \
            request.argv
        assert request.check(3, out) is not None


def test_failed_check_counts_in_the_run(monkeypatch):
    build = workloads.build

    def swapped(name, seed, work, tiny=False):
        requests = build(name, seed, work, tiny)
        requests[0].check, requests[1].check = requests[1].check, requests[0].check
        return requests

    monkeypatch.setattr(workloads, "build", swapped)
    result, lines = run.run_workload("khorami-bar", 7, seconds=0, trace=False, tiny=True)
    assert not result["correct"]
    assert result["failed"] == 2 * (run.SETUP_REPEATS + 1)
    assert any(line.startswith("FAILED check") for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    runs = []
    for name in ("a", "b"):
        work = tmp_path / name
        work.mkdir()
        argvs = [[arg.replace(str(work), "") for arg in r.argv]
                 for r in workloads.build(workload, 3, work)]
        files = {p.name: p.read_text() for p in work.iterdir()}
        runs.append((argvs, files))
    assert runs[0] == runs[1]


def test_missing_trace_target_fails_loudly(monkeypatch):
    import tracer

    run.load_program()
    monkeypatch.delattr(sys.modules["moravak.gf2"], "reduce_rows")
    t = tracer.Tracer()
    with pytest.raises(tracer.TraceError, match="gf2.reduce_rows"):
        t.install()
    assert not t._patches  # nothing was wrapped before the check failed
