"""Benchmark of moravak: seeded workloads run in-process through the CLI.

    python3 bench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

One process, one client, a closed loop: each request is
``moravak.cli.main(argv)`` with stdout captured, and the next request
starts when the previous one returned.  A pass is the workload's request
list once.  The run

1. writes the workload's seeded input files to a work directory inside
   this directory (not timed);
2. sets up five times -- drop moravak from ``sys.modules``, import it
   again and run one warm-up pass -- and reports the median as
   ``setup_s``;
3. runs whole passes until ``--seconds`` have gone by; set-ups and
   passes take turns on the CPUs the process may use;
4. checks every warm-up report against independent expectations, and
   every timed report for byte equality with its warm-up report.

With ``--trace 0`` it reports the end-to-end metrics: ``requests_per_s``
(requests of a pass over the sum of their times) and ``latency_p50_ms``
(median request time), where a request's time is its fastest timed
repetition; ``setup_s``; and ``peak_rss_mb``, the process's high-water
RSS before the checks run.  It also prints ``failed_ratio`` and, once at
least 100 requests were timed, ``latency_p90_ms`` over all of them.
With ``--trace 1`` it alternates plain and traced passes and reports the
per-layer metrics of ``tracer.py``, per traced pass, with
``trace.overhead_ratio`` (median traced pass over median plain pass).
The sha256 of one pass's report bytes is printed and compared with the
one recorded in ``digests.json`` for that seed, if any; a difference
means some report changed.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def use_cpu(turn: int) -> None:
    """Move this process to the next CPU it may use, by turn.

    A shared machine can slow one CPU for minutes while another runs at
    full speed, and the scheduler has no reason to move a lone process
    off the slow one.  Set-ups and passes take turns on the CPUs, so a
    request's fastest repetition comes from a CPU that was quick."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


def load_program():
    """Import moravak from this checkout afresh; returns moravak.cli."""
    for name in [m for m in sys.modules if m == "moravak" or m.startswith("moravak.")]:
        del sys.modules[name]
    cli = importlib.import_module("moravak.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"moravak was imported from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv: list[str]) -> tuple[int, str, float]:
    """Exit code, captured stdout and wall seconds of one request."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = -1
        print(f"request {argv} raised:\n{traceback.format_exc()}", file=sys.stderr)
    elapsed = perf_counter() - start
    if code != 0:
        print(f"request {argv} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code, out.getvalue(), elapsed


def report_bytes(code: int, out: str) -> bytes:
    return f"{code}\n".encode() + out.encode()


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[dict, list[str]]:
    """Result object (the last output line) and the human-readable lines."""
    import workloads  # needs tests/ on sys.path for the oracles, see main()

    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        requests = workloads.build(workload, seed, work, tiny)
        setups, warm_passes = [], []
        for turn in range(SETUP_REPEATS):
            use_cpu(turn)
            start = perf_counter()
            cli = load_program()
            results = [call(cli, r.argv) for r in requests]
            setups.append(perf_counter() - start)
            warm_passes.append([report_bytes(code, out) for code, out, _ in results])
        warm = warm_passes[-1]
        warm_reports = [(code, out) for code, out, _ in results]
        attempted = SETUP_REPEATS * len(requests)
        mismatches = [sum(p[i] != warm[i] for p in warm_passes) for i in range(len(requests))]

        def timed_pass() -> float:
            nonlocal attempted
            total = 0.0
            for i, r in enumerate(requests):
                code, out, elapsed = call(cli, r.argv)
                times[i].append(elapsed)
                total += elapsed
                attempted += 1
                mismatches[i] += report_bytes(code, out) != warm[i]
            return total

        times: list[list[float]] = [[] for _ in requests]
        if trace:
            from tracer import Tracer
            tracer, plain, traced = Tracer(), [], []
            start = perf_counter()
            while not traced or perf_counter() - start < seconds:
                use_cpu(len(traced))
                plain.append(timed_pass())
                tracer.install()
                try:
                    traced.append(timed_pass())
                finally:
                    tracer.remove()
            metrics = tracer.metrics(len(traced))
            metrics["trace.overhead_ratio"] = (
                statistics.median(traced) / statistics.median(plain), "ratio")
            passes = len(traced)
        else:
            start = perf_counter()
            passes = 0
            while passes == 0 or perf_counter() - start < seconds:
                use_cpu(passes)
                timed_pass()
                passes += 1
            # Other tenants of a shared machine only ever add time, so each
            # request is timed by its fastest repetition.
            best = [min(t) for t in times]
            metrics = {
                "requests_per_s": (len(requests) / sum(best), "1/s"),
                "latency_p50_ms": (1000 * statistics.median(best), "ms"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MB"),
            }
        # checks run after timing, so the oracles' memory is not in peak_rss_mb
        problems = [r.check(code, out) for r, (code, out) in zip(requests, warm_reports)]
    finally:
        if len(CPUS) > 1:
            os.sched_setaffinity(0, CPUS)
        shutil.rmtree(work, ignore_errors=True)

    runs = attempted // len(requests)
    failed = 0
    lines = [f"workload {workload} seed {seed}: {len(requests)} requests a pass, "
             f"{SETUP_REPEATS} setups, {passes} {'traced ' if trace else ''}passes"]
    for i, (r, problem) in enumerate(zip(requests, problems)):
        if problem is not None:
            failed += runs
            lines.append(f"FAILED check: {' '.join(r.argv)}: {problem}")
        elif mismatches[i]:
            failed += mismatches[i]
            lines.append(f"FAILED: {' '.join(r.argv)}: {mismatches[i]} runs gave other "
                         "report bytes than the checked one")
    digest = hashlib.sha256(b"".join(warm)).hexdigest()
    lines.append(f"digest sha256 {digest}{_digest_note(workload, seed, tiny, digest)}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit}")
    if not trace:
        latencies = [t for per_request in times for t in per_request]
        if len(latencies) >= 100:
            p90 = statistics.quantiles(latencies, n=10)[8]
            lines.append(f"latency_p90_ms {1000 * p90:.6g} ms ({len(latencies)} samples)")
        else:
            lines.append(f"latency_p90_ms not reported: {len(latencies)} samples, "
                         "fewer than 100")
    lines.append(f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, lines


def _digest_note(workload: str, seed: int, tiny: bool, digest: str) -> str:
    """Compare with the digest recorded for this workload and seed, if any."""
    recorded = json.loads(DIGESTS.read_text()).get(str(seed), {}).get(workload)
    if tiny or recorded is None:
        return ""
    if recorded == digest:
        return " (matches the recorded digest)"
    return f" (DIFFERS from the recorded digest {recorded}: report bytes changed)"


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


WORKLOADS = ("ahss-relations", "ahss-free", "khorami-bar", "readme-mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "moravak").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        print("error: bench/ must sit in a moravak checkout next to src/ and tests/",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    if args.workload == "all":
        result = run_all(args)
    else:
        result, lines = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
        print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
