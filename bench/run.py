"""Benchmark of the torusjets jet chain: one workload per invocation.

    python3 bench/run.py --workload hierarchy --seed 1 --seconds 15 --trace 0

Run from any directory of a checkout; torusjets is imported from its src/.
A run starts fresh processes one after another, each with OpenBLAS and OpenMP
pinned to one thread: set-up-only processes that import the package and build
the seeded inputs, and one worker that makes an untimed warm-up pass, then a fixed
number of timed passes, then checks every output (bench/worker.py).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
run whose every other pass is traced.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it and bench/out/ hold the run record (git SHA, versions, threads, raw
samples).  The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEADLINE_S = 170.0

# Seconds one pass took on the reference machine (README).  The number of
# timed passes is --seconds divided by this, so it is the same in every run.
NOMINAL_PASS_S = {
    "hierarchy": 2.8,
    "obstruction": 0.045,
    "causal_mix": 2.4,
    "pde_check": 2.1,
}
SETUP_ONLY = (2, 2)  # set-up-only processes before and after the worker: 5 set-up samples
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(NOMINAL_PASS_S), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Launcher:
    """Starts the processes of one run and stops them by the deadline."""

    def __init__(self, args, scratch: Path):
        self.args = args
        self.scratch = scratch
        self.started = time.monotonic()
        self.env = dict(os.environ, **PINNED)
        self.count = 0

    def start(self, mode: str, *extra: str) -> dict:
        self.count += 1
        result = self.scratch / f"result-{self.count}.json"
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise RuntimeError("the run passed its deadline")
        cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--scratch", str(self.scratch), "--result", str(result), *extra,
               "--started", repr(time.monotonic())]
        proc = subprocess.run(cmd, env=self.env, timeout=remaining, stdin=subprocess.DEVNULL)
        if proc.returncode != 0 or not result.is_file():
            raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
        return json.loads(result.read_text())


def _measure(args, launcher: Launcher, passes: int) -> dict:
    """Start the processes of a run; return the worker's result with all set-up samples."""
    setups = []
    if not args.trace:
        setups += [launcher.start("setup")["setup_s"] for _ in range(SETUP_ONLY[0])]
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    worker = launcher.start("run", "--passes", str(passes), "--trace", str(args.trace),
                           "--trace-file", str(trace_file))
    setups.append(worker["setup_s"])
    if not args.trace:
        setups += [launcher.start("setup")["setup_s"] for _ in range(SETUP_ONLY[1])]
    worker["setup_samples_s"] = setups
    return worker


def _metrics(args, worker: dict) -> dict:
    if args.trace:
        return worker["layers"]
    return {
        "setup_s": {"value": statistics.median(worker["setup_samples_s"]), "unit": "s"},
        "pass_p50_ms": {"value": statistics.median(worker["pass_scaled_ms"]), "unit": "ms"},
        "accuracy_digits": {"value": worker["accuracy_digits"], "unit": "digits"},
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MiB"},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    for needed in (ROOT / "src" / "torusjets" / "__init__.py", ROOT / "tests" / "_oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a torusjets checkout",
                  file=sys.stderr)
            return 2
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    if args.trace:
        passes = max(2, passes)  # at least one untraced and one traced pass
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        worker = _measure(args, Launcher(args, scratch), passes)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in worker["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    if worker["accuracy_digits"] is None:
        print("error: no output passed its check", file=sys.stderr)
        return 1

    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": _metrics(args, worker),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "timed_passes": passes, "git_sha": git_sha(),
        **worker,
        "result": result,
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    summary = {k: record[k] for k in ("git_sha", "timed_passes", "environment")}
    if args.trace:
        summary["tracing_overhead_ms"] = worker["tracing_overhead_ms"]
    print(json.dumps({"run": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
