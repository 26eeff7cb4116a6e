"""One fresh process of a benchmark run; bench/run.py starts it, one at a time.

--mode setup imports torusjets, builds the seeded inputs and reports how long
that took since the parent started the process.  --mode run then makes one
untimed warm-up pass and the timed passes, every call going through
torusjets.cli.main in this process from its main thread.  With --trace 1 every
other timed pass runs with spans around the layers.  Peak RSS is read after the
passes; only then are the references computed and the outputs checked.  The
result is written as JSON to --result.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_EVERY_S = 0.25
PROBE_REF_MS = 11.0  # the probe's time on the reference machine at full speed


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--started", type=float, required=True,
                   help="time.monotonic() of the parent when it started this process")
    p.add_argument("--scratch", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--trace-file", type=Path, default=None)
    return p.parse_args(argv)


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import torusjets
    import torusjets.cli

    where = Path(torusjets.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"torusjets was imported from {where}, not from this checkout")
    return torusjets


def _environment(torusjets) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "torusjets": torusjets.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "cpus": len(os.sched_getaffinity(0)),
    }


def _invoke(main, argv) -> str | None:
    """Run one CLI call; return None on success or a description of the failure."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a call that raises counts as failed; the run goes on
        return traceback.format_exc(limit=3)
    return None if code == 0 else f"exit code {code}"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """Calls, their outputs and failures over the passes of one process."""

    def __init__(self, main, calls, scratch: Path):
        self.main = main
        self.calls = calls
        self.scratch = scratch
        self.attempted = 0
        self.errors = []          # (call index, message) of calls that did not finish
        self.outputs = {}         # (call index, digest) -> kept output file
        self.seen = []            # (call index, digest) of every finished call

    def call(self, index: int, tracer=None) -> tuple[float, float]:
        """Time one call, returning (start, seconds); with a tracer, inside a cli.main span."""
        path = self.scratch / f"call-{index}.json"
        argv = self.calls[index].argv + ["--output", str(path)]
        span = tracer.open(tracer.ROOT) if tracer is not None else None
        start = time.perf_counter()
        error = _invoke(self.main, argv)
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
        self.attempted += 1
        if error is not None:
            self.errors.append((index, error))
            return start, elapsed
        digest = _digest(path)
        key = (index, digest)
        if key not in self.outputs:
            kept = self.scratch / f"call-{index}-{len(self.outputs)}.json"
            shutil.copyfile(path, kept)
            self.outputs[key] = kept
        self.seen.append(key)
        return start, elapsed


class HostProbe:
    """Fixed work that imports nothing from torusjets, timed between the calls.

    The reference host runs in spells of full and reduced speed, lasting
    seconds to minutes, and every kind of code slows by 1.4-1.9x in the slow
    spells.  Each call's time is scaled by PROBE_REF_MS over the mean of the
    probes just before and just after it, which reads as the call's time on
    the host at full speed.  The probe mixes interpreter loops, small-array
    numpy calls and 129x129 BLAS products, as the package does.
    """

    def __init__(self):
        self._vec = np.linspace(0.0, 1.0, 129)
        self._mat = np.eye(129) + np.outer(self._vec, self._vec) / 129.0
        self.ends = []     # perf_counter() at the end of each probe
        self.samples = []  # ms of [interpreter, small arrays, BLAS] per probe

    def measure(self) -> None:
        marks = [time.perf_counter()]
        acc = 0.0
        for i in range(50000):
            acc += (i % 7) * 0.5
        marks.append(time.perf_counter())
        vec = self._vec
        for _ in range(1000):
            vec = np.sin(vec) * 0.5 + 0.25
        marks.append(time.perf_counter())
        mat = self._mat
        for _ in range(50):
            mat = mat @ mat
            mat /= np.max(np.abs(mat))
        marks.append(time.perf_counter())
        self.samples.append([(b - a) * 1e3 for a, b in zip(marks, marks[1:])])
        self.ends.append(marks[-1])

    def measure_if_due(self) -> None:
        if time.perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.measure()

    def scale(self, start: float, end: float) -> float:
        before = max(bisect.bisect_right(self.ends, start) - 1, 0)
        after = min(bisect.bisect_left(self.ends, end), len(self.ends) - 1)
        return PROBE_REF_MS / ((sum(self.samples[before]) + sum(self.samples[after])) / 2)


def _run_cli(main, argv, output: Path):
    """Reference runs of the package itself (the coarse hierarchy grid)."""
    if _invoke(main, argv + ["--output", str(output)]) is not None:
        return None
    return json.loads(output.read_text())


def main(argv=None) -> int:
    args = _parse_args(argv)
    torusjets = _import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    calls = workload.calls(args.seed, args.scratch)
    setup_s = time.monotonic() - args.started
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        args.result.write_text(json.dumps(result))
        return 0

    cli = torusjets.cli
    run = Run(cli.main, calls, args.scratch)
    tracer = None
    if args.trace:
        from scipy.sparse.linalg import LinearOperator

        import tracing
        from torusjets.jet_propagation import JetHierarchy, source_K1

        tracer = tracing.Tracer(sys.modules, LinearOperator, JetHierarchy)

    for index in range(len(calls)):
        run.call(index)

    probe = HostProbe()
    probe.measure()
    passes = []  # (traced, [(start, seconds) of each call])
    for p in range(args.passes):
        traced = tracer is not None and p % 2 == 1
        if traced:
            tracer.pass_index = sum(t for t, _ in passes)
            tracer.install()
        timings = []
        for index in range(len(calls)):
            probe.measure_if_due()
            timings.append(run.call(index, tracer if traced else None))
            if traced:
                # source_K1 at the top order of each finished hierarchy, outside the pass time
                for hier in tracer.finished_hierarchies:
                    span = tracer.open(tracing.SOURCE_K1)
                    source_K1(hier, max(hier.orders))
                    tracer.close(span)
                tracer.finished_hierarchies.clear()
        if traced:
            tracer.uninstall()
        passes.append((traced, timings))
    probe.measure()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def pass_ms(traced: bool, scaled: bool) -> list:
        return [
            1e3 * sum(sec * (probe.scale(start, start + sec) if scaled else 1.0)
                      for start, sec in timings)
            for was_traced, timings in passes if was_traced == traced
        ]

    refs = workload.references(calls, lambda a, out: _run_cli(cli.main, a, out), args.scratch)
    verdicts = {}
    for (index, digest), path in run.outputs.items():
        try:
            report = json.loads(path.read_text())
            verdicts[(index, digest)] = workload.check(calls[index], report, refs[index])
        except (workloads.CheckFailed, IndexError, KeyError, TypeError, ValueError) as exc:
            verdicts[(index, digest)] = f"{type(exc).__name__}: {exc}"
    failures = [f"call {i} ({' '.join(calls[i].argv[:1])}): {msg}" for i, msg in run.errors]
    failed = len(run.errors)
    for key in run.seen:
        if isinstance(verdicts[key], str):
            failed += 1
    failures += sorted({f"call {k[0]}: {v}" for k, v in verdicts.items() if isinstance(v, str)})
    passed = [v for v in verdicts.values() if not isinstance(v, str)]

    result.update({
        "attempted": run.attempted,
        "failed": failed,
        "failures": failures[:20],
        "pass_ms": pass_ms(False, scaled=False),
        "pass_scaled_ms": pass_ms(False, scaled=True),
        "probe_ms": probe.samples,
        "peak_rss_mb": peak_rss_mb,
        # mean over the distinct passing outputs of each one's correct digits
        "accuracy_digits": (statistics.fmean(workloads.digits(v) for v in passed)
                            if passed else None),
        "worst_disagreement": max(passed) if passed else None,
        "environment": _environment(torusjets),
    })
    if tracer is not None:
        traced_ms = pass_ms(True, scaled=False)
        result.update({
            "traced_ms": traced_ms,
            "layers": tracer.layer_metrics(len(traced_ms)),
            "call_tree_ms_per_pass": tracer.call_tree_ms() / len(traced_ms),
            "traced_pass_mean_ms": statistics.fmean(traced_ms),
            "tracing_overhead_ms": statistics.median(pass_ms(True, scaled=True))
            - statistics.median(pass_ms(False, scaled=True)),
        })
        if args.trace_file is not None:
            args.trace_file.write_text(json.dumps(tracer.dump()))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
