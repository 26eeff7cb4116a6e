"""Quick self-test of the benchmark (about a minute):

    python3 bench/selftest.py

1. Runs bench/run.py on every workload for one timed pass, untraced and
   traced, and asserts that no call failed, that the printed metrics are
   exactly those named in BENCHMARK.json, and that in the traced run the self
   times of the layers add up to the traced pass time within the tracing
   overhead.
2. Feeds each workload's output check a deliberately perturbed output and
   asserts that the check rejects it.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 1


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            assert result["failed"] == 0 and result["correct"], (workload, trace, result)
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, (workload, trace, set(got) ^ set(wanted))
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
        record = json.loads((BENCH / "out" / f"run-{workload}-seed{SEED}-trace1.json").read_text())
        overhead = abs(record["tracing_overhead_ms"])
        gap = abs(record["traced_pass_mean_ms"] - record["call_tree_ms_per_pass"])
        assert gap <= overhead, (workload, gap, overhead)
        print(f"ok  {workload}: untraced and traced runs, self times within {gap:.4f} ms")


def _perturbations():
    """(workload, index of the call, description, edit of the parsed report)."""

    def shift_order_endpoint(r):
        row = r["orders"]["40"][0]
        row[-1] += 0.05 * max(abs(v) for rows in r["orders"]["40"] for v in rows)

    def shift_2jet_endpoint(r):
        r["path"]["a"][-1] += 1e-9

    def scale_shift(r):
        r["difference"] *= 1 + 1e-9

    def wrong_obstruction_eps(r):
        r["epsilon"] += 1e-9

    def shift_endpoint(r):
        r["b"][-1] += 2e-9

    def bend_path(r):
        r["a"][20] += 1e-8

    def wrong_sigma2(r):
        r["sigma2"] *= 1 + 1e-3

    def wrong_pde_eps(r):
        r["epsilon_estimate"] *= 1 + 1e-3

    def wide_spread(r):
        r["relative_spread"] = 0.05

    return (
        ("hierarchy", 0, "shifted order-40 endpoint", shift_order_endpoint),
        ("hierarchy", 0, "shifted 2-jet endpoint", shift_2jet_endpoint),
        ("obstruction", 0, "scaled shift", scale_shift),
        ("obstruction", 0, "wrong epsilon", wrong_obstruction_eps),
        ("causal_mix", 0, "shifted endpoint", shift_endpoint),
        ("causal_mix", 0, "bent path", bend_path),
        ("causal_mix", 0, "wrong sigma2", wrong_sigma2),
        ("pde_check", 0, "wrong epsilon", wrong_pde_eps),
        ("pde_check", 0, "sigma2 spread over the ceiling", wide_spread),
    )


def check_rejections() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from torusjets import cli

    scratch = BENCH / "out" / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)

    def run_cli(argv, out):
        assert cli.main(argv + ["--output", str(out)]) == 0, argv
        return json.loads(out.read_text())

    try:
        cases = {}
        for name, index, what, edit in _perturbations():
            workload = workloads.WORKLOADS[name]
            if (name, index) not in cases:
                call = workload.calls(SEED, scratch)[index]
                report = run_cli(call.argv, scratch / "report.json")
                ref = workload.references([call], run_cli, scratch)[0]
                workload.check(call, report, ref)  # the unperturbed output passes
                cases[(name, index)] = (call, report, ref)
            call, report, ref = cases[(name, index)]
            bad = copy.deepcopy(report)
            edit(bad)
            try:
                workload.check(call, bad, ref)
            except workloads.CheckFailed as exc:
                print(f"ok  {name}: {what} rejected ({exc})")
            else:
                raise AssertionError(f"{name}: the check accepted a {what}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_runs(spec)
    check_rejections()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
