"""Workloads of the jet-chain benchmark: seeded inputs, call lists and output checks.

Each workload builds its inputs from a seed, lists the CLI calls of one pass,
computes references for those calls without the code under test (or, for the
hierarchy, with a coarser grid of it), and checks a parsed report against its
reference.  A check returns the worst relative disagreement it saw and raises
CheckFailed when a tolerance is exceeded.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
UNIT_ROUNDOFF = 2.0 ** -53


class CheckFailed(Exception):
    """An output disagrees with its reference beyond the stated tolerance."""


@dataclass(frozen=True)
class Call:
    """One CLI call of a pass: its arguments (without --output) and its input."""

    argv: list
    meta: dict


def digits(disagreement: float) -> float:
    """Correct digits implied by a relative disagreement, capped at float64 resolution."""
    return -math.log10(max(disagreement, UNIT_ROUNDOFF))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _lobatto_nodes(count: int) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(np.pi * np.arange(count) / (count - 1)))


# ---------------------------------------------------------------------------
# hierarchy: propagate --max-order 40 --nodes 129 over space-like pairs
# ---------------------------------------------------------------------------

def _sin_power_series(power: int, half: int) -> list:
    """Exact Taylor coefficients of sin(u)^power up to u^(2*half)."""
    size = 2 * half + 1
    sin = [Fraction(0)] * size
    for k in range(half):
        sin[2 * k + 1] = Fraction((-1) ** k, math.factorial(2 * k + 1))
    out = [Fraction(1)] + [Fraction(0)] * (size - 1)
    for _ in range(power):
        out = [sum(out[i] * sin[d - i] for i in range(d + 1)) for d in range(size)]
    return out


def taylor_jets(terms, order: int) -> dict:
    """Even-order jets of sum c sin(x)^px sin(y)^py, index i multiplying x^(2d-2i) y^(2i)."""
    half = order // 2
    jets = {2 * d: [Fraction(0)] * (d + 1) for d in range(1, half + 1)}
    for coeff, px, py in terms:
        sx = _sin_power_series(px, half)
        sy = _sin_power_series(py, half)
        for d in range(1, half + 1):
            for i in range(d + 1):
                jets[2 * d][i] += Fraction(coeff) * sx[2 * d - 2 * i] * sy[2 * i]
    return {k: np.array([float(c) for c in v]) for k, v in jets.items()}


class Hierarchy:
    """Jets to order 40 on 129 nodes; checked at the ends and against 65 nodes."""

    MAX_ORDER = 40
    NODES = 129
    COARSE_NODES = 65  # Lobatto nodes of 65 are every other node of 129
    PAIRS = 8  # the per-output digits swing by decades; more pairs steady their mean
    TWO_JET_TOL = 1e-12
    # Orders near 40 lose up to twelve digits to the conditioning of the q
    # basis: the worst disagreement over the 320 pairs of seeds 1-40 was 2.1e-4.
    # This check catches orders that are wrong in their leading digits;
    # accuracy_digits tracks the lost digits.
    ORDER_TOL = 1e-2

    def calls(self, seed: int, scratch: Path) -> list:
        rng = random.Random(seed)
        out = []
        for i in range(self.PAIRS):
            # Endpoints (X, Z) of the half-plane chord, X = 2a - 2b, Z = 1 + 2a + 2b.
            # |dZ| < |dX| makes the pair space-like; a chord of at most 0.1 keeps
            # eps below pi/80, so no mode of order <= 40 can resonate.
            z0 = rng.uniform(0.9, 1.1)
            x0 = rng.uniform(-0.1, 0.1)
            length = rng.uniform(0.06, 0.1)
            slope = rng.uniform(-0.6, 0.6)
            swapped = i % 2 == 0  # X1 < X0: the propagator flips the axes
            z1 = z0 + slope * length
            x1 = x0 + (-length if swapped else length)
            sides = {
                "phi0": {"terms": [[(z0 - 1 + x0) / 4, 2, 0], [(z0 - 1 - x0) / 4, 0, 2]]},
                "phi1": {"terms": [[(z1 - 1 + x1) / 4, 2, 0], [(z1 - 1 - x1) / 4, 0, 2]]},
            }
            eps = math.acos((z0 * z0 + z1 * z1 - (x1 - x0) ** 2) / (2 * z0 * z1)) / 4
            assert 4 * eps * (self.MAX_ORDER // 2) < math.pi, "input would resonate"
            spec = scratch / f"hierarchy-{i}.json"
            spec.write_text(json.dumps(sides))
            argv = ["propagate", "--spec", str(spec), "--max-order", str(self.MAX_ORDER),
                    "--nodes", str(self.NODES)]
            out.append(Call(argv, {"sides": sides, "swapped": swapped}))
        return out

    def references(self, calls, run_cli, scratch: Path) -> list:
        refs = []
        for i, call in enumerate(calls):
            coarse_argv = list(call.argv)
            coarse_argv[coarse_argv.index("--nodes") + 1] = str(self.COARSE_NODES)
            refs.append({
                "coarse": run_cli(coarse_argv, scratch / f"hierarchy-coarse-{i}.json"),
                "jets0": taylor_jets(call.meta["sides"]["phi0"]["terms"], self.MAX_ORDER),
                "jets1": taylor_jets(call.meta["sides"]["phi1"]["terms"], self.MAX_ORDER),
            })
        return refs

    def check(self, call: Call, report: dict, ref: dict) -> float:
        _require(report.get("type") == "hierarchy",
                 f"expected a hierarchy, got {report.get('type')}")
        coarse = ref["coarse"]
        _require(coarse is not None, "the 65-node reference run failed")
        path = report["path"]
        _require(path["swapped_axes"] == call.meta["swapped"],
                 f"swapped_axes is {path['swapped_axes']}, expected {call.meta['swapped']}")
        t = np.array(path["t"])
        _require(t.shape == (self.NODES,)
                 and np.max(np.abs(t[::2] - np.array(coarse["path"]["t"]))) < 1e-14,
                 "the 129- and 65-node grids do not nest")

        a, b = np.array(path["a"]), np.array(path["b"])
        j0, j1 = ref["jets0"][2], ref["jets1"][2]
        hit = max(abs(a[0] - j0[0]), abs(b[0] - j0[1]), abs(a[-1] - j1[0]), abs(b[-1] - j1[1]))
        hit /= max(np.max(np.abs(a)), np.max(np.abs(b)))
        _require(hit <= self.TWO_JET_TOL, f"2-jet endpoints missed by {hit:.3e} relative")
        worst = hit

        expected = [str(k) for k in range(4, self.MAX_ORDER + 1, 2)]
        _require(sorted(report["orders"], key=int) == expected, "orders 4..40 are not all present")
        for key in expected:
            order = int(key)
            vals = np.array(report["orders"][key])
            scale = np.max(np.abs(vals))
            _require(scale > 0 and np.all(np.isfinite(vals)),
                     f"order {order} is zero or not finite")
            hit = max(np.max(np.abs(vals[:, 0] - ref["jets0"][order])),
                      np.max(np.abs(vals[:, -1] - ref["jets1"][order]))) / scale
            nest = np.max(np.abs(vals[:, ::2] - np.array(coarse["orders"][key]))) / scale
            _require(hit <= self.ORDER_TOL, f"order {order} misses its boundary jets by {hit:.3e}")
            _require(nest <= self.ORDER_TOL, f"order {order} differs from 65 nodes by {nest:.3e}")
            worst = max(worst, hit, nest)
        return worst


# ---------------------------------------------------------------------------
# obstruction: counterexample --n k, k = 3..6, on the default 64-node grid
# ---------------------------------------------------------------------------

class Obstruction:
    """The resonant family h_n: eps = pi/(4n) and the exactly predicted shift."""

    ORDERS = (3, 4, 5, 6)  # n >= 7 fails in the program; see CHANGES.md
    EPS_TOL = 1e-10
    SHIFT_TOL = 1e-12

    def calls(self, seed: int, scratch: Path) -> list:
        orders = list(self.ORDERS)
        random.Random(seed).shuffle(orders)
        return [Call(["counterexample", "--n", str(n)], {"n": n}) for n in orders]

    def references(self, calls, run_cli, scratch: Path) -> list:
        return [None] * len(calls)

    def check(self, call: Call, report: dict, ref) -> float:
        n = call.meta["n"]
        _require(report["n"] == n and report["resonant_order"] == 2 * n,
                 f"n = {n} resonated at order {report['resonant_order']}")
        eps = math.pi / (4 * n)
        eps_err = abs(report["epsilon"] - eps)
        _require(eps_err <= self.EPS_TOL, f"epsilon off pi/(4n) by {eps_err:.3e}")
        v = np.array(report["v"])
        kappa = report["kappa"]
        _require(kappa == int(np.argmax(np.abs(v))), f"kappa {kappa} is not argmax |v|")
        chi = math.exp(-n)
        _require(math.isclose(report["chi"], chi, rel_tol=4 * UNIT_ROUNDOFF), "chi is not e^-n")
        predicted = v[kappa] * math.factorial(2 * n - 2 * kappa) * math.factorial(2 * kappa) * chi
        shift_err = abs(report["difference"] - predicted) / abs(predicted)
        _require(shift_err <= self.SHIFT_TOL, f"shift off the prediction by {shift_err:.3e}")
        return max(eps_err / eps, shift_err)


# ---------------------------------------------------------------------------
# causal_mix: second-jet over time-like, light-like and space-like boundaries
# ---------------------------------------------------------------------------

def _chebyshev_derivative(t: np.ndarray, values: np.ndarray) -> np.ndarray:
    series = np.polynomial.Chebyshev.fit(t, values, deg=t.size - 1, domain=[0.0, 1.0])
    return series.deriv()(t)


class CausalMix:
    """2-jet paths of every causal class; the non-space-like ones use the shooter."""

    # 12 shooter calls: their Newton iteration counts vary with the seed, and
    # the sum over a pass varies less than over fewer calls.
    KINDS = ("TimeLike", "LightLike", "TimeLike", "LightLike", "SpaceLike",
             "TimeLike", "LightLike", "SpaceLike") * 2
    NODES = 64  # the CLI default grid
    ORACLE_DENSITY = 768  # RK4 steps per unit time; the oracle's error stays below the program's
    ENDPOINT_TOL = 1e-9
    ORACLE_TOL = 1e-9
    SIGMA2_TOL = 1e-9  # measured up to 4e-11 over seeds 1-40

    def calls(self, seed: int, scratch: Path) -> list:
        rng = random.Random(seed)
        out = []
        for i, kind in enumerate(self.KINDS):
            a0, b0 = rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.1)
            sign = rng.choice((-1.0, 1.0))
            # Z = 1 + 2a + 2b stays above 0.5 when both jets decrease
            top = 0.25 if sign > 0 else 0.12
            da, db = sign * rng.uniform(0.05, top), sign * rng.uniform(0.05, top)
            if kind == "TimeLike":
                # da and db of one sign: |dZ| > |dX|; keep dX clear of the vertical case
                while abs(da - db) < 0.02:
                    db = sign * rng.uniform(0.05, top)
            elif kind == "LightLike":
                da, db = (da, 0.0) if i % 2 else (0.0, db)
            else:
                db = -db
            a1, b1 = a0 + da, b0 + db
            argv = ["second-jet", f"--a0={a0!r}", f"--b0={b0!r}", f"--a1={a1!r}", f"--b1={b1!r}"]
            out.append(Call(argv, {"kind": kind, "boundary": (a0, b0, a1, b1)}))
        return out

    def references(self, calls, run_cli, scratch: Path) -> list:
        sys.path.insert(0, str(ROOT / "tests"))
        from _oracles import shoot_jet_paths  # RK4 shooting that imports nothing from torusjets

        t = _lobatto_nodes(self.NODES)
        a0, b0, a1, b1 = (np.array(col) for col in zip(*(c.meta["boundary"] for c in calls)))
        with np.errstate(divide="ignore", invalid="ignore"):  # converged columns
            a, b = shoot_jet_paths(a0, b0, a1, b1, t, density=self.ORACLE_DENSITY)
        return [{"t": t, "a": a[:, j], "b": b[:, j]} for j in range(len(calls))]

    def check(self, call: Call, report: dict, ref: dict) -> float:
        kind = call.meta["kind"]
        _require(report["causal_class"] == kind,
                 f"classified {report['causal_class']}, expected {kind}")
        t = np.array(report["t"])
        _require(t.shape == ref["t"].shape and np.max(np.abs(t - ref["t"])) < 1e-14,
                 "time grid is not the 64-node Lobatto grid")
        a, b = np.array(report["a"]), np.array(report["b"])
        scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
        a0, b0, a1, b1 = call.meta["boundary"]
        end = max(abs(a[0] - a0), abs(b[0] - b0), abs(a[-1] - a1), abs(b[-1] - b1))
        _require(end <= self.ENDPOINT_TOL, f"endpoints missed by {end:.3e}")
        oracle = max(np.max(np.abs(a - ref["a"])), np.max(np.abs(b - ref["b"]))) / scale
        _require(oracle <= self.ORACLE_TOL, f"path differs from the RK4 oracle by {oracle:.3e}")

        da, db = _chebyshev_derivative(t, a), _chebyshev_derivative(t, b)
        z2 = (1.0 + 2.0 * a + 2.0 * b) ** 2
        drift = np.max(np.abs(da * db / z2 - report["sigma2"])) / np.max((da * da + db * db) / z2)
        _require(drift <= self.SIGMA2_TOL, f"sigma2 drifts by {drift:.3e} along the path")
        return max(end / scale, oracle)


# ---------------------------------------------------------------------------
# pde_check: pde-check on the saddle c sin^2 x - c sin^2 y
# ---------------------------------------------------------------------------

class PdeCheck:
    """Newton-Krylov solve of the regularised PDE at two grid sizes."""

    GRIDS = ((33, 32, 32), (33, 48, 48))
    DELTAS = "1e-1,1e-2,1e-3"
    EPS_TOL = {32: 5e-4, 48: 1e-4}  # measured 1.6e-4 and 2.3e-5 at c = 0.1
    SPREAD_CEILING = 2e-2  # measured 9.3e-3 and 5.0e-3 at c = 0.1
    CLOSED_FORM_TOL = 1e-12

    def calls(self, seed: int, scratch: Path) -> list:
        # A narrow band of c: the Krylov work grows with c (192 to 212 matvecs
        # at 32^2 over c = 0.09..0.11), so a wide band would spread pass times.
        c = 0.1 + 0.002 * random.Random(seed).uniform(-1.0, 1.0)
        spec = scratch / "saddle.json"
        spec.write_text(json.dumps({"terms": [[c, 2, 0], [-c, 0, 2]]}))
        return [
            Call(["pde-check", "--spec", str(spec), "--nt", str(nt), "--nx", str(nx),
                  "--ny", str(ny), "--delta", self.DELTAS], {"c": c, "nx": nx})
            for nt, nx, ny in self.GRIDS
        ]

    def references(self, calls, run_cli, scratch: Path) -> list:
        # 2-jets (0, 0) -> (c, -c): Z0 = Z1 = 1, X1 - X0 = 4c, so cos D = 1 - 8c^2.
        return [math.acos(1.0 - 8.0 * call.meta["c"] ** 2) / 4.0 for call in calls]

    def check(self, call: Call, report: dict, eps: float) -> float:
        nx = call.meta["nx"]
        _require(report["config"]["nx"] == nx, "report is for another grid")
        closed = abs(report["epsilon_reference"] - eps) / eps
        _require(closed <= self.CLOSED_FORM_TOL, f"closed-form epsilon off by {closed:.3e}")
        pde = abs(report["epsilon_estimate"] - eps) / eps
        _require(pde <= self.EPS_TOL[nx], f"PDE epsilon off by {pde:.3e} at {nx}^2")
        spread = report["relative_spread"]
        _require(spread <= self.SPREAD_CEILING, f"sigma2 relative spread {spread:.3e}")
        return max(closed, pde)


WORKLOADS = {
    "hierarchy": Hierarchy(),
    "obstruction": Obstruction(),
    "causal_mix": CausalMix(),
    "pde_check": PdeCheck(),
}
