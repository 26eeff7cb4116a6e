"""Command-line front end for the jet machinery.

Subcommands map one-to-one onto the computational modules: second-jet solves
the boundary problem for the 2-jet path, propagate runs the order-by-order
hierarchy, counterexample packages the obstruction demo, pde-check runs the
grid solver against the closed-form epsilon of its boundary 2-jets.  The first
three solve on a time grid sized by --nodes or $GJL_DEFAULT_NODES; pde-check
builds none and takes no --nodes.  Every report embeds the resolved
configuration, so a run can be reproduced from its own output.

The report is checked in full and then streamed as bytes, one order at a
time (report_io.encode_report), to --output or to the binary buffer of
stdout, so the whole report's text is never held.  A refused report writes
nothing.  Output files (--output, the --plot .dat and .gp pair, --dump-csv)
are overwritten in place by report_io.write_file: written from the start and
cut to the new length, never truncated to zero first.  As before, the write
is not atomic: a crash or a concurrent reader can see partial data.

Exit codes:

- 0: success.
- 2: input error (ValueError, OSError): malformed arguments, files or specs,
  an --output or --plot path that cannot be written, a grid above
  MAX_NODES, a pde-check grid above MAX_GRID_POINTS, a jet order above
  MAX_ORDER (propagate --max-order, or 2n for counterexample --n), a jet
  order whose propagation frame on the grid passes MAX_FRAME_FLOATS, a
  potential whose terms sum past the float range, and a second-jet boundary
  that is not connectable.
- 3: mathematical precondition failure (GeodesicDomainError), such as a
  propagate boundary that is not space-like; propagate classifies the
  2-jets before it solves them.
- 4: numeric failure: a solver that did not converge or a propagated order
  that is not finite (NumericError); or an identity that must hold
  numerically and did not (ConsistencyError).  The order-2n pairing is a
  point evaluation with no factorial, so counterexample runs for every n
  whose order 2n is within MAX_ORDER.

second-jet solves every causal class in closed form and iterates nowhere.
The class is the sign of dX^2 - dZ^2 = -16 da db, with a jet difference
within one ulp of max(Z0, Z1) taken as zero.  Every path must meet both
boundary jets within ENDPOINT_TOL * max(Z0, Z1).  It exits 4 when a path
misses that check, when a node leaves the half-plane by rounding, when Z0 or
Z1 or the jet-equation residual of the path leaves the float range, and never
for non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .counterexample import TorusPotential, build_h, jets_at_origin, obstruction_demo
from .errors import ConsistencyError, GeodesicDomainError, NumericError
from .jet_propagation import ObstructionReport, order_residual, propagate
from .pde_crosscheck import crosscheck_report, dump_phi_csv, solve_geodesic
from .report_io import encode_report, fields_of, parse_potential, parse_side, write_file
# Not called here: bench/tracing.py looks this name up in this module when it
# builds a tracer, so it must keep importing from here.
from .report_io import dumps_json  # noqa: F401
from .second_jet import (
    CausalClass, SecondJetBoundary, epsilon_from_boundary, ode_residual, solve_bvp,
)
from .timegrid import DEFAULT_NODES, make_grid

NODES_ENV_VAR = "GJL_DEFAULT_NODES"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4


def _resolve_nodes(args) -> int:
    if args.nodes is not None:
        return args.nodes
    env = os.environ.get(NODES_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{NODES_ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_NODES


def _path_report(path) -> dict:
    rep = {
        "connectable": True,
        "causal_class": path.causal_class.value,
        "swapped_axes": path.swapped_axes,
        "ode_residual": ode_residual(path),
        "t": path.grid.nodes,
        "a": path.a.values,
        "b": path.b.values,
        "sigma1": path.sigma1.values,
        "sigma2": path.sigma2,
    }
    if path.epsilon is not None:
        rep["epsilon"] = path.epsilon
    return rep


def _path_plot(path, title: str):
    cols = np.column_stack(
        [path.grid.nodes, path.a.values, path.b.values, path.sigma1.values,
         np.full(path.grid.node_count, path.sigma2)]
    )
    return ("t a b sigma1 sigma2", cols, title)


def _cmd_second_jet(args):
    boundary = SecondJetBoundary(a0=args.a0, b0=args.b0, a1=args.a1, b1=args.b1)
    try:
        boundary.require_connectable()
    except GeodesicDomainError as exc:  # bad input to this command
        raise ValueError(f"boundary {exc}") from None
    nodes = _resolve_nodes(args)
    path = solve_bvp(boundary, make_grid(nodes))
    report = {
        "command": "second-jet",
        "config": {
            "a0": args.a0, "b0": args.b0, "a1": args.a1, "b1": args.b1,
            "nodes": nodes, "package_version": __version__,
        },
    }
    report.update(_path_report(path))
    return report, lambda: _path_plot(path, "second-jet path")


def _cmd_propagate(args):
    with open(args.spec) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError("the potential spec must be a JSON object")
    if "phi0" in spec or "phi1" in spec:
        jets0 = parse_side(spec.get("phi0"), args.max_order)
        jets1 = parse_side(spec.get("phi1"), args.max_order)
    else:
        jets0 = parse_side(None, args.max_order)
        jets1 = parse_side(spec, args.max_order)
    nodes = _resolve_nodes(args)
    result = propagate(jets0, jets1, args.max_order, make_grid(nodes))
    config = {
        "max_order": args.max_order, "nodes": nodes,
        "phi0_jets": {str(k): v for k, v in sorted(jets0.items())},
        "phi1_jets": {str(k): v for k, v in sorted(jets1.items())},
        "package_version": __version__,
    }
    if isinstance(result, ObstructionReport):
        report = {"command": "propagate", "config": config, "type": "obstruction"}
        report.update(fields_of(result))
        return report, None
    report = {
        "command": "propagate",
        "config": config,
        "type": "hierarchy",
        "path": _path_report(result.path2),
        "orders": {str(order): mat for order, mat in sorted(result.orders.items())},
        "order_residuals": {
            str(order): order_residual(result, order) for order in sorted(result.orders)
        },
        "beyond_scope_orders": list(result.beyond_scope_orders),
        "near_resonance_warnings": [list(w) for w in result.near_resonance_warnings],
    }
    return report, lambda: _path_plot(result.path2, "propagation base path")


def _cmd_counterexample(args):
    nodes = _resolve_nodes(args)
    grid = make_grid(nodes)
    demo = obstruction_demo(args.n, grid)
    report = {
        "command": "counterexample",
        "config": {"n": args.n, "nodes": nodes, "package_version": __version__},
    }
    report.update(fields_of(demo))

    def plot():
        jets = jets_at_origin(build_h(args.n), 2)
        path = solve_bvp(SecondJetBoundary(0.0, 0.0, jets[2][0], jets[2][1]), grid)
        return _path_plot(path, f"h_{args.n} second-jet path")

    return report, plot


def _cmd_pde_check(args):
    if args.spec is not None:
        with open(args.spec) as fh:
            pot = parse_potential(json.load(fh))
    else:
        pot = TorusPotential(())
    deltas = [float(part) for part in args.delta.split(",") if part.strip()]
    sol = solve_geodesic(pot, args.nt, args.nx, args.ny, deltas)
    jets = jets_at_origin(pot, 2)
    boundary = SecondJetBoundary(0.0, 0.0, jets[2][0], jets[2][1])
    space_like = boundary.causal_class is CausalClass.SPACE_LIKE
    rep = crosscheck_report(sol, epsilon_from_boundary(boundary) if space_like else None)
    if args.dump_csv:
        dump_phi_csv(sol, args.dump_csv)
    report = {
        "command": "pde-check",
        "config": {
            "terms": [list(term) for term in pot.terms],
            "nt": args.nt, "nx": args.nx, "ny": args.ny,
            "delta_schedule": deltas,
            "package_version": __version__,
        },
        "delta": sol.delta,
        "residual_norm": sol.residual_norm,
        "solver": {
            "newton_steps": sol.newton_steps,
            "krylov_matvecs": sol.krylov_matvecs,
            "halvings": sol.halvings,
            "min_metric": sol.min_metric,
            "per_delta": [
                {"delta": d, "newton_steps": n, "krylov_matvecs": k, "halvings": h}
                for d, n, k, h in sol.per_delta
            ],
        },
    }
    report.update(fields_of(rep))
    del report["t"]
    cols = np.column_stack([rep.t[1:-1], rep.a[1:-1], rep.b[1:-1], rep.sigma2])
    return report, lambda: ("t a b sigma2", cols, "pde cross-check")


def _write_plot(prefix: str, payload) -> None:
    header, cols, title = payload
    names = header.split()
    dat = prefix + ".dat"
    rows = "".join(" ".join(format(v, ".17g") for v in row) + "\n" for row in cols)
    write_file(dat, f"# {header}\n{rows}".encode())
    plots = []
    for idx, name in enumerate(names[1:], start=2):
        if name in ("a", "b", "sigma2"):
            plots.append(f"'{dat}' using 1:{idx} with lines title '{name}(t)'")
    write_file(prefix + ".gp", (
        "set terminal pngcairo size 900,600\n"
        f"set output '{prefix}.png'\n"
        f"set title '{title}'\n"
        "set xlabel 't'\n"
        "plot " + ", \\\n     ".join(plots) + "\n"
    ).encode())


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by later ones:
    parse_args keeps no state between calls, so each parses as a fresh one."""
    parser = argparse.ArgumentParser(
        prog="torusjets",
        description="Jet hierarchies of torus Kahler geodesics: closed-form "
        "second jets, order-by-order propagation, obstruction demos and a "
        "PDE cross-check.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, nodes=True):
        if nodes:
            p.add_argument("--nodes", type=int, default=None,
                           help=f"time-grid size (default {DEFAULT_NODES}, "
                                f"or ${NODES_ENV_VAR})")
        p.add_argument("--output", default=None, help="write the JSON report here")
        p.add_argument("--plot", default=None, metavar="PREFIX",
                       help="write PREFIX.gp and PREFIX.dat gnuplot artifacts")

    p = sub.add_parser("second-jet", help="solve the 2-jet boundary problem")
    for name in ("a0", "b0", "a1", "b1"):
        p.add_argument(f"--{name}", type=float, required=True)
    common(p)

    p = sub.add_parser("propagate", help="propagate higher jets along the path")
    p.add_argument("--spec", required=True, help="potential-spec JSON file")
    p.add_argument("--max-order", type=int, required=True)
    common(p)

    p = sub.add_parser("counterexample", help="run the obstruction demo")
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("pde-check", help="grid solver cross-check")
    p.add_argument("--spec", default=None, help="potential-spec JSON file (default 0)")
    p.add_argument("--nt", type=int, default=33)
    p.add_argument("--nx", type=int, default=48)
    p.add_argument("--ny", type=int, default=48)
    p.add_argument("--delta", default="1e-1,1e-2,1e-3",
                   help="comma-separated strictly decreasing schedule")
    p.add_argument("--dump-csv", default=None, metavar="PATH",
                   help="dump phi slices as CSV")
    common(p, nodes=False)
    return parser


_HANDLERS = {
    "second-jet": _cmd_second_jet,
    "propagate": _cmd_propagate,
    "counterexample": _cmd_counterexample,
    "pde-check": _cmd_pde_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, plot = _HANDLERS[args.command](args)
        payload = plot() if args.plot and plot is not None else None
        chunks = encode_report(report)
        if args.output:
            write_file(args.output, chunks)
        else:
            sys.stdout.flush()  # any text already written goes out before the report
            sys.stdout.buffer.writelines(chunks)
        if payload is not None:
            _write_plot(args.plot, payload)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GeodesicDomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (NumericError, ConsistencyError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
