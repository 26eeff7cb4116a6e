"""Spans around the public functions of each torusjets layer, for the traced run.

Each function is wrapped by replacing its name in the namespace of the module
that calls it, so no file of the package changes.  Spans are kept in memory
(name, start, end, parent, pass) and turned into per-pass layer metrics when
the run ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import time
from collections import Counter

# (module that calls the function, name there, span name)
WRAPPED = (
    ("torusjets.cli", "make_grid", "timegrid.make_grid"),
    ("torusjets.cli", "solve_bvp", "second_jet.solve_bvp"),
    ("torusjets.jet_propagation", "solve_bvp", "second_jet.solve_bvp"),
    ("torusjets.jet_propagation", "q_matrix", "poly_ops.q_matrix"),
    ("torusjets.poly_ops", "q_matrix", "poly_ops.q_matrix"),
    ("torusjets.jet_propagation", "d_weights", "poly_ops.d_weights"),
    ("torusjets.cli", "propagate", "jet_propagation.propagate"),
    ("torusjets.counterexample", "propagate", "jet_propagation.propagate"),
    ("torusjets.jet_propagation", "solve_mode", "jet_propagation.solve_mode"),
    ("torusjets.cli", "order_residual", "jet_propagation.order_residual"),
    ("torusjets.cli", "jets_at_origin", "counterexample.jets_at_origin"),
    ("torusjets.report_io", "jets_at_origin", "counterexample.jets_at_origin"),
    ("torusjets.counterexample", "jets_at_origin", "counterexample.jets_at_origin"),
    ("torusjets.cli", "obstruction_demo", "counterexample.obstruction_demo"),
    ("torusjets.cli", "solve_geodesic", "pde_crosscheck.solve_geodesic"),
    ("torusjets.pde_crosscheck", "lgmres", "pde_crosscheck.lgmres"),
    ("torusjets.cli", "crosscheck_report", "pde_crosscheck.crosscheck_report"),
    ("torusjets.cli", "dumps_json", "report_io.dumps_json"),
)

ROOT = "cli.main"
SOURCE_K1 = "jet_propagation.source_K1"
SOLVE_BVP = "second_jet.solve_bvp"
MATVECS = "pde_crosscheck.krylov_matvecs"

# (metric, unit, span name, statistic): "total" and "self" are ms per pass,
# "calls" is calls per pass, "us_per_call" / "ms_per_call" average over calls.
LAYER_METRICS = (
    ("timegrid.make_grid_ms", "ms", "timegrid.make_grid", "total"),
    ("cli.main_self_ms", "ms", ROOT, "self"),
    ("report_io.dumps_json_ms", "ms", "report_io.dumps_json", "total"),
    ("second_jet.spacelike_solve_us", "us/call", SOLVE_BVP + ".SpaceLike", "us_per_call"),
    ("second_jet.timelike_solve_ms", "ms/call", SOLVE_BVP + ".TimeLike", "ms_per_call"),
    ("second_jet.lightlike_solve_ms", "ms/call", SOLVE_BVP + ".LightLike", "ms_per_call"),
    ("poly_ops.q_matrix_ms", "ms", "poly_ops.q_matrix", "total"),
    ("poly_ops.q_matrix_calls", "count", "poly_ops.q_matrix", "calls"),
    ("poly_ops.d_weights_ms", "ms", "poly_ops.d_weights", "total"),
    ("jet_propagation.propagate_self_ms", "ms", "jet_propagation.propagate", "self"),
    ("jet_propagation.source_K1_ms", "ms", SOURCE_K1, "total"),
    ("jet_propagation.solve_mode_ms", "ms", "jet_propagation.solve_mode", "total"),
    ("jet_propagation.solve_mode_calls", "count", "jet_propagation.solve_mode", "calls"),
    ("jet_propagation.order_residual_ms", "ms", "jet_propagation.order_residual", "total"),
    ("counterexample.jets_at_origin_ms", "ms", "counterexample.jets_at_origin", "total"),
    ("counterexample.obstruction_demo_self_ms", "ms", "counterexample.obstruction_demo", "self"),
    ("pde_crosscheck.solve_geodesic_self_ms", "ms", "pde_crosscheck.solve_geodesic", "self"),
    ("pde_crosscheck.lgmres_ms", "ms", "pde_crosscheck.lgmres", "total"),
    ("pde_crosscheck.newton_steps", "count", "pde_crosscheck.lgmres", "calls"),
    ("pde_crosscheck.krylov_matvecs", "count", MATVECS, "count"),
    ("pde_crosscheck.crosscheck_report_ms", "ms", "pde_crosscheck.crosscheck_report", "total"),
)


class Tracer:
    """Records nested spans while installed; install/uninstall swap the names."""

    ROOT = ROOT

    def __init__(self, modules: dict, linear_operator, jet_hierarchy_type):
        self.spans = []  # [name, start, end, parent index, pass index]
        self.counts = Counter()
        self.pass_index = 0
        self.finished_hierarchies = []
        self._stack = []
        self._linear_operator = linear_operator
        self._hierarchy_type = jet_hierarchy_type
        self._patches = []
        for module_name, attr, span_name in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self._wrap(original, span_name)))

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_index])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name: str):
        if name == "pde_crosscheck.lgmres":
            return self._wrap_lgmres(original)

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if name == SOLVE_BVP:
                self.spans[index][0] = f"{name}.{result.causal_class.value}"
            elif isinstance(result, self._hierarchy_type):
                self.finished_hierarchies.append(result)
            return result

        return traced

    def _wrap_lgmres(self, original):
        def traced(operator, rhs, *args, **kwargs):
            def matvec(x):
                self.counts[(MATVECS, self.pass_index)] += 1
                return operator.matvec(x)

            counted = self._linear_operator(operator.shape, matvec=matvec, dtype=operator.dtype)
            index = self.open("pde_crosscheck.lgmres")
            try:
                return original(counted, rhs, *args, **kwargs)
            finally:
                self.close(index)

        return traced

    def install(self) -> None:
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self, passes: int) -> dict:
        """LAYER_METRICS over the traced passes, as {name: {"value", "unit"}}."""
        total, own, calls = Counter(), Counter(), Counter()
        for span, self_time in zip(self.spans, self.self_times()):
            total[span[0]] += span[2] - span[1]
            own[span[0]] += self_time
            calls[span[0]] += 1
        counted = Counter()
        for (name, _), value in self.counts.items():
            counted[name] += value
        out = {}
        for metric, unit, span, stat in LAYER_METRICS:
            if stat == "total":
                value = total[span] * 1e3 / passes
            elif stat == "self":
                value = own[span] * 1e3 / passes
            elif stat == "calls":
                value = calls[span] / passes
            elif stat == "count":
                value = counted[span] / passes
            else:
                per_call = total[span] / calls[span] if calls[span] else 0.0
                value = per_call * (1e6 if stat == "us_per_call" else 1e3)
            out[metric] = {"value": value, "unit": unit}
        return out

    def call_tree_ms(self) -> float:
        """Summed self time of every span under a cli.main root, in ms."""
        roots = {}
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            roots[i] = i if parent is None else roots[parent]
        return 1e3 * sum(
            self_time for i, self_time in enumerate(self.self_times())
            if self.spans[roots[i]][0] == ROOT
        )

    def dump(self) -> list:
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": name, "start_ms": (start - origin) * 1e3, "dur_ms": (end - start) * 1e3,
             "parent": parent, "pass": pass_index}
            for name, start, end, parent, pass_index in self.spans
        ]
