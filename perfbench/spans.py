"""Per-layer tracing from outside the program.

The tracer wraps public functions of ``qlbs`` wherever a ``qlbs`` module
binds them: it finds the original function object and replaces every
module attribute that is that object, so a call keeps being traced when
a later change moves an import. Spans (name, start, end, parent) and a
few counts are kept in memory and written out when the run ends.
"""
from __future__ import annotations

import functools
import json
import os
import re
import sys
import time
from collections import defaultdict

# Layer module -> public functions timed as spans. ``fqi._greedy_batch``
# is private; it is wrapped only to count the maximizer candidates it
# computes, and counts zero once the program stops calling it.
TARGETS = {
    "market": ("simulate_gbm", "compute_states", "price_increments"),
    "basis": ("feature_cube", "basis_values"),
    "numerics": ("solve_normal_equations",),
    "dp": ("run_model_based", "fit_hedge_coefficients", "fit_q_coefficients"),
    "fqi": ("run_fqi", "fqi_backward_step", "build_offline_dataset",
            "perturb_actions", "save_dataset", "load_dataset", "_greedy_batch"),
    "experiments": ("run_scenario", "emit_report"),
    "cli": ("main",),
    "bsm": ("bsm_put_price",),
}

# Per-layer metrics of a traced run, name -> unit (defined in README.md).
PER_LAYER = {
    "import.qlbs_s": "s",
    "import.scipy_s": "s",
    "cli.main.self_s": "s",
    "market.simulate_gbm.calls": "count",
    "market.simulate_gbm.self_s": "s",
    "market.compute_states.self_s": "s",
    "market.price_increments.self_s": "s",
    "basis.feature_cube.calls": "count",
    "basis.feature_cube.self_s": "s",
    "basis.basis_values.self_s": "s",
    "basis.feature_cube.mb": "MB",
    "dp.run_model_based.calls": "count",
    "dp.run_model_based.self_s": "s",
    "dp.fit_hedge_coefficients.self_s": "s",
    "dp.fit_q_coefficients.self_s": "s",
    "numerics.solve_normal_equations.calls": "count",
    "numerics.solve_normal_equations.self_s": "s",
    "fqi.run_fqi.calls": "count",
    "fqi.run_fqi.self_s": "s",
    "fqi.fqi_backward_step.self_s": "s",
    "fqi.build_offline_dataset.self_s": "s",
    "fqi.perturb_actions.self_s": "s",
    "fqi.greedy_candidates": "count",
    "fqi.greedy_fallbacks": "count",
    "fqi.save_dataset.self_s": "s",
    "fqi.save_dataset.mb": "MB",
    "fqi.load_dataset.self_s": "s",
    "experiments.run_scenario.self_s": "s",
    "experiments.emit_report.self_s": "s",
    "experiments.report.mb": "MB",
    "experiments.cube_builds_per_key": "ratio",
    "bsm.bsm_put_price.calls": "count",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.cube_keys: set = set()
        # Counts that could not be taken because a call's shape changed,
        # and targets the program no longer has.
        self.count_errors: set[str] = set()
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target found in the loaded ``qlbs`` modules."""
        import qlbs

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qlbs" or name.startswith("qlbs."))]
        for layer, names in TARGETS.items():
            for name in names:
                module = sys.modules.get(f"qlbs.{layer}")
                original = getattr(module, name, None) or getattr(qlbs, name, None)
                if not callable(original):
                    self.missing.add(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bindings.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def _wrap(self, name: str, func):
        record = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if record is not None:
                try:
                    record(result, *args, *kwargs.values())
                except (AttributeError, TypeError, ValueError, OSError) as err:
                    self.count_errors.add(f"{name}: {err!r}")
            return result

        return traced

    # Counts taken at the same boundaries as the spans, from the result
    # and the leading positional arguments of the call.

    def _count_basis_feature_cube(self, cube, spec, state_values, *rest):
        self.counts["basis.feature_cube.bytes"] += cube.nbytes
        if self._inside("experiments.run_scenario"):
            self.counts["experiments.cube_builds"] += 1
            # The knots fix the states' range and the basis; the terminal
            # states' sum tells path sets apart.
            self.cube_keys.add((spec.knots.tobytes(), spec.n_basis, spec.order,
                                float(state_values[:, -1].sum())))

    def _count_fqi__greedy_batch(self, result, w, features_t, *rest):
        self.counts["fqi.greedy_candidates"] += features_t.shape[0]

    def _count_fqi_run_fqi(self, solution, *rest):
        self.counts["fqi.greedy_fallbacks"] += solution.greedy_fallbacks

    def _count_fqi_save_dataset(self, result, dataset, dest, *rest):
        self.counts["fqi.save_dataset.bytes"] += os.path.getsize(dest)

    def _count_experiments_emit_report(self, result, table, dest, *rest):
        self.counts["experiments.report.bytes"] += os.path.getsize(dest)

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def per_layer(self, n_ops: int) -> dict[str, float]:
        """Span and count metrics, per workload operation."""
        calls, _, self_s = span_totals(self.spans)
        fits = calls["fqi.run_fqi"]
        out = {}
        for metric in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[span] / n_ops
            elif kind == "self_s":
                out[metric] = self_s[span] / n_ops
        counts = self.counts
        out["basis.feature_cube.mb"] = counts["basis.feature_cube.bytes"] / 1e6 / n_ops
        out["fqi.greedy_candidates"] = counts["fqi.greedy_candidates"] / fits if fits else 0.0
        out["fqi.greedy_fallbacks"] = counts["fqi.greedy_fallbacks"] / fits if fits else 0.0
        out["fqi.save_dataset.mb"] = counts["fqi.save_dataset.bytes"] / 1e6 / n_ops
        out["experiments.report.mb"] = counts["experiments.report.bytes"] / 1e6 / n_ops
        out["experiments.cube_builds_per_key"] = (
            counts["experiments.cube_builds"] / len(self.cube_keys) if self.cube_keys else 0.0)
        out["trace.spans"] = len(self.spans) / n_ops
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end (seconds), parent index."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of ``qlbs`` and of scipy, from ``-X importtime``.

    scipy's time is the sum over its outermost modules: entries named
    ``scipy`` or ``scipy.*`` with no scipy module above them.
    """
    entries = [(len(m.group(3)) // 2, m.group(4), int(m.group(2)) / 1e6)
               for m in map(_IMPORTTIME.match, stderr.splitlines()) if m]
    qlbs_s = scipy_s = 0.0
    stack: list[str] = []
    # Lines come children first; walking backwards visits parents first.
    for level, name, cumulative in reversed(entries):
        del stack[level:]
        if name == "qlbs":
            qlbs_s += cumulative
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for a in stack):
            scipy_s += cumulative
        stack.append(name)
    return {"import.qlbs_s": qlbs_s, "import.scipy_s": scipy_s}


def span_totals(spans):
    """Calls, total seconds and self seconds per span name.

    ``spans`` are (name, start, end, parent index) tuples; self time is a
    span's duration minus its direct children's.
    """
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start
        if parent >= 0:
            own[spans[parent][0]] -= end - start
    return calls, total, own


if __name__ == "__main__":
    with open(sys.argv[1]) as handle:
        rows = [json.loads(line) for line in handle]
    calls, total, own = span_totals([(r["name"], r["start"], r["end"], r["parent"])
                                     for r in rows])
    print(f"{'span':40} {'calls':>7} {'total_s':>9} {'self_s':>9} {'ms/call':>9}")
    for name in sorted(calls, key=lambda n: -own[n]):
        print(f"{name:40} {calls[name]:7d} {total[name]:9.3f} {own[name]:9.3f} "
              f"{1e3 * total[name] / calls[name]:9.3f}")
