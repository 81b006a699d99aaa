"""Timing spans around sta_otto's public functions, from outside the package.

``Tracer`` swaps each listed function, at every sta_otto module
attribute that refers to it (the names its callers resolve at call
time), for a wrapper that records a span: name, start, end and parent.
The hottest inner functions get a call counter instead of a span.
``restore`` puts the originals back.  A listed name that no longer
exists is reported as absent, not an error.

Spans stay in memory; ``layer_metrics`` turns them into per-pass
per-layer numbers, and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# layer -> public functions timed with a span
SPANNED = {
    "config": ("tau_grid",),
    "protocol": ("check_trap_inversion", "boundary_residuals"),
    "dynamics": ("solve_linear_pair", "solve_effective_pair",
                 "solve_second_moments", "solve_ermakov_direct",
                 "adiabaticity_parameter", "adiabaticity_from_ermakov",
                 "ermakov_from_linear", "ermakov_residual",
                 "lcd_final_adiabaticity"),
    "strokes": ("stroke_work", "hot_isochore_heat", "heat_sign_threshold",
                "engine_condition"),
    "cost": ("sa_cost_time_average", "lcd_mean_energy"),
    "qsl": ("gaussian_fidelity", "bures_angle", "bures_data", "qsl_time",
            "efficiency_bound", "power_bound"),
    "cycle": ("run_cycle", "sweep", "find_efficiency_crossover",
              "find_heat_sign_threshold", "compression_q_star", "rescaled"),
    "checks": (
        "check_config_invariants", "check_protocol_boundary",
        "check_protocol_midpoint", "check_protocol_scaling",
        "check_wronskian", "check_ermakov_residual", "check_q_star_routes",
        "check_adiabatic_limit", "check_lcd_exactness",
        "check_adiabatic_efficiency", "check_cost_boundary",
        "check_cost_scaling", "check_cost_consistency",
        "check_fidelity_identity", "check_fidelity_zero_t",
        "check_bound_ordering", "check_eta_sa_monotone",
        "check_power_ordering", "check_p_sa_scaling", "check_eta_ordering",
        "check_rescaling_invariance", "check_trap_inversion_scan"),
    "cli": ("main",),
}
# called thousands of times per pass: counted, not timed
COUNTED = {
    "protocol": ("sample_protocol", "polynomial_ramp"),
    "cost": ("sa_energy_instant",),
}
# omega_of returns the closure integrators call; its calls are counted
# per span that asked for it
OMEGA_FACTORY = ("protocol", "omega_of")


class Tracer:
    def __init__(self, package: str = "sta_otto"):
        self.package = package
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.omega_evals: Counter = Counter()  # by requesting span name
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------
    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def _swap(self, layer: str, attr: str, make_wrapper) -> None:
        module = sys.modules.get(f"{self.package}.{layer}")
        original = getattr(module, attr, None) if module else None
        if not callable(original):
            self.absent.append(f"{layer}.{attr}")
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> "Tracer":
        self.absent = []
        for layer, names in SPANNED.items():
            for attr in names:
                self._swap(layer, attr,
                           lambda fn, n=f"{layer}.{attr}": self._spanned(n, fn))
        for layer, names in COUNTED.items():
            for attr in names:
                self._swap(layer, attr,
                           lambda fn, n=f"{layer}.{attr}": self._counted(n, fn))
        self._swap(*OMEGA_FACTORY, self._omega_factory)
        return self

    def restore(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrappers -----------------------------------------------------
    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _omega_factory(self, fn):
        evals = self.omega_evals

        def wrapper(*args, **kwargs):
            omega = fn(*args, **kwargs)
            owner = self.spans[self._stack[-1]][0] if self._stack else ""

            def counted(t):
                evals[owner] += 1
                return omega(t)
            return counted
        return wrapper

    # -- output -------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts,
                       "omega_evals": self.omega_evals,
                       "absent": self.absent}, fh)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if "_ms_" in metric:
        return "ms"
    if metric.endswith((".calls", "_evals")):
        return "count"
    return "ratio"


def layer_metrics(tracer: Tracer, passes: int, configs: int,
                  csv_bytes: float) -> dict[str, float]:
    """Per-pass layer numbers from the recorded spans.

    busy_s sums a function's spans; self_s subtracts the spans directly
    under it; a layer's busy_s counts only spans not nested in another
    span of the same layer.
    """
    spans = tracer.spans
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    child_time: defaultdict = defaultdict(float)   # by span index
    layer_busy: defaultdict = defaultdict(float)
    for name, start, end, parent in spans:
        duration = end - start
        calls[name] += 1
        busy[name] += duration
        layer = name.split(".", 1)[0]
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            layer_busy[layer] += duration
        if parent >= 0:
            child_time[parent] += duration

    def self_time(name):
        return sum(end - start - child_time[i]
                   for i, (n, start, end, _) in enumerate(spans) if n == name)

    def children_of(parent_name, child_name=None, layers=None):
        """(count, seconds) of spans directly under parent_name spans."""
        n, seconds = 0, 0.0
        for name, start, end, parent in spans:
            if parent < 0 or spans[parent][0] != parent_name:
                continue
            if child_name and name != child_name:
                continue
            if layers and name.split(".", 1)[0] not in layers:
                continue
            n += 1
            seconds += end - start
        return n, seconds

    cycle_calls = calls["cycle.run_cycle"]
    cycle_busy = busy["cycle.run_cycle"]
    solves = calls["dynamics.solve_linear_pair"]
    roots = calls["cycle.find_efficiency_crossover"]

    def ratio(a, b):
        return a / b if b else 0.0

    totals = {
        "dynamics.solve_linear_pair.calls": solves,
        "dynamics.solve_linear_pair.busy_s": busy["dynamics.solve_linear_pair"],
        "protocol.omega_eval.calls": sum(tracer.omega_evals.values()),
    }
    for fn in ("solve_second_moments", "solve_effective_pair",
               "adiabaticity_parameter"):
        totals[f"dynamics.{fn}.calls"] = calls[f"dynamics.{fn}"]
        totals[f"dynamics.{fn}.busy_s"] = busy[f"dynamics.{fn}"]
    for name in ("protocol.check_trap_inversion", "cost.sa_cost_time_average",
                 "cycle.run_cycle"):
        totals[f"{name}.calls"] = calls[name]
        totals[f"{name}.busy_s"] = busy[name]
    for layer in ("dynamics", "protocol", "cost", "qsl", "strokes"):
        totals[f"{layer}.busy_s"] = layer_busy[layer]
    for layer in ("qsl", "strokes"):
        totals[f"{layer}.calls"] = sum(
            v for k, v in calls.items() if k.startswith(layer + "."))
    for fn in SPANNED["checks"]:
        totals[f"checks.{fn[len('check_'):]}.busy_s"] = busy[f"checks.{fn}"]
    totals.update({
        "protocol.sample_protocol.calls":
            tracer.counts["protocol.sample_protocol"],
        "cost.integrand_evals": tracer.counts["cost.sa_energy_instant"],
        "cycle.run_cycle.self_s": self_time("cycle.run_cycle"),
        "cycle.sweep.busy_s": busy["cycle.sweep"],
        "cycle.find_efficiency_crossover.busy_s":
            busy["cycle.find_efficiency_crossover"],
        "cli.main.busy_s": busy["cli.main"],
        "cli.self_s": self_time("cli.main"),
    })
    metrics = {k: v / passes for k, v in totals.items()}
    metrics.update({
        "cli.csv_bytes": csv_bytes,
        "dynamics.omega_evals_per_solve": ratio(
            tracer.omega_evals["dynamics.solve_linear_pair"], solves),
        "dynamics.solves_per_cycle": ratio(children_of(
            "cycle.run_cycle", "dynamics.solve_linear_pair")[0], cycle_calls),
        "protocol.scans_per_config": ratio(
            calls["protocol.check_trap_inversion"], configs * passes),
        "cost.quads_per_config": ratio(
            calls["cost.sa_cost_time_average"], configs * passes),
        "cycle.cycles_per_root": ratio(children_of(
            "cycle.find_efficiency_crossover", "cycle.run_cycle")[0], roots),
        "cycle.dyn_proto_cost_share": ratio(children_of(
            "cycle.run_cycle", layers=("dynamics", "protocol", "cost"))[1],
            cycle_busy),
        "trace.coverage": ratio(children_of("cycle.run_cycle")[1], cycle_busy),
    })
    return metrics
