"""Seeded inputs and one timed pass of each benchmark workload.

Each workload splits into ``next_inputs`` (drawn from the seed, so one
seed always gives the same sequence of inputs), ``run`` (the timed
calls into sta_otto, made through module attributes so that a traced
run sees them) and ``check`` (the untimed comparison of the outputs
with the benchmark's own oracle).

Items: a grid point in ``sweep``, a root in ``crossover-study`` and a
check in ``validate``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

DEFAULT_ENGINE = {"omega1": 0.32, "omega2": 1.0, "beta1": 0.5, "beta2": 0.05}
SWEEP_GRID = {"tau_min": 0.01, "tau_max": 10.0, "tau_count": 200,
              "tau_spacing": "log"}
# the warm-up takes the same code path on a 4-point grid
WARM_UP_GRID = {**SWEEP_GRID, "tau_count": 4}
STUDY_BRACKET = (0.01, 10.0)
# region in which every probed draw has an efficiency crossover root
STUDY_REGION = {"omega1": (0.35, 0.5), "beta1": (0.5, 0.95),
                "beta2": (0.02, 0.05)}
STUDY_CONFIGS_PER_PASS = 20
# p90 of the per-root latency needs ten samples beyond it
STUDY_MIN_ROOTS = 100
VALIDATE_CHECKS = (
    "config_invariants", "protocol_boundary", "protocol_midpoint",
    "protocol_scaling", "wronskian_constancy", "ermakov_residual",
    "q_star_routes", "adiabatic_limit", "lcd_exactness",
    "adiabatic_efficiency", "cost_boundary", "cost_scaling",
    "cost_consistency", "fidelity_identity", "fidelity_zero_t",
    "bound_ordering", "eta_sa_monotone", "power_ordering", "p_sa_scaling",
    "eta_ordering", "rescaling_invariance", "trap_inversion_scan",
)


def jittered_engine(seed: int) -> dict:
    """Seed 0 is the paper's working point; other seeds move omega1,
    beta1 and beta2 by up to 10% either way."""
    if seed == 0:
        return dict(DEFAULT_ENGINE)
    rng = np.random.default_rng(seed)
    factors = rng.uniform(0.9, 1.1, size=3)
    engine = dict(DEFAULT_ENGINE)
    for key, f in zip(("omega1", "beta1", "beta2"), factors):
        engine[key] = float(DEFAULT_ENGINE[key] * f)
    return engine


def study_engines(rng: np.random.Generator, count: int) -> list[dict]:
    """Latin-hypercube draw over STUDY_REGION: each parameter range is
    cut into ``count`` strata and each stratum is used once, which keeps
    the mix of easy and hard configs alike from pass to pass."""
    columns = {}
    for key, (lo, hi) in STUDY_REGION.items():
        strata = (rng.permutation(count) + rng.uniform(size=count)) / count
        columns[key] = lo + (hi - lo) * strata
    return [{"omega1": float(columns["omega1"][i]), "omega2": 1.0,
             "beta1": float(columns["beta1"][i]),
             "beta2": float(columns["beta2"][i])} for i in range(count)]


def config_text(values: dict) -> str:
    return "".join(f"{key} = {value!r}\n" if not isinstance(value, str)
                   else f"{key} = {value}\n" for key, value in values.items())


def oracle_engine(values: dict) -> oracle.Engine:
    return oracle.Engine(values["omega1"], values["omega2"],
                         values["beta1"], values["beta2"])


@dataclass
class PassResult:
    seconds: float
    items: int
    item_seconds: list = field(default_factory=list)
    output: object = None
    csv_bytes: int = 0


@dataclass
class CheckOutcome:
    failed: int = 0
    reasons: list = field(default_factory=list)
    q_star_max_rel_err: float = 0.0
    cost_max_rel_err: float = 0.0


def _quiet_main(cli, argv: list[str]) -> tuple[int, str, float]:
    """cli.main with stdout captured; returns (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return code, out.getvalue() + err.getvalue(), seconds


class Sweep:
    """``sta-otto sweep`` in-process over the 200-point log grid, CSV
    write included: the paper's main product, one config and many taus,
    so every per-tau layer does most of its work here."""

    name = "sweep"
    configs_per_pass = 1
    min_items = 0

    def __init__(self, seed: int, workdir: Path):
        self.engine = jittered_engine(seed)
        self.config_path = workdir / "sweep.cfg"
        self.config_path.write_text(config_text({**self.engine, **SWEEP_GRID}))
        self.warm_up_path = workdir / "sweep-warm-up.cfg"
        self.warm_up_path.write_text(config_text({**self.engine,
                                                  **WARM_UP_GRID}))
        self.csv_path = workdir / "sweep.csv"

    def next_inputs(self):
        return None

    def warm_up(self, sta) -> None:
        _quiet_main(sta.cli, ["sweep", str(self.warm_up_path), "--out",
                              str(self.csv_path)])

    def run(self, sta, inputs) -> PassResult:
        code, _, seconds = _quiet_main(
            sta.cli, ["sweep", str(self.config_path), "--out",
                      str(self.csv_path)])
        text = self.csv_path.read_text(encoding="utf-8") if code == 0 else ""
        return PassResult(seconds, SWEEP_GRID["tau_count"], output=(code, text),
                          csv_bytes=len(text.encode()))

    def check(self, passes: list[PassResult]) -> CheckOutcome:
        outcome = CheckOutcome()
        grid = oracle.log_grid(SWEEP_GRID["tau_min"], SWEEP_GRID["tau_max"],
                               SWEEP_GRID["tau_count"])
        verdicts = {}
        for p in passes:
            code, text = p.output
            if code != 0:
                outcome.failed += p.items
                outcome.reasons.append(f"sweep exited {code}")
                continue
            if text not in verdicts:
                verdicts[text] = oracle.check_sweep_rows(
                    oracle_engine(self.engine), parse_sweep_csv(text), grid)
            v = verdicts[text]
            outcome.failed += min(len(v.failed_items), p.items)
            outcome.reasons += [f"row {i}: {r}" for i, r in v.failed[:5]]
            outcome.q_star_max_rel_err = max(outcome.q_star_max_rel_err,
                                             v.q_star_max_rel_err)
            outcome.cost_max_rel_err = max(outcome.cost_max_rel_err,
                                           v.cost_max_rel_err)
        return outcome


def parse_sweep_csv(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = []
    for record in csv.DictReader(lines):
        row = {key: (value if key == "flags" else float(value))
               for key, value in record.items()}
        rows.append(row)
    return rows


class CrossoverStudy:
    """A parameter study: find_efficiency_crossover on (0.01, 10) for
    distinct seeded configs.  Brent calls run_cycle serially, about 13
    times per root, so per-config set-up amortises over few cycles and
    there are no taus to batch."""

    name = "crossover-study"
    configs_per_pass = STUDY_CONFIGS_PER_PASS
    min_items = STUDY_MIN_ROOTS

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, 1])
        self._pending = study_engines(self.rng, STUDY_CONFIGS_PER_PASS)
        # the set-up spawn builds the first config of the study
        self.config_path = workdir / "crossover-study.cfg"
        self.config_path.write_text(config_text(self._pending[0]))

    def next_inputs(self) -> list[dict]:
        engines, self._pending = self._pending, None
        return engines or study_engines(self.rng, STUDY_CONFIGS_PER_PASS)

    def warm_up(self, sta) -> None:
        self.run(sta, [DEFAULT_ENGINE])

    def run(self, sta, inputs: list[dict]) -> PassResult:
        EngineConfig = sta.config.EngineConfig
        StaOttoError = sta.errors.StaOttoError
        latencies, roots = [], []
        for engine in inputs:
            t0 = time.perf_counter()
            try:
                root = sta.cycle.find_efficiency_crossover(
                    EngineConfig(**engine), STUDY_BRACKET)
            except StaOttoError as exc:
                root = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            roots.append((engine, root))
        return PassResult(sum(latencies), len(inputs), latencies, roots)

    def check(self, passes: list[PassResult]) -> CheckOutcome:
        outcome = CheckOutcome()
        for p in passes:
            found = []
            for engine, root in p.output:
                if isinstance(root, str):
                    outcome.failed += 1
                    outcome.reasons.append(f"{engine}: {root}")
                else:
                    found.append((engine, root))
            if not found:
                continue
            ok = oracle.crossover_roots_bracketed(
                [oracle_engine(e) for e, _ in found], [r for _, r in found],
                STUDY_BRACKET)
            for (engine, root), good in zip(found, ok):
                if not good:
                    outcome.failed += 1
                    outcome.reasons.append(
                        f"{engine}: no reference sign change at {root!r}")
        return outcome


class Validate:
    """``sta-otto validate`` in-process: reaches the oracle routes the
    production cycle bypasses (dense output, second moments, effective
    pair, the tau = 100 slow drive, 200 inversion scans)."""

    name = "validate"
    configs_per_pass = 1
    min_items = 0

    def __init__(self, seed: int, workdir: Path):
        self.engine = jittered_engine(seed)
        self.config_path = workdir / "validate.cfg"
        self.config_path.write_text(config_text({**self.engine, **SWEEP_GRID}))
        self.warm_up_path = workdir / "validate-warm-up.cfg"
        self.warm_up_path.write_text(config_text({**self.engine,
                                                  **WARM_UP_GRID}))

    def next_inputs(self):
        return None

    def warm_up(self, sta) -> None:
        _quiet_main(sta.cli, ["validate", str(self.warm_up_path)])

    def run(self, sta, inputs) -> PassResult:
        code, text, seconds = _quiet_main(
            sta.cli, ["validate", str(self.config_path)])
        return PassResult(seconds, len(VALIDATE_CHECKS), output=(code, text))

    def check(self, passes: list[PassResult]) -> CheckOutcome:
        outcome = CheckOutcome()
        for p in passes:
            failed, reasons = validate_failures(*p.output)
            outcome.failed += min(failed, p.items)
            outcome.reasons += reasons[:5]
        return outcome


def validate_failures(code: int, text: str) -> tuple[int, list[str]]:
    """Failed checks in a validate report: FAIL lines, plus every
    expected check that is missing or reported twice."""
    seen, reasons = {}, []
    for line in text.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("PASS", "WARN", "FAIL"):
            name = rest.split(":", 1)[0]
            seen[name] = seen.get(name, 0) + 1
            if status == "FAIL":
                reasons.append(line)
    for name in VALIDATE_CHECKS:
        if seen.get(name) != 1:
            reasons.append(f"{name}: reported {seen.get(name, 0)} times")
    if code != 0 and not reasons:
        reasons.append(f"validate exited {code}")
    return len(reasons), reasons


WORKLOADS = {cls.name: cls for cls in (Sweep, CrossoverStudy, Validate)}
