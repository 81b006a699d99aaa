"""The benchmark's oracle rejects wrong outputs and ok_frac shows it.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def sta():
    return run.load_package()


@pytest.fixture(scope="module")
def sweep_pass(sta, tmp_path_factory):
    workload = workloads.Sweep(0, tmp_path_factory.mktemp("sweep"))
    return workload, workload.run(sta, None)


def _perturbed(text: str, row: int, column: str, delta: float) -> str:
    lines = text.splitlines(keepends=True)
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    header = lines[body[0]].rstrip("\n").split(",")
    target = body[1 + row]
    cells = lines[target].rstrip("\n").split(",")
    col = header.index(column)
    cells[col] = f"{float(cells[col]) + delta:#.12g}"
    lines[target] = ",".join(cells) + "\n"
    return "".join(lines)


def _ok_frac(passes, outcome) -> float:
    attempted = sum(p.items for p in passes)
    metrics, _ = run.end_to_end(passes, [1.0], 1.0, attempted,
                                outcome.failed)
    return metrics["ok_frac"][0]


def test_clean_sweep_passes(sweep_pass):
    workload, result = sweep_pass
    outcome = workload.check([result])
    assert outcome.failed == 0, outcome.reasons
    assert 0.0 < outcome.q_star_max_rel_err <= oracle.Q_STAR_RTOL
    assert _ok_frac([result], outcome) == 1.0


@pytest.mark.parametrize("row, column, delta", [(57, "q_star_1", 1e-6),
                                                (199, "q_star_3", 1e-6),
                                                (150, "cost3", 1e-6),
                                                (3, "eta_ad", 1e-6)])
def test_perturbed_row_is_rejected(sweep_pass, row, column, delta):
    workload, result = sweep_pass
    code, text = result.output
    bad = workloads.PassResult(result.seconds, result.items,
                               output=(code, _perturbed(text, row, column,
                                                        delta)))
    outcome = workload.check([result, bad])
    assert outcome.failed == 1
    assert outcome.reasons[0].startswith(f"row {row}:")
    assert _ok_frac([result, bad], outcome) == pytest.approx(1 - 1 / 400)


def test_error_row_counts_as_failed(sweep_pass):
    workload, result = sweep_pass
    code, text = result.output
    lines = text.rstrip("\n").split("\n")
    lines[-1] += "error:SolverFailure:stalled"
    bad = workloads.PassResult(result.seconds, result.items,
                               output=(code, "\n".join(lines) + "\n"))
    assert workload.check([bad]).failed == 1


def test_crossover_root_needs_reference_sign_change(sta, tmp_path):
    workload = workloads.CrossoverStudy(0, tmp_path)
    engine = workloads.study_engines(workload.rng, 1)[0]
    result = workload.run(sta, [engine])
    assert workload.check([result]).failed == 0
    (_, root), = result.output
    moved = workloads.PassResult(0.1, 1, [0.1],
                                 [(engine, root * (1 + 1e-3))])
    failed = workloads.PassResult(0.1, 1, [0.1],
                                  [(engine, "NoSignChange: none")])
    assert workload.check([result, moved, failed]).failed == 2


def test_validate_report_failures():
    lines = [f"PASS {name}: residual = 0" for name in workloads.VALIDATE_CHECKS]
    assert workloads.validate_failures(0, "\n".join(lines)) == (0, [])
    lines[3] = lines[3].replace("PASS", "FAIL")
    failed, _ = workloads.validate_failures(1, "\n".join(lines[:-1]))
    assert failed == 2   # one FAIL line, one check missing


def test_cost_coefficient_matches_adaptive_quadrature():
    from scipy.integrate import quad

    def integrand(s):
        w, w_s, w_ss = oracle._ramp(s, 0.32, 1.0)
        return w_ss / (4 * w * w) - w_s * w_s / (4 * w**3)

    e0_over_w0 = 0.5 / oracle.math.tanh(0.5 * 0.5 * 0.32)
    ref = e0_over_w0 * quad(integrand, 0, 1, epsabs=0, epsrel=1e-13)[0]
    assert oracle.cost_coefficient(0.32, 1.0, 0.5) == pytest.approx(
        ref, rel=1e-12)


def test_metric_names_match_benchmark_json():
    import json

    import tracer

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    p = workloads.PassResult(1.0, 2, [0.4, 0.6])
    e2e, _ = run.end_to_end([p], [1.0], 80.0, 2, 0)
    assert {k: u for k, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    imports = run.import_seconds()
    assert all(v > 0.0 for v in imports.values())
    layers = run.per_layer(tracer.Tracer(), [p], [p], 1,
                           workloads.CheckOutcome(), imports)
    assert {k: tracer.unit_of(k) for k in layers} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}


def test_missing_layer_is_reported_absent(sta):
    import tracer

    t = tracer.Tracer(package="no_such_package")
    for _ in range(2):
        with t:
            pass
    assert t.absent.count("cycle.run_cycle") == 1
    with tracer.Tracer() as t:
        assert sta.cycle.run_cycle.__wrapped__ is not None
    assert not t.absent
    assert not hasattr(sta.cycle.run_cycle, "__wrapped__")
