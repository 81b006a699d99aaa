"""sta-otto benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 35 --trace 0

Workloads (see workloads.py): ``sweep``, ``crossover-study``,
``validate``.  sta_otto is imported from ``src/`` of the tree this file
sits in, never from an installed copy.  BLAS/OpenMP thread pools are
pinned to one thread; the workload runs in this process.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
set-up time over fresh interpreters, then one warm-up pass, then timed
passes for ``--seconds``, summarised on their slow side (see
``end_to_end``).  ``--trace 1`` is a separate run: each pass
runs untraced and then traced on the same inputs, the per-layer metrics
come from the traced passes, and the tracing overhead is the median of
the paired differences (traced minus untraced pass time).  Either way
every output is checked afterwards, untimed, against the benchmark's own
oracle (oracle.py).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Environment, per-pass times and failure reasons go to
``perfbench/results/<workload>_seed<seed>_trace<t>.json``; the traced
run also writes its spans to ``perfbench/results/trace_<workload>_seed<seed>.json``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# pins the CSV manifest timestamp, so repeated sweep passes are identical
os.environ["SOURCE_DATE_EPOCH"] = "0"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SPAWNS = 5
# a run that must reach a minimum item count may overrun --seconds by
# at most this factor
MAX_OVERRUN = 3.0
MODULES = ("config", "protocol", "dynamics", "strokes", "cost", "qsl",
           "cycle", "checks", "cli", "errors")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep", "crossover-study", "validate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == ROOT else None


def load_package() -> SimpleNamespace:
    """Import sta_otto from SRC and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"sta_otto.{name}")
            for name in MODULES}
    origin = Path(sys.modules["sta_otto"].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"sta_otto resolved to {origin}, not under {SRC}")
    return SimpleNamespace(file=str(origin), **mods)


def setup_seconds(config_path: Path) -> list[float]:
    """Wall time of fresh interpreters that import sta_otto.cli and
    build the workload's config."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            f"from sta_otto import cli; cli.load_config({str(config_path)!r})")
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def import_seconds() -> dict[str, float]:
    """Self import time per package, from ``python -X importtime``."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import sta_otto.cli")
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                         cwd=ROOT, check=True, capture_output=True, text=True,
                         timeout=120).stderr
    totals = {"numpy": 0.0, "scipy": 0.0, "sta_otto": 0.0}
    for line in out.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        package = parts[2].strip().split(".", 1)[0]
        if package in totals:
            totals[package] += int(parts[0]) * 1e-6
    return {"import.numpy_s": totals["numpy"],
            "import.scipy_s": totals["scipy"],
            "import.sta_otto_self_s": totals["sta_otto"]}


def timed_passes(workload, sta, seconds: float, tracer=None):
    """Warm up, then run passes until ``seconds`` have gone and the
    workload's minimum item count is met.  With a tracer, each input
    runs untraced and then traced; returns (untraced, traced) passes."""
    workload.warm_up(sta)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        items = sum(p.items for p in plain)
        if elapsed >= seconds and (items >= workload.min_items
                                   or elapsed >= MAX_OVERRUN * seconds):
            return plain, traced
        inputs = workload.next_inputs()
        plain.append(workload.run(sta, inputs))
        if tracer is not None:
            with tracer:
                traced.append(workload.run(sta, inputs))


def percentile(values, q: float) -> float:
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def item_latencies(passes) -> list[float]:
    """Item latency per root where the benchmark calls per item
    (crossover-study); where one call does a whole pass of items (sweep,
    validate) each pass contributes its mean item latency."""
    return [t for p in passes for t in p.item_seconds] or \
        [p.seconds / p.items for p in passes]


def end_to_end(passes, setup: list[float], peak_rss_mb: float,
               attempted: int, failed: int) -> tuple[dict, list[float]]:
    """The end-to-end metrics and the item latency samples.

    Times are summarised on their slow side: wall_s is the 90th
    percentile of the pass times, items_per_s the 10th percentile of the
    pass rates and item_ms_p90 the 90th percentile of item latency.  On
    a shared 2-vCPU KVM guest (Xeon, model 207) the interference is
    one-sided: for tens of seconds to minutes at a time every pass takes
    up to 40% less time (the host's idle phases), while the loaded level
    is stable.  A median
    moves with the share of fast passes in a run; the slow-side
    percentile stays on the loaded level.  Over 35-40 s windows of a
    15-minute validate trace the IQR/median of the window value was
    0.10 for the 90th percentile and 0.13-0.16 for the median or mean.
    """
    latencies = item_latencies(passes)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (percentile([p.seconds for p in passes], 0.9), "s"),
        "items_per_s": (percentile([p.items / p.seconds for p in passes],
                                   0.1), "1/s"),
        "item_ms_p90": (1e3 * percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }, latencies


def per_layer(tracer, plain, traced, configs_per_pass: int, outcome,
              imports: dict) -> dict[str, float]:
    """Layer metrics of the traced passes, the tracing overhead (median
    of traced minus untraced time over passes run on the same inputs),
    the median item latency of the untraced passes, the oracle's
    accuracy figures and the import times."""
    metrics = tracing.layer_metrics(
        tracer, len(traced), configs_per_pass,
        statistics.median(p.csv_bytes for p in traced))
    metrics["trace.overhead_s"] = statistics.median(
        t.seconds - p.seconds for p, t in zip(plain, traced))
    metrics["item_ms_p50"] = 1e3 * percentile(item_latencies(plain), 0.5)
    metrics["dynamics.q_star_max_rel_err"] = outcome.q_star_max_rel_err
    metrics["cost.cost_max_rel_err"] = outcome.cost_max_rel_err
    metrics.update(imports)
    return metrics


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    if not (SRC / "sta_otto" / "__init__.py").is_file():
        print(f"error: no sta_otto package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, RESULTS)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"

    setup = [] if args.trace else setup_seconds(workload.config_path)
    sta = load_package()
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = timed_passes(workload, sta, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = plain + traced

    outcome = workload.check(checked)
    attempted = sum(p.items for p in checked)
    failed = min(outcome.failed, attempted)

    if args.trace:
        metrics = per_layer(tracer, plain, traced, workload.configs_per_pass,
                            outcome, import_seconds())
        result_metrics = {k: {"value": v, "unit": tracing.unit_of(k)}
                          for k, v in metrics.items()}
        tracer.dump(RESULTS / f"trace_{args.workload}_seed{args.seed}.json")
        latencies = []
    else:
        values, latencies = end_to_end(plain, setup, peak_rss_mb,
                                     attempted, failed)
        result_metrics = {k: {"value": v, "unit": u}
                          for k, (v, u) in values.items()}

    env = {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sta_otto_file": sta.file,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": result_metrics}
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "absent_layers": tracer.absent if tracer else [],
        "item_seconds": latencies,
        "pass_seconds": [p.seconds for p in plain],
        "traced_pass_seconds": [p.seconds for p in traced],
        "setup_spawn_seconds": setup,
        "failure_reasons": outcome.reasons[:50],
        "result": result,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(report, indent=1))

    print("env " + json.dumps(env))
    for name, m in result_metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
