"""Command-line front end.

Subcommands: cycle (one duration), sweep (CSV over the configured
grid), crossover (root of eta_sa - eta_na), validate (invariant suite),
protocol-dump (schedule time series).  Configuration is a flat
key = value text file; every key has a built-in default, the path may
come from the command line or the STA_OTTO_CONFIG environment variable.

Every CSV starts with a '#'-prefixed manifest echoing the exact
configuration, so a result file is self-describing and the run can be
reproduced from the file alone.  Numbers are printed with 12
significant digits; with SOURCE_DATE_EPOCH set, repeated runs are
byte-identical.

Exit codes: 0 ok, 1 validation failure, 2 usage or configuration
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import shlex
import sys
import time
from dataclasses import fields
from datetime import datetime, timezone
from typing import IO, Sequence

from . import __version__
from .checks import config_failure, run_all_checks
from .config import EngineConfig, linspace
from .cost import q_star_lcd_instant, sa_energy_instant
from .cycle import (CycleMetrics, find_efficiency_crossover, run_cycle,
                    stroke_pairs, sweep)
from .errors import ConfigError, StaOttoError
from .protocol import sample_protocol

# key -> type, in manifest order
_CONFIG_TYPES = {f.name: type(f.default) for f in fields(EngineConfig)}

_SWEEP_COLUMNS = [f.name for f in fields(CycleMetrics)
                  if f.name not in ("is_engine_na", "flags")] + ["flags"]

_DUMP_COLUMNS = ["t", "omega", "omega_dot", "omega_ddot", "omega_eff_sq",
                 "h_sa", "q_star_lcd"]

# protocol-dump builds its time grid up front
MAX_DUMP_POINTS = 1_000_000


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:#.12g}"


def _coerce(key: str, raw: str, where: str):
    kind = _CONFIG_TYPES[key]
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{where}: boolean expected for {key!r}, "
                          f"got {raw!r}")
    if kind is str:
        # the manifest echoes strings with their repr quotes
        return raw.strip("'\"")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where}: {kind.__name__} expected for {key!r}, "
                          f"got {raw!r}") from None


def parse_config_text(text: str, source: str = "<config>") -> EngineConfig:
    """Flat key = value format; '#' comments and blank lines ignored;
    a repeated key is an error, not a silent override."""
    updates, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{source}:{lineno}: expected key = value, "
                              f"got {raw.strip()!r}")
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}, "
                              f"first set on line {first_line[key]}")
        first_line[key] = lineno
        updates[key] = _coerce(key, value, f"{source}:{lineno}")
    return EngineConfig(**updates)


def load_config(path: str | None) -> EngineConfig:
    """Resolve the config: explicit path, then STA_OTTO_CONFIG, then
    built-in defaults."""
    if path is None:
        path = os.environ.get("STA_OTTO_CONFIG")
    if path is None:
        return EngineConfig()
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), path)


def _timestamp() -> str:
    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    seconds = int(pinned) if pinned is not None else int(time.time())
    return datetime.fromtimestamp(seconds, tz=timezone.utc).isoformat()


def write_manifest(fh: IO[str], command: str, config: EngineConfig,
                   argv: Sequence[str]) -> None:
    fh.write(f"# sta-otto {command} v{__version__}\n")
    fh.write(f"# timestamp: {_timestamp()}\n")
    fh.write(f"# command: {shlex.join(['sta-otto', *argv])}\n")
    for key in _CONFIG_TYPES:
        fh.write(f"# config: {key} = {getattr(config, key)!r}\n")


def read_manifest(path: str) -> EngineConfig:
    """Recover the exact configuration echoed atop a result CSV."""
    prefix = "# config: "
    header = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            header.append(line)
    if not any(line.startswith(prefix) for line in header):
        raise ConfigError(f"{path}: no manifest found")
    # the other header lines stay '#' comments, so errors name file lines
    return parse_config_text(
        "".join(line.removeprefix(prefix) for line in header), path)


def _metric_row(metrics: CycleMetrics) -> list[str]:
    cells = [_fmt(getattr(metrics, name)) for name in _SWEEP_COLUMNS[:-1]]
    cells.append("|".join(metrics.flags))
    return cells


def _write_rows(fh: IO[str], rows: Sequence[CycleMetrics], command: str,
                config: EngineConfig, argv: Sequence[str]) -> None:
    write_manifest(fh, command, config, argv)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_SWEEP_COLUMNS)
    for row in rows:
        writer.writerow(_metric_row(row))


def cmd_cycle(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    metrics = run_cycle(config, args.tau)
    for name in _SWEEP_COLUMNS[:-1]:
        print(f"{name} = {_fmt(getattr(metrics, name))}")
    print(f"cost_total = {_fmt(metrics.cost_total)}")
    print(f"is_engine_na = {_fmt(metrics.is_engine_na)}")
    print(f"flags = {'|'.join(metrics.flags) or '-'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_rows(fh, [metrics], "cycle", config, args.argv)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    # open first: an unwritable path must not cost the whole sweep
    with open(args.out, "w", encoding="utf-8") as fh:
        rows = sweep(config)
        _write_rows(fh, rows, "sweep", config, args.argv)
    failed = sum(r.failed for r in rows)
    print(f"wrote {len(rows)} rows to {args.out} ({failed} failed)")
    if failed > 0.1 * len(rows):
        print(f"error: {failed}/{len(rows)} grid points failed",
              file=sys.stderr)
        return 3
    return 0


def cmd_crossover(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    lo = args.bracket[0] if args.bracket else config.tau_min
    hi = args.bracket[1] if args.bracket else config.tau_max
    tau_star = find_efficiency_crossover(config, (lo, hi))
    print(f"tau_star = {_fmt(tau_star)}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        result = config_failure(exc)
        print(f"FAIL {result.name}: {result.detail}")
        print("1 of 1 checks failed")
        return 1
    results = run_all_checks(config)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if r.warning:
            status = "WARN"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{status} {r.name}: residual = {r.residual:.6g}{detail}")
        if not r.passed:
            failures += 1
    print(f"{failures} of {len(results)} checks failed")
    return 1 if failures else 0


def cmd_protocol_dump(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    compression, expansion = stroke_pairs(config, args.tau)
    if args.points < 2:
        raise ValueError("points must be at least 2")
    if args.points > MAX_DUMP_POINTS:
        raise ValueError(f"points must be at most {MAX_DUMP_POINTS}")
    protocol, initial = (compression if args.stroke == "compression"
                         else expansion)

    def emit(fh: IO[str]) -> None:
        write_manifest(fh, "protocol-dump", config, args.argv)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_DUMP_COLUMNS)
        for t in linspace(0.0, args.tau, args.points):
            sample = sample_protocol(protocol, t)
            writer.writerow([
                _fmt(sample.t), _fmt(sample.omega), _fmt(sample.omega_dot),
                _fmt(sample.omega_ddot), _fmt(sample.omega_eff_sq),
                _fmt(sa_energy_instant(sample, initial)),
                _fmt(q_star_lcd_instant(sample))])

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            emit(fh)
    else:
        emit(sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sta-otto",
        description="Finite-time quantum Otto cycle with local-"
                    "counterdiabatic shortcut driving")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", nargs="?", default=None,
                       help="key = value config file "
                            "(default: $STA_OTTO_CONFIG, else built-ins)")
        p.set_defaults(func=fn)
        return p

    p = add("cycle", cmd_cycle, "evaluate one cycle duration")
    p.add_argument("--tau", type=float, required=True,
                   help="stroke duration")
    p.add_argument("--out", default=None, help="optional CSV row output")

    p = add("sweep", cmd_sweep, "evaluate the configured tau grid")
    p.add_argument("--out", required=True, help="output CSV path")

    p = add("crossover", cmd_crossover,
            "locate tau* where eta_sa - eta_na changes sign")
    p.add_argument("--bracket", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"),
                   help="search bracket (default: the configured grid)")

    add("validate", cmd_validate, "run the full invariant suite")

    p = add("protocol-dump", cmd_protocol_dump,
            "emit the drive schedule as a time series")
    p.add_argument("--tau", type=float, default=1.0, help="stroke duration")
    p.add_argument("--stroke", choices=("compression", "expansion"),
                   default="compression")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--out", default=None, help="output CSV path "
                                               "(default: stdout)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StaOttoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        # an absurd but finite frequency overflows a float (w**4 in the
        # cost); an absurd bath is already a config error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
