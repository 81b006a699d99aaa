import csv
import math
import warnings
from dataclasses import fields

import pytest

import sta_otto
from sta_otto import ConfigError, EngineConfig, cli, cost, cycle
from sta_otto.checks import run_all_checks
from sta_otto.cli import (MAX_DUMP_POINTS, main, parse_config_text,
                          read_manifest, write_manifest)
from sta_otto.config import MAX_TAU_COUNT

from conftest import TAU_STAR


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("STA_OTTO_CONFIG", raising=False)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [l for l in fh if not l.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def test_cycle_stdout(capsys):
    code, out, err = run_cli(capsys, "cycle", "--tau", "5")
    assert code == 0 and err == ""
    assert "eta_ad = 0.680000000000" in out
    assert "tau = 5.00000000000" in out
    assert "is_engine_na = true" in out
    assert "flags = -" in out
    assert "cost_total = " in out


def test_cycle_rejects_bad_tau(capsys):
    code, out, err = run_cli(capsys, "cycle", "--tau", "0")
    assert code == 2
    assert "tau must be positive" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_arguments_exit_2(capsys, no_solve, bad):
    code, _, err = run_cli(capsys, "cycle", "--tau", bad)
    assert code == 2 and "tau must be positive and finite" in err
    code, _, err = run_cli(capsys, "protocol-dump", "--tau", bad)
    assert code == 2 and "tau must be positive and finite" in err
    code, _, err = run_cli(capsys, "crossover", "--bracket", "0.01", bad)
    assert code == 2 and "bracket" in err


@pytest.mark.parametrize("line", ["omega2 = inf", "tau_max = inf",
                                  "beta1 = nan"])
def test_non_finite_config_exit_2(tmp_path, capsys, no_solve, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run_cli(capsys, "cycle", "--tau", "1", str(cfg))
    assert code == 2 and "must be finite" in err


@pytest.mark.parametrize("line", ["beta2 = 1e-100", "beta2 = 5e-324",
                                  "hbar = 1e-200"])
def test_absurd_bath_exit_2(tmp_path, capsys, no_solve, line):
    # finite and ordered, but the bath's occupation factors are not
    # finite floats (csch(u)**4 overflows, u reaches 0): the config is
    # refused at construction, naming its keys, before any solve
    cfg = tmp_path / "absurd.cfg"
    cfg.write_text(line + "\ntau_count = 4\n")
    keys = "beta1, omega1, hbar" if "hbar" in line else "beta2, omega2, hbar"
    for argv in (("cycle", "--tau", "1"),
                 ("sweep", "--out", str(tmp_path / "out.csv"))):
        code, out, err = run_cli(capsys, *argv, str(cfg))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {keys}: ") and err.count("\n") == 1
    code, out, err = run_cli(capsys, "validate", str(cfg))
    assert code == 1 and err == ""
    assert out.startswith(f"FAIL config_invariants: {keys}: ")
    assert out.endswith("1 of 1 checks failed\n")


@pytest.mark.parametrize("text", [
    "omega2 = 1e100\n",
    "omega1 = 0.125\nbeta1 = 1\nbeta2 = 0.125\n",
], ids=["omega2 = 1e100", "equal occupation"])
def test_bath_occupation_order_exit_2(tmp_path, capsys, no_solve, text):
    # the first bath is colder in beta but not in occupation, so the
    # adiabatic hot heat is not positive: refused when the config is
    # built, naming its keys, before any solve
    cfg = tmp_path / "order.cfg"
    cfg.write_text(text + "tau_count = 4\n")
    keys = "beta1, omega1, beta2, omega2"
    for argv in (("cycle", "--tau", "1"),
                 ("sweep", "--out", str(tmp_path / "out.csv"))):
        code, out, err = run_cli(capsys, *argv, str(cfg))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {keys}: ") and err.count("\n") == 1
    code, out, err = run_cli(capsys, "validate", str(cfg))
    assert code == 1 and err == ""
    assert out.startswith(f"FAIL config_invariants: {keys}: ")
    assert out.endswith("1 of 1 checks failed\n")


# finite and accepted, yet w**4 and omega_dot**2 overflow
ABSURD_CONFIG = ("omega1 = 1e78\nomega2 = 1e79\nbeta1 = 1e-77\n"
                 "beta2 = 1e-80\ntau_count = 4\n")


def test_absurd_finite_config_exit_3(tmp_path, capsys):
    # every config check passes (finite bath states, hot occupation
    # above cold), but w**4 in the cost overflows: a numerical failure
    # with one error line, not a traceback.  validate's durations follow
    # the config's unit of time, so its solves stay within the solver
    # budget and overflow Omega^2 instead: a floating-point failure, which
    # also exits 3.
    cfg = tmp_path / "absurd.cfg"
    cfg.write_text(ABSURD_CONFIG)
    for argv in (("cycle", "--tau", "1"),
                 ("sweep", "--out", str(tmp_path / "out.csv")),
                 ("validate",)):
        code, out, err = run_cli(capsys, *argv, str(cfg))
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in out + err


def test_floating_point_failure_is_one_error_line(tmp_path, capsys):
    # an overflow inside a solve is a SolverFailure, not a RuntimeWarning:
    # even with every warning an error, validate on the absurd config
    # exits 3 with one error line
    cfg = tmp_path / "absurd.cfg"
    cfg.write_text(ABSURD_CONFIG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, "validate", str(cfg))
    assert code == 3
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_quadrature_failure_is_one_error_line(monkeypatch, capsys, no_solve):
    # a tolerance too tight for the cost quadrature's roundoff: quad's
    # three-line message becomes one error line, before any solve.  An
    # earlier test may have cached the default config's constants, so
    # the cache is cleared for the quadrature to run
    monkeypatch.setattr(cost, "_QUAD_EPSREL", 1.2e-14)
    cycle.cycle_constants.cache_clear()
    code, out, err = run_cli(capsys, "cycle", "--tau", "1")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: cost integral did not converge: ")


def test_tiny_tau_refused_up_front(tmp_path, capsys, no_solve):
    # below the phase floor the driving cost k1/tau^2 overflows (sweep's
    # ZeroDivisionError at tau_min = 1e-300 and cycle's at 1e-200) or
    # DOP853 refuses the time span (cycle at 1e-160): each command
    # refuses the duration by name before any solve or output file
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("tau_min = 1e-300\n")
    out_csv = tmp_path / "out.csv"
    for argv, name in ((("sweep", "--out", str(out_csv), str(cfg)),
                        "tau_min = 1e-300"),
                       (("crossover", str(cfg)), "tau_min = 1e-300"),
                       (("crossover", "--bracket", "1e-300", "1"),
                        "bracket end lo = 1e-300"),
                       (("cycle", "--tau", "1e-200"), "tau = 1e-200"),
                       (("cycle", "--tau", "1e-160"), "tau = 1e-160")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: {name}: stroke phase ") and \
            err.count("\n") == 1, err
    assert not out_csv.exists()
    code, out, err = run_cli(capsys, "validate", str(cfg))
    assert code == 1 and err == ""
    assert out.startswith("FAIL config_invariants: tau_min = 1e-300: ")
    assert out.endswith("1 of 1 checks failed\n")


def test_phase_floor_leaves_finite_rows(tmp_path, capsys):
    # just above the floor every row is finite and nothing fails
    cfg = tmp_path / "short.cfg"
    cfg.write_text("tau_min = 1e-99\ntau_count = 4\n")
    out_csv = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "sweep", "--out", str(out_csv), str(cfg))
    assert code == 0 and "(0 failed)" in out
    _, rows = data_rows(out_csv)
    assert all(math.isfinite(float(v)) for row in rows for v in row[:-1])
    assert run_cli(capsys, "cycle", "--tau", "1e-99")[0] == 0
    assert run_cli(capsys, "validate", str(cfg))[0] == 0


@pytest.mark.parametrize("text, message", [
    ("omega1 = 1.5\n", "need omega2 > omega1 > 0"),
    ("hbar = -1\n", "hbar must be positive"),
    ("tau_min = 10\ntau_max = 1\n", "need 0 < tau_min < tau_max"),
    ("tau_count = 1\n", "tau_count must be at least 2"),
    ("tau_spacing = cubic\n", "tau_spacing must be 'log' or 'linear'"),
    ("strict = maybe\n", "boolean expected for 'strict'")],
    ids=["omega order", "hbar", "tau order", "tau_count",
         "tau_spacing", "strict"])
def test_config_rejections_exit_2(tmp_path, capsys, no_solve, text,
                                  message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "cycle", "--tau", "1", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# configs naming a removed key: three former defects (a tiny abs_tol
# stalled or overflowed the solve, an unreachable quad_tol was accepted,
# and a loose rel_tol failed four validate checks), and the mass, which
# cancels from every output
REMOVED_KEY_CONFIGS = [("abs_tol = 1e-150\ntau_count = 4\n", "abs_tol"),
                       ("quad_tol = 1.2e-14\n", "quad_tol"),
                       ("rel_tol = 1e-6\n", "rel_tol"),
                       ("m = 1.0\n", "m")]


@pytest.mark.parametrize("text, key", REMOVED_KEY_CONFIGS,
                         ids=[key for _, key in REMOVED_KEY_CONFIGS])
@pytest.mark.parametrize("command", [("cycle", "--tau", "1"), ("sweep",),
                                     ("crossover",)],
                         ids=["cycle", "sweep", "crossover"])
def test_removed_keys_refused(tmp_path, capsys, no_solve, command, text,
                              key):
    # the oracles run at fixed tolerances, and the mass is no parameter:
    # a config that still sets one is refused by name, before any solve
    # or output file
    cfg = tmp_path / "tol.cfg"
    cfg.write_text(text)
    out_csv = tmp_path / "out.csv"
    argv = [*command, str(cfg)]
    if command[0] == "sweep":
        argv += ["--out", str(out_csv)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {cfg}:1: unknown key {key!r}\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("text, key", REMOVED_KEY_CONFIGS,
                         ids=[key for _, key in REMOVED_KEY_CONFIGS])
def test_validate_names_removed_key(tmp_path, capsys, no_solve, text, key):
    cfg = tmp_path / "tol.cfg"
    cfg.write_text(text)
    code, out, _ = run_cli(capsys, "validate", str(cfg))
    assert code == 1
    assert out.startswith(f"FAIL config_invariants: {cfg}:1: unknown key "
                          f"{key!r}\n")
    assert "1 of 1 checks failed" in out


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "cycle", "--tau", "1", "/no/such/file")
    assert code == 2
    assert "config file not found" in err


def test_config_parsing_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    code, _, err = run_cli(capsys, "cycle", "--tau", "1", str(bad))
    assert code == 2 and "unknown key" in err

    bad.write_text("omega1 = fast\n")
    code, _, err = run_cli(capsys, "cycle", "--tau", "1", str(bad))
    assert code == 2 and "float expected" in err

    bad.write_text("omega1\n")
    code, _, err = run_cli(capsys, "cycle", "--tau", "1", str(bad))
    assert code == 2 and "expected key = value" in err


def test_duplicate_config_key_exit_2(tmp_path, capsys, no_solve):
    # the last value used to win without a word
    text = "omega1 = 0.3\nbeta1 = 0.5\n# retuned\nomega1 = 0.32\n"
    with pytest.raises(ConfigError, match=r"engine\.cfg:4: duplicate key "
                                          r"'omega1', first set on line 1"):
        parse_config_text(text, "engine.cfg")
    cfg = tmp_path / "dup.cfg"
    cfg.write_text(text)
    code, _, err = run_cli(capsys, "cycle", "--tau", "1", str(cfg))
    assert code == 2 and "duplicate key 'omega1'" in err


def _refuse_long_solves(monkeypatch, omega_max, phase=1e5):
    # a stroke of 1e5 rad or more would keep DOP853 busy for tens of
    # seconds to hours: fail the test if one of phase rad or more
    # reaches solve_ivp
    import scipy.integrate

    solve_ivp = scipy.integrate.solve_ivp

    def bounded(fun, t_span, *args, **kwargs):
        if omega_max * t_span[1] >= phase:
            raise AssertionError(f"a {omega_max * t_span[1]:g} rad stroke "
                                 f"reached solve_ivp")
        return solve_ivp(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", bounded)


# the default config at tau = 1e8
_PHASE_CASES = [("", ("cycle", "--tau", "1e8"), 1.0)]


@pytest.mark.parametrize("text, argv, omega_max", _PHASE_CASES,
                         ids=["cycle_tau_1e8"])
def test_solver_phase_budget_exit_3(tmp_path, capsys, monkeypatch,
                                    text, argv, omega_max):
    # such a stroke exits 3 at once instead of reaching the solver
    _refuse_long_solves(monkeypatch, omega_max)
    cfg = tmp_path / "engine.cfg"
    cfg.write_text(text)
    code, _, err = run_cli(capsys, *argv, str(cfg))
    assert code == 3
    assert err.startswith("error: stroke phase") and "solver budget" in err


def test_validate_in_mhz_units_matches_default(tmp_path, capsys,
                                               monkeypatch):
    # the default engine in MHz units: validate's durations follow the
    # config's unit of time, so its solves stay far below 1e5 rad and
    # every check reads the default config's residual
    default = run_all_checks(EngineConfig())
    _refuse_long_solves(monkeypatch, 1e6)
    results = []

    def recorded(config):
        results.extend(run_all_checks(config))
        return results

    monkeypatch.setattr(cli, "run_all_checks", recorded)
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("omega1 = 0.32e6\nomega2 = 1e6\nbeta1 = 0.5e-6\n"
                   "beta2 = 0.05e-6\ntau_min = 1e-8\ntau_max = 1e-5\n")
    code, out, _ = run_cli(capsys, "validate", str(cfg))
    assert code == 0, out
    assert [r.name for r in results] == [r.name for r in default]
    for mhz, ref in zip(results, default):
        assert abs(mhz.residual - ref.residual) <= 1e-9, (mhz, ref)


def test_validate_mhz_engine_default_grid(tmp_path, capsys, monkeypatch):
    # the MHz engine on the default tau grid, whose strokes run 1e4 to
    # 1e7 rad: the row checks solve nothing, so validate's longest solve
    # is adiabatic_limit's slow side, 100 rad, and no solve reaches 1e3
    _refuse_long_solves(monkeypatch, 1e6, phase=1e3)
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("omega1 = 0.32e6\nomega2 = 1e6\nbeta1 = 0.5e-6\n"
                   "beta2 = 0.05e-6\n")
    code, out, err = run_cli(capsys, "validate", str(cfg))
    assert code == 0 and err == "", out + err
    lines = out.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 22, out
    assert lines[-1] == "0 of 22 checks failed"


def test_parse_config_text_roundtrip():
    text = "omega1 = 0.4  # comment\n\nstrict = yes\ntau_count = 50\n"
    config = parse_config_text(text)
    assert config == EngineConfig(omega1=0.4, strict=True, tau_count=50)


def test_env_config_fallback(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("omega1 = 0.4\nbeta1 = 0.3\n")
    monkeypatch.setenv("STA_OTTO_CONFIG", str(cfg))
    out_csv = tmp_path / "row.csv"
    code, out, _ = run_cli(capsys, "cycle", "--tau", "5",
                           "--out", str(out_csv))
    assert code == 0
    recovered = read_manifest(str(out_csv))
    assert recovered == EngineConfig(omega1=0.4, beta1=0.3)


def test_sweep_csv(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("tau_count = 24\n")
    out_csv = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, "sweep", str(cfg), "--out",
                             str(out_csv))
    assert code == 0 and err == ""
    assert f"wrote 24 rows to {out_csv} (0 failed)" in out

    header, rows = data_rows(out_csv)
    assert header[0] == "tau" and header[-1] == "flags"
    assert "eta_sa" in header and "tqsl3" in header
    assert len(header) == 23
    assert len(rows) == 24
    for row in rows:
        assert len(row) == 23
        float(row[0])

    assert read_manifest(str(out_csv)) == EngineConfig(tau_count=24)


def test_sweep_linear_spacing(tmp_path, capsys):
    # the tau column of a linear grid is the linspace: its ends and step
    cfg = tmp_path / "linear.cfg"
    cfg.write_text("tau_spacing = linear\ntau_min = 1\ntau_max = 4\n"
                   "tau_count = 7\n")
    out_csv = tmp_path / "linear.csv"
    code, out, err = run_cli(capsys, "sweep", str(cfg), "--out",
                             str(out_csv))
    assert code == 0 and err == ""
    _, rows = data_rows(out_csv)
    assert [float(row[0]) for row in rows] == [1.0 + 0.5 * i
                                               for i in range(7)]


def test_sweep_deterministic_bytes(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("tau_count = 12\n")
    out = tmp_path / "sweep.csv"
    argv = ("sweep", str(cfg), "--out", str(out))
    assert run_cli(capsys, *argv)[0] == 0
    first = out.read_bytes()
    assert run_cli(capsys, *argv)[0] == 0
    assert first == out.read_bytes()


def test_sweep_strict_failure_budget(tmp_path, capsys):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("strict = true\ntau_count = 12\n")
    out_csv = tmp_path / "strict.csv"
    code, out, err = run_cli(capsys, "sweep", str(cfg), "--out",
                             str(out_csv))
    assert code == 3
    assert "grid points failed" in err
    _, rows = data_rows(out_csv)
    assert len(rows) == 12
    tagged = [r for r in rows if r[-1].startswith("error:")]
    assert tagged
    assert all(r[-1].startswith("error:TrapInversionError:")
               for r in tagged)
    for row in tagged:
        assert all(cell == "0.00000000000" for cell in row[1:-1])


def test_crossover(capsys):
    code, out, err = run_cli(capsys, "crossover")
    assert code == 0 and err == ""
    assert out.startswith("tau_star = ")
    value = float(out.split("=")[1])
    assert value == pytest.approx(TAU_STAR, rel=1e-4)


def test_crossover_no_sign_change(capsys):
    code, _, err = run_cli(capsys, "crossover", "--bracket", "5", "10")
    assert code == 3
    assert "does not change sign" in err


def test_crossover_non_finite_q_star_exits_3(capsys, nan_q_star_inside):
    # a NaN Q* inside the bracket fails the search: exit 3, no root printed
    code, out, err = run_cli(capsys, "crossover", "--bracket", "0.01", "10")
    assert code == 3 and out == ""
    assert "did not converge" in err


def test_crossover_no_root_at_heat_sign_pole(tmp_path, capsys):
    # the bare heat changes sign at tau = 4.98136, which is no crossing
    cfg = tmp_path / "pole.cfg"
    cfg.write_text("beta2 = 0.1333\n")
    code, out, err = run_cli(capsys, "crossover", str(cfg), "--bracket",
                             "0.01", "10")
    assert code == 3 and out == ""
    assert "does not change sign" in err


def test_validate_default_config(capsys):
    code, out, _ = run_cli(capsys, "validate")
    assert code == 0
    assert "0 of " in out.splitlines()[-1]
    assert "FAIL" not in out
    assert "WARN trap_inversion_scan" in out


def test_validate_near_unit_compression_ratio(tmp_path, capsys):
    # omega2/omega1 = 1.001: Q* - 1 is below 1e-11 on much of the grid,
    # where Husimi's form of the solves read P_NA > P_SA by 1.7e-11
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("omega1 = 0.999\n")
    code, out, _ = run_cli(capsys, "validate", str(cfg))
    assert code == 0, out
    assert "FAIL" not in out


def test_validate_all_rows_error(tmp_path, capsys):
    # strict mode and a grid wholly below tau_c ~ 2.62: every grid row
    # is refused, which the grid checks must report, not crash on;
    # power_ordering's tau = 10 row lies above tau_c
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("strict = true\ntau_max = 2.0\ntau_count = 12\n")
    code, out, err = run_cli(capsys, "validate", str(cfg))
    assert code == 1 and err == ""
    names = [line.split(" ", 1)[1].split(":", 1)[0]
             for line in out.splitlines()
             if line.split(" ", 1)[0] in ("PASS", "WARN", "FAIL")]
    assert len(names) == len(set(names)) == 22
    for name in ("bound_ordering", "eta_sa_monotone",
                 "p_sa_scaling", "eta_ordering"):
        assert f"FAIL {name}: residual = inf  (no valid rows)" in out
    assert out.splitlines()[-1] == "4 of 22 checks failed"


def test_validate_rejects_bath_order(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("beta1 = 0.01\nbeta2 = 0.05\n")
    code, out, _ = run_cli(capsys, "validate", str(cfg))
    assert code == 1
    assert "FAIL config_invariants" in out
    assert "first bath colder" in out
    assert "1 of 1 checks failed" in out


def test_protocol_dump_stdout(capsys):
    code, out, err = run_cli(capsys, "protocol-dump", "--points", "11")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == f"# sta-otto protocol-dump v{sta_otto.__version__}"
    data = [l for l in lines if not l.startswith("#")]
    header = data[0].split(",")
    assert header == ["t", "omega", "omega_dot", "omega_ddot",
                      "omega_eff_sq", "h_sa", "q_star_lcd"]
    first, last = data[1].split(","), data[-1].split(",")
    assert float(first[1]) == pytest.approx(0.32)
    assert float(last[1]) == pytest.approx(1.0)
    # shortcut correction switches off at the endpoints
    assert first[-1] == "1.00000000000" and last[-1] == "1.00000000000"
    assert first[-2] == "0.00000000000" and last[-2] == "0.00000000000"


def test_protocol_dump_expansion(tmp_path, capsys):
    out_csv = tmp_path / "dump.csv"
    code, _, _ = run_cli(capsys, "protocol-dump", "--stroke", "expansion",
                         "--points", "11", "--tau", "2", "--out",
                         str(out_csv))
    assert code == 0
    _, rows = data_rows(out_csv)
    assert float(rows[0][1]) == pytest.approx(1.0)
    assert float(rows[-1][1]) == pytest.approx(0.32)
    assert float(rows[-1][0]) == pytest.approx(2.0)


def test_protocol_dump_bad_args(capsys):
    code, _, err = run_cli(capsys, "protocol-dump", "--tau", "0")
    assert code == 2 and "tau must be positive" in err
    code, _, err = run_cli(capsys, "protocol-dump", "--points", "1")
    assert code == 2 and "points must be at least 2" in err


def test_size_caps_exit_2(tmp_path, capsys, no_solve):
    # an absurd size fails as a usage error before anything is built
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"tau_count = {MAX_TAU_COUNT + 1}\n")
    code, _, err = run_cli(capsys, "sweep", str(cfg), "--out",
                           str(tmp_path / "out.csv"))
    assert code == 2 and "tau_count must be at most" in err
    code, out, err = run_cli(capsys, "protocol-dump", "--points",
                             str(MAX_DUMP_POINTS + 1))
    assert code == 2 and "points must be at most" in err and out == ""


@pytest.mark.parametrize("argv", [("sweep",), ("cycle", "--tau", "5"),
                                  ("protocol-dump",)])
def test_unwritable_output_exit_2(tmp_path, capsys, request, argv):
    if argv[0] == "sweep":
        # sweep opens --out before it evaluates a single point
        request.getfixturevalue("no_solve")
    cfg = tmp_path / "small.cfg"
    cfg.write_text("tau_count = 2\n")
    out = tmp_path / "no" / "such" / "dir.csv"
    code, _, err = run_cli(capsys, *argv, str(cfg), "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and str(out) in err


def test_manifest_schema_roundtrip(tmp_path):
    config = EngineConfig(omega1=0.4, omega2=1.3, beta1=0.7, beta2=0.1,
                          hbar=0.5, tau_min=0.02, tau_max=5.0,
                          tau_count=17, tau_spacing="linear", strict=True)
    for f in fields(EngineConfig):
        assert getattr(config, f.name) != f.default, f.name
    path = tmp_path / "manifest.csv"
    with open(path, "w", encoding="utf-8") as fh:
        write_manifest(fh, "sweep", config, ["sweep"])
        fh.write("tau\n")
    assert read_manifest(str(path)) == config

    header = path.read_text(encoding="utf-8").splitlines()[:-1]
    path.write_text("\n".join(header + ["# config: speed = 3", "tau", ""]))
    with pytest.raises(ConfigError) as info:
        read_manifest(str(path))
    # the error names the offending line of the file
    assert str(info.value) == f"{path}:{len(header) + 1}: unknown key 'speed'"


@pytest.mark.parametrize("key", ["rel_tol", "abs_tol", "quad_tol", "m"])
def test_manifest_with_removed_key_refused(tmp_path, key):
    # result CSVs written before the tolerances became constants echo
    # them as config keys, and those before 0.1.10 echo the mass; such a
    # manifest no longer reproduces a run
    path = tmp_path / "old.csv"
    with open(path, "w", encoding="utf-8") as fh:
        write_manifest(fh, "sweep", EngineConfig(), ["sweep"])
    header = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(header + [f"# config: {key} = 1e-10", "tau",
                                        ""]))
    with pytest.raises(ConfigError) as info:
        read_manifest(str(path))
    assert str(info.value) == (f"{path}:{len(header) + 1}: unknown key "
                               f"{key!r}")


def test_read_manifest_without_config_header(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("# sta-otto sweep\ntau,q_star_1\n1.0,1.5\n")
    with pytest.raises(ConfigError, match="no manifest found"):
        read_manifest(str(path))
