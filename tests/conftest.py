"""Shared fixtures and frozen reference constants.

Closed-form oracle values were computed independently with 40-digit
arithmetic and frozen here; constants marked as regression values were
computed once with this implementation and pin its future behavior.
The acceptance module reports one line per criterion through the
terminal-summary hook below.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import strategies as st

from sta_otto import EngineConfig, cycle, sweep

# closed-form oracles (40-digit arithmetic, frozen)
COTH_008 = 12.526655295819479794      # coth(0.08)
COTH_0025 = 40.008332986131777809     # coth(0.025)
W1_AD = 4.25906280057862313           # (1/2)(1 - 0.32) coth(0.08)
W3_AD = -13.6028332152848045          # (1/2)(0.32 - 1) coth(0.025)
Q2_AD = 13.7408388451561490           # (1/2)(coth(0.025) - coth(0.08))
HEAT_THRESHOLD = 3.19385598480416056  # coth(0.025)/coth(0.08)
SHAPE_INTEGRAL = 0.893952790053041322 # int_0^1 omega'^2/(4 omega^3) ds, quintic 0.32<->1
COST1_TAU1 = 5.59911922586526483      # compression cost, cold start, tau = 1
COST3_TAU1 = 17.8827804491618145      # expansion cost, hot start, tau = 1
F1 = 0.736295622651361711             # fidelity, thermal(0.5, 0.32) -> 1.0
L1 = 0.539283772354490349             # Bures angle of F1
F3 = 0.734784569684920737             # fidelity, thermal(0.05, 1.0) -> 0.32
L3 = 0.54099681033628061              # Bures angle of F3
OVERLAP_ZERO_T = 0.857099128710966696 # 2 sqrt(0.32 * 1)/(0.32 + 1)
SUDDEN_CAP = 1.7225                   # (0.32^2 + 1)/(2 * 0.32): sudden-quench Q*

# regression constants (first computation with this implementation, frozen)
TAU_STAR = 0.253077777638             # root of eta_sa = eta_na, converged (xtol 1e-14 in ln tau)
TAU_STAR_FAR = 18.2192070598          # second root, converged (rtol 1e-13, xtol 1e-15 in ln tau)
Q1_TAU1 = 1.68265052943513            # compression Q* at tau = 1
Q1_TAU001 = 1.72249589529961          # compression Q* at tau = 0.01
TAU_HEAT_DEATH_B02 = 4.19044578965    # heat-sign root for the beta1 = 0.2 config

# its bare cycle's heat changes sign at tau = 4.98136 inside (0.01, 10),
# where eta_sa - eta_na flips sign without a crossing
POLE_CONFIG = EngineConfig(omega1=0.32, omega2=1.0, beta1=0.5, beta2=0.1333)

# accepted configs in a box around the default (beta2 omega2 < beta1
# omega1 throughout), shared by the property tests over configs
CONFIG_BOX = st.builds(EngineConfig,
                       omega1=st.floats(0.25, 0.4),
                       omega2=st.floats(0.8, 1.25),
                       beta1=st.floats(0.4, 0.625),
                       beta2=st.floats(0.04, 0.0625),
                       hbar=st.floats(0.5, 2.0))


def production_excess(config: EngineConfig, samples) -> dict:
    """{tau: production Q*1 - 1} at pair_samples' taus, as validate's
    run_all_checks builds it for q_star_routes."""
    return {tau: cycle.compression_q_star_excess(config, tau)
            for tau in samples}


@pytest.fixture(scope="session")
def base_config() -> EngineConfig:
    return EngineConfig()


@pytest.fixture(scope="session")
def base_sweep(base_config):
    return sweep(base_config)


@pytest.fixture
def no_solve(monkeypatch):
    """Fail fast instead of hanging if a bad input reaches the ODE solver
    or the Magnus kernel."""
    def refuse(*args, **kwargs):
        raise AssertionError("input reached the ODE solver")
    monkeypatch.setattr("sta_otto.cycle.solve_linear_pair", refuse)
    monkeypatch.setattr("sta_otto.cycle.magnus_pair", refuse)


@pytest.fixture
def nan_q_star_inside(monkeypatch):
    """compression_q_star_excess returns NaN for 0.05 < tau < 5, inside
    the (0.01, 10) bracket but not at its ends."""
    solve = cycle.compression_q_star_excess

    def nan_inside(config, tau):
        return math.nan if 0.05 < tau < 5.0 else solve(config, tau)

    monkeypatch.setattr(cycle, "compression_q_star_excess", nan_inside)


def pytest_configure(config):
    config._criteria_lines = []


@pytest.fixture
def record_criterion(request):
    def _record(number: int, title: str, passed: bool, detail: str = ""):
        mark = "PASS" if passed else "FAIL"
        tail = f"  ({detail})" if detail else ""
        request.config._criteria_lines.append(
            (number, f"criterion {number} [{mark}] {title}{tail}"))
    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criteria_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
