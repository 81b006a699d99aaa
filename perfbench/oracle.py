"""Independent reference for the benchmark's correctness checks.

Nothing here imports sta_otto.  The fundamental pair of
f'' + omega(t)^2 f = 0 is integrated in the rescaled time s = t/tau for
many durations at once (one DOP853 solve at rtol 1e-12), and the
shortcut cost coefficient cost * tau^2 comes from Gauss-Legendre
quadrature in s.  The cycle energetics are written out from the
closed-form stroke formulas.

Tolerances: Q* and cost * tau^2 to 1e-8 relative, eta_ad to 1e-9
absolute; eta_sa <= eta_ad and p_na <= p_sa hold exactly (rounding a
number to fixed significant digits keeps the order of two numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

Q_STAR_RTOL = 1e-8
COST_RTOL = 1e-8
ETA_AD_ATOL = 1e-9
ROOT_STEP = 1e-4
_ODE_RTOL = 1e-12
_ODE_ATOL = 1e-14
_GAUSS_NODES = 96


@dataclass(frozen=True)
class Engine:
    """The physical parameters the oracle needs (hbar kept explicit)."""

    omega1: float
    omega2: float
    beta1: float
    beta2: float
    hbar: float = 1.0


def _ramp(s, omega_i: float, omega_f: float):
    """Quintic ramp and its first two s-derivatives."""
    d = omega_f - omega_i
    w = omega_i + d * s**3 * (10.0 - 15.0 * s + 6.0 * s * s)
    w_s = d * 30.0 * s * s * (1.0 - s) ** 2
    w_ss = d * 60.0 * s * (1.0 - 3.0 * s + 2.0 * s * s)
    return w, w_s, w_ss


def q_star(omega_i, omega_f, taus) -> np.ndarray:
    """Endpoint adiabaticity parameter of the bare ramp, elementwise over
    broadcast arrays of start frequency, end frequency and duration.

    State per element: (X, X_t, Y, Y_t) with X(0)=0, X_t(0)=1, Y(0)=1,
    Y_t(0)=0; in s the equations read dX/ds = tau X_t and
    dX_t/ds = -tau omega(s)^2 X.
    """
    wi, wf, taus = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                         for a in (omega_i, omega_f, taus)))
    shape, n = taus.shape, taus.size
    wi, wf, taus = wi.ravel(), wf.ravel(), taus.ravel()
    y0 = np.concatenate([np.zeros(n), np.ones(n), np.ones(n), np.zeros(n)])

    def rhs(s, y):
        x, v, yy, u = y.reshape(4, n)
        w2 = _ramp(s, wi, wf)[0] ** 2
        return np.concatenate([taus * v, -taus * w2 * x,
                               taus * u, -taus * w2 * yy])

    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853",
                    rtol=_ODE_RTOL, atol=_ODE_ATOL)
    if not sol.success:
        raise RuntimeError(f"oracle ODE failed: {sol.message}")
    x, v, yy, u = sol.y[:, -1].reshape(4, n)
    q = (wi * wi * (wf * wf * x * x + v * v) + wf * wf * yy * yy + u * u) \
        / (2.0 * wi * wf)
    return q.reshape(shape)


def _coth(x):
    return 1.0 / np.tanh(x)


def cost_coefficient(omega_i, omega_f, beta, hbar=1.0) -> np.ndarray:
    """cost * tau^2 of one stroke starting thermal at (beta, omega_i),
    elementwise over broadcast parameter arrays.

    cost = (E0/omega_i) / tau^2 * int_0^1 [w_ss/(4 w^2) - w_s^2/(4 w^3)] ds,
    with E0 = (hbar omega_i/2) coth(beta hbar omega_i/2).
    """
    wi, wf, beta, hbar = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                               for a in (omega_i, omega_f,
                                                         beta, hbar)))
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    s = 0.5 * (nodes + 1.0)[:, None]
    w, w_s, w_ss = _ramp(s, wi.ravel()[None, :], wf.ravel()[None, :])
    integral = 0.5 * (weights @ (w_ss / (4.0 * w * w)
                                 - w_s * w_s / (4.0 * w**3)))
    e0_over_w0 = 0.5 * hbar * _coth(0.5 * beta * hbar * wi)
    return e0_over_w0 * integral.reshape(wi.shape)


@dataclass(frozen=True)
class Cycle:
    """Reference cycle quantities at an array of durations."""

    tau: np.ndarray
    q_star_1: np.ndarray
    q_star_3: np.ndarray
    cost1: np.ndarray
    cost3: np.ndarray
    eta_na: np.ndarray
    eta_sa: np.ndarray
    eta_ad: np.ndarray
    p_na: np.ndarray
    p_sa: np.ndarray


def cycle(engine: Engine, taus) -> Cycle:
    """Reference cycle at each tau; engine fields may be arrays that
    broadcast against taus."""
    e = engine
    taus = np.asarray(taus, dtype=float)
    q1 = q_star(e.omega1, e.omega2, taus)
    q3 = q_star(e.omega2, e.omega1, taus)
    cost1 = cost_coefficient(e.omega1, e.omega2, e.beta1, e.hbar) / taus**2
    cost3 = cost_coefficient(e.omega2, e.omega1, e.beta2, e.hbar) / taus**2
    c_cold = _coth(0.5 * e.beta1 * e.hbar * np.asarray(e.omega1))
    c_hot = _coth(0.5 * e.beta2 * e.hbar * np.asarray(e.omega2))

    def works(qa, qb):
        w1 = 0.5 * e.hbar * (e.omega2 * qa - e.omega1) * c_cold
        w3 = 0.5 * e.hbar * (e.omega1 * qb - e.omega2) * c_hot
        heat = 0.5 * e.hbar * e.omega2 * (c_hot - qa * c_cold)
        return w1 + w3, heat

    w_na, q2_na = works(q1, q3)
    w_ad, q2_ad = works(1.0, 1.0)
    return Cycle(
        tau=taus, q_star_1=q1, q_star_3=q3, cost1=cost1, cost3=cost3,
        eta_na=-w_na / q2_na, eta_sa=-w_ad / (q2_ad + cost1 + cost3),
        eta_ad=-w_ad / q2_ad, p_na=-w_na / (2.0 * taus),
        p_sa=-w_ad / (2.0 * taus))


def log_grid(tau_min: float, tau_max: float, count: int) -> np.ndarray:
    return np.logspace(math.log10(tau_min), math.log10(tau_max), count)


def _rel(a, b):
    return abs(a - b) / abs(b)


@dataclass
class Verdict:
    """Per-item pass/fail plus the worst accuracy seen."""

    failed: list = field(default_factory=list)   # (item index, reason)
    q_star_max_rel_err: float = 0.0
    cost_max_rel_err: float = 0.0

    def fail(self, index: int, reason: str) -> None:
        self.failed.append((index, reason))

    @property
    def failed_items(self) -> set:
        return {i for i, _ in self.failed}


def check_sweep_rows(engine: Engine, rows: list[dict], grid) -> Verdict:
    """Check parsed sweep rows (column name -> value, flags as text)
    against the reference cycle at the expected grid."""
    verdict = Verdict()
    grid = np.asarray(grid, dtype=float)
    if len(rows) != grid.size:
        for i in range(max(len(rows), grid.size)):
            verdict.fail(i, f"expected {grid.size} rows, got {len(rows)}")
        return verdict
    ref = cycle(engine, grid)
    target_eta_ad = 1.0 - engine.omega1 / engine.omega2
    for i, row in enumerate(rows):
        if "error:" in row["flags"]:
            verdict.fail(i, row["flags"])
            continue
        if _rel(row["tau"], grid[i]) > 1e-10:
            verdict.fail(i, f"tau {row['tau']!r} is not grid point {grid[i]!r}")
            continue
        q_err = max(_rel(row["q_star_1"], ref.q_star_1[i]),
                    _rel(row["q_star_3"], ref.q_star_3[i]))
        c_err = max(_rel(row["cost1"], ref.cost1[i]),
                    _rel(row["cost3"], ref.cost3[i]))
        verdict.q_star_max_rel_err = max(verdict.q_star_max_rel_err, q_err)
        verdict.cost_max_rel_err = max(verdict.cost_max_rel_err, c_err)
        if not q_err <= Q_STAR_RTOL:
            verdict.fail(i, f"Q* off by {q_err:.3g} (relative)")
        if not c_err <= COST_RTOL:
            verdict.fail(i, f"cost * tau^2 off by {c_err:.3g} (relative)")
        if not abs(row["eta_ad"] - target_eta_ad) <= ETA_AD_ATOL:
            verdict.fail(i, f"eta_ad {row['eta_ad']!r} != 1 - omega1/omega2")
        if not row["eta_sa"] <= row["eta_ad"]:
            verdict.fail(i, "eta_sa > eta_ad")
        if not row["p_na"] <= row["p_sa"]:
            verdict.fail(i, "p_na > p_sa")
    return verdict


def crossover_roots_bracketed(engines: list[Engine], roots,
                              bracket=(0.01, 10.0)) -> np.ndarray:
    """For each (engine, root): True when the reference eta_sa - eta_na
    changes sign across root * (1 -/+ ROOT_STEP) inside the bracket.
    One batched solve covers all of them."""
    roots = np.asarray(roots, dtype=float)
    taus = roots[:, None] * np.array([1.0 - ROOT_STEP, 1.0 + ROOT_STEP])
    params = {name: np.array([[getattr(e, name)] * 2 for e in engines])
              for name in ("omega1", "omega2", "beta1", "beta2", "hbar")}
    ref = cycle(Engine(**params), taus)
    gap = ref.eta_sa - ref.eta_na
    inside = (bracket[0] < roots) & (roots < bracket[1])
    return inside & (gap[:, 0] * gap[:, 1] < 0.0)
