"""Finite-time quantum Otto cycle with local-counterdiabatic driving.

A harmonic oscillator is compressed and expanded between two bath
contacts; this package computes the work, heat, efficiency and power of
that cycle for the bare drive, the ideal quasistatic reference, and the
shortcut drive that reaches the adiabatic target in finite time at an
explicit energetic cost, together with the geometric speed-limit bounds
the cost implies.

scipy is used only to integrate (solve_ivp for the ODEs, quad for the
shortcut cost) and is imported inside the two functions that call it;
numpy arrives only through scipy, and no module imports it itself.  So
importing the package, reading a config, building the tau grid, the
inversion threshold, --help, protocol-dump and every command path that
solves nothing load only the standard library.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.12"

from .config import EngineConfig, tau_grid
from .cost import (q_star_lcd_instant, sa_cost_time_average,
                   sa_energy_instant, shortcut_shape_factor)
from .cycle import (CycleConstants, CycleMetrics,
                    compression_q_star_excess, cycle_constants,
                    find_efficiency_crossover, find_heat_sign_threshold,
                    rescaled, run_cycle, stroke_pairs, sweep)
from .dynamics import (adiabaticity_from_ermakov, ermakov_from_linear,
                       magnus_pair, moment_q_star, q_star_excess,
                       series_pair_state, solve_effective_pair,
                       solve_linear_pair, solve_second_moments,
                       sudden_pair_series, wronskian)
from .errors import (ConfigError, DivisionByZeroCost, DomainError,
                     InvalidDenominator, NoSignChange, OutOfRangeTime,
                     QuadratureFailure, SolverFailure, StaOttoError,
                     TrapInversionError)
from .protocol import (FrequencyProtocol, ProtocolSample, boundary_residuals,
                       effective_frequency_sq, inversion_threshold,
                       omega_of, polynomial_ramp, sample_protocol)
from .qsl import (bures_angle, efficiency_bound, gaussian_fidelity,
                  power_bound, qsl_time)
from .strokes import (ThermalOscillatorState, engine_condition,
                      heat_sign_threshold, hot_isochore_heat, stroke_work)

# the public names, not the submodules the imports above bind
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
