"""qreflect: a 1D scattering laboratory for reflection under decoherence.

Three independent routes to the reflected probability of a wave packet
hitting a barrier: grid propagation of the Schrodinger equation, analytic
second-order kernels for environment-coupled dynamics (single particle and
the two-particle massive-target version), and stochastic state-diffusion
trajectories whose ensemble mean reproduces the open-system density operator.
"""

__version__ = "0.1.0"

from .errors import (ClosureError, ConfigError, GridTooNarrowError, NumericalError,
                     QreflectError, QuadratureError, RegimeEscalation)
from .grids import (SpatialGrid, WaveFunction, gaussian_packet, gaussian_state_from_moments,
                    position_moments, to_momentum)
from .model1 import (EnvironmentSpec, born_delta_coefficient, reflected_density_p,
                     reflected_density_x, total_reflected, narrow_sideband_ratio)
from .model2 import (Model2Config, clamp_density,
                     conditional_reflected_env,
                     conditional_reflected_noenv,
                     joint_reflected_noenv, marginal_reflected_noenv,
                     reflected_density_env, target_momentum_density,
                     total_reflected_model2)
from .oscquad import integrate_oscillatory, integrate_oscillatory_batch
from .params import PhysicalParams, PotentialSpec, steady_target_width
from .potentials import potential_momentum, potential_position
from .qsd import (FluctuationReport, NoiseStream, TrajectoryMoments,
                  fluctuation_report, moment_step, run_moment_ensemble,
                  run_wavefunction_ensemble, steady_moments, step_trajectory,
                  wavefunction_moments)
from .timescales import (RegimeVerdict, TimescaleReport, check_regime, compute_timescales,
                         scattering_time, target_cutoffs, wigner_spreading_ratio)
from .unitary import (BornResult, ProbabilityLedger, SnapshotSeries, born_reflection,
                      propagate, reflection_probability)

__all__ = [name for name in dir() if not name.startswith("_")]
