"""Perturbative reflected-norm kernels for a particle coupled to its environment.

Second-order perturbation theory in the barrier strength, with the incoming
broad packet taken in its plane-wave limit, gives the diagonal reflected
density as a single oscillatory time integral for position coupling and a
closed form for momentum coupling.  All densities here use the plane-wave
normalization: in the zero-coupling limit they resolve to

    (2 pi m^2 / (hbar p_bar^2)) V(p - p_bar)^2 * delta(p + p_bar),

whose coefficient is the Born reflection probability for a unit-flux packet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import reflection_p_grid
from .oscquad import QuadratureError, decay_cutoff, integrate_oscillatory_batch
from .params import PhysicalParams, PotentialSpec
from .potentials import potential_momentum


@dataclass(frozen=True)
class EnvironmentSpec:
    """Lindblad coupling choice: position (strength D), momentum (D_p), or none."""

    kind: str  # "position_coupling" | "momentum_coupling" | "none"
    strength: float = 0.0

    def __post_init__(self):
        if self.kind not in ("position_coupling", "momentum_coupling", "none"):
            raise ValueError(f"unknown environment kind {self.kind!r}")
        if self.strength < 0:
            raise ValueError("coupling strength must be nonnegative")

    @classmethod
    def position(cls, D: float) -> "EnvironmentSpec":
        return cls("position_coupling", D)

    @classmethod
    def momentum(cls, D_p: float) -> "EnvironmentSpec":
        return cls("momentum_coupling", D_p)

    @classmethod
    def none(cls) -> "EnvironmentSpec":
        return cls("none", 0.0)


@dataclass(frozen=True)
class ReflectedSpectrum:
    """Reflected momentum density sampled on a grid, with its quadrature total."""

    p: np.ndarray
    density: np.ndarray
    total: float
    tau: float
    environment: EnvironmentSpec


# -- free density-matrix propagators -----------------------------------------


def propagator_position(x, y, t, xp, yp, tp, params: PhysicalParams, D: float) -> complex:
    """Position-space density-matrix propagator J(x,y,t | x',y',t') for V = 0.

    Free two-sided Schrodinger kernel times the position-coupling decoherence
    factor exp(-D dt [(x-y)^2 + (x-y)(x'-y') + (x'-y')^2] / 3 hbar^2).
    """
    if not t > tp:
        raise ValueError("propagator requires t > t'")
    m, hbar = params.m, params.hbar
    dt = t - tp
    pref = m / (2.0 * math.pi * hbar * dt)
    phase = np.exp(1j * m * ((x - xp) ** 2 - (y - yp) ** 2) / (2.0 * hbar * dt))
    u, v = x - y, xp - yp
    decay = np.exp(-D * dt * (u * u + u * v + v * v) / (3.0 * hbar**2))
    return pref * phase * decay


def propagator_momentum(p, q, t, pp, qp, tp, params: PhysicalParams,
                        env: EnvironmentSpec) -> complex:
    """Smooth factor of the momentum-space density-matrix propagator (V = 0).

    Position coupling: the caller must enforce the total-momentum-difference
    constraint delta(p - q - p' + q'); the returned factor is the Gaussian
    (4 pi D dt)^(-1/2) exp(-(p-p')^2/4D dt) in the sideband, the free phase and
    the cubic off-diagonal decay.  Momentum coupling: the constraint is
    delta(p-p') delta(q-q') and the factor is the phase times the linear-in-dt
    off-diagonal decay.
    """
    if not t > tp:
        raise ValueError("propagator requires t > t'")
    m, hbar = params.m, params.hbar
    dt = t - tp
    if env.kind == "momentum_coupling":
        Dp = env.strength
        return np.exp(
            -1j * dt * (p**2 - q**2) / (2.0 * m * hbar) - Dp * dt * (p - q) ** 2
        )
    if env.kind != "position_coupling":
        raise ValueError("propagator_momentum needs a position or momentum coupling")
    D = env.strength
    if D <= 0:
        raise ValueError("position-coupling propagator requires D > 0")
    gauss = np.exp(-((p - pp) ** 2) / (4.0 * D * dt)) / math.sqrt(4.0 * math.pi * D * dt)
    phase = np.exp(-1j * dt * (p**2 - q**2 + pp**2 - qp**2) / (4.0 * m * hbar))
    decay = np.exp(-D * dt**3 * (p - q) ** 2 / (12.0 * m**2 * hbar**2))
    return gauss * phase * decay


# -- reflected densities ------------------------------------------------------


def _momentum_form(spec: PotentialSpec, p, hbar: float):
    if not spec.has_analytic_transform:
        raise ValueError(
            "perturbative kernels need a barrier with a square-integrable "
            f"momentum transform, not {spec.kind!r}"
        )
    return potential_momentum(spec, p, hbar)


def born_delta_coefficient(p, params: PhysicalParams) -> np.ndarray:
    """Coefficient of delta(p + p_bar) in the plane-wave Born reflected density,
    (2 pi m^2 / hbar p_bar^2) V(p - p_bar)^2."""
    m, hbar, pb = params.m, params.hbar, params.p_bar
    v = _momentum_form(params.potential, np.asarray(p, float) - pb, hbar)
    return 2.0 * math.pi * m**2 / (hbar * pb**2) * v**2


def reflected_density_x(
    p,
    params: PhysicalParams,
    D: float | None = None,
    tau: float | None = None,
):
    """Diagonal reflected density at momentum p for position coupling.

    Evaluates (2m / hbar^2 p_bar) V^2(p - p_bar) *
        int_0^tau ds (1 - s/tau) cos(omega s) exp(-D s^3 (p-p_bar)^2 / 12 m^2 hbar^2)
    with omega = (p^2 - p_bar^2) / 2 m hbar.  tau defaults to the packet
    standoff time 2 m x_bar / p_bar; tau = inf drops the (1 - s/tau) factor.
    p may be an array: every point is integrated in one batched quadrature
    and an array is returned; a float p returns a float.

    The D = 0, tau = inf corner is distributional -- the integral resolves to
    pi delta(omega) -- and returns the delta coefficient born_delta_coefficient(p),
    which is the sense in which the kernel reduces to the Born result.
    """
    m, hbar, pb = params.m, params.hbar, params.p_bar
    if D is None:
        D = params.D
    if tau is None:
        tau = params.tau_default
    p_arr = np.atleast_1d(np.asarray(p, float))
    delta = p_arr - pb
    omega = (p_arr**2 - pb**2) / (2.0 * m * hbar)
    beta = D * delta**2 / (12.0 * m**2 * hbar**2)

    if D == 0.0 and math.isinf(tau):
        dens = born_delta_coefficient(p_arr, params)
    elif D == 0.0:
        # closed form: Fejer kernel (1 - cos(omega tau)) / (omega^2 tau)
        safe = np.where(omega == 0.0, 1.0, omega)
        fejer = np.where(omega == 0.0, tau / 2.0,
                         (1.0 - np.cos(safe * tau)) / (safe**2 * tau))
        dens = _x_prefactor(params, delta) * fejer
    else:
        cutoff = decay_cutoff((beta, 3))
        upper = np.minimum(tau, cutoff)
        if not np.all(np.isfinite(upper)):
            raise QuadratureError("integral does not converge: D = 0 with infinite tau")
        if math.isinf(tau):
            env = lambda s, i: np.exp(-beta[i] * s**3)
        else:
            env = lambda s, i: (1.0 - s / tau) * np.exp(-beta[i] * s**3)
        dens = _x_prefactor(params, delta) * integrate_oscillatory_batch(env, omega, upper, upper)
    return float(dens[0]) if np.ndim(p) == 0 else dens


def _x_prefactor(params: PhysicalParams, delta: np.ndarray) -> np.ndarray:
    v = _momentum_form(params.potential, delta, params.hbar)
    with np.errstate(over="ignore"):  # an inf density fails the caller's finite check
        return 2.0 * params.m / (params.hbar**2 * params.p_bar) * v**2


def reflected_density_p(p, params: PhysicalParams, D_p: float | None = None):
    """Closed-form diagonal reflected density for momentum coupling.

    (2 pi m^2 / hbar p_bar^2) V^2(p - p_bar) * B(p) where the broadening factor

        B(p) = (2 c p_bar / pi) / [(p + p_bar)^2 + c^2 (p - p_bar)^2],
        c = 2 m hbar D_p,

    integrates to exactly one over the real line for every c and tends to
    delta(p + p_bar) as D_p -> 0.  (The often-quoted representation with
    (p - p_bar)^2 in the numerator and (p^2 - p_bar^2)^2 in the denominator is
    the same function; the (p - p_bar)^2 factor cancels, so the point
    p = p_bar is perfectly regular.)  Elementwise over an array p; a float p
    returns a float.
    """
    m, hbar, pb = params.m, params.hbar, params.p_bar
    if D_p is None:
        D_p = params.D_p
    if D_p <= 0:
        raise ValueError("momentum-coupling density requires D_p > 0")
    c = 2.0 * m * hbar * D_p
    p_arr = np.asarray(p, float)
    v2 = _momentum_form(params.potential, p_arr - pb, hbar) ** 2
    bracket = (2.0 * c * pb / math.pi) / ((p_arr + pb) ** 2 + c**2 * (p_arr - pb) ** 2)
    dens = 2.0 * math.pi * m**2 / (hbar * pb**2) * v2 * bracket
    return float(dens) if np.ndim(p) == 0 else dens


def broadening_factor_integral(params: PhysicalParams, D_p: float,
                               p_lo: float, p_hi: float) -> float:
    """Exact integral of the momentum-coupling broadening factor over [p_lo, p_hi].

    Antiderivative (1/pi) arctan((p(1+c^2) + p_bar(1-c^2)) / (2 c p_bar)); the
    full-line integral is exactly 1 for every D_p.
    """
    pb = params.p_bar
    c = 2.0 * params.m * params.hbar * D_p

    def F(p):
        return math.atan((p * (1 + c**2) + pb * (1 - c**2)) / (2.0 * c * pb)) / math.pi

    return F(p_hi) - F(p_lo)


def reflected_spectrum(
    params: PhysicalParams,
    env: EnvironmentSpec,
    tau: float | None = None,
    p_grid: np.ndarray | None = None,
    edge_fraction: float = 0.02,
) -> ReflectedSpectrum:
    """Sample the chosen kernel on a momentum grid and integrate it.

    Raises QuadratureError when the density at the lower grid edge exceeds
    edge_fraction of the peak, since the total would then be visibly
    truncated.  (The momentum-coupling kernel has 1/p^2 tails, so on the
    default [-8 p_bar, 0) grid the edge sits near 1e-5..1e-2 of the peak and
    the omitted tail mass is below a few permille of the total.)  Only the
    lower edge truncates: the upper edge p -> 0- is where the reflected range
    itself ends, and the density may peak there (it does at a = 0.1, D_p = 1).
    """
    if p_grid is None:
        p_grid = reflection_p_grid(params, 2048)
    if tau is None:
        tau = params.tau_default
    if env.kind == "position_coupling":
        dens = reflected_density_x(p_grid, params, env.strength, tau)
    elif env.kind == "momentum_coupling":
        dens = reflected_density_p(p_grid, params, env.strength)
    else:
        raise ValueError("reflected_spectrum needs an environment coupling")
    peak = float(np.max(np.abs(dens)))
    if peak > 0 and abs(dens[0]) > edge_fraction * peak:
        raise QuadratureError(
            f"density at the lower grid edge exceeds {edge_fraction:g} of the peak; "
            "widen p_range"
        )
    total = float(np.trapezoid(dens, p_grid))
    return ReflectedSpectrum(p=np.asarray(p_grid, float), density=dens, total=total,
                             tau=tau, environment=env)


def total_reflected(
    params: PhysicalParams,
    env: EnvironmentSpec,
    tau: float | None = None,
    p_grid: np.ndarray | None = None,
) -> float:
    """Total reflected probability: quadrature of the kernel density over p < 0."""
    return reflected_spectrum(params, env, tau, p_grid).total


def sweep_total_p(
    params: PhysicalParams,
    D_p_values,
    p_grid: np.ndarray | None = None,
) -> np.ndarray:
    """Total reflected probability versus D_p for momentum coupling."""
    return np.array([
        total_reflected(params, EnvironmentSpec.momentum(D_p), p_grid=p_grid)
        for D_p in D_p_values
    ])


def narrow_sideband_ratio(params: PhysicalParams, D: float | None = None) -> float:
    """Validity ratio D t_z / p_bar^2 of the narrow-sideband approximation.

    The plane-wave kernels assume the environment's direct momentum spreading
    over the traversal time stays far below p_bar^2; callers should treat
    ratios that are not << 1 as leaving the kernels' regime.
    """
    if D is None:
        D = params.D
    t_z = params.m * params.sigma / params.p_bar
    return D * t_z / params.p_bar**2
