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

from .errors import ConfigError, QuadratureError
from .oscquad import batched, decay_cutoff, integrate_oscillatory_batch, squares
from .params import PhysicalParams
from .potentials import potential_momentum

_EDGE_FRACTION = 0.02  # largest lower-edge density of a total's range, relative to the peak


@dataclass(frozen=True)
class EnvironmentSpec:
    """Lindblad coupling choice: position (strength D) or momentum (D_p); no
    coupling is position(0.0)."""

    kind: str  # "position_coupling" | "momentum_coupling"
    strength: float = 0.0

    def __post_init__(self):
        if self.kind not in ("position_coupling", "momentum_coupling"):
            raise ConfigError(f"unknown environment kind {self.kind!r}")
        if self.strength < 0:
            raise ConfigError("coupling strength must be nonnegative")

    @classmethod
    def position(cls, D: float) -> "EnvironmentSpec":
        return cls("position_coupling", D)

    @classmethod
    def momentum(cls, D_p: float) -> "EnvironmentSpec":
        return cls("momentum_coupling", D_p)


# -- reflected densities ------------------------------------------------------


def born_delta_coefficient(p, params: PhysicalParams) -> np.ndarray:
    """Coefficient of delta(p + p_bar) in the plane-wave Born reflected density,
    (2 pi m^2 / hbar p_bar^2) V(p - p_bar)^2."""
    m, hbar, pb = params.m, params.hbar, params.p_bar
    v = potential_momentum(params.potential, np.asarray(p, float) - pb, hbar)
    return 2.0 * math.pi * m**2 / (hbar * pb**2) * v**2


def reflected_density_x(
    p,
    params: PhysicalParams,
    D=None,
    tau: float | None = None,
):
    """Diagonal reflected density at momentum p for position coupling.

    Evaluates (2m / hbar^2 p_bar) V^2(p - p_bar) *
        int_0^tau ds (1 - s/tau) cos(omega s) exp(-D s^3 (p-p_bar)^2 / 12 m^2 hbar^2)
    with omega = (p^2 - p_bar^2) / 2 m hbar.  tau defaults to the packet
    standoff time 2 m x_bar / p_bar; tau = inf drops the (1 - s/tau) factor.
    p and D may be arrays that broadcast together, one strength per point: every
    point with D > 0 is integrated in one batched quadrature, and every point keeps
    the arithmetic of a call of its own; an array is returned, and a float p and D
    return a float.

    The D = 0, tau = inf corner is distributional -- the integral resolves to
    pi delta(omega) -- and returns the delta coefficient born_delta_coefficient(p),
    which is the sense in which the kernel reduces to the Born result.
    """
    m, hbar, pb = params.m, params.hbar, params.p_bar
    if D is None:
        D = params.D
    if tau is None:
        tau = params.tau_default
    scalar = np.ndim(p) == 0 and np.ndim(D) == 0
    p_arr, D = np.broadcast_arrays(np.atleast_1d(np.asarray(p, float)), np.asarray(D, float))
    delta = p_arr - pb
    omega = (p_arr**2 - pb**2) / (2.0 * m * hbar)
    beta = D * delta**2 / (12.0 * m**2 * hbar**2)

    dens, zero = np.empty(p_arr.shape), D == 0.0
    if np.any(zero) and math.isinf(tau):
        dens[zero] = born_delta_coefficient(p_arr[zero], params)
    elif np.any(zero):
        # closed form: Fejer kernel (1 - cos(omega tau)) / (omega^2 tau), written as
        # 2 sin^2(omega tau / 2) / (omega^2 tau), which keeps its digits at small omega tau
        w = omega[zero]
        safe = np.where(w == 0.0, 1.0, w)
        fejer = np.where(w == 0.0, tau / 2.0, 2.0 * np.sin(0.5 * safe * tau) ** 2 / (safe**2 * tau))
        dens[zero] = _x_prefactor(params, delta[zero]) * fejer
    if not np.all(zero):
        live = ~zero
        beta = beta[live]
        upper = np.minimum(tau, decay_cutoff((beta, 3)))
        if not np.all(np.isfinite(upper)):  # tau = inf, and beta is 0 or too small to decay
            p, D, k = p_arr[live], D[live], int(np.argmin(np.isfinite(upper)))
            raise QuadratureError(
                f"integral does not converge at p = {p[k]:.6g}, D = {D[k]:.3g}: the decay rate "
                f"D (p - p_bar)^2 / 12 m^2 hbar^2 is zero at infinite tau "
                f"({'p = p_bar' if p[k] == pb else 'the rate underflows'})")
        if math.isinf(tau):
            env = lambda s, i: np.exp(-beta[i] * (s * s * s))
        else:
            env = lambda s, i: (1.0 - s / tau) * np.exp(-beta[i] * (s * s * s))
        integral = integrate_oscillatory_batch(env, omega[live], upper, upper)
        dens[live] = _x_prefactor(params, delta[live]) * integral
    return float(dens[0]) if scalar else dens


def _x_prefactor(params: PhysicalParams, delta: np.ndarray) -> np.ndarray:
    v = potential_momentum(params.potential, delta, params.hbar)
    with np.errstate(over="ignore"):  # an inf density fails the caller's finite check
        return 2.0 * params.m / (params.hbar**2 * params.p_bar) * v**2


def reflected_density_p(p, params: PhysicalParams, D_p=None):
    """Closed-form diagonal reflected density for momentum coupling.

    (2 pi m^2 / hbar p_bar^2) V^2(p - p_bar) * B(p) where the broadening factor

        B(p) = (2 c p_bar / pi) / [(p + p_bar)^2 + c^2 (p - p_bar)^2],
        c = 2 m hbar D_p,

    integrates to exactly one over the real line for every c and tends to
    delta(p + p_bar) as D_p -> 0.  (The often-quoted representation with
    (p - p_bar)^2 in the numerator and (p^2 - p_bar^2)^2 in the denominator is
    the same function; the (p - p_bar)^2 factor cancels, so the point
    p = p_bar is perfectly regular.)  Elementwise over an array p, and over an
    array D_p that broadcasts against it with the arithmetic of one D_p at a
    time; a float p and D_p return a float.
    """
    m, hbar, pb = params.m, params.hbar, params.p_bar
    if D_p is None:
        D_p = params.D_p
    scalar = np.ndim(p) == 0 and np.ndim(D_p) == 0
    D_p = np.asarray(D_p, float)
    if np.any(D_p <= 0):
        raise ConfigError("momentum-coupling density requires D_p > 0")
    c = 2.0 * m * hbar * D_p
    p_arr = np.asarray(p, float)
    # c**2 below would raise OverflowError on a float; numpy warns where c^2 (p - p_bar)^2 does
    with np.errstate(over="ignore"):
        fits = c * c * float(np.max((p_arr - pb) ** 2, initial=0.0)) < math.inf
    if not np.all(fits):
        raise ConfigError("(2 m hbar D_p)^2 overflows against (p - p_bar)^2, got "
                          f"D_p = {float(D_p[~fits].flat[0])!r}")
    bracket = (2.0 * c * pb / math.pi) / ((p_arr + pb) ** 2 + squares(c) * (p_arr - pb) ** 2)
    dens = born_delta_coefficient(p_arr, params) * bracket
    return float(dens) if scalar else dens


def total_reflected(
    params: PhysicalParams,
    env,
    tau: float | None = None,
    p_min: float | None = None,
):
    """Total reflected probability: the kernel density integrated over [p_min, 0].

    The total is defined on that range, p_min = -8 p_bar by default, as criterion
    03's oracle is (the mass below -8 p_bar is 1.5% of the total at a = 0.1,
    D_p = 1).  The density is finite at p = 0; integrate_oscillatory_batch at
    omega = 0 bisects every p-panel its run-time error estimate does not resolve.
    env is one EnvironmentSpec, or a sequence of specs of one kind, whose totals
    take one batched p-integral, a point per strength, and return an array; when
    that batch fails, each strength reruns alone (oscquad.batched).
    Raises QuadratureError when a strength's density at p_min exceeds
    _EDGE_FRACTION of its peak over its evaluated nodes, as its total would then be
    truncated; the upper limit does not truncate, and the density may peak there
    (at a = 0.1, D_p = 1).
    """
    if p_min is None:
        p_min = -8.0 * params.p_bar
    specs = [env] if isinstance(env, EnvironmentSpec) else list(env)
    kinds = {spec.kind for spec in specs}
    if len(kinds) > 1:
        raise ConfigError("total_reflected takes environments of one coupling kind")
    if "position_coupling" in kinds:
        density = lambda p, D: reflected_density_x(p, params, D, tau)
    else:
        density = lambda p, D_p: reflected_density_p(p, params, D_p)

    def run(strength):  # one p-integral, a point per strength
        peak = np.zeros(len(strength))  # each strength's largest |density| over its nodes

        def envelope(s, i):
            dens = density(s + p_min, strength[i])
            np.maximum.at(peak, i[:, 0], np.max(np.abs(dens), axis=1))
            return dens

        # the estimate's tolerance is relative to each point's peak over its first-pass
        # nodes, and at large tau the x density peaks within 2 pi m hbar / (tau p_bar)
        # of -p_bar: scale -p_min / 2 lays 8 panels, whose edges fall on -p_bar at the
        # default p_min; 4 put -p_bar mid-panel, far from any node, and a sigma = 3000
        # total at D = 1e-8 then fails its 12 bisections
        totals = integrate_oscillatory_batch(envelope, np.zeros(len(strength)), -p_min,
                                             -0.5 * p_min)
        for edge, top in zip(np.abs(density(p_min, strength)), peak):
            if top > 0 and edge > _EDGE_FRACTION * top:
                raise QuadratureError(
                    f"density at the lower limit p = {p_min:.6g} is {edge / top:.3g} of the "
                    f"peak (> {_EDGE_FRACTION:g}), so the total is truncated; "
                    "total_reflected's p_min argument sets a lower limit"
                )
        return totals

    totals = batched(run, np.array([spec.strength for spec in specs]))
    return float(totals[0]) if isinstance(env, EnvironmentSpec) else totals


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
