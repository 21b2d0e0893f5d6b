"""Two-particle scattering: light particle reflecting off a massive target.

Second-order perturbation theory in the contact barrier V(x - X) with the
incoming light particle in the plane-wave limit and the target in a Gaussian
state.  The environment, when present, couples only to the target position.
The joint and conditional densities return the float coefficient of their
delta(E), E(p, P) the kinetic-energy mismatch when the light particle ends at p
and the target at P (at incoming target momentum P + p - p_bar).  The marginal
integrates the delta over the target momentum analytically, at its root and
with the Jacobian M/|p - p_bar|, never by numerical smearing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, QuadratureError
from .oscquad import (batched, decay_cutoff, integrate_oscillatory_batch, panel_nodes,
                      squares)
from .params import PhysicalParams, steady_target_width
from .potentials import potential_momentum

_FLOOR_FRACTION = 1e-6  # deepest negative lobe, relative to the peak, that clamp_density zeroes
# Weideman's N = 40 rational expansion of w (see _faddeeva): its polynomial's
# coefficients a_n, highest degree first, are the cosine sums of a 160-point DFT,
# written out so that importing this module does not load numpy.fft
_W_N = 40
_W_L = math.sqrt(_W_N / math.sqrt(2.0))
_W_THETA = np.arange(1 - 2 * _W_N, 2 * _W_N) * math.pi / (2 * _W_N)
_W_T = _W_L * np.tan(0.5 * _W_THETA)
_W_COEFFS = (np.cos(np.arange(_W_N, 0, -1)[:, None] * _W_THETA)
             @ (np.exp(-_W_T**2) * (_W_L**2 + _W_T**2)) / (4 * _W_N))


@dataclass(frozen=True)
class Model2Config:
    """Two-particle run configuration.

    With steady_target=True the target width is slaved to the diffusion
    constant, Sigma = (hbar^3 / 8 M D)^(1/4), the width the environment itself
    equilibrates the target to.
    """

    params: PhysicalParams
    tau: float | None = None
    steady_target: bool = False

    def __post_init__(self):
        p = self.params
        if p.M is None:
            raise ConfigError("model2 requires the target mass M")
        if self.steady_target:
            if p.D <= 0:
                raise ConfigError("steady_target requires D > 0")
            object.__setattr__(
                self, "params", p.replace(Sigma=steady_target_width(p.M, p.D, p.hbar))
            )
        elif p.Sigma is None:
            raise ConfigError("set Sigma explicitly or use steady_target")
        if self.tau is None:
            object.__setattr__(self, "tau", self.params.tau_default)

    def with_D(self, D: float) -> "Model2Config":
        return Model2Config(self.params.replace(D=D), tau=self.tau,
                            steady_target=self.steady_target)


def _v_squared(params: PhysicalParams, delta):
    """V^2(delta): a float for a float delta, else an array."""
    v = potential_momentum(params.potential, delta, params.hbar)
    return v**2 if np.ndim(v) else float(v) ** 2


def _target(cfg: Model2Config) -> tuple[float, float, float, float, float, float]:
    p = cfg.params
    return p.m, p.M, p.hbar, p.p_bar, p.P_bar, p.Sigma


def joint_reflected_noenv(cfg: Model2Config, p: float, P: float) -> float:
    """Joint density coefficient for light momentum p and target momentum P.

    (2 sqrt(pi) Sigma m / hbar^2 p_bar) V^2(p - p_bar)
        * exp(-Sigma^2 (p - p_bar + P - P_bar)^2 / hbar^2), times delta(E).
    """
    m, M, hbar, pb, Pb, Sg = _target(cfg)
    delta = p - pb
    return (
        2.0 * math.sqrt(math.pi) * Sg * m / (hbar**2 * pb)
        * _v_squared(cfg.params, delta)
        * math.exp(-(Sg**2) * (delta + P - Pb) ** 2 / hbar**2)
    )


def target_momentum_density(cfg: Model2Config, P: float) -> float:
    """Zeroth-order density of the target momentum,
    Sigma/(sqrt(pi) hbar) exp(-Sigma^2 (P - P_bar)^2 / hbar^2)."""
    _, _, hbar, _, Pb, Sg = _target(cfg)
    return Sg / (math.sqrt(math.pi) * hbar) * math.exp(-(Sg**2) * (P - Pb) ** 2 / hbar**2)


def marginal_reflected_noenv(cfg: Model2Config, p):
    """Reflected density of the light particle with the target traced out.

    The delta(E) is absorbed analytically (Jacobian M/|p - p_bar|), giving

        (2 sqrt(pi) Sigma m M / hbar^2 p_bar |p - p_bar|) V^2(p - p_bar)
            * exp(-Sigma^2 M^2 F(p)^2 / hbar^2 (p - p_bar)^2)

    with F the energy mismatch at the incoming target momentum P_bar.
    Elementwise over an array p; a float p returns a float.
    """
    dens = _marginal(cfg, np.asarray(p, float), cfg.params.Sigma)
    return float(dens) if np.ndim(p) == 0 else dens


@np.errstate(over="ignore", invalid="ignore")  # inf or nan: finite_density rejects it
def _marginal(cfg: Model2Config, p_arr: np.ndarray, Sg) -> np.ndarray:
    """marginal_reflected_noenv at the target width Sg, one value or one per p."""
    m, M, hbar, pb, Pb, _ = _target(cfg)
    if np.any(p_arr == pb):
        raise ConfigError("marginal density is singular exactly at p = p_bar")
    delta = p_arr - pb
    pref = (
        2.0 * math.sqrt(math.pi) * Sg * m * M / (hbar**2 * pb * np.abs(delta))
        * _v_squared(cfg.params, delta)
    )
    F = (pb**2 - p_arr**2) / (2.0 * m) + (Pb**2 - (Pb - delta) ** 2) / (2.0 * M)
    return pref * np.exp(-squares(Sg) * M**2 * F**2 / (hbar**2 * delta**2))


def conditional_reflected_noenv(cfg: Model2Config, p: float, P: float) -> float:
    """Density of p conditioned on measuring the target at P (no environment).

    Coefficient (2 pi m / hbar p_bar) V^2(p - p_bar)
        * exp(-Sigma^2 [(p-p_bar+P-P_bar)^2 - (P-P_bar)^2] / hbar^2),
    times the same delta(E); multiplying by target_momentum_density(P)
    reproduces the joint coefficient identically.
    """
    m, M, hbar, pb, Pb, Sg = _target(cfg)
    delta = p - pb
    dP = P - Pb
    return (
        2.0 * math.pi * m / (hbar * pb)
        * _v_squared(cfg.params, delta)
        * math.exp(-(Sg**2) * ((delta + dP) ** 2 - dP**2) / hbar**2)
    )


# -- with environment -----------------------------------------------------------


def _recoil_omega(cfg: Model2Config, p):
    """Oscillation rate of the s-integral: light + target recoil phases."""
    m, M, hbar, pb, Pb, _ = _target(cfg)
    delta = p - pb
    return (pb**2 - p**2) / (2.0 * m * hbar) + (Pb**2 - (Pb - delta) ** 2) / (2.0 * M * hbar)


def reflected_density_env(cfg: Model2Config, p, D: float | None = None):
    """Traced-out reflected density with the target coupled to its environment.

    Single oscillatory s-integral (the first-interaction time is integrated in
    closed form):

        (2m / hbar^2 p_bar) V^2(delta) int_0^tau ds cos(Omega s)
            * ((tau - s)/tau) * (1 - e^-x)/x
            * exp(-D s^3 delta^2 / 3 M^2 hbar^2 - s^2 delta^2 / 4 Sigma^2 M^2),
        x = D s^2 (tau - s) delta^2 / M^2 hbar^2.

    p may be an array: every point is integrated in one batched quadrature
    and an array is returned; a float p returns a float.

    cfg.tau = inf is the joint D -> 0, tau -> inf limit and returns the
    environment-free marginal (for fixed D > 0 the density scales as 1/tau and
    vanishes pointwise as tau grows).
    """
    dens, = _env_densities(cfg, p, D, (cfg.params.potential,))
    return float(dens[0]) if np.ndim(p) == 0 else dens


@np.errstate(over="ignore", invalid="ignore")  # inf or nan: finite_density rejects it
def _env_densities(cfg: Model2Config, p, D, barriers, Sigma=None) -> list[np.ndarray]:
    """reflected_density_env over an array of p, once for each barrier.

    D, and Sigma in place of the target's own width, may hold one value per p (a
    steady target's width follows each D), each with the arithmetic of a call of
    its own.  The s-integral reads the target, D and tau but never the barrier,
    which enters only through V^2(delta), so one quadrature serves every barrier.
    """
    params = cfg.params
    m, M, hbar, pb, _, Sg = _target(cfg)
    if D is None:
        D = params.D
    if Sigma is not None:
        Sg = Sigma
    tau = cfg.tau
    p_arr = np.atleast_1d(np.asarray(p, float))
    each = [params.replace(potential=spec) for spec in barriers]
    if math.isinf(tau):
        return [_marginal(replace(cfg, params=q), p_arr, Sg) for q in each]
    if np.any(np.asarray(D) < 0):
        raise ConfigError("D must be nonnegative")
    if tau <= 0:  # the prefactor below divides by tau
        raise ConfigError("tau must be positive")
    delta = p_arr - pb
    omega = _recoil_omega(cfg, p_arr)
    beta = D * delta**2 / (3.0 * M**2 * hbar**2)
    gamma = delta**2 / (4.0 * squares(Sg) * M**2)
    kappa = D * delta**2 / (M**2 * hbar**2)  # x = kappa s^2 (tau - s)
    upper = np.minimum(tau, decay_cutoff((beta, 3), (gamma, 2)))
    integral = integrate_oscillatory_batch(_traced_envelope(tau, beta, gamma, kappa),
                                           omega, upper, upper)
    return [2.0 * m / (hbar**2 * pb * tau) * _v_squared(q, delta) * integral for q in each]


def _traced_envelope(tau: float, beta, gamma, kappa):
    """The traced-out kernel's envelope times tau, for integrate_oscillatory_batch:

        (tau - s) (1 - e^-x)/x e^(-(beta s + gamma) s^2),  x = kappa s^2 (tau - s),

    built in place.  x is floored at 1e-300, where (1 - e^-x)/x is exactly 1,
    its x -> 0 limit.
    """
    neg_beta, neg_gamma, neg_kappa = -beta, -gamma, -kappa

    def envelope(s, i):
        s2 = s * s
        rest = tau - s
        y = neg_kappa[i] * s2  # y = -x; neg_kappa[i] holds one value per panel
        y *= rest
        np.minimum(y, -1e-300, out=y)
        h = np.expm1(y)
        h /= y
        e = neg_beta[i] * s
        e += neg_gamma[i]
        e *= s2
        rest *= h
        rest *= np.exp(e, out=e)
        return rest

    return envelope


def _faddeeva(z):
    """The Faddeeva function w(z) = e^(-z^2) erfc(-iz) for Im z >= 0, by Weideman's
    rational expansion (SIAM J. Numer. Anal. 31:1497, 1994) with N = 40 terms:
    w = 2 p(Z)/(L - iz)^2 + 1/(sqrt(pi) (L - iz)), Z = (L + iz)/(L - iz), |Z| <= 1."""
    d = _W_L - 1j * z
    big_z = (_W_L + 1j * z) / d
    p = np.full(np.shape(z), _W_COEFFS[0], complex)
    for c in _W_COEFFS[1:]:  # Horner's rule
        p *= big_z
        p += c
    return (2.0 * p / d + 1.0 / math.sqrt(math.pi)) / d


def exp_quadratic_integral(A, B, C, U) -> np.ndarray:
    """int_0^U exp(A u^2 + B u + C) du, elementwise, for real A >= 0, complex
    B and C, and U > 0.

    Closed form through the Faddeeva function w, with t = sqrt(A) u + B / 2 sqrt(A):

        (sign i sqrt(pi) / 2 sqrt(A)) [e^(C + A U^2 + B U) w(z1) - e^C w(z0)],

    where z = -t, sign = +1 if Im t <= 0, else z = t, sign = -1.  The integral
    of e^(t^2) is odd in t, so this flip keeps both arguments in Im z >= 0,
    where |w| <= 1 and the two terms stay bounded by the integrand's endpoint
    values.  w comes from Weideman's 40-term rational expansion (_faddeeva),
    which holds on Im z >= 0 only; against 40-digit mpmath it is within 1.2e-15
    relative at 1,800 points of |Re z| <= 1e6, 0 <= Im z <= 1e3.  When the
    exponent is nearly linear (A U^2 < 1e-2 and |B| U < pi) the two terms
    cancel; there one 24-node Gauss-Legendre panel in u, which is exact to
    roundoff for an exponent that varies that little, is used.
    """
    A, B, C, U = np.broadcast_arrays(np.asarray(A, float), np.asarray(B, complex),
                                     np.asarray(C, complex), np.asarray(U, float))
    out = np.empty(A.shape, complex)
    near = (A * U**2 < 1e-2) & (np.abs(B) * U < math.pi)
    far = ~near
    # A = 0 is the A -> 0 limit of the same formula; the floor keeps 1/a finite
    a = np.sqrt(np.maximum(A[far], np.finfo(float).tiny))
    t0 = B[far] / (2.0 * a)
    sign = np.where(t0.imag > 0.0, -1.0, 1.0)
    e0 = np.exp(C[far])
    e1 = np.exp(C[far] + A[far] * U[far] ** 2 + B[far] * U[far])
    bracket = e1 * _faddeeva(-sign * (t0 + a * U[far])) - e0 * _faddeeva(-sign * t0)
    out[far] = sign * 0.5j * math.sqrt(math.pi) / a * bracket
    x, wx = panel_nodes(0.0, 1.0, 1)
    u = U[near, None] * x
    f = np.exp(A[near, None] * u**2 + B[near, None] * u + C[near, None])
    out[near] = U[near] * (f @ wx)
    return out


@np.errstate(over="ignore", invalid="ignore")  # inf or nan: finite_density rejects it
def conditional_reflected_env(cfg: Model2Config, p, P: float, D: float | None = None,
                              reduced: bool = False):
    """Reflected density at p conditioned on target momentum P, with environment.

    The second-order expression plus its complex conjugate is a double
    integral over s (separation of the two barrier insertions) and u
    (first-interaction time, 0 <= u <= tau - s).  At fixed s the integrand is
    exp(A u^2 + B u + C) with real A >= 0 and complex B, C, so the u-integral
    is done in closed form by exp_quadratic_integral (Faddeeva function, or
    one Gauss-Legendre panel where the exponent is nearly linear).  Less its
    phase e^(-i Omega s), that is the complex envelope of one batched
    oscillatory s-integral over an array p (a float p returns a float), with
    the run-time error estimate of integrate_oscillatory_batch.

    With reduced=True the large-tau form of the integrand is used instead:
    the u-dependent phase is dropped and the final growth factor replaced by
    its limit exp(-s^2 delta^2 / 4 Sigma^2 M^2), which collapses the
    u-integral into the traced-out kernel; the result is then the
    conditional prefactor times reflected_density_env.
    """
    params = cfg.params
    m, M, hbar, pb, Pb, Sg = _target(cfg)
    if D is None:
        D = params.D
    tau = cfg.tau
    if not (math.isfinite(tau) and tau > 0):
        raise ConfigError("the conditional kernel needs a finite positive tau")
    p_arr = np.atleast_1d(np.asarray(p, float))
    delta = p_arr - pb
    dP = P - Pb
    G = 4.0 * D * tau * Sg**2 + hbar**2
    suppression = np.exp(-(Sg**2) * (delta * (delta + 2.0 * dP)) / G)  # inf at an improbable P
    finite_density(suppression)  # the density would not be finite: fail before integrating
    if reduced:
        dens = suppression * reflected_density_env(cfg, p_arr, D=D)
        return float(dens[0]) if np.ndim(p) == 0 else dens

    omega = _recoil_omega(cfg, p_arr)
    beta = D * delta**2 / (3.0 * M**2 * hbar**2)

    def envelope(s, i):
        # exponent at (s, u): real part -beta s^3 - 4 c1 u + c1 (4 D Sigma^2
        # (s + 2u)^2 + 4 hbar^2 (s + 2u - tau)) / G, phase -s omega - q (4 D
        # Sigma^2 (s + 2u) + 2 hbar^2); in powers of u, without the -s omega
        d = delta[i]
        c1 = D * s**2 * d**2 / (4.0 * M**2 * hbar**2)
        q = s * d * (d + dP) / (2.0 * M * hbar * G)
        A = 16.0 * c1 * D * Sg**2 / G
        B = 4.0 * c1 * (4.0 * D * Sg**2 * (s - tau) + hbar**2) / G - 8j * D * Sg**2 * q
        C = (-beta[i] * s**3 + 4.0 * c1 * (D * Sg**2 * s**2 + hbar**2 * (s - tau)) / G
             - 1j * q * (4.0 * D * Sg**2 * s + 2.0 * hbar**2))
        return exp_quadratic_integral(A, B, C, tau - s)

    # the real exponent is convex in u, so it peaks at the u-endpoints, which both
    # decay at least as fast as exp(-beta s^3 / 4): the only uniform-in-u cutoff
    # (the Zeno factor gamma_lim suppresses only the u ~ 0 region)
    upper = np.minimum(tau, decay_cutoff((0.25 * beta, 3)))
    # where the suppression underflows the density is 0 whatever the integral
    upper = np.where(suppression > 0.0, upper, 0.0)
    integral = integrate_oscillatory_batch(envelope, omega, upper, upper)
    # the displayed expression is I + I*, so only the real part survives
    dens = m / (hbar**2 * pb) * _v_squared(params, delta) * suppression * 2.0 * integral / tau
    return float(dens[0]) if np.ndim(p) == 0 else dens


# -- totals -----------------------------------------------------------------------


def finite_density(density) -> np.ndarray:
    """The density as a float array; QuadratureError if an entry is not finite."""
    density = np.asarray(density, float)
    if not np.all(np.isfinite(density)):
        raise QuadratureError("density has non-finite entries")
    return density


def clamp_density(density: np.ndarray) -> np.ndarray:
    """Zero out tiny negative quadrature lobes; reject anything deeper.

    The sampled density must be finite and stay above -_FLOOR_FRACTION of its
    peak (anything lower signals an unresolved integral, not truncation noise).
    """
    density = finite_density(density)
    peak = float(np.max(density)) if density.size else 0.0
    low = float(np.min(density))
    if low < -_FLOOR_FRACTION * max(peak, 0.0):
        raise QuadratureError(
            f"density dips to {low:.3e}, below -{_FLOOR_FRACTION:g} of the peak"
        )
    return np.where(density < 0.0, 0.0, density)


def total_reflected_model2(cfg: Model2Config, D_values, barriers=None) -> np.ndarray:
    """Total reflected probability versus diffusion constant: integral over [-8 p_bar, 0].

    When the configuration pins the target to its steady width, Sigma tracks
    each swept D value.  Given a sequence of PotentialSpec barriers, returns a
    (len(barriers), len(D_values)) array, otherwise the totals for the configured
    barrier.  The sweep takes one p-integral (oscquad.batched), a point per
    (barrier, D); each of its node slices takes one s-integral per distinct (p, D),
    which serves every barrier.  clamp_density's floor holds for each (D, barrier)
    over its evaluated nodes; shallower lobes stay, as zeroing one would put a
    kink in p.  Nothing checks the mass below -8 p_bar: at figure 5's D = 100 it is
    6.0% of the whole at a = 0.1 (3.1% at D = 10) and 16.7% at a = 0.05, where the
    density at -8 p_bar is 4.2% and 7.6% of its peak.
    """
    specs = (cfg.params.potential,) if barriers is None else tuple(barriers)
    totals = batched(lambda values: _sweep_totals(cfg, values, specs),
                     np.asarray(D_values, float)).T
    return totals[0] if barriers is None else totals


def _sweep_totals(cfg: Model2Config, D_values: np.ndarray, specs) -> np.ndarray:
    """The (len(D_values), len(specs)) totals of total_reflected_model2, from one
    p-integral whose point b * len(D_values) + k is barrier b at D_values[k]."""
    configs = [cfg.with_D(D) for D in D_values.tolist()]
    n, span = len(configs), 8.0 * cfg.params.p_bar
    D = np.array([c.params.D for c in configs])
    Sigma = np.array([c.params.Sigma for c in configs])
    # per D and barrier, the lowest and highest density over the evaluated nodes
    low, high = np.full((n, len(specs)), np.inf), np.full((n, len(specs)), -np.inf)

    def envelope(s, i):
        # a complex key sorts by p, then by the index of D: one s-integral per distinct pair
        key, back = np.unique((s - span) + 1j * (i % n), return_inverse=True)
        k = key.imag.astype(np.intp)
        dens = finite_density(_env_densities(cfg, key.real, D[k], specs, Sigma[k]))
        np.minimum.at(low, k, dens.T)
        np.maximum.at(high, k, dens.T)
        return dens[i // n, back.reshape(s.shape)]

    totals = integrate_oscillatory_batch(envelope, np.zeros(n * len(specs)), span, span)
    for extremes in np.stack([low, high], axis=-1).reshape(-1, 2):  # D by D, as a call each
        clamp_density(extremes)
    return totals.reshape(len(specs), n).T
