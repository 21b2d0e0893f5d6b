"""Two-particle scattering: light particle reflecting off a massive target.

Second-order perturbation theory in the contact barrier V(x - X) with the
incoming light particle in the plane-wave limit and the target in a Gaussian
state.  The environment, when present, couples only to the target position.
Energy-conservation delta functions are kept symbolic (descriptor objects) and
every target-momentum integral is done analytically through the constraint
root and its Jacobian, never by numerical smearing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grids import reflection_p_grid
from .oscquad import QuadratureError, decay_cutoff, integrate_oscillatory_batch, panel_nodes
from .params import PhysicalParams, steady_target_width
from .potentials import potential_momentum


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
            raise ValueError("two-particle runs need the target mass M")
        if self.steady_target:
            if p.D <= 0:
                raise ValueError("steady_target requires D > 0")
            object.__setattr__(
                self, "params", p.replace(Sigma=steady_target_width(p.M, p.D, p.hbar))
            )
        elif p.Sigma is None:
            raise ValueError("set Sigma explicitly or use steady_target")
        if self.tau is None:
            object.__setattr__(self, "tau", self.params.tau_default)

    def with_D(self, D: float) -> "Model2Config":
        return Model2Config(self.params.replace(D=D), tau=self.tau,
                            steady_target=self.steady_target)


@dataclass(frozen=True)
class EnergyConstraint:
    """Symbolic delta(E) carried alongside a smooth coefficient.

    E(p, P) is the kinetic-energy mismatch when the light particle ends at p
    and the target at P (total momentum fixes the incoming target momentum to
    P + p - p_bar).  dE/dP = (p - p_bar)/M is P-independent, so integrals over
    P collapse onto the root with Jacobian M/|p - p_bar|.
    """

    p: float
    p_bar: float
    m: float
    M: float

    def residual(self, P: float) -> float:
        pb, m, M = self.p_bar, self.m, self.M
        return (pb**2 - self.p**2) / (2.0 * m) + (
            (P + self.p - pb) ** 2 - P**2
        ) / (2.0 * M)

    @property
    def dE_dP(self) -> float:
        return (self.p - self.p_bar) / self.M

    @property
    def root(self) -> float:
        """The P value satisfying E(p, P) = 0."""
        pb, m, M = self.p_bar, self.m, self.M
        delta = self.p - pb
        return 0.5 * (M * (pb + self.p) / m - delta)

    @property
    def jacobian(self) -> float:
        return self.M / abs(self.p - self.p_bar)


@dataclass(frozen=True)
class ConstrainedDensity:
    """Smooth coefficient multiplying the symbolic delta(E)."""

    coefficient: float
    constraint: EnergyConstraint


def _v_squared(params: PhysicalParams, delta):
    """V^2(delta): a float for a float delta, else an array."""
    spec = params.potential
    if not spec.has_analytic_transform:
        raise ValueError("two-particle kernels need an analytic barrier transform")
    v = potential_momentum(spec, delta, params.hbar)
    return v**2 if np.ndim(v) else float(v) ** 2


def _target(cfg: Model2Config) -> tuple[float, float, float, float, float, float]:
    p = cfg.params
    return p.m, p.M, p.hbar, p.p_bar, p.P_bar, p.Sigma


def joint_reflected_noenv(cfg: Model2Config, p: float, P: float) -> ConstrainedDensity:
    """Joint density coefficient for light momentum p and target momentum P.

    (2 sqrt(pi) Sigma m / hbar^2 p_bar) V^2(p - p_bar)
        * exp(-Sigma^2 (p - p_bar + P - P_bar)^2 / hbar^2), times delta(E).
    """
    m, M, hbar, pb, Pb, Sg = _target(cfg)
    delta = p - pb
    coef = (
        2.0 * math.sqrt(math.pi) * Sg * m / (hbar**2 * pb)
        * _v_squared(cfg.params, delta)
        * math.exp(-(Sg**2) * (delta + P - Pb) ** 2 / hbar**2)
    )
    return ConstrainedDensity(coef, EnergyConstraint(p=p, p_bar=pb, m=m, M=M))


def target_momentum_density(cfg: Model2Config, P: float) -> float:
    """Zeroth-order density of the target momentum,
    Sigma/(sqrt(pi) hbar) exp(-Sigma^2 (P - P_bar)^2 / hbar^2)."""
    _, _, hbar, _, Pb, Sg = _target(cfg)
    return Sg / (math.sqrt(math.pi) * hbar) * math.exp(-(Sg**2) * (P - Pb) ** 2 / hbar**2)


@np.errstate(over="ignore", invalid="ignore")  # inf or nan: finite_density rejects it
def marginal_reflected_noenv(cfg: Model2Config, p, simplified: bool = False):
    """Reflected density of the light particle with the target traced out.

    The delta(E) is absorbed analytically (Jacobian M/|p - p_bar|), giving

        (2 sqrt(pi) Sigma m M / hbar^2 p_bar |p - p_bar|) V^2(p - p_bar)
            * exp(-Sigma^2 M^2 F(p)^2 / hbar^2 (p - p_bar)^2)

    with F the energy mismatch at the incoming target momentum P_bar.  With
    simplified=True, uses the light-particle limit m << M at P_bar = 0, where
    the exponent becomes Sigma^2 M^2 (p + p_bar)^2 / 4 hbar^2 m^2.  Elementwise
    over an array p; a float p returns a float.
    """
    m, M, hbar, pb, Pb, Sg = _target(cfg)
    p_arr = np.asarray(p, float)
    if np.any(p_arr == pb):
        raise ValueError("marginal density is singular exactly at p = p_bar")
    delta = p_arr - pb
    pref = (
        2.0 * math.sqrt(math.pi) * Sg * m * M / (hbar**2 * pb * np.abs(delta))
        * _v_squared(cfg.params, delta)
    )
    if simplified:
        dens = pref * np.exp(-(Sg**2) * M**2 * (p_arr + pb) ** 2 / (4.0 * hbar**2 * m**2))
    else:
        F = (pb**2 - p_arr**2) / (2.0 * m) + (Pb**2 - (Pb - delta) ** 2) / (2.0 * M)
        dens = pref * np.exp(-(Sg**2) * M**2 * F**2 / (hbar**2 * delta**2))
    return float(dens) if np.ndim(p) == 0 else dens


def conditional_reflected_noenv(cfg: Model2Config, p: float, P: float) -> ConstrainedDensity:
    """Density of p conditioned on measuring the target at P (no environment).

    Coefficient (2 pi m / hbar p_bar) V^2(p - p_bar)
        * exp(-Sigma^2 [(p-p_bar+P-P_bar)^2 - (P-P_bar)^2] / hbar^2),
    times the same delta(E); multiplying by target_momentum_density(P)
    reproduces the joint coefficient identically.
    """
    m, M, hbar, pb, Pb, Sg = _target(cfg)
    delta = p - pb
    dP = P - Pb
    coef = (
        2.0 * math.pi * m / (hbar * pb)
        * _v_squared(cfg.params, delta)
        * math.exp(-(Sg**2) * ((delta + dP) ** 2 - dP**2) / hbar**2)
    )
    return ConstrainedDensity(coef, EnergyConstraint(p=p, p_bar=pb, m=m, M=M))


# -- with environment -----------------------------------------------------------


@dataclass(frozen=True)
class JointReflectedResult:
    """Gridded joint/marginal/conditional densities for the unitary case.

    ``coefficient[i, j]`` is the smooth factor of the joint density at
    (p[i], P[j]) with delta(E) symbolic; the marginal has the delta resolved
    analytically.  A conditional slice at conditional_P is included on request.
    """

    p: np.ndarray
    P: np.ndarray
    coefficient: np.ndarray
    marginal: np.ndarray
    total_marginal: float
    conditional_P: float | None = None
    conditional: np.ndarray | None = None


def joint_reflected_map(
    cfg: Model2Config,
    p_grid: np.ndarray | None = None,
    P_grid: np.ndarray | None = None,
    conditional_P: float | None = None,
) -> JointReflectedResult:
    """Assemble the environment-free joint, marginal and conditional densities.

    The marginal is consistent with the joint by construction of the
    constraint resolution: marginal(p) = coefficient(p, P*(p)) * M / |p - p_bar|.
    """
    params = cfg.params
    if p_grid is None:
        p_grid = reflection_p_grid(params, 301, -3.0 * params.p_bar)
    if P_grid is None:
        Sg = params.Sigma
        P_grid = np.linspace(params.P_bar - 5.0 * params.hbar / Sg,
                             params.P_bar + 5.0 * params.hbar / Sg, 201)
    coefficient = np.array([
        [joint_reflected_noenv(cfg, float(p), float(P)).coefficient for P in P_grid]
        for p in p_grid
    ])
    marginal = np.array([marginal_reflected_noenv(cfg, float(p)) for p in p_grid])
    total = float(np.trapezoid(marginal, p_grid))
    conditional = None
    if conditional_P is not None:
        conditional = np.array([
            conditional_reflected_noenv(cfg, float(p), conditional_P).coefficient
            for p in p_grid
        ])
    return JointReflectedResult(p=np.asarray(p_grid, float), P=np.asarray(P_grid, float),
                                coefficient=coefficient, marginal=marginal,
                                total_marginal=total, conditional_P=conditional_P,
                                conditional=conditional)


def _recoil_omega(cfg: Model2Config, p):
    """Oscillation rate of the s-integral: light + target recoil phases."""
    m, M, hbar, pb, Pb, _ = _target(cfg)
    delta = p - pb
    return (pb**2 - p**2) / (2.0 * m * hbar) + (Pb**2 - (Pb - delta) ** 2) / (2.0 * M * hbar)


def reflected_density_env(
    cfg: Model2Config,
    p,
    D: float | None = None,
    tau: float | None = None,
):
    """Traced-out reflected density with the target coupled to its environment.

    Single oscillatory s-integral (the first-interaction time is integrated in
    closed form):

        (2m / hbar^2 p_bar) V^2(delta) int_0^tau ds cos(Omega s)
            * ((tau - s)/tau) * (1 - e^-x)/x
            * exp(-D s^3 delta^2 / 3 M^2 hbar^2 - s^2 delta^2 / 4 Sigma^2 M^2),
        x = D s^2 (tau - s) delta^2 / M^2 hbar^2.

    p may be an array: every point is integrated in one batched quadrature
    and an array is returned; a float p returns a float.

    tau = inf is the joint D -> 0, tau -> inf limit and returns the
    environment-free marginal (for fixed D > 0 the density scales as 1/tau and
    vanishes pointwise as tau grows).
    """
    dens, = _env_densities(cfg, p, D, tau, (cfg.params.potential,))
    return float(dens[0]) if np.ndim(p) == 0 else dens


@np.errstate(over="ignore", invalid="ignore")  # inf or nan: finite_density rejects it
def _env_densities(cfg: Model2Config, p, D: float | None, tau: float | None,
                   barriers) -> list[np.ndarray]:
    """reflected_density_env over an array of p, once for each barrier.

    The s-integral reads the target, D and tau but never the barrier, which
    enters only through V^2(delta), so one quadrature serves every barrier.
    """
    params = cfg.params
    m, M, hbar, pb, _, Sg = _target(cfg)
    if D is None:
        D = params.D
    if tau is None:
        tau = cfg.tau
    p_arr = np.atleast_1d(np.asarray(p, float))
    each = [params.replace(potential=spec) for spec in barriers]
    if math.isinf(tau):
        return [marginal_reflected_noenv(replace(cfg, params=q), p_arr) for q in each]
    if D < 0:
        raise ValueError("D must be nonnegative")
    delta = p_arr - pb
    omega = _recoil_omega(cfg, p_arr)
    beta = D * delta**2 / (3.0 * M**2 * hbar**2)
    gamma = delta**2 / (4.0 * Sg**2 * M**2)
    kappa = D * delta**2 / (M**2 * hbar**2)  # x = kappa s^2 (tau - s)

    def envelope(s, i):
        s2, rest = s * s, tau - s
        x = kappa[i] * s2 * rest
        big = x > 1e-8
        h = np.where(big, -np.expm1(-x) / np.where(big, x, 1.0), 1.0 - 0.5 * x)
        return rest / tau * h * np.exp(-(beta[i] * s + gamma[i]) * s2)

    upper = np.minimum(tau, decay_cutoff((beta, 3), (gamma, 2)))
    integral = integrate_oscillatory_batch(envelope, omega, upper, upper)
    return [2.0 * m / (hbar**2 * pb) * _v_squared(q, delta) * integral for q in each]


def exp_quadratic_integral(A, B, C, U) -> np.ndarray:
    """int_0^U exp(A u^2 + B u + C) du, elementwise, for real A >= 0, complex
    B and C, and U > 0.

    Closed form through the Faddeeva function w (scipy.special.wofz), with
    t = sqrt(A) u + B / 2 sqrt(A):

        (sign i sqrt(pi) / 2 sqrt(A)) [e^(C + A U^2 + B U) w(z1) - e^C w(z0)],

    where z = -t, sign = +1 if Im t <= 0, else z = t, sign = -1.  The integral
    of e^(t^2) is odd in t, so this flip keeps both arguments in Im z >= 0,
    where |w| <= 1 and the two terms stay bounded by the integrand's endpoint
    values.  When the exponent is nearly linear (A U^2 < 1e-2 and |B| U < pi)
    the two terms cancel; there one 24-node Gauss-Legendre panel in u, which
    is exact to roundoff for an exponent that varies that little, is used.
    """
    from scipy.special import wofz  # scipy.special costs ~0.3 s to import

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
    bracket = e1 * wofz(-sign * (t0 + a * U[far])) - e0 * wofz(-sign * t0)
    out[far] = sign * 0.5j * math.sqrt(math.pi) / a * bracket
    x, wx = panel_nodes(0.0, 1.0, 1)
    u = U[near, None] * x
    f = np.exp(A[near, None] * u**2 + B[near, None] * u + C[near, None])
    out[near] = U[near] * (f @ wx)
    return out


@np.errstate(over="ignore", invalid="ignore")  # inf or nan: finite_density rejects it
def conditional_reflected_env(cfg: Model2Config, p, P: float, D: float | None = None,
                              tau: float | None = None, reduced: bool = False):
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
    if tau is None:
        tau = cfg.tau
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError("the conditional kernel needs a finite positive tau")
    p_arr = np.atleast_1d(np.asarray(p, float))
    delta = p_arr - pb
    dP = P - Pb
    G = 4.0 * D * tau * Sg**2 + hbar**2
    suppression = np.exp(-(Sg**2) * (delta * (delta + 2.0 * dP)) / G)  # inf at an improbable P
    finite_density(suppression)  # the density would not be finite: fail before integrating
    if reduced:
        dens = suppression * reflected_density_env(cfg, p_arr, D=D, tau=tau)
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


# -- totals and cutoffs -----------------------------------------------------------


def finite_density(density) -> np.ndarray:
    """The density as a float array; QuadratureError if an entry is not finite."""
    density = np.asarray(density, float)
    if not np.all(np.isfinite(density)):
        raise QuadratureError("density has non-finite entries")
    return density


def clamp_density(density: np.ndarray, floor_fraction: float = 1e-6) -> np.ndarray:
    """Zero out tiny negative quadrature lobes; reject anything deeper.

    The sampled density must be finite and stay above -floor_fraction of its
    peak (anything lower signals an unresolved integral, not truncation noise).
    """
    density = finite_density(density)
    peak = float(np.max(density)) if density.size else 0.0
    low = float(np.min(density))
    if low < -floor_fraction * max(peak, 0.0):
        raise QuadratureError(
            f"density dips to {low:.3e}, below -{floor_fraction:g} of the peak"
        )
    return np.where(density < 0.0, 0.0, density)


def total_reflected_model2(
    cfg: Model2Config,
    D_values,
    p_grid: np.ndarray | None = None,
    tau: float | None = None,
    barriers=None,
) -> np.ndarray:
    """Total reflected probability versus diffusion constant (quadrature over p < 0).

    When the configuration pins the target to its steady width, Sigma tracks
    each swept D value.  Given a sequence of PotentialSpec barriers, returns a
    (len(barriers), len(D_values)) array from one s-integral per D value;
    otherwise the totals for the configured barrier.
    """
    if p_grid is None:
        p_grid = reflection_p_grid(cfg.params, 1024)
    specs = (cfg.params.potential,) if barriers is None else tuple(barriers)
    totals = np.empty((len(specs), len(D_values)))
    for j, D in enumerate(D_values):
        c = cfg.with_D(D) if cfg.steady_target else cfg
        for i, dens in enumerate(_env_densities(c, p_grid, D, tau, specs)):
            totals[i, j] = np.trapezoid(clamp_density(dens), p_grid)
    return totals[0] if barriers is None else totals


@dataclass(frozen=True)
class CutoffReport:
    """The three s-integral cutoff timescales of the environment kernel."""

    T_z: float
    T_d_p: float
    T_1: float
    dominant: str
    t_E: float
    margin: float
    suppressed: bool


def timescale_cutoffs_model2(cfg: Model2Config, D: float | None = None,
                             threshold: float = 0.1) -> CutoffReport:
    """Smallest of the target Zeno, momentum-decoherence and accumulated-
    fluctuation timescales, compared against the scattering time t_E.

    T_1 = M hbar / (p_bar sqrt(D t_z)) = T_d_p^(3/2) t_z^(-1/2); reflection is
    suppressed when min(T_z, T_d_p, T_1) << t_E.
    """
    params = cfg.params
    m, M, hbar, pb, _, Sg = _target(cfg)
    if D is None:
        D = params.D
    if D <= 0:
        raise ValueError("cutoff report requires D > 0")
    if cfg.steady_target:
        Sg = steady_target_width(M, D, hbar)
    t_E = hbar / params.energy
    t_z = m * params.sigma / pb
    T_z = M * Sg / pb
    T_d_p = (M**2 * hbar**2 / (D * pb**2)) ** (1.0 / 3.0)
    T_1 = M * hbar / (pb * math.sqrt(D) * math.sqrt(t_z))  # D * t_z may underflow
    named = {"T_z": T_z, "T_d_p": T_d_p, "T_1": T_1}
    dominant = min(named, key=named.get)
    margin = named[dominant] / t_E
    return CutoffReport(T_z=T_z, T_d_p=T_d_p, T_1=T_1, dominant=dominant,
                        t_E=t_E, margin=margin, suppressed=margin < threshold)
