"""Two-particle scattering kernels: limits, identities, suppression."""

import csv
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from qreflect import (Model2Config, PhysicalParams, PotentialSpec,
                      conditional_reflected_env, conditional_reflected_noenv,
                      joint_reflected_noenv, marginal_reflected_noenv,
                      model2_kinematics, potential_momentum, reflected_density_env,
                      steady_target_width, target_momentum_density,
                      timescale_cutoffs_model2, total_reflected_model2)
from qreflect import model2
from qreflect.cli import main
from qreflect.grids import reflection_p_grid
from qreflect.model2 import clamp_density, exp_quadratic_integral
from qreflect.oscquad import decay_cutoff, panel_nodes

GAUSS = PotentialSpec.gaussian(0.01, 0.1)


def make_cfg(M=10.0, Sigma=1.0, sigma=1.0, tau=None, steady=False, D=0.0, a=0.1, V0=0.01):
    params = PhysicalParams(M=M, Sigma=None if steady else Sigma, sigma=sigma, D=D,
                            potential=PotentialSpec.gaussian(V0, a))
    return Model2Config(params, tau=tau, steady_target=steady)


def test_zero_barrier_vanishes():
    cfg = make_cfg(V0=0.0)
    assert joint_reflected_noenv(cfg, -1.0, 0.3).coefficient == 0.0
    assert marginal_reflected_noenv(cfg, -1.0) == 0.0
    totals = total_reflected_model2(make_cfg(V0=0.0, D=1.0, steady=True), [0.5, 2.0])
    assert np.all(totals == 0.0)


def test_constraint_root_matches_kinematics():
    cfg = make_cfg(M=10.0)
    params = cfg.params
    for P_in in (-0.7, 0.0, 1.3):
        P_out, p_out = model2_kinematics(params, P_in, 1.0)
        con = joint_reflected_noenv(cfg, p_out, P_out).constraint
        assert abs(con.residual(P_out)) < 1e-12
        assert con.root == pytest.approx(P_out, abs=1e-10)
        assert con.dE_dP == pytest.approx((p_out - 1.0) / 10.0, rel=1e-12)


def test_light_particle_marginal_peak_width():
    # m << M, P_bar = 0: Gaussian peak at p = -p_bar of width ~ hbar m / (Sigma M)
    M, Sigma = 400.0, 2.0
    cfg = make_cfg(M=M, Sigma=Sigma)
    p_star = -(M - 1.0) / (M + 1.0)
    peak = marginal_reflected_noenv(cfg, p_star)
    width = 1.0 / (Sigma * M)  # hbar m / (Sigma M)
    half = marginal_reflected_noenv(cfg, p_star + 2.0 * math.sqrt(math.log(2.0)) * width)
    assert half / peak == pytest.approx(0.5, rel=0.05)


def test_marginal_exact_vs_light_particle_form():
    # the m << M form drops the elastic recoil shift 2 m p_bar / M of the
    # peak, so it matches the exact marginal when the peak width hbar m /
    # (Sigma M) dominates that shift, i.e. in the broad-target-momentum regime
    cfg = make_cfg(M=1000.0, Sigma=0.005)
    for p in (-0.9, -1.0, -1.1):
        exact = marginal_reflected_noenv(cfg, p)
        simple = marginal_reflected_noenv(cfg, p, simplified=True)
        assert simple == pytest.approx(exact, rel=5e-3)


def test_marginal_v0_scaling():
    cfg4 = make_cfg(V0=0.02)
    cfg1 = make_cfg(V0=0.01)
    for p in (-0.6, -0.82, -1.4):
        assert marginal_reflected_noenv(cfg4, p) == pytest.approx(
            4.0 * marginal_reflected_noenv(cfg1, p), rel=1e-12)


def test_velocity_fluctuation_flattening():
    # sweeping the target velocity spread across the light-particle velocity
    # takes the reflected peak from narrow to flattened-out
    M = 1000.0

    def width_over_pbar(ratio):
        Sigma = 1.0 / (ratio * M)  # Sigma_p / M = ratio * (p_bar / m)
        cfg = make_cfg(M=M, Sigma=Sigma)
        pg = np.linspace(-8.0, -1e-3, 4001)
        dens = np.array([marginal_reflected_noenv(cfg, p) for p in pg])
        half = dens.max() / 2.0
        above = dens >= half
        lo, hi = pg[above][0], pg[above][-1]
        if above[0] or above[-1]:
            return pg[-1] - pg[0]
        return hi - lo

    assert width_over_pbar(0.05) < 0.2
    assert width_over_pbar(1.0) > 1.0


def test_conditional_times_target_density_is_joint():
    cfg = make_cfg(M=10.0, Sigma=1.3)
    for (p, P) in ((-0.9, 0.3), (-1.5, -0.7), (-0.4, 1.9)):
        joint = joint_reflected_noenv(cfg, p, P)
        cond = conditional_reflected_noenv(cfg, p, P)
        assert cond.coefficient * target_momentum_density(cfg, P) == pytest.approx(
            joint.coefficient, rel=1e-12)


def test_conditional_narrow_target_recovers_unitary_form():
    # P_bar = 0, P = 0, small Sigma: the exponential factor is ~ 1 and the
    # coefficient is the bare one
    cfg = make_cfg(M=10.0, Sigma=0.01)
    got = conditional_reflected_noenv(cfg, -1.0, 0.0)
    bare = 2 * math.pi / 1.0 * float(potential_momentum(GAUSS, -2.0)) ** 2
    assert got.coefficient == pytest.approx(bare, rel=1e-3)


def test_conditional_suppression_factor_arithmetic():
    Sigma = 1.0
    cfg = make_cfg(M=10.0, Sigma=Sigma)
    p, P = -0.8, 1.0  # P = Sigma_p scale
    got = conditional_reflected_noenv(cfg, p, P).coefficient
    bare = 2 * math.pi * float(potential_momentum(GAUSS, p - 1.0)) ** 2
    delta = p - 1.0
    expected = bare * math.exp(-(Sigma**2) * ((delta + P) ** 2 - P**2))
    assert got == pytest.approx(expected, rel=1e-12)


# -- with environment -------------------------------------------------------------


def test_env_kernel_recovers_unitary_marginal():
    cfg = make_cfg(M=10.0, Sigma=1.0, tau=1e5)
    for p in (-0.7, -0.82, -0.95, -1.1):
        env = reflected_density_env(cfg, p, D=1e-8)
        noenv = marginal_reflected_noenv(cfg, p)
        assert env == pytest.approx(noenv, rel=5e-3)
    # tau = inf is the joint limit and equals the closed marginal exactly
    assert reflected_density_env(cfg, -0.9, D=0.0, tau=math.inf) == pytest.approx(
        marginal_reflected_noenv(cfg, -0.9), rel=1e-14)


def test_env_kernel_against_double_quadrature():
    cfg = make_cfg(M=10.0, Sigma=1.0, sigma=100.0)
    tau = cfg.tau
    D, p = 1.0, -1.0
    delta = p - 1.0
    omega = (1.0 - p * p) / 2.0 + (0.0 - delta**2) / 20.0
    f = lambda u, s: math.cos(omega * s) * math.exp(
        -D * s**3 * delta**2 / 300.0 - D * s**2 * u * delta**2 / 100.0
        - s**2 * delta**2 / 400.0)
    val, _ = dblquad(f, 0, 40.0, 0, lambda s: tau - s, epsabs=1e-13, epsrel=1e-10)
    v2 = float(potential_momentum(GAUSS, delta)) ** 2
    brute = 2.0 * v2 * val / tau
    assert reflected_density_env(cfg, p, D=D) == pytest.approx(brute, rel=1e-4)


def test_env_kernel_spreads_and_flattens():
    cfg = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=0.01)
    pg = np.linspace(-2.5, 0.5, 301)
    pg = pg[np.abs(pg - 1.0) > 1e-9]
    peaks, masses_neg = {}, {}
    for D in (0.01, 1.0, 10.0):
        c = cfg.with_D(D)
        dens = np.array([reflected_density_env(c, p, D=D) for p in pg])
        peaks[D] = dens.max()
        masses_neg[D] = dens[pg < 0].sum()
    assert peaks[0.01] > peaks[1.0] > peaks[10.0]
    assert masses_neg[0.01] > masses_neg[10.0]


def test_total_reflected_suppression_curve():
    cfg = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=0.01)
    sweep = np.array([0.01, 0.1, 1.0, 10.0])
    totals = total_reflected_model2(cfg, sweep)
    assert np.all(np.diff(totals) < 0)
    assert totals[-1] / totals[0] < 0.25
    # smearing-length ordering at fixed D
    at = []
    for a in (0.1, 0.2, 0.4):
        c = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=1.0, a=a)
        at.append(total_reflected_model2(c, [1.0])[0])
    assert at[0] > at[1] > at[2]


def test_figure5_widths_equal_their_own_env_densities(tmp_path):
    # the widths share each D's s-integral; each total must still be its own
    # width's reflected_density_env total, bit for bit
    assert main(["figures", "--figure", "5", "--a_list", "0.05,0.3",
                 "--outdir", str(tmp_path)]) == 0
    for a in (0.05, 0.3):
        cfg_a = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=0.01, a=a)
        p_grid = reflection_p_grid(cfg_a.params, 1024)
        rows = list(csv.reader(open(tmp_path / f"total_vs_D_a{a:g}.csv")))[1:]
        assert len(rows) == 13
        for D_text, total in rows:
            D = float(D_text)
            dens = clamp_density(reflected_density_env(cfg_a.with_D(D), p_grid, D=D))
            assert float(total) == float(np.trapezoid(dens, p_grid))


def test_conditional_env_real_and_prefactor():
    cfg = make_cfg(M=10.0, Sigma=1.0, sigma=1.0, tau=100.0)
    D = 0.5
    # P = P_bar: the leading suppression factor is exp(-Sigma^2 delta^2 / G)
    p = -0.9
    delta = p - 1.0
    G = 4 * D * 100.0 * 1.0 + 1.0
    reduced = conditional_reflected_env(cfg, p, 0.0, D=D, reduced=True)
    expected_prefactor = math.exp(-(delta**2) / G)
    assert reduced / reflected_density_env(cfg, p, D=D) == pytest.approx(
        expected_prefactor, rel=1e-12)
    # the displayed expression is I + I*: evaluating the conjugate orientation
    # independently must give the same real number
    full = conditional_reflected_env(cfg, p, 0.0, D=D)
    assert isinstance(full, float)


def test_conditional_env_large_tau_reduction():
    # regime where the first-interaction-time integral never saturates
    # (T_1 >> tau): the large-tau reduced integrand reproduces the full
    # double quadrature at the spectral peak
    M = 1000.0
    params = PhysicalParams(M=M, Sigma=50.0, sigma=1.0, D=0.01,
                            potential=GAUSS)
    cfg = Model2Config(params, tau=100.0)  # 100 t_z at sigma = 1
    p_star = -(M - 1.0) / (M + 1.0)
    for P in (0.0, 0.02):
        full = conditional_reflected_env(cfg, p_star, P, D=0.01)
        red = conditional_reflected_env(cfg, p_star, P, D=0.01, reduced=True)
        assert full == pytest.approx(red, rel=0.01)


def _double_quadrature(cfg, p, P, D):
    """Reference conditional kernel: the (s, u) double Gauss-Legendre
    quadrature, one u-panel set per s node.

    Returns the value and its roundoff scale |prefactor| (2/tau) sum_s w U
    max_u |integrand|; the real exponent is convex in u, so the maximum sits
    at an endpoint.
    """
    m, M, hbar, pb, Pb, Sg = model2._target(cfg)
    tau = cfg.tau
    delta, dP = p - pb, P - Pb
    G = 4.0 * D * tau * Sg**2 + hbar**2
    prefactor = (m / (hbar**2 * pb) * model2._v_squared(cfg.params, delta)
                 * math.exp(-(Sg**2) * ((delta + dP) ** 2 - dP**2) / G))
    omega = model2._recoil_omega(cfg, p)
    beta = D * delta**2 / (3.0 * M**2 * hbar**2)
    kappa = D * delta**2 / (M**2 * hbar**2)

    def integrand(s, u):
        s2u = s + 2.0 * u
        phase = -s * omega - s * (4.0 * D * s2u * Sg**2 + 2.0 * hbar**2) / (
            2.0 * M * hbar * G) * delta * (delta + dP)
        real = -beta * s**3 - kappa * s**2 * u + (
            D * s**2 * delta**2 / (4.0 * M**2 * hbar**2)) * (
            4.0 * D * s2u**2 * Sg**2 + 4.0 * hbar**2 * (s2u - tau)) / G
        return np.exp(real + 1j * phase)

    upper = min(tau, decay_cutoff((0.25 * beta, 3)))
    h = min(math.pi / abs(omega) if omega != 0.0 else upper, 0.125 * upper)
    total, scale = 0.0j, 0.0
    for s, w in zip(*panel_nodes(0.0, upper, int(math.ceil(upper / h)))):
        u_hi = tau - s
        u, wu = panel_nodes(0.0, u_hi, min(200, max(8, int(8 + kappa * s**2 * u_hi))))
        total += w * np.sum(integrand(np.full_like(u, s), u) * wu)
        scale += w * u_hi * np.abs(integrand(np.array([s, s]), np.array([0.0, u_hi]))).max()
    return (float(prefactor * 2.0 * (total / tau).real),
            abs(prefactor) * 2.0 * scale / tau)


FIG4 = Model2Config(PhysicalParams(M=10.0, sigma=100.0, D=0.01, potential=GAUSS),
                    steady_target=True)
HEAVY = Model2Config(PhysicalParams(M=1000.0, Sigma=50.0, sigma=1.0, D=0.01,
                                    potential=GAUSS), tau=100.0)
ORACLE_CASES = (
    [("fig4", D, p, P) for D in (0.01, 1.0, 10.0) for p in (-1.8, -1.0, -0.5)
     for P in (0.0, 0.3)]
    # (1e-4, -2.5, -0.3): the plain Dawson form is ~1e146 times off here
    + [("heavy", D, p, P) for D in (1e-4, 0.01) for p in (-2.5, -0.998)
       for P in (-0.3, 0.02)]
    # every s node takes the nearly-linear branch; (delta + dP)^2 = dP^2 at
    # P = 0.999, so the Sigma = 50 suppression factor does not underflow
    + [("heavy", 1e-8, -0.998, 0.999)]
)


@pytest.mark.parametrize("target,D,p,P", ORACLE_CASES)
def test_conditional_env_matches_double_quadrature(target, D, p, P):
    cfg = FIG4.with_D(D) if target == "fig4" else HEAVY
    ref, scale = _double_quadrature(cfg, p, P, D)
    got = conditional_reflected_env(cfg, p, P, D=D)
    assert scale > 0.0
    assert abs(got - ref) <= 1e-9 * scale


def test_conditional_env_nearly_linear_branch(monkeypatch):
    # at D = 1e-8 the u^2 term and the u-phase are tiny at every s node, so
    # the closed form must hand all of them to the Gauss-Legendre branch
    seen = []

    def spy(A, B, C, U):
        seen.append((A, B, U))
        return exp_quadratic_integral(A, B, C, U)

    monkeypatch.setattr(model2, "exp_quadratic_integral", spy)
    conditional_reflected_env(HEAVY, -0.998, 0.999, D=1e-8)
    (A, B, U), = seen
    assert np.all(A * U**2 < 1e-2) and np.all(np.abs(B) * U < math.pi)


@settings(max_examples=40, deadline=None)
@given(U=st.floats(1e-2, 10.0), alpha=st.floats(0.0, 40.0),
       beta_re=st.floats(-40.0, 40.0), beta_im=st.floats(-60.0, 60.0))
@example(U=1.0, alpha=0.0, beta_re=30.0, beta_im=-5.0)  # no u^2 term at all
@example(U=2.0, alpha=1e-3, beta_re=0.5, beta_im=1.0)  # nearly-linear branch
def test_exp_quadratic_integral_against_mpmath(U, alpha, beta_re, beta_im):
    # draw the dimensionless exponent alpha t^2 + beta t on t = u / U in [0, 1]
    A, B = alpha / U**2, complex(beta_re, beta_im) / U
    got = complex(exp_quadratic_integral(A, B, 0.0, U))
    pieces = int(abs(complex(beta_re, beta_im)) / 2.0 + alpha) + 3
    with mpmath.workdps(30):
        ref = complex(mpmath.quad(lambda u: mpmath.exp(A * u * u + B * u),
                                  mpmath.linspace(0, U, pieces), method="gauss-legendre"))
    scale = U * max(1.0, math.exp(alpha + beta_re))  # U max |integrand|
    assert abs(got - ref) <= 1e-13 * scale


def test_cutoff_report_identities_and_velocity_form():
    cfg = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=1.0)
    rep = timescale_cutoffs_model2(cfg, D=1.0)
    t_z = 100.0
    assert rep.T_1 == pytest.approx(rep.T_d_p**1.5 / math.sqrt(t_z), rel=1e-12)
    # T_1 << t_E is the velocity condition up to its exact constant 1/2
    assert rep.T_1 / rep.t_E == pytest.approx(
        0.5 * (1.0 / 1.0) / (math.sqrt(1.0 * t_z) / 10.0), rel=1e-12)


def test_t1_condition_weakest_over_random_steady_targets():
    rng = np.random.default_rng(42)
    for _ in range(300):
        m = 1.0
        M = rng.uniform(2.0, 500.0)
        D = 10.0 ** rng.uniform(-3, 3)
        sigma = rng.uniform(5.0, 500.0)  # broad packets
        params = PhysicalParams(m=m, M=M, D=D, sigma=sigma, potential=GAUSS)
        cfg = Model2Config(params, steady_target=True)
        rep = timescale_cutoffs_model2(cfg)
        t_E = rep.t_E
        if rep.T_z <= 0.1 * t_E:  # Zeno condition met -> T_1 condition met
            assert rep.T_1 <= 0.1 * t_E


def test_config_validation():
    with pytest.raises(ValueError):
        Model2Config(PhysicalParams(M=None, Sigma=1.0))
    with pytest.raises(ValueError):
        Model2Config(PhysicalParams(M=10.0))  # no Sigma, no steady_target
    with pytest.raises(ValueError):
        Model2Config(PhysicalParams(M=10.0, D=0.0), steady_target=True)
    cfg = Model2Config(PhysicalParams(M=10.0, D=2.0), steady_target=True)
    assert cfg.params.Sigma == pytest.approx(steady_target_width(10.0, 2.0), rel=1e-14)


def test_joint_map_marginal_consistency():
    # the gridded marginal equals the joint coefficient at the constraint
    # root times the Jacobian M / |p - p_bar|
    cfg = make_cfg(M=10.0, Sigma=1.0)
    from qreflect import joint_reflected_map, joint_reflected_noenv
    res = joint_reflected_map(cfg, p_grid=np.linspace(-2.0, -0.2, 41),
                              conditional_P=0.3)
    assert res.coefficient.shape == (len(res.p), len(res.P))
    assert np.all(res.coefficient >= 0.0) and np.all(res.marginal >= 0.0)
    for i, p in enumerate(res.p):
        con = joint_reflected_noenv(cfg, float(p), 0.0).constraint
        at_root = joint_reflected_noenv(cfg, float(p), con.root).coefficient
        assert res.marginal[i] == pytest.approx(at_root * con.jacobian, rel=1e-6)
    assert res.conditional is not None and res.total_marginal > 0.0


def test_density_clamp_behavior():
    from qreflect import QuadratureError, clamp_density
    dens = np.array([1.0, 0.5, -5e-7, 0.2])
    out = clamp_density(dens)
    assert np.all(out >= 0.0) and out[2] == 0.0
    with pytest.raises(QuadratureError):
        clamp_density(np.array([1.0, -1e-3]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_density_clamp_rejects_non_finite(bad):
    from qreflect import QuadratureError, clamp_density
    with pytest.raises(QuadratureError):
        clamp_density(np.array([1.0, bad, 0.2]))


def test_env_density_nonnegative_over_sweep():
    cfg = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=0.01)
    pg = np.linspace(-6.0, 0.0, 257, endpoint=False)
    for D in (0.01, 1.0, 100.0):
        c = cfg.with_D(D)
        dens = np.array([reflected_density_env(c, p, D=D) for p in pg])
        assert dens.min() >= -1e-6 * dens.max()
