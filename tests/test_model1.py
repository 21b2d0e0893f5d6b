"""Single-particle perturbative kernels: densities and totals."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from qreflect import (ConfigError, EnvironmentSpec, PhysicalParams, PotentialSpec,
                      QuadratureError, born_delta_coefficient, reflected_density_p,
                      reflected_density_x, total_reflected, narrow_sideband_ratio)
from qreflect import model1

GAUSS = PotentialSpec.gaussian(0.01, 0.1)


def make_params(**kw):
    kw.setdefault("potential", GAUSS)
    return PhysicalParams(**kw)


def test_narrow_sideband_acts_as_delta():
    # D t_z / p_bar^2 with t_z = m sigma / p_bar = 0.01
    params = make_params(sigma=0.01)
    assert narrow_sideband_ratio(params, 1.0) == pytest.approx(0.01, rel=1e-12)


# -- position-coupling reflected density ---------------------------------------


def test_zero_coupling_limit_equals_born_coefficient():
    params = make_params()
    for p in (-0.3, -1.0, -2.5):
        got = reflected_density_x(p, params, D=0.0, tau=math.inf)
        v2 = 0.01**2 / (2 * math.pi) * math.exp(-(0.1**2) * (p - 1.0) ** 2)
        assert got == pytest.approx(2 * math.pi * v2, rel=1e-10)
        assert born_delta_coefficient(p, params) == pytest.approx(got, rel=1e-14)


@pytest.mark.parametrize("tau", [1e-9, 1e-6, 1e-3, 20.0])
def test_fejer_kernel_keeps_its_digits_at_small_omega_tau(tau):
    # D = 0, finite tau: (1 - cos(omega tau)) / (omega^2 tau), here in 50 digits,
    # whose float form cancels to 0 as omega tau -> 0
    import mpmath

    from qreflect import model1

    params = make_params(sigma=10.0)
    p = np.array([-3.0, -1.01, -1.0, -0.99, -0.5, -0.01])
    omega = (p**2 - params.p_bar**2) / (2.0 * params.m * params.hbar)
    with mpmath.workdps(50):
        fejer = [float(mpmath.mpf(tau) / 2 if w == 0.0 else
                       (1 - mpmath.cos(mpmath.mpf(w) * tau)) / (mpmath.mpf(w) ** 2 * tau))
                 for w in omega]
    want = model1._x_prefactor(params, p - params.p_bar) * np.array(fejer)
    got = reflected_density_x(p, params, D=0.0, tau=tau)
    assert np.all(np.abs(got - want) <= 1e-14 * want)


def test_small_coupling_negligible_effect_at_reflection_peak():
    # fluctuation ratio 0.067 << 1: the environment changes the peak density
    # by less than 1%
    params = make_params(D=1e-5, sigma=10.0)
    assert params.sigma_p / params.p_bar < 0.1
    tau = params.tau_default
    rho_env = reflected_density_x(-1.0, params, D=1e-5, tau=tau)
    rho_free = reflected_density_x(-1.0, params, D=0.0, tau=tau)
    assert abs(rho_env - rho_free) / rho_free < 0.01


def test_x_kernel_against_double_time_quadrature():
    params = make_params(D=1.0, sigma=10.0)
    tau = params.tau_default
    p = -1.0
    omega = (p * p - 1.0) / 2.0
    beta = 1.0 * (p - 1.0) ** 2 / 12.0
    f = lambda u, s: math.cos(omega * s) * math.exp(-beta * s**3)
    val, _ = dblquad(f, 0, 6.0, 0, lambda s: tau - s, epsabs=1e-12, epsrel=1e-10)
    from qreflect import potential_momentum
    v2 = float(potential_momentum(GAUSS, p - 1.0)) ** 2
    brute = 2.0 * v2 * val / tau
    assert reflected_density_x(p, params, D=1.0, tau=tau) == pytest.approx(brute, rel=1e-4)


def test_x_kernel_matches_scipy_oscillatory_quadrature():
    params = make_params(D=0.3)
    for p in (-0.6, -1.7):
        omega = (p * p - 1.0) / 2.0
        beta = 0.3 * (p - 1.0) ** 2 / 12.0
        ref, _ = quad(lambda s: math.exp(-beta * s**3), 0, 60.0,
                      weight="cos", wvar=omega, limit=2000)
        from qreflect import potential_momentum
        v2 = float(potential_momentum(GAUSS, p - 1.0)) ** 2
        expected = 2.0 * v2 * ref
        got = reflected_density_x(p, params, D=0.3, tau=math.inf)
        assert got == pytest.approx(expected, rel=1e-8)


# -- momentum-coupling reflected density ----------------------------------------


def test_p_kernel_closed_value_at_reflection_peak():
    params = make_params()
    for D_p in (0.5, 1.0, 2.0):
        v2 = 0.01**2 * math.exp(-0.04) / (2 * math.pi)
        assert reflected_density_p(-1.0, params, D_p) == pytest.approx(
            v2 / (2 * D_p), rel=1e-12)


def test_delta_limit_linear_in_coupling():
    # integrating the broadening factor against smooth test functions
    # converges to their value at -p_bar with error proportional to D_p
    params = make_params()
    tests = [lambda p: math.exp(-((p + 1.0) ** 2) / 2.0),
             lambda p: math.exp(-((p + 1.0) ** 2) / 8.0) * math.cos(0.3 * p),
             lambda p: 1.0 / (1.0 + (p + 1.0) ** 2)]
    for phi in tests:
        couplings = np.array([1e-3, 3e-3, 1e-2, 3e-2])
        errs = []
        for D_p in couplings:
            c = 2.0 * D_p

            def weight(p):
                return (2 * c / math.pi) / ((p + 1.0) ** 2 + c**2 * (p - 1.0) ** 2)

            val, _ = quad(lambda p: weight(p) * phi(p), -80, 80,
                          points=[-1.0], limit=400)
            errs.append(abs(val - phi(-1.0)))
        slope = np.polyfit(np.log(couplings), np.log(errs), 1)[0]
        assert 0.8 <= slope <= 1.2


def test_spread_into_transmitted_region():
    params = make_params()
    p_grid = np.linspace(-3, 3, 1201)
    p_grid = p_grid[np.abs(p_grid - 1.0) > 1e-9]
    dens = np.array([reflected_density_p(p, params, 0.5) for p in p_grid])
    # m hbar D_p = 1: the peak has moved past p = 0
    i_half = np.argmin(np.abs(p_grid - 0.5))
    i_neg = np.argmin(np.abs(p_grid + 1.0))
    assert dens[i_half] > dens[i_neg]
    assert dens[p_grid > 0].sum() / dens.sum() > 0.3


# -- totals -----------------------------------------------------------------------


def test_total_zero_barrier():
    params = make_params(potential=PotentialSpec.gaussian(0.0, 0.1))
    assert total_reflected(params, EnvironmentSpec.momentum(1.0)) == 0.0


def test_total_monotone_and_suppressed():
    params = make_params()
    sweep = np.array([0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0])
    totals = total_reflected(params, [EnvironmentSpec.momentum(x) for x in sweep])
    assert np.all(np.diff(totals) < 0)
    assert totals[-1] / totals[0] < 0.20


def test_total_larger_smearing_smaller_reflection():
    for D_p in (0.1, 1.0, 10.0):
        totals = [total_reflected(make_params(potential=PotentialSpec.gaussian(0.01, a)),
                                  EnvironmentSpec.momentum(D_p))
                  for a in (0.1, 0.2, 0.4)]
        assert totals[0] > totals[1] > totals[2]


def test_densities_scale_as_v0_squared():
    pa = make_params(potential=PotentialSpec.gaussian(0.004, 0.1))
    pb = make_params(potential=PotentialSpec.gaussian(0.008, 0.1))
    for p in (-0.4, -1.0, -2.0):
        assert reflected_density_p(p, pb, 0.7) == pytest.approx(
            4.0 * reflected_density_p(p, pa, 0.7), rel=1e-12)
        assert reflected_density_x(p, pb, D=0.5, tau=20.0) == pytest.approx(
            4.0 * reflected_density_x(p, pa, D=0.5, tau=20.0), rel=1e-12)


@pytest.mark.parametrize("a, D_p", [(0.1, 0.01), (0.1, 1.0), (0.4, 10.0)])
def test_total_matches_mpmath_over_its_range(a, D_p):
    # the total is defined as the density's integral over [-8 p_bar, 0]; mpmath's
    # tanh-sinh rule, split at the peak p = -p_bar, integrates the same density
    params = make_params(potential=PotentialSpec.gaussian(0.01, a))
    want, err = mpmath.quad(lambda p: reflected_density_p(float(p), params, D_p),
                            [-8.0, -1.0, 0.0], error=True)
    assert err < 1e-12 * want
    got = total_reflected(params, EnvironmentSpec.momentum(D_p))
    assert got == pytest.approx(float(want), rel=1e-8)


def test_spectrum_metadata_and_edge_guard():
    params = make_params()
    assert total_reflected(params, EnvironmentSpec.momentum(0.5)) > 0
    with pytest.raises(QuadratureError, match="total_reflected's p_min"):
        total_reflected(params, EnvironmentSpec.momentum(0.5), p_min=-1.5)


def test_triple_oracle_agreement_away_from_incoming_momentum():
    # Born coefficient == zero-coupling x-kernel == integrated p-kernel limit
    params = make_params()
    for p in (-0.5, -1.0, -1.8):
        born = born_delta_coefficient(p, params)
        xk = reflected_density_x(p, params, D=0.0, tau=math.inf)
        assert xk == pytest.approx(born, rel=1e-8)
    # D_p -> 0: the p-kernel integrates against a narrow window around -p_bar
    # to the Born coefficient there
    lo, hi = -1.0 - 0.05, -1.0 + 0.05
    val, _ = quad(lambda p: reflected_density_p(p, params, 1e-5), lo, hi,
                  points=[-1.0], limit=200)
    assert val == pytest.approx(born_delta_coefficient(-1.0, params), rel=1e-3)


# -- sweeps -----------------------------------------------------------------------


@pytest.mark.parametrize("coupling, strengths", [("x", [0.001, 0.01, 0.1]),
                                                 ("p", [0.01, 0.3, 1.0, 10.0])])
def test_sweep_equals_its_one_value_calls_bit_for_bit(coupling, strengths):
    # a sweep's densities take one batched call, a row per strength, and its totals
    # one p-integral, a point per strength: each keeps the bits of a call of its own
    params = make_params(sigma=10.0)
    p = np.linspace(-3.0, 3.0, 601)
    p = p[np.abs(p - 1.0) > 1e-9]
    if coupling == "x":
        density, env_of = (lambda q, s: reflected_density_x(q, params, s)), EnvironmentSpec.position
    else:
        density, env_of = (lambda q, s: reflected_density_p(q, params, s)), EnvironmentSpec.momentum
    grid = density(p, np.array(strengths)[:, None])
    assert grid.shape == (len(strengths), p.size)
    for row, s in zip(grid, strengths):
        assert np.array_equal(row, density(p, s))
        assert density(-1.0, np.array([s, s]))[1] == density(-1.0, s)
    totals = total_reflected(params, [env_of(s) for s in strengths])
    assert totals.tolist() == [total_reflected(params, env_of(s)) for s in strengths]


def test_figure3_totals_equal_their_one_value_calls(tmp_path):
    # each width's 17 D_p values share one p-integral; each total must still be its
    # own D_p's total, bit for bit
    from qreflect.cli import main

    assert main(["figures", "--figure", "3", "--a_list", "0.05,0.3",
                 "--outdir", str(tmp_path)]) == 0
    for a in (0.05, 0.3):
        params = make_params(potential=PotentialSpec.gaussian(0.01, a))
        rows = np.loadtxt(tmp_path / f"total_vs_Dp_a{a:g}.csv", delimiter=",", skiprows=1)
        assert rows.shape == (17, 2)
        assert rows[:, 1].tolist() == [total_reflected(params, EnvironmentSpec.momentum(D_p))
                                       for D_p in rows[:, 0]]


@pytest.mark.parametrize("tau", [None, math.inf])
def test_x_density_mixes_zero_and_positive_strengths(tau):
    # a D = 0 point keeps its closed form (Fejer, or the delta coefficient at tau = inf)
    # beside D > 0 points that take the quadrature
    params = make_params(sigma=10.0)
    p = np.linspace(-2.0, -0.5, 7)
    strengths = [0.0, 0.01, 0.0, 0.1]
    grid = reflected_density_x(p, params, np.array(strengths)[:, None], tau)
    for row, D in zip(grid, strengths):
        assert np.array_equal(row, reflected_density_x(p, params, D, tau))


def test_x_density_names_a_zero_decay_rate_at_infinite_tau():
    # at infinite tau a D > 0 point converges only through its decay rate
    # D (p - p_bar)^2 / 12 m^2 hbar^2: the message names the point and why the rate is
    # zero, p = p_bar or an underflow, not a D = 0 that the point does not have
    params = make_params(sigma=10.0)
    with pytest.raises(QuadratureError, match=r"at p = 1, D = 1: .* is zero at infinite "
                                              r"tau \(p = p_bar\)$"):
        reflected_density_x(np.array([-1.0, 1.0]), params, 1.0, math.inf)
    with pytest.raises(QuadratureError, match=r"at p = -1, D = 1e-320: .*\(the rate "
                                              r"underflows\)$"):
        reflected_density_x(-1.0, params, 1e-320, math.inf)
    assert np.isfinite(reflected_density_x(1.0, params, 1.0))  # a finite tau bounds s


def test_total_takes_one_coupling_kind():
    with pytest.raises(ConfigError, match="one coupling kind"):
        total_reflected(make_params(), [EnvironmentSpec.momentum(1.0),
                                        EnvironmentSpec.position(1.0)])


def test_sweep_past_the_panel_budget_runs_value_by_value(monkeypatch):
    # 17 values need 136 first-pass panels, past a budget of 100 that each value's
    # p-integral fits: the batch fails, and total_reflected reruns one value at a time
    from qreflect import oscquad

    params = make_params()
    envs = [EnvironmentSpec.momentum(D_p) for D_p in np.logspace(-2, 2, 17)]
    want = total_reflected(params, envs)
    calls, batch = [], model1.integrate_oscillatory_batch

    def spy(envelope, omega, upper, scale):
        calls.append(np.size(omega))
        return batch(envelope, omega, upper, scale)

    monkeypatch.setattr(oscquad, "_MAX_PANELS", 100)
    monkeypatch.setattr(model1, "integrate_oscillatory_batch", spy)
    assert total_reflected(params, envs).tolist() == want.tolist()
    assert calls == [17] + [1] * 17
