"""The batched oscillatory quadrature: phase cap, run-time refinement, failure,
chunking, edge cases, and the kernels' use of one batch call per sweep value."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qreflect import model1, model2, oscquad
from qreflect.cli import main
from qreflect.oscquad import (_GL_NODES, _GL_ORDER, _GL_WEIGHTS, _MAX_ROUND_PANELS,
                              _MAX_ROUNDS, _TAIL_COEFFS, _TOLERANCE, QuadratureError,
                              decay_cutoff, integrate_oscillatory, integrate_oscillatory_batch)


def _counting(envelope):
    """Envelope wrapper that records every node array it is called with."""
    calls = []

    def counted(s, i):
        calls.append(s.copy())
        return envelope(s, i)

    return counted, calls


@pytest.mark.parametrize("degree", [0, 3, 10])
def test_phase_cap_panel_resolves_cos_times_polynomial(degree):
    # one 24-node panel spanning the full 10 pi phase cap: the cosine error the
    # run-time estimate leaves out stays at roundoff for degree <= 10 envelopes
    rng = np.random.default_rng(degree)
    for _ in range(5):
        coef = rng.standard_normal(degree + 1)
        omega = float(rng.uniform(0.1, 30.0))
        upper = oscquad._PHASE_CAP / omega
        poly = lambda s, i: np.polynomial.polynomial.polyval(s / upper, coef)
        env, calls = _counting(poly)
        got = integrate_oscillatory_batch(env, omega, upper, math.inf)[0]
        assert [c.size for c in calls] == [24]  # one panel, never split
        s, w = oscquad.panel_nodes(0.0, upper, 1)
        roundoff = float(np.sum(w * np.abs(poly(s, None) * np.cos(omega * s))))
        with mpmath.workdps(30):
            exact = float(mpmath.quad(lambda t: mpmath.polyval(list(coef[::-1]), t / upper)
                                      * mpmath.cos(omega * t), mpmath.linspace(0, upper, 11)))
        assert abs(got - exact) <= 1e-14 * roundoff


def test_estimate_reads_the_top_two_legendre_coefficients():
    # on one panel over [0, 1] the envelope is sum_k c_k P_k(2 s - 1): a
    # degree-21 envelope is resolved as it stands, a P_22 component is not
    rng = np.random.default_rng(21)
    low = rng.standard_normal(22)
    for coef, splits in ((low, False), (np.eye(23)[22], True)):
        env, calls = _counting(lambda s, i: np.polynomial.legendre.legval(2.0 * s - 1.0, coef))
        integrate_oscillatory_batch(env, 0.0, 1.0, math.inf)
        assert (len(calls) > 1) == splits


def _narrow_feature(s, i):
    return np.exp(-s) + np.exp(-(((s - 2.3) / 0.02) ** 2))


def test_refinement_resolves_a_feature_narrower_than_the_first_pass(monkeypatch):
    omega, upper, scale = 0.7, 10.0, 10.0  # first-pass panels are 1.25 wide
    ref, _ = quad(lambda s: _narrow_feature(s, None) * math.cos(omega * s), 0.0, upper,
                  points=[2.3], epsabs=1e-14, epsrel=0.0, limit=400)
    env, calls = _counting(_narrow_feature)
    got = integrate_oscillatory_batch(env, omega, upper, scale)[0]
    assert len(calls) > 1  # the panel holding the feature was split
    assert abs(got - ref) <= 1e-13
    # with splitting switched off the first pass alone misses the check
    monkeypatch.setattr(oscquad, "_TOLERANCE", math.inf)
    unrefined = integrate_oscillatory_batch(_narrow_feature, omega, upper, scale)[0]
    assert abs(unrefined - ref) > 1e-13


def test_jump_discontinuity_exhausts_the_bisection_rounds():
    env, calls = _counting(lambda s, i: np.where(s < 1.0 / 3.0, 1.0, 0.0))
    with pytest.raises(QuadratureError, match="unresolved after 12 bisections"):
        integrate_oscillatory_batch(env, 2.0, 1.0, 1.0)
    assert len(calls) == 1 + oscquad._MAX_ROUNDS


def test_chunk_size_changes_no_result(monkeypatch):
    rng = np.random.default_rng(5)
    n = 300
    omega = rng.uniform(-40.0, 40.0, n)
    beta = 10.0 ** rng.uniform(-4.0, 1.0, n)
    width = 10.0 ** rng.uniform(-2.0, 0.0, n)
    amplitude = 10.0 ** rng.uniform(-6.0, 0.0, n)  # each point is refined to its own peak
    upper = decay_cutoff((beta, 3))
    env = lambda s, i: amplitude[i] * np.exp(-beta[i] * s**3) * (
        1.0 + np.exp(-((s - 1.0) / width[i]) ** 2))
    roundoff = integrate_oscillatory_batch(env, 0.0, upper, upper)  # sum w |f|, env >= 0
    default = integrate_oscillatory_batch(env, omega, upper, upper)
    monkeypatch.setattr(oscquad, "_CHUNK_NODES", 24)
    one_panel_chunks = integrate_oscillatory_batch(env, omega, upper, upper)
    assert np.all(np.abs(one_panel_chunks - default) <= 1e-15 * roundoff)


def test_empty_and_non_finite_limits():
    env = lambda s, i: np.exp(-s)
    assert integrate_oscillatory(lambda s: np.exp(-s), 1.0, 0.0, 1.0) == 0.0
    assert integrate_oscillatory(lambda s: np.exp(-s), 1.0, -2.0, 1.0) == 0.0
    out = integrate_oscillatory_batch(env, [1.0, 1.0, 1.0], [-1.0, 0.0, 5.0], 1.0)
    assert out[0] == 0.0 and out[1] == 0.0 and out[2] != 0.0
    for bad in (math.inf, math.nan):
        with pytest.raises(QuadratureError, match="must be finite"):
            integrate_oscillatory_batch(env, [1.0, 1.0], [1.0, bad], 1.0)
        with pytest.raises(QuadratureError, match="must be finite"):
            integrate_oscillatory(lambda s: np.exp(-s), 1.0, bad, 1.0)


@pytest.mark.parametrize("k", [0.0, 3.0, -7.5])
def test_complex_envelope_integrates_the_real_part(k):
    # Re[e^((-1 + ik) s) e^(-i omega s)] = e^-s cos((omega - k) s), in closed form
    omega = np.array([0.0, 2.0, 40.0])
    upper = 30.0
    got = integrate_oscillatory_batch(lambda s, i: np.exp((-1.0 + 1j * k) * s),
                                      omega, upper, 1.0)
    z = 1.0 + 1j * (omega - k)
    want = ((1.0 - np.exp(-z * upper)) / z).real
    assert np.all(np.abs(got - want) <= 1e-15)


def test_decay_cutoff_is_elementwise():
    c = np.array([0.0, 1e-3, 2.0, -1.0])
    got = decay_cutoff((c, 3), (0.5, 2))
    want = [decay_cutoff((float(ci), 3), (0.5, 2)) for ci in c]
    assert got.shape == c.shape and list(got) == want
    assert decay_cutoff((0.0, 3)) == math.inf


def test_figure5_makes_one_batch_call_per_sweep_value(tmp_path, monkeypatch):
    scalar, batch = [], []
    one, many = oscquad.integrate_oscillatory, oscquad.integrate_oscillatory_batch

    def scalar_spy(*args, **kwargs):
        scalar.append(args)
        return one(*args, **kwargs)

    def batch_spy(envelope, omega, upper, scale):
        batch.append(np.size(omega))
        return many(envelope, omega, upper, scale)

    monkeypatch.setattr(oscquad, "integrate_oscillatory", scalar_spy)
    for mod in (oscquad, model1, model2):
        monkeypatch.setattr(mod, "integrate_oscillatory_batch", batch_spy)
    assert main(["figures", "--figure", "5", "--outdir", str(tmp_path)]) == 0
    assert scalar == []
    # one call over the 1024-point p grid per D value, shared by all 3 barrier widths
    assert batch == [1024] * 13


@pytest.mark.parametrize("kernel", ["x", "x_fejer", "x_born", "p", "env", "env_tau_inf",
                                    "conditional", "conditional_reduced"])
def test_kernel_array_paths_equal_their_scalar_views(kernel):
    # every closed-form branch and the batched integral, over a grid and point by point
    from qreflect import Model2Config, PhysicalParams, PotentialSpec

    params = PhysicalParams(sigma=10.0, potential=PotentialSpec.gaussian(0.01, 0.1),
                            M=10.0, Sigma=100.0)
    cfg = Model2Config(params.replace(D=1.0), steady_target=True)
    fig4 = Model2Config(PhysicalParams(M=10.0, sigma=100.0, D=1.0,
                                       potential=PotentialSpec.gaussian(0.01, 0.1)),
                        steady_target=True)
    p = np.linspace(-3.0, 0.9, 40)
    call = {
        "x": lambda q: model1.reflected_density_x(q, params, 0.1),
        "x_fejer": lambda q: model1.reflected_density_x(q, params, 0.0, 20.0),
        "x_born": lambda q: model1.reflected_density_x(q, params, 0.0, math.inf),
        "p": lambda q: model1.reflected_density_p(q, params, 0.5),
        "env": lambda q: model2.reflected_density_env(cfg, q, D=1.0),
        "env_tau_inf": lambda q: model2.reflected_density_env(cfg, q, D=1.0, tau=math.inf),
        "conditional": lambda q: model2.conditional_reflected_env(fig4, q, 0.3, D=1.0),
        "conditional_reduced": lambda q: model2.conditional_reflected_env(
            fig4, q, 0.3, D=1.0, reduced=True),
    }[kernel]
    grid = call(p)
    points = [call(float(q)) for q in p]
    assert isinstance(points[0], float) and grid.shape == p.shape
    np.testing.assert_allclose(grid, points, rtol=1e-13, atol=1e-15 * np.max(np.abs(grid)))


def test_conditional_sweep_makes_one_batch_call_per_D(tmp_path, monkeypatch):
    # the s-integral runs through the shared batch integrator; panel_nodes is
    # left only to the nearly-linear branch of the closed-form u-integral
    batch, stray, inside = [], [], [0]
    many, nodes, closed = (oscquad.integrate_oscillatory_batch, oscquad.panel_nodes,
                           model2.exp_quadratic_integral)

    def batch_spy(envelope, omega, upper, scale):
        batch.append(np.size(omega))
        return many(envelope, omega, upper, scale)

    def nodes_spy(*args):
        if not inside[0]:
            stray.append(args)
        return nodes(*args)

    def closed_spy(*args):
        inside[0] += 1
        try:
            return closed(*args)
        finally:
            inside[0] -= 1

    for mod in (oscquad, model1, model2):
        monkeypatch.setattr(mod, "integrate_oscillatory_batch", batch_spy)
    monkeypatch.setattr(model2, "panel_nodes", nodes_spy)
    monkeypatch.setattr(model2, "exp_quadratic_integral", closed_spy)
    assert main(["model2", "--M", "10", "--sigma", "100", "--a", "0.1", "--V0", "0.01",
                 "--steady-target", "true", "--D_sweep", "0.01,1,10", "--P", "0",
                 "--outdir", str(tmp_path)]) == 0
    # one conditional call per D over the 400-point grid, then the 1024-point totals
    assert batch == [400] * 3 + [1024] * 3
    assert stray == []


def _integrate_points_oracle(envelope, idx, omega, upper, n, spare: int):
    # direct form: one cosine (and for a complex envelope one sine) per node in
    # every round, the first pass included
    point = np.repeat(np.arange(idx.size), n)
    k = np.arange(point.size) - np.repeat(np.cumsum(n) - n, n)
    a = upper[point] * k / n[point]
    b = upper[point] * (k + 1) / n[point]
    total = np.zeros(idx.size)
    peak = None
    for _ in range(_MAX_ROUNDS + 1):
        half = 0.5 * (b - a)
        s = 0.5 * (a + b)[:, None] + half[:, None] * _GL_NODES
        with np.errstate(all="ignore"):
            f = envelope(s.ravel(), np.repeat(idx[point], _GL_ORDER)).reshape(s.shape)
        if not np.all(np.isfinite(f)):
            raise QuadratureError("oscillatory integral: the envelope is not finite")
        if peak is None:
            peak = np.maximum.reduceat(np.max(np.abs(f), axis=1), np.cumsum(n) - n)
        bad = np.sum(np.abs(f @ _TAIL_COEFFS), axis=1) > _TOLERANCE * peak[point]
        phase = omega[point, None] * s
        f = (f.real * np.cos(phase) + f.imag * np.sin(phase) if np.iscomplexobj(f)
             else f * np.cos(phase))
        total += np.bincount(point, weights=np.where(bad, 0.0, half * (f @ _GL_WEIGHTS)),
                             minlength=idx.size)
        if not bad.any():
            return total, spare
        split = 2 * int(np.count_nonzero(bad))
        spare -= split
        if spare < 0 or split > _MAX_ROUND_PANELS:
            raise QuadratureError("refinement budget exceeded")
        lo, hi, point = a[bad], b[bad], np.repeat(point[bad], 2)
        mid = 0.5 * (lo + hi)
        a, b = np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()
    raise QuadratureError("unresolved")


@st.composite
def _first_pass(draw):
    # (omega, upper, n) for 1-6 points whose phase omega * upper reaches up to 1e4 rad
    size = draw(st.integers(1, 6))
    omega = np.array([draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-2.0, 3.0))
                      for _ in range(size)])
    upper = np.array([10.0 ** draw(st.floats(-1.0, 4.0)) for _ in range(size)]) / np.abs(omega)
    scale = upper * np.array([10.0 ** draw(st.floats(-1.0, 0.0)) for _ in range(size)])
    return omega, upper, oscquad._panel_counts(omega, upper, scale).astype(np.int64)


@settings(max_examples=30, deadline=None)
@given(points=_first_pass(), complex_env=st.booleans(), decay=st.floats(0.0, 5.0),
       wave=st.floats(-50.0, 50.0), halvings=st.integers(0, 3), stride=st.integers(1, 3))
def test_phase_table_matches_direct_cosines(points, complex_env, decay, wave, halvings,
                                            stride):
    # the per-point table e^(-i omega h x_j) times e^(-i omega mid) per panel against
    # cos(omega s) and sin(omega s) at every node: both round the phase argument, so
    # they may differ by 2 eps |omega s| per node on top of 1e-15 of sum w |f|.  As
    # in a refinement round, panels are bisected `halvings` times and only every
    # stride-th is kept, so a point may have no panel at all
    omega, upper, n = points
    n = n * 2**halvings
    point = np.repeat(np.arange(omega.size), n)
    k = np.arange(point.size) - np.repeat(np.cumsum(n) - n, n)
    mid = (0.5 * (upper[point] * k / n[point] + upper[point] * (k + 1) / n[point]))[::stride]
    point = point[::stride]
    h = 0.5 * upper / n
    s = mid[:, None] + h[point, None] * _GL_NODES
    t = s / upper[point, None]
    f = (np.exp((-decay + 1j * wave) * t) if complex_env
         else np.exp(-decay * t) * (1.0 + 0.5 * np.sin(wave * t)))
    got = np.bincount(point, oscquad._panel_sums(f, omega, h, mid, point), omega.size)
    phase = omega[point, None] * s
    direct = f.real * np.cos(phase) + f.imag * np.sin(phase)
    want = np.bincount(point, h[point] * (direct @ _GL_WEIGHTS), omega.size)
    wf = h[point, None] * _GL_WEIGHTS * np.abs(f)
    bound = np.bincount(point, np.sum(wf * (1e-15 + 2.0 * np.finfo(float).eps * np.abs(phase)),
                                      axis=1), omega.size)
    assert np.all(np.abs(got - want) <= bound)


def test_integrals_match_the_direct_cosine_loop(monkeypatch):
    # the kernels' own envelopes, real and complex, through the table path and
    # through the direct form
    from qreflect import Model2Config, PhysicalParams, PotentialSpec

    barrier = PotentialSpec.gaussian(0.01, 0.1)
    fig4 = Model2Config(PhysicalParams(M=10.0, sigma=100.0, D=1.0, potential=barrier),
                        steady_target=True)
    params = PhysicalParams(sigma=10.0, potential=barrier)
    p = np.linspace(-3.0, -0.01, 300)
    kernels = (lambda: model2.reflected_density_env(fig4, p, D=1.0),
               lambda: model2.reflected_density_env(fig4, p, D=0.01),
               lambda: model2.conditional_reflected_env(fig4, p[::10], 0.3, D=1.0),
               lambda: model1.reflected_density_x(p, params, 0.1))
    for kernel in kernels:
        with monkeypatch.context() as patch:
            patch.setattr(oscquad, "_integrate_points", _integrate_points_oracle)
            want = kernel()
        got = kernel()
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
