"""The batched oscillatory quadrature: phase cap, run-time refinement, failure,
node slices, edge cases, and the kernels' use of one batch call per sweep value."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qreflect import model1, model2, oscquad
from qreflect.cli import main
from qreflect.oscquad import (_GL_NODES, _GL_ORDER, _GL_WEIGHTS, _MAX_ROUNDS, _TAIL_COEFFS,
                              _TOLERANCE, QuadratureError, decay_cutoff, integrate_oscillatory,
                              integrate_oscillatory_batch)


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
    # slices of one panel, of 7 panels and of the default size give the same bits
    rng = np.random.default_rng(5)
    n = 300
    omega = rng.uniform(-40.0, 40.0, n)
    beta = 10.0 ** rng.uniform(-4.0, 1.0, n)
    width = 10.0 ** rng.uniform(-2.0, 0.0, n)
    amplitude = 10.0 ** rng.uniform(-6.0, 0.0, n)  # each point is refined to its own peak
    upper = decay_cutoff((beta, 3))
    env = lambda s, i: amplitude[i] * np.exp(-beta[i] * s**3) * (
        1.0 + np.exp(-((s - 1.0) / width[i]) ** 2))
    default = integrate_oscillatory_batch(env, omega, upper, upper)
    for chunk in (24, 24 * 7, oscquad._CHUNK_NODES):
        monkeypatch.setattr(oscquad, "_CHUNK_NODES", chunk)
        counted, calls = _counting(env)
        assert np.array_equal(integrate_oscillatory_batch(counted, omega, upper, upper), default)
        assert max(c.size for c in calls) <= chunk


def test_no_envelope_call_exceeds_one_slice():
    # 17,000 one-panel points whose cosine envelope needs one bisection: the
    # refinement round holds 34,000 panels, more than one point's first pass may
    # (2^15), and is still evaluated in slices of at most _CHUNK_NODES nodes
    n = 17_000
    k = np.linspace(12.0, 16.0, n)
    env, calls = _counting(lambda s, i: np.cos(k[i] * s))
    got = integrate_oscillatory_batch(env, np.zeros(n), 1.0, math.inf)
    rounds = [24 * n, 2 * 24 * n]
    assert sum(c.size for c in calls) == sum(rounds)  # a first pass and one refinement round
    assert rounds[1] > 24 * oscquad._MAX_POINT_PANELS
    assert max(c.size for c in calls) <= oscquad._CHUNK_NODES
    assert all(c.shape[1:] == (_GL_ORDER,) for c in calls)
    np.testing.assert_allclose(got, np.sin(k) / k, rtol=0.0, atol=1e-15)


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


def _spy_totals(monkeypatch):
    """Spy on every batch call and on model2's s-integrals.  Returns (sizes of the
    calls that are not a total's p-integral, one entry per p-integral: its
    number of points and the (p, D) pairs its s-integrals took); a p-integral is a
    call at omega = 0."""
    many, env = oscquad.integrate_oscillatory_batch, model2._env_densities
    other, totals = [], []

    def batch_spy(envelope, omega, upper, scale):
        if np.all(np.asarray(omega) == 0.0):
            totals.append((np.size(omega), []))
        else:
            other.append(np.size(omega))
        return many(envelope, omega, upper, scale)

    def env_spy(cfg, p, D, barriers, Sigma=None):
        if totals:
            totals[-1][1].append(np.column_stack(np.broadcast_arrays(p, D)))
        return env(cfg, p, D, barriers, Sigma)

    for mod in (oscquad, model1, model2):
        monkeypatch.setattr(mod, "integrate_oscillatory_batch", batch_spy)
    monkeypatch.setattr(model2, "_env_densities", env_spy)
    return other, totals


def _each_node_once(nodes):
    pairs = np.concatenate(nodes)
    return pairs.size > 0 and np.unique(pairs, axis=0).shape == pairs.shape


def test_figure5_makes_one_batch_call_per_sweep_value(tmp_path, monkeypatch):
    scalar = []
    one = oscquad.integrate_oscillatory

    def scalar_spy(*args, **kwargs):
        scalar.append(args)
        return one(*args, **kwargs)

    monkeypatch.setattr(oscquad, "integrate_oscillatory", scalar_spy)
    other, totals = _spy_totals(monkeypatch)
    assert main(["figures", "--figure", "5", "--outdir", str(tmp_path)]) == 0
    assert scalar == []
    # one p-integral over all 13 D values times 3 barrier widths, each of whose
    # (p, D) nodes takes its s-integral once, shared by the widths
    assert [n for n, _ in totals] == [39]
    assert all(_each_node_once(nodes) for _, nodes in totals)
    assert len(other) == sum(len(nodes) for _, nodes in totals)


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
        "env_tau_inf": lambda q: model2.reflected_density_env(
            Model2Config(cfg.params, tau=math.inf), q, D=1.0),
        "conditional": lambda q: model2.conditional_reflected_env(fig4, q, 0.3, D=1.0),
        "conditional_reduced": lambda q: model2.conditional_reflected_env(
            fig4, q, 0.3, D=1.0, reduced=True),
    }[kernel]
    grid = call(p)
    points = [call(float(q)) for q in p]
    assert isinstance(points[0], float) and grid.shape == p.shape
    np.testing.assert_allclose(grid, points, rtol=1e-13, atol=1e-15 * np.max(np.abs(grid)))


def test_conditional_sweep_makes_one_batch_call_per_D(tmp_path, monkeypatch):
    # the s-integral runs through the shared batch integrator, and the nearly-linear
    # branch of the closed-form u-integral takes the one panel built at import: no
    # run-time call lays fixed panels
    stray, nodes = [], oscquad.panel_nodes

    def nodes_spy(*args):
        stray.append(args)
        return nodes(*args)

    other, totals = _spy_totals(monkeypatch)
    for mod in (oscquad, model2):
        monkeypatch.setattr(mod, "panel_nodes", nodes_spy)
    assert main(["model2", "--M", "10", "--sigma", "100", "--a", "0.1", "--V0", "0.01",
                 "--steady-target", "true", "--D_sweep", "0.01,1,10", "--P", "0",
                 "--outdir", str(tmp_path)]) == 0
    # one conditional call per D over the 400-point grid, then one p-integral over
    # the 3 D values for the totals, each of whose (p, D) nodes takes its s-integral once
    assert other[:3] == [400] * 3
    assert [n for n, _ in totals] == [3]
    assert all(_each_node_once(nodes) for _, nodes in totals)
    assert len(other) == 3 + sum(len(nodes) for _, nodes in totals)
    assert stray == []


def _integrate_points_oracle(envelope, idx, omega, upper, n):
    # direct form: one cosine (and for a complex envelope one sine) per node in
    # every round, the first pass included, and each round in one envelope call
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
            f = np.broadcast_to(envelope(s, idx[point, None]), s.shape)
        if not np.all(np.isfinite(f)):
            raise QuadratureError("oscillatory integral: the envelope is not finite")
        if peak is None:
            peak = np.maximum.reduceat(np.max(np.abs(f), axis=1), np.cumsum(n) - n)
        tail = np.abs(np.einsum("pj,kj->pk", f, _TAIL_COEFFS))
        bad = tail[:, 0] + tail[:, 1] > _TOLERANCE * peak[point]
        phase = omega[point, None] * s
        f = (f.real * np.cos(phase) + f.imag * np.sin(phase) if np.iscomplexobj(f)
             else f * np.cos(phase))
        total += np.bincount(point, weights=np.where(bad, 0.0, half * (f @ _GL_WEIGHTS)),
                             minlength=idx.size)
        if not bad.any():
            return total
        lo, hi, point = a[bad], b[bad], np.repeat(point[bad], 2)
        mid = 0.5 * (lo + hi)
        a, b = np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()
    raise QuadratureError("unresolved")


def _chunked_batch_oracle(envelope, omega, upper, scale):
    # the previous driver: points integrated in groups of about 2^14 first-pass
    # nodes, each group refined on its own, with one envelope call per group and
    # round on flat nodes and one point index per node
    omega, upper, scale = (np.ravel(v) for v in np.broadcast_arrays(
        *(np.asarray(v, float) for v in (omega, upper, scale))))
    n = oscquad._panel_counts(omega, upper, scale).astype(np.int64)
    out = np.zeros(upper.shape)
    live = np.flatnonzero(n)
    first_node = (np.cumsum(n[live]) - n[live]) * _GL_ORDER
    cuts = np.flatnonzero(np.diff(first_node // 2**14)) + 1
    for idx in filter(len, np.split(live, cuts)):
        out[idx] = _chunk_oracle(envelope, idx, omega[idx], upper[idx], n[idx])
    return out


def _chunk_oracle(envelope, idx, omega, upper, n):
    point = np.repeat(np.arange(idx.size), n)
    k = np.arange(point.size) - np.repeat(np.cumsum(n) - n, n)
    a = upper[point] * k / n[point]
    b = upper[point] * (k + 1) / n[point]
    h = 0.5 * upper / n
    total = np.zeros(idx.size)
    peak = None
    for _ in range(_MAX_ROUNDS + 1):
        mid = 0.5 * (a + b)
        s = mid[:, None] + h[point, None] * _GL_NODES
        f = envelope(s.ravel(), np.repeat(idx[point], _GL_ORDER)).reshape(s.shape)
        if peak is None:
            peak = np.maximum.reduceat(np.max(np.abs(f), axis=1), np.cumsum(n) - n)
        value = oscquad._panel_sums(f, omega, h, mid, point)
        tail = np.abs(np.einsum("pj,kj->pk", f, _TAIL_COEFFS))
        bad = tail[:, 0] + tail[:, 1] > _TOLERANCE * peak[point]
        total += np.bincount(point, weights=np.where(bad, 0.0, value), minlength=idx.size)
        if not bad.any():
            return total
        lo, mid, hi, point = a[bad], mid[bad], b[bad], np.repeat(point[bad], 2)
        a, b = np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()
        h = 0.5 * h
    raise QuadratureError("unresolved")


def _bumps(omega, upper, scale, centre, width, height, carrier=None):
    """(envelope, omega, upper, scale) of a batch whose point i has the envelope
    e^(-s / scale_i) (1 + height_i e^(-((s - centre_i) / width_i)^2)), times
    e^(i carrier_i s) when carrier is given."""
    def envelope(s, i):
        f = np.exp(-s / scale[i]) * (1.0 + height[i] * np.exp(-((s - centre[i]) / width[i]) ** 2))
        return f if carrier is None else f * np.exp(1j * carrier[i] * s)

    return envelope, omega, upper, scale


@st.composite
def _bumpy_batch(draw):
    # 1-40 points, each a decaying envelope with a bump narrow enough that some
    # panels are bisected; complex envelopes add a drawn carrier of their own
    size = draw(st.integers(1, 40))
    floats = lambda lo, hi: np.array([draw(st.floats(lo, hi)) for _ in range(size)])
    omega = floats(-30.0, 30.0)
    upper = 10.0 ** floats(-1.0, 1.5)
    scale = upper * 10.0 ** floats(-1.0, 0.0)
    centre = upper * floats(0.0, 1.0)
    width, height = upper * 10.0 ** floats(-3.5, -0.5), floats(0.0, 2.0)
    carrier = floats(-20.0, 20.0) if draw(st.booleans()) else None
    return _bumps(omega, upper, scale, centre, width, height, carrier)


def _one_bump_at_the_tolerance():
    # 17 points at omega = 0; point 13 carries a bump whose height puts one
    # refinement panel's |c22| + |c23| within roundoff of the tolerance, where a
    # one-row matrix product (a 24-node slice) and a many-row one round apart
    upper = np.ones(17)
    upper[13] = 6.99147497
    centre, width, height = np.zeros(17), np.full(17, 0.1), np.zeros(17)
    centre[13], width[13] = 2.180161791590065, 0.041166899018451504
    height[13] = 8.72946764291265e-13
    return _bumps(np.zeros(17), upper, upper.copy(), centre, width, height)


@settings(max_examples=30, deadline=None)
@given(batch=_bumpy_batch(), chunk=st.sampled_from([24, 24 * 7, 24 * 50, 2**14]))
@example(batch=_one_bump_at_the_tolerance(), chunk=24)
def test_slices_match_the_chunked_loop(batch, chunk):
    # the one refinement loop over node slices evaluates the same panels and sums
    # them in the same order as the loop over point groups it replaced: same bits.
    # A bump too narrow for 12 bisections fails on both sides
    envelope, omega, upper, scale = batch
    try:
        want = _chunked_batch_oracle(envelope, omega, upper, scale)
    except QuadratureError:
        want = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oscquad, "_CHUNK_NODES", chunk)
        if want is None:
            with pytest.raises(QuadratureError, match="unresolved after 12 bisections"):
                integrate_oscillatory_batch(envelope, omega, upper, scale)
        else:
            assert np.array_equal(integrate_oscillatory_batch(envelope, omega, upper, scale),
                                  want)


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
       wave=st.floats(-50.0, 50.0), halvings=st.integers(0, 3), stride=st.integers(1, 3),
       start=st.floats(0.0, 1.0), length=st.integers(1, 200))
def test_phase_table_matches_direct_cosines(points, complex_env, decay, wave, halvings,
                                            stride, start, length):
    # the per-point table e^(-i omega h x_j) times e^(-i omega mid) per panel against
    # cos(omega s) and sin(omega s) at every node: both round the phase argument, so
    # they may differ by 2 eps |omega s| per node on top of 1e-15 of sum w |f|.  As
    # in a refinement round, panels are bisected `halvings` times and only every
    # stride-th is kept, so a point may have no panel at all; as in one node slice,
    # only a run of `length` panels is summed, with tables for its own points
    omega, upper, n = points
    n = n * 2**halvings
    point = np.repeat(np.arange(omega.size), n)
    k = np.arange(point.size) - np.repeat(np.cumsum(n) - n, n)
    mid = (0.5 * (upper[point] * k / n[point] + upper[point] * (k + 1) / n[point]))[::stride]
    first = int(start * (mid.size - 1))
    part = slice(first, first + length)
    point, mid = point[::stride][part], mid[part]
    h = 0.5 * upper / n
    s = mid[:, None] + h[point, None] * _GL_NODES
    t = s / upper[point, None]
    f = (np.exp((-decay + 1j * wave) * t) if complex_env
         else np.exp(-decay * t) * (1.0 + 0.5 * np.sin(wave * t)))
    lo, hi = point[0], point[-1] + 1
    sums = oscquad._panel_sums(f, omega[lo:hi], h[lo:hi], mid, point - lo)
    got = np.bincount(point, sums, omega.size)
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


# -- the first pass ---------------------------------------------------------------------

_FINE_CAP = 0.25 / 16  # a first pass 16 times finer than 4 panels per envelope scale


def _first_pass_outputs():
    """The benchmark's model1 x sweep (densities and totals), figure 4's densities and
    figure 5's totals, on every 20th p (p = -p_bar among them) and every 3rd D, as {name: column}."""
    from qreflect import EnvironmentSpec, Model2Config
    from qreflect.cli import build_config

    x = build_config(["model1", "--coupling", "x", "--D_sweep", "0.001,0.01,0.1",
                      "--sigma", "10"])
    params, tau = x.physical_params(), x.resolved_tau()
    p_x = np.linspace(-3.0, 3.0, 601)
    p_x = p_x[np.abs(p_x - params.p_bar) > 1e-9][::20]
    cols = {f"x density D={D:g}": dens for D, dens in
            zip(x.D_sweep, model1.reflected_density_x(p_x, params, np.array(x.D_sweep)[:, None],
                                                      tau))}
    cols["x totals"] = model1.total_reflected(
        params, [EnvironmentSpec.position(D) for D in x.D_sweep], tau=tau)
    fig = [build_config(["model2", "--M", "10", "--sigma", "100", "--a", f"{a:g}", "--V0",
                         "0.01", "--steady-target", "true"]) for a in (0.1, 0.2, 0.4)]
    m2 = Model2Config(fig[0].physical_params().replace(D=0.01), tau=fig[0].resolved_tau(),
                      steady_target=True)
    p_4 = np.linspace(-3.0, 1.0, 401)[:-1][::20]
    for D in (0.01, 0.1, 1.0, 10.0):
        cols[f"figure 4 density D={D:g}"] = model2.reflected_density_env(m2.with_D(D), p_4)
    totals = model2.total_reflected_model2(m2, np.logspace(-2, 2, 13)[::3],
                                           [c.physical_params().potential for c in fig])
    cols.update({f"figure 5 totals a={a:g}": row for a, row in zip((0.1, 0.2, 0.4), totals)})
    return cols


def test_first_pass_matches_one_16_times_finer(monkeypatch):
    # the densities and totals that a coarser first pass speeds up, against a first
    # pass 16 times finer than 4 panels per envelope scale: within 1e-14 of each
    # column's peak, so the run-time estimate refines every panel the first pass misses
    got = _first_pass_outputs()
    monkeypatch.setattr(oscquad, "_ENVELOPE_CAP", _FINE_CAP)
    want = _first_pass_outputs()
    for name, column in want.items():
        assert np.max(np.abs(got[name] - column)) <= 1e-14 * np.max(np.abs(column)), name


def test_conditional_first_pass_lays_8_panels_per_support(monkeypatch):
    # the conditional kernel's envelope carries the q-phase that omega leaves out, so its
    # first pass keeps 8 panels per support length, whatever the envelope cap
    from qreflect import Model2Config, PhysicalParams, PotentialSpec

    fig4 = Model2Config(PhysicalParams(M=10.0, sigma=100.0, D=1.0,
                                       potential=PotentialSpec.gaussian(0.01, 0.1)),
                        steady_target=True)
    laid, points = [], oscquad._integrate_points

    def spy(envelope, idx, omega, upper, n):
        laid.append((omega, upper, n))
        return points(envelope, idx, omega, upper, n)

    monkeypatch.setattr(oscquad, "_integrate_points", spy)
    p = np.linspace(-3.0, 1.0, 401)[:-1][::20]
    for D, P in ((0.01, 0.0), (1.0, 0.3), (10.0, 0.0)):
        model2.conditional_reflected_env(fig4.with_D(D), p, P)
    assert len(laid) == 3
    for omega, upper, n in laid:
        with np.errstate(divide="ignore"):
            width = np.minimum(np.minimum(10.0 * math.pi / np.abs(omega), 0.125 * upper), upper)
        assert n.tolist() == np.ceil(upper / width).tolist()
