"""State-diffusion trajectories: stepping, moments, ensembles."""

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qreflect
from qreflect import (ClosureError, EnvironmentSpec, GridTooNarrowError, NoiseStream,
                      NumericalError, PhysicalParams, SpatialGrid, TrajectoryMoments,
                      WaveFunction, fluctuation_report, gaussian_packet,
                      gaussian_state_from_moments, moment_step, position_moments,
                      run_moment_ensemble, run_wavefunction_ensemble, steady_moments,
                      step_trajectory, wavefunction_moments)
from qreflect import qsd


def test_noise_stream_replay_and_counter():
    a = NoiseStream(123)
    seq = [a.next_increment(0.01) for _ in range(5)]
    b = NoiseStream(123)
    assert [b.next_increment(0.01) for _ in range(5)] == seq
    # random access by counter matches the sequential draw
    c = NoiseStream(123)
    assert c.increment_at(3, 0.01) == seq[3]
    assert NoiseStream(124).next_increment(0.01) != seq[0]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64), start=st.integers(0, 2**40), n=st.integers(0, 40),
       split=st.integers(0, 40), dt=st.floats(1e-6, 10.0))
def test_bulk_increments_match_any_batching(seed, start, n, split, dt):
    # block i of a bulk draw is the block at counter i, so the values do not
    # depend on how the draws are batched
    ns = NoiseStream(seed)
    bulk = ns.increments(start, n, dt)
    assert bulk.shape == (n,)
    assert [ns.increment_at(start + i, dt) for i in range(n)] == bulk.tolist()
    k = min(split, n)
    two = np.concatenate([ns.increments(start, k, dt), ns.increments(start + k, n - k, dt)])
    assert np.array_equal(two, bulk)
    stream = NoiseStream(seed)
    stream.counter = start
    assert [stream.next_increment(dt) for _ in range(n)] == bulk.tolist()


def test_one_noise_primitive_and_no_thread_pool_in_src():
    # one counter-based noise contract: a single Philox construction, no
    # Generator objects and no executor anywhere in the package
    package = Path(qreflect.__file__).parent
    texts = {p.name: p.read_text() for p in package.glob("*.py")}
    assert not [n for n, t in texts.items() if "concurrent.futures" in t or "random.Generator" in t]
    assert {n: t.count("Philox(") for n, t in texts.items() if "Philox(" in t} == {"qsd.py": 1}


def test_noise_stream_ito_statistics():
    n, dt = 40000, 0.01
    ns = NoiseStream(77)
    draws = np.array([ns.next_increment(dt) for _ in range(n)])
    assert abs(np.mean(draws)) < 3.0 * math.sqrt(dt / n)
    assert abs(np.var(draws) / dt - 1.0) < 3.0 / math.sqrt(n)


def test_zero_coupling_step_is_unitary_free_step():
    params = PhysicalParams(sigma=2.0)
    grid = SpatialGrid(-32, 32, 512)
    psi0 = gaussian_packet(params, grid, center=0.0)
    psi = psi0
    ns = NoiseStream(7)
    for _ in range(100):
        psi = step_trajectory(psi, EnvironmentSpec.position(0.0), params, 0.002,
                              ns.next_increment(0.002))
    k = 2 * math.pi * np.fft.fftfreq(512, grid.dx)
    ref = np.fft.ifft(np.exp(-1j * k**2 / 2 * 0.2) * np.fft.fft(psi0.values))
    assert np.max(np.abs(psi.values - ref)) < 1e-8


def test_step_norm_is_exactly_one_and_nan_detection():
    params = PhysicalParams(D=1.0)
    grid = SpatialGrid(-16, 16, 256)
    psi = gaussian_state_from_moments(grid, 0.0, 0.0, params.sigma_q**2, 0.5 * params.hbar,
                                      params.hbar)
    env = EnvironmentSpec.position(1.0)
    out = step_trajectory(psi, env, params, 0.002,
                          NoiseStream(1).next_increment(0.002))
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-14)
    bad = WaveFunction(grid, psi.values * np.nan, "position", 1.0)
    with pytest.raises(NumericalError):
        step_trajectory(bad, env, params, 0.002, 0.0)
    with pytest.raises(ValueError):
        step_trajectory(psi, env, params, 5.0, 0.0)  # dt too large


def test_steady_packet_is_stationary():
    params = PhysicalParams(D=1.0)
    sq2 = params.sigma_q**2
    grid = SpatialGrid(-16, 16, 256)
    psi = gaussian_state_from_moments(grid, 0.0, 0.0, params.sigma_q**2, 0.5 * params.hbar,
                                      params.hbar)
    env = EnvironmentSpec.position(1.0)
    ns = NoiseStream(11)
    for _ in range(500):
        psi = step_trajectory(psi, env, params, 0.002, ns.next_increment(0.002))
    m = wavefunction_moments(psi)
    assert m.var_x == pytest.approx(sq2, rel=1e-4)
    assert m.cov_xp == pytest.approx(0.5, abs=1e-4)
    assert m.var_p == pytest.approx(1.0 / (2 * sq2), rel=1e-4)


def test_localization_from_broad_start():
    # a 20 sigma_q packet collapses onto the steady widths; the variance flow
    # under a quadratic Hamiltonian is deterministic, so one trajectory serves
    params = PhysicalParams(D=1.0, sigma=20 * (1.0 / 8.0) ** 0.25)
    sq2 = params.sigma_q**2
    grid = SpatialGrid(-80, 80, 1024)
    psi = gaussian_packet(params, grid, center=0.0, mean_p=0.0)
    env = EnvironmentSpec.position(1.0)
    ns = NoiseStream(3)
    crossing = None
    for k in range(1000):
        psi = step_trajectory(psi, env, params, 0.005, ns.next_increment(0.005))
        if crossing is None and wavefunction_moments(psi).var_x < 2 * sq2:
            crossing = (k + 1) * 0.005
    m = wavefunction_moments(psi)
    assert m.var_x == pytest.approx(sq2, rel=0.03)
    assert m.cov_xp == pytest.approx(0.5, rel=0.03)
    # the 2 sigma_q^2 crossing happens earlier than t_loc itself: the variance
    # Riccati flow collapses broad packets on the decoherence timescale, and
    # settling into the steady packet takes until ~ t_loc (band check only)
    assert crossing is not None
    assert 0.1 * 1.0 <= crossing <= 3.0 * 1.0 or crossing < 0.1


def test_uncertainty_product_bound():
    params = PhysicalParams(D=0.5, sigma=3.0)
    grid = SpatialGrid(-48, 48, 512)
    psi = gaussian_packet(params, grid, center=0.0, mean_p=0.0)
    env = EnvironmentSpec.position(0.5)
    ns = NoiseStream(21)
    for _ in range(300):
        psi = step_trajectory(psi, env, params, 0.004, ns.next_increment(0.004))
        m = wavefunction_moments(psi)
        assert m.var_x * m.var_p - m.cov_xp**2 >= 0.25 * (1 - 1e-6)


def test_moment_step_static_steady_state():
    params = PhysicalParams(D=1.0)
    env = EnvironmentSpec.position(1.0)
    mom = steady_moments(params)
    ns = NoiseStream(5)
    for _ in range(100):
        mom = moment_step(mom, params, env, 0.002, ns.next_increment(0.002))
    assert mom.var_x == pytest.approx(params.sigma_q**2, rel=1e-9)
    assert mom.cov_xp == pytest.approx(0.5, rel=1e-9)
    assert mom.var_p == pytest.approx(1.0 / (2 * params.sigma_q**2), rel=1e-9)


def test_moment_vs_wavefunction_strong_convergence():
    # identical Brownian path at dt and dt/2: the disagreement between the
    # moment integrator and the wavefunction integrator halves with dt
    params = PhysicalParams(D=1.0)
    env = EnvironmentSpec.position(1.0)
    grid = SpatialGrid(-24, 24, 256)
    sq2 = params.sigma_q**2
    vx0, c0 = 1.5 * sq2, 0.2
    vp0 = (0.25 + c0**2) / vx0

    def mismatch(dt, dBs):
        mom = TrajectoryMoments(0.0, 0.3, 0.4, vx0, vp0, c0)
        psi = gaussian_state_from_moments(grid, 0.3, 0.4, vx0, c0)
        for dB in dBs:
            mom = moment_step(mom, params, env, dt, dB)
            psi = step_trajectory(psi, env, params, dt, dB)
        wm = wavefunction_moments(psi)
        return abs(wm.mean_x - mom.mean_x) + abs(wm.mean_p - mom.mean_p)

    ratios = []
    for seed in (1, 2, 3):
        ns = NoiseStream(seed)
        fine = [ns.next_increment(0.005) for _ in range(100)]
        coarse = [fine[2 * i] + fine[2 * i + 1] for i in range(50)]
        ratios.append(mismatch(0.01, coarse) / mismatch(0.005, fine))
    assert 1.5 < float(np.mean(ratios)) < 2.6
    assert all(1.2 < r < 3.2 for r in ratios)


def test_momentum_coupling_no_fluctuation_growth():
    params = PhysicalParams(D_p=1.0, sigma=1.0)
    env = EnvironmentSpec.momentum(1.0)
    mom0 = TrajectoryMoments(0.0, 0.0, 1.0, 1.0, 0.25, 0.0)

    records = run_moment_ensemble(mom0, env, params, 0.002, 1000, range(900, 1156), 10)
    rep = fluctuation_report(records, fit_window=(0.2, 2.0))
    assert abs(rep.fitted_rate) * 1.0 < 0.02  # |rate| * t_z < 0.02 p_bar^2


def test_position_coupling_fluctuation_growth_2D():
    params = PhysicalParams(D=1.0)
    env = EnvironmentSpec.position(1.0)
    mom0 = steady_moments(params)

    records = run_moment_ensemble(mom0, env, params, 0.005, 1000, range(500, 628), 20)
    rep = fluctuation_report(records, fit_window=(1.0, 5.0))
    assert rep.fitted_rate == pytest.approx(2.0, rel=0.25)  # 128-seed fit


def test_moment_trajectory_rejects_zero_record_interval():
    params = PhysicalParams(D=1.0)
    with pytest.raises(ValueError, match="record_every must be >= 1"):
        run_moment_ensemble(steady_moments(params), EnvironmentSpec.position(1.0), params,
                            0.005, 10, [1], record_every=0)


def test_fluctuation_report_reads_records_and_series_alike():
    params = PhysicalParams(D=1.0)
    env = EnvironmentSpec.position(1.0)
    mom0 = steady_moments(params)
    # the ensemble's records and each seed's own one-seed series, stacked
    records = run_moment_ensemble(mom0, env, params, 0.005, 200, range(64), 20)
    series = np.concatenate([run_moment_ensemble(mom0, env, params, 0.005, 200, [seed], 20)
                             for seed in range(64)])
    assert np.array_equal(_bits(records), _bits(series))
    a, b = fluctuation_report(records, (0.2, 1.0)), fluctuation_report(series, (0.2, 1.0))
    assert a.fitted_rate == b.fitted_rate and np.array_equal(a.total, b.total)
    with pytest.raises(ValueError, match="at least 64 seeds"):
        fluctuation_report(records[:63], (0.2, 1.0))
    with pytest.raises(ValueError, match=r"fit window \[2, 3\]"):
        fluctuation_report(records, (2.0, 3.0))


def test_moment_closure_breakdown_names_seed_and_step():
    # Var p = 2500 and dt = 0.005: the explicit step overshoots past zero at once
    params = PhysicalParams(D_p=1.0, sigma=0.01)
    mom0 = TrajectoryMoments(0.0, 0.0, 1.0, 1e-4, 2500.0, 0.0)
    env = EnvironmentSpec.momentum(1.0)
    with pytest.raises(ClosureError, match="closure inconsistency"):
        moment_step(mom0, params, env, 0.005, 0.0)
    with pytest.raises(ClosureError, match=r"for seed 41 at step 1$"):
        run_moment_ensemble(mom0, env, params, 0.005, 10, [41, 42])


@pytest.mark.parametrize("coupling, start, dt, bound", [
    # 1 / (8 D_p Var p) with Var p = 2500
    ("p", TrajectoryMoments(0.0, 0.0, 1.0, 1e-4, 2500.0, 0.0), 0.005, 5e-5),
    # hbar^2 / (8 D Var x) with Var x = 10
    ("x", TrajectoryMoments(0.0, 0.0, 1.0, 10.0, 1.0, 0.0), 0.02, 0.0125),
], ids=["p", "x"])
def test_closure_breakdown_carries_the_euler_bound(coupling, start, dt, bound):
    params = PhysicalParams(D=1.0, D_p=1.0)
    env = (EnvironmentSpec.momentum(1.0) if coupling == "p"
           else EnvironmentSpec.position(1.0))
    with pytest.raises(ClosureError) as info:
        run_moment_ensemble(start, env, params, dt, 10, [5])
    assert info.value.dt_max == pytest.approx(bound, rel=1e-15)
    assert str(info.value).endswith("for seed 5 at step 1")


def test_zero_coupling_constant_fluctuation():
    params = PhysicalParams()
    env = EnvironmentSpec.position(0.0)
    mom0 = TrajectoryMoments(0.0, 0.0, 1.0, 1.0, 0.25, 0.0)
    records = run_moment_ensemble(mom0, env, params, 0.002, 500, range(64))
    rep = fluctuation_report(records, fit_window=(0.0, 1.0))
    assert np.max(np.abs(rep.total - rep.total[0])) < 1e-8


def test_ensemble_momentum_spread_matches_lindblad_law():
    # (Delta p)^2 of the ensemble density grows as initial width + 2 D t;
    # pinned seeds, deviation asserted against the 3-sigma Monte-Carlo bar
    params = PhysicalParams(D=1.0)
    sq = params.sigma_q
    par_b = params.replace(sigma=6 * sq)
    grid = SpatialGrid(-48, 48, 512)
    psi0 = gaussian_packet(par_b, grid, center=0.0, mean_p=0.0)
    env = EnvironmentSpec.position(1.0)
    dt, t_final = 0.004, 3.0
    n_steps = int(t_final / dt)

    records = run_wavefunction_ensemble(psi0, env, par_b, dt, n_steps, range(400, 464),
                                        record_every=n_steps)
    # total Var p of the mixture: mean of <p^2> over seeds minus the squared mean <p>
    mean_p, var_p = records[:, -1, 2], records[:, -1, 4]
    var_tot = np.mean(var_p + mean_p**2) - np.mean(mean_p) ** 2
    expect = wavefunction_moments(psi0).var_p + 2.0 * 1.0 * t_final
    three_sigma = 3.0 * math.sqrt(2.0 / 63.0) * 2.0 * t_final
    assert abs(var_tot - expect) < max(0.10 * expect, three_sigma)
    # late-time mixture rho = sum |psi><psi| / n is near-diagonal: little |rho| mass
    # beyond 4 sigma_q
    _, amps = _final_states(psi0, env, par_b, dt, n_steps, range(400, 464), n_steps)
    rho = np.abs(amps.T @ amps.conj()) / len(amps)
    far = np.abs(grid.x[:, None] - grid.x[None, :]) > 4 * sq
    assert rho[far].sum() / rho.sum() < 0.10


def test_moment_closure_rejects_negative_variance():
    with pytest.raises(ValueError):
        TrajectoryMoments(0.0, 0.0, 0.0, -1.0, 0.25, 0.0)


def test_momentum_coupling_wavefunction_localizes_in_p():
    # momentum coupling shrinks the quantum momentum variance along each
    # trajectory while the state stays normalized
    params = PhysicalParams(D_p=1.0, sigma=1.0)
    env = EnvironmentSpec.momentum(1.0)
    grid = SpatialGrid(-48, 48, 512)
    psi = gaussian_packet(params, grid, center=0.0)
    ns = NoiseStream(13)
    vp0 = wavefunction_moments(psi).var_p
    for _ in range(400):
        psi = step_trajectory(psi, env, params, 0.002, ns.next_increment(0.002))
    m = wavefunction_moments(psi)
    assert psi.norm_squared() == pytest.approx(1.0, abs=1e-12)
    # continuum law: dVar(p) = -8 D_p Var(p)^2 dt
    expected = 1.0 / (1.0 / vp0 + 8.0 * 1.0 * 0.8)
    assert m.var_p == pytest.approx(expected, rel=0.05)


@pytest.mark.parametrize("env, params, width", [
    (EnvironmentSpec.position(1.0), PhysicalParams(D=1.0, sigma=1.0), 16),
    (EnvironmentSpec.momentum(1.0), PhysicalParams(D_p=1.0, sigma=1.0), 24),
])
def test_fused_trajectory_matches_stepwise_records(env, params, width):
    grid = SpatialGrid(-width, width, 256)
    psi0 = gaussian_packet(params, grid, center=0.0)
    n_steps = 200
    (every,), (psi_every,) = _final_states(psi0, env, params, 0.002, n_steps, [9], 1)
    (ends,), (psi_ends,) = _final_states(psi0, env, params, 0.002, n_steps, [9], n_steps)
    assert len(every) == n_steps + 1 and len(ends) == 2
    assert np.max(np.abs(psi_every - psi_ends)) < 1e-10
    assert WaveFunction(grid, psi_ends).norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_threaded_wavefunction_ensemble_is_identical():
    # trajectories share the grid's cached read-only phases across threads;
    # an unusual grid makes the caches fill while the threads contend
    params = PhysicalParams(D=1.0)
    grid = SpatialGrid(-16.25, 16.25, 256)
    psi0 = gaussian_state_from_moments(grid, 0.0, 0.0, params.sigma_q**2, 0.5 * params.hbar,
                                       params.hbar)
    env = EnvironmentSpec.position(1.0)

    def task(seed):
        return _final_states(psi0, env, params, 0.002, 60, [seed], 7)[1][0]

    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(task, range(8)))
    finally:
        sys.setswitchinterval(interval)
    serial = [task(seed) for seed in range(8)]
    assert all(np.array_equal(a, b) for a, b in zip(threaded, serial))


def _bits(series):
    # a driver's records, or a list of TrajectoryMoments
    rows = series if isinstance(series, np.ndarray) else [astuple(m) for m in series]
    return np.array(rows).view(np.uint64)


def _final_states(psi0, env, params, dt, n_steps, seeds, record_every):
    """(records, final amplitudes) of one block stepping seeds, as the driver steps
    them; the driver itself keeps no final state."""
    records = np.empty((len(seeds), 1 + math.ceil(n_steps / record_every), 6))
    final = qsd._step_block(psi0.normalized(), env, params, dt, n_steps, record_every,
                            list(seeds), records)
    return records, final


def _coupled(coupling):
    if coupling == "x":
        return PhysicalParams(D=1.0, sigma=1.0), EnvironmentSpec.position(1.0)
    return PhysicalParams(D_p=1.0, sigma=1.0), EnvironmentSpec.momentum(1.0)


# spec: an environment of another strength than the coupling's default 1, or None
@pytest.mark.parametrize("coupling, spec, n_steps, record_every, block_rows", [
    ("x", EnvironmentSpec.position(0.5), 90, 10, 64),     # noise in x
    ("p", EnvironmentSpec.momentum(2.0), 90, 10, 64),     # noise in p
    ("p", None, 90, 10, 64),                              # noise in p, no x_middle
    ("x", None, 95, 7, 64),                               # record_every does not divide n_steps
    ("x", None, 30, 4, 3),                                # more seeds than one block holds
    # blocks of 2 and 5 rows: a BLAS product (w @ a) gives a row of such a block
    # other bits than the row alone, a row sum does not
    ("x", None, 30, 4, 2),
    ("x", EnvironmentSpec.position(2.0), 30, 4, 5),
    ("p", None, 30, 4, 5),
])
def test_ensemble_rows_equal_single_seed_runs(monkeypatch, coupling, spec, n_steps,
                                              record_every, block_rows):
    monkeypatch.setattr(qsd, "_BLOCK_ROWS", block_rows)
    params, env = _coupled(coupling)
    env = spec or env
    psi0 = gaussian_packet(params, SpatialGrid(-16, 16, 256), center=-3.0, mean_p=1.0)
    seeds = list(range(30, 38))
    runs = run_wavefunction_ensemble(psi0, env, params, 0.002, n_steps, seeds, record_every)
    assert len(runs) == len(seeds)
    for seed, series in zip(seeds, runs):
        (alone,) = run_wavefunction_ensemble(psi0, env, params, 0.002, n_steps, [seed],
                                             record_every)
        assert len(series) == 1 + math.ceil(n_steps / record_every)
        assert np.array_equal(_bits(series), _bits(alone))


@pytest.mark.parametrize("coupling", ["x", "p"])
def test_ensemble_rows_equal_stepwise_reference(coupling):
    # unfused reference: one step_trajectory per increment of the seed's stream, each
    # state re-centred as the driver re-centres its rows after every record
    params, env = _coupled(coupling)
    psi0 = gaussian_packet(params, SpatialGrid(-16, 16, 256), center=-3.0, mean_p=1.0)
    n_steps, dt, seeds = 40, 0.002, [3, 8]
    runs = run_wavefunction_ensemble(psi0, env, params, dt, n_steps, seeds)
    for seed, series in zip(seeds, runs):
        (final,) = _final_states(psi0, env, params, dt, n_steps, [seed], 1)[1]
        psi, offset, ref = psi0.normalized(), 0, []
        increments = NoiseStream(seed).increments(0, n_steps, dt).tolist()
        for k, dB in enumerate([None, *increments]):
            if k:
                psi = step_trajectory(psi, env, params, dt, dB)
            moments = wavefunction_moments(psi)
            values, shift = qsd._recentre(psi.values, moments.mean_x, psi.grid)
            ref.append(replace(moments, time=k * dt,
                               mean_x=moments.mean_x + offset * psi.grid.dx))
            psi, offset = replace(psi, values=values), offset + int(shift)
        assert offset != 0  # the packet moved by whole cells
        assert np.array_equal(_bits(series), _bits(ref))
        assert np.array_equal(final.view(np.uint64), psi.values.view(np.uint64))



@pytest.mark.parametrize("coupling", ["x", "p"])
def test_forked_slices_return_the_one_process_records_and_states(monkeypatch, coupling):
    # 7 seeds in slices of 2, 2 and 3 rows, the last stepped as blocks of 2 and 1;
    # 4 CPUs reported, so the split forks on any machine.  The ensemble keeps no final
    # state: each seed's records, up to the final state's, equal its one-seed run
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.setattr(qsd, "_BLOCK_ROWS", 2)
    params, env = _coupled(coupling)
    psi0 = gaussian_packet(params, SpatialGrid(-16, 16, 256), center=-3.0, mean_p=1.0)
    one = run_wavefunction_ensemble(psi0, env, params, 0.002, 30, range(7), 4)
    split = run_wavefunction_ensemble(psi0, env, params, 0.002, 30, range(7), 4, workers=3)
    assert np.array_equal(_bits(split), _bits(one))
    for seed, series in enumerate(split):
        (alone,) = run_wavefunction_ensemble(psi0, env, params, 0.002, 30, [seed], 4)
        assert np.array_equal(_bits(series), _bits(alone))


def test_interrupted_split_reaps_every_child(monkeypatch):
    # an interrupt in the calling process's slice propagates once each child is reaped
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    parent, increments = os.getpid(), qsd._block_increments

    def interrupted(block, n_steps, dt):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return increments(block, n_steps, dt)

    monkeypatch.setattr(qsd, "_block_increments", interrupted)
    params, env = _coupled("x")
    psi0 = gaussian_packet(params, SpatialGrid(-16, 16, 256), center=-3.0, mean_p=1.0)
    with pytest.raises(KeyboardInterrupt):
        run_wavefunction_ensemble(psi0, env, params, 0.002, 30, range(4), 4, workers=4)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

def test_ensemble_argument_and_state_errors():
    params, env = _coupled("x")
    grid = SpatialGrid(-16, 16, 256)
    psi0 = gaussian_packet(params, grid, center=0.0)
    with pytest.raises(ValueError, match="at least one seed"):
        run_wavefunction_ensemble(psi0, env, params, 0.002, 10, [])
    with pytest.raises(ValueError, match="record_every"):
        run_wavefunction_ensemble(psi0, env, params, 0.002, 10, [1], record_every=0)
    values = psi0.values.copy()
    values[5] = np.nan
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericalError, match=r"seed 12 at step 1$"):
        run_wavefunction_ensemble(WaveFunction(grid, values), env, params, 0.002,
                                  10, [12, 13])


def _moment_start(coupling):
    params, env = _coupled(coupling)
    if coupling == "x":
        return params, env, replace(steady_moments(params), mean_x=-1.0, mean_p=1.0)
    return params, env, TrajectoryMoments(0.0, -1.0, 1.0, 1.0, 0.25, 0.0)


@pytest.mark.parametrize("coupling", ["x", "p"])
def test_moment_ensemble_rows_equal_single_seed_runs(monkeypatch, coupling):
    # 70 seeds: a 64-row block, then a 6-row one
    monkeypatch.setattr(qsd, "_INCREMENT_BUDGET", 64 * (3 * 300 + 2))
    params, env, mom0 = _moment_start(coupling)
    seeds = range(200, 270)
    records = run_moment_ensemble(mom0, env, params, 0.005, 300, seeds, 7)
    assert records.shape == (70, 1 + math.ceil(300 / 7), 6)
    for seed, rows in zip(seeds, records):
        (alone,) = run_moment_ensemble(mom0, env, params, 0.005, 300, [seed], 7)
        assert np.array_equal(_bits(rows), _bits(alone))


@pytest.mark.parametrize("coupling", ["x", "p"])
@pytest.mark.parametrize("block_rows, blocks", [(70, [70]), (35, [35, 35]),
                                                (24, [24, 24, 22]),
                                                (20, [20, 20, 20, 10]),
                                                (19, [19, 19, 19, 13])])
def test_moment_ensemble_splits_into_blocks_by_the_increment_budget(monkeypatch, coupling,
                                                                    block_rows, blocks):
    # the budget fixes the block sizes, one core call a block, and one second-moment
    # recursion serves every block; each row still equals its seed's run alone
    shapes, core, recursions, recursion = [], qsd._moment_records, [], qsd._second_moments

    def core_spy(mom, second, gains, m, dt, dBs, record_every):
        shapes.append(dBs.shape)
        return core(mom, second, gains, m, dt, dBs, record_every)

    def recursion_spy(mom, params, env, dt, n_steps):
        recursions.append(n_steps)
        return recursion(mom, params, env, dt, n_steps)

    monkeypatch.setattr(qsd, "_moment_records", core_spy)
    monkeypatch.setattr(qsd, "_second_moments", recursion_spy)
    monkeypatch.setattr(qsd, "_INCREMENT_BUDGET", block_rows * (3 * 300 + 2))
    params, env, mom0 = _moment_start(coupling)
    seeds = range(200, 270)
    records = run_moment_ensemble(mom0, env, params, 0.005, 300, seeds, 7)
    assert shapes == [(rows, 300) for rows in blocks]
    assert recursions == [300]
    for seed, rows in zip(seeds, records):
        (alone,) = run_moment_ensemble(mom0, env, params, 0.005, 300, [seed], 7)
        assert np.array_equal(_bits(rows), _bits(alone))


@pytest.mark.parametrize("n_steps, rows", [(1, 12_800_000), (1000, 21_319), (10**6, 21)])
def test_moment_block_increments_stay_within_the_budget(n_steps, rows):
    # a block holds (rows, n_steps) increments and (rows, n_steps + 1) <x> and <p>:
    # at most 64e6 values, 512 MB of float64
    assert qsd._moment_block_rows(n_steps) == rows
    assert rows * (3 * n_steps + 2) <= 64 * 10**6 < (rows + 1) * (3 * n_steps + 2)


def _euler_oracle(start, params, env, dt, dBs, record_every):
    """The moment system without a potential, stepped one increment at a time on
    Python floats: the records the whole-array driver must match bit for bit."""
    m, hbar, D = params.m, params.hbar, env.strength
    in_x = env.kind != "momentum_coupling"
    root = math.sqrt(8.0 * D) / hbar if in_x else math.sqrt(8.0 * D)
    t, mx, mp, vx, vp, c = state = astuple(start)
    records = [state]
    for step, dB in enumerate(dBs, 1):
        if in_x:
            d_mx = mp / m * dt + root * vx * dB
            d_mp = root * c * dB
            d_vx = (2.0 * c / m - 8.0 * D * (vx * vx) / hbar**2) * dt
            d_vp = (2.0 * D * (1.0 - 4.0 * (c * c) / hbar**2)) * dt
            d_c = (vp / m - 8.0 * D * vx * c / hbar**2) * dt
        else:
            d_mx = mp / m * dt + root * c * dB
            d_mp = root * vp * dB
            d_vx = d_c = 0.0
            d_vp = (-8.0 * D * (vp * vp)) * dt
        t, mx, mp, vx, vp, c = state = (t + dt, mx + d_mx, mp + d_mp, vx + d_vx, vp + d_vp,
                                        c + d_c)
        if step % record_every == 0 or step == len(dBs):
            records.append(state)
    return records


@pytest.mark.parametrize("coupling", ["x", "p"])
@pytest.mark.parametrize("n_seeds", [1, 7, 70])
@pytest.mark.parametrize("record_every", [1, 7])
def test_moment_records_equal_the_float_euler_loop(coupling, n_seeds, record_every):
    # m and hbar away from 1, and a nonzero Cov under momentum coupling, so that a
    # reordered product or sum shows in the bits
    params = PhysicalParams(D=1.0, D_p=1.0, sigma=1.0, m=3.0, hbar=0.7)
    if coupling == "x":
        env, mom0 = EnvironmentSpec.position(1.0), replace(steady_moments(params), mean_x=-1.0)
    else:
        env, mom0 = EnvironmentSpec.momentum(1.0), TrajectoryMoments(0.0, -1.0, 1.0, 1.0, 0.3, 0.2)
    seeds, n_steps, dt = range(400, 400 + n_seeds), 300, 0.005
    records = run_moment_ensemble(mom0, env, params, dt, n_steps, seeds, record_every)
    for seed, rows in zip(seeds, records):
        dBs = NoiseStream(seed).increments(0, n_steps, dt).tolist()
        oracle = _euler_oracle(mom0, params, env, dt, dBs, record_every)
        assert np.array_equal(_bits(rows), np.array(oracle).view(np.uint64))


def test_a_mean_that_overflows_names_its_seed_and_step():
    # <x> + <p>/m dt passes the float maximum within a few dozen steps; the variances
    # stay the steady ones, so this is no closure failure
    params = PhysicalParams(D=1.0)
    mom0 = replace(steady_moments(params), mean_x=1.7e308, mean_p=1e308)
    env, dt, seeds = EnvironmentSpec.position(1.0), 0.005, [3, 4]
    oracle = _euler_oracle(mom0, params, env, dt,
                           NoiseStream(3).increments(0, 100, dt).tolist(), 1)
    step = next(k for k, row in enumerate(oracle) if not np.isfinite(row[1:3]).all())
    with pytest.raises(NumericalError, match=rf"not finite for seed 3 at step {step}$") as info:
        run_moment_ensemble(mom0, env, params, dt, 100, seeds)
    assert not isinstance(info.value, ClosureError)


def test_moment_block_breakdown_carries_the_failing_row():
    # every row of the block breaks at step 1; the error names the first seed
    params = PhysicalParams(D_p=1.0)
    start = TrajectoryMoments(0.0, 0.0, 1.0, 1e-4, 2500.0, 0.0)
    with pytest.raises(ClosureError, match=r"for seed 5 at step 1$") as info:
        run_moment_ensemble(start, EnvironmentSpec.momentum(1.0), params, 0.005, 10,
                            [5, 6, 7])
    assert info.value.dt_max == pytest.approx(5e-5, rel=1e-15)


def test_wavefunction_driver_rejects_mass_at_the_periodic_edge():
    # an uncoupled packet, sd sqrt(0.25 + t^2), spreads into the outer 1/16 of its
    # frame (|x - <x>| > 7) at t = 1.5; past the edge it would wrap around silently.
    # Its motion does not count: the frame follows it
    params = PhysicalParams(sigma=0.5)
    grid = SpatialGrid(-8, 8, 128)
    psi0 = gaussian_packet(params, grid, center=0.0, mean_p=4.0)
    env = EnvironmentSpec.position(0.0)
    run_wavefunction_ensemble(psi0, env, params, 0.002, 700, [5], record_every=50)
    with pytest.raises(GridTooNarrowError, match=r"^seed 5 holds probability .* at t = 1\.5$"):
        run_wavefunction_ensemble(psi0, env, params, 0.002, 1000, [5], record_every=50)


def test_recentre_rolls_whole_cells_and_leaves_a_nonfinite_row():
    # dx = 0.125 and the centre cell at x = 0: <x> = 1 is 8 cells right, -0.3 is
    # 2.4 cells left; a nan mean shifts by 0, with no warning from casting nan
    grid = SpatialGrid(-8, 8, 128)
    vals = np.arange(3 * 128, dtype=complex).reshape(3, 128)
    rolled, shift = qsd._recentre(vals, np.array([1.0, -0.3, np.nan]), grid)
    assert shift.tolist() == [8, -2, 0]
    for row, cells, out in zip(vals, shift.tolist(), rolled):
        assert np.array_equal(out, np.roll(row, -cells))


def test_a_packet_that_only_moves_stays_on_its_grid():
    # a packet of sd sqrt(1 + t^2 / 4) moving right at p = 8 reached the outer 1/16 of
    # a fixed grid (x > 7) at t = 0.4; in a frame that follows it, it ends at <x> = 8,
    # the grid's edge, with its moments those of the free packet
    params = PhysicalParams(sigma=1.0)
    grid = SpatialGrid(-8, 8, 128)
    psi0 = gaussian_packet(params, grid, center=0.0, mean_p=8.0)
    ((records,), (final,)) = _final_states(psi0, EnvironmentSpec.position(0.0), params,
                                           0.002, 500, [5], 50)
    t, mean_x, mean_p, var_x = records[:, 0], records[:, 1], records[:, 2], records[:, 3]
    assert np.max(np.abs(mean_x - 8.0 * t)) < 1e-8 and np.max(np.abs(mean_p - 8.0)) < 1e-12
    assert np.max(np.abs(var_x - (1.0 + t**2 / 4.0))) < 1e-8
    assert abs(WaveFunction(grid, final).moments()[0]) <= grid.dx / 2


# -- element-wise kernels of the wavefunction step against their direct forms ------


def _noise_factor_oracle(amps, a, c, dt, weight, dB):
    # direct form: |psi|^2 through np.abs twice, a complex factor, a complex division
    w = np.abs(amps) ** 2
    A = a - (a * w).sum(axis=-1, keepdims=True) / w.sum(axis=-1, keepdims=True)
    out = amps * np.exp(-2.0 * c * A**2 * dt + math.sqrt(2.0 * c) * A * dB)
    return out / np.sqrt((np.abs(out) ** 2).sum(axis=-1, keepdims=True) * weight)


def _position_moments_oracle(values, grid, hbar):
    # direct form: p psi = -i hbar d/dx psi as a complex array, two complex cross terms
    x, dx = grid.x, grid.dx
    rho = np.abs(values) ** 2
    norm = np.sum(rho, axis=-1) * dx
    mean_x = np.sum(x * rho, axis=-1) * dx / norm
    dev = x - mean_x[..., None]
    var_x = np.sum(dev**2 * rho, axis=-1) * dx / norm
    p_psi = -1j * hbar * np.fft.ifft(1j * grid.wavenumbers * np.fft.fft(values))
    mean_p = np.real(np.sum(np.conj(values) * p_psi, axis=-1)) * dx / norm
    var_p = np.sum(np.abs(p_psi) ** 2, axis=-1) * dx / norm - mean_p**2
    cov_xp = np.real(np.sum(np.conj(values) * dev * p_psi, axis=-1)) * dx / norm
    return np.stack([mean_x, mean_p, var_x, var_p, cov_xp], axis=-1)


@st.composite
def _packet_rows(draw):
    # (grid, (rows, N) amplitudes): a Gaussian packet per row, unnormalized
    width = draw(st.floats(12.0, 24.0))
    grid = SpatialGrid(-width, width, draw(st.sampled_from([128, 256])))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        center = draw(st.floats(-width / 4, width / 4))
        sigma = draw(st.floats(0.5, width / 8))
        p, scale = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.1, 10.0))
        rows.append(scale * np.exp(-((grid.x - center) ** 2) / (4 * sigma**2)
                                   + 1j * p * grid.x))
    return grid, np.array(rows)


def _bitwise_equal(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


@settings(max_examples=30, deadline=None)
@given(packets=_packet_rows(), coupling=st.sampled_from(["x", "p"]),
       strength=st.floats(0.1, 4.0), dt=st.floats(1e-4, 2e-3), data=st.data())
def test_noise_factor_matches_its_direct_form_row_by_row(packets, coupling, strength, dt,
                                                         data):
    grid, values = packets
    dB = np.array([[data.draw(st.floats(-10.0, 10.0)) * math.sqrt(dt)] for _ in values])
    if coupling == "x":
        params, env = PhysicalParams(D=strength), EnvironmentSpec.position(strength)
        a, weight = grid.x, grid.dx
    else:  # the factor acts on the FFT-ordered momentum amplitudes
        params, env = PhysicalParams(D_p=strength), EnvironmentSpec.momentum(strength)
        a, weight, values = grid.wavenumbers, grid.dx / grid.n_points, np.fft.fft(values)

    def factor(amps, draw):
        stepper = qsd._trajectory_stepper(grid, env, params, dt, draw)
        out = amps.copy()
        (stepper.x_middle if coupling == "x" else stepper.p_middle)(out)
        return out

    block = factor(values, lambda: dB)
    oracle = _noise_factor_oracle(values, a, strength, dt, weight, dB)
    assert np.max(np.abs(block - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    for row, dB_row, out in zip(values, dB[:, 0].tolist(), block):
        assert _bitwise_equal(factor(row, lambda: dB_row), out)


@settings(max_examples=30, deadline=None)
@given(packets=_packet_rows(), hbar=st.sampled_from([1.0, 0.5, 3.0]))
def test_position_moments_match_their_direct_form_row_by_row(packets, hbar):
    grid, values = packets
    moments = position_moments(values, grid, hbar)
    oracle = _position_moments_oracle(values, grid, hbar)
    assert np.max(np.abs(moments - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    for row, out in zip(values, moments):
        assert _bitwise_equal(position_moments(row, grid, hbar), out)


def test_noise_factor_names_the_row_whose_norm_underflows():
    # row 1 holds two narrow packets at x = -+8, where exp(-2c dt A^2) = e^-6400:
    # every |psi|^2 f^2 underflows to 0, so the norm would divide 0 by 0
    params, env, dt = PhysicalParams(D=1e6), EnvironmentSpec.position(1e6), 5e-5
    grid = SpatialGrid(-16, 16, 256)
    x = grid.x
    split = np.exp(-((x - 8) ** 2) / 0.04) + np.exp(-((x + 8) ** 2) / 0.04)
    values = np.array([np.exp(-(x**2) / 4), split], dtype=complex)
    for rows in (1, 2):
        stepper = qsd._trajectory_stepper(grid, env, params, dt,
                                          lambda: np.zeros((rows, 1)))
        block = values[:rows].copy()
        if rows == 1:  # the packet alone passes
            stepper.x_middle(block)
            assert np.isfinite(block).all()
            continue
        with pytest.raises(NumericalError, match="zero, subnormal or non-finite") as info:
            stepper.x_middle(block)
        assert info.value.row == 1
