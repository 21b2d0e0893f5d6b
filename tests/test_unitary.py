"""Grid propagation: conservation laws, scattering bookkeeping, Born oracle."""

import math

import numpy as np
import pytest

from qreflect import (ConfigError, NumericalError, PhysicalParams, PotentialSpec, SpatialGrid,
                      WaveFunction, born_reflection, gaussian_packet, potential_position,
                      propagate, reflection_probability, to_momentum)

FREE = PotentialSpec.gaussian(0.0, 0.1)


def _mean_energy_oracle(psi, spec, params):
    """<H> = kinetic (spectral) + potential (real part) expectation."""
    grid = psi.grid
    tilde = np.fft.fft(psi.values)
    kin = float(np.sum((params.hbar * grid.wavenumbers) ** 2 / (2.0 * params.m)
                       * np.abs(tilde) ** 2)) * (grid.dx / grid.n_points)
    v = np.real(potential_position(spec, grid.x, params.hbar))
    pot = float(np.sum(v * psi.density()) * grid.dx)
    return kin + pot


def test_free_packet_drift_and_spreading():
    params = PhysicalParams(sigma=2.0, x_bar=0.0)
    grid = SpatialGrid(-60, 100, 1024)
    psi0 = gaussian_packet(params, grid, center=0.0)
    series = propagate(psi0, FREE, params, dt=0.008, n_steps=3750,
                       snapshot_times=[10.0, 30.0], absorber=False, check_start=False)
    for t, psi in zip(series.times, series.states):
        mx, _, vx, _, _ = psi.moments()
        assert mx == pytest.approx(t, abs=1e-6)
        assert vx == pytest.approx(4.0 + (t / 4.0) ** 2, rel=1e-6)
    assert max(abs(pl.norm - 1.0) for pl in series.probabilities) < 1e-10


def test_norm_conservation_real_barrier():
    params = PhysicalParams(sigma=3.0)
    grid = SpatialGrid(-60, 60, 512)
    psi0 = gaussian_packet(params, grid, center=-25.0)
    spec = PotentialSpec.gaussian(0.3, 0.5)
    series = propagate(psi0, spec, params, dt=0.01, n_steps=1000, absorber=False)
    assert abs(series.probabilities[-1].norm - 1.0) < 1e-10


def test_cfl_and_premature_start_errors():
    params = PhysicalParams(sigma=2.0)
    grid = SpatialGrid(-40, 40, 1024)
    psi0 = gaussian_packet(params, grid, center=-20.0)
    spec = PotentialSpec.gaussian(0.3, 0.5)
    with pytest.raises(ConfigError, match=r"exceeds 0\.1\*min\(t_E, hbar/max\|V\|, cfl\)"):
        propagate(psi0, spec, params, dt=0.5, n_steps=10)
    close = gaussian_packet(params, grid, center=-3.0)
    with pytest.raises(ConfigError, match="initial overlap with the barrier region"):
        propagate(close, spec, params, dt=0.002, n_steps=10)


def test_boundary_leakage_detection():
    params = PhysicalParams(sigma=2.0)
    grid = SpatialGrid(-30, 30, 512)
    psi0 = gaussian_packet(params, grid, center=-15.0)
    # long free flight straight into the absorbing edge
    with pytest.raises(NumericalError, match="edge absorbers removed"):
        propagate(psi0, FREE, params, dt=0.008, n_steps=5000, check_start=False)


def test_two_momentum_peaks_after_barrier():
    # energy slightly above the barrier top: transmitted and reflected packets
    # appear as two clear momentum peaks near +-p_bar
    params = PhysicalParams(sigma=5.0)
    peak_height = 0.45
    spec = PotentialSpec.gaussian(peak_height * math.sqrt(2 * math.pi) * 1.0, 1.0)
    grid = SpatialGrid(-120, 120, 2048)
    psi0 = gaussian_packet(params, grid, center=-40.0)
    series = propagate(psi0, spec, params, dt=0.008, n_steps=5500, absorber=False)
    tilde = to_momentum(series.states[-1])
    w = tilde.density()
    p = tilde.grid.x
    p_neg = p[np.argmax(np.where(p < -0.2, w, 0.0))]
    p_pos = p[np.argmax(np.where(p > 0.2, w, 0.0))]
    assert abs(p_neg + 1.0) < 0.15
    assert abs(p_pos - 1.0) < 0.15
    refl, trans, _ = reflection_probability(series, force=True)
    assert 0.02 < refl < 0.7 and trans > 0.3


def test_energy_conservation_and_time_reversal():
    params = PhysicalParams(sigma=5.0)
    spec = PotentialSpec.gaussian(0.45 * math.sqrt(2 * math.pi), 1.0)
    grid = SpatialGrid(-120, 120, 2048)
    psi0 = gaussian_packet(params, grid, center=-40.0)
    e0 = _mean_energy_oracle(psi0, spec, params)
    series = propagate(psi0, spec, params, dt=0.002, n_steps=22000, absorber=False)
    psi_final = series.states[-1]
    assert abs(_mean_energy_oracle(psi_final, spec, params) - e0) / e0 < 1e-8
    # conjugate-propagate-conjugate returns the initial state
    rev = WaveFunction(grid, np.conj(psi_final.values), "position", 1.0)
    back = propagate(rev, spec, params, dt=0.002, n_steps=22000,
                     absorber=False, check_start=False).states[-1]
    assert np.max(np.abs(np.conj(back.values) - psi0.values)) < 1e-8


def test_free_run_reflection_bookkeeping():
    params = PhysicalParams(sigma=4.0)
    grid = SpatialGrid(-80, 80, 1024)
    psi0 = gaussian_packet(params, grid, center=-30.0)
    series = propagate(psi0, FREE, params, dt=0.01, n_steps=3000, check_start=False)
    refl, trans, absd = reflection_probability(series, force=True)
    assert abs(refl) < 1e-8
    assert trans == pytest.approx(1.0, abs=1e-8)
    assert abs(absd) < 1e-8


def test_edge_loss_is_not_booked_as_absorption():
    # free flight into the edge layers: the edges eat the mass, the barrier none
    params = PhysicalParams(sigma=2.0)
    grid = SpatialGrid(-30, 30, 512)
    psi0 = gaussian_packet(params, grid, center=-15.0)
    series = propagate(psi0, FREE, params, dt=0.008, n_steps=5000,
                       check_start=False, edge_tolerance=1.0)
    _, _, absd = reflection_probability(series, force=True)
    assert abs(absd) < 1e-12
    ledger = series.probabilities[-1]
    assert ledger.edge_loss > 0.1
    assert ledger.edge_loss == pytest.approx(1.0 - ledger.norm, abs=1e-10)


@pytest.mark.parametrize("spec, absorber", [
    (PotentialSpec.gaussian(0.3, 0.5), True),
    (PotentialSpec.complex_step(0.5), False),
])
def test_fused_steps_match_stepwise_snapshots(spec, absorber):
    params = PhysicalParams(sigma=1.5)
    grid = SpatialGrid(-30, 30, 512)
    psi0 = gaussian_packet(params, grid, center=-6.0)
    dt, n_steps = 0.008, 750
    every = propagate(psi0, spec, params, dt, n_steps, absorber=absorber, check_start=False,
                      snapshot_times=[k * dt for k in range(n_steps)])
    ends = propagate(psi0, spec, params, dt, n_steps, absorber=absorber, check_start=False)
    assert len(every.states) == n_steps + 1 and len(ends.states) == 2
    assert np.max(np.abs(every.states[-1].values - ends.states[-1].values)) < 1e-12
    # the packet reached the barrier: a complex step absorbs, a real one reflects
    refl, _, absd = reflection_probability(ends, force=True)
    assert (absd if spec.kind == "complex_step" else refl) > 1e-3


def test_complex_step_absorption_bookkeeping():
    params = PhysicalParams(sigma=8.0)
    grid = SpatialGrid(-200, 200, 2048)
    psi0 = gaussian_packet(params, grid, center=-70.0)
    spec = PotentialSpec.complex_step(0.5)  # V0 = E
    series = propagate(psi0, spec, params, dt=0.015, n_steps=10000,
                       absorber=False, check_start=False)
    norms = [pl.norm for pl in series.probabilities]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    refl, trans, absd = reflection_probability(series, force=True)
    assert refl + absd == pytest.approx(1.0, abs=1e-8)
    assert trans < 1e-8
    # broad packet limit: plane-wave reflection coefficient off -iV0 theta(x)
    k2 = complex(1.0, 1.0) ** 0.5
    r2 = abs((1 - k2) / (1 + k2)) ** 2
    assert refl == pytest.approx(r2, rel=0.02)


def test_premature_measurement_flagged():
    params = PhysicalParams(sigma=4.0)
    spec = PotentialSpec.gaussian(0.9, 1.0)
    grid = SpatialGrid(-120, 120, 1024)
    psi0 = gaussian_packet(params, grid, center=-28.0)
    series = propagate(psi0, spec, params, dt=0.01, n_steps=2800, absorber=False)
    with pytest.raises(NumericalError, match="still within 4a of the boundary"):
        reflection_probability(series)


def test_born_zero_barrier_and_tail_suppression():
    params = PhysicalParams(sigma=10.0, potential=PotentialSpec.gaussian(0.0, 0.1))
    assert born_reflection(params).total == 0.0
    # barrier-smearing suppression: after dividing out the prefactor and the
    # incoming distribution, the density at |p| a / hbar = 5 sits a factor
    # exp(-4 a^2 (p^2 - p1^2)) below |p| a / hbar = 1
    params = PhysicalParams(sigma=0.5, potential=PotentialSpec.gaussian(0.01, 1.0))
    res = born_reflection(params)  # on [-8 p_bar, 0), p_bar = 1
    incoming = lambda p: math.exp(-2 * 0.25 * (-p - 1.0) ** 2)

    def barrier_factor(p_target):
        i = np.argmin(np.abs(res.p - p_target))
        p = res.p[i]
        return res.density[i] * p**2 / incoming(p), p

    f5, p5 = barrier_factor(-5.0)
    f1, p1 = barrier_factor(-1.0)
    expected = math.exp(-4.0 * (p5**2 - p1**2))
    assert f5 / f1 == pytest.approx(expected, rel=1e-9)
    assert f5 / f1 < math.exp(-90.0)


def test_born_matches_grid_quick():
    # light version of the acceptance check: V0 = 0.01, a = 0.1
    params = PhysicalParams(sigma=5.0, potential=PotentialSpec.gaussian(0.01, 0.1))
    born = born_reflection(params)
    grid = SpatialGrid(-120, 120, 2048)
    psi0 = gaussian_packet(params, grid, center=-35.0)
    series = propagate(psi0, params.potential, params, dt=0.0042, n_steps=int(75 / 0.0042))
    refl, _, _ = reflection_probability(series)
    assert refl == pytest.approx(born.total, rel=0.05)


def test_grid_reflection_scales_quadratically():
    grid = SpatialGrid(-120, 120, 2048)
    reflected = {}
    for V0 in (0.01, 0.005):
        params = PhysicalParams(sigma=5.0, potential=PotentialSpec.gaussian(V0, 0.1))
        psi0 = gaussian_packet(params, grid, center=-35.0)
        series = propagate(psi0, params.potential, params, dt=0.0042,
                           n_steps=int(75 / 0.0042))
        reflected[V0], _, _ = reflection_probability(series)
    assert 4.0 * reflected[0.005] / reflected[0.01] == pytest.approx(1.0, abs=0.02)
