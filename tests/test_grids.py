"""Wave-function construction and the Fourier transform."""

import math
from pathlib import Path

import numpy as np
import pytest

import qreflect
from qreflect import (GridTooNarrowError, PhysicalParams, SpatialGrid, born_reflection,
                      gaussian_packet, gaussian_state_from_moments, to_momentum)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpatialGrid(0.0, -1.0, 256)
    with pytest.raises(ValueError):
        SpatialGrid(0.0, 1.0, 300)  # not a power of two
    g = SpatialGrid(-2.0, 2.0, 8)
    assert g.dx == 0.5
    assert len(g.x) == 8


def test_gaussian_packet_moments_unit_case():
    params = PhysicalParams(sigma=1.0, x_bar=0.0)
    grid = SpatialGrid(-20, 20, 512)
    psi = gaussian_packet(params, grid)
    mx, mp, vx, vp, cxp = psi.moments()
    assert abs(psi.norm_squared() - 1.0) < 1e-12
    assert vx == pytest.approx(1.0, abs=1e-9)
    assert vp == pytest.approx(0.25, abs=1e-9)
    assert mp == pytest.approx(1.0, rel=1e-9)
    assert abs(cxp) < 1e-9


def test_broad_packet_momentum_width():
    params = PhysicalParams(sigma=100.0)
    grid = SpatialGrid(-900, 900, 4096)
    psi = gaussian_packet(params, grid, center=0.0)
    _, mp, _, vp, _ = psi.moments()
    assert mp == pytest.approx(1.0, rel=1e-8)
    assert math.sqrt(vp) == pytest.approx(0.005, rel=1e-6)
    assert (params.hbar / params.sigma) / params.p_bar < 0.1  # momentum-resolved packet


def test_offset_packet_center_by_grid_quadrature():
    params = PhysicalParams(sigma=2.0)
    grid = SpatialGrid(-40, 20, 1024)
    psi = gaussian_packet(params, grid, center=-10.0)
    assert psi.moments()[0] == pytest.approx(-10.0, abs=1e-6)


def test_gaussian_packet_errors():
    params = PhysicalParams(sigma=2.0, x_bar=0.0)
    with pytest.raises(GridTooNarrowError):
        gaussian_packet(params, SpatialGrid(-5, 5, 256))
    with pytest.raises(ValueError):
        PhysicalParams(sigma=-1.0)


def test_steady_packet_widths():
    # D = 1/8 makes sigma_q^2 = 1
    params = PhysicalParams(D=1.0 / 8.0)
    assert params.sigma_q**2 == pytest.approx(1.0, rel=1e-14)
    grid = SpatialGrid(-30, 30, 1024)
    psi = gaussian_state_from_moments(grid, 0.0, 0.0, params.sigma_q**2, 0.5 * params.hbar,
                                      params.hbar)
    _, _, vx, vp, cxp = psi.moments()
    assert vx == pytest.approx(1.0, abs=1e-6)
    assert vp == pytest.approx(0.5, abs=1e-6)
    assert cxp == pytest.approx(0.5, abs=1e-6)
    assert PhysicalParams(D=2.0).sigma_q**2 == pytest.approx(0.25, rel=1e-14)
    with pytest.raises(ValueError):
        PhysicalParams(D=0.0).sigma_q


def test_steady_packet_grid_moments_match_analytic():
    params = PhysicalParams(D=0.7, m=1.3, hbar=0.9)
    grid = SpatialGrid(-20, 20, 1024)
    psi = gaussian_state_from_moments(grid, 1.5, -0.4, params.sigma_q**2, 0.5 * params.hbar,
                                      params.hbar)
    mx, mp, vx, vp, cxp = psi.moments()
    sq2 = params.sigma_q**2
    assert mx == pytest.approx(1.5, abs=1e-6)
    assert mp == pytest.approx(-0.4, abs=1e-6)
    assert vx == pytest.approx(sq2, rel=1e-6)
    assert vp == pytest.approx(params.hbar**2 / (2 * sq2), rel=1e-6)
    assert cxp == pytest.approx(params.hbar / 2, rel=1e-6)


def test_transform_roundtrip_and_parseval():
    params = PhysicalParams(sigma=1.5)
    grid = SpatialGrid(-24, 24, 512)
    psi = gaussian_packet(params, grid, center=2.0)
    tilde = to_momentum(psi)
    # inverse of the symmetric transform, hbar = 1: undo the x_min phase and the shift
    back = np.fft.ifft(np.fft.ifftshift(tilde.values) * np.exp(1j * grid.wavenumbers * grid.x_min))
    assert np.max(np.abs(back * math.sqrt(2.0 * math.pi) / grid.dx - psi.values)) < 1e-12
    assert abs(tilde.norm_squared() - psi.norm_squared()) < 1e-12


def test_momentum_density_peaks_at_packet_momentum():
    params = PhysicalParams(sigma=4.0)
    grid = SpatialGrid(-48, 48, 1024)
    tilde = to_momentum(gaussian_packet(params, grid, center=0.0))
    peak = tilde.grid.x[np.argmax(tilde.density())]
    assert peak == pytest.approx(1.0, abs=2 * tilde.grid.dx)


def test_representation_mismatch_errors():
    params = PhysicalParams()
    grid = SpatialGrid(-16, 16, 256)
    psi = gaussian_packet(params, grid, center=0.0)
    with pytest.raises(ValueError):
        to_momentum(to_momentum(psi))


def test_momentum_axis_is_shifted_wavenumber_axis():
    grid = SpatialGrid(-13.0, 19.0, 256)
    k = grid.wavenumbers
    assert np.array_equal(k, 2.0 * math.pi * np.fft.fftfreq(256, grid.dx))
    for hbar in (1.0, 0.7):
        assert np.array_equal(grid.momentum_axis(hbar), np.fft.fftshift(hbar * k))
    # cached and read-only, so threads can share them
    assert grid.wavenumbers is k and not k.flags.writeable
    phase = grid.kinetic_phase(1.0, 1.0, 0.01)
    assert grid.kinetic_phase(1.0, 1.0, 0.01) is phase and not phase.flags.writeable


def test_fftfreq_only_in_grids():
    # one FFT wavenumber convention: every other module goes through SpatialGrid
    package = Path(qreflect.__file__).parent
    users = sorted(p.name for p in package.glob("*.py") if "fftfreq" in p.read_text())
    assert users == ["grids.py"]


def test_born_reflection_grid_is_open_at_zero():
    # the Born density's 1/p^2 prefactor is singular at p = 0, so its grid stops short
    params = PhysicalParams(p_bar=1.5)
    p = born_reflection(params).p
    assert np.array_equal(p, np.linspace(-12.0, 0.0, 2048, endpoint=False))
    assert p[-1] < 0.0
