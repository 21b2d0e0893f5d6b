"""Barrier evaluation: closed forms against independent transform oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from qreflect import PotentialSpec, potential_momentum, potential_position


def potential_momentum_numeric(spec, p, hbar=1.0):
    """Oracle: direct quadrature of the transform on 2^16 points of |x| <= 40 max(a, L, 1)."""
    x_max = 40.0 * max(spec.a, spec.L, 1.0)
    x = np.linspace(-x_max, x_max, 2**16)
    v = potential_position(spec, x, hbar)
    phases = np.exp(-1j * np.outer(np.asarray(p, dtype=float), x) / hbar)
    return phases @ v * (x[1] - x[0]) / math.sqrt(2.0 * math.pi * hbar)


def test_smeared_window_deep_interior_equals_plateau():
    spec = PotentialSpec.smeared_window(V0=1.0, a=0.1, L=5.0)
    assert abs(potential_position(spec, 0.0) - 1.0) < 1e-10


def test_smeared_window_tails_vanish():
    spec = PotentialSpec.smeared_window(V0=1.0, a=0.1, L=5.0)
    for x in (40.0, -40.0, 200.0):
        assert abs(potential_position(spec, x)) < 1e-12


def test_smeared_window_matches_numeric_convolution():
    # oracle: V0 * integral of the Gaussian kernel over the window
    spec = PotentialSpec.smeared_window(V0=0.7, a=0.3, L=2.0)
    for x in (-2.3, -0.5, 0.0, 1.1, 1.9, 2.4):
        kernel = lambda y: math.exp(-((x - y) ** 2) / (2 * 0.3**2)) / math.sqrt(2 * math.pi * 0.3**2)
        ref, _ = quad(kernel, -2.0, 2.0, epsabs=1e-14)
        assert abs(potential_position(spec, x) - 0.7 * ref) < 1e-10


def test_smeared_window_matches_scipy_erf():
    spec = PotentialSpec.smeared_window(V0=0.7, a=0.3, L=2.0)
    x = np.linspace(-6.0, 6.0, 1201)
    z = math.sqrt(2.0) * 0.3
    want = 0.35 * (erf((2.0 - x) / z) + erf((2.0 + x) / z))
    assert np.max(np.abs(potential_position(spec, x) - want)) <= 4 * np.finfo(float).eps * 0.7


def test_gaussian_position_normalization_from_transform():
    # the position form is pinned by requiring the closed-form momentum
    # transform; the numeric transform of the position form must reproduce it
    spec = PotentialSpec.gaussian(V0=1.0, a=0.1)
    val = complex(potential_position(spec, 0.1)).real
    assert val == pytest.approx(math.exp(-0.5) / (0.1 * math.sqrt(2 * math.pi)), rel=1e-12)
    p = np.array([-2.0, -0.3, 0.0, 1.7])
    numeric = potential_momentum_numeric(spec, p)
    closed = potential_momentum(spec, p)
    assert np.max(np.abs(numeric - closed)) < 1e-10


def test_gaussian_momentum_values():
    spec = PotentialSpec.gaussian(V0=1.0, a=0.1)
    assert potential_momentum(spec, 0.0) == pytest.approx((2 * math.pi) ** -0.5, rel=1e-14)
    assert potential_momentum(spec, -2.0) == pytest.approx(
        (2 * math.pi) ** -0.5 * math.exp(-0.02), rel=1e-14
    )


def test_gaussian_momentum_even():
    spec = PotentialSpec.gaussian(V0=0.5, a=0.25)
    p = np.linspace(0.1, 6.0, 25)
    assert np.allclose(potential_momentum(spec, p), potential_momentum(spec, -p), rtol=0, atol=0)


def test_smeared_window_momentum_vs_fft_oracle():
    spec = PotentialSpec.smeared_window(V0=1.0, a=0.2, L=1.5)
    p = np.array([-3.1, -0.9, 0.0, 0.4, 2.2])
    closed = potential_momentum(spec, p)
    numeric = potential_momentum_numeric(spec, p)
    assert np.max(np.abs(closed - numeric)) < 1e-8


def test_step_and_complex_step_values():
    step = PotentialSpec.step(2.0)
    assert potential_position(step, 1.0) == 2.0
    assert potential_position(step, -1.0) == 0.0
    assert potential_position(step, 0.0) == 1.0  # theta(0) = 1/2
    absorber = PotentialSpec.complex_step(2.0)
    assert potential_position(absorber, 3.0) == -2.0j
    for spec in (step, absorber):
        with pytest.raises(ValueError, match=f"gaussian or smeared_window.*{spec.kind}"):
            potential_momentum(spec, 1.0)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        PotentialSpec.gaussian(V0=1.0, a=0.0)
    with pytest.raises(ValueError):
        PotentialSpec.smeared_window(V0=1.0, a=0.1, L=0.0)
    with pytest.raises(ValueError):
        PotentialSpec.gaussian(V0=-1.0, a=0.1)
    with pytest.raises(ValueError):
        PotentialSpec("triangle", V0=1.0)
