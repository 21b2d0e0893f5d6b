"""Barrier evaluation in position and momentum representations.

Momentum transforms follow the symmetric convention
    V(p) = (2 pi hbar)^(-1/2) * integral dx exp(-i p x / hbar) V(x),
so the Gaussian barrier transforms to V0 exp(-a^2 p^2 / 2 hbar^2) / sqrt(2 pi hbar).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .params import PotentialSpec

_SQRT2PI = math.sqrt(2.0 * math.pi)


def potential_position(spec: PotentialSpec, x, hbar: float = 1.0):
    """Evaluate the barrier at position(s) x; complex for absorbing barriers.

    The Gaussian barrier carries the area normalization V0/(a sqrt(2 pi)),
    chosen so its momentum transform has the standard closed form used by the
    perturbative kernels (see PotentialSpec).
    """
    x = np.asarray(x, dtype=float)
    if spec.kind == "smeared_window":
        erf = np.vectorize(math.erf, otypes=[float])
        z = math.sqrt(2.0) * spec.a
        out = 0.5 * spec.V0 * (erf((spec.L - x) / z) + erf((spec.L + x) / z))
        return out.astype(complex)
    if spec.kind == "gaussian":
        peak = spec.V0 / (spec.a * _SQRT2PI)
        if peak == math.inf:
            raise ConfigError(f"gaussian barrier peak V0 / (a sqrt(2 pi)) overflows, got "
                              f"V0 = {spec.V0!r}, a = {spec.a!r}")
        with np.errstate(over="ignore"):  # x^2 / 2a^2 = inf at a subnormal a^2: exp gives 0
            out = peak * np.exp(-(x**2) / (2.0 * spec.a**2))
        return out.astype(complex)
    theta = np.where(x > 0, 1.0, np.where(x < 0, 0.0, 0.5))
    if spec.kind == "step":
        return (spec.V0 * theta).astype(complex)
    # complex_step: purely absorbing half line
    return -1j * spec.V0 * theta


def potential_momentum(spec: PotentialSpec, p, hbar: float = 1.0):
    """Closed-form momentum transform V(p) for barriers that have one.

    Raises ConfigError for step/complex_step, whose transforms are not
    square-integrable.  This is the one barrier check of the perturbative
    kernels, which all take V(p) from here.
    """
    p = np.asarray(p, dtype=float)
    if spec.kind == "gaussian":
        return spec.V0 / math.sqrt(2.0 * math.pi * hbar) * np.exp(
            -(spec.a**2) * p**2 / (2.0 * hbar**2)
        )
    if spec.kind == "smeared_window":
        gauss = np.exp(-(spec.a**2) * p**2 / (2.0 * hbar**2))
        return spec.V0 * gauss * _window_transform(p, spec.L, hbar)
    raise ConfigError(
        f"the perturbative kernels need a gaussian or smeared_window barrier, not "
        f"{spec.kind!r}: its momentum transform is not square-integrable"
    )


def _window_transform(p, L: float, hbar: float):
    """Transform of the sharp window on [-L, L]: 2 hbar sin(pL/hbar) / (p sqrt(2 pi hbar))."""
    p = np.asarray(p, dtype=float)
    arg = p * L / hbar
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(
            np.abs(arg) < 1e-8,
            L * (1.0 - arg**2 / 6.0),
            hbar * np.sin(arg) / np.where(p == 0.0, 1.0, p),
        )
    return 2.0 * out / math.sqrt(2.0 * math.pi * hbar)

