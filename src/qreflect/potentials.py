"""Barrier evaluation in position and momentum representations.

Momentum transforms follow the symmetric convention
    V(p) = (2 pi hbar)^(-1/2) * integral dx exp(-i p x / hbar) V(x),
so the Gaussian barrier transforms to V0 exp(-a^2 p^2 / 2 hbar^2) / sqrt(2 pi hbar).
"""

from __future__ import annotations

import math

import numpy as np

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
        from scipy.special import erf  # scipy.special costs ~0.3 s to import

        z = math.sqrt(2.0) * spec.a
        out = 0.5 * spec.V0 * (erf((spec.L - x) / z) + erf((spec.L + x) / z))
        return out.astype(complex)
    if spec.kind == "gaussian":
        out = spec.V0 / (spec.a * _SQRT2PI) * np.exp(-(x**2) / (2.0 * spec.a**2))
        return out.astype(complex)
    theta = np.where(x > 0, 1.0, np.where(x < 0, 0.0, 0.5))
    if spec.kind == "step":
        return (spec.V0 * theta).astype(complex)
    # complex_step: purely absorbing half line
    return -1j * spec.V0 * theta


def potential_momentum(spec: PotentialSpec, p, hbar: float = 1.0):
    """Closed-form momentum transform V(p) for barriers that have one.

    Raises ValueError for step/complex_step, whose transforms are not
    square-integrable; use potential_momentum_numeric with an explicit
    truncation window for those.
    """
    p = np.asarray(p, dtype=float)
    if spec.kind == "gaussian":
        return spec.V0 / math.sqrt(2.0 * math.pi * hbar) * np.exp(
            -(spec.a**2) * p**2 / (2.0 * hbar**2)
        )
    if spec.kind == "smeared_window":
        gauss = np.exp(-(spec.a**2) * p**2 / (2.0 * hbar**2))
        return spec.V0 * gauss * _window_transform(p, spec.L, hbar)
    raise ValueError(
        f"{spec.kind} potential has no closed-form momentum transform; "
        "use potential_momentum_numeric"
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


def potential_momentum_numeric(
    spec: PotentialSpec,
    p,
    hbar: float = 1.0,
    x_max: float | None = None,
    n_points: int = 2**16,
):
    """Brute-force transform by direct quadrature on a truncated x-window.

    Serves as the oracle for the closed forms and as the fallback for barrier
    kinds without a square-integrable transform (truncation window explicit).
    """
    if x_max is None:
        scale = max(spec.a, spec.L, 1.0)
        x_max = 40.0 * scale
    x = np.linspace(-x_max, x_max, n_points)
    dx = x[1] - x[0]
    v = potential_position(spec, x, hbar)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    phases = np.exp(-1j * np.outer(p, x) / hbar)
    out = phases @ v * dx / math.sqrt(2.0 * math.pi * hbar)
    return out if out.size > 1 else out[0]
