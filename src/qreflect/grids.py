"""Uniform grids, wave functions, the Fourier transform and the split-step core.

The position -> momentum transform is unitary under the symmetric
(2 pi hbar)^(-1/2) convention, discretized so that Parseval holds exactly:
sum |psi(x)|^2 dx == sum |psi(p)|^2 dp to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, GridTooNarrowError
from .params import PhysicalParams


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1-D grid with n_points a power of two (endpoint excluded)."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ConfigError("x_max must exceed x_min")
        n = self.n_points
        if n < 2 or (n & (n - 1)) != 0:
            raise ConfigError("n_points must be a power of two >= 2")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers k in FFT order (cached, read-only)."""
        k = 2.0 * math.pi * np.fft.fftfreq(self.n_points, self.dx)
        k.setflags(write=False)
        return k

    def momentum_axis(self, hbar: float = 1.0) -> np.ndarray:
        """Ascending FFT-conjugate momentum axis fftshift(hbar k)."""
        return np.fft.fftshift(hbar * self.wavenumbers)

    @lru_cache(maxsize=64)
    def kinetic_phase(self, m: float, hbar: float, dt: float) -> np.ndarray:
        """exp(-i (hbar k)^2 dt / 2 m hbar) in FFT order (cached, read-only)."""
        phase = np.exp(-1j * (hbar * self.wavenumbers) ** 2 / (2.0 * m) * dt / hbar)
        phase.setflags(write=False)
        return phase

    def cfl_time(self, m: float = 1.0, hbar: float = 1.0) -> float:
        """Shortest grid-resolved dynamical time, 2 pi m dx^2 / hbar."""
        return 2.0 * math.pi * m * self.dx**2 / hbar


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitude on a uniform grid, position or momentum representation.

    In momentum representation the grid axis is the ascending momentum axis.
    """

    grid: SpatialGrid
    values: np.ndarray
    representation: str = "position"
    hbar: float = 1.0

    def __post_init__(self):
        if self.representation not in ("position", "momentum"):
            raise ConfigError("representation must be 'position' or 'momentum'")
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n_points,):
            raise ConfigError("values must match the grid size")
        object.__setattr__(self, "values", v)

    # -- norms and moments ----------------------------------------------------

    @property
    def dx(self) -> float:
        return self.grid.dx

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def norm_squared(self) -> float:
        return float(np.sum(self.density()) * self.dx)

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def normalized(self) -> "WaveFunction":
        n = self.norm()
        if n == 0.0:
            raise ConfigError("cannot normalize the zero state")
        return WaveFunction(self.grid, self.values / n, self.representation, self.hbar)

    def moments(self) -> tuple[float, float, float, float, float]:
        """(mean_x, mean_p, var_x, var_p, cov_xp): position_moments of this state."""
        if self.representation != "position":
            raise ConfigError("moments() expects the position representation")
        return tuple(position_moments(self.values, self.grid, self.hbar).tolist())


def abs_squared(values: np.ndarray) -> np.ndarray:
    """|values|^2 as re^2 + im^2: no hypot, and exact squares."""
    out = np.square(values.real)
    out += np.square(values.imag)
    return out


def position_moments(values: np.ndarray, grid: SpatialGrid, hbar: float = 1.0) -> np.ndarray:
    """(mean_x, mean_p, var_x, var_p, cov_xp) of position amplitudes along the
    last axis, shape values.shape[:-1] + (5,), by grid quadrature: p psi =
    hbar k psi through the spectral derivative, Cov from the symmetrized
    product.  Every sum runs along one C-ordered row (never BLAS), so a row of a
    batch gets the bits it gets alone."""
    x, dx = grid.x, grid.dx
    rho = abs_squared(values)
    norm = np.sum(rho, axis=-1) * dx
    mean_x = np.sum(x * rho, axis=-1) * dx / norm
    dev = x - mean_x[..., None]
    var_x = np.sum(dev**2 * rho, axis=-1) * dx / norm
    k_psi = np.fft.fft(values)
    k_psi *= grid.wavenumbers
    k_psi = np.fft.ifft(k_psi)
    # Re(psi* k psi) gives <p> and, as dev is real, Cov(x, p): for a pure state
    # Re<(x - <x>)(p - <p>)> is the symmetrized covariance
    cross = values.real * k_psi.real
    cross += values.imag * k_psi.imag
    mean_p = hbar * cross.sum(axis=-1) * dx / norm
    var_p = hbar * hbar * abs_squared(k_psi).sum(axis=-1) * dx / norm - mean_p * mean_p
    cov_xp = hbar * (dev * cross).sum(axis=-1) * dx / norm
    return np.stack([mean_x, mean_p, var_x, var_p, cov_xp], axis=-1)


def to_momentum(psi: WaveFunction) -> WaveFunction:
    """Unitary transform to the momentum representation (ascending p axis)."""
    if psi.representation != "position":
        raise ConfigError("to_momentum expects a position-representation state")
    g = psi.grid
    n, dx, hbar = g.n_points, g.dx, psi.hbar
    p = g.momentum_axis(hbar)
    tilde = dx / math.sqrt(2.0 * math.pi * hbar) * np.exp(-1j * p * g.x_min / hbar) \
        * np.fft.fftshift(np.fft.fft(psi.values))
    dp = 2.0 * math.pi * hbar / (n * dx)
    p_grid = SpatialGrid(p[0], p[0] + n * dp, n)
    return WaveFunction(p_grid, tilde, "momentum", hbar)


# -- split-step propagation ---------------------------------------------------


class SplitStepper:
    """Strang steps exp(-iK dt/2) M exp(-iK dt/2) on one grid.  M is
    ``x_middle`` acting in place on the position amplitudes, then ``p_middle``
    on the FFT-ordered momentum amplitudes (either may be None).  ``advance``
    fuses adjacent half kinetic steps, so n steps cost 2n + 2 FFTs, not 4n."""

    def __init__(self, grid: SpatialGrid, m: float, hbar: float, dt: float,
                 x_middle=None, p_middle=None):
        self.half = grid.kinetic_phase(m, hbar, 0.5 * dt)
        self.full = grid.kinetic_phase(m, hbar, dt)
        self.x_middle = x_middle
        self.p_middle = p_middle

    def advance(self, values: np.ndarray, n_steps: int) -> np.ndarray:
        """Position amplitudes n_steps >= 1 steps after ``values`` (not modified)."""
        tilde = np.fft.fft(values) * self.half
        for step in range(n_steps):
            if self.x_middle is not None:
                vals = np.fft.ifft(tilde)
                self.x_middle(vals)
                tilde = np.fft.fft(vals)
            if self.p_middle is not None:
                self.p_middle(tilde)
            tilde *= self.full if step < n_steps - 1 else self.half
        return np.fft.ifft(tilde)


# -- state constructors -------------------------------------------------------


def gaussian_packet(
    params: PhysicalParams,
    grid: SpatialGrid,
    center: float | None = None,
    mean_p: float | None = None,
) -> WaveFunction:
    """Normalized Gaussian packet exp(-(x-c)^2/4 sigma^2 + i p_bar x / hbar).

    Raises GridTooNarrowError when more than 1e-8 of the packet mass falls
    outside the grid or the mean momentum is not resolved by the grid.
    """
    sigma, hbar = params.sigma, params.hbar
    c = params.x_bar if center is None else center
    pb = params.p_bar if mean_p is None else mean_p
    left = (c - grid.x_min) / (math.sqrt(2.0) * sigma)
    right = (grid.x_max - c) / (math.sqrt(2.0) * sigma)
    outside = 0.5 * (math.erfc(left) + math.erfc(right))
    if outside > 1e-8:
        raise GridTooNarrowError(
            f"packet mass outside grid = {outside:.3e} exceeds 1e-8"
        )
    p_nyquist = math.pi * hbar / grid.dx
    if abs(pb) + 6.0 * hbar / (2.0 * sigma) > p_nyquist:
        raise GridTooNarrowError("grid spacing does not resolve the packet momentum")
    x = grid.x
    psi = (2.0 * math.pi * sigma**2) ** -0.25 * np.exp(
        -((x - c) ** 2) / (4.0 * sigma**2) + 1j * pb * x / hbar
    )
    return WaveFunction(grid, psi, "position", hbar).normalized()


def gaussian_state_from_moments(
    grid: SpatialGrid,
    mean_x: float,
    mean_p: float,
    var_x: float,
    cov_xp: float,
    hbar: float = 1.0,
) -> WaveFunction:
    """Pure Gaussian with prescribed first moments, Var(x) and Cov(x,p).

    Var(p) follows from purity: Var(p) = (hbar^2/4 + Cov^2) / Var(x).
    """
    if not var_x > 0:
        raise ConfigError("var_x must be positive")
    alpha = 1.0 / (4.0 * var_x) - 1j * cov_xp / (2.0 * hbar * var_x)
    x = grid.x
    psi = np.exp(-alpha * (x - mean_x) ** 2 + 1j * mean_p * x / hbar)
    return WaveFunction(grid, psi, "position", hbar).normalized()
