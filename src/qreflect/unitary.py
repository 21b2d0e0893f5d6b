"""Grid propagation of the time-dependent Schrodinger equation.

Strang-split spectral stepping (half kinetic, potential, half kinetic) on the
FFT grid, with optional cosine-ramp absorbing layers at the grid edges.  Real
barriers propagate unitarily to roundoff.  Two loss channels are booked
separately: "absorbed" is the mass removed by a complex (absorbing) barrier,
which contracts the norm monotonically, and "edge_loss" is the mass eaten by
the edge layers, which a well-sized grid keeps negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .grids import SpatialGrid, SplitStepper, WaveFunction, to_momentum
from .params import PhysicalParams, PotentialSpec
from .potentials import potential_momentum, potential_position
from .timescales import scattering_time

_ABSORBER_WIDTH = 0.05  # fraction of the grid each edge layer covers
_OVERLAP_TOLERANCE = 1e-4  # position mass near the barrier that blocks a measurement
_BORN_EDGE_SHARE = 1e-3  # largest share of the Born total in the cell left out next to p = 0


@dataclass(frozen=True)
class ProbabilityLedger:
    """Per-snapshot bookkeeping of where the probability went."""

    norm: float
    reflected: float
    transmitted: float
    absorbed: float
    edge_loss: float


@dataclass(frozen=True)
class SnapshotSeries:
    times: list
    states: list
    probabilities: list
    params: PhysicalParams
    spec: PotentialSpec


def _momentum_split(psi: WaveFunction) -> tuple[float, float]:
    """(reflected, transmitted) mass from the momentum density; p >= 0 counts
    as transmitted."""
    tilde = to_momentum(psi)
    rho = tilde.density() * tilde.grid.dx
    negative = tilde.grid.x < 0
    return float(np.sum(rho[negative])), float(np.sum(rho[~negative]))


def _absorber_profile(grid: SpatialGrid, width_fraction: float, strength: float) -> np.ndarray:
    """Imaginary-potential magnitude: cosine ramp from 0 to `strength` over the
    outer `width_fraction` of the grid on each side."""
    x, w = grid.x, width_fraction * (grid.x_max - grid.x_min)
    # depth into the nearer edge layer; negative between the layers
    depth = np.maximum(grid.x_min + w - x, x - (grid.x_max - w))
    return strength * np.where(depth > 0, np.sin(0.5 * math.pi * depth / w) ** 2, 0.0)


def dt_limit(params: PhysicalParams, grid: SpatialGrid, v: np.ndarray) -> float:
    """min(t_E, hbar / max|v|, CFL time) for the barrier v on grid: the kinetic phase,
    potential phase and grid scale a step resolves.  propagate allows 0.1 of it."""
    v_max = float(np.max(np.abs(v)))
    return min(scattering_time(params), params.hbar / v_max if v_max > 0.0 else math.inf,
               grid.cfl_time(params.m, params.hbar))


def grid_for(params: PhysicalParams, spec: PotentialSpec, start: float, t_final: float,
             n_points: int) -> SpatialGrid:
    """The grid for a packet launched at start: |start| + 6 widths, at least the free
    spread hbar t / (2 m sigma), + the travel p_bar t / m by t_final on each side.  dx =
    min(sigma / 10, a / 3) resolves packet and barrier in 256 or more points; n_points
    caps the count, so dx grows.  Raises ConfigError when the grid or its dx^2 overflows."""
    spread = params.hbar * t_final / (2.0 * params.m * params.sigma)
    half = abs(start) + 6.0 * max(params.sigma, spread) + params.p_bar * t_final / params.m
    dx_target = min(params.sigma / 10.0, spec.a / 3.0 if spec.a > 0 else params.sigma)
    try:  # float ** and math.ceil raise on overflow where * and + give inf
        n = 2 ** math.ceil(math.log2(2.0 * half / dx_target))
        grid = SpatialGrid(-half, half, min(n_points, max(n, 256)))
        grid.cfl_time(params.m, params.hbar)  # raises if dx^2 overflows: dt_limit reads it
    except OverflowError:
        raise ConfigError(f"the grid for t_final = {t_final:.3g} overflows") from None
    return grid


def propagate(
    psi0: WaveFunction,
    spec: PotentialSpec,
    params: PhysicalParams,
    dt: float,
    n_steps: int,
    snapshot_times=None,
    absorber: bool = True,
    edge_tolerance: float = 1e-6,
    check_start: bool = True,
) -> SnapshotSeries:
    """Propagate psi0 under the barrier for n_steps of size dt.

    Snapshots are recorded at the requested times (rounded to the nearest
    step) and always at t = 0 and the final time.  Raises ConfigError when dt
    exceeds 0.1 * dt_limit or the initial packet overlaps the barrier, and
    NumericalError when more than edge_tolerance of probability is eaten by the
    edge absorbers.
    """
    grid = psi0.grid
    hbar, m = params.hbar, params.m
    v = potential_position(spec, grid.x, hbar)
    dt_max = 0.1 * dt_limit(params, grid, v)
    if dt > dt_max:
        raise ConfigError(f"dt = {dt:.3g} exceeds 0.1*min(t_E, hbar/max|V|, cfl) "
                          f"= {dt_max:.3g}")

    if check_start and spec.V0 > 0:
        vmax = float(np.max(np.abs(v)))
        inside = np.abs(v) > 1e-6 * vmax
        overlap = float(np.sum(psi0.density()[inside]) * grid.dx)
        if overlap > 1e-8:
            raise ConfigError(
                f"initial overlap with the barrier region is {overlap:.3e} (> 1e-8)"
            )

    pot_phase = np.exp(-1j * v * dt / hbar)
    factor = pot_phase
    if absorber:
        mask = np.exp(-_absorber_profile(grid, _ABSORBER_WIDTH, 2.0 * params.energy) * dt / hbar)
        factor = pot_phase * mask
    # with both loss channels active, each is booked step by step
    complex_barrier = bool(np.any(v.imag != 0.0))
    book_steps = absorber and complex_barrier
    losses = [0.0, 0.0]  # barrier absorption, edge loss
    dx = grid.dx

    def middle(vals):
        if not book_steps:
            vals *= factor
            return
        before = float(np.sum(np.abs(vals) ** 2)) * dx
        vals *= pot_phase
        after = float(np.sum(np.abs(vals) ** 2)) * dx
        vals *= mask
        losses[0] += before - after
        losses[1] += after - float(np.sum(np.abs(vals) ** 2)) * dx

    stepper = SplitStepper(grid, m, hbar, dt, x_middle=middle)

    wanted = {0, n_steps, *(int(round(t / dt)) for t in snapshot_times or ())}
    snap_steps = sorted(s for s in wanted if 0 <= s <= n_steps)

    norm0 = psi0.norm_squared()
    vals = psi0.values.copy()
    prev = 0
    times, states, probs = [], [], []
    for step in snap_steps:
        if step > prev:
            vals = stepper.advance(vals, step - prev)
            prev = step
        psi = WaveFunction(grid, vals, "position", hbar)
        norm = psi.norm_squared()
        if absorber != complex_barrier:  # one loss channel: the deficit is its loss
            losses[1 if absorber else 0] = norm0 - norm
        absorbed, edge_loss = losses
        refl, trans = _momentum_split(psi)
        times.append(step * dt)
        states.append(psi)
        probs.append(ProbabilityLedger(norm=norm, reflected=refl, transmitted=trans,
                                       absorbed=absorbed, edge_loss=edge_loss))

    if absorber and edge_loss > edge_tolerance:
        raise NumericalError(
            f"edge absorbers removed {edge_loss:.3e} of probability "
            f"(> {edge_tolerance:.1e}); enlarge the grid or shorten the run"
        )
    return SnapshotSeries(times=times, states=states, probabilities=probs,
                          params=params, spec=spec)


def reflection_probability(
    series: SnapshotSeries,
    force: bool = False,
) -> tuple[float, float, float]:
    """(reflected, transmitted, absorbed) from the final snapshot.

    Reflected/transmitted are the negative/nonnegative momentum masses;
    absorbed is the barrier absorption (complex barriers only; edge-layer
    loss stays in the ledger's edge_loss).  Raises NumericalError when more
    than _OVERLAP_TOLERANCE of position mass still sits within 4a of the
    barrier at x = 0.
    """
    psi = series.states[-1]
    ledger = series.probabilities[-1]
    a = max(series.spec.a, psi.grid.dx)
    near = np.abs(psi.grid.x) < 4.0 * a
    near_mass = float(np.sum(psi.density()[near]) * psi.grid.dx)
    if near_mass > _OVERLAP_TOLERANCE and not force:
        raise NumericalError(
            f"{near_mass:.3e} of the density is still within 4a of the boundary"
        )
    return ledger.reflected, ledger.transmitted, ledger.absorbed


@dataclass(frozen=True)
class BornResult:
    """First-order reflected momentum density for a normalized incoming packet, on
    a grid of p < 0 that stops one cell short of p = 0."""

    p: np.ndarray
    density: np.ndarray

    @property
    def total(self) -> float:
        """The density's trapezoid total over the grid.  Raises NumericalError when the
        cell left out next to p = 0, the density at the last point times the spacing,
        holds more than _BORN_EDGE_SHARE of the total: the 1/p^2 prefactor is not
        integrable at p = 0, so once the packet reaches there the total grows with the
        grid (that share is 0.86 at sigma = 0.5, 0.10 at 2 and 1e-5 at 3, for p_bar = 1,
        a = 0.1)."""
        total = float(np.trapezoid(self.density, self.p))
        left_out = float(self.density[-1] * (self.p[-1] - self.p[-2]))
        if left_out > _BORN_EDGE_SHARE * total:
            raise NumericalError(
                f"the Born density's cell next to p = 0 holds {left_out / total:.3g} of its "
                f"total (> {_BORN_EDGE_SHARE:g}): the packet reaches p = 0, where the 1/p^2 "
                "prefactor is not integrable, so the total depends on the grid")
        return total


def born_reflection(params: PhysicalParams) -> BornResult:
    """First Born reflected density on the p < 0 half-grid.

    density(p) = (2 pi m^2 / hbar p^2) V(2p)^2 |psi_in(-p)|^2 with V the
    momentum-space barrier and psi_in the incoming Gaussian packet, on 2,048
    points of [-8 p_bar, 0): at p = 0 the 1/p^2 prefactor is singular, and not
    integrable once the packet reaches there, so BornResult.total checks that.
    """
    m, hbar, pb, sigma = params.m, params.hbar, params.p_bar, params.sigma
    p = np.linspace(-8.0 * pb, 0.0, 2048, endpoint=False)
    v = potential_momentum(params.potential, 2.0 * p, hbar)
    incoming = math.sqrt(2.0 * sigma**2 / (math.pi * hbar**2)) * np.exp(
        -2.0 * sigma**2 * (-p - pb) ** 2 / hbar**2
    )
    density = 2.0 * math.pi * m**2 / (hbar * p**2) * v**2 * incoming
    return BornResult(p=p, density=density)
