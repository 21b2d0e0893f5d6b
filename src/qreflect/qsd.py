"""State-diffusion trajectories unraveling the Lindblad dynamics.

A single real Wiener process drives each trajectory.  The wavefunction-level
step applies the Hamiltonian by exact split-step exponentials and the
environment drift+noise by the Ito-consistent one-step exponential
exp(-(2D/hbar^2) X^2 dt + (sqrt(2D)/hbar) X dB), X = x - <x> (momentum
analogue for momentum coupling), followed by exact renormalization.  This
agrees with plain Euler-Maruyama to O(dt) per step while staying stable on the
FFT grid, where naive explicit stepping of the stiff kinetic and quadratic
drift terms blows up at any useful dt.  The factor is real: |psi|^2 is taken
once, the norm comes from sum |psi|^2 f^2, and 1/norm is folded into f before
one multiply.  Every sum runs along a C-ordered row, never through BLAS, so a
trajectory gets the same bits in a block of rows as alone.

The moment-level integrator propagates the closed moment system under a
Gaussian closure: for pure Gaussians all third central moments vanish, which
removes the noise from every second-moment equation.  With no potential these
never read the means either, so they step once for every trajectory, and each
mean is a running sum of increments linear in the noise.  Neither integrator
takes a potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import length_hint

import numpy as np

from . import slices
from .errors import ClosureError, ConfigError, GridTooNarrowError, NumericalError
from .grids import SpatialGrid, SplitStepper, WaveFunction, abs_squared, position_moments
from .model1 import EnvironmentSpec
from .params import PhysicalParams
from .timescales import in_float_range, scattering_time

_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)  # the normal range


class NoiseStream:
    """Counter-based Gaussian increments: (seed, index) fixes the value.

    Increment i is one Box-Muller normal made from the 4-word Philox block at
    counter [i, 0, 0, 0] under the key ``seed``.  A bulk draw from counter
    [start, 0, 0, 0] yields those same blocks in order, so bulk and
    one-at-a-time draws agree bit for bit however they are batched.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.counter = 0

    def increments(self, start: int, n: int, dt: float) -> np.ndarray:
        """Increments start, ..., start + n - 1 as one array."""
        words = np.random.Philox(key=self.seed, counter=[start, 0, 0, 0]).random_raw(4 * n)
        u1 = ((words[0::4] >> 11) + 1) * 2.0**-53  # (0, 1], so the log is finite
        u2 = (words[1::4] >> 11) * 2.0**-53
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2) * math.sqrt(dt)

    def increment_at(self, index: int, dt: float) -> float:
        return float(self.increments(index, 1, dt)[0])

    def next_increment(self, dt: float) -> float:
        self.counter += 1
        return self.increment_at(self.counter - 1, dt)


@dataclass(frozen=True)
class TrajectoryMoments:
    """First and second quantum moments of one trajectory at one time."""

    time: float
    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    cov_xp: float

    def __post_init__(self):
        if not (self.var_x > 0 and self.var_p > 0):
            raise ConfigError("variances must stay positive (closure inconsistency)")


def steady_moments(params: PhysicalParams) -> TrajectoryMoments:
    """Moments of the localized steady packet for position coupling, at rest at
    the origin at t = 0."""
    sq2 = params.sigma_q**2
    return TrajectoryMoments(time=0.0, mean_x=0.0, mean_p=0.0,
                             var_x=sq2, var_p=params.hbar**2 / (2.0 * sq2),
                             cov_xp=params.hbar / 2.0)


@in_float_range
def coupling_time(params: PhysicalParams, env: EnvironmentSpec) -> float:
    """t_loc = (m hbar / D)^(1/2), t_p = 1 / (D_p p_bar^2), or inf when uncoupled."""
    if not env.strength > 0:
        return math.inf
    if env.kind == "position_coupling":
        return math.sqrt(params.m * params.hbar / env.strength)
    return 1.0 / (env.strength * params.p_bar**2)


def dt_limit(params: PhysicalParams, env: EnvironmentSpec, grid: SpatialGrid | None) -> float:
    """min(t_E, coupling_time, the CFL time of grid unless it is None); both
    integrators allow dt up to 0.05 of it."""
    cfl = grid.cfl_time(params.m, params.hbar) if grid is not None else math.inf
    return min(scattering_time(params), coupling_time(params, env), cfl)


def grid_for(params: PhysicalParams, env: EnvironmentSpec, t_final: float,
             n_points: int) -> SpatialGrid:
    """The periodic grid that holds every trajectory to t_final, dx resolving the packet
    and its localized width, in a power of two of at least 256 points.  The wavefunction
    driver re-centres each row after every record, so under position coupling the grid
    holds one packet, not its center's walk.  Raises ConfigError when the spread
    overflows or the grid needs more than n_points."""
    m, hbar, sigma, strength = params.m, params.hbar, params.sigma, env.strength
    try:  # float ** and math.ceil raise on overflow where * and + give inf
        if env.kind == "position_coupling":
            # 8 widths of the packet, which spreads freely until t_c localizes it, and
            # 4 sd of its center's drift between two of the CLI's 200 records, at the
            # sd of <p> at t_final, sqrt(2 D t_final)
            dx = min(sigma / 10.0, params.sigma_q / 4.0)
            free = (hbar * min(t_final, coupling_time(params, env)) / (2.0 * m * sigma)) ** 2
            half = (8.0 * math.sqrt(sigma**2 + free)
                    + 4.0 * math.sqrt(2.0 * strength * t_final) * (t_final / 200.0) / m)
        else:
            # 8 sd of the ensemble's spread: -D_p [p, [p, rho]] adds 2 hbar^2 D_p t
            # to the free <x^2>(t) = sigma^2 + (hbar t / 2 m sigma)^2
            dx, spread = sigma / 10.0, (hbar * t_final / (2.0 * m * sigma)) ** 2
            half = 8.0 * math.sqrt(sigma**2 + spread + 2.0 * hbar**2 * strength * t_final)
        k = math.ceil(math.log2(2.0 * half / dx))
    except OverflowError:
        raise ConfigError(
            f"the spread by t_final = {t_final:.3g} overflows the grid size") from None
    n = 2**k
    if n > n_points:  # a count past 2^32 prints as a power, not as up to 300 digits
        raise ConfigError(f"--n_points {n_points} is below the {n if k <= 32 else f'2^{k}'} "
                          f"points the grid needs for the spread by t_final = {t_final:.3g}")
    return SpatialGrid(-n * dx / 2.0, n * dx / 2.0, max(n, 256))


def _check_dt(params: PhysicalParams, env: EnvironmentSpec, dt: float,
              grid: SpatialGrid | None) -> None:
    dt_max = 0.05 * dt_limit(params, env, grid)
    if dt > dt_max:
        raise ConfigError(f"dt = {dt:.3g} exceeds 0.05*min(timescales) = {dt_max:.3g}")


def _trajectory_stepper(grid: SpatialGrid, env: EnvironmentSpec, params: PhysicalParams,
                        dt: float, draw) -> SplitStepper:
    """Stepper whose middle operator is the real noise
    factor f = exp(A (k1 A + k2 dB)), k1 = -2c dt, k2 = sqrt(2c), dB = draw(),
    A = a - <a>, divided by the norm it leaves: a = p, c = D_p in momentum space
    for momentum coupling, otherwise a = x, c = D/hbar^2 (zero when uncoupled)
    in position space.  Rows of (rows, N) amplitudes are trajectories; draw()
    then gives (rows, 1).  A row whose norm^2 sum(|psi|^2 f^2) dx is zero,
    subnormal or non-finite raises NumericalError with .row set."""
    _check_dt(params, env, dt, grid)
    hbar, dx = params.hbar, grid.dx
    in_p = env.kind == "momentum_coupling" and env.strength > 0
    if in_p:
        a, c, weight = hbar * grid.wavenumbers, env.strength, dx / grid.n_points
    else:
        a, c, weight = grid.x, env.strength / hbar**2, dx
    k1, k2 = -2.0 * c * dt, math.sqrt(2.0 * c)

    def noise_factor(amps):
        dB = draw()
        w = abs_squared(amps)
        # row sums, not w @ a: BLAS gives a row other bits inside a block than alone
        A = a - (a * w).sum(axis=-1, keepdims=True) / w.sum(axis=-1, keepdims=True)
        f = k1 * A
        f += k2 * dB
        f *= A
        np.exp(f, out=f)
        w *= f
        w *= f
        norm2 = w.sum(axis=-1, keepdims=True) * weight
        ok = (norm2 >= _TINY) & (norm2 <= _HUGE)  # False on 0, subnormals, inf and nan
        if not ok.all():
            row = int(np.argmin(ok))  # first failing row of a batch
            raise NumericalError(f"norm^2 {float(norm2.flat[row]):.3g} after the noise factor "
                                 "is zero, subnormal or non-finite", row)
        f /= np.sqrt(norm2)
        amps *= f

    return SplitStepper(grid, params.m, hbar, dt, x_middle=None if in_p else noise_factor,
                        p_middle=noise_factor if in_p else None)


def step_trajectory(psi: WaveFunction, env: EnvironmentSpec, params: PhysicalParams,
                    dt: float, dB: float) -> WaveFunction:
    """One stochastic step of the normalized nonlinear diffusion equation under the
    Brownian increment dB.  The returned state has norm exactly 1."""
    stepper = _trajectory_stepper(psi.grid, env, params, dt, lambda: float(dB))
    return WaveFunction(psi.grid, stepper.advance(psi.values, 1), "position", params.hbar)


def wavefunction_moments(psi: WaveFunction) -> TrajectoryMoments:
    return TrajectoryMoments(0.0, *psi.moments())


# -- moment-level integration --------------------------------------------------


def moment_step(mom: TrajectoryMoments, params: PhysicalParams, env: EnvironmentSpec,
                dt: float, dB: float) -> TrajectoryMoments:
    """Euler-Maruyama step of the closed moment system under the Brownian increment
    dB.  Third central moments vanish, so only the two mean equations carry noise."""
    records = _moment_records(mom, *_second_moments(mom, params, env, dt, 1), params.m, dt,
                              np.array([[float(dB)]]), 1)
    return TrajectoryMoments(*records[0, -1].tolist())


def _second_moments(mom: TrajectoryMoments, params: PhysicalParams, env: EnvironmentSpec,
                    dt: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(second, gains) of the Euler-Maruyama moment system from mom: t, Var x, Var p and
    Cov at every step, and the (2, n_steps) dB factors of d<x> and d<p>.  They carry no
    noise and never read the means, so they step once on floats for every seed.  A
    variance that is not positive raises ClosureError, its message ending "at step k"."""
    _check_dt(params, env, dt, None)
    m, hbar, D = params.m, params.hbar, env.strength
    in_x = env.kind != "momentum_coupling"
    root = math.sqrt(8.0 * D) / hbar if in_x else math.sqrt(8.0 * D)
    t, vx, vp, c = mom.time, mom.var_x, mom.var_p, mom.cov_xp
    second = np.empty((n_steps + 1, 4))  # t, Var x, Var p, Cov at every step
    second[0] = t, vx, vp, c
    for step in range(1, n_steps + 1):
        if in_x:
            d_vx = (2.0 * c / m - 8.0 * D * (vx * vx) / hbar**2) * dt
            d_vp = (2.0 * D * (1.0 - 4.0 * (c * c) / hbar**2)) * dt
            d_c = (vp / m - 8.0 * D * vx * c / hbar**2) * dt
        else:
            d_vx = d_c = 0.0  # three-moment system: the spatial profile is frozen
            d_vp = (-8.0 * D * (vp * vp)) * dt
        vx1, vp1 = vx + d_vx, vp + d_vp
        if not (vx1 > 0 and vp1 > 0):
            damping = 8.0 * D * (vx / hbar**2 if in_x else vp)
            raise ClosureError(f"variances must stay positive (closure inconsistency) at "
                               f"step {step}", 1.0 / damping if damping > 0.0 else math.inf)
        t, vx, vp, c = second[step] = t + dt, vx1, vp1, c + d_c
    # the dB factors of d<x> and d<p>: sqrt(8D)/hbar (Var x, Cov) or sqrt(8 D_p) (Cov, Var p)
    return second, root * second[:-1, [1, 3] if in_x else [3, 2]].T


def _moment_records(mom: TrajectoryMoments, second: np.ndarray, gains: np.ndarray, m: float,
                    dt: float, dBs: np.ndarray, record_every: int) -> np.ndarray:
    """(rows, records, 6) records, as a driver's, from mom and its _second_moments under
    each row of the (rows, n_steps) increments dBs, which it overwrites.  Each mean is one
    np.add.accumulate, which adds in the Euler loop's order and so gives its bits.  A mean
    that is not finite raises NumericalError, .row its first failing row, "at step k"."""
    rows, n_steps = dBs.shape
    x, p = means = np.empty((2, rows, n_steps + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as on floats
        p[:, 0], x[:, 0] = mom.mean_p, mom.mean_x
        np.multiply(dBs, gains[1], out=p[:, 1:])
        np.add.accumulate(p, axis=1, out=p)
        np.divide(p[:, :-1], m, out=x[:, 1:])
        x[:, 1:] *= dt
        x[:, 1:] += np.multiply(dBs, gains[0], out=dBs)
        np.add.accumulate(x, axis=1, out=x)
    finite = np.isfinite(means).all(axis=0)
    if not finite.all():
        step = int(np.argmin(finite.all(axis=0)))
        raise NumericalError(f"<x> or <p> is not finite at step {step}",
                             int(np.argmin(finite[:, step])))
    kept = [*range(0, n_steps, record_every), n_steps]
    records = np.empty((rows, len(kept), 6))
    records[:, :, [0, 3, 4, 5]] = second[kept]
    records[:, :, 1], records[:, :, 2] = x[:, kept], p[:, kept]
    return records


# -- drivers --------------------------------------------------------------------
# An ensemble is one (seeds, records, 6) float array, seeds in order, with columns
# t, <x>, <p>, Var x, Var p, Cov xp at t = 0, every record_every steps and the end.


_BLOCK_ROWS = 64  # wavefunction rows stepped together; fixed, so memory does not grow with n_traj
_INCREMENT_BUDGET = 64 * 10**6  # float64 values a moment block holds: 512 MB


def _moment_block_rows(n_steps: int) -> int:
    """Seeds a moment block takes: as many as the budget holds of their (rows, n_steps)
    increments and (rows, n_steps + 1) <x> and <p>."""
    return max(1, _INCREMENT_BUDGET // (3 * n_steps + 2))


def _ensemble(seeds, n_steps: int, record_every: int) -> tuple[list, np.ndarray]:
    """(seeds as a list, their unfilled record array), after checking the arguments."""
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("need at least one seed")
    if record_every < 1:
        raise ConfigError("record_every must be >= 1")
    return seeds, np.empty((len(seeds), 1 + -(-n_steps // record_every), 6))


def _block_increments(block: list, n_steps: int, dt: float) -> np.ndarray:
    """(rows, n_steps) Brownian increments: row r is seed block[r]'s stream."""
    return np.array([NoiseStream(seed).increments(0, n_steps, dt) for seed in block])


def _recentre(vals: np.ndarray, mean_x, grid: SpatialGrid) -> tuple[np.ndarray, np.ndarray]:
    """(rolled, shift): each row of vals rolled by the whole number of cells, shift, that
    brings its mean_x nearest the grid's centre cell.  On the periodic grid a roll is an
    exact permutation.  A mean that is not finite shifts by 0, leaving its row for the
    noise factor to report."""
    n = grid.n_points
    cells = (mean_x - grid.x_min) / grid.dx - n // 2
    shift = np.rint(np.where(np.isfinite(cells), cells, 0.0)).astype(int)
    return np.take_along_axis(vals, (np.arange(n) + shift[..., None]) % n, axis=-1), shift


def _step_block(psi: WaveFunction, env: EnvironmentSpec, params: PhysicalParams, dt: float,
                n_steps: int, record_every: int, block: list, out: np.ndarray) -> np.ndarray:
    """Step block's seeds from psi as one array, recording into out; returns the final rows,
    each in its own frame: after each record _recentre rolls every row, and the records
    add the row's offset back to <x>.  Neither the kinetic phase nor the noise factor's
    x - <x> depends on the frame, so the frames move only roundoff."""
    grid, hbar, edge = psi.grid, params.hbar, psi.grid.n_points // 16
    dBs = iter(_block_increments(block, n_steps, dt).T[..., None])
    stepper = _trajectory_stepper(grid, env, params, dt, dBs.__next__)
    vals = np.tile(psi.values, (len(block), 1))  # C order: row sums as for one row
    step, offset = 0, np.zeros(len(block), dtype=int)  # each row's frame, in cells
    for j in range(out.shape[1]):
        if j:
            chunk = min(record_every, n_steps - step)
            try:
                vals = stepper.advance(vals, chunk)
            except NumericalError as exc:
                # each step draws its increments first, so the draws taken count it
                raise NumericalError(f"{exc} for seed {block[exc.row]} at step "
                                     f"{n_steps - length_hint(dBs)}") from exc
            step += chunk
        rho = abs_squared(vals)
        mass = (rho[:, :edge].sum(-1) + rho[:, rho.shape[-1] - edge:].sum(-1)) / rho.sum(-1)
        if mass.max() > 1e-5:  # the packet is about to wrap around the periodic grid
            row = int(np.argmax(mass))
            raise GridTooNarrowError(f"seed {block[row]} holds probability "
                                     f"{mass[row]:.3g} in the outer 1/16 of the grid "
                                     f"at t = {step * dt:.6g}")
        out[:, j, 0] = step * dt
        out[:, j, 1:] = position_moments(vals, grid, hbar)
        vals, shift = _recentre(vals, out[:, j, 1], grid)
        out[:, j, 1] += offset * grid.dx
        offset += shift
    return vals


def run_wavefunction_ensemble(psi0: WaveFunction, env: EnvironmentSpec, params: PhysicalParams,
                              dt: float, n_steps: int, seeds, record_every: int = 1,
                              workers: int = 1) -> np.ndarray:
    """Records of one trajectory per seed: the rows of one array, stepped in blocks
    of 64 with the steps between records fused and the moments of a block taken in
    one call per record.  The noise factor is real and applied once per step, with
    the norm from sum |psi|^2 f^2, and every sum runs along a C-ordered row, not
    through BLAS: each row equals its seed's run alone, bit for bit, and within
    2.2e-13 of a column's peak of the direct complex-factor form, however
    slices.split splits the seeds over workers.  After each record a row rolls by
    whole cells, so that its <x> sits at the grid's centre cell, and its records add
    the offset back: the grid holds one packet, not its center's walk.
    Raises GridTooNarrowError when a record holds more than 1e-5 of a row's
    probability in the outer 1/16 of its frame on either side, and NumericalError
    naming the seed and step when a row's norm^2 is zero, subnormal or non-finite."""
    seeds, records = _ensemble(seeds, n_steps, record_every)
    psi = psi0.normalized()

    def run(lo: int, hi: int) -> None:  # fills rows lo:hi of records
        for first in range(lo, hi, _BLOCK_ROWS):
            last = min(first + _BLOCK_ROWS, hi)
            _step_block(psi, env, params, dt, n_steps, record_every, seeds[first:last],
                        records[first:last])

    slices.split(run, len(seeds), workers, (records,))
    return records


def run_moment_ensemble(mom0: TrajectoryMoments, env: EnvironmentSpec, params: PhysicalParams,
                        dt: float, n_steps: int, seeds, record_every: int = 1) -> np.ndarray:
    """Records of one moment trajectory per seed, all starting from mom0: one
    _second_moments run, then _moment_records one block of seeds at a time.  A block takes
    64e6 // (3 n_steps + 2) seeds, so that its increments and means hold at most 64e6
    values: 21,319 seeds at the CLI's default of 1000 steps, 21 at its cap of 10^6
    steps.  Each row equals its seed's run alone bit for bit.  A ClosureError or
    NumericalError names the failing seed and its step: a variance fails at the same
    step for every seed, so it names the first seed; a mean names the first
    failing seed at the earliest failing step."""
    seeds, records = _ensemble(seeds, n_steps, record_every)
    rows, first = _moment_block_rows(n_steps), 0
    try:
        second = _second_moments(mom0, params, env, dt, n_steps)
        for first in range(0, len(seeds), rows):
            dBs = _block_increments(seeds[first:first + rows], n_steps, dt)
            records[first:first + len(dBs)] = _moment_records(mom0, *second, params.m, dt,
                                                              dBs, record_every)
    except NumericalError as exc:  # name the row's seed before the step
        reason, _, step = str(exc).rpartition(" at step ")
        exc.args = (f"{reason} for seed {seeds[first + exc.row]} at step {step}",)
        raise
    return records


@dataclass(frozen=True)
class FluctuationReport:
    """Decomposition of the ensemble momentum spread and its fitted growth."""

    times: np.ndarray
    stochastic_var_p: np.ndarray
    mean_quantum_var_p: np.ndarray
    total: np.ndarray
    fit_window: tuple[float, float]
    fitted_rate: float
    n_seeds: int


MIN_SEEDS = 64  # fewest seeds that fluctuation_report fits a growth rate to


def fluctuation_report(records, fit_window: tuple[float, float]) -> FluctuationReport:
    """Split the ensemble momentum spread into Var_seeds(<p>) + mean Var(p).

    ``records`` is a driver's (seeds, records, 6) array.  The total fluctuation
    growth rate is fitted by least squares over fit_window; for position
    coupling with no barrier the continuum rate is exactly 2D, for momentum
    coupling it vanishes.
    """
    n = len(records)
    if n < MIN_SEEDS:
        raise ConfigError(f"need at least {MIN_SEEDS} seeds, got {n}")
    times = records[0, :, 0]
    stoch = np.var(records[:, :, 2], axis=0, ddof=1)
    quantum = np.mean(records[:, :, 4], axis=0)
    total = stoch + quantum
    lo, hi = fit_window
    sel = (times >= lo) & (times <= hi)
    if np.sum(sel) < 2:
        raise ConfigError(f"fit window [{lo:g}, {hi:g}] holds fewer than two record times")
    rate = float(np.polyfit(times[sel], total[sel], 1)[0])
    return FluctuationReport(times=times, stochastic_var_p=stoch,
                             mean_quantum_var_p=quantum, total=total,
                             fit_window=fit_window, fitted_rate=rate, n_seeds=n)
