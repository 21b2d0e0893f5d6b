"""Panel quadrature for oscillatory integrals with decaying envelopes.

The reflected-norm kernels all reduce to integrals of the form

    I = int_0^U  env(s) * cos(omega s) ds

where env is smooth and decays on a known scale while the cosine oscillates on
the scale pi/|omega| (a complex env stands for Re[env(s) e^(-i omega s)]); the
two scales can differ by orders of magnitude.  One call integrates a whole grid
of such integrals, one per momentum point, on 24-node Gauss-Legendre panels
laid end to end.

Two limits set the first-pass panel width.  The phase cap keeps omega * h at
or below 10 pi, where one panel integrates cos times any degree <= 10
polynomial to within a few 1e-15 of sum w |f| (a test pins this), so the
cosine is resolved by construction.  The envelope cap, 0.125 * scale, is only
a starting guess: the error estimate below checks it at run time.

The error estimate uses the panel's own nodes and costs no extra envelope
evaluation: the last two Legendre coefficients c22, c23 of the 24-node
envelope interpolant measure how far the envelope is from being resolved.  A
panel with |c22| + |c23| above 1e-13 of its point's envelope peak max |env| is
bisected and both halves are evaluated again; a panel that still fails after
12 rounds raises QuadratureError, as does a call that would evaluate more than
400,000 panels in all (first pass and refinement), which bounds its run time,
or more than 2^15 for one point's first pass or in one refinement round, which
bounds its memory.  The only truncation left is the explicit envelope tail
cutoff of decay_cutoff.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_GL_ORDER = 24
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
# panel values f -> (c22, c23), the top Legendre coefficients of their
# interpolant: c_k = (2k + 1)/2 sum_j w_j P_k(x_j) f_j, exact at this order
_TAIL_COEFFS = (np.array([22.5, 23.5]) * _GL_WEIGHTS[:, None]
                * np.polynomial.legendre.legvander(_GL_NODES, _GL_ORDER - 1)[:, -2:])

# largest phase omega * h across one first-pass panel
_PHASE_CAP = 10.0 * math.pi
# largest first-pass panel width, as a fraction of the envelope scale
_ENVELOPE_CAP = 0.125
# |c22| + |c23| allowed per panel, relative to the point's envelope peak
_TOLERANCE = 1e-13
_MAX_ROUNDS = 12
# points are integrated in groups of about this many first-pass nodes
_CHUNK_NODES = 2**14
# panels one call may evaluate, over its first pass and every refinement round
_MAX_PANELS = 400_000
# panels one point's first pass or one refinement round may hold: this bounds
# memory, and the figures stay below 1,000
_MAX_ROUND_PANELS = 2**15

# envelope values below exp(-_TAIL_LOG) of the peak are dropped
_TAIL_LOG = 41.0


class QuadratureError(RuntimeError):
    """Raised when an oscillatory integral cannot be resolved as requested."""


def panel_nodes(a: float, b: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights tiling [a, b] with n_panels panels."""
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    weights = half[:, None] * np.broadcast_to(_GL_WEIGHTS, nodes.shape)
    return nodes.ravel(), weights.ravel()


def _panel_counts(omega: np.ndarray, upper: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """First-pass panels per point, as floats: width min(10 pi/|omega|, 0.125 scale,
    upper); none where upper <= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.minimum(np.minimum(_PHASE_CAP / np.abs(omega), _ENVELOPE_CAP * scale), upper)
        return np.where(upper > 0.0, np.ceil(upper / h), 0.0)


def integrate_oscillatory_batch(envelope: Callable[[np.ndarray, np.ndarray], np.ndarray],
                                omega, upper, scale) -> np.ndarray:
    """Integrate envelope(s, i) * cos(omega[i] s) over [0, upper[i]] for every i.

    ``envelope(s, i)`` receives flat node values s and, for each node, the
    index i of its point, and returns the envelope values (complex values f
    integrate Re[f e^(-i omega s)]).  ``scale[i]`` is the s-scale on which
    point i's envelope varies (decay scale or domain length); it sizes the
    first pass, and the run-time estimate of the module docstring refines every
    panel it does not resolve.  A point with upper <= 0 integrates to 0; a
    non-finite upper raises QuadratureError.
    """
    omega, upper, scale = (np.ravel(v) for v in np.broadcast_arrays(
        *(np.asarray(v, float) for v in (omega, upper, scale))))
    if not np.all(np.isfinite(upper) | (upper <= 0.0)):
        raise QuadratureError("upper limit must be finite (apply a tail cutoff first)")
    n = _panel_counts(omega, upper, scale)
    # checked in floats, since a count can overflow an int
    if not (np.sum(n) <= _MAX_PANELS and np.all(n <= _MAX_ROUND_PANELS)):
        raise QuadratureError(
            f"oscillatory integral needs {np.max(n):.6g} panels for one point and "
            f"{np.sum(n):.6g} in all (at most {_MAX_ROUND_PANELS} and {_MAX_PANELS}); "
            "omega and the envelope scale are too disparate"
        )
    n = n.astype(np.int64)
    spare = _MAX_PANELS - int(np.sum(n))
    out = np.zeros(upper.shape)
    live = np.flatnonzero(n)
    first_node = (np.cumsum(n[live]) - n[live]) * _GL_ORDER
    cuts = np.flatnonzero(np.diff(first_node // _CHUNK_NODES)) + 1
    for idx in filter(len, np.split(live, cuts)):  # no call when no point is live
        out[idx], spare = _integrate_points(envelope, idx, omega[idx], upper[idx], n[idx],
                                            spare)
    return out


def _integrate_points(envelope, idx, omega, upper, n, spare: int):
    """Integrals of the points idx (each with n >= 1 first-pass panels), and what
    is left of spare, the panels the call may still evaluate."""
    point = np.repeat(np.arange(idx.size), n)
    k = np.arange(point.size) - np.repeat(np.cumsum(n) - n, n)
    a = upper[point] * k / n[point]
    b = upper[point] * (k + 1) / n[point]
    total = np.zeros(idx.size)
    peak = None
    for _ in range(_MAX_ROUNDS + 1):
        half = 0.5 * (b - a)
        s = 0.5 * (a + b)[:, None] + half[:, None] * _GL_NODES
        with np.errstate(all="ignore"):  # an overflowing envelope is rejected below
            f = envelope(s.ravel(), np.repeat(idx[point], _GL_ORDER)).reshape(s.shape)
        if not np.all(np.isfinite(f)):
            raise QuadratureError("oscillatory integral: the envelope is not finite")
        if peak is None:  # first pass: each point's panels are contiguous
            peak = np.maximum.reduceat(np.max(np.abs(f), axis=1), np.cumsum(n) - n)
        bad = np.sum(np.abs(f @ _TAIL_COEFFS), axis=1) > _TOLERANCE * peak[point]
        phase = omega[point, None] * s
        f = (f.real * np.cos(phase) + f.imag * np.sin(phase) if np.iscomplexobj(f)
             else f * np.cos(phase))
        total += np.bincount(point, weights=np.where(bad, 0.0, half * (f @ _GL_WEIGHTS)),
                             minlength=idx.size)
        if not bad.any():
            return total, spare
        split = 2 * int(np.count_nonzero(bad))
        spare -= split
        if spare < 0 or split > _MAX_ROUND_PANELS:
            raise QuadratureError(
                f"oscillatory integral: refinement needs more than {_MAX_PANELS} panels "
                f"in all or {_MAX_ROUND_PANELS} in one round, near s = {a[bad][0]:.6g}")
        lo, hi, point = a[bad], b[bad], np.repeat(point[bad], 2)
        mid = 0.5 * (lo + hi)
        a, b = np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()
    raise QuadratureError(
        f"oscillatory integral: {point.size // 2} panel(s) still unresolved after "
        f"{_MAX_ROUNDS} bisections, near s = {a[0]:.6g}"
    )


def integrate_oscillatory(envelope: Callable[[np.ndarray], np.ndarray], omega: float,
                          upper: float, scale: float) -> float:
    """Integrate envelope(s) * cos(omega * s) over [0, upper].

    One point of integrate_oscillatory_batch: the first pass caps panels at
    10 pi of phase and 0.125 * scale, and the run-time error estimate splits
    every panel whose envelope it does not resolve (see the module
    docstring).  Raises QuadratureError above 32,768 first-pass panels.
    """
    return float(integrate_oscillatory_batch(lambda s, i: envelope(s), omega, upper, scale)[0])


def decay_cutoff(*inverse_scales):
    """Upper limit where a product of exp(-c s^k) factors reaches exp(-41).

    Each argument is a (c, k) pair for a factor exp(-c s^k); c may be an
    array, and the cutoff is then taken elementwise.  The cutoff is the
    smallest single-factor cutoff, a safe overestimate of where the product
    becomes negligible; it is inf where no c is positive.
    """
    cut = np.inf
    for c, k in inverse_scales:
        c = np.asarray(c, float)
        positive = c > 0.0
        with np.errstate(over="ignore"):  # a subnormal c decays nowhere: inf
            cut = np.minimum(cut, np.where(
                positive, (_TAIL_LOG / np.where(positive, c, 1.0)) ** (1.0 / k), np.inf))
    return float(cut) if np.ndim(cut) == 0 else cut
