"""Panel quadrature for oscillatory integrals with decaying envelopes.

The reflected-norm kernels all reduce to integrals of the form

    I = int_0^U  env(s) * cos(omega s) ds

where env is smooth and decays on a known scale while the cosine oscillates on
the scale pi/|omega| (a complex env stands for Re[env(s) e^(-i omega s)]); the
two scales can differ by orders of magnitude.  One call integrates a whole grid
of such integrals, one per momentum point, on 24-node Gauss-Legendre panels
laid end to end.

A point's panels share one half-width h in each round (its first-pass width,
halved at every bisection), so the phase at node j of panel k splits as
e^(-i omega mid_k) e^(-i omega h x_j): every round takes two trig calls per
panel plus a per-point table of w_j h e^(-i omega h x_j), in place of one
cosine per node.

Two limits set the first-pass panel width.  The phase cap keeps omega * h at
or below 10 pi, where one panel integrates cos times any degree <= 10
polynomial to within a few 1e-15 of sum w |f| (a test pins this), so the
cosine is resolved by construction.  The envelope cap, 0.25 * scale, is only
a starting guess: the error estimate below checks it at run time.  Gauss rules
converge geometrically on analytic envelopes, so a coarse first pass that the
estimate bisects where it falls short costs the fewest panels: 0.125 evaluated
1.3 to 1.9 times as many for the same results (figures 4 and 5, the benchmark's
model1 sweep), while 0.5 saved under 3% of them, as refinement took the rest
back, in 1.5 to 1.8 times as many rounds.  A caller whose envelope varies faster
than its support passes a smaller scale.

The error estimate uses the panel's own nodes and costs no extra envelope
evaluation: the last two Legendre coefficients c22, c23 of the 24-node
envelope interpolant measure how far the envelope is from being resolved.  A
panel with |c22| + |c23| above 1e-13 of its point's envelope peak max |env| is
bisected and both halves are evaluated again.

One call runs one loop of rounds over all of its points.  Round r holds every
panel still unresolved, in point order, and is evaluated in consecutive slices
of at most 2^13 nodes.  Each slice builds phase tables for its own points only
and hands back per-panel values: sums, error estimates and, in the first pass,
each point's peak.  The envelope sees one slice at a time, as nodes of shape
(panels, 24) and one point index per panel, so the slices bound a call's
memory.  At 2^13 nodes a slice's largest arrays, complex (341, 24) envelopes
and phase tables, stay under 128 KiB, glibc's default mmap threshold, so they
reuse freed heap memory instead of faulting in fresh pages.  A panel
that still fails after 12 rounds raises QuadratureError, as does a call that
would evaluate more than 400,000 panels in all (first pass and refinement),
which bounds its run time, or a point whose first pass needs more than 2^15
panels.  The only truncation left is the explicit envelope tail cutoff of
decay_cutoff.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import QreflectError, QuadratureError

_GL_ORDER = 24
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
# panel values f -> (c22, c23), the top Legendre coefficients of their
# interpolant: c_k = (2k + 1)/2 sum_j w_j P_k(x_j) f_j, exact at this order; one
# row per k, for an einsum whose sums do not depend on how many panels it holds
_TAIL_COEFFS = (np.array([[22.5], [23.5]]) * _GL_WEIGHTS
                * np.polynomial.legendre.legvander(_GL_NODES, _GL_ORDER - 1)[:, -2:].T)

# largest phase omega * h across one first-pass panel
_PHASE_CAP = 10.0 * math.pi
# largest first-pass panel width, as a fraction of the envelope scale
_ENVELOPE_CAP = 0.25
# |c22| + |c23| allowed per panel, relative to the point's envelope peak
_TOLERANCE = 1e-13
_MAX_ROUNDS = 12
# each envelope call evaluates at most this many nodes (or one panel)
_CHUNK_NODES = 2**13
# panels one call may evaluate, over its first pass and every refinement round
_MAX_PANELS = 400_000
# first-pass panels one point may hold; the figures stay below 1,000
_MAX_POINT_PANELS = 2**15

# envelope values below exp(-_TAIL_LOG) of the peak are dropped
_TAIL_LOG = 41.0


def panel_nodes(a: float, b: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights tiling [a, b] with n_panels panels."""
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    weights = half[:, None] * np.broadcast_to(_GL_WEIGHTS, nodes.shape)
    return nodes.ravel(), weights.ravel()


def _panel_counts(omega: np.ndarray, upper: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """First-pass panels per point, as floats: width min(10 pi/|omega|, 0.25 scale,
    upper); none where upper <= 0.  A subnormal omega or scale overflows to inf, which
    the minimum or the caller's panel limits handle."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h = np.minimum(np.minimum(_PHASE_CAP / np.abs(omega), _ENVELOPE_CAP * scale), upper)
        return np.where(upper > 0.0, np.ceil(upper / h), 0.0)


def integrate_oscillatory_batch(envelope: Callable[[np.ndarray, np.ndarray], np.ndarray],
                                omega, upper, scale) -> np.ndarray:
    """Integrate envelope(s, i) * cos(omega[i] s) over [0, upper[i]] for every i.

    ``envelope(s, i)`` receives the nodes s of a run of panels, shape
    (panels, 24), and i, shape (panels, 1), the index of each panel's point,
    and returns values that broadcast to (panels, 24) (complex values f
    integrate Re[f e^(-i omega s)]).  ``scale[i]`` is the s-scale on which
    point i's envelope varies (decay scale or domain length); it sizes the
    first pass, and the run-time estimate of the module docstring refines every
    panel it does not resolve.  One loop of rounds serves all points: each
    round holds every unresolved panel in point order and is evaluated in
    slices of at most _CHUNK_NODES nodes, which bound the call's memory.  Every
    panel takes its phase from two trig calls per panel and a per-point table,
    not from one cosine per node.  A point with upper <= 0 integrates to 0; a
    non-finite upper raises QuadratureError.
    """
    omega, upper, scale = (np.ravel(v) for v in np.broadcast_arrays(
        *(np.asarray(v, float) for v in (omega, upper, scale))))
    if not np.all(np.isfinite(upper) | (upper <= 0.0)):
        raise QuadratureError("upper limit must be finite (apply a tail cutoff first)")
    n = _panel_counts(omega, upper, scale)
    # checked in floats, since a count can overflow an int
    if not (np.sum(n) <= _MAX_PANELS and np.all(n <= _MAX_POINT_PANELS)):
        raise QuadratureError(
            f"oscillatory integral needs {np.max(n):.6g} panels for one point and "
            f"{np.sum(n):.6g} in all (at most {_MAX_POINT_PANELS} and {_MAX_PANELS}); "
            "omega and the envelope scale are too disparate"
        )
    n = n.astype(np.int64)
    out = np.zeros(upper.shape)
    live = np.flatnonzero(n)
    if live.size:
        out[live] = _integrate_points(envelope, live, omega[live], upper[live], n[live])
    return out


def _integrate_points(envelope, idx, omega, upper, n):
    """Integrals of the points idx, each with n >= 1 first-pass panels."""
    point = np.repeat(np.arange(idx.size), n)
    k = np.arange(point.size) - np.repeat(np.cumsum(n) - n, n)
    a = upper[point] * k / n[point]
    b = upper[point] * (k + 1) / n[point]
    h = 0.5 * upper / n  # all of a point's panels in one round share one half-width
    spare = _MAX_PANELS - point.size
    total = np.zeros(idx.size)
    peak = None
    for _ in range(_MAX_ROUNDS + 1):
        mid = 0.5 * (a + b)
        value, tail, first_peak = _evaluate_round(envelope, idx, omega, h, mid, point,
                                                  peak is None)
        if peak is None:
            peak = first_peak
        bad = tail > _TOLERANCE * peak[point]
        total += np.bincount(point, weights=np.where(bad, 0.0, value), minlength=idx.size)
        if not bad.any():
            return total
        spare -= 2 * int(np.count_nonzero(bad))
        if spare < 0:
            raise QuadratureError(
                f"oscillatory integral: refinement needs more than {_MAX_PANELS} panels "
                f"in all, near s = {a[bad][0]:.6g}")
        lo, mid, hi, point = a[bad], mid[bad], b[bad], np.repeat(point[bad], 2)
        a, b = np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()
        h = 0.5 * h
    raise QuadratureError(
        f"oscillatory integral: {point.size // 2} panel(s) still unresolved after "
        f"{_MAX_ROUNDS} bisections, near s = {a[0]:.6g}"
    )


def _evaluate_round(envelope, idx, omega, h, mid, point, first: bool):
    """One round's panels (midpoints mid, points point in nondecreasing order),
    evaluated in slices of at most _CHUNK_NODES nodes: each panel's sum and
    |c22| + |c23|, and in the first pass, where every point holds panels, each
    point's envelope peak (else None)."""
    value, tail = np.empty(mid.size), np.empty(mid.size)
    peak = np.zeros(idx.size) if first else None
    step = max(1, _CHUNK_NODES // _GL_ORDER)
    for start in range(0, mid.size, step):
        part = slice(start, start + step)
        pt = point[part]
        lo, hi = pt[0], pt[-1] + 1  # a slice's points are contiguous: tables for them only
        s = h[pt, None] * _GL_NODES
        s += mid[part, None]
        with np.errstate(all="ignore"):  # an overflowing envelope is rejected below
            f = envelope(s, idx[pt, None])
        if np.shape(f) != s.shape:
            f = np.broadcast_to(f, s.shape)
        if not np.isfinite(f).all():
            raise QuadratureError("oscillatory integral: the envelope is not finite")
        value[part] = _panel_sums(f, omega[lo:hi], h[lo:hi], mid[part], pt - lo)
        t = np.abs(np.einsum("pj,kj->pk", f, _TAIL_COEFFS))
        tail[part] = t[:, 0] + t[:, 1]
        if first:
            runs = np.searchsorted(pt, np.arange(lo, hi)) * _GL_ORDER
            np.maximum(peak[lo:hi], np.maximum.reduceat(np.abs(f).ravel(), runs),
                       out=peak[lo:hi])
    return value, tail, peak


def _panel_sums(f, omega, h, mid, point):
    """Re sum_j w_j h f_j e^(-i omega s_j) for each panel, s_j = mid + h x_j, where
    h[i] is the half-width that all of point i's panels share in this round.

    e^(-i omega s_j) = e^(-i omega mid) e^(-i omega h x_j): one cosine and one sine
    per panel, and per point a table T_j = w_j h e^(-i omega h x_j), whose
    cosines and sines the symmetric nodes x_(23-j) = -x_j halve.
    """
    wx = (omega * h)[:, None] * _GL_NODES[:_GL_ORDER // 2]
    wh = h[:, None] * _GL_WEIGHTS[:_GL_ORDER // 2]
    c, sn = wh * np.cos(wx), wh * np.sin(wx)
    # per point, the rows Re T and -Im T of its table
    table = np.concatenate([c, c[:, ::-1], sn, -sn[:, ::-1]], axis=1).reshape(-1, 2, _GL_ORDER)
    phase = omega[point] * mid
    cm, sm = np.cos(phase), np.sin(phase)
    if np.iscomplexobj(f):  # Re[(sum_j f_j T_j) e^(-i omega mid)]
        t = (table[:, 0] - 1j * table[:, 1])[point]
        return (np.einsum("pj,pj->p", f, t) * (cm - 1j * sm)).real
    dots = np.einsum("pj,pkj->pk", f, table[point])
    return cm * dots[:, 0] - sm * dots[:, 1]


def integrate_oscillatory(envelope: Callable[[np.ndarray], np.ndarray], omega: float,
                          upper: float, scale: float) -> float:
    """Integrate envelope(s) * cos(omega * s) over [0, upper].

    One point of integrate_oscillatory_batch: the first pass caps panels at
    10 pi of phase and 0.25 * scale, and the run-time error estimate splits
    every panel whose envelope it does not resolve (see the module
    docstring).  Raises QuadratureError above 32,768 first-pass panels.  The
    envelope receives nodes of shape (panels, 24).
    """
    return float(integrate_oscillatory_batch(lambda s, i: envelope(s), omega, upper, scale)[0])


def batched(run, values) -> np.ndarray:
    """run(values): one batch for a whole sweep, whose results run along axis 0.

    A batch gives each value the bits of a call of its own, so only a failure can
    tell them apart.  When the batch raises a QreflectError, run([value]) is called
    for each value in turn: the first value that fails raises the error of its own
    call, and a sweep whose batch would outgrow the panel budget still runs.
    """
    try:
        return run(values)
    except QreflectError:
        if len(values) < 2:
            raise
    return np.concatenate([run(values[k:k + 1]) for k in range(len(values))])


def squares(x):
    """x**2 elementwise, each as Python squares a float, by pow: numpy squares an
    array as x * x, which misses pow's result by an ulp for about 1 value in 1,200.
    A kernel that batches a per-value parameter squares it here, so that every value
    keeps the bits of a call of its own."""
    if np.ndim(x) == 0:
        return float(x) ** 2
    values, back = np.unique(x, return_inverse=True)
    return np.array([v**2 for v in values.tolist()])[back].reshape(np.shape(x))


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
