"""Minimal deterministic SVG line plots (no plotting dependency).

CSV files remain the authoritative outputs; these renderings are quick-look
companions: axes box, linear or log-x polylines, small legend.
"""

from __future__ import annotations

import math

from .errors import ConfigError

_WIDTH, _HEIGHT = 720, 480
_MARGIN = 60.0
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def line_plot(
    series: list[tuple[str, list[float], list[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
    logx: bool = False,
) -> str:
    """Render [(label, xs, ys), ...] to an SVG 1.1 document string."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ConfigError("nothing to plot")
    fx = (lambda v: math.log10(v)) if logx else (lambda v: v)
    x_lo, x_hi = min(map(fx, xs_all)), max(map(fx, xs_all))
    y_lo, y_hi = min(ys_all), max(ys_all)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    w = _WIDTH - 2 * _MARGIN
    h = _HEIGHT - 2 * _MARGIN

    def sx(v):
        return _MARGIN + (fx(v) - x_lo) / (x_hi - x_lo or 1.0) * w

    def sy(v):
        return _HEIGHT - _MARGIN - (v - y_lo) / (y_hi - y_lo) * h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{w}" height="{h}" '
        'fill="none" stroke="black"/>',
        f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="15">{title}</text>',
        f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{xlabel}</text>',
        f'<text x="16" y="{_HEIGHT / 2}" text-anchor="middle" font-family="monospace" '
        f'font-size="13" transform="rotate(-90 16 {_HEIGHT / 2})">{ylabel}</text>',
    ]
    if logx:
        lo_exp, hi_exp = math.floor(x_lo), math.ceil(x_hi)
        xticks = [10.0**e for e in range(int(lo_exp), int(hi_exp) + 1)]
        xtick_pairs = [(v, f"1e{int(math.log10(v))}") for v in xticks if x_lo <= fx(v) <= x_hi]
    else:
        xtick_pairs = [(v, f"{v:g}") for v in _ticks(x_lo, x_hi)]
    for v, label in xtick_pairs:
        px = sx(v)
        parts.append(f'<line x1="{px:.2f}" y1="{_HEIGHT - _MARGIN}" x2="{px:.2f}" '
                     f'y2="{_HEIGHT - _MARGIN + 6}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{_HEIGHT - _MARGIN + 20}" text-anchor="middle" '
                     f'font-family="monospace" font-size="11">{label}</text>')
    for v in _ticks(y_lo, y_hi):
        py = sy(v)
        parts.append(f'<line x1="{_MARGIN - 6}" y1="{py:.2f}" x2="{_MARGIN}" '
                     f'y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN - 10}" y="{py + 4:.2f}" text-anchor="end" '
                     f'font-family="monospace" font-size="11">{v:.3g}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = _MARGIN + 16 + 16 * i
        parts.append(f'<line x1="{_WIDTH - _MARGIN - 150}" y1="{ly - 4}" '
                     f'x2="{_WIDTH - _MARGIN - 120}" y2="{ly - 4}" stroke="{color}" '
                     'stroke-width="2"/>')
        parts.append(f'<text x="{_WIDTH - _MARGIN - 112}" y="{ly}" font-family="monospace" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
