"""Minimal native SVG line plots.

Plots are derived views over data that is always also written as CSV, so
this stays deliberately small: polyline series, optional shaded bands,
linear or log-log axes with a handful of ticks.  No plotting dependency.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError

_PALETTE = ("#1f6fb2", "#c44e52", "#2e8b57", "#8172b2", "#b8860b", "#4c4c4c")

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 56


def escape(text: str) -> str:
    """``xml.sax.saxutils.escape`` without its import chain (``urllib``, ``ssl``, ...)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _transform(values: np.ndarray, log: bool) -> np.ndarray:
    if not log:
        return values
    if np.any(values <= 0.0):
        raise ConfigError("log-scale plot requires strictly positive data")
    return np.log10(values)


def _tick_label(value: float, log: bool) -> str:
    shown = 10.0**value if log else value
    return f"{shown:.3g}"


class _Canvas:
    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        if self.x_hi <= self.x_lo:
            self.x_hi = self.x_lo + 1.0
        if self.y_hi <= self.y_lo:
            self.y_hi = self.y_lo + 1.0

    def x(self, v):
        span = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
        return _MARGIN_LEFT + span * (v - self.x_lo) / (self.x_hi - self.x_lo)

    def y(self, v):
        span = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
        return _HEIGHT - _MARGIN_BOTTOM - span * (v - self.y_lo) / (self.y_hi - self.y_lo)


def _polyline_points(canvas: _Canvas, xs: np.ndarray, ys: np.ndarray) -> str:
    """``"x,y x,y ..."`` to two decimals: one template over the interleaved floats."""
    points = np.empty(2 * xs.size)
    points[0::2], points[1::2] = canvas.x(xs), canvas.y(ys)
    return (("%.2f,%.2f " * xs.size) % tuple(points.tolist()))[:-1]


def line_plot(
    series: Sequence,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    loglog: bool = False,
    bands: Optional[Sequence] = None,
) -> str:
    """The SVG text of a line plot.

    ``series`` is a sequence of ``(x, y, label)`` triples; ``bands`` an
    optional sequence of ``(x, y_low, y_high, label)`` shaded regions drawn
    behind the lines.
    """
    if not series:
        raise ConfigError("plot needs at least one series")

    prepared = []
    for x, y, label in series:
        xs = _transform(np.asarray(x, dtype=float), loglog)
        ys = _transform(np.asarray(y, dtype=float), loglog)
        if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
            raise ConfigError(f"series {label!r} needs matching 1-d data")
        prepared.append((xs, ys, label))

    prepared_bands = []
    for x, y_lo, y_hi, label in bands or ():
        xs = _transform(np.asarray(x, dtype=float), loglog)
        prepared_bands.append(
            (
                xs,
                _transform(np.asarray(y_lo, dtype=float), loglog),
                _transform(np.asarray(y_hi, dtype=float), loglog),
                label,
            )
        )

    all_x = np.concatenate([p[0] for p in prepared] + [b[0] for b in prepared_bands])
    all_y = np.concatenate(
        [p[1] for p in prepared]
        + [np.concatenate((b[1], b[2])) for b in prepared_bands]
    )
    canvas = _Canvas(
        float(np.min(all_x)), float(np.max(all_x)), float(np.min(all_y)), float(np.max(all_y))
    )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]

    for xs, y_lo, y_hi, label in prepared_bands:
        forward = _polyline_points(canvas, xs, y_hi)
        backward = _polyline_points(canvas, xs[::-1], y_lo[::-1])
        parts.append(
            f'<polygon points="{forward} {backward}" fill="#9aa7b1" '
            f'fill-opacity="0.25" stroke="none"><title>{escape(label)}</title></polygon>'
        )

    # axes box and ticks
    x0, x1 = canvas.x(canvas.x_lo), canvas.x(canvas.x_hi)
    y0, y1 = canvas.y(canvas.y_lo), canvas.y(canvas.y_hi)
    parts.append(
        f'<rect x="{x0:.2f}" y="{y1:.2f}" width="{x1 - x0:.2f}" height="{y0 - y1:.2f}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for tick in np.linspace(canvas.x_lo, canvas.x_hi, 5):
        px = canvas.x(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{y0:.2f}" x2="{px:.2f}" y2="{y0 + 5:.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 20:.2f}" font-family="monospace" font-size="11" '
            f'text-anchor="middle">{_tick_label(tick, loglog)}</text>'
        )
    for tick in np.linspace(canvas.y_lo, canvas.y_hi, 5):
        py = canvas.y(tick)
        parts.append(
            f'<line x1="{x0 - 5:.2f}" y1="{py:.2f}" x2="{x0:.2f}" y2="{py:.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{py + 4:.2f}" font-family="monospace" font-size="11" '
            f'text-anchor="end">{_tick_label(tick, loglog)}</text>'
        )

    for i, (xs, ys, label) in enumerate(prepared):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(
            f'<polyline points="{_polyline_points(canvas, xs, ys)}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"><title>{escape(label)}</title></polyline>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_RIGHT - 8}" y="{_MARGIN_TOP + 16 * (i + 1)}" '
            f'font-family="monospace" font-size="12" text-anchor="end" '
            f'fill="{color}">{escape(label)}</text>'
        )

    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="24" font-family="monospace" font-size="14" '
            f'text-anchor="middle">{escape(title)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{(x0 + x1) / 2:.0f}" y="{_HEIGHT - 12}" font-family="monospace" '
            f'font-size="12" text-anchor="middle">{escape(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{(y0 + y1) / 2:.0f}" font-family="monospace" font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 16 {(y0 + y1) / 2:.0f})">'
            f"{escape(ylabel)}</text>"
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
