"""Tiny hand-rolled SVG chart primitives for report figures.

Only what the reports need: line charts with optional shaded bands,
scatter plots, and grouped box plots, all on a simple linear-axes frame
with ticks and a legend.  Output is deterministic for fixed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf"]

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62, 16, 30, 46


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    raw = (hi - lo) / target
    mag = 10 ** math.floor(math.log10(raw))
    step = min((s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw),
               default=raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12:
        out.append(round(t, 12))
        t += step
    return out


def _fmt(x: float) -> str:
    return f"{x:.6g}"


@dataclass
class Figure:
    """One chart; add series then render to an SVG string."""

    title: str
    x_label: str
    y_label: str
    _series: list = field(default_factory=list)

    def add_line(self, xs, ys, label: str = "", band_low=None, band_high=None):
        self._series.append(("line", list(xs), list(ys), label, band_low, band_high))

    def add_scatter(self, xs, ys, label: str = ""):
        self._series.append(("scatter", list(xs), list(ys), label, None, None))

    def add_box(self, position, quartiles, label: str = ""):
        """Box from (min, q1, median, q3, max) at an x position."""
        self._series.append(("box", [position], list(quartiles), label, None, None))

    def _bounds(self):
        xs, ys = [], []
        for kind, sx, sy, _, lo, hi in self._series:
            xs.extend(v for v in sx if v is not None)
            if kind == "box":
                ys.extend(sy)
            else:
                ys.extend(v for v in sy if v is not None)
            for band in (lo, hi):
                if band is not None:
                    ys.extend(band)
        if not xs or not ys:
            return 0.0, 1.0, 0.0, 1.0
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 == y0:
            y0, y1 = y0 - 0.5, y1 + 0.5
        pad = 0.04 * (y1 - y0)
        return x0, x1, y0 - pad, y1 + pad

    def render(self) -> str:
        x0, x1, y0, y1 = self._bounds()
        plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
        plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

        def px(x):
            return _MARGIN_L + (x - x0) / (x1 - x0) * plot_w

        def py(y):
            return _MARGIN_T + (y1 - y) / (y1 - y0) * plot_h

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" font-family="sans-serif" font-size="11">',
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
            f'<text x="{_WIDTH/2:.1f}" y="18" text-anchor="middle" '
            f'font-size="13">{self.title}</text>',
            f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
            f'height="{plot_h}" fill="none" stroke="#444"/>',
        ]
        for t in _ticks(x0, x1):
            if x0 <= t <= x1:
                parts.append(f'<line x1="{px(t):.1f}" y1="{py(y0):.1f}" '
                             f'x2="{px(t):.1f}" y2="{py(y0)+4:.1f}" stroke="#444"/>')
                parts.append(f'<text x="{px(t):.1f}" y="{py(y0)+16:.1f}" '
                             f'text-anchor="middle">{_fmt(t)}</text>')
        for t in _ticks(y0, y1):
            if y0 <= t <= y1:
                parts.append(f'<line x1="{_MARGIN_L-4}" y1="{py(t):.1f}" '
                             f'x2="{_MARGIN_L}" y2="{py(t):.1f}" stroke="#444"/>')
                parts.append(f'<text x="{_MARGIN_L-7}" y="{py(t)+3:.1f}" '
                             f'text-anchor="end">{_fmt(t)}</text>')
        parts.append(f'<text x="{_WIDTH/2:.1f}" y="{_HEIGHT-8}" '
                     f'text-anchor="middle">{self.x_label}</text>')
        parts.append(f'<text x="14" y="{_HEIGHT/2:.1f}" text-anchor="middle" '
                     f'transform="rotate(-90 14 {_HEIGHT/2:.1f})">{self.y_label}</text>')

        legend_y = _MARGIN_T + 8
        for i, (kind, sx, sy, label, lo, hi) in enumerate(self._series):
            color = PALETTE[i % len(PALETTE)]
            if kind == "line":
                if lo is not None and hi is not None:
                    upper = " ".join(f"{px(x):.1f},{py(h):.1f}" for x, h in zip(sx, hi))
                    lower = " ".join(
                        f"{px(x):.1f},{py(l):.1f}" for x, l in zip(reversed(sx), reversed(lo))
                    )
                    parts.append(f'<polygon points="{upper} {lower}" fill="{color}" '
                                 f'opacity="0.15" stroke="none"/>')
                points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(sx, sy))
                parts.append(f'<polyline points="{points}" fill="none" '
                             f'stroke="{color}" stroke-width="1.6"/>')
            elif kind == "scatter":
                for x, y in zip(sx, sy):
                    parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3.2" '
                                 f'fill="{color}" opacity="0.85"/>')
            else:  # box
                pos = sx[0]
                wmin, q1, med, q3, wmax = sy
                half = 0.28
                parts.append(f'<line x1="{px(pos):.1f}" y1="{py(wmin):.1f}" '
                             f'x2="{px(pos):.1f}" y2="{py(wmax):.1f}" stroke="{color}"/>')
                parts.append(f'<rect x="{px(pos-half):.1f}" y="{py(q3):.1f}" '
                             f'width="{px(pos+half)-px(pos-half):.1f}" '
                             f'height="{py(q1)-py(q3):.1f}" fill="{color}" '
                             f'opacity="0.35" stroke="{color}"/>')
                parts.append(f'<line x1="{px(pos-half):.1f}" y1="{py(med):.1f}" '
                             f'x2="{px(pos+half):.1f}" y2="{py(med):.1f}" '
                             f'stroke="{color}" stroke-width="2"/>')
            if label:
                parts.append(f'<rect x="{_WIDTH-_MARGIN_R-130}" y="{legend_y-8}" '
                             f'width="14" height="8" fill="{color}"/>')
                parts.append(f'<text x="{_WIDTH-_MARGIN_R-112}" y="{legend_y}">'
                             f'{label}</text>')
                legend_y += 15
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
