"""Minimal dependency-free SVG emitters for line and bar charts.

Output is plain text, deterministic for identical inputs, so rendered plots
can be diffed in tests.
"""

from __future__ import annotations

import math

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 60, 20, 30, 50


def _scale(value, lo, hi, out_lo, out_hi):
    if hi == lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def _axes(title, x_label, y_label, x_lo, x_hi, y_lo, y_hi):
    parts = []
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333"/>'
    )
    parts.append(
        f'<text x="{_W / 2:.0f}" y="18" text-anchor="middle" '
        f'font-size="14">{title}</text>'
    )
    parts.append(
        f'<text x="{_W / 2:.0f}" y="{_H - 10}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_H / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_H / 2:.0f})">{y_label}</text>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp = _scale(xv, x_lo, x_hi, _ML, _W - _MR)
        yp = _scale(yv, y_lo, y_hi, _H - _MB, _MT)
        parts.append(
            f'<text x="{xp:.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-size="10">{xv:.2g}</text>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{yp:.1f}" text-anchor="end" '
            f'font-size="10">{yv:.3g}</text>'
        )
    return parts


def line_chart(series: dict[str, list[tuple[float, float]]], title: str = "",
               x_label: str = "", y_label: str = "") -> str:
    """Render named (x, y) series as an SVG line chart."""
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">']
    parts += _axes(title, x_label, y_label, x_lo, x_hi, y_lo, y_hi)
    for i, (name, pts) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(
            f"{_scale(x, x_lo, x_hi, _ML, _W - _MR):.2f},"
            f"{_scale(y, y_lo, y_hi, _H - _MB, _MT):.2f}"
            for x, y in pts
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        yp = _MT + 16 + 16 * i
        parts.append(
            f'<line x1="{_W - _MR - 130}" y1="{yp}" x2="{_W - _MR - 105}" '
            f'y2="{yp}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 100}" y="{yp + 4}" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def bar_chart(groups: list[str], series: dict[str, list[float]],
              title: str = "", y_label: str = "") -> str:
    """Grouped vertical bars: one cluster per group, one bar per series.
    A NaN value gets no bar."""
    vals = [v for vs in series.values() for v in vs if not math.isnan(v)]
    y_lo = min([0.0, *vals])
    y_hi = max(vals) * 1.05 if vals and max(vals) > 0 else 1.0

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">']
    parts += _axes(title, "", y_label, 0, max(len(groups), 1), y_lo, y_hi)
    n_series = max(len(series), 1)
    span = (_W - _ML - _MR) / max(len(groups), 1)
    bar_w = span * 0.8 / n_series
    y0 = _scale(0.0, y_lo, y_hi, _H - _MB, _MT)
    for gi, group in enumerate(groups):
        gx = _ML + gi * span + span * 0.1
        parts.append(
            f'<text x="{gx + span * 0.4:.1f}" y="{_H - _MB + 28}" '
            f'text-anchor="middle" font-size="10">{group}</text>'
        )
        for si, (name, vs) in enumerate(series.items()):
            if math.isnan(vs[gi]):
                continue
            color = _PALETTE[si % len(_PALETTE)]
            yp = _scale(vs[gi], y_lo, y_hi, _H - _MB, _MT)
            top, height = min(yp, y0), abs(yp - y0)
            parts.append(
                f'<rect x="{gx + si * bar_w:.1f}" y="{top:.1f}" '
                f'width="{bar_w * 0.9:.1f}" height="{height:.1f}" '
                f'fill="{color}"/>'
            )
    for si, name in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        yp = _MT + 16 + 16 * si
        parts.append(
            f'<rect x="{_W - _MR - 130}" y="{yp - 8}" width="20" height="10" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 104}" y="{yp + 1}" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
