"""Standalone SVG line plots, written without any external assets.

The output is a deterministic function of the input series and axes, so
repeated runs produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ShapeError

_WIDTH, _HEIGHT = 640, 440
_LEFT, _RIGHT, _TOP, _BOTTOM = 76, 24, 34, 58
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class AxesSpec:
    xlabel: str
    ylabel: str
    xlog: bool = False
    ylog: bool = False
    title: str = ""


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(round(value, 12))
        value += step
    return ticks


def _decade_ticks(lo: float, hi: float) -> list[float]:
    lo_exp = math.floor(math.log10(lo))
    hi_exp = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(lo_exp, hi_exp + 1) if lo <= 10.0 ** e <= hi * (1 + 1e-12)]


def _axis(lo: float, hi: float, log: bool) -> tuple[list[float], float, float]:
    """Ticks of an axis spanning [lo, hi] and its plotted range, in log10 on a log axis; an empty range is one unit wide."""
    if log:
        ticks, f_lo, f_hi = _decade_ticks(lo, hi), math.log10(lo), math.log10(hi)
    else:
        ticks, f_lo, f_hi = _nice_ticks(lo, hi), lo, hi
    return ticks, f_lo, f_lo + 1.0 if f_hi <= f_lo else f_hi


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_svg(series: Sequence[tuple[str, Sequence[tuple[float, float]]]], axes: AxesSpec) -> tuple[str, int]:
    """A line plot as SVG text, and the number of points it cannot place.

    ``series`` is a list of (label, [(x, y), ...]) pairs.  Points with a
    non-finite coordinate, or a non-positive one on a log axis, are dropped
    and counted rather than plotted.  The caller writes the text.
    """
    dropped = 0
    cleaned: list[tuple[str, list[tuple[float, float]]]] = []
    for label, samples in series:
        keep = []
        for x, y in samples:
            x, y = float(x), float(y)
            if not (math.isfinite(x) and math.isfinite(y)) or (axes.xlog and x <= 0.0) or (axes.ylog and y <= 0.0):
                dropped += 1
                continue
            keep.append((x, y))
        cleaned.append((str(label), keep))
    points = [p for _, samples in cleaned for p in samples]
    if not points:
        raise ShapeError("nothing to plot after dropping non-finite points and non-positive ones on log axes")

    x_lo, y_lo = min(x for x, _ in points), min(y for _, y in points)
    x_ticks, fx_lo, fx_hi = _axis(x_lo, max(x for x, _ in points), axes.xlog)
    y_ticks, fy_lo, fy_hi = _axis(y_lo, max(y for _, y in points), axes.ylog)

    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def to_px(x: float, y: float) -> tuple[float, float]:
        fx = math.log10(x) if axes.xlog else x
        fy = math.log10(y) if axes.ylog else y
        px = _LEFT + (fx - fx_lo) / (fx_hi - fx_lo) * plot_w
        py = _TOP + plot_h - (fy - fy_lo) / (fy_hi - fy_lo) * plot_h
        return px, py

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if axes.title:
        out.append(
            f'<text x="{_WIDTH / 2:.2f}" y="20" text-anchor="middle" font-size="14">{_escape(axes.title)}</text>'
        )
    # frame
    out.append(
        f'<rect x="{_LEFT}" y="{_TOP}" width="{plot_w}" height="{plot_h}" fill="none" stroke="black"/>'
    )
    for tick in x_ticks:
        px, _ = to_px(tick, y_ticks[0] if y_ticks else y_lo)
        out.append(f'<line x1="{px:.2f}" y1="{_TOP + plot_h}" x2="{px:.2f}" y2="{_TOP + plot_h + 5}" stroke="black"/>')
        out.append(f'<line x1="{px:.2f}" y1="{_TOP}" x2="{px:.2f}" y2="{_TOP + plot_h}" stroke="#dddddd"/>')
        out.append(
            f'<text x="{px:.2f}" y="{_TOP + plot_h + 18}" text-anchor="middle">{_escape(_fmt(tick))}</text>'
        )
    for tick in y_ticks:
        _, py = to_px(x_ticks[0] if x_ticks else x_lo, tick)
        out.append(f'<line x1="{_LEFT - 5}" y1="{py:.2f}" x2="{_LEFT}" y2="{py:.2f}" stroke="black"/>')
        out.append(f'<line x1="{_LEFT}" y1="{py:.2f}" x2="{_LEFT + plot_w}" y2="{py:.2f}" stroke="#dddddd"/>')
        out.append(f'<text x="{_LEFT - 8}" y="{py + 4:.2f}" text-anchor="end">{_escape(_fmt(tick))}</text>')
    out.append(
        f'<text x="{_LEFT + plot_w / 2:.2f}" y="{_HEIGHT - 16}" text-anchor="middle">{_escape(axes.xlabel)}</text>'
    )
    out.append(
        f'<text x="18" y="{_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_TOP + plot_h / 2:.2f})">{_escape(axes.ylabel)}</text>'
    )
    for idx, (label, samples) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        if samples:
            coords = " ".join("{:.2f},{:.2f}".format(*to_px(x, y)) for x, y in samples)
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _TOP + 16 + 16 * idx
        out.append(f'<line x1="{_LEFT + plot_w - 120}" y1="{ly - 4}" x2="{_LEFT + plot_w - 96}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_LEFT + plot_w - 90}" y="{ly}">{_escape(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n", dropped
