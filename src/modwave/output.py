"""Deterministic file output: CSV, JSON summaries, SVG level curves.

CSV cells hold shortest round-trip decimals, LF line endings, UTF-8;
JSON is emitted with sorted keys.  Identical configurations therefore
produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from .errors import InvalidArgument

#: size of the level-curve SVG, in pixels
SVG_WIDTH, SVG_HEIGHT = 640, 480


def format_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip decimal
    if value is None:
        return ""
    return str(value)


def _format_column(column: tuple) -> Iterable[str]:
    if set(map(type, column)) == {float}:
        return map(repr, column)  # format_cell's float branch, one call per cell
    return map(format_cell, column)


def csv_text(header: Sequence[str], rows: Iterable[Sequence],
             preamble: Sequence[str] = ()) -> str:
    """Preamble lines as ``# `` comments, then header and rows as CSV text,
    formatted column by column."""
    columns = map(_format_column, zip(*rows))
    lines = map(",".join, zip(*columns))
    return "\n".join([*(f"# {line}" for line in preamble), ",".join(header), *lines]) + "\n"


def write_text(path: str, text: str) -> None:
    """The one way a file is written: UTF-8 with LF line endings.  A path
    that cannot be written is refused as an InvalidArgument."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidArgument(f"cannot write {path}: {exc.strerror}") from exc


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence],
              preamble: Sequence[str] = ()) -> None:
    write_text(path, csv_text(header, rows, preamble))


def write_json(path: str, payload) -> None:
    write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def svg_level_curves(
    curves: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    x_label: str,
    y_label: str,
) -> str:
    """Plain-text SVG with one polyline per named curve.

    Axis ranges cover the data with a small margin; no external renderer
    is involved, the caller just writes the returned text.
    """
    width, height = SVG_WIDTH, SVG_HEIGHT
    pts = [p for _, curve in curves for p in curve]
    if not pts:
        xs, ys = (0.0, 1.0), (0.0, 1.0)
    else:
        xs = (min(p[0] for p in pts), max(p[0] for p in pts))
        ys = (min(p[1] for p in pts), max(p[1] for p in pts))
    dx = (xs[1] - xs[0]) or 1.0
    dy = (ys[1] - ys[0]) or 1.0
    pad = 50

    def sx(x: float) -> float:
        return pad + (x - xs[0]) / dx * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - ys[0]) / dy * (height - 2 * pad)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">{x_label}</text>',
        f'<text x="14" y="{height // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height // 2})">{y_label}</text>',
        f'<text x="{pad}" y="{height - pad + 16}" font-size="11" '
        f'text-anchor="middle">{xs[0]:.3g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 16}" font-size="11" '
        f'text-anchor="middle">{xs[1]:.3g}</text>',
        f'<text x="{pad - 6}" y="{height - pad}" font-size="11" '
        f'text-anchor="end">{ys[0]:.3g}</text>',
        f'<text x="{pad - 6}" y="{pad + 4}" font-size="11" '
        f'text-anchor="end">{ys[1]:.3g}</text>',
    ]
    for i, (label, curve) in enumerate(curves):
        if not curve:
            continue
        color = colors[i % len(colors)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in curve)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        lx, ly = curve[len(curve) // 2]
        parts.append(
            f'<text x="{sx(lx) + 6:.2f}" y="{sy(ly) - 6:.2f}" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

