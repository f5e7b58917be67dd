"""Deterministic emission of CSV tables, JSON records, and hand-built SVG plots.

Floats are formatted with Python's shortest round-trip representation so that
identical inputs produce byte-identical files on any platform.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def fmt_value(x) -> str:
    """Shortest round-trip text for floats; plain str for everything else."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        # coerce numpy scalars so the repr is the bare shortest decimal
        return repr(float(x))
    return str(x)


def write_csv(path, header, rows) -> None:
    """Write rows of mixed scalars with fixed column order and LF newlines.

    A row that is a str is taken as the row's text, already formatted.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write((row if isinstance(row, str) else ",".join(map(fmt_value, row))) + "\n")


def json_canonical(obj) -> str:
    """Canonical JSON text: sorted keys, stable separators, repr floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(json_canonical(config).encode()).hexdigest()


class SvgPlot:
    """Tiny data-space SVG canvas (polylines, circles, grid cells, labelled axes), no dependencies."""

    #: canvas size and the margin around the plotting area, in pixels
    width = 640
    height = 480
    margin = 56

    def __init__(self, x_range, y_range):
        self.x0, self.x1 = map(float, x_range)
        self.y0, self.y1 = map(float, y_range)
        self.elements: list[str] = []

    def _px(self, x, y):
        w = self.width - 2 * self.margin
        h = self.height - 2 * self.margin
        px = self.margin + (x - self.x0) / (self.x1 - self.x0) * w
        py = self.height - self.margin - (y - self.y0) / (self.y1 - self.y0) * h
        return px, py

    def polyline(self, xs, ys, color="#1f77b4", width=1.5):
        pts = " ".join(
            f"{px:.2f},{py:.2f}" for px, py in (self._px(x, y) for x, y in zip(xs, ys))
        )
        self.elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'
        )

    def circle(self, x, y, radius_px=2.0):
        px, py = self._px(x, y)
        self.elements.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{radius_px}" fill="#d62728"/>'
        )

    def cells(self, xs, ys, dx, dy, colors):
        """dx-by-dy rects centred on the grid xs x ys, filled with colors[i][j] at (xs[i], ys[j]); xs outer.

        A rect's x and width depend only on its column and its y and height
        only on its row, so each is formatted once per column or row.
        """
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        px0, py0 = self._px(xs - dx / 2, ys + dy / 2)
        px1, py1 = self._px(xs + dx / 2, ys - dy / 2)
        columns = [(f"{x:.2f}", f"{w:.2f}") for x, w in zip(px0.tolist(), (px1 - px0).tolist())]
        rows = [(f"{y:.2f}", f"{h:.2f}") for y, h in zip(py0.tolist(), (py1 - py0).tolist())]
        self.elements.extend(
            f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{color}"/>'
            for (x, w), column_colors in zip(columns, colors)
            for (y, h), color in zip(rows, column_colors)
        )

    def axes(self, xlabel, ylabel):
        x0, y0 = self._px(self.x0, self.y0)
        x1, y1 = self._px(self.x1, self.y1)
        self.elements.append(
            f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y0:.2f}" stroke="#000" stroke-width="1"/>'
        )
        self.elements.append(
            f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}" stroke="#000" stroke-width="1"/>'
        )
        self.elements.append(
            f'<text x="{(x0 + x1) / 2:.2f}" y="{y0 + 36:.2f}" font-size="13" text-anchor="middle">{xlabel}</text>'
        )
        self.elements.append(
            f'<text x="{x0 - 36:.2f}" y="{(y0 + y1) / 2:.2f}" font-size="13" '
            f'text-anchor="middle" transform="rotate(-90 {x0 - 36:.2f} {(y0 + y1) / 2:.2f})">{ylabel}</text>'
        )

    def to_string(self) -> str:
        body = "\n".join(self.elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="#ffffff"/>\n'
            f"{body}\n</svg>\n"
        )

    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_string())
