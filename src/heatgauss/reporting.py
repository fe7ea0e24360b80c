"""Report rows, deterministic CSV serialization and hand-rolled SVG plots.

CSV files are the contract: every file carries a header row and floats are
written with 17 significant digits so identical runs are byte-identical.
SVG output is a convenience layer built from polyline and text primitives.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

FLOAT_FMT = "%.17g"
PLOT_WIDTH, PLOT_HEIGHT = 640, 480  # line_plot_svg canvas, px
RATIO_CELL, RATIO_MARGIN = 6, 40  # ratio_table_svg cell side and border, px


@dataclass
class ReportRow:
    """One check outcome: name, parameters, statistic, verdict, witness."""

    check: str
    params: dict
    statistic: float
    passed: bool
    witness: dict | None = field(default=None)

    def validate(self) -> None:
        # failing rows must be reproducible in isolation
        if not self.passed and self.witness is None:
            raise ValueError(f"failing row {self.check!r} carries no witness")


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return FLOAT_FMT % float(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_lines(path, lines: list[str]) -> None:
    """Write lines with LF endings, making the directory on first write: a run failing earlier leaves none."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_line(values) -> str:
    """format_value fields joined by commas; as in RFC 4180, a field holding a comma,
    a double quote, CR or LF (or a record's lone empty field) is quoted, quotes doubled."""
    fields = [format_value(v) for v in values]
    if fields == [""]:
        return '""'
    return ",".join('"' + f.replace('"', '""') + '"' if any(c in f for c in ',"\r\n') else f
                    for f in fields)


def write_csv(path, header: list[str], rows) -> None:
    """Write rows with LF endings and fixed float formatting."""
    _write_lines(path, [_csv_line(header)] + [_csv_line(row) for row in rows])


def witness_text(witness: dict | None) -> str:
    """key=value pairs of a witness, sorted by key and joined by ';'; as in RFC 4180 one
    level down, a value whose text holds ';' or '"' is written in double quotes, quotes doubled."""

    def value(v) -> str:
        text = format_value(v)
        return '"' + text.replace('"', '""') + '"' if any(c in text for c in ';"') else text

    return ";".join(f"{k}={value(v)}" for k, v in sorted((witness or {}).items()))


def write_report_rows(path, rows: list[ReportRow]) -> None:
    header = ["check", "params", "statistic", "passed", "witness"]
    table = []
    for row in rows:
        row.validate()
        params = ";".join(f"{k}={format_value(v)}" for k, v in sorted(row.params.items()))
        table.append([row.check, params, row.statistic, row.passed, witness_text(row.witness)])
    write_csv(path, header, table)


def kernel_rows(t, x, d, k, envelope, ratio):
    """Rows t,x,y,d_x,d_y,k,envelope,ratio of the kernel dump CSV at one t: x the nodes, d their
    boundary distances, and k, envelope and ratio the tables over them."""
    for i in range(len(x)):
        for j in range(len(x)):
            yield [t, x[i], x[j], d[i], d[j], k[i, j], envelope[i, j], ratio[i, j]]


KERNEL_HEADER = ["t", "x", "y", "d_x", "d_y", "k", "envelope", "ratio"]


def _svg_header(width: int, height: int) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]


def _scale(vals) -> tuple[float, float]:
    """Axis range (min, max) of vals, widened to (v, v + 1) when every value is v."""
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    return vmin, vmax if vmax != vmin else vmin + 1.0


def line_plot_svg(path, series, title: str, xlabel: str, ylabel: str) -> None:
    """Polyline plot; `series` is a list of (label, x array, y array).

    An empty series keeps its legend entry and draws no polyline; when every
    series is empty the axes span [0, 1].
    """
    width, height, margin = PLOT_WIDTH, PLOT_HEIGHT, 60
    parts = _svg_header(width, height)
    all_x = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    all_y = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if all_x.size == 0:
        all_x = all_y = np.array([0.0, 1.0])
    xmin, xmax = _scale(all_x)
    ymin, ymax = _scale(all_y)
    colors = ["#1f4e9c", "#b03a2e", "#1e8449", "#8e44ad", "#b7950b", "#117a8b"]
    parts.append(
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>'
    )
    for k, (label, xs, ys) in enumerate(series):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        px = margin + (xs - xmin) / (xmax - xmin) * (width - 2 * margin)
        py = (height - margin) - (ys - ymin) / (ymax - ymin) * (height - 2 * margin)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = colors[k % len(colors)]
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * k + 12}" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    parts.append(f'<text x="{width // 2}" y="20" font-size="14" text-anchor="middle">{title}</text>')
    parts.append(
        f'<text x="{width // 2}" y="{height - 16}" font-size="12" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{height // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {height // 2})">{ylabel}</text>'
    )
    parts.append(f'<text x="{margin}" y="{height - margin + 16}" font-size="10">'
                 f'{FLOAT_FMT % xmin}</text>')
    parts.append(f'<text x="{width - margin}" y="{height - margin + 16}" font-size="10" '
                 f'text-anchor="end">{FLOAT_FMT % xmax}</text>')
    parts.append("</svg>")
    _write_lines(path, parts)


def ratio_table_svg(path, ratios: np.ndarray, title: str) -> None:
    """Grayscale heat-table of a ratio matrix scaled by its largest finite entry;
    darker means closer to it, and a non-finite entry is drawn red."""
    cell, margin = RATIO_CELL, RATIO_MARGIN
    ratios = np.asarray(ratios, dtype=float)
    n_i, n_j = ratios.shape
    width = margin * 2 + n_j * cell
    height = margin * 2 + n_i * cell
    parts = _svg_header(width, height)
    finite = np.isfinite(ratios)
    top = float(np.max(ratios, where=finite, initial=0.0)) or 1.0
    shades = np.rint(255 * (1.0 - np.clip(ratios / top, 0.0, 1.0)))
    for i in range(n_i):
        for j in range(n_j):
            fill = "rgb({0},{0},{0})".format(int(shades[i, j])) if finite[i, j] else "rgb(255,0,0)"
            parts.append(
                f'<rect x="{margin + j * cell}" y="{margin + i * cell}" width="{cell}" '
                f'height="{cell}" fill="{fill}"/>'
            )
    parts.append(f'<text x="{width // 2}" y="24" font-size="13" text-anchor="middle">{title}</text>')
    parts.append("</svg>")
    _write_lines(path, parts)
