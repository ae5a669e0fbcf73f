"""Dependency-free SVG line charts for metrics series.

Emits standalone SVG documents (valid XML, diff-able in tests) rather than
bitmaps. The y axis is inverted the usual way: larger values sit higher on
the canvas.
"""

from pathlib import Path

from .errors import ContractError
from .train import METRICS_HEADER, read_metrics_csv

WIDTH, HEIGHT = 640, 420
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 72, 24, 48, 56


def escape(text):
    """``text`` with ``&``, ``<`` and ``>`` replaced by XML entities, as
    ``xml.sax.saxutils.escape`` does by default; importing that module would
    pull in ``urllib.request`` and with it an HTTP client, tens of ms at
    every start."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _scale(values, lo_px, hi_px):
    """Linear map of values onto [lo_px, hi_px]; constant input centers."""
    vmin, vmax = min(values), max(values)
    if vmax == vmin:
        mid = (lo_px + hi_px) / 2.0
        return [mid for _ in values], vmin, vmax
    span = vmax - vmin
    return [lo_px + (v - vmin) / span * (hi_px - lo_px) for v in values], vmin, vmax


def line_chart(xs, ys, title="", x_label="", y_label=""):
    """Render one polyline chart as an SVG document string."""
    if len(xs) != len(ys) or not xs:
        raise ValueError(f"need equal, non-empty coordinate lists, got {len(xs)} and {len(ys)}")
    px, xmin, xmax = _scale(xs, MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    # inverted axis: map onto [bottom, top] so larger values get smaller y
    py, ymin, ymax = _scale(ys, HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    markers = "".join(
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="#1f77b4"/>' for x, y in zip(px, py)
    )
    axis_bottom = HEIGHT - MARGIN_BOTTOM
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{escape(title)}</text>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" y2="{axis_bottom}" '
        'stroke="black"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{axis_bottom}" x2="{WIDTH - MARGIN_RIGHT}" '
        f'y2="{axis_bottom}" stroke="black"/>',
        f'<text x="{MARGIN_LEFT}" y="{axis_bottom + 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{xmin:.6g}</text>',
        f'<text x="{WIDTH - MARGIN_RIGHT}" y="{axis_bottom + 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{xmax:.6g}</text>',
        f'<text x="{MARGIN_LEFT - 6}" y="{axis_bottom + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{ymin:.6g}</text>',
        f'<text x="{MARGIN_LEFT - 6}" y="{MARGIN_TOP + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{ymax:.6g}</text>',
        f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2}" y="{HEIGHT - 16}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">{escape(x_label)}</text>',
        f'<text x="18" y="{HEIGHT / 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 18 {HEIGHT / 2})">{escape(y_label)}</text>',
        f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
        markers,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def plot_metrics_csv(csv_path, out_dir, columns=None):
    """One SVG per selected metric column (epoch on the x axis).

    ``columns`` defaults to every non-epoch column in the metrics header.
    Returns the written paths in column order.
    """
    records = read_metrics_csv(csv_path)
    if columns is None:
        columns = [c for c in METRICS_HEADER if c != "epoch"]
    unknown = [c for c in columns if c not in METRICS_HEADER or c == "epoch"]
    if unknown:
        raise ContractError(f"cannot plot columns {unknown}; choose from {METRICS_HEADER[1:]}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    epochs = [r.epoch for r in records]
    written = []
    for col in columns:
        ys = [getattr(r, col) for r in records]
        svg = line_chart(epochs, ys, title=f"{col} vs epoch", x_label="epoch", y_label=col)
        path = out_dir / f"{col}.svg"
        path.write_text(svg)
        written.append(path)
    return written
