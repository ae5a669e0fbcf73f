import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import nodehead.svgplot as svgplot
from nodehead.svgplot import line_chart, plot_metrics_csv
from nodehead.train import MetricsRecord, write_metrics_csv

SVG_NS = "{http://www.w3.org/2000/svg}"


def polyline_points(svg_text):
    root = ET.fromstring(svg_text)
    poly = root.find(f"{SVG_NS}polyline")
    assert poly is not None
    pts = [tuple(map(float, pair.split(","))) for pair in poly.attrib["points"].split()]
    return pts


class TestLineChart:
    def test_single_point_is_valid_xml(self):
        svg = line_chart([1], [0.5], title="one point")
        root = ET.fromstring(svg)
        assert root.tag == f"{SVG_NS}svg"
        assert len(polyline_points(svg)) == 1
        assert len(root.findall(f"{SVG_NS}circle")) == 1

    def test_monotone_series_maps_to_monotone_y(self):
        ys = [0.1, 0.2, 0.5, 0.9, 1.4]
        pts = polyline_points(line_chart(list(range(5)), ys))
        pixel_y = [p[1] for p in pts]
        # increasing values climb the canvas, i.e. pixel y strictly decreases
        assert all(b < a for a, b in zip(pixel_y, pixel_y[1:]))
        pixel_x = [p[0] for p in pts]
        assert all(b > a for a, b in zip(pixel_x, pixel_x[1:]))

    def test_constant_series_centers(self):
        pts = polyline_points(line_chart([0, 1, 2], [0.7, 0.7, 0.7]))
        ys = {p[1] for p in pts}
        assert len(ys) == 1

    def test_title_is_escaped(self):
        svg = line_chart([0, 1], [0, 1], title="a < b & c")
        ET.fromstring(svg)  # would raise on raw '<' or '&'
        assert "a &lt; b &amp; c" in svg

    def test_escape_gives_the_bytes_of_saxutils_escape(self, monkeypatch):
        from xml.sax.saxutils import escape as sax_escape

        text = "&<>\"' a&amp;b <c>"
        kwargs = dict(title=f"title {text}", x_label=f"x {text}", y_label=f"y {text}")
        assert svgplot.escape(text) == sax_escape(text)
        svg = line_chart([0, 1, 2], [0.5, 0.25, 1.0], **kwargs)
        monkeypatch.setattr(svgplot, "escape", sax_escape)
        assert svg.encode() == line_chart([0, 1, 2], [0.5, 0.25, 1.0], **kwargs).encode()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            line_chart([], [])
        with pytest.raises(ValueError):
            line_chart([1, 2], [1])


class TestPlotMetricsCsv:
    @pytest.fixture
    def metrics_csv(self, tmp_path):
        records = [
            MetricsRecord(e, 1.0 / e, 0.5 + 0.04 * e, 1.2 / e, 0.4 + 0.04 * e, 9.0, 120)
            for e in range(1, 8)
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(records, path)
        return path

    def test_emits_one_svg_per_column(self, metrics_csv, tmp_path):
        out = tmp_path / "plots"
        written = plot_metrics_csv(metrics_csv, out, ["train_loss", "val_acc"])
        assert [p.name for p in written] == ["train_loss.svg", "val_acc.svg"]
        for p in written:
            ET.fromstring(p.read_text())

    def test_default_columns_cover_all_metrics(self, metrics_csv, tmp_path):
        written = plot_metrics_csv(metrics_csv, tmp_path / "all")
        assert [p.name for p in written] == [
            "train_loss.svg", "train_acc.svg", "val_loss.svg",
            "val_acc.svg", "wall_ms.svg", "n_feval.svg",
        ]

    def test_decreasing_loss_curve_descends_on_canvas(self, metrics_csv, tmp_path):
        (path,) = plot_metrics_csv(metrics_csv, tmp_path / "one", ["train_loss"])
        pixel_y = [p[1] for p in polyline_points(path.read_text())]
        # loss falls, so the curve moves down the canvas: pixel y increases
        assert all(b > a for a, b in zip(pixel_y, pixel_y[1:]))

    def test_unknown_column_rejected(self, metrics_csv, tmp_path):
        with pytest.raises(ValueError, match="bogus"):
            plot_metrics_csv(metrics_csv, tmp_path / "x", ["bogus"])


def test_importing_the_cli_loads_no_web_client():
    # xml.sax.saxutils imports urllib.request, and with it http.client, ssl and email
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import sys, nodehead.cli; "
            "print(sorted(m for m in ('xml.sax', 'urllib.request') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"
