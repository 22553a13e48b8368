"""The mm-load CLI and mm-report's load render mode.

The golden property under test is determinism end to end: two sweeps of
the same seed write byte-identical artifacts, and rendering them
produces byte-identical text — so the assertions on the rendered output
hold for every run everywhere, not just this one.
"""

import json

import pytest

from repro.cli.mm_load import main as load_main
from repro.cli.mm_report import main as report_main

SWEEP_ARGS = [
    "--levels", "8,16,32", "--window", "4",
    "--sites", "3", "--site-scale", "0.2", "--seed", "0",
]


@pytest.fixture(scope="module")
def curve_artifact(tmp_path_factory):
    """One swept capacity-curve artifact shared by the read-side tests."""
    path = tmp_path_factory.mktemp("load") / "curve.jsonl"
    assert load_main(
        ["sweep", "--out", str(path), "--quiet", *SWEEP_ARGS]) == 0
    return path


class TestSweep:
    def test_reports_what_it_wrote(self, curve_artifact, capsys):
        out = curve_artifact.parent / "again.jsonl"
        assert load_main(
            ["sweep", "--out", str(out), "--quiet", *SWEEP_ARGS]) == 0
        assert "3 levels" in capsys.readouterr().out
        assert out.exists()

    def test_artifact_bytes_are_deterministic(self, curve_artifact, tmp_path):
        again = tmp_path / "rerun.jsonl"
        assert load_main(
            ["sweep", "--out", str(again), "--quiet", *SWEEP_ARGS]) == 0
        assert again.read_bytes() == curve_artifact.read_bytes()

    def test_unquiet_sweep_renders_inline(self, tmp_path, capsys):
        out = tmp_path / "curve.jsonl"
        assert load_main(["sweep", "--out", str(out), *SWEEP_ARGS]) == 0
        text = capsys.readouterr().out
        assert "capacity curve: 3 levels" in text
        assert "offered load vs p99" in text

    def test_bad_levels_exit_2(self, tmp_path, capsys):
        assert load_main([
            "sweep", "--levels", "8,8", "--out", str(tmp_path / "x.jsonl"),
        ]) == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_single_level_rejected(self, tmp_path, capsys):
        assert load_main([
            "sweep", "--levels", "8", "--out", str(tmp_path / "x.jsonl"),
        ]) == 2
        assert "at least two" in capsys.readouterr().err


class TestRun:
    def test_single_level_json(self, capsys):
        assert load_main([
            "run", "--clients", "12", "--rate", "4",
            "--sites", "2", "--site-scale", "0.2",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["clients"] == 12
        assert data["completed"] == 12
        assert data["plt"]["count"] > 0
        assert data["server_latency"]["p99"] is not None


class TestReportLoadMode:
    def test_render_sections(self, curve_artifact, capsys):
        assert report_main(["load", str(curve_artifact)]) == 0
        text = capsys.readouterr().out
        # Header + knee line.
        assert "capacity curve: 3 levels, top 32 clients" in text
        assert "knee:" in text
        # The per-level table.
        assert "clients  offered/s" in text
        assert "plt p99" in text
        # The curve plot with axis caption.
        assert "offered load vs p99 completion time" in text
        assert "[x: offered load (clients/s)  y: p99 (s)]" in text
        # The top level's farm-wide series.
        assert "load.occupancy (top level)" in text
        assert "load.backlog (top level)" in text

    def test_no_series_flag(self, curve_artifact, capsys):
        assert report_main(
            ["load", str(curve_artifact), "--no-series"]) == 0
        text = capsys.readouterr().out
        assert "load.occupancy" not in text
        assert "offered load vs p99" in text  # curve still plotted

    def test_render_is_deterministic(self, curve_artifact, capsys):
        assert report_main(["load", str(curve_artifact)]) == 0
        first = capsys.readouterr().out
        assert report_main(["load", str(curve_artifact)]) == 0
        assert capsys.readouterr().out == first

    def test_non_load_artifact_exits_2(self, tmp_path, capsys):
        from repro.obs import MetricsRegistry, write_artifact

        other = tmp_path / "other.jsonl"
        write_artifact(other, MetricsRegistry(), meta={"experiment": "x"})
        assert report_main(["load", str(other)]) == 2
        assert "not a load artifact" in capsys.readouterr().err

    def test_missing_artifact_exits_2(self, capsys):
        assert report_main(["load", "/nonexistent/nope.jsonl"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
