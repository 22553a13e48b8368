"""The mm-report CLI: record-smoke -> render / summary, and error paths."""

import json

import pytest

from repro.cli.mm_report import main
from repro.obs import MetricsRegistry, write_artifact


@pytest.fixture(scope="module")
def smoke_artifact(tmp_path_factory):
    """One recorded smoke artifact shared by the read-side tests."""
    path = tmp_path_factory.mktemp("obs") / "smoke.jsonl"
    assert main(["record-smoke", "--out", str(path), "--seed", "0"]) == 0
    return path


class TestRecordSmoke:
    def test_reports_what_it_wrote(self, smoke_artifact, capsys):
        # Re-record to capture this call's stdout.
        out = smoke_artifact.parent / "again.jsonl"
        assert main(["record-smoke", "--out", str(out)]) == 0
        message = capsys.readouterr().out
        assert "series" in message and "waterfalls" in message
        assert out.exists()

    def test_deterministic_artifact_bytes(self, smoke_artifact, tmp_path):
        again = tmp_path / "rerun.jsonl"
        assert main(["record-smoke", "--out", str(again), "--seed", "0"]) == 0
        assert again.read_bytes() == smoke_artifact.read_bytes()


class TestRender:
    def test_renders_waterfall_and_series(self, smoke_artifact, capsys):
        assert main(["render", str(smoke_artifact)]) == 0
        text = capsys.readouterr().out
        assert "phases: D dns" in text  # a waterfall rendered
        # At least two time-series plots (title line + axis present).
        plot_axes = text.count("+----")
        assert plot_axes >= 2
        assert "instruments" in text  # the summary table

    def test_series_filter(self, smoke_artifact, capsys):
        assert main([
            "render", str(smoke_artifact),
            "--series", "queue_depth", "--no-waterfalls", "--no-captures",
        ]) == 0
        text = capsys.readouterr().out
        assert "queue_depth" in text
        assert ".cwnd\n" not in text


class TestSummary:
    def test_json_summary_shape(self, smoke_artifact, capsys):
        assert main(["summary", str(smoke_artifact)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["meta"]["scenario"] == "smoke"
        assert data["series"]  # non-empty
        one = next(iter(data["series"].values()))
        assert set(one) >= {"n", "last", "min", "max"}
        (waterfall,) = data["waterfalls"].values()
        assert waterfall["resources"] > 0
        assert waterfall["failed"] == 0


class TestFabric:
    @pytest.fixture(scope="class")
    def fabric_artifact(self, tmp_path_factory):
        """An artifact shaped like mm-fabric run --artifact writes."""
        registry = MetricsRegistry()
        registry.counter("fabric.workers_spawned").add(2)
        registry.counter("fabric.trials_completed").add(6)
        registry.counter("fabric.heartbeats").add(12)
        registry.counter("fabric.watchdog_kills").add(1)
        registry.counter("fabric.speculative_wins").add(2)
        registry.counter("fabric.journal_records_dropped").add(1)
        registry.gauge("fabric.trials_per_s").set(8.5, time=0.0)
        return write_artifact(
            tmp_path_factory.mktemp("fab") / "fabric.jsonl",
            registry=registry,
            meta={"tool": "mm-fabric", "factory": "mod:builder",
                  "trials": 6, "shards": 2},
        )

    def test_renders_grouped_counters(self, fabric_artifact, capsys):
        assert main(["fabric", str(fabric_artifact)]) == 0
        text = capsys.readouterr().out
        assert "mm-fabric mod:builder: 6 trial(s) over 2 shard(s)" in text
        assert "liveness:" in text and "watchdog_kills" in text
        assert "speculation:" in text and "speculative_wins" in text
        assert "journal_records_dropped" in text
        assert "trials_per_s (gauge)" in text

    def test_json_mode(self, fabric_artifact, capsys):
        assert main(["fabric", str(fabric_artifact), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counters"]["watchdog_kills"] == 1
        assert data["counters"]["journal_records_dropped"] == 1
        assert data["gauges"]["trials_per_s"] == 8.5
        assert data["meta"]["tool"] == "mm-fabric"

    def test_non_fabric_artifact_refused(self, smoke_artifact, capsys):
        assert main(["fabric", str(smoke_artifact)]) == 2
        assert "no fabric.* metrics" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_artifact_exits_2(self, capsys):
        assert main(["render", "/nonexistent/nope.jsonl"]) == 2
        assert "mm-report:" in capsys.readouterr().err

    def test_malformed_artifact_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert main(["summary", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_render_handmade_artifact(self, tmp_path, capsys):
        registry = MetricsRegistry()
        registry.timeseries("x").record(0.0, 1.0)
        registry.timeseries("x").record(1.0, 2.0)
        path = write_artifact(tmp_path / "tiny.jsonl", registry=registry)
        assert main(["render", str(path), "--width", "20", "--height", "4"]) == 0
        assert "x" in capsys.readouterr().out
