"""JSONL artifact round-trips, byte determinism, and error handling."""

import pytest

from repro.errors import ReproError
from repro.obs import (
    MetricsRegistry,
    capture_to_record,
    read_artifact,
    write_artifact,
)


def populated_registry():
    registry = MetricsRegistry()
    registry.counter("link.drops").add(3)
    registry.gauge("pool.depth").set(4.0, 1.25)
    registry.histogram("plt").observe(0.5)
    registry.histogram("plt").observe(0.7)
    registry.timeseries("tcp.cwnd").record(0.0, 14600.0)
    registry.timeseries("tcp.cwnd").record(0.1, 29200.0)
    entry = registry.waterfall("browser.page").start("http://a/x.js", "js", 0.2)
    entry.issued = 0.3
    entry.ttfb = 0.05
    entry.download = 0.01
    entry.finished = 0.4
    entry.size = 1234
    return registry


class TestRoundTrip:
    def test_every_kind_survives(self, tmp_path):
        path = write_artifact(
            tmp_path / "run.jsonl",
            registry=populated_registry(),
            meta={"experiment": "fig2", "seed": 7},
        )
        artifact = read_artifact(path)
        assert artifact.meta["experiment"] == "fig2"
        assert artifact.meta["seed"] == 7
        assert artifact.counters["link.drops"] == 3
        assert artifact.gauges["pool.depth"] == {"value": 4.0, "time": 1.25}
        assert artifact.histograms["plt"]["summary"]["count"] == 2.0
        assert artifact.series_points("tcp.cwnd") == [
            [0.0, 14600.0], [0.1, 29200.0],
        ]
        waterfall = artifact.waterfalls["browser.page"]
        assert waterfall.entries[0].url == "http://a/x.js"
        assert waterfall.entries[0].size == 1234

    def test_byte_identical_across_writes(self, tmp_path):
        a = write_artifact(tmp_path / "a.jsonl", registry=populated_registry(),
                           meta={"seed": 1})
        b = write_artifact(tmp_path / "b.jsonl", registry=populated_registry(),
                           meta={"seed": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_series_points_missing_name_lists_available(self, tmp_path):
        path = write_artifact(tmp_path / "run.jsonl",
                              registry=populated_registry())
        artifact = read_artifact(path)
        with pytest.raises(KeyError, match="tcp.cwnd"):
            artifact.series_points("nope")


class FakeNamespace:
    name = "client-0"


class FakeCapture:
    """Shape-compatible stand-in: a capture whose bound overflowed."""

    namespace = FakeNamespace()
    max_packets = 2
    total_seen = 5
    total_bytes = 7300
    by_protocol = {"tcp": 5}
    packets = [
        (0.001, "10.0.0.1", 1234, "10.0.0.2", 80, "tcp", 1460, "A"),
        (0.002, "10.0.0.1", 1234, "10.0.0.2", 80, "tcp", 1460, ""),
    ]


class TestCaptureExport:
    def test_overflow_counters_survive_the_bound(self, tmp_path):
        record = capture_to_record(FakeCapture(), name="client")
        assert record["total_seen"] == 5
        assert len(record["packets"]) == 2  # bounded retention
        path = write_artifact(tmp_path / "cap.jsonl",
                              captures={"client": FakeCapture()})
        artifact = read_artifact(path)
        capture = artifact.captures["client"]
        assert capture["total_seen"] > len(capture["packets"])
        assert capture["by_protocol"] == {"tcp": 5}
        assert capture["namespace"] == "client-0"


class TestReadErrors:
    def test_malformed_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "meta", "version": 1}\n{not json\n')
        with pytest.raises(ReproError, match="not valid JSON"):
            read_artifact(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v99.jsonl"
        path.write_text('{"kind": "meta", "version": 99}\n')
        with pytest.raises(ReproError, match="unsupported artifact version"):
            read_artifact(path)

    @pytest.mark.parametrize("name,content,detail", [
        ("missing", None, "cannot read artifact: No such file"),
        ("directory", "dir", "cannot read artifact: Is a directory"),
        ("not-utf8", b'{"kind": "meta", "version": 1}\n\xff\xfe\n',
         "not UTF-8 text"),
        ("list-line", b"[1]\n", "1: not a JSON object"),
        ("string-line", b'{"kind": "meta", "version": 1}\n"x"\n',
         "2: not a JSON object"),
        ("counter-without-value", b'{"kind": "counter", "name": "c"}\n',
         "1: counter line has no 'value' field"),
        ("series-without-points", b'{"kind": "series", "name": "s"}\n',
         "1: series line has no 'points' field"),
        ("gauge-without-time",
         b'{"kind": "gauge", "name": "g", "value": 1}\n',
         "1: gauge line has no 'time' field"),
        ("histogram-without-values",
         b'{"kind": "histogram", "name": "h", "summary": {}}\n',
         "1: histogram line has no 'values' field"),
        ("waterfall-without-entries", b'{"kind": "waterfall", "name": "w"}\n',
         "1: waterfall line has no 'entries' field"),
        ("capture-without-name", b'{"kind": "capture"}\n',
         "1: capture line has no 'name' field"),
        ("waterfall-entry-not-a-record",
         b'{"kind": "waterfall", "name": "w", "entries": [5]}\n',
         "1: malformed waterfall line"),
    ])
    def test_unreadable_input_is_a_repro_error_naming_the_path(
            self, tmp_path, name, content, detail):
        path = tmp_path / "bad.jsonl"
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        with pytest.raises(ReproError) as info:
            read_artifact(path)
        assert str(info.value).startswith(f"{path}:")
        assert detail in str(info.value)

    def test_mm_report_summary_of_a_directory_exits_2(self, tmp_path, capsys):
        from repro.cli.mm_report import main

        assert main(["summary", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {tmp_path}: cannot read")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text(
            '{"kind": "meta", "version": 1}\n{"kind": "mystery"}\n'
        )
        with pytest.raises(ReproError, match="unknown artifact line kind"):
            read_artifact(path)
