"""``mm-fabric`` argv handling: every malformed command line is a
``CliError`` naming the offending flag — exit status 2, an ``error:``
line, never a traceback."""

import pytest

from repro.cli import mm_fabric
from repro.cli.common import CliError

RUN = ["run", "--factory", "repro.scenarios:replay_smoke"]

MALFORMED = {
    # id: (argv, what the message must name)
    "run-missing-value": (RUN + ["--trials"], "--trials"),
    "run-non-numeric": (RUN + ["--trials", "x"], "--trials"),
    "run-non-numeric-float": (
        RUN + ["--trials", "3", "--heartbeat", "soon"], "--heartbeat"),
    "run-unknown-flag": (RUN + ["--trials", "3", "--bogus"], "--bogus"),
    "run-no-abbreviations": (
        RUN + ["--trials", "3", "--trial", "4"], "--trial"),
    "run-unknown-backend": (
        RUN + ["--trials", "3", "--backend", "carrier-pigeon"], "--backend"),
    "run-trials-required": (RUN, "--trials"),
    "run-factory-required": (["run", "--trials", "3"], "--factory"),
    "worker-missing-value": (["worker", "--trials"], "--trials"),
    "worker-stray-value": (["worker", "x"], "x"),
    "worker-unknown-flag": (["worker", "--bogus", "1"], "--bogus"),
    "ship-unknown-flag": (
        ["ship", "src", "dest", "--json", "--bogus"], "--bogus"),
    "ship-missing-value": (["ship", "src"], "dest"),
    "ship-stray-value": (["ship", "src", "dest", "extra"], "extra"),
}


@pytest.mark.parametrize("argv,names", MALFORMED.values(), ids=MALFORMED)
def test_malformed_argv_is_a_cli_error_naming_the_flag(argv, names):
    with pytest.raises(CliError) as info:
        mm_fabric.run(argv, [])
    assert names in str(info.value)
    assert "usage: mm-fabric" in str(info.value)


def test_entry_point_exits_2_with_an_error_line(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["mm-fabric", "run", "--trials"])
    assert mm_fabric.main() == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err and captured.out == ""


def test_flags_and_defaults_are_the_documented_ones():
    """The parser accepts exactly the flags the module docstring lists,
    with the defaults ``run_fabric`` has."""
    options = mm_fabric._run_parser().parse_args(
        ["--factory", "m:a", "--trials", "5", "--host", "a", "--host", "b"])
    assert vars(options) == {
        "factory": "m:a", "kwargs": "{}", "trials": 5, "shards": 2,
        "backend": "subprocess", "host": ["a", "b"], "ssh": "ssh",
        "timeout": 600.0, "retries": 1,
        "journal": None, "run_key": None, "capture_digest": False,
        "progress_deadline": None, "heartbeat": None, "io_deadline": None,
        "spawn_retries": 2, "speculate": False,
        "artifact": None, "json": False,
    }


def test_local_run_end_to_end(capsys):
    status = mm_fabric.run(
        RUN + ["--trials", "3", "--backend", "local", "--shards", "2",
               "--kwargs", '{"scale": 0.2}', "--capture-digest"], [])
    out = capsys.readouterr().out
    assert status == 0
    assert "outcomes: ok=3" in out and "combined digest:" in out
