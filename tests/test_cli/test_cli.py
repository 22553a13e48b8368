"""Tests for the mm-* command-line tools."""

import os

import pytest

from repro.cli import (
    mm_chaos,
    mm_corpus,
    mm_delay,
    mm_fabric,
    mm_fsck,
    mm_link,
    mm_load,
    mm_loss,
    mm_report,
    mm_trace,
    mm_webrecord,
    mm_webreplay,
)
from repro.cli.common import CliError, page_from_recording, parse_trace_or_rate
from repro.corpus import generate_site
from repro.linkem import PacketDeliveryTrace
from repro.record.fsck import corpus_site_dirs


@pytest.fixture(scope="module")
def recorded_dir(tmp_path_factory):
    """A small recorded site on disk (made by mm-webrecord)."""
    directory = tmp_path_factory.mktemp("sites") / "rec"
    code = mm_webrecord.run(
        ["--seed", "5", "--origins", "5", "--scale", "0.5",
         str(directory), "http://www.clitest.com/"], [])
    assert code == 0
    return str(directory)


class TestMmWebrecord:
    def test_records_site(self, recorded_dir, capsys):
        assert os.path.exists(os.path.join(recorded_dir, "site.json"))

    def test_rejects_nesting(self):
        with pytest.raises(CliError):
            mm_webrecord.run(["out", "http://x.com/"],
                             [("delay", {"delay": 0.01})])

    def test_usage_error(self):
        with pytest.raises(CliError):
            mm_webrecord.run([], [])


MALFORMED_ARGV = {
    # id: (tool, argv, what the error line must name)
    "corpus-out-missing-value": (mm_corpus, ["generate", "--out"], "--out"),
    "corpus-size-non-numeric": (
        mm_corpus, ["generate", "--out", "D", "--size", "abc"], "--size"),
    "corpus-workers-non-numeric": (
        mm_corpus, ["generate", "--out", "D", "--workers", "x"], "--workers"),
    "trace-rate-non-numeric": (
        mm_trace, ["constant", "--rate", "abc", "--out", "F"], "--rate"),
    "trace-seed-non-numeric": (
        mm_trace, ["cellular", "--seed", "x", "--out", "F"], "--seed"),
    "webrecord-seed-non-numeric": (
        mm_webrecord, ["--seed", "abc", "O", "http://x.com/"], "--seed"),
    "webrecord-origins-non-numeric": (
        mm_webrecord, ["--origins", "x", "O", "http://x.com/"], "--origins"),
    "webrecord-seed-missing-value": (mm_webrecord, ["--seed"], "--seed"),
    "fabric-two-remote-hosts": (
        mm_fabric,
        ["run", "--factory", "repro.scenarios:replay_smoke", "--trials", "2",
         "--backend", "remote", "--host", "a", "--host", "b"],
        "--host"),
}


@pytest.mark.parametrize(
    "tool,argv,names", MALFORMED_ARGV.values(), ids=MALFORMED_ARGV)
def test_malformed_argv_exits_2_with_a_named_error(
        tool, argv, names, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", [tool.__name__] + argv)
    assert tool.main() == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert names in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


FABRIC_RUN = ["run", "--factory", "repro.scenarios:replay_smoke"]

OUT_OF_RANGE = {
    # id: (tool, argv, the flag the error must name)
    "fabric-trials-0": (mm_fabric, FABRIC_RUN + ["--trials", "0"], "--trials"),
    "fabric-shards-0": (
        mm_fabric, FABRIC_RUN + ["--trials", "3", "--shards", "0"],
        "--shards"),
    "fabric-heartbeat-0": (
        mm_fabric, FABRIC_RUN + ["--trials", "3", "--heartbeat", "0"],
        "--heartbeat"),
    "fabric-spawn-retries-negative": (
        mm_fabric, FABRIC_RUN + ["--trials", "3", "--spawn-retries", "-1"],
        "--spawn-retries"),
    "fabric-io-deadline-under-heartbeat": (
        mm_fabric, FABRIC_RUN + ["--trials", "3", "--heartbeat", "1",
                                 "--io-deadline", "0.5"], "--io-deadline"),
    "load-rate-0": (mm_load, ["run", "--rate", "0", "--clients", "5"],
                    "--rate"),
    "load-server-workers-0": (
        mm_load, ["run", "--rate", "5", "--clients", "5",
                  "--server-workers", "0"], "--server-workers"),
    "report-width-0": (
        mm_report, ["render", "--width", "0", "artifact.jsonl"], "--width"),
    "report-height-0": (
        mm_report, ["render", "--height", "0", "artifact.jsonl"], "--height"),
}


@pytest.mark.parametrize(
    "tool,argv,flag", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
def test_out_of_range_number_exits_2_naming_the_flag(
        tool, argv, flag, monkeypatch, capsys):
    """Refused as usage before any work starts — not a traceback and
    exit 1, which ``mm-fabric`` documents as "sweep incomplete"."""
    monkeypatch.setattr("sys.argv", [tool.__name__] + argv)
    assert tool.main() == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


#: Trace inputs that are not traces: what mm-trace info and mm-link must
#: name (path, then the line where there is one) instead of a traceback.
BAD_TRACES = {
    "missing": (None, "cannot read trace: No such file or directory"),
    "directory": ("dir", "cannot read trace: Is a directory"),
    "not-utf8": (b"1\n2\n\xff\xfe\n", "line 3: not UTF-8 text"),
    "garbage-line": (b"1\n# note\nabc\n", "line 3: not an integer"),
    "decreasing": (b"5\n\n3\n", "line 3: timestamps must be non-decreasing"),
}


@pytest.mark.parametrize("content,detail", BAD_TRACES.values(),
                         ids=BAD_TRACES)
@pytest.mark.parametrize("tool,argv", [
    (mm_trace, ["info", "{}"]),
    (mm_link, ["{}", "14", "load"]),
], ids=["mm-trace-info", "mm-link"])
def test_bad_trace_file_exits_2_naming_path_and_line(
        tool, argv, content, detail, tmp_path, monkeypatch, capsys):
    path = tmp_path / "link.trace"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    monkeypatch.setattr(
        "sys.argv", [tool.__name__] + [a.format(path) for a in argv])
    assert tool.main() == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: {detail}")
    assert "Traceback" not in captured.err and captured.out == ""


class TestMmWebreplayLoad:
    def test_full_pipeline(self, recorded_dir, capsys):
        code = mm_webreplay.run(
            [recorded_dir, "mm-link", "14", "14", "mm-delay", "40", "load"],
            [])
        assert code == 0
        out = capsys.readouterr().out
        assert "page load time:" in out
        assert "replay" in out and "link" in out and "delay" in out

    def test_single_server_flag(self, recorded_dir, capsys):
        code = mm_webreplay.run([
            "--single-server", recorded_dir, "load"], [])
        assert code == 0
        assert "!single" in capsys.readouterr().out

    def test_mux_protocol_flag(self, recorded_dir, capsys):
        code = mm_webreplay.run([
            "--protocol=mux", recorded_dir, "mm-delay", "20", "load"], [])
        assert code == 0
        out = capsys.readouterr().out
        assert "!mux" in out
        assert "page load time" in out

    def test_bad_protocol_rejected(self, recorded_dir):
        with pytest.raises(CliError):
            mm_webreplay.run(["--protocol=quic", recorded_dir, "load"], [])

    def test_load_without_replay_rejected(self):
        with pytest.raises(CliError):
            mm_delay.run(["40", "load"], [])

    @pytest.mark.parametrize("seed_argv", [["--seed"], ["--seed", "x"]])
    def test_load_seed_must_be_an_integer(self, recorded_dir, seed_argv,
                                          monkeypatch, capsys):
        with pytest.raises(CliError, match="--seed"):
            mm_webreplay.run([recorded_dir, "load"] + seed_argv, [])
        monkeypatch.setattr(
            "sys.argv", ["mm-webreplay", recorded_dir, "load"] + seed_argv)
        assert mm_webreplay.main() == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_directory_rejected(self):
        with pytest.raises(CliError):
            mm_webreplay.run(["/nonexistent-dir", "load"], [])

    def test_fetch_single_url(self, recorded_dir, capsys):
        code = mm_webreplay.run(
            [recorded_dir, "fetch", "http://www.clitest.com/"], [])
        assert code == 0
        assert "ok in" in capsys.readouterr().out

    def test_no_app_command_prints_stack(self, recorded_dir, capsys):
        code = mm_webreplay.run([recorded_dir], [])
        assert code == 0
        assert "no application command" in capsys.readouterr().out


class TestMmDelayMmLink:
    def test_delay_parses(self, recorded_dir, capsys):
        code = mm_webreplay.run([recorded_dir, "mm-delay", "0", "load"], [])
        assert code == 0

    def test_delay_rejects_garbage(self):
        with pytest.raises(CliError):
            mm_delay.run(["fast"], [])

    def test_delay_rejects_negative(self):
        with pytest.raises(CliError):
            mm_delay.run(["-5"], [])

    def test_link_queue_options(self, recorded_dir, capsys):
        code = mm_webreplay.run(
            [recorded_dir, "mm-link", "5", "5", "--downlink-queue=50",
             "--uplink-queue=50", "load"], [])
        assert code == 0

    def test_link_rejects_bad_queue(self):
        with pytest.raises(CliError):
            mm_link.run(["5", "5", "--downlink-queue=zero", "load"], [])

    def test_link_codel_queue(self, recorded_dir, capsys):
        code = mm_webreplay.run(
            [recorded_dir, "mm-link", "5", "5", "--downlink-queue=codel",
             "load"], [])
        assert code == 0
        assert "page load time" in capsys.readouterr().out

    def test_link_rejects_unknown_flag(self):
        with pytest.raises(CliError):
            mm_link.run(["5", "5", "--mystery=1", "load"], [])

    def test_unknown_inner_command(self):
        with pytest.raises(CliError):
            mm_delay.run(["40", "mm-teleport"], [])


class TestMmLoss:
    def test_lossy_load(self, recorded_dir, capsys):
        code = mm_webreplay.run(
            [recorded_dir, "mm-loss", "downlink", "0.01",
             "mm-delay", "20", "load"], [])
        assert code == 0
        assert "page load time" in capsys.readouterr().out

    def test_both_directions(self, recorded_dir, capsys):
        code = mm_webreplay.run(
            [recorded_dir, "mm-loss", "both", "0.005", "load"], [])
        assert code == 0

    def test_bad_direction(self):
        with pytest.raises(CliError):
            mm_loss.run(["sideways", "0.1"], [])

    def test_bad_rate(self):
        with pytest.raises(CliError):
            mm_loss.run(["uplink", "2.0"], [])
        with pytest.raises(CliError):
            mm_loss.run(["uplink", "lots"], [])


class TestMmTrace:
    def test_constant_generation(self, tmp_path, capsys):
        out = tmp_path / "c.trace"
        assert mm_trace.run(
            ["constant", "--rate", "12", "--out", str(out)], []) == 0
        trace = PacketDeliveryTrace.from_file(out)
        assert trace.average_rate_mbps == pytest.approx(12, rel=0.05)

    def test_cellular_generation(self, tmp_path, capsys):
        out = tmp_path / "lte.trace"
        assert mm_trace.run(
            ["cellular", "--mean", "8", "--duration", "20000",
             "--out", str(out)], []) == 0
        assert PacketDeliveryTrace.from_file(out).period_ms == 20000

    def test_info(self, tmp_path, capsys):
        out = tmp_path / "c.trace"
        mm_trace.run(["constant", "--rate", "5", "--out", str(out)], [])
        assert mm_trace.run(["info", str(out)], []) == 0
        assert "Mbit/s" in capsys.readouterr().out

    def test_trace_file_used_by_mm_link(self, recorded_dir, tmp_path, capsys):
        out = tmp_path / "c.trace"
        mm_trace.run(["constant", "--rate", "14", "--out", str(out)], [])
        code = mm_webreplay.run(
            [recorded_dir, "mm-link", str(out), str(out), "load"], [])
        assert code == 0

    def test_usage(self):
        with pytest.raises(CliError):
            mm_trace.run(["constant"], [])


class TestMmCorpus:
    def test_generate_and_stats(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        code = mm_corpus.run(
            ["generate", "--out", str(out), "--size", "6", "--singles", "1",
             "--scale", "0.3"], [])
        assert code == 0
        assert len(corpus_site_dirs(out)) == 6
        assert ".cas" in os.listdir(out)  # one store for the whole corpus
        code = mm_corpus.run(["stats", str(out)], [])
        assert code == 0
        text = capsys.readouterr().out
        assert "sites: 6" in text
        assert "single-server sites: 1" in text

    def test_cas_switch_is_gone(self, tmp_path):
        with pytest.raises(CliError, match="unrecognized arguments: --cas"):
            mm_corpus.run(["generate", "--out", str(tmp_path / "c"),
                           "--cas"], [])

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_size_below_one_refused(self, tmp_path, size):
        # Not a traceback at the missing journal, nor a complaint about
        # single-origin sites.
        with pytest.raises(CliError, match="--size must be >= 1"):
            mm_corpus.run(["generate", "--out", str(tmp_path / "c"),
                           "--size", size, "--singles", "0"], [])

    def test_stats_missing_dir(self):
        with pytest.raises(CliError):
            mm_corpus.run(["stats", "/nonexistent"], [])

    def test_rejects_nesting(self):
        with pytest.raises(CliError):
            mm_corpus.run(["stats", "x"], [("delay", {"delay": 0.01})])


class TestMmCorpusResume:
    ARGS = ["--size", "4", "--singles", "1", "--scale", "0.3", "--seed", "2"]

    def _generate(self, out, extra=()):
        return mm_corpus.run(
            ["generate", "--out", str(out), *self.ARGS, *extra], [])

    def test_journal_removed_after_success(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert self._generate(out) == 0
        assert not (out / mm_corpus.JOURNAL_FILE).exists()
        assert len(corpus_site_dirs(out)) == 4

    def test_resume_skips_journaled_sites(self, tmp_path, capsys):
        from repro.corpus import alexa_corpus
        from repro.measure.journal import TrialJournal, run_key

        out = tmp_path / "corpus"
        assert self._generate(out) == 0
        reference = {
            name: (out / name / "site.json").read_bytes()
            for name in map(os.path.basename, corpus_site_dirs(out))
        }
        capsys.readouterr()
        # Reconstruct the state a SIGKILL after two sites leaves behind:
        # two journaled site folders, the rest missing.
        sites = alexa_corpus(seed=2, size=4, single_origin_sites=1,
                             scale=0.3)
        key = run_key(seed=2, size=4, singles=1, scale=0.3)
        for index in (2, 3):
            import shutil

            shutil.rmtree(out / sites[index].name)
        with TrialJournal(out / mm_corpus.JOURNAL_FILE, key=key) as journal:
            for index in (0, 1):
                journal.append(index, {"status": "ok", "attempts": 1,
                                       "result": sites[index].name})
        assert self._generate(out, extra=["--resume"]) == 0
        text = capsys.readouterr().out
        assert "generated 2 of 4 sites" in text
        assert "2 already journaled" in text
        assert not (out / mm_corpus.JOURNAL_FILE).exists()
        # A resumed corpus is byte-identical to the uninterrupted one.
        for name, content in reference.items():
            assert (out / name / "site.json").read_bytes() == content

    def test_resume_with_different_parameters_refused(self, tmp_path):
        from repro.measure.journal import TrialJournal, run_key

        out = tmp_path / "corpus"
        out.mkdir()
        with TrialJournal(out / mm_corpus.JOURNAL_FILE,
                          key=run_key(seed=99, size=4, singles=1,
                                      scale=0.3)) as journal:
            journal.append(0, "somesite.com")
        with pytest.raises(CliError, match="cannot resume"):
            self._generate(out, extra=["--resume"])

    def test_fresh_run_discards_stale_journal(self, tmp_path, capsys):
        from repro.measure.journal import TrialJournal

        out = tmp_path / "corpus"
        out.mkdir()
        with TrialJournal(out / mm_corpus.JOURNAL_FILE,
                          key="stale") as journal:
            journal.append(0, "ghost.com")
        assert self._generate(out) == 0
        assert "generated 4 of 4 sites" in capsys.readouterr().out
        assert not (out / mm_corpus.JOURNAL_FILE).exists()

    def test_bare_site_records_are_dropped_and_regenerated(self, tmp_path,
                                                           capsys):
        # A journal from before every record was a sweep outcome holds
        # bare site names: never misread as done, never a crash.
        from repro.measure.journal import TrialJournal, run_key

        out = tmp_path / "corpus"
        out.mkdir()
        with TrialJournal(out / mm_corpus.JOURNAL_FILE,
                          key=run_key(seed=2, size=4, singles=1,
                                      scale=0.3)) as journal:
            journal.append(0, "somesite.com")
        assert self._generate(out, extra=["--resume"]) == 0
        assert "generated 4 of 4 sites" in capsys.readouterr().out
        assert len(corpus_site_dirs(out)) == 4

    def test_failed_site_is_named_and_journal_kept(self, tmp_path,
                                                    monkeypatch):
        from repro.measure.journal import TrialJournal
        from repro.record.store import RecordedSite

        real = RecordedSite.save
        broken = []

        def flaky(store, directory, **kwargs):
            if not broken:
                broken.append(os.path.basename(directory))
                raise OSError("disk full")
            return real(store, directory, **kwargs)

        monkeypatch.setattr(RecordedSite, "save", flaky)
        out = tmp_path / "corpus"
        with pytest.raises(CliError, match="OSError: disk full") as info:
            self._generate(out)
        assert f"site {broken[0]} quarantined" in str(info.value)
        journal = out / mm_corpus.JOURNAL_FILE
        assert sorted(TrialJournal(str(journal)).completed) == [1, 2, 3]
        # --resume finishes the corpus from there.
        monkeypatch.setattr(RecordedSite, "save", real)
        assert self._generate(out, extra=["--resume"]) == 0
        assert not journal.exists()
        assert len(corpus_site_dirs(out)) == 4


class TestMmFsck:
    @pytest.fixture
    def fsck_dir(self, tmp_path):
        site = generate_site("fscked.com", seed=7, n_origins=3, scale=0.3)
        directory = tmp_path / "fscked.com"
        site.to_recorded_site().save(directory)
        return directory

    def test_clean_site_exits_zero(self, fsck_dir, capsys):
        assert mm_fsck.run([str(fsck_dir)], []) == 0
        assert "all clean" in capsys.readouterr().out

    def test_damage_detected_exits_one(self, fsck_dir, capsys):
        (fsck_dir / "pair-00000.json").write_bytes(b"junk")
        assert mm_fsck.run([str(fsck_dir)], []) == 1
        assert "truncated" in capsys.readouterr().out
        # Detection never modifies the folder.
        assert not (fsck_dir / "quarantine").exists()

    def test_repair_then_clean(self, fsck_dir, capsys):
        (fsck_dir / "pair-00000.json").write_bytes(b"junk")
        assert mm_fsck.run([str(fsck_dir), "--repair"], []) == 1
        assert "quarantined" in capsys.readouterr().out
        assert (fsck_dir / "quarantine" / "pair-00000.json").exists()
        assert mm_fsck.run([str(fsck_dir)], []) == 0

    def test_json_output(self, fsck_dir, capsys):
        import json

        (fsck_dir / "pair-00001.json").write_bytes(b"junk")
        assert mm_fsck.run([str(fsck_dir), "--json"], []) == 1
        reports = json.loads(capsys.readouterr().out)
        assert [r["kind"] for r in reports] == ["site", "cas"]
        assert reports[0]["problems"][0] == {
            "file": "pair-00001.json", "kind": "truncated",
            "detail": reports[0]["problems"][0]["detail"]}

    def test_usage_errors(self, fsck_dir):
        with pytest.raises(CliError):
            mm_fsck.run([], [])
        with pytest.raises(CliError):
            mm_fsck.run(["--bogus", str(fsck_dir)], [])
        with pytest.raises(CliError):
            mm_fsck.run(["/nonexistent-dir"], [])

    def test_rejects_nesting(self, fsck_dir):
        with pytest.raises(CliError):
            mm_fsck.run([str(fsck_dir)], [("delay", {"delay": 0.01})])


class TestHelpers:
    def test_parse_trace_or_rate_number(self):
        assert parse_trace_or_rate("14") == 14.0

    def test_parse_trace_or_rate_rejects_nonpositive(self):
        with pytest.raises(CliError):
            parse_trace_or_rate("0")

    def test_page_from_recording_covers_all_pairs(self):
        site = generate_site("pfr.com", seed=6, n_origins=5)
        store = site.to_recorded_site()
        page = page_from_recording(store)
        assert page.resource_count == len(store)

    def test_page_from_recording_needs_root(self, tmp_path, monkeypatch,
                                            capsys):
        from repro.errors import StoreFormatError
        from repro.record.store import RecordedSite
        rootless = RecordedSite("rootless")
        for pair in generate_site("pfr.com", seed=6).to_recorded_site().pairs:
            if pair.request.path != "/":
                rootless.add_pair(pair)
        # A property of the store, named as one...
        with pytest.raises(StoreFormatError, match="'rootless'"):
            page_from_recording(rootless)
        # ... and still an ``error:`` line and exit 2 from the CLI.
        rootless.save(tmp_path / "rootless")
        monkeypatch.setattr(
            "sys.argv", ["mm-webreplay", str(tmp_path / "rootless"), "load"])
        assert mm_webreplay.main() == 2
        assert capsys.readouterr().err.startswith(
            "error: recording 'rootless' has no scannable root")


class TestMmLossGeMode:
    def test_ge_load(self, recorded_dir, capsys):
        code = mm_webreplay.run(
            [recorded_dir, "mm-loss", "downlink", "ge",
             "0.05", "0.4", "0.0", "0.5", "mm-delay", "20", "load"], [])
        assert code == 0
        out = capsys.readouterr().out
        assert "page load time" in out
        assert "ge(0.05,0.4)" in out

    def test_ge_needs_four_params(self):
        with pytest.raises(CliError):
            mm_loss.run(["downlink", "ge", "0.05", "0.4"], [])

    def test_ge_rejects_bad_probability(self):
        with pytest.raises(CliError):
            mm_loss.run(["downlink", "ge", "1.5", "0.4", "0.0", "0.5"], [])
        with pytest.raises(CliError):
            mm_loss.run(["downlink", "ge", "p", "0.4", "0.0", "0.5"], [])


class TestMmChaos:
    @pytest.fixture()
    def plan_file(self, tmp_path):
        from repro.chaos import FaultPlan, GilbertElliottClause, OutageClause

        plan = FaultPlan(clauses=(
            OutageClause(direction="downlink", start=0.3, duration=0.1),
            GilbertElliottClause(direction="downlink", p_good_bad=0.05,
                                 p_bad_good=0.4, loss_bad=0.5),
        ), name="cli-test")
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        return str(path)

    def test_chaos_load(self, recorded_dir, plan_file, capsys):
        code = mm_webreplay.run(
            [recorded_dir, "mm-link", "14", "14", "mm-chaos", plan_file,
             "mm-delay", "20", "load"], [])
        assert code == 0
        out = capsys.readouterr().out
        assert "page load time" in out
        assert "cli-test" in out

    def test_server_clauses_need_replay(self, plan_file, tmp_path):
        from repro.chaos import FaultPlan, ServerFaultClause

        path = tmp_path / "server-plan.json"
        path.write_text(
            FaultPlan(clauses=(ServerFaultClause(),)).to_json())
        with pytest.raises(CliError):
            mm_chaos.run([str(path), "load"], [])

    def test_example_prints_valid_plan(self, capsys):
        from repro.chaos import FaultPlan

        assert mm_chaos.run(["--example"], []) == 0
        plan = FaultPlan.from_json(capsys.readouterr().out)
        assert len(plan) == 4

    def test_missing_plan_file(self):
        with pytest.raises(CliError):
            mm_chaos.run(["/nonexistent-plan.json", "load"], [])

    def test_bad_plan_rejected_before_simulation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "clauses": [{"type": "gremlins"}]}')
        with pytest.raises(CliError):
            mm_chaos.run([str(path), "load"], [])

    def test_usage(self):
        with pytest.raises(CliError):
            mm_chaos.run([], [])
