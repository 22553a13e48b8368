"""Rule-by-rule coverage for the determinism lint (``mm-lint``).

Each rule gets at least one positive fixture (the violation is detected)
and one negative fixture (conforming or out-of-scope code is not
flagged), plus coverage of the inline ``# mm-lint: disable=`` escape
hatch, its stale-suppression audit and the CLI wrapper.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (
    RULES,
    Diagnostic,
    check_suppressions,
    is_sim_domain,
    lint_paths,
    lint_source,
    main,
    suppression_comments,
)

SIM_PATH = "src/repro/sim/module.py"
OUTSIDE_PATH = "src/repro/measure/module.py"


def codes(source, path=SIM_PATH):
    return [d.code for d in lint_source(textwrap.dedent(source), path)]


class TestRep001WallClock:
    def test_time_time_flagged_in_sim_domain(self):
        src = """
            import time

            def stamp():
                return time.time()
        """
        assert codes(src) == ["REP001"]

    def test_monotonic_and_perf_counter_flagged(self):
        src = """
            import time

            def stamp():
                return time.monotonic() + time.perf_counter()
        """
        assert codes(src) == ["REP001", "REP001"]

    def test_argless_datetime_now_flagged(self):
        src = """
            import datetime

            def stamp():
                return datetime.datetime.now()
        """
        assert codes(src) == ["REP001"]

    def test_sim_now_not_flagged(self):
        src = """
            def stamp(sim):
                return sim.now
        """
        assert codes(src) == []

    def test_wall_clock_allowed_outside_sim_domain(self):
        # measure/ legitimately times wall-clock (parallel speedup benches).
        src = """
            import time

            def stamp():
                return time.time()
        """
        assert codes(src, path=OUTSIDE_PATH) == []

    @pytest.mark.parametrize(
        "imported, call",
        [
            ("import time as t", "t.time()"),
            ("from time import monotonic", "monotonic()"),
            ("from time import perf_counter as clock", "clock()"),
            ("from datetime import datetime as dt", "dt.now()"),
            ("from datetime import date as d", "d.today()"),
        ],
        ids=[
            "import_time_as",
            "from_time_import",
            "from_time_import_as",
            "from_datetime_import_datetime_as",
            "from_datetime_import_date_as",
        ],
    )
    def test_aliased_import_flagged(self, imported, call):
        src = f"""
            {imported}

            def stamp():
                return {call}
        """
        assert codes(src) == ["REP001"]

    def test_local_named_time_not_flagged(self):
        # Only an import makes a name a clock; a parameter that merely
        # happens to be called ``time`` (or ``clock``) is just a name.
        src = """
            def stamp(time, clock):
                return time() + clock()
        """
        assert codes(src) == []


class TestRep002UnseededRng:
    def test_module_level_draw_flagged(self):
        src = """
            import random

            def jitter():
                return random.random()
        """
        assert codes(src, path=OUTSIDE_PATH) == ["REP002"]

    def test_from_import_draw_flagged(self):
        src = """
            from random import shuffle

            def mix(items):
                shuffle(items)
        """
        assert codes(src, path=OUTSIDE_PATH) == ["REP002"]

    def test_unseeded_random_instance_flagged(self):
        src = """
            import random

            def make_rng():
                return random.Random()
        """
        assert codes(src, path=OUTSIDE_PATH) == ["REP002"]

    def test_raw_seed_flagged(self):
        src = """
            import random

            def make_rng(seed):
                return random.Random(seed)
        """
        assert codes(src, path=OUTSIDE_PATH) == ["REP002"]

    def test_system_random_flagged(self):
        src = """
            import random

            def make_rng():
                return random.SystemRandom()
        """
        assert codes(src, path=OUTSIDE_PATH) == ["REP002"]

    def test_stable_seed_derived_not_flagged(self):
        src = """
            import random

            from repro.sim.random import stable_seed

            def make_rng(master, name):
                return random.Random(stable_seed(master, name))
        """
        assert codes(src, path=OUTSIDE_PATH) == []

    def test_blessed_module_exempt(self):
        # sim/random.py is where the streams themselves are built.
        src = """
            import random

            def raw():
                return random.Random(1234)
        """
        assert codes(src, path="src/repro/sim/random.py") == []

    def test_rng_parameter_draws_not_flagged(self):
        # Drawing from a passed-in stream is the blessed pattern.
        src = """
            def jitter(rng):
                return rng.gauss(1.0, 0.1)
        """
        assert codes(src, path=OUTSIDE_PATH) == []


class TestRep003FloatTimeEquality:
    def test_equality_on_now_flagged(self):
        src = """
            def due(now, deadline):
                return now == deadline
        """
        assert codes(src) == ["REP003"]

    def test_inequality_on_time_suffix_flagged(self):
        src = """
            def changed(self):
                return self.finish_time != self.start_time
        """
        assert codes(src) == ["REP003"]

    def test_ordering_not_flagged(self):
        src = """
            def due(now, deadline):
                return now >= deadline
        """
        assert codes(src) == []

    def test_none_sentinel_not_flagged(self):
        src = """
            def armed(deadline):
                return deadline == None
        """
        assert codes(src) == []

    def test_non_time_names_not_flagged(self):
        src = """
            def same(count, total):
                return count == total
        """
        assert codes(src) == []

    def test_outside_sim_domain_not_flagged(self):
        src = """
            def due(now, deadline):
                return now == deadline
        """
        assert codes(src, path=OUTSIDE_PATH) == []


class TestRep004UnorderedScheduling:
    def test_set_iteration_feeding_schedule_flagged(self):
        src = """
            def start(sim, hosts):
                for host in set(hosts):
                    sim.schedule(0.1, host.poke)
        """
        assert codes(src, path=OUTSIDE_PATH) == ["REP004"]

    def test_dict_keys_iteration_feeding_schedule_flagged(self):
        src = """
            def start(sim, table):
                for name in table.keys():
                    sim.schedule_at(1.0, table[name])
        """
        assert codes(src, path=OUTSIDE_PATH) == ["REP004"]

    def test_set_literal_comprehension_flagged(self):
        src = """
            def start(sim, hosts):
                return [sim.call_soon(h) for h in {hosts[0], hosts[1]}]
        """
        assert codes(src, path=OUTSIDE_PATH) == ["REP004"]

    def test_sorted_iteration_not_flagged(self):
        src = """
            def start(sim, hosts):
                for host in sorted(set(hosts)):
                    sim.schedule(0.1, host.poke)
        """
        assert codes(src, path=OUTSIDE_PATH) == []

    def test_set_iteration_without_scheduling_not_flagged(self):
        src = """
            def total(sizes):
                acc = 0
                for size in set(sizes):
                    acc += size
                return acc
        """
        assert codes(src, path=OUTSIDE_PATH) == []


class TestRep005EnvironmentReads:
    def test_environ_read_flagged(self):
        src = """
            import os

            def scale():
                return float(os.environ["REPRO_SCALE"])
        """
        assert codes(src) == ["REP005"]

    def test_getenv_flagged(self):
        src = """
            import os

            def scale():
                return os.getenv("REPRO_SCALE", "1.0")
        """
        assert codes(src) == ["REP005"]

    def test_explicit_configuration_not_flagged(self):
        src = """
            def scale(config):
                return config.scale
        """
        assert codes(src) == []

    def test_environ_allowed_outside_sim_domain(self):
        src = """
            import os

            def workers():
                return os.environ.get("REPRO_BENCH_WORKERS")
        """
        assert codes(src, path=OUTSIDE_PATH) == []

    @pytest.mark.parametrize(
        "imported, read",
        [
            ("import os as o", 'o.environ["REPRO_SCALE"]'),
            ("import os as o", 'o.getenv("REPRO_SCALE")'),
            ("from os import environ", 'environ["REPRO_SCALE"]'),
            ("from os import environ as env", 'env.get("REPRO_SCALE")'),
            ("from os import getenv", 'getenv("REPRO_SCALE")'),
            ("from os import getenv as lookup", 'lookup("REPRO_SCALE")'),
        ],
        ids=[
            "import_os_as_environ",
            "import_os_as_getenv",
            "from_os_import_environ",
            "from_os_import_environ_as",
            "from_os_import_getenv",
            "from_os_import_getenv_as",
        ],
    )
    def test_aliased_import_flagged(self, imported, read):
        src = f"""
            {imported}

            def scale():
                return {read}
        """
        assert codes(src) == ["REP005"]

    def test_local_named_environ_not_flagged(self):
        src = """
            def scale(environ, getenv):
                return environ["REPRO_SCALE"] or getenv("REPRO_SCALE")
        """
        assert codes(src) == []


class TestRep006ModuleLevelMutableState:
    def test_module_level_dict_flagged(self):
        src = """
            registry = {}

            def register(name, thing):
                registry[name] = thing
        """
        assert codes(src) == ["REP006"]

    def test_module_level_factory_call_flagged(self):
        src = """
            from collections import deque

            backlog = deque()
        """
        assert codes(src) == ["REP006"]

    def test_empty_allcaps_container_flagged(self):
        # An empty ALL_CAPS container is an accumulator, not a constant.
        src = """
            CACHE = {}
        """
        assert codes(src) == ["REP006"]

    def test_nonempty_allcaps_literal_is_a_constant(self):
        src = """
            _REASONS = {200: "OK", 404: "Not Found"}
        """
        assert codes(src) == []

    def test_dunder_and_scalars_not_flagged(self):
        src = """
            __all__ = ["thing"]

            LIMIT = 512

            def thing():
                return LIMIT
        """
        assert codes(src) == []

    def test_function_local_state_not_flagged(self):
        src = """
            def build():
                registry = {}
                return registry
        """
        assert codes(src) == []

    def test_outside_sim_domain_not_flagged(self):
        src = """
            registry = {}
        """
        assert codes(src, path=OUTSIDE_PATH) == []


class TestEscapeHatch:
    def test_inline_disable_silences_one_rule(self):
        src = """
            def due(now, deadline):
                return now == deadline  # mm-lint: disable=REP003
        """
        assert codes(src) == []

    def test_disable_all(self):
        src = """
            import time

            def stamp(now):
                return time.time() == now  # mm-lint: disable=all
        """
        assert codes(src) == []

    def test_disable_lists_multiple_codes(self):
        src = """
            import time

            def stamp(now):
                return time.time() == now  # mm-lint: disable=REP001,REP003
        """
        assert codes(src) == []

    def test_disable_wrong_code_keeps_diagnostic(self):
        src = """
            def due(now, deadline):
                return now == deadline  # mm-lint: disable=REP001
        """
        assert codes(src) == ["REP003"]

    def test_disable_on_other_line_keeps_diagnostic(self):
        src = """
            # mm-lint: disable=REP003
            def due(now, deadline):
                return now == deadline
        """
        assert codes(src) == ["REP003"]


class TestSuppressionAudit:
    def test_live_suppression_passes(self, tmp_path):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "mod.py").write_text(
            "import time\n\ndef f():\n"
            "    return time.time()  # mm-lint: disable=REP001\n"
        )
        assert check_suppressions([tmp_path]) == []

    def test_stale_suppression_is_reported(self, tmp_path):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "mod.py").write_text(
            "def f(sim):\n"
            "    return sim.now  # mm-lint: disable=REP001\n"
        )
        stale = check_suppressions([tmp_path])
        assert [d.code for d in stale] == ["SUP001"]
        assert "REP001" in stale[0].message

    def test_wrong_code_is_stale_even_with_a_live_finding(self, tmp_path):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "mod.py").write_text(
            "import time\n\ndef f():\n"
            "    return time.time()  # mm-lint: disable=REP001,REP003\n"
        )
        stale = check_suppressions([tmp_path])
        assert len(stale) == 1
        assert "REP003" in stale[0].message

    def test_docstring_lookalike_is_not_audited(self, tmp_path):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "mod.py").write_text(
            '"""Docs show the escape hatch: # mm-lint: disable=REP003"""\n'
        )
        assert suppression_comments((sim / "mod.py").read_text()) == {}
        assert check_suppressions([tmp_path]) == []

    def test_cli_flag_exits_nonzero_on_stale(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "mod.py").write_text(
            "def f(sim):\n"
            "    return sim.now  # mm-lint: disable=REP001\n"
        )
        assert main([str(tmp_path), "--check-suppressions"]) == 1
        assert "stale suppression" in capsys.readouterr().out

    def test_repo_tree_has_no_stale_suppressions(self):
        src = Path(__file__).resolve().parents[2] / "src"
        assert check_suppressions([src]) == []


class TestLintInfrastructure:
    def test_sim_domain_classification(self):
        assert is_sim_domain("src/repro/sim/simulator.py")
        assert is_sim_domain("src/repro/linkem/codel.py")
        assert is_sim_domain("src/repro/net/namespace.py")
        assert not is_sim_domain("src/repro/measure/parallel.py")
        assert not is_sim_domain("src/repro/analysis/lint.py")

    def test_diagnostic_format_is_clickable(self):
        diag = Diagnostic("a/b.py", 3, 4, "REP001", "message")
        assert diag.format() == "a/b.py:3:4: REP001 message"

    def test_syntax_error_reported_not_raised(self):
        diags = lint_source("def broken(:\n", SIM_PATH)
        assert [d.code for d in diags] == ["E999"]

    def test_diagnostics_sorted_by_position(self):
        src = textwrap.dedent(
            """
            import time

            def f(now, deadline):
                return now == deadline

            def g():
                return time.time()
            """
        )
        diags = lint_source(src, SIM_PATH)
        assert [d.code for d in diags] == ["REP003", "REP001"]
        assert diags[0].line < diags[1].line

    def test_every_rule_has_a_summary(self):
        assert sorted(RULES) == [
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
            "REP007",
        ]

    def test_lint_paths_walks_directories(self, tmp_path):
        package = tmp_path / "sim"
        package.mkdir()
        (package / "bad.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        (package / "good.py").write_text("def f(sim):\n    return sim.now\n")
        diags = lint_paths([tmp_path])
        assert [d.code for d in diags] == ["REP001"]
        assert diags[0].path.endswith("bad.py")


OBS_PATH = "src/repro/obs/probe.py"


class TestRep007ObserverDomain:
    def test_schedule_call_flagged_in_obs_domain(self):
        src = """
            def probe(sim):
                sim.schedule(0.1, probe, sim)
        """
        assert codes(src, path=OBS_PATH) == ["REP007"]

    def test_cancel_and_set_trace_flagged(self):
        src = """
            def probe(sim, handle, digest):
                sim.cancel(handle)
                sim.set_trace(digest)
        """
        assert codes(src, path=OBS_PATH) == ["REP007", "REP007"]

    def test_sim_attribute_write_flagged(self):
        src = """
            def attach(sim, registry):
                sim.metrics = registry
        """
        assert codes(src, path=OBS_PATH) == ["REP007"]

    def test_queue_mutation_flagged(self):
        src = """
            def probe(pipe, packet):
                pipe.queue.push(packet)
        """
        assert codes(src, path=OBS_PATH) == ["REP007"]

    def test_reads_and_observer_writes_allowed(self):
        # The shape real probes take: read sim state, append to
        # observer-owned storage, store a sim reference.
        src = """
            class Probe:
                def __init__(self, sim):
                    self.sim = sim
                    self.points = []

                def record(self):
                    self.points.append((self.sim.now, len(self.sim._queue)))
        """
        assert codes(src, path=OBS_PATH) == []

    def test_use_metrics_call_allowed(self):
        # MetricsRegistry.install attaches via the simulator's own API.
        src = """
            def install(sim, registry):
                sim.use_metrics(registry)
        """
        assert codes(src, path=OBS_PATH) == []

    def test_same_code_unflagged_outside_obs_domain(self):
        src = """
            def driver(sim):
                sim.schedule(0.1, driver, sim)
                sim.metrics = None
        """
        assert codes(src, path=SIM_PATH) == []
        assert codes(src, path=OUTSIDE_PATH) == []

    def test_escape_hatch_disables_rep007(self):
        src = """
            def probe(sim):
                sim.schedule(0.1, probe, sim)  # mm-lint: disable=REP007
        """
        assert codes(src, path=OBS_PATH) == []


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def f(sim):\n    return sim.now\n")
        assert main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_violations_exit_one_and_print(self, tmp_path, capsys):
        bad = tmp_path / "sim"
        bad.mkdir()
        (bad / "bad.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        assert main([str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "REP001" in captured.out
        assert "violation" in captured.err

    def test_select_restricts_rules(self, tmp_path, capsys):
        bad = tmp_path / "sim"
        bad.mkdir()
        (bad / "bad.py").write_text(
            "import time\n\ndef f(now, deadline):\n"
            "    return time.time() == now\n"
        )
        assert main([str(tmp_path), "--select", "REP003"]) == 1
        out = capsys.readouterr().out
        assert "REP003" in out and "REP001" not in out

    def test_unknown_select_code_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main([str(tmp_path), "--select", "REP999"])

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    @pytest.mark.parametrize(
        "mode", [[], ["--check-suppressions"]], ids=["lint", "check_suppressions"]
    )
    @pytest.mark.parametrize("name", ["missing.py", "missing_dir", "binary.py"])
    def test_unreadable_path_is_a_diagnostic(self, tmp_path, capsys, name, mode):
        # A typo'd path in the CI step must fail it, in either mode, with
        # a diagnostic naming the path — not a traceback, not exit 0.
        (tmp_path / "binary.py").write_bytes(b"\xff\xfe not utf-8")
        target = str(tmp_path / name)
        assert main([target, *mode]) == 1
        captured = capsys.readouterr()
        assert f"{target}:1:0: E902 cannot read: " in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_repo_sources_are_clean(self):
        # The acceptance gate: the shipped tree itself lints clean.
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        assert main([str(src)]) == 0


CHAOS_PATH = "src/repro/chaos/pipes.py"

#: Sim-domain too: every packet, recorded pair and page crosses these.
each_newly_covered_package = pytest.mark.parametrize(
    "package", ["net", "record", "apps", "corpus"]
)


class TestChaosDomainCoverage:
    """repro.chaos is simulation-domain code: every REP rule applies —
    and so are the other packages the simulated world runs through."""

    def test_chaos_is_sim_domain(self):
        assert is_sim_domain(CHAOS_PATH)
        assert is_sim_domain("src/repro/chaos/plan.py")

    def test_wall_clock_flagged_in_chaos(self):
        src = """
            import time

            def window_end(clause):
                return time.time() + clause.duration
        """
        assert codes(src, path=CHAOS_PATH) == ["REP001"]

    def test_unseeded_rng_flagged_in_chaos(self):
        src = """
            import random

            def should_drop(clause):
                return random.random() < clause.loss_bad
        """
        assert codes(src, path=CHAOS_PATH) == ["REP002"]

    def test_seeded_stream_draw_not_flagged(self):
        src = """
            def should_drop(rng, clause):
                return rng.random() < clause.loss_bad
        """
        assert codes(src, path=CHAOS_PATH) == []

    def test_shipped_chaos_package_is_clean(self):
        diags = lint_paths(["src/repro/chaos"])
        assert diags == []

    @each_newly_covered_package
    def test_package_is_sim_domain(self, package):
        assert is_sim_domain(f"src/repro/{package}/module.py")

    @each_newly_covered_package
    def test_shipped_package_is_clean(self, package):
        assert lint_paths([f"src/repro/{package}"]) == []


class TestDomainClassificationEdgeCases:
    """Classification is lexical over path components — these pin the
    corner cases: nesting, symlinks, and sim/obs overlap."""

    def test_nested_sim_dir_classifies_everything_below_it(self):
        # Any component matching a sim-domain dir suffices, however deep,
        # and regardless of what sits above it.
        assert is_sim_domain("tools/extra/sim/helpers/deep/mod.py")
        src = """
            import time

            def f():
                return time.time()
        """
        assert codes(src, path="tools/extra/sim/helpers/deep/mod.py") == [
            "REP001"
        ]

    def test_filename_alone_never_classifies(self):
        # Only *directory* components count: a file named sim.py outside
        # a sim dir is not simulation-domain.
        assert not is_sim_domain("src/repro/measure/sim.py")
        assert codes("import time\nt = time.time()\n",
                     path="src/repro/measure/sim.py") == []

    def test_symlinked_path_is_classified_lexically(self, tmp_path):
        # The lint never resolves links: a file reached through a
        # sim-named symlink is sim-domain even though its real location
        # is not, and vice versa.
        real = tmp_path / "scratch"
        real.mkdir()
        (real / "mod.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        link = tmp_path / "sim"
        link.symlink_to(real, target_is_directory=True)
        through_link = lint_paths([link])
        assert [d.code for d in through_link] == ["REP001"]
        direct = lint_paths([real])
        assert direct == []

    def test_sim_and_obs_overlap_applies_both_rule_sets(self):
        # A path under both a sim dir and an obs dir gets the sim-domain
        # rules AND the observer-effect rule.
        path = "src/repro/sim/obs/probe.py"
        assert is_sim_domain(path)
        src = """
            import time

            def probe(sim):
                sim.schedule(0.1, None)
                return time.time()
        """
        found = codes(src, path=path)
        assert "REP001" in found, "sim-domain rules must apply"
        assert "REP007" in found, "observer-domain rules must apply"
