"""Interprocedural dataflow rules REP010-REP012 (``repro.analysis.flow``).

Each rule gets positive fixtures (the hazard, reported) and negative
fixtures (the idiomatic safe pattern, silent), plus engine-level cases:
interprocedural propagation through function summaries, branch joins,
loop fixpoints, suppression and rule selection.
"""

from __future__ import annotations

import textwrap

from repro.analysis.lint import lint_source

SIM_PATH = "src/repro/sim/module.py"
TRANSPORT_PATH = "src/repro/transport/module.py"
OUTSIDE_PATH = "src/repro/measure/module.py"


def codes(source: str, path: str = SIM_PATH) -> list:
    return [d.code for d in lint_source(textwrap.dedent(source), path)]


def diags(source: str, path: str = SIM_PATH) -> list:
    return lint_source(textwrap.dedent(source), path)


# --------------------------------------------------------------------- #
# REP010: wall-clock / environment taint reaching sinks


class TestRep010TaintToSink:
    def test_time_taint_through_assignment_to_schedule(self):
        assert codes(
            """
            import time
            def kick(sim):
                start = time.time()  # mm-lint: disable=REP001
                delay = start % 10
                sim.schedule(delay, None)
            """
        ) == ["REP010"]

    def test_env_taint_to_seed(self):
        assert codes(
            """
            import os
            def build(master):
                salt = os.getenv("SALT")  # mm-lint: disable=REP005
                return stable_seed(master, salt)
            """
        ) == ["REP010"]

    def test_time_taint_to_artifact(self):
        assert codes(
            """
            import time
            def snapshot(obs):
                stamp = time.monotonic()  # mm-lint: disable=REP001
                obs.write_artifact("trace", stamp)
            """
        ) == ["REP010"]

    def test_taint_through_call_return(self):
        # The helper's summary carries the taint to its callers.
        assert codes(
            """
            import time

            def stamp():
                return time.time()  # mm-lint: disable=REP001

            def kick(sim):
                sim.schedule_at(stamp(), None)
            """
        ) == ["REP010"]

    def test_sim_now_to_schedule_is_clean(self):
        assert codes(
            """
            def kick(sim):
                deadline = sim.now + 0.5
                sim.schedule_at(deadline, None)
            """
        ) == []

    def test_explicit_config_to_seed_is_clean(self):
        assert codes(
            """
            def build(master, name):
                return stable_seed(master, name)
            """
        ) == []

    def test_unsunk_taint_is_clean(self):
        # Wall-clock for wall-clock's sake (progress logging) never
        # reaches a determinism-relevant sink.
        assert codes(
            """
            import time
            def note(log):
                started = time.time()  # mm-lint: disable=REP001
                log.debug(started)
            """
        ) == []


# --------------------------------------------------------------------- #
# REP011: RNG stream aliasing across domains


class TestRep011RngAliasing:
    def test_chaos_and_transport_share_a_stream(self):
        assert codes(
            """
            import random
            def wire(chaos_pipe, tcp_conn, master):
                rng = random.Random(stable_seed(master, "x"))
                chaos_pipe.install(rng)
                tcp_conn.attach(rng)
            """
        ) == ["REP011"]

    def test_link_and_chaos_share_a_stream(self):
        assert codes(
            """
            import random
            def wire(master):
                rng = random.Random(stable_seed(master, "x"))
                link = DelayPipe(0.01, rng)
                faults = GilbertModel(rng)
            """
        ) == ["REP011"]

    def test_transport_and_link_share_via_keyword(self):
        assert codes(
            """
            import random
            def wire(master):
                rng = random.Random(stable_seed(master, "x"))
                conn = CongestionControl(rng=rng)
                queue = CodelQueue(rng=rng)
            """
        ) == ["REP011"]

    def test_one_stream_per_domain_is_clean(self):
        assert codes(
            """
            import random
            def wire(chaos_pipe, tcp_conn, master):
                chaos_rng = random.Random(stable_seed(master, "chaos"))
                tcp_rng = random.Random(stable_seed(master, "tcp"))
                chaos_pipe.install(chaos_rng)
                tcp_conn.attach(tcp_rng)
            """
        ) == []

    def test_same_domain_reuse_is_clean(self):
        # Two consumers inside one domain may share that domain's stream.
        assert codes(
            """
            import random
            def wire(master):
                rng = random.Random(stable_seed(master, "link"))
                a = DelayPipe(0.01, rng)
                b = CodelQueue(rng)
            """
        ) == []

    def test_unrecognised_consumers_are_clean(self):
        assert codes(
            """
            import random
            def wire(master):
                rng = random.Random(stable_seed(master, "x"))
                helper_a(rng)
                helper_b(rng)
            """
        ) == []


# --------------------------------------------------------------------- #
# REP012: fork-hostile handles in forked workers


class TestRep012ForkHostileHandles:
    def test_open_file_used_in_worker(self):
        assert codes(
            """
            def run():
                log = open("trials.log", "w")
                def work(i):
                    log.write(str(i))
                parallel_map(work, 10, workers=4)
            """,
            path=OUTSIDE_PATH,
        ) == ["REP012"]

    def test_journal_used_in_lambda_worker(self):
        assert codes(
            """
            def run(path, key):
                journal = TrialJournal(path, key=key)
                parallel_map(lambda i: journal.append(i, None), 10, workers=4)
            """,
            path=OUTSIDE_PATH,
        ) == ["REP012"]

    def test_lock_used_in_run_supervised_worker(self):
        assert codes(
            """
            from threading import Lock

            def run():
                guard = Lock()
                def work(i):
                    with guard:
                        return i
                run_supervised(work, 10)
            """,
            path=OUTSIDE_PATH,
        ) == ["REP012"]

    def test_applies_outside_sim_domain(self):
        # REP012 is an everywhere-rule: the harness code forks.
        assert codes(
            """
            def run():
                sock = socket.socket()
                parallel_map(lambda i: sock.send(i), 10, workers=2)
            """,
            path="tools/driver.py",
        ) == ["REP012"]

    def test_handle_opened_inside_worker_is_clean(self):
        assert codes(
            """
            def run():
                def work(i):
                    with open(f"out-{i}.log", "w") as log:
                        log.write(str(i))
                    return i
                parallel_map(work, 10, workers=4)
            """,
            path=OUTSIDE_PATH,
        ) == []

    def test_plain_data_capture_is_clean(self):
        assert codes(
            """
            def run(scale):
                base = scale * 2
                parallel_map(lambda i: i * base, 10, workers=4)
            """,
            path=OUTSIDE_PATH,
        ) == []

    def test_factory_handed_to_the_fork_site(self):
        # LocalBackend is where every worker is forked: a factory it is
        # given runs post-fork, whichever entry point passes it on.
        assert codes(
            """
            def run(path, key, trials):
                journal = TrialJournal(path, key=key)
                def factory(trial):
                    journal.append(trial, None)
                run_fabric(LocalBackend(factory), trials, shards=2)
            """,
            path=OUTSIDE_PATH,
        ) == ["REP012"]

    def test_journal_beside_the_fork_site_is_clean(self):
        # The coordinator's own journal never enters the factory.
        assert codes(
            """
            def run(path, key, trials, store):
                journal = TrialJournal(path, key=key)
                def factory(trial):
                    return build_world(store, trial)
                run_fabric(LocalBackend(factory), trials, shards=2,
                           journal=journal)
            """,
            path=OUTSIDE_PATH,
        ) == []

    def test_parent_side_on_result_callback_is_clean(self):
        # parallel_map's on_result runs in the parent (documented); a
        # handle captured there never crosses the fork.
        assert codes(
            """
            def run(path, key):
                journal = TrialJournal(path, key=key)
                def work(i):
                    return i
                parallel_map(work, 10, workers=4,
                             on_result=lambda i, r: journal.append(i, r))
            """,
            path=OUTSIDE_PATH,
        ) == []


# --------------------------------------------------------------------- #
# engine behaviour


class TestFlowEngine:
    def test_loop_body_reaches_fixpoint(self):
        # The taint picked up at the bottom of iteration N must reach the
        # sink at the top of iteration N+1 (requires the second loop pass).
        assert codes(
            """
            def pace(sim, n):
                delay = 0.0
                for _ in range(n):
                    sim.schedule(delay, None)
                    delay = sim.now + 0.5
            """
        ) == []  # re-binding `delay` from sim.now keeps this clean

        assert codes(
            """
            import time
            def pace(sim, n):
                delay = 0.0
                for _ in range(n):
                    sim.schedule(delay, None)
                    delay = time.time()  # mm-lint: disable=REP001
            """
        ) == ["REP010"]

    def test_early_return_branch_does_not_taint_the_fall_through(self):
        # A branch that always returns contributes nothing to the code
        # after the conditional; a branch that falls through does.
        assert codes(
            """
            import time
            def kick(sim, wall):
                delay = 0.5
                if wall:
                    delay = time.time()  # mm-lint: disable=REP001
                    return delay
                sim.schedule(delay, None)
            """
        ) == []

        assert codes(
            """
            import time
            def kick(sim, wall):
                delay = 0.5
                if wall:
                    delay = time.time()  # mm-lint: disable=REP001
                sim.schedule(delay, None)
            """
        ) == ["REP010"]

    def test_suppression_comment_silences_flow_rules(self):
        assert codes(
            """
            import time
            def kick(sim):
                start = time.time()  # mm-lint: disable=REP001
                sim.schedule(start, None)  # mm-lint: disable=REP010
            """
        ) == []

    def test_select_filters_flow_rules(self):
        source = textwrap.dedent(
            """
            import time
            def kick(sim):
                start = time.time()
                sim.schedule(start, None)
            """
        )
        assert [
            d.code for d in lint_source(source, SIM_PATH, select={"REP010"})
        ] == ["REP010"]
        assert [
            d.code for d in lint_source(source, SIM_PATH, select={"REP001"})
        ] == ["REP001"]
        assert lint_source(source, SIM_PATH, select={"REP003"}) == []

    def test_sim_domain_flow_rules_are_silent_outside_it(self):
        assert codes(
            """
            import time
            def kick(sim):
                start = time.time()
                sim.schedule(start, None)
            """,
            path=OUTSIDE_PATH,
        ) == []

    def test_module_level_state_feeds_function_checks(self):
        # A module-level handle is visible to workers defined in functions.
        assert codes(
            """
            journal = open("log")

            def run():
                parallel_map(lambda i: journal.write(str(i)), 4, workers=2)
            """,
            path=OUTSIDE_PATH,
        ) == ["REP012"]

    def test_diagnostics_point_at_the_use_site(self):
        found = diags(
            """
            import time
            def kick(sim):
                start = time.time()  # mm-lint: disable=REP001
                sim.schedule(start, None)
            """
        )
        assert len(found) == 1
        assert found[0].line == 5
        assert "wall-clock" in found[0].message
        assert "sim.schedule()" in found[0].message

    def test_syntax_error_does_not_crash_flow_pass(self):
        assert codes("def broken(:\n") == ["E999"]


class TestScratchFixtureTree:
    def test_synthetic_taint_to_sink_fails_the_cli(self, tmp_path, capsys):
        # End-to-end acceptance: a scratch tree with a planted
        # wall-clock-to-schedule flow makes mm-lint exit non-zero and
        # name REP010.
        sim = tmp_path / "scratch" / "sim"
        sim.mkdir(parents=True)
        (sim / "clean.py").write_text(
            "def ok(sim):\n"
            "    deadline = sim.now + 0.5\n"
            "    sim.schedule_at(deadline, None)\n"
        )
        (sim / "planted.py").write_text(
            "import time\n"
            "def bad(sim):\n"
            "    start = time.time()  # mm-lint: disable=REP001\n"
            "    sim.schedule(start % 10, None)\n"
        )
        from repro.analysis.lint import main

        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP010" in out and "planted.py" in out
        assert "clean.py" not in out
