"""Interprocedural dataflow rules REP008-REP012 (``repro.analysis.flow``).

Each rule gets positive fixtures (the hazard, reported) and negative
fixtures (the idiomatic safe pattern, silent), plus engine-level cases:
interprocedural propagation through function summaries, branch joins,
and the early-return hand-back shape used by the real transport demux.
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
# REP008: use-after-recycle


class TestRep008UseAfterRecycle:
    def test_read_after_recycle(self):
        assert codes(
            """
            def deliver(pool, pkt):
                pool.recycle(pkt)
                return pkt.size
            """
        ) == ["REP008"]

    def test_write_after_recycle(self):
        assert codes(
            """
            def deliver(pool, pkt):
                pool.recycle(pkt)
                pkt.ttl = 64
            """
        ) == ["REP008"]

    def test_schedule_after_recycle(self):
        assert codes(
            """
            def deliver(sim, pool, pkt):
                pool.recycle(pkt)
                sim.schedule(0.1, lambda: None, pkt)
            """
        ) == ["REP008"]

    def test_recycle_on_one_branch_taints_the_join(self):
        # May-analysis: recycled on the taken branch, used after the join.
        assert codes(
            """
            def deliver(pool, pkt, fast):
                if fast:
                    pool.recycle(pkt)
                return pkt.uid
            """
        ) == ["REP008"]

    def test_interprocedural_recycle_via_helper(self):
        # The helper's summary records that it recycles its parameter.
        assert codes(
            """
            def hand_back(pool, pkt):
                pool.recycle(pkt)

            def deliver(pool, pkt):
                hand_back(pool, pkt)
                return pkt.size
            """
        ) == ["REP008"]

    def test_recycle_as_last_use_is_clean(self):
        assert codes(
            """
            def deliver(pool, pkt):
                size = pkt.size
                pool.recycle(pkt)
                return size
            """
        ) == []

    def test_early_return_hand_back_is_clean(self):
        # The real _receive_tcp shape: the recycling branch returns, so
        # the fall-through path still owns the packet.
        assert codes(
            """
            def receive(pool, pkt, conn):
                if conn is not None:
                    conn.segment_arrived(pkt.payload)
                    pool.recycle(pkt)
                    return
                flags = pkt.payload.flags
                return flags
            """
        ) == []

    def test_inline_hand_back_idiom_is_clean(self):
        # The hot-path inline recycle: flag write, clearing store, append.
        assert codes(
            """
            def receive(pool, pkt):
                if not pkt._in_pool:
                    pkt._in_pool = True
                    pkt.payload = None
                    pool.packets.append(pkt)
            """
        ) == []

    def test_reacquire_clears_the_recycled_state(self):
        # Popping the freelist and clearing _in_pool re-stamps the record.
        assert codes(
            """
            def send(pool):
                pkt = pool.packets.pop()
                pkt._in_pool = False
                pkt.ttl = 64
                return pkt.uid
            """
        ) == []

    def test_fresh_binding_clears_the_recycled_state(self):
        assert codes(
            """
            def deliver(pool, pkt, make):
                pool.recycle(pkt)
                pkt = make()
                return pkt.size
            """
        ) == []

    def test_not_reported_outside_sim_domain(self):
        assert (
            codes(
                """
                def deliver(pool, pkt):
                    pool.recycle(pkt)
                    return pkt.size
                """,
                path=OUTSIDE_PATH,
            )
            == []
        )


# --------------------------------------------------------------------- #
# REP009: pooled-object escape


class TestRep009PooledEscape:
    def test_escape_into_instance_attribute(self):
        assert codes(
            """
            class Host:
                def deliver(self, pool):
                    pkt = pool.acquire_tcp()
                    self.last_packet = pkt
            """
        ) == ["REP009"]

    def test_escape_into_instance_container(self):
        assert codes(
            """
            class Host:
                def deliver(self, pool):
                    pkt = pool.acquire_tcp()
                    self._log.append(pkt)
            """
        ) == ["REP009"]

    def test_escape_into_instance_mapping(self):
        assert codes(
            """
            class Host:
                def deliver(self, pool, key):
                    pkt = pool.acquire_tcp()
                    self.pending[key] = pkt
            """
        ) == ["REP009"]

    def test_transfer_annotation_silences(self):
        assert codes(
            """
            class Host:
                def deliver(self, pool):
                    pkt = pool.acquire_tcp()
                    self.owned = pkt  # mm-lint: transfer
            """
        ) == []

    def test_composition_into_local_pooled_object_is_clean(self):
        # Assembling an in-flight packet (tcp.py _send_segment shape).
        assert codes(
            """
            def send(pool):
                seg = pool.segments.pop()
                seg._in_pool = False
                pkt = pool.packets.pop()
                pkt._in_pool = False
                pkt.payload = seg
                return pkt
            """
        ) == []

    def test_local_list_store_is_clean(self):
        # A local batch that dies with the handler is not an escape.
        assert codes(
            """
            def deliver(pool, batch):
                pkt = pool.acquire_tcp()
                staged = []
                staged.append(pkt)
                return len(staged)
            """
        ) == []

    def test_copying_fields_out_is_clean(self):
        assert codes(
            """
            class Host:
                def deliver(self, pool):
                    pkt = pool.acquire_tcp()
                    self.last_uid = pkt.uid
            """
        ) == []


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
        # The recycle in iteration N must poison the read in iteration
        # N+1 (requires the second loop pass).
        assert codes(
            """
            def drain(pool, pkts):
                last = None
                for pkt in pkts:
                    if last is not None:
                        pool.recycle(last)
                    last = pkt
                    size = last.size
            """
        ) == []  # re-binding `last` each iteration keeps this clean

        assert codes(
            """
            def drain(pool, pkt, n):
                for _ in range(n):
                    size = pkt.size
                    pool.recycle(pkt)
            """
        ) == ["REP008"]

    def test_suppression_comment_silences_flow_rules(self):
        assert codes(
            """
            def deliver(pool, pkt):
                pool.recycle(pkt)
                return pkt.uid  # mm-lint: disable=REP008
            """
        ) == []

    def test_select_filters_flow_rules(self):
        source = textwrap.dedent(
            """
            def deliver(pool, pkt):
                pool.recycle(pkt)
                return pkt.size
            """
        )
        assert [
            d.code for d in lint_source(source, SIM_PATH, select={"REP008"})
        ] == ["REP008"]
        assert lint_source(source, SIM_PATH, select={"REP001"}) == []

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
            def deliver(pool, pkt):
                pool.recycle(pkt)
                return pkt.size
            """
        )
        assert len(found) == 1
        assert found[0].line == 4
        assert "recycled at line 3" in found[0].message

    def test_syntax_error_does_not_crash_flow_pass(self):
        assert codes("def broken(:\n") == ["E999"]

    def test_real_demux_shape_stays_clean(self):
        # Condensed from transport/host.py _receive_tcp: inline hand-back
        # of packet and segment behind early-return branches.
        assert codes(
            """
            class Host:
                def _receive_tcp(self, packet):
                    conn = self._connections.get(packet.dst)
                    if conn is not None:
                        segment = packet.payload
                        conn.segment_arrived(segment)
                        pool = self._pool
                        if not packet._in_pool:
                            packet._in_pool = True
                            packet.payload = None
                            pool.packets.append(packet)
                        if not segment._in_pool:
                            segment._in_pool = True
                            segment.pieces = ()
                            pool.segments.append(segment)
                        return
                    segment = packet.payload
                    if "R" not in segment.flags:
                        self._send_rst(packet)
            """,
            path=TRANSPORT_PATH,
        ) == []


class TestScratchFixtureTree:
    def test_synthetic_use_after_recycle_fails_the_cli(self, tmp_path, capsys):
        # End-to-end acceptance: a scratch tree with a planted
        # use-after-recycle makes mm-lint exit non-zero and name REP008.
        sim = tmp_path / "scratch" / "sim"
        sim.mkdir(parents=True)
        (sim / "clean.py").write_text(
            "def ok(pool, pkt):\n"
            "    size = pkt.size\n"
            "    pool.recycle(pkt)\n"
            "    return size\n"
        )
        (sim / "planted.py").write_text(
            "def bad(pool, pkt):\n"
            "    pool.recycle(pkt)\n"
            "    return pkt.size\n"
        )
        from repro.analysis.lint import main

        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP008" in out and "planted.py" in out
        assert "clean.py" not in out
