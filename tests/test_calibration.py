"""The calibration table: each fitted constant is declared once, in
``repro.calibration``, names the claim it was fitted on, and is read when
a world is built, so varying one entry moves what a fresh world builds."""

import ast
import pathlib

import pytest

import repro
from repro import calibration
from repro.browser.engine import parse_cost
from repro.core import MachineProfile, ShellStack
from repro.corpus import generate_site
from repro.linkem.delay import DelayPipe
from repro.linkem.trace import ConstantRateSchedule
from repro.load import LoadScenario, default_population
from repro.load.arrivals import Poisson
from repro.load.runner import LoadSession
from repro.linkem.tracelink import TracePipe
from repro.scenarios import CALIBRATION, CLAIMS
from repro.sim import Simulator
from repro.web import Internet

SRC = pathlib.Path(repro.__file__).parent
TABLE = SRC / "calibration.py"


def test_scenarios_reexports_the_table():
    assert CALIBRATION is calibration.CALIBRATION


@pytest.mark.parametrize("name", sorted(calibration.CALIBRATION))
def test_every_entry_names_a_claim(name):
    assert calibration.CALIBRATION[name] in CLAIMS
    assert hasattr(calibration, name)


def test_every_constant_is_an_entry():
    declared = {
        target.id
        for node in ast.parse(TABLE.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
        if isinstance(target, ast.Name) and target.id.isupper()
        and not target.id.startswith("_")
    }
    assert declared - {"CALIBRATION"} == set(calibration.CALIBRATION)


def test_the_table_imports_nothing_from_repro():
    imports = [
        node for node in ast.walk(ast.parse(TABLE.read_text("utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    modules = [alias.name for node in imports if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in imports
                if isinstance(node, ast.ImportFrom)]
    assert not [m for m in modules if m.split(".")[0] == "repro"]


def test_no_other_module_assigns_a_table_name():
    names = set(calibration.CALIBRATION)
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == TABLE:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    name = (leaf.id if isinstance(leaf, ast.Name)
                            else leaf.attr if isinstance(leaf, ast.Attribute)
                            else None)
                    if name in names:
                        offenders.append(
                            f"{path.relative_to(SRC)}:{node.lineno}: {name}")
    assert offenders == []


def _replay(site):
    stack = ShellStack.fresh(0)
    return stack.add_replay(site.to_recorded_site())


SITE = generate_site("fitted.com", seed=5, n_origins=3)


def test_server_processing_moves_a_fresh_replay_server(monkeypatch):
    monkeypatch.setattr(calibration, "SERVER_PER_PAIR", 0.0)
    before = _replay(SITE)._server_processing
    monkeypatch.setattr(calibration, "SERVER_PROCESSING",
                        2 * calibration.SERVER_PROCESSING)
    after = _replay(SITE)._server_processing
    assert before == calibration.SERVER_PROCESSING / 2
    assert after == 2 * before


def test_server_workers_and_dns_move_a_fresh_replay(monkeypatch):
    monkeypatch.setattr(calibration, "SERVER_WORKERS", 5)
    monkeypatch.setattr(calibration, "DNS_PROCESSING", 0.25)
    shell = _replay(SITE)
    assert {server.max_workers for server in shell.servers} == {5}
    assert shell.dns.processing_time == 0.25


def test_server_workers_move_a_fresh_load_world(monkeypatch):
    monkeypatch.setattr(calibration, "SERVER_WORKERS", 5)
    scenario = LoadScenario(default_population(n_sites=1), Poisson(1.0),
                            clients=1)
    assert scenario.describe()["server_workers"] == 5
    replay = LoadSession(scenario, seed=0).stack.replay
    assert {server.max_workers for server in replay.servers} == {5}


@pytest.mark.parametrize("pipe, entry", [
    (lambda sim: DelayPipe(sim, 0.0), "DELAY_SERVICE_TIME"),
    (lambda sim: TracePipe(sim, ConstantRateSchedule(1e6)),
     "LINK_SERVICE_TIME"),
])
def test_shell_service_times_move_a_fresh_pipe(monkeypatch, pipe, entry):
    monkeypatch.setattr(calibration, entry, 0.125)
    assert pipe(Simulator())._processor.service_time == 0.125


def test_shell_service_times_keep_the_paper_order():
    # Figure 2: both shells cost something, mm-link more than mm-delay.
    assert 0.0 < calibration.DELAY_SERVICE_TIME \
        < calibration.LINK_SERVICE_TIME


def test_machine_jitter_moves_a_fresh_profile(monkeypatch):
    monkeypatch.setattr(calibration, "JITTER_STDDEV", 0.5)
    monkeypatch.setattr(calibration, "TRIAL_JITTER_STDDEV", 0.25)
    profile = MachineProfile()
    assert (profile.jitter_stddev, profile.trial_jitter_stddev) \
        == (0.5, 0.25)


def test_parse_tables_move_the_browser_cost(monkeypatch):
    before = parse_cost("js", 2048)
    monkeypatch.setattr(calibration, "PARSE_PER_KB",
                        {**calibration.PARSE_PER_KB, "js": 0.0})
    assert parse_cost("js", 2048) == calibration.PARSE_BASE["js"]
    assert before > calibration.PARSE_BASE["js"]


def test_internet_entries_move_a_fresh_web(monkeypatch):
    monkeypatch.setattr(calibration, "MAIN_ORIGIN_RTT", 0.5)
    monkeypatch.setattr(calibration, "CDN_RTT", (0.25, 0.25))
    monkeypatch.setattr(calibration, "THIRD_PARTY_RTT", (0.75, 0.75))
    monkeypatch.setattr(calibration, "PUBLIC_DNS_PROCESSING", 0.125)
    monkeypatch.setattr(calibration, "ORIGIN_PROCESSING", 0.0625)
    internet = Internet(Simulator())
    assert [internet.default_rtt(host) for host in
            ("www.a.com", "cdn1.a.com", "ads.b.net")] == [0.5, 0.25, 0.75]
    assert internet.dns.processing_time == 0.125
    internet.install_site(SITE)
    assert {origin.processing_time
            for origin in internet._origins.values()} == {0.0625}
