"""Registration is coverage: every world in ``repro.scenarios`` is held
to the determinism contract by being in the registry, and the wiring it
goes through exists once.

The first half is parametrised over the default-buildable entries: a new
registration gets the 2-build digest, the zero-observer-effect check, the
pinned seed-0 digest and (if declared) artifact byte-identity with no
test written; ``smoke``'s instrumented obs artifact is pinned by its
bytes. The second half reads source only, in the manner of
``tests/test_fabric/test_fork_site.py``: the order "seeded simulator,
optional metrics registry, machine, stack, browser on the innermost
transport and the replay resolver" is spelled in ``core/compose.py`` and
nowhere else, nobody reaches for a private sanitizer builder again,
nothing outside ``repro.sim`` reaches into a simulator's queue or clock,
and no per-hop rule (serial admission, NAT, route lookup) is copied out
of its module.
"""

import ast
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
from repro.analysis.sanitizer import check_determinism, check_observer_effect
from repro.corpus import generate_site
from repro.scenarios import SCENARIOS

BUILDABLE = sorted(n for n, s in SCENARIOS.items() if s.digest is not None)
SRC = pathlib.Path(repro.__file__).parent
REPO = SRC.parents[1]
WIRING_SITE = "src/repro/core/compose.py"


@pytest.mark.parametrize("name", BUILDABLE)
def test_digest_is_reproducible_unobserved_and_pinned(name):
    scenario = SCENARIOS[name]
    report = check_determinism(scenario.simulator, seed=0, runs=2)
    observed = check_observer_effect(scenario.simulator, seed=0)
    assert (observed.events, observed.digest) == (report.events, report.digest)
    assert report.digest == scenario.digest, (
        f"scenario {name!r} replayed as {report.digest} ({report.events} "
        f"events), repro/scenarios.py pins {scenario.digest}: re-pin only "
        f"with a model change, and say so in CHANGES"
    )


@pytest.mark.parametrize(
    "name", sorted(n for n, s in SCENARIOS.items() if s.artifact))
def test_declared_artifact_is_byte_identical(name):
    artifact = SCENARIOS[name].artifact
    assert artifact(0) == artifact(0)


#: BLAKE2b-128 of ``mm-report record-smoke --seed 0``'s artifact: the
#: ``smoke`` world instrumented. The event digest above cannot see a probe
#: (probes never schedule), so this pins what the probes record — a
#: refactor that moves a link or TCP probe value fails here.
SMOKE_ARTIFACT_DIGEST = "28adb57cbbb382010991c637d986fa53"


def test_smoke_obs_artifact_bytes_are_pinned(tmp_path, capsys):
    from repro.cli.mm_report import main

    path = tmp_path / "smoke.jsonl"
    assert main(["record-smoke", "--out", str(path), "--seed", "0"]) == 0
    digest = hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
    assert digest == SMOKE_ARTIFACT_DIGEST, (
        f"the smoke obs artifact hashes to {digest}; re-pin only with a "
        f"model or probe change, and say so in CHANGES")


def test_every_entry_resolves_by_import_path_in_a_fresh_interpreter(tmp_path):
    """What a spawned fabric worker does with a ``FactorySpec``."""
    generate_site("spec.example", seed=1, n_origins=2, scale=0.2) \
        .to_recorded_site().save(tmp_path / "site")
    kwargs = {name: {} for name in BUILDABLE}
    kwargs["recorded_site"] = {"directory": str(tmp_path / "site")}
    assert sorted(kwargs) == sorted(SCENARIOS)
    script = (
        "import json, sys\n"
        "from repro.fabric.worker import FactorySpec\n"
        "for name, kw in json.loads(sys.argv[1]).items():\n"
        "    factory = FactorySpec('repro.scenarios:' + name, kw).resolve()\n"
        "    sim, live = factory(0)\n"
        "    print(name, type(sim).__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(kwargs)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        word for name in kwargs for word in (name, "Simulator")]


# --------------------------------------------------------------------- #
# one wiring site (source is only read)

def _trees(*roots):
    """(repo-relative path, AST) of every Python file under the given
    repo-relative roots, the frozen benchmark (mmbench) excepted."""
    for root in roots:
        for path in sorted((REPO / root).rglob("*.py")):
            relative = path.relative_to(REPO).as_posix()
            if not relative.startswith("benchmarks/mmbench/"):
                yield relative, ast.parse(path.read_text(encoding="utf-8"))


def _files_calling(matches, *roots):
    return sorted({
        relative for relative, tree in _trees(*roots)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and matches(node)
    })


def _is_browser_on_a_resolver_endpoint(call):
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return name == "Browser" and any(
        isinstance(node, ast.Attribute) and node.attr == "resolver_endpoint"
        for argument in call.args + [k.value for k in call.keywords]
        for node in ast.walk(argument)
    )


def _is_registry_install(call):
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr == "install"
            and isinstance(func.value, ast.Name)
            and func.value.id == "MetricsRegistry")


def test_a_browser_is_pointed_at_a_resolver_in_one_place():
    assert _files_calling(
        _is_browser_on_a_resolver_endpoint, "src/repro") == [WIRING_SITE]
    assert _files_calling(
        _is_browser_on_a_resolver_endpoint, "benchmarks", "examples") == []


def test_a_metrics_registry_is_installed_in_one_place():
    installing = _files_calling(
        _is_registry_install, "src/repro", "benchmarks", "examples")
    assert [path for path in installing
            if not path.startswith("src/repro/obs/")] == [WIRING_SITE]


def test_nobody_imports_a_private_name_from_the_sanitizer():
    offenders = sorted(
        f"{relative}: {alias.name}"
        for relative, tree in _trees("src", "benchmarks", "examples", "tests")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module == "repro.analysis.sanitizer"
        for alias in node.names if alias.name.startswith("_")
    )
    assert offenders == []


#: Private state of a per-hop rule -> the one module allowed to touch it.
#: A hand-inlined copy of the rule elsewhere (on the packet path, say)
#: has to reach for the state, and fails here.
PER_HOP_STATE = {
    r"\._busy_until\b": "src/repro/linkem/processing.py",
    r"\._(inbound|outbound|masquerade)\b": "src/repro/net/nat.py",
    r"\._routes\b": "src/repro/net/routing.py",
}


@pytest.mark.parametrize("pattern", sorted(PER_HOP_STATE))
def test_each_per_hop_rule_has_one_copy(pattern):
    private = re.compile(pattern)
    touching = sorted({
        path.relative_to(REPO).as_posix() for path in SRC.rglob("*.py")
        if private.search(path.read_text(encoding="utf-8"))
    })
    assert touching == [PER_HOP_STATE[pattern]]


def test_nobody_outside_repro_sim_reaches_into_the_queue_or_clock():
    """``repro.sim``'s boundary: the rest of ``src/repro`` schedules through
    ``Simulator.schedule*`` and reads ``sim.now``. (Several components own
    an unrelated ``self._queue``; only a simulator's is off limits.)"""
    private = re.compile(
        r"sim\._queue|\._clock\b|queue\._(seq|live|heap|dead)\b")
    offenders = sorted(
        f"{path.relative_to(REPO).as_posix()}:{number}: {line.strip()}"
        for path in SRC.rglob("*.py") if SRC / "sim" not in path.parents
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1)
        if private.search(line)
    )
    assert offenders == []
