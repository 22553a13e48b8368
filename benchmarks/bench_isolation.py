"""Ablation A1: isolation (paper §4, "Isolation").

Paper: each Mahimahi namespace is isolated from the host and from every
other namespace, so many configurations can run concurrently with no
impact on collected measurements.

Measured here: page load times of a shell stack (a) running alone,
(b) running while two other stacks load concurrently in the same
simulation, and (c) running while a bulk transfer hammers the host
namespace. All three must be bit-identical.
"""

from benchmarks._workloads import scaled
from repro.core import HostMachine, ShellStack
from repro.corpus import generate_site
from repro.measure import Sample
from repro.measure.report import format_table
from repro.sim import Simulator

SITE = generate_site("isolation-bench.com", seed=77, n_origins=12)
STORE = SITE.to_recorded_site()


def _load(sim, tag):
    """One more machine on ``sim``, loading the site through its own stack."""
    stack = ShellStack(HostMachine(sim, name=f"host-{tag}"))
    stack.add_replay(STORE)
    stack.add_link(14, 14)
    stack.add_delay(0.040)
    return stack.load(SITE.page)


def _run(seed, concurrent_stacks=0, host_noise=False):
    sim = Simulator(seed=seed)
    result = _load(sim, "main")
    extras = [_load(sim, f"extra-{extra}")
              for extra in range(concurrent_stacks)]
    if host_noise:
        from repro.testing import TwoHostWorld
        noise = TwoHostWorld(sim=sim)
        noise.server.listen(
            None, 80,
            lambda conn: setattr(conn, "on_data",
                                 lambda p: conn.send_virtual(20_000_000)))
        bulk = noise.client.connect(noise.server_endpoint)
        bulk.on_established = lambda: bulk.send(b"G")
    sim.run_until(
        lambda: result.complete and all(r.complete for r in extras),
        timeout=900,
    )
    assert result.complete and result.resources_failed == 0
    return result.page_load_time


def run_experiment():
    trials = scaled(20, minimum=5)
    solo = [_run(seed) for seed in range(trials)]
    crowded = [_run(seed, concurrent_stacks=2) for seed in range(trials)]
    noisy = [_run(seed, host_noise=True) for seed in range(trials)]
    return Sample(solo), Sample(crowded), Sample(noisy)


def render(solo, crowded, noisy) -> str:
    rows = [
        ["alone", f"{solo.mean * 1000:.3f} ms", "-"],
        ["with 2 concurrent stacks", f"{crowded.mean * 1000:.3f} ms",
         "identical" if crowded.values == solo.values else "DIFFERS"],
        ["with host bulk transfer", f"{noisy.mean * 1000:.3f} ms",
         "identical" if noisy.values == solo.values else "DIFFERS"],
    ]
    return format_table(
        ["condition", "mean PLT", "vs alone"], rows,
        title="Isolation: the same measurement under interference "
              f"({len(solo)} loads each)",
    )


def test_isolation(benchmark, report):
    solo, crowded, noisy = benchmark.pedantic(run_experiment, rounds=1,
                                              iterations=1)
    report("isolation", render(solo, crowded, noisy))
    # Bit-identical, not merely statistically indistinguishable.
    assert crowded.values == solo.values
    assert noisy.values == solo.values
