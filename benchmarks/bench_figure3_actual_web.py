"""Figure 3: multi-origin preservation yields measurements closer to the Web.

Paper: www.nytimes.com loaded 100 times on the Web and inside ReplayShell
with and without multi-origin preservation; for fairness, each replay load
runs under DelayShell emulating the minimum RTT recorded on the Web. The
multi-origin replay median lands 7.9% above the Internet measurements;
single-server replay 29.6% above.

Here the "actual Web" is the simulated Internet (per-origin RTTs and
cross-traffic jitter); replay uses the ground-truth recording and a
DelayShell set to the main origin's min RTT, exactly the paper's
methodology.
"""

from benchmarks._workloads import scaled
from repro.core import HostMachine, ShellStack
from repro.corpus import named_site
from repro.measure import Sample
from repro.measure.report import ascii_cdf, percent_diff
from repro.sim import Simulator
from repro.web import Internet

SITE = named_site("nytimes")
MAIN_HOST = "www.nytimes.com"


def load_actual_web(seed):
    sim = Simulator(seed=seed)
    internet = Internet(sim)
    internet.install_site(SITE)
    machine = HostMachine(sim)
    internet.attach_machine(machine)
    # No shells: the browser runs on the machine itself, on the live Web.
    result = ShellStack(machine).load(
        SITE.page, resolver=internet.resolver_endpoint)
    sim.run_until(lambda: result.complete, timeout=900)
    assert result.complete and result.resources_failed == 0
    return result.page_load_time, internet.min_rtt(MAIN_HOST)


def load_replay(seed, min_rtt, single_server):
    stack = ShellStack.fresh(seed)
    stack.add_replay(SITE.to_recorded_site(), single_server=single_server)
    stack.add_delay(min_rtt / 2.0)
    result = stack.load(SITE.page)
    stack.sim.run_until(lambda: result.complete, timeout=900)
    assert result.complete and result.resources_failed == 0
    return result.page_load_time


def run_experiment():
    trials = scaled(100, minimum=10)
    web, multi, single = [], [], []
    for trial in range(trials):
        plt, min_rtt = load_actual_web(trial)
        web.append(plt)
        multi.append(load_replay(trial, min_rtt, single_server=False))
        single.append(load_replay(trial, min_rtt, single_server=True))
    return {
        "Actual Web": Sample(web),
        "Replay Multi-origin": Sample(multi),
        "Replay Single Server": Sample(single),
    }


def render(samples) -> str:
    web = samples["Actual Web"].median
    multi_diff = percent_diff(samples["Replay Multi-origin"].median, web)
    single_diff = percent_diff(samples["Replay Single Server"].median, web)
    lines = [
        ascii_cdf(samples,
                  title="Figure 3: nytimes page load time CDF"),
        "",
        f"median PLT, actual Web:        "
        f"{web * 1000:8.0f} ms",
        f"replay multi-origin median:    {multi_diff:+8.1f} %  "
        "vs Web (paper: +7.9 %)",
        f"replay single-server median:   {single_diff:+8.1f} %  "
        "vs Web (paper: +29.6 %)",
    ]
    return "\n".join(lines)


def test_figure3_actual_web(benchmark, report):
    samples = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report("figure3_actual_web", render(samples))
    web = samples["Actual Web"].median
    multi_diff = abs(percent_diff(samples["Replay Multi-origin"].median, web))
    single_diff = percent_diff(samples["Replay Single Server"].median, web)
    # The paper's claim: multi-origin replay tracks the Web closely;
    # single-server replay misses it by several times more.
    assert multi_diff < 15.0
    assert single_diff > 15.0
    assert single_diff > 2 * multi_diff
