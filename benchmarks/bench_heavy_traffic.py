"""Heavy-traffic capacity curve: offered load vs p99 completion time.

The mm-load headline experiment: an open-loop Poisson client population
(browsers, app launches, single-object fetches) sweeps strictly
increasing client counts against one shared ReplayShell + LinkShell
stack, and the resulting capacity curve locates the knee where the
replay server farm saturates. At full scale the sweep tops out above
500 concurrent clients over >= 5 levels; ``REPRO_BENCH_SCALE`` shrinks
client counts proportionally (CI runs 0.1).

Artifacts: the standard ``report`` text plus the byte-deterministic
capacity-curve JSONL (``benchmarks/results/heavy_traffic_capacity.jsonl``)
and its machine-readable JSON summary
(``benchmarks/results/heavy_traffic_capacity.json``) — CI uploads both,
and ``mm-report load`` renders the former.
"""

import json
import os

from benchmarks.knobs import bench_workers, scaled
from repro.load import (
    default_population,
    run_capacity_curve,
    write_capacity_artifact,
)
from repro.load.artifact import load_curve_view
from repro.load.report import render_load_artifact

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Paper-size sweep: client counts per level (scaled by REPRO_BENCH_SCALE).
FULL_LEVELS = (40, 80, 160, 320, 640)
WINDOW = 20.0
SEED = 0


def _levels():
    """Scaled, strictly increasing client counts (>= 5 levels always)."""
    levels = []
    for full in FULL_LEVELS:
        n = scaled(full, minimum=4)
        if levels and n <= levels[-1]:
            n = levels[-1] + 1
        levels.append(n)
    return levels


def test_heavy_traffic_capacity_curve(report):
    levels = _levels()
    population = default_population(seed=SEED, n_sites=4, scale=0.25)
    curve = run_capacity_curve(
        population,
        levels,
        window=WINDOW,
        seed=SEED,
        workers=bench_workers(),
    )

    os.makedirs(RESULTS_DIR, exist_ok=True)
    artifact_path = os.path.join(RESULTS_DIR, "heavy_traffic_capacity.jsonl")
    write_capacity_artifact(artifact_path, curve, meta={"seed": SEED})
    json_path = os.path.join(RESULTS_DIR, "heavy_traffic_capacity.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(curve.to_dict(), handle, sort_keys=True, indent=2)
        handle.write("\n")

    view = load_curve_view(artifact_path)
    report(
        "heavy_traffic",
        "\n".join([
            f"heavy-traffic capacity curve "
            f"(levels {levels}, window {WINDOW:.0f}s, seed {SEED})",
            "",
            render_load_artifact(view).rstrip("\n"),
            "",
            f"[curve JSON written to {json_path}]",
        ]),
    )

    # The contract the capacity-curve artifact promises downstream.
    assert len(curve.results) >= 5
    for result in curve.results:
        assert result.completed > 0, "a level completed zero clients"
    # p99 must be monotone enough to carry a knee: the top level's tail
    # is the worst (or tied-worst) on the curve.
    points = curve.points()
    assert points[-1][1] >= points[0][1]
    assert curve.knee is not None, "no capacity knee detected"
