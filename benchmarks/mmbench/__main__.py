"""``python -m benchmarks.mmbench`` — run, trace, compare.

::

    python -m benchmarks.mmbench                 # all workloads, untraced
                                                 # then traced, one document
    python -m benchmarks.mmbench --trace 1       # the traced runs only
    python -m benchmarks.mmbench --quick         # one tiny batch each
    python -m benchmarks.mmbench compare A B     # two documents (or two
                                                 # directories of them)

    # one workload, one mode, in this process — what the driver calls:
    python -m benchmarks.mmbench --workload replay_sweep --seed 7 \\
        --seconds 15 --trace 0

One workload in one mode runs in the invoked interpreter and ends its
standard output with the driver's result line. Anything wider starts one
fresh interpreter per (workload, mode), so fork cost and peak RSS never
leak from one workload into the next. Exit status is 1 when any
correctness check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Dict, Iterator, List, Optional

from . import ROOT
from .compare import compare_main
from .spec import DRIVER_END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOAD_NAMES

#: Scratch space lives inside the checkout (the driver allows writes
#: nowhere else); every run removes its own directory on the way out.
SCRATCH_PARENT = ROOT / ".mmbench_tmp"
SCHEMA = 1


@contextlib.contextmanager
def scratch_directory(prefix: str) -> Iterator[str]:
    """A fresh directory under :data:`SCRATCH_PARENT`, removed on the way
    out (also on failure), and the parent with it once it is empty."""
    SCRATCH_PARENT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=prefix, dir=SCRATCH_PARENT)
    try:
        yield scratch
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()
        except OSError:
            pass  # another run's scratch is still in there


def run_one(name: str, seed: int, quick: bool,
            traced: bool) -> Dict[str, Any]:
    """One workload in one mode, here, now."""
    # Imported late: everything above works without ``src`` on the path,
    # so a bare copy of the benchmark fails here, loudly, with no result.
    from repro.measure.parallel import default_workers

    from .harness import run_untraced
    from .trace import run_traced
    from .workloads import WORKLOAD_CLASSES

    workload = WORKLOAD_CLASSES[name](seed, quick, min(2, default_workers()))
    with scratch_directory(f"{name}-") as scratch:
        if traced:
            return run_traced(workload, scratch)
        return run_untraced(workload, scratch)


def print_metrics(doc: Dict[str, Any]) -> None:
    head = doc["header"]
    print(f"== {head['workload']} [{doc['mode']}] seed={head['seed']} "
          f"op={head['op']!r} workers={head['workers']} "
          f"batches={head['batches']} "
          f"attempted={doc['attempted']} failed={doc['failed']} "
          f"results_digest={doc['results_digest']}")
    for name, metric in doc["metrics"].items():
        line = f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}"
        if metric.get("n", 1) > 1:
            line += (f"   (q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, "
                     f"n={metric['n']})")
        if "literal" in metric:
            line += f"   [uncalibrated {metric['literal']:.6g}]"
        print(line)
    if "calibration" in doc:
        print(f"  {'calibration.slowdown':<34} "
              f"{doc['calibration']['slowdown']:>16.6g} x")
    for error in doc["errors"]:
        print(f"  ERROR {error}")


def result_line(doc: Dict[str, Any]) -> str:
    """The driver's contract: the last line of standard output, with
    the metrics ``BENCHMARK.json`` declares for this mode."""
    declared = {m.name for m in DRIVER_END_TO_END + PER_LAYER}
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in doc["metrics"].items() if name in declared
        },
    })


def run_child(name: str, args: argparse.Namespace,
              traced: bool) -> Optional[Dict[str, Any]]:
    """One (workload, mode) in a fresh interpreter; its document."""
    with scratch_directory("document-") as directory:
        out = f"{directory}/doc.json"
        command = [
            sys.executable, "-m", "benchmarks.mmbench", "--workload", name,
            "--seed", str(args.seed),
            "--trace", "1" if traced else "0", "--out", out,
        ] + (["--quick"] if args.quick else [])
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        try:
            with open(out) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            print(f"== {name} [{'traced' if traced else 'untraced'}] "
                  f"produced no document (exit {done.returncode})\n"
                  f"{done.stderr}", file=sys.stderr)
            return None


def cross_check(untraced: Dict[str, Any], traced: Dict[str, Any]) -> List[str]:
    """The traced run must have simulated what the untraced run did."""
    problems = []
    if untraced["results_digest"] != traced["results_digest"]:
        problems.append("results_digest differs between the untraced and "
                        "the traced run")
    for name, value in untraced["exact"].items():
        if traced["exact"].get(name) != value:
            problems.append(f"exact counter {name}: {value!r} untraced, "
                            f"{traced['exact'].get(name)!r} traced")
    return problems


def run_many(names: List[str], args: argparse.Namespace) -> int:
    modes = [False, True] if args.trace is None else [args.trace == 1]
    document: Dict[str, Any] = {"schema": SCHEMA, "seed": args.seed,
                                "quick": args.quick, "workloads": {}}
    ok = True
    for traced in modes:
        for name in names:
            doc = run_child(name, args, traced)
            if doc is None:
                ok = False
                continue
            print_metrics(doc)
            ok = ok and doc["correct"]
            document["workloads"].setdefault(name, {})[doc["mode"]] = doc
    for name, docs in document["workloads"].items():
        if len(docs) == 2:
            for problem in cross_check(docs["untraced"], docs["traced"]):
                print(f"ERROR {name}: {problem}")
                ok = False
    document["correct"] = ok
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    print("mmbench: ok" if ok else "mmbench: FAILED")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.mmbench",
        description="mmbench: five workloads, end-to-end metrics, and a "
                    "per-layer attribution (see README.md beside this "
                    "file).")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run this workload only (default: all five)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives corpus, trial and arrival seeds")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="the driver passes BENCHMARK.json's run_seconds "
                             f"({RUN_SECONDS}); nothing else is accepted, "
                             "because a run is a fixed number of fixed-size "
                             "batches sized to take about that long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced only, 1: traced only "
                             "(default: untraced, then traced)")
    parser.add_argument("--quick", action="store_true",
                        help="one tiny batch per workload (smoke test)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the full JSON document here")
    args = parser.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        parser.error(f"--seconds must be {RUN_SECONDS} (BENCHMARK.json's "
                     f"run_seconds): run length is not a knob")

    if args.workload is None or args.trace is None:
        names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
        return run_many(names, args)

    doc = run_one(args.workload, args.seed, args.quick,
                  traced=args.trace == 1)
    doc["schema"] = SCHEMA
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print_metrics(doc)
    print(result_line(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
