"""One measured process of the benchmark (started by ``run.py``).

Sets the workload up, runs its points in passes until the time budget
is spent, checks every simulated output, and prints one JSON record::

    python3 perfbench/child.py --workload fig5-sweep --seed 1 \\
        --seconds 10 --spawned-at <time.monotonic() of the parent>

``--trace`` adds one traced pass after the timed ones.  ``--warmup``
only imports, activates the kernel engine (compiling it on first use)
and runs one tiny point, so none of that one-time work lands in a
measured process.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import sys
import time

import calibrate
import workloads
from repro.core import backend
from tracer import LayerTracer


def check_point(point: tuple, record: dict, expected_tuples: int,
                pinned: dict, first: dict) -> "str | None":
    """Why a point's output is wrong, or None when it is right."""
    response = record["response_time"]
    if point in pinned and response != pinned[point]:
        return f"{point}: response time {response} != pinned {pinned[point]}"
    if record["result_tuples"] != expected_tuples:
        return (f"{point}: {record['result_tuples']} result tuples, "
                f"expected {expected_tuples}")
    if point in first and response != first[point]:
        return f"{point}: response time {response} != earlier {first[point]}"
    return None


def run_pass(workload: workloads.Workload, db: workloads.Database,
             expected_tuples: int, pinned: dict, first: dict,
             failures: list, calibrated: bool = True) -> dict:
    """Run every point once; returns the pass's wall time, summed
    layer timers and counts, and its per-point records.

    ``first`` maps each point to the response time it gave first in
    this process; failed points append a reason to ``failures``.
    With ``calibrated``, slices of the reference workload run before
    each point and after the last, one reference run in all, and the
    pass also returns their total time.
    """
    share = 1 / (len(workload.points) + 1)
    reference = 0.0
    wall = 0.0
    records = []
    for algorithm, ratio in workload.points:
        if calibrated:
            reference += calibrate.reference_seconds(share)
        started = time.perf_counter()
        try:
            record = workloads.run_point(workload, db, algorithm, ratio)
        except Exception as exc:  # a point that raises is a failure
            failures.append(f"{(algorithm, ratio)}: raised {exc!r}")
            record = None
        wall += time.perf_counter() - started
        records.append(record)
    if calibrated:
        reference += calibrate.reference_seconds(share)
    timers = dict.fromkeys(workloads.TIMERS, 0.0)
    counts = dict.fromkeys(workloads.COUNTS, 0)
    for point, record in zip(workload.points, records):
        if record is None:
            continue
        reason = check_point(point, record, expected_tuples, pinned,
                             first)
        if reason is not None:
            failures.append(reason)
        first.setdefault(point, record["response_time"])
        for name, value in record["timers"].items():
            timers[name] += value
        for name, value in record["counts"].items():
            if name == "sim.heap_peak":
                counts[name] = max(counts[name], value)
            else:
                counts[name] += value
    return {"wall_s": wall, "reference_s": reference, "timers": timers,
            "counts": counts, "points": records}


def measure(workload: workloads.Workload, seed: int, seconds: float,
            pinned: dict, spawned_at: "float | None" = None,
            trace: bool = False) -> dict:
    """Set up, run timed passes for ``seconds``, optionally one traced
    pass; returns everything the parent aggregates.

    Set-up ends when the first database is loaded; ``spawned_at`` is
    the parent's ``time.monotonic()`` before it started this process,
    so set-up time includes interpreter start and imports.
    """
    engine = backend.activate()
    db = workloads.build_database(workload, seed)
    setup_end = time.monotonic()
    expected_tuples = workloads.join_cardinality(db)
    builds = []
    failures: list = []
    first: dict = {}
    passes = []
    began = time.perf_counter()
    while True:
        builds.append((db.generate_s, db.load_s))
        passes.append(run_pass(workload, db, expected_tuples, pinned,
                               first, failures))
        del db
        gc.collect()
        db = workloads.build_database(workload, seed)
        # Stop where the next pass would end nearer past the budget
        # than it starts before it.
        elapsed = time.perf_counter() - began
        if elapsed + passes[-1]["wall_s"] / 2 > seconds:
            break
    out = {
        "workload": workload.name,
        "seed": seed,
        "be_engine": engine,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "setup_s": (setup_end - spawned_at
                    if spawned_at is not None else None),
        "generate_s": [generate for generate, _ in builds],
        "load_s": [load for _, load in builds],
        "expected_tuples": expected_tuples,
        "passes": [{key: value for key, value in done.items()
                    if key != "points"} for done in passes],
        "points": [
            {"algorithm": algorithm, "ratio": ratio, **record}
            if record is not None else
            {"algorithm": algorithm, "ratio": ratio, "failed": True}
            for (algorithm, ratio), record
            in zip(workload.points, passes[0]["points"])],
    }
    if trace:
        with LayerTracer() as tracer:
            traced = run_pass(workload, db, expected_tuples, pinned,
                              first, failures, calibrated=False)
        out["traced"] = {key: value for key, value in traced.items()
                         if key != "points"}
        out["trace"] = tracer.as_json()
    out["response_times"] = {f"{a}@{r!r}": value
                             for (a, r), value in first.items()}
    n_passes = len(passes) + (1 if trace else 0)
    out["attempted"] = n_passes * len(workload.points)
    out["failed"] = len(failures)
    out["failures"] = failures
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def warmup(workload: workloads.Workload) -> None:
    """Import, activate the engine and run one tiny point."""
    backend.activate()
    tiny = dataclasses.replace(workload, scale=0.01, nodes=8,
                               points=workload.points[:1])
    db = workloads.build_database(tiny, workloads.PINNED_SEED)
    workloads.run_point(tiny, db, *tiny.points[0])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    if args.warmup:
        warmup(workload)
        return 0
    result = measure(workload, args.seed, args.seconds,
                     workloads.pinned_values(workload, args.seed),
                     spawned_at=args.spawned_at, trace=args.trace)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
