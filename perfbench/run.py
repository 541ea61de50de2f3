"""Benchmark of the Gamma join simulator's host time.

Runs one workload in fresh processes, checks every simulated output,
and prints the metrics named in ``BENCHMARK.json``; the last line of
standard output is one JSON object::

    python3 perfbench/run.py --workload fig5-sweep --seed 1 \\
        --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics (host wall time of a pass
over the workload's points, set-up time, peak memory); ``--trace 1``
reports the per-layer metrics, including the self time of each
``repro`` package from a traced pass.  Full records, with per-point
counters and the traced spans, are written under ``perfbench/out/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from calibrate import NOMINAL_S

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("fig5-sweep", "paper-scale", "scaleout-256")
#: Fresh processes per untraced run: each gives one set-up sample and
#: a share of the timed passes.  Processes differ in speed by more than
#: passes within one process do, so several short ones beat one long.
PROCESSES = 6
#: Seconds after which a run kills its child and fails.
RUN_LIMIT_S = 170
#: Packages whose self time and incoming calls the traced run reports.
PACKAGES = ("sim", "engine", "core", "network", "storage", "catalog")


def child_env() -> dict:
    """The environment of a measured process: no ``REPRO_*`` setting,
    so the shipped defaults are measured, and only this checkout's
    ``src`` on the import path."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list, deadline: float) -> "dict | None":
    """Run ``child.py`` with ``args``, killing it at ``deadline``
    (``time.monotonic()``); its JSON record, or None for a warm-up."""
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args,
         "--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(deadline - spawned_at, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(
            f"child {args} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def describe(name: str, values: list, unit: str) -> str:
    q1, median, q3 = quartiles(values)
    return (f"{name:<28} median {median:.4f} {unit}  "
            f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")


def count_flags(records: list) -> list:
    """Deterministic counts that differ between passes or processes."""
    flags = []
    first = records[0]["passes"][0]["counts"]
    for record in records:
        for done in record["passes"] + (
                [record["traced"]] if "traced" in record else []):
            for name, value in done["counts"].items():
                if value != first[name]:
                    flags.append(f"{name}: {value} != {first[name]}")
    return sorted(set(flags))


def source_digest() -> str:
    """Digest of the simulator's and the benchmark's sources: the code
    that decides the deterministic counts."""
    digest = hashlib.sha256()
    files = [*SRC.rglob("*.py"), *SRC.rglob("*.c"), *HERE.glob("*.py")]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def compare_previous(path: pathlib.Path, digest: str,
                     counts: dict) -> list:
    """Deterministic counts that differ from the previous run of the
    same workload and seed on the same sources; a previous run of other
    sources is not compared."""
    if not path.exists():
        return []
    previous = json.loads(path.read_text())
    if previous.get("source_digest") != digest:
        return []
    previous = previous.get("deterministic", {})
    return [f"{name}: {value} != previous {previous[name]}"
            for name, value in counts.items()
            if name in previous and previous[name] != value]


def end_to_end(records: list) -> dict:
    """Pass and set-up times scaled to the reference speed, and peak
    memory; raw seconds are printed alongside.

    ``wall_s`` is the run's pooled pass time: the wall time of all its
    passes times ``NOMINAL_S`` over the reference time run between
    them (one whole reference run per pass).  A pass of a
    single long point is bracketed by only two short reference slices,
    so its own scaled time is noisy; pooling the run's passes weighs
    each reference slice by the work around it and spreads less from
    run to run than the median of per-pass scaled times (4.7% against
    7.9% on ``scaleout-256``).  The per-pass quartiles are printed.
    """
    walls, raw_walls, setups, raw_setups = [], [], [], []
    total_wall = total_reference = 0.0
    for record in records:
        references = [done["reference_s"] for done in record["passes"]]
        for done in record["passes"]:
            raw_walls.append(done["wall_s"])
            walls.append(done["wall_s"] * NOMINAL_S / done["reference_s"])
            total_wall += done["wall_s"]
            total_reference += done["reference_s"]
        raw_setups.append(record["setup_s"])
        setups.append(record["setup_s"] * NOMINAL_S
                      / statistics.mean(references))
    rss = [record["peak_rss_mb"] for record in records]
    pooled = total_wall * NOMINAL_S / total_reference
    print(f"{'wall_s':<28} pooled {pooled:.4f} s")
    for line in (describe("pass_wall_s", walls, "s"),
                 describe("raw_wall_s", raw_walls, "s"),
                 describe("setup_s", setups, "s"),
                 describe("raw_setup_s", raw_setups, "s"),
                 describe("peak_rss_mb", rss, "MB")):
        print(line)
    return {
        "wall_s": {"value": pooled, "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(record: dict) -> dict:
    passes = record["passes"]
    counts = passes[0]["counts"]

    def timer(name: str) -> float:
        return statistics.median(done["timers"][name] for done in passes)

    run_s = timer("sim.run_s")
    trace = record["trace"]
    untraced = statistics.median(done["wall_s"] for done in passes)
    values = {
        "wisconsin.generate_s": (
            statistics.median(record["generate_s"]), "s"),
        "catalog.load_s": (statistics.median(record["load_s"]), "s"),
        "engine.machine_s": (timer("engine.machine_s"), "s"),
        "core.launch_s": (timer("core.launch_s"), "s"),
        "core.collect_s": (timer("core.collect_s"), "s"),
        "sim.run_s": (run_s, "s"),
        "sim.events_fired": (counts["sim.events_fired"], "count"),
        "sim.ns_per_event": (
            ratio(run_s * 1e9, counts["sim.events_fired"]), "ns"),
        "sim.fastpath_holds": (counts["sim.fastpath_holds"], "count"),
        "sim.heap_peak": (counts["sim.heap_peak"], "count"),
        "network.data_packets": (counts["network.data_packets"], "count"),
        "network.shortcircuit_frac": (
            ratio(counts["network.data_tuples_shortcircuited"],
                  counts["network.data_tuples"]), "ratio"),
        "network.control_messages": (
            counts["network.control_messages"], "count"),
        "network.control_share": (
            ratio(counts["network.control_messages"],
                  counts["network.control_messages"]
                  + counts["network.data_packets"]), "ratio"),
        "storage.page_reads": (counts["storage.page_reads"], "count"),
        "storage.page_writes": (counts["storage.page_writes"], "count"),
        "core.dp_packets_batched": (
            counts["core.dp_packets_batched"], "count"),
        "core.dp_batched_share": (
            ratio(counts["core.dp_packets_batched"],
                  counts["core.dp_packets_batched"]
                  + counts["core.dp_packets_scalar"]), "ratio"),
        "core.hash_memo_hit_rate": (
            ratio(counts["core.hash_memo_hits"],
                  counts["core.hash_memo_hits"]
                  + counts["core.hash_memo_misses"]), "ratio"),
        "core.be_compiled_calls": (
            counts["core.be_compiled_calls"], "count"),
        "core.be_fallback_calls": (
            counts["core.be_fallback_calls"], "count"),
    }
    for package in PACKAGES:
        values[f"{package}.self_s"] = (
            trace["self_s"].get(package, 0.0), "s")
        values[f"{package}.calls_in"] = (
            trace["calls_in"].get(package, 0), "count")
    values["trace.overhead_x"] = (
        ratio(record["traced"]["wall_s"], untraced), "x")
    for name, (value, unit) in values.items():
        print(f"{name:<28} {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        parser.error(f"no simulator sources at {SRC}")

    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # Untimed: first-use compiles (bytecode, the C kernel engine).
    run_child([*common, "--seconds", "0", "--warmup"], deadline)
    if args.trace:
        # One process: a share of timed passes, then the traced pass.
        share = args.seconds / PROCESSES
        records = [run_child([*common, "--seconds", repr(share),
                              "--trace"], deadline)]
    else:
        # Each process gets an equal share of the time left, so one
        # that overran shortens the rest.
        records = []
        began = time.monotonic()
        for index in range(PROCESSES):
            left = args.seconds - (time.monotonic() - began)
            share = max(left, 0.0) / (PROCESSES - index)
            records.append(run_child(
                [*common, "--seconds", repr(share)], deadline))

    first = records[0]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} engine={first['be_engine']} "
          f"python={first['python']} nproc={first['nproc']}")
    metrics = per_layer(first) if args.trace else end_to_end(records)

    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    failures = [reason for record in records
                for reason in record["failures"]]
    # A point whose output differs from the first process's fails.
    times = first["response_times"]
    for record in records[1:]:
        for point, value in record["response_times"].items():
            if times.get(point) not in (None, value):
                failed += 1
                failures.append(f"{point}: response time {value} != "
                                f"{times[point]} of the first process")
    print(f"{'fail_rate':<28} {failed}/{attempted} = "
          f"{failed / attempted:.4f}")
    for reason in failures[:20]:
        print(f"FAIL {reason}")

    deterministic = dict(first["passes"][0]["counts"])
    if args.trace:
        deterministic.update(
            {f"{package}.calls_in": count for package, count
             in first["trace"]["calls_in"].items()})
    OUT.mkdir(exist_ok=True)
    path = OUT / (f"{args.workload}-seed{args.seed}"
                  f"{'-trace' if args.trace else ''}.json")
    digest = source_digest()
    flags = count_flags(records) + compare_previous(path, digest,
                                                    deterministic)
    for flag in flags:
        print(f"NONDETERMINISTIC {flag}")
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "metrics": metrics,
        "attempted": attempted, "failed": failed, "failures": failures,
        "nondeterministic": flags, "source_digest": digest,
        "deterministic": deterministic,
        "records": records}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
