"""Record kernel/suite timings into the BENCH_kernel.json trajectory.

Appends one sample per invocation to ``BENCH_kernel.json`` at the repo
root: wall-clock times for the figure-5 sweep (the
``test_fig05_hpja_local.py`` workload) at each requested ``--jobs``
level, plus the pure-kernel microbenchmark from
``test_kernel_microbench.py``.  Every PR that touches the kernel should
append a sample so the perf trajectory stays judgeable.

The script runs against whatever ``repro`` is importable, so a
baseline for an older revision can be recorded by pointing
``PYTHONPATH`` at that revision's ``src`` (configs without the ``jobs``
field simply skip the multi-job measurements)::

    PYTHONPATH=src python benchmarks/bench_kernel.py --label after
    PYTHONPATH=/path/to/seed/src python benchmarks/bench_kernel.py \\
        --label seed

Timings are wall-clock on a possibly noisy machine; compare medians
across interleaved runs before drawing conclusions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import platform
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_OUT = ROOT / "BENCH_kernel.json"

# Make ``benchmarks.*`` importable when run as a script, and fall back
# to this repo's ``src`` for ``repro`` unless PYTHONPATH already
# points somewhere (e.g. an older revision being baselined).
sys.path.insert(0, str(ROOT))
sys.path.append(str(ROOT / "src"))


def _git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _summary(times: list) -> dict:
    return {
        "times_s": [round(t, 4) for t in times],
        "min_s": round(min(times), 4),
        "mean_s": round(sum(times) / len(times), 4),
    }


def time_figure5(scale: float, jobs: int, reps: int) -> dict | None:
    from repro.experiments import figures
    from repro.experiments.config import ExperimentConfig

    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    kwargs = {"scale": scale, "seed": 1}
    if "jobs" in fields:
        kwargs["jobs"] = jobs
    elif jobs != 1:
        return None  # revision predates the parallel runner
    config = ExperimentConfig(**kwargs)
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        figures.figure5(config)
        times.append(time.perf_counter() - started)
    return _summary(times)


def time_microbench(reps: int) -> dict:
    from benchmarks.test_kernel_microbench import run_kernel_workload

    times = []
    for _ in range(reps):
        started = time.perf_counter()
        run_kernel_workload()
        times.append(time.perf_counter() - started)
    return _summary(times)


def time_dataplane(reps: int) -> dict | None:
    """Data-plane microbench (hash/filter/build/probe, no simulator).

    Runs the vector arm when ``repro.core.kernels`` is importable and
    ``REPRO_VECTOR`` allows it, else the scalar arm — so a pre-kernels
    revision baselined via PYTHONPATH records the scalar numbers the
    vector plane replaced.
    """
    try:
        from benchmarks.test_kernel_microbench import run_dataplane_workload
    except ImportError:
        return None  # revision predates the data-plane microbench
    run_dataplane_workload()  # warm-up (imports, allocator)
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        run_dataplane_workload()
        times.append(time.perf_counter() - started)
    return _summary(times)


def time_scaleout(reps: int) -> dict | None:
    """Interleaved A/B of the scale-out sweep driver across hardware
    models: a small speedup sweep (hybrid, 8 -> 16 nodes) on
    ``gamma-1989`` + token ring versus ``modern-2018`` + switched
    fabric, reps interleaved arm-by-arm so clock drift and cache
    warmth hit both arms alike.  Simulated response times must be
    bit-stable across reps; the recorded curves document how each
    hardware model actually scales at this operating point.
    """
    try:
        from repro.experiments.scaleout import (
            ScaleoutConfig,
            run_scaleout,
        )
    except ImportError:
        return None  # revision predates the scale-out driver
    arms = {"gamma-ring": ("gamma-1989", "token-ring"),
            "modern-fabric": ("modern-2018", "fabric")}
    times: dict = {arm: [] for arm in arms}
    curves: dict = {}
    for _ in range(reps):
        for arm, (profile, topology) in arms.items():
            config = ScaleoutConfig(
                profile=profile, topology=topology, nodes=(8, 16),
                base_scale=0.1, sweeps=("speedup",),
                algorithms=("hybrid",))
            started = time.perf_counter()
            sample = run_scaleout(config)
            times[arm].append(time.perf_counter() - started)
            curve = {
                str(entry["nodes"]): {
                    "response_time": repr(entry["response_time"]),
                    "speedup": round(entry["speedup"], 3)}
                for entry in sample["curves"]["speedup"]["hybrid"]}
            if arm in curves and curves[arm] != curve:
                raise AssertionError(
                    f"{arm} scale-out curve drifted across reps: "
                    f"{curves[arm]} != {curve}")
            curves[arm] = curve
    out = {arm: {**_summary(arm_times), "speedup_curve": curves[arm]}
           for arm, arm_times in times.items()}
    return out


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Append a kernel-perf sample to BENCH_kernel.json")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--jobs", type=int, nargs="*", default=[1, 2],
                        help="jobs levels to time (default: 1 2)")
    parser.add_argument("--label", default=None,
                        help="sample label (default: git revision)")
    parser.add_argument("--notes", default=None,
                        help="free-form context recorded with the sample")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    revision = _git_revision()
    sample = {
        "label": args.label or revision,
        "revision": revision,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "scale": args.scale,
        "reps": args.reps,
        "figure5_sweep": {},
        "kernel_microbench": time_microbench(args.reps),
    }
    if args.notes is not None:
        sample["notes"] = args.notes
    dataplane = time_dataplane(args.reps)
    if dataplane is not None:
        sample["dataplane_microbench"] = dataplane
    scaleout = time_scaleout(args.reps)
    if scaleout is not None:
        sample["scaleout_microbench"] = scaleout
    for jobs in args.jobs:
        timing = time_figure5(args.scale, jobs, args.reps)
        if timing is not None:
            sample["figure5_sweep"][f"jobs{jobs}"] = timing

    if args.out.exists():
        document = json.loads(args.out.read_text())
    else:
        document = {"description":
                    "Kernel performance trajectory; one sample per "
                    "recorded revision (see benchmarks/bench_kernel.py)",
                    "samples": []}
    document["samples"].append(sample)
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(sample, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
