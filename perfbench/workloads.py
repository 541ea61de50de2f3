"""The benchmark's three workloads, their set-up, and the point runner.

Each workload is a closed loop: one process runs its points one after
another, each on a freshly built machine, exactly as the figure sweeps
do with ``jobs=1``.  The point runner calls the simulator's public API
step by step (machine construction, driver launch, event loop, result
collection) so each step can be timed from outside the program.

Simulated response times are the correctness check, never a
performance metric: on the pinned seed every point must match its
pinned ``repr`` bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
import typing

from repro.catalog import HashPartitioning, load_relation
from repro.core.joins import ALGORITHMS as DRIVERS
from repro.core.joins import JoinSpec
from repro.engine.machine import GammaMachine
from repro.experiments.runner import auto_capacity_slack
from repro.wisconsin.generator import WisconsinGenerator

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "benchmarks" / "results" / "golden_scale0.1.json"

#: The seed whose simulated outputs are pinned.
PINNED_SEED = 1
#: Figure 5's memory ratios, keyed as the golden file keys them.
RATIOS = (1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6)
ALGORITHMS = ("hybrid", "grace", "simple", "sort-merge")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One set of inputs: a joinABprime database and the points run
    on it."""

    name: str
    scale: float
    nodes: int
    profile: str
    topology: str
    hpja: bool
    #: (algorithm, memory ratio) pairs, run in this order.
    points: tuple


def _fig5_pins() -> dict:
    figure = json.loads(GOLDEN.read_text())["figures"]["figure5"]
    return {(algorithm, ratio): figure[algorithm][repr(ratio)]
            for algorithm in ALGORITHMS for ratio in RATIOS}


#: Response times (``repr``) of the seed commit at ``PINNED_SEED``,
#: produced by ``figures.figure6`` (paper-scale) and ``run_scaleout``
#: (scaleout-256) on the default configuration.
_PAPER_SCALE_PINS = {
    ("hybrid", 0.5): "144.91603439998892",
    ("grace", 0.5): "160.25907439997445",
    ("simple", 0.5): "177.81686359999898",
    ("sort-merge", 0.5): "227.30508360000275",
}
_SCALEOUT_PINS = {("hybrid", 1.0): "0.1294802496000241"}

WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            name="fig5-sweep",
            scale=0.1, nodes=8, profile="gamma-1989",
            topology="token-ring", hpja=True,
            points=tuple((a, r) for a in ALGORITHMS for r in RATIOS)),
        Workload(
            name="paper-scale",
            scale=1.0, nodes=8, profile="gamma-1989",
            topology="token-ring", hpja=False,
            points=tuple((a, 0.5) for a in ALGORITHMS)),
        Workload(
            name="scaleout-256",
            scale=0.1, nodes=256, profile="modern-2018",
            topology="fabric", hpja=True,
            points=(("hybrid", 1.0),)),
    )}


def pinned_values(workload: Workload, seed: int) -> dict:
    """Pinned response times for ``workload`` at ``seed``; empty for
    a seed that has none."""
    if seed != PINNED_SEED:
        return {}
    if workload.name == "fig5-sweep":
        return _fig5_pins()
    if workload.name == "paper-scale":
        return dict(_PAPER_SCALE_PINS)
    if workload.name == "scaleout-256":
        return dict(_SCALEOUT_PINS)
    return {}


@dataclasses.dataclass
class Database:
    """The generated and loaded relations of one workload."""

    outer: typing.Any
    inner: typing.Any
    generate_s: float
    load_s: float


def build_database(workload: Workload, seed: int) -> Database:
    """Generate and decluster the joinABprime pair, as
    ``WisconsinDatabase.joinabprime`` does, timing each layer.

    Relation fragments cache the hash columns computed from them, so
    each pass over a workload gets a database of its own, as each run
    of a figure does.
    """
    n_outer = max(10, round(100_000 * workload.scale))
    n_inner = max(1, round(10_000 * workload.scale))
    started = time.perf_counter()
    generator = WisconsinGenerator(seed=seed)
    outer_rows = generator.relation_rows(n_outer)
    inner_rows = generator.relation_rows(n_inner, domain=n_inner)
    generated = time.perf_counter()
    key = "unique1" if workload.hpja else "unique2"
    outer = load_relation("A", generator.schema, outer_rows,
                          HashPartitioning(key), workload.nodes)
    inner = load_relation("Bprime", generator.schema, inner_rows,
                          HashPartitioning(key), workload.nodes)
    loaded = time.perf_counter()
    return Database(outer=outer, inner=inner,
                    generate_s=generated - started,
                    load_s=loaded - generated)


def join_cardinality(db: Database) -> int:
    """The number of result tuples the join must produce, counted from
    the loaded keys."""
    index = db.outer.attribute_index("unique1")
    outer_keys = {row[index] for row in db.outer.iter_rows()}
    return sum(1 for row in db.inner.iter_rows()
               if row[index] in outer_keys)


#: Per-point layer timings, in seconds (see README.md for the map).
TIMERS = ("engine.machine_s", "core.launch_s", "sim.run_s",
          "core.collect_s")


def run_point(workload: Workload, db: Database, algorithm: str,
              ratio: float) -> dict:
    """Run one point on a fresh machine, with no bit filters (the
    ``JoinSpec`` default); returns its output, layer timings and
    counters."""
    spec = JoinSpec(
        memory_ratio=ratio, collect_result=False,
        capacity_slack=auto_capacity_slack(
            db.inner.cardinality, ratio, workload.nodes))
    t0 = time.perf_counter()
    machine = GammaMachine.local(workload.nodes, costs=workload.profile,
                                 topology=workload.topology)
    t1 = time.perf_counter()
    driver = DRIVERS[algorithm](machine, db.outer, db.inner, spec)
    driver.launch()
    t2 = time.perf_counter()
    machine.run_to_completion()
    t3 = time.perf_counter()
    result = driver.collect()
    t4 = time.perf_counter()
    return {
        "response_time": repr(result.response_time),
        "result_tuples": result.result_tuples,
        "timers": dict(zip(TIMERS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3))),
        "counts": point_counts(machine, result),
    }


#: Counters that must repeat exactly for the same inputs.
COUNTS = ("sim.events_fired", "sim.fastpath_holds", "sim.heap_peak",
          "network.data_packets", "network.data_packets_shortcircuited",
          "network.data_tuples", "network.data_tuples_shortcircuited",
          "network.control_messages", "storage.page_reads",
          "storage.page_writes", "core.dp_packets_batched",
          "core.dp_packets_scalar", "core.hash_memo_hits",
          "core.hash_memo_misses", "core.be_compiled_calls",
          "core.be_fallback_calls")


def point_counts(machine: typing.Any, result: typing.Any) -> dict:
    kernel = machine.sim.kernel_counters()
    dataplane = machine.dataplane_counters()
    net = result.network
    values = (
        kernel["events_fired"], kernel["fastpath_holds"],
        kernel["heap_peak"], net.data_packets,
        net.data_packets_shortcircuited, net.data_tuples,
        net.data_tuples_shortcircuited, net.control_messages,
        result.disk_page_reads, result.disk_page_writes,
        dataplane["dp_packets_batched"], dataplane["dp_packets_scalar"],
        dataplane["dp_hash_cache_hits"], dataplane["dp_hash_cache_misses"],
        dataplane["be_compiled_calls"], dataplane["be_fallback_calls"])
    return dict(zip(COUNTS, values))
