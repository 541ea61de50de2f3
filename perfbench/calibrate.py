"""A fixed reference workload that measures how fast the box runs now.

The benchmark's host shares its cores with other tenants, and its
speed drifts by tens of percent over minutes.  The simulator's pass
times drift with it, so raw seconds from two sets of runs made minutes
apart differ by more than any regression worth catching.  Each timed
pass therefore runs one reference run in slices, one before each point
and one after the last, and the pass time is scaled by ``NOMINAL_S /
reference time``: seconds on a box running at the speed at which the
reference takes ``NOMINAL_S``.

The reference is code of the benchmark, not of the simulator, so no
change to the simulator can move it.  About three quarters of it is an
interpreter loop like the simulator's event loop (generator resumes, a
binary heap, small dicts and tuples allocated and dropped), and a
quarter is numpy array work like the data plane's.  Both parts keep a
few megabytes live at most.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Seconds a whole reference run takes at the speed every scaled time
#: is expressed in (about this box's speed when it is quiet).
NOMINAL_S = 0.25
#: Interpreter events in a whole reference run.
EVENTS = 140_000
#: Array rounds in a whole reference run.
ROUNDS = 80
_ACTORS = 64
_KEYS = np.arange(65_536, dtype=np.int64)


def _actor(index: int):
    now = 0.0
    step = (index % 7 + 1) * 0.5
    inbox: list = []
    while True:
        now += step
        inbox.append({"src": index, "at": now, "row": (index, now)})
        if len(inbox) > 8:
            inbox = [message for message in inbox
                     if message["at"] > now - 2.0]
        yield now, len(inbox)


def _event_loop(events: int) -> int:
    actors = [_actor(index) for index in range(_ACTORS)]
    heap = [(next(actor)[0], index) for index, actor in enumerate(actors)]
    heapq.heapify(heap)
    checksum = 0
    for _ in range(events):
        _, index = heapq.heappop(heap)
        at, pending = next(actors[index])
        checksum += pending
        heapq.heappush(heap, (at, index))
    return checksum


def _array_rounds(rounds: int) -> int:
    checksum = 0
    for offset in range(rounds):
        codes = (_KEYS + offset) * 2654435761 % 1_000_003
        codes.sort()
        checksum += int(codes[-1])
    return checksum


def reference_seconds(share: float = 1.0) -> float:
    """Wall seconds of ``share`` of a whole reference run."""
    started = time.perf_counter()
    _event_loop(round(EVENTS * share))
    _array_rounds(max(1, round(ROUNDS * share)))
    return time.perf_counter() - started
