"""The simulation event loop.

:class:`Simulator` owns the clock and the event heap.  Model code never
touches the heap directly; it creates :class:`~repro.sim.events.Event`
objects (or the convenience wrappers below) and lets processes wait on
them.

The loop is deterministic: the heap is keyed by
``(time, priority, sequence)`` where ``sequence`` is a monotonically
increasing counter, so same-time events fire in scheduling order within
a priority class.

Fast paths
----------
Two kernel optimisations shrink the constant factor without changing a
single simulated timestamp (see DESIGN.md, "Kernel fast paths"):

* **grant-and-hold events** — :meth:`repro.sim.resources.Resource.use`
  marks its grant event with a hold duration; the run loop re-keys such
  an event ``hold`` seconds into the future on its first pop instead of
  firing it.  The sequence number for the re-keyed entry is allocated
  at exactly the moment the classic request→grant→timeout chain would
  have allocated the timeout's, so heap ordering — and therefore every
  simulated time — is bit-identical, while one full generator resume
  per resource use is skipped.
* **an urgent FIFO lane** — every URGENT schedule in the kernel is
  delay-0 (resource grants, grant-and-hold first legs, store puts), so
  such events are appended to a plain deque instead of the heap.  All
  ``(now, URGENT)`` entries sort before everything else in the heap and
  tie-break by scheduling order, which is exactly FIFO — so popping the
  deque first reproduces heap order while replacing two O(log n) heap
  operations per grant with O(1) deque operations.  ``_schedule``
  rejects an URGENT schedule with a non-zero delay to keep the
  invariant honest.
* **an inlined run loop** — :meth:`run` performs the pop/fire cycle
  with hoisted locals instead of delegating to :meth:`step`.

Set ``REPRO_FASTPATH=0`` to disable the grant-and-hold lane (the run
loop then never sees a held event); the golden parity tests exercise
both modes.
"""

from __future__ import annotations

import collections
import gc
import heapq
import typing

from repro.flags import audit_mode, env_flag
from repro.sim.events import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    AllOf,
    AnyOf,
    Event,
    Timeout,
)
from repro.sim.process import Process


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Simulator:
    """A deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> log = []
    >>> def worker(name, delay):
    ...     yield sim.timeout(delay)
    ...     log.append((sim.now, name))
    >>> _ = sim.process(worker("b", 2.0))
    >>> _ = sim.process(worker("a", 1.0))
    >>> sim.run()
    >>> log
    [(1.0, 'a'), (2.0, 'b')]
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        #: FIFO lane for delay-0 URGENT events (see module docstring).
        #: Always drained before the heap; empty when fastpath is off.
        self._urgent: collections.deque[Event] = collections.deque()
        self._sequence = 0
        #: Event-creation serial counter (stable debug identity;
        #: see Event.__repr__).
        self._event_serial = 0
        self._active_processes = 0
        self._crashed: list[Process] = []
        #: Grant-and-hold lane switch (see module docstring).
        self.fastpath: bool = env_flag("REPRO_FASTPATH", True)
        #: Event-tie auditor (``REPRO_AUDIT=1``, see DESIGN.md §8 and
        #: repro.analysis.audit).  Observes same-(time, priority) heap
        #: pops; never changes pop order.  Lazily imported so the
        #: analysis package costs nothing when auditing is off.
        if audit_mode() is not None:
            from repro.analysis.audit import TieAuditor
            self.auditor: TieAuditor | None = TieAuditor.from_env()
        else:
            self.auditor = None
        #: Conformance mode (``REPRO_VERIFY=1``): route run() through
        #: the step()-based loop, whose per-pop clock guard catches any
        #: event firing before the current simulated time.
        from repro.verify import verify_enabled
        self.verify: bool = verify_enabled()
        # -- diagnostics counters (satellite: kernel observability) ----
        #: Events whose callbacks have run.
        self.events_fired = 0
        #: Grant-and-hold re-keys taken instead of full grant+timeout
        #: event pairs (fast-path hits).
        self.fastpath_holds = 0
        #: High-water mark of the event queue.
        self.heap_peak = 0

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: typing.Any = None) -> Timeout:
        """An event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """An event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """An event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    def process(self, generator: typing.Generator,
                name: str | None = None) -> Process:
        """Start a new process executing ``generator`` immediately.

        The process body runs at the current simulated time as soon as
        the loop regains control; its first ``yield`` suspends it.
        """
        return Process(self, generator, name=name)

    # -- kernel interface ----------------------------------------------------

    def _schedule(self, event: Event, delay: float,
                  priority: int = PRIORITY_NORMAL) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: {delay!r}")
        if priority == PRIORITY_URGENT and self.fastpath:
            # Urgent FIFO lane: (now, URGENT) entries pop before
            # anything else in the heap and tie-break in scheduling
            # order, so a deque reproduces heap order exactly.  The
            # deque skips sequence allocation; relative order of the
            # remaining heap entries' sequence numbers — the only thing
            # the counter decides — is unchanged by the gaps.
            if delay != 0.0:
                raise ValueError(
                    "URGENT events must be delay-0 (urgent-lane "
                    f"invariant); got delay={delay!r}")
            self._urgent.append(event)
        else:
            self._sequence += 1
            heapq.heappush(
                self._heap,
                (self.now + delay, priority, self._sequence, event))
        pending = self.queued_events
        if pending > self.heap_peak:
            self.heap_peak = pending

    def kernel_counters(self) -> dict:
        """Diagnostics snapshot for the experiment harness."""
        counters = {
            "events_fired": self.events_fired,
            "fastpath_holds": self.fastpath_holds,
            "heap_peak": self.heap_peak,
            "queued_events": self.queued_events,
        }
        if self.auditor is not None:
            counters.update(self.auditor.counters())
        return counters

    def audit_report(self) -> str:
        """The event-tie auditor's text summary (``REPRO_AUDIT=1``)."""
        if self.auditor is None:
            return "event-tie audit disabled (set REPRO_AUDIT=1)"
        return self.auditor.summary()

    # -- running -------------------------------------------------------------

    def step(self) -> None:
        """Fire the single next event.

        Held (grant-and-hold) heap entries encountered on the way are
        re-keyed transparently; one call always fires exactly one
        event.
        """
        heap = self._heap
        urgent = self._urgent
        while True:
            if urgent:
                event = urgent.popleft()
                from_heap = False
                priority = PRIORITY_URGENT
            elif heap:
                when, priority, _seq, event = heapq.heappop(heap)
                if when < self.now:  # pragma: no cover - _schedule guards
                    raise SimulationError("time moved backwards")
                self.now = when
                from_heap = True
            else:
                raise SimulationError("nothing scheduled")
            hold = event._hold
            if hold is not None:
                event._hold = None
                self._sequence += 1
                heapq.heappush(heap, (self.now + hold, PRIORITY_NORMAL,
                                      self._sequence, event))
                self.fastpath_holds += 1
                continue
            # Urgent-lane pops are excluded by design: that lane is
            # semantically FIFO, so its insertion order *is* its
            # specified order, not an arbitrary tie-break.  The tie
            # flag is *coexistence*: the next queue entry shares this
            # key right now, before this event fires — an entry this
            # fire schedules at the same instant is causally ordered,
            # not tied.
            if from_heap and self.auditor is not None:
                tied = (bool(heap) and heap[0][0] == self.now
                        and heap[0][1] == priority)
                self.auditor.record(self.now, priority, event, tied)
            event._fire()
            self.events_fired += 1
            if self._crashed:
                process = self._crashed[0]
                raise process.crash_error
            return

    def run(self, until: float | None = None) -> None:
        """Run until the heap drains (or the clock passes ``until``).

        Raises
        ------
        ProcessCrash
            If any process terminates with an unhandled exception the
            error propagates out of ``run`` immediately (fail fast).
        """
        if self.auditor is not None or self.verify:
            # The audited/verified path pays for observability with the
            # plain step() loop; simulated times are identical either
            # way (the auditor only watches pops, it never reorders
            # them, and step() checks the clock never moves backwards).
            self._run_audited(until)
            return
        # Inlined pop/fire cycle — semantically identical to calling
        # step() in a loop, with the hot locals hoisted and the
        # bounded-run (``until``) check compiled out of the common
        # run-to-completion case.
        #
        # Cyclic GC is deferred for the duration of the loop: the
        # kernel allocates millions of short-lived events and frames,
        # all of which die by reference counting — generational scans
        # find nothing to free (measured: zero cyclic garbage after a
        # full sweep) while costing ~10 % of the wall clock.
        heap = self._heap
        urgent = self._urgent
        urgent_popleft = urgent.popleft
        heappop = heapq.heappop
        heappush = heapq.heappush
        crashed = self._crashed
        events_fired = 0
        holds = 0
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while until is not None and (urgent or heap):
                # Urgent-lane events fire at the current instant, which
                # is <= until by construction; only a heap pop can
                # advance the clock past the bound.
                if urgent:
                    event = urgent_popleft()
                    # Grant-and-hold events only ever travel the urgent
                    # lane (use() appends there; the re-key below clears
                    # _hold before the heap push), so heap pops skip
                    # the hold check.
                    hold = event._hold
                    if hold is not None:
                        event._hold = None
                        self._sequence += 1
                        heappush(heap, (self.now + hold, PRIORITY_NORMAL,
                                        self._sequence, event))
                        holds += 1
                        continue
                else:
                    if heap[0][0] > until:
                        self.now = until
                        return
                    when, _priority, _seq, event = heappop(heap)
                    self.now = when
                event._fired = True
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for callback in callbacks:
                        callback(event)
                events_fired += 1
                if crashed:
                    raise crashed[0].crash_error
            while True:
                if urgent:
                    event = urgent_popleft()
                    hold = event._hold
                    if hold is not None:
                        event._hold = None
                        self._sequence += 1
                        heappush(heap, (self.now + hold, PRIORITY_NORMAL,
                                        self._sequence, event))
                        holds += 1
                        continue
                elif heap:
                    when, _priority, _seq, event = heappop(heap)
                    self.now = when
                else:
                    break
                event._fired = True
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for callback in callbacks:
                        callback(event)
                events_fired += 1
                if crashed:
                    raise crashed[0].crash_error
        finally:
            if gc_was_enabled:
                gc.enable()
            self.events_fired += events_fired
            self.fastpath_holds += holds

    def _run_audited(self, until: float | None = None) -> None:
        """step()-based run loop used when the tie auditor is on.

        Mirrors :meth:`run`'s bounded-run semantics: only a heap pop
        can advance the clock, so the bound is checked against the
        heap head before each step.

        In ``REPRO_AUDIT=reverse`` mode each batch of heap entries
        sharing one ``(time, priority)`` key is fired in *reversed*
        sequence order, with the urgent lane drained between fires
        exactly as the in-order kernel would.  Any simulated result
        that depends on the insertion-order tie-break then moves — a
        sensitivity probe for how much timing rests on the pinned
        tie order (see repro.analysis.audit).  Note that with
        ``REPRO_FASTPATH=0`` URGENT events live in the heap, so
        reversal also flips resource-grant FIFO order — expected, and
        a larger perturbation than fastpath-on reversal.
        """
        heap = self._heap
        urgent = self._urgent
        auditor = self.auditor
        reverse = auditor is not None and auditor.reverse_ties
        while True:
            if not urgent:
                if not heap:
                    break
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return
            if urgent or not reverse:
                self.step()
                continue
            # Reverse mode: collect the whole same-key batch first.
            when, priority, _seq, event = heapq.heappop(heap)
            self.now = when
            batch: list[Event] = []
            while True:
                hold = event._hold
                if hold is not None:
                    event._hold = None
                    self._sequence += 1
                    heapq.heappush(
                        heap, (when + hold, PRIORITY_NORMAL,
                               self._sequence, event))
                    self.fastpath_holds += 1
                else:
                    batch.append(event)
                if (heap and heap[0][0] == when
                        and heap[0][1] == priority):
                    _when, _priority, _seq, event = heapq.heappop(heap)
                else:
                    break
            last = len(batch) - 1
            for index, event in enumerate(reversed(batch)):
                assert auditor is not None
                # Batch members coexisted in the heap by construction,
                # so they chain into one tie group; the batch boundary
                # closes it (same-key events pushed by these fires are
                # causal followers, not ties).
                auditor.record(when, priority, event, index < last)
                event._fire()
                self.events_fired += 1
                if self._crashed:
                    raise self._crashed[0].crash_error
                # Events pushed by this fire at the same key form
                # their own later batch; the urgent lane, whose order
                # is semantic FIFO, drains between tied fires as the
                # in-order kernel would drain it.  Drained inline
                # rather than via step(): once a held urgent event is
                # re-keyed into the heap, step() falls through to pop
                # the heap head — an arbitrary *future* event, because
                # the rest of this batch lives in the local list, not
                # the heap — advancing the clock mid-batch.  Only
                # urgent-lane events may fire here.
                while urgent:
                    pending = urgent.popleft()
                    hold = pending._hold
                    if hold is not None:
                        pending._hold = None
                        self._sequence += 1
                        heapq.heappush(
                            heap, (self.now + hold, PRIORITY_NORMAL,
                                   self._sequence, pending))
                        self.fastpath_holds += 1
                        continue
                    pending._fire()
                    self.events_fired += 1
                    if self._crashed:
                        raise self._crashed[0].crash_error
        if auditor is not None:
            auditor.flush()  # close the trailing group at drain

    @property
    def queued_events(self) -> int:
        """Number of events waiting to fire (diagnostics only).

        O(1) — ``_schedule`` reads this on every call for the
        ``heap_peak`` high-water mark, so it must not scan the queue.
        """
        return len(self._heap) + len(self._urgent)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Simulator now={self.now:.6f} "
                f"queued={self.queued_events}>")
