"""Layer tracer: host time split across the ``repro.<pkg>`` packages.

A ``sys.setprofile`` hook opens a span whenever a call crosses from one
``repro`` package into another (or into ``repro`` from outside it), and
closes it when that frame returns.  Generator resumes are calls to the
profiler, so each resume of an operator process is a span of its own.
Calls into code outside ``repro`` (numpy's Python layer, the standard
library) open no span: their time belongs to the package that made
them.

A package's self time is the time of its spans minus the time of the
spans opened inside them, so the self times of all packages plus the
``bench`` root (the benchmark's own code) add up to the traced wall
time.  The hook runs on every Python call and return, so traced code
runs several times slower; compare self times with each other, not
with untraced timings.
"""

from __future__ import annotations

import sys
import time
import typing

#: Name of the root span: everything outside ``repro``.
ROOT = "bench"
#: How far the summed self times may stray from the wall time measured
#: around the traced block, as a share of it.
SUM_TOLERANCE = 0.02
#: Spans kept in memory for the JSON dump; later spans are counted
#: into the per-package totals but not stored.
MAX_SPANS = 20_000


def package_of(module: "str | None") -> "str | None":
    """``"sim"`` for ``repro.sim.engine``; None outside ``repro``."""
    parts = (module or "").split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 else "repro"


class LayerTracer:
    """Context manager that traces the calls made inside it."""

    def __init__(self) -> None:
        self.max_spans = MAX_SPANS
        self.self_s: dict[str, float] = {}
        self.calls_in: dict[str, int] = {}
        #: Stored spans: [package, qualname, start, end, parent index].
        self.spans: list[list] = []
        self.dropped_spans = 0
        self.wall_s = 0.0
        self._open: list[list] = []

    def __enter__(self) -> "LayerTracer":
        clock = time.perf_counter
        self_s = self.self_s
        calls_in = self.calls_in
        spans = self.spans
        max_spans = self.max_spans
        pkg_of: dict[typing.Any, "str | None"] = {}
        # One entry per traced Python frame: the open span it started,
        # or None.  Frames that were running when tracing began return
        # with this stack empty and are ignored.
        frames: list = []
        root = [ROOT, clock(), 0.0, None]
        opened = self._open = [root]

        def hook(frame: typing.Any, event: str, arg: typing.Any) -> None:
            if event == "call":
                code = frame.f_code
                pkg = pkg_of.get(code, False)
                if pkg is False:
                    pkg = pkg_of[code] = package_of(
                        frame.f_globals.get("__name__"))
                if pkg is None or pkg == opened[-1][0]:
                    frames.append(None)
                    return
                calls_in[pkg] = calls_in.get(pkg, 0) + 1
                index = None
                if len(spans) < max_spans:
                    index = len(spans)
                    # co_qualname is new in Python 3.11.
                    name = getattr(code, "co_qualname", code.co_name)
                    spans.append([pkg, name, 0.0, 0.0, opened[-1][3]])
                else:
                    self.dropped_spans += 1
                span = [pkg, clock(), 0.0, index]
                if index is not None:
                    spans[index][2] = span[1]
                opened.append(span)
                frames.append(span)
            elif event == "return" and frames:
                span = frames.pop()
                if span is not None:
                    now = clock()
                    opened.pop()
                    duration = now - span[1]
                    self_s[span[0]] = (self_s.get(span[0], 0.0)
                                       + duration - span[2])
                    opened[-1][2] += duration
                    if span[3] is not None:
                        spans[span[3]][3] = now

        sys.setprofile(hook)
        return self

    def __exit__(self, *exc: typing.Any) -> None:
        sys.setprofile(None)
        now = time.perf_counter()
        # Every span opened inside the block closed when its frame
        # returned (an exception unwinding a frame returns it too).
        root = self._open.pop()
        self.wall_s = now - root[1]
        self.self_s[ROOT] = (self.self_s.get(ROOT, 0.0)
                             + self.wall_s - root[2])

    def as_json(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "self_s": dict(sorted(self.self_s.items())),
            "calls_in": dict(sorted(self.calls_in.items())),
            "dropped_spans": self.dropped_spans,
            "span_fields": ["package", "qualname", "start", "end",
                            "parent"],
            "spans": self.spans,
        }
