"""Runtime event-tie auditor — the DES analog of a race detector.

The kernel's heap is keyed ``(time, priority, sequence)``.  Whenever
two heap entries are popped with identical ``(time, priority)``, their
relative order was decided *only* by the insertion-order sequence
number: a code change that schedules the same events in a different
order silently reorders the simulation.  The golden bit-parity tests
catch such drift after the fact; the auditor pinpoints where it can
happen.

Enable with ``REPRO_AUDIT=1``.  The simulator then routes its run loop
through an audited path that reports every tie to :class:`TieAuditor`,
which aggregates them per *site* — the tuple of tied event labels with
digit runs normalised away (``process:joiner-3`` → ``process:joiner-#``).

Classification
--------------
A tie is not a bug: the kernel *pins* every tie deterministically via
the sequence counter, and the purity linter guarantees the insertion
order feeding that counter is itself reproducible (no hash-order
iteration, no host entropy).  What the auditor classifies is whether a
tie site is *accounted for*:

* **benign** — every event in the group carries a *named* kernel
  label: a process completion (``done:*``), a timeout-driven resume of
  a named process (``process:*``), or a resource hold expiry
  (``resource:*``).  A named tie is visible in debug output, belongs
  to the inventoried families of DESIGN.md §8, and its pinned order is
  backstopped end-to-end by the golden bit-parity tests.  Also benign:
  whole signatures matching an allowlist pattern
  (``REPRO_AUDIT_ALLOW``, semicolon-separated :mod:`fnmatch` globs).
* **suspect** — groups containing an event the auditor cannot
  attribute (an anonymous ``Event``/``Timeout``, a condition, model
  code using unnamed callbacks).  An unattributable tie usually means
  new model code bypassed the naming conventions; it stays suspect
  until named or explicitly allowlisted.

With ``REPRO_AUDIT=1`` auditing only observes — it never changes pop
order — so the golden parity tests pass unchanged.  With
``REPRO_AUDIT=reverse`` the kernel additionally fires each tied heap
batch in *reversed* sequence order — a sensitivity probe that
measures how much of the simulated timing rests on the pinned
tie-break.  Reversal *does* shift several figure-5/7/14 response
times (tied processes contend for the same FIFO resources, so batch
order decides queue positions), which is precisely why the tie-break
must stay deterministic and why this suite polices it.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import os
import re
import typing

from repro.flags import audit_mode

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.events import Event

_DIGITS = re.compile(r"\d+")

#: Signature-joining separator (labels never contain it).
SEPARATOR = " + "

#: Label classes accounted for by the kernel's determinism argument
#: (see "Classification" above and DESIGN.md §8): named completions,
#: named timeout resumes, and resource hold expiries are scheduled by
#: straight-line model code whose insertion order the purity linter
#: keeps reproducible, and the pinned tie order is regression-tested
#: by the golden bit-parity suite.
DEFAULT_BENIGN_LABELS = ("done:*", "process:*", "resource:*")


def event_label(event: "Event") -> str:
    """A human-readable, allocator-independent label for an event.

    Prefers the named owner of the event's first callback (the process
    or resource the firing will touch), falling back to the event's
    own name (a completing :class:`Process`) and finally its type.
    """
    for callback in event.callbacks:
        owner = getattr(callback, "__self__", None)
        if owner is None:
            continue
        name = getattr(owner, "name", None)
        if isinstance(name, str):
            return f"{type(owner).__name__.lower()}:{name}"
    name = getattr(event, "name", None)
    if isinstance(name, str):
        return f"done:{name}"
    return type(event).__name__.lower()


def normalise(label: str) -> str:
    """Collapse digit runs so symmetric peers share one site name."""
    return _DIGITS.sub("#", label)


def signature_is_benign(normalised: typing.Sequence[str], signature: str,
                        benign_labels: typing.Sequence[str]
                        = DEFAULT_BENIGN_LABELS,
                        benign_signatures: typing.Sequence[str] = ()
                        ) -> bool:
    """Classify one tie signature (see "Classification" above).

    ``normalised`` is the sorted, deduplicated list of normalised event
    labels; ``signature`` is their :data:`SEPARATOR` join.
    """
    if len(normalised) == 1:
        return True  # symmetric peers: identical code, either order
    if all(any(fnmatch.fnmatchcase(label, pattern)
               for pattern in benign_labels)
           for label in normalised):
        return True
    return any(fnmatch.fnmatchcase(signature, pattern)
               for pattern in benign_signatures)


@dataclasses.dataclass
class TieSite:
    """Aggregate record of one recurring tie signature."""

    signature: str
    benign: bool
    groups: int = 0
    events: int = 0
    first_time: float = 0.0
    example: tuple[str, ...] = ()


class TieAuditor:
    """Aggregates same-``(time, priority)`` heap-pop groups by site."""

    def __init__(self, benign_signatures: typing.Sequence[str] = (),
                 benign_labels: typing.Sequence[str]
                 = DEFAULT_BENIGN_LABELS,
                 reverse_ties: bool = False) -> None:
        self.benign_signatures = tuple(benign_signatures)
        self.benign_labels = tuple(benign_labels)
        #: When True the kernel fires tied heap batches in reversed
        #: order (the ``REPRO_AUDIT=reverse`` stress mode).
        self.reverse_ties = reverse_ties
        self.sites: dict[str, TieSite] = {}
        self._group_key: tuple[float, int] | None = None
        self._group_labels: list[str] = []
        self._pending_tie = False

    @classmethod
    def from_env(cls) -> "TieAuditor":
        raw = os.environ.get("REPRO_AUDIT_ALLOW", "")
        patterns = [part.strip() for part in raw.split(";")
                    if part.strip()]
        return cls(patterns, reverse_ties=(audit_mode() == "reverse"))

    # -- recording (hot path while auditing) ----------------------------

    def record(self, when: float, priority: int, event: "Event",
               tied_with_next: bool) -> None:
        """Observe one fired heap pop.

        ``tied_with_next`` is True when, at pop time, the next heap
        entry shares this event's ``(time, priority)`` key — i.e. the
        two entries *coexisted* in the heap and only the sequence
        counter ordered them.  An event merely scheduled at the
        current instant by an earlier fire is causally ordered, not
        tied, and coexistence is exactly what separates the two cases.

        Must be called *before* the event fires: firing clears the
        callback list the label is derived from.  Hold re-keys and
        urgent-lane pops are not ties (the FIFO lane's order is
        semantically first-in-first-out) and must not be reported.
        """
        key = (when, priority)
        if not (self._pending_tie and key == self._group_key):
            self._flush_group()
            self._group_key = key
        self._group_labels.append(event_label(event))
        self._pending_tie = tied_with_next

    def _flush_group(self) -> None:
        if len(self._group_labels) > 1:
            self._add_group(tuple(self._group_labels), self.sites)
        self._group_labels.clear()
        self._group_key = None
        self._pending_tie = False

    def _add_group(self, labels: tuple[str, ...],
                   sites: dict[str, TieSite]) -> None:
        normalised = sorted({normalise(label) for label in labels})
        signature = SEPARATOR.join(normalised)
        site = sites.get(signature)
        if site is None:
            site = TieSite(signature=signature,
                           benign=self._is_benign(normalised, signature),
                           first_time=(self._group_key or (0.0, 0))[0],
                           example=labels[:4])
            sites[signature] = site
        site.groups += 1
        site.events += len(labels)

    def _is_benign(self, normalised: typing.Sequence[str],
                   signature: str) -> bool:
        return signature_is_benign(normalised, signature,
                                   self.benign_labels,
                                   self.benign_signatures)

    # -- reporting -------------------------------------------------------

    def flush(self) -> None:
        """Close the trailing group (call when the run loop drains)."""
        self._flush_group()

    def _snapshot(self) -> dict[str, TieSite]:
        """Sites including the in-flight group, without mutating state.

        The reporting APIs below are diagnostics snapshots and may be
        called mid-run; closing the pending group there would split (or
        silently drop) a tie group spanning the call.  A pending group
        of two or more labels is already a tie, so it is counted via a
        copied site table; groups of one stay open and uncounted,
        exactly as :meth:`flush` would leave them.
        """
        if len(self._group_labels) < 2:
            return self.sites
        sites = {signature: dataclasses.replace(site)
                 for signature, site in self.sites.items()}
        self._add_group(tuple(self._group_labels), sites)
        return sites

    def counters(self) -> dict[str, int]:
        """Numeric aggregates, merged into the kernel counters.

        Safe to call mid-run: auditor state is not mutated.
        """
        sites = self._snapshot().values()
        suspect = [s for s in sites if not s.benign]
        return {
            "audit_tie_groups": sum(s.groups for s in sites),
            "audit_tie_events": sum(s.events for s in sites),
            "audit_suspect_groups": sum(s.groups for s in suspect),
            "audit_suspect_sites": len(suspect),
        }

    def site_counts(self) -> dict[str, dict[str, int]]:
        """Picklable per-site group counts, keyed by classification.

        Safe to call mid-run: auditor state is not mutated.
        """
        benign: dict[str, int] = {}
        suspect: dict[str, int] = {}
        for site in self._snapshot().values():
            (benign if site.benign else suspect)[site.signature] = (
                site.groups)
        return {"benign": benign, "suspect": suspect}

    def summary(self, limit: int = 10) -> str:
        """A ``--profile``-style text report of the tie landscape.

        Safe to call mid-run: auditor state is not mutated.
        """
        sites = self._snapshot()
        if not sites:
            return "event-tie audit: no same-(time, priority) ties"
        ordered = sorted(sites.values(),
                         key=lambda s: (s.benign, -s.groups,
                                        s.signature))
        lines = [
            "event-tie audit: "
            f"{sum(s.groups for s in sites.values())} tie "
            f"group(s) across {len(sites)} site(s), "
            f"{sum(1 for s in sites.values() if not s.benign)} "
            "suspect"]
        for site in ordered[:limit]:
            tag = "BENIGN " if site.benign else "SUSPECT"
            lines.append(
                f"  {tag} x{site.groups:<6} t0={site.first_time:<12.6f}"
                f" {site.signature}")
        if len(ordered) > limit:
            lines.append(f"  ... {len(ordered) - limit} more site(s)")
        return "\n".join(lines)
