"""The in-memory join hash table with Gamma's overflow mechanism.

§3.2 and §4.1 of the paper describe the machinery precisely:

* tuples are inserted into a hash table keyed by the hash of the join
  attribute; duplicate attribute values form chains (§4.4 measured
  average chains of 3.3 tuples, maximum 16, under the normal skew);
* a histogram over hash values is maintained as tuples arrive;
* when the table's capacity is exceeded, a cutoff hash value is chosen
  from the histogram such that evicting every resident tuple above it
  frees (at least) 10 % of the memory, the qualifying tuples are
  scanned out and written to the overflow file, and *subsequent*
  arrivals above the cutoff bypass the table entirely;
* the heuristic may fire repeatedly, each time lowering the cutoff —
  and each application increases the fraction of incoming tuples that
  is diverted straight to the overflow file.

:class:`JoinHashTable` implements exactly that.  The owning build
operator drives the protocol::

    if table.admits(h):
        if table.is_full:
            evicted, scanned = table.make_room()
            ... route evicted tuples to the overflow file ...
        if table.admits(h):          # cutoff may now exclude h
            table.insert(row, h)
        else:
            ... route row to the overflow file ...
    else:
        ... route row to the overflow file ...

Matching R and S tuples hash identically, so "resident iff hash below
cutoff" holds symmetrically on both sides — no result is ever lost
(property-tested in ``tests/core/test_hash_table.py``).
"""

from __future__ import annotations

import math
import typing

from repro.hashing import HASH_MODULUS

Row = typing.Tuple

#: Resolution of the hash-value histogram the clearing heuristic
#: consults.  128 bins over the 32-bit hash space.
HISTOGRAM_BINS = 128

#: Fraction of table capacity each clearing pass tries to free (§4.1:
#: "We currently try to clear 10% of the hash table memory space").
CLEAR_FRACTION = 0.10


class JoinOverflowError(RuntimeError):
    """The overflow mechanism cannot make progress.

    Raised when recursion hits the configured depth limit — in
    practice only when one join value's duplicates alone exceed all
    join memory, the pathological case the paper's conclusion warns
    about (use sort-merge when the inner relation is highly skewed and
    memory is limited).
    """


class JoinHashTable:
    """One join site's in-memory hash table."""

    def __init__(self, capacity_tuples: int) -> None:
        if capacity_tuples < 1:
            raise ValueError(
                f"hash table needs capacity >= 1 tuple, got "
                f"{capacity_tuples}; give the join more memory")
        self.capacity = capacity_tuples
        self._slots: dict[int, list[Row]] = {}
        self.count = 0
        #: Hash codes >= cutoff overflow; None means no overflow yet.
        self.cutoff: int | None = None
        self._histogram = [0] * HISTOGRAM_BINS
        # Statistics.
        self.overflow_events = 0
        self.tuples_evicted = 0
        self.tuples_scanned_during_eviction = 0
        #: Longest duplicate chain seen so far (§4.4 reports 16 max).
        self.max_chain = 0
        self.total_inserted = 0

    # -- admission / insertion ---------------------------------------------

    def admits(self, hash_code: int) -> bool:
        """May a tuple with this hash code live in the table?"""
        return self.cutoff is None or hash_code < self.cutoff

    @property
    def is_full(self) -> bool:
        return self.count >= self.capacity

    def insert(self, row: Row, hash_code: int) -> None:
        """Insert a tuple (caller must have checked :meth:`admits` and
        made room)."""
        if not self.admits(hash_code):
            raise RuntimeError(
                f"insert above cutoff: hash {hash_code} >= {self.cutoff}")
        if self.is_full:
            raise RuntimeError(
                "insert into a full table; call make_room() first")
        chain = self._slots.get(hash_code)
        if chain is None:
            self._slots[hash_code] = [row]
            chain_length = 1
        else:
            chain.append(row)
            chain_length = len(chain)
        self.count += 1
        self.total_inserted += 1
        if chain_length > self.max_chain:
            self.max_chain = chain_length
        self._histogram[self._bin(hash_code)] += 1

    def insert_page(self, rows: typing.Sequence[Row],
                    hashes: typing.Sequence[int]) -> None:
        """Insert a whole page at once.

        Caller guarantees ``cutoff is None`` and ``count + len(rows) <=
        capacity`` — exactly the regime where the scalar protocol never
        calls ``admits``/``make_room`` between inserts, so this is the
        plain insert loop with the per-row bookkeeping hoisted.
        """
        slots = self._slots
        histogram = self._histogram
        max_chain = self.max_chain
        for row, hash_code in zip(rows, hashes):
            chain = slots.get(hash_code)
            if chain is None:
                slots[hash_code] = [row]
                chain_length = 1
            else:
                chain.append(row)
                chain_length = len(chain)
            if chain_length > max_chain:
                max_chain = chain_length
            histogram[hash_code * HISTOGRAM_BINS // HASH_MODULUS] += 1
        self.max_chain = max_chain
        self.count += len(rows)
        self.total_inserted += len(rows)

    # -- overflow ------------------------------------------------------------

    @staticmethod
    def _bin(hash_code: int) -> int:
        return hash_code * HISTOGRAM_BINS // HASH_MODULUS

    @staticmethod
    def _bin_floor(bin_index: int) -> int:
        return bin_index * HASH_MODULUS // HISTOGRAM_BINS

    def make_room(self) -> tuple[list[tuple[Row, int]], int]:
        """Apply the 10 %-clearing heuristic.

        Chooses a new (lower) cutoff from the histogram, evicts every
        resident tuple at or above it, and returns ``(evicted,
        scanned)`` where ``evicted`` is a list of (row, hash) pairs
        destined for the overflow file and ``scanned`` is the number
        of resident tuples examined (CPU accounting for "the overhead
        required to repeatedly search the hash table", §4.1).
        """
        target = max(1, math.ceil(self.capacity * CLEAR_FRACTION))
        top_bin = (HISTOGRAM_BINS if self.cutoff is None
                   else self._bin(self.cutoff - 1) + 1)
        freed = 0
        bin_index = top_bin
        while bin_index > 0 and freed < target:
            bin_index -= 1
            freed += self._histogram[bin_index]
        if freed == 0:
            raise JoinOverflowError(
                "overflow clearing freed no memory: every resident tuple "
                "shares the lowest histogram bin (pathological duplicate "
                "skew; the paper's remedy is a non-hash algorithm)")
        new_cutoff = self._bin_floor(bin_index)
        scanned = self.count
        evicted: list[tuple[Row, int]] = []
        for hash_code in sorted(self._slots):
            if hash_code >= new_cutoff:
                for row in self._slots[hash_code]:
                    evicted.append((row, hash_code))
                del self._slots[hash_code]
        self.count -= len(evicted)
        for index in range(bin_index, top_bin):
            self._histogram[index] = 0
        self.cutoff = new_cutoff
        self.overflow_events += 1
        self.tuples_evicted += len(evicted)
        self.tuples_scanned_during_eviction += scanned
        return evicted, scanned

    @property
    def overflowed(self) -> bool:
        return self.cutoff is not None

    # -- probing ------------------------------------------------------------

    def probe(self, hash_code: int, key_value: typing.Any,
              key_index: int) -> tuple[list[Row], int]:
        """Probe with an outer tuple's hash and join value.

        Returns ``(matches, chain_length)``; the chain length feeds the
        per-link probe CPU cost.
        """
        chain = self._slots.get(hash_code)
        if chain is None:
            return [], 0
        matches = [row for row in chain if row[key_index] == key_value]
        return matches, len(chain)

    def probe_page(self, rows: typing.Sequence[Row],
                   hashes: typing.Sequence[int], outer_key: int,
                   inner_key: int, tuple_receive: float,
                   tuple_probe: float, tuple_chain_link: float,
                   result_move: float,
                   emit: typing.Callable[[Row], None]) -> float:
        """Probe a whole page; returns the accumulated CPU time.

        Bit-equal to the scalar probe consumer: per row the charges are
        ``cpu += tuple_receive; cpu += tuple_probe [+ (chain-1) *
        tuple_chain_link]; cpu += result_move`` per match, in the same
        order and operand grouping.
        """
        slots = self._slots
        cpu = 0.0
        for row, hash_code in zip(rows, hashes):
            cpu += tuple_receive
            chain = slots.get(hash_code)
            if chain is None:
                cpu += tuple_probe
                continue
            chain_length = len(chain)
            if chain_length == 1:
                cpu += tuple_probe
            else:
                cpu += tuple_probe + (chain_length - 1) * tuple_chain_link
            value = row[outer_key]
            for match in chain:
                if match[inner_key] == value:
                    cpu += result_move
                    emit(match + row)
        return cpu

    def resident_rows(self) -> typing.Iterator[tuple[Row, int]]:
        """All (row, hash) pairs currently resident (diagnostics)."""
        for hash_code, chain in self._slots.items():
            for row in chain:
                yield row, hash_code

    @property
    def average_chain(self) -> float:
        """Average chain length over occupied slots (§4.4 reports 3.3
        under the normal skew)."""
        if not self._slots:
            return 0.0
        return self.count / len(self._slots)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<JoinHashTable {self.count}/{self.capacity} "
                f"cutoff={self.cutoff} overflows={self.overflow_events}>")
