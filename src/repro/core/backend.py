"""The data plane's numpy kernels.

Every per-element pass over a whole page — key hashing, bit-filter
slot math, route-plan group splitting — is one function here, called
directly by :mod:`repro.core.kernels`.  Each is bit-identical to the scalar
path it batches (property-tested against :mod:`repro.hashing` and the
scalar data plane in ``tests/core/test_kernels.py``, and against
per-element reference loops in ``tests/core/test_backend_parity.py``):

* ``hash_avalanche`` / ``hash_legacy`` / ``remix`` / ``filter_slots``
  — uint64 arithmetic wraps modulo 2**64, which is congruent modulo
  2**32 to Python's arbitrary-precision result, so the masked 32-bit
  codes match the scalar hashes for any 64-bit input.
* ``split_groups`` — a *stable* sort keeps equal keys in input
  order, so each group lists its rows in exactly the order the scalar
  router would.
* ``marks_word_bytes`` / ``unpack_bits`` — byte-for-byte bit layout
  (little-endian within each byte) of the scalar int bitset.

Every kernel call bumps the module counter :data:`calls`, which
``--profile`` reports as ``be_fallback_calls``.
"""

from __future__ import annotations

import typing

import numpy as np

Array = typing.Any

_MASK32 = np.uint64(0xFFFFFFFF)

#: Kernel calls made by this process (machines report deltas).
calls = 0


def activate() -> str:
    """Name the kernel engine.  There is only numpy, so nothing to
    load; kept so benchmark harnesses can warm up uniformly."""
    return "numpy"


def hash_avalanche(values: Array, mult: int) -> Array:
    """``(v * mult) & 0xFFFFFFFF`` over a uint64 column."""
    global calls
    calls += 1
    return (values * np.uint64(mult)) & _MASK32


def hash_legacy(values: Array, mult: int, offset: int) -> Array:
    """``(v * mult + offset) & 0xFFFFFFFF`` over a uint64 column."""
    global calls
    calls += 1
    return (values * np.uint64(mult) + np.uint64(offset)) & _MASK32


def _remix(hash_codes: Array) -> Array:
    m = _MASK32
    z = (hash_codes + np.uint64(0x9E3779B9)) & m
    z = ((z ^ (z >> np.uint64(16))) * np.uint64(0x85EBCA6B)) & m
    z = ((z ^ (z >> np.uint64(13))) * np.uint64(0xC2B2AE35)) & m
    return z ^ (z >> np.uint64(16))


def remix(hash_codes: Array) -> Array:
    """The 32-bit finalizer of :func:`repro.hashing.remix`, batched."""
    global calls
    calls += 1
    return _remix(hash_codes)


def filter_slots(hash_codes: Array, num_bits: int) -> Array:
    """Filter bit index (``remix(h) % num_bits``) per hash code."""
    global calls
    calls += 1
    return (_remix(hash_codes) % np.uint64(num_bits)).astype(np.int64)


def split_groups(groups: Array) -> tuple[Array, Array, Array, Array]:
    """Stable group split of a destination column.

    Returns ``(order, starts, ends, seg_groups)``: ``order`` is the
    stable argsort of ``groups`` (equal groups keep input order) and
    ``starts[k]:ends[k]`` delimits the rows of group ``seg_groups[k]``
    within it, ascending by group id, empty groups omitted.
    """
    global calls
    calls += 1
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    n = len(groups)
    cuts = np.flatnonzero(sorted_groups[1:] != sorted_groups[:-1]) + 1
    starts = np.concatenate(([0], cuts)) if n else cuts
    ends = np.concatenate((cuts, [n])) if n else cuts
    return order, starts, ends, sorted_groups[starts] if n else sorted_groups


def marks_word_bytes(slots: Array, num_bits: int) -> bytes:
    """Little-endian byte image of a bitset with ``slots`` set."""
    global calls
    calls += 1
    marks = np.zeros(num_bits, dtype=np.uint8)
    marks[slots] = 1
    return np.packbits(marks, bitorder="little").tobytes()


def unpack_bits(raw: bytes, num_bits: int) -> Array:
    """Bool-array view of a little-endian bitset image."""
    global calls
    calls += 1
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little")[:num_bits].astype(bool)
