"""Kernel conformance: the numpy kernels ≡ the C-engine loop semantics.

Each kernel in :mod:`repro.core.backend` is held bit-for-bit to a
per-element reference: the loops of the C engine ``cext`` that once
mirrored them, transcribed to plain Python (uint64 wraparound by
masking, a counting sort for group splits, bit-by-bit marks).  The inputs are the awkward ones: empty
pages, all-duplicate keys and uint64 wraparound edges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import backend

U64 = 2**64
_MASK64 = U64 - 1
_MASK32 = 0xFFFFFFFF


def _int64s(values):
    return np.asarray(values, dtype=np.int64)


class CextLoops:
    """The ``cext`` engine's per-element loops, in pure Python."""

    @staticmethod
    def hash_avalanche(values, mult):
        return np.asarray([(int(v) * mult & _MASK64) & _MASK32
                           for v in values], dtype=np.uint64)

    @staticmethod
    def hash_legacy(values, mult, offset):
        return np.asarray([(int(v) * mult + offset & _MASK64) & _MASK32
                           for v in values], dtype=np.uint64)

    @staticmethod
    def _remix_one(code):
        z = (code + 0x9E3779B9 & _MASK64) & _MASK32
        z = ((z ^ (z >> 16)) * 0x85EBCA6B) & _MASK32
        z = ((z ^ (z >> 13)) * 0xC2B2AE35) & _MASK32
        return z ^ (z >> 16)

    @classmethod
    def remix(cls, codes):
        return np.asarray([cls._remix_one(int(c)) for c in codes],
                          dtype=np.uint64)

    @classmethod
    def filter_slots(cls, codes, num_bits):
        return _int64s([cls._remix_one(int(c)) % num_bits for c in codes])

    @staticmethod
    def split_groups(groups, n_groups):
        # Counting sort: the permutation is fixed by (group, position),
        # so it equals any stable sort's.
        counts = [0] * n_groups
        for g in groups:
            counts[g] += 1
        starts, ends, seg_groups = [], [], []
        cursor, base = [0] * n_groups, 0
        for g in range(n_groups):
            if counts[g]:
                starts.append(base)
                cursor[g] = base
                base += counts[g]
                ends.append(base)
                seg_groups.append(g)
        order = [0] * len(groups)
        for i, g in enumerate(groups):
            order[cursor[g]] = i
            cursor[g] += 1
        return (_int64s(order), _int64s(starts), _int64s(ends),
                _int64s(seg_groups))

    @staticmethod
    def marks_word_bytes(slots, num_bits):
        raw = bytearray((num_bits + 7) // 8)
        for s in slots:
            raw[s >> 3] |= 1 << (s & 7)
        return bytes(raw)

    @staticmethod
    def unpack_bits(raw, num_bits):
        return np.asarray([(raw[i >> 3] >> (i & 7)) & 1
                           for i in range(num_bits)], dtype=bool)


def assert_same(a, b, context):
    if not isinstance(a, tuple):
        a, b = (a,), (b,)
    assert len(a) == len(b), context
    for x, y in zip(a, b):
        if isinstance(x, (bytes, int, float)):
            assert type(x) is type(y), (context, type(x), type(y))
            assert x == y, context
        else:
            xa, ya = np.asarray(x), np.asarray(y)
            assert xa.dtype == ya.dtype, (context, xa.dtype, ya.dtype)
            assert np.array_equal(xa, ya), context


# Edge-heavy uint64 values: wraparound boundaries mixed with smalls.
u64_values = st.one_of(
    st.integers(min_value=0, max_value=U64 - 1),
    st.sampled_from([0, 1, 2**31 - 1, 2**32 - 1, 2**32,
                     2**63 - 1, 2**63, U64 - 1]))
u64_arrays = st.lists(u64_values, min_size=0, max_size=200).map(
    lambda vals: np.asarray(vals, dtype=np.uint64))


@pytest.mark.parametrize("reference", [CextLoops], ids=["cext"])
class TestKernelParity:
    """Each numpy kernel reproduces the reference loops bit-for-bit."""

    @settings(max_examples=60, deadline=None)
    @given(values=u64_arrays,
           mult=st.integers(min_value=0, max_value=U64 - 1))
    def test_hash_avalanche(self, reference, values, mult):
        assert_same(reference.hash_avalanche(values, mult),
                    backend.hash_avalanche(values, mult),
                    (values, mult))

    @settings(max_examples=60, deadline=None)
    @given(values=u64_arrays,
           mult=st.integers(min_value=0, max_value=U64 - 1),
           offset=st.integers(min_value=0, max_value=U64 - 1))
    def test_hash_legacy(self, reference, values, mult, offset):
        assert_same(reference.hash_legacy(values, mult, offset),
                    backend.hash_legacy(values, mult, offset),
                    (values, mult, offset))

    @settings(max_examples=60, deadline=None)
    @given(codes=u64_arrays)
    def test_remix(self, reference, codes):
        assert_same(reference.remix(codes), backend.remix(codes), codes)

    @settings(max_examples=60, deadline=None)
    @given(codes=u64_arrays,
           num_bits=st.integers(min_value=1, max_value=4096))
    def test_filter_slots(self, reference, codes, num_bits):
        assert_same(reference.filter_slots(codes, num_bits),
                    backend.filter_slots(codes, num_bits),
                    (codes, num_bits))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           n_groups=st.integers(min_value=1, max_value=64))
    def test_split_groups(self, reference, data, n_groups):
        # Duplicates are the point: stability must pin the permutation.
        groups = np.asarray(
            data.draw(st.lists(
                st.integers(min_value=0, max_value=n_groups - 1),
                min_size=0, max_size=300)),
            dtype=np.int64)
        assert_same(reference.split_groups(groups, n_groups),
                    backend.split_groups(groups),
                    (groups, n_groups))

    def test_split_groups_all_duplicates(self, reference):
        groups = np.zeros(500, dtype=np.int64)
        assert_same(reference.split_groups(groups, 7),
                    backend.split_groups(groups), "all-dup")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           num_bits=st.integers(min_value=1, max_value=2048))
    def test_marks_word_bytes(self, reference, data, num_bits):
        slots = np.asarray(
            data.draw(st.lists(
                st.integers(min_value=0, max_value=num_bits - 1),
                min_size=0, max_size=200)),
            dtype=np.int64)
        assert_same(reference.marks_word_bytes(slots, num_bits),
                    backend.marks_word_bytes(slots, num_bits),
                    (slots, num_bits))

    @settings(max_examples=60, deadline=None)
    @given(raw=st.binary(min_size=0, max_size=256), data=st.data())
    def test_unpack_bits(self, reference, raw, data):
        num_bits = data.draw(
            st.integers(min_value=0, max_value=len(raw) * 8))
        assert_same(reference.unpack_bits(raw, num_bits),
                    backend.unpack_bits(raw, num_bits),
                    (raw, num_bits))
