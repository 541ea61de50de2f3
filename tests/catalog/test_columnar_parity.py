"""Columns at rest ≡ tuple lists: generation and load against a
scalar row-loop oracle.

Generated relations rest as columns (``repro.catalog.pages``) and reach
the data plane as tuple lists built from them.  These properties hold
that path to :class:`ScalarWisconsin`, a plain per-row transcription
of the Wisconsin generator, loaded through the scalar per-row
``site_of`` loop: for every cardinality, seed, declustering strategy
and site count, each fragment must hand the data plane exactly the
oracle's rows, in the oracle's order, with built-in ``int``/``str``
values only (a numpy scalar would hash and compare differently).  A
relation loaded from columns must also join exactly like one loaded
from tuple lists: same result cardinality, bit-identical simulated
time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import (
    Attribute,
    HashPartitioning,
    RangeKeyPartitioning,
    RangeUniformPartitioning,
    RoundRobinPartitioning,
    Schema,
    load_relation,
)
from repro.catalog.pages import ColumnPage
from repro.core.hash_table import JoinOverflowError
from repro.core.joins import run_join
from repro.engine.machine import GammaMachine
from repro.wisconsin.distributions import normal_attribute_values
from repro.wisconsin.generator import (
    WISCONSIN_STRING_WIDTH,
    WisconsinGenerator,
    _unique_string,
    wisconsin_schema,
)

_STRING4_PATTERNS = ("AAAA", "HHHH", "OOOO", "VVVV")


class ScalarWisconsin:
    """The Wisconsin generator as one Python loop per row.

    Draws from the same seeded numpy generator in the same order as
    :class:`WisconsinGenerator` (permutation, normal column, sample),
    so the two must agree row for row.
    """

    def __init__(self, seed: int, materialize_strings: bool = False):
        self.rng = np.random.default_rng(seed)
        self.materialize_strings = materialize_strings

    def relation_rows(self, n: int, domain: int | None = None) -> list:
        domain = n if domain is None else domain
        stddev = max(750.0 * (domain / 100_000 if domain < 100_000
                              else 1.0), 1.0)
        unique1 = self.rng.permutation(n)
        normal = normal_attribute_values(n, self.rng, mean=domain / 2,
                                         stddev=stddev, domain=domain)
        rows = []
        for unique2 in range(n):
            u1 = int(unique1[unique2])
            one_percent = u1 % 100
            if self.materialize_strings:
                strings = (_unique_string(u1), _unique_string(unique2),
                           _STRING4_PATTERNS[unique2 % 4].ljust(
                               WISCONSIN_STRING_WIDTH, "x"))
            else:
                strings = ("", "", "")
            rows.append((
                u1, unique2, u1 % 2, u1 % 4, u1 % 10, u1 % 20,
                one_percent, u1 % 10, u1 % 5, u1 % 2, u1,
                one_percent * 2, normal[unique2],
            ) + strings)
        return rows

    def sample_rows(self, rows: list, k: int) -> list:
        indices = self.rng.choice(len(rows), size=k, replace=False)
        return [rows[i] for i in sorted(int(i) for i in indices)]


def scalar_load(rows: list, strategy, num_sites: int) -> list:
    """Gamma's loader as a row loop: ``site_of`` per tuple."""
    schema = wisconsin_schema()
    strategy.begin_load(schema, rows, num_sites)
    fragments: list = [[] for _ in range(num_sites)]
    for row in rows:
        fragments[strategy.site_of(row, schema, num_sites)].append(row)
    return fragments


STRATEGIES = {
    "hash-unique1": lambda sites: HashPartitioning("unique1"),
    "hash-unique2": lambda sites: HashPartitioning("unique2"),
    "round-robin": lambda sites: RoundRobinPartitioning(),
    "range-unique1": lambda sites: RangeKeyPartitioning(
        "unique1", [10 * (site + 1) for site in range(sites - 1)]),
    "uniform-unique1": lambda sites: RangeUniformPartitioning("unique1"),
    "uniform-normal": lambda sites: RangeUniformPartitioning("normal"),
}


def assert_builtin_values(fragments: list) -> None:
    for fragment in fragments:
        assert type(fragment) is list
        for row in fragment:
            assert type(row) is tuple
            for value in row:
                assert type(value) in (int, str), type(value)


class TestGeneratorParity:
    @given(n=st.integers(min_value=1, max_value=300),
           seed=st.integers(min_value=0, max_value=2**31 - 1),
           kind=st.sampled_from(sorted(STRATEGIES)),
           num_sites=st.integers(min_value=1, max_value=9))
    @settings(max_examples=60, deadline=None)
    def test_relation_rows_identical(self, n, seed, kind, num_sites):
        """Every fragment of a generated, declustered relation holds
        the oracle's rows, whatever the strategy and site count."""
        generator = WisconsinGenerator(seed=seed)
        relation = load_relation(
            "R", generator.schema, generator.relation_rows(n),
            STRATEGIES[kind](num_sites), num_sites)
        oracle = scalar_load(ScalarWisconsin(seed).relation_rows(n),
                             STRATEGIES[kind](num_sites), num_sites)
        assert relation.cardinality == n
        assert list(relation.iter_rows()) == [
            row for fragment in oracle for row in fragment]
        assert relation.fragments == oracle
        assert_builtin_values(relation.fragments)

    @given(n=st.integers(min_value=1, max_value=250),
           fraction=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=999),
           num_sites=st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_sample_rows_identical(self, n, fraction, seed, num_sites):
        """The §4.4 inner relation: a sample, range-partitioned
        uniformly on its skewed attribute."""
        k = max(1, round(n * fraction))
        generator = WisconsinGenerator(seed=seed)
        sample = generator.sample_rows(generator.relation_rows(n), k)
        relation = load_relation("R", generator.schema, sample,
                                 RangeUniformPartitioning("normal"),
                                 num_sites)
        scalar = ScalarWisconsin(seed)
        oracle_rows = scalar.sample_rows(scalar.relation_rows(n), k)
        assert relation.fragments == scalar_load(
            oracle_rows, RangeUniformPartitioning("normal"), num_sites)
        assert_builtin_values(relation.fragments)

    @given(n=st.integers(min_value=0, max_value=60),
           seed=st.integers(min_value=0, max_value=999),
           num_sites=st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_materialized_strings_identical(self, n, seed, num_sites):
        generator = WisconsinGenerator(seed=seed,
                                       materialize_strings=True)
        relation = load_relation(
            "R", generator.schema, generator.relation_rows(n, domain=50),
            HashPartitioning("unique1"), num_sites)
        oracle = ScalarWisconsin(seed, materialize_strings=True)
        assert relation.fragments == scalar_load(
            oracle.relation_rows(n, domain=50),
            HashPartitioning("unique1"), num_sites)
        assert_builtin_values(relation.fragments)


# --------------------------------------------------------------------------
# Declustering a column page
# --------------------------------------------------------------------------

SCHEMA = Schema([Attribute.integer("k"), Attribute.integer("payload")],
                name="rand")

key_lists = st.lists(st.integers(min_value=0, max_value=60),
                     max_size=80)


def _page(keys) -> ColumnPage:
    return ColumnPage.from_columns((
        np.asarray(keys, dtype=np.int64),
        np.arange(len(keys), dtype=np.int64)), n=len(keys))


def _strategy(kind: str):
    return {
        "hash": lambda: HashPartitioning("k"),
        "rr": RoundRobinPartitioning,
        "range": lambda: RangeUniformPartitioning("k"),
    }[kind]()


class TestRoutingParity:
    @given(keys=key_lists, num_sites=st.integers(min_value=1, max_value=5),
           kind=st.sampled_from(["hash", "rr", "range"]))
    @settings(max_examples=40, deadline=None)
    def test_load_builds_identical_fragments(self, keys, num_sites,
                                             kind):
        rows = [(key, index) for index, key in enumerate(keys)]
        tuple_rel = load_relation("R", SCHEMA, rows, _strategy(kind),
                                  num_sites)
        page_rel = load_relation("R", SCHEMA, _page(keys),
                                 _strategy(kind), num_sites)
        assert page_rel.fragments == tuple_rel.fragments
        assert_builtin_values(page_rel.fragments)

    @given(keys=st.lists(st.integers(min_value=0, max_value=60),
                         min_size=1, max_size=80),
           num_sites=st.integers(min_value=1, max_value=7),
           kind=st.sampled_from(["hash", "range"]))
    @settings(max_examples=40, deadline=None)
    def test_vectorized_sites_match_scalar(self, keys, num_sites, kind):
        """``sites_of`` (the page fast path behind the columnar load)
        agrees with the scalar per-row ``site_of``."""
        rows = [(key, index) for index, key in enumerate(keys)]
        page = _page(keys)
        strategy = _strategy(kind)
        strategy.begin_load(SCHEMA, page, num_sites)
        sites = strategy.sites_of(page, SCHEMA, num_sites)
        assert sites is not None
        assert len(sites) == len(rows)
        for row, site in zip(rows, sites):
            assert strategy.site_of(row, SCHEMA, num_sites) == int(site)


# --------------------------------------------------------------------------
# The four join algorithms
# --------------------------------------------------------------------------

def _run(outer, inner, algorithm, memory_ratio):
    machine = GammaMachine.local(3)
    memory_bytes = max(inner.schema.tuple_bytes,
                       round(memory_ratio * max(1, inner.total_bytes)))
    return run_join(algorithm, machine, outer, inner,
                    join_attribute="k", memory_bytes=memory_bytes)


class TestJoinParity:
    @pytest.mark.parametrize("algorithm",
                             ["simple", "grace", "hybrid", "sort-merge"])
    @given(inner_keys=key_lists, outer_keys=key_lists,
           memory_ratio=st.sampled_from([1.0, 0.5]))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cardinality_and_time_identical(self, algorithm,
                                            inner_keys, outer_keys,
                                            memory_ratio):
        """Relations loaded from column pages join exactly like
        relations loaded from tuple lists."""
        outcomes = {}
        for label, source in (
                ("tuple", lambda keys: [(key, index) for index, key
                                        in enumerate(keys)]),
                ("columnar", _page)):
            inner = load_relation("R", SCHEMA, source(inner_keys),
                                  HashPartitioning("k"), 3)
            outer = load_relation("S", SCHEMA, source(outer_keys),
                                  HashPartitioning("k"), 3)
            try:
                result = _run(outer, inner, algorithm, memory_ratio)
            except JoinOverflowError:
                outcomes[label] = None
            else:
                outcomes[label] = (result.result_tuples,
                                   repr(result.response_time))
        assert outcomes["columnar"] == outcomes["tuple"]
