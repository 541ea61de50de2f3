"""Tests for Relation size arithmetic and metadata."""

import pytest

from repro.catalog import (
    Attribute,
    HashPartitioning,
    Relation,
    RoundRobinPartitioning,
    Schema,
    load_relation,
)


def schema():
    return Schema([Attribute.integer("k"), Attribute.string("s", 46)],
                  name="t")  # 50-byte tuples


def make(fragments):
    return Relation("t", schema(), fragments)


class TestSizes:
    def test_cardinality(self):
        relation = make([[(1, "a"), (2, "b")], [(3, "c")]])
        assert relation.cardinality == 3
        assert relation.num_fragments == 2

    def test_total_bytes(self):
        relation = make([[(1, "a")] * 10, []])
        assert relation.tuple_bytes == 50
        assert relation.total_bytes == 500

    def test_fragment_pages(self):
        # 8192-byte pages hold 163 fifty-byte tuples.
        relation = make([[(i, "x") for i in range(164)], []])
        assert relation.fragment_pages(0, 8192) == 2
        assert relation.fragment_pages(1, 8192) == 0
        assert relation.total_pages(8192) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Relation("t", schema(), [])


class TestMetadata:
    def test_all_rows_covers_fragments(self):
        relation = make([[(1, "a")], [(2, "b")], [(3, "c")]])
        assert sorted(relation.all_rows()) == [(1, "a"), (2, "b"),
                                               (3, "c")]

    def test_attribute_index(self):
        assert make([[]]).attribute_index("s") == 1

    def test_partitioning_attribute(self):
        relation = load_relation("t", schema(), [(1, "a")],
                                 HashPartitioning("k"), 2)
        assert relation.partitioning_attribute == "k"
        round_robin = load_relation("t", schema(), [(1, "a")],
                                    RoundRobinPartitioning(), 2)
        assert round_robin.partitioning_attribute is None

    def test_is_hash_partitioned_on(self):
        relation = load_relation("t", schema(), [(1, "a")],
                                 HashPartitioning("k"), 2)
        assert relation.is_hash_partitioned_on("k")
        assert not relation.is_hash_partitioned_on("s")
        round_robin = load_relation("t", schema(), [(1, "a")],
                                    RoundRobinPartitioning(), 2)
        assert not round_robin.is_hash_partitioned_on("k")

    def test_paper_relation_sizes(self):
        """The §4 arithmetic: 100k Wisconsin tuples ~ 20 MB,
        10k ~ 2 MB."""
        from repro.wisconsin import wisconsin_schema
        big = Relation("A", wisconsin_schema(),
                       [[(0,) * 13 + ("",) * 3] * 12_500] * 8)
        assert big.cardinality == 100_000
        assert big.total_bytes == 20_800_000


class TestRowsBuiltOnce:
    """Generated fragments rest as columns; their tuple lists are built
    once, by the first join, and reused by every later one."""

    @staticmethod
    def count_builds(monkeypatch) -> list:
        from repro.catalog.pages import ColumnPage
        built: list = []
        original = ColumnPage.rows

        def counting(page):
            built.append(len(page))
            return original(page)

        monkeypatch.setattr(ColumnPage, "rows", counting)
        return built

    @staticmethod
    def fresh_db():
        from repro.wisconsin.database import WisconsinDatabase
        return WisconsinDatabase.joinabprime(4, scale=0.01, seed=3)

    def test_size_arithmetic_and_iter_rows_build_nothing(self,
                                                         monkeypatch):
        built = self.count_builds(monkeypatch)
        db = self.fresh_db()
        for relation in (db.outer, db.inner):
            assert relation.cardinality == sum(
                1 for _ in relation.iter_rows())
            assert relation.total_pages(8192) == sum(
                relation.fragment_pages(i, 8192)
                for i in range(relation.num_fragments))
            assert len(relation.all_rows()) == relation.cardinality
        assert built == []

    def test_second_join_reuses_the_row_lists(self, monkeypatch):
        from repro.core.joins import run_join
        from repro.engine.machine import GammaMachine

        built = self.count_builds(monkeypatch)
        db = self.fresh_db()
        first = run_join("hybrid", GammaMachine.local(4), db.outer,
                         db.inner, join_attribute="unique1",
                         memory_ratio=0.5)
        assert sorted(built) == sorted(
            len(fragment) for relation in (db.outer, db.inner)
            for fragment in relation.fragments)
        lists = [list(map(id, relation.fragments))
                 for relation in (db.outer, db.inner)]
        built.clear()
        second = run_join("grace", GammaMachine.local(4), db.outer,
                          db.inner, join_attribute="unique1",
                          memory_ratio=0.5)
        assert built == []
        assert [list(map(id, relation.fragments))
                for relation in (db.outer, db.inner)] == lists
        assert second.result_tuples == first.result_tuples == \
            db.expected_result_tuples
