"""Tests for the Wisconsin benchmark generator."""

import pytest

from repro.wisconsin import (
    WISCONSIN_STRING_WIDTH,
    WisconsinGenerator,
    wisconsin_schema,
)


class TestSchema:
    def test_paper_layout(self):
        """Thirteen 4-byte integers plus three 52-byte strings =
        208 bytes (§4)."""
        schema = wisconsin_schema()
        assert len(schema) == 16
        assert schema.tuple_bytes == 208
        assert schema.index_of("unique1") == 0
        assert schema.has_attribute("normal")
        assert schema.attribute("stringu1").width == 52


class TestRows:
    def test_unique1_is_permutation(self):
        rows = WisconsinGenerator(seed=1).relation_rows(500)
        unique1 = [r[0] for r in rows]
        assert sorted(unique1) == list(range(500))
        assert unique1 != list(range(500))  # random order

    def test_unique2_sequential(self):
        rows = WisconsinGenerator(seed=1).relation_rows(100)
        assert [r[1] for r in rows] == list(range(100))

    def test_derived_attributes(self):
        schema = wisconsin_schema()
        rows = WisconsinGenerator(seed=3).relation_rows(200)
        two = schema.index_of("two")
        one_percent = schema.index_of("onePercent")
        even = schema.index_of("evenOnePercent")
        for row in rows:
            assert row[two] == row[0] % 2
            assert row[one_percent] == row[0] % 100
            assert row[even] == row[one_percent] * 2
            assert row[schema.index_of("unique3")] == row[0]

    def test_deterministic_per_seed(self):
        a = WisconsinGenerator(seed=9).relation_rows(100).rows()
        b = WisconsinGenerator(seed=9).relation_rows(100).rows()
        assert a == b
        c = WisconsinGenerator(seed=10).relation_rows(100).rows()
        assert a != c

    def test_strings_placeholder_by_default(self):
        rows = WisconsinGenerator(seed=1).relation_rows(10).rows()
        assert rows[0][13:] == ("", "", "")

    def test_strings_materialized_on_request(self):
        generator = WisconsinGenerator(seed=1,
                                       materialize_strings=True)
        rows = generator.relation_rows(10)
        for row in rows:
            for value in row[13:]:
                assert len(value) == WISCONSIN_STRING_WIDTH
        # stringu1 values track unique1: distinct keys, distinct
        # strings.
        assert len({r[13] for r in rows}) == 10

    def test_validates_against_schema(self):
        generator = WisconsinGenerator(seed=1,
                                       materialize_strings=True)
        for row in generator.relation_rows(20):
            generator.schema.validate_row(row)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WisconsinGenerator().relation_rows(-1)


class TestNormalAttribute:
    def test_values_in_domain(self):
        generator = WisconsinGenerator(seed=5)
        schema = generator.schema
        index = schema.index_of("normal")
        rows = generator.relation_rows(5000, domain=100_000)
        values = [r[index] for r in rows]
        assert all(0 <= v < 100_000 for v in values)

    def test_concentration_around_mean(self):
        generator = WisconsinGenerator(seed=5)
        index = generator.schema.index_of("normal")
        rows = generator.relation_rows(5000, domain=100_000)
        values = [r[index] for r in rows]
        near = sum(1 for v in values if abs(v - 50_000) < 1500)
        assert near > 0.9 * len(values)


class TestSampling:
    def test_sample_without_replacement(self):
        generator = WisconsinGenerator(seed=2)
        rows = generator.relation_rows(300)
        sample = generator.sample_rows(rows, 50)
        assert len(sample) == 50
        assert len({r[1] for r in sample}) == 50  # unique2 distinct
        row_set = set(rows)
        assert all(r in row_set for r in sample)

    def test_oversample_rejected(self):
        generator = WisconsinGenerator(seed=2)
        rows = generator.relation_rows(10)
        with pytest.raises(ValueError):
            generator.sample_rows(rows, 11)
