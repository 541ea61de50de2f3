"""Columnar relation storage: the at-rest form of generated relations.

A :class:`ColumnPage` stores a batch of tuples as per-attribute columns
— ``int64`` numpy arrays for the thirteen Wisconsin integer
attributes, a constant-value marker for the default non-materialized
string attributes, plain lists for materialized strings — instead of a
list of Python tuples.

Columns are kept only where whole-relation numpy passes pay: the
Wisconsin generator emits one page per relation, the loader
declusters it with a vectorized site assignment
(:meth:`~repro.catalog.partitioning.PartitioningStrategy.sites_of`)
and :meth:`ColumnPage.take`, and sampling gathers rows the same way.
The data plane never sees a page: each relation fragment becomes a
tuple list once, on first use (:attr:`repro.catalog.Relation
.fragments`), because Gamma's 2 KB packets of about nine tuples are far
too small for per-batch numpy work to pay for itself.  Rows handed out
hold built-in ``int``/``str`` values only (never numpy scalars), so
hashing, dict keys and sort tiebreaks see exactly the values the
scalar generator would produce.
"""

from __future__ import annotations

import itertools
import typing

import numpy as np

Row = typing.Tuple
#: numpy arrays are opaque to the type checker (no bundled stubs).
Array = typing.Any


class ConstColumn:
    """A column whose every value is the same object (the default
    non-materialized ``""`` string attributes).  Length lives on the
    owning page; this is just the repeated value."""

    __slots__ = ("value",)

    def __init__(self, value: typing.Any) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConstColumn({self.value!r})"


class ColumnPage:
    """A columnar batch of rows.

    Columns come in three kinds:

    * ``numpy.ndarray`` (int64) — integer attributes; the hot kind.
    * :class:`ConstColumn` — every row holds the same value.
    * ``list`` — arbitrary per-row objects (materialized strings).
    """

    __slots__ = ("_n", "_cols")

    def __init__(self, n: int, cols: typing.Sequence) -> None:
        self._n = n
        self._cols = tuple(cols)

    @classmethod
    def from_columns(cls, cols: typing.Sequence, n: int | None = None
                     ) -> "ColumnPage":
        """Build a page from ready-made columns (validated lengths)."""
        cols = tuple(cols)
        if n is None:
            n = 0
            for col in cols:
                if not isinstance(col, ConstColumn):
                    n = len(col)
                    break
        for col in cols:
            if not isinstance(col, ConstColumn) and len(col) != n:
                raise ValueError(
                    f"column length {len(col)} != page length {n}")
        return cls(n, cols)

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> typing.Iterator[Row]:
        if not self._cols:
            return iter([()] * self._n)
        return zip(*[_column_iter(col, self._n) for col in self._cols])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ColumnPage n={self._n} width={len(self._cols)}>"

    @property
    def width(self) -> int:
        return len(self._cols)

    def rows(self) -> list[Row]:
        """The page as a tuple list, in row order."""
        return list(self)

    def column_array(self, index: int) -> Array | None:
        """The int64 ndarray of column ``index``, or None when the
        column is not an integer array (strings, object columns)."""
        col = self._cols[index]
        return col if isinstance(col, np.ndarray) else None

    def column_values(self, index: int) -> list:
        """Column ``index`` as a list of Python values."""
        col = self._cols[index]
        if isinstance(col, np.ndarray):
            return col.tolist()
        if isinstance(col, ConstColumn):
            return [col.value] * self._n
        return list(col)

    def take(self, indices) -> "ColumnPage":
        """Gather a row subset (``indices``: ndarray or int list)."""
        idx = np.asarray(indices, dtype=np.intp)
        idx_list: list | None = None
        cols = []
        for col in self._cols:
            if isinstance(col, np.ndarray):
                cols.append(col[idx])
            elif isinstance(col, ConstColumn):
                cols.append(col)
            else:
                if idx_list is None:
                    idx_list = idx.tolist()
                cols.append([col[i] for i in idx_list])
        return ColumnPage(len(idx), tuple(cols))


def _column_iter(col, n: int):
    if isinstance(col, np.ndarray):
        return iter(col.tolist())
    if isinstance(col, ConstColumn):
        return itertools.repeat(col.value, n)
    return iter(col)
