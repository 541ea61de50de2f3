"""Columnar relation pages (the ``REPRO_COLUMNAR`` representation).

A :class:`ColumnPage` stores a batch of tuples as per-attribute columns
— ``int64`` numpy arrays for the thirteen Wisconsin integer attributes,
a constant-value marker for the default non-materialized string
attributes — instead of a list of Python tuples.  The page is a
faithful ``Sequence[Row]``: ``len``, indexing (including negative
indices and slices), and iteration all behave exactly like the
tuple-list it replaces, materializing Python tuples lazily and only
where a consumer actually touches rows.  Scalar values handed out are
always built-in ``int``/``str`` (never numpy scalars), so every
downstream consumer — ``hashing.hash_value``, dict keys, sort
tiebreaks — sees bit-identical values to the tuple-list path.

Slicing returns a zero-copy view (numpy slice views share the parent's
buffers); :meth:`take` gathers arbitrary row subsets.  Pages also carry
a join-key hash-column cache keyed by ``(key_index, level, family)``
— the columnar replacement for the machine-wide id()-keyed
``hashing.KeyHashMemo``, with the advantage that the cache travels
with the data through routing, spooling, and temp files.

``REPRO_COLUMNAR=0`` restores tuple-list fragments end-to-end; the
generator, loader, and storage layers all consult
:func:`columnar_enabled` through a single code path.
"""

from __future__ import annotations

import itertools
import typing

import numpy as np

from repro.flags import env_flag

Row = typing.Tuple
#: numpy arrays are opaque to the type checker (no bundled stubs).
Array = typing.Any


def columnar_enabled() -> bool:
    """Is the columnar relation representation on?  ``REPRO_COLUMNAR``
    defaults to on; ``=0`` restores tuple-list fragments."""
    return env_flag("REPRO_COLUMNAR", True)


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
    """A columnar batch of rows with tuple-list ``Sequence`` semantics.

    Columns come in three kinds:

    * ``numpy.ndarray`` (int64) — integer attributes; the hot kind.
    * :class:`ConstColumn` — every row holds the same value.
    * ``list`` — arbitrary per-row objects (materialized strings,
      exotic test rows); a compatibility fallback, never produced by
      the Wisconsin generator's default configuration.
    """

    __slots__ = ("_n", "_cols", "_hash_cache")

    def __init__(self, n: int, cols: typing.Sequence) -> None:
        self._n = n
        self._cols = tuple(cols)
        #: (key_index, level, family) -> (uint64 ndarray, list[int]).
        self._hash_cache: dict = {}

    # -- construction -------------------------------------------------------

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

    @classmethod
    def from_rows(cls, rows: typing.Sequence[Row],
                  width: int | None = None) -> "ColumnPage":
        """Columnarize a tuple list (tests, conversion fallbacks)."""
        rows = rows if isinstance(rows, list) else list(rows)
        n = len(rows)
        if n == 0:
            return cls(0, tuple([] for _ in range(width or 0)))
        cols = []
        for j in range(len(rows[0])):
            values = [row[j] for row in rows]
            cols.append(_build_column(values))
        return cls(n, tuple(cols))

    @staticmethod
    def concat(pages: typing.Sequence["ColumnPage"]) -> "ColumnPage":
        """Concatenate pages row-wise (multi-file scan sources)."""
        pages = [p for p in pages if len(p)]
        if not pages:
            return ColumnPage(0, ())
        if len(pages) == 1:
            return pages[0]
        first = pages[0]
        n = sum(len(p) for p in pages)
        cols = []
        for j in range(len(first._cols)):
            parts = [p._cols[j] for p in pages]
            if all(isinstance(c, np.ndarray) for c in parts):
                cols.append(np.concatenate(parts))
            elif (all(isinstance(c, ConstColumn) for c in parts)
                  and all(c.value == parts[0].value for c in parts)):
                cols.append(parts[0])
            else:
                merged: list = []
                for page, part in zip(pages, parts):
                    merged.extend(_column_values(part, len(page)))
                cols.append(merged)
        return ColumnPage(n, tuple(cols))

    # -- Sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(self._n)
            if step == 1:
                return self._slice_view(start, stop)
            return self.take(list(range(start, stop, step)))
        i = item
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(f"row {item} out of range for {self._n}")
        return tuple([
            col.item(i) if type(col) is np.ndarray
            else (col.value if type(col) is ConstColumn else col[i])
            for col in self._cols])

    def __iter__(self) -> typing.Iterator[Row]:
        if not self._cols:
            return iter([()] * self._n)
        return zip(*[_column_iter(col, self._n) for col in self._cols])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ColumnPage n={self._n} width={len(self._cols)}>"

    def __eq__(self, other: object) -> bool:
        """Row-value equality, like the tuple list it replaces.

        Pages are consequently unhashable (as lists are); identity
        caches key them by ``id()``.
        """
        if other is self:
            return True
        if isinstance(other, ColumnPage):
            if other._n != self._n or other.width != self.width:
                return False
            for j, (a, b) in enumerate(zip(self._cols, other._cols)):
                if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
                    if not np.array_equal(a, b):
                        return False
                elif (isinstance(a, ConstColumn)
                      and isinstance(b, ConstColumn)):
                    if a.value != b.value:
                        return False
                elif (self.column_values(j) != other.column_values(j)):
                    return False
            return True
        if isinstance(other, (list, tuple)):
            return len(other) == self._n and list(self) == list(other)
        return NotImplemented

    # -- columnar access -----------------------------------------------------

    @property
    def width(self) -> int:
        return len(self._cols)

    def column_array(self, index: int) -> Array | None:
        """The int64 ndarray of column ``index``, or None when the
        column is not an integer array (strings, object columns)."""
        col = self._cols[index]
        return col if isinstance(col, np.ndarray) else None

    def column_values(self, index: int) -> list:
        """Column ``index`` as a list of Python values."""
        return _column_values(self._cols[index], self._n)

    def take(self, indices) -> "ColumnPage":
        """Gather a row subset (``indices``: ndarray or int list)."""
        if isinstance(indices, np.ndarray):
            idx_arr = indices
            idx_list: list | None = None
        else:
            idx_list = list(indices)
            idx_arr = None
        cols = []
        for col in self._cols:
            if isinstance(col, np.ndarray):
                if idx_arr is None:
                    idx_arr = np.asarray(idx_list, dtype=np.intp)
                cols.append(col[idx_arr])
            elif isinstance(col, ConstColumn):
                cols.append(col)
            else:
                if idx_list is None:
                    idx_list = idx_arr.tolist()
                cols.append([col[i] for i in idx_list])
        n = (len(idx_arr) if idx_arr is not None else len(idx_list))
        return ColumnPage(int(n), tuple(cols))

    def sort_order(self, key_index: int) -> Array | None:
        """Row order sorting by ``(row[key_index], row)``, or None when
        a column defies vectorized comparison.

        Matches ``sorted(rows, key=lambda r: (r[key_index], r))``
        exactly: ``np.lexsort`` compares the key column first, then the
        full row left to right.  Constant columns contribute equality
        at their position for every pair, so they are skipped; a plain
        ``list`` column (arbitrary objects) makes the order
        non-vectorizable and returns None.
        """
        primary = self.column_array(key_index)
        if primary is None:
            return None
        keys = []
        for j in range(self.width - 1, -1, -1):
            col = self._cols[j]
            if isinstance(col, np.ndarray):
                keys.append(col)
            elif not isinstance(col, ConstColumn):
                return None
        keys.append(primary)
        return np.lexsort(keys)

    def _slice_view(self, start: int, stop: int) -> "ColumnPage":
        # The hottest page operation (per-packet cuts, scan pages):
        # bypass __init__ and build the column tuple in one pass.
        page = ColumnPage.__new__(ColumnPage)
        page._n = stop - start if stop > start else 0
        page._cols = tuple([
            col if type(col) is ConstColumn else col[start:stop]
            for col in self._cols])
        page._hash_cache = {}
        return page

    # -- join-key hash-column cache ------------------------------------------

    def cached_hashes(self, key_index: int, level: int, family: str
                      ) -> tuple[Array, list] | None:
        """The cached (hash_array, hash_ints) pair, or None."""
        return self._hash_cache.get((key_index, level, family))

    def store_hashes(self, key_index: int, level: int, family: str,
                     hash_array: Array, hash_ints: list) -> None:
        self._hash_cache[(key_index, level, family)] = (hash_array,
                                                        hash_ints)


def _build_column(values: list):
    """Pick the densest faithful representation for one column."""
    if all(type(v) is int for v in values):
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return values
    first = values[0]
    if all(v is first or v == first for v in values):
        return ConstColumn(first)
    return values


def _column_value(col, i: int):
    if isinstance(col, np.ndarray):
        return col.item(i)
    if isinstance(col, ConstColumn):
        return col.value
    return col[i]


def _column_iter(col, n: int):
    if isinstance(col, np.ndarray):
        return iter(col.tolist())
    if isinstance(col, ConstColumn):
        return itertools.repeat(col.value, n)
    return iter(col)


def _column_values(col, n: int) -> list:
    if isinstance(col, np.ndarray):
        return col.tolist()
    if isinstance(col, ConstColumn):
        return [col.value] * n
    return list(col)
