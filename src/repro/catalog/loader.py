"""Bulk loading of relations through a distribution policy.

``load_relation`` is the reproduction's analogue of Gamma's load
utility: it consults the chosen :class:`PartitioningStrategy` once per
tuple and appends the tuple to the selected site's fragment.  A
:class:`~repro.catalog.pages.ColumnPage` input (the Wisconsin
generator's output) is declustered in one vectorized pass instead —
:meth:`~PartitioningStrategy.sites_of` plus a gather per site — and
its fragments stay columnar until a join first reads them.  Loading
is a catalog operation, not a timed query — the paper measures join
response times against already-loaded relations — so no simulated cost
is charged here.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.catalog.pages import ColumnPage
from repro.catalog.partitioning import PartitioningStrategy
from repro.catalog.relation import Relation
from repro.catalog.schema import Schema

Row = typing.Tuple


def load_relation(name: str, schema: Schema, rows: typing.Iterable[Row],
                  strategy: PartitioningStrategy,
                  num_sites: int,
                  validate: bool = False) -> Relation:
    """Distribute ``rows`` across ``num_sites`` disk sites.

    Parameters
    ----------
    name, schema:
        Catalog identity of the new relation.
    rows:
        The tuples to load, in load order (round-robin placement is
        order-sensitive, exactly as in Gamma).
    strategy:
        One of the four distribution policies of §2.2.
    num_sites:
        Number of disk sites (``machine.num_disk_nodes``).
    validate:
        When true, every row is structurally checked against the
        schema first (useful in tests; off by default for speed).

    Returns
    -------
    Relation
        With one fragment per site; fragment ``i`` belongs on disk
        node ``i``.
    """
    if num_sites < 1:
        raise ValueError(f"num_sites must be >= 1, got {num_sites}")
    materialized: typing.Sequence[Row]
    if isinstance(rows, ColumnPage):
        materialized = rows
    else:
        materialized = list(rows)
    if validate:
        for row in materialized:
            schema.validate_row(row)
    strategy.begin_load(schema, materialized, num_sites)
    if isinstance(materialized, ColumnPage):
        sites = strategy.sites_of(materialized, schema, num_sites)
        if sites is not None:
            if len(sites) and not (0 <= int(sites.min())
                                   and int(sites.max()) < num_sites):
                bad = int(sites.min()) if int(sites.min()) < 0 \
                    else int(sites.max())
                raise ValueError(
                    f"strategy {strategy.describe()} placed a tuple on "
                    f"site {bad}, outside [0, {num_sites})")
            page_fragments = [
                materialized.take(np.flatnonzero(sites == site))
                for site in range(num_sites)]
            return Relation(name, schema, page_fragments,
                            partitioning=strategy)
    fragments: list[list[Row]] = [[] for _ in range(num_sites)]
    for row in materialized:
        site = strategy.site_of(row, schema, num_sites)
        if not 0 <= site < num_sites:
            raise ValueError(
                f"strategy {strategy.describe()} placed a tuple on site "
                f"{site}, outside [0, {num_sites})")
        fragments[site].append(row)
    return Relation(name, schema, fragments, partitioning=strategy)
