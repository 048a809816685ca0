"""The one hash exchange behind the package's keyed wide steps.

A keyed wide step is one MapReduce shape: hash the rows on a key, then
reduce each key whole.  ``exchange(ds, key, fn)`` is that shape,
written once.  Rows hash on ``key`` (one column or several) into P
partitions, a Ray sort on the partition id with the P-1 boundaries
1..P-1 moves them into one block per partition, and ``fn`` runs once
per PARTITION on a table that holds every row of each of its keys.
One Python call per partition, not one Ray group slice and one tiny
output table per key: per-key ``map_groups`` on the G1
reduce was the dominant cost at 13k keys, and at 10^9 distinct args
(UnlinkableEntityTyper scale) it is the known cliff.

P is 4 x the cluster's CPUs, read once on the driver when the plan is
built and captured in the map closure, so every map task of one
exchange agrees.  Results are independent of P (every row of a key
lands in one partition, and the per-key logic inside is exact); P sets
only the reduce-task granularity.  The boundaries are explicit: a
sort that samples them makes one output per INPUT block, so with more
input blocks than partition ids the extra outputs are empty, and Ray
passes an empty block through the next map without calling it, with
no schema (Ray's "RefBundle with a different schema" warning, and a
missing column for code that reads every block).  With explicit
boundaries only a partition that receives no rows is empty.

``partition_map_groups`` is the per-key adapter: a drop-in for
``ds.groupby(key).map_groups(fn)`` that sorts each partition once and
hands ``fn`` one key's rows per call (in arbitrary intra-key order,
the same contract as ``map_groups``).
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_PART = "__exchange_part"


def partition_count() -> int:
    """P for one exchange: 4 x the cluster's CPUs.  Before Ray is
    initialized the host's CPUs, which Ray Data's auto-init will
    use."""
    import ray

    cpus = (ray.cluster_resources().get("CPU", 0) if ray.is_initialized()
            else os.cpu_count())
    return 4 * max(1, int(cpus or 1))


def exchange(ds, key: str | Sequence[str],
             fn: Callable[[pa.Table], pa.Table]):
    """Hash-partition ``ds`` on ``key`` and apply ``fn`` to each whole
    partition (without the partition column).  The hash is
    ``pd.util.hash_pandas_object`` over the key columns in their
    native dtype: siphash with a fixed key, identical on every
    worker."""
    import pandas as pd

    cols = [key] if isinstance(key, str) else list(key)
    n = np.uint64(partition_count())

    def tag(b: pa.Table) -> pa.Table:
        h = pd.util.hash_pandas_object(b.select(cols).to_pandas(),
                                       index=False).to_numpy()
        return b.append_column(_PART, pa.array((h % n).astype(np.int64)))

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .sort(_PART, boundaries=list(range(1, int(n))))
        .map_batches(lambda g: fn(g.drop_columns([_PART])),
                     batch_format="pyarrow", batch_size=None)
    )


def apply_per_key(g: pa.Table, key: str,
                  fn: Callable[[pa.Table], pa.Table]) -> pa.Table:
    """One partition: sort by ``key``, slice each key run, apply fn."""
    if g.num_rows == 0:
        return fn(g)
    idx = pc.sort_indices(g, sort_keys=[(key, "ascending")])
    g = g.take(idx)
    vals = g[key].to_numpy(zero_copy_only=False)
    starts = np.concatenate(
        [[0], np.flatnonzero(vals[1:] != vals[:-1]) + 1, [len(vals)]]
    )
    outs = [
        fn(g.slice(int(s), int(e - s)))
        for s, e in zip(starts[:-1], starts[1:])
    ]
    outs = [t for t in outs if t.num_rows] or outs[:1]
    return pa.concat_tables(outs, promote_options="default")


def partition_map_groups(ds, key: str,
                         fn: Callable[[pa.Table], pa.Table]):
    """Drop-in for ``ds.groupby(key).map_groups(fn)``: ``fn`` per key,
    one exchange call per partition."""
    return exchange(ds, key, lambda g: apply_per_key(g, key, fn))
