"""Input-row sampling: the seedless, engine-reproducible form of the
reference's Bernoulli ``FileSampler`` (M14). One stateless filter per
batch, so it streams like the readers beside it."""

from __future__ import annotations

import hashlib

import pyarrow as pa


def hash_sample(ds, key: str = "doc_id", fraction_hex: str = "4"):
    """Bernoulli-style sample keeping rows whose md5(key) starts below
    ``fraction_hex`` (e.g. '4' keeps ~25%). Deterministic and identical
    in SQL: md5(cast(key as varchar)) < '4'. Replaces the reference's
    ``Random.nextDouble < f`` (``FileSampler.scala:52-54``)."""
    def body(batch: pa.Table) -> pa.Table:
        vals = batch[key].to_pylist()
        mask = [
            hashlib.md5(str(v).encode()).hexdigest() < fraction_hex
            for v in vals
        ]
        return batch.filter(pa.array(mask, pa.bool_()))

    return ds.map_batches(body, batch_format="pyarrow")
