"""Composed corpus-cleaning pipeline (the canonical training-data
prep): exact dedup -> minhash-LSH + n-gram-Jaccard near-dup removal ->
quality gate, as ONE Dataset pipeline with an exact SQL oracle.

Shape at scale:
- only LOSER IDs (duplicate ids to drop) matter downstream: exact
  losers are the non-min ids within identical-text groups, near losers
  the doc_b of each verified near-dup pair.
- **small loser set** (<= ``loser_broadcast_cap``): collected once,
  broadcast (``ray.put``), one vectorized ``pc.is_in`` filter pass.
- **large loser set** (web-corpus dup rates run 30-50%, i.e.
  O(corpus)): NEVER collected — the losers stay a Dataset and drop
  via a side-tagged LEFT-ANTI co-group on hash(doc_id) partitions
  (the same partition pattern as the Jaccard verify), so no process
  and especially not the driver ever holds the loser list.
- survivors then stream through the vectorized quality gate; nothing
  rematerializes the corpus and nothing driver-side is O(corpus).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def exact_dup_losers(ds):
    """(doc_id) of every document whose text equals an earlier (lower
    doc_id) document — the complement of ``dedup.exact_dedup``."""
    from openie_backend_ray.ops.dedup import add_text_md5

    hashed = ds.map_batches(add_text_md5, batch_format="pyarrow")

    def losers(g: pa.Table) -> pa.Table:
        ids = g["doc_id"]
        keep = pc.not_equal(ids, pc.min(ids))
        return pa.table({"doc_id": ids.filter(keep)})

    from openie_backend_ray.ops.partition import partition_map_groups

    return partition_map_groups(hashed, "text_md5", losers)


def _anti_join_losers(ds, losers_ds):
    """LEFT-ANTI co-group: drop every ``ds`` row whose doc_id appears
    in ``losers_ds`` — side-tagged union, hash(doc_id) partitions, one
    vectorized pandas pass per partition.  Nothing is collected."""
    from openie_backend_ray.ops.partition import exchange

    def tag_docs(b: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": b["doc_id"], "text": b["text"],
             "side": pa.array([0] * b.num_rows, pa.int8())}
        )

    def tag_losers(b: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": b["doc_id"],
             "text": pa.nulls(b.num_rows, pa.string()),
             "side": pa.array([1] * b.num_rows, pa.int8())}
        )

    def keep_part(g: pa.Table) -> pa.Table:
        import numpy as np

        ids = g["doc_id"].to_numpy(zero_copy_only=False)
        side = g["side"].to_numpy(zero_copy_only=False)
        loser_ids = np.unique(ids[side == 1])
        keep = (side == 0) & ~np.isin(ids, loser_ids)
        kept = g.filter(pa.array(keep))
        return pa.table({"doc_id": kept["doc_id"], "text": kept["text"]})

    tagged = ds.map_batches(tag_docs, batch_format="pyarrow").union(
        losers_ds.map_batches(tag_losers, batch_format="pyarrow"))
    return exchange(tagged, "doc_id", keep_part)


def clean_corpus(ds, jaccard_threshold: float = 0.5,
                 loser_broadcast_cap: int = 5_000_000):
    """documents -> (doc_id, n_tokens) of surviving clean docs.

    Drop rules (in order):
    1. exact duplicate text (keep min doc_id);
    2. near-duplicate by minhash-LSH candidates verified with k-shingle
       Jaccard >= threshold (keep the smaller doc_id of each pair);
    3. quality gate: 10 <= n_tokens <= 10000 and stopword_ratio <= 0.5.

    Loser-id plumbing picks by size (module docstring): broadcast +
    ``pc.is_in`` under ``loser_broadcast_cap``, LEFT-ANTI co-group
    above it — same output either way (regression-tested with cap=0).
    """
    import ray

    from openie_backend_ray.ops.dedup import ngram_jaccard_pairs
    from openie_backend_ray.ops.textstats import quality_score
    from openie_backend_ray.util import auto_pool

    near_losers = ngram_jaccard_pairs(
        ds, threshold=jaccard_threshold
    ).map_batches(
        lambda b: pa.table({"doc_id": b["doc_b"]}),
        batch_format="pyarrow",
    )
    losers_ds = exact_dup_losers(ds).union(near_losers).materialize()

    if losers_ds.count() > loser_broadcast_cap:
        survivors = _anti_join_losers(ds, losers_ds)
    else:
        losers: set = set()
        for b in losers_ds.iter_batches(batch_format="pyarrow"):
            losers.update(b["doc_id"].to_pylist())
        losers_ref = ray.put(pa.array(sorted(losers), pa.int64()))

        class DropLosers:
            def __init__(self, losers_ref=None, losers=None):
                if losers is None and losers_ref is not None:
                    losers = ray.get(losers_ref)
                if not isinstance(losers, pa.Array):
                    losers = pa.array(sorted(losers), pa.int64())
                # Arrow array once per actor; per-batch membership is a
                # vectorized pc.is_in, not a per-row Python set probe
                self.losers = losers

            def __call__(self, batch: pa.Table) -> pa.Table:
                mask = pc.invert(
                    pc.is_in(batch["doc_id"], value_set=self.losers)
                )
                return batch.filter(mask)

        survivors = ds.map_batches(
            DropLosers,
            fn_constructor_kwargs={"losers_ref": losers_ref},
            batch_format="pyarrow",
            concurrency=auto_pool(0.25),
        )
    scored = quality_score(survivors)

    def keep_and_project(b: pa.Table) -> pa.Table:
        kept = b.filter(b["keep"].combine_chunks()
                        if isinstance(b["keep"], pa.ChunkedArray)
                        else b["keep"])
        return pa.table({"doc_id": kept["doc_id"],
                         "n_tokens": kept["n_tokens"]})

    return scored.map_batches(keep_and_project, batch_format="pyarrow")
