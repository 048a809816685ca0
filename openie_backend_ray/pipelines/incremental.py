"""Incremental ingestion (SURVEY.md S7/G11): delta pipeline.

The reference's news ingester diffs new files against what HDFS already
has, converts, and point-updates the Lucene indexes group-by-group
(``hadoop/.../lucene/Ingester.scala:45-121``; merge-update-else-add
``ParallelIndexModifier.scala:33-77``; relink heuristic
``IndexModifier.scala:89-97``). Our shape replaces point updates with a
shuffle-merge over the partitioned triples table:

1. **delta detect** (J6): anti-join incoming doc_ids against the
   lineage table of already-ingested doc_ids (broadcast set probe —
   the lineage table is ids only);
2. run the NORMAL flagship stages over the delta documents only;
3. **merge** (G11): union(existing groups, delta groups) ->
   ``regroup`` (G2's key + merge) -> rewrite the triples partitions.
4. **relink** (IndexModifier.scala:89-97): merged groups the delta
   actually touched re-enter the linker iff their new size is in the
   reference's sweet spot ``size > 1 && (size < 5 || size % 2 == 0)``
   — small-but-not-singleton groups, plus even-sized ones as they
   grow; untouched groups keep their existing links.  "Touched" is
   PROVENANCE carried through the merge shuffle itself (each input
   group is flagged ``from_delta`` and the reducer ORs the flags), so
   no delta-key set is ever collected on the driver; the relink tag
   is then one vectorized filter.  The relink keys are returned so
   the caller can record them in the shard's lineage manifest — that
   list is the only driver-side collection and is bounded by the
   ingest batch.
"""

from __future__ import annotations

import pyarrow as pa

from openie_backend_ray.functions.normalize import key_string


def anti_join_new_docs(docs_ds, ingested_ids_ref):
    """Keep only documents whose doc_id is NOT in the broadcast lineage
    set (J6): one stateless ``is_in`` filter per batch, which resolves
    the set ref inside the task, so no actor pool holds a CPU.  At
    100 TB the lineage shards by hash(doc_id); semantics identical."""
    def keep_new(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        import ray

        ids = pa.array(list(ray.get(ingested_ids_ref)), batch["doc_id"].type)
        return batch.filter(
            pc.invert(pc.is_in(batch["doc_id"], value_set=ids))
        )

    return docs_ds.map_batches(keep_new, batch_format="pyarrow")


def relink_mask(sizes):
    """The reference's relink sweet spot (IndexModifier.scala:89-97),
    vectorized over a numpy int array — the ONE definition; the scalar
    ``needs_relink`` and the pipeline's tag() both derive from it."""
    import numpy as np

    sizes = np.asarray(sizes)
    return (sizes > 1) & ((sizes < 5) | (sizes % 2 == 0))


def needs_relink(size: int) -> bool:
    return bool(relink_mask([size])[0])


def _groups_to_blobs(batch: pa.Table) -> pa.Table:
    """GROUPS rows -> the grouper's blob representation so they can
    re-enter the linker (``linker.link_groups``)."""
    import pickle

    from openie_backend_ray.stages.grouper import BLOB_GROUPS, _inst_pack

    a1 = batch["arg1_norm"].to_pylist()
    rl = batch["rel_norm"].to_pylist()
    a2 = batch["arg2_norm"].to_pylist()
    insts = batch["instances"].to_pylist()
    sizes = batch["size"].to_pylist()
    return pa.Table.from_pydict(
        {
            "key": [key_string(k) for k in zip(a1, rl, a2)],
            "arg1_norm": a1,
            "rel_norm": rl,
            "arg2_norm": a2,
            "instances_blob": [
                pickle.dumps([_inst_pack(i) for i in x], protocol=4)
                for x in insts
            ],
            "size": sizes,
            "raw_count": [int(s) for s in sizes],
        },
        schema=BLOB_GROUPS,
    )


def _flag_origin(from_delta: bool):
    def flag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "from_delta",
            pa.array([from_delta] * batch.num_rows, pa.bool_()),
        )

    return flag


def _regroup_touched(tagged_ds, max_instances: int = 40_000):
    """``postgroup.regroup`` (G2) that also carries delta provenance
    THROUGH the merge shuffle: every input group arrives flagged
    ``from_delta`` and each merged output reports ``touched`` = OR of
    its members' flags.  This replaces the old driver-side delta-key
    set (a ``take_all`` over every delta group key) with zero extra
    passes — the information rides the shuffle the merge already pays
    for (cf. ``ParallelIndexModifier.scala:33-77``, where the merge
    reducer likewise knows which documents are new)."""
    from openie_backend_ray import schema as S
    from openie_backend_ray.stages.postgroup import (
        merge_group_rows,
        regroup_add_key,
    )

    def merge(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        touched = bool(pc.any(g["from_delta"]).as_py())
        row = merge_group_rows(
            g.drop_columns(["rkey", "from_delta"]), max_instances
        )
        t = pa.Table.from_pydict(
            {k: [row[k]] for k in row}, schema=S.GROUPS
        )
        return t.append_column("touched", pa.array([touched], pa.bool_()))

    from openie_backend_ray.ops.partition import partition_map_groups

    return partition_map_groups(
        tagged_ds.map_batches(regroup_add_key, batch_format="pyarrow"),
        "rkey", merge,
    )


def drop_near_dup_deltas(delta_docs_ds, store_fingerprints_ds,
                         min_shared: int = 1):
    """Content-level delta dedup against the store's PRECOMPUTED
    winnowed-fingerprint table (``ops.dedup
    .materialize_store_fingerprints``): delta docs sharing >=
    ``min_shared`` fingerprints with the store are dropped before
    extraction. The flagged-id collection is bounded by the ingest
    batch (flagged ids are a subset of the delta), the same budget as
    ``relink_keys`` — the store side itself streams through the
    fp-partitioned co-group and is never collected."""
    import ray

    from openie_backend_ray.ops.dedup import delta_dedup

    flagged = delta_dedup(
        delta_docs_ds, store_fingerprints_ds, store_is_fingerprints=True
    )
    ids = {
        r["doc_id"]
        for r in flagged.filter(
            expr=f"n_shared >= {int(min_shared)}"
        ).select_columns(["doc_id"]).take_all()
    }
    return anti_join_new_docs(delta_docs_ds, ray.put(ids))


def incremental_update(
    existing_groups_ds,
    incoming_docs_ds,
    ingested_ids_ref,
    lexicon_ref=None,
    side_tables_ref=None,
    corpus: str = "news",
    store_fingerprints_ds=None,
):
    """existing triples + incoming docs -> merged triples (G11).

    Returns (merged_groups_ds, delta_docs_ds, relink_keys). The caller
    persists the merged table (checkpoint.run_shard), appends the delta
    doc_ids to the lineage table, and records ``relink_keys`` in the
    shard manifest.  ``relink_keys`` is the only driver-side collection
    (bounded by the ingest batch).

    ``store_fingerprints_ds``: the store's precomputed winnowed
    fingerprints (``materialize_store_fingerprints`` output, read back
    with ``ray.data.read_parquet``); when given, near-duplicate delta
    docs are dropped at content level before extraction."""
    from openie_backend_ray.pipelines.flagship import run_flagship

    delta_docs = anti_join_new_docs(incoming_docs_ds, ingested_ids_ref)
    if store_fingerprints_ds is not None:
        delta_docs = drop_near_dup_deltas(delta_docs, store_fingerprints_ds)
    delta_groups = run_flagship(
        delta_docs,
        lexicon_ref=lexicon_ref,
        side_tables_ref=side_tables_ref,
        corpus=corpus,
    )
    tagged_in = existing_groups_ds.map_batches(
        _flag_origin(False), batch_format="pyarrow"
    ).union(
        delta_groups.map_batches(_flag_origin(True), batch_format="pyarrow")
    )
    merged = _regroup_touched(tagged_in)
    if side_tables_ref is None:
        return (
            merged.drop_columns(["touched"]),
            delta_docs,
            [],
        )

    # relink iff the delta touched the merged group AND its new size is
    # in the sweet spot — one vectorized filter over the merge output.
    # merged is materialized once so the keep / relink splits don't
    # re-execute the merge (at 100 TB: write the merged partitions
    # first — checkpoint.run_shard — and read twice).
    merged = merged.materialize()

    def tag(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sweet = pa.array(
            relink_mask(batch["size"].to_numpy(zero_copy_only=False)),
            pa.bool_(),
        )
        flags = pc.and_(batch["touched"], sweet)
        return batch.drop_columns(["touched"]).append_column(
            "relink", flags
        )

    tagged = merged.map_batches(tag, batch_format="pyarrow")
    keep = tagged.filter(expr="relink == False").drop_columns(["relink"])
    relink = tagged.filter(expr="relink == True").drop_columns(["relink"])
    relink_keys = sorted(
        key_string((r["arg1_norm"], r["rel_norm"], r["arg2_norm"]))
        for r in relink.select_columns(
            ["arg1_norm", "rel_norm", "arg2_norm"]
        ).take_all()
    )
    from openie_backend_ray.stages.linker import link_groups

    relinked = link_groups(
        relink.map_batches(_groups_to_blobs, batch_format="pyarrow"),
        side_tables_ref,
    )
    return keep.union(relinked), delta_docs, relink_keys
