"""Grouper (SURVEY.md G1/G2): keyed extractions -> ExtractionGroups.

The reference is a Hadoop groupByKey on the normalized-triple key with
reducer-side caps (truncate each group to 40k instances, drop >500k;
``hadoop/.../ScoobiReVerbGrouper.scala:63-111``). Here it is:

1. a map-side **combiner** (``combine_rows``): fold each upstream batch
   into one partial-group row per key before the shuffle — the decisive
   scale lever; a pathological head key ("obama"/"be") arrives at its
   reducer pre-capped per batch, subsuming explicit key salting (each
   upstream batch acts as a salt bucket). The reference's
   arbitrary-order ``take(40000)`` cap makes this semantically
   equivalent to its combinerless groupByKey. The fused extract actors
   (ReVerb and OpenIE4) call it on their Python rows; ``combine_batch``
   feeds it a keyed Arrow table. The Arrow combiner runs PER BLOCK
   (batch_size=None): a fixed large batch_size (32k) made Ray bundle
   blocks until the whole stage ran as 4 tasks — map parallelism
   died; a small one (4k) left 3x more partial rows in the shuffle and
   tripled its wall time. Per-block combining keeps the task count
   equal to the block count while combining as widely as the block
   allows.
2. ONE ``ops.partition.exchange`` of the partials on ``key``, whose
   reducer (``merge_blob_groups``) merges a whole partition of keys
   per call.

Through the shuffle, nested instance lists travel as pickled binary
blobs: the per-group merge is then list-concat + cap (no per-group
Arrow nested-struct casting, which profiling showed dominates wall
time). One conversion, ``groups_table``, turns unpickled blobs into
the Arrow ``GROUPS`` schema once per batch, for the unlinked tail
(``finalize_groups``) and the linker alike, and applies the G3
instance dedup on the way when asked.
"""

from __future__ import annotations

import pickle

import pyarrow as pa

from openie_backend_ray import schema as S

MAX_GROUP_INSTANCES = 40_000  # ScoobiReVerbGrouper max_group_size (:110)
MAX_RAW_GROUP = 500_000       # MAX_GROUP_SIZE drop threshold (:38,90)

_INSTANCE_COLS = [
    "tokens", "postags", "chunks", "arg1", "rel", "arg2",
    "source_url", "corpus", "confidence",
]

# partial/merged group rows with pickled instances (pre-finalize)
BLOB_GROUPS = pa.schema(
    [
        ("key", pa.string()),
        ("arg1_norm", pa.string()),
        ("rel_norm", pa.string()),
        ("arg2_norm", pa.string()),
        ("instances_blob", pa.binary()),
        ("size", pa.int32()),
        # RAW (pre-dedup, pre-cap) instance count for the key: summed
        # through merges so the reducer can apply the reference's
        # >500k-raw-instances DROP (ScoobiReVerbGrouper.scala:38,90)
        # even though per-block combining means it only ever sees a
        # handful of partial rows per key.
        ("raw_count", pa.int64()),
    ]
)


# BLOB-INTERNAL INSTANCE LAYOUT: between the combiner and
# finalize/link, an instance's ``tokens``/``postags``/``chunks`` are
# single SPACE-JOINED STRINGS, not lists.  A 20-token instance
# pickles as 3 string objects instead of ~60, which is the difference
# between a 12.5 s and a ~2 s hot-key reduce task at sf0.1 (the
# unpickle of a 126k-instance head key dominated the G1 reduce), and
# the dedup sort/sig keys need no per-instance join.  Tokens are
# whitespace-split upstream so join+split is lossless.
# ``_inst_unpack`` restores the list form for the GROUPS schema.


def _inst_pack(inst: dict) -> dict:
    """List-form instance -> blob-internal joined-string form."""
    out = dict(inst)
    for f in ("tokens", "postags", "chunks"):
        v = out[f]
        if not isinstance(v, str):
            out[f] = " ".join(v)
    return out


def _inst_unpack(inst: dict) -> dict:
    """Blob-internal instance -> GROUPS-schema list form (fresh dict;
    blob instances may be shared memo templates upstream)."""
    out = dict(inst)
    for f in ("tokens", "postags", "chunks"):
        v = out[f]
        if isinstance(v, str):
            out[f] = v.split(" ") if v else []
    return out


def _inst_sort_key(x: dict):
    # full tiebreak down to corpus/url: instances that tie on every
    # ranking field must still order deterministically, or which of two
    # equal-sig duplicates survives dedup would depend on the partition
    # layout (hypothesis-found class of bug, see canonicalize.canon_order)
    t = x["tokens"]
    return (-x["confidence"], t if isinstance(t, str) else " ".join(t),
            x["arg1"]["start"], x["rel"]["start"], x["arg2"]["start"],
            x["arg1"]["end"], x["rel"]["end"], x["arg2"]["end"],
            x["corpus"], x["source_url"])


def _inst_sig(inst: dict):
    t = inst["tokens"]
    return (
        t if isinstance(t, str) else " ".join(t), inst["corpus"],
        inst["arg1"]["start"], inst["arg1"]["end"],
        inst["rel"]["start"], inst["rel"]["end"],
        inst["arg2"]["start"], inst["arg2"]["end"],
    )


def _dedup_cap(insts: list[dict]) -> list[dict]:
    """Set semantics (ExtractionGroup.scala:45) + deterministic order
    (confidence desc, then text) + the 40k cap.  Dedup-FIRST (per-sig
    best by the sort key), then sort only the survivors — identical
    output to sort-then-dedup-then-cap, but the sort never sees
    duplicate copies (dup-heavy corpora are the common case)."""
    best: dict = {}
    for inst in insts:
        sk = _inst_sort_key(inst)
        sig = _inst_sig(inst)
        cur = best.get(sig)
        if cur is None or sk < cur[0]:
            best[sig] = (sk, inst)
    ordered = sorted(best.values(), key=lambda p: p[0])
    return [inst for _, inst in ordered[:MAX_GROUP_INSTANCES]]


def combine_batch(batch: pa.Table) -> pa.Table:
    """Map-side combiner over a keyed extraction table: its Arrow
    columns become ``combine_rows`` rows, weighted by the optional
    ``weight`` column (else 1)."""
    if batch.num_rows == 0:
        return BLOB_GROUPS.empty_table()
    import pyarrow.compute as pc

    # one zip pass builds every instance dict (3x faster than per-cell
    # column indexing, profiled on the fixture corpus); the three
    # token-layer list columns join to the blob-internal string form
    # with the vectorized binary_join kernel
    def col(c):
        if c in ("tokens", "postags", "chunks"):
            return pc.binary_join(batch[c], " ").to_pylist()
        return batch[c].to_pylist()

    insts = (dict(zip(_INSTANCE_COLS, vals))
             for vals in zip(*(col(c) for c in _INSTANCE_COLS)))
    norms = zip(*(batch[c].to_pylist()
                  for c in ("arg1_norm", "rel_norm", "arg2_norm")))
    wts = (batch["weight"].to_pylist()
           if "weight" in batch.column_names else [1] * batch.num_rows)
    return combine_rows(list(zip(batch["key"].to_pylist(), norms, insts,
                                 wts)))


def combine_rows(rows) -> pa.Table:
    """Map-side combiner: one partial-group row per key over Python
    ``(key, (a1n, rl, a2n), packed_inst[, weight])`` rows, built by the
    fused extract actors directly and by ``combine_batch`` from Arrow.
    ``weight`` (default 1) is the OCCURRENCE COUNT of the instance's
    sentence: the unique-sentence front-end extracts each distinct
    sentence once and carries how many times it occurred, so
    ``raw_count`` (the reference's pre-dedup instance count, which
    drives the >500k drop) sums weights and stays exactly equal to the
    per-occurrence pipeline's count."""
    by_key: dict[str, list[int]] = {}
    for i, row in enumerate(rows):
        by_key.setdefault(row[0], []).append(i)
    out = {c: [] for c in BLOB_GROUPS.names}
    for k, idxs in by_key.items():
        # no arrival-order pre-truncation: _dedup_cap conf-sorts THEN
        # caps, so a top-confidence instance past position 40k in a
        # mega-key batch still wins — the semantics the hash oracle
        # (fixtures/oracles.py g1: ordered rn <= 40000 AFTER the
        # dedup window) verifies
        insts = _dedup_cap([rows[i][2] for i in idxs])
        norms = rows[idxs[0]][1]
        out["key"].append(k)
        out["arg1_norm"].append(norms[0])
        out["rel_norm"].append(norms[1])
        out["arg2_norm"].append(norms[2])
        out["instances_blob"].append(pickle.dumps(insts, protocol=4))
        out["size"].append(len(insts))
        out["raw_count"].append(sum(
            (rows[i][3] if len(rows[i]) > 3 else 1) for i in idxs
        ))
    return pa.Table.from_pydict(out, schema=BLOB_GROUPS)


def merge_blob_groups(g: pa.Table, group_cols: tuple[str, ...] = ("key",),
                      drop: bool = True) -> pa.Table:
    """Reduce side: merge partial rows into one row per distinct
    ``group_cols`` value, a whole hash partition of keys in one Python
    call (one call per partition, not one Ray group slice and one 1-row
    table per key: 13k keys cost a measured 13 s reducer wall at sf0.1
    as per-key ``map_groups``). A key's single partial row passes
    through; several are concatenated (cheap: blobs only) and
    deduplicated + capped.

    ``drop=True`` (the FINAL merge) applies the reference's raw-size
    drop: a key whose summed raw instance count exceeds 500k is
    discarded outright, not truncated (ScoobiReVerbGrouper.scala:38,90).
    Intermediate merges (the salted phase 1) pass ``drop=False`` so the
    raw count keeps accumulating to the final reducer — dropping a
    slice early would hide its count from the total."""
    cols = {c: g[c].to_pylist() for c in BLOB_GROUPS.names}
    extra = [g[c].to_pylist() for c in group_cols if c != "key"]
    by: dict = {}
    gk = (list(zip(cols["key"], *extra)) if extra else cols["key"])
    for i, kt in enumerate(gk):
        by.setdefault(kt, []).append(i)
    out = {c: [] for c in BLOB_GROUPS.names}
    for idxs in by.values():
        raw = sum(cols["raw_count"][i] for i in idxs)
        if drop and raw > MAX_RAW_GROUP:
            continue
        i0 = idxs[0]
        if len(idxs) == 1:
            blob, size = cols["instances_blob"][i0], cols["size"][i0]
        else:
            insts: list[dict] = []
            for i in idxs:
                insts.extend(pickle.loads(cols["instances_blob"][i]))
            insts = _dedup_cap(insts)
            blob, size = pickle.dumps(insts, protocol=4), len(insts)
        out["key"].append(cols["key"][i0])
        out["arg1_norm"].append(cols["arg1_norm"][i0])
        out["rel_norm"].append(cols["rel_norm"][i0])
        out["arg2_norm"].append(cols["arg2_norm"][i0])
        out["instances_blob"].append(blob)
        out["size"].append(size)
        out["raw_count"].append(raw)
    return pa.Table.from_pydict(out, schema=BLOB_GROUPS)


def merge_blob_shuffle(partial):
    """The G1 reduce: ``ops.partition.exchange`` of the partial rows on
    ``key``, each partition's keys merged in one ``merge_blob_groups``
    call.  Key skew stays bounded because the rows entering the
    exchange are already per-block combiner partials (a hot key
    contributes at most one capped row per upstream block)."""
    from openie_backend_ray.ops.partition import exchange

    return exchange(partial, "key", merge_blob_groups)


def groups_table(batch: pa.Table, inst_lists: list[list[dict]],
                 arg1_entity: list, arg2_entity: list,
                 arg1_types: list, arg2_types: list,
                 dedup: bool = False) -> pa.Table:
    """Blob group rows -> Arrow GROUPS rows (one nested conversion per
    batch), shared by ``finalize_groups`` and the linker.
    ``inst_lists`` holds each row's unpickled blob (packed instances);
    the entity/type columns are None/[] for unlinked rows. ``dedup``
    applies the G3 instance dedup (``postprocess.dedup_instances``) to
    the unpacked lists, so ``size`` and ``corpora`` count the kept
    instances: the same rows as ``postprocess.dedup_groups_batch``
    over this table, without a second pass through Arrow."""
    insts = [[_inst_unpack(i) for i in x] for x in inst_lists]
    if dedup:
        from openie_backend_ray.stages.postprocess import dedup_instances

        insts = [dedup_instances(x) for x in insts]
    return pa.Table.from_pydict(
        {
            "arg1_norm": batch["arg1_norm"].to_pylist(),
            "rel_norm": batch["rel_norm"].to_pylist(),
            "arg2_norm": batch["arg2_norm"].to_pylist(),
            "arg1_entity": arg1_entity,
            "arg2_entity": arg2_entity,
            "arg1_types": arg1_types,
            "arg2_types": arg2_types,
            "instances": insts,
            "size": [len(x) for x in insts],
            "corpora": [sorted({i["corpus"] for i in x}) for x in insts],
        },
        schema=S.GROUPS,
    )


def finalize_groups(batch: pa.Table, dedup: bool = False) -> pa.Table:
    """Blob rows -> unlinked Arrow GROUPS rows (G3-deduped when
    ``dedup``)."""
    n = batch.num_rows
    inst_lists = [pickle.loads(b) for b in batch["instances_blob"].to_pylist()]
    return groups_table(batch, inst_lists, [None] * n, [None] * n,
                        [[]] * n, [[]] * n, dedup=dedup)


def group_extractions(keyed_ds, finalize: bool = True):
    """keyed extraction Dataset -> groups Dataset (G1): combiner ->
    single shuffle -> (optionally) finalize to the Arrow GROUPS schema.

    ``finalize=False`` keeps the blob representation for downstream
    per-group stages (linker G3/G4) that would otherwise re-convert."""
    partial = keyed_ds.map_batches(
        combine_batch, batch_format="pyarrow", batch_size=None
    )
    merged = merge_blob_shuffle(partial)
    if finalize:
        return merged.map_batches(finalize_groups, batch_format="pyarrow")
    return merged


def group_extractions_salted(
    keyed_ds,
    salt_buckets: int = 16,
    finalize: bool = True,
):
    """G1 with EXPLICIT key salting (north-rule requirement for
    head-entity skew): two exchanges —

    1. on ``(key, salt)`` where ``salt = md5(sentence) %
       salt_buckets``: a head key ("obama"/"be") splits across
       ``salt_buckets`` reducers, each merging + capping its slice;
    2. on ``key`` over the per-salt partials (at most
       ``salt_buckets`` rows per key) for the final merge.

    Output is identical to ``group_extractions`` (same caps, same
    deterministic instance order) — verified by test; the salted form
    bounds the largest reduce task at ~1/salt_buckets of the hottest
    key instead of the whole key."""
    import hashlib

    def add_salt(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("salt", pa.array([], pa.int32()))
        salts = [
            int(hashlib.md5(b).hexdigest()[:8], 16) % salt_buckets
            for b in batch["instances_blob"].to_pylist()
        ]
        return batch.append_column("salt", pa.array(salts, pa.int32()))

    partial = keyed_ds.map_batches(
        combine_batch, batch_format="pyarrow", batch_size=None
    )
    salted = partial.map_batches(add_salt, batch_format="pyarrow")
    # phase-1 partitions on (key, salt) — the salt MUST reach the
    # partition hash or a hot key still lands on one reducer
    from openie_backend_ray.ops.partition import exchange

    phase1 = exchange(
        salted, ("key", "salt"),
        lambda g: merge_blob_groups(g, group_cols=("key", "salt"),
                                    drop=False),
    )
    merged = merge_blob_shuffle(phase1)
    if finalize:
        return merged.map_batches(finalize_groups, batch_format="pyarrow")
    return merged
