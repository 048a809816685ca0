"""ReVerb extraction stage (SURVEY.md M2/A2) + key assignment (M5) and
confidence (M6) fused into one flat-map ``map_batches`` body.

The reference runs these as three separate Hadoop jobs (extract ->
group-key -> conf); under Ray Data's streaming executor they fuse into
one pass over the chunked-sentence stream, avoiding two materialized
text checkpoints (``hadoop/.../ScoobiReVerb.scala:62-107``,
``ScoobiReVerbGrouper.scala:40-61``, ``ScoobiGroupReGrouper.scala:103``).
One input sentence row yields 0..k extraction rows. Per-record failures
drop the record (reference behavior: try/catch per line) — with pure
Python extraction the only failure mode is malformed layers, checked
explicitly."""

from __future__ import annotations

import pyarrow as pa

from openie_backend_ray import schema as S
from openie_backend_ray.functions import confidence
from openie_backend_ray.functions.normalize import index_key, key_string
from openie_backend_ray.functions.reverb import extract


def extract_batch(batch: pa.Table, corpus: str = "corpus") -> pa.Table:
    """chunked sentences -> keyed extraction rows (flat map)."""
    doc_ids = batch["doc_id"].to_pylist()
    span_idx = batch["span_idx"].to_pylist()
    toks_col = batch["tokens"].to_pylist()
    tags_col = batch["postags"].to_pylist()
    chks_col = batch["chunks"].to_pylist()
    src_col = (
        batch["source_url"].to_pylist()
        if "source_url" in batch.column_names
        else [""] * len(doc_ids)
    )

    out: dict[str, list] = {c: [] for c in S.KEYED_EXTRACTIONS.names}
    for i in range(len(doc_ids)):
        toks, tags, chks = toks_col[i], tags_col[i], chks_col[i]
        if not (len(toks) == len(tags) == len(chks)):
            continue  # malformed layers: drop record (reference behavior)
        for (a1, r, a2) in extract(toks, tags, chks):
            k = index_key(toks, tags, a1, r, a2)
            if not (k[0] and k[1] and k[2]):
                continue  # empty key part: dropped by the grouper map side
            conf = confidence.score(toks, tags, a1, r, a2)
            out["doc_id"].append(doc_ids[i])
            out["span_idx"].append(span_idx[i])
            out["tokens"].append(toks)
            out["postags"].append(tags)
            out["chunks"].append(chks)
            out["arg1"].append({"start": a1[0], "end": a1[1]})
            out["rel"].append({"start": r[0], "end": r[1]})
            out["arg2"].append({"start": a2[0], "end": a2[1]})
            out["source_url"].append(src_col[i])
            out["corpus"].append(corpus)
            out["confidence"].append(conf)
            out["arg1_norm"].append(k[0])
            out["rel_norm"].append(k[1])
            out["arg2_norm"].append(k[2])
            out["key"].append(key_string(k))
    return pa.Table.from_pydict(out, schema=S.KEYED_EXTRACTIONS)
