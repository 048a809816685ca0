"""Content dedup over the flat ``documents`` table: winnowed
fingerprints and the delta-vs-store dedup the incremental ingest path
runs (``pipelines/incremental.py``), plus 64-bit SimHash.

Scale shape (the part that matters at 100 TB):
- winnowing is batch-local (k-gram md5 -> window minimums); the delta
  dedup's only all-to-all is ONE fingerprint-hash-partitioned co-group
  of the side-tagged delta and store fingerprints, and the store side
  can be a precomputed fingerprint table instead of the corpus;
- simhash is a batch-local map.

All hashing is md5 (python hashlib == DuckDB md5()) so every op has an
exact SQL oracle twin.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from openie_backend_ray.ops.partition import exchange

# Input text is stripped of chr(30) before whitespace tokenizing — here
# AND in the oracle SQL (replace(text, chr(30), '')).  \x1e is NOT regex
# whitespace, so the strip is part of the token definition both engines
# share: a \s+ split would otherwise keep it inside a token.
_SH_SEP = "\x1e"


def _dedup_tokens(text_col) -> list[list[str]]:
    """Whitespace tokens with chr(30) stripped first (kept in lockstep
    with the oracle's replace(text, chr(30), ''))."""
    cleaned = pc.replace_substring(text_col, pattern=_SH_SEP, replacement="")
    return pc.split_pattern_regex(cleaned, r"\s+").to_pylist()


# ---------------------------------------------------------------------------
# winnowing fingerprints (Schleimer et al. 2003, the MOSS algorithm)
# ---------------------------------------------------------------------------

WINNOW_K = 3  # gram size (tokens)
WINNOW_W = 4  # window of consecutive gram hashes per fingerprint


def winnow_fingerprints_batch(batch: pa.Table, k: int = WINNOW_K,
                              w: int = WINNOW_W) -> pa.Table:
    """Per doc: the DISTINCT set of window-min gram hashes — each
    window of ``w`` consecutive k-gram md5s contributes its minimum.
    Guarantees any shared run of >= w+k-1 tokens yields a shared
    fingerprint (the winnowing coverage property), with ~2/(w+1) of
    grams selected instead of all of them. Selecting by min VALUE
    (not position) makes the set tie-rule-free, so the DuckDB twin is
    a plain ``list_min`` over hex strings (lexicographic min —
    identical to Python ``min`` on the same hex). Docs with fewer
    than k tokens hash the whole text (one fingerprint). Emitted
    exploded: one (doc_id, fp) row per distinct fingerprint."""
    ids_out, fps = [], []
    toks_col = _dedup_tokens(batch["text"])
    for did, toks in zip(batch["doc_id"].to_pylist(), toks_col):
        if len(toks) < k:
            hs = [hashlib.md5(" ".join(toks).encode()).hexdigest()]
        else:
            hs = [
                hashlib.md5(" ".join(toks[i:i + k]).encode()).hexdigest()
                for i in range(len(toks) - k + 1)
            ]
        if len(hs) <= w:
            sel = {min(hs)}
        else:
            sel = {min(hs[i:i + w]) for i in range(len(hs) - w + 1)}
        for fp in sorted(sel):
            ids_out.append(did)
            fps.append(fp)
    return pa.table(
        # doc_id keeps its input type: the sf tables use int64, the
        # incremental ingest pipeline uses string ids — both flow
        # through the fp co-group unchanged
        {"doc_id": pa.array(ids_out, batch["doc_id"].type),
         "fp": pa.array(fps, pa.string())}
    )


def winnow_fingerprints(ds, k: int = WINNOW_K, w: int = WINNOW_W):
    return ds.map_batches(
        lambda b: winnow_fingerprints_batch(b, k, w),
        batch_format="pyarrow",
    )


def materialize_store_fingerprints(store_ds, path: str,
                                   k: int = WINNOW_K,
                                   w: int = WINNOW_W) -> str:
    """Winnow the store corpus ONCE and write the (doc_id, fp) table as
    partitioned parquet. The incremental ingest path then feeds
    ``ray.data.read_parquet(path)`` to ``delta_dedup(...,
    store_is_fingerprints=True)`` on every delta batch instead of
    re-winnowing the full store — at 100 TB the store side becomes a
    column-pruned parquet scan of ~2/(w+1) of the gram hashes. The
    table is append-only: ingested deltas winnow themselves into it
    (same columns), mirroring how the reference's ingester folds new
    groups into the index it later diffs against
    (``hadoop/.../lucene/Ingester.scala:45-121``).

    Writes a ``_winnow_params.json`` sidecar recording (k, w):
    ``read_store_fingerprints`` asserts the delta side will winnow with
    the SAME parameters — a silent mismatch yields near-zero overlap
    and no flagged duplicates instead of an error."""
    import json

    winnow_fingerprints(store_ds, k, w).write_parquet(path)
    fs, sidecar = _winnow_sidecar(path)
    with fs.open_output_stream(sidecar) as f:
        f.write(json.dumps({"k": k, "w": w}).encode())
    return path


def _winnow_sidecar(path: str):
    """(filesystem, sidecar path) of a fingerprint store: a local path,
    Ray's ``local://`` form of one, or any URI pyarrow resolves
    (``file://``, ``s3://``, ...)."""
    from pyarrow import fs

    local = path[len("local://"):] if path.startswith("local://") else path
    if "://" not in local:
        local = os.path.abspath(local)
    filesystem, root = fs.FileSystem.from_uri(local)
    return filesystem, f"{root.rstrip('/')}/_winnow_params.json"


def read_store_fingerprints(path: str, k: int = WINNOW_K,
                            w: int = WINNOW_W):
    """Read a ``materialize_store_fingerprints`` table back for
    ``delta_dedup(..., store_is_fingerprints=True)``, asserting its
    sidecar (k, w) match the parameters the delta side will use."""
    import json

    import ray
    from pyarrow import fs as pafs

    fs, sidecar = _winnow_sidecar(path)
    if fs.get_file_info(sidecar).type != pafs.FileType.NotFound:
        with fs.open_input_stream(sidecar) as f:
            params = json.loads(f.read())
        if (params.get("k"), params.get("w")) != (k, w):
            raise ValueError(
                f"store fingerprints at {path} were winnowed with "
                f"k={params.get('k')}, w={params.get('w')} but the delta "
                f"side is using k={k}, w={w}; re-materialize or pass "
                f"matching parameters"
            )
    return ray.data.read_parquet(path)


def delta_dedup(delta_ds, store_ds, k: int = WINNOW_K, w: int = WINNOW_W,
                store_is_fingerprints: bool = False):
    """Incremental-ingest dedup: which DELTA docs share a winnowed
    fingerprint with the existing STORE corpus. Returns one row per
    FLAGGED delta doc (doc_id, n_shared distinct fingerprints) — the
    ingest pipeline anti-joins this list to drop near-dups before
    extraction, the same way the reference's news ingester anti-joins
    deltas against the index (``Ingester.scala`` delta semantics, here
    at content level).

    Shape: both sides stream through the winnowing map; the only
    all-to-all is ONE fingerprint-hash-partitioned co-group (side-
    tagged union — the typer's J2 pattern), then a per-delta-doc sum
    with a map-side Arrow combiner. The store side is never collected;
    with ``store_is_fingerprints=True`` it is a PRECOMPUTED (doc_id,
    fp) table — ``materialize_store_fingerprints`` — and skips the
    winnowing map entirely (the 100 TB path: the store re-winnows once
    per corpus, not once per delta batch)."""

    def tag(side: int):
        def fn(b: pa.Table) -> pa.Table:
            fp = (b if side == 1 and store_is_fingerprints
                  else winnow_fingerprints_batch(b, k, w))
            return pa.table(
                {"fp": fp["fp"],
                 "doc_id": fp["doc_id"],
                 "side": pa.array([side] * fp.num_rows, pa.int8())}
            )
        return fn

    def hits_part(g: pa.Table) -> pa.Table:
        """Per partition: delta rows whose fp also occurs on the store
        side — one vectorized pandas pass."""
        import pandas as pd

        df = pd.DataFrame(
            {"fp": g["fp"].to_pandas(),
             "doc_id": g["doc_id"].to_numpy(zero_copy_only=False),
             "side": g["side"].to_numpy(zero_copy_only=False)}
        )
        store_fps = df.loc[df["side"] == 1, "fp"].unique()
        hits = df[(df["side"] == 0) & df["fp"].isin(store_fps)]
        agg = hits.groupby("doc_id", sort=False).size()
        return pa.table(
            {"doc_id": pa.array(agg.index, pa.int64()),
             "n_shared": pa.array(agg.to_numpy(), pa.int64())}
        )

    def partial(b: pa.Table) -> pa.Table:
        t = b.group_by("doc_id").aggregate([("n_shared", "sum")])
        return pa.table(
            {"doc_id": t["doc_id"],
             "n_shared": pc.cast(t["n_shared_sum"], pa.int64())}
        )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": b["doc_id"],
             "n_shared": pc.cast(b["sum(n_shared)"], pa.int64())}
        )

    tagged = delta_ds.map_batches(tag(0), batch_format="pyarrow").union(
        store_ds.map_batches(tag(1), batch_format="pyarrow"))
    return (
        exchange(tagged, "fp", hits_part)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("doc_id")
        .sum("n_shared")
        .map_batches(finish, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------

def simhash_batch(batch: pa.Table) -> pa.Table:
    """64-bit SimHash over tokens (bit source: md5 of token). Vectorized
    across the batch: token -> ±1 bit rows, summed with numpy."""
    if batch.num_rows == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "simhash": pa.array([], pa.string())})
    toks_col = pc.split_pattern_regex(batch["text"], r"\s+").to_pylist()
    out = []
    cache: dict[str, np.ndarray] = {}
    for toks in toks_col:
        acc = np.zeros(64, dtype=np.int64)
        for t in toks:
            bits = cache.get(t)
            if bits is None:
                raw = np.frombuffer(hashlib.md5(t.encode()).digest()[:8],
                                    dtype=np.uint8)
                # bit b of the 64-bit big-endian hash -> ±1
                bits = (np.unpackbits(raw).astype(np.int64) * 2) - 1
                cache[t] = bits
            acc += bits
        val = 0
        for b, v in enumerate(acc):
            if v > 0:
                val |= 1 << (63 - b)
        out.append(f"{val:016x}")
    return pa.table({"doc_id": batch["doc_id"],
                     "simhash": pa.array(out, pa.string())})


def simhash(ds):
    return ds.map_batches(simhash_batch, batch_format="pyarrow")

