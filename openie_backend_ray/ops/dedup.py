"""Deduplication operators over the flat ``documents`` table: exact,
MinHash+LSH band candidates, n-gram Jaccard verification, SimHash,
embedding-cosine near-dup.

Scale shape (the part that matters at 100 TB):
- exact: md5 the text vectorized, ONE hash-partition groupby on the
  16-byte digest (never on the raw text), min-doc_id reducer.
- minhash: signatures are computed batch-local (shingle -> md5 -> min),
  then (band, bucket) rows shuffle with a groupby — the only all-to-all
  — and each bucket emits CHAIN pairs (each member vs its sorted-by-id
  predecessor: linear in bucket size, no skew cap needed, and runs of
  mutual near-dups stay connected for the drop-doc_b dedup rule).
- jaccard verify: runs on the *candidate pairs* (LSH output), never all
  pairs; shingle sets reach the pairs via a union + groupby co-group
  join on doc_id, with a broadcast candidate-ID semi-join prefilter
  (ids only — the bloom-pushdown analogue) — no process holds the
  corpus.
- embedding near-dup: brute-force cosine per batch against a broadcast
  float64 matrix (numpy matmul), threshold filter; the LSH/IVF path for
  scale lives in ``similarity.py``.

All hashing is md5 (python hashlib == DuckDB md5()) so every op except
simhash-sign extraction has an exact SQL oracle twin.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from openie_backend_ray.ops.partition import exchange, partition_map_groups

NUM_PERM = 12
BANDS = 4  # rows per band = NUM_PERM // BANDS
SHINGLE_K = 3


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def add_text_md5(batch: pa.Table) -> pa.Table:
    """Vectorized md5(text) column (digest travels, raw text does not)."""
    digests = [hashlib.md5(t.encode()).hexdigest()
               for t in batch["text"].to_pylist()]
    return pa.table(
        {"doc_id": batch["doc_id"],
         "text_md5": pa.array(digests, pa.string())}
    )


def exact_dedup(ds):
    """Keep min doc_id per identical text -> (doc_id, text_md5)."""
    hashed = ds.map_batches(add_text_md5, batch_format="pyarrow")
    agg = hashed.groupby("text_md5").min("doc_id")
    return agg.map_batches(
        lambda b: pa.table({"doc_id": b["min(doc_id)"],
                            "text_md5": b["text_md5"]}),
        batch_format="pyarrow",
    )


def span_dedup(ds, span_tokens: int = 10):
    """Sub-document exact span dedup (the C4 / RefinedWeb shape: C4
    removed duplicate three-sentence spans ACROSS documents, not whole
    docs).  Documents split into fixed ``span_tokens``-token windows;
    a span kept only at its globally FIRST occurrence (min
    (doc_id, span_idx)); each document reassembles from its surviving
    spans.  Returns (doc_id, text, n_spans, n_kept); documents whose
    every span is a repeat drop entirely.

    Shape at scale: explode is a vectorized map; the winner choice is
    ONE md5(span)-hash-partitioned co-group (span text never shuffles
    ungrouped — the 16-byte digest is the key, spans ride as values
    exactly once); reassembly is ONE doc_id-partitioned co-group.  No
    step holds the corpus, and both go through
    ``partition_map_groups``."""
    def explode(batch: pa.Table) -> pa.Table:
        toks_col = pc.split_pattern_regex(batch["text"], r"\s+").to_pylist()
        ids = batch["doc_id"].to_pylist()
        # preserve the input's doc_id dtype (string ids flow through the
        # incremental-ingest path; hardcoding int64 raised ArrowInvalid)
        id_type = batch["doc_id"].type
        out_id, out_idx, out_md5, out_span, out_n = [], [], [], [], []
        for did, toks in zip(ids, toks_col):
            n = max(1, -(-len(toks) // span_tokens))
            for i in range(n):
                span = " ".join(toks[i * span_tokens:(i + 1) * span_tokens])
                out_id.append(did)
                out_idx.append(i)
                out_md5.append(hashlib.md5(span.encode()).hexdigest())
                out_span.append(span)
                out_n.append(n)
        return pa.table(
            {"doc_id": pa.array(out_id, id_type),
             "span_idx": pa.array(out_idx, pa.int64()),
             "span_md5": pa.array(out_md5, pa.string()),
             "span": pa.array(out_span, pa.string()),
             "n_spans": pa.array(out_n, pa.int64())}
        )

    def first_occurrence(g: pa.Table) -> pa.Table:
        # winner = min (doc_id, span_idx) for this span_md5; pylist min
        # (not np.lexsort) so string doc_ids order the same way
        ids = g["doc_id"].to_pylist()
        idxs = g["span_idx"].to_pylist()
        w = min(range(g.num_rows), key=lambda i: (ids[i], idxs[i]))
        return g.slice(int(w), 1)

    def reassemble(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(g, sort_keys=[("span_idx", "ascending")])
        g = g.take(order)
        return pa.table(
            {"doc_id": g["doc_id"].slice(0, 1),
             "text": pa.array(
                 [" ".join(g["span"].to_pylist())], pa.string()),
             "n_spans": g["n_spans"].slice(0, 1),
             "n_kept": pa.array([g.num_rows], pa.int64())}
        )

    spans = ds.map_batches(explode, batch_format="pyarrow")
    winners = partition_map_groups(spans, "span_md5", first_occurrence)
    return partition_map_groups(winners, "doc_id", reassemble)


# ---------------------------------------------------------------------------
# minhash + LSH bands
# ---------------------------------------------------------------------------

def _shingles(toks: list[str], k: int = SHINGLE_K) -> set:
    if len(toks) < k:
        return {" ".join(toks)}
    return {" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)}


# universal-hash permutation family over the 52-bit md5 prefix: ONE md5
# per shingle (the old per-(perm, shingle) salted md5 was 12x the
# hashing for the same LSH quality), then (a_p*h + b_p) mod M mixes.
# Exact in both engines: 52-bit h rebuilt from 13 hex digits, mults in
# DuckDB HUGEINT, M = 2^61 - 1.
_MH_MOD = (1 << 61) - 1
_MH_A = 2654435761  # Knuth multiplicative constants; a_p = A*p + 1
_MH_B = 40503       # b_p = B*p + 7


# vectorized permutation kernel: a_p = A*p+1 < 2^35, h < 2^52,
# M = 2^61 - 1 (Mersenne).  a*h splits as a*(hi*2^26 + lo);
# a*hi and a*lo both < 2^61 fit uint64, and (x * 2^26) mod M is the
# Mersenne rotate ((x & (2^35-1)) << 26) + (x >> 35).  Exactness is
# pinned against the scalar reference in test_ops.py.
_MH_AP = np.array([_MH_A * p + 1 for p in range(NUM_PERM)],
                  dtype=np.uint64)[:, None]
_MH_BP = np.array([_MH_B * p + 7 for p in range(NUM_PERM)],
                  dtype=np.uint64)[:, None]
_MH_MOD_U = np.uint64(_MH_MOD)


def _perm_mins(hs: np.ndarray) -> np.ndarray:
    """(NUM_PERM,) mins of ((A*p+1)*h + (B*p+7)) mod (2^61-1) over the
    uint64 hash array ``hs`` (each < 2^52), all in uint64 numpy."""
    hi = hs >> np.uint64(26)
    lo = hs & np.uint64((1 << 26) - 1)
    t = _MH_AP * hi  # < 2^35 * 2^26 < M: no fold needed
    t = ((t & np.uint64((1 << 35) - 1)) << np.uint64(26)) \
        + (t >> np.uint64(35))
    t = np.where(t >= _MH_MOD_U, t - _MH_MOD_U, t)
    t = t + _MH_AP * lo + _MH_BP  # < M + 2^61 + 2^36 < 2^63
    t = np.where(t >= _MH_MOD_U, t - _MH_MOD_U, t)
    return t.min(axis=1)


def _signature(sh: set, num_perm: int = NUM_PERM,
               _hcache: dict | None = None) -> list[str]:
    """Decimal-string min of each permutation hash (str so the bucket
    md5 concat is engine-identical: DuckDB CAST(HUGEINT AS VARCHAR) ==
    Python str(int)).  ``_hcache`` memoizes shingle -> 52-bit md5
    prefix across the caller's batch (near-dup corpora share most
    shingles)."""
    if _hcache is None:
        _hcache = {}
    hs = np.empty(len(sh), dtype=np.uint64)
    for i, s in enumerate(sh):
        h = _hcache.get(s)
        if h is None:
            h = int(hashlib.md5(s.encode()).hexdigest()[:13], 16)
            _hcache[s] = h
        hs[i] = h
    return [str(int(v)) for v in _perm_mins(hs)[:num_perm]]


def minhash_bands_batch(batch: pa.Table) -> pa.Table:
    """doc -> BANDS rows of (band, bucket, doc_id); bucket = md5 of the
    band's concatenated signature slice."""
    if batch.num_rows == 0:
        return pa.table({"band": pa.array([], pa.int32()),
                         "bucket": pa.array([], pa.string()),
                         "doc_id": pa.array([], pa.int64())})
    toks_col = _dedup_tokens(batch["text"])
    doc_ids = batch["doc_id"].to_pylist()
    rows_per_band = NUM_PERM // BANDS
    bands, buckets, ids = [], [], []
    hcache: dict[str, int] = {}  # shingle->hash memo across the batch
    for did, toks in zip(doc_ids, toks_col):
        sig = _signature(_shingles(toks), _hcache=hcache)
        for b in range(BANDS):
            chunk = "|".join(sig[b * rows_per_band:(b + 1) * rows_per_band])
            bands.append(b)
            buckets.append(hashlib.md5(chunk.encode()).hexdigest())
            ids.append(did)
    return pa.table(
        {"band": pa.array(bands, pa.int32()),
         "bucket": pa.array(buckets, pa.string()),
         "doc_id": pa.array(ids, pa.int64())}
    )


def _chain_mask(df, keys: list[str]) -> "np.ndarray":
    """Boolean mask over rows 1..n-1 of a keys-sorted frame marking
    rows whose predecessor shares all ``keys`` — integer/string
    comparisons only.  (A grouped ``shift(1)`` would promote int64
    doc_ids to float64 for the NaN fill and silently ROUND ids above
    2^53 on the way back — reproduced before switching to this
    mask.)"""
    if not len(df):
        return np.zeros(0, dtype=bool)
    same = np.ones(len(df) - 1, dtype=bool)
    for k in keys:
        v = df[k].to_numpy()
        same &= v[1:] == v[:-1]
    return same


def _chain_star_pairs(ids: np.ndarray, same: np.ndarray) -> tuple:
    """CHAIN ∪ STAR pairs of each key run in an id-sorted frame, still
    linear per bucket.  Chain (each member vs its predecessor) keeps
    runs of mutual near-dups connected for the drop-doc_b rule; star
    (each member vs the run's min-id anchor) restores the
    anchor-adjacent recall chain alone loses — two near-dups separated
    in id order by a non-dup bucket member ARE now jointly verified
    against the anchor.  ``same`` is the ``_chain_mask`` adjacency
    over rows 1..n-1; duplicates are dropped by the caller's
    ``_distinct_pairs`` tail."""
    if not len(ids):
        return ids, ids
    chain_a, chain_b = ids[:-1][same], ids[1:][same]
    run_start = np.concatenate([[True], ~same])
    run_id = np.cumsum(run_start) - 1
    start_idx = np.flatnonzero(run_start)
    anchors = ids[run_start][run_id]
    # star emits only run positions >= 2: position 1's star pair IS its
    # chain pair (predecessor == anchor), so the union stays dup-free
    pos = np.arange(len(ids)) - start_idx[run_id]
    star = pos >= 2
    return (
        np.concatenate([chain_a, anchors[star]]),
        np.concatenate([chain_b, ids[star]]),
    )


def _bucket_pairs_part(g: pa.Table) -> pa.Table:
    """All buckets of one hash partition at once — chain ∪ star pairs
    per bucket (see ``_chain_star_pairs``): a degenerate bucket of N
    identical docs emits <= 2(N-1) pairs, not N^2/2, so no skew cap is
    needed, and both the run-connectivity and the anchor-adjacent
    recall properties hold."""
    import pandas as pd

    df = pd.DataFrame(
        {"band": g["band"].to_numpy(zero_copy_only=False),
         "bucket": g["bucket"].to_pandas(),
         "doc_id": g["doc_id"].to_numpy(zero_copy_only=False)}
    ).drop_duplicates()
    df = df.sort_values(["band", "bucket", "doc_id"], kind="mergesort")
    same = _chain_mask(df, ["band", "bucket"])
    a, b = _chain_star_pairs(df["doc_id"].to_numpy(), same)
    return pa.table(
        {"doc_a": pa.array(a, pa.int64()),
         "doc_b": pa.array(b, pa.int64())}
    )


def _distinct_pairs(pairs):
    """Distinct (doc_a, doc_b) via a hash aggregate (cheaper than one
    map_groups Python call per pair)."""
    return pairs.groupby(["doc_a", "doc_b"]).count().select_columns(
        ["doc_a", "doc_b"]
    )


def minhash_pairs(ds):
    """LSH candidate duplicate pairs (doc_a < doc_b, doc_a the bucket
    representative), distinct across bands. Shuffles only (band,
    bucket, doc_id) tuples."""
    bands = ds.map_batches(minhash_bands_batch, batch_format="pyarrow")
    pairs = exchange(bands, "bucket", _bucket_pairs_part)
    # distinct (a pair can collide in several bands)
    return _distinct_pairs(pairs)


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
    than k tokens hash the whole text (one fingerprint), mirroring
    ``fingerprint_batch``. Emitted exploded: one (doc_id, fp) row per
    distinct fingerprint."""
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


def winnow_pairs(ds, k: int = WINNOW_K, w: int = WINNOW_W):
    """Candidate duplicate pairs from SHARED winnowed fingerprints —
    the MOSS grouping step: docs sharing any selected gram hash chain
    up, exactly the minhash LSH shuffle shape (fingerprint plays
    bucket; same partition-vectorized chain-pair emission, same
    ``_distinct_pairs`` tail)."""

    def as_buckets(b: pa.Table) -> pa.Table:
        fp = winnow_fingerprints_batch(b, k, w)
        return pa.table(
            {"band": pa.array([0] * fp.num_rows, pa.int32()),
             "bucket": fp["fp"],
             "doc_id": fp["doc_id"]}
        )

    cand = exchange(ds.map_batches(as_buckets, batch_format="pyarrow"),
                    "bucket", _bucket_pairs_part)
    return _distinct_pairs(cand)


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
# n-gram Jaccard verify (on candidate pairs)
# ---------------------------------------------------------------------------

# Acero (the kernel under Dataset.join) rejects list-typed non-key
# columns, so the shingle set travels as ONE chr(30)-delimited string
# per doc and is split back after the join.  \x1e is NOT regex
# whitespace (a \s+ split passes it through inside a token), so input
# text is stripped of it before tokenizing — in ``_dedup_tokens`` here
# AND in the oracle SQL (replace(text, chr(30), '')) — making the
# packed representation unambiguous even for control-char-bearing web
# text (the same class postprocess._CONTROL cleans).
_SH_SEP = "\x1e"


def _dedup_tokens(text_col) -> list[list[str]]:
    """Whitespace tokens with the shingle separator char stripped first
    (kept in lockstep with the oracle's replace(text, chr(30), ''))."""
    cleaned = pc.replace_substring(text_col, pattern=_SH_SEP, replacement="")
    return pc.split_pattern_regex(cleaned, r"\s+").to_pylist()


def doc_shingles_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, packed distinct k-shingles) — the join side of the
    Jaccard verify."""
    toks = _dedup_tokens(batch["text"])
    sh = [_SH_SEP.join(sorted(_shingles(t))) for t in toks]
    return pa.table(
        {"doc_id": batch["doc_id"],
         "shingles": pa.array(sh, pa.string())}
    )


# co-group row layout for the pair <- shingles join: doc rows carry
# shingles + null pair_id, pair-half rows carry pair_id + null shingles
_JROW = pa.schema(
    [
        ("jkey", pa.int64()),      # doc_id
        ("pair_id", pa.string()),  # "a|b"
        ("shingles", pa.string()),
    ]
)


def _tag_pair_halves(b: pa.Table) -> pa.Table:
    a = b["doc_a"].to_pylist()
    bb = b["doc_b"].to_pylist()
    pid = [f"{x}|{y}" for x, y in zip(a, bb)]
    return pa.table(
        {"jkey": pa.array(a + bb, pa.int64()),
         "pair_id": pa.array(pid + pid, pa.string()),
         "shingles": pa.nulls(2 * len(a), pa.string())},
        schema=_JROW,
    )


def _tag_doc_shingles(b: pa.Table) -> pa.Table:
    sh = doc_shingles_batch(b)
    return pa.table(
        {"jkey": sh["doc_id"],
         "pair_id": pa.nulls(b.num_rows, pa.string()),
         "shingles": sh["shingles"]},
        schema=_JROW,
    )


def _attach_shingles_part(g: pa.Table) -> pa.Table:
    """One hash partition of jkeys at once: ONE vectorized pandas merge
    hands each doc's shingle string to every pair-half that references
    it (the per-key ``map_groups`` this replaces cost one Python task
    per candidate DOC — the measured 250k-tiny-calls anti-pattern)."""
    import pandas as pd

    df = pd.DataFrame(
        {"jkey": g["jkey"].to_numpy(zero_copy_only=False),
         "pair_id": g["pair_id"].to_pandas(),
         "shingles": g["shingles"].to_pandas()}
    )
    docs = df.loc[df["shingles"].notna(), ["jkey", "shingles"]]
    docs = docs.drop_duplicates("jkey")
    halves = df.loc[df["pair_id"].notna(), ["jkey", "pair_id"]]
    m = halves.merge(docs, on="jkey", how="inner")
    return pa.table(
        {"jkey": pa.array(m["jkey"].to_numpy(), pa.int64()),
         "pair_id": pa.array(m["pair_id"], pa.string()),
         "shingles": pa.array(m["shingles"], pa.string())},
        schema=_JROW,
    )


def _score_pairs_part(g: pa.Table) -> pa.Table:
    """One hash partition of pair_ids at once: sort by (pair_id, jkey)
    so a complete pair's two halves are adjacent (doc_a < doc_b always,
    so the a-half sorts first), mask the adjacency vectorized, then
    compute set Jaccard only over complete pairs.  Pairs with a
    missing half (doc absent from the input) drop, matching the old
    per-pair num_rows != 2 rule."""
    import pandas as pd

    df = pd.DataFrame(
        {"jkey": g["jkey"].to_numpy(zero_copy_only=False),
         "pair_id": g["pair_id"].to_pandas(),
         "shingles": g["shingles"].to_pandas()}
    ).sort_values(["pair_id", "jkey"], kind="mergesort")
    pid = df["pair_id"].to_numpy()
    if len(pid) < 2:
        return pa.table(
            {"doc_a": pa.array([], pa.int64()),
             "doc_b": pa.array([], pa.int64()),
             "jaccard": pa.array([], pa.float64())}
        )
    same = pid[1:] == pid[:-1]
    keys = df["jkey"].to_numpy()
    shs = df["shingles"].to_numpy()
    a_id, b_id = keys[:-1][same], keys[1:][same]
    jac = np.empty(len(a_id), dtype=np.float64)
    for i, (sa_s, sb_s) in enumerate(zip(shs[:-1][same], shs[1:][same])):
        sa = set(sa_s.split(_SH_SEP))
        sb = set(sb_s.split(_SH_SEP))
        union = len(sa | sb)
        # raw int/int division: bit-identical to the SQL oracle
        jac[i] = len(sa & sb) / union if union else 0.0
    return pa.table(
        {"doc_a": pa.array(a_id, pa.int64()),
         "doc_b": pa.array(b_id, pa.int64()),
         "jaccard": pa.array(jac, pa.float64())}
    )


def ngram_jaccard_pairs(ds, threshold: float = 0.5,
                        semijoin_max_ids: int = 5_000_000,
                        broadcast_docs_cap: int = 100_000):
    """Candidate pairs -> exact k-shingle Jaccard >= threshold.

    The verify is a JOIN of the candidate pairs against the docs table
    on doc_id — a union + HASH-PARTITIONED co-group on doc_id (one
    vectorized pandas merge per partition hands each doc's shingle set
    to the pair-halves that reference it), then a hash-partitioned
    co-group on pair_id that scores each pair from its two adjacent
    halves.  Both are ``exchange`` calls, one Python call per
    partition, never one per key (the per-key ``map_groups`` this replaced was
    the measured 6-10 s anti-pattern at sf0.1).  No process ever holds
    the corpus.

    Semi-join prefilter (the bloom-filter-pushdown analogue): when the
    candidate ID set is small enough to broadcast (<= semijoin_max_ids
    — ids only, O(candidates), NOT the corpus), the docs side is
    filtered to candidate ids before shingling, so the join shuffles
    only candidate shingles instead of every document's.  Above the
    cap it falls back to shuffling the full shingle table — same
    semantics, still never collected in one place.

    Broadcast verify (the small-side-broadcast join): when the
    candidate DOC count also fits ``broadcast_docs_cap``, the
    candidate docs' packed shingle strings (O(candidate docs), doc-
    length-bounded — NOT the corpus) are collected once, ``ray.put``,
    and every pair scores in ONE vectorized map over the pairs table:
    ZERO shuffles after LSH.  Both groupby exchanges of the co-group
    path are pure fixed overhead at this size (measured ~2.5 s at
    sf0.1 for 2,322 candidate docs).  Above the cap the partitioned
    co-group runs unchanged — same scores either way (regression test
    pins cap=0 == capped)."""
    import ray

    cands = minhash_pairs(ds).materialize()
    docs_side = ds
    cand_ids: set | None = None
    if cands.count() <= semijoin_max_ids:
        ids = set()
        for b in cands.iter_batches(batch_format="pyarrow"):
            ids.update(b["doc_a"].to_pylist())
            ids.update(b["doc_b"].to_pylist())
        cand_ids = ids
        ids_ref = ray.put(pa.array(sorted(ids), pa.int64()))

        def keep_cands(batch: pa.Table) -> pa.Table:
            # vectorized membership against the broadcast id array
            wanted = ray.get(ids_ref)
            return batch.filter(pc.is_in(batch["doc_id"], value_set=wanted))

        docs_side = ds.map_batches(keep_cands, batch_format="pyarrow")

    if cand_ids is not None and len(cand_ids) <= broadcast_docs_cap:
        sh_map: dict[int, str] = {}
        for b in (docs_side
                  .map_batches(doc_shingles_batch, batch_format="pyarrow")
                  .iter_batches(batch_format="pyarrow")):
            sh_map.update(zip(b["doc_id"].to_pylist(),
                              b["shingles"].to_pylist()))
        sh_ref = ray.put(sh_map)

        def score_pairs(batch: pa.Table) -> pa.Table:
            m = ray.get(sh_ref)
            a_ids = batch["doc_a"].to_pylist()
            b_ids = batch["doc_b"].to_pylist()
            oa, ob, jac = [], [], []
            for a, b in zip(a_ids, b_ids):
                sa_s, sb_s = m.get(a), m.get(b)
                if sa_s is None or sb_s is None:
                    continue  # missing half: same drop rule as co-group
                sa = set(sa_s.split(_SH_SEP))
                sb = set(sb_s.split(_SH_SEP))
                union = len(sa | sb)
                oa.append(a)
                ob.append(b)
                jac.append(len(sa & sb) / union if union else 0.0)
            return pa.table(
                {"doc_a": pa.array(oa, pa.int64()),
                 "doc_b": pa.array(ob, pa.int64()),
                 "jaccard": pa.array(jac, pa.float64())}
            )

        scored = cands.map_batches(score_pairs, batch_format="pyarrow")
        return scored.filter(expr=f"jaccard >= {threshold}")

    pairs_t = cands.map_batches(_tag_pair_halves, batch_format="pyarrow")
    docs_t = docs_side.map_batches(_tag_doc_shingles,
                                   batch_format="pyarrow")
    joined = exchange(pairs_t.union(docs_t), "jkey", _attach_shingles_part)
    scored = exchange(joined, "pair_id", _score_pairs_part)
    return scored.filter(expr=f"jaccard >= {threshold}")


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


def simhash_pairs(ds, max_hamming: int = 3):
    """Near-dup pairs by SimHash: 4x16-bit block LSH (a pair within
    hamming distance <=3 of 64 bits shares at least one exact 16-bit
    block) then exact hamming verify per bucket."""
    def blocks(batch: pa.Table) -> pa.Table:
        sh = simhash_batch(batch)
        ids, blk, val, full = [], [], [], []
        for d, h in zip(sh["doc_id"].to_pylist(), sh["simhash"].to_pylist()):
            for b in range(4):
                ids.append(d)
                blk.append(b)
                val.append(h[b * 4:(b + 1) * 4])
                full.append(h)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "block": pa.array(blk, pa.int32()),
                         "block_val": pa.array(val, pa.string()),
                         "simhash": pa.array(full, pa.string())})

    def pairs_part(g: pa.Table) -> pa.Table:
        """Chain ∪ star candidate pairs per (block, value) bucket (see
        ``_chain_star_pairs`` — skew-linear, run-connected, and
        anchor-adjacent-complete), hamming-verified; one vectorized
        pandas call per hash PARTITION of buckets, Python only over
        the emitted candidate pairs.  Adjacency comes from the
        ``_chain_mask`` mask, never a grouped shift (int64 doc_ids
        survive exactly — see ``_chain_mask``)."""
        import pandas as pd

        df = pd.DataFrame(
            {"block": g["block"].to_numpy(zero_copy_only=False),
             "block_val": g["block_val"].to_pandas(),
             "doc_id": g["doc_id"].to_numpy(zero_copy_only=False),
             "simhash": g["simhash"].to_pandas()}
        ).drop_duplicates()
        df = df.sort_values(["block", "block_val", "doc_id"],
                            kind="mergesort")
        same = _chain_mask(df, ["block", "block_val"])
        ids = df["doc_id"].to_numpy()
        hs = dict(zip(ids, df["simhash"].to_numpy()))
        pid, did = _chain_star_pairs(ids, same)
        keep = pa.array(
            [bin(int(hs[x], 16) ^ int(hs[y], 16)).count("1")
             <= max_hamming
             for x, y in zip(pid, did)],
            pa.bool_(),
        )
        return pa.table(
            {"doc_a": pa.array(pid, pa.int64()),
             "doc_b": pa.array(did, pa.int64())}
        ).filter(keep)

    blk = ds.map_batches(blocks, batch_format="pyarrow")
    cand = exchange(blk, "block_val", pairs_part)
    return _distinct_pairs(cand)


# ---------------------------------------------------------------------------
# embedding-cosine near-dup
# ---------------------------------------------------------------------------

def _cosine_pairs_batch(batch: pa.Table, *, mat_ref,
                        threshold: float) -> pa.Table:
    """Task fn: full embedding matrix broadcast once (ray.put); each
    batch matmuls against it in float64 and emits pairs over threshold
    with doc_a < doc_b. At real scale the matrix side is IVF-bucketed
    (similarity.py) — this is the exact baseline.

    A plain TASK, not an actor pool: the only state is the broadcast
    (ids, matrix) numpy pair, and ``ray.get`` of numpy arrays is a
    zero-copy plasma view per task — so there is no per-actor setup to
    amortize, and a fixed pool only added actor-startup wall for
    small inputs (the round-4 bench regression: 16 actors started for
    a 2-batch job)."""
    import ray

    all_ids, mat = ray.get(mat_ref)  # (n,), (n, d) float64 L2-normed
    ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
    vecs = np.array(batch["embedding"].to_pylist(), dtype=np.float64)
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    sims = (vecs / norms) @ mat.T
    rows, cols = np.nonzero(np.round(sims, 6) >= threshold)
    a = ids[rows]
    b = all_ids[cols]
    keep = a < b
    return pa.table(
        {"vec_a": pa.array(a[keep], pa.int64()),
         "vec_b": pa.array(b[keep], pa.int64()),
         "cosine": pa.array(np.round(sims[rows, cols][keep], 6),
                            pa.float64())}
    )


def embedding_pairs(emb_ds, mat_ref, threshold: float = 0.95):
    return emb_ds.map_batches(
        _cosine_pairs_batch,
        fn_kwargs={"mat_ref": mat_ref, "threshold": threshold},
        batch_format="pyarrow",
        batch_size=1024,
    )


def normalized_matrix(emb_table: pa.Table):
    """(ids, L2-normalized float64 matrix) for broadcast via ray.put."""
    ids = np.asarray(emb_table["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.array(emb_table["embedding"].to_pylist(), dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return ids, mat / norms
