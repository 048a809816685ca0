"""Training-data curation operators: benchmark decontamination, PII
redaction, stratified and mixture sampling, duplicate-gram coverage,
sequence packing and source shares over the flat ``documents`` table.

These are the "beyond the reference" curation stages a 100-TB
training-data pipeline needs (GPT-3 appendix C's 13-gram overlap
decontamination, C4-style pattern scrubbing, per-language sampling).
Each follows the repo's scale rules:

- decontamination broadcasts the EVAL-side gram set (bounded: held-out
  benchmark suites are fixed-size by definition, megabytes not
  terabytes) and probes it per batch with ``pyarrow.compute.is_in`` —
  the 100-TB training side streams, nothing materializes it;
- redaction is pure vectorized RE2 (``pc.replace_substring_regex`` /
  ``pc.count_substring_regex``); pyarrow and DuckDB both embed RE2, so
  the DuckDB oracle matches byte-for-byte, not just approximately;
- stratified sampling is a local top-k: per-batch per-bucket partial
  top-k, then one small per-bucket reduce — the shuffle moves at most
  ``target x buckets x blocks`` rows, never the corpus.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# benchmark decontamination (n-gram collision against a held-out set)
# ---------------------------------------------------------------------------

DECONTAM_K = 13  # published default (GPT-3 appendix C); tests use k=5
                 # because fixture docs are 10-99 tokens long


def _grams_frame(batch: pa.Table, k: int) -> pd.DataFrame:
    """(doc_id, gram) frame of each doc's k-token grams, one row per
    OCCURRENCE — one flatten + (k-1) pandas group-shifts, no per-row
    Python loop. Docs shorter than k tokens contribute no rows.

    The token series is snapshotted (``tok``) before accumulation so
    each ``shift(-i)`` explicitly reads original tokens — not relying
    on pandas' internal groupby-selection aliasing behavior."""
    toks = pc.split_pattern_regex(batch["text"], r"\s+")
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks)
    doc = pd.Series(
        pc.take(batch["doc_id"], parents).to_numpy(zero_copy_only=False)
    )
    tok = flat.to_pandas()
    grouped = tok.groupby(doc)
    gram = tok
    for i in range(1, k):
        gram = gram + " " + grouped.shift(-i)
    df = pd.DataFrame({"doc_id": doc, "gram": gram})
    return df[df["gram"].notna()]


def _distinct_grams_frame(batch: pa.Table, k: int) -> pd.DataFrame:
    return _grams_frame(batch, k).drop_duplicates(["doc_id", "gram"])


def collect_eval_grams(eval_ds, k: int = DECONTAM_K) -> pa.Array:
    """Distinct k-gram inventory of the EVAL set, as one Arrow string
    array ready for ``ray.put``. The eval side of decontamination is a
    fixed benchmark suite — bounded, so the driver-side materialization
    here is O(benchmark), never O(corpus)."""
    parts = eval_ds.map_batches(
        lambda b: pa.table(
            {"gram": pa.array(
                _distinct_grams_frame(b, k)["gram"].unique(), pa.string()
            )}
        ),
        batch_format="pyarrow",
    ).take_all()
    grams = sorted({r["gram"] for r in parts})
    return pa.array(grams, pa.string())


class Decontaminator:
    """Per-batch decontamination probe: fraction of a doc's distinct
    k-grams that collide with the broadcast eval-gram set. The gram
    array is fetched from the object store zero-copy (plasma-backed
    Arrow buffers), so constructing one per task costs ~nothing after
    the first fetch on a node."""

    def __init__(self, eval_grams_ref, k: int = DECONTAM_K,
                 threshold: float = 0.5):
        import ray

        self.eval_grams = ray.get(eval_grams_ref)
        self.k = k
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "n_grams": pa.array([], pa.int64()),
             "n_contaminated": pa.array([], pa.int64()),
             "contamination_frac": pa.array([], pa.float64()),
             "contaminated": pa.array([], pa.bool_())}
        )
        if batch.num_rows == 0:
            return empty
        df = _distinct_grams_frame(batch, self.k)
        if not len(df):
            return empty
        hit = pc.is_in(pa.array(df["gram"], pa.string()),
                       value_set=self.eval_grams)
        df = pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                           "hit": hit.to_numpy(zero_copy_only=False)})
        agg = df.groupby("doc_id", sort=False).agg(
            n_grams=("hit", "size"), n_contaminated=("hit", "sum")
        ).reset_index()
        # single int/int IEEE division — bit-identical to DuckDB
        frac = agg["n_contaminated"] / agg["n_grams"]
        return pa.table(
            {"doc_id": pa.array(agg["doc_id"], pa.int64()),
             "n_grams": pa.array(agg["n_grams"], pa.int64()),
             "n_contaminated": pa.array(agg["n_contaminated"], pa.int64()),
             "contamination_frac": pa.array(frac, pa.float64()),
             "contaminated": pa.array(frac >= self.threshold, pa.bool_())}
        )


def decontaminate(train_ds, eval_grams_ref, k: int = DECONTAM_K,
                  threshold: float = 0.5):
    """Flag training docs whose distinct-k-gram overlap with the eval
    set is >= ``threshold``. Docs with fewer than k tokens emit no row
    (they have no k-grams to test — mirrored by the oracle).

    Scale shape: map-only TASKS over the training stream; the only
    shared state is the broadcast eval-gram array, fetched zero-copy
    from the node-local object store inside each task (an actor pool
    would save nothing here — the fetch is a pointer into plasma — and
    its fixed-pool startup dominated this stage's wall at bench
    scale)."""

    def probe(batch: pa.Table) -> pa.Table:
        return Decontaminator(eval_grams_ref, k=k, threshold=threshold)(
            batch
        )

    return train_ds.map_batches(probe, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# PII redaction (C4-style pattern scrubbing)
# ---------------------------------------------------------------------------

# Order matters: each pattern is counted on, then replaced in, the text
# produced by the previous step (the oracle nests regexp_replace the
# same way). pyarrow's regex engine is RE2 and so is DuckDB's, so both
# engines see literally the same automaton.
PII_PATTERNS: tuple[tuple[str, str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
     "<EMAIL>"),
    ("ssn", r"\b[0-9]{3}-[0-9]{2}-[0-9]{4}\b", "<SSN>"),
    ("phone", r"\b[0-9]{3}-[0-9]{3}-[0-9]{4}\b", "<PHONE>"),
    ("ip", r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b",
     "<IP>"),
)


def pii_redact_batch(batch: pa.Table) -> pa.Table:
    """Vectorized RE2 scrub: per doc, count then replace each PII
    pattern in sequence. No Python touches the strings."""
    text = batch["text"]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    cols: dict[str, pa.Array | pa.ChunkedArray] = {"doc_id": batch["doc_id"]}
    counts = {}
    for name, pat, repl in PII_PATTERNS:
        counts[name] = pc.cast(
            pc.count_substring_regex(text, pat), pa.int64()
        )
        text = pc.replace_substring_regex(text, pat, repl)
    cols["clean_text"] = text
    for name, _, _ in PII_PATTERNS:
        cols[f"n_{name}"] = counts[name]
    return pa.table(cols)


def pii_redact(ds):
    return ds.map_batches(pii_redact_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# stratified sampling (equal allocation per bucket, deterministic)
# ---------------------------------------------------------------------------

def _md5_of_ids(ids) -> np.ndarray:
    return np.array(
        [hashlib.md5(str(v).encode()).hexdigest() for v in ids],
        dtype=object,
    )


def _md5_frac(ids) -> np.ndarray:
    """Exact 52-bit md5 fraction per id: int(md5[:13], 16) / 2^52 —
    the engine-reproducible Bernoulli draw (the SQL twin rebuilds the
    same value digit by digit from the first 13 hex chars). Values
    < 2^52 are
    exact in float64, so the division and every comparison against a
    rate are bit-identical across engines. The per-id md5 is the one
    irreducible Python cost; everything downstream is numpy."""
    return np.array(
        [int(hashlib.md5(str(v).encode()).hexdigest()[:13], 16)
         for v in ids],
        dtype=np.float64,
    ) / 4503599627370496.0


def stratified_sample(ds, by: str = "lang", key: str = "doc_id",
                      target: int = 50, bucketed: bool = False):
    """Deterministic stratified sample: per ``by``-bucket, keep the
    ``target`` rows with the smallest md5(key) (ties on key). Equal
    allocation across buckets regardless of skew — the md5 order is a
    reproducible uniform permutation, so this is Bernoulli-quality
    sampling with an exact per-bucket count.

    Scale shape (a local top-k): per-batch per-bucket
    partial top-k first, bounding what moves downstream to
    ``target x buckets`` rows PER BLOCK, never the corpus. The partial
    is associative (top-k of a union of top-ks), so the default final
    reduce is one small ``repartition(1)`` block — measured 2.3x
    cheaper than the groupby shuffle at bench scale. Set
    ``bucketed=True`` for a corpus with MANY buckets (domains, URLs):
    that swaps the tail for a per-bucket ``groupby(by)`` shuffle so no
    single reducer sees every bucket."""

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {by: pa.array([], pa.string()),
                 key: pa.array([], pa.int64()),
                 "h": pa.array([], pa.string())}
            )
        df = pd.DataFrame(
            {by: batch[by].to_pandas(),
             key: batch[key].to_numpy(zero_copy_only=False)}
        )
        df["h"] = _md5_of_ids(df[key])
        df = (df.sort_values(["h", key], kind="mergesort")
                .groupby(by, sort=False).head(target))
        return pa.table(
            {by: pa.array(df[by], pa.string()),
             key: pa.array(df[key], pa.int64()),
             "h": pa.array(df["h"], pa.string())}
        )

    def final(g: pa.Table) -> pa.Table:
        """Reduce a union of partials: re-rank and cut to target per
        bucket. Used both as the single small-block reducer (default)
        and as the per-bucket ``map_groups`` body (bucketed)."""
        df = g.to_pandas().sort_values(["h", key], kind="mergesort")
        df = df.groupby(by, sort=False).head(target)
        rank = df.groupby(by, sort=False).cumcount() + 1
        return pa.table(
            {by: pa.array(df[by], pa.string()),
             key: pa.array(df[key], pa.int64()),
             "sample_rank": pa.array(rank.to_numpy(), pa.int64())}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow")
    if bucketed:
        return parts.groupby(by).map_groups(final, batch_format="pyarrow")
    return parts.repartition(1).map_batches(
        final, batch_format="pyarrow", batch_size=None
    )


# ---------------------------------------------------------------------------
# mixture resampling (sqrt-temperature flattening of source shares)
# ---------------------------------------------------------------------------

def mixture_resample(ds, by: str = "source", key: str = "doc_id"):
    """Deterministic temperature resampling toward a flatter source
    mixture (the DoReMi/multilingual-sampling alpha=0.5 special case):
    keep each row of source s with probability
    ``rate_s = sqrt(n_min / n_s)`` — the rarest source keeps
    everything, a source 100x larger keeps 10%, so post-sample shares
    go as sqrt(pre-sample shares). alpha is FIXED at 0.5 on purpose:
    sqrt is IEEE-correctly-rounded in every engine while pow() is not,
    so the DuckDB twin's keep decisions are bit-identical, not just
    close. The Bernoulli draw is the md5 52-bit fraction of the key
    (reproducible across engines and runs).

    Two passes: a tiny per-source count aggregate (take_all bounded by
    the number of sources), then a broadcast-rate filter map."""
    import math

    import ray

    counts = (
        ds.groupby(by).count().take_all()
    )
    rates = {}
    if counts:
        nmin = min(r["count()"] for r in counts)
        rates = {r[by]: math.sqrt(nmin / r["count()"]) for r in counts}
    rates_ref = ray.put(rates)

    def keep(batch: pa.Table) -> pa.Table:
        rs = ray.get(rates_ref)
        rate = (batch[by].to_pandas().map(rs).fillna(0.0)
                .to_numpy(dtype=np.float64))
        frac = _md5_frac(batch[key].to_pylist())
        out = batch.append_column("rate", pa.array(rate, pa.float64()))
        return out.filter(pa.array(frac < rate, pa.bool_()))

    return ds.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# cross-document duplicate-n-gram coverage (Lee et al. 2022 signal)
# ---------------------------------------------------------------------------

def dup_ngram_coverage(ds, k: int = 5):
    """Per doc: the fraction of its k-gram OCCURRENCES whose gram also
    appears in at least one other doc ("Deduplicating Training Data
    Makes Language Models Better", Lee et al. 2022 — the substring-dup
    signal, at gram granularity). Docs with < k tokens emit no row.

    Scale shape: the duplicated-gram set is O(corpus grams), far too
    big to broadcast (unlike decontaminate's bounded eval set), so
    multiplicity attaches via ONE ``ops.partition.exchange`` on the
    gram: all rows of a gram land in the same hash partition, and each
    PARTITION — not each gram — is one vectorized pandas
    ``transform('size')`` call (per-gram ``map_groups`` measured ~6 s
    at sf0.1 purely on 250k tiny Python invocations). Then a per-doc
    sum with a map-side Arrow combiner. Nothing materializes the gram
    table."""
    from openie_backend_ray.ops.partition import exchange

    def occurrences(batch: pa.Table) -> pa.Table:
        oc = (_grams_frame(batch, k)
              .groupby(["doc_id", "gram"], sort=False).size()
              .rename("n_occ").reset_index())
        return pa.table(
            {"doc_id": pa.array(oc["doc_id"], pa.int64()),
             "gram": pa.array(oc["gram"], pa.string()),
             "n_occ": pa.array(oc["n_occ"], pa.int64())}
        )

    def attach_multiplicity(g: pa.Table) -> pa.Table:
        # whole hash partition at once: rows are unique per (doc,
        # gram), so per-gram row count == n_docs containing the gram
        df = pd.DataFrame(
            {"doc_id": g["doc_id"].to_numpy(zero_copy_only=False),
             "gram": g["gram"].to_pandas(),
             "n_occ": g["n_occ"].to_numpy(zero_copy_only=False)}
        )
        n_docs = df.groupby("gram", sort=False)["doc_id"].transform("size")
        dup = (n_docs > 1).to_numpy()
        return pa.table(
            {"doc_id": pa.array(df["doc_id"], pa.int64()),
             "occ": pa.array(df["n_occ"], pa.int64()),
             "dup_occ": pa.array(
                 df["n_occ"].to_numpy() * dup, pa.int64())}
        )

    def per_doc_partial(b: pa.Table) -> pa.Table:
        t = b.group_by("doc_id").aggregate(
            [("occ", "sum"), ("dup_occ", "sum")]
        )
        return pa.table(
            {"doc_id": t["doc_id"],
             "occ": pc.cast(t["occ_sum"], pa.int64()),
             "dup_occ": pc.cast(t["dup_occ_sum"], pa.int64())}
        )

    def finish(b: pa.Table) -> pa.Table:
        occ = b["sum(occ)"].to_numpy()
        dup = b["sum(dup_occ)"].to_numpy()
        return pa.table(
            {"doc_id": b["doc_id"],
             "n_grams": pa.array(occ, pa.int64()),
             "dup_grams": pa.array(dup, pa.int64()),
             "dup_frac": pa.array(dup / occ, pa.float64())}
        )

    return (
        exchange(ds.map_batches(occurrences, batch_format="pyarrow"),
                 "gram", attach_multiplicity)
        .map_batches(per_doc_partial, batch_format="pyarrow")
        .groupby("doc_id")
        .sum(["occ", "dup_occ"])
        .map_batches(finish, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# sequence packing (concat-and-chop) via a distributed prefix sum
# ---------------------------------------------------------------------------

def pack_sequences(ds, budget: int = 2048, bucket_range: int = 256):
    """Assign each doc its position in the GPT-style packed training
    stream: concatenate docs in doc_id order and chop into
    ``budget``-token sequences; a doc belongs to the sequence where it
    starts (``seq_id``) at ``offset_in_seq``.

    The global running-token-count is a prefix sum — which Ray Data has
    no native operator for — computed scalably in two passes:

    1. bucket docs by ``doc_id // bucket_range`` and sum tokens per
       bucket (a SMALL aggregate: corpus_size / bucket_range rows —
       pick bucket_range so that's ~10^4 rows even at 10^12 docs);
       the driver turns it into exclusive per-bucket offsets
       (O(#buckets), bounded by construction) and broadcasts them;
    2. one ``groupby(bucket)`` shuffle; each reducer sorts its bucket
       by doc_id, takes a local cumsum, and adds the broadcast bucket
       offset. Buckets are doc_id ranges, so the shuffle is balanced
       by construction — no hot key.

    Deterministic (pure function of the doc_id -> n_tokens map) and
    SQL-twinned with a window sum in the oracle."""
    import ray

    def counts(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch["text"], r"\s+")
        n = pc.cast(pc.list_value_length(toks), pa.int64())
        ids = batch["doc_id"]
        return pa.table(
            {"doc_id": ids,
             "n_tokens": n,
             "bucket": pc.cast(
                 pc.divide(ids, pa.scalar(bucket_range, pa.int64())),
                 pa.int64(),
             )}
        )

    # tokenize ONCE: both passes consume this dataset, and without the
    # checkpoint each execution re-runs the regex tokenize over the
    # full text. The materialized table holds only 3 int64-ish columns
    # (text is dropped in ``counts``) — ~24 B/doc in plasma, spilling
    # if huge; at extreme scale checkpoint it to parquet instead.
    with_counts = ds.map_batches(
        counts, batch_format="pyarrow"
    ).materialize()

    # pass 1: tiny per-bucket totals -> exclusive prefix on the driver.
    # Per-batch combiner first, so the groupby shuffle moves at most
    # #buckets rows per block.
    def bucket_partial(b: pa.Table) -> pa.Table:
        t = pa.table({"bucket": b["bucket"], "n_tokens": b["n_tokens"]})
        g = t.group_by("bucket").aggregate([("n_tokens", "sum")])
        return pa.table(
            {"bucket": g["bucket"],
             "n_tokens": pc.cast(g["n_tokens_sum"], pa.int64())}
        )

    bucket_sums = (
        with_counts.map_batches(bucket_partial, batch_format="pyarrow")
        .groupby("bucket").sum("n_tokens").take_all()
    )
    bucket_sums.sort(key=lambda r: r["bucket"])
    offsets, running = {}, 0
    for r in bucket_sums:
        offsets[r["bucket"]] = running
        running += r["sum(n_tokens)"]
    off_ref = ray.put(offsets)

    # pass 2: per-bucket local cumsum + broadcast offset
    def assign(g: pa.Table) -> pa.Table:
        offs = ray.get(off_ref)
        idx = pc.sort_indices(g, sort_keys=[("doc_id", "ascending")])
        t = g.take(idx)
        n = t["n_tokens"].to_numpy()
        before = np.cumsum(n) - n + offs[t["bucket"][0].as_py()]
        return pa.table(
            {"doc_id": t["doc_id"],
             "n_tokens": t["n_tokens"],
             "seq_id": pa.array(before // budget, pa.int64()),
             "offset_in_seq": pa.array(before % budget, pa.int64())}
        )

    return with_counts.groupby("bucket").map_groups(
        assign, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# source mixture stats (what share of the corpus each source supplies)
# ---------------------------------------------------------------------------

def source_mix(ds):
    """Per-source doc count, token sum and corpus share — the mixture
    table a resampling step (DoReMi-style reweighting) starts from.
    Partial-aggregated per batch before ONE tiny groupby(source);
    shares are int/int IEEE divisions against broadcast-free totals
    computed in a final single-block reduce."""

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch["text"], r"\s+")
        df = pd.DataFrame(
            {"source": batch["source"].to_pandas(),
             "n_tokens": pc.list_value_length(toks).to_numpy()}
        )
        agg = df.groupby("source", sort=False).agg(
            n_docs=("n_tokens", "size"), n_tokens=("n_tokens", "sum")
        ).reset_index()
        return pa.table(
            {"source": pa.array(agg["source"], pa.string()),
             "n_docs": pa.array(agg["n_docs"], pa.int64()),
             "n_tokens": pa.array(agg["n_tokens"], pa.int64())}
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .sum(["n_docs", "n_tokens"])
    )

    def finish(b: pa.Table) -> pa.Table:
        docs = b["sum(n_docs)"].to_numpy()
        toks = b["sum(n_tokens)"].to_numpy()
        return pa.table(
            {"source": b["source"],
             "n_docs": pa.array(docs, pa.int64()),
             "n_tokens": pa.array(toks, pa.int64()),
             "doc_share": pa.array(docs / docs.sum(), pa.float64()),
             "token_share": pa.array(toks / toks.sum(), pa.float64())}
        )

    # sources are a handful of rows post-aggregation: one-block reduce
    return agg.repartition(1).map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )
