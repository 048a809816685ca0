"""Text-analysis operators over the flat ``documents`` table:
token counting, quality scoring, language ID, document fingerprinting.

All batch bodies are vectorized (pyarrow.compute / pandas) — the token
work flattens every batch's token lists into one flat column with
parent indices and aggregates with pandas groupby, never a Python loop
per row. Each op has a DuckDB-oracle twin in ``__ray_entry__.py``; the
hashing ops use md5 (identical bytes in Python ``hashlib`` and DuckDB
``md5()``) so signatures compare exactly across engines.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# shared with the oracle SQL: keep in sync with __ray_entry__.py
STOPWORDS = (
    "the", "a", "an", "of", "in", "on", "and", "or", "to", "is", "are",
    "was", "for", "with", "by", "at", "as", "that", "this", "it", "be",
)

# tiny per-language stopword profiles for the n-gram/stopword language
# heuristic (public-knowledge function words; langs match the testdata)
_LANG_MARKERS: dict[str, frozenset] = {
    "en": frozenset("the and of to in is are was for with a an that".split()),
    "es": frozenset("el la los las de en y que un una es por para con".split()),
    "fr": frozenset("le la les de et en un une est pour avec que dans".split()),
    "de": frozenset("der die das und in von mit ist ein eine für auf".split()),
    "zh": frozenset("de le shi zai he you wo ta men zhe na ge".split()),
}


def _tokens_frame(batch: pa.Table) -> pd.DataFrame:
    """Split ``text`` on whitespace and flatten to a (doc_id, token)
    frame — one vectorized explode, no per-row loops."""
    toks = pc.split_pattern_regex(batch["text"], r"\s+")
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks)
    doc_ids = pc.take(batch["doc_id"], parents)
    return pd.DataFrame(
        {"doc_id": doc_ids.to_numpy(zero_copy_only=False),
         "token": flat.to_pandas()}
    )


def token_stats_batch(batch: pa.Table, tok_df=None) -> pa.Table:
    """Per-doc token stats: n_tokens, n_types, stopword_ratio.

    The ratio is a single int/int float64 division — deliberately NOT
    rounded: one IEEE division is bit-identical in every engine, while
    round() semantics differ (numpy half-even vs DuckDB half-up).

    ``tok_df``: optional precomputed ``_tokens_frame(batch)`` so a
    composed caller (quality_gate) tokenizes once, not per kernel;
    kernels shallow-copy it before adding their working columns."""
    if batch.num_rows == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "n_tokens": pa.array([], pa.int64()),
             "n_types": pa.array([], pa.int64()),
             "stopword_ratio": pa.array([], pa.float64())}
        )
    df = (tok_df[["doc_id", "token"]].copy()
          if tok_df is not None else _tokens_frame(batch))
    df["is_stop"] = df["token"].isin(STOPWORDS)
    g = df.groupby("doc_id", sort=False)
    agg = g.agg(
        n_tokens=("token", "size"),
        n_types=("token", "nunique"),
        n_stop=("is_stop", "sum"),
    ).reset_index()
    ratio = agg["n_stop"] / agg["n_tokens"]
    return pa.table(
        {
            "doc_id": pa.array(agg["doc_id"], pa.int64()),
            "n_tokens": pa.array(agg["n_tokens"], pa.int64()),
            "n_types": pa.array(agg["n_types"], pa.int64()),
            "stopword_ratio": pa.array(ratio, pa.float64()),
        }
    )


def quality_score_batch(
    batch: pa.Table,
    min_tokens: int = 10,
    max_tokens: int = 10_000,
    max_stop_ratio: float = 0.5,
    tok_df=None,
) -> pa.Table:
    """Quality gate: length band + stopword-ratio + mean token length.
    Emits the signals and a keep flag (C4/Gopher-style rules at fixture
    scale)."""
    stats = token_stats_batch(batch, tok_df=tok_df)
    if stats.num_rows == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "n_tokens": pa.array([], pa.int64()),
             "mean_token_len": pa.array([], pa.float64()),
             "stopword_ratio": pa.array([], pa.float64()),
             "keep": pa.array([], pa.bool_())}
        )
    chars = pc.utf8_length(batch["text"]).to_numpy()
    order = {d: i for i, d in enumerate(batch["doc_id"].to_pylist())}
    idx = [order[d] for d in stats["doc_id"].to_pylist()]
    n_tok = stats["n_tokens"].to_numpy()
    # mean token length over single-space text: (chars - (n-1)) / n
    # (raw division — see token_stats_batch on rounding)
    mean_len = (chars[idx] - (n_tok - 1)) / n_tok
    ratio = stats["stopword_ratio"].to_numpy()
    keep = (n_tok >= min_tokens) & (n_tok <= max_tokens) & (ratio <= max_stop_ratio)
    return pa.table(
        {
            "doc_id": stats["doc_id"],
            "n_tokens": stats["n_tokens"],
            "mean_token_len": pa.array(mean_len, pa.float64()),
            "stopword_ratio": stats["stopword_ratio"],
            "keep": pa.array(keep, pa.bool_()),
        }
    )


def lang_id_batch(batch: pa.Table, tok_df=None) -> pa.Table:
    """Stopword-profile language ID (deterministic heuristic): argmax of
    marker-token hit rate per language, 'und' when nothing matches."""
    if batch.num_rows == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "lang_pred": pa.array([], pa.string())})
    df = (tok_df[["doc_id", "token"]].copy()
          if tok_df is not None else _tokens_frame(batch))
    langs = sorted(_LANG_MARKERS)
    for lang in langs:
        df[lang] = df["token"].isin(_LANG_MARKERS[lang])
    g = df.groupby("doc_id", sort=False)[langs].sum()
    scores = g.to_numpy()
    best = scores.argmax(axis=1)
    pred = np.where(scores.max(axis=1) > 0,
                    np.array(langs, dtype=object)[best], "und")
    return pa.table(
        {"doc_id": pa.array(g.index.to_numpy(), pa.int64()),
         "lang_pred": pa.array(pred, pa.string())}
    )


def fingerprint_batch(batch: pa.Table, k: int = 5) -> pa.Table:
    """Document fingerprint: min md5 over the doc's k-token shingles
    (min-sampling fingerprint; the 1-permutation cousin of minhash).
    Docs shorter than k tokens hash the whole text. md5 hex compares
    identically in DuckDB, so this op is oracle-checkable."""
    if batch.num_rows == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "fingerprint": pa.array([], pa.string())})
    doc_ids = batch["doc_id"].to_pylist()
    toks_col = pc.split_pattern_regex(batch["text"], r"\s+").to_pylist()
    fps = []
    for toks in toks_col:
        if len(toks) < k:
            fps.append(hashlib.md5(" ".join(toks).encode()).hexdigest())
            continue
        fps.append(
            min(
                hashlib.md5(" ".join(toks[i:i + k]).encode()).hexdigest()
                for i in range(len(toks) - k + 1)
            )
        )
    return pa.table(
        {"doc_id": pa.array(doc_ids, pa.int64()),
         "fingerprint": pa.array(fps, pa.string())}
    )


def repetition_stats_batch(
    batch: pa.Table,
    max_top_bigram_frac: float = 0.2,
    max_dup_trigram_frac: float = 0.3,
    tok_df=None,
) -> pa.Table:
    """Gopher-style repetition signals (Rae et al. 2021 §A1.1): the
    fraction of a doc's bigrams occupied by its most common bigram, and
    the fraction of trigram occurrences belonging to trigrams that
    appear more than once.  Boilerplate / spam / template text scores
    high on both.  Vectorized: one flatten + pandas shift/groupby per
    batch; docs with <2 (<3) tokens score 0.0.  ``repetitive`` applies
    the published-threshold-shaped gate."""
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "top_bigram_frac": pa.array([], pa.float64()),
         "dup_trigram_frac": pa.array([], pa.float64()),
         "repetitive": pa.array([], pa.bool_())}
    )
    if batch.num_rows == 0:
        return empty
    df = (tok_df[["doc_id", "token"]].copy()
          if tok_df is not None else _tokens_frame(batch))
    g = df.groupby("doc_id", sort=False)["token"]
    df["nxt"] = g.shift(-1)
    df["nxt2"] = g.shift(-2)

    bg = df[df["nxt"].notna()]
    bg_counts = (
        pd.DataFrame({"doc_id": bg["doc_id"],
                      "gram": bg["token"] + " " + bg["nxt"]})
        .groupby(["doc_id", "gram"], sort=False).size()
    )
    per_doc = bg_counts.groupby(level=0)
    top = (per_doc.max() / per_doc.sum()).rename("top_bigram_frac")

    tg = df[df["nxt2"].notna()]
    tg_counts = (
        pd.DataFrame({"doc_id": tg["doc_id"],
                      "gram": tg["token"] + " " + tg["nxt"]
                              + " " + tg["nxt2"]})
        .groupby(["doc_id", "gram"], sort=False).size()
    )
    dup_occ = tg_counts.where(tg_counts >= 2, 0).groupby(level=0).sum()
    dup = (dup_occ / tg_counts.groupby(level=0).sum()) \
        .rename("dup_trigram_frac")

    ids = pd.Index(batch["doc_id"].to_pylist(), name="doc_id")
    out = pd.DataFrame(index=ids).join(top).join(dup).fillna(0.0)
    rep = ((out["top_bigram_frac"] > max_top_bigram_frac)
           | (out["dup_trigram_frac"] > max_dup_trigram_frac))
    return pa.table(
        {"doc_id": pa.array(out.index.to_numpy(), pa.int64()),
         "top_bigram_frac": pa.array(out["top_bigram_frac"], pa.float64()),
         "dup_trigram_frac": pa.array(out["dup_trigram_frac"], pa.float64()),
         "repetitive": pa.array(rep.to_numpy(), pa.bool_())}
    )


# GPT-2-style BPE pre-tokenizer, restricted to RE2 syntax (both pyarrow
# and DuckDB embed RE2, so the oracle twin is byte-exact). The original
# pattern's trailing-whitespace lookahead `\s+(?!\S)` is not RE2-visible;
# this variant merges it into the plain `\s+` branch — for counting
# purposes the piece totals differ only on runs of trailing whitespace.
BPE_PRETOKEN_RE = (
    r"'s|'t|'re|'ve|'m|'ll|'d"
    r"| ?[\p{L}]+| ?[\p{N}]+| ?[^\s\p{L}\p{N}]+|\s+"
)


def bpe_token_stats_batch(batch: pa.Table) -> pa.Table:
    """Per-doc BPE-pretokenizer piece count next to the whitespace word
    count — the cheap `how many tokens will the tokenizer see` estimate
    a training-data budget works from (the merge step only shrinks the
    piece count, so this is an upper bound per doc)."""
    if batch.num_rows == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "n_words": pa.array([], pa.int64()),
             "n_bpe_pieces": pa.array([], pa.int64()),
             "pieces_per_word": pa.array([], pa.float64())}
        )
    words = pc.cast(
        pc.list_value_length(
            pc.split_pattern_regex(batch["text"], r"\s+")
        ),
        pa.int64(),
    )
    pieces = pc.cast(
        pc.count_substring_regex(batch["text"], BPE_PRETOKEN_RE),
        pa.int64(),
    )
    ratio = pc.divide(pc.cast(pieces, pa.float64()),
                      pc.cast(words, pa.float64()))
    return pa.table(
        {"doc_id": batch["doc_id"],
         "n_words": words,
         "n_bpe_pieces": pieces,
         "pieces_per_word": ratio}
    )


def quality_gate_batch(batch: pa.Table, lang: str = "en") -> pa.Table:
    """Composed C4/Gopher-style cleaning gate: length/stopword quality
    + repetition + language ID evaluated in ONE map pass per batch (no
    shuffle — each signal is per-doc), emitting every signal plus the
    final keep flag. The composition queries the same batch kernels
    the standalone ops use (so the flags agree with them by
    construction) and tokenizes ONCE, passing the shared
    ``_tokens_frame`` into all three."""
    tok = _tokens_frame(batch) if batch.num_rows else None
    q = quality_score_batch(batch, tok_df=tok)
    r = repetition_stats_batch(batch, tok_df=tok)
    l = lang_id_batch(batch, tok_df=tok)
    qd = {d: k for d, k in zip(q["doc_id"].to_pylist(),
                               q["keep"].to_pylist())}
    rd = {d: k for d, k in zip(r["doc_id"].to_pylist(),
                               r["repetitive"].to_pylist())}
    ld = {d: k for d, k in zip(l["doc_id"].to_pylist(),
                               l["lang_pred"].to_pylist())}
    ids = batch["doc_id"].to_pylist()
    quality_ok = [bool(qd.get(d)) for d in ids]
    repetitive = [bool(rd.get(d)) for d in ids]
    lang_ok = [ld.get(d) == lang for d in ids]
    keep = [a and (not b) and c
            for a, b, c in zip(quality_ok, repetitive, lang_ok)]
    return pa.table(
        {"doc_id": pa.array(ids, pa.int64()),
         "quality_ok": pa.array(quality_ok, pa.bool_()),
         "repetitive": pa.array(repetitive, pa.bool_()),
         "lang_ok": pa.array(lang_ok, pa.bool_()),
         "keep": pa.array(keep, pa.bool_())}
    )


def quality_gate(ds, lang: str = "en"):
    return ds.map_batches(
        lambda b: quality_gate_batch(b, lang), batch_format="pyarrow"
    )


# -- Dataset-level wrappers -------------------------------------------------

def token_stats(ds):
    return ds.map_batches(token_stats_batch, batch_format="pyarrow")


def repetition_stats(ds):
    return ds.map_batches(repetition_stats_batch, batch_format="pyarrow")


def bpe_token_stats(ds):
    return ds.map_batches(bpe_token_stats_batch, batch_format="pyarrow")


def quality_score(ds):
    return ds.map_batches(quality_score_batch, batch_format="pyarrow")


def lang_id(ds):
    return ds.map_batches(lang_id_batch, batch_format="pyarrow")


def fingerprint(ds):
    return ds.map_batches(fingerprint_batch, batch_format="pyarrow")


def _token_counts_partial(batch: pa.Table) -> pa.Table:
    """Per-batch token frequency partial (the wordcount combiner)."""
    toks = pc.split_pattern_regex(batch["text"], r"\s+")
    flat = pc.list_flatten(toks)
    vc = flat.value_counts()
    return pa.table(
        {"token": vc.field("values"),
         "n": pc.cast(vc.field("counts"), pa.int64())}
    )


def vocab_stats(ds):
    """ONE-row global aggregate: total tokens + distinct tokens."""
    partial = ds.map_batches(_token_counts_partial, batch_format="pyarrow")
    agg = partial.groupby("token").sum("n")

    def reduce_all(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"n_tokens": pa.array([int(pc.sum(batch["sum(n)"]).as_py())],
                                  pa.int64()),
             "n_distinct": pa.array([batch.num_rows], pa.int64())}
        )

    # the distinct-token table is tiny after aggregation: single final
    # reduce via one-batch map (batch_size None over a repartition(1))
    return agg.repartition(1).map_batches(
        reduce_all, batch_format="pyarrow", batch_size=None
    )
