"""Flat SQL views of the deterministic golden GROUPS fixture.

The post-group KG operators (extreme filter, head phrases, projections,
regroup, renormalize, canonicalize, typer, inlink ratio) run over the
nested Arrow GROUPS table — not one of the driver's pre-registered
parquet views — so their DuckDB oracles need the same input exploded
into flat tables DuckDB can read.  This module materializes three
parquet files from ``fixtures.corpus.build_groups_table()``:

- ``groups.parquet``  — one row per group (gid, norms, entity fields,
  types, size);
- ``instances.parquet`` — one row per instance (gid, inst_idx, spans,
  confidence, corpus, sentence text);
- ``tokens.parquet``  — one row per token per instance (gid, inst_idx,
  pos, token, tag, stem, in_arg1/in_rel/in_arg2 membership flags).

The ONLY derived (non-raw) column is ``stem`` — the POS-aware
lemmatizer (``functions/stemmer.py``, unit-tested on the reference's
``TaggedStemmer`` cases).  Every other oracle computation — grouping
keys, frontend keys, head phrases, blacklist filters, instance dedup
signatures, merge sizes — is expressed in SQL over these raw columns,
so the oracle independently re-derives the operator logic.

Both engines consume the SAME fixture: Ray via ``build_groups_table``
(nested), DuckDB via these files (flat).  ``ensure_views()`` writes
them idempotently (atomic rename).  ``oracle_sql()`` calls it on the
first read of a KG oracle, so the files exist whenever the driver runs
the KG SQL; the non-KG oracles never read the reference.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

# bump when the view SCHEMA or derivation changes so stale files from a
# previous code version are never reused
VIEWS_VERSION = 4

_DEFAULT_DIR = "/tmp/openie_fixture_views"


def views_dir() -> str:
    base = os.environ.get("GRAFT_FIXTURE_VIEWS", _DEFAULT_DIR)
    return os.path.join(base, f"v{VIEWS_VERSION}")


def build_views() -> dict[str, pa.Table]:
    from openie_backend_ray.fixtures.corpus import build_groups_table
    from openie_backend_ray.functions.stemmer import stem

    g = build_groups_table()
    inst_col = g["instances"].to_pylist()

    # ---- groups view -----------------------------------------------------
    def ent_f(col, field, typ):
        return [
            (e[field] if e is not None else None)
            for e in g[col].to_pylist()
        ]

    groups = pa.table(
        {
            "gid": pa.array(range(g.num_rows), pa.int64()),
            "arg1_norm": g["arg1_norm"],
            "rel_norm": g["rel_norm"],
            "arg2_norm": g["arg2_norm"],
            "size": g["size"],
            "fbid1": pa.array(ent_f("arg1_entity", "fbid", str), pa.string()),
            "name1": pa.array(ent_f("arg1_entity", "name", str), pa.string()),
            "inlinks1": pa.array(
                ent_f("arg1_entity", "inlink_ratio", float), pa.float64()
            ),
            "fbid2": pa.array(ent_f("arg2_entity", "fbid", str), pa.string()),
            "name2": pa.array(ent_f("arg2_entity", "name", str), pa.string()),
            "inlinks2": pa.array(
                ent_f("arg2_entity", "inlink_ratio", float), pa.float64()
            ),
            "arg1_types": g["arg1_types"],
            "arg2_types": g["arg2_types"],
        }
    )

    # ---- instances + tokens views ---------------------------------------
    i_gid, i_idx, i_conf, i_corpus, i_url, i_sent = [], [], [], [], [], []
    spans = {k: [] for k in ("a1s", "a1e", "rs", "re_", "a2s", "a2e")}
    t_gid, t_idx, t_pos, t_tok, t_tag, t_stem = [], [], [], [], [], []
    t_a1, t_rel, t_a2 = [], [], []
    for gid, insts in enumerate(inst_col):
        for ii, inst in enumerate(insts):
            i_gid.append(gid)
            i_idx.append(ii)
            i_conf.append(inst["confidence"])
            i_corpus.append(inst["corpus"])
            i_url.append(inst["source_url"])
            i_sent.append(" ".join(inst["tokens"]))
            a1, rl, a2 = inst["arg1"], inst["rel"], inst["arg2"]
            spans["a1s"].append(a1["start"])
            spans["a1e"].append(a1["end"])
            spans["rs"].append(rl["start"])
            spans["re_"].append(rl["end"])
            spans["a2s"].append(a2["start"])
            spans["a2e"].append(a2["end"])
            for p, (tok, tag) in enumerate(
                zip(inst["tokens"], inst["postags"])
            ):
                t_gid.append(gid)
                t_idx.append(ii)
                t_pos.append(p)
                t_tok.append(tok)
                t_tag.append(tag)
                t_stem.append(stem(tok, tag))
                t_a1.append(a1["start"] <= p < a1["end"])
                t_rel.append(rl["start"] <= p < rl["end"])
                t_a2.append(a2["start"] <= p < a2["end"])

    instances = pa.table(
        {
            "gid": pa.array(i_gid, pa.int64()),
            "inst_idx": pa.array(i_idx, pa.int64()),
            "confidence": pa.array(i_conf, pa.float64()),
            "corpus": pa.array(i_corpus, pa.string()),
            "source_url": pa.array(i_url, pa.string()),
            "sentence": pa.array(i_sent, pa.string()),
            **{
                k: pa.array(v, pa.int64()) for k, v in spans.items()
            },
        }
    )
    tokens = pa.table(
        {
            "gid": pa.array(t_gid, pa.int64()),
            "inst_idx": pa.array(t_idx, pa.int64()),
            "pos": pa.array(t_pos, pa.int64()),
            "token": pa.array(t_tok, pa.string()),
            "tag": pa.array(t_tag, pa.string()),
            "stem": pa.array(t_stem, pa.string()),
            "in_arg1": pa.array(t_a1, pa.bool_()),
            "in_rel": pa.array(t_rel, pa.bool_()),
            "in_arg2": pa.array(t_a2, pa.bool_()),
        }
    )
    # ---- media spans of the fixture corpus (raw data: the input to
    # the multimodal stages, exploded like explode_media_spans) -------
    from openie_backend_ray.fixtures.corpus import build_documents

    docs = build_documents()
    m_doc, m_idx, m_kind, m_ref = [], [], [], []
    for did, doc_spans in zip(docs["doc_id"].to_pylist(),
                              docs["spans"].to_pylist()):
        for s in doc_spans:
            if s["kind"] == "text":
                continue
            m_doc.append(did)
            m_idx.append(s["offset"])
            m_kind.append(s["kind"])
            m_ref.append(s["media_ref"])
    media = pa.table(
        {
            "doc_id": pa.array(m_doc, pa.string()),
            "span_idx": pa.array(m_idx, pa.int32()),
            "kind": pa.array(m_kind, pa.string()),
            "media_ref": pa.array(m_ref, pa.string()),
        }
    )
    return {"groups": groups, "instances": instances, "tokens": tokens,
            "media": media}


def build_extractions() -> pa.Table:
    """Flat keyed-extractions view: the INPUT of the G1 grouper
    (``ScoobiReVerbGrouper.scala:63-130``), materialized so DuckDB can
    re-derive the grouping (conf-sorted instance dedup, 40k cap,
    500k-raw drop) independently while Ray runs the real
    ``grouper.group_extractions`` over the SAME rows.

    Built deterministically on the driver by running the real
    front-end stages (explode -> chunk -> extract) over the fixture
    corpus replicated 3x — replication makes duplicate (sentence,
    corpus, spans) signatures cross document boundaries, so the
    oracle actually exercises the dedup window, the per-occurrence
    source_url tiebreak, and multi-partial merges in the shuffle.
    Corpus alternates cw/news by document parity so cross-corpus
    signatures stay distinct."""
    from openie_backend_ray.fixtures.corpus import (
        build_chunker_lexicon,
        build_documents,
    )
    from openie_backend_ray.stages.chunker import ChunkerActor
    from openie_backend_ray.stages.extractor import extract_batch
    from openie_backend_ray.stages.sentences import explode_text_spans

    docs = build_documents(replication=3)
    chunker = ChunkerActor(lexicon=build_chunker_lexicon())
    ext = extract_batch(chunker(explode_text_spans(docs)))
    doc_ids = ext["doc_id"].to_pylist()
    span_idx = ext["span_idx"].to_pylist()

    def span(col, field):
        return pa.array(
            [s[field] for s in ext[col].to_pylist()], pa.int64()
        )

    return pa.table(
        {
            "doc_id": ext["doc_id"],
            "span_idx": ext["span_idx"],
            "key": ext["key"],
            "arg1_norm": ext["arg1_norm"],
            "rel_norm": ext["rel_norm"],
            "arg2_norm": ext["arg2_norm"],
            "sentence": pa.array(
                [" ".join(t) for t in ext["tokens"].to_pylist()],
                pa.string(),
            ),
            "postags_s": pa.array(
                [" ".join(t) for t in ext["postags"].to_pylist()],
                pa.string(),
            ),
            "chunks_s": pa.array(
                [" ".join(t) for t in ext["chunks"].to_pylist()],
                pa.string(),
            ),
            "a1s": span("arg1", "start"), "a1e": span("arg1", "end"),
            "rs": span("rel", "start"), "re_": span("rel", "end"),
            "a2s": span("arg2", "start"), "a2e": span("arg2", "end"),
            # per-occurrence fields: corpus by doc parity, a synthetic
            # deterministic url per (doc, span) so equal-signature
            # duplicates still have an orderable tiebreak field
            "corpus": pa.array(
                ["cw" if int(d[3:]) % 2 == 0 else "news" for d in doc_ids],
                pa.string(),
            ),
            "source_url": pa.array(
                [f"http://src/{d}/{i}" for d, i in zip(doc_ids, span_idx)],
                pa.string(),
            ),
            "confidence": ext["confidence"],
        }
    )


def keyed_rows_from_view(batch: pa.Table) -> pa.Table:
    """Flat extractions-view rows -> the keyed extraction schema the
    grouper's map-side combiner consumes (inverse of
    ``build_extractions``'s flattening)."""
    from openie_backend_ray import schema as S

    def lists(col):
        return pa.array(
            [s.split(" ") for s in batch[col].to_pylist()],
            pa.list_(pa.string()),
        )

    def iv(s_col, e_col):
        return pa.array(
            [
                {"start": s, "end": e}
                for s, e in zip(batch[s_col].to_pylist(),
                                batch[e_col].to_pylist())
            ],
            S.INTERVAL,
        )

    return pa.table(
        {
            "key": batch["key"],
            "arg1_norm": batch["arg1_norm"],
            "rel_norm": batch["rel_norm"],
            "arg2_norm": batch["arg2_norm"],
            "tokens": lists("sentence"),
            "postags": lists("postags_s"),
            "chunks": lists("chunks_s"),
            "arg1": iv("a1s", "a1e"),
            "rel": iv("rs", "re_"),
            "arg2": iv("a2s", "a2e"),
            "source_url": batch["source_url"],
            "corpus": batch["corpus"],
            "confidence": batch["confidence"],
        }
    )


def project_blob_groups(batch: pa.Table) -> pa.Table:
    """BLOB_GROUPS rows -> the flat comparable projection the G1
    oracle re-derives in SQL (top-instance fields expose the dedup
    window's choice; corpora the capped member set)."""
    import pickle

    import pyarrow.compute as pc

    insts = [pickle.loads(b) for b in batch["instances_blob"].to_pylist()]
    top = [r[0] for r in insts]
    return pa.table(
        {
            "key": batch["key"],
            "arg1_norm": batch["arg1_norm"],
            "rel_norm": batch["rel_norm"],
            "arg2_norm": batch["arg2_norm"],
            "size": pc.cast(batch["size"], pa.int64()),
            "raw_count": batch["raw_count"],
            "top_conf": pa.array(
                [t["confidence"] for t in top], pa.float64()
            ),
            "top_sentence": pa.array(
                [t["tokens"] if isinstance(t["tokens"], str)
                 else " ".join(t["tokens"]) for t in top], pa.string()
            ),
            "top_source_url": pa.array(
                [t["source_url"] for t in top], pa.string()
            ),
            "corpora": pa.array(
                [",".join(sorted({i["corpus"] for i in r})) for r in insts],
                pa.string(),
            ),
        }
    )


_ensured: str | None = None


def ensure_views() -> str:
    """Write the views once per process (atomic); return the directory."""
    global _ensured
    d = views_dir()
    if _ensured == d:
        return d
    names = ("groups", "instances", "tokens", "media", "extractions")
    if not all(
        os.path.exists(os.path.join(d, f"{n}.parquet")) for n in names
    ):
        # build before creating the directory: without the reference
        # the build raises, and must leave nothing behind
        views = build_views()
        views["extractions"] = build_extractions()
        os.makedirs(d, exist_ok=True)
        for n in names:
            tmp = os.path.join(d, f".{n}.parquet.{os.getpid()}.tmp")
            pq.write_table(views[n], tmp)
            os.replace(tmp, os.path.join(d, f"{n}.parquet"))
    _ensured = d
    return d
