"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG-construction pipeline at sf0.001;
``queries()`` exposes one callable per implemented operator from
SURVEY.md §2 plus the content-dedup (winnowing / delta / simhash),
input-sampling and multimodal-span operators; ``oracle_sql()`` gives
each SQL-expressible query its DuckDB twin over the same parquet views.

Ray is initialised by the driver BEFORE this module is imported: no
``ray.init()`` / ``ray.shutdown()`` here or in the library code.

Parity notes (why values hash-match across engines):
- every cross-engine hash uses md5 (python hashlib == DuckDB md5());
- ratios are single int/int float64 divisions (bit-identical IEEE),
  never round()ed (numpy half-even vs DuckDB half-up differ);
- typer weight sums are int64 micros (distributed-sum exact).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import Any

SF_SMOKE = "/root/testdata/sf0.001"


def _read(sf_dir: str, table: str, columns=None):
    """Column-pruned parquet read, plus a SMALL-INPUT SPLIT: the sf
    test tables are single-row-group files, which Ray cannot split at
    read time — the fused read->map stage runs as ONE task and every
    per-doc op (winnowing, simhash) serializes.  When the file's
    row-group count is below the CPU count (a driver-side O(1)
    metadata check), repartition to ~2 blocks/CPU (measured 4.8x at
    sf0.1 on the MinHash entry this split was tuned on, since
    deleted).  At production scale the input is thousands of
    files/row groups, the condition is false, and NO repartition
    happens — an unconditional repartition would be an all-to-all
    exchange of the whole corpus."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data

    path = f"{sf_dir}/{table}.parquet"
    ds = ray.data.read_parquet(path, columns=columns)
    try:
        # a directory-shaped dataset, a missing path or a remote URI
        # raises OSError: keep the read as it is
        meta = pq.ParquetFile(path).metadata
    except (OSError, pa.ArrowInvalid):
        return ds
    cpus = (int(ray.cluster_resources().get("CPU", 8))
            if ray.is_initialized() else 8)
    if meta.num_row_groups < cpus:
        target = min(2 * cpus, max(1, meta.num_rows // 64))
        if target > meta.num_row_groups:
            ds = ds.repartition(target)
    return ds


def _interleaved_docs(sf_dir: str):
    from openie_backend_ray.sources.interleaved import interleave_flat

    return interleave_flat(_read(sf_dir, "documents", ["doc_id", "text"]))


# ---------------------------------------------------------------------------
# flagship KG pipeline
# ---------------------------------------------------------------------------

def _flagship(sf_dir: str):
    """Interleaved docs (from the flat table) + the golden fixture corpus
    -> extraction groups -> linked, deduped triples. The fixture corpus
    supplies linguistically real sentences (the sf documents are word
    salad); the sf docs still flow through every stage, exercising the
    span plumbing at scale."""
    import ray

    from openie_backend_ray.fixtures.corpus import (
        build_chunker_lexicon,
        documents_dataset,
    )
    from openie_backend_ray.fixtures.side_tables import build_side_tables
    from openie_backend_ray.pipelines.flagship import run_flagship

    sf_docs = _interleaved_docs(sf_dir)
    fixture_docs = documents_dataset(n_blocks=8)
    docs = sf_docs.union(fixture_docs)
    from openie_backend_ray.stages.linker import prepare_linker_tables

    lex_ref = ray.put(build_chunker_lexicon())
    st_ref = ray.put(prepare_linker_tables(build_side_tables()))
    groups = run_flagship(
        docs, lexicon_ref=lex_ref, side_tables_ref=st_ref, corpus="cw"
    )
    return groups


def _flagship_triples(sf_dir: str):
    """Projection without the nested provenance columns (stable scalar
    schema for the driver's rows-only check)."""
    import pyarrow as pa

    groups = _flagship(sf_dir)
    return groups.map_batches(
        lambda b: pa.table(
            {
                "arg1_norm": b["arg1_norm"],
                "rel_norm": b["rel_norm"],
                "arg2_norm": b["arg2_norm"],
                "size": b["size"],
                "arg1_linked": pa.array(
                    [e is not None for e in b["arg1_entity"].to_pylist()],
                    pa.bool_(),
                ),
                "arg2_linked": pa.array(
                    [e is not None for e in b["arg2_entity"].to_pylist()],
                    pa.bool_(),
                ),
            }
        ),
        batch_format="pyarrow",
    )


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows>=0."""
    return _flagship_triples(SF_SMOKE)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def queries() -> dict[str, Callable[[str], Any]]:
    from openie_backend_ray.ops import dedup as D
    from openie_backend_ray.ops import multimodal as MM
    from openie_backend_ray.stages.sentences import explode_text_spans

    def q_explode_text_spans(sf_dir: str):
        return _interleaved_docs(sf_dir).map_batches(
            explode_text_spans, batch_format="pyarrow"
        )

    def q_media_spans(sf_dir: str):
        return _interleaved_docs(sf_dir).map_batches(
            MM.explode_media_spans, batch_format="pyarrow"
        )

    def q_winnow_fingerprints(sf_dir: str):
        return D.winnow_fingerprints(
            _read(sf_dir, "documents", ["doc_id", "text"])
        )

    def q_delta_dedup(sf_dir: str):
        """Incremental ingest dedup: the doc_id % 10 == 0 split plays
        the incoming delta, the rest the existing store."""
        import pyarrow as pa

        docs = _read(sf_dir, "documents", ["doc_id", "text"])

        def split(keep_delta: bool):
            def body(b):
                ids = b["doc_id"].to_numpy(zero_copy_only=False)
                return b.filter(pa.array((ids % 10 == 0) == keep_delta))
            return body

        return D.delta_dedup(
            docs.map_batches(split(True), batch_format="pyarrow"),
            docs.map_batches(split(False), batch_format="pyarrow"),
        )

    def q_simhash(sf_dir: str):
        return D.simhash(_read(sf_dir, "documents", ["doc_id", "text"]))

    def q_hash_sample(sf_dir: str):
        from openie_backend_ray.sources.sampler import hash_sample

        return hash_sample(
            _read(sf_dir, "documents", ["doc_id", "text"]), key="doc_id"
        )

    def q_media_features(sf_dir: str):
        return MM.media_features(_interleaved_docs(sf_dir))

    def q_media_frames(_sf_dir: str):
        """Frame sampling runs over the fixture corpus — the sf flat
        table synthesizes only image spans (rows-only check; the frame
        count derivation is unit-tested against the sha256 stream)."""
        from openie_backend_ray.fixtures.corpus import documents_dataset

        return MM.media_frames(documents_dataset(n_blocks=8), every=2)

    # -- post-group KG operators over the golden fixture groups table
    # (rows-only checks: the GROUPS input is not a SQL view) ---------
    def _fixture_groups_ds(_sf_dir: str):
        import ray.data

        from openie_backend_ray.fixtures.corpus import build_groups_table

        return ray.data.from_arrow(build_groups_table()).repartition(8)

    def q_extreme_filter(sf_dir: str):
        import pyarrow as pa

        from openie_backend_ray.stages.postgroup import extreme_filter

        out = extreme_filter(_fixture_groups_ds(sf_dir))
        return out.map_batches(
            lambda b: pa.table({"arg1_norm": b["arg1_norm"],
                                "rel_norm": b["rel_norm"],
                                "arg2_norm": b["arg2_norm"],
                                "size": b["size"]}),
            batch_format="pyarrow",
        )

    def q_dedup_groups(sf_dir: str):
        import pyarrow as pa

        from openie_backend_ray.stages.postprocess import (
            dedup_groups_batch,
        )

        out = _fixture_groups_ds(sf_dir).map_batches(
            dedup_groups_batch, batch_format="pyarrow"
        )
        return out.map_batches(
            lambda b: pa.table({"arg1_norm": b["arg1_norm"],
                                "rel_norm": b["rel_norm"],
                                "arg2_norm": b["arg2_norm"],
                                "size": b["size"]}),
            batch_format="pyarrow",
        )

    def q_filter_groups(sf_dir: str):
        import pyarrow as pa

        from openie_backend_ray.stages.postprocess import (
            filter_groups_batch,
        )

        out = _fixture_groups_ds(sf_dir).map_batches(
            filter_groups_batch, batch_format="pyarrow"
        )
        return out.map_batches(
            lambda b: pa.table({"arg1_norm": b["arg1_norm"],
                                "rel_norm": b["rel_norm"],
                                "arg2_norm": b["arg2_norm"],
                                "size": b["size"]}),
            batch_format="pyarrow",
        )

    def q_head_phrases(sf_dir: str):
        from openie_backend_ray.stages.postgroup import head_phrases

        return head_phrases(_fixture_groups_ds(sf_dir))

    def q_answer_projections(sf_dir: str):
        from openie_backend_ray.stages.postgroup import answer_projections

        return answer_projections(_fixture_groups_ds(sf_dir))

    def q_regroup(sf_dir: str):
        import pyarrow as pa

        from openie_backend_ray.stages.postgroup import regroup

        out = regroup(_fixture_groups_ds(sf_dir))
        return out.map_batches(
            lambda b: pa.table({"arg1_norm": b["arg1_norm"],
                                "rel_norm": b["rel_norm"],
                                "arg2_norm": b["arg2_norm"],
                                "size": b["size"]}),
            batch_format="pyarrow",
        )

    def q_inlink_ratio(sf_dir: str):
        from openie_backend_ray.stages.postgroup import inlink_ratio

        return inlink_ratio(_fixture_groups_ds(sf_dir))

    def q_arg_pairs(sf_dir: str):
        from openie_backend_ray.stages.postgroup import arg_pairs

        return arg_pairs(_fixture_groups_ds(sf_dir))

    def q_renormalize(sf_dir: str):
        import pyarrow as pa

        from openie_backend_ray.stages.postgroup import renormalize

        out = renormalize(_fixture_groups_ds(sf_dir))
        return out.map_batches(
            lambda b: pa.table({"arg1_norm": b["arg1_norm"],
                                "rel_norm": b["rel_norm"],
                                "arg2_norm": b["arg2_norm"],
                                "size": b["size"]}),
            batch_format="pyarrow",
        )

    def q_canonicalize(sf_dir: str):
        import pyarrow as pa

        from openie_backend_ray.stages.canonicalize import canonicalize

        out = canonicalize(_fixture_groups_ds(sf_dir))
        return out.map_batches(
            lambda b: pa.table(
                {"arg1_norm": b["arg1_norm"],
                 "rel_norm": b["rel_norm"],
                 "arg2_norm": b["arg2_norm"],
                 "size": b["size"],
                 "linked": pa.array(
                     [
                         (a is not None) or (c is not None)
                         for a, c in zip(
                             b["arg1_entity"].to_pylist(),
                             b["arg2_entity"].to_pylist(),
                         )
                     ],
                     pa.bool_(),
                 )}
            ),
            batch_format="pyarrow",
        )

    def q_openie4_triples(sf_dir: str):
        """OpenIE4 corpus path (M3/M4 -> G1): sf docs + fixture corpus
        -> chunk -> Relnoun T-extractions -> keyed -> grouped."""
        import pyarrow as pa
        import ray

        from openie_backend_ray.fixtures.corpus import (
            build_chunker_lexicon,
            documents_dataset,
        )
        from openie_backend_ray.stages.openie4 import (
            openie4_triples_from_documents,
        )

        docs = _interleaved_docs(sf_dir).union(documents_dataset(n_blocks=8))
        lex_ref = ray.put(build_chunker_lexicon())
        groups = openie4_triples_from_documents(
            docs, lexicon_ref=lex_ref, corpus="cw"
        )
        return groups.map_batches(
            lambda b: pa.table(
                {"arg1_norm": b["arg1_norm"],
                 "rel_norm": b["rel_norm"],
                 "arg2_norm": b["arg2_norm"],
                 "size": b["size"]}
            ),
            batch_format="pyarrow",
        )

    def _q_group_extractions(salted: bool):
        """G1 grouper hash-oracle (the extraction back half): Ray runs
        the REAL combiner + shuffle + merge over the materialized
        keyed-extractions view; DuckDB re-derives the grouping (dedup
        window, caps, top instance) from the same parquet.  The salted
        variant proves the two-phase skew path is output-identical."""
        import ray.data

        from openie_backend_ray.fixtures.views import (
            ensure_views,
            keyed_rows_from_view,
            project_blob_groups,
        )
        from openie_backend_ray.stages.grouper import (
            group_extractions,
            group_extractions_salted,
        )

        d = ensure_views()
        keyed = (
            ray.data.read_parquet(f"{d}/extractions.parquet")
            .repartition(8)  # multiple blocks -> real multi-partial merges
            .map_batches(keyed_rows_from_view, batch_format="pyarrow")
        )
        fn = group_extractions_salted if salted else group_extractions
        blob = fn(keyed, finalize=False)
        return blob.map_batches(project_blob_groups, batch_format="pyarrow")

    def q_group_extractions(_sf_dir: str):
        return _q_group_extractions(salted=False)

    def q_group_extractions_salted(_sf_dir: str):
        return _q_group_extractions(salted=True)

    def q_fetch_groups(_sf_dir: str):
        """S5/J5 serving path end-to-end: materialize the fixture
        GROUPS to a sorted partitioned triples table, then run the
        budgeted size-tiered fetch (stoplist on, budgets ample so the
        status is Success and the result set is every group)."""
        import os

        import pyarrow as pa

        from openie_backend_ray.pipelines.flagship import (
            materialize_triples,
        )
        from openie_backend_ray.pipelines.query import fetch_groups

        from openie_backend_ray.fixtures.views import views_dir

        out_dir = os.path.join(views_dir(), "triples_store")
        marker = os.path.join(out_dir, "_DONE")
        if not os.path.exists(marker):
            materialize_triples(_fixture_groups_ds(_sf_dir), out_dir)
            open(marker, "w").close()
        rs = fetch_groups(out_dir, max_groups=10_000,
                          max_instances=1_000_000)
        assert rs.status == "success"
        return pa.table(
            {
                "arg1_norm": pa.array(
                    [r["arg1_norm"] for r in rs.results], pa.string()),
                "rel_norm": pa.array(
                    [r["rel_norm"] for r in rs.results], pa.string()),
                "arg2_norm": pa.array(
                    [r["arg2_norm"] for r in rs.results], pa.string()),
                "size": pa.array(
                    [r["size"] for r in rs.results], pa.int32()),
            }
        )

    def q_type_predictions(sf_dir: str):
        from openie_backend_ray.stages.typer import (
            TyperSettings,
            predict_arg_types,
        )

        # fixture-scale thresholds (the production defaults need web
        # scale group counts per rel to fire)
        settings = TyperSettings(arg_field="arg1", min_share_score=2,
                                 min_rel_weight=0.05)
        preds = predict_arg_types(_fixture_groups_ds(sf_dir), settings)
        import pyarrow as pa

        return preds.map_batches(
            lambda b: pa.table({"arg_norm": b["arg_norm"],
                                "types": b["types"]}),
            batch_format="pyarrow",
        )

    # The driver's correctness check covers only the FIRST 50 entries;
    # there are fewer than that, so every entry is checked.  The KG
    # core (the operators the reference exists for) registers first.
    return {
        # -- KG core (SURVEY §2 G/M/S operators) ----------------------
        "group_extractions": q_group_extractions,
        "group_extractions_salted": q_group_extractions_salted,
        "canonicalize": q_canonicalize,
        "type_predictions": q_type_predictions,
        "openie4_triples": q_openie4_triples,
        "fetch_groups": q_fetch_groups,
        "renormalize": q_renormalize,
        "inlink_ratio": q_inlink_ratio,
        "arg_pairs": q_arg_pairs,
        "regroup": q_regroup,
        "extreme_filter": q_extreme_filter,
        "dedup_groups": q_dedup_groups,
        "filter_groups": q_filter_groups,
        "head_phrases": q_head_phrases,
        "answer_projections": q_answer_projections,
        "flagship_triples": _flagship_triples,
        # -- content dedup / sampling / sources / multimodal --------
        "winnow_fingerprints": q_winnow_fingerprints,
        "delta_dedup": q_delta_dedup,
        "hash_sample": q_hash_sample,
        "explode_text_spans": q_explode_text_spans,
        "media_features": q_media_features,
        "media_frames": q_media_frames,
        "media_spans": q_media_spans,
        "simhash": q_simhash,
    }


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

# winnowing token source: chr(30) is stripped BEFORE tokenizing
# (mirrors ops.dedup._dedup_tokens — \x1e is not regex whitespace, so
# without the strip it would survive inside a token)
_DTOKS = r"regexp_split_to_array(replace(text, chr(30), ''), '\s+')"

# winnowing twin (ops.dedup.winnow_fingerprints_batch): k-gram md5s,
# distinct window-of-w minimums; short docs hash the whole text
_WINNOW_CTE = f"""
t AS (SELECT doc_id, {_DTOKS} AS toks FROM documents),
h AS (
  SELECT doc_id,
         CASE WHEN len(toks) < 3
              THEN [md5(array_to_string(toks, ' '))]
              ELSE list_transform(range(1, len(toks) - 1),
                     i -> md5(array_to_string(toks[i:i+2], ' ')))
         END AS hs
  FROM t),
sel AS (
  SELECT doc_id,
         CASE WHEN len(hs) <= 4 THEN [list_min(hs)]
              ELSE list_distinct(list_transform(
                     range(1, len(hs) - 2),
                     i -> list_min(hs[i:i+3])))
         END AS fps
  FROM h)
"""

# 64-bit SimHash in SQL: md5 bytes -> +-1 bits weighted by token
# multiplicity -> sign -> nibble hex (matches ops.dedup.simhash_batch
# bit-for-bit; validated over the full sf0.001 table)
_SIMHASH_CTE = r"""
tok AS (SELECT doc_id,
               unnest(regexp_split_to_array(text, '\s+')) AS token
        FROM documents),
th AS (SELECT doc_id, token, count(*) AS n, md5(token) AS h
       FROM tok GROUP BY doc_id, token),
bits AS (
  SELECT doc_id, b.bit,
     sum(n * (2 * (((16*(strpos('0123456789abcdef',
                                substr(h, (b.bit//8)*2+1, 1))-1)
                     + strpos('0123456789abcdef',
                              substr(h, (b.bit//8)*2+2, 1))-1)
                   >> (7 - (b.bit % 8))) & 1) - 1)) AS s
  FROM th CROSS JOIN (SELECT unnest(range(0, 64)) AS bit) b
  GROUP BY doc_id, b.bit),
nibs AS (SELECT doc_id, bit//4 AS ni,
                sum(CASE WHEN s > 0 THEN 1<<(3-(bit%4)) ELSE 0 END) AS nv
         FROM bits GROUP BY doc_id, bit//4),
sh64 AS (SELECT doc_id,
                string_agg(substr('0123456789abcdef',
                                  CAST(nv AS INT)+1, 1), ''
                           ORDER BY ni) AS simhash,
                CAST(sum(CASE WHEN nv > 0
                              THEN CAST(nv AS HUGEINT)
                                   << ((15 - ni) * 4)
                              ELSE 0 END) AS UBIGINT) AS v
         FROM nibs GROUP BY doc_id)
"""


def oracle_sql() -> Mapping[str, str]:
    from openie_backend_ray.fixtures.oracles import OracleSQL

    return OracleSQL({
        "explode_text_spans": """
            SELECT CAST(doc_id AS VARCHAR) AS doc_id,
                   CAST(CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END
                        AS INTEGER) AS span_idx,
                   text
            FROM documents
        """,
        "media_spans": """
            SELECT CAST(doc_id AS VARCHAR) AS doc_id,
                   CAST(0 AS INTEGER) AS span_idx,
                   'image' AS kind,
                   'media://image/' || CAST(doc_id AS VARCHAR) AS media_ref
            FROM documents WHERE doc_id % 3 = 0
        """,
        # winnowing (k=3 grams, w=4 windows): selecting window-min by
        # VALUE makes the fingerprint set tie-rule-free, so list_min
        # over md5 hex == Python min over the same hex strings
        "winnow_fingerprints": f"""
            WITH {_WINNOW_CTE}
            SELECT doc_id, unnest(fps) AS fp FROM sel
        """,
        # delta-vs-store content dedup: per delta doc, how many of its
        # winnowed fingerprints exist anywhere in the store split
        "delta_dedup": f"""
            WITH {_WINNOW_CTE},
            e AS (SELECT doc_id, unnest(fps) AS fp FROM sel),
            st AS (SELECT DISTINCT fp FROM e WHERE doc_id % 10 <> 0),
            dl AS (SELECT doc_id, fp FROM e WHERE doc_id % 10 = 0)
            SELECT dl.doc_id, CAST(count(*) AS BIGINT) AS n_shared
            FROM dl JOIN st USING (fp)
            GROUP BY dl.doc_id
        """,
        "hash_sample": """
            SELECT doc_id, text FROM documents
            WHERE md5(CAST(doc_id AS VARCHAR)) < '4'
        """,
        "simhash": f"""
            WITH {_SIMHASH_CTE}
            SELECT doc_id, simhash FROM sh64
        """,
        # flagship_triples / openie4_triples: deliberately omitted (the
        # extraction pipelines themselves are not SQL-expressible;
        # their correctness gates are the pytest P/R fixtures) ->
        # driver records the weaker rows-only check.  OracleSQL adds
        # the post-group KG operators' oracles from fixtures/oracles.py,
        # over exploded parquet views of the same golden GROUPS
        # fixture; those views are written on the first read of a KG
        # entry, so the oracles above never read the reference.
    })
