"""Flagship batch corpus pipeline (SURVEY.md §3.1).

Reference flow (one Hadoop job per arrow, text checkpoints between):

    [sentence, url] -> chunk -> extract -> group(+conf) -> link ->
    filter -> index

Ray Data flow. ``run_flagship`` is the one entry point for both inputs:
interleaved documents (``doc_id, spans``) and the reference's
``[sentence, url]`` lines (``text, source_url``). A documents table is
the line input with ``source_url = ""``.

    read documents or lines (Parquet/Lance)
      -> unique_sentences       (map-side (text, url) counts, then a
                                 hash exchange on text)
      -> extract_combine tasks  (chunk + ReVerb + key + confidence,
                                 once per unique text, models resident
                                 per worker; G1 map-side combine)
      -> merge_blob_shuffle     (G1 reduce, caps)
      -> link_batch tasks       (with side tables, a LinkerActor
                                 resident per worker; else
                                 finalize_groups; either one applies
                                 the per-group G3 instance dedup as it
                                 converts blobs)
      -> materialize_triples    (sorted Parquet)

The flagship holds no actor pool: every stage runs in Ray tasks, whose
workers Ray reuses across Datasets, so a run starts no process and
holds no CPU once it ends.

Filters (M7-M9, ``postprocess.filter_groups_batch``) and
canonicalization (G4, ``canonicalize``) are separate jobs, like the
reference's separately-invoked ones.
"""

from __future__ import annotations

from typing import Any

import ray.data

from openie_backend_ray.stages.extract_pipeline import extract_and_combine
from openie_backend_ray.stages.grouper import merge_blob_shuffle
from openie_backend_ray.stages.linker import link_or_finalize


def run_flagship(
    ds: ray.data.Dataset,
    lexicon_ref: Any | None = None,
    side_tables_ref: Any | None = None,
    corpus: str = "corpus",
    dedup: bool = True,
) -> ray.data.Dataset:
    """Full pipeline: documents or ``[sentence, url]`` lines -> linked
    (optionally deduped) ExtractionGroups.

    Defaults mirror the reference fixture provenance (test-groups.txt is
    grouper+linker output, pre-filter). Without ``side_tables_ref`` the
    groups are left unlinked. ``dedup`` (G3) runs inside the G1 tail
    and gives the rows ``postprocess.dedup_groups_batch`` would give
    afterwards."""
    return link_or_finalize(
        merge_blob_shuffle(
            extract_and_combine(ds, lexicon_ref=lexicon_ref, corpus=corpus)
        ),
        side_tables_ref,
        dedup=dedup,
    )


# kept for perfbench/ imports
run_flagship_sentences = run_flagship


def materialize_triples(groups_ds: ray.data.Dataset, out_dir: str) -> None:
    """S4: the triples table — groups sorted by the normalized triple,
    written as partitioned Parquet (the query-layer contract fields of
    ``backend/.../ReVerbDocumentConverter.scala:22-88``: norms, entities,
    types, size, corpora, full instances as provenance)."""
    groups_ds.sort(["arg1_norm", "rel_norm", "arg2_norm"]).write_parquet(
        out_dir
    )
