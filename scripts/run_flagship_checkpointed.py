"""Checkpointed, resumable flagship run (north rule: per-partition
lineage + metrics; rerun skips completed shards).

Shards the input document files, runs the full pipeline per shard with
``state.checkpoint.run_sharded`` (atomic temp-dir + manifest per
shard), then merges shard outputs with the G2 regrouper into the final
sorted triples table. Kill it mid-run and rerun: completed shards are
skipped by input fingerprint.

    python scripts/run_flagship_checkpointed.py <docs_dir> <out_root> \
        [n_shards]
"""

from __future__ import annotations

import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def shard_inputs(docs_dir: str, n_shards: int) -> dict[str, list[str]]:
    files = sorted(glob.glob(os.path.join(docs_dir, "*.parquet")))
    shards: dict[str, list[str]] = {}
    for i, f in enumerate(files):
        shards.setdefault(f"{i % n_shards:03d}", []).append(f)
    return shards


def main() -> int:
    docs_dir = sys.argv[1]
    out_root = sys.argv[2]
    n_shards = int(sys.argv[3]) if len(sys.argv) > 3 else 8

    import ray

    if not ray.is_initialized():
        cpus = os.environ.get("RAY_GRAFT_CPUS")
        ray.init(address="local",
                 num_cpus=int(cpus) if cpus else min(8, os.cpu_count() or 1),
                 include_dashboard=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from openie_backend_ray.fixtures.corpus import build_chunker_lexicon
    from openie_backend_ray.fixtures.side_tables import build_side_tables
    from openie_backend_ray.pipelines.flagship import run_flagship
    from openie_backend_ray.state.checkpoint import run_sharded

    from openie_backend_ray.stages.linker import prepare_linker_tables

    lex_ref = ray.put(build_chunker_lexicon())
    st_ref = ray.put(prepare_linker_tables(build_side_tables()))

    def compute(paths, tmp_out):
        docs = ray.data.read_parquet(list(paths))
        groups = run_flagship(
            docs, lexicon_ref=lex_ref, side_tables_ref=st_ref, corpus="cw"
        )
        groups.write_parquet(tmp_out)
        return {}  # run_shard counts rows_out from the parquet footers

    manifests = run_sharded(
        shard_inputs(docs_dir, n_shards),
        os.path.join(out_root, "shards"),
        compute,
    )
    skipped = sum(1 for m in manifests if m.get("skipped"))
    print(json.dumps({
        "shards": len(manifests),
        "skipped": skipped,
        "rows": sum(m["metrics"]["rows_out"] for m in manifests),
    }))

    # final merge (G2) across shard outputs -> sorted triples table
    from openie_backend_ray.pipelines.flagship import materialize_triples
    from openie_backend_ray.stages.postgroup import regroup

    shard_files = glob.glob(
        os.path.join(out_root, "shards", "shard=*", "*.parquet")
    )
    merged = regroup(ray.data.read_parquet(shard_files))
    triples_dir = os.path.join(out_root, "triples")
    if os.path.exists(triples_dir):  # write_parquet appends, never clears
        import shutil

        shutil.rmtree(triples_dir)
    materialize_triples(merged, triples_dir)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
