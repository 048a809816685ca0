"""Per-partition lineage + resumable checkpoints (SURVEY.md §4, north rule).

The reference's resume unit is the Hadoop job boundary (each stage
persists a text dir; a restart reruns from the last completed dir;
``docs/reverb-cluster-extraction-indexing.txt:86-94``). We keep that
stage-level semantic AND add partition-level lineage: a run is split
into input shards, each shard's output goes to its own directory,
written atomically (temp dir + rename) with a manifest recording the
input fingerprint, row counts and timings. A restarted run skips every
shard whose manifest matches its input fingerprint — "resumes without
recomputing completed partitions".
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from collections.abc import Callable, Sequence

MANIFEST = "_MANIFEST.json"


def fingerprint_paths(paths: Sequence[str]) -> str:
    """Cheap, stable input fingerprint: path + size + mtime per file."""
    h = hashlib.sha256()
    for p in sorted(paths):
        st = os.stat(p)
        h.update(f"{p}:{st.st_size}:{int(st.st_mtime)}".encode())
    return h.hexdigest()[:16]


def shard_complete(out_dir: str, input_fp: str) -> bool:
    mpath = os.path.join(out_dir, MANIFEST)
    if not os.path.exists(mpath):
        return False
    try:
        with open(mpath, encoding="utf-8") as f:
            m = json.load(f)
        return m.get("input_fingerprint") == input_fp and m.get("complete")
    except (json.JSONDecodeError, OSError):
        return False


def _parquet_rows(out_dir: str) -> int:
    """Row count of every parquet file under ``out_dir``, from footers."""
    import pyarrow.parquet as pq

    return sum(
        pq.read_metadata(os.path.join(root, f)).num_rows
        for root, _, files in os.walk(out_dir)
        for f in files if f.endswith(".parquet")
    )


def run_shard(
    shard_id: str,
    input_paths: Sequence[str],
    out_dir: str,
    compute: Callable[[Sequence[str], str], dict],
) -> dict:
    """Run one shard resumably.

    ``compute(input_paths, tmp_out_dir) -> metrics`` writes parquet into
    ``tmp_out_dir``; on success the temp dir is renamed into place and
    the manifest (lineage + metrics) written. ``metrics["rows_out"]``
    is read from the footers of the parquet files just written, so
    ``compute`` only writes (counting a lazy Dataset after writing it
    would run its pipeline twice). Returns the manifest."""
    fp = fingerprint_paths(input_paths)
    if shard_complete(out_dir, fp):
        with open(os.path.join(out_dir, MANIFEST), encoding="utf-8") as f:
            m = json.load(f)
        m["skipped"] = True
        return m
    tmp = out_dir + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp, exist_ok=True)
    t0 = time.time()
    metrics = compute(input_paths, tmp)
    metrics["rows_out"] = _parquet_rows(tmp)
    manifest = {
        "shard_id": shard_id,
        "input_paths": list(input_paths),
        "input_fingerprint": fp,
        "wall_sec": round(time.time() - t0, 3),
        "metrics": metrics,
        "complete": True,
        "skipped": False,
    }
    with open(os.path.join(tmp, MANIFEST), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1)
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.replace(tmp, out_dir)
    return manifest


def run_sharded(
    shards: dict[str, Sequence[str]],
    out_root: str,
    compute: Callable[[Sequence[str], str], dict],
) -> list[dict]:
    """Run every shard; completed shards (matching fingerprint) skip."""
    os.makedirs(out_root, exist_ok=True)
    results = []
    for shard_id, paths in sorted(shards.items()):
        out_dir = os.path.join(out_root, f"shard={shard_id}")
        results.append(run_shard(shard_id, paths, out_dir, compute))
    return results
