"""Resumability (north rule): per-shard lineage manifests; a rerun
skips completed shards; a killed/partial run resumes to identical
output."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from openie_backend_ray.state.checkpoint import (
    MANIFEST,
    fingerprint_paths,
    run_shard,
    run_sharded,
    shard_complete,
)

REPO = str(Path(__file__).resolve().parents[1])


@pytest.fixture()
def inputs(tmp_path):
    paths = {}
    for i in range(4):
        p = tmp_path / f"in{i}.parquet"
        pq.write_table(
            pa.table({"x": pa.array(range(i * 10, i * 10 + 10))}), p
        )
        paths[f"{i:03d}"] = [str(p)]
    return paths


def _compute(calls):
    def compute(paths, tmp_out):
        calls.append(paths)
        t = pq.read_table(paths[0])
        out = pa.table({"x2": pa.compute.multiply(t["x"], 2)})
        pq.write_table(out, os.path.join(tmp_out, "out.parquet"))
        return {"rows_out": out.num_rows}

    return compute


def test_rerun_skips_completed_shards(tmp_path, inputs):
    out_root = str(tmp_path / "out")
    calls: list = []
    m1 = run_sharded(inputs, out_root, _compute(calls))
    assert len(calls) == 4
    assert all(not m["skipped"] for m in m1)

    calls2: list = []
    m2 = run_sharded(inputs, out_root, _compute(calls2))
    assert calls2 == []  # nothing recomputed
    assert all(m["skipped"] for m in m2)
    assert [m["metrics"]["rows_out"] for m in m2] == [10] * 4


def test_input_change_invalidates_shard(tmp_path, inputs):
    out_root = str(tmp_path / "out")
    calls: list = []
    run_sharded(inputs, out_root, _compute(calls))
    # mutate one input -> only that shard recomputes
    target = inputs["002"][0]
    pq.write_table(pa.table({"x": pa.array([99, 100])}), target)
    calls2: list = []
    m2 = run_sharded(inputs, out_root, _compute(calls2))
    assert len(calls2) == 1
    recomputed = [m for m in m2 if not m["skipped"]]
    assert len(recomputed) == 1
    assert recomputed[0]["shard_id"] == "002"
    assert recomputed[0]["metrics"]["rows_out"] == 2


def test_crash_mid_run_resumes(tmp_path, inputs):
    """Simulated kill: compute raises on shard 002; rerun completes only
    the missing shards and the final output equals a clean run's."""
    out_root = str(tmp_path / "out")

    class Boom(RuntimeError):
        pass

    def flaky(paths, tmp_out):
        if "in2" in paths[0]:
            raise Boom("crash")
        t = pq.read_table(paths[0])
        out = pa.table({"x2": pa.compute.multiply(t["x"], 2)})
        pq.write_table(out, os.path.join(tmp_out, "out.parquet"))
        return {"rows_out": out.num_rows}

    with pytest.raises(Boom):
        run_sharded(inputs, out_root, flaky)
    # shards 000,001 complete; 002 failed mid-flight, nothing committed
    fp2 = fingerprint_paths(inputs["002"])
    assert not shard_complete(os.path.join(out_root, "shard=002"), fp2)

    calls: list = []
    m2 = run_sharded(inputs, out_root, _compute(calls))
    assert {m["shard_id"] for m in m2 if not m["skipped"]} == {"002", "003"}
    # all manifests now present + lineage recorded
    for sid, paths in inputs.items():
        mpath = os.path.join(out_root, f"shard={sid}", MANIFEST)
        with open(mpath, encoding="utf-8") as f:
            m = json.load(f)
        assert m["complete"] and m["input_paths"] == list(paths)
        assert "wall_sec" in m and "rows_out" in m["metrics"]


def test_atomic_commit_no_partial_dir(tmp_path, inputs):
    out_root = str(tmp_path / "out")

    def flaky(paths, tmp_out):
        pq.write_table(pa.table({"x2": pa.array([1])}),
                       os.path.join(tmp_out, "out.parquet"))
        raise RuntimeError("die after partial write")

    with pytest.raises(RuntimeError):
        run_shard("000", inputs["000"], os.path.join(out_root, "shard=000"),
                  flaky)
    # the final dir never appeared (only the .tmp staging dir may exist)
    assert not os.path.exists(os.path.join(out_root, "shard=000"))


def test_rows_out_read_from_parquet_footers(tmp_path, inputs):
    """A compute that only writes (returns no metrics) still gets
    ``rows_out``: run_shard counts the rows of the files it wrote."""
    def write_only(paths, tmp_out):
        t = pq.read_table(paths[0])
        pq.write_table(t.slice(0, 4), os.path.join(tmp_out, "a.parquet"))
        pq.write_table(t.slice(4), os.path.join(tmp_out, "b.parquet"))
        return {}

    m = run_shard("000", inputs["000"], str(tmp_path / "shard=000"),
                  write_only)
    assert m["metrics"] == {"rows_out": 10}
    with open(tmp_path / "shard=000" / MANIFEST, encoding="utf-8") as f:
        assert json.load(f)["metrics"]["rows_out"] == 10


def _table(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _group_rows(ds) -> list:
    """Order-free form of a GROUPS Dataset: one (triple, size, sorted
    instances) tuple per group."""
    return sorted(
        (r["arg1_norm"], r["rel_norm"], r["arg2_norm"], r["size"],
         sorted(repr(i) for i in r["instances"]))
        for r in _table(ds).to_pylist()
    )


@pytest.mark.xfail(
    strict=True,
    reason="the G3 near-duplicate instance dedup runs inside each "
           "shard's flagship, and regroup concatenates the per-shard "
           "instances without deduping them again, so two near-duplicate "
           "sentences in different shards both survive (12 of 658 groups "
           "have size 2 where the whole run has 1; equal with dedup=False)",
)
def test_sharded_regroup_matches_whole_run(ray_session):
    """The resumable flagship's claim: a flagship run per input shard,
    then ``regroup`` over the union, equals one run over every
    document.  Two disjoint halves of the sf0.001 interleaved docs, no
    lexicon, no side tables."""
    import ray.data

    from openie_backend_ray.pipelines.flagship import run_flagship
    from openie_backend_ray.stages.postgroup import regroup

    sys.path.insert(0, REPO)
    import __ray_entry__ as E

    docs = _table(E._interleaved_docs(E.SF_SMOKE)).sort_by("doc_id")
    half = docs.num_rows // 2
    shards = [
        run_flagship(ray.data.from_arrow(part)).materialize()
        for part in (docs.slice(0, half), docs.slice(half))
    ]
    whole = run_flagship(ray.data.from_arrow(docs))
    sharded = regroup(shards[0].union(shards[1]))
    assert _group_rows(sharded) == _group_rows(whole)
