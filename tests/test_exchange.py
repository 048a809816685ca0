"""The hash exchange (``ops/partition.exchange``): output does not depend
on the partition count P.  Each check runs at P = 1 (every key in one
partition), 8 (many keys per partition) and 64 (few keys per partition)
on generated input with hundreds of keys, and compares full sorted
rows, instances included.  No reference fixture is needed."""

from __future__ import annotations

import json
import pickle
import random

import pyarrow as pa
import pytest

_PARTS = (1, 8, 64)


def _lines() -> list[tuple[str, str]]:
    """300 keys ``entity{i} visit city{i % 150}``, each stated by two
    sentences, each sentence under two URLs and repeated 1-3 times, in
    a fixed shuffled order."""
    rows = []
    for i in range(300):
        city = i % 150
        for text in (f"Entity{i} visited City{city} .",
                     f"Entity{i} visited City{city} in {1990 + i % 7} ."):
            for url in (f"http://a.example/{i}",
                        f"http://b.example/{i % 13}"):
                rows += [(text, url)] * (1 + i % 3)
    # spread each sentence's repeats over the input blocks
    random.Random(0).shuffle(rows)
    return rows


def _keyed(rows) -> pa.Table:
    """One keyed extraction row per occurrence (the unfused map side),
    tagged driver-side with the model layers."""
    from openie_backend_ray.stages.chunker import model_layers
    from openie_backend_ray.stages.extractor import extract_batch

    layers = {t: model_layers(t) for t in {t for t, _ in rows}}
    return extract_batch(pa.table({
        "doc_id": pa.array([str(i) for i in range(len(rows))], pa.string()),
        "span_idx": pa.array([0] * len(rows), pa.int32()),
        "tokens": [layers[t][0] for t, _ in rows],
        "postags": [layers[t][1] for t, _ in rows],
        "chunks": [layers[t][2] for t, _ in rows],
        "source_url": pa.array([u for _, u in rows], pa.string()),
    }), corpus="cw")


def _canon(ds) -> list[str]:
    """Every column of every row, as sorted canonical JSON; a G1 blob
    is compared as its instance list, in order."""
    def row(r: dict) -> dict:
        if "instances_blob" in r:
            r["instances_blob"] = pickle.loads(r["instances_blob"])
        return r

    return sorted(json.dumps(row(r), sort_keys=True, default=str)
                  for r in ds.take_all())


@pytest.fixture(scope="module")
def outputs(ray_session):
    """Every checked operator's canonical output at each P."""
    import pyarrow.compute as pc
    import ray.data as rd

    from openie_backend_ray.ops import partition
    from openie_backend_ray.pipelines.incremental import (
        _flag_origin,
        _regroup_touched,
    )
    from openie_backend_ray.stages.extract_pipeline import unique_sentences
    from openie_backend_ray.stages.grouper import (
        group_extractions,
        group_extractions_salted,
    )

    rows = _lines()
    lines = pa.table({"text": [t for t, _ in rows],
                      "source_url": [u for _, u in rows]})
    keyed = _keyed(rows)
    # regroup input: groups of the year-less sentences (existing) and
    # of every sentence of the even entities (delta) overlap on the
    # even keys, so their instance lists merge
    existing = _keyed([r for r in rows if " in " not in r[0]])
    delta = _keyed([r for r in rows
                    if int(r[0].split()[0][len("Entity"):]) % 2 == 0])

    def per_key(g: pa.Table) -> pa.Table:
        return pa.table({
            "key": g["key"].slice(0, 1),
            "rows": pa.array([g.num_rows], pa.int64()),
            "urls": pa.array([sorted(set(g["source_url"].to_pylist()))]),
            "conf": pa.array([round(pc.sum(g["confidence"]).as_py(), 9)]),
        })

    got = {}
    with pytest.MonkeyPatch.context() as mp:
        for p in _PARTS:
            mp.setattr(partition, "partition_count", lambda n=p: n)
            keyed_ds = rd.from_arrow(keyed).repartition(6)
            groups_old = group_extractions(
                rd.from_arrow(existing).repartition(3))
            groups_new = group_extractions(
                rd.from_arrow(delta).repartition(3))
            got[p] = {
                "unique_sentences": _canon(unique_sentences(
                    rd.from_arrow(lines).repartition(5))),
                # unfinalized G1 rows carry raw_count and the blob
                "group_extractions": _canon(
                    group_extractions(keyed_ds, finalize=False)),
                "group_extractions_salted": _canon(
                    group_extractions_salted(keyed_ds, finalize=False)),
                "regroup_touched": _canon(_regroup_touched(
                    groups_old.map_batches(_flag_origin(False),
                                           batch_format="pyarrow")
                    .union(groups_new.map_batches(
                        _flag_origin(True), batch_format="pyarrow")))),
                "partition_map_groups": _canon(partition.partition_map_groups(
                    keyed_ds, "key", per_key)),
            }
    return got


@pytest.mark.parametrize("op", ["unique_sentences", "group_extractions",
                                "group_extractions_salted",
                                "regroup_touched", "partition_map_groups"])
def test_output_independent_of_partition_count(outputs, op):
    base = outputs[_PARTS[0]][op]
    assert len(base) >= 300
    for p in _PARTS[1:]:
        assert outputs[p][op] == base, f"{op} differs at P={p}"


def test_salted_grouping_matches_plain(outputs):
    """The reference-free twin of the gated
    ``test_salted_grouping_identical``: two-phase salted G1 gives the
    plain G1's rows at every P."""
    for p in _PARTS:
        assert (outputs[p]["group_extractions_salted"]
                == outputs[p]["group_extractions"])


_LAZY_UPDATE = """
import json, sys
import ray
ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from openie_backend_ray.pipelines.incremental import incremental_update
merged, _, _ = incremental_update(ray.data.read_parquet(sys.argv[2]),
                                  ray.data.read_parquet(sys.argv[3]),
                                  ray.put(set()))
print(json.dumps({"groups": merged.count()}))
ray.shutdown()
"""


@pytest.mark.parametrize("cpus", [2, 4])
def test_incremental_update_over_lazy_reads(tmp_path, cpus):
    """``incremental_update`` over a ``read_parquet`` store and
    ``read_parquet`` docs completes at 2 and 4 Ray CPUs (the exchange's
    P follows the CPU count; a lazy read once deadlocked the
    CPU-reserving actor pools at both sizes).  Store: 60 groups; the
    delta: 60 documents, 20 of them restating store triples."""
    import os
    import subprocess
    import sys

    import pyarrow.parquet as pq

    from openie_backend_ray import schema as S
    from openie_backend_ray.stages.grouper import (
        combine_batch,
        finalize_groups,
        merge_blob_groups,
    )

    sent = "Person{} founded Company{} ."
    store = finalize_groups(merge_blob_groups(combine_batch(_keyed(
        [(sent.format(i, i), f"http://s.example/{i}") for i in range(60)]))))
    assert store.num_rows == 60
    os.makedirs(tmp_path / "store")
    pq.write_table(store, tmp_path / "store" / "part0.parquet")
    os.makedirs(tmp_path / "docs")
    for j in range(4):
        ids = range(40 + 15 * j, 55 + 15 * j)
        pq.write_table(pa.table({
            "doc_id": pa.array([f"d{i}" for i in ids], pa.string()),
            "spans": pa.array(
                [[{"kind": "text", "text": sent.format(i, i),
                   "media_ref": "", "offset": 0}] for i in ids],
                pa.list_(S.SPAN)),
        }), tmp_path / "docs" / f"part{j}.parquet")

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [repo, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", _LAZY_UPDATE, str(cpus),
         str(tmp_path / "store"), str(tmp_path / "docs")],
        cwd=repo, env=env, capture_output=True, text=True, timeout=180,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert json.loads(run.stdout.strip().splitlines()[-1]) == {"groups": 100}
