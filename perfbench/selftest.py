"""Tiny-size self-test of the benchmark's own checks; needs no Ray.

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` lists exactly the metric names and units that
   ``run.py`` prints (end to end) and ``trace.py`` prints (per layer),
   and a result line has exactly the keys correct, attempted, failed
   and metrics.
2. On a store built from a tiny planted truth, the checks pass: recall
   is 1 and no operation fails.
3. Dropping one planted group from the store lowers ``triple_recall``
   and raises the error rate: the repeat check and the fetches, which
   expect the first store's answers, both notice.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def check_names() -> None:
    from perfbench import run, trace

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END, (e2e, run.END_TO_END)
    assert layer == trace.UNITS, set(layer) ^ set(trace.UNITS)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    line = json.loads(run.result_line(0, 1, {}))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]


def store_from_truth(truth, path: str, drop=None) -> None:
    """A store holding one linked group per planted triple."""
    from openie_backend_ray import schema as S

    rows = []
    for (a1, rl, a2), (f1, f2) in sorted(truth.triples.items()):
        if (a1, rl, a2) == drop:
            continue
        rows.append({
            "arg1_norm": a1, "rel_norm": rl, "arg2_norm": a2,
            "arg1_entity": f1 and {"name": a1, "fbid": f1, "score": 1.0,
                                   "inlink_ratio": 1.0},
            "arg2_entity": f2 and {"name": a2, "fbid": f2, "score": 1.0,
                                   "inlink_ratio": 1.0},
            "arg1_types": [], "arg2_types": [], "instances": [],
            "size": 1, "corpora": ["corpus"]})
    os.makedirs(path, exist_ok=True)
    pq.write_table(pa.Table.from_pylist(rows, schema=S.GROUPS),
                   os.path.join(path, "part-0.parquet"))


def check_corruption(tmp: str) -> None:
    from perfbench import corpus, score, workloads as W

    world = corpus.World(0, 40)
    for _ in range(60):
        world.planted(*world.random_triple())
    truth = world.truth

    def checked(store: str, ref):
        ctx = W.Ctx("web_dup", 0, 1, tmp, world=world)
        table = score.read_store(store)
        ref = W.check_repeat(ctx, table, ref)
        keys = sorted(truth.triples)
        W.fetch_burst(ctx, store, 3 * len(keys), keys, ref[1],
                      random.Random(0), [], [])
        sc = score.score_table(table, truth.triples)
        return ref, sc.recall, ctx.failed / ctx.attempted

    good, bad = os.path.join(tmp, "good"), os.path.join(tmp, "bad")
    store_from_truth(truth, good)
    ref, recall, err = checked(good, None)
    assert recall == 1.0 and err == 0.0, (recall, err)
    store_from_truth(truth, bad, drop=sorted(truth.triples)[0])
    _, recall_bad, err_bad = checked(bad, ref)
    assert recall_bad < recall and err_bad > err, (recall_bad, err_bad)
    print(f"recall {recall:.3f} -> {recall_bad:.3f}, "
          f"error rate {err:.3f} -> {err_bad:.3f}")


def main() -> int:
    check_names()
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="selftest-") as t:
        check_corruption(t)
    try:  # left alone while a benchmark run still uses it
        os.rmdir(out)
    except OSError:
        pass
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
