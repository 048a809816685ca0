"""The traced run: per-layer numbers, timed from outside the engine.

Each public function of a layer is called on a materialized input and
its output is materialized before the clock stops, so a layer's time is
its own. Work counts come from the outputs, task CPU and task counts
from Ray Data's per-operator stats. Every workload exercises every
layer: the flagship path, an incremental delta, the query path, the
single-process kernels and the Ray runtime. The difference between the
traced and the untraced wall of the flagship path is reported as
``trace.overhead_s``.
"""

from __future__ import annotations

import os
import random
import re
import statistics
import time

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from perfbench import corpus, kernels, session, workloads as W

UNITS = {
    "sentences_per_s": "1/s",
    "delta_freshness_s": "s",
    "fetch_p50_ms": "ms",
    "fetch_p95_ms": "ms",
    "fetch_cpu_ms": "ms",
    "sources.read_s": "s",
    "sources.rows": "count",
    "frontend.exchange_s": "s",
    "frontend.exchange_cpu_s": "s",
    "frontend.sentences_in": "count",
    "frontend.uniques_out": "count",
    "frontend.blocks_out": "count",
    "extract.wall_s": "s",
    "extract.cpu_s": "s",
    "extract.tasks": "count",
    "extract.starved": "count",
    "extract.partial_rows_out": "count",
    "grouper.g1_s": "s",
    "grouper.g1_cpu_s": "s",
    "grouper.rows_in": "count",
    "grouper.groups_out": "count",
    "grouper.cap_drops": "count",
    "setup.wall_s": "s",
    "linker.prepare_s": "s",
    "linker.wall_s": "s",
    "linker.cpu_s": "s",
    "linker.groups_in": "count",
    "linker.args_linked": "count",
    "postprocess.dedup_s": "s",
    "postprocess.dedup_cpu_s": "s",
    "postprocess.instances_in": "count",
    "postprocess.instances_out": "count",
    "store.write_s": "s",
    "store.bytes": "bytes",
    "store.files": "count",
    "store.row_groups": "count",
    "flagship.traced_s": "s",
    "flagship.remainder_s": "s",
    "incremental.anti_join_s": "s",
    "incremental.update_s": "s",
    "incremental.docs_new": "count",
    "incremental.flagship_s": "s",
    "incremental.regroup_s": "s",
    "incremental.regroup_cpu_s": "s",
    "incremental.groups_merged": "count",
    "incremental.relink_groups": "count",
    "incremental.relink_s": "s",
    "incremental.write_s": "s",
    "incremental.other_s": "s",
    "query.normalize_ms": "ms",
    "query.scan_ms": "ms",
    "query.rows_read_per_fetch": "count",
    "query.limited_ratio": "ratio",
    "kernel.tagger_tokens_per_s": "1/s",
    "kernel.reverb_sentences_per_s": "1/s",
    "kernel.extract_chain_sentences_per_s": "1/s",
    "kernel.combine_rows_per_s": "1/s",
    "kernel.linker_probes_per_s_cold": "1/s",
    "kernel.linker_probes_per_s_warm": "1/s",
    "ray.task_cpu_share": "ratio",
    "ray.held_cpus_after_run": "CPU",
    "ray.pool_actors_extract": "count",
    "ray.pool_actors_link": "count",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}

QUERY_FETCHES = 60
KERNEL_SENTENCES = 400
STORE_GROUPS = 500
DELTA_DOCS = 10


class Tracer:
    """Times materialized boundaries; collects metrics and task CPU."""

    def __init__(self):
        self.m: dict[str, float] = {}
        self.task_cpu = 0.0
        self.proc_cpu = 0.0

    def span(self, fn):
        """(result, wall s, machine CPU s, stats) of ``fn()``, whose
        result is materialized inside the span."""
        session.isolate()
        c0 = session.cpu_seconds()
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        cpu = session.cpu_seconds() - c0
        st = op_stats(out) if hasattr(out, "_get_stats_summary") else {}
        self.task_cpu += st.get("cpu", 0.0)
        self.proc_cpu += cpu
        return out, wall, cpu, st


def op_stats(ds, name: str = "") -> dict:
    """Task CPU s and task count of the operators ``ds`` ran last whose
    name contains ``name``."""
    cpu, tasks = 0.0, 0
    for op in ds._get_stats_summary().operators_stats:
        if name not in op.operator_name:
            continue
        cpu += (op.cpu_time or {}).get("sum", 0.0)
        m = re.match(r"(\d+) tasks", op.block_execution_summary_str or "")
        tasks += int(m.group(1)) if m else 0
    return {"cpu": cpu, "tasks": tasks}


def _column(ds, col: str) -> list:
    """One column of a materialized Dataset, read from its blocks."""
    import ray

    return [v for t in ray.get(ds.to_arrow_refs())
            for v in t[col].to_pylist()]


def _sizes(ds) -> int:
    return sum(_column(ds, "size"))


def store_stats(path: str) -> dict:
    files = [os.path.join(path, f) for f in os.listdir(path)
             if f.endswith(".parquet")]
    return {
        "store.bytes": sum(os.path.getsize(f) for f in files),
        "store.files": len(files),
        "store.row_groups": sum(pq.ParquetFile(f).metadata.num_row_groups
                                for f in files),
    }


# ---------------------------------------------------------------------------
# flagship path
# ---------------------------------------------------------------------------

def trace_flagship(tr: Tracer, ctx: W.Ctx, src_path: str, store: str,
                   sentences: bool) -> float:
    """Traced run of run_flagship[_sentences] + materialize_triples, one
    public boundary at a time; returns the traced wall. The extract
    actor has no boundary of its own: ``extract_and_combine[_sentences]``
    runs the exchange and the actor, so the actor's time is that call's
    minus the exchange's."""
    import ray.data

    from openie_backend_ray.pipelines.flagship import materialize_triples
    from openie_backend_ray.stages import extract_pipeline as X
    from openie_backend_ray.stages.grouper import (
        MAX_RAW_GROUP,
        merge_blob_shuffle,
    )
    from openie_backend_ray.stages.linker import link_groups
    from openie_backend_ray.stages.postprocess import dedup_groups_batch

    m = tr.m
    walls = []
    t_all = time.perf_counter()
    src, w, _, _ = tr.span(
        lambda: ray.data.read_parquet(src_path).materialize())
    walls.append(w)
    m["sources.read_s"] = w
    m["sources.rows"] = src.count()

    if sentences:
        front, combine = X.unique_sentence_urls, \
            X.extract_and_combine_sentences
    else:
        front, combine = X.unique_sentences, X.extract_and_combine
    uniq, w_x, c_x, _ = tr.span(lambda: front(src).materialize())
    walls.append(w_x)
    m.update({"frontend.exchange_s": w_x, "frontend.exchange_cpu_s": c_x,
              "frontend.sentences_in": sum(_column(uniq, "n")),
              "frontend.uniques_out": uniq.count(),
              "frontend.blocks_out": uniq.num_blocks()})
    del uniq

    partial, w, c, _ = tr.span(lambda: combine(src).materialize())
    walls.append(w)
    tasks = op_stats(partial, "ExtractCombineActor")["tasks"]
    keys = _column(partial, "key")
    m.update({"extract.wall_s": w - w_x, "extract.cpu_s": c - c_x,
              "extract.tasks": tasks,
              "extract.starved": int(tasks < m["ray.pool_actors_extract"]),
              "extract.partial_rows_out": len(keys)})

    blobs, w, c, _ = tr.span(lambda: merge_blob_shuffle(partial)
                             .materialize())
    walls.append(w)
    raw: dict = {}
    for k, r in zip(keys, _column(partial, "raw_count")):
        raw[k] = raw.get(k, 0) + r
    m.update({"grouper.g1_s": w, "grouper.g1_cpu_s": c,
              "grouper.rows_in": len(keys),
              "grouper.groups_out": blobs.count(),
              "grouper.cap_drops": sum(v > MAX_RAW_GROUP
                                       for v in raw.values())})

    linked, w, c, _ = tr.span(lambda: link_groups(blobs, ctx.tables_ref)
                              .materialize())
    walls.append(w)
    m.update({"linker.wall_s": w, "linker.cpu_s": c,
              "linker.groups_in": m["grouper.groups_out"],
              "linker.args_linked": sum(
                  e is not None for col in ("arg1_entity", "arg2_entity")
                  for e in _column(linked, col))})

    deduped, w, c, _ = tr.span(lambda: linked.map_batches(
        dedup_groups_batch, batch_format="pyarrow").materialize())
    walls.append(w)
    m.update({"postprocess.dedup_s": w, "postprocess.dedup_cpu_s": c,
              "postprocess.instances_in": _sizes(linked),
              "postprocess.instances_out": _sizes(deduped)})

    _, w, _, _ = tr.span(lambda: materialize_triples(deduped, store))
    walls.append(w)
    m["store.write_s"] = w
    m.update(store_stats(store))
    total = time.perf_counter() - t_all
    m["flagship.traced_s"] = total
    m["flagship.remainder_s"] = total - sum(walls)
    return total


# ---------------------------------------------------------------------------
# incremental path
# ---------------------------------------------------------------------------

def trace_incremental(tr: Tracer, ctx: W.Ctx, prev: str, new: str,
                      delta: corpus.Delta, ingested: set) -> None:
    """incremental_update + materialize_triples as one call, then its
    public steps one at a time on the same inputs: anti_join_new_docs,
    run_flagship over the new documents, postgroup.regroup over the
    union with the store, link_groups over the groups the whole call
    chose to relink, and materialize_triples. ``incremental.other_s``
    is the whole call's wall minus the steps' walls. The whole call
    writes ``new``; the steps write beside it."""
    import pyarrow.compute as pc
    import ray
    import ray.data

    from openie_backend_ray.pipelines import incremental as I
    from openie_backend_ray.pipelines.flagship import (
        materialize_triples,
        run_flagship,
    )
    from openie_backend_ray.stages.linker import link_groups
    from openie_backend_ray.stages.postgroup import regroup

    m = tr.m
    ids_ref = ray.put(ingested)
    # both inputs are materialized: with a lazy delta read the pools
    # reserve every CPU before the read tasks start (README.md, findings)
    incoming = ray.data.read_parquet(delta.path).materialize()
    existing = ray.data.read_parquet(prev).materialize()

    def whole():
        merged, _, keys = I.incremental_update(
            existing, incoming, ids_ref, side_tables_ref=ctx.tables_ref)
        materialize_triples(merged, new)
        return keys

    relink_keys, update_s, _, _ = tr.span(whole)
    m["incremental.update_s"] = update_s
    m["incremental.relink_groups"] = len(relink_keys)

    walls = []
    docs, w, _, _ = tr.span(
        lambda: I.anti_join_new_docs(incoming, ids_ref).materialize())
    walls.append(w)
    m["incremental.anti_join_s"] = w
    m["incremental.docs_new"] = docs.count()

    dgroups, w, _, _ = tr.span(lambda: run_flagship(
        docs, side_tables_ref=ctx.tables_ref, corpus="news").materialize())
    walls.append(w)
    m["incremental.flagship_s"] = w

    n_in = existing.count() + dgroups.count()
    merged, w, c, _ = tr.span(
        lambda: regroup(existing.union(dgroups)).materialize())
    walls.append(w)
    m.update({"incremental.regroup_s": w, "incremental.regroup_cpu_s": c,
              "incremental.groups_merged": n_in - merged.count()})

    wanted = pa.array(relink_keys, pa.string())
    relink = merged.map_batches(
        I._groups_to_blobs, batch_format="pyarrow").map_batches(
        lambda b: b.filter(pc.is_in(b["key"], value_set=wanted)),
        batch_format="pyarrow").materialize()
    _, w, _, _ = tr.span(
        lambda: link_groups(relink, ctx.tables_ref).materialize())
    walls.append(w)
    m["incremental.relink_s"] = w

    _, w, _, _ = tr.span(lambda: materialize_triples(merged, new + "-steps"))
    walls.append(w)
    m["incremental.write_s"] = w
    m["incremental.other_s"] = update_s - sum(walls)


# ---------------------------------------------------------------------------
# query path
# ---------------------------------------------------------------------------

def trace_query(tr: Tracer, ctx: W.Ctx, store: str, keys) -> None:
    """Fetches with the normalization and the scan timed apart."""
    from openie_backend_ray.pipelines.query import (
        fetch_groups,
        normalize_query_part,
    )

    rng = random.Random(ctx.seed + 1)
    surface = ctx.world.truth.surface
    pool = sorted(keys)
    norm_ms, scan_ms, rows, limited = [], [], [], 0
    for i in range(QUERY_FETCHES):
        a1, rel, _ = surface[rng.choice(pool)]
        clauses = ({"arg1": a1}, {"arg1": a1, "rel": rel},
                   {"rel": rel})[i % 3]
        t0 = time.perf_counter()
        normed = {k: normalize_query_part(v) for k, v in clauses.items()}
        t1 = time.perf_counter()
        rs = fetch_groups(store, normalize=False, **normed)
        t2 = time.perf_counter()
        norm_ms.append((t1 - t0) * 1000.0)
        scan_ms.append((t2 - t1) * 1000.0)
        rows.append(rs.num_groups)
        limited += rs.status == "limited"
    tr.m.update({"query.normalize_ms": statistics.median(norm_ms),
                 "query.scan_ms": statistics.median(scan_ms),
                 "query.rows_read_per_fetch": statistics.mean(rows),
                 "query.limited_ratio": limited / QUERY_FETCHES})


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def _sample_sentences(path: str) -> list[str]:
    """Distinct input sentences, in input order, for the kernels."""
    from openie_backend_ray.stages.sentences import explode_text_spans

    first = os.path.join(path, sorted(os.listdir(path))[0])
    t = pq.read_table(first)
    if "spans" in t.column_names:
        t = explode_text_spans(t)
    return list(dict.fromkeys(t["text"].to_pylist()))[:KERNEL_SENTENCES]


def run(ctx: W.Ctx) -> dict:
    """Traced run of ``ctx``'s workload; returns the per-layer metrics."""
    from openie_backend_ray.stages.linker import prepare_linker_tables
    from openie_backend_ray.util import auto_pool

    tr = Tracer()
    m = tr.m
    m["setup.wall_s"] = ctx.extra["setup_wall_s"]
    m["linker.prepare_s"] = ctx.extra["prepare_s"]
    # the fixed pool sizes auto_pool gives the extract and link stages
    m["ray.pool_actors_extract"] = auto_pool(0.7)[1]
    m["ray.pool_actors_link"] = auto_pool(0.25)[1]
    work = ctx.work
    # untraced: one iteration and a fetch burst as the timed run makes
    # them; the iteration finds what the warm-up left reserved
    it = W.flagship_iteration(ctx, 0)
    m["ray.held_cpus_after_run"] = it.held
    lat: list[float] = []
    cpu: list[float] = []
    W.fetch_burst(ctx, it.store, W.FETCHES_MIN,
                  ctx.world.truth.triples.keys(), W.stored_keys(it.table),
                  random.Random(ctx.seed), lat, cpu)
    traced = trace_flagship(tr, ctx, ctx.input_path,
                            os.path.join(work, "traced"),
                            sentences=ctx.name == "web_unique")
    m["trace.overhead_s"] = traced - it.wall_s

    # the delta goes onto a store of the first STORE_GROUPS traced
    # groups: incremental work grows with the store, and the whole one
    # would take most of the run. Two of its documents count as already
    # ingested, so the anti-join drops them.
    prev = os.path.join(work, "small_store")
    os.makedirs(prev)
    pq.write_table(pads.dataset(os.path.join(work, "traced"),
                                format="parquet").head(STORE_GROUPS),
                   os.path.join(prev, "part-0.parquet"))
    world = ctx.world
    delta = corpus.gen_delta(world, os.path.join(work, "delta"), "t",
                             DELTA_DOCS, world.stated[:STORE_GROUPS])
    ingested = set(delta.doc_ids[:2])
    if ctx.name == "web_dup":
        ingested |= {f"d{i:07d}" for i in range(ctx.shape.docs)}
    new = os.path.join(work, "traced_delta")
    trace_incremental(tr, ctx, prev, new, delta, ingested)
    trace_query(tr, ctx, new, set(world.truth.triples))

    sample = _sample_sentences(ctx.input_path)
    anchors = [e.name for e in world.entities[:300]]
    m.update(kernels.run(sample, prepare_linker_tables(dict(ctx.side_raw)),
                         anchors))
    m.update({k: v for k, v in W.summarize([it], lat, cpu).items()
              if k in UNITS})
    m["ray.task_cpu_share"] = tr.task_cpu / max(1e-9, tr.proc_cpu)
    m["error_rate"] = ctx.failed / max(1, ctx.attempted)
    return {k: {"value": m[k], "unit": u} for k, u in UNITS.items()}
