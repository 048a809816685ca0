"""The flagship's plan and its G1 tail, without the reference: the G3
instance dedup inside the tail gives the rows of the separate
``dedup_groups_batch`` pass; the plan holds no actor pool and no dedup
operator, so a finished run holds no CPU; and the extractor and linker
that stay resident in task workers give the in-process rows without
pinning what the driver dropped."""

from __future__ import annotations

import json

import pyarrow as pa
import pytest

# Case and window variants of one statement: G1 keeps each variant as
# its own instance (instance identity is case-sensitive), while G3's
# window scan drops the lowercase repeats, so dedup changes the rows.
_SENTENCES = [
    f"{when} {who} visited {where} with {whom} ."
    for who, where in (("Obama", "Paris"), ("Tesla", "London"),
                       ("Edison", "Berlin"), ("Curie", "Warsaw"))
    for when in ("Yesterday", "yesterday", "Today", "today", "Then")
    for whom in ("friends", "Friends", "colleagues")
] + ["Google bought YouTube in 2006 .", "Marie Curie discovered radium ."]


def _lines() -> pa.Table:
    texts = [s for i, s in enumerate(_SENTENCES) for _ in range(1 + i % 2)]
    return pa.table({
        "text": pa.array(texts, pa.string()),
        "source_url": pa.array([f"http://x.example/{i % 5}"
                                for i in range(len(texts))], pa.string()),
    })


def _side_tables() -> dict:
    """Titles the string-match fallback links exactly."""
    names = ["Obama", "Paris", "Tesla", "London", "Edison", "Berlin",
             "Google", "YouTube"]
    fbids = [f"f{i}" for i in range(len(names))]
    return {
        "crosswikis": pa.table({
            "anchor": pa.array([], pa.string()),
            "fbid": pa.array([], pa.string()),
            "title": pa.array([], pa.string()),
            "cprob": pa.array([], pa.float64()),
            "count": pa.array([], pa.int64())}),
        "fbid_title_inlinks": pa.table({
            "fbid": fbids, "title": names,
            "inlinks": pa.array([100.0 * (i + 1) for i in range(len(names))],
                                pa.float64())}),
        "fbid_types": pa.table({"fbid": fbids,
                                "types": [["/t/x"]] * len(names)}),
        "entity_context": pa.table({
            "fbid": fbids,
            "context_text": [f"{n.lower()} visited city friends"
                             for n in names]}),
    }


def _rows(ds) -> list[str]:
    return sorted(json.dumps(r, sort_keys=True, default=str)
                  for r in ds.take_all())


@pytest.fixture(scope="module")
def tables_ref(ray_session):
    import ray

    from openie_backend_ray.stages.linker import prepare_linker_tables

    return ray.put(prepare_linker_tables(_side_tables()))


@pytest.mark.parametrize("linked", [False, True], ids=["unlinked", "linked"])
def test_dedup_in_g1_tail_equals_separate_pass(ray_session, tables_ref,
                                               linked):
    """``run_flagship(dedup=True)`` == ``run_flagship(dedup=False)``
    followed by ``dedup_groups_batch``, every column of every row."""
    import ray.data as rd

    from openie_backend_ray.pipelines.flagship import run_flagship
    from openie_backend_ray.stages.postprocess import dedup_groups_batch

    ref = tables_ref if linked else None

    def flagship(dedup):
        return run_flagship(rd.from_arrow(_lines()).repartition(3),
                            side_tables_ref=ref, corpus="cw", dedup=dedup)

    plain = flagship(False).materialize()
    folded = flagship(True).materialize()
    separate = plain.map_batches(dedup_groups_batch, batch_format="pyarrow")
    assert _rows(folded) == _rows(separate)
    # not vacuous: dedup dropped instances, and links were made
    sizes = [r["size"] for r in plain.take_all()]
    assert sum(r["size"] for r in folded.take_all()) < sum(sizes)
    assert max(sizes) >= 3
    if linked:
        assert any(r["arg1_entity"] for r in folded.take_all())


def test_flagship_plan_has_no_actor_pool_and_no_dedup_op(ray_session,
                                                         tables_ref):
    """With side tables, the plan holds no actor-pool operator:
    extraction and linking both run as task operators, and no operator
    runs the G3 dedup on its own."""
    import ray.data as rd
    from ray.data import ActorPoolStrategy
    from ray.data._internal.compute import TaskPoolStrategy

    from openie_backend_ray.pipelines.flagship import run_flagship
    from openie_backend_ray.stages.extract_pipeline import extract_combine
    from openie_backend_ray.stages.linker import link_batch
    from openie_backend_ray.stages.postprocess import dedup_groups_batch

    ds = run_flagship(rd.from_arrow(_lines()), side_tables_ref=tables_ref)
    ops, todo = [], [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        ops.append(op)
        todo.extend(op.input_dependencies)
    fns = {op: getattr(op, "_fn", None) for op in ops}
    pools = [fns[op] for op in ops
             if isinstance(getattr(op, "_compute", None), ActorPoolStrategy)]
    assert pools == []
    tasks = [fns[op] for op in ops if isinstance(
        getattr(op, "_compute", None), TaskPoolStrategy)]
    assert extract_combine in tasks and link_batch in tasks
    assert dedup_groups_batch not in fns.values()
    assert not any("dedup" in op.name for op in ops)


def test_resident_extractor_does_not_pin_the_lexicon(ray_session):
    """Task workers keep their extractor after the Dataset ends, but
    not the lexicon's ObjectRef: once the driver drops its ref, no
    borrower holds the lexicon in the object store."""
    import gc
    import time

    import ray
    import ray.data as rd

    from openie_backend_ray.pipelines.flagship import run_flagship
    from openie_backend_ray.stages.chunker import model_layers

    texts = _SENTENCES[:4]
    layers = [model_layers(s) for s in texts]
    lex_ref = ray.put(pa.table({
        "sentence": texts,
        "tokens": [t for t, _, _ in layers],
        "postags": [p for _, p, _ in layers],
        "chunks": [c for _, _, c in layers]}))
    lex_id = lex_ref.hex().encode()
    counts = ray._private.worker.global_worker.core_worker \
        .get_all_reference_counts
    assert run_flagship(rd.from_arrow(_lines()).repartition(3),
                        lexicon_ref=lex_ref).count() > 0
    del lex_ref
    gc.collect()
    deadline = time.monotonic() + 30
    while lex_id in counts() and time.monotonic() < deadline:
        time.sleep(0.2)
    assert lex_id not in counts()


def test_linked_flagship_frees_every_cpu_when_dropped(ray_session,
                                                     tables_ref):
    """Right after a linked flagship Dataset is consumed and dropped,
    with cyclic GC held off, Ray reports every CPU free: no operator of
    the run still reserves one."""
    import gc
    import time

    import ray
    import ray.data as rd

    from openie_backend_ray.pipelines.flagship import run_flagship

    total = ray.cluster_resources()["CPU"]
    gc.disable()
    try:
        ds = run_flagship(rd.from_arrow(_lines()).repartition(3),
                          side_tables_ref=tables_ref)
        assert ds.count() > 0
        del ds
        # the raylet's resource view lags the release by a report
        deadline = time.monotonic() + 10
        while (ray.available_resources().get("CPU", 0) < total
               and time.monotonic() < deadline):
            time.sleep(0.2)
        assert ray.available_resources().get("CPU", 0) == total
    finally:
        gc.enable()


def _in_process_rows(dedup: bool) -> list[str]:
    """The rows one ``LinkerActor`` makes in this process from the
    flagship's own G1 blobs."""
    import ray.data as rd

    from openie_backend_ray.stages.extract_pipeline import (
        extract_and_combine,
    )
    from openie_backend_ray.stages.grouper import merge_blob_shuffle
    from openie_backend_ray.stages.linker import LinkerActor

    blobs = merge_blob_shuffle(extract_and_combine(
        rd.from_arrow(_lines()).repartition(3), corpus="cw"))
    batch = pa.concat_tables(blobs.iter_batches(batch_size=None,
                                                batch_format="pyarrow"))
    linker = LinkerActor(tables=_side_tables(), dedup=dedup)
    return _rows(rd.from_arrow(linker(batch)))


@pytest.mark.parametrize("dedup", [False, True], ids=["plain", "dedup"])
def test_resident_linker_equals_in_process_linker(ray_session, tables_ref,
                                                  dedup):
    """Two linked flagship runs in one session, the second over warm
    resident linkers, write the rows of one in-process
    ``LinkerActor`` applied to the same blobs."""
    import ray.data as rd

    from openie_backend_ray.pipelines.flagship import run_flagship

    want = _in_process_rows(dedup)
    assert any('"fbid"' in r for r in want)  # links were made
    for _ in range(2):
        got = run_flagship(rd.from_arrow(_lines()).repartition(3),
                           side_tables_ref=tables_ref, corpus="cw",
                           dedup=dedup)
        assert _rows(got) == want


def test_resident_linker_does_not_pin_dropped_tables(ray_session):
    """Task workers keep their linker after the Dataset ends. Once the
    driver drops side tables A and a run over side tables B completes,
    no worker still references A."""
    import gc
    import time

    import ray
    import ray.data as rd

    from openie_backend_ray.pipelines.flagship import run_flagship
    from openie_backend_ray.stages.linker import prepare_linker_tables

    counts = ray._private.worker.global_worker.core_worker \
        .get_all_reference_counts
    def run(ref):
        assert run_flagship(rd.from_arrow(_lines()).repartition(3),
                            side_tables_ref=ref).count() > 0

    a_ref = ray.put(prepare_linker_tables(_side_tables()))
    a_id = a_ref.hex().encode()
    run(a_ref)
    del a_ref
    gc.collect()
    run(ray.put(prepare_linker_tables(_side_tables())))
    deadline = time.monotonic() + 30
    while a_id in counts() and time.monotonic() < deadline:
        time.sleep(0.2)
    assert a_id not in counts()
