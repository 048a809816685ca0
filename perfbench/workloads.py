"""The two workloads: inputs, one iteration, and the timed loop.

Timed regions run with tracing off. Before each one the previous
iteration's references are dropped and ``session.isolate`` waits until
Ray reports every CPU free; the CPUs still held on entry are recorded
(``held_cpus``), so the release defect stays visible while it no longer
stalls the next region.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field

from perfbench import corpus, score, session

# Workload sizes. A flagship iteration takes several seconds at 2 CPUs,
# so a run holds a few of them; see README.md for the measured shapes.
SIZES = {
    "web_dup": {"entities": 900, "uniques": 3000, "dup": 60},
    "web_unique": {"entities": 1500, "sentences": 4000},
}
FETCHES_MIN = 200     # 10 samples beyond p95
PREPARE_REPS = 3


@dataclass
class Ctx:
    """Everything one run shares: paths, planted truth, Ray refs."""

    name: str
    seed: int
    seconds: float
    work: str
    world: corpus.World = None
    shape: corpus.Shape = None
    input_path: str = ""
    side_raw: dict = None
    tables_ref: object = None
    extra: dict = field(default_factory=dict)
    failed: int = 0
    attempted: int = 0
    notes: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.notes.append(what)


def generate(ctx: Ctx) -> None:
    """Write the workload's input files (untimed, not part of set-up)."""
    sz = SIZES[ctx.name]
    ctx.world = corpus.World(ctx.seed, sz["entities"])
    inp = os.path.join(ctx.work, "input")
    if ctx.name == "web_dup":
        ctx.shape = corpus.gen_web_dup(ctx.world, inp, sz["uniques"],
                                       sz["dup"])
    else:
        ctx.shape = corpus.gen_web_unique(ctx.world, inp, sz["sentences"])
    ctx.input_path = inp
    # warm-up input: a quarter of the parts, enough to start every
    # worker and load every model once
    parts = sorted(os.listdir(inp))
    ctx.extra["warm_input"] = [os.path.join(inp, p)
                               for p in parts[:max(1, len(parts) // 4)]]
    ctx.side_raw = ctx.world.side_tables()


def prepare_tables(ctx: Ctx) -> tuple[float, float]:
    """prepare_linker_tables + broadcast, repeated; median wall s and
    median machine CPU s."""
    import ray

    from openie_backend_ray.stages.linker import prepare_linker_tables

    walls, cpus = [], []
    for _ in range(PREPARE_REPS):
        c0, t0 = session.cpu_seconds(), time.perf_counter()
        ref = ray.put(prepare_linker_tables(dict(ctx.side_raw)))
        walls.append(time.perf_counter() - t0)
        cpus.append(session.cpu_seconds() - c0)
        ctx.tables_ref = ref
    return statistics.median(walls), statistics.median(cpus)


# ---------------------------------------------------------------------------
# one flagship iteration (web_dup, web_unique)
# ---------------------------------------------------------------------------

def flagship_dataset(ctx: Ctx, input_path: str):
    import ray.data

    from openie_backend_ray.pipelines.flagship import (
        run_flagship,
        run_flagship_sentences,
    )

    src = ray.data.read_parquet(input_path)
    if ctx.name == "web_unique":
        return run_flagship_sentences(src, side_tables_ref=ctx.tables_ref)
    return run_flagship(src, side_tables_ref=ctx.tables_ref)


@dataclass
class Iter:
    wall_s: float       # read_parquet -> written, read-back store
    fresh_s: float      # ... -> a fetch returned a planted triple
    cpu_s: float
    sentences: int
    held: float
    store: str
    table: object = None


def fetch_one(store: str, q: tuple, kind: str):
    """One fetch; ``kind`` picks the clauses of ``q``=(arg1, rel, arg2)."""
    from openie_backend_ray.pipelines.query import fetch_groups

    a1, rel, a2 = q
    if kind == "arg1":
        return fetch_groups(store, arg1=a1)
    if kind == "arg1_rel":
        return fetch_groups(store, arg1=a1, rel=rel)
    if kind == "rel":
        return fetch_groups(store, rel=rel)
    return fetch_groups(store, arg1=a1, rel=rel, arg2=a2)


def _has(rs, key) -> bool:
    return any((r["arg1_norm"], r["rel_norm"], r["arg2_norm"]) == key
               for r in rs.results)


def first_fresh(ctx: Ctx, store: str, keys, stored) -> bool:
    """Fetch planted triples (fixed order) until one comes back; a
    fetch must return its triple iff the store holds it."""
    surface = ctx.world.truth.surface
    for key in sorted(keys):
        ctx.attempted += 1
        rs = fetch_one(store, surface[key], "triple")
        if _has(rs, key) != (key in stored):
            ctx.fail(f"fetch {key} disagrees with the store")
            return False
        if key in stored:
            return True
    ctx.fail("no planted triple of the input is in the store")
    return False


def flagship_iteration(ctx: Ctx, k: int) -> Iter:
    """Timed: read -> pipeline -> written store -> read back -> a fetch
    that returns one of the input's planted triples."""
    from openie_backend_ray.pipelines.flagship import materialize_triples

    store = os.path.join(ctx.work, f"store{k:03d}")
    held = session.isolate()
    cpu0 = session.cpu_seconds()
    t0 = time.perf_counter()
    groups = flagship_dataset(ctx, ctx.input_path)
    materialize_triples(groups, store)
    table = score.read_store(store)
    wall = time.perf_counter() - t0
    del groups
    ctx.attempted += 1
    first_fresh(ctx, store, ctx.world.truth.triples.keys(),
                stored_keys(table))
    fresh = time.perf_counter() - t0
    cpu = session.cpu_seconds() - cpu0
    return Iter(wall, fresh, cpu, ctx.shape.sentences, held, store, table)


# ---------------------------------------------------------------------------
# fetch bursts (every workload)
# ---------------------------------------------------------------------------

def fetch_burst(ctx: Ctx, store: str, n: int, keys, expect,
                rng: random.Random, lat_ms: list, cpu_ms: list) -> None:
    """Closed loop, one client: ``n`` fetches of planted triples mixing
    arg1-only, arg1+rel and rel-only clauses. A fetch must return its
    triple iff ``expect`` holds it. Appends each fetch's wall and
    CPU time of this process (the scan runs in it)."""
    surface = ctx.world.truth.surface
    pool = sorted(keys)
    kinds = ("arg1", "arg1_rel", "rel")
    for i in range(n):
        key = rng.choice(pool)
        ctx.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rs = fetch_one(store, surface[key], kinds[i % 3])
        except Exception as e:  # a failed fetch is counted, not fatal
            ctx.fail(f"fetch raised {e!r}")
            continue
        lat_ms.append((time.perf_counter() - t0) * 1000.0)
        cpu_ms.append((time.process_time() - c0) * 1000.0)
        if rs.status != "success" or _has(rs, key) != (key in expect):
            ctx.fail(f"fetch {kinds[i % 3]} {key}: wrong answer")


def quantile(xs: list, q: float) -> float:
    """Nearest-rank quantile."""
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, int(round(q * len(s) + 0.5)) - 1))]


def stored_keys(table) -> set:
    return set(zip(table["arg1_norm"].to_pylist(),
                   table["rel_norm"].to_pylist(),
                   table["arg2_norm"].to_pylist()))


def _drop(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# timed runs
# ---------------------------------------------------------------------------

def setup(ctx: Ctx, ray_start: tuple[float, float]) -> tuple[float, float]:
    """Prepare + broadcast the linker tables, then one untimed warm-up
    iteration on a quarter of the input. ``ray_start``: (wall s, CPU s)
    of the Ray session start. Returns the set-up's (wall s, machine
    CPU s): Ray start + the median prepare + the warm-up."""
    from openie_backend_ray.pipelines.flagship import materialize_triples

    prep_wall, prep_cpu = prepare_tables(ctx)
    ctx.extra["prepare_s"] = prep_wall
    warm = os.path.join(ctx.work, "warm")
    c0, t0 = session.cpu_seconds(), time.perf_counter()
    materialize_triples(flagship_dataset(ctx, ctx.extra["warm_input"]), warm)
    warm_wall = time.perf_counter() - t0
    warm_cpu = session.cpu_seconds() - c0
    _drop(warm)
    return (ray_start[0] + prep_wall + warm_wall,
            ray_start[1] + prep_cpu + warm_cpu)


def check_repeat(ctx: Ctx, table, ref: tuple | None) -> tuple:
    """A later iteration must write exactly the first one's store.
    Returns the reference (digest, stored keys)."""
    sc = score.score_table(table, ctx.world.truth.triples)
    if ref is None:
        return sc.digest, stored_keys(table)
    if sc.digest != ref[0]:
        ctx.fail("an iteration's store differs from the first one's")
    return ref


def summarize(its: list, lat: list, cpu: list) -> dict:
    """Medians over iterations and the fetch burst's figures."""
    return {
        "sentences_per_s": statistics.median(
            i.sentences / i.wall_s for i in its),
        "cpu_s_per_ksent": statistics.median(
            i.cpu_s / (i.sentences / 1000.0) for i in its),
        "delta_freshness_s": statistics.median(i.fresh_s for i in its),
        "fetch_p50_ms": quantile(lat, 0.50),
        "fetch_p95_ms": quantile(lat, 0.95),
        "fetch_cpu_ms": statistics.median(cpu),
    }


def run_batch(ctx: Ctx) -> dict:
    """web_dup / web_unique: flagship iterations for ``seconds``, then
    a fetch burst on the last store, answered as the first iteration's
    store would."""
    its: list[Iter] = []
    t_end = time.perf_counter() + ctx.seconds
    ref = None
    while not its or time.perf_counter() < t_end:
        it = flagship_iteration(ctx, len(its))
        ref = check_repeat(ctx, it.table, ref)
        if its:
            _drop(its[-1].store)
        its.append(it)
    last = its[-1]
    lat: list[float] = []
    cpu: list[float] = []
    fetch_burst(ctx, last.store, FETCHES_MIN, ctx.world.truth.triples.keys(),
                ref[1], random.Random(ctx.seed), lat, cpu)
    return {**summarize(its, lat, cpu),
            "_score": score.score_table(last.table, ctx.world.truth.triples),
            "_iterations": len(its),
            "_held": [i.held for i in its],
            "_cpu": [i.cpu_s for i in its], "_wall": [i.wall_s for i in its]}
