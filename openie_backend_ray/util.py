"""Small runtime helpers shared by stages and pipelines."""

from __future__ import annotations

# class -> (key, instance) resident in this worker process
_RESIDENT: dict = {}


def resident(cls: type, key, **kwargs):
    """This process's ``cls(**kwargs)``: built on first use and kept
    while ``key`` stays the same, one entry per class. Stages that run
    in Ray tasks keep their loaded state in it, since Ray reuses task
    workers across Datasets. ``key`` must not hold an ``ObjectRef``
    (use ``ref.binary()``): a worker would then pin the object in the
    object store after the driver drops it. A new key drops the old
    instance before building the new one."""
    hit = _RESIDENT.get(cls)
    if hit is None or hit[0] != key:
        _RESIDENT.pop(cls, None)
        _RESIDENT[cls] = (key, cls(**kwargs))
    return _RESIDENT[cls][1]


def auto_pool(frac: float = 0.5, lo: int = 1, hi: int = 64) -> tuple[int, int]:
    """Fixed actor-pool size ``(target, target)`` sized from the live
    cluster, with ``target = frac * slots`` clamped to ``[lo, hi]``.

    ``slots`` counts actor CPU shares (``actor_cpus``) and, on clusters
    of 4 CPUs or fewer, keeps one full CPU free for shuffle tasks. The
    pool is fixed, not autoscaling: every actor starts at once, and the
    callers budget their fracs so the pools of one pipeline sum below
    the cluster. The flagship uses no pool (its extraction and linking
    run in tasks); the staged OpenIE4 path and the multimodal decoders
    do. The reference's analogue is its mapper cap (20-40 linker
    mappers cluster-wide,
    ``docs/reverb-cluster-extraction-indexing.txt:145-147``).
    """
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    # count in CPU-SHARES: on tiny clusters actors run at 0.5 CPU
    # (actor_cpus). Tiny clusters also RESERVE one full CPU: shuffle
    # tasks need num_cpus=1, and fixed pools that leave only half a
    # CPU free deadlock the sort (observed at num_cpus=2).
    reserve = 1 if cpus <= 4 else 0
    slots = int(max(1, cpus - reserve) / actor_cpus())
    target = min(hi, max(lo, int(slots * frac) or lo))
    # FIXED size (min == max): measured on the fused flagship, the
    # autoscaling pool stayed at ~2 actors for a 26-block backlog and
    # the stage ran at 2x-parallel on an 8-CPU cluster. Fixed pools
    # reserve their CPUs for the stage's lifetime, so the fracs of one
    # pipeline must leave room for its shuffle/map tasks or they
    # deadlock (observed at num_cpus=4 with two 2-actor pools).
    return (target, target)


def actor_cpus() -> float:
    """CPU share per pool actor: fractional on tiny clusters so two
    1-actor pools plus the shuffle tasks between them can coexist (at
    num_cpus=2, two full-CPU actors reserve the whole cluster and the
    sort tasks starve - observed as a 17-minute hang of a 3-minute
    job)."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    return 0.5 if cpus <= 4 else 1.0
