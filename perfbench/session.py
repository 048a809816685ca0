"""Ray session, resource accounting and iteration isolation.

Peak memory is read from ``/proc`` for this process and every process
descended from it: the Ray session's GCS, raylet, monitor and workers
all are. CPU time is the machine's busy time over a region, see
``cpu_seconds``.
"""

from __future__ import annotations

import gc
import os
import time

_TICK = os.sysconf("SC_CLK_TCK")
# AF_UNIX socket paths are limited to 107 bytes; Ray puts them under
# <temp_dir>/session_<date>_<pid>/sockets/
_SOCKET_SUFFIX = 64


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat", "rb") as f:
                ppid = int(f.read().rsplit(b")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(d))
    return kids


def session_pids() -> list[int]:
    """This process and all its live descendants."""
    kids = _children()
    out, todo = [], [os.getpid()]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, ()))
    return out


def _stat(pid: int) -> list[bytes] | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            return f.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return None


def identities(pids) -> dict[int, bytes]:
    """pid -> start time, which tells a process from a later one that
    reuses its pid."""
    out = {}
    for p in pids:
        st = _stat(p)
        if st is not None:
            out[p] = st[19]
    return out


def running(ids: dict[int, bytes]) -> list[int]:
    """Those processes of ``ids`` (from ``identities``) that have not
    ended; a zombie has ended."""
    out = []
    for p, start in ids.items():
        st = _stat(p)
        if st is not None and st[19] == start and st[0] != b"Z":
            out.append(p)
    return out


def cpu_seconds() -> float:
    """Busy CPU time of the machine (user, nice, system, irq, softirq;
    steal excluded). Per-process counters cannot serve: the raylet does
    not collect the CPU time of the workers it reaps, so an actor that
    exits inside a timed region would take its CPU time with it."""
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    return sum(int(fields[i]) for i in (0, 1, 2, 5, 6)) / _TICK


def reset_peak_rss() -> None:
    """Lower this process's VmHWM to its current RSS, so the benchmark's
    own work before the session starts (generating the corpus) does not
    count as the engine's peak."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def _pool_actor_pids() -> list[int]:
    """Live Ray Data actor-pool workers (process title ray::MapWorker...)."""
    out = []
    for p in session_pids():
        try:
            with open(f"/proc/{p}/cmdline", "rb") as f:
                if f.read().startswith(b"ray::MapWorker"):
                    out.append(p)
        except OSError:
            continue
    return out


def release_pools(timeout_s: float = 30.0) -> None:
    """Free the pools of every dropped Dataset and wait until their
    actor processes have exited, so a reading of ``peak_rss_mb`` after
    it covers the same processes in every run."""
    isolate()
    deadline = time.monotonic() + timeout_s
    while _pool_actor_pids() and time.monotonic() < deadline:
        time.sleep(0.05)


def peak_rss_mb() -> float:
    """Summed VmHWM over the session's live processes, in MiB."""
    kb = 0
    for p in session_pids():
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return kb / 1024.0


# Logical CPUs of the session, fixed so every host runs the same pool
# sizes. Not below 2: at 1 CPU the two 0.5-CPU actor pools would take
# the only CPU and starve the shuffle tasks between them.
RAY_CPUS = 2


def check_cpus() -> None:
    usable = len(os.sched_getaffinity(0))
    if usable < RAY_CPUS:
        raise SystemExit(
            f"perfbench needs {RAY_CPUS} usable CPUs, this process has "
            f"{usable}")


def start_ray(root: str, num_cpus: int):
    """Start a local session whose workers import from ``root``."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    import ray
    import ray.data

    tmp = os.path.join(root, ".bench_tmp")
    kwargs = {}
    if len(tmp) + _SOCKET_SUFFIX <= 107:
        os.makedirs(tmp, exist_ok=True)
        kwargs["_temp_dir"] = tmp
    ray.init(num_cpus=num_cpus, include_dashboard=False,
             log_to_driver=False, configure_logging=False,
             object_store_memory=768 * 1024 * 1024, **kwargs)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_operator_progress_bars = False
    ctx.print_on_execution_start = False
    return ray


def held_cpus() -> float:
    """CPUs Ray still holds reserved (0 when the session is idle)."""
    import ray

    total = ray.cluster_resources().get("CPU", 0.0)
    return total - ray.available_resources().get("CPU", 0.0)


def isolate(timeout_s: float = 120.0) -> float:
    """Before a timed region: note the CPUs the previous iteration left
    reserved, collect its garbage (a finished Dataset keeps its actor
    pools' CPUs until the cyclic GC frees it), then wait until Ray
    reports every CPU free. Returns the CPUs held on entry."""
    held = held_cpus()
    gc.collect()
    deadline = time.monotonic() + timeout_s
    while held_cpus() > 1e-6:
        if time.monotonic() > deadline:
            raise RuntimeError(f"Ray still holds {held_cpus()} CPUs")
        time.sleep(0.01)
    return held
