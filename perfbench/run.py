"""KG benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload web_dup --seed 1 --seconds 20 \
        --trace 0

Workloads: ``web_dup``, ``web_unique`` (README.md says why each exists
and what it loads). ``--trace 0`` times the
end-to-end path with tracing off; ``--trace 1`` is the separate traced
run that reports per-layer numbers. The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it describes the run (input shape, Ray CPUs, iterations, quality
counts). Inputs are generated from the seed under ``.bench_out/`` and
removed at exit.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import logging
import os
import shutil
import signal
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

END_TO_END = {
    "setup_s": "s",
    "cpu_s_per_ksent": "s/ksent",
    "peak_rss_mb": "MiB",
    "triple_precision": "ratio",
    "triple_recall": "ratio",
    "link_accuracy": "ratio",
}
# Measured by every timed run but spread by 0.09-0.72 between runs on a
# host with CPU steal, too much for a bound: the traced run reports them
# as per-layer metrics, and the info line shows them.
UNBOUNDED = ("sentences_per_s", "delta_freshness_s", "fetch_p50_ms",
             "fetch_p95_ms", "fetch_cpu_ms")
WORKLOADS = ("web_dup", "web_unique")


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def result_line(failed: int, attempted: int, metrics: dict) -> str:
    """The result line: correct, attempted, failed, metrics."""
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _stop_session(ray, session_dir: str | None) -> None:
    """Shut Ray down and wait until every process it started has ended,
    also those that outlive their parent and are handed to init."""
    from perfbench import session

    started = session.identities(
        p for p in session.session_pids() if p != os.getpid())
    ray.shutdown()
    t0 = time.monotonic()
    while time.monotonic() - t0 < 40:
        started.update(session.identities(
            p for p in session.session_pids() if p != os.getpid()))
        rest = session.running(started)
        if not rest:
            break
        if time.monotonic() - t0 > 20:  # stragglers: kill them
            for p in rest:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.1)
        try:  # reap direct children
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
    if session_dir and session_dir.startswith(ROOT):
        shutil.rmtree(session_dir, ignore_errors=True)
        latest = os.path.join(os.path.dirname(session_dir), "session_latest")
        if os.path.islink(latest):
            os.unlink(latest)


def main(argv=None) -> int:
    a = _args(argv)
    if importlib.util.find_spec("openie_backend_ray") is None:
        print("perfbench: the openie_backend_ray package is not in this "
              "checkout", file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore")
    logging.getLogger("ray").setLevel(logging.ERROR)

    from perfbench import session, workloads as W

    session.check_cpus()
    work = os.path.join(ROOT, ".bench_out",
                        f"{a.workload}-{a.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    ctx = W.Ctx(a.workload, a.seed, a.seconds, work)
    W.generate(ctx)
    session.reset_peak_rss()

    c0, t0 = session.cpu_seconds(), time.perf_counter()
    ray = session.start_ray(ROOT, session.RAY_CPUS)
    ray_start = (time.perf_counter() - t0, session.cpu_seconds() - c0)
    session_dir = None
    try:
        from ray._private import worker as _worker

        session_dir = _worker._global_node.get_session_dir_path()
    except AttributeError:
        pass
    try:
        setup_wall, setup_s = W.setup(ctx, ray_start)
        ctx.extra["setup_wall_s"] = setup_wall
        if a.trace:
            from perfbench import trace

            metrics = trace.run(ctx)
            info = {}
        else:
            res = W.run_batch(ctx)
            sc = res.pop("_score")
            session.release_pools()
            res.update(setup_s=setup_s, peak_rss_mb=session.peak_rss_mb(),
                       triple_precision=sc.precision,
                       triple_recall=sc.recall,
                       link_accuracy=sc.link_accuracy)
            metrics = {k: {"value": res[k], "unit": u}
                       for k, u in END_TO_END.items()}
            info = {"iterations": res["_iterations"],
                    "setup_wall_s": setup_wall,
                    "unbounded": {k: res[k] for k in UNBOUNDED},
                    "held_cpus_on_entry": res["_held"],
                    "iteration_cpu_s": res["_cpu"],
                    "iteration_wall_s": res["_wall"],
                    "groups": sc.groups, "matched": sc.matched,
                    "planted": sc.planted, "recalled": sc.recalled,
                    "mentions": sc.mentions,
                    "mentions_ok": sc.mentions_ok}
    finally:
        _stop_session(ray, session_dir)
        shutil.rmtree(work, ignore_errors=True)
        for d in (".bench_out", ".bench_tmp"):
            try:  # left alone while another run still uses it
                os.rmdir(os.path.join(ROOT, d))
            except OSError:
                pass

    from perfbench.corpus import relation_vocabulary

    s = ctx.shape
    print(json.dumps({
        "workload": a.workload, "seed": a.seed, "ray_cpus": session.RAY_CPUS,
        "shape": {"sentences": s.sentences, "uniques": s.uniques,
                  "docs": s.docs, "dup_factor": round(s.dup_factor, 2)},
        "relations": len(relation_vocabulary()[0]),
        "relations_dropped": relation_vocabulary()[1]["query_norm_differs"],
        **info, "failures": ctx.notes[:10]}))
    print(result_line(ctx.failed, ctx.attempted, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
