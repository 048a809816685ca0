"""Interleaved A/B pairs of ``perfbench/run.py``: a parent checkout
against this one.

Usage, from the root of this checkout:

    git archive <parent-rev> | tar -x -C <parent-dir>
    python3 scripts/ab_perfbench.py --parent <parent-dir> \\
        --workload web_unique --seeds 1 2 3 4 5 6 7 8 9 10 \\
        [--out pairs.jsonl]

One pair per seed; each run lasts the benchmark's ``run_seconds``
(``BENCHMARK.json``) on both sides. The runs go one at a time, never
side by side: ``cpu_s_per_ksent`` and ``setup_s`` read the
machine-wide ``/proc/stat``, so a run beside another one counts the
other's CPU too. Which side runs first alternates from pair to pair
(the parent first in pairs 1, 3, 5, ...). Each run's result line is appended
to ``--out`` as it comes; at the end, for each metric of the
workload, the script prints the parent's and this checkout's median
and quartiles and the number of pairs this checkout won, reading from
``BENCHMARK.json`` whether lower or higher is better. Nothing else
may run on the host meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_one(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` in ``root``; its result line, or
    ``{"error": ...}`` when the run fails."""
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return {"error": f"exit {p.returncode}: {p.stderr[-500:]}"}
    return json.loads(lines[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], better: dict[str, str]) -> list[str]:
    """One line per metric: parent and head (q1 / median / q3), the
    parent's IQR, and head's wins and ties over the pairs both sides
    finished."""
    done = [p for p in pairs if "metrics" in p["parent"]
            and "metrics" in p["head"]]
    out = [f"{len(done)} of {len(pairs)} pairs finished on both sides; "
           f"failed operations: parent "
           f"{sum(p['parent']['failed'] for p in done)}, head "
           f"{sum(p['head']['failed'] for p in done)}"]
    if not done:
        return out
    for name in done[0]["parent"]["metrics"]:
        a = [p["parent"]["metrics"][name]["value"] for p in done]
        b = [p["head"]["metrics"][name]["value"] for p in done]
        lower = better.get(name, "lower") == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        out.append(
            f"{name:18s} parent {qa[0]:.4g} / {qa[1]:.4g} / {qa[2]:.4g}"
            f"  head {qb[0]:.4g} / {qb[1]:.4g} / {qb[2]:.4g}"
            f"  parent IQR {qa[2] - qa[0]:.4g}"
            f"  head better in {wins}/{len(done)}, equal in {ties}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True,
                    help="root of the parent checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", default=None,
                    help="append each pair as one JSON line here")
    a = ap.parse_args(argv)

    with open(os.path.join(HERE, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    roots = {"parent": os.path.abspath(a.parent), "head": HERE}
    pairs = []
    for i, seed in enumerate(a.seeds):
        order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
        pair = {"workload": a.workload, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_one(roots[side], a.workload, seed,
                                 bench["run_seconds"])
        pairs.append(pair)
        if a.out:
            with open(a.out, "a") as f:
                f.write(json.dumps(pair) + "\n")
        vals = {s: pair[s].get("metrics", {}).get("cpu_s_per_ksent", {})
                .get("value") for s in ("parent", "head")}
        print(f"pair {i + 1}/{len(a.seeds)} seed {seed} ({order[0]} first):"
              f" cpu_s_per_ksent parent {vals['parent']} head "
              f"{vals['head']}", flush=True)
    print(f"== {a.workload}")
    for line in summarize(pairs, better):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
