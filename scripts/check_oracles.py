"""Local replica of the driver's correctness gate: run every
``queries()`` entry and its DuckDB oracle side-by-side on an sf dir,
compare row count, schema (sorted column names) and an
order-insensitive value hash. Usage:

    python scripts/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import duckdb
import pandas as pd


TABLES = ("documents",)


def to_pandas(res):
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def missing_reference(exc: BaseException) -> str | None:
    """The reference fixture path when ``exc`` is its absence, else
    None: the entries built on the reference's golden TSVs are skipped
    where it is not mounted, and every other error still fails."""
    from openie_backend_ray.fixtures.reverb_tsv import (
        GROUPS_FIXTURE, REVERB_FIXTURE,
    )

    if (isinstance(exc, FileNotFoundError)
            and exc.filename in (REVERB_FIXTURE, GROUPS_FIXTURE)):
        return exc.filename
    return None


def value_hash(df: pd.DataFrame) -> str:
    import hashlib

    df = df[sorted(df.columns)]
    rows = sorted(
        df.astype(str).itertuples(index=False, name=None)
    )
    h = hashlib.sha256()
    for r in rows:
        h.update("\x1f".join(r).encode())
        h.update(b"\x1e")
    return h.hexdigest()[:16]


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=min(8, os.cpu_count() or 1),
                 include_dashboard=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import __ray_entry__ as E

    qs, sqls = E.queries(), E.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'"
        )

    failures = 0
    for name in sorted(qs):
        if only and name not in only:
            continue
        try:
            got = to_pandas(qs[name](sf_dir))
        except Exception as exc:  # noqa: BLE001
            if missing := missing_reference(exc):
                print(f"{name}: SKIP reference missing: {missing}")
                continue
            print(f"{name}: RAY ERROR {type(exc).__name__}: {exc}")
            failures += 1
            continue
        if name not in sqls:
            print(f"{name}: rows-only rows={len(got)} "
                  f"cols={sorted(got.columns)}")
            continue
        try:
            want = con.sql(sqls[name]).df()
        except Exception as exc:  # noqa: BLE001
            if missing := missing_reference(exc):
                print(f"{name}: SKIP reference missing: {missing}")
                continue
            print(f"{name}: SQL ERROR {type(exc).__name__}: {exc}")
            failures += 1
            continue
        problems = []
        if len(got) != len(want):
            problems.append(f"rows {len(got)} != {len(want)}")
        if sorted(got.columns) != sorted(want.columns):
            problems.append(
                f"cols {sorted(got.columns)} != {sorted(want.columns)}"
            )
        else:
            gh, wh = value_hash(got), value_hash(want)
            if gh != wh:
                problems.append(f"hash {gh} != {wh}")
        if problems:
            failures += 1
            print(f"{name}: MISMATCH {'; '.join(problems)}")
            if len(got) == len(want) and not got.empty:
                g = got[sorted(got.columns)]
                w = want[sorted(want.columns)]
                gs = g.astype(str).apply("|".join, axis=1).sort_values()
                ws = w.astype(str).apply("|".join, axis=1).sort_values()
                diff = set(gs) ^ set(ws)
                for d in sorted(diff)[:4]:
                    side = "ray" if d in set(gs) else "sql"
                    print(f"   [{side}] {d[:160]}")
        else:
            print(f"{name}: OK rows={len(got)}")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
