"""Query path over the materialized triples table (SURVEY.md §3.3 —
the output contract of ``ParallelExtractionGroupFetcher``).

The reference serves queries from Lucene indexes with stemmed field
clauses, size-tiered fetching, instance budgets and a Success/Limited/
Timeout algebra (``backend/.../ExtractionGroupFetcher.scala:68-161``,
``QuerySpec.scala:81-150``). Our materialized store is the sorted,
partitioned Parquet triples table; the equivalent query is a PRUNED
read: normalized field clauses push down as Parquet filters (row-group
skipping on the sort key), results sort by group size desc with the
reference's maxGroups budget.
"""

from __future__ import annotations

import functools
import gzip
import os
import time
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# J5: fetch-time entity stoplist (ExtractionGroupFetcher.scala:119-133)
# ---------------------------------------------------------------------------

_STOPLIST_GZ = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "functions", "data", "entity-stoplist-25k.txt.gz",
)


@functools.lru_cache(maxsize=1)
def entity_stoplist() -> frozenset:
    """The reference's 25k-fbid entity stoplist (vendored public
    resource, ``entity-stoplist-25k.txt``)."""
    with gzip.open(_STOPLIST_GZ, "rt", encoding="utf-8") as f:
        return frozenset(line.strip() for line in f if line.strip())


def strip_stoplisted_entities(batch, stoplist: frozenset):
    """Remove (entity, types) where the linked fbid is stoplisted; the
    group itself is kept (``filterGroup``, :119-133)."""
    import pyarrow as pa

    from openie_backend_ray import schema as S

    out = {}
    for name in batch.column_names:
        out[name] = batch[name].to_pylist()
    for side in ("arg1", "arg2"):
        ents = out.get(f"{side}_entity")
        if ents is None:
            continue
        typs = out[f"{side}_types"]
        for i, e in enumerate(ents):
            if e is not None and e["fbid"] in stoplist:
                ents[i] = None
                typs[i] = []
    schema = batch.schema
    return pa.Table.from_pydict(out, schema=schema)


# ---------------------------------------------------------------------------
# Result algebra (ResultSet.scala:7-45): Success < Limited < Timeout
# ---------------------------------------------------------------------------

@dataclass
class ResultSet:
    """Query result with a completeness status.  ``combine_with``
    precedence: Timeout > Limited > Success (ResultSet.scala:7-45)."""

    status: str  # "success" | "limited" | "timeout"
    results: list = field(default_factory=list)
    total_groups: int = 0  # hit count incl. unread (Limited/Timeout)

    _RANK = {"success": 0, "limited": 1, "timeout": 2}

    @property
    def num_groups(self) -> int:
        return len(self.results)

    @property
    def num_instances(self) -> int:
        return sum(r["size"] for r in self.results)

    def combine_with(self, other: "ResultSet") -> "ResultSet":
        status = max(self.status, other.status, key=self._RANK.__getitem__)
        total = 0
        for r in (self, other):
            # Success contributes its read group count to a degraded
            # total (Limited.combineWith(Success), ResultSet.scala:28)
            total += r.total_groups if r.status != "success" else r.num_groups
        return ResultSet(
            status,
            self.results + other.results,
            total if status != "success" else 0,
        )


# size tiers, largest first (QuerySpec.numericRangeQueries:138-150):
# [lo, hi) half-open; None = unbounded
_TIERS_BROAD = [(50, None), (25, 50), (4, 25), (1, 4)]   # <=1 clause
_TIERS_NARROW = [(15, None), (4, 15), (1, 4)]            # >1 clause


def normalize_query_part(text: str, tags: list[str] | None = None) -> str:
    """User text -> normalized clause (same stem+strip as the grouping
    key; the reference stems query terms with the same TaggedStemmer
    after POS-tagging them with its query-side tagger pool,
    ``QuerySpec.scala:81-134,190-224`` — A7).  Without explicit tags the
    engine's out-of-lexicon tagger supplies them — the SAME trained
    perceptron the chunker uses, so query terms normalize exactly like
    indexed terms outside the golden lexicon."""
    from openie_backend_ray.functions.normalize import index_key_part

    toks = text.split()
    if tags is None:
        from openie_backend_ray.stages.chunker import model_layers

        h_toks, h_tags, _ = model_layers(text)
        if h_toks == toks:
            tags = h_tags
        else:  # tokenization disagreement: fall back to noun tags
            tags = ["NN"] * len(toks)
    return index_key_part(toks, tags, 0, len(toks))


def query_triples(
    triples_dir: str,
    arg1: str | None = None,
    rel: str | None = None,
    arg2: str | None = None,
    max_groups: int = 1000,  # ExtractionGroupFetcher maxGroups budget
    columns: list[str] | None = None,
):
    """Fetch matching groups, largest first.

    Clauses are normalized exactly like index keys, pushed down as
    Parquet filters (``arg1_norm`` is the leading sort key of the
    materialized table, so arg1 clauses skip row groups at the read).
    """
    import pyarrow.compute as pc
    import ray.data

    clauses = []
    if arg1 is not None:
        clauses.append(pc.field("arg1_norm") == normalize_query_part(arg1))
    if rel is not None:
        clauses.append(pc.field("rel_norm") == normalize_query_part(rel))
    if arg2 is not None:
        clauses.append(pc.field("arg2_norm") == normalize_query_part(arg2))
    expr = None
    for c in clauses:
        expr = c if expr is None else (expr & c)
    ds = ray.data.read_parquet(
        triples_dir,
        filter=expr,
        columns=columns,
    )
    # J5: strip stoplisted entities at fetch time (reference always-on
    # default, ExtractionGroupFetcher.scala:62-63,119-133)
    sl = entity_stoplist()
    ds = ds.map_batches(
        lambda b: strip_stoplisted_entities(b, sl), batch_format="pyarrow"
    )
    # the reference sorts results by group size desc
    # (ParallelExtractionGroupFetcher.scala:176) and caps at maxGroups
    return ds.sort("size", descending=True).limit(max_groups)


def _clause_expr(arg1, rel, arg2, normalize: bool = True):
    import pyarrow.compute as pc

    norm = normalize_query_part if normalize else (lambda s: s)
    clauses = []
    if arg1 is not None:
        clauses.append(pc.field("arg1_norm") == norm(arg1))
    if rel is not None:
        clauses.append(pc.field("rel_norm") == norm(rel))
    if arg2 is not None:
        clauses.append(pc.field("arg2_norm") == norm(arg2))
    expr = None
    for c in clauses:
        expr = c if expr is None else (expr & c)
    return expr, len(clauses)


def fetch_groups(
    triples_dir: str,
    arg1: str | None = None,
    rel: str | None = None,
    arg2: str | None = None,
    max_groups: int = 1000,    # searchMaxGroups budget
    max_instances: int = 10_000,  # readMaxInstances budget
    timeout_millis: float | None = None,
    stoplist: bool = True,
    normalize: bool = True,  # False: clauses are already index norms
    backend: str = "auto",   # "arrow" | "ray" | "auto" (see docstring)
) -> ResultSet:
    """Budgeted, size-tiered fetch with the reference's result algebra
    (``ExtractionGroupFetcher.getGroups``, :143-161):

    - size tiers queried LARGEST-FIRST (4 tiers for broad queries with
      <=1 clause, 3 for narrow, ``QuerySpec.scala:138-150``);
    - running maxGroups / maxInstances budgets with a 1/20 tolerance —
      a tier is skipped once a budget is within tolerance of spent;
    - a group that would overflow the instance budget is NOT returned
      and marks the result Limited (:96-107).  Truncation by the
      maxGroups collector alone is SUCCESS, matching ``readResultSet``
      (``ExtractionGroupFetcher.scala:87-111``) — only the
      instance-budget overflow path degrades the status;
    - wall-clock timeout marks it Timeout; Timeout > Limited > Success
      under combine (:7-45).

    Each tier executes ONCE: a per-block local top-k-by-size partial
    also tags its block's hit count, so the driver re-reduces at most
    ``blocks x remaining_groups`` rows (a local top-k per block, one
    small global top-k on the driver) instead of running the dataset
    twice (count() + global sort).

    Backend: a CLAUSED fetch is a point query — the Parquet filter
    pushdown returns at most a few budgeted row groups, so launching a
    distributed Dataset per tier pays ~200 ms of fixed scheduling per
    tier for a driver-sized read.  ``backend="arrow"`` scans the store
    with ``pyarrow.dataset`` directly (same pushdown, same rows, no
    task launch) — the serving-latency analogue of the reference
    querying Lucene in-process.  ``"auto"`` picks arrow when any
    clause is present and the distributed scan (``"ray"``) for
    unclaused full-store fetches."""
    import pyarrow.compute as pc
    import ray.data

    expr, n_clauses = _clause_expr(arg1, rel, arg2, normalize=normalize)
    if backend == "auto":
        backend = "arrow" if n_clauses > 0 else "ray"
    tiers = _TIERS_NARROW if n_clauses > 1 else _TIERS_BROAD
    group_tol = max_groups // 20      # searchGroupTolerance (:55)
    inst_tol = max_instances // 20    # readInstanceTolerance (:56)
    sl = entity_stoplist() if stoplist else frozenset()

    t0 = time.monotonic()

    def elapsed_ms() -> float:
        return (time.monotonic() - t0) * 1000.0

    remaining_groups = max_groups
    remaining_instances = max_instances
    acc = ResultSet("success")
    for lo, hi in tiers:
        if remaining_groups <= group_tol or remaining_instances <= inst_tol:
            break
        if timeout_millis is not None and elapsed_ms() >= timeout_millis:
            acc = acc.combine_with(ResultSet("timeout", [], 0))
            break
        tier_expr = pc.field("size") >= lo
        if hi is not None:
            tier_expr = tier_expr & (pc.field("size") < hi)
        if expr is not None:
            tier_expr = tier_expr & expr
        k = remaining_groups
        if backend == "arrow":
            import pyarrow.dataset as pads

            tbl = pads.dataset(triples_dir, format="parquet").to_table(
                filter=tier_expr
            )
            if sl and tbl.num_rows:
                tbl = strip_stoplisted_entities(tbl, sl)
            hits = tbl.num_rows
            order = pc.sort_indices(
                tbl, sort_keys=[("size", "descending")]
            )
            rows = tbl.take(order[:k]).to_pylist()
        else:
            ds = ray.data.read_parquet(triples_dir, filter=tier_expr)
            if sl:
                ds = ds.map_batches(
                    lambda b: strip_stoplisted_entities(b, sl),
                    batch_format="pyarrow",
                )

            def topk_partial(batch, _k=k):
                import pyarrow as pa
                import pyarrow.compute as pc

                if batch.num_rows == 0:
                    return batch.append_column(
                        "_hits", pa.array([], pa.int64())
                    )
                order = pc.sort_indices(
                    batch, sort_keys=[("size", "descending")]
                )
                top = batch.take(order[:_k])
                tags = [batch.num_rows] + [0] * (top.num_rows - 1)
                return top.append_column(
                    "_hits", pa.array(tags, pa.int64())
                )

            part = ds.map_batches(
                topk_partial, batch_format="pyarrow", batch_size=None
            ).take_all()
            hits = sum(r.pop("_hits") for r in part)
            part.sort(key=lambda r: -r["size"])
            rows = part[:k]
        taken: list = []
        inst_count = 0
        # maxGroups truncation alone is Success (readResultSet,
        # ExtractionGroupFetcher.scala:87-111); only instance-budget
        # overflow below sets Limited
        limited = False
        timed_out = False
        for r in rows:
            if timeout_millis is not None and elapsed_ms() >= timeout_millis:
                timed_out = True
                break
            if inst_count + r["size"] > remaining_instances:
                limited = True
                break
            inst_count += r["size"]
            taken.append(r)
        if timed_out:
            tier_rs = ResultSet("timeout", taken, hits)
        elif limited:
            tier_rs = ResultSet("limited", taken, hits)
        else:
            tier_rs = ResultSet("success", taken)
        remaining_groups -= tier_rs.num_groups
        remaining_instances -= inst_count
        acc = acc.combine_with(tier_rs)
        if timed_out:
            break
    return acc
