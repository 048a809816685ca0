"""Post-grouping jobs over the GROUPS table (SURVEY.md M10, M12, M13,
G2, G5, G6, G10): extreme filter, head-phrase comparer, answer
projections, re-grouper, inlink-ratio computer, arg-pair extractor,
index-time renormalize."""

from __future__ import annotations

import pyarrow as pa

from openie_backend_ray import schema as S
from openie_backend_ray.functions.normalize import (
    head_part,
    index_key,
    key_string,
)
from openie_backend_ray.functions.stemmer import stem
from openie_backend_ray.stages.postprocess import PRONOUNS

# ---------------------------------------------------------------------------
# M10: extreme filter (ScoobiReVerbGroupExtremeFilter.scala:65-91)
# ---------------------------------------------------------------------------

REL_BLACKLIST = frozenset({"said", "have", "is"})  # :82
ARG_BLACKLIST = frozenset(
    {"both", "all", "some", "other", "this", "that", "those", "sunday",
     "monday", "tuesday", "wednesday", "thursday", "friday", "saturday",
     "yesterday", "tomorrow", "today"}
)  # :83-84
EXTREME_CONF = 0.9  # :57


def _definite_noun(toks: list[str], tags: list[str]) -> bool:
    """DT immediately followed by NN/NNP (:66-78)."""
    for i in range(len(tags) - 1):
        if tags[i] == "DT" and tags[i + 1] in ("NN", "NNP"):
            return True
    return False


def _part(inst: dict, which: str) -> tuple[list[str], list[str]]:
    iv = inst[which]
    return (inst["tokens"][iv["start"]: iv["end"]],
            inst["postags"][iv["start"]: iv["end"]])


def extreme_instance_passes(inst: dict,
                            conf_threshold: float = EXTREME_CONF) -> bool:
    if inst["confidence"] <= conf_threshold:
        return False
    rel_toks, rel_tags = _part(inst, "rel")
    a1_toks, a1_tags = _part(inst, "arg1")
    a2_toks, a2_tags = _part(inst, "arg2")
    if len(rel_toks) == 1 and stem(
        rel_toks[0], rel_tags[0]
    ) in REL_BLACKLIST:
        return False
    for toks, tags in ((a1_toks, a1_tags), (a2_toks, a2_tags)):
        for t, g in zip(toks, tags):
            if stem(t, g) in ARG_BLACKLIST:
                return False
            if t.lower() in PRONOUNS and g.startswith(("PRP", "WP", "DT")):
                return False
        if _definite_noun(toks, tags):
            return False
    for t in rel_toks:
        if t.lower() in PRONOUNS:
            return False
    return True


def extreme_filter_batch(batch: pa.Table) -> pa.Table:
    """Strict profile: conf>0.9 + blacklists + no definite nouns; keep
    groups with >=2 surviving instances."""
    if batch.num_rows == 0:
        return S.GROUPS.empty_table()
    from openie_backend_ray.stages.postprocess import _rebuild

    inst_lists = batch["instances"].to_pylist()
    new_lists = [
        [i for i in insts if extreme_instance_passes(i)]
        for insts in inst_lists
    ]
    keep = [len(x) >= 2 for x in new_lists]
    return _rebuild(batch, new_lists, keep)


def extreme_filter(groups_ds):
    return groups_ds.map_batches(extreme_filter_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# M12: head-phrase comparer (ScoobiHeadPhraseComparer.scala:18-34)
# ---------------------------------------------------------------------------

def _head_text(inst: dict, which: str) -> str:
    """argXHead: modifier-stripped, unstemmed text
    (``models/.../ReVerbExtraction.scala:76-91``)."""
    iv = inst[which]
    return head_part(inst["tokens"], inst["postags"],
                     iv["start"], iv["end"])


def head_phrases_batch(batch: pa.Table) -> pa.Table:
    """GROUPS row -> two rows (arg_norm, arg_head) for arg1 and arg2."""
    if batch.num_rows == 0:
        return pa.table({"arg_norm": pa.array([], pa.string()),
                         "arg_head": pa.array([], pa.string())})
    insts = batch["instances"].to_pylist()
    a1 = batch["arg1_norm"].to_pylist()
    a2 = batch["arg2_norm"].to_pylist()
    norms, heads = [], []
    for i in range(batch.num_rows):
        head = insts[i][0]
        norms.append(a1[i])
        heads.append(_head_text(head, "arg1"))
        norms.append(a2[i])
        heads.append(_head_text(head, "arg2"))
    return pa.table({"arg_norm": pa.array(norms, pa.string()),
                     "arg_head": pa.array(heads, pa.string())})


def head_phrases(groups_ds):
    return groups_ds.map_batches(head_phrases_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# M13: answer projections (ScoobiGroupToAnswer.scala:26-38)
# ---------------------------------------------------------------------------

_BLANK_COMBOS = (
    ("arg1",), ("rel",), ("arg2",),
    ("arg1", "rel"), ("arg1", "arg2"), ("rel", "arg2"),
)


def answer_projections_batch(batch: pa.Table) -> pa.Table:
    """Each group emitted once per field-blanking combination (the query
    precompute; the reference computes the 6 copies then emits the
    original — we emit the projections, which is what a precompute
    actually needs)."""
    if batch.num_rows == 0:
        return pa.table(
            {"arg1_norm": pa.array([], pa.string()),
             "rel_norm": pa.array([], pa.string()),
             "arg2_norm": pa.array([], pa.string()),
             "blanked": pa.array([], pa.string()),
             "size": pa.array([], pa.int32())}
        )
    a1 = batch["arg1_norm"].to_pylist()
    rl = batch["rel_norm"].to_pylist()
    a2 = batch["arg2_norm"].to_pylist()
    sz = batch["size"].to_pylist()
    o1, orl, o2, ob, osz = [], [], [], [], []
    for i in range(batch.num_rows):
        for combo in _BLANK_COMBOS:
            o1.append("" if "arg1" in combo else a1[i])
            orl.append("" if "rel" in combo else rl[i])
            o2.append("" if "arg2" in combo else a2[i])
            ob.append("+".join(combo))
            osz.append(sz[i])
    return pa.table(
        {"arg1_norm": pa.array(o1, pa.string()),
         "rel_norm": pa.array(orl, pa.string()),
         "arg2_norm": pa.array(o2, pa.string()),
         "blanked": pa.array(ob, pa.string()),
         "size": pa.array(osz, pa.int32())}
    )


def answer_projections(groups_ds):
    return groups_ds.map_batches(
        answer_projections_batch, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# G5: inlink-ratio computer (ScoobiInlinkRatioComputer.scala:38-76)
# ---------------------------------------------------------------------------

def inlink_ratio(groups_ds, arg_field: str = "arg1"):
    """Key linked groups by fbid; ratio = group count / entity inlinks.
    Partial count per batch -> ONE small groupby (combiner pattern)."""
    ent_col = f"{arg_field}_entity"

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[str, list] = {}
        for e in batch[ent_col].to_pylist():
            if e is None:
                continue
            row = counts.setdefault(e["fbid"], [0, e["name"],
                                                e["inlink_ratio"]])
            row[0] += 1
        return pa.table(
            {"fbid": pa.array(list(counts), pa.string()),
             "n": pa.array([v[0] for v in counts.values()], pa.int64()),
             "name": pa.array([v[1] for v in counts.values()], pa.string()),
             "inlinks": pa.array([v[2] for v in counts.values()],
                                 pa.float64())}
        )

    def reduce_group(g: pa.Table) -> pa.Table:
        n = sum(g["n"].to_pylist())
        inl = g["inlinks"][0].as_py() or 1.0
        return pa.table(
            {"fbid": pa.array([g["fbid"][0].as_py()], pa.string()),
             "entity_name": pa.array([g["name"][0].as_py()], pa.string()),
             "n_groups": pa.array([n], pa.int64()),
             "ratio": pa.array([n / inl], pa.float64())}
        )

    from openie_backend_ray.ops.partition import partition_map_groups

    return partition_map_groups(
        groups_ds.map_batches(partial, batch_format="pyarrow"),
        "fbid", reduce_group,
    )


# ---------------------------------------------------------------------------
# G6: arg-pair extractor (ArgPairExtractor.scala:46-56)
# ---------------------------------------------------------------------------

def arg_pairs(groups_ds, cap: int = 1_000_000):
    """rel_norm -> up to ``cap`` "arg1+arg2" strings."""
    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"rel_norm": batch["rel_norm"],
             "arg_pair": pa.array(
                 [f"{a}+{b}" for a, b in
                  zip(batch["arg1_norm"].to_pylist(),
                      batch["arg2_norm"].to_pylist())],
                 pa.string())}
        )

    def reduce_group(g: pa.Table) -> pa.Table:
        return g.slice(0, cap)

    from openie_backend_ray.ops.partition import partition_map_groups

    return partition_map_groups(
        groups_ds.map_batches(project, batch_format="pyarrow"),
        "rel_norm", reduce_group,
    )


# ---------------------------------------------------------------------------
# G2: re-grouper (ScoobiGroupReGrouper.scala:44-77)
# ---------------------------------------------------------------------------

def _head_index_key(insts: list[dict]) -> str:
    head = insts[0]
    k = index_key(
        head["tokens"], head["postags"],
        (head["arg1"]["start"], head["arg1"]["end"]),
        (head["rel"]["start"], head["rel"]["end"]),
        (head["arg2"]["start"], head["arg2"]["end"]),
    )
    return key_string(k)


def regroup_add_key(batch: pa.Table) -> pa.Table:
    """Tag each GROUPS row with its head instance's index grouping key
    (the G2 shuffle key).  Shared by ``regroup`` and the incremental
    provenance-carrying variant so the two paths cannot drift."""
    if batch.num_rows == 0:
        return batch.append_column("rkey", pa.array([], pa.string()))
    keys = [
        _head_index_key(insts)
        for insts in batch["instances"].to_pylist()
    ]
    return batch.append_column("rkey", pa.array(keys, pa.string()))


def merge_group_rows(g: pa.Table, max_instances: int = 40_000) -> dict:
    """Merge one rkey-group of GROUPS rows into a single row dict
    (canonical member order, link preference, instance cap) — the ONE
    G2 merge implementation; callers wrap it into a Table and may
    append provenance columns."""
    from openie_backend_ray.stages.canonicalize import (
        _merge_rows,
        canon_order,
    )

    row = _merge_rows(g, canon_order(g))
    row["instances"] = row["instances"][:max_instances]
    row["size"] = len(row["instances"])
    return row


def regroup(groups_ds, max_instances: int = 40_000):
    """Re-key GROUPS by the head instance's index grouping key and merge
    (used after unioning corpora or an incremental delta; prefers the
    member group that has an entity link, concat instances with cap)."""
    def merge(g: pa.Table) -> pa.Table:
        row = merge_group_rows(g.drop_columns(["rkey"]), max_instances)
        return pa.Table.from_pydict(
            {k: [row[k]] for k in row}, schema=S.GROUPS
        )

    from openie_backend_ray.ops.partition import partition_map_groups

    return partition_map_groups(
        groups_ds.map_batches(regroup_add_key, batch_format="pyarrow"),
        "rkey", merge,
    )


# ---------------------------------------------------------------------------
# G10: index-time renormalize (ExtractionGroup.scala:69-86)
# ---------------------------------------------------------------------------

def renormalize_batch(batch: pa.Table) -> pa.Table:
    """Fracture each group by the recomputed index key of each instance
    (entities/types copied to every fragment) — per-row flat_map, no
    shuffle; follow with ``regroup`` when a full re-key is wanted."""
    if batch.num_rows == 0:
        return S.GROUPS.empty_table()
    rows: list[dict] = []
    for i in range(batch.num_rows):
        base = {c: batch[c][i].as_py() for c in batch.column_names}
        frags: dict[str, list[dict]] = {}
        for inst in base["instances"]:
            k = _head_index_key([inst])
            frags.setdefault(k, []).append(inst)
        for k, insts in frags.items():
            parts = k.split("__")
            if len(parts) != 3:
                parts = [base["arg1_norm"], base["rel_norm"],
                         base["arg2_norm"]]
            rows.append(
                {
                    "arg1_norm": parts[0],
                    "rel_norm": parts[1],
                    "arg2_norm": parts[2],
                    "arg1_entity": base["arg1_entity"],
                    "arg2_entity": base["arg2_entity"],
                    "arg1_types": base["arg1_types"],
                    "arg2_types": base["arg2_types"],
                    "instances": insts,
                    "size": len(insts),
                    "corpora": sorted({x["corpus"] for x in insts}),
                }
            )
    return pa.Table.from_pydict(
        {k: [r[k] for r in rows] for k in rows[0]}, schema=S.GROUPS
    )


def renormalize(groups_ds):
    return groups_ds.map_batches(renormalize_batch, batch_format="pyarrow")
