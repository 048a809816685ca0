"""Canonicalization (SURVEY.md G4): index-keyed groups -> frontend-keyed
groups, merging on entities.

Port of ``models/.../ReVerbExtractionGroup.scala:103-168``
(``indexGroupingToFrontendGrouping``): two grouping passes —

1. group by *entity grouping key* (fbid when an arg is linked, else the
   frontend key part) and merge — lets "tesla" and "nikola tesla" merge
   when linked to the same entity;
2. group by *frontend key* and merge the unlinked groups into at most
   one linked group (several distinctly-linked groups stay separate),
   then rewrite the norms to the frontend key.

Distributed shape: both passes are ``ops.partition.partition_map_groups``
calls (one hash exchange each) over the (already aggregated, much
smaller) groups table. Keys are computed vectorized in a preceding
``map_batches``.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from openie_backend_ray import schema as S
from openie_backend_ray.functions.normalize import frontend_key, key_string

_KEYED = pa.schema(list(S.GROUPS) + [("ckey", pa.string())])


def instance_sig_str(inst: dict) -> str:
    """chr(30)-joined instance dedup signature — the same string the SQL
    oracles hash (``fixtures/oracles.py`` sig CTE)."""
    return "\x1e".join(
        (
            " ".join(inst["tokens"]),
            inst["corpus"],
            str(inst["arg1"]["start"]),
            str(inst["rel"]["start"]),
            str(inst["arg2"]["start"]),
        )
    )


def canon_order(t: pa.Table, idxs: list[int] | None = None) -> list[int]:
    """Deterministic member order for merge reducers: (arg1_norm,
    rel_norm, arg2_norm, md5-of-head-instance-sig).  Ray's groupby gives
    no within-group order guarantee; sorting here makes every merge —
    representative norms, entity pick, instance concat order — a pure
    function of the member SET, so reruns and the SQL oracles agree."""
    if idxs is None:
        idxs = list(range(t.num_rows))
    a1 = t["arg1_norm"].to_pylist()
    rl = t["rel_norm"].to_pylist()
    a2 = t["arg2_norm"].to_pylist()
    insts = t["instances"].to_pylist()

    def key(i: int):
        head = insts[i][0]
        # primary: the head-instance dedup sig (what the SQL oracles
        # order by); secondary: a digest over EVERY instance including
        # the fields the sig excludes (source_url, confidence), so rows
        # that tie on the sig still order deterministically — gap found
        # by the hypothesis permutation-invariance property
        tail = "\x1f".join(
            "\x1e".join((instance_sig_str(x), x["source_url"],
                         repr(x["confidence"])))
            for x in insts[i]
        )
        return (
            a1[i], rl[i], a2[i],
            hashlib.md5(instance_sig_str(head).encode()).hexdigest(),
            hashlib.md5(tail.encode()).hexdigest(),
        )

    return sorted(idxs, key=key)


def _head_frontend_key(insts: list[dict]) -> tuple[str, str, str]:
    head = insts[0]
    toks, tags = head["tokens"], head["postags"]
    return frontend_key(
        toks, tags,
        (head["arg1"]["start"], head["arg1"]["end"]),
        (head["rel"]["start"], head["rel"]["end"]),
        (head["arg2"]["start"], head["arg2"]["end"]),
    )


def add_entity_key(batch: pa.Table) -> pa.Table:
    """Key pass 1: fbid-or-frontend-part key."""
    if batch.num_rows == 0:
        return _KEYED.empty_table()
    insts = batch["instances"].to_pylist()
    e1 = batch["arg1_entity"].to_pylist()
    e2 = batch["arg2_entity"].to_pylist()
    keys = []
    for i in range(batch.num_rows):
        fk = _head_frontend_key(insts[i])
        k1 = e1[i]["fbid"] if e1[i] is not None else fk[0]
        k2 = e2[i]["fbid"] if e2[i] is not None else fk[2]
        keys.append(key_string((k1, fk[1], k2)))
    return batch.append_column("ckey", pa.array(keys, pa.string()))


def add_frontend_key(batch: pa.Table) -> pa.Table:
    """Key pass 2: pure frontend key."""
    if batch.num_rows == 0:
        return _KEYED.empty_table()
    insts = batch["instances"].to_pylist()
    keys = [key_string(_head_frontend_key(x)) for x in insts]
    return batch.append_column("ckey", pa.array(keys, pa.string()))


def _merge_rows(t: pa.Table, idxs: list[int], norms=None) -> dict:
    """Merge several group rows into one (mergeGroups semantics: prefer
    the first row with an entity for entities/types; concat instances)."""
    ent_row = next(
        (
            i
            for i in idxs
            if t["arg1_entity"][i].is_valid or t["arg2_entity"][i].is_valid
        ),
        idxs[0],
    )
    insts: list[dict] = []
    seen = set()
    for i in idxs:
        for inst in t["instances"][i].as_py():
            sig = instance_sig_str(inst)
            if sig in seen:
                continue
            seen.add(sig)
            insts.append(inst)
    if norms is None:
        norms = (
            t["arg1_norm"][idxs[0]].as_py(),
            t["rel_norm"][idxs[0]].as_py(),
            t["arg2_norm"][idxs[0]].as_py(),
        )
    return {
        "arg1_norm": norms[0],
        "rel_norm": norms[1],
        "arg2_norm": norms[2],
        "arg1_entity": t["arg1_entity"][ent_row].as_py(),
        "arg2_entity": t["arg2_entity"][ent_row].as_py(),
        "arg1_types": t["arg1_types"][ent_row].as_py(),
        "arg2_types": t["arg2_types"][ent_row].as_py(),
        "instances": insts,
        "size": len(insts),
        "corpora": sorted({i["corpus"] for i in insts}),
    }


def _rows_to_table(rows: list[dict]) -> pa.Table:
    if not rows:
        return S.GROUPS.empty_table()
    return pa.Table.from_pydict(
        {k: [r[k] for r in rows] for k in rows[0]}, schema=S.GROUPS
    )


def merge_entity_groups(t: pa.Table) -> pa.Table:
    """Pass-1 reducer: plain merge of one entity-key's groups (members
    in canonical order — see ``canon_order``)."""
    t = t.drop_columns(["ckey"])
    return _rows_to_table([_merge_rows(t, canon_order(t))])


def merge_frontend_groups(t: pa.Table) -> pa.Table:
    """Pass-2 reducer: mergeUnlinkedIntoLargestLinkedGroup + convertKey
    (``ReVerbExtractionGroup.scala:154-182``)."""
    key = t["ckey"][0].as_py()
    norms = tuple(key.split("__"))
    if len(norms) != 3:  # frontend key part contained "__" — keep as-is
        norms = None
    t = t.drop_columns(["ckey"])
    idxs = canon_order(t)
    linked = [
        i
        for i in idxs
        if t["arg1_entity"][i].is_valid or t["arg2_entity"][i].is_valid
    ]
    unlinked = [i for i in idxs if i not in set(linked)]
    if len(linked) <= 1:
        return _rows_to_table([_merge_rows(t, idxs, norms)])
    rows = []
    if unlinked:
        rows.append(_merge_rows(t, unlinked, norms))
    for i in linked:
        rows.append(_merge_rows(t, [i], norms))
    return _rows_to_table(rows)


def canonicalize(groups_ds):
    """GROUPS dataset -> frontend-canonicalized GROUPS dataset (G4)."""
    from openie_backend_ray.ops.partition import partition_map_groups

    pass1 = partition_map_groups(
        groups_ds.map_batches(add_entity_key, batch_format="pyarrow"),
        "ckey", merge_entity_groups,
    )
    return partition_map_groups(
        pass1.map_batches(add_frontend_key, batch_format="pyarrow"),
        "ckey", merge_frontend_groups,
    )
