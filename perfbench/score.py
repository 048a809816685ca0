"""Score a written triples store against the planted truth."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import pyarrow.dataset as pads

_COLS = ["arg1_norm", "rel_norm", "arg2_norm", "arg1_entity",
         "arg2_entity", "size"]


@dataclass
class Score:
    groups: int
    matched: int            # emitted groups that are planted triples
    planted: int
    recalled: int           # planted triples emitted
    mentions: int           # argument slots of emitted planted groups
    mentions_ok: int        # ... linked to their planted fbid (or unlinked)
    digest: str             # order-free digest of keys, links and sizes

    @property
    def precision(self) -> float:
        return self.matched / max(1, self.groups)

    @property
    def recall(self) -> float:
        return self.recalled / max(1, self.planted)

    @property
    def link_accuracy(self) -> float:
        return self.mentions_ok / max(1, self.mentions)


def read_store(path: str):
    return pads.dataset(path, format="parquet").to_table(columns=_COLS)


def score_table(t, truth: dict) -> Score:
    """``t``: a store read by ``read_store``; ``truth``: (arg1, rel,
    arg2) norms -> (arg1 fbid, arg2 fbid)."""
    a1 = t["arg1_norm"].to_pylist()
    rl = t["rel_norm"].to_pylist()
    a2 = t["arg2_norm"].to_pylist()
    e1 = t["arg1_entity"].to_pylist()
    e2 = t["arg2_entity"].to_pylist()
    sizes = t["size"].to_pylist()
    rows = []
    matched = mentions = ok = 0
    emitted = set()
    for i in range(t.num_rows):
        key = (a1[i], rl[i], a2[i])
        f1 = e1[i]["fbid"] if e1[i] else None
        f2 = e2[i]["fbid"] if e2[i] else None
        rows.append(f"{key}|{f1}|{f2}|{sizes[i]}")
        want = truth.get(key)
        if want is None:
            continue
        matched += 1
        emitted.add(key)
        mentions += 2
        ok += (f1 == want[0]) + (f2 == want[1])
    rows.sort()
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]
    return Score(t.num_rows, matched, len(truth), len(emitted & truth.keys()),
                 mentions, ok, digest)
