"""Per-group post-processing: sentence dedup (G3), cleaning (M7) and the
aesthetic/group filters (M8-M10). All are per-row (per-group) transforms
— no shuffle — implemented as vectorized-over-batch ``map_batches``
bodies that loop Python over the nested instance lists (the inner
heuristics are order-sensitive sequential scans by design;
``models/.../InstanceDeduplicator.scala:22-90``)."""

from __future__ import annotations

import re

import pyarrow as pa

from openie_backend_ray import schema as S

# ---------------------------------------------------------------------------
# G3: window-token near-duplicate sentence dedup (InstanceDeduplicator)
# ---------------------------------------------------------------------------

WINDOW = 3


def dedup_instances(insts: list[dict]) -> list[dict]:
    """Port of ``InstanceDeduplicator.deduplicate`` (:22-90): keep an
    instance iff its window-3 context tokens contribute a new token and
    repeat < 3 previously-seen (token, position) pairs; whole-sentence
    extractions dedup exactly on sentence text. Order: confidence desc
    with a +0.1 wiki-corpus bonus (the reference's in-group sort)."""
    if len(insts) <= 1:
        return insts

    def hack_conf(i: dict) -> float:
        return -(i["confidence"] + (0.1 if i["corpus"] == "wiki" else 0.0))

    # full tiebreak (spans, corpus, url): the scan is order-sensitive,
    # so instances tying on (conf, sentence) must still order
    # deterministically for reruns and the SQL oracle to agree
    ordered = sorted(
        insts,
        key=lambda i: (
            hack_conf(i), " ".join(i["tokens"]),
            i["arg1"]["start"], i["rel"]["start"], i["arg2"]["start"],
            i["arg2"]["end"], i["corpus"], i["source_url"],
        ),
    )
    seen_before: set[str] = set()
    seen_after: set[str] = set()
    seen_positions: set[tuple[str, int]] = set()
    whole_sents: set[str] = set()
    kept = []
    for inst in ordered:
        start = inst["arg1"]["start"]
        end = inst["arg2"]["end"]
        toks = inst["tokens"]
        n = len(toks)
        if start == 0 and end >= n - 2:  # covers whole sentence (-2: period)
            sent = " ".join(toks).lower()
            if sent not in whole_sents:
                whole_sents.add(sent)
                kept.append(inst)
            continue
        before = [
            (toks[p].lower(), p)
            for p in range(max(0, start - WINDOW), start)
        ]
        after = [
            (toks[p].lower(), p)
            for p in range(end + 1, min(n, end + 1 + WINDOW))
        ]
        window = before + after
        repeats = sum(1 for pair in window if pair in seen_positions)
        seen_positions.update(window)
        if repeats >= WINDOW:
            continue
        old_b, old_a = len(seen_before), len(seen_after)
        seen_before.update(w for w, _ in before)
        seen_after.update(w for w, _ in after)
        if len(seen_before) > old_b or len(seen_after) > old_a:
            kept.append(inst)
    return kept


# ---------------------------------------------------------------------------
# M7: control-char cleaning (ScoobiGroupReGrouper.scala:114-125)
# ---------------------------------------------------------------------------

_CONTROL = re.compile(
    "[\\x00-\\x1f\\x7f-\\x9f\\u00ad\\u200b-\\u200f\\u202a-\\u202e"
    "\\u2060-\\u2064\\ufeff\\ufff9-\\ufffb]"
)


def remove_ccs(s: str) -> str:
    return _CONTROL.sub("", s.replace("\t", " "))


# ---------------------------------------------------------------------------
# M8/M9: aesthetic instance filter + group filter
# (ScoobiReVerbGroupFilter.scala:57-137)
# ---------------------------------------------------------------------------

INDEX_CONFIDENCE_THRESHOLD = 0.5
MIN_GROUP_INSTANCES = 2
MAX_EXTRACTION_LENGTH = 60

_NON_QUESTIONABLE = re.compile(r"[a-z0-9 ]+")
_EXTRA_WS = re.compile(r"\s+")
# Java's \p{Graph}/\p{Cntrl} are ASCII-only by default: the reference's
# clean() keeps visible-ASCII + control + space and strips everything
# else (including all non-ASCII).
_STRIP_CHARS = re.compile(r"[^\x00-\x1f\x21-\x7e ]+")
_LEADING_BAD = re.compile(r"^\s*(\.|,|\"|\'|\()\s")
_LEADING_ARTICLE = re.compile(r"^\s*(the|this|these|those|that|a|an)\s*",
                              re.IGNORECASE)
_LIKELY_ERROR = re.compile(r".*(http|\(|\)|\"|\[|thing).*",
                           re.IGNORECASE | re.DOTALL)
_NEGATIVES = frozenset({"no", "not", "none", "n't", "never"})
PRONOUNS = frozenset(
    {"i", "you", "he", "she", "it", "we", "they", "me", "him", "her", "us",
     "them", "myself", "yourself", "himself", "herself", "itself",
     "ourselves", "themselves", "mine", "yours", "his", "hers", "ours",
     "theirs", "this", "that", "these", "those", "who", "whom", "which",
     "what", "whose", "something", "anything", "nothing", "everything",
     "someone", "anyone", "everyone", "somebody", "anybody", "nobody",
     "everybody", "one"}
)


def _clean_base(s: str) -> str:
    s = s.strip()
    s = _STRIP_CHARS.sub("", s)
    s = _EXTRA_WS.sub(" ", s).strip()
    s = _LEADING_BAD.sub("", s)
    return s


def _clean_arg(s: str) -> str:
    s = _clean_base(s.strip())
    s = _LEADING_ARTICLE.sub("", s)
    return s.lower()


def _part_text(inst: dict, which: str) -> str:
    iv = inst[which]
    return " ".join(inst["tokens"][iv["start"]: iv["end"]])


def instance_passes_filter(
    inst: dict, conf_threshold: float = INDEX_CONFIDENCE_THRESHOLD
) -> bool:
    arg1_text = _part_text(inst, "arg1")
    rel_text = _part_text(inst, "rel")
    arg2_text = _part_text(inst, "arg2")
    rel_toks = [
        inst["tokens"][i].lower()
        for i in range(inst["rel"]["start"], inst["rel"]["end"])
    ]
    arg2_toks = [
        inst["tokens"][i].lower()
        for i in range(inst["arg2"]["start"], inst["arg2"]["end"])
    ]
    arg1c = _clean_arg(arg1_text)
    arg2c = _clean_arg(arg2_text)
    relc = _clean_arg(rel_text)
    extr = arg1c + relc + arg2c

    if any(t in _NEGATIVES for t in rel_toks) or any(
        t in _NEGATIVES for t in arg2_toks
    ):
        return False
    if len(arg1_text) + len(arg2_text) + len(rel_text) > MAX_EXTRACTION_LENGTH:
        return False
    if arg1c in PRONOUNS or arg2c in PRONOUNS:
        return False
    if inst["confidence"] < conf_threshold:
        return False
    if not arg1c or not relc or not arg2c:
        return False
    if arg1c == arg2c:
        return False
    if len(_NON_QUESTIONABLE.sub("", extr)) >= 5:
        return False

    def too_short(part: str) -> bool:
        return len(part) - len(_NON_QUESTIONABLE.sub("", part)) <= 1

    if too_short(arg1c) or too_short(relc) or too_short(arg2c):
        return False
    if _LIKELY_ERROR.match(arg1c) or _LIKELY_ERROR.match(arg2c):
        return False
    return True


# ---------------------------------------------------------------------------
# batch bodies over GROUPS rows
# ---------------------------------------------------------------------------

def _rebuild(batch: pa.Table, new_instances: list[list[dict]],
             keep_mask: list[bool]) -> pa.Table:
    cols = {name: batch[name].to_pylist() for name in batch.column_names}
    out = {name: [] for name in batch.column_names}
    for i, (keep, insts) in enumerate(zip(keep_mask, new_instances)):
        if not keep:
            continue
        for name in batch.column_names:
            if name == "instances":
                out[name].append(insts)
            elif name == "size":
                out[name].append(len(insts))
            elif name == "corpora":
                out[name].append(sorted({x["corpus"] for x in insts}))
            else:
                out[name].append(cols[name][i])
    return pa.Table.from_pydict(out, schema=S.GROUPS)


def dedup_groups_batch(batch: pa.Table) -> pa.Table:
    """G3 over a batch of GROUPS rows."""
    if batch.num_rows == 0:
        return S.GROUPS.empty_table()
    inst_lists = batch["instances"].to_pylist()
    new = [dedup_instances(x) for x in inst_lists]
    return _rebuild(batch, new, [True] * len(new))


def filter_groups_batch(
    batch: pa.Table,
    conf_threshold: float = INDEX_CONFIDENCE_THRESHOLD,
    min_instances: int = MIN_GROUP_INSTANCES,
) -> pa.Table:
    """M7 clean + M8 instance filter + M9 group filter over GROUPS rows."""
    if batch.num_rows == 0:
        return S.GROUPS.empty_table()
    inst_lists = batch["instances"].to_pylist()
    a1 = batch["arg1_norm"].to_pylist()
    rl = batch["rel_norm"].to_pylist()
    a2 = batch["arg2_norm"].to_pylist()
    new_lists = []
    keep = []
    for i, insts in enumerate(inst_lists):
        cleaned = []
        for inst in insts:
            inst = dict(inst)
            inst["tokens"] = [remove_ccs(t) for t in inst["tokens"]]
            if instance_passes_filter(inst, conf_threshold):
                cleaned.append(inst)
        new_lists.append(cleaned)
        norms_ok = (
            remove_ccs(a1[i]).strip()
            and remove_ccs(rl[i]).strip()
            and remove_ccs(a2[i]).strip()
        )
        keep.append(bool(norms_ok) and len(cleaned) >= min_instances)
    return _rebuild(batch, new_lists, keep)
