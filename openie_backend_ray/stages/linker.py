"""Entity-linking stage (SURVEY.md A5, J3-J5, M11): a task stage over a
linker that stays resident in each Ray task worker.

The reference's linker bundle is per-thread state over scratch-disk
indexes: crosswikis Derby DB (anchor -> entity, cprob, count), fbid ->
(title, inlinks) sorted files, a Lucene MoreLikeThis context-similarity
index, and an fbid -> types index
(``linker/.../EntityLinker.scala:19-45``, ``CandidateFinder.java:35-53``,
``batch_match.java:60-72``; per-thread map
``ScoobiEntityLinker.scala:111-152``). Here the bundle is a dict of
SORTED single-chunk Arrow tables prepared ONCE driver-side
(``prepare_linker_tables``) and broadcast via ``ray.put``: each
worker's ``ray.get`` returns zero-copy views into the plasma object
store, so N workers on a node share ONE physical copy, and lookups are
binary searches over the sorted key columns plus a small bounded
per-worker hot cache — the same shape as the reference's
binary-searched sorted files with an LRU front
(``linker/.../SortedFileMap.java:83-152``), which it used for exactly
this reason at its 37 GB data scale (``linker/README.md:30-32``). A
tf-idf cosine (vectors precomputed into an Arrow table at prepare
time) replaces MoreLikeThis for the context score.

Semantics mirrored:
- head-phrase candidate probing (HeadPhraseFinder, M11);
- crosswikis candidate cutoffs cprob >= 0.5, count >= 500
  (``CrosswikisCandidateFinder.java:25-36``, high-precision setting);
- best candidate by ``cprob * log(inlinks) * ctx``
  (``EntityLinker.scala:147-149``);
- type attach from the fbid -> types table (EntityTyper);
- the linker links arg1 and arg2 of the group's head instance, using
  all group sentences as context (``ScoobiEntityLinker.scala:66-108``).
  (The reference's 3-token min-arg-length check at
  ``ScoobiEntityLinker.scala:54`` is dead code — the expression value
  is discarded — so no length gate is applied here either.)
"""

from __future__ import annotations

import math
import pickle
import re
from bisect import bisect_left, bisect_right
from collections import Counter

import pyarrow as pa

from openie_backend_ray.functions.headphrase import head_phrase
from openie_backend_ray.functions.lnrm import lnrm

# tf-idf context window: sentences of the first N (confidence-sorted)
# instances.  KNOWN CONFORMANCE DEVIATION (recorded in BASELINE.md):
# the reference ScoobiEntityLinker builds context from ALL group
# sentences; we cap to bound worst-case per-group work for degenerate
# 40k-instance head groups (multi-MB context strings otherwise).
# Fixture groups are far smaller, so golden links are unchanged
# (tests/test_linker_regression.py gates that).
CONTEXT_MAX_SENTENCES = 64

CPROB_CUTOFF = 0.5
COUNT_CUTOFF = 500

_TOKEN = re.compile(r"[a-z0-9]+")


def _terms(text: str) -> Counter:
    return Counter(_TOKEN.findall(text.lower()))


def prepare_linker_tables(tables: dict) -> dict:
    """Raw side tables -> the prepared (sorted, single-chunk, derived)
    bundle the LinkerActor probes with binary search. Run ONCE on the
    driver (or as an offline job) and ``ray.put`` the result; every
    linker then shares the plasma copy zero-copy.

    Derivations (exactly the dicts the linker used to build per process):
    - ``cw``: crosswikis filtered by the cprob/count cutoffs, sorted by
      anchor with original row order preserved within an anchor (the
      candidate iteration order determines strict-``>`` tie-breaks);
    - ``fbid_info``: (fbid, title, inlinks) sorted by fbid;
    - ``titles``: lowercased title -> first fbid in table order
      (StringMatchCandidateFinder exact probe);
    - ``title_tokens``: (token, fbid) pairs sorted, deduped (the
      token-intersection fallback index);
    - ``fbid_types`` sorted by fbid;
    - ``idf`` (term, idf) and ``ctx`` (fbid, terms, weights, norm):
      the tf-idf context index, precomputed so linkers never hold the
      full term-vector dicts.

    At the reference's 37 GB data scale the crosswikis filter+sort is
    itself a Dataset job (``read_parquet -> filter -> sort ->
    write_parquet``) whose output parquet feeds this dict; at fixture
    scale the in-process path below is exact and instant.
    """
    if tables.get("prepared"):
        return tables
    import pyarrow.compute as pc

    def _sorted_stable(t: pa.Table, key: str) -> pa.Table:
        idx = pa.array(range(t.num_rows), pa.int64())
        t = t.append_column("_idx", idx)
        return t.sort_by([(key, "ascending"), ("_idx", "ascending")]).drop(
            ["_idx"]
        )

    cw = tables["crosswikis"]
    cw = cw.filter(
        pc.and_(
            pc.greater_equal(cw["cprob"], pa.scalar(float(CPROB_CUTOFF))),
            pc.greater_equal(
                pc.cast(cw["count"], pa.float64()),
                pa.scalar(float(COUNT_CUTOFF)),
            ),
        )
    )
    cw = _sorted_stable(cw, "anchor")

    fi = tables["fbid_title_inlinks"]
    fbids = fi["fbid"].to_pylist()
    titles_raw = fi["title"].to_pylist()
    fi_sorted = _sorted_stable(fi, "fbid")

    seen_titles: set[str] = set()
    t_lc, t_f = [], []
    tok_pairs: set[tuple[str, str]] = set()
    for f, t in zip(fbids, titles_raw):
        lt = t.lower()
        if lt not in seen_titles:
            seen_titles.add(lt)
            t_lc.append(lt)
            t_f.append(f)
        for w in lt.split():
            tok_pairs.add((w, f))
    titles = pa.table(
        {"title_lc": pa.array(t_lc, pa.string()),
         "fbid": pa.array(t_f, pa.string())}
    ).sort_by("title_lc")
    tok_rows = sorted(tok_pairs)
    title_tokens = pa.table(
        {"token": pa.array([w for w, _ in tok_rows], pa.string()),
         "fbid": pa.array([f for _, f in tok_rows], pa.string())}
    )

    ft = _sorted_stable(tables["fbid_types"], "fbid")

    # tf-idf context index (replaces the MoreLikeThis Lucene index)
    ec = tables["entity_context"]
    docs = {
        f: _terms(t)
        for f, t in zip(
            ec["fbid"].to_pylist(), ec["context_text"].to_pylist()
        )
    }
    df: Counter = Counter()
    for terms in docs.values():
        df.update(terms.keys())
    n_docs = max(1, len(docs))
    idf = {t: math.log(1.0 + n_docs / c) for t, c in df.items()}
    idf_rows = sorted(idf.items())
    idf_tbl = pa.table(
        {"term": pa.array([t for t, _ in idf_rows], pa.string()),
         "idf": pa.array([v for _, v in idf_rows], pa.float64())}
    )
    ctx_rows = sorted(docs.items())
    ctx_terms, ctx_weights, ctx_norms = [], [], []
    for _f, terms in ctx_rows:
        ts = list(terms.keys())
        ws = [(1.0 + math.log(terms[t])) * idf.get(t, 0.0) for t in ts]
        ctx_terms.append(ts)
        ctx_weights.append(ws)
        ctx_norms.append(math.sqrt(sum(w * w for w in ws)) or 1.0)
    ctx_tbl = pa.table(
        {
            "fbid": pa.array([f for f, _ in ctx_rows], pa.string()),
            "terms": pa.array(ctx_terms, pa.list_(pa.string())),
            "weights": pa.array(ctx_weights, pa.list_(pa.float64())),
            "norm": pa.array(ctx_norms, pa.float64()),
        }
    )

    return {
        "prepared": True,
        "cw": cw.combine_chunks(),
        "fbid_info": fi_sorted.combine_chunks(),
        "titles": titles.combine_chunks(),
        "title_tokens": title_tokens.combine_chunks(),
        "fbid_types": ft.combine_chunks(),
        "idf": idf_tbl.combine_chunks(),
        "ctx": ctx_tbl.combine_chunks(),
    }


class _Utf8Keys:
    """Read-only sequence over an Arrow string array's values as UTF-8
    ``bytes``, sliced straight out of its offsets and data buffers, so
    ``bisect`` can search it without converting the column."""

    __slots__ = ("_off", "_data", "_n")

    def __init__(self, arr: pa.Array):
        width, code = ((8, "q") if pa.types.is_large_string(arr.type)
                       else (4, "i"))
        _validity, offsets, data = arr.buffers()
        start = arr.offset * width
        end = start + (len(arr) + 1) * width
        self._off = memoryview(offsets or b"")[start:end].cast(code)
        self._data = memoryview(data or b"")
        self._n = len(arr)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> bytes:
        return self.view(i).tobytes()

    def view(self, i: int) -> memoryview:
        return self._data[self._off[i]:self._off[i + 1]]


def _one_chunk(col: pa.ChunkedArray) -> pa.Array:
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


def _reader(arr: pa.Array):
    """``(lo, hi) -> arr[lo:hi]`` as Python values, read from the
    array's own buffers for the side tables' column types (strings,
    numbers and lists of those, without nulls); any other column goes
    through ``to_pylist``."""
    t = arr.type
    if arr.null_count == 0:
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            k = _Utf8Keys(arr)
            return lambda lo, hi: [str(k.view(i), "utf-8")
                                   for i in range(lo, hi)]
        if pa.types.is_integer(t) or pa.types.is_floating(t):
            v = arr.to_numpy(zero_copy_only=True)
            return lambda lo, hi: v[lo:hi].tolist()
        if pa.types.is_list(t) or pa.types.is_large_list(t):
            # offsets follow this array's slice; they index the whole
            # child array
            off = arr.offsets.to_numpy(zero_copy_only=True)
            child = _reader(arr.values)
            return lambda lo, hi: [child(int(off[i]), int(off[i + 1]))
                                   for i in range(lo, hi)]
    return lambda lo, hi: arr.slice(lo, hi - lo).to_pylist()


class SortedArrowMap:
    """Binary-searched view over a key-sorted single-chunk Arrow table —
    the Ray analogue of the reference's ``SortedFileMap.java:83-152``:
    the table stays in the shared object store (one physical copy per
    node); only probe RESULTS are materialized, into the caller's
    bounded cache.

    A probe bisects the key column's own buffers (``_Utf8Keys``):
    each step copies out one key's bytes, nothing else. Arrow sorts
    strings by their UTF-8 bytes and Python compares them by code
    point, which is the same order. A hit's values are read from the
    other columns' buffers (``_reader``, built once per column), so a
    hit builds no Arrow slice or scalar."""

    def __init__(self, table: pa.Table, key: str):
        self._t = table
        self._k = _Utf8Keys(_one_chunk(table.column(key)))
        self._readers: dict = {}

    def span(self, x: str) -> tuple[int, int]:
        """The rows ``[lo, hi)`` with key == x; ``lo == hi`` on a miss."""
        k, xb = self._k, x.encode("utf-8", "surrogatepass")
        lo = bisect_left(k, xb)
        if lo == len(k) or k[lo] != xb:
            return lo, lo
        return lo, bisect_right(k, xb, lo + 1)

    def range(self, x: str) -> pa.Table:
        """All rows with key == x (original row order); empty on miss."""
        lo, hi = self.span(x)
        return self._t.slice(lo, hi - lo)

    def values(self, col: str, lo: int, hi: int) -> list:
        """Column ``col`` of rows ``[lo, hi)`` as Python values."""
        r = self._readers.get(col)
        if r is None:
            r = self._readers[col] = _reader(_one_chunk(self._t.column(col)))
        return r(lo, hi)


_MISS = object()


class LinkerActor:
    """Blob group rows -> GROUPS schema rows; ``link_batch`` keeps one
    per task worker.

    Holds NO private copies of the side tables: probes the shared
    prepared Arrow tables via ``SortedArrowMap`` with bounded hot
    caches (epoch-evicted dicts), so its heap is O(cache), not
    O(side-table)."""

    _CACHE_CAP = 65_536

    def __init__(self, tables_ref=None, tables: dict | None = None,
                 dedup: bool = False):
        self._dedup = dedup
        if tables is None and tables_ref is not None:
            import ray

            tables = ray.get(tables_ref)
        assert tables is not None
        if not tables.get("prepared"):
            # fixture-scale convenience (tests hand raw tables in);
            # production callers prepare ONCE driver-side and put the
            # prepared dict so this branch never runs per worker
            tables = prepare_linker_tables(tables)
        self._cw = SortedArrowMap(tables["cw"], "anchor")
        self._fi = SortedArrowMap(tables["fbid_info"], "fbid")
        self._titles = SortedArrowMap(tables["titles"], "title_lc")
        self._toks = SortedArrowMap(tables["title_tokens"], "token")
        self._ftypes = SortedArrowMap(tables["fbid_types"], "fbid")
        self._idf = SortedArrowMap(tables["idf"], "term")
        self._ctx = SortedArrowMap(tables["ctx"], "fbid")
        self._caches: list[dict] = [dict() for _ in range(6)]
        (self._c_cand, self._c_fi, self._c_idf, self._c_ctx,
         self._c_types, self._c_tok) = self._caches

    def _cached(self, cache: dict, key, fn):
        hit = cache.get(key, _MISS)
        if hit is not _MISS:
            return hit
        val = fn()
        if len(cache) >= self._CACHE_CAP:
            cache.clear()  # epoch eviction, O(1) amortized
        cache[key] = val
        return val

    # -- probe wrappers (dict semantics preserved exactly) -----------------
    def _candidates_of(self, anchor: str):
        def probe():
            m = self._cw
            lo, hi = m.span(anchor)
            if lo == hi:
                return None
            return list(zip(
                m.values("fbid", lo, hi), m.values("title", lo, hi),
                m.values("cprob", lo, hi), m.values("count", lo, hi),
            ))

        return self._cached(self._c_cand, anchor, probe)

    def _fbid_info_of(self, fbid: str):
        def probe():
            m = self._fi
            lo, hi = m.span(fbid)
            if lo == hi:
                return None
            return (m.values("title", lo, lo + 1)[0],
                    m.values("inlinks", lo, lo + 1)[0])

        return self._cached(self._c_fi, fbid, probe)

    def _title_fbid(self, title_lc: str):
        m = self._titles
        lo, hi = m.span(title_lc)
        return m.values("fbid", lo, lo + 1)[0] if hi > lo else None

    def _token_fbids(self, token: str):
        def probe():
            m = self._toks
            lo, hi = m.span(token)
            return m.values("fbid", lo, hi) if hi > lo else None

        return self._cached(self._c_tok, token, probe)

    def _types_of(self, fbid: str):
        def probe():
            m = self._ftypes
            lo, hi = m.span(fbid)
            return m.values("types", lo, lo + 1)[0] if hi > lo else []

        return self._cached(self._c_types, fbid, probe)

    def _idf_of(self, term: str) -> float:
        def probe():
            m = self._idf
            lo, hi = m.span(term)
            return m.values("idf", lo, lo + 1)[0] if hi > lo else 0.0

        return self._cached(self._c_idf, term, probe)

    def _ctx_vec(self, fbid: str):
        def probe():
            m = self._ctx
            lo, hi = m.span(fbid)
            if lo == hi:
                return None
            vec = dict(zip(m.values("terms", lo, lo + 1)[0],
                           m.values("weights", lo, lo + 1)[0]))
            return (vec, m.values("norm", lo, lo + 1)[0])

        return self._cached(self._c_ctx, fbid, probe)

    # -- candidate probing ------------------------------------------------
    def has_candidates(self, phrase: str) -> bool:
        return self._candidates_of(lnrm(phrase)) is not None

    def _ctx_score(self, query_vec: dict[str, float], qnorm: float,
                   fbid: str) -> float:
        entry = self._ctx_vec(fbid)
        if entry is None:
            return 0.0
        vec, norm = entry
        dot = 0.0
        small, big = (query_vec, vec) if len(query_vec) < len(vec) else (vec, query_vec)
        for t, w in small.items():
            w2 = big.get(t)
            if w2:
                dot += w * w2
        return dot / (qnorm * norm)

    # -- string-match candidate fallback ----------------------------------
    def _match_level(self, title: str, arg: str) -> int:
        """StringMatchCandidateFinder.java:21-43: 5 = exact
        (case-insensitive), else max(1, 4 - wordDiff)."""
        if arg.lower() == title.lower():
            return 5
        return max(1, 4 - (len(title.split()) - len(arg.split())))

    def _string_match(self, phrase: str):
        """No-crosswikis-hit fallback (StringMatchCandidateFinder port):
        exact title match, leading-"the" strip retry, then
        token-intersection candidates (title words are a superset of the
        arg words), <= 5 senses.  Returns crosswikis-shaped candidate
        tuples with the match level / 5 as the prior."""
        arg = phrase.strip()
        if not arg:
            return []
        out, seen = [], set()

        def add(fbid: str, arg_s: str):
            info = self._fbid_info_of(fbid)
            if info is None or fbid in seen:
                return
            seen.add(fbid)
            out.append(
                (fbid, info[0], self._match_level(info[0], arg_s) / 5.0, 0)
            )

        fbid = self._title_fbid(arg.lower())
        if fbid is not None:
            add(fbid, arg)
        stripped = arg
        words = arg.split()
        if words and words[0].lower() == "the":
            stripped = arg[4:] if len(arg) >= 4 else ""
            if fbid is None and stripped:
                f2 = self._title_fbid(stripped.lower())
                if f2 is not None:
                    add(f2, stripped)
        # token-intersection: every arg token (len > 2) must hit the
        # title-token index; candidates present in ALL hit lists
        comps = [c for c in re.split(r"[,\s]+", stripped) if c]
        lists = []
        for comp in comps:
            hit = self._token_fbids(comp.lower())
            if hit is None:
                if len(comp) > 2:
                    return out  # fail: unknown content word (:134-139)
                continue  # short tokens may be skipped
            lists.append(hit)
        if lists:
            inter = set(lists[0])
            for li in lists[1:]:
                inter &= set(li)
            for cand in sorted(inter):  # deterministic sense order
                if len(seen) >= 5:
                    break
                add(cand, arg)
        return out

    def _link(self, toks: list[str], tags: list[str],
              query_vec: dict[str, float], qnorm: float):
        hp = head_phrase(toks, tags, self.has_candidates)
        cands = self._candidates_of(lnrm(hp))
        if not cands:
            # crosswikis miss -> string-match fallback on the raw arg
            # phrase (the reference tries finders in order,
            # EntityLinker.scala getBestFbidFromSources)
            cands = self._string_match(" ".join(toks))
        if not cands:
            return None, []
        best = None
        best_score = -math.inf
        for fbid, title, cprob, _count in cands:
            info = self._fbid_info_of(fbid)
            if info is None:
                continue
            _title, inlinks = info
            ctx = self._ctx_score(query_vec, qnorm, fbid)
            score = cprob * math.log(max(2, inlinks)) * ctx
            if score > best_score:
                best_score = score
                best = (title, fbid, score, float(inlinks))
        if best is None:
            return None, []
        types = self._types_of(best[1])
        return (
            {
                "name": best[0],
                "fbid": best[1],
                "score": best[2],
                "inlink_ratio": best[3],
            },
            types,
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        from openie_backend_ray.stages.grouper import (
            _inst_unpack,
            groups_table,
        )

        inst_lists = [pickle.loads(b)
                      for b in batch["instances_blob"].to_pylist()]
        a1_ents, a2_ents, a1_types, a2_types = [], [], [], []
        for insts in inst_lists:
            # blob-internal instances carry tokens/postags/chunks as
            # space-joined strings (grouper._inst_pack); the context
            # string concatenates them directly, and only the HEAD
            # instance needs the list form for interval slicing
            head = _inst_unpack(insts[0])
            # context = the group's sentences (ScoobiEntityLinker.scala:
            # 66-108), CAPPED at the CONTEXT_MAX_SENTENCES
            # HIGHEST-CONFIDENCE instances.  Selected explicitly with
            # nlargest rather than relying on arrival order: the
            # grouper path ships conf-sorted blobs, but the incremental
            # relink path concatenates existing+delta row lists without
            # re-sorting, so position != confidence there.  Bounds the
            # per-row string/Counter build for degenerate 40k-instance
            # head groups (multi-MB context strings otherwise).
            if len(insts) > CONTEXT_MAX_SENTENCES:
                import heapq

                ctx_insts = heapq.nlargest(
                    CONTEXT_MAX_SENTENCES, insts,
                    key=lambda i: (i["confidence"], i["tokens"])
                    if isinstance(i["tokens"], str)
                    else (i["confidence"], " ".join(i["tokens"])),
                )
            else:
                ctx_insts = insts
            sources = " ".join(
                i["tokens"] if isinstance(i["tokens"], str)
                else " ".join(i["tokens"])
                for i in ctx_insts
            )
            q = _terms(sources)
            qv = {
                t: (1.0 + math.log(c)) * self._idf_of(t)
                for t, c in q.items()
            }
            qn = math.sqrt(sum(w * w for w in qv.values())) or 1.0
            for which, ents, typs in (("arg1", a1_ents, a1_types),
                                      ("arg2", a2_ents, a2_types)):
                iv = head[which]
                toks = head["tokens"][iv["start"]: iv["end"]]
                tags = head["postags"][iv["start"]: iv["end"]]
                ent, ts = self._link(toks, tags, qv, qn)
                ents.append(ent)
                typs.append(ts)
        # context and head come from the pre-dedup instances, as when
        # G3 ran after the linker
        return groups_table(batch, inst_lists, a1_ents, a2_ents,
                            a1_types, a2_types, dedup=self._dedup)


def link_batch(batch: pa.Table, tables_ref, dedup: bool) -> pa.Table:
    """One task's batch through this worker's resident ``LinkerActor``
    (``util.resident``), kept, with its warm caches, while the side
    tables and ``dedup`` stay the same."""
    from openie_backend_ray.util import resident

    return resident(LinkerActor, (tables_ref.binary(), dedup),
                    tables_ref=tables_ref, dedup=dedup)(batch)


def link_groups(blob_groups_ds, tables_ref, dedup: bool = False):
    """blob group rows -> linked GROUPS rows (A5; G3-deduped when
    ``dedup``), in Ray tasks. Each task worker keeps one linker for the
    session, as the reference keeps one per JVM thread
    (``ScoobiEntityLinker.scala:111-152``); Ray reuses the workers
    across Datasets, so no run starts a process or reserves a CPU for
    the linker."""
    return blob_groups_ds.map_batches(
        link_batch,
        fn_kwargs={"tables_ref": tables_ref, "dedup": dedup},
        batch_format="pyarrow",
        batch_size=512,
    )


def link_or_finalize(blob_groups_ds, tables_ref=None, dedup: bool = False):
    """The tail of every G1 job: blob group rows -> GROUPS rows, linked
    when side tables are given, else left unlinked; with ``dedup`` the
    same conversion applies the G3 instance dedup."""
    from openie_backend_ray.stages.grouper import finalize_groups

    if tables_ref is not None:
        return link_groups(blob_groups_ds, tables_ref, dedup=dedup)
    return blob_groups_ds.map_batches(finalize_groups,
                                      fn_kwargs={"dedup": dedup},
                                      batch_format="pyarrow")
