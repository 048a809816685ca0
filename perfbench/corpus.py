"""Seeded planted-truth corpus generator.

Every input the benchmark feeds the engine is built here from the seed
and from resources inside the repository, never from outside fixtures:

- relation phrases are lines of ``functions/data/rel_strings.txt``, kept
  only when the trained tagger + chunker and the ReVerb pattern extract
  them from a plain probe sentence and the query normalizer agrees with
  the index norm (a vocabulary filter with a fixed probe, independent
  of the seed; what it drops is reported);
- entity names are generated pseudo-words, each token unique to one
  entity, so string-match fallbacks cannot link one entity to another;
- negative sentences carry no verb and so no relation phrase;
- linker side tables give most entities a correct candidate plus a
  lower-prior distractor that shares the anchor.

The planted truth is the set of (arg1, rel, arg2) norms each stated
sentence should yield, with the fbid planted for each argument
(``None`` for entities without side-table rows). Norms are computed
from the surface text alone: lowercased tokens, determiners dropped.
Whatever the engine extracts differently from a corpus sentence is a
finding the scores report; the corpus is never reshaped to hide it.
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

_ONSETS = ["b", "br", "d", "dr", "f", "g", "gr", "k", "kr", "l", "m", "n",
           "p", "r", "t", "tr", "v", "z", "h", "j"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ei", "ou"]
# no "d" coda: names ending in "-ed" read as English past tenses
_CODAS = ["k", "r", "n", "l", "m", "t", "v", "x", "nd", "rk", "lt"]

# drop-determiner rule of the grouping key, applied to surface text
_DETERMINERS = frozenset(
    {"a", "an", "the", "these", "those", "this", "that", "which", "what"}
)

LINKED_SHARE = 0.75  # entities with side-table rows

BOILERPLATE = [
    "Terms of service and privacy policy .",
    "Copyright 2009 Telvorin Media .",
    "Back to top .",
    "All photos and text on this page .",
]


def norm(text: str) -> str:
    """Surface phrase -> its expected grouping-key norm."""
    return " ".join(
        w.lower() for w in text.split() if w.lower() not in _DETERMINERS
    )


class _Names:
    """Unique capitalised pseudo-words from a seeded stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[str] = set()

    def word(self) -> str:
        while True:
            w = "".join(
                self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS)
                for _ in range(self.rng.choice((2, 2, 3)))
            ) + self.rng.choice(_CODAS)
            if w not in self.seen:
                self.seen.add(w)
                return w.capitalize()


@functools.lru_cache(maxsize=1)
def relation_vocabulary() -> tuple[tuple[str, ...], dict]:
    """(kept phrases, {reason: dropped phrases}) of the relation lexicon.

    A phrase is kept when the engine extracts it from a plain probe
    sentence with the probe's arguments, and when the query normalizer
    maps it to the same norm, so that a relation query can name it.
    The dropped phrases are reported with every result."""
    from openie_backend_ray.functions.normalize import index_key
    from openie_backend_ray.functions.reverb import extract
    from openie_backend_ray.pipelines.query import normalize_query_part
    from openie_backend_ray.stages.chunker import model_layers

    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "openie_backend_ray", "functions", "data", "rel_strings.txt",
    )
    with open(path, encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    kept = []
    dropped: dict[str, list[str]] = {"not_words": [], "not_extracted": [],
                                     "query_norm_differs": []}
    for rel in lines:
        if not all(w.isalpha() and w.islower() for w in rel.split()):
            dropped["not_words"].append(rel)
            continue
        probe = f"Harvel Dostrin {rel} Kelmar Vostik ."
        toks, tags, chunks = model_layers(probe)
        want = ("harvel dostrin", norm(rel), "kelmar vostik")
        if not any(index_key(toks, tags, *e) == want
                   for e in extract(toks, tags, chunks)):
            dropped["not_extracted"].append(rel)
        elif normalize_query_part(rel) != norm(rel):
            dropped["query_norm_differs"].append(rel)
        else:
            kept.append(rel)
    return tuple(kept), dropped


@dataclass
class Entity:
    name: str
    fbid: str | None  # None: no side-table rows, must stay unlinked


@dataclass
class Truth:
    """Planted triples: norm key -> (arg1 fbid, arg2 fbid), and the
    surface (arg1, rel, arg2) phrases that query for each."""

    triples: dict = field(default_factory=dict)
    surface: dict = field(default_factory=dict)

    def add(self, a: Entity, rel: str, b: Entity) -> tuple:
        key = (norm(a.name), norm(rel), norm(b.name))
        self.triples[key] = (a.fbid, b.fbid)
        self.surface[key] = (a.name, rel, b.name)
        return key


class World:
    """Entities, relations and side tables for one seed."""

    def __init__(self, seed: int, n_entities: int):
        self.rng = random.Random(seed)
        self.names = _Names(self.rng)
        self.rels = list(relation_vocabulary()[0])
        self.entities = []
        for i in range(n_entities):
            name = f"{self.names.word()} {self.names.word()}"
            fbid = (f"/m/pb{seed:x}e{i:05d}"
                    if self.rng.random() < LINKED_SHARE else None)
            self.entities.append(Entity(name, fbid))
        self.places = [self.names.word() for _ in range(64)]
        self.truth = Truth()
        self.stated: list[tuple[Entity, str, Entity]] = []
        self._context: dict[str, list[str]] = {}

    # -- sentences ---------------------------------------------------------
    def planted(self, a: Entity, rel: str, b: Entity,
                style: int | None = None) -> str:
        """One sentence stating (a, rel, b); style picks the frame."""
        rng = self.rng
        self.truth.add(a, rel, b)
        self.stated.append((a, rel, b))
        if style is None:
            style = rng.randrange(4)
        core = f"{a.name} {rel} {b.name}"
        if style == 0:
            s = f"{core} ."
        elif style == 1:
            s = f"In {rng.randint(1900, 2020)} , {core} ."
        elif style == 2:
            s = f"{core} in {rng.choice(self.places)} ."
        else:
            extra = " and ".join(rng.sample(self.places, rng.randint(2, 4)))
            s = (f"In {rng.randint(1900, 2020)} , {core} in "
                 f"{rng.choice(self.places)} , along with {extra} .")
        for e in (a, b):
            if e.fbid is not None:
                ctx = self._context.setdefault(e.fbid, [])
                if len(ctx) < 8:
                    ctx.append(s)
        return s

    def negative(self) -> str:
        rng = self.rng
        a, b, c = rng.sample(self.entities, 3)
        return rng.choice((
            f"Photos of {a.name} and {b.name} .",
            f"{a.name} , {b.name} and {c.name} .",
            f"The {a.name} collection .",
        ))

    def random_triple(self) -> tuple[Entity, str, Entity]:
        a, b = self.rng.sample(self.entities, 2)
        return a, self.rng.choice(self.rels), b

    # -- linker side tables --------------------------------------------------
    def side_tables(self) -> dict[str, pa.Table]:
        """{crosswikis, fbid_title_inlinks, fbid_types, entity_context}:
        a correct candidate (cprob 0.9) for every linked entity, and for
        every second one a distractor on the same anchor with a lower
        prior (cprob 0.55) and another entity's context."""
        from openie_backend_ray.functions.lnrm import lnrm

        rng = random.Random(self.rng.random())
        types = ["/people/person", "/organization/organization",
                 "/location/location", "/business/company"]
        linked = [e for e in self.entities if e.fbid is not None]
        cw, fi, ft, ec = [], [], [], []
        for i, e in enumerate(linked):
            anchor = lnrm(e.name)
            cw.append((anchor, e.fbid, e.name, 0.9, 1000))
            fi.append((e.fbid, e.name, rng.randint(50, 5000)))
            ft.append((e.fbid, [rng.choice(types)]))
            ctx = self._context.get(e.fbid) or [e.name]
            ec.append((e.fbid, " ".join(ctx)))
            if i % 2 == 0:
                other = linked[(i + 7) % len(linked)]
                dfbid = e.fbid + "d"
                cw.append((anchor, dfbid, e.name + " (disambiguation)",
                           0.55, 600))
                fi.append((dfbid, e.name + " (disambiguation)",
                           rng.randint(50, 5000)))
                ctx = self._context.get(other.fbid) or [other.name]
                ec.append((dfbid, " ".join(ctx)))
        cw.sort()
        fi.sort()
        ft.sort()
        ec.sort()
        return {
            "crosswikis": pa.table({
                "anchor": [r[0] for r in cw], "fbid": [r[1] for r in cw],
                "title": [r[2] for r in cw], "cprob": [r[3] for r in cw],
                "count": [r[4] for r in cw]}),
            "fbid_title_inlinks": pa.table({
                "fbid": [r[0] for r in fi], "title": [r[1] for r in fi],
                "inlinks": [r[2] for r in fi]}),
            "fbid_types": pa.table({
                "fbid": [r[0] for r in ft],
                "types": pa.array([r[1] for r in ft],
                                  pa.list_(pa.string()))}),
            "entity_context": pa.table({
                "fbid": [r[0] for r in ec],
                "context_text": [r[1] for r in ec]}),
        }


# ---------------------------------------------------------------------------
# file writers (the engine only ever sees these files)
# ---------------------------------------------------------------------------

def _docs_table(doc_ids: list[str], docs: list[list[str]]) -> pa.Table:
    from openie_backend_ray import schema as S

    spans = []
    for i, (did, sents) in enumerate(zip(doc_ids, docs)):
        row, off = [], 0
        if i % 3 == 0:
            row.append({"kind": "image", "text": "",
                        "media_ref": f"media://image/{did}", "offset": 0})
            off = 1
        for j, s in enumerate(sents):
            row.append({"kind": "text", "text": s, "media_ref": "",
                        "offset": off + j})
        spans.append(row)
    return pa.table({"doc_id": pa.array(doc_ids, pa.string()),
                     "spans": pa.array(spans, pa.list_(S.SPAN))},
                    schema=S.DOCUMENTS)


def write_parts(table: pa.Table, out_dir: str, parts: int) -> str:
    """Write ``table`` as ``parts`` Parquet files (parallel reads)."""
    os.makedirs(out_dir, exist_ok=True)
    n = table.num_rows
    step = -(-n // parts)
    for i in range(parts):
        pq.write_table(table.slice(i * step, step),
                       os.path.join(out_dir, f"part-{i:03d}.parquet"))
    return out_dir


@dataclass
class Shape:
    """What one generated workload holds (recorded in the result)."""

    sentences: int
    uniques: int
    docs: int = 0

    @property
    def dup_factor(self) -> float:
        return self.sentences / max(1, self.uniques)


def gen_web_dup(world: World, out_dir: str, uniques: int, dup: int,
                per_doc: int = 10, parts: int = 8) -> Shape:
    """Interleaved documents; each unique sentence occurs ``dup`` times.
    One unique in five is a negative."""
    rng = world.rng
    pool = []
    while len(pool) < uniques:
        if len(pool) % 5 == 4:
            pool.append(world.negative())
        else:
            pool.append(world.planted(*world.random_triple()))
    pool = list(dict.fromkeys(pool))
    occ = [s for s in pool for _ in range(dup)]
    rng.shuffle(occ)
    docs = [occ[i:i + per_doc] for i in range(0, len(occ), per_doc)]
    ids = [f"d{i:07d}" for i in range(len(docs))]
    write_parts(_docs_table(ids, docs), out_dir, parts)
    return Shape(len(occ), len(pool), len(docs))


def gen_web_unique(world: World, out_dir: str, sentences: int,
                   hot_triples: int = 4, hot_share: float = 0.08,
                   boiler_share: float = 0.03, parts: int = 8) -> Shape:
    """``[sentence, url]`` rows: distinct sentences, a small boilerplate
    share repeated across URLs, and ``hot_triples`` triples each stated
    by many different sentences (key skew: large groups)."""
    rng = world.rng
    hot = [world.random_triple() for _ in range(hot_triples)]
    seen: set[str] = set()
    rows = []
    n_sites = max(1, sentences // 40)
    while len(rows) < sentences:
        url = (f"http://site{rng.randrange(n_sites)}.example.org/"
               f"page{len(rows)}")
        r = rng.random()
        if r < boiler_share:
            rows.append((rng.choice(BOILERPLATE), url))
            continue
        if r < boiler_share + 0.12:
            s = world.negative()
        elif r < boiler_share + 0.12 + hot_share:
            s = world.planted(*rng.choice(hot), style=rng.choice((1, 3)))
        else:
            s = world.planted(*world.random_triple())
        if s not in seen:
            seen.add(s)
            rows.append((s, url))
    uniq = len({s for s, _ in rows})
    write_parts(pa.table({"text": [s for s, _ in rows],
                          "source_url": [u for _, u in rows]}),
                out_dir, parts)
    return Shape(len(rows), uniq)


@dataclass
class Delta:
    path: str
    doc_ids: list


def gen_delta(world: World, path: str, tag: str, n_docs: int,
              restate: list, per_doc: int = 6) -> Delta:
    """One delta batch of ``n_docs`` documents: new planted triples,
    negatives and re-mentions of the stored triples ``restate``
    (merges, relinks)."""
    rng = world.rng
    docs = []
    while len(docs) < n_docs:
        sents = []
        for _ in range(per_doc):
            r = rng.random()
            if r < 0.3:
                sents.append(world.planted(*rng.choice(restate)))
            elif r < 0.45:
                sents.append(world.negative())
            else:
                sents.append(world.planted(*world.random_triple()))
        docs.append(sents)
    ids = [f"{tag}x{i:04d}" for i in range(len(docs))]
    write_parts(_docs_table(ids, docs), path, 1)
    return Delta(path, ids)
