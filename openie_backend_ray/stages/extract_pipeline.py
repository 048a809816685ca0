"""Fused map front-end: documents or ``[sentence, url]`` lines ->
combined partial groups, through one unique-sentence exchange and ONE
task-based map stage (layers -> extract -> key -> combine).

Both extractors use it. ``ExtractCombineActor`` runs ReVerb;
``openie4.OpenIE4ExtractCombineActor`` subclasses it and overrides only
``_extract_text`` (Relnoun + SRL triples), so both share the layer
lookup, the template+fill loop, the combiner (``grouper.combine_rows``)
and ``extract_and_combine``.

Why fused: as four separate Dataset operators, the streaming executor's
resource allocator split the cluster across every operator and the
CPU-heavy extract+combine stage ran with ~25% of the cluster (measured
41s wall for 78 CPU-seconds of work on 8 CPUs). One stage keeps the
per-batch combiner over a whole batch's extractions. The reference
fuses exactly the same way when it chains grouper work into one job
(``hadoop/.../ScoobiReVerbGrouperLinker.scala:20-33``).

Why tasks, not an actor pool: the reference loads its chunker and
extractor once per JVM (``ScoobiSentenceChunker.scala:19``,
``ScoobiReVerb.scala:31``, lazy vals). An actor pool starts new worker
processes for every Dataset, and each one imported Ray and loaded the
models before its first batch. Ray reuses task workers across
Datasets, and each worker keeps its extractor in a per-process memo
(``util.resident``), so the models load once per worker per session.
The linker runs the same way (``linker.link_batch``), so the flagship
holds no actor pool. The compiled model files
(``functions/postagger.py``, int16 milli-weights) keep that resident
state small: a worker keeps its models and its lexicon dict after the
Dataset ends, but not the lexicon's object-store copy. Measured on
perfbench's web_unique (4,000 sentences, Ray at 2 CPUs), a whole
flagship iteration fell from 2.4 to 1.5 machine CPU s per 1k
sentences with extraction in tasks.

Why extraction runs once per TEXT: web corpora are duplication-heavy
(the sf bench corpus is 571,880 sentences over 8,535 uniques, 67x). A
sentence's layers AND its extractions are a pure function of its text
(lexicon + model state are fixed per worker). The unique-sentence
exchange collapses repeats to one weighted row per (text, url), and
sorts a text's URL variants next to each other, so the extractor runs
once per run of equal texts and each further (text, url) row costs one
dict copy per instance. Instances are built directly in Python, with
no Arrow round-trip: building a tokens/postags/chunks list-table only
to ``to_pylist`` it straight back cost ~1s per 9k-sentence block
(profiled at sf0.1).

One front-end serves both inputs. The reference reads ``[sentence,
url]`` lines (``ScoobiReVerb.scala:62-107``); the interleaved documents
table is that input with ``url = ""``. ``unique_sentences`` turns either
into ``(text, source_url, n)`` rows, and the extractor fills each row's
URL onto a copy of the text's instance templates. Instance identity
excludes the URL (the G1 oracle's dedup signature,
``grouper._inst_sig``), so same-sentence instances under several URLs
collapse to one, which keeps the smallest URL.
"""

from __future__ import annotations

import pyarrow as pa

from openie_backend_ray.functions import confidence
from openie_backend_ray.functions.normalize import index_key, key_string
from openie_backend_ray.functions.reverb import extract
from openie_backend_ray.stages.chunker import ChunkerActor, model_layers
from openie_backend_ray.stages.grouper import combine_rows
from openie_backend_ray.stages.sentences import explode_text_spans


class ExtractCombineActor(ChunkerActor):
    """``unique_sentences`` batch -> BLOB_GROUPS partial rows
    (M1+M2+M5+M6+G1 map side). One instance stays resident per task
    worker (``extract_combine``), holding the lexicon and the
    process's models (A1/A2)."""

    def __init__(self, lexicon_ref=None, lexicon=None,
                 corpus: str = "corpus"):
        super().__init__(lexicon_ref=lexicon_ref, lexicon=lexicon)
        self.corpus = corpus

    def _text_layers(self, s: str):
        """Lexicon hit, else the model layers. No memo: the exchange
        already made each text unique."""
        hit = self._lex.get(s)
        if hit is None:
            hit = model_layers(
                s, tagger=self._tagger, chunk_tagger=self._chunker
            )
        return hit

    def _extract_text(self, s: str) -> list:
        """Layers + ReVerb + key + confidence for ONE unique sentence."""
        toks, tags, chks = self._text_layers(s)
        found = []
        if len(toks) == len(tags) == len(chks):
            for (a1, r, a2) in extract(toks, tags, chks):
                k = index_key(toks, tags, a1, r, a2)
                if not (k[0] and k[1] and k[2]):
                    continue
                conf = confidence.score(toks, tags, a1, r, a2)
                # blob-internal joined-string layer form (see
                # grouper._inst_pack): built directly, no list copy
                inst = {
                    "tokens": " ".join(toks), "postags": " ".join(tags),
                    "chunks": " ".join(chks),
                    "arg1": {"start": a1[0], "end": a1[1]},
                    "rel": {"start": r[0], "end": r[1]},
                    "arg2": {"start": a2[0], "end": a2[1]},
                    "source_url": "", "corpus": self.corpus,
                    "confidence": conf,
                }
                found.append((key_string(k), k, inst))
        return found

    def __call__(self, batch: pa.Table) -> pa.Table:
        """``unique_sentences`` rows (text, source_url, n): TEMPLATE +
        FILL. A text's URL variants are adjacent (``unique_sentences``
        sorts by text), so extraction runs once per run of equal texts;
        each row's URL goes onto a COPY of each instance template, and
        ``n`` is the combiner weight, so ``raw_count`` counts every
        occurrence."""
        rows: list = []
        prev, found = None, ()
        for s, u, n in zip(batch["text"].to_pylist(),
                           batch["source_url"].to_pylist(),
                           batch["n"].to_pylist()):
            if s != prev:
                prev, found = s, self._extract_text(s)
            for ks, k, inst in found:
                rows.append((ks, k, {**inst, "source_url": u}, n))
        return combine_rows(rows)


def _counts(s) -> pa.Table:
    """pandas counts indexed by (text, source_url) -> Arrow rows."""
    return pa.table(
        {"text": pa.array(s.index.get_level_values(0), pa.string()),
         "source_url": pa.array(s.index.get_level_values(1), pa.string()),
         "n": pa.array(s.to_numpy(), pa.int64())}
    )


def unique_sentences(ds):
    """documents or ``[sentence, url]`` lines -> globally-unique
    (text, source_url, n) rows via ONE ``ops.partition.exchange`` on
    text.

    A batch with ``spans`` is a documents batch: its text spans are
    exploded and carry ``source_url = ""``. Any other batch is line
    input: ``text``, plus ``source_url`` when the column exists.

    Dedup-before-extract: web corpora are duplication-heavy, and
    per-actor memoization still re-tags every unique sentence once PER
    ACTOR — duplicated warm-up work that grows with the pool size (the
    measured 2-vs-8-CPU scaling collapse at sf0.1: the 1-actor run
    rides one warm memo, the 6-actor run tags every unique 6 times).
    Deduplicating sentences first costs one exchange of short text
    rows and makes total extraction work independent of the pool
    size; it also collapses the G1 combiner input to unique
    extractions with occurrence weights (827k partial rows -> ~20k at
    sf0.1). Occurrences collapse per (text, url) pair, so raw counts
    stay exact, while partitioning on text alone co-locates a
    sentence's URL variants, and the reduce emits them sorted by text,
    so the extract actor extracts each unique text once."""
    import pandas as pd

    from openie_backend_ray.ops.partition import exchange

    def partial_counts(b: pa.Table) -> pa.Table:
        # Map-side combiner: per-block (text, url) counts BEFORE the
        # exchange, so the shuffle carries (text, source_url, n)
        # partials instead of every raw occurrence. On a 30-67x
        # duplicated corpus the exchanged row count drops by the
        # per-block dup factor. Semantics identical: the reduce side
        # sums n per (text, url).
        if "spans" in b.column_names:
            b = explode_text_spans(b)
        df = pd.DataFrame({"text": b["text"].to_pandas()})
        df["source_url"] = (b["source_url"].to_pandas()
                            if "source_url" in b.column_names else "")
        return _counts(df.groupby(["text", "source_url"],
                                  sort=False).size())

    def uniq(g: pa.Table) -> pa.Table:
        df = g.select(["text", "source_url", "n"]).to_pandas()
        return _counts(df.groupby(["text", "source_url"],
                                  sort=True)["n"].sum())

    # The combine window: the wider it is, the more duplicates collapse
    # before the exchange. Documents combine over 4,096-doc batches
    # (measured at sf0.1: 1,146-doc read blocks dedup only 27%
    # in-block; 4,096-doc batches see ~4x the window). Lines combine
    # over whole read blocks, which hold far more than 4,096 sentences
    # when the files are large: on web_dup's 179k sentences as 8 line
    # files, 4,096-row batches exchanged 101,875 rows, whole blocks
    # 46,666.
    schema = ds.schema()
    docs = schema is not None and "spans" in schema.names
    return (
        exchange(ds.map_batches(partial_counts, batch_format="pyarrow",
                                batch_size=4096 if docs else None),
                 "text", uniq)
        # shuffle-free block split: the exchange packs the deduped
        # table into a handful of blocks, and map_batches never
        # splits a block across tasks — so without this the
        # downstream extract actor pool gets ~2 tasks and idles
        # (measured at sf0.1: 8,535 uniques in 2 blocks = 2 of 22
        # actors busy, openie4 wall 25 s vs 8 s once spread)
        .repartition(target_num_rows_per_block=512)
    )


def extract_combine(batch: pa.Table, extractor: type, lexicon_ref,
                    corpus: str) -> pa.Table:
    """One task's batch through this worker's resident extractor (one
    per extractor class, ``util.resident``), kept while the lexicon and
    corpus stay the same. The models come from ``default_tagger()`` /
    ``default_chunker()``, which load once per process as well."""
    from openie_backend_ray.util import resident

    key = (None if lexicon_ref is None else lexicon_ref.binary(), corpus)
    return resident(extractor, key, lexicon_ref=lexicon_ref,
                    corpus=corpus)(batch)


def extract_and_combine(ds, lexicon_ref=None, corpus: str = "corpus",
                        extractor: type = ExtractCombineActor):
    """documents or ``[sentence, url]`` lines -> partial blob-group
    rows, ready for the G1 shuffle: the unique-sentence exchange, then
    ``extractor`` (ReVerb's ``ExtractCombineActor`` or OpenIE4's
    subclass) in Ray tasks. Output is identical to the unfused
    chunk -> extract_batch -> group path on the same input."""
    return unique_sentences(ds).map_batches(
        extract_combine,
        fn_kwargs={"extractor": extractor, "lexicon_ref": lexicon_ref,
                   "corpus": corpus},
        batch_format="pyarrow",
        batch_size=512,  # spread unique texts across the tasks
    )


# kept for perfbench/ imports
unique_sentence_urls = unique_sentences
# kept for perfbench/ imports
extract_and_combine_sentences = extract_and_combine
