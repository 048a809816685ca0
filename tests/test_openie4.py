"""OpenIE4 path (M3/M4): frame triplize, relnoun pattern, actor
plumbing, and the kind splitter."""

from __future__ import annotations

import pyarrow as pa
import pytest

from openie_backend_ray.stages.openie4 import (
    Frame,
    OpenIE4Actor,
    RuleRelnoun,
    SrlBackend,
    extract_openie4,
    split_kinds,
)

from conftest import requires_reference

TOKS = ["Ada", ",", "the", "mother", "of", "programming", ",",
        "wrote", "programs", "."]
TAGS = ["NNP", ",", "DT", "NN", "IN", "NN", ",", "VBD", "NNS", "."]


def _chunked_batch():
    return pa.table(
        {
            "doc_id": pa.array(["d1"], pa.string()),
            "span_idx": pa.array([0], pa.int32()),
            "tokens": pa.array([TOKS], pa.list_(pa.string())),
            "postags": pa.array([TAGS], pa.list_(pa.string())),
            "chunks": pa.array([["O"] * len(TOKS)], pa.list_(pa.string())),
        }
    )


def test_frame_triplize():
    f = Frame((0, 1), (1, 2), [(2, 3), (4, 5)], 0.7)
    triples = f.triplize()
    assert len(triples) == 2
    assert all(len(t.arg2s) == 1 for t in triples)
    assert triples[0].arg2s == [(2, 3)]
    assert triples[1].arg2s == [(4, 5)]


def test_relnoun_pattern():
    frames = RuleRelnoun().extract(TOKS, TAGS)
    assert len(frames) == 1
    f = frames[0]
    assert TOKS[f.arg1[0]: f.arg1[1]] == ["Ada"]
    assert TOKS[f.rel[0]: f.rel[1]] == ["mother"]
    assert f.rel_text == "is mother of"
    assert TOKS[f.arg2s[0][0]: f.arg2s[0][1]] == ["programming"]
    assert f.confidence == 0.8


PATTERN_CASES = [
    # one sentence per public Relnoun pattern (chunkedextractor
    # inventory); every one must yield (Barack Obama; is president of;
    # United States)
    ("of-comma",
     ["The", "president", "of", "the", "United", "States", ",",
      "Barack", "Obama", ",", "spoke", "."],
     ["DT", "NN", "IN", "DT", "NNP", "NNP", ",", "NNP", "NNP", ",",
      "VBD", "."]),
    ("adjective-descriptor",
     ["United", "States", "president", "Barack", "Obama", "spoke", "."],
     ["NNP", "NNP", "NN", "NNP", "NNP", "VBD", "."]),
    ("possessive",
     ["United", "States", "'s", "president", "Barack", "Obama",
      "spoke", "."],
     ["NNP", "NNP", "POS", "NN", "NNP", "NNP", "VBD", "."]),
    ("possessive-appositive",
     ["United", "States", "'s", "president", ",", "Barack", "Obama",
      ",", "spoke", "."],
     ["NNP", "NNP", "POS", "NN", ",", "NNP", "NNP", ",", "VBD", "."]),
    ("possessive-is",
     ["United", "States", "'s", "president", "is", "Barack", "Obama",
      "."],
     ["NNP", "NNP", "POS", "NN", "VBZ", "NNP", "NNP", "."]),
    ("is-possessive",
     ["Barack", "Obama", "is", "the", "United", "States", "'s",
      "president", "."],
     ["NNP", "NNP", "VBZ", "DT", "NNP", "NNP", "POS", "NN", "."]),
    ("of-is",
     ["The", "president", "of", "the", "United", "States", "is",
      "Barack", "Obama", "."],
     ["DT", "NN", "IN", "DT", "NNP", "NNP", "VBZ", "NNP", "NNP", "."]),
]


@pytest.mark.parametrize("name,toks,tags",
                         PATTERN_CASES, ids=[c[0] for c in PATTERN_CASES])
def test_relnoun_pattern_inventory(name, toks, tags):
    frames = RuleRelnoun().extract(toks, tags)
    assert len(frames) == 1, name
    f = frames[0]
    assert " ".join(toks[f.arg1[0]: f.arg1[1]]) == "Barack Obama"
    assert f.rel_text == "is president of"
    assert " ".join(toks[f.arg2s[0][0]: f.arg2s[0][1]]) == "United States"
    assert f.confidence == 0.8


def test_actor_emits_t_and_n():
    out = OpenIE4Actor(corpus="cw")(_chunked_batch())
    kinds = out["kind"].to_pylist()
    # relnoun frame emitted once as T and mirrored once as N
    assert kinds.count("T") == 1 and kinds.count("N") == 1
    t = out.filter(pa.compute.equal(out["kind"], "T"))
    assert t["arg2_texts"][0].as_py() == ["programming"]
    assert t["corpus"][0].as_py() == "cw"


def test_srl_backend_stubbed():
    with pytest.raises(NotImplementedError):
        SrlBackend()


def test_split_kinds(ray_session):
    import ray.data as rd

    ds = extract_openie4(rd.from_arrow(_chunked_batch()), corpus="cw")
    triples = split_kinds(ds, "T").to_pandas()
    nary = split_kinds(ds, "N").to_pandas()
    assert len(triples) == 1 and len(nary) == 1
    assert "kind" not in triples.columns
    assert list(nary.iloc[0]["arg2_texts"]) == ["programming"]


def test_openie4_triples_grouping(ray_session):
    """The OpenIE4 T path feeds the SAME G1 grouper: all pattern
    variants of (Barack Obama; is president of; United States)
    normalize to one key and merge into ONE group whose size is the
    pattern count (reference: peer corpus job into one index,
    ScoobiOpenIE4.scala:74-147)."""
    import pyarrow as pa
    import ray.data as rd

    from openie_backend_ray.stages.openie4 import openie4_triples

    rows = {
        "doc_id": [], "span_idx": [], "tokens": [], "postags": [],
        "chunks": [],
    }
    for i, (_, toks, tags) in enumerate(PATTERN_CASES):
        rows["doc_id"].append(f"d{i}")
        rows["span_idx"].append(i)
        rows["tokens"].append(toks)
        rows["postags"].append(tags)
        rows["chunks"].append(["O"] * len(toks))
    batch = pa.table(
        {
            "doc_id": pa.array(rows["doc_id"], pa.string()),
            "span_idx": pa.array(rows["span_idx"], pa.int32()),
            "tokens": pa.array(rows["tokens"], pa.list_(pa.string())),
            "postags": pa.array(rows["postags"], pa.list_(pa.string())),
            "chunks": pa.array(rows["chunks"], pa.list_(pa.string())),
        }
    )
    groups = openie4_triples(rd.from_arrow(batch), corpus="cw").to_pandas()
    assert len(groups) == 1
    g = groups.iloc[0]
    assert g["arg1_norm"] == "barack obama"
    assert g["rel_norm"] == "be president of"
    assert g["arg2_norm"] == "united states"
    assert g["size"] == len(PATTERN_CASES)
    assert g["corpora"] == ["cw"]


def test_chunk_srl_frames_and_triplize():
    """ChunkSrl (the dependency-free SRL stand-in): one multi-arg2
    frame per verb group from chunk structure; triplize fans out one
    triple per arg2 (the reference's flatMap(_.triplize()))."""
    from openie_backend_ray.stages.openie4 import ChunkSrl

    toks = ["Obama", "gave", "Mary", "a", "book", "in", "Paris", "."]
    tags = ["NNP", "VBD", "NNP", "DT", "NN", "IN", "NNP", "."]
    chks = ["B-NP", "B-VP", "B-NP", "B-NP", "I-NP", "B-PP", "B-NP", "O"]
    frames = ChunkSrl().frames(toks, tags, chks)
    # main n-ary frame + the V+W*+P bridge variant for "in Paris"
    assert len(frames) == 2
    f = frames[0]
    assert toks[f.arg1[0]: f.arg1[1]] == ["Obama"]
    assert toks[f.rel[0]: f.rel[1]] == ["gave"]
    assert [
        " ".join(toks[s:e]) for s, e in f.arg2s
    ] == ["Mary", "a book", "Paris"]
    assert f.confidence == 0.6
    triples = f.triplize()
    assert [t.arg2s[0] for t in triples] == f.arg2s
    v = frames[1]
    assert " ".join(toks[v.rel[0]: v.rel[1]]) == "gave Mary a book in"
    assert [" ".join(toks[s:e]) for s, e in v.arg2s] == ["Paris"]

    # no chunks / no NP before the verb -> no frames
    assert ChunkSrl().frames(toks, tags, None) == []
    assert ChunkSrl().frames(
        ["Ran", "."], ["VBD", "."], ["B-VP", "O"]) == []


def test_actor_with_chunk_srl_emits_nary(ray_session):
    """The OIE4 actor + ChunkSrl emits N rows with multi-arg2 frames
    and T rows per triplized arg2."""
    import pyarrow as pa

    from openie_backend_ray.stages.openie4 import ChunkSrl, OpenIE4Actor

    toks = ["Obama", "gave", "Mary", "a", "book", "."]
    tags = ["NNP", "VBD", "NNP", "DT", "NN", "."]
    chks = ["B-NP", "B-VP", "B-NP", "B-NP", "I-NP", "O"]
    batch = pa.table(
        {
            "doc_id": pa.array(["d1"], pa.string()),
            "span_idx": pa.array([0], pa.int32()),
            "tokens": pa.array([toks], pa.list_(pa.string())),
            "postags": pa.array([tags], pa.list_(pa.string())),
            "chunks": pa.array([chks], pa.list_(pa.string())),
        }
    )
    out = OpenIE4Actor(corpus="cw", srl_backend=ChunkSrl())(batch)
    kinds = out["kind"].to_pylist()
    assert kinds.count("T") == 2  # one per triplized arg2
    assert kinds.count("N") == 1
    n_row = out.filter(pa.compute.equal(out["kind"], "N")).to_pylist()[0]
    assert n_row["arg2_texts"] == ["Mary", "a book"]


@pytest.mark.parametrize("lines", [False, True],
                         ids=["documents", "lines"])
def test_fused_openie4_matches_staged(ray_session, lines):
    """The fused documents->partials actor produces the same groups as
    the staged chunk->extract path (same invariance the flagship's
    fused front-end holds), on documents and on ``[text, source_url]``
    lines: full instance lists, ``source_url`` included."""
    import json

    import ray
    import pyarrow as pa
    import ray.data as rd

    from openie_backend_ray import schema as S
    from openie_backend_ray.stages.chunker import ChunkerActor
    from openie_backend_ray.stages.openie4 import (
        openie4_triples,
        openie4_triples_from_documents,
    )
    from openie_backend_ray.stages.sentences import explode_text_spans

    sents = [" ".join(c[1]) for c in PATTERN_CASES]
    if lines:
        # every sentence under its own URL, the first also under a
        # second, smaller URL that must win the instance dedup
        texts = sents + sents[:1]
        urls = [f"http://ex.org/{i}" for i in range(len(sents))] + [
            "http://alt.example/0"]
        inp = pa.table(
            {"text": pa.array(texts, pa.string()),
             "source_url": pa.array(urls, pa.string()),
             "doc_id": pa.array([str(i) for i in range(len(texts))],
                                pa.string()),
             "span_idx": pa.array([0] * len(texts), pa.int32())}
        )
    else:
        inp = pa.table(
            {
                "doc_id": pa.array([f"d{i}" for i in range(len(sents))],
                                   pa.string()),
                "spans": pa.array(
                    [[{"kind": "text", "text": s, "media_ref": "",
                       "offset": 0}] for s in sents],
                    pa.list_(S.SPAN),
                ),
            }
        )
    lex = pa.table(
        {
            "sentence": pa.array(sents, pa.string()),
            "tokens": pa.array([c[1] for c in PATTERN_CASES],
                               pa.list_(pa.string())),
            "postags": pa.array([c[2] for c in PATTERN_CASES],
                                pa.list_(pa.string())),
            "chunks": pa.array([["O"] * len(c[1]) for c in PATTERN_CASES],
                               pa.list_(pa.string())),
        }
    )
    lex_ref = ray.put(lex)

    fused = openie4_triples_from_documents(
        rd.from_arrow(inp), lexicon_ref=lex_ref, corpus="cw"
    ).to_pandas()

    sentences = rd.from_arrow(inp)
    if not lines:
        sentences = sentences.map_batches(explode_text_spans,
                                          batch_format="pyarrow")
    chunked = sentences.map_batches(
        ChunkerActor,
        fn_constructor_kwargs={"lexicon_ref": lex_ref},
        batch_format="pyarrow",
        concurrency=(1, 1),
    )
    staged = openie4_triples(chunked, corpus="cw").to_pandas()

    key = ["arg1_norm", "rel_norm", "arg2_norm"]
    f = fused.sort_values(key).reset_index(drop=True)
    s = staged.sort_values(key).reset_index(drop=True)
    assert list(f["arg1_norm"]) == list(s["arg1_norm"])
    assert list(f["size"]) == list(s["size"])
    assert len(f) == 1 and int(f.iloc[0]["size"]) == len(PATTERN_CASES)

    def canon(insts):
        return json.dumps(
            [dict(sorted(i.items())) for i in insts],
            default=list, sort_keys=True,
        )

    for fi, si in zip(f["instances"], s["instances"]):
        assert canon(fi) == canon(si)
    urls = {i["source_url"] for insts in f["instances"] for i in insts}
    if lines:
        assert "http://alt.example/0" in urls and "" not in urls
    else:
        assert urls == {""}


@requires_reference
def test_openie4_unique_front_end_raw_counts(ray_session):
    """The OpenIE4 fused path's unique-sentence front-end must carry
    occurrence weights through the keyed batch (span_idx lookup):
    4 copies of one sentence -> deduped instances but raw_count 4."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from openie_backend_ray.fixtures.corpus import build_chunker_lexicon
    from openie_backend_ray.stages.extract_pipeline import unique_sentences
    from openie_backend_ray.stages.grouper import merge_blob_shuffle
    from openie_backend_ray.stages.openie4 import OpenIE4ExtractCombineActor

    sent = "Obama visited Paris ."
    span = {"kind": "text", "text": sent, "media_ref": "", "offset": 0}
    docs = pa.table({
        "doc_id": pa.array(list(range(4)), pa.int64()),
        "spans": pa.array(
            [[span]] * 4,
            pa.list_(pa.struct([("kind", pa.string()),
                                ("text", pa.string()),
                                ("media_ref", pa.string()),
                                ("offset", pa.int32())]))),
    })
    actor = OpenIE4ExtractCombineActor(
        lexicon=build_chunker_lexicon(), corpus="cw"
    )
    uniq = unique_sentences(rd.from_arrow(docs).repartition(2))
    partial = uniq.map_batches(
        lambda b: actor(b), batch_format="pyarrow"
    )
    merged = merge_blob_shuffle(partial).take_all()
    assert len(merged) >= 1
    for row in merged:
        # every distinct extraction of the (unique) sentence occurred
        # exactly 4 times
        assert row["raw_count"] == 4 * row["size"]
