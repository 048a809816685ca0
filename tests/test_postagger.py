"""Perceptron tagger robustness: empty-string tokens (whitespace runs
in real web text), the averaged-away-bias compile guard, the compiled
file format, and the int16 milli-weights being the float64 weights
exactly."""

from __future__ import annotations

from openie_backend_ray.functions.postagger import (
    ChunkPerceptron,
    PerceptronTagger,
    default_chunker,
    default_tagger,
)
from openie_backend_ray.stages.chunker import heuristic_layers, model_layers


def test_tag_handles_empty_tokens():
    """text.split(' ') on consecutive/leading/trailing spaces yields ''
    tokens; tagging must not crash and must keep token alignment."""
    tagger = default_tagger()
    assert tagger is not None, "vendored weights missing"
    toks = ["Obama", "visited", "", "Paris", "today", "."]
    tags = tagger.tag(toks)
    assert len(tags) == len(toks)
    # dict path (un-compiled fallback) must survive too
    tags2 = tagger._tag_dictpath(toks)
    assert len(tags2) == len(toks)


def test_chunk_tag_handles_empty_tokens():
    chunker = default_chunker()
    assert chunker is not None, "vendored weights missing"
    tagger = default_tagger()
    toks = ["Obama", "visited", "", "Paris", "."]
    chunks = chunker.tag(toks, tagger.tag(toks))
    assert len(chunks) == len(toks)


def test_model_layers_whitespace_runs():
    """The exact ADVICE repro: consecutive spaces through the model
    path; layers stay aligned and match the heuristic path's shape."""
    text = "Obama visited  Paris today ."
    toks, tags, chunks = model_layers(text)
    assert toks == text.split(" ")
    assert len(tags) == len(toks) and len(chunks) == len(toks)
    h_toks, h_tags, h_chunks = heuristic_layers(text)
    assert h_toks == toks
    assert len(h_tags) == len(toks)


def test_normalize_query_part_whitespace():
    from openie_backend_ray.pipelines.query import normalize_query_part

    # double space inside a query must not crash the serving path
    out = normalize_query_part("barack  obama")
    assert isinstance(out, str)


def test_compile_survives_missing_bias():
    """A retrained model whose bias weights all average below the
    round-3 cutoff loses its 'bias' row; _compile must install a
    sentinel zero row instead of leaving _bias_id None."""
    for cls, tag_args in (
        (PerceptronTagger, (["hello", "world"],)),
        (ChunkPerceptron, (["hello", "world"], ["NN", "NN"])),
    ):
        t = cls()
        t.model.classes = ["NN", "VB"]
        t.model.weights = {"i word hello": {"NN": 1.0}}  # no "bias"
        t._compile()
        assert t._bias_id is not None
        # sentinel row is all-zero: tagging works and is score-neutral
        tags = t.tag(*tag_args)
        assert len(tags) == 2


_SENTS = [
    "Obama visited Paris today .",
    "Marie Curie discovered radium in 1898 .",
    "The river flows into the Atlantic Ocean near the old port .",
    "Google bought YouTube for $ 1.65 billion .",
    "Tesla-Motors builds cars ; it was founded in 2003 .",
]


def _assert_same_model(a, b, chunk: bool):
    assert a._W.dtype == b._W.dtype == "float64"
    assert a._W.shape == b._W.shape
    assert a._W.tobytes() == b._W.tobytes()
    assert list(a._feat_id.items()) == list(b._feat_id.items())
    assert a._classes == b._classes
    assert a._bias_id == b._bias_id
    tagger = default_tagger()
    for s in _SENTS:
        toks = s.split(" ")
        if chunk:
            tags = tagger.tag(toks)
            assert a.tag(toks, tags) == b.tag(toks, tags)
        else:
            assert a.tagdict == b.tagdict
            assert a.tag(toks) == b.tag(toks)


def test_compiled_file_round_trip(tmp_path):
    """save -> load keeps W's bytes, the feature -> id map in id
    order, the classes, the tagdict and the tags, for a model fresh
    from training."""
    tagger = default_tagger()
    data = [(s.split(" "), tagger.tag(s.split(" "))) for s in _SENTS] * 5
    t = PerceptronTagger()
    t.train(data, n_iter=2)
    t.save(str(tmp_path / "pos.npz"))
    _assert_same_model(t, PerceptronTagger.load(str(tmp_path / "pos.npz")),
                       chunk=False)
    chunker = default_chunker()
    c = ChunkPerceptron()
    c.train([(toks, tags, chunker.tag(toks, tags)) for toks, tags in data],
            n_iter=2)
    c.save(str(tmp_path / "chunk.npz"))
    _assert_same_model(c, ChunkPerceptron.load(str(tmp_path / "chunk.npz")),
                       chunk=True)
    assert PerceptronTagger.load(str(tmp_path / "absent.npz")) is None


def test_vendored_models_equal_their_dict_form():
    """The vendored compiled files against the training-time weight
    dicts they hold: compiling those dicts again gives the same W
    bytes, feature ids, classes and tags, and the dict path tags as
    the compiled one."""
    from openie_backend_ray.functions.postagger import _weights_dict

    for loaded, cls, chunk in ((default_tagger(), PerceptronTagger, False),
                               (default_chunker(), ChunkPerceptron, True)):
        again = cls()
        again.model.classes = list(loaded._classes)
        again.model.weights = _weights_dict(loaded._feat_id, loaded._W,
                                            loaded._classes)
        if not chunk:
            again.tagdict = dict(loaded.tagdict)
        again._compile()
        _assert_same_model(loaded, again, chunk)
    tagger = default_tagger()
    for s in _SENTS:
        assert tagger._tag_dictpath(s.split(" ")) == tagger.tag(s.split(" "))


def _npz_weights(path: str):
    """The ``.npz`` file's float64 weight triplets and dense matrix."""
    import numpy as np

    with np.load(path, allow_pickle=False) as z:
        r, c, v = z["W_row"], z["W_col"], z["W_val"]
        W = np.zeros(tuple(z["W_shape"].tolist()), dtype=np.float64)
    W[r, c] = v
    return r, c, v, W


def test_milli_weights_equal_the_vendored_doubles():
    """Each vendored model holds its weights as int16 ``K``, and
    ``K / 1000.0`` is bitwise the ``.npz`` file's ``W_val`` doubles,
    with no other nonzero."""
    import numpy as np

    for m in (default_tagger(), default_chunker()):
        r, c, v, W = _npz_weights(m._PATH)
        assert m._K.dtype == np.int16 and m._K.shape == W.shape
        assert (m._K[r, c] / 1000.0).tobytes() == v.tobytes()
        assert np.count_nonzero(m._K) == len(v)


def test_context_scores_equal_the_float64_path():
    """The raw context-score rows of both models, summed from ``K``,
    are bitwise the float64 path's (``np.add.reduceat`` over the
    ``.npz`` doubles), on every perfbench sentence at seeds 1-3."""
    import tempfile

    import numpy as np
    import pyarrow.parquet as pq

    from openie_backend_ray.functions.postagger import (
        _END,
        _START,
        _normalize,
        _row_sums,
    )
    from openie_backend_ray.stages.sentences import explode_text_spans
    from perfbench import corpus, workloads

    tagger, chunker = default_tagger(), default_chunker()
    W_tag = _npz_weights(tagger._PATH)[3]
    W_chunk = _npz_weights(chunker._PATH)[3]

    def same(K, W, ids, offs):
        want = np.add.reduceat(W[np.asarray(ids, dtype=np.intp)],
                               np.asarray(offs, dtype=np.intp), axis=0)
        return _row_sums(K, ids, offs).tobytes() == want.tobytes()

    texts = set()
    for seed in (1, 2, 3):
        for name, size in workloads.SIZES.items():
            with tempfile.TemporaryDirectory() as d:
                world = corpus.World(seed, size["entities"])
                if name == "web_dup":
                    corpus.gen_web_dup(world, d, size["uniques"], 1)
                else:
                    corpus.gen_web_unique(world, d, size["sentences"])
                t = pq.read_table(d)
                if "spans" in t.column_names:
                    t = explode_text_spans(t)
                texts.update(t["text"].to_pylist())
    assert len(texts) > 20_000
    for s in sorted(texts):
        toks = s.split(" ")
        context = _START + [_normalize(w) for w in toks] + _END
        ids, offs = tagger._context_ids(toks, context)
        assert not offs or same(tagger._K, W_tag, ids, offs), s
        poss = _START + tagger.tag(toks) + _END
        ids, offs = chunker._context_ids(context, poss)
        assert same(chunker._K, W_chunk, ids, offs), s


def test_compile_rejects_weights_that_are_not_milli_values():
    """A weight that is not an exact 3-decimal value, or is out of
    int16 range at that scale, has no int16 form: compiling fails."""
    import pytest

    for bad in (0.0005, 1.0 / 3.0, 40.0):
        t = PerceptronTagger()
        t.model.classes = ["NN", "VB"]
        t.model.weights = {"bias": {"NN": 1.0, "VB": bad}}
        with pytest.raises(ValueError):
            t._compile()
