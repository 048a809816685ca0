"""Perceptron tagger robustness: empty-string tokens (whitespace runs
in real web text) and the averaged-away-bias compile guard."""

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
