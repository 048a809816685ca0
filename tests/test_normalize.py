"""Fixture parsing + normalization-key parity against the reference's
golden groups (``test-groups.txt``): the grouping key is the semantic
heart of the engine (SURVEY.md §1.3), so it is gated hard here."""

from __future__ import annotations

from openie_backend_ray.fixtures.conformance import clean_groups
from openie_backend_ray.fixtures.reverb_tsv import parse_interval
from openie_backend_ray.functions.normalize import (
    frontend_key_part,
    index_key,
    index_key_part,
    key_string,
)
from openie_backend_ray.functions.stemmer import stem

from conftest import requires_reference


@requires_reference
def test_fixture_counts(golden_extractions, golden_groups):
    assert len(golden_extractions) == 317
    assert len(golden_groups) == 999
    assert sum(len(g.instances) for g in golden_groups) > 3000


def test_interval_grammar():
    assert parse_interval("[4, 8)") == (4, 8)
    assert parse_interval("[4, 8]") == (4, 9)
    assert parse_interval("{20}") == (20, 21)


def test_stemmer_basics():
    assert stem("is", "VBZ") == "be"
    assert stem("was", "VBD") == "be"
    assert stem("has", "VBZ") == "have"
    assert stem("made", "VBD") == "make"
    assert stem("commissioners", "NNS") == "commissioner"
    assert stem("cities", "NNS") == "city"
    assert stem("enables", "VBZ") == "enable"
    assert stem("uses", "VBZ") == "use"
    assert stem("defined", "VBN") == "define"
    assert stem("dropped", "VBD") == "drop"
    assert stem("filled", "VBD") == "fill"
    assert stem("n't", "RB") == "not"
    assert stem("me", "PRP") == "i"
    assert stem("women", "NNS") == "woman"
    # proper nouns pass through; NNPS gets the manual s-strip
    # (TaggedStemmer.scala:52-58)
    assert stem("Antilles", "NNP") == "antilles"
    assert stem("Airlines", "NNPS") == "airlin"
    # Morpha skips words beginning with an upper-case letter
    assert stem("Includes", "VBZ") == "includes"
    assert stem("Was", "VBD") == "was"
    # tokens with non-letter characters pass through
    assert stem(",sports", "NNS") == ",sports"


def test_index_key_drops_determiners():
    toks = ["the", "index", "was", "calculated"]
    tags = ["DT", "NN", "VBD", "VBN"]
    assert index_key_part(toks, tags, 0, 2) == "index"
    assert index_key_part(toks, tags, 2, 4) == "be calculate"


def test_frontend_key_strips_modifiers():
    toks = ["favorable", "reviews"]
    tags = ["JJ", "NNS"]
    assert frontend_key_part(toks, tags, 0, 2) == "review"
    # keep-list words survive modifier stripping
    toks2 = ["not", "heard"]
    tags2 = ["RB", "VBN"]
    assert frontend_key_part(toks2, tags2, 0, 2) == "not hear"


def test_key_string_format():
    assert key_string(("a b", "c", "d")) == "a b__c__d"


@requires_reference
def test_index_key_parity_on_clean_groups(golden_groups):
    """>=99% of round-trip-clean golden groups must reproduce their stored
    (arg1Norm, relNorm, arg2Norm) from some instance's layers."""
    cg = clean_groups(golden_groups)
    assert len(cg) >= 800
    hit = 0
    for g in cg:
        stored = (g.arg1_norm, g.rel_norm, g.arg2_norm)
        if any(
            index_key(i.tokens, i.postags, i.arg1, i.rel, i.arg2) == stored
            for i in g.instances
        ):
            hit += 1
    assert hit / len(cg) >= 0.99


@requires_reference
def test_index_key_parity_all_groups_floor(golden_groups):
    """Raw parity over ALL 999 groups (incl. TSV-corrupted rows) stays
    above a floor — guards against the clean-filter hiding regressions."""
    hit = 0
    for g in golden_groups:
        stored = (g.arg1_norm, g.rel_norm, g.arg2_norm)
        if any(
            index_key(i.tokens, i.postags, i.arg1, i.rel, i.arg2) == stored
            for i in g.instances
        ):
            hit += 1
    assert hit / len(golden_groups) >= 0.83


@requires_reference
def test_extraction_tsv_round_trip(golden_extractions):
    """deserialize(serialize(x)) == x over all golden extractions —
    the reference's own test strategy
    (ReVerbTabSerializerTest.scala:25-28, 317 cases)."""
    from openie_backend_ray.fixtures import reverb_tsv as T

    assert len(golden_extractions) >= 300
    for e in golden_extractions:
        back = T.parse_extraction_cols(T.write_extraction(e).split("\t"))
        assert back == e


@requires_reference
def test_group_tsv_round_trip(golden_groups):
    """Groups round-trip through our writer+parser (structure identity:
    norms, entities, types, instance layers/intervals)."""
    from openie_backend_ray.fixtures import reverb_tsv as T

    n = 0
    for g in golden_groups:
        back = T.parse_group_line(T.write_group(g))
        assert (back.arg1_norm, back.rel_norm, back.arg2_norm) == (
            g.arg1_norm, g.rel_norm, g.arg2_norm)
        assert back.arg1_types == g.arg1_types
        assert back.arg2_types == g.arg2_types
        if g.arg1_entity is not None:
            assert back.arg1_entity[:2] == g.arg1_entity[:2]
        assert len(back.instances) == len(g.instances)
        for bi, gi in zip(back.instances, g.instances):
            assert bi.tokens == gi.tokens
            assert (bi.arg1, bi.rel, bi.arg2) == (gi.arg1, gi.rel, gi.arg2)
            assert bi.confidence == gi.confidence
        n += 1
    assert n >= 900


def test_nell_type_map():
    """Reference NellExtractionTest: /book/magazine -> NellType
    ('magazine', 'magazine'); unknown types -> None."""
    from openie_backend_ray.functions.nell import fb_to_nell, nell_type_for

    assert len(fb_to_nell()) > 50
    nt = nell_type_for("/book/magazine")
    assert nt is not None and nt.id == "magazine"
    assert nell_type_for("/Book/Magazine/extra") == nt  # case + extras
    assert nell_type_for("nonsense") is None
    assert nell_type_for("/no/suchtype") is None


@requires_reference
def test_confidence_fitted_tracks_golden():
    """M6 fidelity gate: the shipped fitted weights must rank-correlate
    with the reference-produced golden confidences clearly better than
    the hand-tuned fallback (held-out Spearman 0.553 vs 0.345 at fit
    time; gate at 0.5 full-data to leave refit headroom)."""
    import numpy as np

    from openie_backend_ray.functions import confidence as C

    assert C._load_weights() is not None, "conf_weights.json missing"
    pred, gold = [], []
    for g in clean_groups():
        for i in g.instances:
            pred.append(C.score(i.tokens, i.postags, i.arg1, i.rel, i.arg2))
            gold.append(i.confidence)
    ra = np.argsort(np.argsort(pred))
    rb = np.argsort(np.argsort(gold))
    spearman = float(np.corrcoef(ra, rb)[0, 1])
    assert spearman >= 0.5, spearman


def test_confidence_ranking_behavior():
    """M6 contract: only ranking matters. Clean proper-noun short
    extraction ranks above a pronoun-argument long-sentence one."""
    from openie_backend_ray.functions.confidence import score

    good = score(
        ["Mozart", "was", "born", "in", "Salzburg", "."],
        ["NNP", "VBD", "VBN", "IN", "NNP", "."],
        (0, 1), (1, 4), (4, 5),
    )
    toks = ["it"] + ["filler"] * 30 + ["said", "something", "."]
    tags = ["PRP"] + ["NN"] * 30 + ["VBD", "NN", "."]
    bad = score(toks, tags, (0, 1), (31, 32), (32, 33))
    assert good > 0.7 > bad
    assert 0.0 < bad < good < 1.0
