"""ReVerb extractor conformance vs the reference's golden fixtures."""

from __future__ import annotations

from openie_backend_ray.fixtures.conformance import clean_groups
from openie_backend_ray.functions.normalize import index_key
from openie_backend_ray.functions.reverb import _np_chunks, extract

from conftest import requires_reference


def test_np_chunks():
    assert _np_chunks(["B-NP", "I-NP", "O", "B-NP", "B-VP"]) == [(0, 2), (3, 4)]
    assert _np_chunks(["O", "B-NP"]) == [(1, 2)]


def test_extract_simple():
    toks = ["Mozart", "was", "born", "in", "Salzburg", "."]
    tags = ["NNP", "VBD", "VBN", "IN", "NNP", "."]
    chks = ["B-NP", "B-VP", "I-VP", "B-PP", "B-NP", "O"]
    assert extract(toks, tags, chks) == [((0, 1), (1, 4), (4, 5))]


def test_extract_no_np():
    assert extract(["runs"], ["VBZ"], ["B-VP"]) == []


@requires_reference
def test_golden_triple_recall(golden_groups):
    """The extractor + normalization reproduce >=92% of round-trip-clean
    golden groups' (arg1Norm, relNorm, arg2Norm) from raw sentence layers.

    The absolute ceiling is < 1.0: the golden file is an alphabetic head
    sample produced by a specific reverb build with its full
    corpus-derived lexical-constraint dictionary; see
    fixtures/conformance.py."""
    groups = clean_groups(golden_groups)
    hit = 0
    for g in groups:
        stored = (g.arg1_norm, g.rel_norm, g.arg2_norm)
        if any(
            index_key(i.tokens, i.postags, a1, r, a2) == stored
            for i in g.instances
            for (a1, r, a2) in extract(i.tokens, i.postags, i.chunks)
        ):
            hit += 1
    assert hit / len(groups) >= 0.95
