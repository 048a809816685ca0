"""Pins the flagship's group-count semantics on a FIXED corpus
(sf0.001 + the fixture corpus), so tagger/extractor drift between
rounds is visible instead of silent.

Context (round-3 -> round-4 finding): flagship groups at sf0.1 jumped
6,950 -> 13,326 when the trained averaged-perceptron tagger replaced
the rule-based heuristic for out-of-lexicon sentences. Cause, verified
here as the causal pin: the heuristic's closed-class/suffix rules tag
the synthetic sf word-salad vocabulary entirely nominal, so ReVerb's
VP-anchored pattern (``functions/reverb.py``) finds NO relations in sf
text — r2's 6,950 groups were fixture-only. The trained tagger
generalizes via suffix/context features and finds verbal readings in
the same text, adding one disjoint group-key population per sf corpus
(6,376 keys at sf0.1; 658 at sf0.001). Group counts are ADDITIVE
across the two corpora because their key spaces are disjoint.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import requires_reference

pytestmark = requires_reference

SF_DIR = "/root/testdata/sf0.001"

# pinned on the fixed corpus: sf0.001 documents + fixture corpus at
# replication=1, run_flagship defaults (dedup on, no filter/canon)
EXPECTED_BOTH = 7608
EXPECTED_SF_ONLY = 658
EXPECTED_FIXTURE_ONLY = 6950  # == r2's flagship_groups: fixture-only


@pytest.fixture(scope="module")
def corpora():
    from openie_backend_ray.fixtures.corpus import (
        build_chunker_lexicon,
        build_documents,
    )
    from openie_backend_ray.sources.interleaved import interleave_flat_batch

    flat = pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    )
    return {
        "sf": interleave_flat_batch(flat),
        "fixture": build_documents(replication=1),
        "lexicon": build_chunker_lexicon(),
    }


def _group_count(docs: pa.Table, lexicon: pa.Table) -> int:
    import ray

    from openie_backend_ray.pipelines.flagship import run_flagship

    ds = ray.data.from_arrow(docs)
    lex_ref = ray.put(lexicon)
    return run_flagship(ds, lexicon_ref=lex_ref, corpus="cw").count()


def test_flagship_group_counts_pinned(ray_session, corpora):
    """Exact pinned counts + additivity (disjoint key spaces)."""
    both = _group_count(
        pa.concat_tables([corpora["sf"], corpora["fixture"]]),
        corpora["lexicon"],
    )
    sf_only = _group_count(corpora["sf"], corpora["lexicon"])
    fix_only = _group_count(corpora["fixture"], corpora["lexicon"])
    assert fix_only == EXPECTED_FIXTURE_ONLY
    assert sf_only == EXPECTED_SF_ONLY
    assert both == EXPECTED_BOTH
    assert both == sf_only + fix_only


def test_sf_groups_come_from_trained_tagger(corpora):
    """Causal pin for the r2->r3 group shift: the rule-based heuristic
    yields ZERO extraction keys on sf word-salad; the trained
    perceptron yields the sf key population."""
    from openie_backend_ray.functions.normalize import index_key, key_string
    from openie_backend_ray.functions.postagger import (
        default_chunker,
        default_tagger,
    )
    from openie_backend_ray.functions.reverb import extract
    from openie_backend_ray.stages.chunker import (
        heuristic_layers,
        model_layers,
    )
    from openie_backend_ray.stages.sentences import explode_text_spans

    tagger = default_tagger()
    chunker = default_chunker()
    assert tagger is not None and chunker is not None

    texts = sorted(
        set(explode_text_spans(corpora["sf"])["text"].to_pylist())
    )

    def keys_of(layers_fn):
        ks = set()
        for t in texts:
            toks, tags, chks = layers_fn(t)
            for (a1, r, a2) in extract(toks, tags, chks):
                k = index_key(toks, tags, a1, r, a2)
                if k[0] and k[1] and k[2]:
                    ks.add(key_string(k))
        return ks

    heur = keys_of(heuristic_layers)
    model = keys_of(
        lambda t: model_layers(t, tagger=tagger, chunk_tagger=chunker)
    )
    assert len(heur) == 0
    assert len(model) == EXPECTED_SF_ONLY
