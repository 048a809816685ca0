"""Property tests (hypothesis) for the invariants the SQL oracles rely
on: merge reducers are permutation-invariant (canon_order), and the
dump codecs round-trip arbitrary well-formed rows."""

from __future__ import annotations

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from openie_backend_ray import schema as S

_WORD = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",),
                           max_codepoint=0x7A),
    min_size=1, max_size=8,
)


@st.composite
def _group_rows(draw):
    """2-5 group rows sharing a small norm vocabulary so merges by
    entity/frontend key actually collide."""
    n = draw(st.integers(2, 5))
    vocab = draw(st.lists(_WORD, min_size=2, max_size=4, unique=True))
    rows = []
    for gi in range(n):
        a1 = draw(st.sampled_from(vocab))
        a2 = draw(st.sampled_from(vocab))
        toks = [a1.capitalize(), "met", a2.capitalize(), "."]
        n_inst = draw(st.integers(1, 3))
        insts = [
            {
                "tokens": toks,
                "postags": ["NNP", "VBD", "NNP", "."],
                "chunks": ["B-NP", "B-VP", "B-NP", "O"],
                "arg1": {"start": 0, "end": 1},
                "rel": {"start": 1, "end": 2},
                "arg2": {"start": 2, "end": 3},
                "source_url": f"u{gi}-{ii}",
                "corpus": draw(st.sampled_from(["cw", "wiki", "news"])),
                "confidence": 0.5 + 0.1 * ii,
            }
            for ii in range(n_inst)
        ]
        linked = draw(st.booleans())
        ent = (
            {"name": a1, "fbid": f"f{draw(st.integers(0, 2))}",
             "score": 1.0, "inlink_ratio": 5.0}
            if linked else None
        )
        rows.append(
            {
                "arg1_norm": a1, "rel_norm": "meet", "arg2_norm": a2,
                "arg1_entity": ent, "arg2_entity": None,
                "arg1_types": [], "arg2_types": [],
                "instances": insts, "size": len(insts),
                "corpora": sorted({i["corpus"] for i in insts}),
            }
        )
    return rows


def _table(rows, order):
    rows = [rows[i] for i in order]
    t = pa.Table.from_pydict(
        {k: [r[k] for r in rows] for k in rows[0]}, schema=S.GROUPS
    )
    return t.append_column("ckey", pa.array(["k"] * len(rows), pa.string()))


def _canon(t: pa.Table):
    """Order-insensitive summary of a merged output table."""
    out = []
    for r in t.to_pylist():
        out.append(
            (
                r["arg1_norm"], r["rel_norm"], r["arg2_norm"], r["size"],
                r["arg1_entity"]["fbid"] if r["arg1_entity"] else "",
                tuple(sorted(
                    (i["source_url"], i["corpus"]) for i in r["instances"]
                )),
            )
        )
    return sorted(out)


@settings(max_examples=40, deadline=None)
@given(_group_rows(), st.permutations(range(5)))
def test_merge_reducers_permutation_invariant(rows, perm):
    """Ray's groupby gives no within-group row order; both canonicalize
    reducers must therefore be pure functions of the member SET — this
    is the invariant the cross-engine oracles (and resumable reruns)
    stand on."""
    from openie_backend_ray.stages.canonicalize import (
        merge_entity_groups,
        merge_frontend_groups,
    )

    order = [i for i in perm if i < len(rows)]
    ident = list(range(len(rows)))
    assert _canon(merge_entity_groups(_table(rows, ident))) == \
        _canon(merge_entity_groups(_table(rows, order)))
    assert _canon(merge_frontend_groups(_table(rows, ident))) == \
        _canon(merge_frontend_groups(_table(rows, order)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_WORD, min_size=3, max_size=10),
    st.floats(0.0, 1.0, allow_nan=False),
    st.integers(0, 2),
)
def test_triple_tsv_round_trip_property(toks, conf, start):
    from openie_backend_ray.fixtures.oie4_tsv import (
        TripleRow,
        triple_from_line,
        triple_to_line,
    )

    n = len(toks)
    tags = ["NN"] * n
    chks = ["O"] * n
    end = min(start + 1, n)
    t = TripleRow(conf, "cw", toks[0], "rel text", toks[-1],
                  (start, end), (0, 1), (n - 1, n), toks, tags, chks, "u")
    assert triple_from_line(triple_to_line(t)) == t


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 50), st.integers(1, 10))
def test_interval_grammar_round_trip(start, width):
    from openie_backend_ray.fixtures.oie4_tsv import serialize_interval
    from openie_backend_ray.fixtures.reverb_tsv import parse_interval

    iv = (start, start + width)
    assert parse_interval(serialize_interval(iv)) == iv


@st.composite
def _keyed_insts(draw):
    """1-8 extraction instances for ONE grouping key, some duplicated
    (same sig) with different urls/confidences."""
    n = draw(st.integers(1, 8))
    insts = []
    for i in range(n):
        dup_of = draw(st.one_of(st.none(), st.integers(0, max(0, i - 1))))
        if dup_of is not None and insts:
            base = dict(insts[dup_of])
            base["source_url"] = f"u{i}"
            base["confidence"] = draw(
                st.sampled_from([base["confidence"], 0.3, 0.9])
            )
            insts.append(base)
            continue
        w = draw(_WORD)
        insts.append(
            {
                "tokens": ["X", "met", w, "."],
                "postags": ["NNP", "VBD", "NN", "."],
                "chunks": ["B-NP", "B-VP", "B-NP", "O"],
                "arg1": {"start": 0, "end": 1},
                "rel": {"start": 1, "end": 2},
                "arg2": {"start": 2, "end": 3},
                "source_url": f"u{i}",
                "corpus": draw(st.sampled_from(["cw", "wiki"])),
                "confidence": draw(st.sampled_from([0.3, 0.6, 0.9])),
            }
        )
    return insts


@settings(max_examples=40, deadline=None)
@given(_keyed_insts(), st.lists(st.integers(0, 2), min_size=8, max_size=8),
       st.permutations(range(16)))
def test_combiner_partition_invariance(insts, parts, perm):
    """G1 combiner correctness: permuting the input rows AND changing
    the partition layout (which rows pre-combine together) must yield
    byte-identical merged blob groups — the property that makes the
    map-side combiner and the salted two-phase shuffle output-identical
    to a plain groupByKey. Two keys interleave, so every merge sees a
    multi-key partition."""
    import pyarrow as pa

    from openie_backend_ray.stages import grouper as G

    rows = [(k, (k, "meet", "y"), i) for i in insts for k in ("k", "k2")]

    def run(order, assign):
        chunks: dict[int, list] = {}
        for pos, ri in enumerate(order):
            if ri >= len(rows):
                continue
            chunks.setdefault(assign[pos % len(assign)], []).append(
                rows[ri]
            )
        partials = [
            G.combine_rows(ch) for ch in chunks.values() if ch
        ]
        t = pa.concat_tables(partials)
        return G.merge_blob_groups(t).sort_by("key")

    base = run(list(range(len(rows))), [0])          # one partition
    alt = run(list(perm), parts)                     # shuffled + split
    assert base.num_rows == alt.num_rows == 2
    assert base["key"].to_pylist() == alt["key"].to_pylist() == ["k", "k2"]
    assert base["size"].to_pylist() == alt["size"].to_pylist()
    assert base["raw_count"].to_pylist() == alt["raw_count"].to_pylist() \
        == [len(insts)] * 2
    # compare unpickled CONTENT (incl. order): raw blob bytes may
    # differ across merge depths from pickle string-memoization, which
    # is not semantic
    import pickle

    for b, a in zip(base["instances_blob"].to_pylist(),
                    alt["instances_blob"].to_pylist()):
        assert pickle.loads(b) == pickle.loads(a)
