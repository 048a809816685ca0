"""Training-data ops: unit tests on Arrow batches + oracle parity spot
checks against DuckDB at sf0.001 (the same comparison the driver runs)."""

from __future__ import annotations

from pathlib import Path

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"
REPO = str(Path(__file__).resolve().parents[1])


def _docs_batch():
    return pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "the cat sat on the mat",
                    "the cat sat on the mat",
                    "a completely different sentence here now",
                ]
            ),
        }
    )


def test_token_stats_batch():
    from openie_backend_ray.ops.textstats import token_stats_batch

    out = token_stats_batch(_docs_batch())
    assert out["n_tokens"].to_pylist() == [6, 6, 6]
    assert out["n_types"].to_pylist() == [5, 5, 6]
    # "the" twice + "on" -> 3/6
    assert out["stopword_ratio"].to_pylist()[0] == pytest.approx(0.5)


def test_repetition_stats_batch():
    from openie_backend_ray.ops.textstats import repetition_stats_batch

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    # "buy now" occupies 3 of 5 bigrams; "buy now buy"
                    # and "now buy now" repeat -> both signals high
                    "buy now buy now buy now",
                    "a varied sentence with no repeated grams at all",
                    "x",  # <2 tokens -> both fractions 0.0
                ]
            ),
        }
    )
    out = repetition_stats_batch(t)
    top = out["top_bigram_frac"].to_pylist()
    dup = out["dup_trigram_frac"].to_pylist()
    rep = out["repetitive"].to_pylist()
    assert top[0] == pytest.approx(3 / 5)
    assert dup[0] == pytest.approx(1.0)
    assert rep == [True, False, False]
    # all 8 bigrams distinct -> the max one still occupies 1/8
    assert top[1] == pytest.approx(1 / 8)
    assert dup[1] == top[2] == dup[2] == 0.0


def test_chain_pairs_exact_above_2_53():
    """Regression: the grouped-shift implementation promoted int64
    doc_ids to float64 (NaN fill) and rounded ids above 2^53 on the
    way back — 9007199254740993 became ...992. The adjacency-mask
    implementation must keep 64-bit ids exact."""
    from openie_backend_ray.ops.dedup import _bucket_pairs_part

    a, b = 9007199254740993, 9007199254741003  # both > 2^53, distinct
    g = pa.table(
        {"band": pa.array([0, 0], pa.int32()),
         "bucket": pa.array(["x", "x"], pa.string()),
         "doc_id": pa.array([a, b], pa.int64())}
    )
    out = _bucket_pairs_part(g)
    assert out["doc_a"].to_pylist() == [a]
    assert out["doc_b"].to_pylist() == [b]


def test_winnowing_coverage_property():
    """Winnowing guarantee (Schleimer et al. 2003): two docs sharing a
    token run of length >= w + k - 1 (= 6 here) share at least one
    fingerprint; disjoint docs share none."""
    from openie_backend_ray.ops.dedup import winnow_fingerprints_batch

    t = pa.table(
        {"doc_id": pa.array([1, 2, 3], pa.int64()),
         "text": pa.array(
             ["p q r s t u v w x y",
              "a b c r s t u v w d e",   # shares the 6-run "r s t u v w"
              "m n o zz yy xx ww vv"])}
    )
    out = winnow_fingerprints_batch(t)
    fps: dict[int, set] = {}
    for r in out.to_pylist():
        fps.setdefault(r["doc_id"], set()).add(r["fp"])
    assert fps[1] & fps[2], "shared 6-token run must share a fingerprint"
    assert not (fps[1] & fps[3]) and not (fps[2] & fps[3])


def test_delta_dedup_flags_store_overlap(ray_session):
    import ray

    from openie_backend_ray.ops.dedup import delta_dedup

    store = pa.table(
        {"doc_id": pa.array([1, 2], pa.int64()),
         "text": pa.array(["p q r s t u v w x y",
                           "m n o zz yy xx ww vv"])}
    )
    delta = pa.table(
        {"doc_id": pa.array([10, 11], pa.int64()),
         "text": pa.array(["a b c r s t u v w d e",  # shares a 6-run
                           "totally fresh delta content here only"])}
    )
    out = delta_dedup(
        ray.data.from_arrow(delta), ray.data.from_arrow(store)
    ).to_pandas()
    assert list(out["doc_id"]) == [10]
    assert out["n_shared"].iloc[0] >= 1


def test_delta_dedup_precomputed_store_fps(ray_session, tmp_path):
    """materialize_store_fingerprints + store_is_fingerprints=True ==
    the re-winnowing path, and the incremental pipeline's content
    dedup drops exactly the flagged delta docs."""
    import ray

    from openie_backend_ray.ops.dedup import (
        delta_dedup,
        materialize_store_fingerprints,
        read_store_fingerprints,
    )
    from openie_backend_ray.pipelines.incremental import (
        drop_near_dup_deltas,
    )

    store = pa.table(
        {"doc_id": pa.array([1, 2], pa.int64()),
         "text": pa.array(["p q r s t u v w x y",
                           "m n o zz yy xx ww vv"])}
    )
    delta = pa.table(
        {"doc_id": pa.array([10, 11], pa.int64()),
         "text": pa.array(["a b c r s t u v w d e",
                           "totally fresh delta content here only"])}
    )
    fps_path = str(tmp_path / "store_fps")
    materialize_store_fingerprints(ray.data.from_arrow(store), fps_path)

    rewinnow = delta_dedup(
        ray.data.from_arrow(delta), ray.data.from_arrow(store)
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    precomp = delta_dedup(
        ray.data.from_arrow(delta),
        read_store_fingerprints(fps_path),
        store_is_fingerprints=True,
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(rewinnow, precomp)
    assert list(precomp["doc_id"]) == [10]

    kept = drop_near_dup_deltas(
        ray.data.from_arrow(delta), read_store_fingerprints(fps_path)
    ).to_pandas()
    assert list(kept["doc_id"]) == [11]

    # (k, w) mismatch must raise, not silently flag nothing
    import pytest

    with pytest.raises(ValueError, match="winnowed with"):
        read_store_fingerprints(fps_path, k=3, w=2)


def test_winnow_params_guard_on_file_uri(ray_session, tmp_path):
    """The (k, w) sidecar guard holds for a URI store, not only a bare
    local path: written at file://... with k=3, read back with k=4."""
    import ray

    from openie_backend_ray.ops.dedup import (
        materialize_store_fingerprints,
        read_store_fingerprints,
    )

    store = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                      "text": pa.array(["p q r s t u v w x y",
                                        "m n o zz yy xx ww vv"])})
    uri = f"file://{tmp_path}/store_fps"
    materialize_store_fingerprints(ray.data.from_arrow(store), uri, k=3)
    assert read_store_fingerprints(uri, k=3).count() > 0
    with pytest.raises(ValueError, match="winnowed with"):
        read_store_fingerprints(uri, k=4)


def test_quality_gate_agrees_with_components():
    from openie_backend_ray.ops.textstats import (
        lang_id_batch,
        quality_gate_batch,
        quality_score_batch,
        repetition_stats_batch,
    )

    t = pa.table(
        {"doc_id": pa.array([1, 2, 3], pa.int64()),
         "text": pa.array(
             ["cats chase small dogs around green gardens every sunny"
              " morning near the lake",
              "spam spam spam spam spam spam spam spam spam spam",
              "el la los de en y que un una es por para con si no"])}
    )
    g = quality_gate_batch(t).to_pylist()
    q = {r["doc_id"]: r["keep"] for r in quality_score_batch(t).to_pylist()}
    r = {r["doc_id"]: r["repetitive"]
         for r in repetition_stats_batch(t).to_pylist()}
    l = {r["doc_id"]: r["lang_pred"] for r in lang_id_batch(t).to_pylist()}
    for row in g:
        d = row["doc_id"]
        assert row["quality_ok"] == q[d]
        assert row["repetitive"] == r[d]
        assert row["lang_ok"] == (l[d] == "en")
        assert row["keep"] == (q[d] and not r[d] and l[d] == "en")
    flags = {row["doc_id"]: row["keep"] for row in g}
    assert flags[1] is True          # clean English
    assert flags[2] is False         # repetitive
    assert flags[3] is False         # Spanish


def test_bpe_token_stats_pieces():
    from openie_backend_ray.ops.textstats import bpe_token_stats_batch

    t = pa.table(
        {"doc_id": pa.array([1, 2], pa.int64()),
         "text": pa.array(["it's a well-known fact", "abc123 x"])}
    )
    out = bpe_token_stats_batch(t)
    # "it"+"'s"+" a"+" well"+"-"+"known"+" fact" = 7 pieces, 4 words;
    # "abc"+"123"+" x" = 3 (leading spaces fold into the next piece)
    assert out["n_words"].to_pylist() == [4, 2]
    assert out["n_bpe_pieces"].to_pylist() == [7, 3]
    assert out["pieces_per_word"].to_pylist()[0] == 7 / 4


def test_fingerprint_matches_duplicate_texts():
    from openie_backend_ray.ops.textstats import fingerprint_batch

    out = fingerprint_batch(_docs_batch())
    fps = out["fingerprint"].to_pylist()
    assert fps[0] == fps[1] != fps[2]
    assert len(fps[0]) == 32


def test_simhash_near_duplicates_close():
    from openie_backend_ray.ops.dedup import simhash_batch

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "alpha beta gamma delta epsilon zeta eta theta",
                    "alpha beta gamma delta epsilon zeta eta iota",
                    "one two three four five six seven eight",
                ]
            ),
        }
    )
    out = simhash_batch(t)
    h = [int(x, 16) for x in out["simhash"].to_pylist()]
    d12 = bin(h[0] ^ h[1]).count("1")
    d13 = bin(h[0] ^ h[2]).count("1")
    assert d12 < d13


def test_minhash_finds_near_duplicates(ray_session):
    import ray.data as rd

    from openie_backend_ray.ops.dedup import minhash_pairs

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "the quick brown fox jumps over the lazy dog today",
                    "the quick brown fox jumps over the lazy dog tonight",
                    "completely unrelated text with other words entirely",
                    "yet another disjoint document about nothing shared",
                ]
            ),
        }
    )
    pairs = minhash_pairs(rd.from_arrow(t)).to_pandas()
    assert (1, 2) in set(zip(pairs.doc_a, pairs.doc_b))
    assert all((a, b) != (3, 4) for a, b in zip(pairs.doc_a, pairs.doc_b))


def test_media_features_deterministic(ray_session):
    import ray.data as rd

    from openie_backend_ray import schema as S
    from openie_backend_ray.ops.multimodal import FEATURE_DIM, media_features

    docs = pa.table(
        {
            "doc_id": pa.array(["d1"], pa.string()),
            "spans": pa.array(
                [[
                    {"kind": "image", "text": "", "media_ref": "media://image/1",
                     "offset": 0},
                    {"kind": "text", "text": "hello world", "media_ref": "",
                     "offset": 1},
                    {"kind": "audio", "text": "", "media_ref": "media://audio/2",
                     "offset": 2},
                ]],
                pa.list_(S.SPAN),
            ),
        }
    )
    out1 = media_features(rd.from_arrow(docs)).to_pandas()
    out2 = media_features(rd.from_arrow(docs)).to_pandas()
    assert len(out1) == 2  # text span excluded
    assert set(out1.kind) == {"image", "audio"}
    assert all(len(f) == FEATURE_DIM for f in out1.feature)
    pd.testing.assert_frame_equal(
        out1.sort_values("span_idx").reset_index(drop=True),
        out2.sort_values("span_idx").reset_index(drop=True),
    )


def test_real_decoder_is_stubbed():
    from openie_backend_ray.ops.multimodal import RealDecoder

    with pytest.raises(NotImplementedError):
        RealDecoder()


@pytest.mark.parametrize(
    "name",
    ["dedup_exact", "ann_topk", "hash_sample", "simhash",
     "fingerprint", "dedup_minhash_pairs", "winnow_fingerprints",
     "winnow_pairs", "delta_dedup", "simhash_pairs"],
)
def test_oracle_parity_spot(ray_session, name):
    """Same comparison the driver runs: row count + sorted columns +
    order-insensitive values vs the DuckDB oracle at sf0.001."""
    import sys

    sys.path.insert(0, REPO)
    import __ray_entry__ as E

    got = E.queries()[name](SF).to_pandas()
    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    want = con.sql(E.oracle_sql()[name]).df()
    assert len(got) == len(want)
    assert sorted(got.columns) == sorted(want.columns)
    g = got[sorted(got.columns)].astype(str)
    w = want[sorted(want.columns)].astype(str)
    gs = sorted(map(tuple, g.itertuples(index=False, name=None)))
    ws = sorted(map(tuple, w.itertuples(index=False, name=None)))
    assert gs == ws


def test_oracle_sql_writes_views_only_for_view_backed_entries(monkeypatch):
    """The KG fixture views (built from the reference) are written only
    when an entry whose SQL reads them is handed out, so the other
    oracles run without the reference."""
    import sys

    sys.path.insert(0, REPO)
    import __ray_entry__ as E
    from openie_backend_ray.fixtures import views

    calls = []
    monkeypatch.setattr(
        views, "ensure_views", lambda: calls.append(1) or views.views_dir()
    )
    sqls = E.oracle_sql()
    assert "dedup_exact" in sqls and "extreme_filter" in sqls
    assert "no_such_query" not in sqls
    for name in ("dedup_exact", "media_features", "lang_id"):
        assert views.views_dir() not in sqls[name]
    assert not calls
    assert views.views_dir() in sqls["extreme_filter"]
    assert calls


def test_read_directory_shaped_table_keeps_every_row(ray_session,
                                                      tmp_path):
    """``_read`` on a directory-shaped ``<table>.parquet/`` dataset,
    which the row-group probe cannot open as one file, still returns
    every row."""
    import sys

    import pyarrow.parquet as pq

    sys.path.insert(0, REPO)
    import __ray_entry__ as E

    d = tmp_path / "documents.parquet"
    d.mkdir()
    for i in range(3):
        pq.write_table(
            pa.table({"doc_id": pa.array(range(10 * i, 10 * i + 10),
                                         pa.int64())}),
            d / f"part-{i}.parquet",
        )
    ds = E._read(str(tmp_path), "documents", ["doc_id"])
    assert sorted(r["doc_id"] for r in ds.take_all()) == list(range(30))


def test_ann_topk_ranks(ray_session):
    import sys

    sys.path.insert(0, REPO)
    import __ray_entry__ as E

    out = E.queries()["ann_topk"](SF).to_pandas()
    assert set(out.qvec_id.unique()) == set(range(10))
    for _, grp in out.groupby("qvec_id"):
        assert list(grp.sort_values("rank")["rank"]) == list(range(1, 11))
        s = grp.sort_values("rank")["score"].to_numpy()
        assert (s[:-1] >= s[1:]).all()


def test_clean_corpus_drops_dups_and_junk(ray_session):
    """Composed cleaning pipeline: exact dup, near-dup (jaccard), and
    low-quality docs all drop; the survivor set is exact."""
    import ray
    import ray.data as rd

    from openie_backend_ray.ops.clean_corpus import clean_corpus

    base = ("the quick brown fox jumps over the lazy dog and runs far "
            "away every single day")
    near = base.replace("far", "near")
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array([
                base,                 # keeper
                base,                 # exact dup of 1 -> dropped
                near,                 # near-dup of 1 -> dropped
                "too short",          # quality (n_tokens < 10) -> dropped
                "an entirely different document about other topics "
                "with plenty of ordinary words inside it today",  # keeper
            ]),
        }
    )
    out = clean_corpus(
        rd.from_arrow(docs), jaccard_threshold=0.5
    ).to_pandas()
    assert sorted(out.doc_id) == [1, 5]


def test_resize_features_block_mean(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from openie_backend_ray.ops.multimodal import (
        FEATURE_DIM,
        MEDIA_FEATURES,
        resize_features,
    )

    feat = [i / 16.0 for i in range(FEATURE_DIM)]
    tbl = pa.table(
        {"doc_id": ["d"], "span_idx": pa.array([0], pa.int32()),
         "kind": ["image"], "media_ref": ["media://image/x"],
         "n_bytes": pa.array([256], pa.int64()),
         "feature": pa.array([feat], pa.list_(pa.float32()))},
        schema=MEDIA_FEATURES,
    )
    out = resize_features(rd.from_arrow(tbl), out_dim=4).take_all()
    got = out[0]["feature"]
    want = np.array(feat, dtype=np.float32).reshape(4, 4).mean(axis=1)
    assert np.allclose(got, want)


def test_media_frames_deterministic(ray_session):
    import hashlib

    import pyarrow as pa
    import ray.data as rd

    from openie_backend_ray import schema as S
    from openie_backend_ray.ops.multimodal import media_frames

    docs = pa.table(
        {
            "doc_id": pa.array(["d1"], pa.string()),
            "spans": pa.array(
                [[
                    {"kind": "video", "text": "",
                     "media_ref": "media://video/abc", "offset": 0},
                    {"kind": "text", "text": "hello world",
                     "media_ref": "", "offset": 1},
                ]],
                pa.list_(S.SPAN),
            ),
        }
    )
    out = media_frames(rd.from_arrow(docs), every=2).take_all()
    # frame count is a pure function of the ref's sha256 stream
    first = hashlib.sha256(b"media://video/abc").digest()[0]
    n_frames = 8 + first % 9
    assert [r["frame_idx"] for r in out] == list(range(0, n_frames, 2))
    assert out[0]["frame_ref"] == "media://video/abc#f0"
    # text spans don't reach the sampler
    assert all(r["media_ref"].startswith("media://video/") for r in out)


# ---------------------------------------------------------------------------
# connected components (fuzzy-dedup clustering)
# ---------------------------------------------------------------------------


def _bfs_components(edges: list[tuple[int, int]]) -> dict[int, int]:
    """Brute-force reference: component = min reachable node."""
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    out: dict[int, int] = {}
    seen: set[int] = set()
    for start in adj:
        if start in seen:
            continue
        comp, todo = [], [start]
        seen.add(start)
        while todo:
            n = todo.pop()
            comp.append(n)
            for nb in adj[n]:
                if nb not in seen:
                    seen.add(nb)
                    todo.append(nb)
        m = min(comp)
        for n in comp:
            out[n] = m
    return out


def test_connected_components_matches_bfs(ray_session, monkeypatch):
    """Chains, a clique, a 2-cycle of pairs, singleton edge, disjoint
    islands — including a long path (the chain-pair bucket shape) that
    defeats naive min-label propagation round counts."""
    import ray

    from openie_backend_ray.ops import partition
    from openie_backend_ray.ops.components import connected_components

    edges = (
        [(i, i + 1) for i in range(100, 140)]        # long path
        + [(7, 3), (3, 9), (9, 7)]                   # triangle
        + [(1, 2)]                                   # single pair
        + [(50, 60), (60, 55), (55, 52), (52, 50)]   # 4-cycle
        + [(200, 300), (300, 201), (201, 301)]       # bipartite-ish
        + [(400, 400)]                               # self-loop: dropped
    )
    want = _bfs_components([(a, b) for a, b in edges if a != b])
    ds = ray.data.from_arrow(
        pa.table({"a": pa.array([a for a, _ in edges], pa.int64()),
                  "b": pa.array([b for _, b in edges], pa.int64())})
    )
    # both paths must produce the identical clustering: the bounded
    # union-find fast path and the distributed star rounds (forced by
    # a zero small-graph cap, at 1, 8 and 64 exchange partitions)
    for cap, nparts in ((5_000_000, 1), (0, 1), (0, 8), (0, 64)):
        monkeypatch.setattr(partition, "partition_count",
                            lambda n=nparts: n)
        got_rows = connected_components(
            ds, small_graph_max_edges=cap
        ).take_all()
        got = {r["doc_id"]: r["component"] for r in got_rows}
        assert got == want, f"cap={cap} P={nparts}"
        assert len(got_rows) == len(got)  # no duplicate doc_id rows


def test_connected_components_empty_and_pair_cols(ray_session):
    import ray

    from openie_backend_ray.ops.components import connected_components

    empty = ray.data.from_arrow(
        pa.table({"doc_a": pa.array([], pa.int64()),
                  "doc_b": pa.array([], pa.int64())})
    )
    assert connected_components(empty).take_all() == []

    pairs = ray.data.from_arrow(
        pa.table({"doc_a": pa.array([10, 20], pa.int64()),
                  "doc_b": pa.array([11, 21], pa.int64()),
                  "jaccard": pa.array([0.9, 0.8], pa.float64())})
    )
    got = {r["doc_id"]: r["component"]
           for r in connected_components(pairs).take_all()}
    assert got == {10: 10, 11: 10, 20: 20, 21: 20}


def test_kg_entries_inside_driver_window():
    """The driver's correctness check caps at the FIRST 50 registered
    queries() entries; the KG-core operators (the reference's whole
    purpose) must always sit inside that window, and every tail entry
    must be semantically covered by an in-window one (see the
    registration-order comment in __ray_entry__.queries)."""
    import sys

    sys.path.insert(0, REPO)
    import __ray_entry__ as E

    order = list(E.queries().keys())
    kg = [
        "group_extractions", "group_extractions_salted", "canonicalize",
        "type_predictions", "openie4_triples", "fetch_groups",
        "renormalize", "inlink_ratio", "arg_pairs", "regroup",
        "extreme_filter", "dedup_groups", "filter_groups",
        "head_phrases", "answer_projections", "flagship_triples",
    ]
    for name in kg:
        assert order.index(name) < 50, f"{name} fell out of the window"
    # the tail holds only simhash, kept for its exact oracle check of
    # dedup.simhash_batch values
    allowed_tail = {"simhash"}
    assert set(order[50:]) <= allowed_tail
    # the rotated-back entries are actually inside the window
    for name in ("token_stats", "quality_score", "lang_id",
                 "fingerprint", "vocab_stats", "repetition_stats",
                 "bpe_token_stats", "media_spans"):
        assert order.index(name) < 50, f"{name} missed the rotation"


def test_every_oracle_has_a_query():
    """An oracle left behind by a deleted ``queries()`` entry checks
    nothing.  Keys only: no KG view is built."""
    import sys

    sys.path.insert(0, REPO)
    import __ray_entry__ as E

    assert set(E.oracle_sql()) <= set(E.queries())


def test_perm_mins_matches_scalar_reference():
    """The uint64 Mersenne-rotate minhash kernel must equal the scalar
    ((A*p+1)*h + (B*p+7)) mod (2^61-1) definition the SQL twin
    reconstructs — exact, not approximate."""
    import random

    import numpy as np

    from openie_backend_ray.ops.dedup import (
        _MH_A, _MH_B, _MH_MOD, NUM_PERM, _perm_mins,
    )

    rng = random.Random(11)
    for _ in range(50):
        hs = [rng.randrange(0, 1 << 52)
              for _ in range(rng.randrange(1, 64))]
        want = [
            min(((_MH_A * p + 1) * h + (_MH_B * p + 7)) % _MH_MOD
                for h in hs)
            for p in range(NUM_PERM)
        ]
        got = [int(v) for v in _perm_mins(np.array(hs, dtype=np.uint64))]
        assert got == want


def test_chain_star_pairs_union():
    """Bucket [1, 5, 9]: chain gives (1,5),(5,9); star adds (1,9) —
    the anchor-adjacent pair chain alone loses when 5 is a
    hash-collision non-dup."""
    import numpy as np

    from openie_backend_ray.ops.dedup import _chain_mask, _chain_star_pairs

    import pandas as pd

    df = pd.DataFrame({"k": ["x", "x", "x", "y", "y"],
                       "doc_id": [1, 5, 9, 2, 4]})
    same = _chain_mask(df, ["k"])
    a, b = _chain_star_pairs(df["doc_id"].to_numpy(), same)
    got = set(zip(a.tolist(), b.tolist()))
    assert got == {(1, 5), (5, 9), (1, 9), (2, 4)}
    # empty input stays empty
    a, b = _chain_star_pairs(np.array([], dtype=np.int64),
                             np.zeros(0, dtype=bool))
    assert len(a) == 0 and len(b) == 0


def test_clean_corpus_anti_join_path_matches_broadcast(ray_session):
    """Above loser_broadcast_cap the loser ids must never be collected
    on the driver; cap=0 forces the LEFT-ANTI co-group path, which
    must be output-identical to the broadcast path."""
    import ray.data as rd

    from openie_backend_ray.ops.clean_corpus import clean_corpus

    ds = rd.read_parquet(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    a = sorted(
        (r["doc_id"], r["n_tokens"])
        for r in clean_corpus(ds).take_all()
    )
    ds2 = rd.read_parquet(f"{SF}/documents.parquet",
                          columns=["doc_id", "text"])
    b = sorted(
        (r["doc_id"], r["n_tokens"])
        for r in clean_corpus(ds2, loser_broadcast_cap=0).take_all()
    )
    assert a == b and len(a) > 0


def test_ngram_jaccard_broadcast_matches_cogroup(ray_session):
    """The broadcast verify (zero-shuffle small path) must score
    exactly like the partitioned co-group; broadcast_docs_cap=0 forces
    the co-group path on the same input."""
    import ray.data as rd

    from openie_backend_ray.ops.dedup import ngram_jaccard_pairs

    def run(**kw):
        ds = rd.read_parquet(f"{SF}/documents.parquet",
                             columns=["doc_id", "text"])
        return sorted(
            (r["doc_a"], r["doc_b"], r["jaccard"])
            for r in ngram_jaccard_pairs(ds, **kw).take_all()
        )

    fast, slow = run(), run(broadcast_docs_cap=0)
    assert fast == slow and len(fast) > 0


def test_centroid_matrix_sqrt_sample():
    """Quantizer: defaults to ceil(sqrt(n)) centroids drawn by
    md5(vec_id) order (deterministic sample, NOT the first-N ids),
    returned sorted by vec_id."""
    import hashlib
    import math

    import numpy as np

    from openie_backend_ray.ops.similarity import centroid_matrix

    n = 200
    rng = np.random.default_rng(5)
    tbl = pa.table(
        {"vec_id": pa.array(range(n), pa.int64()),
         "embedding": pa.array(rng.normal(size=(n, 8)).tolist(),
                               pa.list_(pa.float64()))}
    )
    ids, mat = centroid_matrix(tbl)
    k = math.ceil(math.sqrt(n))
    assert len(ids) == k and mat.shape == (k, 8)
    assert list(ids) == sorted(ids)
    want = sorted(range(n),
                  key=lambda i: (hashlib.md5(str(i).encode()).hexdigest(),
                                 i))[:k]
    assert set(ids) == set(want)
    # sample is not the first-N prefix (the old degenerate quantizer)
    assert set(ids) != set(range(k))
    # rows are L2-normalized
    assert np.allclose(np.linalg.norm(mat, axis=1), 1.0)


def test_partition_map_groups_matches_groupby(ray_session):
    """The hash-partitioned per-key co-group (ops/partition.py) must be
    row-identical to groupby(key).map_groups(fn) for an order-free fn,
    across string and int64 keys, including a key with one row."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from openie_backend_ray.ops.partition import (
        apply_per_key,
        partition_map_groups,
    )

    def fn(g: pa.Table) -> pa.Table:
        return pa.table(
            {"k": g["k"].slice(0, 1),
             "total": pa.array([pc.sum(g["v"]).as_py()], pa.int64()),
             "n": pa.array([g.num_rows], pa.int64())}
        )

    for keys in (["a", "b", "a", "c", "b", "a", "zz"],
                 [7, 7, 3, 9, 3, 3, 1]):
        t = pa.table({"k": keys, "v": list(range(len(keys)))})
        ds = rd.from_arrow(t).repartition(3)
        got = sorted(
            (r["k"], r["total"], r["n"])
            for r in partition_map_groups(ds, "k", fn).take_all()
        )
        want = sorted(
            (r["k"], r["total"], r["n"])
            for r in rd.from_arrow(t).groupby("k")
            .map_groups(fn, batch_format="pyarrow").take_all()
        )
        assert got == want and len(got) == len(set(keys))

    # local partition apply: every key run handed to fn whole
    t = pa.table({"k": ["x", "y", "x"], "v": [1, 2, 3],
                  "part": [0, 0, 0]})
    out = apply_per_key(t, "k", fn)
    assert sorted(zip(out["k"].to_pylist(), out["total"].to_pylist())) \
        == [("x", 4), ("y", 2)]


def test_span_dedup_first_occurrence_wins(ray_session):
    """C4-style span dedup: a 10-token window repeated across docs
    survives only at its global first (doc_id, span_idx); documents
    rebuild from surviving spans and fully-duplicated docs drop."""
    import ray.data as rd

    from openie_backend_ray.ops.dedup import span_dedup

    w1 = " ".join(f"a{i}" for i in range(10))   # shared window
    w2 = " ".join(f"b{i}" for i in range(10))
    w3 = " ".join(f"c{i}" for i in range(10))
    t = pa.table(
        {"doc_id": pa.array([1, 2, 3], pa.int64()),
         "text": pa.array([f"{w1} {w2}",   # doc1: both kept
                           f"{w3} {w1}",   # doc2: w1 is a repeat
                           w1])}           # doc3: all spans repeats
    )
    out = {r["doc_id"]: r for r in
           span_dedup(rd.from_arrow(t).repartition(2)).take_all()}
    assert set(out) == {1, 2}
    assert out[1]["text"] == f"{w1} {w2}"
    assert out[1]["n_spans"] == 2 and out[1]["n_kept"] == 2
    assert out[2]["text"] == w3
    assert out[2]["n_spans"] == 2 and out[2]["n_kept"] == 1
