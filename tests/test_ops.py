"""Content-dedup, sampling, span and multimodal ops: unit tests on
Arrow batches + oracle parity checks against DuckDB at sf0.001 (the
same comparison the driver runs), and the queries() registry contract."""

from __future__ import annotations

from pathlib import Path

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"
REPO = str(Path(__file__).resolve().parents[1])


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
    ["hash_sample", "simhash", "winnow_fingerprints", "delta_dedup",
     "explode_text_spans", "media_spans", "media_features"],
)
def test_oracle_parity_spot(ray_session, name):
    """Same comparison the driver runs: row count + sorted columns +
    order-insensitive values vs the DuckDB oracle at sf0.001, for every
    entry whose oracle runs without the reference."""
    import sys

    sys.path.insert(0, REPO)
    import __ray_entry__ as E

    got = E.queries()[name](SF).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{SF}/documents.parquet'")
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
    assert "hash_sample" in sqls and "extreme_filter" in sqls
    assert "no_such_query" not in sqls
    for name in ("hash_sample", "media_features", "winnow_fingerprints"):
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


def test_kg_entries_inside_driver_window():
    """The driver's correctness check caps at the FIRST 50 registered
    queries() entries; every KG-core operator (the reference's whole
    purpose) is registered, and the registry fits inside that window,
    so no entry goes unchecked.  Every other entry has a named reason,
    so an unused entry added, or a deleted one brought back, fails
    here."""
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
    named = [
        # the incremental path's near-duplicate check
        "winnow_fingerprints", "delta_dedup",
        # the reference's FileSampler
        "hash_sample",
        # the only exact check of the front-end's span explode
        "explode_text_spans",
        # the media side of the interleaved input, judged on its own
        "media_features", "media_frames", "media_spans",
        # the only exact check of simhash_batch
        "simhash",
    ]
    assert set(order) == set(kg) | set(named)
    assert len(order) <= 50


def test_every_oracle_has_a_query():
    """An oracle left behind by a deleted ``queries()`` entry checks
    nothing.  Keys only: no KG view is built."""
    import sys

    sys.path.insert(0, REPO)
    import __ray_entry__ as E

    assert set(E.oracle_sql()) <= set(E.queries())


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

