"""Fixture SQL views: drift guard between the nested GROUPS fixture and
the exploded parquet views the DuckDB oracles read."""

from __future__ import annotations

import pyarrow.parquet as pq
import pytest

from conftest import requires_reference


@requires_reference
def test_views_match_fixture():
    from openie_backend_ray.fixtures.corpus import build_groups_table
    from openie_backend_ray.fixtures.views import build_views

    g = build_groups_table()
    v = build_views()
    assert v["groups"].num_rows == g.num_rows
    n_inst = sum(len(x) for x in g["instances"].to_pylist())
    assert v["instances"].num_rows == n_inst
    n_tok = sum(
        len(i["tokens"])
        for insts in g["instances"].to_pylist()
        for i in insts
    )
    assert v["tokens"].num_rows == n_tok
    # spans are consistent flags: every instance has exactly its span
    # widths marked
    t = v["tokens"]
    a1 = sum(1 for x in t["in_arg1"].to_pylist() if x)
    inst = v["instances"]
    a1_expected = sum(
        e - s for s, e in zip(inst["a1s"].to_pylist(),
                              inst["a1e"].to_pylist())
    )
    assert a1 == a1_expected


@requires_reference
def test_ensure_views_idempotent(tmp_path, monkeypatch):
    import openie_backend_ray.fixtures.views as V

    monkeypatch.setenv("GRAFT_FIXTURE_VIEWS", str(tmp_path))
    monkeypatch.setattr(V, "_ensured", None)
    d1 = V.ensure_views()
    t1 = pq.read_table(f"{d1}/groups.parquet")
    # second call: no rewrite, same contents
    monkeypatch.setattr(V, "_ensured", None)
    d2 = V.ensure_views()
    assert d1 == d2
    t2 = pq.read_table(f"{d2}/groups.parquet")
    assert t1.equals(t2)


def test_ensure_views_failed_build_leaves_no_directory(tmp_path,
                                                       monkeypatch):
    """A build that cannot read the GROUPS fixture raises and creates
    no views directory."""
    import functools

    import openie_backend_ray.fixtures.conformance as C
    import openie_backend_ray.fixtures.views as V
    from openie_backend_ray.fixtures.reverb_tsv import read_groups

    monkeypatch.setenv("GRAFT_FIXTURE_VIEWS", str(tmp_path))
    monkeypatch.setattr(V, "_ensured", None)
    monkeypatch.setattr(C, "read_groups", functools.partial(
        read_groups, str(tmp_path / "missing-groups.txt")))
    with pytest.raises(FileNotFoundError):
        V.ensure_views()
    assert list(tmp_path.iterdir()) == []


@requires_reference
def test_extractions_view_roundtrip_and_g1_parity():
    """The keyed-extractions view (a) reconstructs losslessly into the
    grouper's input schema and (b) its pure-Python G1 result matches
    the DuckDB re-derivation — the same twin the driver hash-checks
    via the group_extractions oracle entry."""
    import duckdb

    from openie_backend_ray.fixtures.views import (
        build_extractions,
        keyed_rows_from_view,
        project_blob_groups,
    )
    from openie_backend_ray.stages.grouper import (
        combine_batch,
        merge_blob_groups,
    )

    ext = build_extractions()
    assert ext.num_rows > 10_000  # replication made real duplicates

    keyed = keyed_rows_from_view(ext)
    # lossless layer round-trip
    assert [" ".join(t) for t in keyed["tokens"].to_pylist()[:50]] == \
        ext["sentence"].to_pylist()[:50]

    # driver-local G1: combine in two halves (forces partial merges),
    # then reduce per key
    import pyarrow as pa

    half = keyed.num_rows // 2
    partials = pa.concat_tables(
        [combine_batch(keyed.slice(0, half)),
         combine_batch(keyed.slice(half))]
    )
    merged = []
    for key_val in set(partials["key"].to_pylist()):
        mask = pa.compute.equal(partials["key"], key_val)
        merged.append(merge_blob_groups(partials.filter(mask)))
    flat = project_blob_groups(pa.concat_tables(merged)).to_pandas()

    con = duckdb.connect()
    con.register("ext_arrow", ext)
    odf = con.execute("""
        WITH raw AS (SELECT key, count(*) AS raw_count
                     FROM ext_arrow GROUP BY key),
        ded AS (
          SELECT *, row_number() OVER (
              PARTITION BY key, sentence, corpus,
                           a1s, a1e, rs, re_, a2s, a2e
              ORDER BY confidence DESC, source_url) AS sig_rn
          FROM ext_arrow),
        ordered AS (
          SELECT *, row_number() OVER (
              PARTITION BY key
              ORDER BY confidence DESC, sentence, a1s, rs, a2s,
                       a1e, re_, a2e, corpus, source_url) AS rn
          FROM ded WHERE sig_rn = 1)
        SELECT key, CAST(count(*) AS BIGINT) AS size,
               min(CASE WHEN rn = 1 THEN sentence END) AS top_sentence,
               min(CASE WHEN rn = 1 THEN source_url END) AS top_url
        FROM ordered WHERE rn <= 40000 GROUP BY key
    """).df()

    got = flat.set_index("key").sort_index()
    want = odf.set_index("key").sort_index()
    assert len(got) == len(want)
    assert (got["size"].to_numpy() == want["size"].to_numpy()).all()
    assert (got["top_sentence"].to_numpy()
            == want["top_sentence"].to_numpy()).all()
    assert (got["top_source_url"].to_numpy()
            == want["top_url"].to_numpy()).all()
    # dedup really fired: fewer kept instances than raw rows
    assert int(got["size"].sum()) < ext.num_rows
