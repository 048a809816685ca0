"""Typer, attacher, post-group jobs (M10/M12/M13/G2/G5/G6/G7-G10) and
the incremental delta pipeline."""

from __future__ import annotations

import pyarrow as pa
import pytest

from openie_backend_ray import schema as S

from conftest import requires_reference


def _mk_inst(tokens, tags, a1, rel, a2, conf=0.95, corpus="cw"):
    n = len(tokens)
    return {
        "tokens": tokens,
        "postags": tags,
        "chunks": ["O"] * n,
        "arg1": {"start": a1[0], "end": a1[1]},
        "rel": {"start": rel[0], "end": rel[1]},
        "arg2": {"start": a2[0], "end": a2[1]},
        "source_url": "http://x",
        "corpus": corpus,
        "confidence": conf,
    }


def _mk_group(a1n, rn, a2n, insts, ent1=None, ent2=None,
              t1=None, t2=None):
    return {
        "arg1_norm": a1n, "rel_norm": rn, "arg2_norm": a2n,
        "arg1_entity": ent1, "arg2_entity": ent2,
        "arg1_types": t1 or [], "arg2_types": t2 or [],
        "instances": insts, "size": len(insts),
        "corpora": sorted({i["corpus"] for i in insts}),
    }


def _groups_table(rows):
    return pa.Table.from_pydict(
        {k: [r[k] for r in rows] for k in rows[0]}, schema=S.GROUPS
    )


def _ent(name, fbid, inlinks=100.0):
    return {"name": name, "fbid": fbid, "score": 1.0,
            "inlink_ratio": inlinks}


TOKS = ["Obama", "visited", "Paris", "today", "."]
TAGS = ["NNP", "VBD", "NNP", "NN", "."]


def test_extreme_filter_blacklists():
    from openie_backend_ray.stages.postgroup import extreme_filter_batch

    good = _mk_inst(TOKS, TAGS, (0, 1), (1, 2), (2, 3), conf=0.95)
    low = _mk_inst(TOKS, TAGS, (0, 1), (1, 2), (2, 3), conf=0.5)
    said = _mk_inst(["He", "said", "hi", "x", "."],
                    ["PRP", "VBD", "NN", "NN", "."],
                    (0, 1), (1, 2), (2, 3), conf=0.95)
    defnoun = _mk_inst(["the", "dog", "bit", "Tom", "."],
                       ["DT", "NN", "VBD", "NNP", "."],
                       (0, 2), (2, 3), (3, 4), conf=0.95)
    t = _groups_table([
        _mk_group("obama", "visit", "paris", [good, good]),
        _mk_group("obama", "visit", "paris", [good, low]),
        _mk_group("he", "say", "hi", [said, said]),
        _mk_group("dog", "bite", "tom", [defnoun, defnoun]),
    ])
    out = extreme_filter_batch(t)
    # only the all-good group survives (2nd loses the low-conf instance
    # -> size 1 -> dropped; 3rd rel blacklist; 4th definite noun)
    assert out.num_rows == 1
    assert out["arg1_norm"][0].as_py() == "obama"


def test_head_phrases_projection():
    from openie_backend_ray.stages.postgroup import head_phrases_batch

    inst = _mk_inst(["the", "red", "car", "hit", "Tom", "."],
                    ["DT", "JJ", "NN", "VBD", "NNP", "."],
                    (0, 3), (3, 4), (4, 5))
    out = head_phrases_batch(_groups_table(
        [_mk_group("red car", "hit", "tom", [inst])]
    ))
    assert out.num_rows == 2
    heads = dict(zip(out["arg_norm"].to_pylist(),
                     out["arg_head"].to_pylist()))
    # JJ "red" is a stripped modifier; DT dropped; unstemmed case kept
    assert heads["red car"] == "car"
    assert heads["tom"] == "Tom"


def test_answer_projections_six_blankings():
    from openie_backend_ray.stages.postgroup import answer_projections_batch

    inst = _mk_inst(TOKS, TAGS, (0, 1), (1, 2), (2, 3))
    out = answer_projections_batch(
        _groups_table([_mk_group("obama", "visit", "paris", [inst])])
    )
    assert out.num_rows == 6
    combos = set(out["blanked"].to_pylist())
    assert combos == {"arg1", "rel", "arg2", "arg1+rel", "arg1+arg2",
                      "rel+arg2"}
    a1 = out["arg1_norm"].to_pylist()
    assert a1.count("") == 3


def test_renormalize_fractures_mixed_group():
    from openie_backend_ray.stages.postgroup import renormalize_batch

    i1 = _mk_inst(TOKS, TAGS, (0, 1), (1, 2), (2, 3))
    i2 = _mk_inst(["Merkel", "visited", "Rome", "x", "."],
                  ["NNP", "VBD", "NNP", "NN", "."],
                  (0, 1), (1, 2), (2, 3))
    out = renormalize_batch(
        _groups_table([_mk_group("mixed", "visit", "mixed", [i1, i2])])
    )
    assert out.num_rows == 2
    assert set(out["arg1_norm"].to_pylist()) == {"obama", "merkel"}


def test_regroup_merges_and_prefers_linked(ray_session):
    import ray.data as rd

    from openie_backend_ray.stages.postgroup import regroup

    i1 = _mk_inst(TOKS, TAGS, (0, 1), (1, 2), (2, 3))
    g_linked = _mk_group("obama", "visit", "paris", [i1],
                         ent1=_ent("Barack Obama", "m.obama"))
    g_plain = _mk_group("obama", "visit", "paris", [
        _mk_inst(["Obama", "visited", "Paris", "Tuesday", "."],
                 ["NNP", "VBD", "NNP", "NNP", "."],
                 (0, 1), (1, 2), (2, 3))
    ])
    out = regroup(
        rd.from_arrow(_groups_table([g_linked, g_plain]))
    ).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["size"] == 2
    assert out.iloc[0]["arg1_entity"] is not None
    assert out.iloc[0]["arg1_entity"]["fbid"] == "m.obama"


def test_inlink_ratio(ray_session):
    import ray.data as rd

    from openie_backend_ray.stages.postgroup import inlink_ratio

    i1 = _mk_inst(TOKS, TAGS, (0, 1), (1, 2), (2, 3))
    rows = [
        _mk_group("obama", "visit", "paris", [i1],
                  ent1=_ent("Obama", "m.ob", inlinks=50.0)),
        _mk_group("obama", "like", "rome", [i1],
                  ent1=_ent("Obama", "m.ob", inlinks=50.0)),
        _mk_group("x", "y", "z", [i1]),
    ]
    out = inlink_ratio(
        rd.from_arrow(_groups_table(rows))
    ).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["n_groups"] == 2
    assert out.iloc[0]["ratio"] == pytest.approx(2 / 50.0)


def test_arg_pairs(ray_session):
    import ray.data as rd

    from openie_backend_ray.stages.postgroup import arg_pairs

    i1 = _mk_inst(TOKS, TAGS, (0, 1), (1, 2), (2, 3))
    rows = [
        _mk_group("a", "visit", "b", [i1]),
        _mk_group("c", "visit", "d", [i1]),
        _mk_group("e", "like", "f", [i1]),
    ]
    out = arg_pairs(rd.from_arrow(_groups_table(rows))).to_pandas()
    visit = out[out.rel_norm == "visit"]
    assert set(visit.arg_pair) == {"a+b", "c+d"}


def test_typer_predicts_shared_types(ray_session):
    import ray.data as rd

    from openie_backend_ray.stages.typer import (
        TyperSettings,
        attach_types,
        predict_arg_types,
    )

    i1 = _mk_inst(TOKS, TAGS, (0, 1), (1, 2), (2, 3))
    # 12 linked groups for rel "visited in": entities all share /location
    rows = []
    for k in range(12):
        rows.append(
            _mk_group(f"city{k:02d}", "visit in", "summer", [i1],
                      ent1=_ent(f"City {k}", f"m.c{k}"),
                      t1=["/location/location"])
        )
    # unlinked arg occurring with the same rel -> should get the type
    rows.append(_mk_group("springfield", "visit in", "summer", [i1]))
    ds = rd.from_arrow(_groups_table(rows))
    settings = TyperSettings(arg_field="arg1", min_share_score=10,
                             min_rel_weight=0.10)
    preds = predict_arg_types(ds, settings)
    pdf = preds.to_pandas()
    assert "springfield" in set(pdf.arg_norm)
    row = pdf[pdf.arg_norm == "springfield"].iloc[0]
    assert "/location/location" in list(row["types"])

    typed = attach_types(ds, preds, arg_field="arg1").to_pandas()
    spring = typed[typed.arg1_norm == "springfield"].iloc[0]
    assert "/location/location" in list(spring["arg1_types"])
    # already-typed args unchanged
    c0 = typed[typed.arg1_norm == "city00"].iloc[0]
    assert list(c0["arg1_types"]) == ["/location/location"]


def test_incremental_delta(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from openie_backend_ray.pipelines.incremental import (
        anti_join_new_docs,
        incremental_update,
    )

    docs = pa.table(
        {
            "doc_id": pa.array(["d1", "d2", "d3"], pa.string()),
            "spans": pa.array(
                [
                    [{"kind": "text", "text": "Obama visited Paris today .",
                      "media_ref": "", "offset": 0}],
                    [{"kind": "text", "text": "Merkel visited Rome today .",
                      "media_ref": "", "offset": 0}],
                    [{"kind": "text", "text": "Obama visited Paris today .",
                      "media_ref": "", "offset": 0}],
                ],
                pa.list_(S.SPAN),
            ),
        }
    )
    ingested = ray.put({"d1", "d2"})
    delta = anti_join_new_docs(rd.from_arrow(docs), ingested).to_pandas()
    assert list(delta.doc_id) == ["d3"]
    # an empty lineage keeps every row
    fresh = anti_join_new_docs(rd.from_arrow(docs), ray.put(set()))
    assert list(fresh.to_pandas().doc_id) == ["d1", "d2", "d3"]
    # a lazy multi-file read keeps exactly the new ids
    ids = [f"d{i}" for i in range(40)]
    for j in range(4):
        pq.write_table(pa.table({"doc_id": ids[10 * j: 10 * j + 10]}),
                       tmp_path / f"part{j}.parquet")
    seen = {"d1", "d2", "d17", "d39"}
    kept = anti_join_new_docs(rd.read_parquet(str(tmp_path)),
                              ray.put(seen)).to_pandas()
    assert sorted(kept.doc_id) == sorted(set(ids) - seen)

    i1 = _mk_inst(["Obama", "visited", "Paris", "today", "."],
                  ["NNP", "VBD", "NNP", "NN", "."],
                  (0, 1), (1, 2), (2, 4))
    existing = rd.from_arrow(_groups_table(
        [_mk_group("obama", "visit", "paris today", [i1])]
    ))
    merged, _, relink_keys = incremental_update(
        existing, rd.from_arrow(docs), ingested
    )
    assert relink_keys == []  # no side tables -> no relink pass
    out = merged.to_pandas()
    # d3's extraction merges into the existing group, d1/d2 skipped
    key = out[(out.arg1_norm == "obama")]
    assert len(key) >= 1


@requires_reference
def test_incremental_relink_sweet_spot(ray_session):
    """IndexModifier.scala:89-97: a second delta run relinks EXACTLY the
    merged groups the delta touched whose new size is in
    ``size > 1 and (size < 5 or size % 2 == 0)`` — untouched groups and
    touched-but-out-of-spot sizes keep their old links."""
    import ray
    import ray.data as rd

    from openie_backend_ray.fixtures.corpus import build_chunker_lexicon
    from openie_backend_ray.fixtures.side_tables import build_side_tables
    from openie_backend_ray.pipelines.incremental import (
        incremental_update,
        needs_relink,
    )

    # the pure heuristic
    assert [s for s in range(1, 9) if needs_relink(s)] == [2, 3, 4, 6, 8]

    sent = "Obama visited Paris today ."
    # layers exactly as the pipeline's model tagger will produce them,
    # so the delta extraction lands on the SAME index key
    from openie_backend_ray.functions.normalize import index_key
    from openie_backend_ray.stages.chunker import model_layers

    toks, tags, _ = model_layers(sent)
    a1n, rln, a2n = index_key(toks, tags, (0, 1), (1, 2), (2, 4))
    i1 = _mk_inst(toks, tags, (0, 1), (1, 2), (2, 4))
    # existing: one group the delta will touch (size 1 -> 2: in spot)
    # and one untouched group
    existing = rd.from_arrow(_groups_table([
        _mk_group(a1n, rln, a2n, [i1]),
        _mk_group("merkel", "visit", "rome", [
            _mk_inst(["Merkel", "visited", "Rome", "."],
                     ["NNP", "VBD", "NNP", "."], (0, 1), (1, 2), (2, 3))
        ]),
    ]))
    docs = pa.table(
        {
            "doc_id": pa.array(["n1"], pa.string()),
            "spans": pa.array(
                [[{"kind": "text", "text": sent,
                   "media_ref": "", "offset": 0}]],
                pa.list_(S.SPAN),
            ),
        }
    )
    merged, _, relink_keys = incremental_update(
        existing, rd.from_arrow(docs), ray.put(set()),
        lexicon_ref=ray.put(build_chunker_lexicon()),
        side_tables_ref=ray.put(build_side_tables()),
    )
    out = merged.to_pandas()
    # exactly the touched sweet-spot group is in the relink set
    assert any(k.startswith("obama__") for k in relink_keys)
    assert not any(k.startswith("merkel__") for k in relink_keys)
    ob = out[out.arg1_norm == "obama"]
    assert len(ob) == 1 and int(ob.iloc[0]["size"]) >= 2
