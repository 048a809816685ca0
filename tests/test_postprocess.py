"""Unit tests for G3 dedup, M7 cleaning, M8/M9 filters, G4 merge logic,
and the resumable shard checkpointing."""

from __future__ import annotations

import os

from openie_backend_ray.stages.postprocess import (
    dedup_instances,
    instance_passes_filter,
    remove_ccs,
)
from openie_backend_ray.state import checkpoint

from conftest import requires_reference


def _inst(sentence: str, a1, r, a2, conf=0.9, corpus="cw"):
    toks = sentence.split(" ")
    return {
        "tokens": toks,
        "postags": ["NN"] * len(toks),
        "chunks": ["B-NP"] * len(toks),
        "arg1": {"start": a1[0], "end": a1[1]},
        "rel": {"start": r[0], "end": r[1]},
        "arg2": {"start": a2[0], "end": a2[1]},
        "source_url": "",
        "corpus": corpus,
        "confidence": conf,
    }


def test_remove_ccs():
    assert remove_ccs("a\tb") == "a b"
    assert remove_ccs("a\x01b​c") == "abc"


def test_dedup_identical_context_dropped():
    # same sentence shape: second contributes no new window tokens
    i1 = _inst("x y Bob founded Acme in 1990 q r", (2, 3), (3, 4), (4, 5))
    i2 = _inst("x y Bob founded Acme in 1990 q r", (2, 3), (3, 4), (4, 5), conf=0.8)
    out = dedup_instances([i1, i2])
    assert len(out) == 1
    assert out[0]["confidence"] == 0.9  # higher conf kept first


def test_dedup_new_context_kept():
    i1 = _inst("a b Bob founded Acme u v w", (2, 3), (3, 4), (4, 5))
    i2 = _inst("c d Bob founded Acme x y z", (2, 3), (3, 4), (4, 5), conf=0.8)
    out = dedup_instances([i1, i2])
    assert len(out) == 2


def test_dedup_whole_sentence_exact():
    i1 = _inst("Bob founded Acme .", (0, 1), (1, 2), (2, 3))
    i2 = _inst("Bob founded Acme .", (0, 1), (1, 2), (2, 3), conf=0.7)
    out = dedup_instances([i1, i2])
    assert len(out) == 1


def test_instance_filter():
    good = _inst("x Bob founded Acme Corp y", (1, 2), (2, 3), (3, 5))
    assert instance_passes_filter(good)
    # low confidence
    assert not instance_passes_filter(
        _inst("x Bob founded Acme Corp y", (1, 2), (2, 3), (3, 5), conf=0.3)
    )
    # negative in relation
    neg = _inst("x Bob never founded Acme y", (1, 2), (2, 4), (4, 5))
    assert not instance_passes_filter(neg)
    # pronoun arg
    pro = _inst("x he founded Acme Corp y", (1, 2), (2, 3), (3, 5))
    assert not instance_passes_filter(pro)
    # arg1 == arg2
    same = _inst("x Acme bought Acme y", (1, 2), (2, 3), (3, 4))
    assert not instance_passes_filter(same)


def test_checkpoint_resume(tmp_path):
    calls = []

    def compute(paths, out_dir):
        calls.append(paths)
        with open(os.path.join(out_dir, "data.txt"), "w") as f:
            f.write("ok")
        return {"rows": 1}

    inp = tmp_path / "in.txt"
    inp.write_text("input")
    shards = {"000": [str(inp)], "001": [str(inp)]}
    out_root = str(tmp_path / "out")
    r1 = checkpoint.run_sharded(shards, out_root, compute)
    assert len(calls) == 2
    assert all(m["complete"] and not m["skipped"] for m in r1)
    # rerun: both shards skip
    r2 = checkpoint.run_sharded(shards, out_root, compute)
    assert len(calls) == 2
    assert all(m["skipped"] for m in r2)
    # input change invalidates the fingerprint
    inp.write_text("changed input!")
    os.utime(inp, (0, 0))
    r3 = checkpoint.run_sharded(shards, out_root, compute)
    assert len(calls) == 4
    assert all(not m["skipped"] for m in r3)

def test_legacy_dedup_fragment_hash():
    """InstanceDeduplicator.oldDeduplicate port (:93-138): exact
    lowercased-sentence dedup, fragment-hash drop for sentences sharing
    a long punctuation-split fragment, and the reference's quirk that a
    DROPPED instance still registers its own new long fragments."""
    from openie_backend_ray.stages.postprocess import (
        dedup_instances_legacy,
    )

    def inst(sent, conf, url="u"):
        toks = sent.split(" ")
        return {
            "tokens": toks,
            "postags": ["NN"] * len(toks),
            "chunks": ["B-NP"] * len(toks),
            "arg1": {"start": 0, "end": 1},
            "rel": {"start": 1, "end": 2},
            "arg2": {"start": 2, "end": 3},
            "source_url": url, "corpus": "cw", "confidence": conf,
        }

    # extr_len = len("obama")+len("visit")+len("paris")+4 = 19
    a1, rl, a2 = "obama", "visit", "paris"

    # 1. exact duplicate sentence (case-insensitive) -> dropped
    insts = [inst("Obama visited Paris today", 0.9),
             inst("obama visited paris today", 0.8)]
    out = dedup_instances_legacy(insts, a1, rl, a2)
    assert len(out) == 1 and out[0]["confidence"] == 0.9

    # 2. shared long fragment across different sentences -> second drops
    shared = "obama visited paris on a rainy tuesday afternoon"  # 48 >= 19
    insts = [inst(shared + " , says one report", 0.9),
             inst(shared + " , claims another observer", 0.8)]
    out = dedup_instances_legacy(insts, a1, rl, a2)
    assert len(out) == 1 and out[0]["confidence"] == 0.9

    # 3. short shared fragments never enter the hash -> both kept
    insts = [inst("obama in paris , first visit", 0.9),
             inst("obama in paris , second visit", 0.8)]
    out = dedup_instances_legacy(insts, a1, rl, a2)
    assert len(out) == 2

    # 4. reference quirk: a dropped instance still adds ITS new long
    # fragments, so a later instance sharing only the dropped one's
    # fragment also drops
    frag_b = "a second long fragment that is certainly long enough"
    insts = [
        inst(shared + " , x unique tail one", 0.9),
        inst(shared + " / " + frag_b, 0.8),       # drops (shares `shared`)
        inst(frag_b + " , x unique tail two", 0.7),  # drops via frag_b
    ]
    out = dedup_instances_legacy(insts, a1, rl, a2)
    assert len(out) == 1 and out[0]["confidence"] == 0.9

    # 5. singleton group untouched
    one = [inst("whatever sentence", 0.5)]
    assert dedup_instances_legacy(one, a1, rl, a2) == one


@requires_reference
def test_legacy_dedup_batch_shapes():
    from openie_backend_ray.fixtures.corpus import build_groups_table
    from openie_backend_ray.stages.postprocess import (
        dedup_groups_legacy_batch,
    )

    g = build_groups_table()
    out = dedup_groups_legacy_batch(g)
    assert out.num_rows == g.num_rows  # groups survive; instances may shrink
    assert sum(out["size"].to_pylist()) <= sum(g["size"].to_pylist())
    assert all(s >= 1 for s in out["size"].to_pylist())
