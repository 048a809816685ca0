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
