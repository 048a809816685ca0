"""Property tests (hypothesis) for the winnowing invariants the SQL
oracle and the delta dedup rely on: ``winnow_fingerprints_batch``
matches a brute-force reference and honors the coverage guarantee.
Batch-level kernels only — no Ray session, so these stay fast and run
anywhere in the suite."""

from __future__ import annotations

import hashlib

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

_TOK = st.sampled_from(["aa", "bb", "cc", "dd", "ee", "ff"])
_DOC = st.lists(_TOK, min_size=1, max_size=24).map(" ".join)


def _batch(texts):
    return pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(list(texts), pa.string())}
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(_DOC, min_size=1, max_size=6))
def test_winnowing_matches_bruteforce(texts):
    from openie_backend_ray.ops.dedup import (
        WINNOW_K,
        WINNOW_W,
        winnow_fingerprints_batch,
    )

    out = winnow_fingerprints_batch(_batch(texts))
    got: dict[int, set] = {}
    for r in out.to_pylist():
        got.setdefault(r["doc_id"], set()).add(r["fp"])

    for did, text in enumerate(texts):
        toks = text.split()
        if len(toks) < WINNOW_K:
            hs = [hashlib.md5(" ".join(toks).encode()).hexdigest()]
        else:
            hs = [
                hashlib.md5(
                    " ".join(toks[i:i + WINNOW_K]).encode()
                ).hexdigest()
                for i in range(len(toks) - WINNOW_K + 1)
            ]
        if len(hs) <= WINNOW_W:
            want = {min(hs)}
        else:
            want = {
                min(hs[i:i + WINNOW_W])
                for i in range(len(hs) - WINNOW_W + 1)
            }
        assert got[did] == want
        # every fingerprint is one of the doc's gram hashes
        assert want <= set(hs)


@settings(max_examples=40, deadline=None)
@given(st.lists(_TOK, min_size=6, max_size=6),
       st.lists(_TOK, min_size=0, max_size=8),
       st.lists(_TOK, min_size=0, max_size=8))
def test_winnowing_coverage_guarantee(shared, pre, post):
    """Any two docs sharing a >= w+k-1 (=6) token run share a
    fingerprint, regardless of surrounding context."""
    from openie_backend_ray.ops.dedup import winnow_fingerprints_batch

    t = _batch([" ".join(shared),
                " ".join(pre + shared + post)])
    out = winnow_fingerprints_batch(t)
    fps: dict[int, set] = {0: set(), 1: set()}
    for r in out.to_pylist():
        fps[r["doc_id"]].add(r["fp"])
    assert fps[0] & fps[1]
