"""Curation ops: PII redaction precision cases, decontamination gram
math, stratified-sample allocation — plus the driver-style oracle
parity spot checks at sf0.001."""

from __future__ import annotations

import hashlib
from pathlib import Path

import duckdb
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"
REPO = str(Path(__file__).resolve().parents[1])


def _batch(ids, texts):
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array(texts, pa.string())})


# -- PII redaction ----------------------------------------------------------

def test_pii_redact_each_kind():
    from openie_backend_ray.ops.curation import pii_redact_batch

    out = pii_redact_batch(_batch(
        [1, 2, 3, 4],
        ["mail me at jane.doe+spam@sub.example.co.uk today",
         "ssn 123-45-6789 phone 555-867-5309",
         "server 192.168.0.1 and 10.0.255.254",
         "no pii here at all"],
    ))
    assert out["clean_text"].to_pylist() == [
        "mail me at <EMAIL> today",
        "ssn <SSN> phone <PHONE>",
        "server <IP> and <IP>",
        "no pii here at all",
    ]
    assert out["n_email"].to_pylist() == [1, 0, 0, 0]
    assert out["n_ssn"].to_pylist() == [0, 1, 0, 0]
    assert out["n_phone"].to_pylist() == [0, 1, 0, 0]
    assert out["n_ip"].to_pylist() == [0, 0, 2, 0]


def test_pii_redact_negatives_untouched():
    """Near-miss shapes must NOT be redacted: 2-digit ssn middle group
    on a phone, version-ish dotted numbers with too many groups, bare
    @ without a domain TLD."""
    from openie_backend_ray.ops.curation import pii_redact_batch

    texts = ["order 12-34-5678 ref 1234-567-8901",
             "version 1.2.3.4.5 is out",
             "tweet @handle now"]
    out = pii_redact_batch(_batch([1, 2, 3], texts))
    # Known false-positive of the C4-style pattern, pinned here so a
    # change is noticed: "1.2.3.4.5" DOES redact its leading "1.2.3.4"
    # (\b holds at the digit/dot boundary) — same behavior in DuckDB.
    assert out["clean_text"].to_pylist()[1] == "version <IP>.5 is out"
    assert out["clean_text"].to_pylist()[0] == texts[0]
    assert out["clean_text"].to_pylist()[2] == texts[2]
    assert sum(out["n_email"].to_pylist()) == 0
    assert sum(out["n_ssn"].to_pylist()) == 0
    assert sum(out["n_phone"].to_pylist()) == 0


def test_pii_redact_idempotent():
    """Replacement tokens contain no redactable shapes: a second pass
    finds zero matches and changes nothing."""
    from openie_backend_ray.ops.curation import pii_redact_batch

    once = pii_redact_batch(_batch(
        [1, 2],
        ["jane@ex.com 123-45-6789 555-867-5309 10.0.0.1",
         "plain text"],
    ))
    again = pii_redact_batch(pa.table(
        {"doc_id": once["doc_id"], "text": once["clean_text"]}
    ))
    assert again["clean_text"].to_pylist() == once["clean_text"].to_pylist()
    for kind in ("email", "ssn", "phone", "ip"):
        assert sum(again[f"n_{kind}"].to_pylist()) == 0


# -- decontamination --------------------------------------------------------

def test_decontaminate_gram_math(ray_session):
    import ray

    from openie_backend_ray.ops.curation import (
        Decontaminator, collect_eval_grams,
    )

    eval_ds = ray.data.from_arrow(
        _batch([100], ["a b c d e f"])  # 5-grams: "a b c d e", "b c d e f"
    )
    grams = collect_eval_grams(eval_ds, k=5)
    assert grams.to_pylist() == ["a b c d e", "b c d e f"]

    probe = Decontaminator(ray.put(grams), k=5, threshold=0.5)
    out = probe(_batch(
        [1, 2, 3],
        ["a b c d e x y z v w",   # 6 grams, 1 hit -> frac 1/6
         "a b c d e f",           # 2 grams, 2 hits -> contaminated
         "q r s t"],              # < 5 tokens -> no row
    ))
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    assert set(rows) == {1, 2}
    assert rows[1]["n_grams"] == 6 and rows[1]["n_contaminated"] == 1
    assert not rows[1]["contaminated"]
    assert rows[2]["n_grams"] == 2 and rows[2]["n_contaminated"] == 2
    assert rows[2]["contaminated"]


def test_decontaminate_distinct_grams():
    """Repeated grams count once: the frac is over DISTINCT grams."""
    import ray

    from openie_backend_ray.ops.curation import Decontaminator

    probe = Decontaminator(
        ray.put(pa.array(["a a a a a"], pa.string())), k=5, threshold=0.5
    )
    out = probe(_batch([7], ["a a a a a a a a"]))  # 4 occurrences, 1 distinct
    row = out.to_pylist()[0]
    assert row["n_grams"] == 1 and row["n_contaminated"] == 1


def test_dup_ngram_coverage_semantics(ray_session):
    import ray

    from openie_backend_ray.ops.curation import dup_ngram_coverage

    t = _batch(
        [1, 2, 3],
        ["a b c d e f",      # shares "a b c d e"/"b c d e f" with doc 2
         "a b c d e f",      # exact dup of doc 1
         "q r s t u v w"],   # unique
    )
    out = dup_ngram_coverage(
        ray.data.from_arrow(t).repartition(3), k=5
    ).to_pandas().set_index("doc_id")
    assert out.loc[1, "n_grams"] == 2 and out.loc[1, "dup_grams"] == 2
    assert out.loc[1, "dup_frac"] == 1.0
    assert out.loc[2, "dup_frac"] == 1.0
    assert out.loc[3, "n_grams"] == 3 and out.loc[3, "dup_grams"] == 0

    # repeats WITHIN one doc don't count as cross-doc duplication, but
    # every occurrence counts once its gram is shared
    t2 = _batch([7, 8], ["x y z w v x y z w v", "x y z w v"])
    out2 = dup_ngram_coverage(
        ray.data.from_arrow(t2), k=5
    ).to_pandas().set_index("doc_id")
    # doc 7: 6 occurrences; grams "x y z w v" (x2) shared with doc 8
    assert out2.loc[7, "n_grams"] == 6 and out2.loc[7, "dup_grams"] == 2
    assert out2.loc[8, "dup_frac"] == 1.0


# -- stratified sampling ----------------------------------------------------

def test_stratified_sample_allocation(ray_session):
    import ray

    from openie_backend_ray.ops.curation import stratified_sample

    n = 400
    t = pa.table(
        {"doc_id": pa.array(range(n), pa.int64()),
         "lang": pa.array(
             ["en"] * 300 + ["de"] * 95 + ["fr"] * 5, pa.string())}
    )
    out = stratified_sample(
        ray.data.from_arrow(t).repartition(7), by="lang", target=20
    ).to_pandas()
    counts = out.groupby("lang")["doc_id"].count().to_dict()
    # equal allocation, capped by bucket size
    assert counts == {"en": 20, "de": 20, "fr": 5}
    assert set(out["sample_rank"]) <= set(range(1, 21))

    # deterministic: the kept ids are the target smallest by md5(id)
    en_ids = sorted(
        (hashlib.md5(str(i).encode()).hexdigest(), i) for i in range(300)
    )[:20]
    got_en = sorted(out[out["lang"] == "en"]["doc_id"])
    assert got_en == sorted(i for _, i in en_ids)

    # the many-bucket (groupby) tail is result-identical
    out_b = stratified_sample(
        ray.data.from_arrow(t).repartition(7), by="lang", target=20,
        bucketed=True,
    ).to_pandas()
    key = ["lang", "doc_id", "sample_rank"]
    assert (out_b[key].sort_values(key).reset_index(drop=True)
            .equals(out[key].sort_values(key).reset_index(drop=True)))


def test_mixture_resample_flattens(ray_session):
    import ray

    from openie_backend_ray.ops.curation import mixture_resample

    n_big, n_small = 900, 100
    t = pa.table(
        {"doc_id": pa.array(range(n_big + n_small), pa.int64()),
         "source": pa.array(["web"] * n_big + ["book"] * n_small)}
    )
    out = mixture_resample(
        ray.data.from_arrow(t).repartition(5), by="source"
    ).to_pandas()
    counts = out.groupby("source")["doc_id"].count()
    # rarest source keeps everything (rate 1.0)
    assert counts["book"] == n_small
    assert set(out[out["source"] == "book"]["rate"]) == {1.0}
    # 9x bigger source keeps ~sqrt(1/9) = 1/3 (Bernoulli tolerance)
    import math
    assert math.isclose(
        out[out["source"] == "web"]["rate"].iloc[0], math.sqrt(1 / 9)
    )
    assert 0.22 * n_big < counts["web"] < 0.45 * n_big
    # deterministic: same input -> same kept set
    out2 = mixture_resample(
        ray.data.from_arrow(t).repartition(3), by="source"
    ).to_pandas()
    assert sorted(out2["doc_id"]) == sorted(out["doc_id"])


# -- sequence packing -------------------------------------------------------

def test_pack_sequences_prefix_sum(ray_session):
    import ray

    from openie_backend_ray.ops.curation import pack_sequences

    n = 100
    texts = ["tok " * ((i % 7) + 1) for i in range(n)]  # 1..7 tokens
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array([s.strip() for s in texts])})
    out = pack_sequences(
        ray.data.from_arrow(t).repartition(9), budget=10, bucket_range=8
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)

    # serial reference: exclusive running sum, chop at 10
    running = 0
    for i in range(n):
        nt = (i % 7) + 1
        assert out.loc[i, "n_tokens"] == nt
        assert out.loc[i, "seq_id"] == running // 10
        assert out.loc[i, "offset_in_seq"] == running % 10
        running += nt

    # partition-count invariance
    out2 = pack_sequences(
        ray.data.from_arrow(t).repartition(2), budget=10, bucket_range=8
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out.equals(out2)

    # bucket_range is an internal partitioning knob: any value yields
    # the identical packing
    for br in (1, 3, 1000):
        out3 = pack_sequences(
            ray.data.from_arrow(t).repartition(5), budget=10,
            bucket_range=br,
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert out.equals(out3), br


def test_source_mix_shares(ray_session):
    import ray

    from openie_backend_ray.ops.curation import source_mix

    t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                  "text": pa.array(["a b", "c", "d e f"]),
                  "source": pa.array(["web", "web", "book"])})
    out = source_mix(ray.data.from_arrow(t).repartition(3)).to_pandas()
    m = out.set_index("source")
    assert m.loc["web", "n_docs"] == 2 and m.loc["web", "n_tokens"] == 3
    assert m.loc["book", "n_tokens"] == 3
    assert abs(out["doc_share"].sum() - 1.0) < 1e-12
    assert abs(out["token_share"].sum() - 1.0) < 1e-12


# -- driver-style oracle parity --------------------------------------------

@pytest.mark.parametrize(
    "name", ["decontaminate", "pii_redact", "stratified_sample",
             "pack_sequences", "source_mix", "dup_ngram_coverage",
             "mixture_resample"]
)
def test_curation_oracle_parity(ray_session, name):
    import sys

    sys.path.insert(0, REPO)
    import __ray_entry__ as E

    got = E.queries()[name](SF).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.sql(E.oracle_sql()[name]).df()
    assert len(got) == len(want)
    assert sorted(got.columns) == sorted(want.columns)
    g = got[sorted(got.columns)].astype(str)
    w = want[sorted(want.columns)].astype(str)
    assert (sorted(map(tuple, g.itertuples(index=False, name=None)))
            == sorted(map(tuple, w.itertuples(index=False, name=None))))
