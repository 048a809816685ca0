"""Linker regression harness: the reference's LinkerTest before/after
link diff (``hadoop/.../entity/LinkerTest.scala``) as a pytest — the
golden fixture groups carry the reference linker's links (BEFORE); our
linker re-links the same groups from scratch (reuseLinks=false
semantics: entities stripped before the actor pool) and the diff
reports Before/After/New/Lost/Changed per arg with evidence, so linker
drift between rounds fails here instead of passing silently."""

from __future__ import annotations

import pytest

from conftest import requires_reference


@pytest.fixture(scope="module")
def diff(ray_session):
    import ray

    from openie_backend_ray.fixtures.conformance import link_diff_stats
    from openie_backend_ray.fixtures.corpus import build_groups_table
    from openie_backend_ray.fixtures.side_tables import build_side_tables
    from openie_backend_ray.pipelines.incremental import _groups_to_blobs
    from openie_backend_ray.stages.linker import link_groups

    before = build_groups_table()
    blobs = ray.data.from_arrow(_groups_to_blobs(before))
    after = link_groups(
        blobs, ray.put(build_side_tables())
    ).to_pandas()
    return link_diff_stats(
        before.to_pylist(), after.to_dict("records")
    )


@requires_reference
def test_link_diff_joins_every_group(diff):
    from openie_backend_ray.fixtures.conformance import clean_groups

    assert diff["total_groups"] == len(clean_groups())


@requires_reference
def test_link_recall_and_drift_bounds(diff):
    """Published regression gate (BASELINE.md): per-arg link recall
    (before-links kept, same or changed fbid counts as kept only if
    unchanged) >= 0.95; evidence lists printed on failure."""
    # fixture link populations: 78 arg1 / 338 arg2 before-links
    for arg, floor in (("arg1", 50), ("arg2", 300)):
        s = diff[arg]
        assert s["before"] > floor, f"{arg}: fixture links missing"
        kept = s["before"] - s["lost"] - s["changed"]
        recall = kept / s["before"]
        assert recall >= 0.95, (
            f"{arg} link recall {recall:.3f} < 0.95 — "
            f"lost={s['lost_evidence'][:5]} "
            f"changed={s['changed_evidence'][:5]}"
        )


def test_link_diff_stats_unit():
    """The diff counters themselves, on a hand-built before/after."""
    from openie_backend_ray.fixtures.conformance import link_diff_stats

    def row(a1, rl, a2, e1=None, e2=None):
        return {"arg1_norm": a1, "rel_norm": rl, "arg2_norm": a2,
                "arg1_entity": e1, "arg2_entity": e2}

    f = lambda fbid: {"name": fbid.upper(), "fbid": fbid}
    before = [
        row("a", "r", "b", e1=f("x")),            # kept
        row("c", "r", "d", e1=f("y")),            # changed -> z
        row("e", "r", "f", e1=f("w")),            # lost
        row("g", "r", "h"),                       # new link appears
        row("i", "r", "j"),                       # not in after: skipped
    ]
    after = [
        row("a", "r", "b", e1=f("x")),
        row("c", "r", "d", e1=f("z")),
        row("e", "r", "f"),
        row("g", "r", "h", e1=f("v")),
    ]
    s = link_diff_stats(before, after)
    assert s["total_groups"] == 4
    a1 = s["arg1"]
    assert (a1["before"], a1["after"]) == (3, 3)
    assert (a1["new"], a1["lost"], a1["changed"]) == (1, 1, 1)
    assert a1["new_evidence"] == [("g", "V")]
    assert a1["lost_evidence"] == [("e", "W")]
    assert a1["changed_evidence"] == [(("c", "Y"), ("c", "Z"))]
    assert s["arg2"] == {
        "before": 0, "after": 0, "new": 0, "lost": 0, "changed": 0,
        "new_evidence": [], "lost_evidence": [], "changed_evidence": [],
    }
