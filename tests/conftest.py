"""Shared pytest fixtures. Ray is initialised ONCE per session."""

from __future__ import annotations

import os

import pytest

from openie_backend_ray.fixtures.reverb_tsv import GROUPS_FIXTURE, REVERB_FIXTURE

_MISSING_REFERENCE = [
    p for p in (REVERB_FIXTURE, GROUPS_FIXTURE) if not os.path.exists(p)
]

# For tests that check the engine against the reference's golden data
# (the TSVs themselves, or the corpus, chunker lexicon, linker side
# tables and KG views derived from them).  They run wherever the
# reference is present.
requires_reference = pytest.mark.skipif(
    bool(_MISSING_REFERENCE),
    reason="reference fixture missing: " + ", ".join(_MISSING_REFERENCE),
)


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def golden_groups():
    from openie_backend_ray.fixtures.reverb_tsv import read_groups

    return read_groups()


@pytest.fixture(scope="session")
def golden_extractions():
    from openie_backend_ray.fixtures.reverb_tsv import read_extractions

    return read_extractions()
