"""Single-process baselines of the hot kernels on the run's sentences.

They give the single-threaded rate of the same job, so the traced run
can set each pipeline layer's rate against the bare kernel it wraps.
Each kernel is repeated until it has run for ``MIN_S`` seconds.
"""

from __future__ import annotations

import time

MIN_S = 0.3


def _rate(fn, units: int) -> float:
    """units/s of ``fn()``, repeated for at least MIN_S seconds."""
    n = 0
    t0 = time.perf_counter()
    while True:
        fn()
        n += 1
        dt = time.perf_counter() - t0
        if dt >= MIN_S:
            return units * n / dt


def run(sentences: list[str], prepared_tables: dict,
        anchors: list[str]) -> dict[str, float]:
    """``sentences``: distinct input sentences; ``anchors``: entity
    phrases to probe the linker with."""
    from openie_backend_ray.functions.reverb import extract
    from openie_backend_ray.stages.chunker import model_layers
    from openie_backend_ray.stages.extract_pipeline import (
        ExtractCombineActor,
    )
    from openie_backend_ray.stages.grouper import combine_rows
    from openie_backend_ray.stages.linker import LinkerActor

    actor = ExtractCombineActor()
    layers = [model_layers(s, actor._tagger, actor._chunker)
              for s in sentences]
    tokens = sum(len(t) for t, _, _ in layers)
    rows = [(ks, k, inst, 1) for s in sentences
            for ks, k, inst in actor._extract_text(s)]
    out = {
        "kernel.tagger_tokens_per_s": _rate(
            lambda: [model_layers(s, actor._tagger, actor._chunker)
                     for s in sentences], tokens),
        "kernel.reverb_sentences_per_s": _rate(
            lambda: [extract(*x) for x in layers], len(layers)),
        "kernel.extract_chain_sentences_per_s": _rate(
            lambda: [actor._extract_text(s) for s in sentences],
            len(sentences)),
        "kernel.combine_rows_per_s": _rate(
            lambda: combine_rows(rows), len(rows)),
    }

    def probe(linker):
        for a in anchors:
            linker.has_candidates(a)

    def cold():
        probe(LinkerActor(tables=prepared_tables))

    warm = LinkerActor(tables=prepared_tables)
    probe(warm)
    out["kernel.linker_probes_per_s_cold"] = _rate(cold, len(anchors))
    out["kernel.linker_probes_per_s_warm"] = _rate(
        lambda: probe(warm), len(anchors))
    return out
