"""openie_backend_ray — a Ray-Data-native knowledge-graph-construction engine.

A from-scratch reimplementation of the *capabilities* of
knowitall/openie-backend (triple extraction, extraction-group
dedup/normalization, crosswikis-prior entity linking, canonicalization,
graph materialization) expressed Ray-Data-first:

- every table is a ``ray.data.Dataset`` of Arrow blocks,
- per-record transforms are vectorized ``map_batches`` stages,
- stateful stages (extractor, linker) run in Ray tasks over state kept
  resident in each reused task worker (``util.resident``),
- the wide steps go through one hash exchange (``ops.partition.exchange``)
  keyed on the normalized (arg1, rel, arg2) triple with explicit skew
  caps/salting,
- output is partitioned Parquet with per-partition lineage for resume.

The reference (read-only, at /root/reference) defines WHAT is computed;
SURVEY.md in the repo root maps each reference operator to the module
implementing it here.
"""

__version__ = "0.1.0"
