"""Operators over the flat ``documents`` table that sit beside the
KG-construction stages: the hash exchange every wide KG step goes
through (``partition``), winnowed-fingerprint delta dedup plus SimHash
(``dedup``; the incremental ingest path runs the delta dedup), and the
media side of the interleaved input (``multimodal``)."""
