"""Arrow schemas for every logical table in the engine (SURVEY.md §1.4).

The reference moves rows between stages as tab-delimited UTF-8 lines with
code-defined column lists (``models/.../serialize/TabSerializer.scala:14``);
we move Arrow blocks through the Ray object store and checkpoint stages as
Parquet. Token layers are parallel ``list<string>`` columns, mirroring the
reference's own layered layout (``models/.../ReVerbExtraction.scala:137-147``,
serialization proxy ``:200-251``) rather than per-token structs.
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------------------
# input: interleaved text+media documents (BASELINE.json input_hint)
# ---------------------------------------------------------------------------

SPAN = pa.struct(
    [
        ("kind", pa.string()),       # "text" | "image" | "audio" | ...
        ("text", pa.string()),       # sentence text for kind == "text", else ""
        ("media_ref", pa.string()),  # opaque ref for media spans, else ""
        ("offset", pa.int32()),      # span position index within the document
    ]
)

DOCUMENTS = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(SPAN)),
    ]
)

# ---------------------------------------------------------------------------
# extractions: ReVerb output (ref ReVerbExtraction TSV, 7 cols,
# models/.../ReVerbExtraction.scala:137-147). Intervals are half-open.
# ---------------------------------------------------------------------------

INTERVAL = pa.struct([("start", pa.int32()), ("end", pa.int32())])

EXTRACTIONS = pa.schema(
    [
        ("doc_id", pa.string()),
        ("span_idx", pa.int32()),
        ("tokens", pa.list_(pa.string())),
        ("postags", pa.list_(pa.string())),
        ("chunks", pa.list_(pa.string())),
        ("arg1", INTERVAL),
        ("rel", INTERVAL),
        ("arg2", INTERVAL),
        ("source_url", pa.string()),
        ("corpus", pa.string()),
        ("confidence", pa.float64()),  # -1.0 == unscored
    ]
)

# keyed extraction rows (grouper map side, ScoobiReVerbGrouper.scala:40-61)
KEYED_EXTRACTIONS = pa.schema(
    list(EXTRACTIONS)
    + [
        ("arg1_norm", pa.string()),
        ("rel_norm", pa.string()),
        ("arg2_norm", pa.string()),
        ("key", pa.string()),  # "arg1Norm__relNorm__arg2Norm"
    ]
)

# ---------------------------------------------------------------------------
# groups ("REG"): grouped/linked output (ref ReVerbExtractionGroup.scala:17-25)
# ---------------------------------------------------------------------------

ENTITY = pa.struct(
    [
        ("name", pa.string()),
        ("fbid", pa.string()),
        ("score", pa.float64()),
        ("inlink_ratio", pa.float64()),
    ]
)

INSTANCE = pa.struct(
    [
        ("tokens", pa.list_(pa.string())),
        ("postags", pa.list_(pa.string())),
        ("chunks", pa.list_(pa.string())),
        ("arg1", INTERVAL),
        ("rel", INTERVAL),
        ("arg2", INTERVAL),
        ("source_url", pa.string()),
        ("corpus", pa.string()),
        ("confidence", pa.float64()),
    ]
)

GROUPS = pa.schema(
    [
        ("arg1_norm", pa.string()),
        ("rel_norm", pa.string()),
        ("arg2_norm", pa.string()),
        ("arg1_entity", ENTITY),  # null == unlinked
        ("arg2_entity", ENTITY),
        ("arg1_types", pa.list_(pa.string())),  # "/domain/typ"
        ("arg2_types", pa.list_(pa.string())),
        ("instances", pa.list_(INSTANCE)),
        ("size", pa.int32()),
        ("corpora", pa.list_(pa.string())),
    ]
)
