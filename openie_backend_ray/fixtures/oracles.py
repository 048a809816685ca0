"""DuckDB oracle SQL for the post-group KG operators.

Each query in ``__ray_entry__.queries()`` that runs over the golden
GROUPS fixture gets an independent SQL twin here, written against the
flat parquet views from ``fixtures.views`` (groups / instances /
tokens).  The SQL re-derives the operator logic — grouping keys,
frontend keys, head phrases, blacklist filters, instance-dedup
signatures, merge sizes, typer weights — from raw token/tag/span data;
the only Python-derived column it consumes is the per-token ``stem``
(unit-tested separately against the reference TaggedStemmer cases).

Cross-engine parity rules (see ``__ray_entry__`` module docstring):
md5 everywhere, raw IEEE divisions (never round()), integer-micro
weight sums in the typer, chr(30)-separated signature strings.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from openie_backend_ray.functions.normalize import (
    MODIFIER_TAGS_TO_STRIP,
    MODIFIERS_TO_KEEP,
    STRIPPED_DETERMINERS,
)
from openie_backend_ray.stages.postgroup import (
    ARG_BLACKLIST,
    EXTREME_CONF,
    REL_BLACKLIST,
)
from openie_backend_ray.stages.postprocess import PRONOUNS, _NEGATIVES
from openie_backend_ray.stages.typer import ARG_STOPLIST


def _in(items) -> str:
    """SQL IN-list literal."""
    return "(" + ",".join(
        "'" + s.replace("'", "''") + "'" for s in sorted(items)
    ) + ")"


_DETS = _in(STRIPPED_DETERMINERS)
_STRIPS = _in(MODIFIER_TAGS_TO_STRIP)
_KEEPS = _in(MODIFIERS_TO_KEEP)
_PRON = _in(PRONOUNS)
_RELBL = _in(REL_BLACKLIST)
_ARGBL = _in(ARG_BLACKLIST)
_TYPER_STOP = _in(ARG_STOPLIST)
_NEG = _in(_NEGATIVES)

# postprocess._CONTROL as an RE2 class (token/norm control-char clean)
_CTRL = (
    r"[\x00-\x1f\x7f-\x9f\x{00ad}\x{200b}-\x{200f}"
    r"\x{202a}-\x{202e}\x{2060}-\x{2064}\x{feff}\x{fff9}-\x{fffb}]"
)
_WS_SET = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"


def _clean_sql(col: str) -> str:
    """SQL twin of postprocess._clean_arg: strip -> drop
    non-(control/visible-ASCII/space) -> collapse whitespace -> drop one
    leading bad punct -> drop one leading article -> lower."""
    c1 = f"trim({col}, {_WS_SET})"
    c2 = (f"regexp_replace({c1}, "
          r"'[^\x00-\x1f\x21-\x7e ]+', '', 'g')")
    c3 = (f"trim(regexp_replace({c2}, '[\\s\\x0b]+', ' ', 'g'), "
          f"{_WS_SET})")
    c4 = (f"regexp_replace({c3}, "
          """'^\\s*(\\.|,|"|''|\\()\\s', '')""")
    c5 = (f"regexp_replace({c4}, "
          "'^\\s*(the|this|these|those|that|a|an)\\s*', '', 'i')")
    return f"lower({c5})"


_JUNK = "'[a-z0-9 ]+'"  # postprocess._NON_QUESTIONABLE
_ERRPAT = """'(http|\\(|\\)|"|\\[|thing)'"""  # _LIKELY_ERROR (contains)

# frontend keep rule (normalize._keep_for_frontend)
_FE_KEEP = (
    f"(lower(token) NOT IN {_DETS} AND NOT "
    f"(tag IN {_STRIPS} AND lower(token) NOT IN {_KEEPS}))"
)


def _views_cte(d: str) -> str:
    return f"""
vg AS (SELECT * FROM read_parquet('{d}/groups.parquet')),
vi AS (SELECT * FROM read_parquet('{d}/instances.parquet')),
vt AS (SELECT * FROM read_parquet('{d}/tokens.parquet')),
vm AS (SELECT * FROM read_parquet('{d}/media.parquet'))"""


# index grouping key parts per instance (normalize.index_key_part:
# drop determiner stop-tokens, join stems)
_IK_CTE = f"""
ik AS (
  SELECT gid, inst_idx,
    coalesce(string_agg(stem, ' ' ORDER BY pos)
      FILTER (WHERE in_arg1 AND lower(token) NOT IN {_DETS}), '') AS ik1,
    coalesce(string_agg(stem, ' ' ORDER BY pos)
      FILTER (WHERE in_rel AND lower(token) NOT IN {_DETS}), '') AS ikr,
    coalesce(string_agg(stem, ' ' ORDER BY pos)
      FILTER (WHERE in_arg2 AND lower(token) NOT IN {_DETS}), '') AS ik2
  FROM vt GROUP BY gid, inst_idx)"""

# frontend key parts of the HEAD instance (normalize.frontend_key_part)
_FK_CTE = f"""
fk AS (
  SELECT gid,
    coalesce(string_agg(stem, ' ' ORDER BY pos)
      FILTER (WHERE in_arg1 AND {_FE_KEEP}), '') AS fk1,
    coalesce(string_agg(stem, ' ' ORDER BY pos)
      FILTER (WHERE in_rel AND {_FE_KEEP}), '') AS fkr,
    coalesce(string_agg(stem, ' ' ORDER BY pos)
      FILTER (WHERE in_arg2 AND {_FE_KEEP}), '') AS fk2
  FROM vt WHERE inst_idx = 0 GROUP BY gid)"""

# instance dedup signature (canonicalize._merge_rows sig tuple,
# chr(30)-joined then md5 — identical string on the Python side)
_SIG_CTE = """
sig AS (
  SELECT gid, inst_idx,
    md5(sentence || chr(30) || corpus || chr(30) || a1s || chr(30)
        || rs || chr(30) || a2s) AS sig
  FROM vi),
hsig AS (SELECT gid, sig AS hsig FROM sig WHERE inst_idx = 0)"""


def kg_oracle_sql() -> dict[str, str]:
    """The KG oracles' SQL text over the views under ``views_dir()``.

    Builds text only: the view files are not written here.  Hand the
    result out through ``OracleSQL``, which writes them on the first
    read of a KG entry."""
    from openie_backend_ray.fixtures.views import views_dir

    d = views_dir()
    V = _views_cte(d)

    sql: dict[str, str] = {}

    # -- M10 extreme filter ------------------------------------------------
    sql["extreme_filter"] = f"""
        WITH {V},
        pass AS (
          SELECT i.gid, i.inst_idx
          FROM vi i
          WHERE i.confidence > {EXTREME_CONF}
            AND NOT ((i.re_ - i.rs) = 1 AND EXISTS (
                  SELECT 1 FROM vt t WHERE t.gid = i.gid
                    AND t.inst_idx = i.inst_idx AND t.in_rel
                    AND t.stem IN {_RELBL}))
            AND NOT EXISTS (
                  SELECT 1 FROM vt t WHERE t.gid = i.gid
                    AND t.inst_idx = i.inst_idx
                    AND (t.in_arg1 OR t.in_arg2)
                    AND (t.stem IN {_ARGBL}
                         OR (lower(t.token) IN {_PRON}
                             AND (t.tag LIKE 'PRP%' OR t.tag LIKE 'WP%'
                                  OR t.tag LIKE 'DT%'))))
            AND NOT EXISTS (
                  SELECT 1 FROM vt a JOIN vt b
                    ON b.gid = a.gid AND b.inst_idx = a.inst_idx
                   AND b.pos = a.pos + 1
                  WHERE a.gid = i.gid AND a.inst_idx = i.inst_idx
                    AND ((a.in_arg1 AND b.in_arg1)
                         OR (a.in_arg2 AND b.in_arg2))
                    AND a.tag = 'DT' AND b.tag IN ('NN', 'NNP'))
            AND NOT EXISTS (
                  SELECT 1 FROM vt t WHERE t.gid = i.gid
                    AND t.inst_idx = i.inst_idx AND t.in_rel
                    AND lower(t.token) IN {_PRON})),
        surv AS (SELECT gid, count(*) AS n FROM pass GROUP BY gid
                 HAVING count(*) >= 2)
        SELECT g.arg1_norm, g.rel_norm, g.arg2_norm,
               CAST(s.n AS INTEGER) AS size
        FROM vg g JOIN surv s USING (gid)
    """

    # -- M12 head phrases --------------------------------------------------
    sql["head_phrases"] = f"""
        WITH {V},
        heads AS (
          SELECT gid,
            coalesce(string_agg(token, ' ' ORDER BY pos)
              FILTER (WHERE in_arg1 AND {_FE_KEEP}), '') AS h1,
            coalesce(string_agg(token, ' ' ORDER BY pos)
              FILTER (WHERE in_arg2 AND {_FE_KEEP}), '') AS h2
          FROM vt WHERE inst_idx = 0 GROUP BY gid)
        SELECT g.arg1_norm AS arg_norm, h.h1 AS arg_head
        FROM vg g JOIN heads h USING (gid)
        UNION ALL
        SELECT g.arg2_norm, h.h2 FROM vg g JOIN heads h USING (gid)
    """

    # -- M13 answer projections -------------------------------------------
    sql["answer_projections"] = f"""
        WITH {V},
        combos(blanked) AS (VALUES ('arg1'), ('rel'), ('arg2'),
               ('arg1+rel'), ('arg1+arg2'), ('rel+arg2'))
        SELECT CASE WHEN blanked LIKE '%arg1%' THEN '' ELSE arg1_norm END
                 AS arg1_norm,
               CASE WHEN blanked LIKE '%rel%' THEN '' ELSE rel_norm END
                 AS rel_norm,
               CASE WHEN blanked LIKE '%arg2%' THEN '' ELSE arg2_norm END
                 AS arg2_norm,
               blanked,
               CAST(size AS INTEGER) AS size
        FROM vg CROSS JOIN combos
    """

    # -- G5 inlink ratio ---------------------------------------------------
    sql["inlink_ratio"] = f"""
        WITH {V}
        SELECT fbid1 AS fbid, min(name1) AS entity_name,
               count(*) AS n_groups,
               count(*) / (CASE WHEN min(inlinks1) IS NULL
                                  OR min(inlinks1) = 0
                                THEN 1.0 ELSE min(inlinks1) END) AS ratio
        FROM vg WHERE fbid1 IS NOT NULL GROUP BY fbid1
    """

    # -- G6 arg pairs ------------------------------------------------------
    sql["arg_pairs"] = f"""
        WITH {V}
        SELECT rel_norm, arg1_norm || '+' || arg2_norm AS arg_pair FROM vg
    """

    # -- G10 renormalize ---------------------------------------------------
    sql["renormalize"] = f"""
        WITH {V},{_IK_CTE},
        frag AS (
          SELECT i.gid,
                 k.ik1 || '__' || k.ikr || '__' || k.ik2 AS key,
                 count(*) AS n
          FROM vi i JOIN ik k ON k.gid = i.gid AND k.inst_idx = i.inst_idx
          GROUP BY i.gid, key)
        SELECT CASE WHEN len(string_split(f.key, '__')) = 3
                    THEN string_split(f.key, '__')[1]
                    ELSE g.arg1_norm END AS arg1_norm,
               CASE WHEN len(string_split(f.key, '__')) = 3
                    THEN string_split(f.key, '__')[2]
                    ELSE g.rel_norm END AS rel_norm,
               CASE WHEN len(string_split(f.key, '__')) = 3
                    THEN string_split(f.key, '__')[3]
                    ELSE g.arg2_norm END AS arg2_norm,
               CAST(f.n AS INTEGER) AS size
        FROM frag f JOIN vg g USING (gid)
    """

    # -- G2 regroup --------------------------------------------------------
    # merge picks the canonical-first member's norms (the Ray reducer
    # sorts members by (arg1, rel, arg2, head-sig) — mirrored here) and
    # sizes by distinct instance signatures, capped at 40k.
    sql["regroup"] = f"""
        WITH {V},{_IK_CTE},{_SIG_CTE},
        ik0 AS (
          SELECT gid, ik1 || '__' || ikr || '__' || ik2 AS rkey
          FROM ik WHERE inst_idx = 0),
        merged AS (
          SELECT k.rkey, count(DISTINCT s.sig) AS n
          FROM ik0 k JOIN sig s ON s.gid = k.gid GROUP BY k.rkey),
        rep AS (
          SELECT rkey, arg1_norm, rel_norm, arg2_norm FROM (
            SELECT k.rkey, g.arg1_norm, g.rel_norm, g.arg2_norm,
                   row_number() OVER (PARTITION BY k.rkey
                     ORDER BY g.arg1_norm, g.rel_norm, g.arg2_norm,
                              h.hsig) AS rn
            FROM ik0 k JOIN vg g USING (gid) JOIN hsig h USING (gid))
          WHERE rn = 1)
        SELECT r.arg1_norm, r.rel_norm, r.arg2_norm,
               CAST(least(m.n, 40000) AS INTEGER) AS size
        FROM rep r JOIN merged m USING (rkey)
    """

    # -- G4 canonicalize ---------------------------------------------------
    # pass 1: group by (fbid-or-frontend-part) entity key, merge; pass 2:
    # group by frontend key; <=1 linked -> single merge, else unlinked
    # merge into one row + each linked row kept separate; norms rewritten
    # from the frontend key when it splits into exactly 3 parts.
    _SPLIT_OK = "len(string_split(fkey, '__')) = 3"
    sql["canonicalize"] = f"""
        WITH {V},{_FK_CTE},{_SIG_CTE},
        ekt AS (
          SELECT g.gid,
                 coalesce(g.fbid1, f.fk1) || '__' || f.fkr || '__'
                   || coalesce(g.fbid2, f.fk2) AS ekey,
                 g.arg1_norm, g.rel_norm, g.arg2_norm,
                 (g.fbid1 IS NOT NULL OR g.fbid2 IS NOT NULL) AS glinked,
                 h.hsig, f.fk1, f.fkr, f.fk2
          FROM vg g JOIN fk f USING (gid) JOIN hsig h USING (gid)),
        p1rep AS (
          SELECT * FROM (
            SELECT e.*, row_number() OVER (PARTITION BY ekey
                     ORDER BY arg1_norm, rel_norm, arg2_norm, hsig) AS rn
            FROM ekt e) WHERE rn = 1),
        p1link AS (
          SELECT ekey, bool_or(glinked) AS linked FROM ekt GROUP BY ekey),
        p2 AS (
          SELECT l.ekey,
                 r.fk1 || '__' || r.fkr || '__' || r.fk2 AS fkey,
                 l.linked, r.arg1_norm AS ra1, r.rel_norm AS rrl,
                 r.arg2_norm AS ra2, r.hsig AS rhsig
          FROM p1link l JOIN p1rep r USING (ekey)),
        fcnt AS (
          SELECT fkey,
                 count(*) FILTER (WHERE linked) AS nlinked,
                 count(*) FILTER (WHERE NOT linked) AS nunl
          FROM p2 GROUP BY fkey),
        gsig AS (
          SELECT e.ekey, s.sig FROM ekt e JOIN sig s ON s.gid = e.gid),
        f2rep_all AS (
          SELECT fkey, ra1, rrl, ra2 FROM (
            SELECT p2.*, row_number() OVER (PARTITION BY fkey
                     ORDER BY ra1, rrl, ra2, rhsig) AS rn FROM p2)
          WHERE rn = 1),
        f2rep_unl AS (
          SELECT fkey, ra1, rrl, ra2 FROM (
            SELECT p2.*, row_number() OVER (PARTITION BY fkey
                     ORDER BY ra1, rrl, ra2, rhsig) AS rn FROM p2
            WHERE NOT linked) WHERE rn = 1),
        sz_all AS (
          SELECT p.fkey, count(DISTINCT g.sig) AS n
          FROM p2 p JOIN gsig g USING (ekey) GROUP BY p.fkey),
        sz_unl AS (
          SELECT p.fkey, count(DISTINCT g.sig) AS n
          FROM p2 p JOIN gsig g USING (ekey)
          WHERE NOT p.linked GROUP BY p.fkey),
        sz_one AS (
          SELECT p.ekey, count(DISTINCT g.sig) AS n
          FROM p2 p JOIN gsig g USING (ekey) GROUP BY p.ekey)
        SELECT CASE WHEN {_SPLIT_OK}
                    THEN string_split(fkey, '__')[1] ELSE r.ra1 END
                 AS arg1_norm,
               CASE WHEN {_SPLIT_OK}
                    THEN string_split(fkey, '__')[2] ELSE r.rrl END
                 AS rel_norm,
               CASE WHEN {_SPLIT_OK}
                    THEN string_split(fkey, '__')[3] ELSE r.ra2 END
                 AS arg2_norm,
               CAST(s.n AS INTEGER) AS size,
               (c.nlinked = 1) AS linked
        FROM fcnt c JOIN sz_all s USING (fkey)
             JOIN f2rep_all r USING (fkey)
        WHERE c.nlinked <= 1
        UNION ALL
        SELECT CASE WHEN {_SPLIT_OK}
                    THEN string_split(fkey, '__')[1] ELSE r.ra1 END,
               CASE WHEN {_SPLIT_OK}
                    THEN string_split(fkey, '__')[2] ELSE r.rrl END,
               CASE WHEN {_SPLIT_OK}
                    THEN string_split(fkey, '__')[3] ELSE r.ra2 END,
               CAST(s.n AS INTEGER),
               false
        FROM fcnt c JOIN sz_unl s USING (fkey)
             JOIN f2rep_unl r USING (fkey)
        WHERE c.nlinked >= 2 AND c.nunl > 0
        UNION ALL
        SELECT CASE WHEN {_SPLIT_OK}
                    THEN string_split(fkey, '__')[1] ELSE p.ra1 END,
               CASE WHEN {_SPLIT_OK}
                    THEN string_split(fkey, '__')[2] ELSE p.rrl END,
               CASE WHEN {_SPLIT_OK}
                    THEN string_split(fkey, '__')[3] ELSE p.ra2 END,
               CAST(s.n AS INTEGER),
               true
        FROM p2 p JOIN fcnt c USING (fkey) JOIN sz_one s USING (ekey)
        WHERE p.linked AND c.nlinked >= 2
    """

    # -- G7/G8 typer (fixture settings: arg1 side, min_share_score=2,
    # min_rel_weight=0.05; caps 5000/20000/1000 inactive at this scale) --
    sql["type_predictions"] = f"""
        WITH {V},
        rf AS (
          SELECT rel_norm, fbid1 AS fbid,
                 min(list_sort(list_distinct(arg1_types))) AS types
          FROM vg
          WHERE fbid1 IS NOT NULL AND len(arg1_types) > 0
          GROUP BY rel_norm, fbid1),
        samp AS (
          SELECT * FROM (
            SELECT rf.*, row_number() OVER (PARTITION BY rel_norm
                     ORDER BY md5(rel_norm || ':' || fbid)) AS rn
            FROM rf) WHERE rn <= 150),
        relsz AS (SELECT rel_norm, count(*) AS n FROM samp
                  GROUP BY rel_norm),
        hits AS (
          SELECT a.rel_norm,
                 count(*) FILTER
                   (WHERE len(list_intersect(a.types, b.types)) > 0) AS h
          FROM samp a JOIN samp b
            ON a.rel_norm = b.rel_norm AND a.fbid < b.fbid
          GROUP BY a.rel_norm),
        relinfo AS (
          SELECT z.rel_norm,
                 CASE WHEN z.n <= 1 THEN 0.0
                      ELSE coalesce(h.h, 0) / (z.n * (z.n - 1) / 2.0)
                 END AS weight
          FROM relsz z LEFT JOIN hits h USING (rel_norm)
          WHERE length(z.rel_norm) > 3 AND length(z.rel_norm) <= 100),
        rel_ok AS (SELECT * FROM relinfo WHERE weight >= 0.05),
        ra AS (
          SELECT DISTINCT rel_norm, arg1_norm AS arg_norm FROM vg
          WHERE length(arg1_norm) >= 4
            AND NOT regexp_matches(arg1_norm, '[0-9][0-9][0-9]+')
            AND len(list_filter(string_split(arg1_norm, ' '),
                                t -> t IN {_TYPER_STOP})) = 0),
        contrib AS (
          SELECT ra.arg_norm, s.fbid, s.types,
                 CAST(floor(power(10, 4 * r.weight) * 1000000) AS BIGINT)
                   AS wmic
          FROM ra JOIN rel_ok r USING (rel_norm)
               JOIN samp s USING (rel_norm)),
        entw AS (
          SELECT arg_norm, fbid, sum(wmic) AS w, min(types) AS types
          FROM contrib GROUP BY arg_norm, fbid),
        top AS (
          SELECT * FROM (
            SELECT entw.*, row_number() OVER (PARTITION BY arg_norm
                     ORDER BY w DESC, fbid) AS rn FROM entw)
          WHERE rn <= 15),
        tcnt AS (
          SELECT arg_norm, unnest(types) AS typ FROM top),
        tagg AS (
          SELECT arg_norm, typ, count(*) AS c FROM tcnt
          GROUP BY arg_norm, typ HAVING count(*) >= 2),
        preds AS (
          SELECT * FROM (
            SELECT tagg.*, row_number() OVER (PARTITION BY arg_norm
                     ORDER BY c DESC, typ) AS rn FROM tagg)
          WHERE rn <= 5)
        SELECT arg_norm, list(typ ORDER BY c DESC, typ) AS types
        FROM preds GROUP BY arg_norm
    """

    # -- G3 window-token sentence dedup (InstanceDeduplicator) --------
    # The scan is sequential but its SEEN-state is prefix-determined
    # (every scanned instance updates the sets whether kept or not), so
    # it reduces to first-appearance ranks:  a window pair "repeats" if
    # its (word, pos) first appeared at an earlier rank; an instance
    # contributes a new word if it owns a (side, word) first appearance.
    sql["dedup_groups"] = f"""
        WITH {V},
        ntok AS (SELECT gid, inst_idx, count(*) AS n
                 FROM vt GROUP BY gid, inst_idx),
        ordd AS (
          SELECT i.gid, i.inst_idx, i.a1s, i.a2e, t.n,
                 lower(i.sentence) AS sent_lc,
                 row_number() OVER (PARTITION BY i.gid ORDER BY
                   i.confidence + CASE WHEN i.corpus = 'wiki'
                                       THEN 0.1 ELSE 0 END DESC,
                   i.sentence, i.a1s, i.rs, i.a2s, i.a2e,
                   i.corpus, i.source_url) AS rk,
                 (i.a1s = 0 AND i.a2e >= t.n - 2) AS whole
          FROM vi i JOIN ntok t USING (gid, inst_idx)),
        wkeep AS (
          SELECT gid, inst_idx FROM (
            SELECT gid, inst_idx,
                   row_number() OVER (PARTITION BY gid, sent_lc
                                      ORDER BY rk) AS s_rk
            FROM ordd WHERE whole) WHERE s_rk = 1),
        wp AS (
          SELECT o.gid, o.inst_idx, o.rk, lower(t.token) AS w, t.pos,
                 CASE WHEN t.pos < o.a1s THEN 'b' ELSE 'a' END AS side
          FROM ordd o JOIN vt t
            ON t.gid = o.gid AND t.inst_idx = o.inst_idx
          WHERE NOT o.whole
            AND ((t.pos >= greatest(0, o.a1s - 3) AND t.pos < o.a1s)
                 OR (t.pos >= o.a2e + 1
                     AND t.pos < least(o.n, o.a2e + 1 + 3)))),
        fa AS (SELECT gid, w, pos, min(rk) AS first_rk
               FROM wp GROUP BY gid, w, pos),
        rep AS (
          SELECT c.gid, c.inst_idx,
                 count(*) FILTER (WHERE f.first_rk < c.rk) AS repeats
          FROM wp c JOIN fa f USING (gid, w, pos)
          GROUP BY c.gid, c.inst_idx),
        faw AS (SELECT gid, side, w, min(rk) AS first_rk
                FROM wp GROUP BY gid, side, w),
        neww AS (
          SELECT c.gid, c.inst_idx,
                 bool_or(fw.first_rk = c.rk) AS has_new
          FROM wp c JOIN faw fw
            ON fw.gid = c.gid AND fw.side = c.side AND fw.w = c.w
          GROUP BY c.gid, c.inst_idx),
        kept AS (
          SELECT gid, inst_idx FROM wkeep
          UNION ALL
          SELECT o.gid, o.inst_idx FROM ordd o
          LEFT JOIN rep r USING (gid, inst_idx)
          LEFT JOIN neww nw USING (gid, inst_idx)
          WHERE NOT o.whole AND coalesce(r.repeats, 0) < 3
            AND coalesce(nw.has_new, false)),
        surv AS (SELECT gid, count(*) AS n FROM kept GROUP BY gid),
        gsz AS (SELECT gid, count(*) AS total FROM vi GROUP BY gid)
        SELECT g.arg1_norm, g.rel_norm, g.arg2_norm,
               CAST(CASE WHEN z.total <= 1 THEN z.total
                         ELSE coalesce(s.n, 0) END AS INTEGER) AS size
        FROM vg g JOIN gsz z USING (gid) LEFT JOIN surv s USING (gid)
    """

    # -- M7/M8/M9 clean + aesthetic instance filter + group filter ----
    a1c, rlc, a2c = (_clean_sql(c) for c in ("a1t", "rlt", "a2t"))
    sql["filter_groups"] = f"""
        WITH {V},
        tc AS (
          SELECT gid, inst_idx, pos, in_arg1, in_rel, in_arg2,
                 regexp_replace(replace(token, chr(9), ' '),
                                '{_CTRL}', '', 'g') AS tok
          FROM vt),
        parts AS (
          SELECT gid, inst_idx,
            coalesce(string_agg(tok, ' ' ORDER BY pos)
              FILTER (WHERE in_arg1), '') AS a1t,
            coalesce(string_agg(tok, ' ' ORDER BY pos)
              FILTER (WHERE in_rel), '') AS rlt,
            coalesce(string_agg(tok, ' ' ORDER BY pos)
              FILTER (WHERE in_arg2), '') AS a2t,
            coalesce(bool_or((in_rel OR in_arg2)
                             AND lower(tok) IN {_NEG}), false) AS has_neg
          FROM tc GROUP BY gid, inst_idx),
        ev AS (
          SELECT p.*, i.confidence,
                 {a1c} AS a1c, {rlc} AS rlc, {a2c} AS a2c
          FROM parts p JOIN vi i USING (gid, inst_idx)),
        pass AS (
          SELECT gid, inst_idx FROM ev
          WHERE NOT has_neg
            AND length(a1t) + length(a2t) + length(rlt) <= 60
            AND a1c NOT IN {_PRON} AND a2c NOT IN {_PRON}
            AND confidence >= 0.5
            AND a1c != '' AND rlc != '' AND a2c != ''
            AND a1c != a2c
            AND length(regexp_replace(a1c || rlc || a2c,
                                      {_JUNK}, '', 'g')) < 5
            AND length(a1c)
                - length(regexp_replace(a1c, {_JUNK}, '', 'g')) > 1
            AND length(rlc)
                - length(regexp_replace(rlc, {_JUNK}, '', 'g')) > 1
            AND length(a2c)
                - length(regexp_replace(a2c, {_JUNK}, '', 'g')) > 1
            AND NOT regexp_matches(a1c, {_ERRPAT})
            AND NOT regexp_matches(a2c, {_ERRPAT})),
        surv AS (SELECT gid, count(*) AS n FROM pass GROUP BY gid
                 HAVING count(*) >= 2)
        SELECT g.arg1_norm, g.rel_norm, g.arg2_norm,
               CAST(s.n AS INTEGER) AS size
        FROM vg g JOIN surv s USING (gid)
        WHERE trim(regexp_replace(replace(g.arg1_norm, chr(9), ' '),
                                  '{_CTRL}', '', 'g'), {_WS_SET}) != ''
          AND trim(regexp_replace(replace(g.rel_norm, chr(9), ' '),
                                  '{_CTRL}', '', 'g'), {_WS_SET}) != ''
          AND trim(regexp_replace(replace(g.arg2_norm, chr(9), ' '),
                                  '{_CTRL}', '', 'g'), {_WS_SET}) != ''
    """

    # -- S5 serving fetch (full budgets -> Success with every group;
    # the stoplist strip touches entity columns, not the projection) --
    sql["fetch_groups"] = f"""
        WITH {V}
        SELECT arg1_norm, rel_norm, arg2_norm,
               CAST(size AS INTEGER) AS size
        FROM vg
    """

    # -- media frame sampling over the fixture corpus's video spans
    # (frame count = 8 + first sha256 byte % 9, every 2nd frame) ------
    byte0 = ("16 * (strpos('0123456789abcdef', substr(hx, 1, 1)) - 1)"
             " + strpos('0123456789abcdef', substr(hx, 2, 1)) - 1")
    sql["media_frames"] = f"""
        WITH {V},
        h AS (SELECT doc_id, span_idx, media_ref,
                     sha256(media_ref) AS hx
              FROM vm WHERE kind = 'video'),
        n AS (SELECT doc_id, span_idx, media_ref,
                     8 + ({byte0}) % 9 AS n_frames
              FROM h)
        SELECT doc_id, span_idx, media_ref,
               CAST(fi AS INTEGER) AS frame_idx,
               media_ref || '#f' || fi AS frame_ref
        FROM n, unnest(range(0, n_frames, 2)) AS t(fi)
    """

    # -- media features (FakeDecoder: payload = iterated-sha256 stream of
    # the media_ref; feature = first 16 bytes / 256.0 as float32) --------
    hexpos = "strpos('0123456789abcdef', substr(h, {p}, 1)) - 1"
    byte_expr = (
        "16 * (" + hexpos.format(p="i * 2 + 1") + ") + ("
        + hexpos.format(p="i * 2 + 2") + ")"
    )
    sql["media_features"] = f"""
        WITH m AS (
          SELECT CAST(doc_id AS VARCHAR) AS doc_id,
                 CAST(0 AS INTEGER) AS span_idx,
                 'image' AS kind,
                 'media://image/' || CAST(doc_id AS VARCHAR) AS media_ref
          FROM documents WHERE doc_id % 3 = 0),
        h AS (SELECT m.*, sha256(media_ref) AS h FROM m)
        SELECT doc_id, span_idx, kind, media_ref,
               CAST(256 AS BIGINT) AS n_bytes,
               list_transform(range(0, 16),
                 i -> CAST(({byte_expr}) / 256.0 AS FLOAT)) AS feature
        FROM h
    """

    # -- G1 grouper: keyed extractions -> groups (the extraction back
    # half, ScoobiReVerbGrouper.scala:63-130 + InstanceDeduplicator
    # set semantics).  Re-derives, per key: raw count (500k drop),
    # the conf-sorted instance dedup window over the signature
    # (sentence, corpus, spans) with the source_url tiebreak, the 40k
    # cap, the deterministic top instance, and the capped member
    # corpora.  Ray runs grouper.group_extractions over the SAME
    # extractions.parquet rows; the salted two-phase variant shares
    # this oracle, proving salted == unsalted == SQL. -----------------
    g1 = f"""
        WITH ext AS (
          SELECT * FROM read_parquet('{d}/extractions.parquet')),
        raw AS (SELECT key, count(*) AS raw_count FROM ext GROUP BY key),
        ded AS (
          SELECT *, row_number() OVER (
              PARTITION BY key, sentence, corpus,
                           a1s, a1e, rs, re_, a2s, a2e
              ORDER BY confidence DESC, source_url) AS sig_rn
          FROM ext),
        ordered AS (
          SELECT *, row_number() OVER (
              PARTITION BY key
              ORDER BY confidence DESC, sentence, a1s, rs, a2s,
                       a1e, re_, a2e, corpus, source_url) AS rn
          FROM ded WHERE sig_rn = 1),
        capped AS (SELECT * FROM ordered WHERE rn <= 40000),
        g AS (
          SELECT key,
                 min(arg1_norm) AS arg1_norm,
                 min(rel_norm) AS rel_norm,
                 min(arg2_norm) AS arg2_norm,
                 CAST(count(*) AS BIGINT) AS size,
                 array_to_string(list_sort(list(DISTINCT corpus)), ',')
                   AS corpora
          FROM capped GROUP BY key)
        SELECT g.key, g.arg1_norm, g.rel_norm, g.arg2_norm, g.size,
               CAST(r.raw_count AS BIGINT) AS raw_count,
               t.confidence AS top_conf,
               t.sentence AS top_sentence,
               t.source_url AS top_source_url,
               g.corpora
        FROM g
        JOIN raw r ON r.key = g.key
        JOIN capped t ON t.key = g.key AND t.rn = 1
        WHERE r.raw_count <= 500000
    """
    sql["group_extractions"] = g1
    sql["group_extractions_salted"] = g1

    return sql


class OracleSQL(Mapping[str, str]):
    """Read-only name -> oracle SQL map: ``sql`` plus the KG oracles.

    The KG views (``fixtures.views``) are derived from the reference's
    golden fixtures.  They are written on the first read of an entry
    whose SQL reads them, so the files exist before any such SQL
    reaches the caller, and the other oracles (``media_features``
    among them: it reads only ``documents``) never read the reference.
    Without the reference, reading a view-backed entry raises
    ``FileNotFoundError``."""

    def __init__(self, sql: dict[str, str]):
        from openie_backend_ray.fixtures.views import views_dir

        self._sql = {**sql, **kg_oracle_sql()}
        d = views_dir()
        self._reads_views = {k for k, v in self._sql.items() if d in v}

    def __getitem__(self, name: str) -> str:
        if name in self._reads_views:
            from openie_backend_ray.fixtures.views import ensure_views

            ensure_views()
        return self._sql[name]

    def __contains__(self, name: object) -> bool:
        # Mapping's default goes through __getitem__ and would write
        # the views for a membership test
        return name in self._sql

    def __iter__(self) -> Iterator[str]:
        return iter(self._sql)

    def __len__(self) -> int:
        return len(self._sql)
