"""Averaged-perceptron POS tagger (SURVEY.md M1/A1 model fidelity).

The reference chunker runs an OpenNLP maxent POS model
(``hadoop/.../ScoobiSentenceChunker.scala:19``); the model binary is
not redistributable, so this is the standard public alternative: the
averaged structured perceptron with Honnibal's feature set (word,
pre/suffixes, previous two tags, +-2 context words — the design behind
nltk/textblob's ``PerceptronTagger``), trained on the repo's golden
tagged fixture sentences (public data from the reference's own test
resources) by ``scripts/train_pos_tagger.py`` and vendored as
``functions/data/pos_perceptron.npz``.

Inference is COMPILED to numpy: feature string -> row id, weights as
one (n_feats, n_classes) matrix; tagging a token = 14 dict lookups +
one row-sum + argmax (~5x the pure-dict implementation, measured).
Averaging rounds every weight to 3 decimals, so the matrix is held as
int16 milli-weights ``K`` with ``K / 1000.0`` bitwise equal to the
float64 weights: inference divides only the rows it gathers by 1000.0
before adding them, so every score is the float64 path's, at a quarter
of its memory (33.9 -> 8.5 MiB for both vendored models).  Training
compiles once at the end, and the vendored files hold the compiled
form itself (``save``/``load``: ``W``, the feature names in row order,
the classes, the tagdict), so a process loads a model without building
the training-time weight dicts: on a 4-CPU host, 0.08 s and 24 MiB of
peak RSS for both models (50 MiB with float64 weights), against 0.66 s
and 130 MiB through the dicts.  Deterministic end to end: seeded
training shuffle, first-in-sorted-class-order tie-break in BOTH the
dict and compiled paths, pure inference.
"""

from __future__ import annotations

import os
import random
from collections import defaultdict

import numpy as np

# weights are held as int16 K = 1000 * w (see ``_milli``)
_MILLI = 1000.0

_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
_WEIGHTS = os.path.join(_DATA, "pos_perceptron.npz")

_START = ["-START-", "-START2-"]
_END = ["-END-", "-END2-"]


def _normalize(word: str) -> str:
    if "-" in word and word[0] != "-":
        return "!HYPHEN"
    if word.isdigit():
        return "!YEAR" if len(word) == 4 else "!DIGITS"
    return word.lower()


def _feature_keys(i: int, word: str, context: list[str],
                  prev: str, prev2: str) -> list[str]:
    """Honnibal's feature templates as ready-joined key strings (all
    values are 1, so a list is the whole feature vector)."""
    i += 2  # len(_START)
    w = context[i]
    return [
        "bias",
        "i suffix " + word[-3:],
        # word[:1] not word[0]: whitespace runs in web text produce
        # empty-string tokens (text.split(" ")) and must not crash
        "i pref1 " + word[:1],
        "i-1 tag " + prev,
        "i-2 tag " + prev2,
        "i tag+i-2 tag " + prev + " " + prev2,
        "i word " + w,
        "i-1 tag+i word " + prev + " " + w,
        "i-1 word " + context[i - 1],
        "i-1 suffix " + context[i - 1][-3:],
        "i-2 word " + context[i - 2],
        "i+1 word " + context[i + 1],
        "i+1 suffix " + context[i + 1][-3:],
        "i+2 word " + context[i + 2],
    ]


class AveragedPerceptron:
    def __init__(self):
        # feature -> {tag -> weight}
        self.weights: dict[str, dict[str, float]] = {}
        self.classes: list[str] = []  # SORTED; tie-break = first max
        self._totals: dict[tuple[str, str], float] = defaultdict(float)
        self._tstamps: dict[tuple[str, str], int] = defaultdict(int)
        self.i = 0

    def predict(self, features: list[str]) -> str:
        scores: dict[str, float] = defaultdict(float)
        for feat in features:
            row = self.weights.get(feat)
            if row is None:
                continue
            for label, weight in row.items():
                scores[label] += weight
        # first maximal element of the sorted class list (matches the
        # compiled path's argmax-first semantics)
        return max(self.classes, key=scores.__getitem__)

    def update(self, truth: str, guess: str, features: list[str]):
        self.i += 1
        if truth == guess:
            return

        def upd(f, t, w, v):
            key = (f, t)
            self._totals[key] += (self.i - self._tstamps[key]) * w
            self._tstamps[key] = self.i
            self.weights[f][t] = w + v

        for f in features:
            weights = self.weights.setdefault(f, {})
            upd(f, truth, weights.get(truth, 0.0), 1.0)
            upd(f, guess, weights.get(guess, 0.0), -1.0)

    def average_weights(self):
        for feat, weights in self.weights.items():
            new = {}
            for tag, weight in weights.items():
                key = (feat, tag)
                total = self._totals[key]
                total += (self.i - self._tstamps[key]) * weight
                averaged = round(total / self.i, 3)
                if averaged:
                    new[tag] = averaged
            self.weights[feat] = new


def _pack_strings(xs) -> tuple[np.ndarray, np.ndarray]:
    """Strings -> (UTF-8 bytes of their concatenation, end offsets in
    characters): any string content survives, with no pickle on
    load."""
    joined = "".join(xs).encode("utf-8")
    return (np.frombuffer(joined, dtype=np.uint8),
            np.cumsum([len(x) for x in xs], dtype=np.int64))


def _unpack_strings(data: np.ndarray, ends: np.ndarray) -> list[str]:
    s = data.tobytes().decode("utf-8")
    ends = ends.tolist()
    return [s[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _milli(w: np.ndarray) -> np.ndarray:
    """float64 weights -> int16 milli-weights ``K`` with ``K / 1000.0``
    bitwise equal to ``w``. Raises ``ValueError`` on a weight that is
    not an exact 3-decimal value within int16 range: such a model has
    no exact int16 form."""
    k = np.rint(w * _MILLI)
    if (np.abs(k) > np.iinfo(np.int16).max).any() or not np.array_equal(
            k / _MILLI, w):
        raise ValueError("perceptron weights are not exact int16 "
                         "milli-weights (3 decimals, |w| <= 32.767)")
    return k.astype(np.int16)


def _row_sums(K: np.ndarray, ids: list[int], offs: list[int]) -> np.ndarray:
    """Per-position sums of the weight rows ``ids[offs[p]:offs[p+1]]``:
    one gather, each row divided by 1000.0, then one reduceat, so every
    sum equals the float64 weights' bit for bit."""
    return np.add.reduceat(K[np.asarray(ids, dtype=np.intp)] / _MILLI,
                           np.asarray(offs, dtype=np.intp), axis=0)


def _weights_dict(feat_id: dict[str, int], W: np.ndarray,
                  classes: list[str]) -> dict[str, dict[str, float]]:
    """Compiled form -> the training-time ``{feature: {class: w}}``
    dicts (averaging drops zero weights, so nonzeros are all of it)."""
    out = {}
    for feat, j in feat_id.items():
        row = W[j]
        out[feat] = {classes[c]: float(row[c]) for c in np.flatnonzero(row)}
    return out


class _CompiledPerceptron:
    """What the POS and chunk models share: the averaged perceptron
    they train, its compiled form (feature -> row id, the int16
    milli-weight matrix ``K``, the sorted classes), and the one on-disk
    format of that form, an ``.npz`` of plain arrays: the float64
    weights ``W = K / 1000.0`` as their nonzero (row, col, value)
    triplets plus their shape, and every string list as UTF-8 bytes
    with end offsets."""

    _PATH = ""
    _CACHE_CAP = 1_000_000

    def __init__(self):
        self.model = AveragedPerceptron()
        self._feat_id: dict[str, int] | None = None
        self._K: np.ndarray | None = None
        self._classes: list[str] = []

    @property
    def _W(self) -> np.ndarray | None:
        """The float64 weight matrix ``K / 1000.0``, built on each
        call (the dict form, tests); inference never builds it."""
        return None if self._K is None else self._K / _MILLI

    def _compile(self):
        """weights dict -> (feature -> row id, milli-weight matrix);
        ``ValueError`` when a weight is not an exact milli-value."""
        classes = list(self.model.classes)
        cid = {c: j for j, c in enumerate(classes)}
        feat_id = {}
        rows, cols, vals = [], [], []
        for feat, wrow in self.model.weights.items():
            j = feat_id[feat] = len(feat_id)
            for tag, w in wrow.items():
                rows.append(j)
                cols.append(cid[tag])
                vals.append(w)
        K = np.zeros((len(feat_id), len(classes)), dtype=np.int16)
        idx = (np.asarray(rows, dtype=np.intp),
               np.asarray(cols, dtype=np.intp))
        K[idx] = _milli(np.asarray(vals, dtype=np.float64))
        self._install(feat_id, K, classes)

    def _install(self, feat_id: dict[str, int], K: np.ndarray,
                 classes: list[str]):
        """Set the compiled form and empty the inference caches."""
        self._feat_id, self._K, self._classes = feat_id, K, classes
        self._zero = np.zeros(len(classes), dtype=np.float64)
        self._trans: dict[tuple[str, str], np.ndarray] = {}
        self._bias_id = self._ensure_bias_row()
        self._reset_caches()

    def _reset_caches(self):
        raise NotImplementedError

    def _ensure_bias_row(self) -> int:
        """Row id of the "bias" feature, guaranteed present: weight
        averaging drops zero-rounded rows, so a retrained model can
        lose its bias weights entirely — append a sentinel all-zero
        row in that case so the reduceat segments stay non-empty
        without changing any score."""
        j = self._feat_id.get("bias")
        if j is None:
            j = self._K.shape[0]
            self._feat_id["bias"] = j
            self._K = np.vstack(
                [self._K, np.zeros((1, len(self._classes)), np.int16)])
        return j

    # -- persistence -------------------------------------------------------

    def _extra_strings(self) -> dict[str, list[str]]:
        return {}

    def _set_extra_strings(self, lists: dict[str, list[str]]):
        pass

    def save(self, path: str | None = None):
        path = path or self._PATH
        K = self._K
        r, c = np.nonzero(K)
        lists = {"feat": sorted(self._feat_id, key=self._feat_id.get),
                 "classes": self._classes, **self._extra_strings()}
        arrays = {"W_shape": np.asarray(K.shape, dtype=np.int64),
                  "W_row": r.astype(np.int32), "W_col": c.astype(np.int32),
                  "W_val": K[r, c] / _MILLI}
        for name, xs in lists.items():
            arrays[name], arrays[name + "_end"] = _pack_strings(xs)
        with open(path, "wb") as f:
            np.savez_compressed(f, **arrays)

    @classmethod
    def load(cls, path: str | None = None):
        """The saved compiled form, or None when the file is absent.
        ``K`` is filled straight from the triplets, so no dense float64
        matrix is ever built."""
        path = path or cls._PATH
        if not os.path.exists(path):
            return None
        with np.load(path, allow_pickle=False) as z:
            K = np.zeros(tuple(z["W_shape"].tolist()), dtype=np.int16)
            K[z["W_row"], z["W_col"]] = _milli(z["W_val"])
            lists = {name: _unpack_strings(z[name], z[name + "_end"])
                     for name in z.files
                     if not name.startswith("W_")
                     and not name.endswith("_end")}
        t = cls()
        t.model.classes = lists.pop("classes")
        t._install({f: j for j, f in enumerate(lists.pop("feat"))}, K,
                   list(t.model.classes))
        t._set_extra_strings(lists)
        return t

    def _dict_weights(self) -> dict[str, dict[str, float]]:
        """The training-time dicts, rebuilt from the compiled form when
        a loaded model has none (the un-compiled fallback paths)."""
        if not self.model.weights and self._K is not None:
            self.model.weights = _weights_dict(self._feat_id, self._W,
                                               self._classes)
        return self.model.weights


class PerceptronTagger(_CompiledPerceptron):
    """Train/predict wrapper with the unambiguous-word shortcut
    (frequent single-tag words bypass the classifier) and a compiled
    numpy scorer for inference.  The compiled form's transition rows:
    the four tag-dependent features ("i-1 tag", "i-2 tag", their
    conjunction, "i-1 tag+i word") are split out so the per-sentence
    CONTEXT features can be summed in ONE ``np.add.reduceat`` call and
    the sequential loop only adds a cached (prev, prev2) transition
    vector per token.  argmax with numpy's first-max tie-break ==
    first maximal class in sorted order."""

    _PATH = _WEIGHTS

    def __init__(self):
        super().__init__()
        self.tagdict: dict[str, str] = {}

    # -- inference ---------------------------------------------------------

    def _reset_caches(self):
        # per-word ROLE id caches: word -> pre-resolved feature row ids
        # for each window slot, so the hot loop never builds strings
        self._raw_ids: dict[str, tuple[int, ...]] = {}
        self._win_ids: dict[str, tuple[int, ...]] = {}

    def _trans_row(self, prev: str, prev2: str) -> np.ndarray:
        """Cached sum of the tag-only feature rows for a (prev, prev2)
        state — at most |tags|^2 entries ever exist."""
        row = self._trans.get((prev, prev2))
        if row is None:
            fid = self._feat_id
            K = self._K
            row = self._zero
            for k in ("i-1 tag " + prev,
                      "i-2 tag " + prev2,
                      "i tag+i-2 tag " + prev + " " + prev2):
                j = fid.get(k)
                if j is not None:
                    row = row + K[j] / _MILLI
            self._trans[(prev, prev2)] = row
        return row

    def _raw(self, word: str) -> tuple[int, ...]:
        """suffix/prefix feature ids of the RAW center word."""
        t = self._raw_ids.get(word)
        if t is None:
            fget = self._feat_id.get
            t = tuple(
                j
                for j in (fget("i suffix " + word[-3:]),
                          fget("i pref1 " + word[:1]))  # ""-token safe
                if j is not None
            )
            if len(self._raw_ids) >= self._CACHE_CAP:
                self._raw_ids.clear()
            self._raw_ids[word] = t
        return t

    def _win(self, v: str) -> tuple[int, ...]:
        """All window-slot feature ids of a NORMALIZED word, packed as
        (n_center, n_m1, n_m2, n_p1, ids...) — slot counts first, then
        the ids slot by slot."""
        t = self._win_ids.get(v)
        if t is None:
            fget = self._feat_id.get
            slots = (
                (fget("i word " + v),),
                (fget("i-1 word " + v), fget("i-1 suffix " + v[-3:])),
                (fget("i-2 word " + v),),
                (fget("i+1 word " + v), fget("i+1 suffix " + v[-3:])),
                (fget("i+2 word " + v),),
            )
            packed = tuple(
                tuple(j for j in slot if j is not None) for slot in slots
            )
            if len(self._win_ids) >= self._CACHE_CAP:
                self._win_ids.clear()
            self._win_ids[v] = packed
            t = packed
        return t

    def _context_ids(self, tokens: list[str],
                     context: list[str]) -> tuple[list[int], list[int]]:
        """Context-feature row ids of every position the tagdict does
        not settle, and each position's offset into them: the input
        of ``tag``'s one ``_row_sums``."""
        get_tag = self.tagdict.get
        win = self._win
        # pre-resolve window ids once per sentence position
        wins = [win(v) for v in context]
        ids: list[int] = []
        offs: list[int] = []
        bias = self._bias_id
        for i, w in enumerate(tokens):
            if get_tag(w) is not None:
                continue
            offs.append(len(ids))
            # "bias" is always a trained feature, so every segment
            # is non-empty and reduceat offsets stay strict
            ids.append(bias)
            ids.extend(self._raw(w))
            ids.extend(wins[i + 2][0])  # i word
            ids.extend(wins[i + 1][1])  # i-1 word/suffix
            ids.extend(wins[i][2])      # i-2 word
            ids.extend(wins[i + 3][3])  # i+1 word/suffix
            ids.extend(wins[i + 4][4])  # i+2 word
        return ids, offs

    def tag(self, tokens: list[str]) -> list[str]:
        if not tokens:
            return []
        if self._K is None:  # un-compiled (mid-training) fallback
            return self._tag_dictpath(tokens)
        context = _START + [_normalize(w) for w in tokens] + _END
        fget = self._feat_id.get
        K = self._K
        get_tag = self.tagdict.get
        ids, offs = self._context_ids(tokens, context)
        if offs:
            ctx_scores = _row_sums(K, ids, offs)
        prev, prev2 = _START
        out = []
        classes = self._classes
        k = 0
        for i, word in enumerate(tokens):
            tag = get_tag(word)
            if tag is None:
                score = ctx_scores[k] + self._trans_row(prev, prev2)
                k += 1
                j = fget("i-1 tag+i word " + prev + " " + context[i + 2])
                if j is not None:
                    score = score + K[j] / _MILLI
                tag = classes[int(score.argmax())]
            out.append(tag)
            prev2 = prev
            prev = tag
        return out

    def _tag_dictpath(self, tokens: list[str]) -> list[str]:
        self._dict_weights()
        prev, prev2 = _START
        out = []
        context = _START + [_normalize(w) for w in tokens] + _END
        for i, word in enumerate(tokens):
            tag = self.tagdict.get(word)
            if tag is None:
                tag = self.model.predict(
                    _feature_keys(i, word, context, prev, prev2)
                )
            out.append(tag)
            prev2 = prev
            prev = tag
        return out

    # -- training ----------------------------------------------------------

    def train(self, sentences: list[tuple[list[str], list[str]]],
              n_iter: int = 8, seed: int = 7):
        self._make_tagdict(sentences)
        self.model.classes = sorted(
            {t for _, tags in sentences for t in tags}
        )
        rng = random.Random(seed)
        order = list(range(len(sentences)))
        for _ in range(n_iter):
            rng.shuffle(order)
            for si in order:
                tokens, tags = sentences[si]
                prev, prev2 = _START
                context = (
                    _START + [_normalize(w) for w in tokens] + _END
                )
                for i, word in enumerate(tokens):
                    guess = self.tagdict.get(word)
                    if guess is None:
                        feats = _feature_keys(
                            i, word, context, prev, prev2
                        )
                        guess = self.model.predict(feats)
                        self.model.update(tags[i], guess, feats)
                    prev2 = prev
                    prev = guess
        self.model.average_weights()
        self._compile()

    def _make_tagdict(self, sentences, freq_thresh: int = 5,
                      ambiguity_thresh: float = 0.99):
        counts: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        for tokens, tags in sentences:
            for w, t in zip(tokens, tags):
                counts[w][t] += 1
        for word, tag_freqs in counts.items():
            tag, mode = max(tag_freqs.items(), key=lambda kv: (kv[1], kv[0]))
            n = sum(tag_freqs.values())
            if n >= freq_thresh and mode / n >= ambiguity_thresh:
                self.tagdict[word] = tag

    # -- persistence -------------------------------------------------------

    def _extra_strings(self) -> dict[str, list[str]]:
        return {"tagdict_words": list(self.tagdict),
                "tagdict_tags": list(self.tagdict.values())}

    def _set_extra_strings(self, lists: dict[str, list[str]]):
        self.tagdict = dict(zip(lists["tagdict_words"],
                                lists["tagdict_tags"]))


# ---------------------------------------------------------------------------
# chunker: averaged perceptron over (word, POS) -> IOB chunk tags
# ---------------------------------------------------------------------------

_CHUNK_WEIGHTS = os.path.join(_DATA, "chunk_perceptron.npz")


def _chunk_feature_keys(i: int, words: list[str], poss: list[str],
                        prev: str, prev2: str) -> list[str]:
    """CoNLL-2000-baseline chunking templates: word/POS windows, POS
    n-grams, previous chunk tags."""
    i += 2
    return [
        "bias",
        "w " + words[i],
        "w-1 " + words[i - 1],
        "w+1 " + words[i + 1],
        "p " + poss[i],
        "p-1 " + poss[i - 1],
        "p-2 " + poss[i - 2],
        "p+1 " + poss[i + 1],
        "p+2 " + poss[i + 2],
        "p-1+p " + poss[i - 1] + " " + poss[i],
        "p+p+1 " + poss[i] + " " + poss[i + 1],
        "p-1+p+p+1 " + poss[i - 1] + " " + poss[i] + " " + poss[i + 1],
        "t-1 " + prev,
        "t-2 " + prev2,
        "t-1+p " + prev + " " + poss[i],
        "w+p " + words[i] + " " + poss[i],
    ]


class ChunkPerceptron(_CompiledPerceptron):
    """IOB chunk tagger with the same averaged-perceptron machinery and
    compiled numpy inference as ``PerceptronTagger``: context features
    (word/POS windows) sum in one reduceat call per sentence; the
    sequential loop adds a cached (t-1, t-2) transition row plus the
    t-1+POS conjunction lookup."""

    _PATH = _CHUNK_WEIGHTS

    def _reset_caches(self):
        # role caches (cf. PerceptronTagger): word-slot ids, POS-combo
        # ids keyed by the (p-1, p, p+1) tuple, w+p conjunction ids
        self._wslot: dict[str, tuple] = {}
        self._pcombo: dict[tuple[str, str, str], tuple[int, ...]] = {}
        self._wp: dict[tuple[str, str], int | None] = {}

    def _trans_row(self, prev: str, prev2: str) -> np.ndarray:
        row = self._trans.get((prev, prev2))
        if row is None:
            fid = self._feat_id
            K = self._K
            row = self._zero
            for k in ("t-1 " + prev, "t-2 " + prev2):
                j = fid.get(k)
                if j is not None:
                    row = row + K[j] / _MILLI
            self._trans[(prev, prev2)] = row
        return row

    def _wids(self, v: str) -> tuple:
        t = self._wslot.get(v)
        if t is None:
            fget = self._feat_id.get
            t = tuple(
                tuple(j for j in slot if j is not None)
                for slot in ((fget("w " + v),),
                             (fget("w-1 " + v),),
                             (fget("w+1 " + v),))
            )
            if len(self._wslot) >= self._CACHE_CAP:
                self._wslot.clear()
            self._wslot[v] = t
        return t

    def _pids(self, pm1: str, p: str, pp1: str) -> tuple[int, ...]:
        key = (pm1, p, pp1)
        t = self._pcombo.get(key)
        if t is None:
            fget = self._feat_id.get
            t = tuple(
                j
                for j in (fget("p " + p),
                          fget("p-1 " + pm1),
                          fget("p+1 " + pp1),
                          fget("p-1+p " + pm1 + " " + p),
                          fget("p+p+1 " + p + " " + pp1),
                          fget("p-1+p+p+1 " + pm1 + " " + p + " " + pp1))
                if j is not None
            )
            self._pcombo[key] = t
        return t

    def _context_ids(self, words: list[str],
                     poss: list[str]) -> tuple[list[int], list[int]]:
        """Context-feature row ids of every position (``words`` and
        ``poss`` padded with ``_START``/``_END``), and each position's
        offset into them: the input of ``tag``'s one ``_row_sums``."""
        fget = self._feat_id.get
        wids = self._wids
        pids = self._pids
        wp = self._wp
        ids: list[int] = []
        offs: list[int] = []
        bias = self._bias_id
        wslots = [wids(v) for v in words]
        for i in range(len(words) - 4):
            offs.append(len(ids))
            j = i + 2
            # "bias" is always trained -> non-empty reduceat segments
            ids.append(bias)
            ids.extend(wslots[j][0])      # w
            ids.extend(wslots[j - 1][1])  # w-1
            ids.extend(wslots[j + 1][2])  # w+1
            ids.extend(pids(poss[j - 1], poss[j], poss[j + 1]))
            for k in ("p-2 " + poss[j - 2], "p+2 " + poss[j + 2]):
                fj = fget(k)
                if fj is not None:
                    ids.append(fj)
            wpk = (words[j], poss[j])
            fj = wp.get(wpk, False)
            if fj is False:
                fj = fget("w+p " + words[j] + " " + poss[j])
                if len(wp) >= self._CACHE_CAP:
                    wp.clear()
                wp[wpk] = fj
            if fj is not None:
                ids.append(fj)
        return ids, offs

    def tag(self, tokens: list[str], postags: list[str]) -> list[str]:
        if not tokens:
            return []
        words = _START + [_normalize(w) for w in tokens] + _END
        poss = _START + list(postags) + _END
        K = self._K
        if K is None:  # un-compiled (mid-training) fallback
            prev, prev2 = _START
            out = []
            for i in range(len(tokens)):
                tag = self.model.predict(
                    _chunk_feature_keys(i, words, poss, prev, prev2)
                )
                out.append(tag)
                prev2 = prev
                prev = tag
            return out
        fget = self._feat_id.get
        ctx_scores = _row_sums(K, *self._context_ids(words, poss))
        prev, prev2 = _START
        out = []
        classes = self._classes
        for i in range(len(tokens)):
            score = ctx_scores[i] + self._trans_row(prev, prev2)
            j = fget("t-1+p " + prev + " " + poss[i + 2])
            if j is not None:
                score = score + K[j] / _MILLI
            tag = classes[int(score.argmax())]
            out.append(tag)
            prev2 = prev
            prev = tag
        return out

    def train(
        self,
        sentences: list[tuple[list[str], list[str], list[str]]],
        n_iter: int = 8,
        seed: int = 11,
    ):
        """sentences: (tokens, gold_postags, gold_chunks)."""
        self.model.classes = sorted(
            {c for _, _, chks in sentences for c in chks}
        )
        rng = random.Random(seed)
        order = list(range(len(sentences)))
        for _ in range(n_iter):
            rng.shuffle(order)
            for si in order:
                tokens, postags, chunks = sentences[si]
                prev, prev2 = _START
                words = _START + [_normalize(w) for w in tokens] + _END
                poss = _START + list(postags) + _END
                for i in range(len(tokens)):
                    feats = _chunk_feature_keys(i, words, poss, prev, prev2)
                    guess = self.model.predict(feats)
                    self.model.update(chunks[i], guess, feats)
                    prev2 = prev
                    prev = guess
        self.model.average_weights()
        self._compile()


_CACHED: PerceptronTagger | None = None
_CACHED_TRIED = False


def default_tagger() -> PerceptronTagger | None:
    """The vendored fixture-trained tagger, loaded once per process
    (actor ``__init__`` callers hold their own reference)."""
    global _CACHED, _CACHED_TRIED
    if not _CACHED_TRIED:
        _CACHED = PerceptronTagger.load()
        _CACHED_TRIED = True
    return _CACHED


_CACHED_CHUNK: ChunkPerceptron | None = None
_CACHED_CHUNK_TRIED = False


def default_chunker() -> ChunkPerceptron | None:
    """The vendored fixture-trained chunk tagger, loaded once per
    process."""
    global _CACHED_CHUNK, _CACHED_CHUNK_TRIED
    if not _CACHED_CHUNK_TRIED:
        _CACHED_CHUNK = ChunkPerceptron.load()
        _CACHED_CHUNK_TRIED = True
    return _CACHED_CHUNK
