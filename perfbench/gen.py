"""Seeded inputs for the benchmark: corpus, query sets, fuzzy and APM
patterns, upsert changesets and delete ids.

Self-contained on purpose (numpy only, no import of the engine): a change to
the engine cannot move the inputs it is measured on. The same seed gives the
same inputs on every machine.

Corpus model: code-like lines over a fixed 2,000-term vocabulary (the same
for every seed, so index size per corpus byte barely moves with the seed;
the seed picks the documents, queries and changesets). Terms are drawn
Zipf(1.07) from the vocabulary, and 4 "hot" terms each appear in a document
with probability 0.9 (df about 0.9 N), the pruning-hostile skew case.
Every token matches the engine's default analyzer (``[a-z0-9_]+``, lower
case), and document ids are dense (0..N-1, inserts continue above N).
"""

from __future__ import annotations

import numpy as np

VOCAB_SIZE = 2000
HOT_TERMS = ("self", "return", "value", "none")
HOT_DF = 0.9
ZIPF_S = 1.07
MIN_TOKENS, MAX_TOKENS = 60, 180  # Zipf tokens per document
PATTERN_KS = (0, 1, 2)  # edit bounds, cycled over a pattern set
MIN_PATTERN_LEN = 4
_SYLLABLES = (
    "get set load parse buf cfg node tree str len idx ptr val key map list init "
    "read write open close err ctx req resp user data file path size count item "
    "hash sort find push pop peek iter next prev head tail span byte char line "
    "tok lex ast emit gen eval call arg ret log msg conn sock addr port host"
).split()
_SEPS = np.array([" ", " ", " ", ".", "(", ") ", ", ", " = ", "\n    ", ": ", "[", "] "])


def vocabulary() -> list[str]:
    """``VOCAB_SIZE`` distinct terms, the hot terms first, then the rest in
    Zipf rank order (rank 0 = most frequent)."""
    rng = np.random.default_rng(0)
    seen = set(HOT_TERMS)
    terms = list(HOT_TERMS)
    while len(terms) < VOCAB_SIZE:
        n = int(rng.integers(1, 4))
        parts = [_SYLLABLES[i] for i in rng.integers(0, len(_SYLLABLES), n)]
        t = ("_" if rng.random() < 0.5 else "").join(parts)
        if rng.random() < 0.15:
            t += str(int(rng.integers(0, 10)))
        if t not in seen:
            seen.add(t)
            terms.append(t)
    return terms


class Corpus:
    """A seeded corpus and the Zipf sampler that made it."""

    def __init__(self, seed: int, n_docs: int):
        self.rng = np.random.default_rng(seed)
        self.vocab = vocabulary()
        self.body = np.array(self.vocab[len(HOT_TERMS):], dtype=object)
        w = 1.0 / np.arange(1, len(self.body) + 1) ** ZIPF_S
        self.p = w / w.sum()
        self.texts = self.make_texts(n_docs)
        self.ids = list(range(n_docs))

    def zipf_terms(self, n: int) -> list[str]:
        return list(self.rng.choice(self.body, size=n, p=self.p))

    def make_texts(self, n: int, extra: str | None = None) -> list[str]:
        """``n`` documents; ``extra`` (a token) is planted once in each."""
        rng = self.rng
        lens = rng.integers(MIN_TOKENS, MAX_TOKENS + 1, n)
        hot = rng.random((n, len(HOT_TERMS))) < HOT_DF
        hot_tf = np.where(hot, rng.integers(1, 3, (n, len(HOT_TERMS))), 0)
        hot_arr = np.array(HOT_TERMS, dtype=object)
        parts = [
            rng.choice(self.body, size=int(lens.sum()), p=self.p),
            np.repeat(np.tile(hot_arr, n), hot_tf.ravel()),
        ]
        counts = [lens, hot_tf.sum(axis=1)]
        if extra is not None:
            parts.append(np.full(n, extra, dtype=object))
            counts.append(np.ones(n, dtype=np.int64))
        toks = np.concatenate(parts)
        doc = np.concatenate([np.repeat(np.arange(n), c) for c in counts])
        # shuffle tokens within each document, then glue on separators
        order = np.lexsort((rng.random(len(toks)), doc))
        pieces = toks[order] + rng.choice(_SEPS, size=len(toks)).astype(object)
        ends = np.cumsum(np.bincount(doc, minlength=n))
        starts = ends - np.bincount(doc, minlength=n)
        return ["".join(pieces[s:e]) for s, e in zip(starts.tolist(), ends.tolist())]

    def queries(self, n: int, hot_share: float = 0.0) -> list[str]:
        """``n`` BM25 queries of 1-4 terms; the first ``hot_share`` of them
        use only hot terms, the rest Zipf terms (one hot term mixed in at
        random, as real queries carry common words)."""
        rng = self.rng
        n_hot = int(round(n * hot_share))
        out = []
        for i in range(n):
            if i < n_hot:
                k = int(rng.integers(1, len(HOT_TERMS) + 1))
                terms = list(rng.choice(np.array(HOT_TERMS, dtype=object), k, replace=False))
            else:
                terms = self.zipf_terms(int(rng.integers(1, 4)))
                if rng.random() < 0.5:
                    terms.append(HOT_TERMS[int(rng.integers(0, len(HOT_TERMS)))])
            out.append(" ".join(terms))
        return out

    def patterns(self, n: int, length: int | None = None) -> list[tuple[str, int]]:
        """``n`` (pattern, k) pairs: Zipf terms of at least
        ``MIN_PATTERN_LEN`` characters (exactly ``length``, if given, so that
        scan work does not depend on the seed) with up to k random
        substitutions, k cycling over ``PATTERN_KS``."""
        rng = self.rng
        out = []
        while len(out) < n:
            t = self.zipf_terms(1)[0]
            if len(t) < MIN_PATTERN_LEN or (length is not None and len(t) != length):
                continue
            k = PATTERN_KS[len(out) % len(PATTERN_KS)]
            chars = list(t)
            for _ in range(int(rng.integers(0, k + 1))):
                chars[int(rng.integers(0, len(chars)))] = "abcdefghijklmnopqrstuvwxyz"[
                    int(rng.integers(0, 26))
                ]
            out.append(("".join(chars), k))
        return out


class Changesets:
    """Seeded write rounds over a live id set: each round replaces
    ``n_replace`` live docs, inserts ``n_insert`` new ones (all planted with a
    round-unique token), then deletes ``n_delete`` live docs outside the
    changeset. Tracks the live set so reads can be checked."""

    def __init__(self, corpus: Corpus, n_replace: int = 100, n_insert: int = 100, n_delete: int = 50):
        self.corpus = corpus
        self.live = set(corpus.ids)
        self.next_id = len(corpus.ids)
        self.n_replace, self.n_insert, self.n_delete = n_replace, n_insert, n_delete
        self.round = 0

    def next(self) -> dict:
        rng = self.corpus.rng
        r = self.round
        self.round += 1
        live = np.array(sorted(self.live), dtype=np.int64)
        replaced = rng.choice(live, self.n_replace, replace=False)
        inserted = np.arange(self.next_id, self.next_id + self.n_insert, dtype=np.int64)
        self.next_id += self.n_insert
        ids = np.sort(np.concatenate([replaced, inserted]))
        planted = f"planted_r{r}"
        texts = self.corpus.make_texts(len(ids), extra=planted)
        self.live.update(inserted.tolist())
        rest = np.array(sorted(self.live - set(ids.tolist())), dtype=np.int64)
        deleted = np.sort(rng.choice(rest, self.n_delete, replace=False))
        self.live.difference_update(deleted.tolist())
        return {
            "round": r,
            "doc_ids": ids.tolist(),
            "texts": texts,
            "planted": planted,
            "deleted": deleted.tolist(),
            "n_live": len(self.live),
        }
