"""Analyzer: code-aware tokenization of document content.

The reference has no tokenizer (it matches raw bytes, SURVEY.md M10); the
inverted-index engine needs one. The analyzer is deliberately simple and
SQL-replicable: lowercase, then maximal runs of ``[a-z0-9_]`` — so the DuckDB
correctness oracle can reproduce it with
``string_split_regex(lower(text), '[^a-z0-9_]+')``.

All entry points are batch-level (called from ``map_batches``): per-document
work uses a compiled regex (C speed) and ``collections.Counter``; array
assembly is numpy/pyarrow.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pyarrow as pa

from distributed_text_search_ray.config import AnalyzerConfig


_PROCESS_CACHE: dict[tuple, "Tokenizer"] = {}


def tokenizer_for(cfg: "AnalyzerConfig | None" = None) -> "Tokenizer":
    """Process-level tokenizer memo for PLAIN-FUNCTION map_batches stages.

    Ray reuses worker processes across tasks, so this compiles the analyzer
    regex once per worker — the once-per-worker-setup guarantee of an actor
    pool without paying actor-pool spin-up (an autoscaling pool starts at
    one actor; at interactive scales the spawn cost dominated the stage).
    """
    cfg = cfg or AnalyzerConfig()
    # key on the full config fingerprint (NOT a hand-picked field tuple —
    # that silently aliased stem='s' and default configs when stem landed)
    key = cfg.fingerprint()
    tk = _PROCESS_CACHE.get(key)
    if tk is None:
        tk = _PROCESS_CACHE[key] = Tokenizer(cfg)
    return tk


# Python str.lower() applies the Unicode FULL lowercase mapping; SQL engines
# (DuckDB lower(), the oracle twin of this analyzer) apply the SIMPLE one.
# The only code point where the two produce different token streams is
# U+0130 (Turkish İ): full maps it to "i"+U+0307, splitting an ASCII token
# the simple mapping keeps whole. Pre-mapping İ -> i makes engine and SQL
# tokenize non-ASCII corpora identically (pinned by the unicode parity test).
_SIMPLE_LOWER_FIXUP = {0x0130: "i"}

# camel-boundary injection for AnalyzerConfig.split_identifiers: one
# non-overlapping left-to-right pass, the same semantics re.sub and DuckDB's
# RE2 regexp_replace(..., 'g') share — 'getValue2X' -> 'get_Value2_X'
_CAMEL_RX = re.compile(r"([a-z0-9])([A-Z])")
# in subtoken mode '_' is a separator, not a token char — overrides
# cfg.token_pattern (the mode defines its own complete token grammar)
_SUBTOKEN_PATTERN = "[a-z0-9]+"


class Tokenizer:
    """Compiled analyzer; construct once per task, reuse per batch."""

    def __init__(self, cfg: AnalyzerConfig | None = None):
        self.cfg = cfg or AnalyzerConfig()
        self._split_ids = bool(getattr(self.cfg, "split_identifiers", False))
        self._rx = re.compile(
            _SUBTOKEN_PATTERN if self._split_ids else self.cfg.token_pattern
        )
        self._stop = frozenset(getattr(self.cfg, "stopwords", ()) or ())
        # char-n-gram mode defines its own complete token grammar: ALL
        # overlapping n-char windows of the (lowercased) raw text — token
        # position i == char offset i, the property substring search's
        # phrase-adjacency chain relies on. Overrides every other knob.
        self._ngram = int(getattr(self.cfg, "char_ngrams", 0) or 0)

    def _lower(self, text: str) -> str:
        return text.translate(_SIMPLE_LOWER_FIXUP).lower()

    @staticmethod
    def s_stem(w: str) -> str:
        """Harman's S-stemmer — three ordered plural-stripping rules, exactly
        replicable in SQL CASE/LIKE (the property that keeps stemmed
        pipelines oracle-checkable)."""
        # ordered AND exclusive: the first suffix class that matches decides
        # (a protected ending like -oes stops processing, it does not fall
        # through to the bare -s rule)
        if w.endswith("ies"):
            return w if w.endswith(("eies", "aies")) else w[:-3] + "y"
        if w.endswith("es"):
            return w if w.endswith(("aes", "ees", "oes")) else w[:-1]
        if w.endswith("s"):
            return w if w.endswith(("us", "ss")) else w[:-1]
        return w

    def char_ngram_tokens(self, text: str) -> list[str]:
        """Overlapping ``char_ngrams``-char windows of the lowercased text.

        One numpy pass, no per-window Python slicing: the text's UTF-32
        codepoints form a sliding-window matrix whose rows reinterpret as
        fixed-width ``U{n}`` strings (numpy's unicode dtype IS UCS4).
        """
        n = self._ngram
        if self.cfg.lowercase:
            text = self._lower(text)
        if len(text) < n:
            return []
        if "\x00" in text:
            # numpy's U dtype truncates at an embedded NUL; slice instead
            return [text[i : i + n] for i in range(len(text) - n + 1)]
        cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
        win = np.lib.stride_tricks.sliding_window_view(cp, n)
        return win.copy().view(f"<U{n}").ravel().tolist()

    def tokens(self, text: str) -> list[str]:
        if self._ngram:
            return self.char_ngram_tokens(text)
        if self._split_ids:
            # camel boundaries exist only pre-lowercase, so inject first
            text = _CAMEL_RX.sub(r"\1_\2", text)
        if self.cfg.lowercase:
            text = self._lower(text)
        toks = self._rx.findall(text)
        if getattr(self.cfg, "stem", "none") == "s":
            toks = [self.s_stem(t) for t in toks]
        if self._stop:
            toks = [t for t in toks if t not in self._stop]
        return toks

    def has_token(self, text: str) -> bool:
        """True iff ``tokens(text)`` would be non-empty. Without stopwords
        this is a first-match regex probe (no full tokenize); with stopwords
        a regex hit no longer implies a surviving token (a stopword-only doc
        tokenizes to []), so the probe falls back to the real tokenize."""
        if self._ngram:
            return len(text) >= self._ngram
        if self._stop:
            return bool(self.tokens(text))
        if self.cfg.lowercase:
            text = self._lower(text)
        return self._rx.search(text) is not None

    def term_freqs(self, text: str) -> Counter:
        return Counter(self.tokens(text))

    def token_count(self, text: str) -> int:
        return len(self.tokens(text))

    def batch_pairs(
        self, doc_ids: np.ndarray, texts: list[str]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Tokenize a batch of documents into flat posting pairs.

        Returns ``(terms, pair_doc_ids, tfs, doc_lens, doc_token_counts)``:
        the first four are pair-aligned (one row per distinct (doc, term)),
        ``doc_token_counts`` is doc-aligned (total tokens per input doc,
        including docs with zero tokens).
        """
        terms: list[str] = []
        pair_doc: list[int] = []
        tfs: list[int] = []
        dls: list[int] = []
        doc_token_counts = np.zeros(len(texts), dtype=np.int64)
        for i, (doc_id, text) in enumerate(zip(doc_ids, texts)):
            tf = self.term_freqs(text)
            dl = sum(tf.values())
            doc_token_counts[i] = dl
            if not tf:
                continue
            terms.extend(tf.keys())
            tfs.extend(tf.values())
            n = len(tf)
            pair_doc.extend([int(doc_id)] * n)
            dls.extend([dl] * n)
        return (
            np.asarray(terms, dtype=object),
            np.asarray(pair_doc, dtype=np.int64),
            np.asarray(tfs, dtype=np.int64),
            np.asarray(dls, dtype=np.int64),
            doc_token_counts,
        )


def batch_pairs_dict(
    tokenizer: Tokenizer,
    doc_ids: np.ndarray,
    texts: list[str],
    with_positions: bool = False,
) -> tuple:
    """Vectorized :meth:`Tokenizer.batch_pairs`: one Arrow dictionary-encode
    of the chunk's flat token stream + one ``np.unique`` over (doc, code)
    keys replaces the per-document ``Counter`` loop (profiled ~25% of the
    whole tokenize phase). Returns ``(pair_terms_dict_array, pair_doc_ids,
    tfs, doc_lens, doc_token_counts)``; pair order is (doc, code)-sorted
    within the chunk (downstream fully re-sorts, so order is free).

    With ``with_positions`` a sixth element is appended: a
    ``list<int32>`` Arrow array of each pair's ascending token positions
    within its doc (one stable argsort of the flat (doc, code) key — the
    stable sort keeps the original token order, which IS position order).
    """
    from itertools import chain

    toks = [tokenizer.tokens(t) for t in texts]
    counts = np.fromiter((len(x) for x in toks), dtype=np.int64, count=len(toks))
    total = int(counts.sum())
    if total == 0:
        empty_terms = pa.DictionaryArray.from_arrays(
            pa.array([], type=pa.int32()), pa.array([], type=pa.string())
        )
        z = np.empty(0, dtype=np.int64)
        out = [empty_terms, z, z.copy(), z.copy(), counts]
        if with_positions:
            out.append(pa.array([], type=pa.list_(pa.int32())))
        return tuple(out)
    enc = pa.array(list(chain.from_iterable(toks)), type=pa.string()).dictionary_encode()
    codes = enc.indices.to_numpy().astype(np.int64)
    vocab = len(enc.dictionary)
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
    key = doc_idx * vocab + codes
    uk, tf = np.unique(key, return_counts=True)
    d_of = uk // vocab
    c_of = uk % vocab
    pair_terms = pa.DictionaryArray.from_arrays(
        pa.array(c_of.astype(np.int32)), enc.dictionary
    )
    out = [
        pair_terms,
        np.asarray(doc_ids, dtype=np.int64)[d_of],
        tf.astype(np.int64),
        counts[d_of],
        counts,
    ]
    if with_positions:
        doc_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pos_in_doc = np.arange(total, dtype=np.int64) - doc_starts[doc_idx]
        order = np.argsort(key, kind="stable")
        offsets = np.concatenate(([0], np.cumsum(tf))).astype(np.int32)
        out.append(
            pa.ListArray.from_arrays(
                pa.array(offsets), pa.array(pos_in_doc[order].astype(np.int32))
            )
        )
    return tuple(out)
