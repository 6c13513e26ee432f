"""Single-node pure-Python oracle — the ``apm1`` analog.

The reference's entire correctness story is seeded differential testing against
a sequential oracle (``/root/reference/src/apm1.c:107-303``, harness
``src/test_generation.py:164-179``). This module is our oracle: a slow,
obviously-correct, single-process implementation of every query the engine
answers. pytest diffs the Ray engine against it (rank- and score-identical).

Determinism contract shared with the engine (SURVEY.md section 7):
- float64 everywhere;
- a query's per-term BM25 contributions are accumulated in ascending term
  order;
- ties in top-k are broken by doc_id ascending;
- N counts every document (including zero-token ones); avgdl = total_tokens/N.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from distributed_text_search_ray.config import AnalyzerConfig, IndexConfig
from distributed_text_search_ray.functions.lev import levenshtein, windowed_match_count
from distributed_text_search_ray.functions.tokenize import Tokenizer


@dataclass
class OracleIndex:
    N: int
    avgdl: float
    df: dict[str, int]
    postings: dict[str, list[tuple[int, int]]]  # term -> [(doc_id, tf)] sorted
    doc_len: dict[int, int]


def build_oracle_index(
    docs: list[tuple[int, str]], analyzer: AnalyzerConfig | None = None
) -> OracleIndex:
    tk = Tokenizer(analyzer)
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_len: dict[int, int] = {}
    total = 0
    for doc_id, text in docs:
        tf = tk.term_freqs(text)
        dl = sum(tf.values())
        doc_len[doc_id] = dl
        total += dl
        for term, f in tf.items():
            postings.setdefault(term, []).append((doc_id, f))
    for term in postings:
        postings[term].sort()
    N = len(docs)
    return OracleIndex(
        N=N,
        avgdl=(total / N) if N else 0.0,
        df={t: len(p) for t, p in postings.items()},
        postings=postings,
        doc_len=doc_len,
    )


def bm25_scores(
    idx: OracleIndex,
    query_terms: list[str],
    k1: float = 1.2,
    b: float = 0.75,
) -> dict[int, float]:
    """doc_id -> score for the OR of the query's *distinct* terms.

    Terms are deduplicated and iterated in ascending order (determinism
    contract); unknown terms contribute nothing.
    """
    scores: dict[int, float] = {}
    for term in sorted(set(query_terms)):
        plist = idx.postings.get(term)
        if not plist:
            continue
        df = idx.df[term]
        w_idf = math.log(1.0 + (idx.N - df + 0.5) / (df + 0.5))
        for doc_id, tf in plist:
            dl = idx.doc_len[doc_id]
            part = tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / idx.avgdl))
            scores[doc_id] = scores.get(doc_id, 0.0) + w_idf * part
    return scores


def ql_scores(
    idx: OracleIndex, query_terms: list[str], mu: float = 2000.0
) -> dict[int, float]:
    """Dirichlet query-likelihood: doc_id -> log score over candidate docs
    (docs containing >= 1 corpus-present distinct query term). Independent
    scalar re-derivation of QLTopkExecutor (stages/executor.py) for
    differential testing — per-doc dict accumulation rather than the
    engine's vectorized candidate-union arrays."""
    total_tokens = float(sum(idx.doc_len.values()))
    live = [t for t in sorted(set(query_terms)) if idx.postings.get(t)]
    cands: set[int] = set()
    for t in live:
        cands.update(d for d, _ in idx.postings[t])
    scores: dict[int, float] = {}
    for d in cands:
        dl = float(idx.doc_len[d])
        s = 0.0
        for t in live:
            plist = dict(idx.postings[t])
            cf = float(sum(tf for _, tf in idx.postings[t]))
            tf = float(plist.get(d, 0))
            s += math.log((tf + mu * cf / total_tokens) / (dl + mu))
        scores[d] = s
    return scores


def topk(scores: dict[int, float], k: int) -> list[tuple[int, int, float]]:
    """[(rank, doc_id, score)] — score desc, doc_id asc, rank from 1."""
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return [(r + 1, d, s) for r, (d, s) in enumerate(ordered)]


def oracle_bm25_topk(
    docs: list[tuple[int, str]],
    queries: list[tuple[int, str]],
    k: int = 10,
    cfg: IndexConfig | None = None,
) -> list[tuple[int, int, int, float]]:
    """[(query_id, rank, doc_id, score)] for each (query_id, query_text)."""
    cfg = cfg or IndexConfig()
    idx = build_oracle_index(docs, cfg.analyzer)
    tk = Tokenizer(cfg.analyzer)
    out = []
    for qid, qtext in queries:
        scores = bm25_scores(idx, tk.tokens(qtext), cfg.bm25_k1, cfg.bm25_b)
        for rank, doc_id, s in topk(scores, k):
            out.append((qid, rank, doc_id, s))
    return out


def oracle_windowed_counts(
    docs: list[tuple[int, str]], patterns: list[tuple[int, str, int]]
) -> list[tuple[int, int]]:
    """Reference APM semantics (src/apm1.c:235-281), summed per-document.

    patterns: [(query_id, pattern, k)]. Duplicate patterns count independently
    (script.sh:11). Returns [(query_id, n_matches)].
    """
    out = []
    for qid, pattern, k in patterns:
        total = 0
        for _doc_id, text in docs:
            total += windowed_match_count(text, pattern, k)
        out.append((qid, total))
    return out


def oracle_fuzzy_terms(
    docs: list[tuple[int, str]],
    patterns: list[tuple[int, str, int]],
    analyzer: AnalyzerConfig | None = None,
) -> list[tuple[int, int, int, int]]:
    """Term-level fuzzy search: for each (query_id, pattern, k) return
    (query_id, n_matching_terms, n_docs, n_occurrences) where matching terms
    are distinct vocabulary terms within standard Levenshtein distance k of
    the (analyzed) pattern."""
    idx = build_oracle_index(docs, analyzer)
    tk = Tokenizer(analyzer)
    out = []
    for qid, pattern, k in patterns:
        p = tk.tokens(pattern)
        p = p[0] if p else ""
        matched = [t for t in idx.postings if levenshtein(p, t) <= k]
        docs_hit = set()
        occ = 0
        for t in matched:
            for doc_id, tf in idx.postings[t]:
                docs_hit.add(doc_id)
                occ += tf
        out.append((qid, len(matched), len(docs_hit), occ))
    return out


def oracle_fuzzy_topk(
    docs: list[tuple[int, str]],
    patterns: list[tuple[int, str, int]],
    k: int = 10,
    cfg: IndexConfig | None = None,
) -> list[tuple[int, int, int, float]]:
    """BM25 top-k over the OR of the fuzzy-expanded term set (each matched
    dictionary term scored with its own df; expansion = standard Levenshtein
    <= k over the vocabulary). Mirrors FuzzyTopkExecutor."""
    cfg = cfg or IndexConfig()
    idx = build_oracle_index(docs, cfg.analyzer)
    tk = Tokenizer(cfg.analyzer)
    out = []
    for qid, pattern, k_lev in patterns:
        toks = tk.tokens(pattern)
        p = toks[0] if toks else ""
        matched = sorted(t for t in idx.postings if levenshtein(p, t) <= k_lev)
        scores = bm25_scores(idx, matched, cfg.bm25_k1, cfg.bm25_b)
        for rank, doc_id, s in topk(scores, k):
            out.append((qid, rank, doc_id, s))
    return out


def oracle_prefix_terms(
    docs: list[tuple[int, str]],
    prefixes: list[tuple[int, str]],
    analyzer: AnalyzerConfig | None = None,
) -> list[tuple[int, int, int, int]]:
    """Wildcard ``prefix*`` term stats: (query_id, n_matching_terms, n_docs,
    n_occurrences). Mirrors ExpansionCountExecutor(kind="prefix")."""
    idx = build_oracle_index(docs, analyzer)
    tk = Tokenizer(analyzer)
    out = []
    for qid, prefix in prefixes:
        toks = tk.tokens(prefix)
        p = toks[0] if toks else ""
        matched = [t for t in idx.postings if t.startswith(p)]
        docs_hit = set()
        occ = 0
        for t in matched:
            for doc_id, tf in idx.postings[t]:
                docs_hit.add(doc_id)
                occ += tf
        out.append((qid, len(matched), len(docs_hit), occ))
    return out


def oracle_prefix_topk(
    docs: list[tuple[int, str]],
    prefixes: list[tuple[int, str]],
    k: int = 10,
    cfg: IndexConfig | None = None,
) -> list[tuple[int, int, int, float]]:
    """BM25 top-k over the OR of the prefix-expanded term set. Mirrors
    ExpansionTopkExecutor(kind="prefix")."""
    cfg = cfg or IndexConfig()
    idx = build_oracle_index(docs, cfg.analyzer)
    tk = Tokenizer(cfg.analyzer)
    out = []
    for qid, prefix in prefixes:
        toks = tk.tokens(prefix)
        p = toks[0] if toks else ""
        matched = sorted(t for t in idx.postings if t.startswith(p))
        scores = bm25_scores(idx, matched, cfg.bm25_k1, cfg.bm25_b)
        for rank, doc_id, s in topk(scores, k):
            out.append((qid, rank, doc_id, s))
    return out
