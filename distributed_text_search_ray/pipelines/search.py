"""Query pipelines: exact top-k BM25 and fuzzy (Levenshtein) search.

Queries fan out as Ray tasks via ``stages.index_stage`` — each task builds
its executor around the worker's cached view of the current index
generation — with no shuffle on the query path at all (term -> partition
routing is pure hash; the small query set is the broadcast side, the
reference analog being every rank parsing the full pattern list from argv,
``src/flexible_mpi.c:325``).

Fuzzy matching follows the north_star: Levenshtein-banded expansion over the
sorted global term dictionary (built in build phase B), then the expanded term
set is answered like an OR query / counted. The dictionary scan is
length-banded: only terms with ``abs(len(t) - len(p)) <= k`` enter the
vectorized DP (SURVEY.md section 2.4 "fuzzy pattern -> candidate terms").
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

# re-exported: benchmark tooling resolves the kernel under this module
from distributed_text_search_ray.functions.lev import bounded_term_distances  # noqa: F401
from distributed_text_search_ray.stages.executor import (
    TOPK_SCHEMA,
    DictionaryExpander,  # re-exported: callers import it from this module
    IndexView,
    QueryExecutor,
    as_view,
    no_hits,
    open_view,
    segment_sum,
)
from distributed_text_search_ray.stages.index_stage import index_stage, query_rows
from distributed_text_search_ray.util import round_half_away


def _pattern_rows(patterns: Iterable[tuple[int, str, int]]) -> pa.Table:
    """(query_id, pattern, k) triples as a typed table."""
    patterns = list(patterns)
    return pa.table(
        {
            "query_id": pa.array([int(q) for q, _, _ in patterns], pa.int64()),
            "pattern": pa.array([str(p) for _, p, _ in patterns], pa.string()),
            "k": pa.array([int(k) for _, _, k in patterns], pa.int64()),
        }
    )


def search_topk(
    index_dir: str,
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    topk: int = 10,
    mode: str = "maxscore",
) -> ray.data.Dataset:
    """Top-k BM25 for each query. Returns (query_id, rank, doc_id, score).

    ``mode`` — all three give bit-identical results (tested):

    - "taat": exhaustive term-at-a-time accumulation of the cached
      per-term BM25 contributions.
    - "maxscore" (default) and "wand": aliases of "taat". MaxScore and
      Block-Max WAND pruning would skip no decode over cached
      contributions, only add work; segments store no block metadata."""
    return index_stage(
        query_rows(queries), QueryExecutor, index_dir,
        topk=topk, mode=mode,
    )


def search_topk_ql(
    index_dir: str,
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    topk: int = 10,
    mu: float = 2000.0,
) -> ray.data.Dataset:
    """Top-k under Dirichlet-smoothed query likelihood (the language-model
    scorer family) — same index, analyzer and output schema as BM25
    ``search_topk``; only the ranking function differs. Scores are
    log-probabilities (negative; higher = better)."""
    from distributed_text_search_ray.stages.executor import QLTopkExecutor

    return index_stage(
        query_rows(queries), QLTopkExecutor, index_dir,
        topk=topk, mu=mu,
    )


def search_topk_federated(
    index_dirs: list[str],
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    topk: int = 10,
    mode: str = "maxscore",
) -> ray.data.Dataset:
    """Top-k BM25 across SEVERAL indexes queried as one logical corpus —
    cross-cluster search without a physical ``merge_indexes``. Global stats
    (N, avgdl, per-term df) are recombined exactly from the members'
    metadata, so results are bit-identical to a single index over the union
    corpus (members' doc-id sets must be disjoint, the merge contract).
    ``mode``: "maxscore" (default) or "taat", as in :func:`search_topk`
    (the same accumulation); WAND needs one index's block metadata, so it
    is for merged indexes only."""
    from distributed_text_search_ray.stages.executor import FederatedQueryExecutor

    return index_stage(
        query_rows(queries), FederatedQueryExecutor, list(index_dirs),
        topk=topk, mode=mode,
    )


def search_topk_msm(
    index_dir: str,
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    min_should_match: int = 2,
    topk: int = 10,
) -> ray.data.Dataset:
    """Top-k BM25 restricted to docs that contain at least
    ``min_should_match`` DISTINCT query terms (the boolean OR query's
    precision dial: msm=1 is plain OR, msm=len(terms) is pure AND).
    Surviving docs keep their exact unfiltered BM25 scores."""
    return index_stage(
        query_rows(queries), QueryExecutor, index_dir,
        topk=topk, min_should_match=min_should_match,
    )


class MatchSetExecutor(QueryExecutor):
    """Hit-SET primitive: ``(query_id, doc_id)`` rows for every doc matching
    >= ``min_should_match`` distinct query terms — no scores, no top-k. The
    input to search-time aggregations (facets/histograms over ALL hits,
    not the first page), where emitting rank/score per hit would only pad
    the exchange."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_q, out_d = [], []
        for qid, qtext in zip(
            batch.column("query_id").to_pylist(),
            batch.column("query").to_pylist(),
        ):
            terms = self._terms(qtext)
            all_docs, _ = self._term_contribs(terms)
            if not all_docs:
                continue
            docs = np.sort(np.concatenate(all_docs))
            if self.min_should_match > 1:
                uniq, counts = np.unique(docs, return_counts=True)
                uniq = uniq[counts >= self.min_should_match]
            else:
                uniq = np.unique(docs)
            out_q.append(np.full(len(uniq), qid, dtype=np.int64))
            out_d.append(uniq)
        if not out_q:
            z = pa.array([], type=pa.int64())
            return pa.table({"query_id": z, "doc_id": z})
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), type=pa.int64()),
                "doc_id": pa.array(np.concatenate(out_d), type=pa.int64()),
            }
        )


def search_facets(
    index_dir: str,
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    doc_attrs: ray.data.Dataset,
    facet_col: str = "lang",
    min_should_match: int = 1,
    join_partitions: int = 8,
) -> ray.data.Dataset:
    """Search-time facet aggregation (the ES "query + aggs" shape): for each
    query, count MATCHING docs per ``facet_col`` value over the FULL hit
    set. Returns (query_id, <facet_col>, n_docs).

    Scale shape: the hit set never lands on the driver — MatchSetExecutor
    emits (query_id, doc_id) rows from the query tasks, a hash join attaches
    the facet attribute (documents-sized side stays distributed), per-batch
    pyarrow partial counts collapse the exchange to O(queries x facet
    cardinality) rows before the final per-query reduce."""
    hits = index_stage(
        query_rows(queries), MatchSetExecutor, index_dir,
        min_should_match=min_should_match,
    )
    from distributed_text_search_ray.pipelines.joins import hash_join

    joined = hash_join(
        hits,
        doc_attrs.select_columns(["doc_id", facet_col]),
        on="doc_id",
        num_partitions=join_partitions,
    )

    def partial_counts(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["query_id", facet_col]).aggregate(
            [("doc_id", "count")]
        )
        from distributed_text_search_ray.util import agg_rename

        return agg_rename(g, ["query_id", facet_col], [("doc_id", "count")], ["n"])

    def final_counts(group: pa.Table) -> pa.Table:
        g = group.group_by(["query_id", facet_col]).aggregate([("n", "sum")])
        from distributed_text_search_ray.util import agg_rename

        return agg_rename(g, ["query_id", facet_col], [("n", "sum")], ["n_docs"])

    return (
        joined.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(final_counts, batch_format="pyarrow")
    )


class ScoredSetExecutor(QueryExecutor):
    """Full scored hit set per query — ``(query_id, doc_id, score)`` with
    RAW (unrounded) BM25 scores, no top-k cut, assembled with numpy (no
    per-row Python loop): the retrieval half of score-modifier pipelines
    (function_score) where the final ranking happens after a join."""

    _ALL = 1 << 60

    def __call__(self, batch: pa.Table) -> pa.Table:
        qs, ds_, ss = [], [], []
        for qid, qtext in zip(
            batch.column("query_id").to_pylist(),
            batch.column("query").to_pylist(),
        ):
            terms = self._terms(qtext)
            docs, scores = self._score_taat(terms, self._ALL)
            if len(docs):
                qs.append(np.full(len(docs), qid, dtype=np.int64))
                ds_.append(docs)
                ss.append(scores)
        if not qs:
            z = pa.array([], type=pa.int64())
            return pa.table(
                {"query_id": z, "doc_id": z, "score": pa.array([], type=pa.float64())}
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(qs), type=pa.int64()),
                "doc_id": pa.array(np.concatenate(ds_), type=pa.int64()),
                "score": pa.array(np.concatenate(ss), type=pa.float64()),
            }
        )


def function_score_topk(
    index_dir: str,
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    doc_attrs: ray.data.Dataset,
    attr: str = "n_chars",
    scale: float = 1000.0,
    topk: int = 10,
    join_partitions: int = 8,
) -> ray.data.Dataset:
    """Function-score ranking (the ES ``field_value_factor`` shape): every
    hit's BM25 score is multiplied by a saturation boost of a numeric doc
    attribute, then re-ranked —

        final = bm25 * (1 + attr / (attr + scale))

    The boost is a RATIONAL function on purpose: only IEEE +, /, * — no
    ln/exp whose last-ulp behavior differs between numpy and the SQL twin's
    libm, so the 6-dp-rounded ranking is reproducible bit-for-bit.

    Scale shape: the full scored set streams out of the query tasks
    (ScoredSetExecutor, vectorized), a hash join attaches the attribute,
    the boost is a vectorized map, and the per-query top-k is the only
    per-group step. Returns (query_id, rank, doc_id, score) with 6-dp
    scores, ties by doc_id."""
    hits = index_stage(query_rows(queries), ScoredSetExecutor, index_dir)
    from distributed_text_search_ray.pipelines.joins import hash_join

    joined = hash_join(
        hits,
        doc_attrs.select_columns(["doc_id", attr]),
        on="doc_id",
        num_partitions=join_partitions,
    )

    def boost(batch: pa.Table) -> pa.Table:
        a = batch.column(attr).to_numpy().astype(np.float64)
        s = batch.column("score").to_numpy()
        final = s * (1.0 + a / (a + float(scale)))
        return pa.table(
            {
                "query_id": batch.column("query_id"),
                "doc_id": batch.column("doc_id"),
                "score": pa.array(round_half_away(final, 6), type=pa.float64()),
            }
        )

    def per_query_topk(group: pa.Table) -> pa.Table:
        d = group.column("doc_id").to_numpy()
        s = group.column("score").to_numpy()
        order = np.lexsort((d, -s))[: int(topk)]
        return pa.table(
            {
                "query_id": group.column("query_id").take(
                    pa.array(order, type=pa.int64())
                ),
                "rank": pa.array(
                    np.arange(1, len(order) + 1, dtype=np.int64), type=pa.int64()
                ),
                "doc_id": pa.array(d[order], type=pa.int64()),
                "score": pa.array(s[order], type=pa.float64()),
            }
        )

    return (
        joined.map_batches(boost, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(per_query_topk, batch_format="pyarrow")
    )


def mmr_topk(
    index_dir: str,
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    vectors: ray.data.Dataset,
    window: int = 30,
    lam: float = 0.3,
    topk: int = 10,
    fetch_pad: int = 10,
    join_partitions: int = 8,
) -> ray.data.Dataset:
    """Diversified top-k via Maximal Marginal Relevance (Carbonell &
    Goldstein 1998): greedily select from the BM25 top-``window``, scoring
    each remaining candidate

        mmr = round6(rel - lam * max_sim_to_already_selected)

    where ``rel`` is the 6-dp-rounded BM25 score and similarities are
    6-dp-rounded inner products of the (unit) doc vectors. ``lam=0``
    reproduces the BM25 order; larger ``lam`` pushes near-duplicate hits
    out of the first page. Docs outside the window never enter (rescore
    semantics — the greedy loop touches at most ``window`` candidates per
    query, never the corpus).

    ``vectors``: (vec_id, embedding) rows covering the corpus — e.g. the
    persisted ``hashed_doc_vectors`` artifact (deterministic, no training
    pass). Scale shape: window rows are O(queries x window); the vector
    join is the only corpus-sized exchange and the per-query greedy is a
    window x window numpy kernel inside one group task. Returns
    (query_id, rank, doc_id, score); score is the mmr value at selection
    time (rank 1 = plain rel)."""
    hits = search_topk(index_dir, queries, topk=window + fetch_pad, mode="taat")

    def rewindow(group: pa.Table) -> pa.Table:
        d = group.column("doc_id").to_numpy()
        s = round_half_away(group.column("score").to_numpy(), 6)
        order = np.lexsort((d, -s))[: int(window)]
        return pa.table(
            {
                "query_id": group.column("query_id").take(
                    pa.array(order, type=pa.int64())
                ),
                "doc_id": pa.array(d[order], type=pa.int64()),
                "rel": pa.array(s[order], type=pa.float64()),
            }
        )

    # groupby().map_groups() emits schema-less blocks for empty hash
    # partitions, which crash acero's by-name key resolution inside Ray's
    # join finalize (the joins.left_anti_join contract) — repartition
    # coalesces them into typed blocks; the window is O(queries x window)
    # rows, so this is cheap
    win = (
        hits.groupby("query_id")
        .map_groups(rewindow, batch_format="pyarrow")
        .repartition(4)
    )

    def vec_pack(batch: pa.Table) -> pa.Table:
        # acero rejects list<double> join payloads (same limitation as
        # embedding_dedup_filter) — ship the vector as packed float64 bytes
        emb = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        return pa.table(
            {
                "doc_id": batch.column("vec_id"),
                "vec_bytes": pa.array(
                    [row.tobytes() for row in emb], type=pa.binary()
                ),
            }
        )

    from distributed_text_search_ray.pipelines.joins import hash_join

    joined = hash_join(
        win,
        vectors.map_batches(vec_pack, batch_format="pyarrow"),
        on="doc_id",
        num_partitions=join_partitions,
    )

    def greedy(group: pa.Table) -> pa.Table:
        d = group.column("doc_id").to_numpy()
        rel = group.column("rel").to_numpy()
        emb = np.stack(
            [
                np.frombuffer(b, dtype=np.float64)
                for b in group.column("vec_bytes").to_pylist()
            ]
        )
        sims = round_half_away(emb @ emb.T, 6)
        n = len(d)
        remaining = np.ones(n, dtype=bool)
        selected: list[int] = []
        out_d, out_s = [], []
        for _ in range(min(int(topk), n)):
            if selected:
                maxsim = sims[:, selected].max(axis=1)
                mmr = round_half_away(rel - lam * maxsim, 6)
            else:
                mmr = rel
            cand = np.flatnonzero(remaining)
            pick = int(cand[np.lexsort((d[cand], -mmr[cand]))[0]])
            selected.append(pick)
            remaining[pick] = False
            out_d.append(int(d[pick]))
            out_s.append(float(mmr[pick]))
        k = len(out_d)
        return pa.table(
            {
                "query_id": group.column("query_id").slice(0, k),
                "rank": pa.array(np.arange(1, k + 1, dtype=np.int64), type=pa.int64()),
                "doc_id": pa.array(out_d, type=pa.int64()),
                "score": pa.array(out_s, type=pa.float64()),
            }
        )

    return joined.groupby("query_id").map_groups(greedy, batch_format="pyarrow")


def search_top_hits_per_bucket(
    index_dir: str,
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    doc_attrs: ray.data.Dataset,
    facet_col: str = "lang",
    hits_per_bucket: int = 1,
    join_partitions: int = 8,
) -> ray.data.Dataset:
    """The ES ``top_hits`` sub-aggregation: for each query and each value
    of ``facet_col``, the best ``hits_per_bucket`` docs by BM25 (6-dp
    rounded, ties by doc_id). Full scored set streams from the query tasks,
    a hash join attaches the bucket attribute, and ONE per-query group
    task does the vectorized per-bucket top-k — no corpus-sized state
    anywhere. Returns (query_id, <facet_col>, bucket_rank, doc_id,
    score)."""
    hits = index_stage(query_rows(queries), ScoredSetExecutor, index_dir)
    from distributed_text_search_ray.pipelines.joins import hash_join

    joined = hash_join(
        hits,
        doc_attrs.select_columns(["doc_id", facet_col]),
        on="doc_id",
        num_partitions=join_partitions,
    )

    def per_query(group: pa.Table) -> pa.Table:
        d = group.column("doc_id").to_numpy()
        s = round_half_away(group.column("score").to_numpy(), 6)
        fv = group.column(facet_col).to_numpy(zero_copy_only=False)
        # sort by (bucket, score desc, doc) then take the first
        # hits_per_bucket rows of each bucket run
        order = np.lexsort((d, -s, fv))
        fv_s = fv[order]
        is_start = np.empty(len(fv_s), dtype=bool)
        if len(fv_s):
            is_start[0] = True
            np.not_equal(fv_s[1:], fv_s[:-1], out=is_start[1:])
        seg = np.cumsum(is_start) - 1
        starts = np.flatnonzero(is_start)
        pos_in_bucket = np.arange(len(fv_s)) - starts[seg]
        keep = pos_in_bucket < int(hits_per_bucket)
        sel = order[keep]
        take = pa.array(sel, type=pa.int64())
        return pa.table(
            {
                "query_id": group.column("query_id").take(take),
                facet_col: group.column(facet_col).take(take),
                "bucket_rank": pa.array(
                    (pos_in_bucket[keep] + 1).astype(np.int64), type=pa.int64()
                ),
                "doc_id": pa.array(d[sel], type=pa.int64()),
                "score": pa.array(s[sel], type=pa.float64()),
            }
        )

    return joined.groupby("query_id").map_groups(per_query, batch_format="pyarrow")


class RescoreExecutor(QueryExecutor):
    """Two-phase retrieval (the Elasticsearch ``rescore`` shape): phase 1
    takes each query's BM25 top-``window`` under the rounded-score rank
    contract (round 6 dp desc, doc_id asc, with the same boundary-tie fetch
    pad the plain top-k path uses); phase 2 re-ranks ONLY those window docs
    with an exact-phrase occurrence bonus answered from the positional
    index:

        final = round(query_weight * bm25_6dp
                      + rescore_weight * n_phrase_occurrences, 6)

    The phrase is the query text itself (the ``match_phrase`` rescorer).
    Docs outside the window never move — ES rescore semantics, and the whole
    point at scale: the position chain runs over at most ``window``
    candidates per query, not the corpus."""

    def __init__(
        self,
        index_dir: str,
        topk: int = 10,
        window: int = 30,
        query_weight: float = 1.0,
        rescore_weight: float = 2.0,
        fetch_pad: int = 10,
    ):
        super().__init__(index_dir, topk=topk, mode="taat")
        self.window = window
        self.qw = float(query_weight)
        self.rw = float(rescore_weight)
        self.fetch_pad = fetch_pad

    def rank(self, row: dict) -> tuple[np.ndarray, np.ndarray]:
        from distributed_text_search_ray.pipelines.phrase import (
            phrase_occurrence_counts,
        )

        terms = self.tokenizer.tokens(row["query"])
        docs, scores = self._score_taat(sorted(set(terms)), self.window + self.fetch_pad)
        if not len(docs):
            return docs, scores
        wdocs, wscores = _rounded_topk(docs, scores, self.window)
        srt = np.argsort(wdocs)
        pdocs, pcounts = phrase_occurrence_counts(
            self.view, terms, restrict=wdocs[srt]
        )
        bonus = np.zeros(len(wdocs), dtype=np.float64)
        if len(pdocs):
            at = np.searchsorted(wdocs[srt], pdocs)
            bonus[srt[at]] = pcounts.astype(np.float64)
        final = round_half_away(self.qw * wscores + self.rw * bonus, 6)
        order2 = np.lexsort((wdocs, -final))[: self.topk]
        return wdocs[order2], final[order2]


def search_topk_rescored(
    index_dir: str,
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    topk: int = 10,
    window: int = 30,
    query_weight: float = 1.0,
    rescore_weight: float = 2.0,
) -> ray.data.Dataset:
    """Top-k after phrase rescoring of the BM25 top-``window``; requires a
    positional (``store_positions=True``) index. See ``RescoreExecutor``."""
    return index_stage(
        query_rows(queries), RescoreExecutor, index_dir, batch_size=4,
        topk=topk, window=window, query_weight=query_weight,
        rescore_weight=rescore_weight,
    )


def _first_token(tokenizer, raw: str) -> str:
    toks = tokenizer.tokens(raw)
    return toks[0] if toks else ""


def _first_tokens(tokenizer, batch: pa.Table) -> list[tuple[str, int]]:
    """(first token of the pattern, k) for each (pattern, k) row."""
    return [
        (_first_token(tokenizer, p), int(k))
        for p, k in zip(batch.column("pattern").to_pylist(), batch.column("k").to_pylist())
    ]


def _live_term_stats(view, expander, qids: list, expansions: list[np.ndarray]) -> pa.Table:
    """(query_id, n_matching_terms, n_docs, n_occurrences) per query from
    the dictionary indices each query expanded to.

    Occurrences come from LIVE postings (tf sums), not dictionary cf: cf is a
    build-time stat that would still count tombstoned docs. The distinct-doc
    count stays in numpy (concatenate + unique): a pattern matching a
    Zipf-head term would make a Python set of ~N ints (hundreds of bytes per
    int) the task's peak memory."""
    n_terms, n_docs, n_occ = [], [], []
    for idxs in expansions:
        posts = [view.term_postings(expander.term_at(i)) for i in idxs]
        chunks = [pl[0] for pl in posts]
        n_terms.append(int(idxs.size))
        n_docs.append(int(np.unique(np.concatenate(chunks)).size) if chunks else 0)
        n_occ.append(int(sum(int(pl[1].sum()) for pl in posts)))
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "n_matching_terms": pa.array(n_terms, type=pa.int64()),
            "n_docs": pa.array(n_docs, type=pa.int64()),
            "n_occurrences": pa.array(n_occ, type=pa.int64()),
        }
    )


class FuzzyCountExecutor:
    """Query stage: (query_id, pattern, k) -> term-level fuzzy stats.

    Output per query: ``n_matching_terms`` (distinct dictionary terms within
    distance k), ``n_docs`` (distinct docs containing any matched term),
    ``n_occurrences`` (total token occurrences = sum of matched terms' cf).
    """

    def __init__(self, index_dir: str | IndexView):
        self.view = as_view(index_dir)
        self.expander = self.view.dictionary()
        from distributed_text_search_ray.functions.tokenize import Tokenizer

        self.tokenizer = Tokenizer(self.view.cfg.analyzer)

    def __call__(self, batch: pa.Table) -> pa.Table:
        expanded = self.expander.expand_many(_first_tokens(self.tokenizer, batch))
        expansions = [idx for idx, _ in expanded]
        return _live_term_stats(
            self.view, self.expander, batch.column("query_id").to_pylist(), expansions
        )


def fuzzy_term_search(
    index_dir: str,
    patterns: Iterable[tuple[int, str, int]],
) -> ray.data.Dataset:
    """Term-level fuzzy stats for (query_id, pattern, k) triples."""
    return index_stage(
        _pattern_rows(patterns), FuzzyCountExecutor, index_dir, batch_size=64,
    )


class FuzzyTopkExecutor(QueryExecutor):
    """BM25 over the OR of the fuzzy-expanded term set (scale path for the
    reference's approximate matching: index lookup instead of a corpus scan)."""

    def __init__(self, index_dir: str, topk: int = 10, transpositions: bool = False):
        super().__init__(index_dir, topk=topk)
        self.expander = self.view.dictionary()
        self.transpositions = transpositions

    def __call__(self, batch: pa.Table) -> pa.Table:
        # the whole batch expands in one pass; rank() takes the rows' term
        # sets in row order
        self._expanded = iter(
            self.expander.expand_many(
                _first_tokens(self.tokenizer, batch), transpositions=self.transpositions
            )
        )
        return super().__call__(batch)

    def rank(self, row: dict) -> tuple[np.ndarray, np.ndarray]:
        idxs, _ = next(self._expanded)
        return self._score_taat(sorted(self.expander.term_at(i) for i in idxs), self.topk)


class SuggestExecutor:
    """Query stage: (query_id, pattern, k) -> "did you mean" row.

    Candidates = dictionary terms within Levenshtein distance k (banded
    scan, the fuzzy machinery); suggestion = the candidate with the highest
    document frequency (tie: term asc) — the standard df-ranked speller.
    Patterns with no candidate emit no row."""

    def __init__(self, index_dir: str | IndexView):
        self.expander = as_view(index_dir).dictionary()

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_q, out_p, out_s, out_df, out_d = [], [], [], [], []
        exp = self.expander
        patterns = batch.column("pattern").to_pylist()
        expanded = exp.expand_many(zip(patterns, batch.column("k").to_pylist()))
        for qid, pattern, (idx, dists) in zip(
            batch.column("query_id").to_pylist(), patterns, expanded
        ):
            if not idx.size:
                continue
            terms = exp.terms.take(pa.array(idx)).to_pylist()
            dfs = exp.df[idx]
            best = min(range(len(terms)), key=lambda i: (-int(dfs[i]), terms[i]))
            out_q.append(int(qid))
            out_p.append(pattern)
            out_s.append(terms[best])
            out_df.append(int(dfs[best]))
            out_d.append(int(dists[best]))
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "pattern": pa.array(out_p, type=pa.string()),
                "suggestion": pa.array(out_s, type=pa.string()),
                "df": pa.array(out_df, type=pa.int64()),
                "distance": pa.array(out_d, type=pa.int64()),
            }
        )


class PhraseSuggestExecutor:
    """Phrase-level "did you mean": every token of the phrase is corrected
    independently to the best dictionary term within Levenshtein distance
    ``k`` — best = (distance asc, df desc, term asc), so an exact
    dictionary hit always keeps itself and a typo lands on the most
    frequent nearby term. Tokens with no candidate pass through unchanged.
    Output (query_id, phrase, suggestion, n_corrected)."""

    def __init__(self, index_dir: str | IndexView, k: int = 1):
        from distributed_text_search_ray.functions.tokenize import Tokenizer

        view = as_view(index_dir)
        self.expander = view.dictionary()
        self.k = int(k)
        self.tokenizer = Tokenizer(view.cfg.analyzer)

    def _best(self, token: str) -> str | None:
        """The best correction of one token, or None if it has none."""
        return self._best_of([token])[token]

    def _best_of(self, tokens: Iterable[str]) -> dict[str, str | None]:
        """Each distinct token's best correction (None if it has none),
        all of them expanded in one pass."""
        uniq = sorted(set(tokens))
        out: dict[str, str | None] = {}
        for t, (idx, dists) in zip(uniq, self.expander.expand_many((t, self.k) for t in uniq)):
            if not idx.size:
                out[t] = None
                continue
            cand = self.expander.terms.take(pa.array(idx)).to_pylist()
            dfs = self.expander.df[idx]
            best = min(
                range(len(idx)), key=lambda i: (int(dists[i]), -int(dfs[i]), cand[i])
            )
            out[t] = cand[best]
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_q, out_p, out_s, out_n = [], [], [], []
        phrases = batch.column("phrase").to_pylist()
        toks = [self.tokenizer.tokens(phrase) for phrase in phrases]
        best = self._best_of(t for ts in toks for t in ts)
        for qid, phrase, ts in zip(batch.column("query_id").to_pylist(), phrases, toks):
            fixed, n_corr = [], 0
            for t in ts:
                b = best[t]
                if b is None:
                    fixed.append(t)
                else:
                    if b != t:
                        n_corr += 1
                    fixed.append(b)
            out_q.append(int(qid))
            out_p.append(phrase)
            out_s.append(" ".join(fixed))
            out_n.append(n_corr)
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "phrase": pa.array(out_p, type=pa.string()),
                "suggestion": pa.array(out_s, type=pa.string()),
                "n_corrected": pa.array(out_n, type=pa.int64()),
            }
        )


def suggest_phrases(
    index_dir: str,
    phrases: Iterable[tuple[int, str]],
    k: int = 1,
) -> ray.data.Dataset:
    """Phrase-level spelling suggestions (per-token df-ranked correction
    within Levenshtein ``k``) — see ``PhraseSuggestExecutor``."""
    return index_stage(
        query_rows(phrases, ("phrase",)), PhraseSuggestExecutor, index_dir,
        batch_size=64, k=k,
    )


def suggest_terms(
    index_dir: str,
    patterns: Iterable[tuple[int, str, int]],
) -> ray.data.Dataset:
    """Spelling suggestions over the index dictionary:
    (query_id, pattern, suggestion, df, distance)."""
    return index_stage(
        _pattern_rows(patterns), SuggestExecutor, index_dir, batch_size=64,
    )


class KeywordExecutor:
    """Query stage: (doc_id, content) -> top-k tf*idf keyword rows.

    The global dictionary (term -> df) loads once per task (vocabulary is
    the broadcast small side — the standard design for corpus-wide keyword
    extraction; at extreme vocabularies shard the dictionary by term hash
    and route, as the query executors do). Scoring uses scalar ``math.log``
    per term so ranking ties break identically to the SQL oracle."""

    def __init__(self, index_dir: str | IndexView, k: int = 3):
        from distributed_text_search_ray.functions.tokenize import Tokenizer

        view = as_view(index_dir)
        exp = view.dictionary()
        self.df = dict(zip(exp.terms.to_pylist(), exp.df.tolist()))
        self.N = view.N
        self.k = k
        self.tokenizer = Tokenizer(view.cfg.analyzer)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import math

        out_d, out_r, out_t, out_s = [], [], [], []
        for doc_id, content in zip(
            batch.column("doc_id").to_pylist(), batch.column("content").to_pylist()
        ):
            tf: dict[str, int] = {}
            for t in self.tokenizer.tokens(content):
                tf[t] = tf.get(t, 0) + 1
            scored = []
            for t, f in tf.items():
                df = self.df.get(t, 0)
                if df:
                    scored.append(
                        (-f * math.log(1.0 + (self.N - df + 0.5) / (df + 0.5)), t)
                    )
            scored.sort()
            for r, (neg, t) in enumerate(scored[: self.k], start=1):
                out_d.append(doc_id)
                out_r.append(r)
                out_t.append(t)
                out_s.append(round_half_away(-neg, 6))
        return pa.table(
            {
                "doc_id": pa.array(out_d, type=pa.int64()),
                "rank": pa.array(out_r, type=pa.int64()),
                "term": pa.array(out_t, type=pa.string()),
                "score": pa.array(out_s, type=pa.float64()),
            }
        )


def extract_keywords(
    index_dir: str,
    docs: ray.data.Dataset,
    k: int = 3,
) -> ray.data.Dataset:
    """Top-k tf*idf keywords per document: (doc_id, rank, term, score)."""
    # batch_size=None: whole blocks, Ray Data's own map_batches default
    return index_stage(docs, KeywordExecutor, index_dir, batch_size=None, k=k)


class MoreLikeThisExecutor(QueryExecutor):
    """Query stage: (src_doc_id, content) rows -> top-k similar docs.

    Characteristic terms of the source doc = top ``top_terms`` by
    tf * idf(global df) — scalar ``math.log`` per term so selection ties
    break identically to the SQL oracle's ``ln`` (np.log can differ by an
    ulp) — then scored as an OR query with the standard exact TAAT path,
    the source doc itself excluded."""

    ID_COLUMN = "src_doc_id"

    def __init__(self, index_dir: str, top_terms: int = 5, topk: int = 5):
        super().__init__(index_dir, topk=topk, mode="taat")
        self.top_terms = top_terms

    def rank(self, row: dict) -> tuple[np.ndarray, np.ndarray]:
        import math

        tf: dict[str, int] = {}
        for t in self.tokenizer.tokens(row["content"]):
            tf[t] = tf.get(t, 0) + 1
        scored = []
        for t, f in tf.items():
            df = self.view.term_df(t)
            if df:
                scored.append((-f * math.log(1.0 + (self.view.N - df + 0.5) / (df + 0.5)), t))
        scored.sort()
        terms = sorted(t for _, t in scored[: self.top_terms])
        docs, scores = self._score_taat(terms, self.topk + 1)
        keep = docs != row["src_doc_id"]
        return docs[keep][: self.topk], scores[keep][: self.topk]


def more_like_this(
    index_dir: str,
    docs: ray.data.Dataset,
    doc_ids: Iterable[int],
    top_terms: int = 5,
    topk: int = 5,
) -> ray.data.Dataset:
    """Similar-document retrieval: for each source doc, BM25 top-k over its
    ``top_terms`` highest-tf*idf terms (source excluded). The source docs'
    content is fetched with a broadcast semi-join filter (tiny id set)."""
    import pyarrow.compute as pc

    ids = pa.array(sorted(set(int(d) for d in doc_ids)), type=pa.int64())

    def pick_sources(t: pa.Table) -> pa.Table:
        hit = t.filter(pc.is_in(t.column("doc_id"), value_set=ids))
        return pa.table(
            {"src_doc_id": hit.column("doc_id"), "content": hit.column("content")}
        )

    src = docs.map_batches(pick_sources, batch_format="pyarrow")
    return index_stage(
        src, MoreLikeThisExecutor, index_dir,
        top_terms=top_terms, topk=topk,
    )


def attach_snippets(
    docs: ray.data.Dataset,
    topk_rows: pa.Table,
    queries: Iterable[tuple[int, str]],
    analyzer=None,
    before: int = 30,
    length: int = 80,
) -> ray.data.Dataset:
    """Top-k results joined back to content with a context snippet.

    For each (query_id, rank, doc_id) result row: take the query's distinct
    terms in ascending order, find the first one occurring as a substring of
    ``lower(content)`` (every scored doc contains at least one query term as
    a token, and tokens are substrings of the lowercased text), and cut the
    ``length``-char window starting ``before`` chars earlier. Substring (not
    token-boundary) matching on purpose — it is exactly expressible in SQL
    (strpos/substring are character-based in DuckDB, matching Python
    slicing), so the whole operator is oracle-checkable.

    The result table is the broadcast small side (top-k rows); content flows
    through a single ``map_batches`` semi-join filter — no shuffle."""
    from distributed_text_search_ray.config import AnalyzerConfig
    from distributed_text_search_ray.functions.tokenize import Tokenizer

    tk = Tokenizer(analyzer or AnalyzerConfig())
    qterms = {int(q): sorted(set(tk.tokens(s))) for q, s in queries}
    by_doc: dict[int, list[tuple[int, int]]] = {}
    for qid, rank, doc in zip(
        topk_rows.column("query_id").to_pylist(),
        topk_rows.column("rank").to_pylist(),
        topk_rows.column("doc_id").to_pylist(),
    ):
        by_doc.setdefault(int(doc), []).append((int(qid), int(rank)))
    ids = pa.array(sorted(by_doc), type=pa.int64())

    def snip(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sub = batch.filter(pc.is_in(batch.column("doc_id"), value_set=ids))
        out_q, out_r, out_d, out_s = [], [], [], []
        for doc, text in zip(
            sub.column("doc_id").to_pylist(), sub.column("content").to_pylist()
        ):
            # same simple-lowercase fixup as the analyzer (U+0130): Python's
            # full mapping would lengthen the string and shift every offset
            # after a dotted capital I relative to SQL lower()/strpos
            low = text.translate({0x0130: "i"}).lower()
            for qid, rank in by_doc[doc]:
                start = 0
                for t in qterms[qid]:
                    pos = low.find(t)
                    if pos >= 0:
                        start = max(0, pos - before)
                        break
                out_q.append(qid)
                out_r.append(rank)
                out_d.append(doc)
                out_s.append(text[start : start + length])
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "rank": pa.array(out_r, type=pa.int64()),
                "doc_id": pa.array(out_d, type=pa.int64()),
                "snippet": pa.array(out_s, type=pa.string()),
            }
        )

    return docs.map_batches(snip, batch_format="pyarrow")


class _MaskedView:
    """IndexView proxy masking every posting list with a sorted doc-id set
    (membership via searchsorted): ``keep=True`` keeps only the set's docs
    (filtered search), ``keep=False`` drops them (``must_not``). Global
    stats (N, avgdl, df) stay untouched, so a surviving doc's score is
    bit-identical to its unrestricted score — the unrestricted ranking
    restricted to the surviving docs, the standard engine semantics (ES
    ``bool`` filter / must_not) and what the SQL oracle computes. Wraps
    only what the TAAT scorers touch."""

    def __init__(self, view, ids_sorted: np.ndarray, keep: bool):
        self._view = view
        self._ids = ids_sorted
        self._keep = keep

    def __getattr__(self, name):
        return getattr(self._view, name)

    def _live(self, docs: np.ndarray) -> np.ndarray:
        """Mask of the ``docs`` the view lets through."""
        if len(self._ids):
            pos = np.minimum(np.searchsorted(self._ids, docs), len(self._ids) - 1)
            hit = self._ids[pos] == docs
        else:
            hit = np.zeros(len(docs), dtype=bool)
        return hit if self._keep else ~hit

    def term_postings(self, term: str):
        docs, tfs, dls, df = self._view.term_postings(term)
        keep = self._live(docs)
        return docs[keep], tfs[keep], dls[keep], df

    def term_contribs(self, term: str):
        """The base view's cached contributions, masked (left to
        ``__getattr__``, the unmasked ones would leak through)."""
        docs, contrib = self._view.term_contribs(term)
        keep = self._live(docs)
        return docs[keep], contrib[keep]

    def term_dense(self, term: str):
        """Always the masked sparse contributions: the base view's dense
        vector holds the docs the mask drops."""
        return self.term_contribs(term)


def _attribute_tables(index_dir: str, attr: str) -> list[pa.Table]:
    """(doc_id, ``attr``) of every attributes/ sidecar shard that has the
    column (written when ``IndexConfig.attribute_columns`` is set). A shard
    without the column (it had no such attribute) is skipped, so its docs
    never pass an attribute filter. Raises if the index has no sidecar."""
    import glob as _glob

    attr_dir = os.path.join(index_dir, "attributes")
    files = sorted(_glob.glob(os.path.join(attr_dir, "*.attrs.parquet")))
    if not files:
        raise FileNotFoundError(
            f"no attribute sidecar under {attr_dir}; build with "
            f"IndexConfig(attribute_columns=({attr!r},))"
        )
    return [
        pq.read_table(f, columns=["doc_id", attr])
        for f in files
        if attr in pq.read_schema(f).names
    ]


def _attribute_ids(index_dir: str, attr: str, predicate) -> np.ndarray:
    """Sorted doc ids whose ``attr`` value passes ``predicate`` (an Arrow
    column -> boolean mask function)."""
    chunks = [
        t.filter(predicate(t.column(attr))).column("doc_id").to_numpy()
        for t in _attribute_tables(index_dir, attr)
    ]
    return np.sort(np.concatenate(chunks)) if chunks else np.empty(0, np.int64)


def load_attribute_ids(index_dir: str, attr: str, value: str) -> np.ndarray:
    """Sorted doc ids whose build-time attribute equals ``value`` (from the
    attributes/ sidecar written when ``IndexConfig.attribute_columns`` is
    set). At 10^12 docs this per-value array wants range-partitioned storage
    (load only the ranges overlapping the postings being scored) — the
    sidecar files are already per-shard, so that refinement is a reader
    change, not a format change."""
    return _attribute_ids(index_dir, attr, lambda col: pc.equal(col, value))


class FilteredQueryExecutor(QueryExecutor):
    """Query stage: top-k BM25 restricted to docs whose sidecar
    attribute matches. The allowed-id array loads once per task."""

    def __init__(self, index_dir: str, attr: str, value: str, topk: int = 10, mode: str = "maxscore"):
        self._restrict(
            index_dir, topk, mode, lambda ex: load_attribute_ids(ex.view.index_dir, attr, value)
        )

    def _restrict(self, index_dir, topk: int, mode: str, allowed) -> None:
        """The filtered executors' one constructor: a taat/maxscore executor
        whose view keeps only the sorted doc ids ``allowed(self)`` returns."""
        if mode == "wand":
            raise ValueError("filtered search supports taat/maxscore modes")
        QueryExecutor.__init__(self, index_dir, topk=topk, mode=mode)
        self.view = _MaskedView(self.view, allowed(self), keep=True)


def search_topk_filtered(
    index_dir: str,
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    attr: str,
    value: str,
    topk: int = 10,
    mode: str = "maxscore",
) -> ray.data.Dataset:
    """Top-k BM25 over only the docs whose ``attr`` equals ``value``
    (e.g. lang="py"). Scores equal the unfiltered scores of the same docs;
    ranking is the unfiltered ranking restricted to the allowed set."""
    return index_stage(
        query_rows(queries), FilteredQueryExecutor, index_dir,
        attr=attr, value=value, topk=topk, mode=mode,
    )


def fetch_docs(
    corpus_path: str, doc_ids: Iterable[int], columns: list[str] | None = None
) -> ray.data.Dataset:
    """Retrieve document rows for a set of result doc ids (the join back from
    search results to content): broadcast the small id set, vectorized filter
    per batch — no shuffle."""
    import pyarrow.compute as pc

    from distributed_text_search_ray.sources.corpus import read_corpus

    ids = pa.array(sorted(set(int(d) for d in doc_ids)), type=pa.int64())
    ds = read_corpus(corpus_path, columns=columns)
    return ds.map_batches(
        lambda t: t.filter(pc.is_in(t.column("doc_id"), value_set=ids)),
        batch_format="pyarrow",
    )


def fuzzy_search_topk(
    index_dir: str,
    patterns: Iterable[tuple[int, str, int]],
    topk: int = 10,
    transpositions: bool = False,
) -> ray.data.Dataset:
    """BM25 over the fuzzy-expanded term set of each (query_id, pattern, k).
    ``transpositions=True`` expands with OSA distance (adjacent swap = one
    edit — the Lucene/Elasticsearch ``fuzziness`` semantics) instead of
    classic Levenshtein: 'sprak' reaches 'spark' at k=1."""
    return index_stage(
        _pattern_rows(patterns), FuzzyTopkExecutor, index_dir, batch_size=64,
        topk=topk, transpositions=transpositions,
    )


def prefix_term_search(
    index_dir: str,
    prefixes: Iterable[tuple[int, str]],
) -> ray.data.Dataset:
    """Wildcard ``prefix*`` term stats for (query_id, prefix) pairs."""
    return index_stage(
        query_rows(prefixes, ("prefix",)), ExpansionCountExecutor, index_dir,
        batch_size=64, kind="prefix",
    )


def wildcard_to_like(pattern: str) -> str:
    """GENERAL wildcard pattern -> SQL LIKE pattern (the shared contract
    between the engine and its DuckDB twin, verified char-for-char:
    ``pc.match_like`` and ``LIKE ... ESCAPE '\\'`` agree on every case).

    ``*`` matches any run (-> ``%``), ``?`` matches one char (-> ``_``);
    literal ``%`` ``_`` ``\\`` in the input are backslash-escaped so code
    tokens like ``data_1`` match literally. The pattern is lowercased to
    match the analyzer's term space."""
    out = []
    for ch in pattern.lower():
        if ch == "*":
            out.append("%")
        elif ch == "?":
            out.append("_")
        elif ch in "%_\\":
            out.append("\\" + ch)
        else:
            out.append(ch)
    return "".join(out)


def wildcard_term_search(
    index_dir: str,
    patterns: Iterable[tuple[int, str]],
) -> ray.data.Dataset:
    """General wildcard (``*``/``?``) term stats for (query_id, pattern)."""
    return index_stage(
        query_rows(patterns, ("prefix",)), ExpansionCountExecutor, index_dir,
        batch_size=64, kind="wildcard",
    )


def wildcard_topk_search(
    index_dir: str,
    patterns: Iterable[tuple[int, str]],
    topk: int = 10,
) -> ray.data.Dataset:
    """Ranked retrieval over the wildcard-expanded term set."""
    return index_stage(
        query_rows(patterns, ("prefix",)), ExpansionTopkExecutor, index_dir,
        batch_size=64, kind="wildcard", topk=topk,
    )


def regexp_anchor(pattern: str) -> str:
    """Regexp term query pattern -> anchored RE2 pattern (the shared
    contract between the engine and its DuckDB twin).

    Lucene-RegexpQuery semantics: the pattern must match the ENTIRE term.
    Arrow's ``pc.match_substring_regex`` is substring-match, so the pattern
    is wrapped ``^(?:...)$`` (the non-capturing group keeps top-level
    alternation inside the anchors); DuckDB's ``regexp_full_match`` is
    whole-string by definition and needs no wrapping. Both run RE2, so
    expansion is same-engine exact — no dialect-translation step like
    ``wildcard_to_like``. Lowercased to match the analyzer's term space."""
    return "^(?:" + pattern.lower() + ")$"


# kind -> (normalize(tokenizer, raw pattern), Arrow string-match kernel)
_EXPANSIONS = {
    "prefix": (_first_token, pc.starts_with),
    "wildcard": (lambda tok, raw: wildcard_to_like(raw), pc.match_like),
    "regexp": (lambda tok, raw: regexp_anchor(raw), pc.match_substring_regex),
}


def _expand_pattern(kind: str, tokenizer, expander, raw: str) -> np.ndarray:
    """Dictionary indices of the terms the ``kind`` pattern ``raw`` matches."""
    normalize, match = _EXPANSIONS[kind]
    mask = match(expander.terms, normalize(tokenizer, raw))
    return np.flatnonzero(mask.to_numpy(zero_copy_only=False))


class ExpansionCountExecutor:
    """Query stage: (query_id, prefix) -> term stats of the pattern's
    dictionary expansion — the classic fulltext prefix (``prefix*``),
    general ``*``/``?`` wildcard and whole-term regexp (Lucene RegexpQuery)
    term queries, answered purely from the dictionary + postings (no content
    scan). ``kind`` picks the row of ``_EXPANSIONS``.

    Output per query mirrors ``FuzzyCountExecutor``: ``n_matching_terms``,
    ``n_docs`` (distinct docs containing any matched term),
    ``n_occurrences`` (sum of matched terms' live tf).

    Expansion is one vectorized Arrow match (``pc.starts_with`` /
    ``pc.match_like`` / ``pc.match_substring_regex``) over the dictionary's
    Arrow string array (loaded once per worker and index generation). The
    per-partition dictionaries concatenate unsorted, so a searchsorted range
    scan would need a one-time global sort; at any vocabulary that fits a
    worker the zero-copy vectorized scan is simpler and just as bounded —
    both are O(V) resident either way.
    """

    def __init__(self, index_dir: str | IndexView, kind: str):
        from distributed_text_search_ray.functions.tokenize import Tokenizer

        self.view = as_view(index_dir)
        self.expander = self.view.dictionary()
        self.tokenizer = Tokenizer(self.view.cfg.analyzer)
        self.kind = kind

    def __call__(self, batch: pa.Table) -> pa.Table:
        expansions = [
            _expand_pattern(self.kind, self.tokenizer, self.expander, raw)
            for raw in batch.column("prefix").to_pylist()
        ]
        return _live_term_stats(
            self.view, self.expander, batch.column("query_id").to_pylist(), expansions
        )


class ExpansionTopkExecutor(QueryExecutor):
    """BM25 over the OR of a prefix / wildcard / regexp pattern's expanded
    term set (ranked wildcard retrieval: every doc containing any matched
    term). Same exhaustive TAAT scorer as ``FuzzyTopkExecutor`` and
    ``SynonymTopkExecutor`` — expansion differs, scoring is shared, so every
    expansion flavor stays bit-comparable under one oracle formula."""

    def __init__(self, index_dir: str, kind: str, topk: int = 10):
        super().__init__(index_dir, topk=topk)
        self.expander = self.view.dictionary()
        self.kind = kind

    def rank(self, row: dict) -> tuple[np.ndarray, np.ndarray]:
        idxs = _expand_pattern(self.kind, self.tokenizer, self.expander, row["prefix"])
        return self._score_taat(sorted(self.expander.term_at(i) for i in idxs), self.topk)


def regexp_term_search(
    index_dir: str,
    patterns: Iterable[tuple[int, str]],
) -> ray.data.Dataset:
    """Whole-term regexp term stats for (query_id, pattern) pairs."""
    return index_stage(
        query_rows(patterns, ("prefix",)), ExpansionCountExecutor, index_dir,
        batch_size=64, kind="regexp",
    )


def regexp_topk_search(
    index_dir: str,
    patterns: Iterable[tuple[int, str]],
    topk: int = 10,
) -> ray.data.Dataset:
    """Ranked retrieval over the regexp-expanded term set."""
    return index_stage(
        query_rows(patterns, ("prefix",)), ExpansionTopkExecutor, index_dir,
        kind="regexp", topk=topk,
    )


def prefix_search_topk(
    index_dir: str,
    prefixes: Iterable[tuple[int, str]],
    topk: int = 10,
) -> ray.data.Dataset:
    """Ranked wildcard retrieval: top-k BM25 over each prefix's term set."""
    return index_stage(
        query_rows(prefixes, ("prefix",)), ExpansionTopkExecutor, index_dir,
        kind="prefix", topk=topk,
    )


class SynonymTopkExecutor(QueryExecutor):
    """BM25 over the query's terms UNION their configured synonyms — the
    classic query-time synonym expansion. The synonym map ships with the
    stage (Ray serializes it once per call; every task reads the same copy
    — broadcast, never per-batch).
    Expansion happens at QUERY time only, so the index needs no rebuild
    when the map changes (the index-time alternative would bake synonyms
    into postings). Unknown synonym terms contribute nothing, exactly like
    unknown query terms."""

    def __init__(self, index_dir: str, synonyms: dict[str, list[str]], topk: int = 10):
        super().__init__(index_dir, topk=topk)
        self.synonyms = {k: list(v) for k, v in synonyms.items()}

    def rank(self, row: dict) -> tuple[np.ndarray, np.ndarray]:
        toks = self.tokenizer.tokens(row["query"])
        expanded = set(toks)
        for t in toks:
            expanded.update(self.synonyms.get(t, ()))
        return self._score_taat(sorted(expanded), self.topk)


def search_topk_synonyms(
    index_dir: str,
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    synonyms: dict[str, list[str]],
    topk: int = 10,
) -> ray.data.Dataset:
    """Top-k BM25 with query-time synonym expansion."""
    return index_stage(
        query_rows(queries), SynonymTopkExecutor, index_dir,
        synonyms=synonyms, topk=topk,
    )


class BooleanFilteredQueryExecutor(FilteredQueryExecutor):
    """Query stage: top-k BM25 restricted to docs matching a BOOLEAN
    filter query — Lucene's filter-query semantics (the filter gates, the
    ranked query scores; filter terms contribute nothing to the score).
    The filter evaluates ONCE per task in ``__init__`` (posting-list set
    algebra, rarest-first) and becomes a masked view's allowed set, so
    per-batch work is identical to attribute-filtered search."""

    def __init__(self, index_dir: str, filter_query: str, topk: int = 10, mode: str = "maxscore"):
        self._restrict(index_dir, topk, mode, lambda ex: _boolean_filter_ids(ex, filter_query))


def _boolean_filter_ids(ex: QueryExecutor, filter_query: str) -> np.ndarray:
    """Sorted ids of the docs of ``ex``'s view that match ``filter_query``."""
    from distributed_text_search_ray.pipelines.boolquery import (
        _BooleanExecutor,
        parse_boolean_query,
    )

    be = _BooleanExecutor.__new__(_BooleanExecutor)
    be.view = ex.view
    be.tokenizer = ex.tokenizer
    groups = parse_boolean_query(filter_query)
    acc = be._eval_conj(groups[0])
    for g in groups[1:]:
        acc = np.union1d(acc, be._eval_conj(g))
    return np.sort(acc)


def search_topk_boolean_filtered(
    index_dir: str,
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    filter_query: str,
    topk: int = 10,
    mode: str = "maxscore",
) -> ray.data.Dataset:
    """Top-k BM25 over only the docs matching ``filter_query`` (AND/OR/
    AND-NOT grammar). Scores equal the unfiltered scores of the same docs."""
    return index_stage(
        query_rows(queries), BooleanFilteredQueryExecutor, index_dir,
        filter_query=filter_query, topk=topk, mode=mode,
    )


def hybrid_search_topk(
    index_dir: str,
    docs: ray.data.Dataset,
    queries: Iterable[tuple[int, str]],
    k: int = 10,
    fetch_k: int | None = None,
    dim: int = 16,
    rrf_k: int = 60,
    vectors: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Hybrid sparse+dense retrieval with Reciprocal Rank Fusion:
    ``rrf(d) = 1/(rrf_k + rank_bm25(d)) + 1/(rrf_k + rank_cosine(d))``
    over each side's top ``fetch_k`` (default 4k) candidates, missing side
    contributing nothing — the standard RRF formulation (Cormack et al.).

    Determinism contract (what makes the fusion SQL-oracle-checkable):
    BOTH input rankings order by their score ROUNDED to 6 dp, descending,
    ties by doc_id ascending — the dense side already ranks that way
    (``_merge_topk_factory``); the sparse side fetches ``2 * fetch_k`` raw
    candidates and re-ranks them rounded before the cut. If the rounded
    score at the cut still equals the LOWEST rounded score in a full
    buffer — meaning docs beyond the raw fetch could round-tie into the
    top ``fetch_k`` with a doc_id win — the fetch escalates (x4) until the
    boundary tier is fully inside the buffer or the query's posting list
    is exhausted, so an ulp-level score difference between two float
    summation orders can never flip a fused rank (a corpus where more
    than ``fetch_k`` docs share one 6-dp score tier at the cut pays the
    escalated fetches; anything else takes one).

    The dense side needs no model: documents AND queries embed through the
    deterministic feature-hashing vectorizer (``textstats.hash_slot``
    scheme) USING THE INDEX'S ANALYZER, so both sides rank over the same
    token space (a stemmed/stop-filtered index stems/stops its dense side
    too). Both sides are the engine's existing distributed primitives (the
    BM25 ``search_topk`` task stage; broadcast-query cosine top-k); only the
    q x fetch_k fused candidate lists reach the driver.

    Pass ``vectors`` (any (vec_id, embedding) Dataset, e.g. a persisted
    ``hashed_doc_vectors`` output) to skip the per-call corpus
    vectorization — the right shape for query-heavy workloads (the 1.15M-doc
    spot-check spends most of its 31 s re-vectorizing).

    Output: (query_id, rank, doc_id, rrf) with rrf rounded to 6 dp,
    ties by doc_id ascending.
    """
    from distributed_text_search_ray.pipelines.ann import ann_brute_topk
    from distributed_text_search_ray.pipelines.textstats import (
        hashed_doc_vectors,
        hashed_text_vector,
    )

    qlist = [(int(q), str(t)) for q, t in queries]
    m = fetch_k or 4 * k
    analyzer = IndexView(index_dir).cfg.analyzer

    # fetch 2m raw, re-rank by (round(score, 6) desc, doc_id asc), cut to m;
    # escalate the fetch while a FULL buffer's boundary rounded tier reaches
    # its end (docs past the raw cut could round-tie in) — see the
    # determinism contract in the docstring. Escalation is PER QUERY: only
    # the queries whose boundary tier is still unresolved re-fetch, so one
    # degenerate query (a huge rounded tie tier) does not re-run the whole
    # batch at 4x.
    def _tier_unresolved(lst: list[tuple[float, int]], fetch: int) -> bool:
        return (
            len(lst) == fetch
            and len(lst) > m
            and sorted(lst, key=lambda t: (-t[0], t[1]))[m - 1][0]
            == min(s for s, _ in lst)
        )

    sparse_by_q: dict[int, list[tuple[float, int]]] = {}
    pending = qlist
    fetch = 2 * m
    while pending:
        sparse_raw = search_topk(index_dir, pending, topk=fetch).take_all()
        got: dict[int, list[tuple[float, int]]] = {qid: [] for qid, _ in pending}
        for r in sparse_raw:
            got[int(r["query_id"])].append(
                (float(round_half_away(np.float64(r["score"]), 6)), int(r["doc_id"]))
            )
        sparse_by_q.update(got)
        pending = [
            (qid, text) for qid, text in pending if _tier_unresolved(got[qid], fetch)
        ]
        fetch *= 4
    sparse = []
    for qid, lst in sparse_by_q.items():
        ranked = sorted(lst, key=lambda t: (-t[0], t[1]))[:m]
        for rank, (_s, doc) in enumerate(ranked, start=1):
            sparse.append({"query_id": qid, "doc_id": doc, "rank": rank})

    qvecs = []
    for qid, text in qlist:
        v = hashed_text_vector(text, dim=dim, analyzer=analyzer)
        if np.linalg.norm(v) > 0:
            qvecs.append((qid, v.tolist()))
    vecs = vectors if vectors is not None else hashed_doc_vectors(docs, dim=dim, analyzer=analyzer)
    dense = (
        ann_brute_topk(vecs, qvecs, k=m, exclude_self=False).take_all() if qvecs else []
    )

    scores: dict[tuple[int, int], float] = {}
    for r in sparse:
        key = (int(r["query_id"]), int(r["doc_id"]))
        scores[key] = scores.get(key, 0.0) + 1.0 / (rrf_k + int(r["rank"]))
    for r in dense:
        key = (int(r["query_vec_id"]), int(r["vec_id"]))
        scores[key] = scores.get(key, 0.0) + 1.0 / (rrf_k + int(r["rank"]))

    out_q, out_r, out_d, out_s = [], [], [], []
    by_q: dict[int, list[tuple[int, float]]] = {}
    for (qid, doc), s in scores.items():
        by_q.setdefault(qid, []).append((doc, round_half_away(np.float64(s), 6)))
    for qid in sorted(by_q):
        ranked = sorted(by_q[qid], key=lambda t: (-t[1], t[0]))[:k]
        for rank, (doc, s) in enumerate(ranked, start=1):
            out_q.append(qid)
            out_r.append(rank)
            out_d.append(doc)
            out_s.append(float(s))
    return ray.data.from_arrow(
        pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "rank": pa.array(out_r, type=pa.int64()),
                "doc_id": pa.array(out_d, type=pa.int64()),
                "rrf": pa.array(out_s, type=pa.float64()),
            }
        )
    )


def explain_score(
    index_dir: str, query: str, doc_id: int
) -> dict:
    """Per-term BM25 score breakdown for one (query, doc) — the engine's
    ``explain`` API: for each analyzed query term, (tf, df, idf, tf_part,
    contribution), plus the total and the doc stats used. Answered from
    the index alone (no content read); terms absent from the doc list a
    zero contribution so the decomposition always sums to the score.
    Tombstoned docs explain as score 0 with ``deleted: True``.
    """
    from distributed_text_search_ray.functions import bm25

    view = IndexView(index_dir)
    from distributed_text_search_ray.functions.tokenize import Tokenizer

    tk = Tokenizer(view.cfg.analyzer)
    terms = sorted(set(tk.tokens(query)))
    deleted = bool(len(view.deleted)) and bool(
        np.any(view.deleted == np.int64(doc_id))
    )
    out_terms = []
    total = 0.0
    dl_seen = None
    for t in terms:
        docs, tfs, dls, df = view.term_postings(t)
        pos = np.searchsorted(docs, doc_id)
        hit = pos < len(docs) and docs[pos] == doc_id
        tf = int(tfs[pos]) if hit else 0
        if hit:
            dl_seen = int(dls[pos])
        idf = bm25.idf(view.N, df) if df else 0.0
        part = (
            float(
                bm25.tf_part(
                    np.array([tf], dtype=np.float64),
                    np.array([dl_seen], dtype=np.float64),
                    view.avgdl,
                    view.cfg.bm25_k1,
                    view.cfg.bm25_b,
                )[0]
            )
            if hit
            else 0.0
        )
        contrib = idf * part
        total += contrib
        out_terms.append(
            {
                "term": t,
                "tf": tf,
                "df": int(df),
                "idf": idf,
                "tf_part": part,
                "contribution": contrib,
            }
        )
    return {
        "query": query,
        "doc_id": int(doc_id),
        "deleted": deleted,
        "N": view.N,
        "avgdl": view.avgdl,
        "doc_len": dl_seen,
        "terms": out_terms,
        "score": 0.0 if deleted else total,
    }


def load_attribute_ids_range(
    index_dir: str, attr: str, lo: float | None = None, hi: float | None = None
) -> np.ndarray:
    """Sorted doc ids whose NUMERIC build-time attribute lies in
    [lo, hi] (either bound optional) — the range-filter twin of
    ``load_attribute_ids``; same per-shard sidecar, vectorized compare."""

    def in_range(col):
        mask = pc.is_valid(col)
        if lo is not None:
            mask = pc.and_(mask, pc.greater_equal(col, lo))
        if hi is not None:
            mask = pc.and_(mask, pc.less_equal(col, hi))
        return mask

    return _attribute_ids(index_dir, attr, in_range)


class RangeFilteredQueryExecutor(FilteredQueryExecutor):
    """Top-k BM25 restricted to docs whose numeric sidecar attribute lies in
    [lo, hi] — the range-filter counterpart of ``FilteredQueryExecutor``
    (same masked-view semantics: global stats, restricted ranking)."""

    def __init__(
        self,
        index_dir: str,
        attr: str,
        lo: float | None = None,
        hi: float | None = None,
        topk: int = 10,
        mode: str = "maxscore",
    ):
        self._restrict(
            index_dir, topk, mode,
            lambda ex: load_attribute_ids_range(ex.view.index_dir, attr, lo, hi),
        )


def search_topk_filtered_range(
    index_dir: str,
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    attr: str,
    lo: float | None = None,
    hi: float | None = None,
    topk: int = 10,
    mode: str = "maxscore",
) -> ray.data.Dataset:
    """Top-k BM25 over only docs with ``lo <= attr <= hi`` (numeric range
    filter, e.g. document length bands). Scores equal unfiltered scores."""
    return index_stage(
        query_rows(queries), RangeFilteredQueryExecutor, index_dir,
        attr=attr, lo=lo, hi=hi, topk=topk, mode=mode,
    )


class SearchAfterExecutor(QueryExecutor):
    """Deep pagination: per-query cursor -> next page, skipped prefix never
    shipped.

    Each query row carries ``(after_score, after_doc_id)`` — the LAST row of
    the previous page in the engine's deterministic total order
    ``(round(score, 6) DESC, doc_id ASC)`` — and the executor returns the
    next ``topk`` rows strictly AFTER that cursor (Lucene/ES
    ``search_after`` semantics). Unlike OFFSET pagination, the driver never
    materializes page 1..n-1 to fetch page n, and the cursor is stable under
    concurrent index growth of LOWER-ranked docs.

    Exactness/escalation contract: ``round_half_away`` is monotone, so the
    raw-score top-``f`` is a prefix of the rounded total order EXCEPT inside
    the boundary tier (docs beyond the fetch can share the last fetched
    rounded score and tie in earlier by doc_id). The fetch escalates (x4)
    while the page is incomplete or its last kept row sits in the boundary
    tier, until the scored universe is exhausted — the same contract as
    ``hybrid_search_topk``. Typical cost is one fetch of ``4*topk + 16``;
    a corpus where one 6-dp score tier spans the whole cut pays the
    escalations.
    """

    def rank(self, row: dict) -> tuple[np.ndarray, np.ndarray]:
        terms = self._terms(row["query"])
        return self._page_after(
            terms, int(self.topk), float(row["after_score"]), int(row["after_doc_id"])
        )

    def _page_after(self, terms, k: int, a_s: float, a_d: int):
        # two-pass, not a x4 ladder: the TAAT accumulate dominates and is
        # paid IN FULL per fetch (only the top-k cut depends on f), so when
        # the cheap first fetch is unsafe the second goes straight to
        # exhaustive — worst case 2x one scoring pass (measured: the x4
        # ladder cost 6x page-1 latency at 1.15M docs on tie-dense corpora)
        f = 4 * k + 16
        while True:
            docs, scores = self._score(terms, f)
            exhausted = len(docs) < f
            rs = round_half_away(scores, 6)
            order = np.lexsort((docs, -rs))
            d_o, s_o = docs[order], rs[order]
            after = (s_o < a_s) | ((s_o == a_s) & (d_o > a_d))
            kept = np.flatnonzero(after)[:k]
            # rows beyond the raw fetch all have rounded score <= the tier of
            # the LAST fetched row; only kept rows inside that tier can be
            # displaced by a beyond-fetch doc_id tie
            tier_min = s_o[-1] if len(s_o) else 0.0
            page_full = len(kept) == k
            if exhausted or (page_full and s_o[kept[-1]] > tier_min):
                return d_o[kept], s_o[kept]
            f = 1 << 60  # exhaustive second pass


def search_topk_after(
    index_dir: str,
    cursors: Iterable[tuple[int, str, float, int]] | ray.data.Dataset,
    topk: int = 10,
    mode: str = "taat",
) -> ray.data.Dataset:
    """Next page of BM25 results strictly after a per-query cursor.

    ``cursors`` rows are ``(query_id, query, after_score, after_doc_id)``
    with ``after_score`` already rounded to 6 dp (i.e. a row of a previous
    page as the engine emitted it). Output is ``(query_id, rank, doc_id,
    score)`` with PAGE-LOCAL rank 1..topk and 6-dp-rounded scores — row
    ``rank=r`` here equals global rank ``cursor_rank + r`` of the full
    ordering, which is what the SQL twin checks.
    """
    if not isinstance(cursors, ray.data.Dataset):
        cursors = [
            {
                "query_id": int(q),
                "query": str(t),
                "after_score": float(s),
                "after_doc_id": int(d),
            }
            for q, t, s, d in cursors
        ]
    return index_stage(cursors, SearchAfterExecutor, index_dir, topk=topk, mode=mode)


class CollapseTopkExecutor(SearchAfterExecutor):
    """Field-collapsed top-k: at most ONE doc per attribute value (the ES
    ``collapse`` / Google one-result-per-site shape), scored and ordered by
    plain BM25.

    Semantics: walk the deterministic total order (round(score,6) DESC,
    doc_id ASC) and keep a row iff its collapse-attribute value has not
    appeared yet, until ``topk`` rows are kept. The doc_id -> value map
    loads once per task from the build-time attribute sidecar (same source
    as ``FilteredQueryExecutor``); docs absent from the sidecar each form
    their own singleton group (they are kept, never collapsed together).

    Exactness: kept rows are final as long as the LAST kept row's rounded
    score sits strictly above the boundary tier — a beyond-fetch doc can
    only enter AT the boundary tier, which lies after every kept row, and
    group-seen state at any kept row depends only on rows before it. The
    fetch escalates (x4) until that holds or postings are exhausted — the
    same contract as ``SearchAfterExecutor``/``hybrid_search_topk``.
    """

    def __init__(self, index_dir: str, attr: str, topk: int = 10, mode: str = "taat"):
        super().__init__(index_dir, topk=topk, mode=mode)
        tables = [
            t.filter(pc.is_valid(t.column(attr)))
            for t in _attribute_tables(self.view.index_dir, attr)
        ]
        ids_chunks = [t.column("doc_id").to_numpy() for t in tables]
        val_chunks = [np.asarray(t.column(attr).to_pylist(), dtype=object) for t in tables]
        ids = np.concatenate(ids_chunks) if ids_chunks else np.empty(0, np.int64)
        vals = np.concatenate(val_chunks) if val_chunks else np.empty(0, object)
        order = np.argsort(ids)
        self._attr_ids = ids[order]
        self._attr_vals = vals[order]

    def _values_of(self, docs: np.ndarray) -> list:
        """Collapse key per doc; docs missing from the sidecar get a unique
        per-doc sentinel (singleton groups)."""
        if not len(self._attr_ids):
            return [("__missing__", int(d)) for d in docs]
        pos = np.searchsorted(self._attr_ids, docs)
        pos_c = np.minimum(pos, len(self._attr_ids) - 1)
        hit = self._attr_ids[pos_c] == docs
        return [
            self._attr_vals[p] if h else ("__missing__", int(d))
            for p, h, d in zip(pos_c, hit, docs)
        ]

    def rank(self, row: dict) -> tuple[np.ndarray, np.ndarray]:
        terms = self._terms(row["query"])
        k = int(self.topk)
        f = 4 * k + 16
        while True:
            docs, scores = self._score(terms, f)
            exhausted = len(docs) < f
            rs = round_half_away(scores, 6)
            order = np.lexsort((docs, -rs))
            d_o, s_o = docs[order], rs[order]
            seen: set = set()
            kept: list[int] = []
            for i, v in enumerate(self._values_of(d_o)):
                if v in seen:
                    continue
                seen.add(v)
                kept.append(i)
                if len(kept) == k:
                    break
            tier_min = s_o[-1] if len(s_o) else 0.0
            if exhausted or (len(kept) == k and s_o[kept[-1]] > tier_min):
                return d_o[kept], s_o[kept]
            f = 1 << 60  # exhaustive second pass (see _page_after rationale)


def search_topk_collapsed(
    index_dir: str,
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    attr: str,
    topk: int = 10,
    mode: str = "taat",
) -> ray.data.Dataset:
    """Top-k BM25 with at most one result per ``attr`` value per query
    (field collapsing). Output (query_id, rank, doc_id, score) with rank
    1..topk over the COLLAPSED list and 6-dp-rounded scores."""
    return index_stage(
        query_rows(queries), CollapseTopkExecutor, index_dir,
        attr=attr, topk=topk, mode=mode,
    )


class FieldedQueryExecutor(QueryExecutor):
    """Field-weighted search: ``score(d) = sum_f w_f * bm25_f(d)`` — a
    linear combination of PER-FIELD BM25 scores, each field backed by its
    own index over that field's text (title/content/path...), all sharing
    one analyzer. The per-field indexes carry their own N/avgdl/df, so a
    match in a short title field is worth more than the same match buried
    in a long body — the practical "title boost" shape (the simple linear
    variant of BM25F; true BM25F folds weights into tf before saturation).

    Exact, not fetch-escalated: each field's TAAT traversal returns its FULL
    scored set (every doc containing >= 1 query term in that field — the
    same postings any exact engine walks), fields are concatenated in
    sorted-field-name order and segment-summed per doc (stable order ->
    float64 accumulation order is fixed), giving ``w_1*s_1 + w_2*s_2``
    exactly as the SQL twin's expression evaluates. Rounded-6dp rank order,
    ties by doc_id.

    ``combine="dismax"`` switches the per-doc combination to disjunction-max
    (the multi-field mode where a doc strong in ONE field should not be
    beaten by a doc mediocre in several): ``score(d) = max_f c_f +
    tie_breaker * (sum_f c_f - max_f c_f)`` over the weighted per-field
    contributions ``c_f = w_f * bm25_f(d)`` — the exact expression the SQL
    twin evaluates (same add/subtract order, so the float64 results are
    bit-identical before the 6-dp rounding). ``tie_breaker=0`` is pure max,
    ``1`` degenerates to the linear sum.
    """

    _ALL = 1 << 60  # k larger than any posting universe -> full scored set

    def __init__(
        self,
        index_dirs: dict[str, str],
        weights: dict[str, float],
        topk: int = 10,
        combine: str = "sum",
        tie_breaker: float = 0.0,
    ):
        if combine not in ("sum", "dismax"):
            raise ValueError(f"combine must be 'sum' or 'dismax', got {combine!r}")
        self.combine = combine
        self.tie_breaker = float(tie_breaker)
        _open_fields(self, index_dirs, weights, topk)

    def rank(self, row: dict) -> tuple[np.ndarray, np.ndarray]:
        terms = self._terms(row["query"])
        docs_all, contrib_all = [], []
        for f in self.fields:
            docs, scores = self.execs[f]._score_taat(terms, self._ALL)
            if len(docs):
                docs_all.append(docs)
                contrib_all.append(self.weights[f] * scores)
        if not docs_all:
            return no_hits()
        if self.combine == "dismax":
            docs = np.concatenate(docs_all)
            contrib = np.concatenate(contrib_all)
            order = np.argsort(docs, kind="stable")  # field order kept per doc
            sdocs, scontrib = docs[order], contrib[order]
            starts = np.flatnonzero(np.concatenate(([True], sdocs[1:] != sdocs[:-1])))
            uniq = sdocs[starts]
            segsum = np.add.reduceat(scontrib, starts)
            segmax = np.maximum.reduceat(scontrib, starts)
            total = segmax + self.tie_breaker * (segsum - segmax)
        else:
            uniq, total = segment_sum(docs_all, contrib_all)
        return _rounded_topk(uniq, total, self.topk)


def _open_fields(ex: QueryExecutor, index_dirs: dict, weights: dict, topk: int) -> None:
    """Per-field executors of a multi-field executor, in sorted field-name
    order, all with one analyzer."""
    if set(index_dirs) != set(weights):
        raise ValueError("index_dirs and weights must share field names")
    ex.fields = sorted(index_dirs)
    ex.execs = {f: QueryExecutor(index_dirs[f], topk=topk) for f in ex.fields}
    fps = {f: e.view.cfg.analyzer.fingerprint() for f, e in ex.execs.items()}
    if len(set(fps.values())) != 1:
        raise ValueError(f"fielded search needs one analyzer across fields, got {fps}")
    ex.weights = {f: float(weights[f]) for f in ex.fields}
    ex.topk = topk
    ex.tokenizer = ex.execs[ex.fields[0]].tokenizer


def _rounded_topk(docs: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k under the rounded rank contract: round(score, 6) desc, doc_id
    asc; the rounded scores are returned."""
    rs = round_half_away(scores, 6)
    cut = np.lexsort((docs, -rs))[: int(k)]
    return docs[cut], rs[cut]


def search_topk_fielded(
    index_dirs: dict[str, str],
    weights: dict[str, float],
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    topk: int = 10,
) -> ray.data.Dataset:
    """Field-weighted BM25 top-k over per-field indexes (e.g. a boosted
    title index beside the content index). Output (query_id, rank, doc_id,
    score) with 6-dp-rounded scores, ties by doc_id."""
    return index_stage(
        query_rows(queries), FieldedQueryExecutor, index_dirs,
        weights=weights, topk=topk,
    )


class BM25FTrueExecutor(QueryExecutor):
    """TRUE BM25F (Robertson & Zaragoza): field-weighted term frequencies
    folded into ONE saturation —

        score(d) = sum_t idf_u(t) * (tf~ / (k1 + tf~)),
        tf~ = sum_f w_f * tf_{f,t}(d) / (1 - b + b * dl_f(d) / avgdl_f)

    with idf over the UNION document frequency (docs containing t in ANY
    field) and N from the primary field. Unlike the linear variant
    (``FieldedQueryExecutor``), a term matching in both fields saturates
    once instead of being paid twice — the reason true BM25F beats naive
    per-field score summing. Exact full-set scoring (no pruning), same
    6-dp-rounded rank contract as every other executor."""

    def __init__(
        self,
        index_dirs: dict[str, str],
        weights: dict[str, float],
        topk: int = 10,
        k1: float = 1.2,
        b: float = 0.75,
    ):
        _open_fields(self, index_dirs, weights, topk)
        self.k1, self.b = float(k1), float(b)
        self.N = self.execs[self.fields[0]].view.N

    def _term_merged(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(union doc ids, tf~) for one term across fields, in sorted-field
        accumulation order (content then title, matching the twin's
        coalesce-sum order)."""
        per_field = []
        for f in self.fields:
            v = self.execs[f].view
            docs, tfs, dls, _ = v.term_postings(term)
            if len(docs):
                denom = 1.0 - self.b + self.b * (dls / v.avgdl)
                per_field.append((docs, self.weights[f] * (tfs / denom)))
        if not per_field:
            return no_hits()
        docs_u = per_field[0][0]
        for docs, _ in per_field[1:]:
            docs_u = np.union1d(docs_u, docs)
        tfv = np.zeros(len(docs_u), dtype=np.float64)
        for docs, contrib in per_field:
            tfv[np.searchsorted(docs_u, docs)] += contrib
        return docs_u, tfv

    def rank(self, row: dict) -> tuple[np.ndarray, np.ndarray]:
        from distributed_text_search_ray.functions import bm25 as _bm25

        all_docs, all_contrib = [], []
        for term in self._terms(row["query"]):
            docs_u, tfv = self._term_merged(term)
            if not len(docs_u):
                continue
            idf = _bm25.idf(self.N, float(len(docs_u)))
            all_docs.append(docs_u)
            all_contrib.append(idf * (tfv / (self.k1 + tfv)))
        return _rounded_topk(*segment_sum(all_docs, all_contrib), self.topk)


def search_topk_bm25f_true(
    index_dirs: dict[str, str],
    weights: dict[str, float],
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    topk: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
) -> ray.data.Dataset:
    """True (saturation-folded) BM25F top-k over per-field indexes — see
    ``BM25FTrueExecutor``. Output (query_id, rank, doc_id, score)."""
    return index_stage(
        query_rows(queries), BM25FTrueExecutor, index_dirs,
        weights=weights, topk=topk, k1=k1, b=b,
    )


def search_topk_dismax(
    index_dirs: dict[str, str],
    weights: dict[str, float],
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    tie_breaker: float = 0.3,
    topk: int = 10,
) -> ray.data.Dataset:
    """Disjunction-max multi-field top-k: per-field weighted BM25
    contributions combined as ``max + tie_breaker * (sum - max)`` — the
    best-field-wins ranking mode next to ``search_topk_fielded``'s linear
    sum. Output (query_id, rank, doc_id, score), 6-dp scores, ties by
    doc_id."""
    return index_stage(
        query_rows(queries), FieldedQueryExecutor, index_dirs,
        weights=weights, topk=topk, combine="dismax",
        tie_breaker=tie_breaker,
    )


def rank_eval(
    index_dir: str,
    queries: list[tuple[int, str]],
    k: int = 10,
) -> pa.Table:
    """IR ranking-quality evaluation of the BM25 run: per query, nDCG@k
    (binary gain), MRR@k, recall@k and the relevant-set size, against
    term-containment relevance judgments.

    Relevance proxy (deterministic, no human qrels): a doc is relevant to a
    query iff it contains EVERY analyzer token of the query — an
    index-backed boolean AND (``boolean_search``), so the judgment pass
    reads postings, never corpus text. The metric inputs that reach the
    driver are bounded: the top-k hit table (k x |queries| rows), the
    per-query relevant-set COUNTS, and the relevant-flags of only the
    top-k hits (filtered distributed against the broadcast hit set) —
    never the relevant sets themselves, which on a short/stopword query
    can be O(corpus).

    Metrics (rounded 6 dp, one row per input query, query_id order):
    ``ndcg`` = sum_{rel hits} 1/log2(rank+1) / sum_{i<=min(k, n_rel)}
    1/log2(i+1); ``mrr`` = 1/rank of the first relevant hit; ``recall_k`` =
    relevant hits / n_rel; all 0.0 when undefined (n_rel = 0 or no
    relevant hit in the top k). Each whitespace word of a query must
    analyze to one term (the boolean-literal contract).

    Scale note (VERDICT r4 item 6): the relevant SET of a short query is
    O(corpus), so it must never leave the task that computes it. The
    judgment stage below intersects postings inside the task and emits
    ONLY the per-query count and the relevant-flags of the (broadcast)
    top-k hit docs — replacing the old corpus-scale (query_id, doc_id)
    relevance stream + fused reduce, which at 1.15M docs shipped ~1M rows
    per query through the object store just to count them.
    """
    import math

    from distributed_text_search_ray.pipelines.boolquery import _RelevanceStatsExecutor

    qlist = [(int(q), str(s)) for q, s in queries]
    hits = search_topk(index_dir, qlist, topk=k).take_all()
    hit_set = {(r["query_id"], r["doc_id"]) for r in hits}

    conj = [(qid, " AND ".join(text.split())) for qid, text in qlist]
    hit_docs = {qid: np.sort(np.array(
        [d for q2, d in hit_set if q2 == qid], dtype=np.int64
    )) for qid, _ in qlist}

    res = index_stage(
        query_rows(conj), _RelevanceStatsExecutor, index_dir, batch_size=1,
        hit_docs=hit_docs,
    ).take_all()  # bounded: one count row + <=k flag rows per query
    n_rel: dict[int, int] = {}
    rel_hits: set[tuple[int, int]] = set()
    for r in res:
        if r["doc_id"] < 0:
            n_rel[r["query_id"]] = n_rel.get(r["query_id"], 0) + r["n_part"]
        else:
            rel_hits.add((r["query_id"], r["doc_id"]))

    by_q: dict[int, list[tuple[int, int]]] = {qid: [] for qid, _ in qlist}
    for r in hits:
        by_q[r["query_id"]].append((r["rank"], r["doc_id"]))

    out = {"query_id": [], "n_rel": [], "hits_at_k": [], "ndcg": [], "mrr": [], "recall_k": []}
    for qid, _ in sorted(qlist):
        ranked = sorted(by_q[qid])
        flags = [(rank, (qid, doc) in rel_hits) for rank, doc in ranked]
        nrel = int(n_rel.get(qid, 0))
        hits_k = sum(1 for _, f in flags if f)
        dcg = sum(1.0 / math.log2(rank + 1) for rank, f in flags if f)
        idcg = sum(1.0 / math.log2(i + 1) for i in range(1, min(k, nrel) + 1))
        ndcg = dcg / idcg if idcg > 0 else 0.0
        first = min((rank for rank, f in flags if f), default=0)
        mrr = 1.0 / first if first else 0.0
        recall = hits_k / nrel if nrel else 0.0
        out["query_id"].append(qid)
        out["n_rel"].append(nrel)
        out["hits_at_k"].append(hits_k)
        out["ndcg"].append(round_half_away(ndcg, 6))
        out["mrr"].append(round_half_away(mrr, 6))
        out["recall_k"].append(round_half_away(recall, 6))
    return pa.table(
        {
            "query_id": pa.array(out["query_id"], type=pa.int64()),
            "n_rel": pa.array(out["n_rel"], type=pa.int64()),
            "hits_at_k": pa.array(out["hits_at_k"], type=pa.int64()),
            "ndcg": pa.array(out["ndcg"], type=pa.float64()),
            "mrr": pa.array(out["mrr"], type=pa.float64()),
            "recall_k": pa.array(out["recall_k"], type=pa.float64()),
        }
    )


class ExplainExecutor(QueryExecutor):
    """Per-term score breakdown of the final top-k (the Elasticsearch
    ``explain`` API shape): for every (query, ranked doc) pair, one row per
    matching query term with its exact BM25 contribution.

    Reuses the loaded ``IndexView`` and the TAAT scorer for the ranking
    itself (overfetch + rounded re-rank, the same (round(score,6) desc,
    doc_id asc) order as every other gated ranking), then re-reads the
    (view-cached) postings of each term to slice out the contributions of
    the surviving docs — per query that is O(terms x postings) work against
    warm cache, no second index scan.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:  # noqa: C901
        from distributed_text_search_ray.functions import bm25

        out = {
            "query_id": [], "rank": [], "doc_id": [],
            "term": [], "contribution": [], "score": [],
        }
        qids = batch.column("query_id").to_pylist()
        qtexts = batch.column("query").to_pylist()
        v = self.view
        cfg = v.cfg
        for qid, qtext in zip(qids, qtexts):
            terms = self._terms(qtext)
            docs_top, scores_top = self._score_taat(terms, self.topk + 10)
            if not len(docs_top):
                continue
            sel, sel_s = _rounded_topk(docs_top, scores_top, self.topk)
            rank_of = {
                int(d): (i + 1, float(s))
                for i, (d, s) in enumerate(zip(sel.tolist(), sel_s.tolist()))
            }
            sel_sorted = np.sort(sel)
            for term in terms:
                docs, tfs, dls, df = v.term_postings(term)
                if df == 0 or not len(docs):
                    continue
                w = bm25.idf(v.N, df)
                contrib = w * bm25.tf_part(
                    tfs, dls, v.avgdl, cfg.bm25_k1, cfg.bm25_b
                )
                pos = np.searchsorted(sel_sorted, docs)
                pos_c = np.minimum(pos, len(sel_sorted) - 1)
                m = sel_sorted[pos_c] == docs
                for d, c in zip(
                    docs[m].tolist(), round_half_away(contrib[m], 6).tolist()
                ):
                    rk, s = rank_of[int(d)]
                    out["query_id"].append(qid)
                    out["rank"].append(rk)
                    out["doc_id"].append(int(d))
                    out["term"].append(term)
                    out["contribution"].append(float(c))
                    out["score"].append(s)
        return pa.table(
            {
                "query_id": pa.array(out["query_id"], type=pa.int64()),
                "rank": pa.array(out["rank"], type=pa.int64()),
                "doc_id": pa.array(out["doc_id"], type=pa.int64()),
                "term": pa.array(out["term"], type=pa.string()),
                "contribution": pa.array(out["contribution"], type=pa.float64()),
                "score": pa.array(out["score"], type=pa.float64()),
            }
        )


def explain_topk(
    index_dir: str,
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    topk: int = 10,
) -> ray.data.Dataset:
    """ES-style ``explain``: (query_id, rank, doc_id, term, contribution,
    score) for the top-k of each query — contribution the exact per-term
    BM25 addend (rounded 6 dp), score the doc's rounded total. The ranked
    doc set and order are identical to ``search_topk`` + rounded re-rank.
    """
    return index_stage(query_rows(queries), ExplainExecutor, index_dir, topk=topk)


# ---------------------------------------------------------------------------
# must_not ranked retrieval ("-term" exclusion) and routed search
# ---------------------------------------------------------------------------

def parse_negated_query(qtext: str) -> tuple[str, str]:
    """Split a query with Lucene-style ``-term`` exclusions into
    (positive_text, negated_text). A lone ``-`` is ignored; everything after
    a leading ``-`` goes through the index analyzer like any query text, so
    one ``-camelCaseWord`` may expand to several negated terms."""
    pos, neg = [], []
    for w in qtext.split():
        if w.startswith("-") and len(w) > 1:
            neg.append(w[1:])
        elif w != "-":
            pos.append(w)
    return " ".join(pos), " ".join(neg)


class NegatedQueryExecutor(QueryExecutor):
    """Query stage: top-k BM25 with ``must_not`` term exclusion.

    Per query, the excluded doc set is assembled from the INDEX (the union
    of the negated terms' posting doc-ids — no corpus scan), then the
    positive terms are scored through the standard TAAT kernel over an
    exclusion-masked view (global df, so surviving docs keep their
    unrestricted scores). A query with no positive terms has no candidates
    and returns no rows."""

    def __init__(self, index_dir: str, topk: int = 10, mode: str = "maxscore"):
        if mode == "wand":
            raise ValueError("negated search supports taat/maxscore modes")
        super().__init__(index_dir, topk=topk, mode=mode)

    def rank(self, row: dict) -> tuple[np.ndarray, np.ndarray]:
        pos_text, neg_text = parse_negated_query(row["query"])
        excl = [
            d for t in self._terms(neg_text)
            for d in (self.view.term_postings(t)[0],) if len(d)
        ]
        view = (
            _MaskedView(self.view, np.unique(np.concatenate(excl)), keep=False)
            if excl
            else self.view
        )
        return self._score(self._terms(pos_text), self.topk, view)


def search_topk_negated(
    index_dir: str,
    queries: Iterable[tuple[int, str]] | ray.data.Dataset,
    topk: int = 10,
    mode: str = "maxscore",
) -> ray.data.Dataset:
    """Top-k BM25 where query tokens prefixed ``-`` EXCLUDE every document
    containing them (ES bool must + must_not). Surviving docs keep their
    exact unrestricted BM25 scores. Negating a term absent from the corpus
    is a no-op; a query that is only negations returns no rows."""
    return index_stage(
        query_rows(queries), NegatedQueryExecutor, index_dir,
        topk=topk, mode=mode,
    )


class RoutedQueryExecutor(QueryExecutor):
    """Query stage for ROUTED search: each query carries a routing key
    that selects exactly ONE member index (the per-tenant / per-shard-group
    layout). Unlike :func:`search_topk_filtered` (global index, global
    stats, candidate mask), a routed query is answered entirely inside its
    member — N, avgdl and df are the member corpus's own, and no other
    member's dictionary or postings are touched. That is the partition-
    pruning contract that matters at 10^12 files: a query for one tenant
    costs one tenant's index, not a masked scan of the world.

    A member's executor builds on the first query routed to it, around the
    worker's cached view of that member (``open_view``): a batch opens only
    the members it routes to. Queries with a routing key that has no member
    produce no rows (documented; raising would poison a whole batch of
    otherwise-valid queries). Rows come out in input order."""

    def __init__(self, members: dict[str, str], topk: int = 10, mode: str = "maxscore"):
        self.members = dict(members)
        self.topk = topk
        self.mode = mode
        self._execs: dict[str, QueryExecutor] = {}

    def rank(self, row: dict) -> tuple[np.ndarray, np.ndarray]:
        route = row["route"]
        if route not in self.members:
            return no_hits()
        ex = self._execs.get(route)
        if ex is None:
            ex = self._execs[route] = QueryExecutor(
                open_view(self.members[route]), topk=self.topk, mode=self.mode
            )
        return ex.rank(row)


def search_topk_routed(
    members: dict[str, str],
    queries: Iterable[tuple[int, str, str]] | ray.data.Dataset,
    topk: int = 10,
    mode: str = "maxscore",
) -> ray.data.Dataset:
    """Top-k BM25 with query ROUTING: ``queries`` are (query_id, text,
    route); each is answered by the single member index ``members[route]``
    using that member's own corpus statistics. The scale sibling of
    :func:`search_topk_federated` — federation fans one query out to every
    member and recombines global stats; routing prunes to one member and
    keeps its local stats (per-tenant semantics). A task opens only the
    members its queries route to; a worker keeps ``executor.MAX_GENERATIONS``
    member views cached across tasks, so a query stream that cycles through
    more members than that reopens them (sort or split it by route to
    avoid the churn)."""
    return index_stage(
        query_rows(queries, ("query", "route")), RoutedQueryExecutor, None,
        members=members, topk=topk, mode=mode,
    )


class WeightedTermExecutor(QueryExecutor):
    """Query stage scoring PRE-EXPANDED weighted queries (the RM3
    second pass): batches of (query_id, terms: list<string>, weights:
    list<double>) -> top-k rows with

        score(d) = sum_t w_t * (idf(t) * tf_part(t, d))

    accumulated in ascending term order (the TAAT determinism discipline —
    reference parity: SURVEY.md section 7 "hard parts"). Weights must be
    > 0: the dense accumulator treats score 0 as unscored, exactly like the
    base scorer treats absent postings."""

    def rank(self, row: dict) -> tuple[np.ndarray, np.ndarray]:
        weights = {t: float(w) for t, w in zip(row["terms"], row["weights"])}
        return self._score_taat(sorted(weights), self.topk, weights)


def rm3_topk(
    index_dir: str,
    queries: Iterable[tuple[int, str]],
    docs_ds: ray.data.Dataset,
    fb_docs: int = 10,
    fb_terms: int = 10,
    lam: float = 0.6,
    topk: int = 10,
    fetch_pad: int = 10,
) -> ray.data.Dataset:
    """RM3 pseudo-relevance-feedback query expansion (Lavrenko & Croft
    relevance models; the Anserini/ES default feedback pipeline shape):

    1. feedback = BM25 top-``fb_docs`` per query (6-dp rounded rank,
       doc_id tie-break — the driver's rerank discipline, so both gate
       sides pick the identical feedback set);
    2. relevance model p(t) = (1/k0) * sum over feedback docs of
       tf(t,d)/dl(d); the top-``fb_terms`` terms by (p rounded to 12 dp
       DESC, term ASC) are the expansion set, renormalized to sum 1;
    3. expanded weights w(t) = lam * [t in Q]/|Q distinct| +
       (1-lam) * p(t)/psum, scored as a weighted TAAT pass
       (:class:`WeightedTermExecutor`).

    Scale shape: the feedback set is O(queries x fb_docs) rows and the
    expanded vocabulary O(queries x (|Q| + fb_terms)) — both bounded driver
    state, like the MMR window. Fetching feedback texts is one vectorized
    ``is_in`` filter pass over ``docs_ds`` (columns doc_id, content) — no
    shuffle; the only corpus-sized work is the two scoring passes, both
    task-stage streaming. Returns UNROUNDED (query_id, rank, doc_id,
    score); callers re-rank rounded like every other scorer here.
    """
    import pyarrow.compute as pc

    qlist = [(int(q), str(t)) for q, t in queries]
    view = IndexView(index_dir)
    from distributed_text_search_ray.functions.tokenize import Tokenizer

    tokenizer = Tokenizer(view.cfg.analyzer)

    hits = search_topk(index_dir, qlist, topk=fb_docs + fetch_pad).take_all()
    by_q: dict[int, list[tuple[int, float]]] = {}
    for r in hits:
        by_q.setdefault(r["query_id"], []).append((r["doc_id"], r["score"]))
    fb: dict[int, list[int]] = {}
    for qid, rows in by_q.items():
        d = np.array([x[0] for x in rows], dtype=np.int64)
        s = round_half_away(np.array([x[1] for x in rows], dtype=np.float64), 6)
        order = np.lexsort((d, -s))[: int(fb_docs)]
        fb[qid] = sorted(d[order].tolist())

    all_ids = sorted({d for ids in fb.values() for d in ids})
    ids_arr = pa.array(all_ids, type=pa.int64())
    texts = docs_ds.map_batches(
        lambda t: t.filter(pc.is_in(t.column("doc_id"), value_set=ids_arr)),
        batch_format="pyarrow",
    ).take_all()
    tok_by_doc = {row["doc_id"]: tokenizer.tokens(row["content"]) for row in texts}

    onemlam = 1.0 - float(lam)
    expanded = []
    for qid, qtext in qlist:
        qterms = sorted(set(tokenizer.tokens(qtext)))
        if not qterms:
            continue  # SQL twin produces no rows for token-free queries
        nq = float(len(qterms))
        fbids = fb.get(qid, [])
        p: dict[str, float] = {}
        k0 = float(len(fbids))
        for d in fbids:  # ascending doc order -> deterministic sum order
            toks = tok_by_doc.get(d, [])
            dl = float(len(toks))
            if dl == 0.0:
                continue
            from collections import Counter

            for t, c in sorted(Counter(toks).items()):
                p[t] = p.get(t, 0.0) + float(c) / dl
        weights = {t: float(lam) / nq for t in qterms}
        if p and k0 > 0.0:
            pq = {t: v / k0 for t, v in p.items()}
            rp = {
                t: float(round_half_away(np.float64(v), 12)) for t, v in pq.items()
            }
            sel = sorted(pq, key=lambda t: (-rp[t], t))[: int(fb_terms)]
            psum = 0.0
            for t in sorted(sel):  # ascending-term sum order
                psum += pq[t]
            if psum > 0.0:
                for t in sel:
                    weights[t] = weights.get(t, 0.0) + onemlam * (pq[t] / psum)
        terms = sorted(weights)
        expanded.append(
            {
                "query_id": qid,
                "terms": terms,
                "weights": [weights[t] for t in terms],
            }
        )
    if not expanded:
        return ray.data.from_arrow(TOPK_SCHEMA.empty_table())
    return index_stage(expanded, WeightedTermExecutor, index_dir, topk=topk)


def term_vectors(
    index_dir: str,
    docs_ds: ray.data.Dataset,
    doc_ids: Iterable[int],
) -> pa.Table:
    """ES termvectors-API analog: per-(doc, term) statistics for a BOUNDED
    requested doc set — in-doc ``tf`` and ``dl`` (re-derived with the
    index's analyzer, the ES realtime-termvectors contract) joined with
    corpus-wide ``df``/``cf`` from the index dictionary.

    Scale shape: one vectorized ``is_in`` filter + tokenize pass over
    ``docs_ds`` (columns doc_id, content) emits O(requested docs x distinct
    terms) pair rows; the dictionary (vocabulary-sized, never collected
    whole) is probed with a second ``is_in`` filter over exactly those
    terms. Both intermediates are bounded by the request, like every
    doc-addressed API here (fetch_docs, explain). Returns an arrow table
    (doc_id, term, tf, dl, df, cf) sorted by (doc_id, term); terms absent
    from the dictionary (a requested doc re-tokenized after index build
    drift) would carry df=0/cf=0 rather than error.
    """
    import pyarrow.compute as pc

    from distributed_text_search_ray.functions.tokenize import (
        Tokenizer,
        batch_pairs_dict,
    )

    ids = sorted({int(d) for d in doc_ids})
    ids_arr = pa.array(ids, type=pa.int64())
    view = IndexView(index_dir)
    analyzer = view.cfg.analyzer

    def explode(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t.column("doc_id"), value_set=ids_arr))
        if t.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "term": pa.array([], type=pa.string()),
                    "tf": pa.array([], type=pa.int64()),
                    "dl": pa.array([], type=pa.int64()),
                }
            )
        terms, pdoc, tfs, dls, _ = batch_pairs_dict(
            Tokenizer(analyzer),
            t.column("doc_id").to_numpy(),
            t.column("content").to_pylist(),
        )
        return pa.table(
            {
                "doc_id": pa.array(pdoc, type=pa.int64()),
                "term": terms.cast(pa.string())
                if isinstance(terms, (pa.Array, pa.ChunkedArray))
                else pa.array([str(x) for x in terms], type=pa.string()),
                "tf": pa.array(tfs, type=pa.int64()),
                "dl": pa.array(dls, type=pa.int64()),
            }
        )

    pairs_rows = docs_ds.map_batches(explode, batch_format="pyarrow").take_all()
    term_set = sorted({r["term"] for r in pairs_rows})
    dict_path = os.path.join(index_dir, "dictionary", "dictionary.parquet")
    dict_ds = ray.data.read_parquet(dict_path, columns=["term", "df", "cf"])
    tset = pa.array(term_set, type=pa.string())
    stats_rows = dict_ds.map_batches(
        lambda t: t.filter(pc.is_in(t.column("term"), value_set=tset)),
        batch_format="pyarrow",
    ).take_all()
    df_of = {r["term"]: int(r["df"]) for r in stats_rows}
    cf_of = {r["term"]: int(r["cf"]) for r in stats_rows}
    pairs_rows.sort(key=lambda r: (r["doc_id"], r["term"]))
    return pa.table(
        {
            "doc_id": pa.array([r["doc_id"] for r in pairs_rows], type=pa.int64()),
            "term": pa.array([r["term"] for r in pairs_rows], type=pa.string()),
            "tf": pa.array([r["tf"] for r in pairs_rows], type=pa.int64()),
            "dl": pa.array([r["dl"] for r in pairs_rows], type=pa.int64()),
            "df": pa.array(
                [df_of.get(r["term"], 0) for r in pairs_rows], type=pa.int64()
            ),
            "cf": pa.array(
                [cf_of.get(r["term"], 0) for r in pairs_rows], type=pa.int64()
            ),
        }
    )


class _AdjacencyMatrixExecutor:
    """Query stage for the ES adjacency_matrix aggregation over term
    filters: one input row carries the whole named-filter set; the output
    is (key_a, key_b, doc_count) for every ordered pair key_a <= key_b with
    a non-empty posting intersection (the diagonal is each filter's own doc
    count). Intersections run over the sorted posting lists — linear in the
    smaller list, index-resident, no corpus scan."""

    def __init__(self, index_dir: str | IndexView):
        from distributed_text_search_ray.functions.tokenize import Tokenizer

        self.view = as_view(index_dir)
        self.tokenizer = Tokenizer(self.view.cfg.analyzer)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_a, out_b, out_n = [], [], []
        for keys, terms in zip(
            batch.column("keys").to_pylist(), batch.column("terms").to_pylist()
        ):
            docs_of = {}
            for key, raw in zip(keys, terms):
                toks = self.tokenizer.tokens(raw)
                if not toks:
                    continue
                docs, _tfs, _dls, df = self.view.term_postings(toks[0])
                if len(docs):
                    docs_of[key] = docs
            for a in sorted(docs_of):
                for b in sorted(docs_of):
                    if b < a:
                        continue
                    n = (
                        len(docs_of[a])
                        if a == b
                        else len(
                            np.intersect1d(
                                docs_of[a], docs_of[b], assume_unique=True
                            )
                        )
                    )
                    if n:
                        out_a.append(a)
                        out_b.append(b)
                        out_n.append(n)
        return pa.table(
            {
                "key_a": pa.array(out_a, type=pa.string()),
                "key_b": pa.array(out_b, type=pa.string()),
                "doc_count": pa.array(out_n, type=pa.int64()),
            }
        )


def adjacency_matrix(
    index_dir: str,
    filters: dict[str, str],
) -> ray.data.Dataset:
    """ES ``adjacency_matrix`` aggregation: named single-term filters ->
    doc counts of every pairwise intersection (diagonal = the filter's own
    count); only non-empty cells are emitted, keys ordered key_a <= key_b.
    Answered purely from posting lists."""
    items = [
        {"keys": sorted(filters), "terms": [filters[k] for k in sorted(filters)]}
    ]
    return index_stage(items, _AdjacencyMatrixExecutor, index_dir, batch_size=1)


def rare_terms(index_dir: str, max_df: int = 2) -> ray.data.Dataset:
    """ES ``rare_terms`` aggregation: dictionary terms with document
    frequency <= ``max_df`` — the long-tail counterpart of top_terms (which
    is why ES ships it as its own agg: a terms agg ordered ascending is
    unboundedly inaccurate sharded, while df is exact here by construction).
    One vectorized filter pass over the dictionary; never collects the
    vocabulary. Returns (term, df)."""
    import pyarrow.compute as pc

    dict_path = os.path.join(index_dir, "dictionary", "dictionary.parquet")
    ds = ray.data.read_parquet(dict_path, columns=["term", "df"])
    return ds.map_batches(
        lambda t: t.filter(pc.less_equal(t.column("df"), max_df)),
        batch_format="pyarrow",
    )
