"""Phrase (positional) search — token-sequence matching over the corpus.

The reference's kernel is positional by nature: a pattern matches at byte
positions (``src/apm1.c:235-281``). The inverted-index engine answers the
token-level analog — "docs where these tokens appear consecutively, and how
often" — two ways:

- ``phrase_match_counts``: distributed scan. Each batch tokenizes its docs,
  concatenates token hashes into one flat array, finds each phrase with
  vectorized shifted equality, and drops cross-doc straddle hits via the
  per-doc offset table — one fused numpy pass per (phrase, batch), never a
  Python loop over positions. The scan analog of the APM pipeline, and the
  conformance oracle for the indexed path.
- ``phrase_search_indexed``: index-assisted, for DEFAULT (v3, position-free)
  indexes: candidate docs = the INTERSECTION of the phrase terms' posting
  lists (task stage over the worker's cached ``IndexView``, pure hash routing,
  no shuffle), then positional verification scans ONLY the candidate docs'
  content (broadcast-id semi-join against the corpus, then the same
  vectorized scan). On a selective phrase the verify stage touches a
  vanishing fraction of the corpus; worst case (every term a stop word)
  degrades to the scan path's cost on the candidate subset.
- ``phrase_search_positional``: fully index-resident, for v4 indexes built
  with ``IndexConfig(store_positions=True)`` (+24% index bytes measured):
  posting intersection plus a vectorized chained position-membership check
  over the decoded pos stream — no content read at all.

All return identical ``(query_id, doc_id, n_occurrences)`` rows
(n_occurrences > 0), differential-tested against each other and the DuckDB
positional self-join oracle.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from distributed_text_search_ray.config import AnalyzerConfig
from distributed_text_search_ray.functions.hashing import _token_hashes
from distributed_text_search_ray.functions.tokenize import tokenizer_for
from distributed_text_search_ray.stages.executor import IndexView, as_view
from distributed_text_search_ray.stages.index_stage import index_stage

_OUT_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("doc_id", pa.int64()),
        ("n_occurrences", pa.int64()),
    ]
)


def _empty_out() -> pa.Table:
    return pa.table(
        {
            "query_id": pa.array([], type=pa.int64()),
            "doc_id": pa.array([], type=pa.int64()),
            "n_occurrences": pa.array([], type=pa.int64()),
        }
    )


def _phrase_hash_seqs(
    phrases: Iterable[tuple[int, str]], analyzer: AnalyzerConfig
) -> list[tuple[int, np.ndarray]]:
    """(query_id, token-hash sequence) per phrase; empty-token phrases keep
    an empty sequence (they match nothing, mirroring a WHERE over 0 terms)."""
    tk = tokenizer_for(analyzer)
    return [(int(q), _token_hashes(tk.tokens(p))) for q, p in phrases]


class _PhraseScanCounter:
    """Per-batch fused counter, shared by scan and verify stages."""

    def __init__(self, phrases: list[tuple[int, str]], analyzer: AnalyzerConfig):
        self.analyzer = analyzer
        self.seqs = _phrase_hash_seqs(phrases, analyzer)

    def __call__(self, batch: pa.Table, text_column: str = "content") -> pa.Table:
        tk = tokenizer_for(self.analyzer)
        ids = batch.column("doc_id").to_numpy()
        hash_chunks: list[np.ndarray] = []
        lens = np.empty(len(ids), dtype=np.int64)
        # docs are concatenated WITHOUT separators; cross-doc matches are
        # discarded below by clamping each hit to its owning doc's offset
        # range (cheaper than sentinel tokens and exact)
        for i, text in enumerate(batch.column(text_column).to_pylist()):
            th = _token_hashes(tk.tokens(text))
            hash_chunks.append(th)
            lens[i] = len(th)
        if not len(ids):
            return _empty_out()
        flat = (
            np.concatenate(hash_chunks) if hash_chunks else np.empty(0, dtype=np.uint64)
        )
        starts = np.concatenate(([0], np.cumsum(lens)))  # len n_docs+1
        out_q, out_d, out_n = [], [], []
        L = len(flat)
        for qid, seq in self.seqs:
            m = len(seq)
            if m == 0 or L < m:
                continue
            hits = flat[: L - m + 1] == seq[0]
            for j in range(1, m):
                hits &= flat[j : L - m + 1 + j] == seq[j]
            pos = np.flatnonzero(hits)
            if not len(pos):
                continue
            # drop matches that straddle a doc boundary: a match starting at
            # pos belongs to doc d iff pos+m <= starts[d+1]
            d = np.searchsorted(starts, pos, side="right") - 1
            keep = pos + m <= starts[d + 1]
            d = d[keep]
            if not len(d):
                continue
            uniq, counts = np.unique(d, return_counts=True)
            out_q.extend([qid] * len(uniq))
            out_d.extend(ids[uniq].tolist())
            out_n.extend(counts.tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "doc_id": pa.array(out_d, type=pa.int64()),
                "n_occurrences": pa.array(out_n, type=pa.int64()),
            }
        )


def phrase_match_counts(
    docs: ray.data.Dataset,
    phrases: Iterable[tuple[int, str]],
    analyzer: AnalyzerConfig | None = None,
    text_column: str = "content",
) -> ray.data.Dataset:
    """Scan path: (query_id, doc_id, n_occurrences) for every doc containing
    each token phrase consecutively (n_occurrences counts every start
    position, overlaps included — the reference's count semantics at token
    granularity, SURVEY.md section 8.2)."""
    counter = _PhraseScanCounter(list(phrases), analyzer or AnalyzerConfig())

    def f(batch: pa.Table) -> pa.Table:
        return counter(batch, text_column)

    return docs.map_batches(f, batch_format="pyarrow")


def phrase_occurrence_counts(
    view, terms: list[str], restrict: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact phrase-occurrence counts from a positional (v4) index:
    ``(doc_ids, counts)`` for every doc containing ``terms`` consecutively
    (counts > 0 only). ``restrict`` (sorted unique doc ids) bounds the
    candidate set — the rescore path passes its retrieval window here so
    the position chain only runs over window docs. Shared kernel of
    ``_PhrasePositionalExecutor`` and ``search_topk_rescored``."""
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if not terms:
        return empty
    data: dict[str, tuple] = {}
    for t in set(terms):
        docs, tfs, pos = view.term_positions(t)
        if not len(docs):
            return empty
        data[t] = (docs, tfs, pos)
    cand: np.ndarray | None = None
    for t in sorted(data, key=lambda t: len(data[t][0])):
        docs = data[t][0]
        cand = docs if cand is None else np.intersect1d(cand, docs, assume_unique=True)
        if not len(cand):
            return empty
    if restrict is not None:
        cand = np.intersect1d(cand, restrict, assume_unique=True)
        if not len(cand):
            return empty
    gpos = {t: _gather_global(cand, *data[t]) for t in data}
    cur = gpos[terms[0]]
    for i in range(1, len(terms)):
        gi = gpos[terms[i]]
        want = cur + i
        j = np.searchsorted(gi, want)
        j_c = np.minimum(j, len(gi) - 1)
        cur = cur[gi[j_c] == want]
        if not len(cur):
            return empty
    ords = (cur >> np.int64(32)).astype(np.int64)
    counts = np.bincount(ords, minlength=len(cand))
    hit = np.flatnonzero(counts)
    return cand[hit], counts[hit]


def _gather_global(
    cand: np.ndarray, docs: np.ndarray, tfs: np.ndarray, pos: np.ndarray
) -> np.ndarray:
    """Candidate docs' positions as ONE sorted flat array of
    ``doc_ordinal * 2^32 + position`` — the stride makes same-doc
    membership checks a plain searchsorted over the merged array, so
    the whole phrase chain runs vectorized with no per-doc loop."""
    idx = np.searchsorted(docs, cand)  # every cand present by construction
    bounds = np.concatenate(([0], np.cumsum(tfs)))
    lens = tfs[idx]
    starts = bounds[idx]
    total = int(lens.sum())
    ends_ex = np.cumsum(lens)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends_ex - lens, lens)
    flat = pos[np.repeat(starts, lens) + within]
    ordinals = np.repeat(np.arange(len(cand), dtype=np.int64), lens)
    return (ordinals << np.int64(32)) + flat


class _PhrasePositionalExecutor:
    """Query stage for POSITIONAL (v4) indexes: (query_id, phrase)
    rows -> exact (query_id, doc_id, n_occurrences) from the index alone —
    no content re-read. Candidates = posting intersection; occurrence
    check = chained position-membership (start s matches iff term_i has
    position s+i for every i), searchsorted per candidate doc."""

    def __init__(self, index_dir: str | IndexView):
        from distributed_text_search_ray.functions.tokenize import Tokenizer

        self.view = as_view(index_dir)
        self.tokenizer = Tokenizer(self.view.cfg.analyzer)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_q, out_d, out_n = [], [], []
        for qid, phrase in zip(
            batch.column("query_id").to_pylist(), batch.column("query").to_pylist()
        ):
            terms = self.tokenizer.tokens(phrase)
            docs, counts = phrase_occurrence_counts(self.view, terms)
            out_q.extend([int(qid)] * len(docs))
            out_d.extend(docs.tolist())
            out_n.extend(counts.tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "doc_id": pa.array(out_d, type=pa.int64()),
                "n_occurrences": pa.array(out_n, type=pa.int64()),
            }
        )


def phrase_search_positional(
    index_dir: str,
    phrases: Iterable[tuple[int, str]],
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """Phrase counts answered purely from a positional (v4) index — the
    third, fully index-resident plan (scan / index-assisted verify /
    positional). Result-identical to ``phrase_match_counts``."""
    items = [{"query_id": int(q), "query": str(p)} for q, p in phrases]
    # one query per batch: positional decode is the heavy unit of work (a
    # stopword-dense query decodes millions of positions), so a small query
    # batch must still fan out over one task per CPU
    return index_stage(
        items, _PhrasePositionalExecutor, index_dir, batch_size=1,
        concurrency=concurrency,
    )


class _PhraseCandidates:
    """Query stage: (query_id, phrase) rows -> (query_id, doc_id)
    candidate rows via posting-list intersection on the loaded index."""

    def __init__(self, index_dir: str | IndexView):
        from distributed_text_search_ray.functions.tokenize import Tokenizer

        self.view = as_view(index_dir)
        self.tokenizer = Tokenizer(self.view.cfg.analyzer)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_q, out_d = [], []
        for qid, phrase in zip(
            batch.column("query_id").to_pylist(), batch.column("query").to_pylist()
        ):
            terms = self.tokenizer.tokens(phrase)
            if not terms:
                continue
            cand: np.ndarray | None = None
            # rarest-first: df-ascending intersection keeps intermediates
            # as small as the rarest term's postings
            for term in sorted(set(terms), key=lambda t: self.view.term_df(t)):
                docs, _tfs, _dls, df = self.view.term_postings(term)
                if df == 0 or not len(docs):
                    cand = np.empty(0, dtype=np.int64)
                    break
                cand = docs if cand is None else np.intersect1d(cand, docs, assume_unique=True)
                if not len(cand):
                    break
            if cand is None:
                continue
            out_q.extend([int(qid)] * len(cand))
            out_d.extend(cand.tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "doc_id": pa.array(out_d, type=pa.int64()),
            }
        )


def phrase_search_indexed(
    index_dir: str,
    docs: ray.data.Dataset,
    phrases: Iterable[tuple[int, str]],
    analyzer: AnalyzerConfig | None = None,
    text_column: str = "content",
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """Index-assisted path, result-identical to ``phrase_match_counts``.

    Phase 1 intersects the phrase terms' posting lists in query tasks
    (candidate docs contain every term SOMEWHERE — a superset of phrase
    matches). Phase 2 re-reads only candidate docs (vectorized ``is_in``
    semi-join filter; candidate-id set broadcast via closure capture) and
    runs the exact positional scan on that subset.

    Scale note: the candidate-id set per phrase is bounded by the rarest
    term's df. For phrases of all-stopwords that bound is O(N) and the
    broadcast id-set would blow up — detect nothing here; callers at scale
    should route such phrases to ``phrase_match_counts`` (full scan costs
    the same as verifying an O(N) candidate set, without the id-set
    broadcast) — or build with ``store_positions=True`` and use
    ``phrase_search_positional``, which needs no candidate broadcast.
    """
    phrases = list(phrases)
    analyzer = analyzer or AnalyzerConfig()
    items = [{"query_id": int(q), "query": str(p)} for q, p in phrases]
    cand = index_stage(
        items, _PhraseCandidates, index_dir, concurrency=concurrency
    ).materialize()  # small: bounded by rarest-term df per phrase
    cand_tbl = pa.concat_tables(ray.get(cand.to_arrow_refs()))
    all_ids = pc.unique(cand_tbl.column("doc_id"))
    counter = _PhraseScanCounter(phrases, analyzer)

    # a positive positional count implies every phrase term is present,
    # which implies candidacy — so counting over the candidate-id union is
    # both complete (candidates are a superset of matches) and precise (no
    # per-(query, doc) candidacy re-check needed)
    def verify(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.is_in(batch.column("doc_id"), value_set=all_ids))
        if sub.num_rows == 0:
            return _empty_out()
        return counter(sub, text_column)

    return docs.map_batches(verify, batch_format="pyarrow")


class _ProximityExecutor:
    """Query stage for positional (v4) indexes: (query_id, query) rows
    -> (query_id, doc_id, min_span) for docs where one occurrence of EVERY
    distinct query term fits in a token window with max(pos) - min(pos) <=
    ``max_span`` (proximity / within-window search; min_span is the tightest
    achievable span). Fully index-resident — no content re-read.

    Vectorized minimal-window over candidate docs: all k terms' global
    coordinates (doc_ordinal<<32 | position, ``_gather_global``) merge with
    term labels into one sorted stream; the best window ENDING at element i
    spans pos_i - min_over_labels(last_seen_label) where last_seen is a
    forward-filled running maximum per label (k accumulate passes — no
    per-doc Python loop). Doc boundaries need no masking: a last-seen
    carried over from a previous doc inflates the span past 2^32, which no
    sane max_span reaches, so such windows self-filter.
    """

    def __init__(self, index_dir: str | IndexView, max_span: int):
        from distributed_text_search_ray.functions.tokenize import Tokenizer

        if not (0 <= max_span < (1 << 31)):
            raise ValueError(f"max_span must be in [0, 2^31): {max_span}")
        self.view = as_view(index_dir)
        self.tokenizer = Tokenizer(self.view.cfg.analyzer)
        self.max_span = max_span

    _SENTINEL = np.int64(-(1 << 62))

    def _one(self, qid: int, query: str, out_q, out_d, out_s) -> None:
        terms = sorted(set(self.tokenizer.tokens(query)))
        if not terms:
            return
        data: dict[str, tuple] = {}
        for t in terms:
            docs, tfs, pos = self.view.term_positions(t)
            if not len(docs):
                return  # ALL terms required
            data[t] = (docs, tfs, pos)
        cand: np.ndarray | None = None
        for t in sorted(terms, key=lambda t: len(data[t][0])):
            docs = data[t][0]
            cand = docs if cand is None else np.intersect1d(cand, docs, assume_unique=True)
            if not len(cand):
                return
        k = len(terms)
        gs = [_gather_global(cand, *data[t]) for t in terms]
        G = np.concatenate(gs)
        L = np.repeat(np.arange(k, dtype=np.int64), [len(g) for g in gs])
        order = np.argsort(G, kind="stable")
        G, L = G[order], L[order]
        min_last = np.full(len(G), np.int64((1 << 62)), dtype=np.int64)
        seen_all = np.ones(len(G), dtype=bool)
        for j in range(k):
            lab = np.where(L == j, G, self._SENTINEL)
            last = np.maximum.accumulate(lab)
            seen_all &= last != self._SENTINEL
            np.minimum(min_last, last, out=min_last)
        span = G - min_last
        ok = seen_all & (span <= self.max_span)
        if not ok.any():
            return
        ords = (G[ok] >> np.int64(32)).astype(np.int64)
        best = np.full(len(cand), np.int64(1 << 62), dtype=np.int64)
        np.minimum.at(best, ords, span[ok])
        hit = np.flatnonzero(best <= self.max_span)
        # numpy chunks, concatenated once in __call__ — an all-docs query
        # emits ~corpus-size hits, and Python-list building (3 x N int
        # boxing) measurably dominated the vectorized window math
        out_q.append(np.full(len(hit), np.int64(qid)))
        out_d.append(cand[hit])
        out_s.append(best[hit])

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_q: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        out_s: list[np.ndarray] = []
        for qid, query in zip(
            batch.column("query_id").to_pylist(), batch.column("query").to_pylist()
        ):
            self._one(qid, query, out_q, out_d, out_s)
        z = np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "query_id": pa.array(
                    np.concatenate(out_q) if out_q else z, type=pa.int64()
                ),
                "doc_id": pa.array(
                    np.concatenate(out_d) if out_d else z, type=pa.int64()
                ),
                "min_span": pa.array(
                    np.concatenate(out_s) if out_s else z, type=pa.int64()
                ),
            }
        )


def proximity_search(
    index_dir: str,
    queries: Iterable[tuple[int, str]],
    max_span: int,
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """Within-window (proximity) search over a positional (v4) index:
    (query_id, doc_id, min_span) for docs where all distinct query terms
    co-occur within a span of ``max_span`` token positions. Single-term
    queries match every containing doc with min_span 0; a query with any
    index-absent term matches nothing."""
    items = [{"query_id": int(q), "query": str(p)} for q, p in queries]
    # one query per batch — same fan-out rationale as the positional phrase
    # stage above
    return index_stage(
        items, _ProximityExecutor, index_dir, batch_size=1, concurrency=concurrency,
        max_span=max_span,
    )


def proximity_sql(
    query: str, query_id: int, max_span: int, tok_sql: str, analyzer=None
) -> str:
    """DuckDB oracle for one proximity query: the same last-seen running
    maximum, as k window-function columns over the unnested token stream
    (SQL positions are 1-based; only span differences matter)."""
    from distributed_text_search_ray.config import AnalyzerConfig
    from distributed_text_search_ray.functions.tokenize import Tokenizer

    terms = sorted(set(Tokenizer(analyzer or AnalyzerConfig()).tokens(query)))
    if not terms:
        return f"SELECT {query_id} AS query_id, doc_id, 0 AS min_span FROM documents WHERE FALSE"
    quoted = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    lasts = ",\n        ".join(
        f"max(CASE WHEN term = '{t}' THEN pos END) OVER w AS l{j}"
        for j, t in enumerate(terms)
    )
    least = ", ".join(f"l{j}" for j in range(len(terms)))
    notnull = " AND ".join(f"l{j} IS NOT NULL" for j in range(len(terms)))
    least_expr = f"LEAST({least})" if len(terms) > 1 else "l0"
    return f"""
WITH toks AS (SELECT doc_id, {tok_sql} AS l FROM documents),
tok AS (SELECT doc_id, l[i] AS term, i AS pos
        FROM toks, unnest(generate_series(1, len(l))) AS s(i)),
r AS (SELECT doc_id, pos,
        {lasts}
      FROM tok WHERE term IN ({quoted})
      WINDOW w AS (PARTITION BY doc_id ORDER BY pos ROWS UNBOUNDED PRECEDING)),
sp AS (SELECT doc_id, pos - {least_expr} AS span FROM r WHERE {notnull})
SELECT {query_id} AS query_id, doc_id, min(span)::BIGINT AS min_span
FROM sp GROUP BY doc_id HAVING min(span) <= {max_span}
"""


class _SpanNearExecutor:
    """Query stage for ORDERED span-near search (Lucene ``span_near``
    with ``in_order=true``): query tokens, in QUERY ORDER and with
    duplicates preserved, must appear at strictly increasing positions
    p1 < p2 < ... < pk; the match's gap is ``pk - p1 - (k-1)`` (the number
    of interposed non-matching positions, Lucene's slop measure).

    Minimal-gap search is greedy and fully vectorized: for every occurrence
    of the first token, chain each next token to its SMALLEST position
    strictly after the current one (one ``searchsorted`` per chain step
    over the merged global ``doc_ordinal<<32 | pos`` array — choosing the
    smallest valid successor is optimal because any later choice only
    shrinks the downstream option set). Complements ``_ProximityExecutor``,
    which is the UNORDERED within-window variant."""

    def __init__(self, index_dir: str | IndexView, slop: int):
        from distributed_text_search_ray.functions.tokenize import Tokenizer

        if not (0 <= slop < (1 << 31)):
            raise ValueError(f"slop must be in [0, 2^31): {slop}")
        self.view = as_view(index_dir)
        self.tokenizer = Tokenizer(self.view.cfg.analyzer)
        self.slop = slop

    def _one(self, qid: int, query: str, out_q, out_d, out_g) -> None:
        terms = self.tokenizer.tokens(query)  # order kept, duplicates kept
        if not terms:
            return
        data: dict[str, tuple] = {}
        for t in set(terms):
            docs, tfs, pos = self.view.term_positions(t)
            if not len(docs):
                return  # ALL chain steps required
            data[t] = (docs, tfs, pos)
        cand: np.ndarray | None = None
        for t in sorted(set(terms), key=lambda t: len(data[t][0])):
            docs = data[t][0]
            cand = docs if cand is None else np.intersect1d(cand, docs, assume_unique=True)
            if not len(cand):
                return
        gpos = {t: _gather_global(cand, *data[t]) for t in set(terms)}
        start = gpos[terms[0]]
        cur = start
        alive = np.ones(len(cur), dtype=bool)
        for t in terms[1:]:
            nxt = gpos[t]
            i = np.searchsorted(nxt, cur + 1, side="left")
            ok = alive & (i < len(nxt))
            i_c = np.minimum(i, len(nxt) - 1)
            step = nxt[i_c]
            # landing in a later doc's region means no successor in-doc
            ok &= (step >> np.int64(32)) == (cur >> np.int64(32))
            cur = np.where(ok, step, cur)
            alive = ok
            if not alive.any():
                return
        k = len(terms)
        gap = (cur - start) - np.int64(k - 1)
        ords = (start >> np.int64(32)).astype(np.int64)
        best = np.full(len(cand), np.int64(1 << 62), dtype=np.int64)
        np.minimum.at(best, ords[alive], gap[alive])
        hit = np.flatnonzero(best <= self.slop)
        if not len(hit):
            return
        out_q.append(np.full(len(hit), np.int64(qid)))
        out_d.append(cand[hit])
        out_g.append(best[hit])

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_q: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        out_g: list[np.ndarray] = []
        for qid, query in zip(
            batch.column("query_id").to_pylist(), batch.column("query").to_pylist()
        ):
            self._one(qid, query, out_q, out_d, out_g)
        z = np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "query_id": pa.array(
                    np.concatenate(out_q) if out_q else z, type=pa.int64()
                ),
                "doc_id": pa.array(
                    np.concatenate(out_d) if out_d else z, type=pa.int64()
                ),
                "min_gap": pa.array(
                    np.concatenate(out_g) if out_g else z, type=pa.int64()
                ),
            }
        )


def span_near_search(
    index_dir: str,
    queries: Iterable[tuple[int, str]],
    slop: int,
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """ORDERED span-near search over a positional (v4) index: (query_id,
    doc_id, min_gap) for docs where the query tokens appear in query order
    at strictly increasing positions with at most ``slop`` interposed
    positions total (min_gap = minimal ``p_last - p_first - (k-1)``).
    ``slop=0`` degenerates to exact-phrase matching (for distinct-token
    phrases); a single-token query matches every containing doc with
    min_gap 0; a query with any index-absent token matches nothing."""
    items = [{"query_id": int(q), "query": str(p)} for q, p in queries]
    return index_stage(
        items, _SpanNearExecutor, index_dir, batch_size=1, concurrency=concurrency,
        slop=slop,
    )


def span_near_sql(
    query: str, query_id: int, slop: int, tok_sql: str, analyzer=None
) -> str:
    """DuckDB oracle for one ordered span-near query: the same greedy
    minimal chain, one min-join CTE per chain step (for each partial chain
    ending at ``cur``, the next step's position is ``min(pos) > cur`` in
    the same doc — greedy is optimal, see ``_SpanNearExecutor``)."""
    from distributed_text_search_ray.config import AnalyzerConfig
    from distributed_text_search_ray.functions.tokenize import Tokenizer

    terms = Tokenizer(analyzer or AnalyzerConfig()).tokens(query)
    if not terms:
        return (
            f"SELECT {query_id} AS query_id, doc_id, 0 AS min_gap "
            "FROM documents WHERE FALSE"
        )

    def q(t: str) -> str:
        return "'" + t.replace("'", "''") + "'"

    k = len(terms)
    ctes = [
        f"s1 AS (SELECT doc_id, pos AS p1, pos AS cur FROM tok WHERE term = {q(terms[0])})"
    ]
    for j, t in enumerate(terms[1:], start=2):
        ctes.append(
            f"s{j} AS (SELECT s.doc_id, s.p1, min(n.pos) AS cur\n"
            f"  FROM s{j-1} s JOIN tok n ON n.doc_id = s.doc_id"
            f" AND n.term = {q(t)} AND n.pos > s.cur\n"
            f"  GROUP BY 1, 2)"
        )
    chain = ",\n".join(ctes)
    return f"""
WITH toks AS (SELECT doc_id, {tok_sql} AS l FROM documents),
tok AS (SELECT doc_id, l[i] AS term, i AS pos
        FROM toks, unnest(generate_series(1, len(l))) AS s(i)),
{chain}
SELECT {query_id} AS query_id, doc_id,
       min(cur - p1 - {k - 1})::BIGINT AS min_gap
FROM s{k} GROUP BY doc_id HAVING min(cur - p1 - {k - 1}) <= {slop}
"""


class _PhrasePrefixExecutor:
    """Query stage for match_phrase_prefix (ES search-as-you-type):
    (query_id, phrase) rows where the LAST token is a prefix -> exact
    (query_id, doc_id, n_occurrences) from a positional (v4) index.

    The prefix expands over the sorted dictionary to the FIRST
    ``max_expansions`` matching terms (the Lucene cap — deterministic by
    term order, mirrored by the twin's ORDER BY term LIMIT E); a start
    position matches iff the k-1 exact terms chain consecutively and the
    token at position start+k-1 is any expanded term. Expansion positions
    merge into ONE sorted membership array, so the final chain step is the
    same searchsorted the exact phrase path uses — no per-term loop."""

    def __init__(self, index_dir: str | IndexView, max_expansions: int = 50):
        from distributed_text_search_ray.functions.tokenize import Tokenizer

        self.view = as_view(index_dir)
        self.tokenizer = Tokenizer(self.view.cfg.analyzer)
        self.expander = self.view.dictionary()
        self.max_expansions = int(max_expansions)

    def _expand_prefix(self, prefix: str) -> list[str]:
        import pyarrow.compute as pc

        if not prefix:
            return []
        mask = pc.starts_with(self.expander.terms, prefix)
        terms = self.expander.terms.filter(mask).to_pylist()
        return sorted(set(terms))[: self.max_expansions]

    @staticmethod
    def _gather_global_subset(
        cand: np.ndarray, docs: np.ndarray, tfs: np.ndarray, pos: np.ndarray
    ) -> np.ndarray:
        """Like ``_gather_global`` but for a term whose posting list does
        NOT cover ``cand`` (an expansion term matches only SOME candidates):
        gathers positions for docs ∩ cand only, ordinal-encoded in CAND
        space — ``_gather_global``'s searchsorted assumes every cand doc is
        present and silently gathers a neighboring doc's positions (or
        walks off the array) otherwise; the 1.15M-doc spot-check caught
        exactly that."""
        _, di, ci = np.intersect1d(
            docs, cand, assume_unique=True, return_indices=True
        )
        bounds = np.concatenate(([0], np.cumsum(tfs)))
        lens = tfs[di]
        starts = bounds[di]
        total = int(lens.sum())
        ends_ex = np.cumsum(lens)
        within = np.arange(total, dtype=np.int64) - np.repeat(ends_ex - lens, lens)
        flat = pos[np.repeat(starts, lens) + within]
        ordinals = np.repeat(ci.astype(np.int64), lens)
        return (ordinals << np.int64(32)) + flat

    def _one(self, phrase: str) -> tuple[np.ndarray, np.ndarray]:
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        terms = self.tokenizer.tokens(phrase)
        if not terms:
            return empty
        exact, prefix = terms[:-1], terms[-1]
        expansion = self._expand_prefix(prefix)
        if not expansion:
            return empty
        edata = {}
        for t in expansion:
            docs, tfs, pos = self.view.term_positions(t)
            if len(docs):
                edata[t] = (docs, tfs, pos)
        if not edata:
            return empty
        union_docs = np.unique(np.concatenate([edata[t][0] for t in edata]))
        data = {}
        for t in set(exact):
            docs, tfs, pos = self.view.term_positions(t)
            if not len(docs):
                return empty
            data[t] = (docs, tfs, pos)
        cand = union_docs
        for t in sorted(data, key=lambda t: len(data[t][0])):
            cand = np.intersect1d(cand, data[t][0], assume_unique=True)
            if not len(cand):
                return empty
        uni = np.sort(
            np.concatenate(
                [self._gather_global_subset(cand, *edata[t]) for t in edata]
            )
        )
        k = len(terms)
        if k == 1:
            cur = uni
        else:
            gpos = {t: _gather_global(cand, *data[t]) for t in data}
            cur = gpos[exact[0]]
            for i in range(1, k - 1):
                gi = gpos[exact[i]]
                want = cur + i
                j = np.searchsorted(gi, want)
                j_c = np.minimum(j, len(gi) - 1)
                cur = cur[gi[j_c] == want]
                if not len(cur):
                    return empty
            want = cur + (k - 1)
            j = np.searchsorted(uni, want)
            j_c = np.minimum(j, max(len(uni) - 1, 0))
            cur = want[uni[j_c] == want] if len(uni) else want[:0]
        if not len(cur):
            return empty
        ords = (cur >> np.int64(32)).astype(np.int64)
        counts = np.bincount(ords, minlength=len(cand))
        hit = np.flatnonzero(counts)
        return cand[hit], counts[hit]

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_q, out_d, out_n = [], [], []
        for qid, phrase in zip(
            batch.column("query_id").to_pylist(), batch.column("query").to_pylist()
        ):
            docs, counts = self._one(phrase)
            out_q.extend([int(qid)] * len(docs))
            out_d.extend(docs.tolist())
            out_n.extend(counts.tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "doc_id": pa.array(out_d, type=pa.int64()),
                "n_occurrences": pa.array(out_n, type=pa.int64()),
            }
        )


def match_phrase_prefix(
    index_dir: str,
    phrases: Iterable[tuple[int, str]],
    max_expansions: int = 50,
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """ES ``match_phrase_prefix`` (search-as-you-type): the last token of
    each phrase matches any dictionary term with that prefix (capped at the
    first ``max_expansions`` in sorted term order, the Lucene contract);
    preceding tokens must chain consecutively, answered purely from a
    positional (v4) index. Returns (query_id, doc_id, n_occurrences)."""
    items = [{"query_id": int(q), "query": str(p)} for q, p in phrases]
    return index_stage(
        items, _PhrasePrefixExecutor, index_dir, batch_size=1, concurrency=concurrency,
        max_expansions=max_expansions,
    )
