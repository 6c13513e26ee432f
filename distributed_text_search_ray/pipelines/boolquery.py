"""Boolean retrieval over the inverted index: AND / OR / AND-NOT queries.

The reference answers only "count windows within distance k" per pattern;
a fulltext engine additionally needs set-algebra document retrieval. Queries
use a minimal grammar (uppercase keywords; precedence NOT > AND > OR, no
parentheses)::

    expr := conj (OR conj)*
    conj := lit (AND lit)*
    lit  := [NOT] term

Pure-negative conjunctions ("NOT x", "NOT x AND NOT y") are rejected at
parse time: complements need the full doc-id universe, which an index
partition doesn't hold — the standard IR restriction (negation only
narrows a positive result).

Evaluation is posting-list set algebra on the worker's cached ``IndexView``
inside Ray tasks (same no-shuffle hash-routed read path as BM25): AND =
``np.intersect1d`` rarest-first (intermediates bounded by the rarest
term's df), OR = ``np.union1d``, AND NOT = ``np.setdiff1d``. Terms are
run through the index analyzer, so "Value" matches the term "value".

The same parsed AST also generates the DuckDB oracle SQL
(``__ray_entry__.oracle_sql``), so engine and oracle can never disagree
about what a query means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import pyarrow as pa
import ray.data

from distributed_text_search_ray.stages.executor import IndexView, as_view
from distributed_text_search_ray.stages.index_stage import index_stage
from distributed_text_search_ray.util import resolve_concurrency


@dataclass(frozen=True)
class Lit:
    term: str
    negated: bool


def parse_boolean_query(query: str) -> list[list[Lit]]:
    """Parse to disjunctive normal form: a list of OR'd conjunctions, each a
    list of literals. Raises ValueError on empty/invalid/pure-negative input."""
    toks = query.split()
    if not toks:
        raise ValueError("empty boolean query")
    groups: list[list[Lit]] = [[]]
    expect_term = True
    negate = False
    for t in toks:
        if t == "OR":
            if expect_term or not groups[-1]:
                raise ValueError(f"misplaced OR in {query!r}")
            groups.append([])
            expect_term = True
        elif t == "AND":
            if expect_term:
                raise ValueError(f"misplaced AND in {query!r}")
            expect_term = True
        elif t == "NOT":
            if not expect_term or negate:
                raise ValueError(f"misplaced NOT in {query!r}")
            negate = True
        else:
            if not expect_term:
                raise ValueError(f"expected AND/OR before {t!r} in {query!r}")
            groups[-1].append(Lit(t, negate))
            negate = False
            expect_term = False
    if expect_term:
        raise ValueError(f"dangling operator in {query!r}")
    for g in groups:
        if all(l.negated for l in g):
            raise ValueError(f"pure-negative conjunction in {query!r}")
    return groups


class _BooleanExecutor:
    """Query stage: (query_id, query) rows -> (query_id, doc_id) rows."""

    def __init__(self, index_dir: str | IndexView):
        from distributed_text_search_ray.functions.tokenize import Tokenizer

        self.view = as_view(index_dir)
        self.tokenizer = Tokenizer(self.view.cfg.analyzer)

    def _analyze(self, term: str) -> str:
        toks = self.tokenizer.tokens(term)
        if len(toks) != 1:
            raise ValueError(f"boolean literal {term!r} is not a single term")
        return toks[0]

    def _term_docs(self, term: str) -> np.ndarray:
        return self.view.term_postings(self._analyze(term))[0]

    def _eval_conj(self, conj: list[Lit]) -> np.ndarray:
        pos = [l.term for l in conj if not l.negated]
        neg = [l.term for l in conj if l.negated]
        # rarest-first keeps every intermediate <= the rarest term's df
        pos_docs = sorted((self._term_docs(t) for t in pos), key=len)
        acc = pos_docs[0]
        for d in pos_docs[1:]:
            if not len(acc):
                return acc
            acc = np.intersect1d(acc, d, assume_unique=True)
        for t in neg:
            if not len(acc):
                return acc
            acc = np.setdiff1d(acc, self._term_docs(t), assume_unique=True)
        return acc

    def __call__(self, batch: pa.Table) -> pa.Table:
        # match sets can be O(corpus) per query — assemble the output from
        # the numpy arrays directly, never through Python int lists
        qids, accs = [], []
        for qid, q in zip(
            batch.column("query_id").to_pylist(), batch.column("query").to_pylist()
        ):
            groups = parse_boolean_query(q)
            acc = self._eval_conj(groups[0])
            for g in groups[1:]:
                acc = np.union1d(acc, self._eval_conj(g))
            qids.append(int(qid))
            accs.append(acc.astype(np.int64, copy=False))
        counts = np.fromiter((len(a) for a in accs), dtype=np.int64, count=len(accs))
        return pa.table(
            {
                "query_id": pa.array(
                    np.repeat(np.asarray(qids, dtype=np.int64), counts), type=pa.int64()
                ),
                "doc_id": pa.array(
                    np.concatenate(accs) if accs else np.empty(0, dtype=np.int64),
                    type=pa.int64(),
                ),
            }
        )


def boolean_search(
    index_dir: str,
    queries: Iterable[tuple[int, str]],
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """(query_id, doc_id) for every doc satisfying each boolean query."""
    items = [{"query_id": int(q), "query": str(s)} for q, s in queries]
    # batch_size=1: a small interactive batch still spreads over one task
    # per CPU, and each match set (corpus-scale) is its own output batch
    return index_stage(
        items, _BooleanExecutor, index_dir, batch_size=1, concurrency=concurrency
    )


class _RelevanceStatsExecutor(_BooleanExecutor):
    """Bounded-output judgment stage for ``search.rank_eval``: evaluates
    each boolean (AND-conjunction) relevance query with the same rarest-
    first posting intersection as ``boolean_search``, but the match set
    never leaves the task — the emitted rows are one per-query COUNT row
    (doc_id = -1, n_part = |relevant set|) plus one row per top-k hit doc
    that is relevant (n_part = 0). ``hit_docs``: {query_id: sorted int64
    array of that query's ranked docs} — k-sized, shipped with the stage."""

    def __init__(self, index_dir: str | IndexView, hit_docs: dict[int, np.ndarray]):
        super().__init__(index_dir)
        self.hit_docs = {int(q): np.asarray(d, dtype=np.int64) for q, d in hit_docs.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_q, out_d, out_n = [], [], []
        for qid, q in zip(
            batch.column("query_id").to_pylist(), batch.column("query").to_pylist()
        ):
            groups = parse_boolean_query(q)
            acc = self._eval_conj(groups[0])
            for g in groups[1:]:
                acc = np.union1d(acc, self._eval_conj(g))
            out_q.append(int(qid))
            out_d.append(-1)
            out_n.append(int(len(acc)))
            hd = self.hit_docs.get(int(qid))
            if hd is not None and len(hd) and len(acc):
                for d in hd[np.isin(hd, acc, assume_unique=True)]:
                    out_q.append(int(qid))
                    out_d.append(int(d))
                    out_n.append(0)
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "doc_id": pa.array(out_d, type=pa.int64()),
                "n_part": pa.array(out_n, type=pa.int64()),
            }
        )


class _FacetExecutor(_BooleanExecutor):
    """Boolean matches rolled up per attribute value: (query_id, value,
    n_docs). Attribute id-arrays load once per task from the build-time
    sidecar (small value vocabulary); per query the count per value is one
    searchsorted membership pass over the match set."""

    def __init__(self, index_dir: str | IndexView, attr: str):
        super().__init__(index_dir)
        import glob
        import os

        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        attr_dir = os.path.join(self.view.index_dir, "attributes")
        files = sorted(glob.glob(os.path.join(attr_dir, "*.attrs.parquet")))
        if not files:
            raise FileNotFoundError(
                f"no attribute sidecar under {attr_dir}; build with "
                f"IndexConfig(attribute_columns=({attr!r},))"
            )
        # sidecars are per-shard: a shard whose docs lack this attribute
        # writes a sidecar without the column — skip it (its docs facet as
        # non-matching) instead of letting pyarrow raise on the column
        # projection; null attribute values are likewise non-matching (they
        # would also break the sorted() over value keys below)
        by_value: dict[str, list[np.ndarray]] = {}
        for f in files:
            if attr not in pq.read_schema(f).names:
                continue
            t = pq.read_table(f, columns=["doc_id", attr])
            t = t.filter(pc.is_valid(t.column(attr)))
            for v in pc.unique(t.column(attr)).to_pylist():
                by_value.setdefault(v, []).append(
                    t.filter(pc.equal(t.column(attr), v)).column("doc_id").to_numpy()
                )
        self.value_ids = {
            v: np.sort(np.concatenate(chunks)) for v, chunks in by_value.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        matches = super().__call__(batch)
        out_q, out_v, out_n = [], [], []
        qids = matches.column("query_id").to_numpy()
        docs = matches.column("doc_id").to_numpy()
        for qid in np.unique(qids):
            mdocs = np.sort(docs[qids == qid])
            for v in sorted(self.value_ids):
                ids = self.value_ids[v]
                pos = np.searchsorted(ids, mdocs)
                pos_c = np.minimum(pos, len(ids) - 1)
                n = int((ids[pos_c] == mdocs).sum()) if len(ids) else 0
                if n:
                    out_q.append(int(qid))
                    out_v.append(v)
                    out_n.append(n)
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "value": pa.array(out_v, type=pa.string()),
                "n_docs": pa.array(out_n, type=pa.int64()),
            }
        )


def facet_counts(
    index_dir: str,
    queries: Iterable[tuple[int, str]],
    attr: str,
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """(query_id, value, n_docs): boolean-query matches faceted by a
    build-time attribute (e.g. lang). Values with zero matches are omitted."""
    items = [{"query_id": int(q), "query": str(s)} for q, s in queries]
    return index_stage(
        items, _FacetExecutor, index_dir, concurrency=concurrency, attr=attr
    )


def boolean_query_sql(
    query: str, query_id: int, tok_sql: str, analyzer=None
) -> str:
    """DuckDB oracle for one boolean query, generated from the SAME parse.

    ``tok_sql`` is the engine-equivalent SQL tokenizer expression over a
    column named ``text`` (list of terms)."""
    from distributed_text_search_ray.config import AnalyzerConfig
    from distributed_text_search_ray.functions.tokenize import Tokenizer

    tk = Tokenizer(analyzer or AnalyzerConfig())

    def pred(lit: Lit) -> str:
        toks = tk.tokens(lit.term)
        assert len(toks) == 1
        inop = "NOT IN" if lit.negated else "IN"
        return (
            f"d.doc_id {inop} (SELECT doc_id FROM documents dd, "
            f"unnest({tok_sql.format(col='dd.text')}) AS u(term) WHERE u.term = '{toks[0]}')"
        )

    groups = parse_boolean_query(query)
    expr = " OR ".join(
        "(" + " AND ".join(pred(l) for l in g) + ")" for g in groups
    )
    return (
        f"SELECT {query_id}::BIGINT query_id, d.doc_id FROM documents d WHERE {expr}"
    )


class _PercolateExecutor:
    """Reverse search (percolator): the STORED QUERY SET is the state,
    documents are the stream — the alerting/routing shape (match each
    incoming doc against every saved query; Lucene/ES ``percolate``).

    Queries parse and analyze ONCE per actor into DNF literal sets; each
    doc's token set is built once and every query evaluates by frozenset
    algebra (positive literals subset-of doc tokens, negated disjoint).
    Per-doc matching is O(query terms), independent of corpus size, and the
    stage is embarrassingly parallel — no index, no shuffle; at 100 TB this
    runs as a plain streaming map over the ingest."""

    def __init__(self, queries, analyzer=None):
        from distributed_text_search_ray.config import AnalyzerConfig
        from distributed_text_search_ray.functions.tokenize import Tokenizer

        self.tokenizer = Tokenizer(analyzer or AnalyzerConfig())
        self.compiled: list[tuple[int, list[tuple[frozenset, frozenset]]]] = []
        for qid, q in queries:
            groups = parse_boolean_query(q)
            cg = []
            for g in groups:
                pos, neg = [], []
                for lit in g:
                    toks = self.tokenizer.tokens(lit.term)
                    if len(toks) != 1:
                        raise ValueError(
                            f"percolator literal {lit.term!r} is not a single term"
                        )
                    (neg if lit.negated else pos).append(toks[0])
                cg.append((frozenset(pos), frozenset(neg)))
            self.compiled.append((int(qid), cg))

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_d, out_q = [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("content").to_pylist()
        ):
            toks = frozenset(self.tokenizer.tokens(text))
            for qid, cg in self.compiled:
                if any(pos <= toks and not (neg & toks) for pos, neg in cg):
                    out_d.append(doc_id)
                    out_q.append(qid)
        return pa.table(
            {
                "doc_id": pa.array(out_d, type=pa.int64()),
                "query_id": pa.array(out_q, type=pa.int64()),
            }
        )


def percolate(
    docs: ray.data.Dataset,
    queries: Iterable[tuple[int, str]],
    analyzer=None,
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """(doc_id, query_id) for every (document, stored boolean query) match —
    reverse search over a document stream."""
    return docs.map_batches(
        _PercolateExecutor,
        fn_constructor_kwargs={
            "queries": [(int(q), str(s)) for q, s in queries],
            "analyzer": analyzer,
        },
        batch_format="pyarrow",
        concurrency=resolve_concurrency(concurrency),
    )


def percolate_sql(
    queries: Iterable[tuple[int, str]], tok_sql: str, analyzer=None
) -> str:
    """DuckDB twin of ``percolate``: per-doc token-list membership, one
    UNION ALL branch per stored query, generated from the SAME parse."""
    from distributed_text_search_ray.config import AnalyzerConfig
    from distributed_text_search_ray.functions.tokenize import Tokenizer

    tk = Tokenizer(analyzer or AnalyzerConfig())

    def pred(lit: Lit) -> str:
        toks = tk.tokens(lit.term)
        assert len(toks) == 1
        base = f"list_contains(toks.l, '{toks[0]}')"
        return f"NOT {base}" if lit.negated else base

    branches = []
    for qid, q in queries:
        groups = parse_boolean_query(q)
        expr = " OR ".join(
            "(" + " AND ".join(pred(l) for l in g) + ")" for g in groups
        )
        branches.append(
            f"SELECT toks.doc_id, {int(qid)}::BIGINT query_id FROM toks WHERE {expr}"
        )
    body = "\nUNION ALL\n".join(branches)
    return (
        f"WITH toks AS (SELECT doc_id, {tok_sql.format(col='text')} l FROM documents)\n"
        + body
    )
