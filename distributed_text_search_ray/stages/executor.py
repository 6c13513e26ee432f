"""Query executors: plain callables over a read-only index view.

The reference's per-process state is the GPU context + device caps initialised
once (``src/flexible_mpi.cu:66-75``, called at ``src/flexible_mpi.c:456-464``);
ours is the opened index. Query stages run as Ray tasks
(``stages.index_stage``): a task builds its executor around the worker
process's cached ``IndexView`` of the current index generation
(``open_view``, keyed by ``state.generations``), so metadata, segment
readers, decoded postings and the term dictionary are opened once per worker
and generation, not once per call. Constructed directly with a path, an
executor opens a fresh view of its own.

Scoring is exact top-k BM25 over the OR of the query's distinct terms. A
term's BM25 contributions (``idf * tf_part`` per posting) are computed once
per index generation and cached (``IndexView.term_contribs``); every mode
adds them per doc in ascending term order (the oracle's float64 determinism
contract), so all modes are bit-identical (unit-tested):

- ``taat`` (executor default): term-at-a-time. On dense doc ids (0..N, as
  the documents tables number them) contributions accumulate into one
  reusable float64 array, no sort; sparse 63-bit fingerprint ids fall back
  to a stable sort and a segmented sum. On dense ids a term whose live
  postings cover at least half of the id space is cached as one float64
  vector over it (``IndexView.term_dense``, 8 bytes per id slot: no more
  than the 16 bytes per posting of its sparse contributions at that
  density) and added with one vector add, in the same term order; where
  the term is absent the add is an exact ``+0.0``, so sums do not change.
  The top-k cut ``t`` is the k-th largest of every 16th accumulator slot:
  k slots score ``>= t``, so the k-th largest score is ``>= t`` and
  ``buf >= t`` keeps every top-k doc and every tie of the k-th — exact.
- ``maxscore`` (pipeline default) and ``wand``: aliases of ``taat``.
  MaxScore candidate pruning (Turtle & Flood 1995) and Block-Max WAND
  (Ding & Suel 2011) pay off only when they skip decode or I/O; over cached
  contributions they skip neither, so segments store no per-block score
  metadata.

Term -> partition routing is pure hash (no shuffle): normal terms live in one
partition; salted heavy terms are re-assembled from their salt buckets and
scored with the exact global df recorded at finalize.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Iterable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from distributed_text_search_ray.config import AnalyzerConfig, IndexConfig
from distributed_text_search_ray.functions import bm25
from distributed_text_search_ray.functions.hashing import stable_u64, term_partition
from distributed_text_search_ray.functions.lev import TermStore, term_distances_many
from distributed_text_search_ray.functions.tokenize import Tokenizer
from distributed_text_search_ray.state.alias import resolve_index
from distributed_text_search_ray.state.generations import generation_key
from distributed_text_search_ray.state.segment import SegmentReader

# A process keeps up to MAX_GENERATIONS cached views (their segment readers
# and dictionaries), and all of them together at most MAX_CACHED_BYTES of
# cached postings and BM25 contributions (the int64 doc/tf/dl arrays of 32M
# postings, ~770 MB; a term that only the scorers read keeps its doc ids and
# float64 contributions, 16 bytes per posting, or, covering half the dense
# id space, one float64 per id slot).
MAX_GENERATIONS = 4
MAX_CACHED_BYTES = 32_000_000 * 24
# the dense top-k cuts at the k-th largest of every 16th accumulator slot
_SAMPLE_STRIDE = 16

TOPK_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("rank", pa.int64()),
        ("doc_id", pa.int64()),
        ("score", pa.float64()),
    ]
)


def load_meta(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "index_meta.json")) as f:
        return json.load(f)


def config_from_meta(meta: dict) -> IndexConfig:
    c = dict(meta["config"])
    c["analyzer"] = AnalyzerConfig(**c["analyzer"])
    return IndexConfig(**c)


class DictionaryExpander:
    """Levenshtein-banded expansion over the sorted term dictionary.

    Loads the dictionary once per index generation (it is cached on
    ``IndexView.dictionary()``). On the first expansion it also builds a
    :class:`~distributed_text_search_ray.functions.lev.TermStore` of the
    terms: their codepoints sorted by length into one flat, unpadded buffer
    (narrowest unsigned dtype for the largest codepoint) plus the
    length-sorted order and per-length offsets, so a length band is one
    contiguous slice. It holds characters x dtype width + 4 bytes per term
    + 16 bytes per length up to the longest term; no row is padded to the
    longest term. ``expand_many`` answers a whole batch of patterns with
    one banded-DP pass per (pattern length, k) group, its lanes chunked by
    ``lev._LANE_BUDGET``.
    """

    def __init__(self, index_dir: str):
        files = sorted(
            os.path.join(index_dir, "dictionary", f)
            for f in os.listdir(os.path.join(index_dir, "dictionary"))
            if f.endswith(".parquet")
        )
        t = pa.concat_tables(
            [pq.read_table(f, columns=["term", "df", "cf"]) for f in files]
        ).combine_chunks()
        # terms stay as an Arrow array (no per-term Python objects resident)
        self._terms_arr = t.column("term").combine_chunks()
        self.df = t.column("df").to_numpy()
        self.cf = t.column("cf").to_numpy()
        self._store: TermStore | None = None

    def term_at(self, i: int) -> str:
        return self._terms_arr[int(i)].as_py()

    @property
    def terms(self):
        return self._terms_arr

    @property
    def store(self) -> TermStore:
        """The terms' codepoint store, built on first use."""
        if self._store is None:
            self._store = TermStore(self._terms_arr.to_pylist())
        return self._store

    def expand_many(
        self, patterns: Iterable[tuple[str, int]], transpositions: bool = False
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """For each ``(pattern, k)``: the ascending indices of the dictionary
        terms within distance k, and their distances. Classic Levenshtein by
        default, OSA (adjacent transposition = one edit — Lucene's
        ``fuzziness`` with transpositions) when ``transpositions=True``."""
        out = []
        for pos, d in term_distances_many(self.store, patterns, transpositions):
            idx = self.store.order[pos].astype(np.int64)
            o = np.argsort(idx)
            out.append((idx[o], d[o]))
        return out


def _nbytes(entry: tuple) -> int:
    return sum(a.nbytes for a in entry if isinstance(a, np.ndarray))


class PostingsLRU:
    """Per-term arrays of views — decoded postings and BM25 contributions —
    by ``(view token, kind, term)`` (hot query terms recur), bounded by the
    bytes of the arrays held (``MAX_CACHED_BYTES``), not entry count — one
    Zipf-head term can be huge. Cached arrays are read-only: every later
    query shares them."""

    def __init__(self):
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self.size = 0

    def get(self, key: tuple):
        hit = self._entries.get(key)
        if hit is not None:
            self._entries.move_to_end(key)
        return hit

    def put(self, key: tuple, entry: tuple) -> None:
        for a in entry:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        self._entries[key] = entry
        self.size += _nbytes(entry)
        while self.size > MAX_CACHED_BYTES and len(self._entries) > 1:
            _, old = self._entries.popitem(last=False)
            self.size -= _nbytes(old)

    def discard(self, key: tuple) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self.size -= _nbytes(old)

    def drop(self, token: object) -> None:
        """Forget every entry of one view."""
        for key in [k for k in self._entries if k[0] is token]:
            self.size -= _nbytes(self._entries.pop(key))


class IndexView:
    """Shared read-side logic: partition routing + posting fetch with an LRU
    cache of segment readers, and the term dictionary on first use. One view
    is one index generation: aliases resolve and metadata/tombstones load
    here, once."""

    def __init__(
        self, index_dir: str, max_cached_parts: int = 64, postings: PostingsLRU | None = None
    ):
        index_dir = resolve_index(index_dir)
        self.index_dir = index_dir
        self.meta = load_meta(index_dir)
        self.cfg = config_from_meta(self.meta)
        self.N = int(self.meta["N"])
        self.avgdl = float(self.meta["avgdl"])
        self.hot_df = {k: int(v) for k, v in self.meta["hot_df"].items()}
        # a multi-partition (salted) term may have postings in its base
        # partition too (shards decide salting locally) — probe base + salts
        self._salt_parts = {
            t: sorted(
                {term_partition(t, self.cfg.num_partitions)}
                | {
                    stable_u64(f"{t}#{s}") % self.cfg.num_partitions
                    for s in range(self.cfg.salt_buckets)
                }
            )
            for t in self.hot_df
        }
        # document-level tombstones (Lucene-style): deleted ids are excluded
        # from every posting fetch; corpus stats (N, avgdl, df) stay at their
        # build-time values until a rebuild/compaction — the standard
        # stale-stats contract, recorded here so scores stay reproducible
        dp = os.path.join(index_dir, "deleted.parquet")
        if os.path.exists(dp):
            self.deleted = np.sort(
                np.unique(pq.read_table(dp, columns=["doc_id"]).column("doc_id").to_numpy())
            )
        else:
            self.deleted = np.empty(0, dtype=np.int64)
        self._readers: OrderedDict[int, SegmentReader] = OrderedDict()
        self._max_cached = max_cached_parts
        # a view of its own, or the process's one LRU shared by all cached
        # views (open_view); the token keys this view's entries in it
        self._postings = PostingsLRU() if postings is None else postings
        self._token = object()
        self._dictionary = None

    def dictionary(self) -> DictionaryExpander:
        """The generation's term dictionary, loaded on first use."""
        if self._dictionary is None:
            self._dictionary = DictionaryExpander(self.index_dir)
        return self._dictionary

    def close(self) -> None:
        """Drop the segment readers, decoded postings and dictionary. The
        view stays usable: it reopens what it needs on demand."""
        self._readers.clear()
        self._postings.drop(self._token)
        self._dictionary = None

    def reader(self, part: int) -> SegmentReader:
        r = self._readers.get(part)
        if r is None:
            r = SegmentReader(os.path.join(self.index_dir, "segments", f"part={part:05d}"))
            self._readers[part] = r
            if len(self._readers) > self._max_cached:
                self._readers.popitem(last=False)
        else:
            self._readers.move_to_end(part)
        return r

    def term_parts(self, term: str) -> list[int]:
        if term in self._salt_parts:
            return sorted(set(self._salt_parts[term]))
        return [term_partition(term, self.cfg.num_partitions)]

    def term_postings(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """(doc_ids, tfs, dls, global_df); empty arrays if term unknown."""
        hit = self._postings.get((self._token, "postings", term))
        if hit is not None:
            return hit
        chunks = []
        for p in self.term_parts(term):
            got = self.reader(p).postings(term)
            if got is not None:
                chunks.append(got)
        if not chunks:
            z = np.empty(0, dtype=np.int64)
            return z, z, z, 0
        docs = np.concatenate([c[0] for c in chunks])
        tfs = np.concatenate([c[1] for c in chunks])
        dls = np.concatenate([c[2] for c in chunks])
        if len(chunks) > 1 and (np.diff(docs) <= 0).any():
            # salted terms concatenate salt buckets — re-sort by doc id so
            # every consumer can rely on sorted posting lists (each doc
            # appears once per term, so this never affects per-doc sums)
            o = np.argsort(docs, kind="stable")
            docs, tfs, dls = docs[o], tfs[o], dls[o]
        df = self.hot_df.get(term, len(docs))
        if len(self.deleted) and len(docs):
            # df computed BEFORE the drop: build-time stats, Lucene contract
            pos = np.searchsorted(self.deleted, docs)
            pos_c = np.minimum(pos, len(self.deleted) - 1)
            live = self.deleted[pos_c] != docs
            docs, tfs, dls = docs[live], tfs[live], dls[live]
        out = (docs, tfs, dls, df)
        self._postings.put((self._token, "postings", term), out)
        return out

    def term_contribs(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, BM25 contributions) of the term's live postings,
        computed once per generation and cached; empty arrays if the term
        has none. The postings they came from stay cached only if something
        else had cached them first: the scorers never read tfs and dls."""
        key = (self._token, "bm25", term)
        hit = self._postings.get(key)
        if hit is None:
            pkey = (self._token, "postings", term)
            had_postings = self._postings.get(pkey) is not None
            hit = bm25_contribs(self, term)
            if not had_postings:
                self._postings.discard(pkey)
            if len(hit[0]):
                self._postings.put(key, hit)
        return hit

    def term_dense(self, term: str) -> tuple[np.ndarray | None, np.ndarray]:
        """``(None, vector)`` when the term's live postings cover at least
        half of the dense id space ``0..max_doc_id``: its BM25 contributions
        as one read-only float64 vector over that space, 0.0 where the term
        has no live posting. Else ``term_contribs(term)``. The vector is
        cached once per generation in place of the sparse contributions
        (unless something had cached those first): at this density its 8
        bytes per id slot are no more than their 16 bytes per posting."""
        key = (self._token, "dense", term)
        hit = self._postings.get(key)
        if hit is not None:
            return None, hit[0]
        ckey = (self._token, "bm25", term)
        had_contribs = self._postings.get(ckey) is not None
        docs, contrib = self.term_contribs(term)
        m = int(self.meta.get("max_doc_id", -1))
        if m < 0 or 2 * len(docs) < m + 1:
            return docs, contrib
        vec = np.zeros(m + 1, dtype=np.float64)
        vec[docs] = contrib
        if not had_contribs:
            self._postings.discard(ckey)
        self._postings.put(key, (vec,))
        return None, vec

    def term_positions(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc_ids, tfs, flat_positions) for a positional (v4) index —
        positions grouped per posting, split points = cumsum(tfs). Raises
        if the index stores no positions. Salted terms concatenate salt
        buckets and re-sort by doc id (position groups permuted with their
        postings)."""
        chunks = []
        for p in self.term_parts(term):
            r = self.reader(p)
            got = r.positions(term)
            if got is not None:
                chunks.append(got)
            elif not r.has_positions and r.term_row(term) is not None:
                raise ValueError(
                    f"index at {self.index_dir} stores no positions "
                    "(build with IndexConfig(store_positions=True))"
                )
        if not chunks:
            z = np.empty(0, dtype=np.int64)
            return z, z.copy(), z.copy()
        docs = np.concatenate([c[0] for c in chunks])
        tfs = np.concatenate([c[1] for c in chunks])
        pos = np.concatenate([c[2] for c in chunks])
        if len(chunks) > 1 and (np.diff(docs) <= 0).any():
            # permute each posting's position run with its posting — one
            # vectorized gather, NOT a per-posting slice loop (a salted hot
            # term has df posting groups; the loop version built millions of
            # tiny arrays and dominated proximity/phrase wall at 1M+ docs)
            order = np.argsort(docs, kind="stable")
            bounds = np.concatenate(([0], np.cumsum(tfs))).astype(np.int64)
            new_tfs = tfs[order]
            out_starts = np.concatenate(([0], np.cumsum(new_tfs)[:-1]))
            total = int(new_tfs.sum())
            take = np.repeat(bounds[order], new_tfs) + (
                np.arange(total, dtype=np.int64) - np.repeat(out_starts, new_tfs)
            )
            pos = pos[take]
            docs, tfs = docs[order], new_tfs
        if len(self.deleted) and len(docs):
            p = np.searchsorted(self.deleted, docs)
            p_c = np.minimum(p, len(self.deleted) - 1)
            live = self.deleted[p_c] != docs
            if not live.all():
                keep_pos = np.repeat(live, tfs)
                pos = pos[keep_pos]
                docs, tfs = docs[live], tfs[live]
        return docs, tfs, pos

    def term_df(self, term: str) -> int:
        if term in self.hot_df:
            return self.hot_df[term]
        return self.reader(term_partition(term, self.cfg.num_partitions)).local_df(term)

    def bytes_decoded(self) -> int:
        """Total posting-stream bytes decoded across cached readers."""
        return sum(r.bytes_decoded for r in self._readers.values())


# process-wide on purpose: a Ray task cannot hand state to the next task the
# worker runs, so what outlives a task lives at module level
_VIEWS: OrderedDict[tuple, IndexView] = OrderedDict()
_POSTINGS = PostingsLRU()


def open_view(index_path: str) -> IndexView:
    """This process's shared view of the generation ``index_path`` (a dir or
    an alias) names now — opened on the first call, reused by later tasks
    until the index changes or the view is evicted (LRU, MAX_GENERATIONS).
    An evicted view is closed, so it releases what it holds even while a
    running task still uses it."""
    key, target = generation_key(index_path)
    view = _VIEWS.get(key)
    if view is not None:
        _VIEWS.move_to_end(key)
        return view
    # a directory's older generations cannot come back: drop them at once
    for old in [k for k in _VIEWS if k[0] == key[0]]:
        _VIEWS.pop(old).close()
    view = _VIEWS[key] = IndexView(target, postings=_POSTINGS)
    while len(_VIEWS) > MAX_GENERATIONS:
        _VIEWS.popitem(last=False)[1].close()
    return view


def as_view(index):
    """A fresh view of ``index`` when it is a path, else ``index`` itself (an
    open view or a view-like proxy)."""
    return IndexView(index) if isinstance(index, (str, os.PathLike)) else index


def no_hits() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)


def bm25_contribs(view, term: str) -> tuple[np.ndarray, np.ndarray]:
    """(posting doc ids, ``idf * tf_part`` per posting) of ``term`` under
    ``view``'s postings and corpus stats (N, avgdl, global df); empty
    arrays if the view holds none. df is GLOBAL, so a filtered view can
    return empty postings for a known term."""
    docs, tfs, dls, df = view.term_postings(term)
    if df == 0 or not len(docs):
        return no_hits()
    cfg = view.cfg
    return docs, bm25.idf(view.N, df) * bm25.tf_part(
        tfs, dls, view.avgdl, cfg.bm25_k1, cfg.bm25_b
    )


def segment_sum(
    doc_chunks: list[np.ndarray], contrib_chunks: list[np.ndarray], counts: bool = False
):
    """Per-doc sums of concatenated (doc id, contribution) chunks: (sorted
    unique doc ids, float64 sums[, rows per doc]).

    One stable argsort + segmented reduce (cheaper than np.unique with
    return_inverse, which sorts twice). The stable sort keeps a doc's rows in
    chunk order, and bincount is a strictly sequential accumulate (reduceat
    is pairwise and can differ in the last ulp), so the float64 addition
    order per doc is the chunk order — ascending term order for the TAAT
    scorers, bit-identical to the oracle."""
    if not doc_chunks:
        docs, sums = no_hits()
        return (docs, sums, docs.copy()) if counts else (docs, sums)
    docs = np.concatenate(doc_chunks)
    order = np.argsort(docs, kind="stable")
    sdocs = docs[order]
    is_start = np.empty(len(sdocs), dtype=bool)
    is_start[0] = True
    np.not_equal(sdocs[1:], sdocs[:-1], out=is_start[1:])
    seg_ids = np.cumsum(is_start) - 1
    uniq = sdocs[is_start]
    sums = np.bincount(
        seg_ids, weights=np.concatenate(contrib_chunks)[order], minlength=len(uniq)
    )
    if counts:
        return uniq, sums, np.bincount(seg_ids, minlength=len(uniq))
    return uniq, sums


def _topk_rows(doc_ids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k: score desc, doc_id asc."""
    if len(doc_ids) == 0:
        return doc_ids, scores
    if len(doc_ids) > k * 8 and k < len(doc_ids):
        # pre-prune with argpartition, then exact sort of the short list
        # (keep extra slack so score ties at the boundary stay correct)
        cut = np.partition(scores, len(scores) - k)[len(scores) - k]
        keep = scores >= cut
        doc_ids, scores = doc_ids[keep], scores[keep]
    order = np.lexsort((doc_ids, -scores))[:k]
    return doc_ids[order], scores[order]


class QueryExecutor:
    """Query stage: batches of ``(query_id, query)`` -> top-k rows.
    ``index_dir`` is a path or an open ``IndexView``.

    ``__call__`` is the one batch loop of every ranked executor: it asks
    ``rank(row)`` for each input row's ranked ``(doc_ids, scores)`` and
    emits them as one ``TOPK_SCHEMA`` table (``ID_COLUMN`` names the id
    column). Subclasses change what a row means by overriding ``rank``, or
    the scoring function by overriding ``_score``. Under the base ``rank``
    a row's result depends only on its analyzed terms, so the batch reads
    just its query column and calls ``_score`` once per distinct term set
    (a bulk batch repeats popular queries, and "Foo bar" and "bar foo"
    analyze alike); an overridden ``rank`` runs once per row."""

    ID_COLUMN = "query_id"

    def __init__(
        self,
        index_dir: str | IndexView,
        topk: int = 10,
        mode: str = "taat",
        min_should_match: int = 1,
    ):
        self.view = as_view(index_dir)
        self.topk = topk
        self.min_should_match = int(min_should_match)
        self.tokenizer = Tokenizer(self.view.cfg.analyzer)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if type(self).rank is QueryExecutor.rank:
            ranked = self._rank_distinct(batch.column("query").to_pylist())
        else:
            ranked = [self.rank(row) for row in batch.to_pylist()]
        n = np.array([len(d) for d, _ in ranked], dtype=np.int64)
        first = np.repeat(np.cumsum(n) - n, n)
        docs, scores = zip(no_hits(), *ranked)
        return pa.table(
            {
                self.ID_COLUMN: pa.array(
                    np.repeat(batch.column(self.ID_COLUMN).to_numpy(), n), pa.int64()
                ),
                "rank": pa.array(np.arange(1, len(first) + 1) - first, pa.int64()),
                "doc_id": pa.array(np.concatenate(docs), pa.int64()),
                "score": pa.array(np.concatenate(scores), pa.float64()),
            }
        )

    def rank(self, row: dict) -> tuple[np.ndarray, np.ndarray]:
        """One input row's ranked (doc_ids, scores)."""
        return self._score(self._terms(row["query"]), self.topk)

    def _rank_distinct(self, queries: list[str]) -> list[tuple[np.ndarray, np.ndarray]]:
        """``rank`` of each query text, scoring each distinct analyzed term
        set once (its rows share the arrays)."""
        terms = {q: tuple(self._terms(q)) for q in dict.fromkeys(queries)}
        scored = {t: self._score(list(t), self.topk) for t in dict.fromkeys(terms.values())}
        return [scored[terms[q]] for q in queries]

    def _terms(self, text: str) -> list[str]:
        return sorted(set(self.tokenizer.tokens(text)))

    def _score(self, terms: list[str], k: int, view=None) -> tuple[np.ndarray, np.ndarray]:
        """Top-k of the OR of ``terms`` over ``view`` (default: the
        executor's own). Every mode ("taat", and its aliases "maxscore" and
        "wand") scores by TAAT; msm > 1 keeps only docs matching that many
        distinct terms."""
        if self.min_should_match > 1:
            return self._score_taat_msm(terms, k, view)
        return self._score_taat(terms, k, view=view)

    # ---- term-at-a-time (vectorized, deterministic accumulation order) ----
    def _term_contribs(
        self,
        terms: list[str],
        weights: dict[str, float] | None = None,
        view=None,
        dense: bool = False,
    ) -> tuple[list[np.ndarray | None], list[np.ndarray]]:
        """Per-term (posting doc ids, BM25 contributions) in the caller's
        (ascending) term order — the shared head of every TAAT variant.
        ``weights`` scales each term's contributions: ``w * (idf * tf_part)``.
        With ``dense=True`` a term the view holds as a dense vector
        (``term_dense``) comes as ``(None, vector)``."""
        v = self.view if view is None else view
        fetch = v.term_dense if dense else v.term_contribs
        all_docs, all_contrib = [], []
        for term in terms:
            docs, contrib = fetch(term)
            if docs is not None and not len(docs):
                continue
            if weights is not None:
                contrib = weights[term] * contrib
            all_docs.append(docs)
            all_contrib.append(contrib)
        return all_docs, all_contrib

    def _score_taat(
        self, terms: list[str], k: int, weights: dict[str, float] | None = None, view=None
    ) -> tuple[np.ndarray, np.ndarray]:
        dense = self._dense_buffer() is not None
        return self._accumulate(*self._term_contribs(terms, weights, view, dense), k)

    def _accumulate(
        self, all_docs: list[np.ndarray | None], all_contrib: list[np.ndarray], k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-k of the per-doc sums of per-term (doc ids,
        contributions) chunks, added in chunk (ascending term) order; a
        chunk without doc ids is a dense vector (``term_dense``)."""
        if not all_docs:
            return no_hits()
        buf = self._dense_buffer()
        if buf is None:
            return _topk_rows(*segment_sum(all_docs, all_contrib), k)
        # dense doc-id space: accumulate straight into a reusable float64
        # array — no sort. Per-doc addition order is still ascending term
        # order (one fancy-index += per sparse term, one vector add per
        # dense term, which adds an exact +0.0 where the term is absent),
        # bit-identical to the oracle; BM25 contributions are > 0, so
        # score 0 == unscored.
        for docs, contrib in zip(all_docs, all_contrib):
            if docs is None:
                buf[: len(contrib)] += contrib
            else:
                buf[docs] += contrib
        out = self._dense_topk(buf, k)
        if any(docs is None for docs in all_docs):
            buf.fill(0.0)
        else:
            for docs in all_docs:  # reset only the touched slots
                buf[docs] = 0.0
        return out

    def _score_taat_msm(self, terms: list[str], k: int, view=None) -> tuple[np.ndarray, np.ndarray]:
        """minimum_should_match TAAT: only docs containing >=
        ``min_should_match`` DISTINCT query terms are scored (each term posts
        at most one row per doc, so a doc's segment length IS its
        distinct-match count). Same accumulation order as ``_score_taat`` —
        scores of surviving docs are bit-identical to the unfiltered
        scorer's."""
        uniq, scores, counts = segment_sum(*self._term_contribs(terms, view=view), counts=True)
        keep = counts >= self.min_should_match
        return _topk_rows(uniq[keep], scores[keep], k)

    def _dense_buffer(self) -> np.ndarray | None:
        """Reusable score accumulator when doc ids are dense (driver-style
        0..N ids). Sparse 63-bit fingerprint ids fall back to np.unique."""
        m = self.view.meta.get("max_doc_id", -1)
        if m < 0 or m + 1 > max(4 * self.view.N, 1 << 22):
            return None
        if getattr(self, "_buf", None) is None or len(self._buf) < m + 1:
            self._buf = np.zeros(m + 1, dtype=np.float64)
        return self._buf

    @staticmethod
    def _dense_topk(buf: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-k of the scored (> 0) slots. The cut ``t`` is the k-th
        largest value of every ``_SAMPLE_STRIDE``-th slot: those k sampled
        slots score >= t, so the k-th largest score overall is >= t, and
        ``buf >= t`` holds every top-k doc and every doc tied with the
        k-th (for the doc_id tie-break). A cut that is not positive keeps
        every scored slot."""
        sample = buf[::_SAMPLE_STRIDE]
        t = 0.0
        if 0 < k <= len(sample):
            t = np.partition(sample, len(sample) - k)[len(sample) - k]
        cand = np.flatnonzero(buf >= t) if t > 0.0 else np.flatnonzero(buf > 0.0)
        return _topk_rows(cand, buf[cand], k)


class FederatedIndexView:
    """Cross-index search WITHOUT a physical merge (Elasticsearch
    cross-cluster-search analog): present several independently built
    indexes as one logical corpus with EXACT global statistics, so scores
    are bit-identical to a single index over the union corpus.

    At 100 TB this is the cheap sibling of ``merge_indexes``: indexes built
    per time-slice / tenant / source stay where they are; only the query's
    few term lookups fan out. Global stats are exact because every piece is
    an integer recombination: N = sum N_i, avgdl = sum(total_tokens_i) /
    sum(N_i) (the same int-ratio the full build computes), per-term df =
    sum df_i — requiring the members' doc-id sets to be DISJOINT, the same
    contract ``merge_indexes`` documents (merge.py:181).

    Exposes the subset of the IndexView surface the TAAT scorers consume
    (N, avgdl, cfg, meta, term_postings, term_contribs, term_dense). The
    ``wand`` mode name, an alias of taat elsewhere, is not accepted here.
    """

    def __init__(self, index_dirs: list, max_cached_parts: int = 64):
        if not index_dirs:
            raise ValueError("federated view needs at least one index")
        self.views = [
            d if isinstance(d, IndexView) else IndexView(d, max_cached_parts)
            for d in index_dirs
        ]
        fps = {v.cfg.analyzer.fingerprint() for v in self.views}
        if len(fps) > 1:
            raise ValueError(
                "federated members use different analyzers — results would "
                "be undefined; rebuild with one analyzer"
            )
        kb = {(v.cfg.bm25_k1, v.cfg.bm25_b) for v in self.views}
        if len(kb) > 1:
            raise ValueError("federated members disagree on BM25 k1/b")
        self.cfg = self.views[0].cfg
        self.N = sum(v.N for v in self.views)
        total_tokens = sum(int(v.meta["total_tokens"]) for v in self.views)
        self.avgdl = total_tokens / self.N if self.N else 0.0
        maxes = [int(v.meta.get("max_doc_id", -1)) for v in self.views]
        self.meta = {
            "max_doc_id": -1 if min(maxes) < 0 else max(maxes),
            "total_tokens": total_tokens,
        }

    def term_postings(
        self, term: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """(doc_ids, tfs, dls, GLOBAL df) across every member — sorted by
        doc id (members' id ranges may interleave), tombstones already
        dropped per member, df summed over members (exact under the
        disjointness contract)."""
        chunks = [v.term_postings(term) for v in self.views]
        df = sum(c[3] for c in chunks)
        live = [c for c in chunks if len(c[0])]
        if not live:
            z = np.empty(0, dtype=np.int64)
            return z, z.copy(), z.copy(), df
        docs = np.concatenate([c[0] for c in live])
        tfs = np.concatenate([c[1] for c in live])
        dls = np.concatenate([c[2] for c in live])
        if len(live) > 1 and (np.diff(docs) <= 0).any():
            o = np.argsort(docs, kind="stable")
            docs, tfs, dls = docs[o], tfs[o], dls[o]
        return docs, tfs, dls, df

    def term_contribs(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """BM25 contributions under the GLOBAL stats — never a member's
        cached ones, which use that member's N, avgdl and df. Not cached:
        a federated view lives for one task."""
        return bm25_contribs(self, term)

    def term_dense(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """Always the sparse contributions: nothing is cached to share."""
        return self.term_contribs(term)


class FederatedQueryExecutor(QueryExecutor):
    """Query stage scoring each query against SEVERAL indexes as one
    logical corpus (exact global stats via :class:`FederatedIndexView`).
    Reuses the TAAT machinery unchanged — only the view differs."""

    def __init__(
        self,
        index_dirs: list,
        topk: int = 10,
        mode: str = "maxscore",
        min_should_match: int = 1,
    ):
        if mode == "wand":
            raise ValueError(
                "federated search does not accept mode='wand'; use mode='taat' "
                "or 'maxscore'"
            )
        super().__init__(FederatedIndexView(list(index_dirs)), topk, mode, min_should_match)


class QLTopkExecutor(QueryExecutor):
    """Dirichlet-smoothed query-likelihood ranking (the language-model IR
    scorer family, Zhai & Lafferty 2001) — the engine's second ranking
    function beside BM25, sharing the index, analyzer and executor plumbing.

    score(q, d) = sum over query terms t of
        ln( (tf_td + mu * cf_t / C) / (dl_d + mu) )

    where cf_t is the term's collection frequency (sum of tf over the LIVE
    postings, so the tombstone contract matches BM25's scored set), C is
    the corpus token total from the index metadata, and mu the smoothing
    prior. Candidates are docs containing >= 1 query term (unseen terms
    contribute their background probability to those candidates); query
    terms absent from the corpus are skipped — a cf of 0 would make the
    background probability ln(0). Accumulation is ascending term order,
    quotient form, matching the SQL twin expression for 6-dp stability.
    """

    def __init__(self, index_dir: str | IndexView, topk: int = 10, mu: float = 2000.0):
        super().__init__(index_dir, topk=topk)
        self.mu = float(mu)
        self.total_tokens = float(self.view.meta["total_tokens"])

    def _score(self, terms: list[str], k: int, view=None) -> tuple[np.ndarray, np.ndarray]:
        v = self.view
        per_term = []
        for term in terms:
            docs, tfs, dls, df = v.term_postings(term)
            if df == 0 or not len(docs):
                continue
            cf = float(tfs.sum())
            per_term.append((docs, tfs, dls, cf))
        if not per_term:
            return no_hits()
        # candidate union + per-candidate dl (every posting row carries its
        # doc's dl, so the union needs no extra doc-length lookup)
        cat_docs = np.concatenate([p[0] for p in per_term])
        cat_dls = np.concatenate([p[2] for p in per_term])
        uniq, first = np.unique(cat_docs, return_index=True)
        dl_u = cat_dls[first].astype(np.float64)
        denom = dl_u + self.mu
        acc = np.zeros(len(uniq), dtype=np.float64)
        for docs, tfs, _, cf in per_term:
            prior = self.mu * cf / self.total_tokens
            tf_u = np.zeros(len(uniq), dtype=np.float64)
            tf_u[np.searchsorted(uniq, docs)] = tfs
            acc += np.log((tf_u + prior) / denom)
        return _topk_rows(uniq, acc, k)
