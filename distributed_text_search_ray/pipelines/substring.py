"""Exact substring search over a positional character-trigram index.

Zoekt / Google-Code-Search-style: the corpus is indexed with the char-n-gram
analyzer (``AnalyzerConfig(char_ngrams=3)``, ``store_positions=True``), where
token position i == character offset i. A needle of length L >= n then has
L-n+1 trigrams that must appear at CONSECUTIVE character offsets, so exact
(case-insensitive) substring matching with per-doc occurrence counts is a
phrase-adjacency chain answered purely from the index — no content re-read,
zero false positives, overlapping occurrences counted (every start offset).

The reference's observable capability here is its windowed approximate scan
(src/apm1.c:235-281 at edit distance 0 degenerates to substring counting);
this operator answers the exact-match case at index speed instead of corpus
speed. The scan twin ``substring_match_counts`` is result-identical and
serves needles shorter than the n-gram width.

Scale notes: the trigram index is ~corpus-sized (one position per char), the
standard Zoekt trade; build reuses the map-side-partitioned pipeline
(hot trigrams like 'def' or '  i' salt across partitions automatically).
Queries touch only the needle's trigram postings — rarest-first
intersection inside ``phrase_occurrence_counts`` keeps intermediates small.
"""

from __future__ import annotations

import re
from typing import Iterable

import pyarrow as pa
import ray.data

from distributed_text_search_ray.config import AnalyzerConfig, IndexConfig
from distributed_text_search_ray.stages.executor import IndexView, as_view
from distributed_text_search_ray.stages.index_stage import index_stage

OUT_SCHEMA = pa.schema(
    [
        ("needle_id", pa.int64()),
        ("doc_id", pa.int64()),
        ("n_occurrences", pa.int64()),
    ]
)


def trigram_index_config(
    n: int = 3,
    num_partitions: int = 16,
    salt_buckets: int = 4,
    salt_df_threshold: float = 0.25,
) -> IndexConfig:
    """IndexConfig for a positional char-n-gram (substring) index."""
    return IndexConfig(
        num_partitions=num_partitions,
        salt_buckets=salt_buckets,
        salt_df_threshold=salt_df_threshold,
        analyzer=AnalyzerConfig(char_ngrams=n),
        store_positions=True,
    )


def _needle_rows(needles: Iterable[tuple[int, str]]) -> list[dict]:
    items = [{"needle_id": int(q), "needle": str(s)} for q, s in needles]
    if not items:
        raise ValueError("no needles given")
    return items


def _empty_out() -> pa.Table:
    return OUT_SCHEMA.empty_table()


class _SubstringExecutor:
    """Query stage: (needle_id, needle) rows -> exact per-doc
    overlapping-occurrence counts from the positional trigram index."""

    def __init__(self, index_dir: str | IndexView):
        from distributed_text_search_ray.functions.tokenize import Tokenizer

        self.view = as_view(index_dir)
        n = int(getattr(self.view.cfg.analyzer, "char_ngrams", 0) or 0)
        if n == 0:
            raise ValueError(
                f"index at {self.view.index_dir} is term-based — substring search "
                "needs a char-ngram index (build with trigram_index_config())"
            )
        self.n = n
        self.tokenizer = Tokenizer(self.view.cfg.analyzer)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from distributed_text_search_ray.pipelines.phrase import (
            phrase_occurrence_counts,
        )

        out_q, out_d, out_n = [], [], []
        for qid, needle in zip(
            batch.column("needle_id").to_pylist(), batch.column("needle").to_pylist()
        ):
            grams = self.tokenizer.tokens(needle)
            if not grams:
                raise ValueError(
                    f"needle {needle!r} is shorter than the index n-gram "
                    f"width ({self.n}) — use substring_match_counts (scan plan)"
                )
            docs, counts = phrase_occurrence_counts(self.view, grams)
            out_q.extend([int(qid)] * len(docs))
            out_d.extend(docs.tolist())
            out_n.extend(counts.tolist())
        return pa.table(
            {
                "needle_id": pa.array(out_q, type=pa.int64()),
                "doc_id": pa.array(out_d, type=pa.int64()),
                "n_occurrences": pa.array(out_n, type=pa.int64()),
            }
        )


def substring_search(
    index_dir: str,
    needles: Iterable[tuple[int, str]],
) -> ray.data.Dataset:
    """(needle_id, doc_id, n_occurrences) for every doc whose content
    contains the needle, case-insensitive, overlapping starts counted —
    answered purely from a positional char-trigram index. Result-identical
    to ``substring_match_counts`` for needles >= the index n-gram width."""
    # one needle per batch: a common trigram decodes corpus-scale positions,
    # so a small needle batch must fan out over one task per CPU
    return index_stage(
        _needle_rows(needles), _SubstringExecutor, index_dir, batch_size=1,
    )


class _SubstringScanCounter:
    """Scan plan: per-batch overlapping-occurrence counts via compiled
    lookahead regexes (serves any needle length; the differential twin of
    the indexed plan)."""

    def __init__(self, needles: list[tuple[int, str]]):
        from distributed_text_search_ray.functions.tokenize import Tokenizer

        self._lower = Tokenizer(AnalyzerConfig(char_ngrams=3))._lower
        self.pats = [
            (int(qid), re.compile("(?=" + re.escape(self._lower(str(s))) + ")"))
            for qid, s in needles
        ]
        if not self.pats:
            raise ValueError("no needles given")
        for qid, p in self.pats:
            if p.pattern == "(?=)":
                raise ValueError(f"empty needle (id {qid})")

    def __call__(self, batch: pa.Table, text_column: str = "content") -> pa.Table:
        out_q, out_d, out_n = [], [], []
        doc_ids = batch.column("doc_id").to_pylist()
        texts = batch.column(text_column).to_pylist()
        for d, t in zip(doc_ids, texts):
            low = self._lower(t)
            for qid, pat in self.pats:
                c = len(pat.findall(low))
                if c:
                    out_q.append(qid)
                    out_d.append(int(d))
                    out_n.append(c)
        if not out_q:
            return _empty_out()
        return pa.table(
            {
                "needle_id": pa.array(out_q, type=pa.int64()),
                "doc_id": pa.array(out_d, type=pa.int64()),
                "n_occurrences": pa.array(out_n, type=pa.int64()),
            }
        )


def substring_match_counts(
    docs: ray.data.Dataset,
    needles: Iterable[tuple[int, str]],
    text_column: str = "content",
) -> ray.data.Dataset:
    """Scan plan over the corpus — same output contract as
    ``substring_search``, no index required, any needle length >= 1."""
    counter = _SubstringScanCounter(list(needles))  # compiled once, shipped

    def f(batch: pa.Table) -> pa.Table:
        return counter(batch, text_column=text_column)

    return docs.map_batches(f, batch_format="pyarrow")
