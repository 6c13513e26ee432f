"""Significant-terms aggregation: terms over-represented in a query's hit
set relative to the background corpus (the Elasticsearch
``significant_terms`` shape, scored with a plain lift ratio).

Index-native design — nothing re-tokenizes the corpus:

- foreground: the hit-doc set per query comes from ``boolean_search`` and is
  broadcast once via ``ray.put`` (the small side — a query's matches, not
  the corpus). Each index PARTITION task decodes its own posting segment and
  counts, per term, how many of its postings fall in each query's hit set —
  one vectorized membership pass + ``np.add.reduceat`` over the term ranges.
- background: per-term document frequency is already global in the index
  dictionary (salt-split terms were re-aggregated at build finalize), read
  back as a Dataset and hash-joined against the (much smaller) foreground
  term table.
- lift = (fg_df / n_hits) / (bg_df / N), rounded to 6 dp; per-query top-n by
  (lift desc, fg_df desc, term asc).

Scale contract: work is partitioned by the index's own term partitioning;
per-task memory is one segment + the broadcast hit sets. Like ES, the
foreground must be bounded — ``max_fg_docs`` guards the broadcast, and a
larger hit population should be sampled upstream (ES nests
``significant_terms`` under a ``sampler`` aggregation for the same reason).

Reference anchor: the reference engine has no aggregation layer at all
(src/apm1.c computes one global match count); this operator is part of the
task-mandated beyond-the-reference analysis surface.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np
import pyarrow as pa
import ray
import ray.data

from distributed_text_search_ray.pipelines.boolquery import boolean_search
from distributed_text_search_ray.pipelines.joins import hash_join
from distributed_text_search_ray.stages.executor import load_meta
from distributed_text_search_ray.state.segment import read_segment_pairs
from distributed_text_search_ray.util import round_half_away


def _scan_factory(index_dir: str, fg_ref, min_partial: int = 1):
    """Per-partition foreground counter. ``fg_ref`` is an ObjectRef to
    {query_id: sorted int64 doc ids}; resolved once per task."""

    def scan(batch: pa.Table) -> pa.Table:
        fg = ray.get(fg_ref)
        out_q, out_t, out_c = [], [], []
        for part in batch.column("part").to_pylist():
            seg_dir = os.path.join(index_dir, "segments", f"part={part:05d}")
            terms, df, doc_ids, _tfs, _dls = read_segment_pairs(seg_dir)
            if len(doc_ids) == 0:
                continue
            starts = np.concatenate(([0], np.cumsum(df)[:-1]))
            terms_arr = np.asarray(terms, dtype=object)
            for qid, hit_docs in fg.items():
                # sorted-membership: postings ids within each term range are
                # ascending, but reduceat needs the flat stream, so test the
                # whole stream at once
                idx = np.searchsorted(hit_docs, doc_ids)
                idx[idx == len(hit_docs)] = max(len(hit_docs) - 1, 0)
                mask = (hit_docs[idx] == doc_ids) if len(hit_docs) else np.zeros(
                    len(doc_ids), dtype=bool
                )
                fg_df = np.add.reduceat(mask.astype(np.int64), starts)
                keep = fg_df >= min_partial
                if not keep.any():
                    continue
                out_q.extend([qid] * int(keep.sum()))
                out_t.extend(terms_arr[keep].tolist())
                out_c.extend(fg_df[keep].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "term": pa.array(out_t, type=pa.string()),
                "fg_df": pa.array(out_c, type=pa.int64()),
            }
        )

    return scan


def _sum_fg(group: pa.Table) -> pa.Table:
    agg = group.group_by(["query_id", "term"]).aggregate([("fg_df", "sum")])
    agg = agg.select(["query_id", "term", "fg_df_sum"])
    return agg.rename_columns(["query_id", "term", "fg_df"])


def significant_terms(
    index_dir: str,
    queries: Iterable[tuple[int, str]],
    topn: int = 10,
    min_fg_df: int = 1,
    max_fg_docs: int = 5_000_000,
) -> ray.data.Dataset:
    """(query_id, rank, term, fg_df, bg_df, lift) — ``topn`` most
    over-represented terms among each boolean query's matching docs."""
    meta = load_meta(index_dir)
    n_docs = int(meta["N"])
    n_parts = int(meta["num_partitions"])

    hit_rows = boolean_search(index_dir, queries).take_all()
    if len(hit_rows) > max_fg_docs:
        raise ValueError(
            f"{len(hit_rows)} foreground hits exceed max_fg_docs="
            f"{max_fg_docs}; sample the hit population upstream (the ES "
            "sampler-aggregation contract) or raise the cap"
        )
    fg: dict[int, np.ndarray] = {}
    for r in hit_rows:
        fg.setdefault(int(r["query_id"]), []).append(int(r["doc_id"]))
    n_fg = {q: len(v) for q, v in fg.items()}
    fg = {q: np.sort(np.asarray(v, dtype=np.int64)) for q, v in fg.items()}
    if not fg:
        return ray.data.from_arrow(
            pa.table(
                {
                    "query_id": pa.array([], type=pa.int64()),
                    "rank": pa.array([], type=pa.int64()),
                    "term": pa.array([], type=pa.string()),
                    "fg_df": pa.array([], type=pa.int64()),
                    "bg_df": pa.array([], type=pa.int64()),
                    "lift": pa.array([], type=pa.float64()),
                }
            )
        )
    fg_ref = ray.put(fg)

    parts = ray.data.from_items([{"part": p} for p in range(n_parts)])
    partials = parts.map_batches(
        _scan_factory(index_dir, fg_ref),
        batch_format="pyarrow",
        batch_size=1,
    )
    # salted hot terms live in several partitions -> re-aggregate per term;
    # the min_fg_df floor applies only AFTER the global sum
    fg_agg = partials.groupby("term").map_groups(_sum_fg, batch_format="pyarrow")

    bg = ray.data.read_parquet(
        os.path.join(index_dir, "dictionary", "dictionary.parquet"),
        columns=["term", "df"],
    ).map_batches(
        lambda t: t.rename_columns(["term", "bg_df"]), batch_format="pyarrow"
    )
    joined = hash_join(fg_agg, bg, on="term", num_partitions=8)

    def score(batch: pa.Table) -> pa.Table:
        qids = batch.column("query_id").to_numpy()
        fg_c = batch.column("fg_df").to_numpy().astype(np.float64)
        bg_c = batch.column("bg_df").to_numpy().astype(np.float64)
        hits = np.array([n_fg[int(q)] for q in qids], dtype=np.float64)
        lift = round_half_away((fg_c / hits) / (bg_c / float(n_docs)), 6)
        keep = batch.column("fg_df").to_numpy() >= min_fg_df
        return pa.table(
            {
                "query_id": batch.column("query_id").filter(pa.array(keep)),
                "term": batch.column("term").filter(pa.array(keep)),
                "fg_df": batch.column("fg_df").filter(pa.array(keep)),
                "bg_df": batch.column("bg_df").filter(pa.array(keep)),
                "lift": pa.array(lift[keep], type=pa.float64()),
            }
        )

    scored = joined.map_batches(score, batch_format="pyarrow")

    def topn_group(group: pa.Table) -> pa.Table:
        lifts = group.column("lift").to_numpy()
        fgc = group.column("fg_df").to_numpy()
        terms = np.asarray(group.column("term").to_pylist(), dtype=object)
        order = np.lexsort((terms, -fgc, -lifts))[:topn]
        ranks = np.arange(1, len(order) + 1)
        return pa.table(
            {
                "query_id": group.column("query_id").take(pa.array(order)),
                "rank": pa.array(ranks, type=pa.int64()),
                "term": group.column("term").take(pa.array(order)),
                "fg_df": group.column("fg_df").take(pa.array(order)),
                "bg_df": group.column("bg_df").take(pa.array(order)),
                "lift": group.column("lift").take(pa.array(order)),
            }
        )

    return scored.groupby("query_id").map_groups(topn_group, batch_format="pyarrow")
