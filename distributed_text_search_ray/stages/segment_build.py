"""Segment writing: the one part protocol every index producer shares.

The build (phase B), ``merge_indexes``, ``compact_index`` and
``reshard_index`` all write partitions the same way:

- :func:`run_part_tasks` runs one Ray Data task per work item
  (``map_batches(batch_size=1)``) and returns the rows plus the phase
  report; the item function yields one row per output part;
- :func:`finished_part` is the resume check: a part whose manifest carries
  the operation's fingerprint is skipped, not rewritten;
- :func:`write_part` encodes a pair stream with ``build_segment_tables``
  and writes it under ``AtomicDir`` together with its lineage manifest, so
  a part either exists whole or not at all.

Producers differ only in where the pairs come from: the build reads the
pair files the tokenize manifests attributed to the partition (map-side
partitioning, see ``tokenize_stage`` — no Ray all-to-all), the rewrites
decode existing segments with ``read_segment_pairs`` and reshape them with
:func:`combine_pairs`.

Scale note: a partition's pairs must fit in the task's heap — choose
``num_partitions`` so (total pairs / P) is a few hundred MB. For corpora
where even that is too large, the layout already supports an external
merge (each per-shard part file can be pre-sorted and k-way merged); not
needed at the scales exercised here.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from distributed_text_search_ray.config import IndexConfig
from distributed_text_search_ray.state import manifest as mf
from distributed_text_search_ray.state.segment import build_segment_tables, write_segment


def part_dir(index_dir: str, part: int) -> str:
    return os.path.join(index_dir, "segments", f"part={part:05d}")


def run_part_tasks(items: list[dict], fn) -> tuple[list[dict], dict]:
    """Run ``fn(item) -> [row, ...]`` as one task per item; returns the rows
    and the phase report ``{"sec", "built", "skipped"}``."""
    t0 = time.perf_counter()

    def task(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pylist([r for item in batch.to_pylist() for r in fn(item)])

    rows = (
        ray.data.from_items(items)
        .map_batches(task, batch_size=1, batch_format="pyarrow")
        .take_all()
    )
    skipped = sum(1 for r in rows if r.get("skipped"))
    return rows, {
        "sec": time.perf_counter() - t0,
        "built": len(rows) - skipped,
        "skipped": skipped,
    }


def finished_part(index_dir: str, part: int, fingerprint: str) -> dict | None:
    """The row of a part already written under ``fingerprint``, or ``None``
    when it must be built."""
    m = mf.read_manifest(part_dir(index_dir, part))
    if m is None or m.get("fingerprint") != fingerprint:
        return None
    return {"part": part, "n_terms": m["n_terms"], "n_postings": m["n_postings"],
            "skipped": True}


def write_part(
    index_dir: str,
    part: int,
    fingerprint: str,
    cfg: IndexConfig,
    pairs: tuple,
    n_input_files: int | None = None,
) -> dict:
    """Encode ``pairs`` — (term_codes, term_strings, doc_ids, tfs, dls,
    positions), sorted by (term, doc) — and write the part atomically with
    its manifest. Returns the part's row."""
    codes, terms, docs, tfs, dls, positions = pairs
    terms_table, docs_b, tfs_b, dls_b, stats, pos_b = build_segment_tables(
        codes, terms, docs, tfs, dls, cfg, positions=positions
    )
    manifest = {"kind": "segment", "part": part, "fingerprint": fingerprint, **stats}
    if n_input_files is not None:
        manifest["n_input_files"] = n_input_files
    with mf.AtomicDir(part_dir(index_dir, part)) as tmp:
        manifest["checksums"] = write_segment(tmp, terms_table, docs_b, tfs_b, dls_b, pos_b)
        mf.write_manifest(tmp, manifest)
    return {"part": part, "n_terms": stats["n_terms"], "n_postings": stats["n_postings"],
            "skipped": False}


def read_pair_files(files: list[str], row_groups: list[list[int]], with_pos: bool) -> tuple:
    """Phase-B input: the partition's rows of its pair files (``row_groups``
    parallel to ``files``: the row groups holding this partition — row
    groups are partition-aligned at write time, so this reads exactly the
    partition's bytes), sorted by (term, doc_id)."""
    tables = [pq.ParquetFile(f).read_row_groups(rgs) for f, rgs in zip(files, row_groups) if rgs]
    g = pa.concat_tables(tables) if tables else None
    if g is None or not len(g):
        empty = np.empty(0, np.int64)
        positions = pa.array([], type=pa.list_(pa.int32())) if with_pos else None
        return np.empty(0, np.int32), [], empty, empty, empty, positions
    g = g.combine_chunks().sort_by([("term", "ascending"), ("doc_id", "ascending")])
    # dictionary codes keep the boundary scan in C (dictionary order =
    # first-appearance = sorted term order)
    enc = g.column("term").combine_chunks().dictionary_encode()
    return (
        enc.indices.to_numpy(),
        enc.dictionary.to_pylist(),
        g.column("doc_id").to_numpy(),
        g.column("tf").to_numpy(),
        g.column("dl").to_numpy(),
        g.column("pos").combine_chunks() if with_pos else None,
    )


def combine_pairs(recs: list[tuple], keep: np.ndarray | None = None) -> tuple:
    """Combine ``read_segment_pairs`` records into one pair stream for
    :func:`write_part`.

    Several records (a merge's sources, a shrink's parents) are recoded
    onto their union dictionary and lexsorted by (term, doc); one record
    keeps its order. ``keep``, a mask over the input pairs (compact's
    survivors, a split child's pairs), selects pairs. Terms left without
    pairs are dropped, and each pair's positions move with it."""
    with_pos = len(recs[0]) > 5
    if len(recs) == 1:
        terms, df, docs, tfs, dls = recs[0][:5]
        codes = np.repeat(np.arange(len(terms), dtype=np.int64), df)
        flat = recs[0][5] if with_pos else None
        order = None
    else:
        terms = sorted(set().union(*(r[0] for r in recs)))
        code_of = {t: i for i, t in enumerate(terms)}
        codes = np.concatenate([
            np.repeat(np.fromiter((code_of[t] for t in r[0]), np.int64, len(r[0])), r[1])
            for r in recs
        ])
        docs, tfs, dls = (np.concatenate([r[i] for r in recs]) for i in (2, 3, 4))
        flat = np.concatenate([r[5] for r in recs]) if with_pos else None
        order = np.lexsort((docs, codes))
    if keep is not None:
        order = np.flatnonzero(keep) if order is None else order[keep[order]]
    if order is not None:
        if with_pos:
            # gather each pair's position run through the new pair order
            new_tfs = tfs[order]
            shift = (np.cumsum(tfs) - tfs)[order] - (np.cumsum(new_tfs) - new_tfs)
            flat = flat[np.repeat(shift, new_tfs) + np.arange(int(new_tfs.sum()))]
        codes, docs, tfs, dls = codes[order], docs[order], tfs[order], dls[order]
    counts = np.bincount(codes, minlength=len(terms))
    if not counts.all():
        terms = [terms[c] for c in np.flatnonzero(counts)]
        codes = (np.cumsum(counts > 0) - 1)[codes]
    positions = None
    if with_pos:
        offsets = np.concatenate(([0], np.cumsum(tfs))).astype(np.int32)
        positions = pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat.astype(np.int32)))
    return codes, terms, docs, tfs, dls, positions
