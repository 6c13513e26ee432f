"""Phase-B segment build: per-partition pair files -> posting segments.

One task per term-hash partition: read exactly the pair files the tokenize
manifests attributed to this partition, sort by (term, doc_id), encode into
the compressed segment, write atomically with a lineage manifest. Because the
tokenize stage already partitioned the pairs on disk (map-side partitioning,
see ``tokenize_stage``), this phase is embarrassingly parallel — no Ray
all-to-all exchange.

Scale note: a partition's pairs must fit in the builder task's heap — choose
``num_partitions`` so (total pairs / P) is a few hundred MB. For corpora where
even that is too large, the layout already supports an external merge (each
per-shard part file can be pre-sorted and k-way merged); not needed at the
scales exercised here.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from distributed_text_search_ray.config import IndexConfig
from distributed_text_search_ray.state import manifest as mf
from distributed_text_search_ray.state.segment import build_segment_tables, write_segment


class SegmentBuilder:
    """Build one partition's segment from its pair files."""

    def __init__(
        self,
        index_dir: str,
        fingerprint: str,
        cfg: IndexConfig,
    ):
        self.index_dir = index_dir
        self.fingerprint = fingerprint
        self.cfg = cfg

    def build_part(
        self, part: int, files: list[str], row_groups: list[list[int]] | None = None
    ) -> dict:
        """``files`` + parallel ``row_groups``: each pair file's row groups
        holding this partition's rows (row groups are partition-aligned at
        write time, so this reads exactly the partition's bytes)."""
        seg_dir = os.path.join(self.index_dir, "segments", f"part={part:05d}")
        if mf.is_complete(seg_dir, self.fingerprint):
            m = mf.read_manifest(seg_dir)
            return {"part": part, "n_terms": m["n_terms"], "n_postings": m["n_postings"],
                    "skipped": True}
        if files:
            if row_groups is None:
                tables = [pq.read_table(f) for f in files]
            else:
                tables = [
                    pq.ParquetFile(f).read_row_groups(rgs)
                    for f, rgs in zip(files, row_groups)
                    if rgs
                ]
            g = pa.concat_tables(tables) if tables else None
        else:
            g = None
        positional = self.cfg.store_positions
        positions = None
        if g is not None and len(g):
            g = g.combine_chunks().sort_by(
                [("term", "ascending"), ("doc_id", "ascending")]
            )
            # dictionary codes keep the boundary scan in C (dictionary order =
            # first-appearance = sorted term order)
            enc = g.column("term").combine_chunks().dictionary_encode()
            term_codes = enc.indices.to_numpy()
            term_strings = enc.dictionary.to_pylist()
            doc_ids = g.column("doc_id").to_numpy()
            tfs = g.column("tf").to_numpy()
            dls = g.column("dl").to_numpy()
            if positional:
                positions = g.column("pos").combine_chunks()
        else:
            term_codes = np.empty(0, np.int32)
            term_strings = []
            doc_ids = tfs = dls = np.empty(0, np.int64)
            if positional:
                positions = pa.array([], type=pa.list_(pa.int32()))
        built = build_segment_tables(
            term_codes, term_strings, doc_ids, tfs, dls, self.cfg,
            positions=positions,
        )
        if positional:
            terms_table, docs_b, tfs_b, dls_b, stats, pos_b = built
        else:
            terms_table, docs_b, tfs_b, dls_b, stats = built
            pos_b = None
        with mf.AtomicDir(seg_dir) as tmp:
            checks = write_segment(tmp, terms_table, docs_b, tfs_b, dls_b, pos_b)
            mf.write_manifest(
                tmp,
                {
                    "kind": "segment",
                    "part": part,
                    "fingerprint": self.fingerprint,
                    "n_input_files": len(files),
                    "checksums": checks,
                    **stats,
                },
            )
        return {"part": part, "n_terms": stats["n_terms"],
                "n_postings": stats["n_postings"], "skipped": False}

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"part": [], "n_terms": [], "n_postings": [], "skipped": []}
        for row in batch.to_pylist():
            rgs = row.get("row_groups")
            res = self.build_part(
                int(row["part"]),
                list(row["files"]),
                [list(r) for r in rgs] if rgs is not None else None,
            )
            for k in out:
                out[k].append(res[k])
        return pa.table(
            {
                "part": pa.array(out["part"], type=pa.int64()),
                "n_terms": pa.array(out["n_terms"], type=pa.int64()),
                "n_postings": pa.array(out["n_postings"], type=pa.int64()),
                "skipped": pa.array(out["skipped"]),
            }
        )
