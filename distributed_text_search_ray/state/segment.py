"""Posting-segment format: build, write, read.

One segment per term-hash partition. On disk (inside ``part=NNNNN/``):

- ``terms.parquet`` — the partition's sorted term dictionary. Columns:
  ``term`` (sorted asc), ``df`` (local document frequency = list length),
  ``cf`` (local collection frequency), ``doc_off``/``doc_nbytes``,
  ``tf_off``/``tf_nbytes``, ``dl_off``/``dl_nbytes`` (byte slices into the
  three streams), and ``pos_off``/``pos_nbytes`` when positions are stored.
  No per-block score metadata: every scorer reads a term's whole list.
  ``block_size`` rides in the parquet schema metadata. Indexes written
  before the block metadata was dropped also carry five per-block list
  columns (``block_*``); readers do not load them.
- ``docs.bin`` — delta + varbyte doc ids. Deltas restart every
  ``block_size`` postings within a term (that posting's id is stored
  absolute), so the decoder needs the interval, not per-term metadata.
- ``tfs.bin`` / ``dls.bin`` — varbyte term frequencies / document lengths.
  Embedding dl per posting trades space for never needing a doc->dl lookup
  table at query time (a doc-length table does not broadcast at 10^12-doc
  scale).
- ``MANIFEST.json`` — lineage (see state.manifest).

All encoding is vectorized: one ``varbyte_encode`` call per stream for the
whole partition, with per-term byte offsets derived from the width cumsum.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from distributed_text_search_ray.config import IndexConfig
from distributed_text_search_ray.functions.codec import (
    segmented_delta_decode,
    segmented_delta_encode,
    varbyte_decode,
    varbyte_encode,
)

TERMS_FILE = "terms.parquet"
STREAMS = ("docs.bin", "tfs.bin", "dls.bin")
POS_STREAM = "pos.bin"  # v4 optional positional stream


def _delta_restarts(df: np.ndarray, block_size: int) -> np.ndarray:
    """Pair index of every doc-id delta restart in a stream of terms stored
    back to back with ``df`` postings each: a term's first posting and
    every ``block_size``-th one after it."""
    n_blocks = (df + block_size - 1) // block_size
    first = np.cumsum(n_blocks) - n_blocks
    term = np.repeat(np.arange(len(df)), n_blocks)
    within = np.arange(len(term), dtype=np.int64) - first[term]
    return (np.cumsum(df) - df)[term] + within * block_size


def build_segment_tables(
    term_codes: np.ndarray,
    term_strings,
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    cfg: IndexConfig,
    positions: "pa.ListArray | pa.ChunkedArray | None" = None,
) -> tuple:
    """Encode one partition's pairs (already sorted by (term, doc_id)) into
    (terms table, docs stream, tfs stream, dls stream, stats, pos stream).

    ``term_codes``: int codes per pair row, non-decreasing (dictionary codes
    of the sorted term column); ``term_strings``: the dictionary — strings
    for each distinct code, in code order. Keeping the hot path on int codes
    avoids materializing millions of Python strings per partition.

    ``positions`` (v4, opt-in): a pair-aligned ``list<int32>`` of each
    pair's ascending token positions. The sixth element of the return is
    the pos stream bytes (per-pair delta + varbyte, restart at every pair
    so a term's positions decode with its tfs as the restart table), or
    ``None`` without positions; with them the terms table gains
    ``pos_off``/``pos_nbytes``.
    """
    n = len(term_codes)
    if n == 0:
        empty = pa.table(
            {
                "term": pa.array([], type=pa.string()),
                "df": pa.array([], type=pa.int64()),
                "cf": pa.array([], type=pa.int64()),
                "doc_off": pa.array([], type=pa.int64()),
                "doc_nbytes": pa.array([], type=pa.int64()),
                "tf_off": pa.array([], type=pa.int64()),
                "tf_nbytes": pa.array([], type=pa.int64()),
                "dl_off": pa.array([], type=pa.int64()),
                "dl_nbytes": pa.array([], type=pa.int64()),
            }
        )
        stats0 = {"n_terms": 0, "n_postings": 0, "sum_tf": 0, "max_doc_id": -1}
        if positions is not None:
            empty = empty.append_column(
                "pos_off", pa.array([], type=pa.int64())
            ).append_column("pos_nbytes", pa.array([], type=pa.int64()))
        empty = empty.replace_schema_metadata({b"block_size": str(cfg.block_size).encode()})
        return empty, b"", b"", b"", stats0, (b"" if positions is not None else None)

    # term boundaries (input sorted by term, doc_id)
    codes = np.asarray(term_codes)
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    is_start[1:] = codes[1:] != codes[:-1]
    starts = np.flatnonzero(is_start)
    df = np.diff(np.concatenate((starts, [n])))
    uniq_terms = [term_strings[c] for c in codes[starts]]

    deltas = segmented_delta_encode(doc_ids, _delta_restarts(df, cfg.block_size))
    doc_stream, doc_w = varbyte_encode(deltas)
    tf_stream, tf_w = varbyte_encode(tfs.astype(np.uint64))
    dl_stream, dl_w = varbyte_encode(dls.astype(np.uint64))

    def offsets(widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(per-term byte offset, per-term nbytes)."""
        ends = np.cumsum(widths)
        term_off = np.concatenate(([0], ends[:-1]))[starts]
        term_end = ends[np.concatenate((starts[1:] - 1, [n - 1]))]
        return term_off, term_end - term_off

    doc_off, doc_nb = offsets(doc_w)
    tf_off, tf_nb = offsets(tf_w)
    dl_off, dl_nb = offsets(dl_w)

    pos_stream = None
    pos_off = pos_nb = None
    if positions is not None:
        if isinstance(positions, pa.ChunkedArray):
            positions = (
                positions.chunk(0)
                if positions.num_chunks == 1
                else pa.concat_arrays(positions.chunks)
            )
        list_off = positions.offsets.to_numpy().astype(np.int64)  # len n+1
        pos_vals = positions.values.to_numpy().astype(np.int64)
        if list_off[0] != 0 or list_off[-1] != len(pos_vals):
            # sliced/taken list arrays can reference a larger child buffer —
            # re-materialize contiguous before stream encoding
            pos_vals = pos_vals[list_off[0] : list_off[-1]]
            list_off = list_off - list_off[0]
        pos_deltas = segmented_delta_encode(pos_vals, list_off[:-1])
        ps, pw = varbyte_encode(pos_deltas)
        pos_stream = ps.tobytes()
        pends = np.cumsum(pw)
        pstarts_bytes = np.concatenate(([0], pends[:-1]))
        # per-term byte slice: first value of the term's first pair to the
        # last value of its last pair
        first_val = list_off[starts]
        last_pair = np.concatenate((starts[1:], [n])) - 1
        last_val_end = list_off[last_pair + 1]  # exclusive value index
        pos_off = pstarts_bytes[first_val]
        pos_nb = np.where(
            last_val_end > first_val, pends[last_val_end - 1] - pos_off, 0
        )

    cf = np.add.reduceat(tfs, starts)
    terms_table = pa.table(
        {
            "term": pa.array(uniq_terms, type=pa.string()),
            "df": pa.array(df, type=pa.int64()),
            "cf": pa.array(cf, type=pa.int64()),
            "doc_off": pa.array(doc_off, type=pa.int64()),
            "doc_nbytes": pa.array(doc_nb, type=pa.int64()),
            "tf_off": pa.array(tf_off, type=pa.int64()),
            "tf_nbytes": pa.array(tf_nb, type=pa.int64()),
            "dl_off": pa.array(dl_off, type=pa.int64()),
            "dl_nbytes": pa.array(dl_nb, type=pa.int64()),
        }
    )
    if positions is not None:
        terms_table = terms_table.append_column(
            "pos_off", pa.array(pos_off, type=pa.int64())
        ).append_column("pos_nbytes", pa.array(pos_nb, type=pa.int64()))
    terms_table = terms_table.replace_schema_metadata(
        {b"block_size": str(cfg.block_size).encode()}
    )
    stats = {
        "n_terms": int(len(uniq_terms)),
        "n_postings": int(n),
        "sum_tf": int(tfs.sum()),
        "max_doc_id": int(doc_ids.max()),
    }
    return (
        terms_table, doc_stream.tobytes(), tf_stream.tobytes(),
        dl_stream.tobytes(), stats, pos_stream,
    )


def write_segment(
    seg_dir: str,
    terms_table: pa.Table,
    doc_stream: bytes,
    tf_stream: bytes,
    dl_stream: bytes,
    pos_stream: bytes | None = None,
) -> dict:
    """Write segment files into ``seg_dir`` (caller handles atomicity).

    Returns stream checksums for the manifest.
    """
    pq.write_table(terms_table, os.path.join(seg_dir, TERMS_FILE))
    checks = {}
    names = list(STREAMS)
    data_list = [doc_stream, tf_stream, dl_stream]
    if pos_stream is not None:
        names.append(POS_STREAM)
        data_list.append(pos_stream)
    for name, data in zip(names, data_list):
        with open(os.path.join(seg_dir, name), "wb") as f:
            f.write(data)
        checks[name] = hashlib.md5(data).hexdigest()
    return checks


def read_segment_pairs(
    seg_dir: str, with_positions: bool = False
) -> tuple:
    """Decode one segment back into its full (term, doc, tf, dl) pair stream
    — the inverse of ``build_segment_tables``, fully vectorized (one varbyte
    decode per stream + one segmented delta decode over all block starts).
    Returns (term_strings, df_per_term, doc_ids, tfs, dls) with pairs grouped
    by term in dictionary (sorted) order. Used by the segment-merge path.

    ``with_positions`` (v4 segments) appends a sixth element: the flat
    position values aligned to pair order (each pair's positions are
    ``tfs[i]`` consecutive values — positions restart their delta chain at
    every pair, so the pair-start indices ARE the decode restart table)."""
    t = pq.read_table(os.path.join(seg_dir, TERMS_FILE), columns=["term", "df"])
    md = t.schema.metadata or {}
    B = int(md.get(b"block_size", b"128"))
    terms = t.column("term").to_pylist()
    df = t.column("df").to_numpy().astype(np.int64)
    total = int(df.sum())
    streams = {}
    for name in STREAMS:
        p = os.path.join(seg_dir, name)
        streams[name] = (
            np.fromfile(p, dtype=np.uint8)
            if os.path.getsize(p)
            else np.empty(0, dtype=np.uint8)
        )
    if total == 0:
        z = np.empty(0, dtype=np.int64)
        if with_positions:
            return terms, df, z, z, z, z.copy()
        return terms, df, z, z, z
    deltas = varbyte_decode(streams["docs.bin"], count=total)
    doc_ids = segmented_delta_decode(deltas, _delta_restarts(df, B))
    tfs = varbyte_decode(streams["tfs.bin"], count=total).astype(np.int64)
    dls = varbyte_decode(streams["dls.bin"], count=total).astype(np.int64)
    if with_positions:
        pp = os.path.join(seg_dir, POS_STREAM)
        if not os.path.exists(pp):
            raise ValueError(f"segment {seg_dir} stores no positions")
        raw = (
            np.fromfile(pp, dtype=np.uint8)
            if os.path.getsize(pp)
            else np.empty(0, dtype=np.uint8)
        )
        n_pos = int(tfs.sum())
        pos_deltas = varbyte_decode(raw, count=n_pos)
        pair_starts = np.concatenate(([0], np.cumsum(tfs)[:-1]))
        flat_pos = segmented_delta_decode(pos_deltas, pair_starts)
        return terms, df, doc_ids, tfs, dls, flat_pos
    return terms, df, doc_ids, tfs, dls


class SegmentReader:
    """Read-side view of one partition segment.

    Loads the term dictionary once; posting streams are memory-mapped and
    decoded per requested term (only touched byte ranges are paged in).
    """

    def __init__(self, seg_dir: str):
        self.seg_dir = seg_dir
        # an index written before the block metadata was dropped keeps its
        # five block_* list columns on disk; they are not read into memory
        path = os.path.join(seg_dir, TERMS_FILE)
        cols = [c for c in pq.read_schema(path).names if not c.startswith("block_")]
        t = pq.read_table(path, columns=cols)
        self._terms = t
        md = t.schema.metadata or {}
        self.block_size = int(md.get(b"block_size", b"128"))
        # terms are stored sorted: lookups binary-search the Arrow column
        # directly (O(log n) .as_py() calls) instead of materializing a
        # Python dict of every term string — on a 2.3M-doc index the dict
        # build made first-touch of a partition cost ~0.5s
        self._terms_col = t.column("term").combine_chunks()
        self._n_terms = t.num_rows
        self._row_memo: dict[str, int | None] = {}
        self._streams = {}
        # posting-stream bytes fed to varbyte_decode (diagnostic: what a
        # query's cache misses cost in decode)
        self.bytes_decoded = 0
        names = list(STREAMS)
        self.has_positions = os.path.exists(os.path.join(seg_dir, POS_STREAM))
        if self.has_positions:
            names.append(POS_STREAM)
        for name in names:
            p = os.path.join(seg_dir, name)
            self._streams[name] = (
                np.memmap(p, dtype=np.uint8, mode="r")
                if os.path.getsize(p)
                else np.empty(0, dtype=np.uint8)
            )

    @property
    def terms_table(self) -> pa.Table:
        return self._terms

    def term_row(self, term: str) -> int | None:
        hit = self._row_memo.get(term, -1)
        if hit != -1:
            return hit
        col = self._terms_col
        lo, hi = 0, self._n_terms
        while lo < hi:
            mid = (lo + hi) // 2
            if col[mid].as_py() < term:
                lo = mid + 1
            else:
                hi = mid
        out = lo if lo < self._n_terms and col[lo].as_py() == term else None
        if len(self._row_memo) < 100_000:
            self._row_memo[term] = out
        return out

    def local_df(self, term: str) -> int:
        i = self.term_row(term)
        return int(self._terms.column("df")[i].as_py()) if i is not None else 0

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(doc_ids, tfs, dls) for a term, or None if absent."""
        i = self.term_row(term)
        if i is None:
            return None
        row = {c: self._terms.column(c)[i].as_py() for c in (
            "df", "doc_off", "doc_nbytes", "tf_off", "tf_nbytes", "dl_off", "dl_nbytes")}
        df = row["df"]
        self.bytes_decoded += row["doc_nbytes"] + row["tf_nbytes"] + row["dl_nbytes"]
        deltas = varbyte_decode(
            self._streams["docs.bin"][row["doc_off"] : row["doc_off"] + row["doc_nbytes"]],
            count=df,
        )
        # deltas restart every block_size postings
        B = self.block_size
        nb = (df + B - 1) // B
        doc_ids = segmented_delta_decode(deltas, np.arange(nb, dtype=np.int64) * B)
        tfs = varbyte_decode(
            self._streams["tfs.bin"][row["tf_off"] : row["tf_off"] + row["tf_nbytes"]], count=df
        ).astype(np.int64)
        dls = varbyte_decode(
            self._streams["dls.bin"][row["dl_off"] : row["dl_off"] + row["dl_nbytes"]], count=df
        ).astype(np.int64)
        return doc_ids, tfs, dls

    def positions(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(doc_ids, tfs, flat_positions) for a term — positions are grouped
        per posting (split points = cumsum(tfs)). None if the term is absent
        or the segment stores no positions (v3 layout)."""
        if not self.has_positions:
            return None
        i = self.term_row(term)
        if i is None:
            return None
        got = self.postings(term)
        if got is None:
            return None
        doc_ids, tfs, _dls = got
        row = {
            c: self._terms.column(c)[i].as_py() for c in ("cf", "pos_off", "pos_nbytes")
        }
        self.bytes_decoded += row["pos_nbytes"]
        deltas = varbyte_decode(
            self._streams[POS_STREAM][row["pos_off"] : row["pos_off"] + row["pos_nbytes"]],
            count=int(row["cf"]),
        )
        restarts = np.concatenate(([0], np.cumsum(tfs)[:-1])).astype(np.int64)
        pos = segmented_delta_decode(deltas, restarts)
        return doc_ids, tfs, pos
