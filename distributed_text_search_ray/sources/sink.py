"""Resumable partitioned corpus sink.

The reference's only sink is rank-0 ``printf`` (S3, ``src/apm1.c:294-299``);
a 100 TB curation pipeline needs the opposite: durable, partitioned,
RESUMABLE output. This sink writes one output parquet + lineage manifest
per INPUT SHARD (the same unit the index build resumes on), so a killed
materialization run re-processes only shards whose output is missing or
whose input/transform changed — never one giant file, never a restart from
zero.

Layout::

    out_dir/
      shard=<safe_name>/part.parquet
      shard=<safe_name>/MANIFEST.json   (input fingerprint, row counts, md5)

Shape: one Ray task per shard (``from_items(paths) -> map_batches``,
``batch_size=1``) — embarrassingly parallel, no shuffle; each task streams
exactly one input file. The transform runs inside the task, so a fused
filter+rewrite pass costs one read of the corpus.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from distributed_text_search_ray.sources.corpus import corpus_files
from distributed_text_search_ray.state import manifest as mf


def _transform_fingerprint(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()[:16]


class _ShardWriter:
    def __init__(
        self,
        out_dir: str,
        transform: Callable[[pa.Table], pa.Table] | None,
        tag: str,
    ):
        self.out_dir = out_dir
        self.transform = transform
        self.cfg_fp = _transform_fingerprint(tag)

    def _one(self, path: str) -> dict:
        fp = mf.shard_fingerprint(path, self.cfg_fp)
        shard_dir = os.path.join(self.out_dir, f"shard={mf.safe_name(path)}")
        if mf.is_complete(shard_dir, fp):
            m = mf.read_manifest(shard_dir)
            return {
                "shard": mf.safe_name(path),
                "rows_in": m["rows_in"],
                "rows_out": m["rows_out"],
                "skipped": True,
            }
        t = pq.read_table(path)
        rows_in = t.num_rows
        out = self.transform(t) if self.transform is not None else t
        with mf.AtomicDir(shard_dir) as tmp:
            target = os.path.join(tmp, "part.parquet")
            pq.write_table(out, target)
            h = hashlib.md5()
            with open(target, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
            mf.write_manifest(
                tmp,
                {
                    "kind": "corpus_shard",
                    "input": os.path.basename(path),
                    "fingerprint": fp,
                    "rows_in": rows_in,
                    "rows_out": out.num_rows,
                    "md5": h.hexdigest(),
                },
            )
        return {
            "shard": mf.safe_name(path),
            "rows_in": rows_in,
            "rows_out": out.num_rows,
            "skipped": False,
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        reports = [self._one(p) for p in batch.column("path").to_pylist()]
        return pa.table(
            {
                "shard": pa.array([r["shard"] for r in reports], type=pa.string()),
                "rows_in": pa.array([r["rows_in"] for r in reports], type=pa.int64()),
                "rows_out": pa.array([r["rows_out"] for r in reports], type=pa.int64()),
                "skipped": pa.array([r["skipped"] for r in reports], type=pa.bool_()),
            }
        )


def write_corpus_resumable(
    in_dir: str,
    out_dir: str,
    transform: Callable[[pa.Table], pa.Table] | None = None,
    transform_tag: str = "identity",
) -> dict:
    """Materialize (optionally transformed) corpus shards to ``out_dir``,
    skipping shards already complete for the same (input, transform) lineage.

    ``transform_tag`` names the transform version — bump it when the
    transform's logic changes so stale outputs are invalidated (the function
    object itself can't be fingerprinted reliably across processes).

    Returns {"shards", "skipped", "rows_in", "rows_out"}.
    """
    files = corpus_files(in_dir)
    if not files:
        raise FileNotFoundError(f"no parquet shards under {in_dir}")
    os.makedirs(out_dir, exist_ok=True)
    mf.gc_tmp_dirs(out_dir)
    reports = (
        ray.data.from_items([{"path": p} for p in files])
        .map_batches(
            _ShardWriter(out_dir, transform, transform_tag),
            batch_format="pyarrow",
            batch_size=1,
        )
        .take_all()
    )
    return {
        "shards": len(reports),
        "skipped": sum(1 for r in reports if r["skipped"]),
        "rows_in": sum(r["rows_in"] for r in reports),
        "rows_out": sum(r["rows_out"] for r in reports),
    }


def read_written_corpus(out_dir: str) -> ray.data.Dataset:
    """Dataset over a sink's output (validates every shard has a complete
    manifest first — a partial run surfaces as an error, not silent
    missing data)."""
    parts = []
    for name in sorted(os.listdir(out_dir)):
        d = os.path.join(out_dir, name)
        if not name.startswith("shard="):
            continue
        if mf.read_manifest(d) is None:
            raise RuntimeError(f"incomplete shard output {d} (no manifest)")
        parts.append(os.path.join(d, "part.parquet"))
    if not parts:
        raise FileNotFoundError(f"no complete shards under {out_dir}")
    return ray.data.read_parquet(parts)
