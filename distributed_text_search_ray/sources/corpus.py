"""Corpus sources: canonical schema, readers, adapters.

Canonical corpus schema (BASELINE.json input_hint):
``(repo: string, path: string, commit: string, lang: string, content: string)``
plus an optional explicit ``doc_id: int64``. When absent, doc ids are assigned
as a deterministic 63-bit fingerprint of ``(repo, path)`` — cluster-stable and
sort-free (no global sort at 10^12-file scale; the reference's doc identity is
rank order, ``src/flexible_mpi.c:232-233``, which does not distribute).

The driver test tables at ``/root/testdata/sf*/documents.parquet`` use
``(doc_id, text, lang, source, n_chars)``; ``read_documents_table`` adapts them
(text -> content, source -> repo, ``doc{doc_id}`` -> path) keeping the given
``doc_id``.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from distributed_text_search_ray.functions.hashing import doc_fingerprint

CORPUS_SCHEMA = pa.schema(
    [
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content", pa.string()),
    ]
)


def corpus_files(path: str) -> list[str]:
    """Deterministic (sorted) list of parquet files under a corpus path."""
    if os.path.isdir(path):
        return sorted(glob.glob(os.path.join(path, "*.parquet")))
    return [path]


def _add_doc_ids(batch: pa.Table) -> pa.Table:
    if "doc_id" in batch.column_names:
        return batch
    repos = batch.column("repo").to_pylist()
    paths = batch.column("path").to_pylist()
    ids = [doc_fingerprint(r, p) for r, p in zip(repos, paths)]
    return batch.append_column("doc_id", pa.array(ids, type=pa.int64()))


def read_corpus(path: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """Read a canonical corpus; assigns ``doc_id`` if missing.

    ``columns`` prunes at the read (never load all 5 columns for a 2-column
    transform); ``doc_id`` sources (repo, path) are added automatically when
    fingerprinting is needed.
    """
    files = corpus_files(path)
    schema = pq.ParquetFile(files[0]).schema_arrow
    has_id = "doc_id" in schema.names
    cols = columns
    if cols is not None and not has_id:
        # doc_id is derived from (repo, path) below — request the sources,
        # never the (absent) derived column
        cols = sorted((set(cols) - {"doc_id"}) | {"repo", "path"})
    elif cols is not None and has_id:
        cols = sorted(set(cols) | {"doc_id"})
    ds = ray.data.read_parquet(files, columns=cols)
    if not has_id:
        ds = ds.map_batches(_add_doc_ids, batch_format="pyarrow")
    return ds


def adapt_documents_batch(batch: pa.Table) -> pa.Table:
    """Driver `documents` schema -> canonical corpus batch (zero-copy cols)."""
    doc_id = batch.column("doc_id")
    return pa.table(
        {
            "doc_id": doc_id,
            "repo": batch.column("source"),
            "path": pc.binary_join_element_wise(
                pa.array(["doc"] * len(batch), type=pa.string()),
                pc.cast(doc_id, pa.string()),
                "",
            ),
            "commit": pa.array([""] * len(batch), type=pa.string()),
            "lang": batch.column("lang"),
            # stored column when present (= length(text) in the driver
            # table, verified), derived otherwise — pruned reads and other
            # document-shaped sources need not carry it
            "n_chars": (
                batch.column("n_chars")
                if "n_chars" in batch.column_names
                else pc.utf8_length(batch.column("text"))
            ),
            "content": batch.column("text"),
        }
    )


def read_documents_table(sf_dir: str) -> ray.data.Dataset:
    """Adapter for the driver-generated documents table."""
    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    return ds.map_batches(adapt_documents_batch, batch_format="pyarrow")


def read_text_dir(path: str, repo: str | None = None) -> ray.data.Dataset:
    """Reference-format corpus source: a directory of flat text files
    (``dir/<rank>.txt``, ``src/flexible_mpi.c:232-233``) -> canonical corpus
    rows. One row per file; byte content decoded as UTF-8 (latin-1 fallback
    keeps arbitrary bytes representable). A user of the reference can point
    this at its ``dna/`` fixtures directly."""
    repo = repo or os.path.basename(os.path.normpath(path))

    def to_rows(batch: pa.Table) -> pa.Table:
        contents, paths = [], []
        for raw, p in zip(
            batch.column("bytes").to_pylist(), batch.column("path").to_pylist()
        ):
            try:
                contents.append(raw.decode("utf-8"))
            except UnicodeDecodeError:
                contents.append(raw.decode("latin-1"))
            paths.append(os.path.basename(p))
        n = len(paths)
        return pa.table(
            {
                "repo": pa.array([repo] * n, type=pa.string()),
                "path": pa.array(paths, type=pa.string()),
                "commit": pa.array([""] * n, type=pa.string()),
                "lang": pa.array(["txt"] * n, type=pa.string()),
                "content": pa.array(contents, type=pa.string()),
            }
        )

    ds = ray.data.read_binary_files(path, include_paths=True)
    return ds.map_batches(to_rows, batch_format="pyarrow").map_batches(
        _add_doc_ids, batch_format="pyarrow"
    )
