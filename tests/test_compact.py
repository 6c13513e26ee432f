"""True index compaction: segment rewrite dropping tombstoned docs.

The contract: ``compact_index(delete_docs(idx, D))`` is rank- AND
score-identical to a FRESH BUILD over the corpus minus D (stats
recomputed, tombstoned pairs gone, now-empty terms dropped from the
dictionary) — without ever re-tokenizing a document.
"""

import os
import shutil

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from distributed_text_search_ray.config import IndexConfig
from distributed_text_search_ray.pipelines.build import build_index, delete_docs
from distributed_text_search_ray.pipelines.merge import compact_index
from distributed_text_search_ray.pipelines.search import search_topk
from distributed_text_search_ray.sources.corpus import corpus_files

from tests.conftest import corpus_docs

QUERIES = [(0, "def return value"), (1, "import data"), (2, "zz_missing")]
CFG = IndexConfig(num_partitions=4, attribute_columns=("lang",))


def _results(index_dir, mode="taat"):
    rows = search_topk(index_dir, QUERIES, topk=10, mode=mode).take_all()
    return sorted(tuple(r.values()) for r in rows)


@pytest.fixture(scope="module")
def compact_env(code_corpus, tmp_path_factory):
    corpus_dir, _ = code_corpus
    root = str(tmp_path_factory.mktemp("compact"))
    docs = corpus_docs(corpus_dir)
    deleted = sorted(d for d, _ in docs if d % 3 == 0)
    assert deleted and len(deleted) < len(docs)

    # surviving corpus on disk for the fresh-build reference
    surv_dir = os.path.join(root, "surviving")
    os.makedirs(surv_dir)
    for f in corpus_files(corpus_dir):
        t = pq.read_table(f)
        ids = (
            t.column("doc_id")
            if "doc_id" in t.column_names
            else None
        )
        if ids is None:
            from distributed_text_search_ray.functions.hashing import doc_fingerprint

            import pyarrow as pa

            ids = pa.array(
                [
                    doc_fingerprint(r, p)
                    for r, p in zip(
                        t.column("repo").to_pylist(), t.column("path").to_pylist()
                    )
                ],
                type=pa.int64(),
            )
        import pyarrow as pa

        keep = pc.invert(pc.is_in(ids, value_set=pa.array(deleted, type=pa.int64())))
        pq.write_table(t.filter(keep), os.path.join(surv_dir, os.path.basename(f)))

    idx = os.path.join(root, "idx")
    build_index(corpus_dir, idx, CFG)
    delete_docs(idx, deleted)
    idx_fresh = os.path.join(root, "idx_fresh")
    build_index(surv_dir, idx_fresh, CFG)
    return root, idx, idx_fresh, deleted


def test_compacted_equals_fresh_build_over_survivors(compact_env):
    root, idx, idx_fresh, _ = compact_env
    out = os.path.join(root, "idx_compact")
    rep = compact_index(idx, out)
    assert rep["complete"]
    assert _results(out) == _results(idx_fresh)
    assert _results(out, mode="wand") == _results(idx_fresh, mode="wand")
    from distributed_text_search_ray.pipelines.build import read_index_meta

    mc, mfm = read_index_meta(out), read_index_meta(idx_fresh)
    assert (mc["N"], mc["total_tokens"]) == (mfm["N"], mfm["total_tokens"])
    # dictionaries agree term-for-term (now-empty terms dropped)
    dc = pq.read_table(os.path.join(out, "dictionary", "dictionary.parquet"))
    df = pq.read_table(os.path.join(idx_fresh, "dictionary", "dictionary.parquet"))
    assert dc.column("term").to_pylist() == df.column("term").to_pylist()
    assert dc.column("df").to_pylist() == df.column("df").to_pylist()
    # no tombstones ride into the compacted index
    assert not os.path.exists(os.path.join(out, "deleted.parquet"))
    # filtered search works over the copied attribute sidecars
    from distributed_text_search_ray.pipelines.search import search_topk_filtered

    f_c = search_topk_filtered(out, QUERIES, "lang", "py", topk=5).take_all()
    f_f = search_topk_filtered(idx_fresh, QUERIES, "lang", "py", topk=5).take_all()
    assert sorted(map(tuple, (r.values() for r in f_c))) == sorted(
        map(tuple, (r.values() for r in f_f))
    )


def test_compact_resumes_and_is_idempotent(compact_env):
    root, idx, _, _ = compact_env
    out = os.path.join(root, "idx_compact")
    before = _results(out)
    rep = compact_index(idx, out)
    assert rep.get("skipped") is True
    # destroy one partition + meta: resume rebuilds only what is missing
    os.remove(os.path.join(out, "index_meta.json"))
    shutil.rmtree(os.path.join(out, "segments", "part=00001"))
    rep = compact_index(idx, out)
    assert rep["complete"]
    assert rep["phases"]["segments"]["built"] == 1
    assert rep["phases"]["segments"]["skipped"] == CFG.num_partitions - 1
    assert _results(out) == before


def test_compact_without_tombstones_is_identity(code_corpus, tmp_path):
    corpus_dir, _ = code_corpus
    idx = str(tmp_path / "idx")
    build_index(corpus_dir, idx, CFG)
    out = str(tmp_path / "idx_c")
    rep = compact_index(idx, out)
    assert rep["complete"] and rep["phases"]["stats"]["n_found"] == 0
    assert _results(out) == _results(idx)


def test_compact_positional_index_phrase_parity(code_corpus, tmp_path):
    from distributed_text_search_ray.pipelines.phrase import phrase_search_positional

    corpus_dir, _ = code_corpus
    docs = corpus_docs(corpus_dir)
    deleted = sorted(d for d, _ in docs if d % 4 == 1)
    cfg = IndexConfig(num_partitions=4, store_positions=True)
    idx = str(tmp_path / "idxp")
    build_index(corpus_dir, idx, cfg)
    delete_docs(idx, deleted)
    out = str(tmp_path / "idxp_c")
    compact_index(idx, out)
    phrases = [(0, "def tokenize"), (1, "import data")]
    # tombstone-filtered view of the original == compacted rewrite
    a = sorted(
        tuple(r.values()) for r in phrase_search_positional(idx, phrases).take_all()
    )
    b = sorted(
        tuple(r.values()) for r in phrase_search_positional(out, phrases).take_all()
    )
    assert a == b


def _add_block_columns(index_dir):
    """Give every terms.parquet the five per-block list columns that
    segments carried before they stopped writing block metadata (one
    entry per ``block_size`` postings of each term)."""
    import numpy as np
    import pyarrow as pa

    seg_root = os.path.join(index_dir, "segments")
    for part in sorted(os.listdir(seg_root)):
        path = os.path.join(seg_root, part, "terms.parquet")
        t = pq.read_table(path)
        B = int(t.schema.metadata[b"block_size"])
        n = (t.column("df").to_numpy() + B - 1) // B
        offsets = pa.array(np.concatenate(([0], np.cumsum(n))), pa.int32())
        for name, typ in (
            ("block_max", pa.float64()),
            ("block_last", pa.int64()),
            ("block_doc_off", pa.int64()),
            ("block_tf_off", pa.int64()),
            ("block_dl_off", pa.int64()),
        ):
            values = pa.array(np.arange(n.sum()), pa.int64()).cast(typ)
            t = t.append_column(name, pa.ListArray.from_arrays(offsets, values))
        pq.write_table(t, path)
    return seg_root


def test_index_with_block_columns_reads_verifies_and_compacts(code_corpus, tmp_path):
    """Indexes built while segments still wrote block metadata keep
    working: identical search rows, a clean fsck, and a compaction."""
    from distributed_text_search_ray.pipelines.merge import verify_index

    corpus_dir, _ = code_corpus
    fresh = str(tmp_path / "fresh")
    build_index(corpus_dir, fresh, CFG)
    old = str(tmp_path / "old")
    shutil.copytree(fresh, old)
    seg_root = _add_block_columns(old)
    assert "block_max" in pq.read_schema(
        os.path.join(seg_root, "part=00000", "terms.parquet")
    ).names
    for mode in ("taat", "wand"):
        assert _results(old, mode) == _results(fresh, mode)
    rep = verify_index(old, deep=True)
    assert rep["ok"] and rep["errors"] == []
    out = str(tmp_path / "old_c")
    assert compact_index(old, out)["complete"]
    assert _results(out) == _results(fresh)
    names = pq.read_schema(os.path.join(out, "segments", "part=00000", "terms.parquet")).names
    assert not [c for c in names if c.startswith("block_")]


def test_segment_reader_does_not_load_block_columns(code_corpus, tmp_path):
    """A reader over a segment that still carries the block_* list columns
    holds the same terms table as one over the fresh segment (its
    ``block_size`` metadata included): the block lists stay on disk."""
    from distributed_text_search_ray.state.segment import SegmentReader

    corpus_dir, _ = code_corpus
    fresh = str(tmp_path / "fresh")
    build_index(corpus_dir, fresh, CFG)
    old = str(tmp_path / "old")
    shutil.copytree(fresh, old)
    seg_root = _add_block_columns(old)
    for part in sorted(os.listdir(seg_root)):
        assert "block_max" in pq.read_schema(os.path.join(seg_root, part, "terms.parquet")).names
        got = SegmentReader(os.path.join(seg_root, part))
        want = SegmentReader(os.path.join(fresh, "segments", part))
        assert got.terms_table.equals(want.terms_table, check_metadata=True)
        assert got.block_size == want.block_size
