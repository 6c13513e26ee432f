"""Cross-index segment merge: merged == from-scratch build over the union."""

import os
import shutil

import pytest

from distributed_text_search_ray.config import IndexConfig
from distributed_text_search_ray.pipelines.build import build_index
from distributed_text_search_ray.pipelines.merge import merge_indexes
from distributed_text_search_ray.pipelines.search import search_topk
from distributed_text_search_ray.sources.corpus import corpus_files

QUERIES = [(0, "def return value"), (1, "import"), (2, "zz_missing")]
CFG = IndexConfig(num_partitions=4, attribute_columns=("lang",))


@pytest.fixture(scope="module")
def split_corpora(code_corpus, tmp_path_factory):
    corpus_dir, _ = code_corpus
    root = tmp_path_factory.mktemp("merge")
    files = corpus_files(corpus_dir)
    assert len(files) >= 4
    half_a, half_b = str(root / "corpus_a"), str(root / "corpus_b")
    os.makedirs(half_a), os.makedirs(half_b)
    for i, f in enumerate(files):
        shutil.copyfile(
            f, os.path.join(half_a if i % 2 == 0 else half_b, os.path.basename(f))
        )
    return corpus_dir, half_a, half_b, str(root)


def _results(index_dir):
    rows = search_topk(index_dir, QUERIES, topk=10, mode="taat").take_all()
    return sorted(tuple(r.values()) for r in rows)


def _segment_bytes(index_dir):
    root = os.path.join(index_dir, "segments")
    return {
        os.path.relpath(os.path.join(d, f), root): open(os.path.join(d, f), "rb").read()
        for d, _, files in os.walk(root)
        for f in files
        if f != "MANIFEST.json"
    }


def test_merged_index_equals_full_build(split_corpora):
    full_corpus, half_a, half_b, root = split_corpora
    idx_a, idx_b = os.path.join(root, "idx_a"), os.path.join(root, "idx_b")
    idx_full, idx_m = os.path.join(root, "idx_full"), os.path.join(root, "idx_m")
    build_index(half_a, idx_a, CFG)
    build_index(half_b, idx_b, CFG)
    build_index(full_corpus, idx_full, CFG)
    rep = merge_indexes([idx_a, idx_b], idx_m)
    assert rep["complete"] and rep["N"] > 0
    # rank- AND score-identical to the from-scratch union build
    assert _results(idx_m) == _results(idx_full)
    # merged global stats equal the full build's
    from distributed_text_search_ray.pipelines.build import read_index_meta

    mm, mf_ = read_index_meta(idx_m), read_index_meta(idx_full)
    assert (mm["N"], mm["total_tokens"]) == (mf_["N"], mf_["total_tokens"])
    # and byte-identical segments: every non-manifest file under segments/
    got, want = _segment_bytes(idx_m), _segment_bytes(idx_full)
    assert len(want) == 4 * CFG.num_partitions
    assert got.keys() == want.keys()
    assert [f for f in want if got[f] != want[f]] == []
    # attribute sidecar rides along: filtered search works on the merge
    from distributed_text_search_ray.pipelines.search import search_topk_filtered

    f_m = search_topk_filtered(idx_m, QUERIES, "lang", "py", topk=5).take_all()
    f_full = search_topk_filtered(idx_full, QUERIES, "lang", "py", topk=5).take_all()
    assert sorted(map(tuple, (r.values() for r in f_m))) == sorted(
        map(tuple, (r.values() for r in f_full))
    )


def test_merge_partial_resume_rebuilds_only_missing(split_corpora):
    """A merge killed mid-way (simulated: one finished partition destroyed,
    meta removed) resumes by rebuilding ONLY the missing partition."""
    import json

    _full, _a, _b, root = split_corpora
    idx_m = os.path.join(root, "idx_m")
    meta_path = os.path.join(idx_m, "index_meta.json")
    assert os.path.exists(meta_path)
    before = _results(idx_m)
    os.remove(meta_path)
    shutil.rmtree(os.path.join(idx_m, "segments", "part=00002"))
    rep = merge_indexes(
        [os.path.join(root, "idx_a"), os.path.join(root, "idx_b")], idx_m
    )
    assert rep["phases"]["segments"]["built"] == 1
    assert rep["phases"]["segments"]["skipped"] == CFG.num_partitions - 1
    assert _results(idx_m) == before  # identical index contents after resume


def test_merge_resumes_and_validates(split_corpora):
    _full, half_a, half_b, root = split_corpora
    idx_a, idx_b = os.path.join(root, "idx_a"), os.path.join(root, "idx_b")
    idx_m = os.path.join(root, "idx_m")
    # rerun: whole merge skips via the meta fingerprint
    rep = merge_indexes([idx_a, idx_b], idx_m)
    assert rep.get("skipped")
    # overlapping doc sets abort
    with pytest.raises(Exception, match="disjoint|overlapping"):
        merge_indexes([idx_a, idx_a], os.path.join(root, "idx_dup"))
    # config mismatch aborts
    idx_other = os.path.join(root, "idx_other_cfg")
    build_index(half_b, idx_other, IndexConfig(num_partitions=2))
    with pytest.raises(ValueError, match="configs differ"):
        merge_indexes([idx_a, idx_other], os.path.join(root, "idx_bad"))


def test_extend_index_equals_full_build(split_corpora, tmp_path):
    """Incremental growth: extend(base over half_a, half_b) is rank- AND
    score-identical to the from-scratch union build, without re-tokenizing
    half_a (its shard manifests stay untouched)."""
    from distributed_text_search_ray.pipelines.merge import extend_index

    full_corpus, half_a, half_b, root = split_corpora
    idx_base = os.path.join(str(tmp_path), "idx_base")
    idx_full = os.path.join(root, "idx_full")  # built by the merge test or here
    idx_ext = os.path.join(str(tmp_path), "idx_ext")
    build_index(half_a, idx_base, CFG)
    if not os.path.exists(os.path.join(idx_full, "index_meta.json")):
        build_index(full_corpus, idx_full, CFG)
    before = os.stat(os.path.join(idx_base, "index_meta.json")).st_mtime_ns
    rep = extend_index(idx_base, half_b, idx_ext)
    assert rep["complete"]
    assert _results(idx_ext) == _results(idx_full)
    # the base index was read, never rebuilt
    assert os.stat(os.path.join(idx_base, "index_meta.json")).st_mtime_ns == before
    # re-adding the SAME documents aborts loudly (doc-id disjointness)
    with pytest.raises(Exception, match="disjoint|more than"):
        extend_index(idx_ext, half_b, os.path.join(str(tmp_path), "idx_dup"))


def test_extend_index_chains(split_corpora, tmp_path):
    """extend can be applied repeatedly: base(quarter) -> +quarter ->
    +half equals the full build (each extend only tokenizes its delta)."""
    from distributed_text_search_ray.pipelines.merge import extend_index
    from distributed_text_search_ray.sources.corpus import corpus_files

    full_corpus, half_a, half_b, root = split_corpora
    # split half_a into two quarters
    qa, qb = str(tmp_path / "qa"), str(tmp_path / "qb")
    os.makedirs(qa), os.makedirs(qb)
    files = corpus_files(half_a)
    for i, f in enumerate(files):
        shutil.copyfile(f, os.path.join(qa if i % 2 == 0 else qb, os.path.basename(f)))
    idx1 = os.path.join(str(tmp_path), "i1")
    idx2 = os.path.join(str(tmp_path), "i2")
    idx3 = os.path.join(str(tmp_path), "i3")
    idx_full = os.path.join(root, "idx_full")
    build_index(qa, idx1, CFG)
    if not os.path.exists(os.path.join(idx_full, "index_meta.json")):
        build_index(full_corpus, idx_full, CFG)
    extend_index(idx1, qb, idx2)
    rep = extend_index(idx2, half_b, idx3)
    assert rep["complete"]
    assert _results(idx3) == _results(idx_full)


def test_positional_merge_equals_full_build(tmp_path):
    """Merging two positional (v4) half-indexes preserves the pos stream:
    phrase and proximity answers equal a fresh positional build over the
    union corpus, and BM25 stays rank/score-identical."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_text_search_ray import IndexConfig
    from distributed_text_search_ray.pipelines.build import build_index
    from distributed_text_search_ray.pipelines.merge import merge_indexes
    from distributed_text_search_ray.pipelines.phrase import (
        phrase_search_positional,
        proximity_search,
    )
    from distributed_text_search_ray.pipelines.search import search_topk

    texts_a = ["alpha beta gamma beta alpha", "beta delta alpha beta"]
    texts_b = ["alpha beta epsilon", "gamma gamma alpha beta alpha beta"]

    def corpus(d, texts, tag):
        d.mkdir()
        pq.write_table(
            pa.table(
                {
                    "repo": [tag] * len(texts),
                    "path": [f"{i}.py" for i in range(len(texts))],
                    "commit": ["c"] * len(texts),
                    "lang": ["py"] * len(texts),
                    "content": texts,
                }
            ),
            str(d / "shard_00000.parquet"),
        )
        return str(d)

    ca = corpus(tmp_path / "ca", texts_a, "a")
    cb = corpus(tmp_path / "cb", texts_b, "b")
    cu = corpus(tmp_path / "cu", [], "u")  # union corpus dir for full build
    import shutil

    shutil.copy(f"{ca}/shard_00000.parquet", f"{cu}/shard_00000.parquet")
    shutil.copy(f"{cb}/shard_00000.parquet", f"{cu}/shard_00001.parquet")

    cfg = IndexConfig(num_partitions=2, store_positions=True)
    ia, ib = str(tmp_path / "ia"), str(tmp_path / "ib")
    build_index(ca, ia, cfg)
    build_index(cb, ib, cfg)
    merged = str(tmp_path / "merged")
    merge_indexes([ia, ib], merged)
    full = str(tmp_path / "full")
    build_index(cu, full, cfg)

    phrases = [(0, "alpha beta"), (1, "beta alpha"), (2, "gamma gamma alpha")]
    got = sorted(
        (r["query_id"], r["doc_id"], r["n_occurrences"])
        for r in phrase_search_positional(merged, phrases).take_all()
    )
    want = sorted(
        (r["query_id"], r["doc_id"], r["n_occurrences"])
        for r in phrase_search_positional(full, phrases).take_all()
    )
    assert got == want and len(got) > 0

    prox_got = sorted(
        (r["query_id"], r["doc_id"])
        for r in proximity_search(merged, [(0, "alpha delta")], max_span=4).take_all()
    )
    prox_want = sorted(
        (r["query_id"], r["doc_id"])
        for r in proximity_search(full, [(0, "alpha delta")], max_span=4).take_all()
    )
    assert prox_got == prox_want

    bm_got = sorted(
        (r["query_id"], r["rank"], r["doc_id"], r["score"])
        for r in search_topk(merged, [(0, "alpha beta")], topk=5).take_all()
    )
    bm_want = sorted(
        (r["query_id"], r["rank"], r["doc_id"], r["score"])
        for r in search_topk(full, [(0, "alpha beta")], topk=5).take_all()
    )
    assert bm_got == bm_want


def test_positional_extend_equals_full_build(tmp_path):
    """extend_index on a positional base inherits positional merge: phrase
    answers over the extended index equal a fresh full positional build."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import shutil

    from distributed_text_search_ray import IndexConfig
    from distributed_text_search_ray.pipelines.build import build_index
    from distributed_text_search_ray.pipelines.merge import extend_index
    from distributed_text_search_ray.pipelines.phrase import phrase_search_positional

    def corpus(d, texts, tag):
        d.mkdir()
        pq.write_table(
            pa.table(
                {
                    "repo": [tag] * len(texts),
                    "path": [f"{i}.py" for i in range(len(texts))],
                    "commit": ["c"] * len(texts),
                    "lang": ["py"] * len(texts),
                    "content": texts,
                }
            ),
            str(d / "shard_00000.parquet"),
        )
        return str(d)

    base_c = corpus(tmp_path / "base", ["alpha beta gamma", "beta alpha beta alpha"], "a")
    new_c = corpus(tmp_path / "new", ["alpha beta epsilon alpha beta"], "b")
    cfg = IndexConfig(num_partitions=2, store_positions=True)
    base_i = str(tmp_path / "bi")
    build_index(base_c, base_i, cfg)
    ext = str(tmp_path / "ext")
    extend_index(base_i, new_c, ext)

    union = tmp_path / "union"
    union.mkdir()
    shutil.copy(f"{base_c}/shard_00000.parquet", str(union / "shard_00000.parquet"))
    shutil.copy(f"{new_c}/shard_00000.parquet", str(union / "shard_00001.parquet"))
    full = str(tmp_path / "full")
    build_index(str(union), full, cfg)

    phrases = [(0, "alpha beta")]
    got = sorted(
        (r["doc_id"], r["n_occurrences"])
        for r in phrase_search_positional(ext, phrases).take_all()
    )
    want = sorted(
        (r["doc_id"], r["n_occurrences"])
        for r in phrase_search_positional(full, phrases).take_all()
    )
    assert got == want and len(got) == 3
