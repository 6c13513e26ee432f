"""Pin reshard_index (ES shrink/split analog): re-partitioning a built
index to k*P or P/k partitions without re-tokenizing must be rank- AND
score-identical to the source index under every scorer, including salted
hot terms and positional (v4) segments."""

import pytest

from distributed_text_search_ray import IndexConfig
from distributed_text_search_ray.pipelines.build import build_index
from distributed_text_search_ray.pipelines.merge import reshard_index
from distributed_text_search_ray.pipelines.search import search_topk

QUERIES = [(0, "spark table join"), (1, "def tokenize"), (2, "partition"),
           (3, "the data")]


def _rows(index_dir, mode="taat"):
    rows = search_topk(index_dir, QUERIES, topk=20, mode=mode).take_all()
    return sorted(
        (r["query_id"], r["rank"], r["doc_id"], r["score"]) for r in rows
    )


@pytest.fixture(scope="module")
def salted_index(code_corpus, tmp_path_factory):
    corpus_dir, _ = code_corpus
    idx = str(tmp_path_factory.mktemp("reshard") / "idx")
    build_index(
        corpus_dir, idx,
        IndexConfig(num_partitions=4, salt_buckets=2, salt_df_threshold=0.5),
    )
    return idx


def test_split_identical(salted_index, tmp_path):
    out = str(tmp_path / "split8")
    rep = reshard_index(salted_index, out, 8)
    assert rep["mode"] == "split" and rep["num_partitions"] == 8
    assert _rows(out) == _rows(salted_index)
    assert _rows(out, mode="wand") == _rows(salted_index, mode="wand")


def test_shrink_identical(salted_index, tmp_path):
    out = str(tmp_path / "shrink2")
    rep = reshard_index(salted_index, out, 2)
    assert rep["mode"] == "shrink" and rep["num_partitions"] == 2
    assert _rows(out) == _rows(salted_index)
    assert _rows(out, mode="maxscore") == _rows(salted_index)


def test_reshard_resumes(salted_index, tmp_path):
    out = str(tmp_path / "split8r")
    reshard_index(salted_index, out, 8)
    rep2 = reshard_index(salted_index, out, 8)
    assert rep2.get("skipped") is True


@pytest.mark.parametrize("num_partitions,victim", [(8, 5), (2, 1)])
def test_reshard_partial_resume_rebuilds_only_the_owner(
    salted_index, tmp_path, num_partitions, victim
):
    """A reshard killed mid-way (one output part and the meta removed)
    resumes by rewriting only that part: split's owning parent (1 -> 1, 5)
    writes just the missing child, every other task skips, and the output
    is identical to the uninterrupted run."""
    import os
    import shutil

    out = str(tmp_path / f"reshard{num_partitions}")
    reshard_index(salted_index, out, num_partitions)
    seg_root = os.path.join(out, "segments")

    def files():
        return {
            os.path.relpath(os.path.join(d, f), seg_root): open(os.path.join(d, f), "rb").read()
            for d, _, names in os.walk(seg_root)
            for f in names
        }

    before = files()
    os.remove(os.path.join(out, "index_meta.json"))
    shutil.rmtree(os.path.join(seg_root, f"part={victim:05d}"))
    rep = reshard_index(salted_index, out, num_partitions)
    seg = rep["phases"]["segments"]
    assert (seg["built"], seg["skipped"]) == (1, num_partitions - 1)
    after = files()
    assert after.keys() == before.keys()
    rewritten = f"part={victim:05d}/MANIFEST.json"
    # untouched parts keep even their manifests (written_at included)
    assert [f for f in before if f != rewritten and after[f] != before[f]] == []
    assert _rows(out) == _rows(salted_index)


def test_reshard_rejects_bad_counts(salted_index, tmp_path):
    with pytest.raises(ValueError):
        reshard_index(salted_index, str(tmp_path / "x1"), 4)
    with pytest.raises(ValueError):
        reshard_index(salted_index, str(tmp_path / "x2"), 6)
    with pytest.raises(ValueError):
        reshard_index(salted_index, str(tmp_path / "x3"), 3)


def test_split_positional_phrase_identical(code_corpus, tmp_path):
    from distributed_text_search_ray.pipelines.phrase import (
        phrase_search_positional,
    )

    corpus_dir, _ = code_corpus
    idx = str(tmp_path / "pidx")
    build_index(
        corpus_dir, idx, IndexConfig(num_partitions=4, store_positions=True)
    )
    out = str(tmp_path / "psplit")
    reshard_index(idx, out, 8)
    phrases = [(0, "def tokenize"), (1, "spark table")]

    def prows(d):
        return sorted(
            tuple(sorted(r.items()))
            for r in phrase_search_positional(d, phrases).take_all()
        )

    assert prows(out) == prows(idx)


def test_verify_index_fsck(salted_index, tmp_path):
    """Index fsck: clean index passes (deep), a flipped byte in any stream
    and a wrong-count manifest are both caught."""
    import shutil

    from distributed_text_search_ray.pipelines.merge import verify_index

    assert verify_index(salted_index, deep=True) == {
        "ok": True, "errors": [], "parts": 4, "deep": True,
    }
    # resharded output verifies too (fingerprints rewritten consistently)
    out = str(tmp_path / "fsck_split")
    reshard_index(salted_index, out, 8)
    assert verify_index(out, deep=True)["ok"]

    bad = str(tmp_path / "bad")
    shutil.copytree(salted_index, bad)
    p = f"{bad}/segments/part=00001/tfs.bin"
    b = bytearray(open(p, "rb").read())
    b[0] ^= 0xFF
    open(p, "wb").write(bytes(b))
    rep = verify_index(bad)
    assert not rep["ok"] and any("tfs.bin checksum" in e for e in rep["errors"])


def test_cli_fsck(salted_index, capsys):
    import json as _json

    from distributed_text_search_ray.cli import main

    assert main(["fsck", salted_index, "--deep"]) == 0
    rep = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["ok"] is True and rep["deep"] is True


def test_reshard_carries_tombstones(salted_index, tmp_path):
    """Tombstoned doc ids survive a split: the resharded index serves the
    same (deleted-filtered) results as the tombstoned source."""
    import shutil

    from distributed_text_search_ray.pipelines.build import delete_docs

    src = str(tmp_path / "tomb_src")
    shutil.copytree(salted_index, src)
    victim = _rows(salted_index)[0][2]  # a top-ranked doc id
    delete_docs(src, [victim])
    out = str(tmp_path / "tomb_split")
    reshard_index(src, out, 8)
    assert _rows(out) == _rows(src)
    assert all(r[2] != victim for r in _rows(out))


def test_split_routing_lemma_fuzz():
    """The zero-shuffle split lemma, fuzzed directly (no Ray): for random
    terms, partition counts P and factors k, every probe location under P
    maps to a child of itself under kP, and the executor's new probe set
    always contains the stage's chosen target for every parent that holds
    the term."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from distributed_text_search_ray.functions.hashing import (
        stable_u64,
        term_partition,
    )

    @settings(max_examples=300, deadline=None)
    @given(
        term=st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=12
        ),
        P=st.integers(min_value=1, max_value=64),
        k=st.integers(min_value=2, max_value=8),
        buckets=st.integers(min_value=0, max_value=8),
    )
    def check(term, P, k, buckets):
        newP = P * k
        probes_old = {term_partition(term, P)} | {
            stable_u64(f"{term}#{s}") % P for s in range(buckets)
        }
        probes_new = {term_partition(term, newP)} | {
            stable_u64(f"{term}#{s}") % newP for s in range(buckets)
        }
        for q in probes_new:
            assert q % P in probes_old  # child-of-parent property
        for p in probes_old:
            mine = sorted(c for c in probes_new if c % P == p)
            assert mine  # the stage's target exists for every parent

    check()
