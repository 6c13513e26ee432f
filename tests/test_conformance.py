"""Conformance corners: fuzzy top-k vs oracle, the documented straddle
difference (SURVEY.md section 8.3), and a real kill -9 mid-build resume."""

import os
import signal
import subprocess
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq

from distributed_text_search_ray import IndexConfig
from distributed_text_search_ray.functions.lev import windowed_match_count
from distributed_text_search_ray.oracle import oracle_fuzzy_topk, oracle_windowed_counts
from distributed_text_search_ray.pipelines.apm import windowed_match_counts
from distributed_text_search_ray.pipelines.build import build_index
from distributed_text_search_ray.pipelines.search import fuzzy_search_topk, search_topk
from tests.conftest import corpus_docs


def test_fuzzy_topk_matches_oracle(code_corpus, tmp_path):
    corpus_dir, _ = code_corpus
    index_dir = str(tmp_path / "idx")
    cfg = IndexConfig(num_partitions=8, salt_buckets=3)
    build_index(corpus_dir, index_dir, cfg)
    docs = corpus_docs(corpus_dir)
    patterns = [(0, "def", 1), (1, "merg", 1), (2, "tokn", 2), (3, "zzzzz", 0)]
    expected = oracle_fuzzy_topk(docs, patterns, k=10, cfg=cfg)
    got = fuzzy_search_topk(index_dir, patterns, topk=10).take_all()
    got_rows = sorted((r["query_id"], r["rank"], r["doc_id"], r["score"]) for r in got)
    assert got_rows == sorted(expected)


def test_straddle_semantics_documented(tmp_path):
    """SURVEY.md 8.3: the reference concatenates shard files, so windows can
    cross file boundaries; our model is per-document. This fixture pins the
    intended difference: a pattern straddling two docs is counted by the
    concatenation semantics but NOT by ours."""
    doc_a = "XXXXXABCAB"   # ends with ABCAB
    doc_b = "CABCAYYYYY"   # starts with CABCA
    pattern = "ABCABCABCA"  # spans the boundary of a+b only
    # concatenation semantics (reference): one full-window hit at the boundary
    concat_hits = windowed_match_count(doc_a + doc_b, pattern, 0)
    assert concat_hits == 1
    # per-document semantics (ours + our oracle): the boundary hit is lost but
    # doc_a's truncated tails ("ABCAB" at j=5, "AB" at j=8) match instead
    per_doc = dict(oracle_windowed_counts([(0, doc_a), (1, doc_b)], [(0, pattern, 0)]))[0]
    assert per_doc == 2
    assert per_doc != concat_hits  # the documented divergence
    # and the distributed operator implements the per-document semantics
    import ray.data

    ds = ray.data.from_arrow(
        pa.table({"content": pa.array([doc_a, doc_b], type=pa.string())})
    )
    got = windowed_match_counts(ds, [(0, pattern, 0)]).take_all()
    assert got[0]["n_matches"] == per_doc


def test_concat_mode_matches_reference_semantics():
    """Opt-in concat mode = the reference's exact corpus model (one
    concatenated buffer, windows straddle file boundaries, apm1.c:229-232).
    Oracle: the sequential scorer over the joined text. Multi-file DNA
    fixture shaped like the reference's dna/large runs."""
    import numpy as np
    import ray.data

    from distributed_text_search_ray.sources.synth import dna_shard

    texts = [
        "".join(dna_shard(s, 1, 3000, seed=21).column("content").to_pylist())
        for s in range(4)
    ]
    rng = np.random.default_rng(5)
    joined = "".join(texts)
    bounds = np.cumsum([len(t) for t in texts])[:-1]  # file-boundary offsets
    pats = []
    for i in range(6):
        # half the patterns are real substrings straddling a file boundary
        if i % 2 == 0:
            b = int(bounds[i // 2])
            pats.append((i, joined[b - 5 : b + 5], int(rng.integers(0, 3))))
        else:
            letters = list("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
            pats.append((i, "".join(rng.choice(letters, 9)), int(rng.integers(0, 3))))
    ds = ray.data.from_arrow(pa.table({"content": pa.array(texts, type=pa.string())}))
    got = {
        r["query_id"]: r["n_matches"]
        for r in windowed_match_counts(ds, pats, concat=True).take_all()
    }
    want = {q: windowed_match_count(joined, p, k) for q, p, k in pats}
    assert got == want
    # and concat counts the straddle hits the per-document mode cannot
    per_doc = {
        r["query_id"]: r["n_matches"]
        for r in windowed_match_counts(ds, pats).take_all()
    }
    assert any(got[q] != per_doc[q] for q, _, _ in pats)


def test_concat_mode_medium_corpus_few_patterns():
    """Regression: concat mode must pick the broadcast plan even when the
    corpus is over the interactive-size gate and the pattern set is small
    (a plan-selection change once routed this shape to the streaming plan,
    which cannot express concat)."""
    import numpy as np
    import ray.data

    rng = np.random.default_rng(8)
    letters = np.array(list("ABCD"))
    texts = ["".join(rng.choice(letters, 50_000)) for _ in range(30)]  # ~1.5 MB
    pats = [(0, "ABCAB", 1), (1, "DDDD", 0)]
    ds = ray.data.from_arrow(pa.table({"content": pa.array(texts, type=pa.string())}))
    got = {
        r["query_id"]: r["n_matches"]
        for r in windowed_match_counts(ds, pats, concat=True).take_all()
    }
    joined = "".join(texts)
    want = {q: windowed_match_count(joined, p, k) for q, p, k in pats}
    assert got == want


def test_concat_streaming_plan_equals_broadcast():
    """The >256MB streaming concat plan (ordered block refs + neighbor-halo
    stitching) must agree with the broadcast tile plan on a multi-block
    corpus with empty docs mixed in."""
    import numpy as np
    import ray.data

    from distributed_text_search_ray.pipelines import apm

    rng = np.random.default_rng(4)
    letters = list("ABCD")
    texts = ["".join(rng.choice(letters, int(rng.integers(1, 4000)))) for _ in range(40)]
    texts.insert(7, "")
    pats = [
        (i, "".join(rng.choice(letters, int(rng.integers(1, 12)))), int(rng.integers(0, 5)))
        for i in range(9)
    ]
    ds = ray.data.from_arrow(
        pa.table({"content": pa.array(texts, type=pa.string())})
    ).repartition(7)
    b = {
        r["query_id"]: r["n_matches"]
        for r in windowed_match_counts(ds, pats, concat=True).take_all()
    }
    s = {
        r["query_id"]: r["n_matches"]
        for r in apm._concat_streaming(
            ds, [(int(q), p, int(k)) for q, p, k in pats], "content"
        ).take_all()
    }
    assert b == s


def test_tail_windows_before_a_short_last_segment_count():
    """Truncated tail windows that start before the last window segment
    (tiled plan: a doc 2 chars past a segment boundary) or the last block
    (streaming concat plan: a 2-char last block) still count."""
    import numpy as np
    import ray.data

    from distributed_text_search_ray.pipelines import apm

    text = "".join(np.random.default_rng(3).choice(list("AB"), 16384 + 2))
    pats = [(0, text[-8:], 0), (1, "ABABABAB", 2)]
    ds = ray.data.from_arrow(pa.table({"content": [text]}))
    got = {r["query_id"]: r["n_matches"] for r in windowed_match_counts(ds, pats).take_all()}
    assert got == {q: windowed_match_count(text, p, k) for q, p, k in pats}
    blocks = ray.data.from_arrow([pa.table({"content": [text]}), pa.table({"content": ["AB"]})])
    rows = apm._concat_streaming(blocks, pats, "content").take_all()
    got = {r["query_id"]: r["n_matches"] for r in rows}
    assert got == {q: windowed_match_count(text + "AB", p, k) for q, p, k in pats}


def test_concat_mode_joins_a_lazy_read_in_file_order(tmp_path):
    """Concat mode over a lazy multi-file read joins the documents in
    dataset (file, row) order on every run, in both plans — not in the order
    Ray Data's read tasks happen to finish."""
    import numpy as np

    rng = np.random.default_rng(11)
    texts = []
    for f in range(8):
        # uneven files, so read tasks finish out of order
        chunk = [
            "".join(rng.choice(list("ACGT"), int(rng.integers(50, 400))))
            for _ in range(1 + 3 * (f % 3))
        ]
        ids = pa.array(range(len(texts), len(texts) + len(chunk)), pa.int64())
        pq.write_table(
            pa.table({"doc_id": ids, "content": chunk}), str(tmp_path / f"part-{f:02d}.parquet")
        )
        texts += chunk
    joined = "".join(texts)
    bounds = np.cumsum([len(t) for t in texts])[:-1]
    pats = [(i, joined[b - 4 : b + 4], i % 2) for i, b in enumerate(bounds[::3])]
    want = {q: windowed_match_count(joined, p, k) for q, p, k in pats}
    for plan in ("broadcast", "stream"):
        for _ in range(5):
            got = windowed_match_counts(str(tmp_path), pats, concat=True, plan=plan).take_all()
            assert {r["query_id"]: r["n_matches"] for r in got} == want


def test_broadcast_plan_packs_short_documents_into_one_wave(monkeypatch):
    """Many short documents (empty and shorter-than-pattern ones among
    them) plus one long multi-segment document: the broadcast plan deals
    their segments into at most one task per CPU and counts exactly what
    the stream plan and the per-window reference count, with and without
    ``concat``."""
    import numpy as np
    import ray
    import ray.data

    from distributed_text_search_ray.pipelines import apm

    rng = np.random.default_rng(21)
    letters = np.array(list("ABCD"))
    texts = ["".join(rng.choice(letters, int(rng.integers(0, 40)))) for _ in range(400)]
    texts[7] = "".join(rng.choice(letters, 40_000))
    pats = [(0, "ABCA", 0), (1, "DCBA", 1), (2, "ABCDAB", 2), (3, "A", 0), (4, "ABCA", 0)]
    ds = ray.data.from_arrow(pa.table({"content": pa.array(texts, pa.string())})).materialize()
    tasks = []
    remote = apm._scan_tile.remote

    class Counting:
        @staticmethod
        def remote(*args):
            tasks.append(args[2])
            return remote(*args)

    monkeypatch.setattr(apm, "_scan_tile", Counting)
    joined = "".join(texts)
    for concat in (False, True):
        if concat:
            want = {q: windowed_match_count(joined, p, k) for q, p, k in pats}
        else:
            want = {q: sum(windowed_match_count(t, p, k) for t in texts) for q, p, k in pats}
        for plan in ("broadcast", "stream"):
            tasks.clear()
            got = windowed_match_counts(ds, pats, concat=concat, plan=plan).take_all()
            assert {r["query_id"]: r["n_matches"] for r in got} == want
            if plan == "broadcast":
                ncpu = int(ray.cluster_resources()["CPU"])
                assert 0 < len(tasks) <= ncpu
                n_segs = 1 + (len(joined) - 1) // 16384 if concat else 400 - 1 + 3
                assert sum(len(t) for t in tasks) == n_segs


_KILL_SCRIPT = """
import sys, os
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from distributed_text_search_ray import IndexConfig
from distributed_text_search_ray.pipelines.build import build_index
build_index({corpus!r}, {index!r}, IndexConfig(num_partitions=6, salt_buckets=2))
print("BUILD_DONE", flush=True)
"""


def test_kill9_mid_build_resumes(tmp_path):
    """Start a build in a subprocess, SIGKILL it mid-flight, rerun: completed
    shards/partitions are skipped (lineage manifests) and results match a
    clean build."""
    from distributed_text_search_ray.sources.synth import write_corpus

    corpus = str(tmp_path / "c")
    write_corpus(corpus, n_shards=8, docs_per_shard=250, seed=21)
    index_dir = str(tmp_path / "idx")
    script = _KILL_SCRIPT.format(repo="/root/repo", corpus=corpus, index=index_dir)
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)  # subprocess owns its own local session
    proc = subprocess.Popen(
        [sys.executable, "-c", script], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    # wait until some shard manifests exist, then kill -9
    man_dir = os.path.join(index_dir, "pairs", "manifests")
    deadline = time.time() + 120
    while time.time() < deadline:
        if os.path.isdir(man_dir) and len(os.listdir(man_dir)) >= 2:
            break
        if proc.poll() is not None:
            break  # finished before we could kill — still a valid (noop) test
        time.sleep(0.2)
    killed = proc.poll() is None
    if killed:
        proc.send_signal(signal.SIGKILL)
    proc.wait()

    # resume in-process (the session fixture's Ray)
    report = build_index(corpus, index_dir, IndexConfig(num_partitions=6, salt_buckets=2))
    assert report["complete"]
    if killed:
        assert report["phases"]["tokenize"]["skipped"] >= 2  # manifests survived

    # resumed index answers identically to a from-scratch build
    clean_dir = str(tmp_path / "idx_clean")
    build_index(corpus, clean_dir, IndexConfig(num_partitions=6, salt_buckets=2))
    queries = [(0, "def data"), (1, "merge index value")]
    a = sorted(map(tuple, (r.values() for r in search_topk(index_dir, queries).take_all())))
    b = sorted(map(tuple, (r.values() for r in search_topk(clean_dir, queries).take_all())))
    assert a == b


def test_dna_scenario_grid_matches_oracle(tmp_path):
    """Seeded randomized differential grid mirroring the reference's diverse
    scenario sweep (test_generation.py:70-93): DNA-profile corpora, pattern
    lengths {1, 10, 20, 100}, k in {0, 1, 4}, truncated patterns included."""
    import numpy as np

    from distributed_text_search_ray.pipelines.apm import windowed_match_counts
    from distributed_text_search_ray.sources.synth import write_corpus
    from tests.conftest import corpus_docs

    corpus = tmp_path / "dna"
    write_corpus(str(corpus), n_shards=2, docs_per_shard=10, profile="dna",
                 doc_len=2_000, seed=9)
    docs = corpus_docs(str(corpus))
    rng = np.random.default_rng(17)
    letters = list("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
    patterns = []
    qid = 0
    for plen in (1, 10, 20, 100):
        for k in (0, 1, 4):
            # random pattern + a pattern sampled from a real doc (guaranteed hits)
            rand_p = "".join(rng.choice(letters, plen))
            src = docs[int(rng.integers(len(docs)))][1]
            if len(src) > plen:
                j = int(rng.integers(0, len(src) - plen))
                real_p = src[j : j + plen]
            else:
                real_p = src
            patterns.append((qid, rand_p, k)); qid += 1
            patterns.append((qid, real_p, k)); qid += 1
    expected = dict(oracle_windowed_counts(docs, patterns))
    got = {
        r["query_id"]: r["n_matches"]
        for r in windowed_match_counts(str(corpus), patterns).take_all()
    }
    assert got == expected
    # sampled-from-doc patterns with k=0 must have at least one hit
    for (qid_, p, k), _ in zip(patterns, range(len(patterns))):
        if k == 0 and expected[qid_] == 0 and p in "".join(t for _, t in docs):
            raise AssertionError("sampled pattern missing")


def test_apm_plan_override_all_plans_agree():
    """The plan knob (analog of the reference's DISTRIBUTE_PATTERNS /
    ONLY_RANK_0 env switches, flexible_mpi.c:308-313) must not change
    results: broadcast, stream and auto produce identical counts, and the
    DTS_APM_PLAN env var applies the same override."""
    import os

    import numpy as np
    import ray.data

    rng = np.random.default_rng(11)
    letters = np.array(list("ABCDE"))
    texts = ["".join(rng.choice(letters, 400)) for _ in range(6)]
    pats = [(i, "".join(rng.choice(letters, 4)), k) for i, k in enumerate([0, 1, 2])]
    ds = ray.data.from_arrow(pa.table({"content": pa.array(texts, type=pa.string())}))

    def counts(**kw):
        return {
            r["query_id"]: r["n_matches"]
            for r in windowed_match_counts(ds, pats, **kw).take_all()
        }

    auto = counts()
    assert counts(plan="broadcast") == auto
    assert counts(plan="stream") == auto
    os.environ["DTS_APM_PLAN"] = "stream"
    try:
        assert counts() == auto
    finally:
        del os.environ["DTS_APM_PLAN"]
    try:
        windowed_match_counts(ds, pats, plan="bogus")
        assert False, "expected ValueError"
    except ValueError:
        pass
