"""Dirichlet query-likelihood ranking: engine vs scalar oracle.

Same differential strategy as the BM25 suite (reference
src/test_generation.py:164-179 applied to the new scorer): build the index
with Ray, score with the QLTopkExecutor task stage, assert rank- and
score-identical (bit-exact float64) results against an independent scalar
re-derivation.
"""

import math

import pytest

from distributed_text_search_ray import IndexConfig
from distributed_text_search_ray.functions.tokenize import Tokenizer
from distributed_text_search_ray.oracle import build_oracle_index, ql_scores, topk
from distributed_text_search_ray.pipelines.build import build_index
from distributed_text_search_ray.pipelines.search import search_topk_ql
from tests.conftest import corpus_docs

QUERIES = [
    (0, "def tokenize"),
    (1, "import data index"),
    (2, "merge"),
    (3, "zzz_not_a_term"),  # no corpus-present terms -> no rows
    (4, "self self self query"),  # duplicate terms dedup to one
    (5, "def"),  # pure hot (salted) term
    (6, "score zzz_unknown count"),  # unknown term skipped, not ln(0)
]

CFG = IndexConfig(num_partitions=8, salt_buckets=3, salt_df_threshold=0.25)


@pytest.fixture(scope="module")
def ql_index(code_corpus, tmp_path_factory):
    corpus_dir, _ = code_corpus
    index_dir = str(tmp_path_factory.mktemp("qlidx") / "idx")
    build_index(corpus_dir, index_dir, CFG)
    return corpus_dir, index_dir


def _oracle_rows(corpus_dir, queries, k, mu=2000.0):
    docs = corpus_docs(corpus_dir)
    idx = build_oracle_index(docs, CFG.analyzer)
    tk = Tokenizer(CFG.analyzer)
    out = {}
    for qid, qtext in queries:
        scores = ql_scores(idx, tk.tokens(qtext), mu=mu)
        out[qid] = topk(scores, k)
    return out


def test_ql_topk_matches_oracle(ql_index):
    # ranks and doc ids exact; scores to 1e-9 relative (np.log vs math.log
    # differ in the last ULP) AND exactly equal at the production 6-dp
    # rounding contract
    corpus_dir, index_dir = ql_index
    got = search_topk_ql(index_dir, QUERIES, topk=10).take_all()
    want = _oracle_rows(corpus_dir, QUERIES, 10)
    by_q = {}
    for r in got:
        by_q.setdefault(r["query_id"], []).append((r["rank"], r["doc_id"], r["score"]))
    for qid in by_q:
        by_q[qid].sort()
    assert set(by_q) == {qid for qid, rows in want.items() if rows}
    for qid, rows in want.items():
        mine = by_q.get(qid, [])
        assert [(r, d) for r, d, _ in mine] == [(r, d) for r, d, _ in rows], f"query {qid}"
        for (_, _, s_got), (_, _, s_want) in zip(mine, rows):
            assert s_got == pytest.approx(s_want, rel=1e-9)
            assert round(s_got, 6) == round(s_want, 6)


def test_ql_scores_are_negative_log_probs(ql_index):
    corpus_dir, index_dir = ql_index
    got = search_topk_ql(index_dir, [(0, "def tokenize")], topk=10).take_all()
    assert got and all(r["score"] < 0.0 for r in got)


def test_ql_mu_changes_ranking_smoothly(ql_index):
    # sanity: a different prior yields valid (still oracle-exact) results
    corpus_dir, index_dir = ql_index
    got = search_topk_ql(index_dir, QUERIES[:3], topk=5, mu=500.0).take_all()
    want = _oracle_rows(corpus_dir, QUERIES[:3], 5, mu=500.0)
    by_q = {}
    for r in got:
        by_q.setdefault(r["query_id"], []).append((r["rank"], r["doc_id"], r["score"]))
    for qid in by_q:
        by_q[qid].sort()
    for qid, rows in want.items():
        mine = by_q.get(qid, [])
        assert [(r, d) for r, d, _ in mine] == [(r, d) for r, d, _ in rows]
        for (_, _, s_got), (_, _, s_want) in zip(mine, rows):
            assert s_got == pytest.approx(s_want, rel=1e-9)


def test_ql_respects_tombstones(ql_index, tmp_path):
    # deleting the top doc removes it from candidates; background stats
    # (cf, total_tokens) stay at build-time values (the stale-stats
    # contract shared with BM25)
    import shutil

    from distributed_text_search_ray.pipelines.build import delete_docs

    corpus_dir, index_dir = ql_index
    idx2 = str(tmp_path / "idx2")
    shutil.copytree(index_dir, idx2)
    top = search_topk_ql(idx2, [(0, "def tokenize")], topk=1).take_all()
    victim = top[0]["doc_id"]
    delete_docs(idx2, [victim])
    after = search_topk_ql(idx2, [(0, "def tokenize")], topk=10).take_all()
    assert victim not in {r["doc_id"] for r in after}
