"""End-to-end differential tests: Ray engine vs single-node oracle.

The reference's correctness story (seeded randomized differential testing
against the sequential oracle, src/test_generation.py:164-179) applied to the
new engine: build the index with Ray, answer queries with the task-stage
executors, assert rank- AND score-identical (bit-exact float64) results.
"""

import numpy as np
import pytest

from distributed_text_search_ray import IndexConfig
from distributed_text_search_ray.oracle import (
    build_oracle_index,
    bm25_scores,
    oracle_bm25_topk,
    topk as oracle_topk,
)
from distributed_text_search_ray.pipelines.build import build_index, read_index_meta
from distributed_text_search_ray.pipelines.search import search_topk
from distributed_text_search_ray.stages.executor import IndexView, QueryExecutor
from tests.conftest import corpus_docs

QUERIES = [
    (0, "def tokenize"),
    (1, "import data index"),
    (2, "merge"),
    (3, "zzz_not_a_term"),
    (4, "self self self query"),  # duplicate terms dedup to one
    (5, "def"),  # pure hot (salted) term
    (6, "score count value table"),
]

CFG = IndexConfig(num_partitions=8, salt_buckets=3, salt_df_threshold=0.25)


@pytest.fixture(scope="module")
def built_index(code_corpus, tmp_path_factory):
    corpus_dir, _ = code_corpus
    index_dir = str(tmp_path_factory.mktemp("index") / "idx")
    report = build_index(corpus_dir, index_dir, CFG)
    return corpus_dir, index_dir, report


def test_build_report(built_index):
    corpus_dir, index_dir, report = built_index
    assert report["complete"]
    assert report["N"] == 240
    # hot terms really got salted
    assert set(report["hot_df"]) >= {"def", "import", "return", "self"}
    meta = read_index_meta(index_dir)
    assert meta["fingerprint"] == report["fingerprint"]


def test_index_stats_match_oracle(built_index):
    corpus_dir, index_dir, report = built_index
    docs = corpus_docs(corpus_dir)
    idx = build_oracle_index(docs, CFG.analyzer)
    assert report["N"] == idx.N
    assert report["avgdl"] == pytest.approx(idx.avgdl, abs=0)
    # salted-term global df is exact
    for t, df in report["hot_df"].items():
        assert df == idx.df[t]


def test_topk_matches_oracle_exactly(built_index):
    corpus_dir, index_dir, _ = built_index
    docs = corpus_docs(corpus_dir)
    expected = oracle_bm25_topk(docs, QUERIES, k=10, cfg=CFG)
    got = search_topk(index_dir, QUERIES, topk=10).take_all()
    got_rows = sorted((r["query_id"], r["rank"], r["doc_id"], r["score"]) for r in got)
    assert got_rows == sorted(expected)  # includes bit-exact float64 scores


def test_wand_and_maxscore_equal_taat(built_index):
    corpus_dir, index_dir, _ = built_index
    import pyarrow as pa

    from distributed_text_search_ray.functions.tokenize import Tokenizer
    from distributed_text_search_ray.sources.synth import make_vocab

    # fixture queries + a seeded grid of random rare/hot term mixes
    import numpy as np

    rng = np.random.default_rng(5)
    vocab = make_vocab(200, seed=7)
    extra = [
        (100 + i, " ".join(rng.choice(vocab, rng.integers(1, 5)).tolist()
                           + (["def"] if rng.random() < 0.5 else [])))
        for i in range(30)
    ]
    all_q = QUERIES + extra
    batch = pa.table(
        {
            "query_id": pa.array([q for q, _ in all_q], type=pa.int64()),
            "query": pa.array([t for _, t in all_q], type=pa.string()),
        }
    )
    ex_taat = QueryExecutor(index_dir, topk=10, mode="taat")
    want = ex_taat(batch).to_pylist()
    for mode in ("wand", "maxscore"):
        got = QueryExecutor(index_dir, topk=10, mode=mode)(batch).to_pylist()
        assert got == want, mode


def test_postings_roundtrip_and_salting(built_index):
    corpus_dir, index_dir, _ = built_index
    docs = corpus_docs(corpus_dir)
    idx = build_oracle_index(docs, CFG.analyzer)
    view = IndexView(index_dir)
    for term in ["def", "import", "merge", "data", "index"]:
        want = idx.postings.get(term, [])
        d, tf, dl, df = view.term_postings(term)
        got = sorted(zip(d.tolist(), tf.tolist()))
        assert got == sorted(want), term
        assert df == idx.df.get(term, 0)
        # dl stream agrees with oracle doc lengths
        for doc, L in zip(d.tolist(), dl.tolist()):
            assert L == idx.doc_len[doc]
    # hot term postings really live in >1 partition
    assert len(view.term_parts("def")) > 1


def test_empty_and_unknown_queries(built_index):
    _, index_dir, _ = built_index
    got = search_topk(index_dir, [(0, "zzzz qqqq"), (1, "")], topk=5).take_all()
    assert got == []


def test_driver_documents_table(tmp_path):
    """Adapter path: index the driver-shaped documents table end-to-end."""
    import pyarrow.parquet as pq

    src = "/root/testdata/sf0.001/documents.parquet"
    t = pq.read_table(src)
    # write via the adapter schema (keeps given doc_id)
    from distributed_text_search_ray.sources.corpus import adapt_documents_batch

    adapted = adapt_documents_batch(t)
    corpus = tmp_path / "docs"
    corpus.mkdir()
    pq.write_table(adapted, corpus / "part0.parquet")
    index_dir = str(tmp_path / "idx")
    cfg = IndexConfig(num_partitions=4)
    report = build_index(str(corpus), index_dir, cfg)
    assert report["N"] == t.num_rows
    docs = [(r["doc_id"], r["text"]) for r in t.to_pylist()]
    queries = [(0, "spark table join"), (1, "customer value"), (2, "window agg stream")]
    expected = oracle_bm25_topk(docs, queries, k=5, cfg=cfg)
    got = search_topk(index_dir, queries, topk=5).take_all()
    got_rows = sorted((r["query_id"], r["rank"], r["doc_id"], r["score"]) for r in got)
    assert got_rows == sorted(expected)


PREFIXES = [
    (0, "de"),       # def, delete, ... (salted hot term included)
    (1, "toke"),
    (2, "zzz"),      # matches nothing
    (3, "i"),        # wide fan-out
    (4, "de"),       # duplicate of 0 — independent
]


def test_prefix_stats_match_oracle(built_index):
    from distributed_text_search_ray.oracle import oracle_prefix_terms
    from distributed_text_search_ray.pipelines.search import prefix_term_search

    corpus_dir, index_dir, _ = built_index
    docs = corpus_docs(corpus_dir)
    expected = {
        q: (nt, nd, occ) for q, nt, nd, occ in oracle_prefix_terms(docs, PREFIXES, CFG.analyzer)
    }
    got = {
        r["query_id"]: (r["n_matching_terms"], r["n_docs"], r["n_occurrences"])
        for r in prefix_term_search(index_dir, PREFIXES).take_all()
    }
    assert got == expected
    assert got[0] == got[4]  # duplicates independent and equal
    assert got[2] == (0, 0, 0)


def test_prefix_topk_matches_oracle(built_index):
    """Rank- and score-identical (bit-exact float64) wildcard retrieval,
    including over salted hot terms."""
    from distributed_text_search_ray.oracle import oracle_prefix_topk
    from distributed_text_search_ray.pipelines.search import prefix_search_topk

    corpus_dir, index_dir, _ = built_index
    docs = corpus_docs(corpus_dir)
    expected = oracle_prefix_topk(docs, PREFIXES, k=5, cfg=CFG)
    rows = prefix_search_topk(index_dir, PREFIXES, topk=5).take_all()
    got = sorted((r["query_id"], r["rank"], r["doc_id"], r["score"]) for r in rows)
    assert got == sorted(expected)


def test_synonym_topk_matches_oracle(built_index):
    """Query-time synonym expansion == oracle BM25 over the expanded term
    union; a query whose synonym exists in the corpus must differ from the
    unexpanded ranking."""
    from distributed_text_search_ray.functions.tokenize import Tokenizer
    from distributed_text_search_ray.oracle import bm25_scores, build_oracle_index, topk
    from distributed_text_search_ray.pipelines.search import search_topk_synonyms

    corpus_dir, index_dir, _ = built_index
    docs = corpus_docs(corpus_dir)
    synonyms = {"def": ["return"], "tokenize": ["token"], "ghost": ["import"]}
    queries = [(0, "def tokenize"), (1, "merge index"), (2, "ghost")]

    idx = build_oracle_index(docs, CFG.analyzer)
    tk = Tokenizer(CFG.analyzer)
    expected = []
    for qid, qtext in queries:
        toks = tk.tokens(qtext)
        expanded = set(toks)
        for t in toks:
            expanded.update(synonyms.get(t, ()))
        scores = bm25_scores(idx, sorted(expanded), CFG.bm25_k1, CFG.bm25_b)
        for rank, doc_id, s in topk(scores, 5):
            expected.append((qid, rank, doc_id, s))

    rows = search_topk_synonyms(index_dir, queries, synonyms, topk=5).take_all()
    got = sorted((r["query_id"], r["rank"], r["doc_id"], r["score"]) for r in rows)
    assert got == sorted(expected)
    # "ghost" alone matches nothing; its synonym "import" must produce hits
    assert any(q == 2 for q, *_ in got)


def test_explain_contributions_sum_to_score(built_index):
    """explain_topk: per-(query, doc) contributions sum to the rounded
    score (within rounding slack), the ranked set/order equals search_topk
    under the rounded re-rank, and every term row is a real query term."""
    from distributed_text_search_ray.pipelines.search import explain_topk
    from distributed_text_search_ray.util import round_half_away

    _, index_dir, _ = built_index
    k = 5
    rows = explain_topk(index_dir, QUERIES, topk=k).take_all()
    assert rows

    by_qd = {}
    for r in rows:
        by_qd.setdefault((r["query_id"], r["doc_id"]), []).append(r)
    for (qid, doc), rs in by_qd.items():
        ranks = {r["rank"] for r in rs}
        scores = {r["score"] for r in rs}
        assert len(ranks) == 1 and len(scores) == 1
        total = sum(r["contribution"] for r in rs)
        # each contribution is rounded 6dp, so the sum drifts <= n*5e-7
        assert abs(total - next(iter(scores))) <= len(rs) * 5e-7 + 1e-9
        terms = [r["term"] for r in rs]
        assert len(terms) == len(set(terms))

    # ranked set identical to search_topk + rounded re-rank
    base = search_topk(index_dir, QUERIES, topk=k + 10).take_all()
    by_q = {}
    for r in base:
        by_q.setdefault(r["query_id"], []).append(
            (round_half_away(r["score"], 6), r["doc_id"])
        )
    want = set()
    for qid, lst in by_q.items():
        for rank, (s, d) in enumerate(
            sorted(lst, key=lambda t: (-t[0], t[1]))[:k], start=1
        ):
            want.add((qid, rank, d, s))
    got = {(r["query_id"], r["rank"], r["doc_id"], r["score"]) for r in rows}
    assert got == want


def test_term_vectors_bounded_api(built_index_r3):
    """ES termvectors analog: tf/dl re-derived per doc, df/cf global —
    differential vs direct recomputation from the raw docs."""
    import re
    from collections import Counter

    import ray.data

    from distributed_text_search_ray.pipelines.search import term_vectors

    corpus_dir, index_dir = built_index_r3
    docs = corpus_docs(corpus_dir)
    ids = [docs[0][0], docs[7][0], docs[13][0]]
    ds = ray.data.from_items([{"doc_id": d, "content": c} for d, c in docs])
    got = term_vectors(index_dir, ds, ids)

    tok = lambda s: re.findall(r"[a-z0-9_]+", s.lower())
    all_tf = {d: Counter(tok(c)) for d, c in docs}
    df, cf = Counter(), Counter()
    for t in all_tf.values():
        df.update(t.keys())
        cf.update(t)
    want = []
    for d in sorted(ids):
        tfd = all_tf[d]
        dl = sum(tfd.values())
        for term in sorted(tfd):
            want.append((d, term, tfd[term], dl, df[term], cf[term]))
    rows = list(
        zip(*(got.column(c).to_pylist() for c in ("doc_id", "term", "tf", "dl", "df", "cf")))
    )
    assert rows == want


def test_adjacency_matrix_and_rare_terms(built_index_r3):
    """ES adjacency_matrix + rare_terms vs direct recomputation."""
    import re
    from collections import Counter

    from distributed_text_search_ray.pipelines.search import (
        adjacency_matrix,
        rare_terms,
    )

    corpus_dir, index_dir = built_index_r3
    docs = corpus_docs(corpus_dir)
    tok = lambda s: set(re.findall(r"[a-z0-9_]+", s.lower()))
    toksets = {d: tok(c) for d, c in docs}
    filters = {"idx": "index", "shd": "shard", "scn": "scan"}
    got = sorted(
        (r["key_a"], r["key_b"], r["doc_count"])
        for r in adjacency_matrix(index_dir, filters).take_all()
    )
    want = []
    for a in sorted(filters):
        for b in sorted(filters):
            if b < a:
                continue
            n = sum(
                1
                for ts in toksets.values()
                if filters[a] in ts and filters[b] in ts
            )
            if n:
                want.append((a, b, n))
    assert got == sorted(want)

    df = Counter()
    for ts in toksets.values():
        df.update(ts)
    for cap in (1, 3):
        got_rt = sorted(
            (r["term"], r["df"]) for r in rare_terms(index_dir, max_df=cap).take_all()
        )
        assert got_rt == sorted((t, n) for t, n in df.items() if n <= cap)
        assert got_rt  # numbered synthetic tokens guarantee hapaxes


def test_matrix_stats_vs_numpy():
    """ES matrix_stats: distributed sufficient-statistics pass vs a direct
    numpy covariance/correlation on the same vectors, incl. a constant dim
    (null correlation) and split across many small blocks."""
    import numpy as np
    import ray.data

    from distributed_text_search_ray.pipelines.ann import matrix_stats
    from distributed_text_search_ray.util import round_half_away

    rng = np.random.default_rng(5)
    x = rng.normal(size=(300, 4))
    x[:, 2] = 7.0  # constant dim -> variance 0, correlation null
    ds = ray.data.from_items(
        [{"embedding": row.tolist()} for row in x], override_num_blocks=16
    )
    got = matrix_stats(ds)
    n = x.shape[0]
    mu = x.sum(axis=0) / n
    for r in range(got.num_rows):
        i = got.column("dim_i")[r].as_py()
        j = got.column("dim_j")[r].as_py()
        cov = (x[:, i] * x[:, j]).sum() / n - mu[i] * mu[j]
        vi = (x[:, i] ** 2).sum() / n - mu[i] * mu[i]
        vj = (x[:, j] ** 2).sum() / n - mu[j] * mu[j]
        assert got.column("covariance")[r].as_py() == pytest.approx(
            round_half_away(cov, 6), abs=2e-6
        )
        corr = got.column("correlation")[r].as_py()
        if vi * vj <= 0:
            assert corr is None
        else:
            assert corr == pytest.approx(
                round_half_away(cov / np.sqrt(vi * vj), 6), abs=2e-6
            )
    assert got.num_rows == 4 * 5 // 2
