"""One exact BM25 scorer per doc-id layout.

Every full-OR mode — taat and its aliases maxscore and wand — adds the
per-generation cached contributions
(``IndexView.term_contribs``) per doc: on dense doc ids (0..N) into one dense
accumulator, on sparse fingerprint ids through a sorted segmented sum. Either way
the ranked rows are bit-identical across modes and to the oracle, and a
masked (filtered, ``must_not``) or federated view never sees contributions
cached for a different view.

On dense ids a term whose live postings cover half the id space is added as
one cached dense vector (``IndexView.term_dense``), the others by scatter;
the dense top-k cuts at the k-th largest of a strided sample of the
accumulator. Neither may move a score or a rank: ties at the k-th score
included.
"""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from distributed_text_search_ray import IndexConfig
from distributed_text_search_ray.functions.tokenize import Tokenizer
from distributed_text_search_ray.oracle import (
    bm25_scores,
    build_oracle_index,
    oracle_bm25_topk,
    topk as oracle_topk,
)
from distributed_text_search_ray.pipelines import search as s
from distributed_text_search_ray.pipelines.build import build_index, delete_docs
from distributed_text_search_ray.sources.synth import make_vocab
from distributed_text_search_ray.stages.executor import (
    FederatedIndexView,
    IndexView,
    QueryExecutor,
    _topk_rows,
)
from tests.conftest import corpus_docs

CFG = IndexConfig(
    num_partitions=4, salt_buckets=3, salt_df_threshold=0.25, attribute_columns=("lang",)
)
QUERIES = [
    (0, "def tokenize"),
    (1, "import data index"),
    (2, "merge"),
    (3, "zzz_not_a_term"),
    (4, "def"),  # hot (salted) term
    (5, "score count value table"),
    (6, "self return def import"),  # hot terms only
]


def _queries():
    """The fixed queries plus a seeded grid of rare/hot term mixes."""
    rng = np.random.default_rng(5)
    vocab = make_vocab(200, seed=7)
    extra = [
        (
            100 + i,
            " ".join(
                rng.choice(vocab, rng.integers(1, 5)).tolist()
                + (["def"] if rng.random() < 0.5 else [])
            ),
        )
        for i in range(30)
    ]
    return QUERIES + extra


def _batch(queries):
    return pa.table(
        {
            "query_id": pa.array([q for q, _ in queries], pa.int64()),
            "query": pa.array([t for _, t in queries], pa.string()),
        }
    )


def _write(path, docs, langs):
    os.makedirs(path)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in docs], pa.int64()),
                "repo": ["r"] * len(docs),
                "path": [f"{d}.py" for d, _ in docs],
                "commit": ["c"] * len(docs),
                "lang": langs,
                "content": [c for _, c in docs],
            }
        ),
        os.path.join(path, "shard-0.parquet"),
    )
    return path


@pytest.fixture(scope="module")
def dense(code_corpus, tmp_path_factory):
    """The shared code corpus renumbered 0..N-1, as one index and as two
    disjoint halves (federation members)."""
    root = tmp_path_factory.mktemp("dense")
    docs = [(i, c) for i, (_, c) in enumerate(corpus_docs(code_corpus[0]))]
    langs = ["py" if i % 3 else "go" for i in range(len(docs))]
    out = {"docs": docs}
    for name, keep in (("full", (0, 1)), ("even", (0,)), ("odd", (1,))):
        part = [d for d in docs if d[0] % 2 in keep]
        corpus = _write(str(root / f"c_{name}"), part, [langs[d] for d, _ in part])
        out[name] = str(root / name)
        build_index(corpus, out[name], CFG)
    return out


@pytest.fixture(scope="module")
def sparse(code_corpus, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("sparse") / "idx")
    build_index(code_corpus[0], idx, CFG)
    return idx


def test_modes_bit_identical_on_sparse_ids(sparse):
    view = IndexView(sparse)
    assert QueryExecutor(view)._dense_buffer() is None  # fingerprint ids
    want = QueryExecutor(view, topk=5, mode="taat")(_batch(_queries())).to_pylist()
    assert want
    for mode in ("maxscore", "wand"):
        assert QueryExecutor(view, topk=5, mode=mode)(_batch(_queries())).to_pylist() == want


@pytest.mark.parametrize("topk", [3, 10, 10_000])
def test_modes_bit_identical_on_dense_ids_and_match_oracle(dense, topk):
    view = IndexView(dense["full"])
    assert QueryExecutor(view)._dense_buffer() is not None
    got = {
        m: QueryExecutor(view, topk=topk, mode=m)(_batch(_queries())).to_pylist()
        for m in ("taat", "maxscore", "wand")
    }
    assert got["maxscore"] == got["taat"] and got["wand"] == got["taat"]
    want = oracle_bm25_topk(dense["docs"], _queries(), k=topk, cfg=CFG)
    rows = [(r["query_id"], r["rank"], r["doc_id"], r["score"]) for r in got["maxscore"]]
    assert sorted(rows) == sorted(want)  # bit-exact scores


def test_masked_views_never_serve_cached_unmasked_contributions(dense):
    view = IndexView(dense["full"])
    q = [(0, "tokenize merge def")]
    top = QueryExecutor(view, topk=5)(_batch(q)).to_pylist()
    best = top[0]["doc_id"]  # its contributions are now cached on ``view``
    lang = "py" if best % 3 else "go"
    other = "go" if lang == "py" else "py"
    filtered = s.FilteredQueryExecutor(view, "lang", other, topk=5)
    filtered = filtered(_batch(q)).to_pylist()
    assert filtered and best not in [r["doc_id"] for r in filtered]
    # negate a term of the best doc: every doc holding it drops out
    term = next(t for t in ("tokenize", "merge") if best in view.term_postings(t)[0])
    negated = s.NegatedQueryExecutor(view, topk=5)
    negated = negated(_batch([(0, f"tokenize merge def -{term}")])).to_pylist()
    excluded = set(view.term_postings(term)[0].tolist())
    assert negated and not excluded & {r["doc_id"] for r in negated}
    # survivors keep their unrestricted scores
    full = QueryExecutor(view, topk=10_000)(_batch(q)).to_pylist()
    full = {r["doc_id"]: r["score"] for r in full}
    assert all(full[r["doc_id"]] == r["score"] for r in filtered + negated)


def test_federated_scores_with_global_stats_over_cached_members(dense):
    members = [IndexView(dense["even"]), IndexView(dense["odd"])]
    for m in members:  # warm the members' own (member-stat) contributions
        QueryExecutor(m, topk=10)(_batch(QUERIES))
    fed = QueryExecutor(FederatedIndexView(members), topk=10)
    union = QueryExecutor(IndexView(dense["full"]), topk=10)
    assert fed(_batch(QUERIES)).to_pylist() == union(_batch(QUERIES)).to_pylist()


def _oracle(docs, queries, k, dropped=(), weights=None):
    """[(query_id, rank, doc_id, score)]: the oracle's BM25 over ``docs``
    (build-time stats), ``dropped`` docs removed from the ranking (the
    tombstone contract); ``weights`` = {query_id: {term: w}} scores
    sum_t w_t * bm25_t in ascending term order instead of the query text."""
    idx = build_oracle_index(docs, CFG.analyzer)
    tk = Tokenizer(CFG.analyzer)
    out = []
    for qid, text in queries:
        if weights is None:
            scores = bm25_scores(idx, tk.tokens(text), CFG.bm25_k1, CFG.bm25_b)
        else:
            scores = {}
            for term, w in sorted(weights[qid].items()):
                one = bm25_scores(idx, [term], CFG.bm25_k1, CFG.bm25_b)
                for d, x in one.items():
                    scores[d] = scores.get(d, 0.0) + w * x
        for d in dropped:
            scores.pop(d, None)
        out += [(qid, r, d, x) for r, d, x in oracle_topk(scores, k)]
    return sorted(out)


def _rows(table):
    return sorted((r["query_id"], r["rank"], r["doc_id"], r["score"]) for r in table.to_pylist())


def _is_dense(view, term):
    return view.term_dense(term)[0] is None


@pytest.fixture(scope="module")
def tombstoned(dense, tmp_path_factory):
    """The dense-id index with docs deleted inside a dense term ("data",
    every doc) and enough of "group"'s docs that it turns sparse."""
    out = str(tmp_path_factory.mktemp("tomb") / "idx")
    shutil.copytree(dense["full"], out)
    group = IndexView(out).term_postings("group")[0]
    n = len(dense["docs"])
    drop = sorted(set(group[: len(group) - n // 2 + 3].tolist()) | {0, 1, 17, n - 1})
    delete_docs(out, drop)
    return out, drop


@pytest.mark.parametrize("topk", [1, 10, 10_000])
def test_dense_and_sparse_terms_mix_bit_identically(dense, tombstoned, topk):
    """taat, maxscore and wand agree bit for bit, and with the oracle, on
    queries mixing dense-vector terms and scattered ones, with tombstones
    inside a dense term and with weighted (RM3) terms."""
    path, drop = tombstoned
    view = IndexView(path)
    assert _is_dense(view, "data") and _is_dense(view, "def")
    assert not _is_dense(view, "group") and not _is_dense(view, "tokenize")
    assert _is_dense(IndexView(dense["full"]), "group")  # dense before the deletes
    queries = _queries() + [(200, "data group tokenize"), (201, "data def query index")]
    got = {
        m: _rows(QueryExecutor(view, topk=topk, mode=m)(_batch(queries)))
        for m in ("taat", "maxscore", "wand")
    }
    assert got["taat"] and got["maxscore"] == got["taat"] and got["wand"] == got["taat"]
    assert got["taat"] == _oracle(dense["docs"], queries, topk, dropped=drop)
    assert not set(drop) & {d for _, _, d, _ in got["taat"]}

    weights = {
        0: {"data": 0.7, "group": 0.2, "tokenize": 0.1},
        1: {"def": 1.5, "merge": 0.25},
        2: {"group": 2.0},
    }
    batch = pa.table(
        {
            "query_id": pa.array(list(weights), pa.int64()),
            "terms": [list(w) for w in weights.values()],
            "weights": [list(w.values()) for w in weights.values()],
        }
    )
    got = _rows(s.WeightedTermExecutor(view, topk=topk)(batch))
    assert got == _oracle(dense["docs"], [(q, "") for q in weights], topk, drop, weights)


def test_dense_topk_keeps_ties_across_the_sampled_cut(tmp_path):
    """Many identical docs: the top-k cut falls inside a group of equal
    scores, and the doc-id tie-break must see the whole group."""
    docs = []
    for i in range(600):
        if i % 7 == 3:
            text = "alpha beta beta gamma"  # the tied top group (86 docs)
        elif i % 5 == 0:
            text = "alpha beta delta epsilon zeta"
        else:
            text = "alpha " + " ".join(f"w{(i * j) % 97}" for j in range(1, 6))
        docs.append((i, text))
    corpus = _write(str(tmp_path / "c"), docs, ["py"] * len(docs))
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, CFG)
    view = IndexView(idx)
    assert _is_dense(view, "alpha") and not _is_dense(view, "beta")
    queries = [(0, "alpha beta"), (1, "beta gamma"), (2, "alpha"), (3, "alpha beta gamma")]
    for k in (1, 5, 10, 40, 86, 87, 100, 600):
        got = _rows(QueryExecutor(view, topk=k)(_batch(queries)))
        assert got == _oracle(docs, queries, k)

    # the cut itself, on accumulators with few to many distinct scores,
    # against a plain sort
    rng = np.random.default_rng(11)
    for n in (1, 15, 16, 17, 160, 1000, 5000):
        for levels in (4, 4, 50, 1 << 40):
            buf = rng.integers(0, levels, n).astype(np.float64) * 0.5
            buf[rng.random(n) < 0.3] = 0.0
            for k in (1, 3, 10, n // 16, n // 16 + 1, n):
                if k < 1:
                    continue
                want = _topk_rows(np.flatnonzero(buf > 0), buf[buf > 0], k)
                cand, scores = QueryExecutor._dense_topk(buf, k)
                assert cand.tolist() == want[0].tolist()
                assert scores.tobytes() == want[1].tobytes()


def test_masked_views_never_serve_the_dense_vector(dense):
    """A filter and a ``must_not`` over a dense term, with its vector
    already cached on the base view: the masked view must mask it."""
    view = IndexView(dense["full"])
    q = [(0, "data tokenize"), (1, "def merge group")]
    QueryExecutor(view, topk=5)(_batch(q))  # caches the dense vectors
    assert _is_dense(view, "data") and _is_dense(view, "def")
    lang = {d: "py" if d % 3 else "go" for d, _ in dense["docs"]}
    filtered = _rows(s.FilteredQueryExecutor(view, "lang", "go", topk=10)(_batch(q)))
    assert filtered == _oracle(dense["docs"], q, 10, dropped=[d for d in lang if lang[d] != "go"])

    excluded = view.term_postings("tokenize")[0].tolist()
    negated = s.NegatedQueryExecutor(view, topk=10)
    got = _rows(negated(_batch([(0, "data def -tokenize")])))
    assert got == _oracle(dense["docs"], [(0, "data def")], 10, dropped=excluded)
