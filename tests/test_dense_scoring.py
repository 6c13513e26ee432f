"""One exact BM25 scorer per doc-id layout.

Every full-OR mode — taat, its alias maxscore, and wand once no term is
skippable — adds the per-generation cached contributions
(``IndexView.term_contribs``) per doc: on dense doc ids (0..N) into one dense
accumulator, on sparse fingerprint ids through a sorted segmented sum. Either way
the ranked rows are bit-identical across modes and to the oracle, and a
masked (filtered, ``must_not``) or federated view never sees contributions
cached for a different view.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from distributed_text_search_ray import IndexConfig
from distributed_text_search_ray.oracle import oracle_bm25_topk
from distributed_text_search_ray.pipelines import search as s
from distributed_text_search_ray.pipelines.build import build_index
from distributed_text_search_ray.sources.synth import make_vocab
from distributed_text_search_ray.stages.executor import (
    FederatedIndexView,
    IndexView,
    QueryExecutor,
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
        assert QueryExecutor(view, topk=5)(_batch(_queries())).to_pylist() == want


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
