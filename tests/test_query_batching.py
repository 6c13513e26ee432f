"""How ranked query stages batch their work.

``index_stage`` cuts a list or table into at most one block per CPU and,
under its default batch size, runs each block as ONE executor call (a
Dataset input streams in calls of at most ``DATASET_CALL_ROWS`` rows).
Under the base ``rank`` hook, ``QueryExecutor.__call__`` scores each
distinct analyzed term set of a batch once. Neither may change a row: the
output must not depend on how the queries were split into calls, nor on
which other queries share a call.
"""

import random

import pyarrow as pa
import pytest

from distributed_text_search_ray import IndexConfig
from distributed_text_search_ray.pipelines import search as s
from distributed_text_search_ray.pipelines.build import build_index
from distributed_text_search_ray.stages.executor import (
    TOPK_SCHEMA,
    FederatedQueryExecutor,
    QLTopkExecutor,
    QueryExecutor,
)
from distributed_text_search_ray.stages.index_stage import DATASET_CALL_ROWS, index_stage
from distributed_text_search_ray.util import cluster_cpus, collect_table

VOCAB = "alpha beta gamma delta foo bar baz return value self none import".split()
QUERIES = [
    (0, "foo bar"),
    (1, "Foo bar"),  # the same terms as query 0 after analysis
    (2, "bar foo"),  # ... and in another order
    (3, "foo bar"),  # the same text as query 0 under another id
    (4, "zzqx"),  # no known term
    (5, "alpha return value"),
    (6, "gamma"),
    (0, "foo bar"),  # a repeated (id, text) row
    (7, "zzqx qqzz"),
    (8, "delta self none import"),
    (9, "gamma"),
]


def _write(path, texts, first_id):
    import pyarrow.parquet as pq

    path.mkdir(parents=True)
    n = len(texts)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(first_id, first_id + n), pa.int64()),
                "repo": ["r"] * n,
                "path": [f"{first_id + i}.py" for i in range(n)],
                "commit": ["c"] * n,
                "lang": ["py", "go"] * (n // 2),
                "content": texts,
            }
        ),
        str(path / "shard_00000.parquet"),
    )
    return str(path)


def _texts(n, seed):
    rng = random.Random(seed)
    return [" ".join(rng.choices(VOCAB, k=rng.randint(3, 14))) for _ in range(n)]


class Fixture:
    def __init__(self, base):
        cfg = IndexConfig(num_partitions=2, attribute_columns=("lang",))
        self.idx = str(base / "a")
        build_index(_write(base / "ca", _texts(60, 1), 0), self.idx, cfg)
        self.other = str(base / "b")
        build_index(_write(base / "cb", _texts(40, 2), 1000), self.other, cfg)


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    return Fixture(tmp_path_factory.mktemp("query_batching"))


def _batch(queries):
    return pa.table(
        {
            "query_id": pa.array([q for q, _ in queries], pa.int64()),
            "query": pa.array([t for _, t in queries], pa.string()),
        }
    )


# name -> (executor on the fixture, the public operator that runs it)
BASE_PATH = {
    "plain": (
        lambda fx: QueryExecutor(fx.idx, topk=5),
        lambda fx, q: s.search_topk(fx.idx, q, topk=5),
    ),
    "msm": (
        lambda fx: QueryExecutor(fx.idx, topk=5, min_should_match=2),
        lambda fx, q: s.search_topk_msm(fx.idx, q, min_should_match=2, topk=5),
    ),
    "filtered": (
        lambda fx: s.FilteredQueryExecutor(fx.idx, "lang", "py", topk=5),
        lambda fx, q: s.search_topk_filtered(fx.idx, q, "lang", "py", topk=5),
    ),
    "ql": (
        lambda fx: QLTopkExecutor(fx.idx, topk=5),
        lambda fx, q: s.search_topk_ql(fx.idx, q, topk=5),
    ),
    "federated": (
        lambda fx: FederatedQueryExecutor([fx.idx, fx.other], topk=5),
        lambda fx, q: s.search_topk_federated([fx.idx, fx.other], q, topk=5),
    ),
}


def _per_row(ex, queries):
    """The rows of ``queries`` ranked one row at a time through ``rank``."""
    out = []
    for qid, text in queries:
        docs, scores = ex.rank({"query_id": qid, "query": text})
        out += [
            {"query_id": qid, "rank": r, "doc_id": int(d), "score": float(v)}
            for r, (d, v) in enumerate(zip(docs, scores), 1)
        ]
    return out


@pytest.mark.parametrize("name", list(BASE_PATH))
def test_rows_do_not_depend_on_the_block_split(fx, name):
    ex = BASE_PATH[name][0](fx)
    table = _batch(QUERIES)
    whole = ex(table)
    assert whole.schema == TOPK_SCHEMA
    for step in (4, 1):  # three blocks, then one query per call
        split = pa.concat_tables([ex(table.slice(i, step)) for i in range(0, len(QUERIES), step)])
        assert split.equals(whole)
    assert whole.to_pylist() == _per_row(ex, QUERIES)
    by_id = {}
    for r in whole.to_pylist():
        by_id.setdefault(r["query_id"], []).append((r["rank"], r["doc_id"], r["score"]))
    assert by_id[0] and by_id[0] == 2 * by_id[3]  # query 0 comes twice
    assert by_id[1] == by_id[2] == by_id[3]
    assert 4 not in by_id and 7 not in by_id
    assert by_id.get(6) == by_id.get(9)


@pytest.mark.parametrize("name", list(BASE_PATH))
def test_pipeline_rows_match_the_in_process_batch(fx, name):
    make, op = BASE_PATH[name]
    got = collect_table(op(fx, QUERIES)).to_pylist()
    want = make(fx)(_batch(QUERIES)).to_pylist()
    key = lambda r: (r["query_id"], r["rank"], r["doc_id"])  # noqa: E731
    assert sorted(got, key=key) == sorted(want, key=key)


def _spy(ex, name):
    calls = []
    inner = getattr(ex, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    setattr(ex, name, spy)
    return calls


def test_base_rank_scores_each_distinct_term_set_once(fx):
    ex = QueryExecutor(fx.idx, topk=5)
    calls = _spy(ex, "_score")
    ex(_batch(QUERIES))
    keys = [tuple(terms) for terms, _ in calls]
    assert len(keys) == len(set(keys))
    assert set(keys) == {tuple(ex._terms(t)) for _, t in QUERIES}
    assert len(keys) < len(QUERIES)


def test_overridden_rank_runs_once_per_row(fx):
    ex = s.SearchAfterExecutor(fx.idx, topk=5)
    calls = _spy(ex, "rank")
    cursors = _batch(QUERIES).append_column(
        "after_score", pa.array([1e9] * len(QUERIES), pa.float64())
    ).append_column("after_doc_id", pa.array([-1] * len(QUERIES), pa.int64()))
    out = ex(cursors)
    assert len(calls) == len(QUERIES)
    assert out.schema == TOPK_SCHEMA


def _calls(rows, **kw):
    """The row count of each executor call ``index_stage`` makes."""

    class RowsPerCall:  # local, so Ray ships the class by value
        def __call__(self, batch: pa.Table) -> pa.Table:
            return pa.table({"rows": pa.array([batch.num_rows], pa.int64())})

    return [r["rows"] for r in index_stage(rows, RowsPerCall, None, **kw).take_all()]


def test_default_batch_size_runs_each_block_as_one_call():
    rows = [{"query_id": i, "query": "foo"} for i in range(1024)]
    calls = _calls(rows)
    assert sum(calls) == 1024
    assert len(calls) <= cluster_cpus()


def test_dataset_input_streams_in_capped_calls():
    import ray

    n = DATASET_CALL_ROWS * 2 + 5
    calls = _calls(ray.data.from_arrow(pa.table({"query_id": list(range(n))})))
    assert sum(calls) == n
    assert max(calls) <= DATASET_CALL_ROWS


def test_an_explicit_batch_size_still_caps_each_call():
    calls = _calls([{"query_id": i} for i in range(6)], batch_size=1)
    assert calls == [1] * 6
