"""Query stages run as Ray tasks over a per-process, generation-keyed view
cache (``stages.executor.open_view``, keyed by ``state.generations``).

Contract: a task serves the index generation current when it starts — an
in-place ``delete_docs`` or a ``set_alias`` swap takes effect on the next
call even in a worker that already has the old generation cached; the cache
holds a bounded number of generations, an evicted view drops its segment
readers, and all cached views share one decoded-postings budget; a routed
batch opens only the members it routes to; index query stages plan as task
pools, never actor pools.
"""

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from distributed_text_search_ray.config import IndexConfig
from distributed_text_search_ray.pipelines.boolquery import boolean_search
from distributed_text_search_ray.pipelines.build import build_index, delete_docs
from distributed_text_search_ray.pipelines.phrase import phrase_search_positional
from distributed_text_search_ray.pipelines.search import (
    RoutedQueryExecutor,
    fuzzy_term_search,
    search_topk,
    search_topk_routed,
)
from distributed_text_search_ray.stages import executor
from distributed_text_search_ray.stages.executor import (
    MAX_GENERATIONS,
    IndexView,
    QueryExecutor,
    open_view,
)
from distributed_text_search_ray.state.alias import set_alias
from distributed_text_search_ray.state.generations import generation_key

QUERY = [(0, "def data")]


@pytest.fixture(scope="module")
def index(code_corpus, tmp_path_factory):
    corpus_dir, _ = code_corpus
    out = str(tmp_path_factory.mktemp("gen") / "idx")
    build_index(corpus_dir, out, IndexConfig(num_partitions=4))
    return out


@pytest.fixture
def views():
    """This process's view cache, emptied around the test."""
    executor._VIEWS.clear()
    yield executor._VIEWS
    executor._VIEWS.clear()


def _cached(view) -> int:
    """Decoded-postings entries the shared LRU holds for ``view``."""
    return sum(k[0] is view._token for k in executor._POSTINGS._entries)


def _copy(index, tmp_path, name):
    out = str(tmp_path / name)
    shutil.copytree(index, out)
    return out


def _top(path, topk=5):
    return [r["doc_id"] for r in search_topk(path, QUERY, topk=topk).take_all()]


def test_delete_docs_in_place_reaches_warm_workers(index, tmp_path):
    idx = _copy(index, tmp_path, "idx")
    for _ in range(3):  # every worker that ran these tasks caches the view
        before = _top(idx)
    gone = before[:2]
    delete_docs(idx, gone)
    after = _top(idx)
    assert after and not set(gone) & set(after)
    fresh = QueryExecutor(idx, topk=5, mode="maxscore")  # uncached view
    want = fresh(pa.table({"query_id": [0], "query": ["def data"]})).column("doc_id")
    assert after == want.to_pylist()


def test_alias_swap_serves_new_target_on_next_call(index, tmp_path):
    blue = _copy(index, tmp_path, "blue")
    green = _copy(index, tmp_path, "green")
    top = _top(blue)
    delete_docs(green, top[:1])  # green differs from blue in its top hit
    alias = str(tmp_path / "serving")
    set_alias(alias, blue)
    for _ in range(3):
        assert _top(alias) == top
    set_alias(alias, green)
    assert _top(alias) == _top(green) != top


def test_generation_key_tracks_tombstones_and_alias(index, tmp_path):
    idx = _copy(index, tmp_path, "idx")
    key, target = generation_key(idx)
    assert target == idx and key[0] == os.path.realpath(idx)
    assert generation_key(idx)[0] == key
    delete_docs(idx, [1])
    assert generation_key(idx)[0] != key
    alias = str(tmp_path / "a")
    set_alias(alias, idx)
    assert generation_key(alias)[0] == generation_key(idx)[0]


def test_cache_reuses_one_view_per_generation(index, tmp_path, views):
    idx = _copy(index, tmp_path, "idx")
    v1 = open_view(idx)
    assert open_view(idx) is v1
    v1.term_postings("data")
    assert v1._readers and _cached(v1)
    delete_docs(idx, [1])
    v2 = open_view(idx)
    # the stale generation of the same directory is dropped at once
    assert v2 is not v1 and list(views.values()) == [v2]
    assert not v1._readers and not _cached(v1)


def test_cache_evicts_oldest_generation_and_drops_its_readers(index, tmp_path, views):
    dirs = [_copy(index, tmp_path, f"idx{i}") for i in range(MAX_GENERATIONS + 1)]
    opened = []
    for d in dirs:
        v = open_view(d)
        v.term_postings("data")
        v.dictionary()
        opened.append(v)
    oldest = opened[0]
    cached = list(views.values())
    assert len(cached) == MAX_GENERATIONS and oldest not in cached
    assert not oldest._readers and not _cached(oldest) and oldest._dictionary is None
    assert all(v in cached and v._readers and _cached(v) for v in opened[1:])
    # an evicted view a running task still holds keeps answering
    assert len(oldest.term_postings("data")[0]) == len(opened[1].term_postings("data")[0])


def test_cached_views_share_one_postings_budget(index, tmp_path, views, monkeypatch):
    a, b = open_view(_copy(index, tmp_path, "a")), open_view(_copy(index, tmp_path, "b"))
    n = len(a.term_postings("data")[0])
    monkeypatch.setattr(executor, "MAX_CACHED_POSTINGS", n + n // 2)
    b.term_postings("data")
    # b's entry pushed a's out: the cap bounds all cached views together
    assert not _cached(a) and _cached(b) and executor._POSTINGS.size == n
    fresh = IndexView(_copy(index, tmp_path, "c"))  # uncached: a budget of its own
    fresh.term_postings("data")
    assert _cached(b) and fresh._postings is not executor._POSTINGS


def test_routed_search_opens_only_the_routes_a_batch_uses(index, tmp_path, views):
    members = {f"t{i}": _copy(index, tmp_path, f"t{i}") for i in range(MAX_GENERATIONS + 2)}
    batch = pa.table({"query_id": [0, 1], "query": ["def data", "data"], "route": ["t3"] * 2})
    got = RoutedQueryExecutor(members, topk=5)(batch)
    assert [k[0] for k in views] == [os.path.realpath(members["t3"])]
    routed = search_topk_routed(members, [(0, "def data", "t3")], topk=5).take_all()
    assert [r["doc_id"] for r in routed] == _top(members["t3"])
    assert got.filter(pc.equal(got["query_id"], 0))["doc_id"].to_pylist() == _top(
        members["t3"]
    )


def _operators(ds) -> list[str]:
    """Physical operator class names of a lazy dataset's plan (Ray Data's
    internal planner: the same plan execution would run)."""
    from ray.data._internal.logical.optimizers import get_execution_plan

    ops, todo = [], [get_execution_plan(ds._logical_plan).dag]
    while todo:
        op = todo.pop()
        ops.append(type(op).__name__)
        todo.extend(op.input_dependencies)
    return ops


@pytest.mark.parametrize(
    "plan",
    [
        lambda idx: search_topk(idx, QUERY),
        lambda idx: fuzzy_term_search(idx, [(0, "dat", 1)]),
        lambda idx: boolean_search(idx, [(0, "def AND data")]),
        lambda idx: phrase_search_positional(idx, [(0, "def data")]),
    ],
    ids=["search_topk", "fuzzy_term_search", "boolean_search", "phrase_search_positional"],
)
def test_index_query_stages_run_as_tasks(index, plan):
    ops = _operators(plan(index))
    assert "TaskPoolMapOperator" in ops
    assert "ActorPoolMapOperator" not in ops
