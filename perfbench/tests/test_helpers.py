"""Tests of the benchmark's own helpers (no Ray, no engine needed):

    python3 -m pytest perfbench/tests -q
"""

import math
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import check  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402


# --- tail percentile: the highest one with >= 10 samples beyond it ---

@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_undefined_below_eleven_samples(n):
    assert stats.tail_rank(n) is None
    assert stats.tail(list(range(n))) is None


@pytest.mark.parametrize("n", [11, 20, 57, 100, 1000])
def test_tail_leaves_exactly_ten_samples_above(n):
    xs = [float(i) for i in range(n)]
    p, v = stats.tail(xs)
    assert sum(1 for x in xs if x > v) == 10
    # nearest rank of p is the value's rank: ceil(p/100 * n) == n - 10
    assert math.ceil(round(p / 100 * n, 9)) == n - 10


def test_tail_p90_at_100_samples_and_unsorted_input():
    xs = list(range(100, 0, -1))
    assert stats.tail(xs) == (90.0, 90.0)


# --- error counting ---

def test_outcomes_count_each_request_once():
    o = stats.Outcomes()
    ids = [o.start() for _ in range(4)]
    assert ids == [0, 1, 2, 3]
    o.fail(1, "raised")
    o.fail(1, "and its output was wrong")
    o.fail(3, "wrong")
    assert (o.attempted, o.failed) == (4, 2)
    assert o.error_rate == 0.5
    assert len(o.reasons) == 3


def test_outcomes_reject_unattempted_request():
    o = stats.Outcomes()
    o.start()
    with pytest.raises(ValueError):
        o.fail(1, "never started")


def test_outcomes_empty():
    assert stats.Outcomes().error_rate == 0.0


# --- top-k check against oracle candidates ---

CAND = {1: 3.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 0.5}  # docs 3 and 4 tie at the cut


@pytest.mark.parametrize("got", [[(1, 3.0), (2, 2.0), (3, 1.0)], [(1, 3.0), (2, 2.0), (4, 1.0)]])
def test_check_topk_accepts_either_tied_doc(got):
    assert check.check_topk(got, CAND, n_match=5, k=3) is None


@pytest.mark.parametrize("got", [
    [(1, 3.0), (2, 2.0)],                      # too few rows
    [(1, 3.0), (3, 1.0), (4, 1.0)],            # misses doc 2
    [(1, 3.0), (2, 2.0 + 1e-6), (3, 1.0)],     # wrong score
    [(2, 2.0), (1, 3.0), (3, 1.0)],            # out of order
    [(1, 3.0), (2, 2.0), (4, 1.0), (3, 1.0)],  # ties ordered by doc id desc
    [(1, 3.0), (1, 3.0), (2, 2.0)],            # duplicate doc
])
def test_check_topk_rejects(got):
    assert check.check_topk(got, CAND, n_match=5, k=len(got) if len(got) == 4 else 3) is not None


# --- span self time ---

def _spans(*recs):
    return [list(r) for r in recs]


def test_self_time_subtracts_children():
    spans = _spans(
        ("bench.request", 0.0, 10.0, None, 0),
        ("pipelines.a", 1.0, 5.0, 0, 0),
        ("ray.execute", 2.0, 4.0, 1, 0),
        ("pipelines.b", 6.0, 9.0, 0, 0),
    )
    st = stats.self_times(spans)
    assert st == {0: 3.0, 1: 2.0, 2: 2.0, 3: 3.0}
    assert [stats.layer_of(s[0]) for s in spans] == ["bench", "pipelines", "ray", "pipelines"]


def test_self_time_clips_children_and_merges_overlaps():
    spans = _spans(
        ("a", 0.0, 4.0, None, None),
        ("b", -1.0, 2.0, 0, None),   # starts before its parent
        ("c", 1.0, 3.0, 0, None),    # overlaps b
    )
    assert stats.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_nests_and_tags_requests():
    clock = iter(range(100)).__next__
    t = stats.Tracer(clock=clock)
    t.request = 7
    with t.span("outer"):
        with t.span("inner"):
            pass
    f = t.wrap(lambda x: x + 1, "fn")
    assert f(1) == 2
    names = [(s[0], s[3], s[4]) for s in t.spans]
    assert names == [("outer", None, 7), ("inner", 0, 7), ("fn", None, 7)]
    assert all(s[2] > s[1] for s in t.spans)


def test_request_layers_moves_replayed_work_out_of_ray():
    spans = _spans(
        ("bench.request", 0.0, 10.0, None, 0),
        ("pipelines.search.search_topk", 0.0, 9.0, 0, 0),
        ("ray.execute", 1.0, 9.0, 1, 0),
        ("bench.replay", 20.0, 23.0, None, 0),
        ("stages.executor.call", 20.0, 23.0, 3, 0),
        ("functions.bm25.tf_part", 21.0, 22.0, 4, 0),
        ("bench.request", 30.0, 31.0, None, 1),  # another request
    )
    got = layers.request_layers(spans, 0)
    assert got["ray"] == pytest.approx(8.0 - 3.0)
    assert got["stages"] == pytest.approx(2.0)
    assert got["functions"] == pytest.approx(1.0)
    assert got["pipelines"] == pytest.approx(1.0)
    assert got["residual"] == pytest.approx(1.0)
    assert sum(got.values()) == pytest.approx(10.0)


# --- generator determinism ---

def test_generator_is_deterministic_per_seed():
    def make(seed):
        c = gen.Corpus(seed, 50)
        ch = gen.Changesets(c, n_replace=5, n_insert=5, n_delete=3)
        return (c.texts, c.queries(20, 0.5), c.patterns(6), c.patterns(4, length=8), ch.next(), ch.next())

    assert make(3) == make(3)
    assert make(3) != make(4)


def test_corpus_shape():
    c = gen.Corpus(1, 400)
    assert len(gen.vocabulary()) == gen.VOCAB_SIZE == len(set(gen.vocabulary()))
    assert c.ids == list(range(400))
    docs = [set(re.findall("[a-z0-9_]+", text)) for text in c.texts]
    for t in gen.HOT_TERMS:
        assert 0.8 < sum(t in d for d in docs) / 400 <= 1.0
    assert all(len(p) == 8 for p, _ in c.patterns(10, length=8))


def test_changesets_track_live_ids():
    c = gen.Corpus(2, 300)
    ch = gen.Changesets(c, n_replace=20, n_insert=10, n_delete=7)
    live = set(c.ids)
    for _ in range(3):
        r = ch.next()
        ids = set(r["doc_ids"])
        assert len(ids) == 30 and not ids & set(r["deleted"])
        assert all(r["planted"] in t for t in r["texts"])
        live = (live | ids) - set(r["deleted"])
        assert r["n_live"] == len(live) == len(ch.live)


# --- workload request shape ---

def test_every_serve_request_has_the_same_shape(tmp_path):
    import workloads

    wl = workloads.Serve(5, str(tmp_path))
    for i in range(7):
        queries, patterns = wl.batch(i)
        assert [q for q, _ in queries] == list(range(wl.n_queries))
        assert [q for q, _, _ in patterns] == list(range(wl.n_patterns))
        assert {k for _, _, k in patterns} == {0, 1, 2}
        # inputs recur every other request
        assert wl.batch(i + 2) == (queries, patterns)
