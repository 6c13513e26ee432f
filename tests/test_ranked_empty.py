"""Typed empty output of every ranked query operator.

Each public ranked operator, fed queries that match nothing, must still emit
``TOPK_SCHEMA`` blocks (``src_doc_id`` in place of ``query_id`` for
more-like-this), and the executor it runs must return the same schema for
an empty input batch — a downstream union, join or ``to_pandas`` then sees
the columns whether or not anything matched.
"""

import pyarrow as pa
import pytest
import ray

from distributed_text_search_ray import IndexConfig
from distributed_text_search_ray.pipelines import boolquery as bq
from distributed_text_search_ray.pipelines import phrase as ph
from distributed_text_search_ray.pipelines import search as s
from distributed_text_search_ray.pipelines.build import build_index
from distributed_text_search_ray.stages.executor import (
    TOPK_SCHEMA,
    FederatedQueryExecutor,
    QLTopkExecutor,
    QueryExecutor,
)

MLT_SCHEMA = TOPK_SCHEMA.set(0, pa.field("src_doc_id", pa.int64()))
NO_MATCH = [(0, "zzqx qqzz"), (1, "xqzzy")]
PATTERNS = [(0, "zzqxq", 1), (1, "qqzzx", 0)]
WILDCARDS = [(0, "zzq*"), (1, "q?zzx")]
REGEXPS = [(0, "zzq.*"), (1, "q[a-z]zzx")]
QUERY = pa.schema([("query_id", pa.int64()), ("query", pa.string())])
TEXTS = [
    "def alpha beta return value",
    "import numpy as np alpha",
    "class gamma delta return",
    "lonely solitary hermit",
]


def _write(path, repo, texts, first_id):
    import pyarrow.parquet as pq

    path.mkdir(parents=True)
    n = len(texts)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(first_id, first_id + n), pa.int64()),
                "repo": [repo] * n,
                "path": [f"{i}.py" for i in range(n)],
                "commit": ["c"] * n,
                "lang": ["py", "go"] * (n // 2),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
                "content": texts,
            }
        ),
        str(path / "shard_00000.parquet"),
    )
    return str(path)


class Fixture:
    def __init__(self, base):
        cfg = IndexConfig(
            num_partitions=2, attribute_columns=("lang", "n_chars"), store_positions=True
        )
        self.idx = str(base / "content")
        build_index(_write(base / "c", "r", TEXTS, 0), self.idx, cfg)
        titles = [" ".join(t.split()[:2]) for t in TEXTS]
        self.title = str(base / "title")
        build_index(_write(base / "t", "t", titles, 100), self.title, cfg)
        self.fields = {"content": self.idx, "title": self.title}
        self.weights = {"content": 1.0, "title": 2.0}
        self.docs = ray.data.from_arrow(
            pa.table({"doc_id": pa.array([3], pa.int64()), "content": [TEXTS[3]]})
        )


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    return Fixture(tmp_path_factory.mktemp("ranked_empty"))


def _routed(q):
    return [(i, t, "a") for i, t in q]


def _cursors(q):
    return [(i, t, 1.0, 0) for i, t in q]


# id -> (public operator on inputs that match nothing, the executor it runs,
# that executor's input schema)
CASES = {
    **{
        f"search_topk-{m}": (
            lambda fx, m=m: s.search_topk(fx.idx, NO_MATCH, mode=m),
            lambda fx, m=m: QueryExecutor(fx.idx, mode=m),
            QUERY,
        )
        for m in ("taat", "maxscore", "wand")
    },
    "msm": (
        lambda fx: s.search_topk_msm(fx.idx, NO_MATCH, min_should_match=2),
        lambda fx: QueryExecutor(fx.idx, min_should_match=2),
        QUERY,
    ),
    "ql": (
        lambda fx: s.search_topk_ql(fx.idx, NO_MATCH),
        lambda fx: QLTopkExecutor(fx.idx),
        QUERY,
    ),
    "federated": (
        lambda fx: s.search_topk_federated([fx.idx, fx.title], NO_MATCH),
        lambda fx: FederatedQueryExecutor([fx.idx, fx.title]),
        QUERY,
    ),
    "filtered": (
        lambda fx: s.search_topk_filtered(fx.idx, NO_MATCH, "lang", "py"),
        lambda fx: s.FilteredQueryExecutor(fx.idx, "lang", "py"),
        QUERY,
    ),
    "filtered_range": (
        lambda fx: s.search_topk_filtered_range(fx.idx, NO_MATCH, "n_chars", lo=1, hi=30),
        lambda fx: s.RangeFilteredQueryExecutor(fx.idx, "n_chars", lo=1, hi=30),
        QUERY,
    ),
    "boolean_filtered": (
        lambda fx: s.search_topk_boolean_filtered(fx.idx, NO_MATCH, "alpha OR gamma"),
        lambda fx: s.BooleanFilteredQueryExecutor(fx.idx, "alpha OR gamma"),
        QUERY,
    ),
    "negated": (
        lambda fx: s.search_topk_negated(fx.idx, [(0, "zzqx -alpha"), (1, "-alpha")]),
        lambda fx: s.NegatedQueryExecutor(fx.idx),
        QUERY,
    ),
    "routed": (
        lambda fx: s.search_topk_routed({"a": fx.idx}, _routed(NO_MATCH) + [(2, "alpha", "b")]),
        lambda fx: s.RoutedQueryExecutor({"a": fx.idx}),
        QUERY.append(pa.field("route", pa.string())),
    ),
    "synonyms": (
        lambda fx: s.search_topk_synonyms(fx.idx, NO_MATCH, {"zzqx": ["qzqz"]}),
        lambda fx: s.SynonymTopkExecutor(fx.idx, {"zzqx": ["qzqz"]}),
        QUERY,
    ),
    "fuzzy": (
        lambda fx: s.fuzzy_search_topk(fx.idx, PATTERNS),
        lambda fx: s.FuzzyTopkExecutor(fx.idx),
        pa.schema([("query_id", pa.int64()), ("pattern", pa.string()), ("k", pa.int64())]),
    ),
    **{
        kind: (
            lambda fx, op=op, pats=pats: op(fx.idx, pats),
            lambda fx, kind=kind: s.ExpansionTopkExecutor(fx.idx, kind),
            pa.schema([("query_id", pa.int64()), ("prefix", pa.string())]),
        )
        for kind, op, pats in (
            ("prefix", s.prefix_search_topk, WILDCARDS[:1]),
            ("wildcard", s.wildcard_topk_search, WILDCARDS),
            ("regexp", s.regexp_topk_search, REGEXPS),
        )
    },
    "after": (
        lambda fx: s.search_topk_after(fx.idx, _cursors(NO_MATCH)),
        lambda fx: s.SearchAfterExecutor(fx.idx),
        QUERY.append(pa.field("after_score", pa.float64())).append(
            pa.field("after_doc_id", pa.int64())
        ),
    ),
    "collapsed": (
        lambda fx: s.search_topk_collapsed(fx.idx, NO_MATCH, "lang"),
        lambda fx: s.CollapseTopkExecutor(fx.idx, "lang"),
        QUERY,
    ),
    "fielded": (
        lambda fx: s.search_topk_fielded(fx.fields, fx.weights, NO_MATCH),
        lambda fx: s.FieldedQueryExecutor(fx.fields, fx.weights),
        QUERY,
    ),
    "dismax": (
        lambda fx: s.search_topk_dismax(fx.fields, fx.weights, NO_MATCH),
        lambda fx: s.FieldedQueryExecutor(fx.fields, fx.weights, combine="dismax"),
        QUERY,
    ),
    "bm25f": (
        lambda fx: s.search_topk_bm25f_true(fx.fields, fx.weights, NO_MATCH),
        lambda fx: s.BM25FTrueExecutor(fx.fields, fx.weights),
        QUERY,
    ),
    "rescored": (
        lambda fx: s.search_topk_rescored(fx.idx, NO_MATCH),
        lambda fx: s.RescoreExecutor(fx.idx),
        QUERY,
    ),
    "more_like_this": (
        # doc 3's terms occur in no other doc, and the source is excluded
        lambda fx: s.more_like_this(fx.idx, fx.docs, [3]),
        lambda fx: s.MoreLikeThisExecutor(fx.idx),
        pa.schema([("src_doc_id", pa.int64()), ("content", pa.string())]),
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_ranked_operators_emit_typed_empty_output(fx, case):
    run, make, input_schema = CASES[case]
    want = MLT_SCHEMA if case == "more_like_this" else TOPK_SCHEMA
    blocks = ray.get(run(fx).to_arrow_refs())
    assert blocks and all(b.num_rows == 0 and b.schema == want for b in blocks)
    out = make(fx)(input_schema.empty_table())
    assert out.num_rows == 0 and out.schema == want


FUZZY_INPUT = pa.schema([("query_id", pa.int64()), ("pattern", pa.string()), ("k", pa.int64())])
EXPANSION_INPUT = pa.schema([("query_id", pa.int64()), ("prefix", pa.string())])
PHRASE_INPUT = pa.schema([("query_id", pa.int64()), ("phrase", pa.string())])
EMPTY_LISTS = {
    "search_topk": (lambda fx: s.search_topk(fx.idx, []), lambda fx: TOPK_SCHEMA),
    "filtered": (
        lambda fx: s.search_topk_filtered(fx.idx, [], "lang", "py"),
        lambda fx: TOPK_SCHEMA,
    ),
    "fuzzy_topk": (lambda fx: s.fuzzy_search_topk(fx.idx, []), lambda fx: TOPK_SCHEMA),
    "fuzzy_term_search": (
        lambda fx: s.fuzzy_term_search(fx.idx, []),
        lambda fx: s.FuzzyCountExecutor(fx.idx)(FUZZY_INPUT.empty_table()).schema,
    ),
    "suggest_terms": (
        lambda fx: s.suggest_terms(fx.idx, []),
        lambda fx: s.SuggestExecutor(fx.idx)(FUZZY_INPUT.empty_table()).schema,
    ),
    "suggest_phrases": (
        lambda fx: s.suggest_phrases(fx.idx, []),
        lambda fx: s.PhraseSuggestExecutor(fx.idx)(PHRASE_INPUT.empty_table()).schema,
    ),
    "routed": (lambda fx: s.search_topk_routed({"a": fx.idx}, []), lambda fx: TOPK_SCHEMA),
    **{
        name: (lambda fx, op=op: op(fx.idx, []), lambda fx: TOPK_SCHEMA)
        for name, op in (
            ("prefix_topk", s.prefix_search_topk),
            ("wildcard_topk", s.wildcard_topk_search),
            ("regexp_topk", s.regexp_topk_search),
        )
    },
    **{
        name: (
            lambda fx, op=op: op(fx.idx, []),
            lambda fx, kind=kind: s.ExpansionCountExecutor(fx.idx, kind)(
                EXPANSION_INPUT.empty_table()
            ).schema,
        )
        for name, op, kind in (
            ("prefix_terms", s.prefix_term_search, "prefix"),
            ("wildcard_terms", s.wildcard_term_search, "wildcard"),
            ("regexp_terms", s.regexp_term_search, "regexp"),
        )
    },
}

# boolean, facet and positional operators: (query_id, query) input rows
EMPTY_LISTS.update(
    {
        name: (
            lambda fx, op=op, kw=kw: op(fx.idx, [], **kw),
            lambda fx, ex=ex, kw=kw: ex(fx.idx, **kw)(QUERY.empty_table()).schema,
        )
        for name, op, ex, kw in (
            ("boolean", bq.boolean_search, bq._BooleanExecutor, {}),
            ("facet", bq.facet_counts, bq._FacetExecutor, {"attr": "lang"}),
            ("phrase_positional", ph.phrase_search_positional, ph._PhrasePositionalExecutor, {}),
            ("proximity", ph.proximity_search, ph._ProximityExecutor, {"max_span": 3}),
            ("span_near", ph.span_near_search, ph._SpanNearExecutor, {"slop": 1}),
            (
                "phrase_prefix",
                ph.match_phrase_prefix,
                ph._PhrasePrefixExecutor,
                {"max_expansions": 5},
            ),
        )
    }
)


@pytest.mark.parametrize("case", list(EMPTY_LISTS))
def test_empty_query_list_keeps_the_output_schema(fx, case):
    run, want = EMPTY_LISTS[case]
    ds = run(fx)
    assert ds.schema().base_schema == want(fx)
    assert ds.take_all() == []
