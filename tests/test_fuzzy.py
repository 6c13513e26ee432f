"""Fuzzy search differential tests.

Covers both fuzzy paths (SURVEY.md section 7 phase 4 + section 8):
- distributed windowed APM counts == oracle (reference conformance semantics);
- dictionary-banded term expansion == brute-force expansion (oracle).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distributed_text_search_ray import IndexConfig
from distributed_text_search_ray.oracle import (
    oracle_fuzzy_terms,
    oracle_windowed_counts,
)
from distributed_text_search_ray.pipelines.apm import windowed_match_counts
from distributed_text_search_ray.pipelines.build import build_index
from distributed_text_search_ray.pipelines.search import fuzzy_term_search
from distributed_text_search_ray.sources.corpus import read_corpus
from tests.conftest import corpus_docs

# grid mirrors the reference scenarios (test_generation.py:70-93): short and
# long patterns, k in {0,1,4}, duplicates counted independently (script.sh:11),
# single-char pattern, k >= len(pattern)
APM_PATTERNS = [
    (0, "data", 0),
    (1, "data", 1),
    (2, "data", 1),        # duplicate of 1 — must count independently
    (3, "merge index", 1),
    (4, "x", 0),
    (5, "qq", 4),          # k >= len: every position matches
    (6, "zzzzzzzz", 2),
    (7, "def tokenize_batch", 4),
]

FUZZY_TERMS = [
    (0, "def", 0),
    (1, "def", 1),
    (2, "merge", 1),
    (3, "tokn", 2),
    (4, "zzzzz", 1),
    (5, "import", 4),
]


def test_apm_counts_match_oracle(code_corpus):
    corpus_dir, _ = code_corpus
    docs = corpus_docs(corpus_dir)
    expected = dict(oracle_windowed_counts(docs, APM_PATTERNS))
    got = {
        r["query_id"]: r["n_matches"]
        for r in windowed_match_counts(corpus_dir, APM_PATTERNS).take_all()
    }
    assert got == expected
    assert got[1] == got[2]  # duplicates independent and equal
    total_chars = sum(len(t) for _, t in docs)
    assert got[5] == total_chars  # k >= len(pattern): every position matches


def test_apm_on_dataset_input(code_corpus):
    corpus_dir, _ = code_corpus
    ds = read_corpus(corpus_dir, columns=["content"])
    got = windowed_match_counts(ds, [(0, "data", 0)]).take_all()
    docs = corpus_docs(corpus_dir)
    assert got[0]["n_matches"] == dict(oracle_windowed_counts(docs, [(0, "data", 0)]))[0]


@pytest.fixture(scope="module")
def fuzzy_index(code_corpus, tmp_path_factory):
    corpus_dir, _ = code_corpus
    index_dir = str(tmp_path_factory.mktemp("fidx") / "idx")
    cfg = IndexConfig(num_partitions=8, salt_buckets=3)
    build_index(corpus_dir, index_dir, cfg)
    return corpus_dir, index_dir, cfg


def test_fuzzy_term_search_matches_oracle(fuzzy_index):
    corpus_dir, index_dir, cfg = fuzzy_index
    docs = corpus_docs(corpus_dir)
    expected = {
        q: (nt, nd, no)
        for q, nt, nd, no in oracle_fuzzy_terms(docs, FUZZY_TERMS, cfg.analyzer)
    }
    got = {
        r["query_id"]: (r["n_matching_terms"], r["n_docs"], r["n_occurrences"])
        for r in fuzzy_term_search(index_dir, FUZZY_TERMS).take_all()
    }
    assert got == expected


def test_suggest_terms_df_ranked(fuzzy_index):
    import re
    from collections import Counter

    from distributed_text_search_ray.pipelines.search import suggest_terms

    corpus_dir, index_dir, cfg = fuzzy_index
    docs = corpus_docs(corpus_dir)
    df = Counter(t for _, c in docs for t in set(re.findall(r"[a-z0-9_]+", c.lower())))
    # misspell the most frequent term by one char; suggestion must restore it
    top = max(df, key=lambda t: (df[t], t))
    typo = top[:-1] + ("x" if top[-1] != "x" else "y")
    rows = suggest_terms(index_dir, [(0, typo, 1), (1, "zzqqzz", 1)]).take_all()
    by_q = {r["query_id"]: r for r in rows}
    assert by_q[0]["suggestion"] == top and by_q[0]["df"] == df[top]
    assert by_q[0]["distance"] == 1
    assert 1 not in by_q  # no candidate within distance -> no row


def test_extract_keywords_ranks_rare_terms(fuzzy_index):
    import pyarrow as pa
    import ray.data

    from distributed_text_search_ray.pipelines.search import extract_keywords

    corpus_dir, index_dir, _cfg = fuzzy_index
    docs = corpus_docs(corpus_dir)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
                "content": pa.array([c for _, c in docs], type=pa.string()),
            }
        )
    )
    rows = extract_keywords(index_dir, ds, k=3).take_all()
    by_doc = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append(r)
    assert len(by_doc) == len(docs)
    for d, rs in by_doc.items():
        assert sorted(r["rank"] for r in rs) == list(range(1, len(rs) + 1))
        scores = [r["score"] for r in sorted(rs, key=lambda r: r["rank"])]
        assert scores == sorted(scores, reverse=True)


def test_osa_kernel_matches_python_reference_and_diverges_correctly():
    """bounded_term_distances_osa == the pure-Python OSA reference on a
    4-letter-alphabet fuzz sweep, INCLUDING the cases where OSA differs
    from both classic Levenshtein (swap counts 1) and unrestricted
    Damerau (no double-edit of a substring: 'CA'->'ABC' is 3, not 2 —
    the k>=2 regime DuckDB's damerau_levenshtein cannot oracle)."""
    import random

    from distributed_text_search_ray.functions.lev import (
        bounded_term_distances,
        bounded_term_distances_osa,
        osa_distance,
    )

    assert osa_distance("CA", "ABC") == 3          # OSA restriction
    assert osa_distance("ab", "ba") == 1           # swap = one edit
    assert osa_distance("sprak", "spark") == 1
    assert bounded_term_distances("sprak", ["spark"], 1)[0] == 2  # classic lev caps
    assert bounded_term_distances_osa("sprak", ["spark"], 1)[0] == 1
    assert list(bounded_term_distances_osa("CA", ["ABC"], 2)) == [3]

    rng = random.Random(7)
    alpha = "abcd"
    for _ in range(1500):
        p = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 6)))
        terms = [
            "".join(rng.choice(alpha) for _ in range(rng.randint(0, 7)))
            for _ in range(4)
        ]
        for k in (0, 1, 2, 3):
            got = list(bounded_term_distances_osa(p, terms, k))
            want = [min(osa_distance(p, t), k + 1) for t in terms]
            assert got == want, (p, terms, k, got, want)


def test_fuzzy_topk_transpositions_expand_swapped_terms(built_index_r3):
    """fuzzy_search_topk(transpositions=True) retrieves docs for a
    swapped-letter misspelling at k=1 where the classic path finds
    nothing (the ES fuzziness contract)."""
    from distributed_text_search_ray.pipelines.search import fuzzy_search_topk

    _, index_dir = built_index_r3
    pats = [(0, "improt", 1)]  # 'import' with the r/t swap; corpus is code_like
    classic = fuzzy_search_topk(index_dir, pats, topk=5).take_all()
    osa = fuzzy_search_topk(index_dir, pats, topk=5, transpositions=True).take_all()
    assert len(osa) > 0
    # classic lev distance of 'improt'->'import' is 2: k=1 finds nothing
    # unless some other distance-1 term exists (it doesn't in this corpus)
    assert len(classic) == 0


# dictionary alphabets: ASCII (a uint8 store), and one with codepoints above
# U+00FF and U+FFFF (a uint32 store)
DICT_ALPHABETS = ("ab", "abcd", "abé€𝄞")


@st.composite
def _expansion_case(draw):
    """A random dictionary and a batch of (pattern, k) pairs: edited
    dictionary terms, free patterns (characters no term holds included),
    empty tokens, k >= m, several (m, k) groups in one batch, duplicates."""
    alpha = draw(st.sampled_from(DICT_ALPHABETS))
    terms = draw(st.lists(st.text(alphabet=alpha, min_size=1, max_size=9), max_size=40, unique=True))
    pat_alpha = alpha + "x𝄞"
    ch = st.sampled_from(pat_alpha)

    def edited(t):
        p = list(t)
        for op in draw(st.lists(st.sampled_from("sidt"), max_size=3)):
            j = draw(st.integers(0, len(p)))
            if op == "i":
                p.insert(j, draw(ch))
            elif op == "t" and j + 1 < len(p):
                p[j], p[j + 1] = p[j + 1], p[j]
            elif j < len(p):
                if op == "s":
                    p[j] = draw(ch)
                else:
                    del p[j]
        return "".join(p)

    pats = []
    for _ in range(draw(st.integers(1, 14))):
        if terms and draw(st.booleans()):
            p = edited(draw(st.sampled_from(terms)))
        else:
            p = draw(st.text(alphabet=pat_alpha, max_size=7))
        pats.append((p, draw(st.integers(0, 4))))
    pats.append(("", draw(st.integers(0, 3))))  # an empty first token
    pats += draw(st.lists(st.sampled_from(pats), max_size=4))  # duplicates
    return sorted(terms), pats


@given(_expansion_case(), st.booleans(), st.sampled_from([1, 40, 1 << 21]))
@settings(max_examples=300, deadline=None)
def test_expand_many_matches_per_term_reference(case, transpositions, budget):
    """``DictionaryExpander.expand_many`` returns, for each pattern of a
    batch, exactly the ascending dictionary indices within distance k and
    their distances, as per-term ``levenshtein`` / ``osa_distance`` give
    them, with the lane budget small enough that a group's lanes split into
    many chunks."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_text_search_ray.functions import lev
    from distributed_text_search_ray.stages.executor import DictionaryExpander

    terms, pats = case
    ref = lev.osa_distance if transpositions else lev.levenshtein
    with tempfile.TemporaryDirectory() as d:
        os.makedirs(os.path.join(d, "dictionary"))
        n = len(terms)
        pq.write_table(
            pa.table({"term": pa.array(terms, pa.string()), "df": [1] * n, "cf": [1] * n}),
            os.path.join(d, "dictionary", "part-0.parquet"),
        )
        exp = DictionaryExpander(d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lev, "_LANE_BUDGET", budget)
        got = exp.expand_many(pats, transpositions=transpositions)
    assert len(got) == len(pats)
    for (p, k), (idx, dists) in zip(pats, got):
        want = [(i, ref(p, t)) for i, t in enumerate(terms) if ref(p, t) <= k]
        assert list(zip(idx.tolist(), dists.tolist())) == want, (p, k)
    store = exp.store
    chars = sum(len(t) for t in terms)
    longest = max(map(len, terms), default=0)
    assert store.nbytes == chars * store.codes.itemsize + 4 * n + 16 * (longest + 2)
