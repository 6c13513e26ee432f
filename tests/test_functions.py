"""Unit tests for the scalar/vector kernels (no Ray needed).

Mirrors the reference's differential philosophy at the unit level: every
vectorized kernel is checked against a slow, obviously-correct pure-Python
implementation (SURVEY.md section 5, "unit tests per operator").
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distributed_text_search_ray.config import AnalyzerConfig
from distributed_text_search_ray.functions import codec, hashing, lev
from distributed_text_search_ray.functions.tokenize import Tokenizer


# ---------- varbyte / delta ----------

def py_varbyte_encode(values):
    out = bytearray()
    for v in values:
        v = int(v)
        while True:
            b = v & 0x7F
            v >>= 7
            if v:
                out.append(b | 0x80)
            else:
                out.append(b)
                break
    return bytes(out)


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
@settings(max_examples=200, deadline=None)
def test_varbyte_roundtrip(vals):
    arr = np.array(vals, dtype=np.uint64)
    stream, widths = codec.varbyte_encode(arr)
    assert stream.tobytes() == py_varbyte_encode(vals)
    back = codec.varbyte_decode(stream, count=len(vals))
    assert back.tolist() == vals
    assert widths.sum() == stream.size


def test_delta_roundtrip():
    ids = np.array([3, 7, 8, 100, 10**12], dtype=np.int64)
    back = codec.delta_decode(codec.delta_encode(ids))
    assert back.tolist() == ids.tolist()
    with pytest.raises(ValueError):
        codec.delta_encode(np.array([5, 5]))


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=20).map(
            lambda xs: sorted(set(xs))
        ),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=100, deadline=None)
def test_segmented_delta_roundtrip(lists):
    lists = [xs for xs in lists if xs]
    if not lists:
        return
    ids = np.concatenate([np.array(xs, dtype=np.int64) for xs in lists])
    starts = np.cumsum([0] + [len(xs) for xs in lists[:-1]])
    d = codec.segmented_delta_encode(ids, starts)
    back = codec.segmented_delta_decode(d, starts)
    assert back.tolist() == ids.tolist()


# ---------- levenshtein ----------

@given(st.text(alphabet="abcde", max_size=12), st.text(alphabet="abcde", max_size=12))
@settings(max_examples=300, deadline=None)
def test_levenshtein_matches_bruteforce(a, b):
    def brute(a, b):
        import functools

        @functools.lru_cache(maxsize=None)
        def d(i, j):
            if i == 0:
                return j
            if j == 0:
                return i
            return min(
                d(i - 1, j) + 1,
                d(i, j - 1) + 1,
                d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
            )

        return d(len(a), len(b))

    assert lev.levenshtein(a, b) == brute(a, b)


def py_windowed_count(text, pattern, k):
    """Direct transcription of the reference loop (src/apm1.c:235-281)."""
    n, m = len(text), len(pattern)
    c = 0
    for j in range(n):
        size = min(m, n - j)
        if lev.levenshtein(pattern[:size], text[j : j + size]) <= k:
            c += 1
    return c


@given(
    st.text(alphabet="ABC", max_size=40),
    st.text(alphabet="ABC", min_size=1, max_size=8),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=300, deadline=None)
def test_windowed_count_matches_reference_loop(text, pattern, k):
    assert lev.windowed_match_count(text, pattern, k) == py_windowed_count(text, pattern, k)


def test_windowed_tail_semantics():
    # SURVEY.md section 8.1: for k >= 1 the last k positions always match.
    assert lev.windowed_match_count("XYZ", "QQQQ", 2) >= 2
    # empty doc
    assert lev.windowed_match_count("", "AB", 4) == 0
    # pattern longer than doc: every position is a truncated window
    assert lev.windowed_match_count("AB", "AB", 0) == py_windowed_count("AB", "AB", 0)
    # truncated-window quirk: "ABCD" truncated to size 2 equals "AB" at j=0
    assert lev.windowed_match_count("AB", "ABCD", 0) == 1
    assert lev.windowed_match_count("AB", "ABCD", 4) == 2


@given(
    st.lists(st.text(alphabet="abxyz_01", max_size=10), max_size=30),
    st.text(alphabet="abxyz_01", min_size=1, max_size=8),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_bounded_term_distances(terms, pattern, k):
    got = lev.bounded_term_distances(pattern, terms, k)
    for t, g in zip(terms, got):
        true = lev.levenshtein(pattern, t)
        assert g == min(true, k + 1)


# ---------- tokenizer ----------

def test_tokenizer_basics():
    tk = Tokenizer(AnalyzerConfig())
    assert tk.tokens("def foo_bar(x): return X1 + y") == [
        "def", "foo_bar", "x", "return", "x1", "y",
    ]
    assert tk.token_count("") == 0
    assert tk.term_freqs("a b a")["a"] == 2


def test_batch_pairs():
    tk = Tokenizer()
    terms, doc_ids, tfs, dls, counts = tk.batch_pairs(
        np.array([10, 20, 30]), ["a b a", "", "c"]
    )
    assert counts.tolist() == [3, 0, 1]
    pair = sorted(zip(doc_ids.tolist(), terms.tolist(), tfs.tolist(), dls.tolist()))
    assert pair == [(10, "a", 2, 3), (10, "b", 1, 3), (30, "c", 1, 1)]


def test_batch_pairs_dict_equals_batch_pairs():
    """The vectorized Arrow path must produce the same pair multiset as the
    per-doc Counter reference, on a fuzzed batch."""
    from distributed_text_search_ray.functions.tokenize import batch_pairs_dict

    rng = np.random.default_rng(9)
    words = ["def", "foo", "x", "y1", "return", "self", "bar_baz"]
    texts = [
        " ".join(rng.choice(words, int(rng.integers(0, 30)))) for _ in range(50)
    ] + ["", "!!!"]
    ids = np.arange(100, 100 + len(texts), dtype=np.int64)
    tk = Tokenizer()
    t1, d1, f1, l1, c1 = tk.batch_pairs(ids, texts)
    t2, d2, f2, l2, c2 = batch_pairs_dict(tk, ids, texts)
    ref = sorted(zip(d1.tolist(), t1.tolist(), f1.tolist(), l1.tolist()))
    got = sorted(zip(d2.tolist(), t2.cast("string").to_pylist(), f2.tolist(), l2.tolist()))
    assert got == ref
    assert c1.tolist() == c2.tolist()


# ---------- hashing ----------

def test_hashing_stable():
    assert hashing.stable_u64("def") == hashing.stable_u64("def")
    assert hashing.doc_fingerprint("r", "p") != hashing.doc_fingerprint("r", "q")
    assert 0 <= hashing.term_partition("import", 16) < 16
    parts = hashing.term_partitions_batch(np.array(["a", "b", "a"], dtype=object), 8)
    assert parts[0] == parts[2]


def test_minhash_similarity_correlates():
    rng = np.random.default_rng(0)
    base = rng.integers(0, 2**63, 200, dtype=np.uint64)
    a = base
    b = np.concatenate([base[:180], rng.integers(0, 2**63, 20, dtype=np.uint64)])
    sa = hashing.minhash_signature(a, 128)
    sb = hashing.minhash_signature(b, 128)
    est = (sa == sb).mean()
    true_j = len(set(a.tolist()) & set(b.tolist())) / len(set(a.tolist()) | set(b.tolist()))
    assert abs(est - true_j) < 0.15


def test_simhash_near_dup():
    toks = ["def", "foo", "return", "x"] * 10
    a = hashing.simhash64(toks)
    b = hashing.simhash64(toks + ["extra"])
    ham = bin(a ^ b).count("1")
    # adding one weight-1 token can only flip bits whose 4-way +-10 sum was 0
    # (P=6/16 per bit) and where the new hash bit is 1 (x1/2): E[ham]=12,
    # sigma~2.9 -> 24 is a >4-sigma bound
    assert ham <= 24
    assert hashing.simhash64([]) == 0


def test_rolling_fingerprint_deterministic():
    assert hashing.rolling_fingerprint("hello") == hashing.rolling_fingerprint("hello")
    assert hashing.rolling_fingerprint("hello") != hashing.rolling_fingerprint("hellp")


@given(
    st.lists(st.text(alphabet="ABC", max_size=25), max_size=8),
    st.text(alphabet="ABC", min_size=1, max_size=6),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_windowed_count_many_equals_per_doc(texts, pattern, k):
    want = sum(py_windowed_count(t, pattern, k) for t in texts)
    assert lev.windowed_match_count_many(texts, pattern, k) == want


@given(
    st.lists(st.text(alphabet="ABC", max_size=25), max_size=6),
    st.lists(
        st.tuples(st.text(alphabet="ABC", min_size=1, max_size=6),
                  st.integers(min_value=0, max_value=3)),
        min_size=1, max_size=8,
    ),
)
@settings(max_examples=150, deadline=None)
def test_windowed_counts_multi_equals_per_pattern(texts, pats):
    patterns = [(i, p, k) for i, (p, k) in enumerate(pats)]
    got = lev.windowed_match_counts_multi(texts, patterns)
    for qid, p, k in patterns:
        want = sum(py_windowed_count(t, p, k) for t in texts)
        assert got[qid] == want, (p, k)


@given(
    st.text(alphabet="ABC", max_size=40),
    st.lists(st.integers(min_value=1, max_value=12), max_size=4),
    st.lists(
        st.tuples(st.text(alphabet="ABC", min_size=1, max_size=6),
                  st.integers(min_value=0, max_value=3)),
        min_size=1, max_size=6,
    ),
)
@settings(max_examples=150, deadline=None)
def test_windowed_counts_multi_over_halo_segments_equals_whole_text(text, cuts, pats):
    """A text cut into halo'd segments, as the tiled APM plan cuts it
    (``owned`` window starts each, ``m_max - 1`` halo chars, tail windows
    wherever the segment reaches the text's end — also before a final
    segment shorter than the halo), counts exactly what the whole text
    counts."""
    patterns = [(i, p, k) for i, (p, k) in enumerate(pats)]
    m_max = max(len(p) for p, _ in pats)
    bounds = sorted({min(c, len(text)) for c in np.cumsum(cuts)} | {0, len(text)})
    spans = list(zip(bounds, bounds[1:])) or [(0, 0)]
    segs = [text[s : e + m_max - 1] for s, e in spans]
    owned = [e - s for s, e in spans]
    tails = [e + m_max - 1 >= len(text) for _, e in spans]
    got = lev.windowed_match_counts_multi(segs, patterns, owned=owned, tails=tails)
    for qid, p, k in patterns:
        assert got[qid] == py_windowed_count(text, p, k), (p, k)


# Alphabet on which the pigeonhole filter prunes: 10 symbols, two of them
# above U+00FF, so a random 2-char piece occurs at ~1% of positions.
APM_ALPHA = "ABCDEFGHé€"


@st.composite
def _pruning_apm_case(draw):
    """Texts over APM_ALPHA and (qid, pattern, k) triples: patterns cut from
    the texts with a few substitutions, insertions and deletions (so that
    near matches at shifted offsets exist), free patterns, one large (m, k)
    group, and duplicates."""
    texts = draw(st.lists(st.text(alphabet=APM_ALPHA, max_size=60), max_size=5))
    joined = "".join(texts) or APM_ALPHA
    ch = st.sampled_from(APM_ALPHA)

    def near(m):
        i = draw(st.integers(0, len(joined) - 1))
        p = list(joined[i : i + m + 2])
        for op in draw(st.lists(st.sampled_from("sid"), max_size=3)):
            j = draw(st.integers(0, len(p)))
            if op == "i":
                p.insert(j, draw(ch))
            elif p and j < len(p):
                if op == "s":
                    p[j] = draw(ch)
                else:
                    del p[j]
        p = "".join(p)[:m]
        return p + draw(st.text(alphabet=APM_ALPHA, min_size=m - len(p), max_size=m - len(p)))

    m = draw(st.integers(1, 8))
    k = draw(st.integers(0, 5))
    pats = [(near(m), k) for _ in range(draw(st.integers(1, 12)))]  # one big group
    for _ in range(draw(st.integers(0, 6))):
        m2 = draw(st.integers(1, 8))
        free = st.text(alphabet=APM_ALPHA, min_size=m2, max_size=m2)
        p = near(m2) if draw(st.booleans()) else draw(free)
        pats.append((p, draw(st.integers(0, 5))))
    pats += draw(st.lists(st.sampled_from(pats), max_size=3))  # duplicates
    return texts, [(q, p, k) for q, (p, k) in enumerate(pats)]


@given(_pruning_apm_case(), st.sampled_from([1, 40, 400, lev._LANE_BUDGET]))
@settings(max_examples=300, deadline=None)
def test_windowed_counts_multi_filter_matches_reference_loop(case, budget):
    """Filter + verify counts exactly what the reference loop counts, with k
    from 0 to 5 (k >= m included), on an alphabet where most windows are
    pruned, and with the lane budget small enough that a group spans many
    text chunks."""
    texts, patterns = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lev, "_LANE_BUDGET", budget)
        got = lev.windowed_match_counts_multi(texts, patterns)
    for qid, p, k in patterns:
        assert got[qid] == sum(py_windowed_count(t, p, k) for t in texts), (p, k)


def test_windowed_counts_multi_every_window_a_candidate():
    """Worst case of the filter: every window of "a" * N holds every piece,
    so every (pattern, window) pair goes to the verify DP."""
    text = "a" * 3000
    pats = [(0, "aaaa", 1), (1, "aaab", 1), (2, "abba", 1), (3, "aaaa", 0)]
    got = lev.windowed_match_counts_multi([text], pats)
    assert got[0] == got[1] == got[3] == len(text)
    assert got == {q: lev.windowed_match_count(text, p, k) for q, p, k in pats}


def test_oracle_windowed_counts_does_not_use_the_filter(monkeypatch):
    """The oracle runs the unfiltered banded DP: with the pigeonhole filter
    broken it still returns the reference loop's answer."""
    from distributed_text_search_ray import oracle

    def broken(*args, **kwargs):
        raise AssertionError("pigeonhole filter called")

    monkeypatch.setattr(lev, "_piece_candidates", broken)
    docs = [(0, "ABCAB€ABéCAAB"), (1, "BAC"), (2, "")]
    pats = [(0, "ABC", 1), (1, "ABéC", 2), (2, "CA", 0)]
    with pytest.raises(AssertionError, match="pigeonhole"):
        lev.windowed_match_counts_multi([t for _, t in docs], pats)
    want = [(q, sum(py_windowed_count(t, p, k) for _, t in docs)) for q, p, k in pats]
    assert oracle.oracle_windowed_counts(docs, pats) == want


def test_segment_format_roundtrip_and_block_decode(tmp_path):
    """v3 segment format property test: random posting lists round-trip at
    edge block sizes (the doc-id delta-restart interval), and the terms
    table carries no per-block metadata."""
    import os

    import pyarrow as pa

    from distributed_text_search_ray.config import IndexConfig
    from distributed_text_search_ray.state.segment import (
        SegmentReader,
        build_segment_tables,
        write_segment,
    )

    rng = np.random.default_rng(17)
    for block_size in (1, 2, 3, 5, 128):
        terms = [f"t{i:03d}" for i in range(12)]
        rows = []
        for code, t in enumerate(terms):
            df = int(rng.integers(1, 40))
            docs = np.sort(rng.choice(10_000, size=df, replace=False))
            for d in docs:
                rows.append((code, int(d), int(rng.integers(1, 9)), int(rng.integers(5, 500))))
        rows.sort()
        codes = np.array([r[0] for r in rows])
        doc_ids = np.array([r[1] for r in rows], dtype=np.int64)
        tfs = np.array([r[2] for r in rows], dtype=np.int64)
        dls = np.array([r[3] for r in rows], dtype=np.int64)
        cfg = IndexConfig(block_size=block_size)
        tt, db, tb, lb, stats = build_segment_tables(
            codes, terms, doc_ids, tfs, dls, cfg
        )
        seg = tmp_path / f"seg_{block_size}"
        seg.mkdir()
        write_segment(str(seg), tt, db, tb, lb)
        r = SegmentReader(str(seg))
        assert r.block_size == block_size
        assert not [c for c in r.terms_table.column_names if c.startswith("block_")]
        for code, t in enumerate(terms):
            m = codes == code
            want = (doc_ids[m], tfs[m], dls[m])
            got = r.postings(t)
            for a, b in zip(got, want):
                assert np.array_equal(a, b), (block_size, t)
        assert r.term_row("zzz_absent") is None
