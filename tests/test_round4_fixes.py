"""Round-4 fix pins: bounded cosine-dup tiling, quantile null/NaN handling,
regex-literal character-class parsing, by-name aggregate renames."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data


# ---------------------------------------------------------------- tiling

def test_tile_block_count_grows_with_input():
    """Per-task memory must stay constant in N: the tile grid grows with
    the row count instead of tiles growing with it (VERDICT r3 item 4)."""
    from distributed_text_search_ray.pipelines.ann import (
        _TILE_ROWS_PER_BLOCK,
        tile_block_count,
    )

    assert tile_block_count(0) == 64
    assert tile_block_count(1_000) == 64  # floor keeps small inputs fanned out
    assert tile_block_count(64 * _TILE_ROWS_PER_BLOCK) == 64
    assert tile_block_count(100 * _TILE_ROWS_PER_BLOCK) == 100
    assert tile_block_count(100 * _TILE_ROWS_PER_BLOCK + 1) == 101
    # monotone growth, bounded rows per block
    prev = 0
    for n in [10**5, 10**6, 10**7, 10**8, 10**9]:
        m = tile_block_count(n)
        assert m >= prev
        assert -(-n // m) <= _TILE_ROWS_PER_BLOCK
        prev = m


def test_cosine_dup_pairs_exact_after_retile():
    from distributed_text_search_ray.pipelines.ann import cosine_dup_pairs

    rng = np.random.default_rng(5)
    base = rng.normal(size=(30, 8))
    vecs = list(base)
    # plant two near-dup pairs
    vecs[10] = vecs[3] + rng.normal(scale=1e-3, size=8)
    vecs[20] = vecs[7] + rng.normal(scale=1e-3, size=8)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(30), type=pa.int64()),
                "embedding": pa.array([v.tolist() for v in vecs]),
            }
        )
    )
    got = sorted(
        (r["vec_id_a"], r["vec_id_b"])
        for r in cosine_dup_pairs(ds, threshold=0.99).take_all()
    )
    mat = np.stack(vecs)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    sims = mat @ mat.T
    want = sorted(
        (i, j) for i in range(30) for j in range(i + 1, 30) if sims[i, j] >= 0.99
    )
    assert got == want
    assert (3, 10) in got and (7, 20) in got


# -------------------------------------------------------- quantile guards

def test_float_quantiles_skip_null_and_nan():
    """Null/NaN rows are excluded like quantile_disc skips nulls — before
    the fix a NaN became INT64_MIN in the bin index and poisoned the
    histogram (ADVICE r3)."""
    from distributed_text_search_ray.pipelines.relational import float_quantiles

    vals = [float(v) for v in range(1, 101)]
    dirty = vals + [float("nan")] * 7
    arr = pa.array(dirty, type=pa.float64())
    # add genuine nulls too
    arr = pa.concat_arrays([arr, pa.array([None, None], type=pa.float64())])
    ds = ray.data.from_arrow(pa.table({"value": arr}))
    got = {r["q"]: r["value"] for r in float_quantiles(ds, "value").take_all()}
    # quantile_disc over the 100 clean values: element at rank ceil(q*100)
    assert got == {0.25: 25.0, 0.5: 50.0, 0.75: 75.0, 0.95: 95.0}


def test_grouped_float_quantiles_skip_null_and_nan():
    from distributed_text_search_ray.pipelines.relational import (
        grouped_float_quantiles,
    )

    rows_g = ["a"] * 52 + ["b"] * 43
    vals = [float(v) for v in range(1, 51)] + [float("nan"), None] + [
        float(v) for v in range(100, 140)
    ] + [None, float("nan"), float("inf")]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "g": pa.array(rows_g, type=pa.string()),
                "value": pa.array(vals, type=pa.float64()),
            }
        )
    )
    out = grouped_float_quantiles(ds, "g", "value").take_all()
    got = {(r["g"], r["q"]): r["value"] for r in out}
    # group a: 50 clean values 1..50; group b: 100..139 PLUS +inf (41 ranked
    # values — inf is orderable and holds a rank, quantile_disc semantics)
    assert got[("a", 0.5)] == 25.0
    assert got[("a", 0.95)] == 48.0  # ceil(0.95*50)=48
    assert got[("b", 0.25)] == 110.0  # ceil(0.25*41)=11 -> 110
    assert got[("b", 0.5)] == 120.0  # ceil(0.5*41)=21 -> 120


def test_float_quantiles_inf_ranks_match_duckdb():
    """+/-inf values participate in ranks exactly like quantile_disc: low
    quantiles land on -inf, high on +inf, middle on the finite run."""
    import duckdb

    from distributed_text_search_ray.pipelines.relational import float_quantiles

    vals = [float("-inf")] * 30 + [float(v) for v in range(1, 41)] + [
        float("inf")
    ] * 30
    ds = ray.data.from_arrow(
        pa.table({"value": pa.array(vals, type=pa.float64())})
    )
    got = {r["q"]: r["value"] for r in float_quantiles(ds, "value").take_all()}
    con = duckdb.connect()
    for q in (0.25, 0.5, 0.75, 0.95):
        want = con.execute(
            "SELECT quantile_disc(v, ?) FROM (SELECT unnest(?::DOUBLE[]) v)",
            [q, vals],
        ).fetchone()[0]
        assert got[q] == want, (q, got[q], want)
    assert got[0.25] == float("-inf") and got[0.95] == float("inf")


# ------------------------------------------------- regex literal extractor

def test_required_regex_literal_class_leading_bracket():
    """']' immediately after '[' or '[^' is a literal inside the class —
    the old scanner closed the class there and extracted a non-required
    literal (ADVICE r3, medium)."""
    from distributed_text_search_ray.pipelines.textstats import (
        _required_regex_literal as lit,
    )

    assert lit("[]a]x") == "x"
    assert lit("[^]a]x") == "x"
    assert lit("foo[]]bar") == "foo"
    # unchanged behavior on ordinary classes
    assert lit("cust[a-z]*") == "cust"
    assert lit("[0-9]+") is None
    assert lit("plain_literal") == "plain_literal"


def test_regex_counts_indexed_class_leading_bracket(built_index_r3):
    """End-to-end: a pattern whose class starts with ']' must count the
    same docs through the index-pruned path as through a direct scan."""
    import re

    from distributed_text_search_ray.pipelines.textstats import (
        regex_match_counts,
        regex_match_counts_indexed,
    )
    from tests.conftest import corpus_docs

    corpus_dir, index_dir = built_index_r3
    docs = corpus_docs(corpus_dir)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
                "content": pa.array([t for _, t in docs], type=pa.string()),
            }
        )
    )
    # matches either a literal ']e' or 'ae' — 'a' alone is NOT required
    queries = [(0, "[]a]e"), (1, "[^]x]def")]
    scan = {
        (r["query_id"], r["doc_id"]): r["n_matches"]
        for r in regex_match_counts(ds, queries).take_all()
    }
    idx = {
        (r["query_id"], r["doc_id"]): r["n_matches"]
        for r in regex_match_counts_indexed(index_dir, ds, queries).take_all()
    }
    assert scan == idx
    # sanity: the patterns actually match something in the corpus
    assert sum(scan.values()) > 0


# ----------------------------------------------------------- agg_rename

def test_agg_rename_is_position_independent():
    from distributed_text_search_ray.util import agg_rename

    g = (
        pa.table({"k": ["a", "a", "b"], "v": [1, 2, 3]})
        .group_by("k")
        .aggregate([("v", "sum"), ("v", "count")])
    )
    out = agg_rename(g, ["k"], [("v", "sum"), ("v", "count")], ["s", "n"])
    assert out.column_names == ["k", "s", "n"]
    assert out.sort_by("k").to_pydict() == {
        "k": ["a", "b"],
        "s": [3, 3],
        "n": [2, 1],
    }
    # a keys-LAST layout (older pyarrow) still resolves correctly
    shuffled = g.select(
        [n for n in g.column_names if n != "k"] + ["k"]
    )
    out2 = agg_rename(shuffled, ["k"], [("v", "sum"), ("v", "count")], ["s", "n"])
    assert out2.sort_by("k").to_pydict() == out.sort_by("k").to_pydict()


# ------------------------------------------------ near-dedup default path

def test_near_dedup_filter_default_is_anti_join():
    import inspect

    from distributed_text_search_ray.pipelines.dedup import near_dedup_filter

    sig = inspect.signature(near_dedup_filter)
    assert sig.parameters["anti_join"].default is True


# ------------------------------------- near-dedup recall-exact shingle mode

def test_near_dedup_shingle_bucket_matches_python_oracle():
    """bucket="shingle" (the SQL-gated conformance config) == a pure-Python
    replay of the rule: anchor = min doc per distinct trigram shingle; a doc
    is dropped iff exact shingle-Jaccard to any of its anchors >= threshold.
    """
    from distributed_text_search_ray.functions.hashing import shingle_hashes
    from distributed_text_search_ray.functions.tokenize import tokenizer_for
    from distributed_text_search_ray.pipelines.dedup import near_dedup_filter

    rng = np.random.default_rng(11)
    ids, texts = [], []
    # near-dup clusters, singletons, a zero-token doc, sub-3-token docs
    for g in range(12):
        base = [f"c{g}t{k}" for k in range(20)]
        for v in range(3):
            words = list(base)
            if v:
                words[int(rng.integers(0, 20))] = f"c{g}v{v}x"
            ids.append(g * 10 + v)
            texts.append(" ".join(words))
    ids += [900, 901, 902, 903]
    texts += ["", "one", "two tokens", "solo words only here"]
    THRESH = 0.5

    tk = tokenizer_for(None)
    sets = {d: set(shingle_hashes(tk.tokens(t), 3).tolist()) for d, t in zip(ids, texts)}
    anchor: dict[int, int] = {}
    for d in sorted(ids):
        for s in sets[d]:
            anchor.setdefault(s, d)
    dropped = set()
    for d in ids:
        for s in sets[d]:
            a = anchor[s]
            if a == d:
                continue
            inter = len(sets[a] & sets[d])
            union = len(sets[a] | sets[d])
            if union and inter / union >= THRESH:
                dropped.add(d)
                break
    want = sorted(set(ids) - dropped)

    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "content": pa.array(texts, type=pa.string()),
            }
        )
    )
    kept = sorted(
        r["doc_id"]
        for r in near_dedup_filter(
            ds, threshold=THRESH, bucket="shingle", pair_partitions=16
        ).take_all()
    )
    assert kept == want
    # the planted structure itself: one representative per cluster plus all
    # the shingle-less / tiny docs survive
    assert set(g * 10 for g in range(12)) <= set(kept)
    assert {900, 901, 902, 903} <= set(kept)


# -------------------------------------- k-means deterministic conformance

def test_kmeans_first_k_round_dp_matches_numpy_replay():
    """init="first_k" + round_dp=9 (the SQL-gated conformance config) == a
    single-matrix numpy replay of the rounded spherical-Lloyd trajectory,
    bit-for-bit on (vec_id, cluster, cosine) regardless of block layout."""
    from distributed_text_search_ray.pipelines.ann import kmeans_clusters
    from distributed_text_search_ray.util import round_half_away

    rng = np.random.default_rng(7)
    K, DIM, N, ITERS = 4, 8, 300, 3
    centers = rng.normal(size=(K, DIM)) * 3
    X = np.concatenate(
        [centers[i % K] + rng.normal(size=DIM) * 0.4 for i in range(N)]
    ).reshape(N, DIM)
    ids = np.arange(100, 100 + N, dtype=np.int64)

    # numpy replay of the documented trajectory
    Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-30)
    C = round_half_away(Xn[:K].copy(), 9)  # k smallest vec_ids are rows 0..K-1
    for _ in range(ITERS):
        assign = np.argmax(Xn @ C.T, axis=1)
        C = C.copy()
        for j in range(K):
            m = assign == j
            if m.any():
                c = Xn[m].mean(axis=0)
                C[j] = c / max(np.linalg.norm(c), 1e-30)
        C = round_half_away(C, 9)
    assign = np.argmax(Xn @ C.T, axis=1)
    cosine = round_half_away(Xn[np.arange(N), :] @ C.T, 6)[np.arange(N), assign]
    want = sorted(zip(ids.tolist(), assign.tolist(), cosine.tolist()))

    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids, type=pa.int64()),
                "embedding": pa.array(X.tolist(), type=pa.list_(pa.float64())),
            }
        )
    ).repartition(7)  # odd block layout must not change the trajectory
    got = sorted(
        (r["vec_id"], r["cluster"], r["cosine"])
        for r in kmeans_clusters(
            ds, n_clusters=K, iters=ITERS, init="first_k", round_dp=9
        ).take_all()
    )
    assert got == want
    assert len(set(a for _, a, _ in got)) > 1  # actually clusters


# ----------------------------------------- hybrid sparse fetch escalation

def test_hybrid_sparse_fetch_escalates_through_rounded_tie_tier(tmp_path):
    """A corpus where every doc shares one 6-dp BM25 score tier: the raw
    2*fetch_k buffer cannot see the whole tie tier, so the sparse fetch
    must escalate until it does — the fused top-k are then the smallest
    doc_ids (rounded-desc, doc_id-asc over ALL docs), exactly what the SQL
    twin computes."""
    import pyarrow.parquet as pq_

    from distributed_text_search_ray import IndexConfig
    from distributed_text_search_ray.pipelines.build import build_index
    from distributed_text_search_ray.pipelines.search import hybrid_search_topk
    from distributed_text_search_ray.sources.corpus import read_corpus
    from tests.conftest import corpus_docs

    n = 30
    d = tmp_path / "c"
    d.mkdir()
    pq_.write_table(
        pa.table(
            {
                "repo": ["r"] * n,
                "path": [f"f{i:03d}.py" for i in range(n)],
                "commit": ["c"] * n,
                "lang": ["py"] * n,
                "content": ["alpha beta gamma"] * n,  # identical -> exact score ties
            }
        ),
        str(d / "shard_00000.parquet"),
    )
    idx = str(tmp_path / "idx")
    build_index(str(d), idx, IndexConfig(num_partitions=2))

    K, M = 3, 4  # k <= fetch_k; initial raw fetch 2*M=8 << 30 tied docs
    got = hybrid_search_topk(
        idx,
        read_corpus(str(d), columns=["doc_id", "content"]),
        [(0, "alpha")],
        k=K,
        fetch_k=M,
    ).take_all()
    all_ids = sorted(doc_id for doc_id, _ in corpus_docs(str(d)))
    assert [r["doc_id"] for r in sorted(got, key=lambda r: r["rank"])] == all_ids[:K]


def test_hybrid_sparse_escalation_is_per_query(tmp_path):
    """A mixed batch — one query hitting a 30-doc rounded tie tier, one
    selective query — must return, per query, exactly what each returns
    when run alone: escalation re-fetches only the unresolved query, and
    resolved lists are not disturbed by later rounds."""
    import pyarrow.parquet as pq_

    from distributed_text_search_ray import IndexConfig
    from distributed_text_search_ray.pipelines.build import build_index
    from distributed_text_search_ray.pipelines.search import hybrid_search_topk
    from distributed_text_search_ray.sources.corpus import read_corpus

    n = 30
    d = tmp_path / "c"
    d.mkdir()
    content = ["alpha beta gamma"] * n  # identical -> one big rounded tie tier
    content[7] = "zeta eta theta"       # the only doc matching the selective query
    pq_.write_table(
        pa.table(
            {
                "repo": ["r"] * n,
                "path": [f"f{i:03d}.py" for i in range(n)],
                "commit": ["c"] * n,
                "lang": ["py"] * n,
                "content": content,
            }
        ),
        str(d / "shard_00000.parquet"),
    )
    idx = str(tmp_path / "idx")
    build_index(str(d), idx, IndexConfig(num_partitions=2))
    corpus = read_corpus(str(d), columns=["doc_id", "content"])

    K, M = 3, 4
    batch = hybrid_search_topk(
        idx, corpus, [(0, "alpha"), (1, "zeta")], k=K, fetch_k=M
    ).take_all()
    for qid, qtext in [(0, "alpha"), (1, "zeta")]:
        alone = hybrid_search_topk(
            idx, corpus, [(qid, qtext)], k=K, fetch_k=M
        ).take_all()
        got = sorted(
            ((r["rank"], r["doc_id"]) for r in batch if r["query_id"] == qid)
        )
        want = sorted(((r["rank"], r["doc_id"]) for r in alone))
        assert got == want, qid


# ------------------------------------------------------- semantic_dedup

def _semantic_corpus(seed=7, n_per=20, dim=8):
    """Two planted directional clusters with exact near-dup pairs inside
    each, plus one CROSS-cluster near-dup pair (ids 998/999 land in
    different clusters by construction)."""
    rng = np.random.default_rng(seed)
    a_axis = np.zeros(dim); a_axis[0] = 1.0
    b_axis = np.zeros(dim); b_axis[1] = 1.0
    rows = []
    for i in range(n_per):
        rows.append((i, a_axis + 0.05 * rng.normal(size=dim)))
        rows.append((100 + i, b_axis + 0.05 * rng.normal(size=dim)))
    # within-cluster near-dups: copy of vec 0 and of vec 100, tiny jitter
    rows.append((500, rows[0][1] + 1e-4))
    rows.append((501, rows[1][1] + 1e-4))
    return rows


def _min_anchor_survivors(rows, assign, threshold):
    """Numpy replay of the drop rule: b dropped iff ANY smaller-id member
    of its cluster has cosine >= threshold (dropped anchors still mark)."""
    ids = np.array([r[0] for r in rows])
    X = np.array([r[1] for r in rows], dtype=np.float64)
    Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-30)
    order = np.argsort(ids)
    ids, Xn = ids[order], Xn[order]
    cl = np.array([assign[i] for i in ids])
    S = Xn @ Xn.T
    survivors = set()
    for j in range(len(ids)):
        smaller = (np.arange(len(ids)) < j) & (cl == cl[j])
        if not (S[smaller, j] >= threshold).any():
            survivors.add(int(ids[j]))
    return survivors


def test_semantic_dedup_single_cluster_equals_global_min_anchor():
    from distributed_text_search_ray.pipelines.ann import semantic_dedup

    rows = _semantic_corpus()
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": list(v)} for i, v in rows]
    )
    got = {
        r["vec_id"]
        for r in semantic_dedup(
            ds, n_clusters=1, threshold=0.95, iters=2, init="first_k", round_dp=9
        ).take_all()
    }
    want = _min_anchor_survivors(rows, {r[0]: 0 for r in rows}, 0.95)
    assert got == want
    assert len(got) < len(rows)  # the planted dups actually dropped


def test_semantic_dedup_is_within_cluster_only():
    """A near-dup PAIR split across two clusters must BOTH survive — the
    SemDeDup trade documented in the docstring — while within-cluster dups
    drop; assignments replayed from kmeans_centroids."""
    from distributed_text_search_ray.pipelines.ann import (
        kmeans_centroids,
        semantic_dedup,
    )

    rows = _semantic_corpus()
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": list(v)} for i, v in rows]
    )
    C = kmeans_centroids(ds, n_clusters=2, iters=3, init="first_k", round_dp=9)
    X = np.array([r[1] for r in rows], dtype=np.float64)
    Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-30)
    assign = dict(
        zip([r[0] for r in rows], np.argmax(Xn @ C.T, axis=1).tolist())
    )
    # the planted copies co-cluster with their originals; the two axes split
    assert assign[0] == assign[500] and assign[100] == assign[501]
    assert assign[0] != assign[100]

    res = semantic_dedup(
        ds, n_clusters=2, threshold=0.95, iters=3, init="first_k", round_dp=9
    ).take_all()
    got = {r["vec_id"] for r in res}
    want = _min_anchor_survivors(rows, assign, 0.95)
    assert got == want
    assert 500 not in got and 501 not in got  # within-cluster dups dropped
    # output cluster column matches the replayed assignment
    assert {r["vec_id"]: r["cluster"] for r in res} == {
        i: assign[i] for i in got
    }


def test_semantic_dedup_chunked_tiles_match_unchunked():
    from distributed_text_search_ray.pipelines.ann import semantic_dedup

    rows = _semantic_corpus(seed=11, n_per=30)
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": list(v)} for i, v in rows]
    )
    kw = dict(n_clusters=2, threshold=0.9, iters=2, init="first_k", round_dp=9)
    small = {
        (r["vec_id"], r["cluster"])
        for r in semantic_dedup(ds, chunk_rows=4, **kw).take_all()
    }
    big = {
        (r["vec_id"], r["cluster"])
        for r in semantic_dedup(ds, chunk_rows=1 << 20, **kw).take_all()
    }
    assert small == big


def test_search_after_pages_tile_the_full_ordering(built_index_r3):
    """Paging with search_topk_after from successive cursors reproduces the
    one-shot rounded total order, page by page, until exhaustion."""
    import numpy as np

    from distributed_text_search_ray.pipelines.search import (
        search_topk,
        search_topk_after,
    )
    from distributed_text_search_ray.util import round_half_away

    _, index_dir = built_index_r3
    queries = [(0, "def return value"), (1, "import numpy"), (2, "zzz_nohit")]
    k = 5
    # ground truth: one-shot full ordering (big k), reranked rounded
    full = search_topk(index_dir, queries, topk=10_000).take_all()
    by_q: dict[int, list[tuple[float, int]]] = {}
    for r in full:
        by_q.setdefault(r["query_id"], []).append(
            (round_half_away(r["score"], 6), r["doc_id"])
        )
    for rows in by_q.values():
        rows.sort(key=lambda t: (-t[0], t[1]))
    texts = dict(queries)
    # page all queries in lockstep (one executor call per page round): each
    # query stays active until it returns a short/empty page
    cursor = {qid: (np.inf, -(2**62)) for qid, _ in queries}  # "after +inf"
    got: dict[int, list[tuple[float, int]]] = {qid: [] for qid, _ in queries}
    active = set(cursor)
    for _page in range(1000):
        if not active:
            break
        batch = [(q, texts[q], cursor[q][0], cursor[q][1]) for q in sorted(active)]
        rows = search_topk_after(index_dir, batch, topk=k).take_all()
        pages: dict[int, list] = {}
        for r in rows:
            pages.setdefault(r["query_id"], []).append(r)
        for qid in list(active):
            page = sorted(pages.get(qid, []), key=lambda r: r["rank"])
            got[qid].extend((r["score"], r["doc_id"]) for r in page)
            if len(page) < k:
                active.discard(qid)
            else:
                cursor[qid] = (page[-1]["score"], page[-1]["doc_id"])
    assert not active, "paging did not exhaust in 1000 pages"
    for qid, _ in queries:
        assert got[qid] == by_q.get(qid, []), f"query {qid}: paged ordering diverges"


def test_stratified_sample_equalizes_and_is_stable(code_corpus):
    """Equalize mode keeps each group near the smallest group's size in
    expectation; membership is a pure row function (rerun-stable) and
    explicit rates={} are honored (rate 0 drops, missing group keeps all)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from distributed_text_search_ray.pipelines.textstats import stratified_sample

    rng = np.random.default_rng(11)
    langs = ["py"] * 800 + ["go"] * 200 + ["rs"] * 50
    t = pa.table(
        {
            "doc_id": pa.array(range(len(langs)), type=pa.int64()),
            "lang": pa.array(langs, type=pa.string()),
        }
    )
    _ = rng  # sizes are fixed; no randomness needed beyond ids
    ds = ray.data.from_arrow(t)
    out1 = sorted(r["doc_id"] for r in stratified_sample(ds, "lang").take_all())
    out2 = sorted(r["doc_id"] for r in stratified_sample(ds, "lang").take_all())
    assert out1 == out2, "membership must be deterministic across runs"
    rows = stratified_sample(ds, "lang").take_all()
    by = {}
    for r in rows:
        by[r["lang"]] = by.get(r["lang"], 0) + 1
    # every group lands near min-group size 50 (binomial, generous bounds)
    assert by["rs"] == 50  # rate 1.0 keeps everything
    assert 20 <= by["py"] <= 90 and 20 <= by["go"] <= 90, by
    # explicit rates: drop go entirely, keep all rs, py at given rate
    rows = stratified_sample(ds, "lang", rates={"go": 0.0, "py": 0.1}).take_all()
    by = {}
    for r in rows:
        by[r["lang"]] = by.get(r["lang"], 0) + 1
    assert "go" not in by
    assert by["rs"] == 50  # missing from rates -> keep all
    assert 30 <= by["py"] <= 160, by


def test_upsert_equals_fresh_build(code_corpus, tmp_path):
    """upsert_docs (tombstone + compact + extend) is rank- AND score-
    identical to a from-scratch build over the post-upsert corpus, for a
    changeset mixing REPLACED docs (existing (repo, path) -> same
    fingerprint id, new content) with pure INSERTS (new paths)."""
    import pyarrow.parquet as pq

    from distributed_text_search_ray import IndexConfig
    from distributed_text_search_ray.functions.hashing import doc_fingerprint
    from distributed_text_search_ray.pipelines.build import build_index
    from distributed_text_search_ray.pipelines.merge import upsert_docs
    from distributed_text_search_ray.pipelines.search import search_topk
    from distributed_text_search_ray.sources.corpus import corpus_files

    corpus_dir, _ = code_corpus
    base_idx = str(tmp_path / "base")
    build_index(corpus_dir, base_idx, IndexConfig(num_partitions=4))

    raw = []
    for f in corpus_files(corpus_dir):
        raw.extend(pq.read_table(f).to_pylist())
    names = list(raw[0].keys())
    replaced_keys = {(r["repo"], r["path"]) for r in raw[::7]}

    rows = []
    for r in raw:
        if (r["repo"], r["path"]) in replaced_keys:
            rows.append(dict(r, content=r["content"] + " upserted fresh tokens"))
    for i in range(3):
        rows.append(
            dict(
                raw[0],
                path=f"new/ins{i}.py",
                content=f"brand new inserted document number {i} with spark table",
            )
        )
    insert_ids = {doc_fingerprint(r["repo"], r["path"]) for r in rows[-3:]}
    delta_dir = tmp_path / "delta"
    delta_dir.mkdir()
    pq.write_table(
        pa.table({c: [r[c] for r in rows] for c in names}), delta_dir / "part0.parquet"
    )

    up_idx = str(tmp_path / "upserted")
    rep = upsert_docs(base_idx, str(delta_dir), up_idx)
    assert rep["n_upserted"] == len(rows)

    # fresh build over the post-upsert corpus
    merged_dir = tmp_path / "postcorpus"
    merged_dir.mkdir()
    by_key = {(r["repo"], r["path"]): r for r in rows}
    post = [by_key.get((r["repo"], r["path"]), r) for r in raw] + rows[-3:]
    pq.write_table(
        pa.table({c: [r[c] for r in post] for c in names}),
        merged_dir / "part0.parquet",
    )
    fresh_idx = str(tmp_path / "fresh")
    build_index(str(merged_dir), fresh_idx, IndexConfig(num_partitions=4))

    qs = [(0, "spark table join"), (1, "upserted fresh tokens"), (2, "inserted document")]
    got = sorted(
        (r["query_id"], r["rank"], r["doc_id"], round(r["score"], 9))
        for r in search_topk(up_idx, qs, topk=12).take_all()
    )
    want = sorted(
        (r["query_id"], r["rank"], r["doc_id"], round(r["score"], 9))
        for r in search_topk(fresh_idx, qs, topk=12).take_all()
    )
    assert got == want
    # the replaced docs' NEW tokens are findable, and inserts rank
    assert any(r[0] == 1 for r in got)
    assert any(r[2] in insert_ids for r in got if r[0] == 2)


def test_collapsed_topk_matches_bruteforce_collapse(code_corpus, tmp_path_factory):
    """Collapsed top-k equals a brute-force walk of the full rounded
    ordering keeping the first doc per lang — small k forces the fetch
    escalation path."""
    import pyarrow.parquet as pq

    from distributed_text_search_ray import IndexConfig
    from distributed_text_search_ray.pipelines.build import build_index
    from distributed_text_search_ray.pipelines.search import (
        search_topk,
        search_topk_collapsed,
    )
    from distributed_text_search_ray.sources.corpus import corpus_files
    from distributed_text_search_ray.util import round_half_away

    corpus_dir, _ = code_corpus
    idx = str(tmp_path_factory.mktemp("idx_collapse") / "idx")
    build_index(
        corpus_dir, idx, IndexConfig(num_partitions=4, attribute_columns=("lang",))
    )
    from distributed_text_search_ray.functions.hashing import doc_fingerprint

    lang = {}
    for f in corpus_files(corpus_dir):
        for r in pq.read_table(f).to_pylist():
            d = r.get("doc_id") or doc_fingerprint(r["repo"], r["path"])
            lang[d] = r["lang"]

    queries = [(0, "def return value"), (1, "import numpy"), (2, "zzz_nohit")]
    for k in (1, 2, 5):
        got = {}
        for r in search_topk_collapsed(idx, queries, attr="lang", topk=k).take_all():
            got.setdefault(r["query_id"], []).append(
                (r["rank"], r["doc_id"], r["score"])
            )
        full = search_topk(idx, queries, topk=10_000).take_all()
        by_q = {}
        for r in full:
            by_q.setdefault(r["query_id"], []).append(
                (round_half_away(r["score"], 6), r["doc_id"])
            )
        for qid, _ in queries:
            rows = sorted(by_q.get(qid, []), key=lambda t: (-t[0], t[1]))
            seen, want = set(), []
            for s, d in rows:
                v = lang[d]
                if v in seen:
                    continue
                seen.add(v)
                want.append((len(want) + 1, d, s))
                if len(want) == k:
                    break
            assert sorted(got.get(qid, [])) == sorted(want), (qid, k)


def test_fielded_search_degenerate_and_boost(code_corpus, tmp_path_factory):
    """Weights (content=1, title=0) reproduce plain BM25 exactly (rounded
    order); a positive title weight changes scores by exactly the weighted
    title-field score."""
    import pyarrow.parquet as pq

    from distributed_text_search_ray import IndexConfig
    from distributed_text_search_ray.functions.tokenize import Tokenizer
    from distributed_text_search_ray.pipelines.build import build_index
    from distributed_text_search_ray.pipelines.search import (
        search_topk,
        search_topk_fielded,
    )
    from distributed_text_search_ray.sources.corpus import corpus_files
    from distributed_text_search_ray.util import round_half_away

    corpus_dir, _ = code_corpus
    base = tmp_path_factory.mktemp("fielded")
    idx_c = str(base / "content")
    build_index(corpus_dir, idx_c, IndexConfig(num_partitions=4))

    # derived title corpus: first 5 analyzer tokens
    tk = Tokenizer()
    tdir = base / "title_corpus"
    tdir.mkdir()
    for i, f in enumerate(corpus_files(corpus_dir)):
        t = pq.read_table(f)
        titles = [" ".join(tk.tokens(c)[:5]) for c in t.column("content").to_pylist()]
        t = t.drop_columns(["content"]).append_column(
            "content", pa.array(titles, type=pa.string())
        )
        pq.write_table(t, tdir / f"part{i}.parquet")
    idx_t = str(base / "title")
    build_index(str(tdir), idx_t, IndexConfig(num_partitions=4))

    queries = [(0, "def return value"), (1, "import numpy")]
    dirs = {"content": idx_c, "title": idx_t}

    plain = search_topk(idx_c, queries, topk=10_000).take_all()
    by_q = {}
    for r in plain:
        by_q.setdefault(r["query_id"], []).append(
            (round_half_away(r["score"], 6), r["doc_id"])
        )
    got0 = {}
    for r in search_topk_fielded(dirs, {"content": 1.0, "title": 0.0}, queries, topk=8).take_all():
        got0.setdefault(r["query_id"], []).append((r["rank"], r["doc_id"], r["score"]))
    for qid in by_q:
        want = sorted(by_q[qid], key=lambda t: (-t[0], t[1]))[:8]
        have = [(d, s) for _, d, s in sorted(got0.get(qid, []))]
        assert have == [(d, s) for s, d in want], qid

    # boosted: combined score == 1*content + 3*title for every emitted row
    title_scores = {}
    for r in search_topk(idx_t, queries, topk=10_000).take_all():
        title_scores[(r["query_id"], r["doc_id"])] = r["score"]
    content_scores = {}
    for r in plain:
        content_scores[(r["query_id"], r["doc_id"])] = r["score"]
    boosted = search_topk_fielded(dirs, {"content": 1.0, "title": 3.0}, queries, topk=8).take_all()
    assert boosted
    changed = False
    for r in boosted:
        k = (r["query_id"], r["doc_id"])
        want = round_half_away(
            1.0 * content_scores.get(k, 0.0) + 3.0 * title_scores.get(k, 0.0), 6
        )
        assert r["score"] == want, (k, r["score"], want)
        if k in title_scores:
            changed = True
    assert changed, "boost never touched a title match — degenerate fixture"


def test_incremental_near_dup_matches_full_cross_pairs(code_corpus):
    """Incremental (frozen-band-index) dedup finds exactly the cross-side
    pairs that the full minhash_lsh_pairs run finds between the same two
    halves — fingerprinting only the new side."""
    import pyarrow.parquet as pq
    import ray.data

    from distributed_text_search_ray.pipelines.dedup import (
        incremental_near_dup,
        minhash_band_rows,
        minhash_lsh_pairs,
    )
    from distributed_text_search_ray.sources.corpus import corpus_files, read_corpus
    from tests.conftest import corpus_docs

    corpus_dir, _ = code_corpus
    docs = corpus_docs(corpus_dir)
    # plant cross-side near-dups: copy 4 even-side docs into odd-side ids
    rows = [{"doc_id": d, "content": t} for d, t in docs]
    base = [r for r in rows if r["doc_id"] % 2 == 0]
    new = [r for r in rows if r["doc_id"] % 2 == 1]
    for i, r in enumerate(base[:4]):
        new.append({"doc_id": 2 * i + 1_000_001, "content": r["content"] + " tail"})

    t_base = pa.table(
        {
            "doc_id": pa.array([r["doc_id"] for r in base], type=pa.int64()),
            "content": pa.array([r["content"] for r in base], type=pa.string()),
        }
    )
    t_new = pa.table(
        {
            "doc_id": pa.array([r["doc_id"] for r in new], type=pa.int64()),
            "content": pa.array([r["content"] for r in new], type=pa.string()),
        }
    )
    ds_base = ray.data.from_arrow(t_base)
    ds_new = ray.data.from_arrow(t_new)
    cfg = dict(num_perm=126, bands=42, shingle_n=3)

    bands = minhash_band_rows(ds_base, **cfg)
    got = sorted(
        (r["doc_id"], r["base_doc_id"], r["jaccard"])
        for r in incremental_near_dup(
            bands, ds_base, ds_new, threshold=0.5, **cfg
        ).take_all()
    )

    full = minhash_lsh_pairs(
        ds_base.union(ds_new), threshold=0.5, **cfg
    ).take_all()
    want = sorted(
        (max(r["doc_a"], r["doc_b"]) if (r["doc_a"] % 2 == 0) else r["doc_a"],
         r["doc_b"] if (r["doc_a"] % 2 == 1) else r["doc_a"],
         r["jaccard"])
        for r in full
        # cross pairs only: one side even (base), one side odd (new)
        if (r["doc_a"] % 2) != (r["doc_b"] % 2)
    )
    assert got == want
    assert len(got) >= 4  # the planted near-dups are all found


def test_percolate_matches_boolean_search(built_index_r3):
    """Percolation (queries as state, docs as stream) agrees doc-for-doc
    with index-backed boolean_search over the same corpus and query set."""
    import pyarrow.parquet as pq

    from distributed_text_search_ray.pipelines.boolquery import (
        boolean_search,
        percolate,
    )
    from distributed_text_search_ray.sources.corpus import corpus_files
    from distributed_text_search_ray.functions.hashing import doc_fingerprint

    corpus_dir, index_dir = built_index_r3
    rows = []
    for f in corpus_files(corpus_dir):
        for r in pq.read_table(f).to_pylist():
            d = r.get("doc_id") or doc_fingerprint(r["repo"], r["path"])
            rows.append((d, r["content"]))
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in rows], type=pa.int64()),
                "content": pa.array([t for _, t in rows], type=pa.string()),
            }
        )
    )
    queries = [
        (0, "def AND return"),
        (1, "import OR class"),
        (2, "def AND NOT class"),
        (3, "zzznothing OR def AND value"),
    ]
    got = sorted(
        (r["query_id"], r["doc_id"]) for r in percolate(ds, queries).take_all()
    )
    want = sorted(
        (r["query_id"], r["doc_id"])
        for r in boolean_search(index_dir, queries).take_all()
    )
    assert got == want and got


# ------------------------------------------------- connected components

def _edges_ds(pairs):
    a = pa.array([p[0] for p in pairs], type=pa.int64())
    b = pa.array([p[1] for p in pairs], type=pa.int64())
    return ray.data.from_arrow(pa.table({"doc_a": a, "doc_b": b}))


def _nodes_ds(ids):
    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(list(ids), type=pa.int64())})
    )


def test_connected_components_chain_and_isolated():
    """A length-4 chain (diameter 3 — needs several hash-min rounds), a
    separate pair, and an isolated node supplied via ``nodes``."""
    from distributed_text_search_ray.pipelines.dedup import connected_components

    out = connected_components(
        _edges_ds([(1, 2), (2, 3), (3, 4), (10, 11)]),
        nodes=_nodes_ds([1, 2, 3, 4, 10, 11, 20]),
    )
    got = sorted((r["doc_id"], r["cluster_id"]) for r in out.take_all())
    assert got == [(1, 1), (2, 1), (3, 1), (4, 1), (10, 10), (11, 10), (20, 20)]


def test_connected_components_matches_union_find():
    """Random sparse graph vs an in-test union-find ground truth."""
    from distributed_text_search_ray.pipelines.dedup import connected_components

    rng = np.random.default_rng(11)
    n = 400
    pairs = [
        tuple(sorted(map(int, rng.integers(0, n, size=2))))
        for _ in range(300)
    ]
    pairs = [(a, b) for a, b in pairs if a != b]

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = sorted((v, find(v)) for v in range(n))

    out = connected_components(_edges_ds(pairs), nodes=_nodes_ds(range(n)))
    got = sorted((r["doc_id"], r["cluster_id"]) for r in out.take_all())
    assert got == want


def test_connected_components_no_edges_all_singletons():
    from distributed_text_search_ray.pipelines.dedup import connected_components

    out = connected_components(_edges_ds([]), nodes=_nodes_ds([3, 7, 9]))
    got = sorted((r["doc_id"], r["cluster_id"]) for r in out.take_all())
    assert got == [(3, 3), (7, 7), (9, 9)]


def test_near_dup_clusters_groups_and_singletons():
    """Near-dup groups each collapse to one cluster labeled by the group's
    min doc_id; dissimilar solo docs are singleton clusters."""
    from distributed_text_search_ray.pipelines.dedup import near_dup_clusters

    rng = np.random.default_rng(5)
    groups, per_group, n_words = 12, 4, 40
    ids, texts = [], []
    for g in range(groups):
        base = [f"g{g}w{k}" for k in range(n_words)]
        for v in range(per_group):
            words = list(base)
            if v:
                pos = int(rng.integers(0, n_words))
                words[pos] = f"g{g}v{v}m"
            ids.append(g * 10 + v)
            texts.append(" ".join(words))
    for s in range(5):
        ids.append(10_000 + s)
        texts.append(" ".join(f"solo{s}w{k}" for k in range(n_words)))
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "content": pa.array(texts, type=pa.string()),
            }
        )
    )
    out = near_dup_clusters(ds, threshold=0.5, bucket="shingle")
    got = {r["doc_id"]: r["cluster_id"] for r in out.take_all()}
    assert len(got) == len(ids)
    for g in range(groups):
        for v in range(per_group):
            assert got[g * 10 + v] == g * 10
    for s in range(5):
        assert got[10_000 + s] == 10_000 + s


def test_dismax_combination_matches_per_field_scores(code_corpus, tmp_path_factory):
    """dis_max emits max + tb*(sum - max) of the weighted per-field scores;
    tie_breaker=1 degenerates to the linear fielded sum."""
    import pyarrow.parquet as pq

    from distributed_text_search_ray import IndexConfig
    from distributed_text_search_ray.functions.tokenize import Tokenizer
    from distributed_text_search_ray.pipelines.build import build_index
    from distributed_text_search_ray.pipelines.search import (
        search_topk,
        search_topk_dismax,
        search_topk_fielded,
    )
    from distributed_text_search_ray.sources.corpus import corpus_files
    from distributed_text_search_ray.util import round_half_away

    corpus_dir, _ = code_corpus
    base = tmp_path_factory.mktemp("dismax")
    idx_c = str(base / "content")
    build_index(corpus_dir, idx_c, IndexConfig(num_partitions=4))

    tk = Tokenizer()
    tdir = base / "title_corpus"
    tdir.mkdir()
    for i, f in enumerate(corpus_files(corpus_dir)):
        t = pq.read_table(f)
        titles = [" ".join(tk.tokens(c)[:5]) for c in t.column("content").to_pylist()]
        t = t.drop_columns(["content"]).append_column(
            "content", pa.array(titles, type=pa.string())
        )
        pq.write_table(t, tdir / f"part{i}.parquet")
    idx_t = str(base / "title")
    build_index(str(tdir), idx_t, IndexConfig(num_partitions=4))

    queries = [(0, "def return value"), (1, "import numpy")]
    dirs = {"content": idx_c, "title": idx_t}
    weights = {"content": 1.0, "title": 2.0}

    c_scores, t_scores = {}, {}
    for r in search_topk(idx_c, queries, topk=10_000).take_all():
        c_scores[(r["query_id"], r["doc_id"])] = r["score"]
    for r in search_topk(idx_t, queries, topk=10_000).take_all():
        t_scores[(r["query_id"], r["doc_id"])] = r["score"]

    got = search_topk_dismax(dirs, weights, queries, tie_breaker=0.3, topk=8).take_all()
    assert got
    both = 0
    for r in got:
        k = (r["query_id"], r["doc_id"])
        c = 1.0 * c_scores.get(k, 0.0)
        t = 2.0 * t_scores.get(k, 0.0)
        hi, total = max(c, t), c + t
        assert r["score"] == round_half_away(hi + 0.3 * (total - hi), 6), k
        if k in c_scores and k in t_scores:
            both += 1
    assert both, "no doc scored in both fields — degenerate fixture"

    # tie_breaker=1.0 == the linear fielded sum, row for row
    tb1 = sorted(
        (r["query_id"], r["rank"], r["doc_id"], r["score"])
        for r in search_topk_dismax(dirs, weights, queries, tie_breaker=1.0, topk=8).take_all()
    )
    lin = sorted(
        (r["query_id"], r["rank"], r["doc_id"], r["score"])
        for r in search_topk_fielded(dirs, weights, queries, topk=8).take_all()
    )
    assert tb1 == lin


def test_min_should_match_filters_by_distinct_term_count(code_corpus, tmp_path_factory):
    """msm survivors are exactly the docs with >= m distinct query terms,
    keeping their unfiltered BM25 scores; msm=1 == plain TAAT."""
    from distributed_text_search_ray import IndexConfig
    from distributed_text_search_ray.pipelines.build import build_index
    from distributed_text_search_ray.pipelines.search import (
        search_topk,
        search_topk_msm,
    )
    from distributed_text_search_ray.stages.executor import QueryExecutor

    corpus_dir, _ = code_corpus
    index_dir = str(tmp_path_factory.mktemp("msm") / "idx")
    build_index(corpus_dir, index_dir, IndexConfig(num_partitions=4))
    queries = [(0, "def return value"), (1, "import numpy"), (2, "vector")]

    # ground truth: per-doc distinct matched-term counts from the postings
    ex = QueryExecutor(index_dir, topk=10)
    full = {}  # qid -> {doc: (count, score)}
    for qid, qtext in queries:
        terms = sorted(set(ex.tokenizer.tokens(qtext)))
        per_doc = {}
        all_docs, all_contrib = ex._term_contribs(terms)
        for docs, contrib in zip(all_docs, all_contrib):
            for d, c in zip(docs.tolist(), contrib.tolist()):
                n, s = per_doc.get(d, (0, 0.0))
                per_doc[d] = (n + 1, s + c)
        full[qid] = per_doc

    for m in (1, 2, 3):
        got = {}
        for r in search_topk_msm(
            index_dir, queries, min_should_match=m, topk=100_000
        ).take_all():
            got.setdefault(r["query_id"], {})[r["doc_id"]] = r["score"]
        for qid, _ in queries:
            want = {d for d, (n, _) in full[qid].items() if n >= m}
            assert set(got.get(qid, {})) == want, (qid, m)

    # msm=1 row-identical to the plain exhaustive scorer
    a = sorted(
        (r["query_id"], r["rank"], r["doc_id"], r["score"])
        for r in search_topk_msm(index_dir, queries, 1, topk=10).take_all()
    )
    b = sorted(
        (r["query_id"], r["rank"], r["doc_id"], r["score"])
        for r in search_topk(index_dir, queries, topk=10, mode="taat").take_all()
    )
    assert a == b


def test_search_facets_counts_full_hit_set(code_corpus, tmp_path_factory):
    """Facet counts cover the FULL hit set (every doc with >= 1 matched
    term), grouped by an attribute column — verified against per-posting
    ground truth."""
    from distributed_text_search_ray import IndexConfig
    from distributed_text_search_ray.pipelines.build import build_index
    from distributed_text_search_ray.pipelines.search import search_facets
    from distributed_text_search_ray.stages.executor import QueryExecutor

    corpus_dir, _ = code_corpus
    index_dir = str(tmp_path_factory.mktemp("facets") / "idx")
    build_index(corpus_dir, index_dir, IndexConfig(num_partitions=4))

    queries = [(0, "def return value"), (1, "import numpy"), (2, "zzznope")]

    ex = QueryExecutor(index_dir)
    per_q_hits = {}
    hit_ids = set()
    for qid, qtext in queries:
        terms = sorted(set(ex.tokenizer.tokens(qtext)))
        all_docs, _ = ex._term_contribs(terms)
        hits = set()
        for docs in all_docs:
            hits.update(docs.tolist())
        per_q_hits[qid] = hits
        hit_ids.update(hits)

    attr = {d: f"g{d % 3}" for d in hit_ids}  # ids are 63-bit fingerprints
    want = {}
    for qid, hits in per_q_hits.items():
        for d in hits:
            k = (qid, attr[d])
            want[k] = want.get(k, 0) + 1

    attrs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(sorted(hit_ids), type=pa.int64()),
                "grp": pa.array([attr[d] for d in sorted(hit_ids)], type=pa.string()),
            }
        )
    )
    got = {
        (r["query_id"], r["grp"]): r["n_docs"]
        for r in search_facets(index_dir, queries, attrs, facet_col="grp").take_all()
    }
    assert got == want and got


def test_function_score_topk_recomposes_boosted_scores(code_corpus, tmp_path_factory):
    """function_score emits round6(bm25_raw * (1 + a/(a+scale))) re-ranked —
    recomposed exactly from the unfiltered scorer's raw scores."""
    from distributed_text_search_ray import IndexConfig
    from distributed_text_search_ray.pipelines.build import build_index
    from distributed_text_search_ray.pipelines.search import function_score_topk
    from distributed_text_search_ray.stages.executor import QueryExecutor
    from distributed_text_search_ray.util import round_half_away

    corpus_dir, _ = code_corpus
    index_dir = str(tmp_path_factory.mktemp("fscore") / "idx")
    build_index(corpus_dir, index_dir, IndexConfig(num_partitions=4))

    queries = [(0, "def return value"), (1, "import numpy")]
    ex = QueryExecutor(index_dir)

    raw = {}  # (qid, doc) -> raw bm25
    hit_ids = set()
    for qid, qtext in queries:
        terms = sorted(set(ex.tokenizer.tokens(qtext)))
        docs, scores = ex._score_taat(terms, 1 << 60)
        for d, s in zip(docs.tolist(), scores.tolist()):
            raw[(qid, d)] = s
            hit_ids.add(d)

    attr = {d: (d % 977) + 1 for d in hit_ids}
    attrs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(sorted(hit_ids), type=pa.int64()),
                "n_chars": pa.array([attr[d] for d in sorted(hit_ids)], type=pa.int64()),
            }
        )
    )
    k = 8
    got = {}
    for r in function_score_topk(
        index_dir, queries, attrs, attr="n_chars", scale=1000.0, topk=k
    ).take_all():
        got.setdefault(r["query_id"], []).append((r["rank"], r["doc_id"], r["score"]))

    for qid, _ in queries:
        want = []
        for (q, d), s in raw.items():
            if q != qid:
                continue
            a = float(attr[d])
            want.append((round_half_away(s * (1.0 + a / (a + 1000.0)), 6), d))
        want = sorted(want, key=lambda t: (-t[0], t[1]))[:k]
        have = sorted(got[qid])
        assert have == [(i + 1, d, s) for i, (s, d) in enumerate(want)], qid


def test_mmr_topk_matches_reference_greedy(code_corpus, tmp_path_factory):
    """mmr_topk == an in-test greedy over the same window, scores, and
    hashed vectors; lam=0 reproduces the BM25 ordering."""
    from distributed_text_search_ray import IndexConfig
    from distributed_text_search_ray.pipelines.build import build_index
    from distributed_text_search_ray.pipelines.search import mmr_topk, search_topk
    from distributed_text_search_ray.pipelines.textstats import hashed_doc_vectors
    from distributed_text_search_ray.sources.corpus import read_corpus
    from distributed_text_search_ray.util import round_half_away

    corpus_dir, _ = code_corpus
    index_dir = str(tmp_path_factory.mktemp("mmr") / "idx")
    build_index(corpus_dir, index_dir, IndexConfig(num_partitions=4))

    queries = [(0, "def return value"), (1, "import numpy")]
    window, lam, k = 20, 0.4, 6

    docs = read_corpus(corpus_dir)
    vectors = hashed_doc_vectors(docs, dim=16).materialize()
    vec = {
        r["vec_id"]: np.asarray(r["embedding"], dtype=np.float64)
        for r in vectors.take_all()
    }

    # reference greedy from the raw scorer
    full = search_topk(index_dir, queries, topk=window + 10, mode="taat").take_all()
    by_q = {}
    for r in full:
        by_q.setdefault(r["query_id"], []).append(
            (round_half_away(r["score"], 6), r["doc_id"])
        )
    want = {}
    for qid, rows in by_q.items():
        rows = sorted(rows, key=lambda t: (-t[0], t[1]))[:window]
        rel = np.array([s for s, _ in rows])
        ids = np.array([d for _, d in rows], dtype=np.int64)
        V = np.stack([vec[d] for d in ids])
        sims = round_half_away(V @ V.T, 6)
        sel, rem = [], np.ones(len(ids), bool)
        out = []
        for rank in range(1, min(k, len(ids)) + 1):
            mmr = rel if not sel else round_half_away(
                rel - lam * sims[:, sel].max(axis=1), 6
            )
            cand = np.flatnonzero(rem)
            pick = int(cand[np.lexsort((ids[cand], -mmr[cand]))[0]])
            sel.append(pick)
            rem[pick] = False
            out.append((rank, int(ids[pick]), float(mmr[pick])))
        want[qid] = out

    got = {}
    for r in mmr_topk(
        index_dir, queries, vectors, window=window, lam=lam, topk=k
    ).take_all():
        got.setdefault(r["query_id"], []).append(
            (r["rank"], r["doc_id"], r["score"])
        )
    for qid in want:
        assert sorted(got[qid]) == want[qid], qid

    # lam=0: pure BM25 order over the window
    got0 = {}
    for r in mmr_topk(
        index_dir, queries, vectors, window=window, lam=0.0, topk=k
    ).take_all():
        got0.setdefault(r["query_id"], []).append((r["rank"], r["doc_id"]))
    for qid, rows in by_q.items():
        top = sorted(rows, key=lambda t: (-t[0], t[1]))[:k]
        assert sorted(got0[qid]) == [(i + 1, d) for i, (_, d) in enumerate(top)], qid


def test_cluster_size_histogram_counts():
    from distributed_text_search_ray.pipelines.dedup import cluster_size_histogram

    # clusters: {0: 3 docs}, {10: 2}, {20: 1}, {30: 1}
    cl = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 10, 11, 20, 30], type=pa.int64()),
                "cluster_id": pa.array([0, 0, 0, 10, 10, 20, 30], type=pa.int64()),
            }
        )
    )
    got = sorted(
        (r["cluster_size"], r["n_clusters"])
        for r in cluster_size_histogram(cl).take_all()
    )
    assert got == [(1, 2), (2, 1), (3, 1)]


def test_bm25f_true_recomposes_from_postings(code_corpus, tmp_path_factory):
    """True BM25F scores recompose from per-field postings: one saturation
    over the weighted tf~, idf over the union df; single-field weights
    reproduce plain BM25's RANKING (scores scale by 1/(k1+1))."""
    import math

    import pyarrow.parquet as pq

    from distributed_text_search_ray import IndexConfig
    from distributed_text_search_ray.functions.tokenize import Tokenizer
    from distributed_text_search_ray.pipelines.build import build_index
    from distributed_text_search_ray.pipelines.search import (
        BM25FTrueExecutor,
        search_topk,
        search_topk_bm25f_true,
    )
    from distributed_text_search_ray.sources.corpus import corpus_files
    from distributed_text_search_ray.util import round_half_away

    corpus_dir, _ = code_corpus
    base = tmp_path_factory.mktemp("bm25ftrue")
    idx_c = str(base / "content")
    build_index(corpus_dir, idx_c, IndexConfig(num_partitions=4))
    tk = Tokenizer()
    tdir = base / "title_corpus"
    tdir.mkdir()
    for i, f in enumerate(corpus_files(corpus_dir)):
        t = pq.read_table(f)
        titles = [" ".join(tk.tokens(c)[:5]) for c in t.column("content").to_pylist()]
        t = t.drop_columns(["content"]).append_column(
            "content", pa.array(titles, type=pa.string())
        )
        pq.write_table(t, tdir / f"part{i}.parquet")
    idx_t = str(base / "title")
    build_index(str(tdir), idx_t, IndexConfig(num_partitions=4))

    queries = [(0, "def return value"), (1, "import numpy")]
    dirs = {"content": idx_c, "title": idx_t}
    weights = {"content": 1.0, "title": 2.0}

    # recompose expected scores from the executor's own merged postings
    ex = BM25FTrueExecutor(dirs, weights, topk=8)
    want = {}
    for qid, qtext in queries:
        per_doc = {}
        for term in sorted(set(ex.tokenizer.tokens(qtext))):
            docs_u, tfv = ex._term_merged(term)
            if not len(docs_u):
                continue
            idf = math.log(1 + (ex.N - len(docs_u) + 0.5) / (len(docs_u) + 0.5))
            for d, v in zip(docs_u.tolist(), tfv.tolist()):
                per_doc[d] = per_doc.get(d, 0.0) + idf * (v / (1.2 + v))
        rows = sorted(
            ((round_half_away(s, 6), d) for d, s in per_doc.items()),
            key=lambda t: (-t[0], t[1]),
        )[:8]
        want[qid] = [(i + 1, d, s) for i, (s, d) in enumerate(rows)]

    got = {}
    for r in search_topk_bm25f_true(dirs, weights, queries, topk=8).take_all():
        got.setdefault(r["query_id"], []).append((r["rank"], r["doc_id"], r["score"]))
    for qid in want:
        assert sorted(got[qid]) == want[qid], qid

    # title weight 0: union df == content df (title tokens are a prefix of
    # content tokens), so the ranking must equal plain BM25's
    got0 = {}
    for r in search_topk_bm25f_true(
        dirs, {"content": 1.0, "title": 0.0}, queries, topk=8
    ).take_all():
        got0.setdefault(r["query_id"], []).append((r["rank"], r["doc_id"]))
    plain = {}
    for r in search_topk(idx_c, queries, topk=8, mode="taat").take_all():
        plain.setdefault(r["query_id"], []).append((r["rank"], r["doc_id"]))
    assert {q: sorted(v) for q, v in got0.items()} == {
        q: sorted(v) for q, v in plain.items()
    }


def test_top_hits_per_bucket_matches_bruteforce(code_corpus, tmp_path_factory):
    """Per-(query, bucket) best hits equal a brute-force over the full
    scored set; hits_per_bucket=2 returns at most 2 ranked rows per
    bucket."""
    from distributed_text_search_ray import IndexConfig
    from distributed_text_search_ray.pipelines.build import build_index
    from distributed_text_search_ray.pipelines.search import (
        search_top_hits_per_bucket,
        search_topk,
    )
    from distributed_text_search_ray.util import round_half_away

    corpus_dir, _ = code_corpus
    index_dir = str(tmp_path_factory.mktemp("tophits") / "idx")
    build_index(corpus_dir, index_dir, IndexConfig(num_partitions=4))

    queries = [(0, "def return value"), (1, "import numpy")]
    full = search_topk(index_dir, queries, topk=100_000, mode="taat").take_all()
    hit_ids = sorted({r["doc_id"] for r in full})
    attr = {d: f"b{d % 4}" for d in hit_ids}
    attrs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(hit_ids, type=pa.int64()),
                "grp": pa.array([attr[d] for d in hit_ids], type=pa.string()),
            }
        )
    )

    for hpb in (1, 2):
        want = {}
        tmp = {}
        for r in full:
            key = (r["query_id"], attr[r["doc_id"]])
            tmp.setdefault(key, []).append(
                (round_half_away(r["score"], 6), r["doc_id"])
            )
        for key, rows in tmp.items():
            rows = sorted(rows, key=lambda t: (-t[0], t[1]))[:hpb]
            for i, (s, d) in enumerate(rows, start=1):
                want[(key[0], key[1], i)] = (d, s)

        got = {}
        for r in search_top_hits_per_bucket(
            index_dir, queries, attrs, facet_col="grp", hits_per_bucket=hpb
        ).take_all():
            got[(r["query_id"], r["grp"], r["bucket_rank"])] = (
                r["doc_id"],
                r["score"],
            )
        assert got == want and got, hpb


def test_bigram_logperp_matches_python_reference():
    """Interpolated bigram LM scores equal a pure-Python reference,
    including vocab truncation, OOV mass, bigram-table truncation and the
    first-token unigram convention."""
    import math

    from distributed_text_search_ray.pipelines.textstats import bigram_logperp
    from distributed_text_search_ray.util import round_half_away

    texts = [
        "a b a b a b c",
        "a a a a",
        "c b a zz yy a b",
        "zz zz zz",
        "b c b c b c b c d",
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), type=pa.int64()),
                "content": pa.array(texts, type=pa.string()),
            }
        )
    )
    V, B, lam = 3, 4, 0.7  # force truncation on both sides

    # python reference
    toks = [t.split() for t in texts]
    uni = {}
    for ts in toks:
        for t in ts:
            uni[t] = uni.get(t, 0) + 1
    tot = sum(uni.values())
    topv = sorted(uni.items(), key=lambda kv: (-kv[1], kv[0]))[:V]
    vset = {t: c for t, c in topv}
    oov = tot - sum(vset.values())
    bic, ctx = {}, {}
    for ts in toks:
        for w1, w2 in zip(ts, ts[1:]):
            if w1 in vset:
                ctx[w1] = ctx.get(w1, 0) + 1
                if w2 in vset:
                    bic[(w1, w2)] = bic.get((w1, w2), 0) + 1
    topb = dict(
        sorted(bic.items(), key=lambda kv: (-kv[1], kv[0]))[:B]
    )

    def pu(t):
        return vset[t] / tot if t in vset else oov / tot

    want = {}
    for i, ts in enumerate(toks):
        nll = [-math.log(pu(ts[0]))]
        for w1, w2 in zip(ts, ts[1:]):
            pb = topb.get((w1, w2), 0) / ctx[w1] if (w1, w2) in topb else 0.0
            nll.append(-math.log(lam * pb + (1.0 - lam) * pu(w2)))
        want[i] = (len(ts), round_half_away(sum(nll) / len(nll), 6))

    got = {
        r["doc_id"]: (r["n_tokens"], r["logperp"])
        for r in bigram_logperp(ds, vocab_size=V, bigram_size=B, lam=lam).take_all()
    }
    assert got == want


def test_bigram_coarse_groups_equal_the_signed_overflow_expression():
    """The coarse shuffle group of a packed bigram key, now computed in
    uint64, equals the old signed-int64 expression whose product overflows
    (context keys carry bit 62), so group ids do not move."""
    import numpy as np

    from distributed_text_search_ray.pipelines.textstats import _coarse_group

    rng = np.random.default_rng(3)
    keys = np.concatenate(
        [
            np.arange(0, 200, dtype=np.int64),
            rng.integers(0, 1 << 40, 500) | (1 << 62),  # context keys
            rng.integers(1 << 33, 1 << 62, 500),
            np.array([(1 << 62) | ((1 << 40) - 1), (1 << 63) - 1], dtype=np.int64),
        ]
    )
    with np.errstate(over="ignore"):
        old = (keys * 0x9E3779B1) % 64
    assert (keys[200:].astype(object) * 0x9E3779B1 > (1 << 63) - 1).all()  # overflows
    got = _coarse_group(keys)
    assert got.dtype == np.int64 and np.array_equal(got, old)
    assert got.min() >= 0 and got.max() < 64


def test_phrase_suggest_corrects_tokens(code_corpus, tmp_path_factory):
    """Each phrase token lands on the (distance, df desc, term) best
    dictionary candidate; exact tokens and uncorrectable tokens pass
    through."""
    from distributed_text_search_ray import IndexConfig
    from distributed_text_search_ray.pipelines.build import build_index
    from distributed_text_search_ray.pipelines.search import (
        PhraseSuggestExecutor,
        suggest_phrases,
    )

    corpus_dir, _ = code_corpus
    index_dir = str(tmp_path_factory.mktemp("psug") / "idx")
    build_index(corpus_dir, index_dir, IndexConfig(num_partitions=4))

    ex = PhraseSuggestExecutor(index_dir, k=1)
    dict_terms = set(ex.expander.terms.to_pylist())
    exact = sorted(dict_terms)[0]

    phrases = [(0, f"{exact} zzzzzqqq"), (1, "def return")]
    got = {
        r["query_id"]: (r["suggestion"], r["n_corrected"])
        for r in suggest_phrases(index_dir, phrases, k=1).take_all()
    }
    # exact dictionary token keeps itself (distance 0 wins)
    s0 = got[0][0].split()
    assert s0[0] == exact
    # uncorrectable token passes through unchanged, not counted
    assert s0[1] == "zzzzzqqq"
    # per-token best equals the executor's own _best
    for qid, phrase in phrases:
        want_toks = []
        for t in ex.tokenizer.tokens(phrase):
            b = ex._best(t)
            want_toks.append(t if b is None else b)
        assert got[qid][0] == " ".join(want_toks), qid
        assert got[qid][1] == sum(
            1
            for t, w in zip(ex.tokenizer.tokens(phrase), want_toks)
            if t != w
        )


def test_index_stats_match_corpus_ground_truth(code_corpus, tmp_path_factory):
    from distributed_text_search_ray import IndexConfig
    from distributed_text_search_ray.functions.tokenize import Tokenizer
    from distributed_text_search_ray.pipelines.build import build_index, index_stats
    from tests.conftest import corpus_docs

    corpus_dir, _ = code_corpus
    index_dir = str(tmp_path_factory.mktemp("istats") / "idx")
    build_index(corpus_dir, index_dir, IndexConfig(num_partitions=4))

    tk = Tokenizer()
    docs = corpus_docs(corpus_dir)
    n_docs = len(docs)
    vocab, postings, tokens = set(), set(), 0
    for d, text in docs:
        ts = tk.tokens(text)
        tokens += len(ts)
        for t in ts:
            vocab.add(t)
            postings.add((d, t))

    got = {r["metric"]: r["value"] for r in index_stats(index_dir).to_pylist()}
    assert got["n_docs"] == float(n_docs)
    assert got["n_terms"] == float(len(vocab))
    assert got["total_postings"] == float(len(postings))
    assert got["total_tokens"] == float(tokens)
    assert abs(got["avgdl"] - tokens / n_docs) < 1e-6


# ------------------------------------------------------- heavy hitters (MG)

def test_heavy_hitters_exact_config_matches_bruteforce(code_corpus):
    """sketch_k >= vocab: no decrement fires, estimates are exact cf and
    the top-k equals brute-force count order."""
    from collections import Counter

    import ray.data

    from distributed_text_search_ray.functions.tokenize import tokenizer_for
    from distributed_text_search_ray.pipelines.textstats import heavy_hitter_terms
    from tests.conftest import corpus_docs

    corpus_dir, _ = code_corpus
    docs = corpus_docs(corpus_dir)
    tk = tokenizer_for(None)
    truth = Counter()
    for _, content in docs:
        truth.update(tk.tokens(content))
    expected = sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))[:15]

    ds = ray.data.from_items(
        [{"doc_id": i, "content": c} for i, c in docs]
    )
    got = [
        (r["term"], r["est_cf"])
        for r in heavy_hitter_terms(ds, k=15, sketch_k=1_000_000).take_all()
    ]
    assert got == expected


def test_heavy_hitters_mg_undercount_bound():
    """Approximate regime: every estimate undercounts by at most
    total_tokens/(sketch_k+1), and a term whose cf exceeds that bound is
    guaranteed into the merged summary (the Misra-Gries guarantee,
    summed over block sketches)."""
    from collections import Counter

    import numpy as np
    import ray.data

    from distributed_text_search_ray.pipelines.textstats import heavy_hitter_terms

    rng = np.random.default_rng(11)
    # zipf-ish stream: a few heavy terms + a long tail, split over many docs
    vocab = [f"t{i}" for i in range(400)]
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    weights /= weights.sum()
    docs = []
    for d in range(60):
        toks = rng.choice(vocab, size=200, p=weights)
        docs.append({"doc_id": d, "content": " ".join(toks)})
    truth = Counter()
    for doc in docs:
        truth.update(doc["content"].split())
    total = sum(truth.values())

    sketch_k = 64
    ds = ray.data.from_items(docs).repartition(8)
    got = {
        r["term"]: r["est_cf"]
        for r in heavy_hitter_terms(ds, k=len(vocab), sketch_k=sketch_k).take_all()
    }
    bound = total / (sketch_k + 1)
    for term, est in got.items():
        true_cf = truth[term]
        assert est <= true_cf
        assert true_cf - est <= bound, (term, true_cf, est, bound)
    for term, cf in truth.items():
        if cf > bound:
            assert term in got, (term, cf, bound)


# ------------------------------------------------------------- rank_eval

def test_rank_eval_matches_python_oracle(built_index_r3):
    """nDCG/MRR/recall@k vs a from-scratch python computation: relevance =
    docs containing every query token, ranking = the python BM25 oracle."""
    import math

    from distributed_text_search_ray.functions.tokenize import tokenizer_for
    from distributed_text_search_ray.oracle import bm25_scores, build_oracle_index
    from distributed_text_search_ray.pipelines.search import rank_eval
    from distributed_text_search_ray.util import round_half_away
    from tests.conftest import corpus_docs

    corpus_dir, index_dir = built_index_r3
    docs = corpus_docs(corpus_dir)
    queries = [(0, "struct parse"), (1, "return"), (2, "zzz_nothing matches")]
    k = 5

    oi = build_oracle_index(docs)
    tk = tokenizer_for(None)
    got = rank_eval(index_dir, queries, k=k)
    rows = {r["query_id"]: r for r in got.to_pylist()}
    assert [r for r in sorted(rows)] == [0, 1, 2]

    for qid, qtext in queries:
        qtoks = set(tk.tokens(qtext))
        rel = {
            d
            for d, content in docs
            if qtoks and qtoks.issubset(set(tk.tokens(content)))
        }
        # engine rank contract: 6-dp-rounded score desc, doc_id asc
        scores = bm25_scores(oi, tk.tokens(qtext))
        ordered = sorted(
            ((round_half_away(s, 6), d) for d, s in scores.items()),
            key=lambda sd: (-sd[0], sd[1]),
        )[:k]
        top = [(r + 1, d) for r, (_, d) in enumerate(ordered)]
        flags = [(rank, doc in rel) for rank, doc in top]
        hits = sum(f for _, f in flags)
        dcg = sum(1 / math.log2(rank + 1) for rank, f in flags if f)
        idcg = sum(1 / math.log2(i + 1) for i in range(1, min(k, len(rel)) + 1))
        first = min((rank for rank, f in flags if f), default=0)
        r = rows[qid]
        assert r["n_rel"] == len(rel)
        assert r["hits_at_k"] == hits
        assert r["ndcg"] == round_half_away(dcg / idcg if idcg else 0.0, 6)
        assert r["mrr"] == round_half_away(1 / first if first else 0.0, 6)
        assert r["recall_k"] == round_half_away(hits / len(rel) if rel else 0.0, 6)


def test_perplexity_buckets_tercile_masses_and_tie_rule():
    """Bucket masses follow ceil-rank tercile cutpoints (head gets ceil(N/3)
    rows incl. cutpoint ties), every doc bucketed exactly once, and bucket
    membership is monotone in logperp."""
    import numpy as np
    import ray.data

    from distributed_text_search_ray.pipelines.textstats import (
        perplexity_buckets,
        unigram_logperp,
    )

    rng = np.random.default_rng(3)
    docs = []
    vocab = [f"w{i}" for i in range(50)]
    for d in range(90):
        toks = rng.choice(vocab, size=rng.integers(5, 40))
        docs.append({"doc_id": d, "content": " ".join(toks)})
    ds = ray.data.from_items(docs).repartition(4)

    got = perplexity_buckets(ds, vocab_size=16).take_all()
    lp = {r["doc_id"]: r["logperp"] for r in unigram_logperp(ds, vocab_size=16).take_all()}
    assert len(got) == len(lp)  # every scored doc bucketed exactly once
    assert {r["doc_id"] for r in got} == set(lp)
    for r in got:
        assert r["logperp"] == lp[r["doc_id"]]

    vals = np.sort(np.array(list(lp.values())))
    n = len(vals)
    c1 = vals[int(np.ceil(n / 3.0)) - 1]          # quantile_disc(1/3)
    c2 = vals[int(np.ceil(2.0 * n / 3.0)) - 1]    # quantile_disc(2/3)
    for r in got:
        v = r["logperp"]
        want = "head" if v <= c1 else ("middle" if v <= c2 else "tail")
        assert r["bucket"] == want, (r, c1, c2)


def test_collocations_matches_bruteforce_pmi():
    import math
    from collections import Counter

    import numpy as np
    import ray.data

    from distributed_text_search_ray.functions.tokenize import tokenizer_for
    from distributed_text_search_ray.pipelines.textstats import collocations
    from distributed_text_search_ray.util import round_half_away

    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(30)]
    docs = []
    for d in range(80):
        toks = list(rng.choice(vocab, size=rng.integers(0, 30)))
        if rng.random() < 0.5:
            toks += ["new", "york"] * rng.integers(1, 4)  # a planted collocation
        docs.append({"doc_id": d, "content": " ".join(toks)})

    tk = tokenizer_for(None)
    uni, bi = Counter(), Counter()
    d1 = 0
    for doc in docs:
        toks = tk.tokens(doc["content"])
        d1 += bool(toks)
        uni.update(toks)
        bi.update(f"{a} {b}" for a, b in zip(toks, toks[1:]))
    T = float(sum(uni.values()))
    B = T - d1
    exp = []
    for s, n in bi.items():
        if n < 3:
            continue
        a, b = s.split(" ", 1)
        exp.append(
            (s, n, round_half_away(math.log((n / B) / ((uni[a] / T) * (uni[b] / T))), 6))
        )
    exp.sort(key=lambda r: (-r[2], r[0]))
    exp = exp[:10]

    ds = ray.data.from_items(docs).repartition(5)
    got = [
        (r["bigram"], r["n"], r["pmi"])
        for r in collocations(ds, top_n=10, min_count=3).take_all()
    ]
    assert got == exp
    assert any(b == "new york" for b, _, _ in got)  # the planted phrase surfaces
