"""Deduplication operators for large-scale training-data pipelines.

Exact dedup, MinHash+LSH near-dup, and SimHash near-dup, each expressed
Ray-Data-first:

- exact: vectorized content-hash in ``map_batches`` then a partial+final
  ``groupby`` (hash-partition + per-group aggregate) — the only shuffle moves
  one row per (batch, hash).
- MinHash-LSH: shingle -> minhash -> band rows -> coarse hash-partition
  ``groupby`` -> vectorized in-partition bucket mining -> distinct pairs ->
  distributed exact shingle-Jaccard verify (two hash joins of the
  candidate-sized pair/shingle datasets). Nothing O(corpus) ever lands on
  the driver; the only driver-held object is the distinct candidate-id
  array (broadcast small side for the shingle filter stage).
- SimHash: 64-bit fingerprints, banded into n_bands equal bit-chunks
  (pigeonhole: any pair within Hamming distance n_bands-1 shares a chunk —
  exact recall up to that radius; default band count adapts to the
  requested max_hamming), mined with the same coarse-partition vectorized
  bucket scan.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Count, Min

logger = logging.getLogger(__name__)

from distributed_text_search_ray.config import AnalyzerConfig
from distributed_text_search_ray.functions.hashing import (
    md5_hex,
    minhash_signature,
    popcount64,
    shingle_hashes,
    simhash64,
    splitmix64,
)
from distributed_text_search_ray.functions.tokenize import tokenizer_for
from distributed_text_search_ray.util import agg_rename, round_half_away


def _hash_batch(batch: pa.Table) -> pa.Table:
    md5s = [md5_hex(t) for t in batch.column("content").to_pylist()]
    return pa.table(
        {
            "content_md5": pa.array(md5s, type=pa.string()),
            "doc_id": batch.column("doc_id"),
        }
    )


def exact_dedup(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Groups of byte-identical content.

    Returns (content_md5, n_copies, representative_doc_id) — representative =
    min doc_id, the deterministic "first" (SURVEY.md section 2.7).
    """
    # coarse-group + Arrow-native hash aggregate: unique contents are ~one
    # group per row, and Ray's sort-based groupby pays per group (16 s for
    # 1.15M docs measured); 32 coarse partitions keyed by an md5 nibble pair
    # + pyarrow group_by inside map_groups do the same reduce in C++
    hashed = docs.map_batches(_hash_batch, batch_format="pyarrow")

    def add_coarse(batch: pa.Table) -> pa.Table:
        h = [int(s[:2], 16) % 32 for s in batch.column("content_md5").to_pylist()]
        return batch.append_column("cg", pa.array(h, type=pa.int64()))

    def reduce_group(g: pa.Table) -> pa.Table:
        agg = (
            g.select(["content_md5", "doc_id"])
            .group_by("content_md5")
            .aggregate([("doc_id", "count"), ("doc_id", "min")])
        )
        return agg_rename(
            agg,
            ["content_md5"],
            [("doc_id", "count"), ("doc_id", "min")],
            ["n_copies", "representative_doc_id"],
        )

    return (
        hashed.map_batches(add_coarse, batch_format="pyarrow")
        .groupby("cg")
        .map_groups(reduce_group, batch_format="pyarrow")
    )


class _MinhashBands:
    """map_batches stage: doc -> (band_id, band_hash, doc_id) rows."""

    def __init__(
        self,
        num_perm: int,
        bands: int,
        shingle_n: int,
        analyzer: AnalyzerConfig,
        pair_partitions: int = 64,
    ):
        assert num_perm % bands == 0
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.shingle_n = shingle_n
        self.pair_partitions = pair_partitions
        self.tokenizer = tokenizer_for(analyzer)

    def signature(self, text: str) -> np.ndarray | None:
        toks = self.tokenizer.tokens(text)
        if not toks:
            return None
        return minhash_signature(shingle_hashes(toks, self.shingle_n), self.num_perm)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # batch-vectorized: concatenate every doc's shingles, one signature
        # matrix for the whole batch, band hashes folded vectorized
        from distributed_text_search_ray.functions.hashing import minhash_signatures_batch

        sh_chunks, lens, kept_ids = [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("content").to_pylist()
        ):
            sh = shingle_hashes(self.tokenizer.tokens(text), self.shingle_n)
            if sh.size == 0:
                continue
            sh_chunks.append(sh)
            lens.append(sh.size)
            kept_ids.append(doc_id)
        if not sh_chunks:
            return pa.table(
                {
                    "part": pa.array([], type=pa.int32()),
                    "band_hash": pa.array([], type=pa.int64()),
                    "doc_id": pa.array([], type=pa.int64()),
                }
            )
        starts = np.concatenate(([0], np.cumsum(lens)[:-1])).astype(np.int64)
        sigs = minhash_signatures_batch(np.concatenate(sh_chunks), starts, self.num_perm)
        n = len(kept_ids)
        # fold each band's rows into one hash: (docs, bands, r) -> (docs, bands);
        # the per-band salt (xor below) separates bands, so band_hash alone is
        # the LSH bucket key
        cube = sigs.reshape(n, self.bands, self.rows_per_band)
        acc = np.zeros((n, self.bands), dtype=np.uint64)
        for j in range(self.rows_per_band):
            acc = splitmix64(acc * np.uint64(0x9E3779B97F4A7C15) + cube[:, :, j])
        acc ^= splitmix64(np.arange(1, self.bands + 1, dtype=np.uint64))[None, :]
        band_hash = (acc & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
        doc_rep = np.repeat(np.asarray(kept_ids, dtype=np.int64), self.bands)
        flat = band_hash.reshape(-1)
        return pa.table(
            {
                "part": pa.array(
                    (flat % self.pair_partitions).astype(np.int32), type=pa.int32()
                ),
                "band_hash": pa.array(flat, type=pa.int64()),
                "doc_id": pa.array(doc_rep, type=pa.int64()),
            }
        )


def dedup_filter(
    docs: ray.data.Dataset, num_partitions: int = 32
) -> ray.data.Dataset:
    """Materialize the DEDUPED corpus — one representative row (min doc_id)
    per distinct content — in ONE pass over the input.

    Scale shape: a per-batch combiner keeps one candidate row (min doc_id)
    per content md5, then a single hash-partitioned shuffle on the md5
    co-locates candidates and a vectorized per-partition reduce keeps the
    global min. No join and no pre-count: the round-2 design consumed the
    upstream pipeline three times (a ``count()`` guard plus both sides of a
    ``Dataset.join`` — under ``curate_corpus`` that re-ran the fused
    tokenize+filter stage), and Ray's join aggregator crashes on the
    schema-less empty blocks ``groupby().map_groups()`` emits for empty
    hash partitions (BENCH_r02). Skew: every surviving candidate of a
    globally hot content lands in one partition, but the per-batch combiner
    bounds that to one row per input batch. Output: (doc_id, content).
    """
    P = num_partitions

    def _first_per_key(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Row indices of the min-id row per distinct key (vectorized)."""
        order = np.lexsort((ids, keys))
        ks = keys[order]
        first = np.ones(len(ks), dtype=bool)
        if len(ks) > 1:
            np.not_equal(ks[1:], ks[:-1], out=first[1:])
        return order[first]

    def combine(batch: pa.Table) -> pa.Table:
        texts = batch.column("content").to_pylist()
        ids = batch.column("doc_id").to_numpy()
        md5s = np.array([md5_hex(t) for t in texts], dtype="U32")
        rows = _first_per_key(md5s, ids) if len(ids) else np.empty(0, dtype=np.int64)
        sub = batch.select(["doc_id", "content"]).take(pa.array(rows))
        kept = md5s[rows]
        part = np.array([int(h[:8], 16) % P for h in kept], dtype=np.int32)
        return sub.append_column("h", pa.array(kept, type=pa.string())).append_column(
            "part", pa.array(part, type=pa.int32())
        )

    def keep_min(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "content": pa.array([], type=pa.string()),
                }
            )
        ids = group.column("doc_id").to_numpy()
        keys = np.asarray(group.column("h").to_pylist(), dtype="U32")
        rows = np.sort(_first_per_key(keys, ids))
        return group.select(["doc_id", "content"]).take(pa.array(rows))

    return (
        docs.map_batches(combine, batch_format="pyarrow")
        .groupby("part")
        .map_groups(keep_min, batch_format="pyarrow")
    )


def _mine_bucket_pairs(
    keys: np.ndarray, ids: np.ndarray, payload: np.ndarray | None, max_bucket_size: int
):
    """Vectorized bucket mining over (key, doc_id[, payload]) rows.

    Sorts by (key, doc_id), finds >=2-member runs with run-length encoding,
    emits all within-bucket pairs via ``triu_indices`` (doc_a < doc_b because
    runs are id-sorted). Buckets over ``max_bucket_size`` are dropped with a
    logged count — a bucket that large at a meaningful threshold means
    degenerate content (empty/boilerplate docs), and emitting its O(n^2)
    pairs would dominate the job.

    Returns (doc_a, doc_b, pay_a, pay_b) int64/uint64 arrays (pay_* None when
    payload is None).
    """
    order = np.lexsort((ids, keys))
    ks, ds_ = keys[order], ids[order]
    pay = payload[order] if payload is not None else None
    n = len(ks)
    out_a, out_b, out_pa, out_pb = [], [], [], []
    if n:
        is_start = np.empty(n, dtype=bool)
        is_start[0] = True
        np.not_equal(ks[1:], ks[:-1], out=is_start[1:])
        starts = np.flatnonzero(is_start)
        ends = np.append(starts[1:], n)
        lens = ends - starts
        dropped = 0
        for idx in np.flatnonzero(lens >= 2):
            s, e = starts[idx], ends[idx]
            if e - s > max_bucket_size:
                dropped += 1
                continue
            run_ids = ds_[s:e]
            i, j = np.triu_indices(e - s, k=1)
            keep = run_ids[i] != run_ids[j]  # duplicate doc rows in one bucket
            out_a.append(run_ids[i][keep])
            out_b.append(run_ids[j][keep])
            if pay is not None:
                out_pa.append(pay[s:e][i][keep])
                out_pb.append(pay[s:e][j][keep])
        if dropped:
            logger.warning(
                "bucket mining dropped %d over-size buckets (> %d rows)",
                dropped,
                max_bucket_size,
            )
    a = np.concatenate(out_a) if out_a else np.empty(0, dtype=np.int64)
    b = np.concatenate(out_b) if out_b else np.empty(0, dtype=np.int64)
    if payload is None:
        return a, b, None, None
    pa_ = np.concatenate(out_pa) if out_pa else np.empty(0, dtype=payload.dtype)
    pb_ = np.concatenate(out_pb) if out_pb else np.empty(0, dtype=payload.dtype)
    return a, b, pa_, pb_


def _empty_pairs_table() -> pa.Table:
    return pa.table(
        {
            "doc_a": pa.array([], type=pa.int64()),
            "doc_b": pa.array([], type=pa.int64()),
            "jaccard": pa.array([], type=pa.float64()),
        }
    )


def _candidate_shingles_fn(analyzer: AnalyzerConfig, shingle_n: int, cand_ids: np.ndarray):
    """Stage factory: emit (doc_id, sh) shingle sets for candidate docs only.

    The sorted candidate-id array is the broadcast small side (closure
    capture — Ray ships it to the object store once and workers share it);
    shingle sets are serialized as binary (sorted-unique uint64 tobytes) so
    they survive the downstream hash join (acero rejects list<> payload
    columns). Plain function + process-cached tokenizer: rides the warm task
    pool instead of paying actor-pool spin-up."""

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        if len(cand_ids):
            pos = np.searchsorted(cand_ids, ids)
            pos_c = np.minimum(pos, len(cand_ids) - 1)
            keep = cand_ids[pos_c] == ids
        else:
            keep = np.zeros(len(ids), dtype=bool)
        sub = batch.filter(pa.array(keep))
        tk = tokenizer_for(analyzer)
        out_id, out_sh = [], []
        for doc_id, text in zip(
            sub.column("doc_id").to_pylist(), sub.column("content").to_pylist()
        ):
            sh = shingle_hashes(tk.tokens(text), shingle_n)
            out_id.append(doc_id)
            out_sh.append(sh.tobytes())
        return pa.table(
            {
                "doc_id": pa.array(out_id, type=pa.int64()),
                "sh": pa.array(out_sh, type=pa.binary()),
            }
        )

    return f


def minhash_lsh_pairs(
    docs: ray.data.Dataset,
    threshold: float = 0.5,
    num_perm: int = 128,
    bands: int = 32,
    shingle_n: int = 3,
    analyzer: AnalyzerConfig | None = None,
    pair_partitions: int = 64,
    max_bucket_size: int = 4096,
    join_partitions: int = 4,
) -> ray.data.Dataset:
    """Near-duplicate pairs with exact shingle-set Jaccard >= threshold.

    LSH proposes candidates (recall ~1 - (1 - t^r)^b; for t=0.5, r=4, b=32
    the miss probability is ~0.13 per pair at exactly the threshold and
    vanishes above it); exact Jaccard verification removes false positives,
    so output precision is exact. NOTE the recall caveat: a pair sitting at
    jaccard ~= threshold may be missed — tune (bands, num_perm) for the
    threshold in use.

    Fully distributed: band rows are hash-partitioned by bucket into
    ``pair_partitions`` coarse groups and mined vectorized inside each group
    (one UDF call per partition, not per bucket); pairs are made distinct
    with a groupby; verification joins the candidate-sized pair and shingle
    datasets twice and computes exact Jaccard per batch. The driver never
    holds more than the distinct candidate-id array (broadcast small side).
    ``pair_partitions`` bounds per-group memory: size it so
    corpus_rows * bands / pair_partitions rows (~24 B each) fit a worker.
    """
    analyzer = analyzer or AnalyzerConfig()
    _bander = _MinhashBands(
        num_perm=num_perm,
        bands=bands,
        shingle_n=shingle_n,
        analyzer=analyzer,
        pair_partitions=pair_partitions,
    )

    def band_stage(batch: pa.Table) -> pa.Table:
        return _bander(batch)

    band_rows = docs.map_batches(band_stage, batch_format="pyarrow")

    def mine(group: pa.Table) -> pa.Table:
        a, b, _, _ = _mine_bucket_pairs(
            group.column("band_hash").to_numpy(),
            group.column("doc_id").to_numpy(),
            None,
            max_bucket_size,
        )
        if len(a):  # in-partition distinct (same pair from 2+ buckets)
            packed = np.unique(np.stack([a, b], axis=1), axis=0)
            a, b = packed[:, 0], packed[:, 1]
        pp = (
            (splitmix64(a.astype(np.uint64)) ^ splitmix64(b.astype(np.uint64)))
            % np.uint64(32)
        ).astype(np.int32)
        return pa.table(
            {
                "pp": pa.array(pp, type=pa.int32()),
                "doc_a": pa.array(a, type=pa.int64()),
                "doc_b": pa.array(b, type=pa.int64()),
            }
        )

    mined = band_rows.groupby("part").map_groups(mine, batch_format="pyarrow")

    # global distinct (same pair proposed by buckets in different partitions):
    # coarse-group vectorized distinct — a per-pair groupby aggregate pays
    # per GROUP and near-dup mining yields ~one group per row (see the
    # ngram_jaccard_pairs rationale; same 8x measured win)
    def distinct_pairs(group: pa.Table) -> pa.Table:
        a = group.column("doc_a").to_numpy()
        b = group.column("doc_b").to_numpy()
        if len(a):
            packed = np.unique(np.stack([a, b], axis=1), axis=0)
            a, b = packed[:, 0], packed[:, 1]
        return pa.table(
            {"doc_a": pa.array(a, type=pa.int64()), "doc_b": pa.array(b, type=pa.int64())}
        )

    pairs = (
        mined.groupby("pp")
        .map_groups(distinct_pairs, batch_format="pyarrow")
        .materialize()
    )
    if pairs.count() == 0:
        return ray.data.from_arrow(_empty_pairs_table())

    return _verify_pairs(pairs, docs, analyzer, shingle_n, threshold, join_partitions)


def _verify_pairs(
    pairs: ray.data.Dataset,
    docs: ray.data.Dataset,
    analyzer: AnalyzerConfig,
    shingle_n: int,
    threshold: float,
    join_partitions: int,
) -> ray.data.Dataset:
    """Exact shingle-Jaccard verification of candidate (doc_a, doc_b) pairs:
    returns (doc_a, doc_b, jaccard) rows with jaccard >= threshold.

    ONE join of the candidate shingle table: each pair contributes a row
    per side keyed by the doc to join ((doc_a, doc_b, join_id, side)), and
    after the join the pair's two shingle sets are re-gathered with the
    coarse-group run-length pattern — the shingle payload crosses the
    exchange once."""

    def both_ids(batch: pa.Table) -> pa.Table:
        ids = np.concatenate(
            [batch.column("doc_a").to_numpy(), batch.column("doc_b").to_numpy()]
        )
        return pa.table({"doc_id": pa.array(np.unique(ids), type=pa.int64())})

    cand_ids = np.asarray(
        sorted(pairs.map_batches(both_ids, batch_format="pyarrow").unique("doc_id")),
        dtype=np.int64,
    )
    sh_ds = docs.map_batches(
        _candidate_shingles_fn(analyzer, shingle_n, cand_ids), batch_format="pyarrow"
    )

    def side_rows(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy()
        b = batch.column("doc_b").to_numpy()
        return pa.table(
            {
                "doc_a": pa.array(np.concatenate([a, a]), type=pa.int64()),
                "doc_b": pa.array(np.concatenate([b, b]), type=pa.int64()),
                "join_id": pa.array(np.concatenate([a, b]), type=pa.int64()),
                "side": pa.array(
                    np.concatenate(
                        [np.zeros(len(a), np.int8), np.ones(len(b), np.int8)]
                    ),
                    type=pa.int8(),
                ),
            }
        )

    joined = pairs.map_batches(side_rows, batch_format="pyarrow").join(
        sh_ds, join_type="inner", num_partitions=join_partitions,
        on=("join_id",), right_on=("doc_id",),
    )

    def add_pp(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy()
        b = batch.column("doc_b").to_numpy()
        pp = (
            (splitmix64(a.astype(np.uint64)) ^ splitmix64(b.astype(np.uint64)))
            % np.uint64(32)
        ).astype(np.int32)
        return batch.append_column("pp", pa.array(pp, type=pa.int32()))

    def verify(group: pa.Table) -> pa.Table:
        a = group.column("doc_a").to_numpy()
        b = group.column("doc_b").to_numpy()
        side = group.column("side").to_numpy()
        sh = group.column("sh").to_pylist()
        order = np.lexsort((side, b, a))
        a_out, b_out, j_out = [], [], []
        i = 0
        n = len(a)
        while i < n:
            k0 = order[i]
            # a pair has exactly rows (side=0, side=1) adjacent after the
            # sort; unpaired rows (partner doc had no shingles) are skipped
            if i + 1 < n:
                k1 = order[i + 1]
                if a[k0] == a[k1] and b[k0] == b[k1] and side[k0] == 0 and side[k1] == 1:
                    A = np.frombuffer(sh[k0], dtype=np.uint64)
                    B = np.frombuffer(sh[k1], dtype=np.uint64)
                    inter = np.intersect1d(A, B, assume_unique=True).size
                    union = A.size + B.size - inter
                    if union:
                        j = inter / union
                        if j >= threshold:
                            a_out.append(int(a[k0]))
                            b_out.append(int(b[k0]))
                            j_out.append(round_half_away(j, 6))
                    i += 2
                    continue
            i += 1
        return pa.table(
            {
                "doc_a": pa.array(a_out, type=pa.int64()),
                "doc_b": pa.array(b_out, type=pa.int64()),
                "jaccard": pa.array(j_out, type=pa.float64()),
            }
        )

    return (
        joined.map_batches(add_pp, batch_format="pyarrow")
        .groupby("pp")
        .map_groups(verify, batch_format="pyarrow")
    )


def near_dedup_filter(
    docs: ray.data.Dataset,
    threshold: float = 0.8,
    num_perm: int = 128,
    bands: int = 16,
    shingle_n: int = 3,
    analyzer: AnalyzerConfig | None = None,
    pair_partitions: int = 64,
    join_partitions: int = 4,
    anti_join: bool = True,
    bucket: str = "lsh",
    verified_edges: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Near-duplicate-FILTERED corpus: keep one representative per near-dup
    cluster. Returns the surviving (doc_id, content) rows.

    ``verified_edges``: optional pre-verified ``(doc_a, doc_b, jaccard)``
    edge dataset (from :func:`verified_anchor_edges` with the SAME
    banding/threshold/analyzer config) — skips candidate generation and
    verification entirely. Lets a caller running several dedup readouts
    (filter + clusters + histogram) pay for the edge machinery once.

    ``bucket`` picks the candidate-bucket scheme:

    - ``"lsh"`` (default, the 100 TB path): MinHash band hashes —
      O(bands) rows per doc, probabilistic recall tuned by
      (num_perm, bands, threshold).
    - ``"shingle"``: the bucket IS the n-gram shingle — recall-EXACT for
      any threshold > 0 (a pair with positive Jaccard shares a shingle by
      definition), which makes the whole operator's survivor set
      deterministic and SQL-oracle-checkable (the exactness-forcing gate
      config, same pattern as the ANN probe-all configs). Costs O(windows)
      bucket rows and makes boilerplate shingles high-degree anchors, so
      it is the CONFORMANCE configuration, not the scale default.

    Identical downstream in both modes: per-bucket min-doc anchor edges,
    exact shingle-Jaccard verification, min-anchored drop.

    Why this exists next to ``minhash_lsh_pairs``: on duplicate-heavy
    corpora the all-pairs output is Θ(Σ cluster²) — measured 1.16e9
    candidate pairs on a 2.3M-doc corpus whose sampled pair distribution
    put 0.47% of pairs above 0.8 (≈12e9 true pairs). Deduplication never
    needs those pairs: each LSH bucket emits only (bucket-min, doc) anchor
    edges — O(band rows) total, linear in the corpus — and a doc is
    dropped when exact shingle-Jaccard to ANY of its anchors reaches the
    threshold. Cluster members all share a bucket with (or chain to) their
    cluster's min doc, which survives as the representative. Single-pass
    min-anchoring (no transitive closure): a doc similar only to an
    already-dropped doc survives — the standard large-scale approximation,
    documented rather than hidden.

    Verification reuses the single-join gather of ``minhash_lsh_pairs``;
    everything stays distributed (no O(corpus) driver state)."""
    analyzer = analyzer or AnalyzerConfig()
    if verified_edges is None:
        verified_edges = verified_anchor_edges(
            docs,
            threshold=threshold,
            num_perm=num_perm,
            bands=bands,
            shingle_n=shingle_n,
            analyzer=analyzer,
            pair_partitions=pair_partitions,
            join_partitions=join_partitions,
            bucket=bucket,
        )
    return _apply_min_anchor_drop(docs, verified_edges, join_partitions, anti_join)


def verified_anchor_edges(
    docs: ray.data.Dataset,
    *,
    threshold: float,
    num_perm: int = 128,
    bands: int = 16,
    shingle_n: int = 3,
    analyzer: AnalyzerConfig | None = None,
    pair_partitions: int = 64,
    join_partitions: int = 4,
    bucket: str = "lsh",
) -> ray.data.Dataset:
    """Materialized exact-verified ``(doc_a, doc_b, jaccard)`` anchor edges
    at ``jaccard >= threshold`` — the shared substrate of
    :func:`near_dedup_filter` (min-anchor drop), :func:`near_dup_clusters`
    (connected components) and :func:`cluster_size_histogram` (via the
    clusters). Computing it ONCE and fanning the (tiny relative to the
    corpus) edge set into each readout saves one full candidate-generation
    + verification pass per extra readout."""
    analyzer = analyzer or AnalyzerConfig()
    edges = _anchor_candidate_edges(
        docs,
        num_perm=num_perm,
        bands=bands,
        shingle_n=shingle_n,
        analyzer=analyzer,
        pair_partitions=pair_partitions,
        bucket=bucket,
    )
    if edges.count() == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_a": pa.array([], type=pa.int64()),
                    "doc_b": pa.array([], type=pa.int64()),
                    "jaccard": pa.array([], type=pa.float64()),
                }
            )
        )
    return _verify_pairs(
        edges, docs, analyzer, shingle_n, threshold, join_partitions
    ).materialize()


def _anchor_candidate_edges(
    docs: ray.data.Dataset,
    *,
    num_perm: int,
    bands: int,
    shingle_n: int,
    analyzer: AnalyzerConfig,
    pair_partitions: int,
    bucket: str,
) -> ray.data.Dataset:
    """Candidate (bucket-min-anchor, member) edge list — distinct,
    materialized. Shared by ``near_dedup_filter`` (min-anchored drop) and
    ``near_dup_clusters`` (connected components over the verified edges)."""
    if bucket == "shingle":

        def shingle_bucket_rows(batch: pa.Table) -> pa.Table:
            tk = tokenizer_for(analyzer)
            hs, ids = [], []
            for doc_id, text in zip(
                batch.column("doc_id").to_pylist(),
                batch.column("content").to_pylist(),
            ):
                sh = shingle_hashes(tk.tokens(text), shingle_n)
                if sh.size:
                    hs.append(sh)
                    ids.append(np.full(sh.size, doc_id, dtype=np.int64))
            if hs:
                # int63 mask mirrors the LSH band_hash column type. A masked
                # collision (~2^-63 per shingle pair) merges two buckets and
                # can move a bucket's min-doc anchor, so an edge between true
                # co-members may be missed — the exact-Jaccard verify keeps
                # every EMITTED edge correct, but "recall-exact" holds only
                # up to that hash collision probability
                flat = (
                    np.concatenate(hs) & np.uint64(0x7FFFFFFFFFFFFFFF)
                ).astype(np.int64)
                doc_rep = np.concatenate(ids)
            else:
                flat = np.empty(0, dtype=np.int64)
                doc_rep = np.empty(0, dtype=np.int64)
            return pa.table(
                {
                    "part": pa.array(
                        (flat % pair_partitions).astype(np.int32), type=pa.int32()
                    ),
                    "band_hash": pa.array(flat, type=pa.int64()),
                    "doc_id": pa.array(doc_rep, type=pa.int64()),
                }
            )

        band_rows = docs.map_batches(shingle_bucket_rows, batch_format="pyarrow")
    else:
        _bander = _MinhashBands(
            num_perm=num_perm, bands=bands, shingle_n=shingle_n,
            analyzer=analyzer, pair_partitions=pair_partitions,
        )

        band_rows = docs.map_batches(lambda b: _bander(b), batch_format="pyarrow")

    def anchor_edges(group: pa.Table) -> pa.Table:
        keys = group.column("band_hash").to_numpy()
        ids = group.column("doc_id").to_numpy()
        order = np.lexsort((ids, keys))
        ks, ds_ = keys[order], ids[order]
        n = len(ks)
        if not n:
            return pa.table(
                {"anchor": pa.array([], type=pa.int64()), "doc_id": pa.array([], type=pa.int64())}
            )
        is_start = np.empty(n, dtype=bool)
        is_start[0] = True
        np.not_equal(ks[1:], ks[:-1], out=is_start[1:])
        seg = np.cumsum(is_start) - 1
        starts = np.flatnonzero(is_start)
        anchors = ds_[starts][seg]  # per row: its bucket's min doc id
        keep = ds_ != anchors
        a, d = anchors[keep], ds_[keep]
        if len(a):
            packed = np.unique(np.stack([a, d], axis=1), axis=0)
            a, d = packed[:, 0], packed[:, 1]
        pp = (
            (splitmix64(a.astype(np.uint64)) ^ splitmix64(d.astype(np.uint64)))
            % np.uint64(32)
        ).astype(np.int32)
        return pa.table(
            {
                "pp": pa.array(pp, type=pa.int32()),
                "anchor": pa.array(a, type=pa.int64()),
                "doc_id": pa.array(d, type=pa.int64()),
            }
        )

    def distinct_edges(group: pa.Table) -> pa.Table:
        a = group.column("anchor").to_numpy()
        d = group.column("doc_id").to_numpy()
        if len(a):
            packed = np.unique(np.stack([a, d], axis=1), axis=0)
            a, d = packed[:, 0], packed[:, 1]
        return pa.table(
            {"doc_a": pa.array(a, type=pa.int64()), "doc_b": pa.array(d, type=pa.int64())}
        )

    edges = (
        band_rows.groupby("part")
        .map_groups(anchor_edges, batch_format="pyarrow")
        .groupby("pp")
        .map_groups(distinct_edges, batch_format="pyarrow")
        .materialize()
    )
    return edges


def _apply_min_anchor_drop(
    docs: ray.data.Dataset,
    verified: ray.data.Dataset,
    join_partitions: int,
    anti_join: bool,
) -> ray.data.Dataset:
    """Drop min-anchored duplicates given the exact-verified edge set —
    the apply half of ``near_dedup_filter``."""
    if verified.count() == 0:
        return docs.select_columns(["doc_id", "content"])

    # the dropped-id set can be O(corpus) on dup-heavy corpora (that is the
    # point of the operator), so the DEFAULT is a left-anti hash join of
    # docs against the dropped-id dataset — zero driver state (VERDICT r3
    # item 5 flipped this from opt-in). ``anti_join=False`` keeps the
    # broadcast alternative (dropped ids collected once, shared via closure
    # capture — one copy per node): one fewer exchange, the right trade only
    # when the dup fraction is known small.
    def dropped_ids(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {"doc_id": pc.unique(batch.column("doc_b")).cast(pa.int64())}
        )

    dropped_ds = verified.map_batches(dropped_ids, batch_format="pyarrow")

    if anti_join:
        from distributed_text_search_ray.pipelines.joins import left_anti_join

        return left_anti_join(
            docs.select_columns(["doc_id", "content"]),
            dropped_ds,
            on="doc_id",
            num_partitions=max(join_partitions, 8),
        )

    drop = np.sort(
        np.asarray(sorted(dropped_ds.unique("doc_id")), dtype=np.int64)
    )

    def keep_survivors(batch: pa.Table) -> pa.Table:
        batch = batch.select(["doc_id", "content"])
        if not len(drop):
            return batch
        ids = batch.column("doc_id").to_numpy()
        pos = np.searchsorted(drop, ids)
        pos_c = np.minimum(pos, len(drop) - 1)
        keep = drop[pos_c] != ids
        return batch.filter(pa.array(keep))

    return docs.map_batches(keep_survivors, batch_format="pyarrow")


def connected_components(
    edges: ray.data.Dataset,
    nodes: ray.data.Dataset | None = None,
    edge_cols: tuple[str, str] = ("doc_a", "doc_b"),
    node_col: str = "doc_id",
    max_iters: int = 30,
    num_parts: int = 32,
) -> ray.data.Dataset:
    """Connected components of an undirected edge list by distributed
    hash-min label propagation: one ``(node_col, cluster_id)`` row per node,
    where ``cluster_id`` is the SMALLEST node id in its component.

    Why it exists: ``near_dedup_filter`` is deliberately single-pass
    (min-anchored drop, no transitive closure), which is the right dedup
    shape but cannot answer cluster-level questions — cluster size
    histograms, keep-best-per-cluster policies, provenance of what merged
    with what. Those need the real components.

    Ray-Data shape — ONE coarse-partition groupby per round, NO joins and
    no separate reduce: the round state is the union of label rows
    ``(key=node, label)`` and static edge rows ``(key=src, other=dst)``,
    both partitioned by ``hash(key)``. The group kernel computes each
    node's min over its label rows (duplicates collapse here, which is
    what lets the next round consume messages directly) and re-emits one
    self row per node plus one message row per outgoing edge — each
    already keyed by its DESTINATION's partition, so the output union
    edge-state feeds the next round's groupby unchanged. Per round that is
    one shuffle of O(V + E) rows; the driver holds only a per-round
    label-sum scalar over the self rows (one per node — labels decrease
    monotonically, so an unchanged sum is a fixed point; node ids below
    ~2^31 keep the int64 sum exact even at 10^12 docs). Hash-min converges
    in O(graph diameter) rounds and near-dup graphs are shallow
    (bucket-star edges through anchors), so the loop is short.

    ``nodes``: optional dataset whose ``node_col`` enumerates ALL nodes —
    isolated ones (no edges) then appear with ``cluster_id = node``.
    """
    KIND_LABEL, KIND_EDGE = np.int8(0), np.int8(1)

    def _part_of(ids: np.ndarray) -> pa.Array:
        return pa.array(
            (splitmix64(ids.astype(np.uint64)) % np.uint64(num_parts)).astype(
                np.int32
            ),
            type=pa.int32(),
        )

    def _state_rows(key, other, label, kind, selfmin) -> pa.Table:
        return pa.table(
            {
                "part": _part_of(key),
                "key": pa.array(key, type=pa.int64()),
                "other": pa.array(other, type=pa.int64()),
                "label": pa.array(label, type=pa.int64()),
                "kind": pa.array(kind, type=pa.int8()),
                "selfmin": pa.array(selfmin, type=pa.int8()),
            }
        )

    a_col, b_col = edge_cols

    def edge_rows(batch: pa.Table) -> pa.Table:
        a = batch.column(a_col).to_numpy().astype(np.int64, copy=False)
        b = batch.column(b_col).to_numpy().astype(np.int64, copy=False)
        key = np.concatenate([a, b])  # symmetric: each edge in both directions
        other = np.concatenate([b, a])
        z8 = np.zeros(len(key), dtype=np.int8)
        return _state_rows(
            key, other, np.zeros(len(key), dtype=np.int64),
            np.full(len(key), KIND_EDGE), z8,
        )

    edge_state = edges.select_columns([a_col, b_col]).map_batches(
        edge_rows, batch_format="pyarrow"
    ).materialize()

    def self_labels_from_edges(batch: pa.Table) -> pa.Table:
        ids = np.unique(
            np.concatenate(
                [
                    batch.column(a_col).to_numpy().astype(np.int64, copy=False),
                    batch.column(b_col).to_numpy().astype(np.int64, copy=False),
                ]
            )
        )
        return _state_rows(
            ids, np.full(len(ids), -1, dtype=np.int64), ids,
            np.full(len(ids), KIND_LABEL), np.ones(len(ids), dtype=np.int8),
        )

    label_srcs = [
        edges.select_columns([a_col, b_col]).map_batches(
            self_labels_from_edges, batch_format="pyarrow"
        )
    ]
    if nodes is not None:

        def self_labels_from_nodes(batch: pa.Table) -> pa.Table:
            ids = batch.column(node_col).to_numpy().astype(np.int64, copy=False)
            return _state_rows(
                ids, np.full(len(ids), -1, dtype=np.int64), ids,
                np.full(len(ids), KIND_LABEL), np.ones(len(ids), dtype=np.int8),
            )

        label_srcs.append(
            nodes.select_columns([node_col]).map_batches(
                self_labels_from_nodes, batch_format="pyarrow"
            )
        )
    msgs = label_srcs[0].union(*label_srcs[1:]) if len(label_srcs) > 1 else label_srcs[0]

    def propagate(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy()
        other = group.column("other").to_numpy()
        label = group.column("label").to_numpy()
        kind = group.column("kind").to_numpy()
        lm = kind == KIND_LABEL
        lk, ll = key[lm], label[lm]
        order = np.lexsort((ll, lk))
        lk, ll = lk[order], ll[order]
        if len(lk):
            is_start = np.empty(len(lk), dtype=bool)
            is_start[0] = True
            np.not_equal(lk[1:], lk[:-1], out=is_start[1:])
            ku, minlab = lk[is_start], ll[is_start]
        else:
            ku = np.empty(0, dtype=np.int64)
            minlab = np.empty(0, dtype=np.int64)
        out_key = [ku]
        out_label = [minlab]
        self_flags = [np.ones(len(ku), dtype=np.int8)]
        em = kind == KIND_EDGE
        if em.any():
            # every edge key also has a label row in this group (same part
            # hash), so searchsorted always hits
            idx = np.searchsorted(ku, key[em])
            out_key.append(other[em])
            out_label.append(minlab[idx])
            self_flags.append(np.zeros(int(em.sum()), dtype=np.int8))
        k = np.concatenate(out_key)
        lab = np.concatenate(out_label)
        return _state_rows(
            k, np.full(len(k), -1, dtype=np.int64), lab,
            np.full(len(k), KIND_LABEL), np.concatenate(self_flags),
        )

    def self_sum(batch: pa.Table) -> pa.Table:
        m = batch.column("selfmin").to_numpy().astype(bool)
        s = int(batch.column("label").to_numpy()[m].sum()) if len(m) else 0
        return pa.table({"s": pa.array([s], type=pa.int64())})

    prev_sum = None
    out = None
    for _ in range(max_iters):
        out = (
            msgs.union(edge_state)
            .groupby("part")
            .map_groups(propagate, batch_format="pyarrow")
            .materialize()
        )
        cur_sum = out.map_batches(self_sum, batch_format="pyarrow").sum("s")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum
        msgs = out
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} rounds "
            "(graph diameter exceeds max_iters) — raise max_iters"
        )

    def finish(batch: pa.Table) -> pa.Table:
        keep = batch.column("selfmin").to_numpy().astype(bool)
        return pa.table(
            {
                node_col: pa.array(
                    batch.column("key").to_numpy()[keep], type=pa.int64()
                ),
                "cluster_id": pa.array(
                    batch.column("label").to_numpy()[keep], type=pa.int64()
                ),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def near_dup_clusters(
    docs: ray.data.Dataset,
    threshold: float = 0.8,
    num_perm: int = 128,
    bands: int = 16,
    shingle_n: int = 3,
    analyzer: AnalyzerConfig | None = None,
    pair_partitions: int = 64,
    join_partitions: int = 4,
    bucket: str = "lsh",
    verified_edges: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Full near-duplicate CLUSTERS: one ``(doc_id, cluster_id)`` row per
    document, ``cluster_id`` = the smallest doc_id in the doc's connected
    component of the verified anchor-edge graph (docs with no verified
    near-dup edge are their own singleton cluster).

    Same candidate machinery as ``near_dedup_filter`` (bucket-min anchor
    edges, exact shingle-Jaccard verification at ``threshold``), then
    ``connected_components`` over the verified edges — the transitive
    closure that the filter deliberately skips. ``bucket="shingle"`` is the
    recall-exact conformance configuration (bucket = the raw shingle), used
    by the SQL oracle twin; ``"lsh"`` is the 100 TB default.

    ``verified_edges``: optional pre-verified edge dataset (see
    :func:`near_dedup_filter`)."""
    analyzer = analyzer or AnalyzerConfig()
    if verified_edges is None:
        verified_edges = verified_anchor_edges(
            docs,
            threshold=threshold,
            num_perm=num_perm,
            bands=bands,
            shingle_n=shingle_n,
            analyzer=analyzer,
            pair_partitions=pair_partitions,
            join_partitions=join_partitions,
            bucket=bucket,
        )
    node_ids = docs.select_columns(["doc_id"])
    if verified_edges.count() == 0:
        return node_ids.map_batches(
            lambda b: pa.table(
                {"doc_id": b.column("doc_id"),
                 "cluster_id": b.column("doc_id")}
            ),
            batch_format="pyarrow",
        )
    return connected_components(verified_edges, nodes=node_ids)


def cluster_size_histogram(
    clusters: ray.data.Dataset,
    cluster_col: str = "cluster_id",
    num_parts: int = 32,
) -> ray.data.Dataset:
    """(cluster_size, n_clusters) histogram of a cluster assignment — the
    standard dedup-analytics readout over ``near_dup_clusters`` (how much
    of the corpus sits in how-big duplicate families). Two coarse-partition
    groupbys (cluster-id-hash, then size), O(1) driver state."""

    def part_rows(batch: pa.Table) -> pa.Table:
        c = batch.column(cluster_col).to_numpy().astype(np.int64, copy=False)
        return pa.table(
            {
                "part": pa.array(
                    (splitmix64(c.astype(np.uint64)) % np.uint64(num_parts)).astype(
                        np.int32
                    ),
                    type=pa.int32(),
                ),
                "cluster_id": pa.array(c, type=pa.int64()),
            }
        )

    def per_cluster_size(group: pa.Table) -> pa.Table:
        c = group.column("cluster_id").to_numpy()
        _, counts = np.unique(c, return_counts=True)
        return pa.table(
            {
                "part": pa.array(
                    (counts % num_parts).astype(np.int32), type=pa.int32()
                ),
                "cluster_size": pa.array(counts.astype(np.int64), type=pa.int64()),
            }
        )

    def per_size_count(group: pa.Table) -> pa.Table:
        s = group.column("cluster_size").to_numpy()
        sizes, counts = np.unique(s, return_counts=True)
        return pa.table(
            {
                "cluster_size": pa.array(sizes.astype(np.int64), type=pa.int64()),
                "n_clusters": pa.array(counts.astype(np.int64), type=pa.int64()),
            }
        )

    return (
        clusters.map_batches(part_rows, batch_format="pyarrow")
        .groupby("part")
        .map_groups(per_cluster_size, batch_format="pyarrow")
        .groupby("part")
        .map_groups(per_size_count, batch_format="pyarrow")
    )


def simhash_fingerprints(
    docs: ray.data.Dataset, analyzer: AnalyzerConfig | None = None
) -> ray.data.Dataset:
    """(doc_id, simhash) 64-bit fingerprints (stored as int64 bit-pattern,
    token hash = DuckDB md5_number_lower so the fingerprint is
    SQL-oracle-checkable). Plain-function stage over the process-cached
    tokenizer (warm task pool, no actor spin-up)."""

    def f(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        hashes = np.fromiter(
            (simhash64(tk.tokens(t)) for t in batch.column("content").to_pylist()),
            dtype=np.uint64,
            count=batch.num_rows,
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "simhash": pa.array(hashes.astype(np.int64), type=pa.int64()),
            }
        )

    return docs.map_batches(f, batch_format="pyarrow")


def simhash_near_dup_pairs(
    docs: ray.data.Dataset,
    max_hamming: int = 3,
    analyzer: AnalyzerConfig | None = None,
    pair_partitions: int = 64,
    max_bucket_size: int = 4096,
    n_bands: int | None = None,
) -> ray.data.Dataset:
    """Pairs with simhash Hamming distance <= max_hamming.

    Banding into ``n_bands`` equal bit-chunks; by pigeonhole any pair with
    <= n_bands-1 differing bits shares an identical chunk, so recall is
    EXACT for max_hamming <= n_bands - 1. Default picks the smallest band
    count (of 2/4/8/16) that covers ``max_hamming`` exactly — more bands
    mean narrower chunks and bigger buckets (an 8-bit chunk holds ~N/256
    docs), so the cap below matters more at high radii. Mining is the same
    coarse-partition vectorized bucket scan as MinHash: rows hash-grouped
    into ``pair_partitions`` groups, pair Hamming computed as vectorized
    XOR + popcount; buckets over ``max_bucket_size`` rows are dropped with
    a logged count.
    """
    if n_bands is None:
        n_bands = next(b for b in (2, 4, 8, 16) if b - 1 >= min(max_hamming, 15))
    assert n_bands in (2, 4, 8, 16)
    width = 64 // n_bands
    mask = np.uint64((1 << width) - 1)
    fp = simhash_fingerprints(docs, analyzer)
    P = pair_partitions

    def band_rows(batch: pa.Table) -> pa.Table:
        h = batch.column("simhash").to_numpy().astype(np.uint64)
        ids = batch.column("doc_id").to_numpy()
        n = len(ids)
        keys = np.empty(n_bands * n, dtype=np.int64)
        for b in range(n_bands):
            chunk = ((h >> np.uint64(width * b)) & mask).astype(np.int64)
            keys[b * n : (b + 1) * n] = (np.int64(b) << np.int64(width)) | chunk
        out_ids = np.tile(ids, n_bands)
        sims = np.tile(h.astype(np.int64), n_bands)
        return pa.table(
            {
                "part": pa.array((keys % P).astype(np.int32), type=pa.int32()),
                "key": pa.array(keys, type=pa.int64()),
                "doc_id": pa.array(out_ids, type=pa.int64()),
                "simhash": pa.array(sims, type=pa.int64()),
            }
        )

    def mine(group: pa.Table) -> pa.Table:
        a, b, sim_a, sim_b = _mine_bucket_pairs(
            group.column("key").to_numpy(),
            group.column("doc_id").to_numpy(),
            group.column("simhash").to_numpy(),
            max_bucket_size,
        )
        if len(a):
            ham = popcount64(sim_a.astype(np.uint64) ^ sim_b.astype(np.uint64))
            keep = ham <= max_hamming
            a, b, ham = a[keep], b[keep], ham[keep]
        else:
            ham = np.empty(0, dtype=np.int64)
        pp = (
            (splitmix64(a.astype(np.uint64)) ^ splitmix64(b.astype(np.uint64)))
            % np.uint64(32)
        ).astype(np.int32)
        return pa.table(
            {
                "pp": pa.array(pp, type=pa.int32()),
                "doc_a": pa.array(a, type=pa.int64()),
                "doc_b": pa.array(b, type=pa.int64()),
                "hamming": pa.array(ham, type=pa.int64()),
            }
        )

    pairs = (
        fp.map_batches(band_rows, batch_format="pyarrow")
        .groupby("part")
        .map_groups(mine, batch_format="pyarrow")
    )

    # distinct across bands/partitions (Hamming is identical per pair):
    # coarse-group vectorized distinct, not a per-pair groupby aggregate
    def distinct(group: pa.Table) -> pa.Table:
        a = group.column("doc_a").to_numpy()
        b = group.column("doc_b").to_numpy()
        h = group.column("hamming").to_numpy()
        if len(a):
            order = np.lexsort((b, a))
            a, b, h = a[order], b[order], h[order]
            is_start = np.empty(len(a), dtype=bool)
            is_start[0] = True
            is_start[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
            a, b, h = a[is_start], b[is_start], h[is_start]
        return pa.table(
            {
                "doc_a": pa.array(a, type=pa.int64()),
                "doc_b": pa.array(b, type=pa.int64()),
                "hamming_min": pa.array(h, type=pa.int64()),
            }
        )

    return pairs.groupby("pp").map_groups(distinct, batch_format="pyarrow")


def contamination_check(
    docs: ray.data.Dataset,
    benchmark: list[tuple[int, str]],
    shingle_n: int = 3,
    min_overlap: int = 2,
    analyzer: AnalyzerConfig | None = None,
) -> ray.data.Dataset:
    """Benchmark-contamination scan: (doc_id, bench_id, n_shared) for every
    corpus doc sharing >= ``min_overlap`` distinct token n-gram shingles
    with a benchmark item.

    The benchmark set (eval prompts, test questions) is tiny next to the
    corpus, so its shingle-hash sets are the broadcast small side (sorted
    uint64 arrays captured in the stage closure); the corpus streams through
    one ``map_batches`` pass counting intersections via searchsorted — no
    shuffle, no index required. The training-data operator this enables:
    drop or flag contaminated docs before a model ever sees eval data.
    """
    analyzer = analyzer or AnalyzerConfig()
    tk = tokenizer_for(analyzer)
    bench = [
        (int(b), np.sort(shingle_hashes(tk.tokens(t), shingle_n)))
        for b, t in benchmark
    ]
    bench = [(b, sh) for b, sh in bench if sh.size]

    def scan(batch: pa.Table) -> pa.Table:
        tkn = tokenizer_for(analyzer)
        out_d, out_b, out_n = [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("content").to_pylist()
        ):
            sh = shingle_hashes(tkn.tokens(text), shingle_n)
            if not sh.size:
                continue
            for bench_id, bsh in bench:
                pos = np.searchsorted(bsh, sh)
                pos_c = np.minimum(pos, len(bsh) - 1)
                n = int((bsh[pos_c] == sh).sum())
                if n >= min_overlap:
                    out_d.append(doc_id)
                    out_b.append(bench_id)
                    out_n.append(n)
        return pa.table(
            {
                "doc_id": pa.array(out_d, type=pa.int64()),
                "bench_id": pa.array(out_b, type=pa.int64()),
                "n_shared": pa.array(out_n, type=pa.int64()),
            }
        )

    return docs.map_batches(scan, batch_format="pyarrow")


def ngram_jaccard_pairs(
    docs: ray.data.Dataset,
    threshold: float = 0.35,
    shingle_n: int = 3,
    analyzer: AnalyzerConfig | None = None,
    pair_partitions: int = 64,
    max_bucket_size: int = 65536,
) -> ray.data.Dataset:
    """Pairs with exact n-gram (token-shingle) Jaccard >= threshold.

    Unlike ``minhash_lsh_pairs`` (probabilistic LSH candidates + exact
    verify), recall here is EXACT at any threshold: the candidate set is
    every pair sharing at least one shingle, which covers every pair with
    jaccard > 0. Expressed as a distributed shingle-inverted index:

    1. one distinct (shingle_hash, doc_id, set_size) row per doc shingle —
       a ``map_batches`` emit, shingle sets deduped per doc;
    2. coarse hash-partition by shingle hash into ``pair_partitions``
       groups, then vectorized within-shingle pair emission
       (``_mine_bucket_pairs``) — each shared shingle emits its pair
       exactly once, so the number of rows a pair gets across all groups IS
       the intersection size |A∩B|. No second pass over content is needed:
       jaccard = i / (sz_a + sz_b - i) with the set sizes carried as pair
       payload.
    3. pair rows re-partition by pair hash into ``reduce_partitions``
       coarse groups and reduce VECTORIZED inside ``map_groups`` (lexsort +
       run-length count per group). A per-pair ``groupby(doc_a, doc_b)``
       aggregate measured 25 s on 1.27M rows / 1.13M groups at sf0.1 —
       Ray's sort-based aggregate pays per GROUP, so millions of
       single-row groups are exactly its worst case; the coarse-group
       reduce does the same work in numpy at full vector speed.

    The only quadratic hazard at scale is a shingle shared by many docs
    (license boilerplate): buckets above ``max_bucket_size`` docs are
    dropped with a logged count. Note the cap is not purely a recall cut:
    for a pair that DOES survive while sharing a capped shingle, the
    intersection count loses that shingle but ``sz_a``/``sz_b`` still
    include it, so the reported jaccard is biased low by up to
    (#capped shared shingles)/union. With the default cap that requires a
    shingle in >65536 docs, which carries ~zero Jaccard signal anyway (a
    shingle in B docs contributes 1/union to B^2/2 pairs). Exactness holds
    whenever no bucket is dropped — the logged count is the audit signal;
    for heavy-boilerplate corpora prefer ``minhash_lsh_pairs``.
    """
    analyzer = analyzer or AnalyzerConfig()
    P = pair_partitions
    reduce_partitions = 32

    def shingle_rows(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        sh_chunks, ids, sizes = [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("content").to_pylist()
        ):
            sh = shingle_hashes(tk.tokens(text), shingle_n)
            if sh.size == 0:
                continue
            sh_chunks.append(sh)
            ids.append(doc_id)
            sizes.append(sh.size)
        if not sh_chunks:
            return pa.table(
                {
                    "part": pa.array([], type=pa.int32()),
                    "sh": pa.array([], type=pa.int64()),
                    "doc_id": pa.array([], type=pa.int64()),
                    "sz": pa.array([], type=pa.int64()),
                }
            )
        flat = np.concatenate(sh_chunks)  # uint64
        counts = np.asarray(sizes, dtype=np.int64)
        return pa.table(
            {
                "part": pa.array((flat % np.uint64(P)).astype(np.int32), type=pa.int32()),
                "sh": pa.array(flat.view(np.int64), type=pa.int64()),
                "doc_id": pa.array(
                    np.repeat(np.asarray(ids, dtype=np.int64), counts), type=pa.int64()
                ),
                "sz": pa.array(np.repeat(counts, counts), type=pa.int64()),
            }
        )

    def mine(group: pa.Table) -> pa.Table:
        a, b, sz_a, sz_b = _mine_bucket_pairs(
            group.column("sh").to_numpy(),
            group.column("doc_id").to_numpy(),
            group.column("sz").to_numpy(),
            max_bucket_size,
        )
        if sz_a is None:
            sz_a = sz_b = np.empty(0, np.int64)
        # pair hash must not depend on which shingle partition emitted the
        # row — derived from the ids only
        pp = (
            (splitmix64(a.astype(np.uint64)) ^ splitmix64(b.astype(np.uint64)))
            % np.uint64(reduce_partitions)
        ).astype(np.int32)
        return pa.table(
            {
                "pp": pa.array(pp, type=pa.int32()),
                "doc_a": pa.array(a, type=pa.int64()),
                "doc_b": pa.array(b, type=pa.int64()),
                "sz_a": pa.array(sz_a, type=pa.int64()),
                "sz_b": pa.array(sz_b, type=pa.int64()),
            }
        )

    def reduce_pairs(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _empty_pairs_table()
        a = group.column("doc_a").to_numpy()
        b = group.column("doc_b").to_numpy()
        sz_a = group.column("sz_a").to_numpy()
        sz_b = group.column("sz_b").to_numpy()
        order = np.lexsort((b, a))
        a, b, sz_a, sz_b = a[order], b[order], sz_a[order], sz_b[order]
        is_start = np.empty(len(a), dtype=bool)
        is_start[0] = True
        is_start[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        starts = np.flatnonzero(is_start)
        inter = np.diff(np.concatenate((starts, [len(a)]))).astype(np.float64)
        ua, ub = a[starts], b[starts]
        union = (sz_a[starts] + sz_b[starts]).astype(np.float64) - inter
        j = inter / union
        keep = j >= threshold
        return pa.table(
            {
                "doc_a": pa.array(ua[keep], type=pa.int64()),
                "doc_b": pa.array(ub[keep], type=pa.int64()),
                "jaccard": pa.array(
                    [round_half_away(x, 6) for x in j[keep]], type=pa.float64()
                ),
            }
        )

    return (
        docs.map_batches(shingle_rows, batch_format="pyarrow")
        .groupby("part")
        .map_groups(mine, batch_format="pyarrow")
        .groupby("pp")
        .map_groups(reduce_pairs, batch_format="pyarrow")
    )


def dup_span_coverage(
    docs: ray.data.Dataset,
    shingle_n: int = 3,
    analyzer: AnalyzerConfig | None = None,
    shingle_partitions: int = 64,
    doc_partitions: int = 32,
) -> ray.data.Dataset:
    """Per-document duplicated-span coverage (exact substring-dedup signal).

    For each document, the fraction of its n-gram token windows whose exact
    n-gram also occurs in at least one OTHER document — the per-doc signal
    behind exact substring deduplication of training corpora (Lee et al.
    2022, "Deduplicating Training Data Makes Language Models Better": cut
    spans duplicated across documents; here surfaced as a filterable score
    instead of an edit). Output: (doc_id, n_windows, dup_windows,
    dup_fraction). Docs with zero tokens are omitted; docs shorter than
    ``shingle_n`` tokens count one window over all their tokens (same CASE
    convention as the Jaccard oracles).

    Shape (all exact, no sampling): a distributed shingle-inverted count.

    1. ``map_batches``: per doc, window hashes WITH multiplicity
       (``shingle_hashes_all``), collapsed to one row per distinct
       (shingle, doc) carrying the in-doc window count ``cnt`` and the
       doc's total window count ``nw``; rows coarse-partitioned by
       ``shingle % shingle_partitions``.
    2. ``groupby(part).map_groups`` (vectorized): sort by shingle, run
       length = distinct docs containing it ((shingle, doc) rows are
       globally unique); windows of shingles with >= 2 docs are duplicated.
       Per-group per-doc partial sums via factorize+bincount; re-keyed by
       ``doc_id % doc_partitions``.
    3. ``groupby(dp).map_groups`` (vectorized): sum partials per doc —
       the same coarse-group reduce as ``ngram_jaccard_pairs`` (a per-doc
       ``groupby`` aggregate pays per group; corpora have billions of
       docs).

    Scale: stage-2 groups hold corpus_windows/shingle_partitions rows
    (~28 B each) — size ``shingle_partitions`` to the worker heap. A
    boilerplate shingle costs O(docs containing it) rows here, NOT O(n^2)
    pairs — this operator has no quadratic hazard, which is exactly why
    span coverage is the scale-correct dedup signal for heavy-boilerplate
    corpora.
    """
    analyzer = analyzer or AnalyzerConfig()
    from distributed_text_search_ray.functions.hashing import shingle_hashes_all

    P, Q = shingle_partitions, doc_partitions

    def window_rows(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        sh_c, cnt_c, id_c, nw_c = [], [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("content").to_pylist()
        ):
            wh = shingle_hashes_all(tk.tokens(text), shingle_n)
            if wh.size == 0:
                continue
            uniq, cnt = np.unique(wh, return_counts=True)
            sh_c.append(uniq)
            cnt_c.append(cnt)
            id_c.append(np.full(uniq.size, doc_id, dtype=np.int64))
            nw_c.append(np.full(uniq.size, wh.size, dtype=np.int64))
        if not sh_c:
            return pa.table(
                {
                    "part": pa.array([], type=pa.int32()),
                    "sh": pa.array([], type=pa.int64()),
                    "doc_id": pa.array([], type=pa.int64()),
                    "cnt": pa.array([], type=pa.int64()),
                    "nw": pa.array([], type=pa.int64()),
                }
            )
        sh = np.concatenate(sh_c)
        return pa.table(
            {
                "part": pa.array((sh % np.uint64(P)).astype(np.int32), type=pa.int32()),
                "sh": pa.array(sh.view(np.int64), type=pa.int64()),
                "doc_id": pa.array(np.concatenate(id_c), type=pa.int64()),
                "cnt": pa.array(np.concatenate(cnt_c), type=pa.int64()),
                "nw": pa.array(np.concatenate(nw_c), type=pa.int64()),
            }
        )

    def mark_and_partial(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "dp": pa.array([], type=pa.int32()),
                "doc_id": pa.array([], type=pa.int64()),
                "dup": pa.array([], type=pa.int64()),
                "nw": pa.array([], type=pa.int64()),
            }
        )
        if group.num_rows == 0:
            return empty
        sh = group.column("sh").to_numpy()
        doc = group.column("doc_id").to_numpy()
        cnt = group.column("cnt").to_numpy()
        nw = group.column("nw").to_numpy()
        order = np.argsort(sh, kind="stable")
        sh, doc, cnt, nw = sh[order], doc[order], cnt[order], nw[order]
        is_start = np.empty(len(sh), dtype=bool)
        is_start[0] = True
        is_start[1:] = sh[1:] != sh[:-1]
        starts = np.flatnonzero(is_start)
        ndocs = np.diff(np.concatenate((starts, [len(sh)])))
        dup_row = np.repeat(ndocs >= 2, ndocs)
        # per-doc partials: every doc row contributes nw once (first
        # occurrence in this group) and cnt when its shingle is duplicated
        docs_u, inv = np.unique(doc, return_inverse=True)
        dup_partial = np.bincount(
            inv, weights=np.where(dup_row, cnt, 0), minlength=docs_u.size
        ).astype(np.int64)
        first = np.zeros(docs_u.size, dtype=np.int64)
        first[inv[::-1]] = np.arange(len(doc) - 1, -1, -1)
        return pa.table(
            {
                "dp": pa.array(
                    (docs_u.astype(np.uint64) % np.uint64(Q)).astype(np.int32),
                    type=pa.int32(),
                ),
                "doc_id": pa.array(docs_u, type=pa.int64()),
                "dup": pa.array(dup_partial, type=pa.int64()),
                "nw": pa.array(nw[first], type=pa.int64()),
            }
        )

    def finalize(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "n_windows": pa.array([], type=pa.int64()),
                    "dup_windows": pa.array([], type=pa.int64()),
                    "dup_fraction": pa.array([], type=pa.float64()),
                }
            )
        doc = group.column("doc_id").to_numpy()
        dup = group.column("dup").to_numpy()
        nw = group.column("nw").to_numpy()
        docs_u, inv = np.unique(doc, return_inverse=True)
        dup_sum = np.bincount(inv, weights=dup, minlength=docs_u.size).astype(np.int64)
        # nw is the doc's TOTAL window count replicated on every partial —
        # any representative works
        first = np.zeros(docs_u.size, dtype=np.int64)
        first[inv[::-1]] = np.arange(len(doc) - 1, -1, -1)
        nw_tot = nw[first]
        frac = dup_sum / nw_tot.astype(np.float64)
        return pa.table(
            {
                "doc_id": pa.array(docs_u, type=pa.int64()),
                "n_windows": pa.array(nw_tot, type=pa.int64()),
                "dup_windows": pa.array(dup_sum, type=pa.int64()),
                "dup_fraction": pa.array(
                    [round_half_away(x, 6) for x in frac], type=pa.float64()
                ),
            }
        )

    return (
        docs.map_batches(window_rows, batch_format="pyarrow")
        .groupby("part")
        .map_groups(mark_and_partial, batch_format="pyarrow")
        .groupby("dp")
        .map_groups(finalize, batch_format="pyarrow")
    )


def dup_span_filter(
    docs: ray.data.Dataset,
    max_dup_fraction: float = 0.5,
    shingle_n: int = 3,
    analyzer: AnalyzerConfig | None = None,
    anti_join: bool = False,
    join_partitions: int = 8,
) -> ray.data.Dataset:
    """Materialize the corpus with heavily-duplicated docs dropped: keep
    docs whose ``dup_span_coverage`` fraction is < ``max_dup_fraction``
    (strictly below — a doc made mostly of spans shared with other docs is
    boilerplate/near-dup bulk). Docs with zero tokens have no coverage row
    and are dropped with the rest (reproduced here with a first-token regex
    probe, not a re-tokenization).

    Scale shape: the DROPPED id set is the small side by construction (the
    operator's premise is that most of the corpus survives the threshold),
    so the default path collects it and broadcast-filters the doc stream
    with a sorted-array ``searchsorted`` — the same shape as
    ``near_dedup_filter``, with no join and no second corpus shuffle. The
    round-2 survivor-side ``Dataset.join`` crashed Ray's join aggregator
    whenever an all-empty hash partition of the coverage groupby landed on
    the join's right side (schema-less empty blocks → acero ArrowInvalid;
    it killed BENCH_r02). On boilerplate-saturated corpora where even the
    dropped set outgrows driver memory, pass ``anti_join=True`` for a
    hash-partitioned left-anti join instead. Output: (doc_id, content).
    """
    analyzer = analyzer or AnalyzerConfig()
    cov = dup_span_coverage(docs, shingle_n=shingle_n, analyzer=analyzer)

    def over_threshold(batch: pa.Table) -> pa.Table:
        frac = batch.column("dup_fraction").to_numpy()
        keep = frac >= max_dup_fraction
        return pa.table(
            {"doc_id": pa.array(batch.column("doc_id").to_numpy()[keep], type=pa.int64())}
        )

    dropped_ds = cov.map_batches(over_threshold, batch_format="pyarrow")

    def tokenful(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        batch = batch.select(["doc_id", "content"])
        mask = [tk.has_token(t) for t in batch.column("content").to_pylist()]
        return batch.filter(pa.array(mask, type=pa.bool_()))

    docs_t = docs.map_batches(tokenful, batch_format="pyarrow")

    if anti_join:
        from distributed_text_search_ray.pipelines.joins import left_anti_join

        return left_anti_join(
            docs_t, dropped_ds, on="doc_id", num_partitions=join_partitions
        )

    drop = np.sort(np.asarray(sorted(dropped_ds.unique("doc_id")), dtype=np.int64))

    def keep_survivors(batch: pa.Table) -> pa.Table:
        if not len(drop):
            return batch
        ids = batch.column("doc_id").to_numpy()
        pos = np.minimum(np.searchsorted(drop, ids), len(drop) - 1)
        return batch.filter(pa.array(drop[pos] != ids))

    return docs_t.map_batches(keep_survivors, batch_format="pyarrow")


def dup_span_edit(
    docs: ray.data.Dataset,
    shingle_n: int = 3,
    analyzer: AnalyzerConfig | None = None,
    shingle_partitions: int = 64,
    doc_partitions: int = 32,
) -> ray.data.Dataset:
    """Exact substring-dedup EDIT (Lee et al. 2022, "Deduplicating Training
    Data Makes Language Models Better" — the edit itself, not just the
    ``dup_span_coverage`` signal): drop every token covered by ANY
    duplicated n-gram window (one whose exact n-gram also occurs in at
    least one OTHER document) and re-join the survivors with single
    spaces. Output: (doc_id, content, n_tokens, n_dropped) where content
    is the token-level edited text (original whitespace/punctuation is not
    preserved — the operator is defined over the analyzer's token stream),
    n_tokens counts pre-edit tokens, and zero-token docs pass through
    unchanged.

    Shape: stages 1-2 are ``dup_span_coverage``'s shingle-inverted mark,
    but stage 2 emits each doc's duplicated shingle HASHES instead of
    counts; stage 3 co-locates those rows with the doc content via a
    side-tagged union hash-partitioned on doc_id (the as-of-join
    composition — deliberately not a ``Dataset.join``, so the schema-less
    empty blocks Ray's groupby emits can never reach the join aggregator)
    and rebuilds every doc from its kept tokens, vectorized (window→token
    coverage via a diff+cumsum range mark). A doc's dup-shingle rows are
    bounded by its window count, so group size tracks group content size.
    """
    analyzer = analyzer or AnalyzerConfig()
    from distributed_text_search_ray.functions.hashing import shingle_hashes_all

    P, Q = shingle_partitions, doc_partitions

    def window_rows(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        sh_c, id_c = [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("content").to_pylist()
        ):
            wh = np.unique(shingle_hashes_all(tk.tokens(text), shingle_n))
            if wh.size == 0:
                continue
            sh_c.append(wh)
            id_c.append(np.full(wh.size, doc_id, dtype=np.int64))
        sh = np.concatenate(sh_c) if sh_c else np.empty(0, dtype=np.uint64)
        ids = np.concatenate(id_c) if id_c else np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "part": pa.array((sh % np.uint64(P)).astype(np.int32), type=pa.int32()),
                "sh": pa.array(sh.view(np.int64), type=pa.int64()),
                "doc_id": pa.array(ids, type=pa.int64()),
            }
        )

    def mark_dups(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "dp": pa.array([], type=pa.int32()),
                "doc_id": pa.array([], type=pa.int64()),
                "sh": pa.array([], type=pa.int64()),
                "content": pa.array([], type=pa.string()),
            }
        )
        if group.num_rows == 0:
            return empty
        sh = group.column("sh").to_numpy()
        doc = group.column("doc_id").to_numpy()
        order = np.argsort(sh, kind="stable")
        sh, doc = sh[order], doc[order]
        is_start = np.empty(len(sh), dtype=bool)
        is_start[0] = True
        is_start[1:] = sh[1:] != sh[:-1]
        starts = np.flatnonzero(is_start)
        ndocs = np.diff(np.concatenate((starts, [len(sh)])))
        dup_row = np.repeat(ndocs >= 2, ndocs)  # (sh, doc) rows are distinct
        doc_d, sh_d = doc[dup_row], sh[dup_row]
        return pa.table(
            {
                "dp": pa.array(
                    (doc_d.astype(np.uint64) % np.uint64(Q)).astype(np.int32),
                    type=pa.int32(),
                ),
                "doc_id": pa.array(doc_d, type=pa.int64()),
                "sh": pa.array(sh_d, type=pa.int64()),
                "content": pa.array([None] * len(doc_d), type=pa.string()),
            }
        )

    dup_rows = (
        docs.map_batches(window_rows, batch_format="pyarrow")
        .groupby("part")
        .map_groups(mark_dups, batch_format="pyarrow")
    )

    def tag_docs(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        return pa.table(
            {
                "dp": pa.array(
                    (ids.astype(np.uint64) % np.uint64(Q)).astype(np.int32),
                    type=pa.int32(),
                ),
                "doc_id": pa.array(ids, type=pa.int64()),
                "sh": pa.array([None] * len(ids), type=pa.int64()),
                "content": batch.column("content"),
            }
        )

    tagged = docs.select_columns(["doc_id", "content"]).map_batches(
        tag_docs, batch_format="pyarrow"
    )

    def edit(group: pa.Table) -> pa.Table:
        out = pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "content": pa.array([], type=pa.string()),
                "n_tokens": pa.array([], type=pa.int64()),
                "n_dropped": pa.array([], type=pa.int64()),
            }
        )
        if group.num_rows == 0:
            return out
        import pyarrow.compute as pc

        tk = tokenizer_for(analyzer)
        content_col = group.column("content")
        is_doc = content_col.is_valid().to_numpy(zero_copy_only=False)
        ids = group.column("doc_id").to_numpy()
        # fill_null keeps the int64 dtype — a plain to_numpy on a nullable
        # int column degrades to float64 and silently corrupts 64-bit hashes
        shs = (
            pc.fill_null(group.column("sh"), 0)
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        dup_of: dict[int, list] = {}
        for d, s in zip(ids[~is_doc], shs[~is_doc]):
            dup_of.setdefault(int(d), []).append(s)
        o_id, o_text, o_nt, o_nd = [], [], [], []
        texts = content_col.to_pylist()
        for i in np.flatnonzero(is_doc):
            d = int(ids[i])
            text = texts[i]
            toks = tk.tokens(text)
            nt = len(toks)
            if nt == 0:
                o_id.append(d), o_text.append(text), o_nt.append(0), o_nd.append(0)
                continue
            # view BEFORE sorting: int64-order != uint64-order for hashes
            # with the top bit set, and searchsorted needs uint64 order
            dups = np.sort(np.asarray(dup_of.get(d, []), dtype=np.int64).view(np.uint64))
            wh = shingle_hashes_all(toks, shingle_n)
            if len(dups):
                pos = np.minimum(np.searchsorted(dups, wh), len(dups) - 1)
                dup_w = np.flatnonzero(dups[pos] == wh)
            else:
                dup_w = np.empty(0, dtype=np.int64)
            if len(dup_w):
                span = shingle_n if nt >= shingle_n else nt
                diff = np.zeros(nt + 1, dtype=np.int64)
                np.add.at(diff, dup_w, 1)
                np.add.at(diff, np.minimum(dup_w + span, nt), -1)
                covered = np.cumsum(diff[:-1]) > 0
            else:
                covered = np.zeros(nt, dtype=bool)
            kept = [t for t, c in zip(toks, covered) if not c]
            o_id.append(d)
            o_text.append(" ".join(kept))
            o_nt.append(nt)
            o_nd.append(int(covered.sum()))
        return pa.table(
            {
                "doc_id": pa.array(o_id, type=pa.int64()),
                "content": pa.array(o_text, type=pa.string()),
                "n_tokens": pa.array(o_nt, type=pa.int64()),
                "n_dropped": pa.array(o_nd, type=pa.int64()),
            }
        )

    return tagged.union(dup_rows).groupby("dp").map_groups(edit, batch_format="pyarrow")


def minhash_band_rows(
    docs: ray.data.Dataset,
    num_perm: int = 128,
    bands: int = 32,
    shingle_n: int = 3,
    analyzer: AnalyzerConfig | None = None,
    pair_partitions: int = 64,
) -> ray.data.Dataset:
    """Persistable LSH fingerprint index of a corpus: (part, band_hash,
    doc_id) rows — exactly the band stage of ``minhash_lsh_pairs``, exposed
    so a 100 TB base corpus is fingerprinted ONCE (``write_parquet`` the
    result next to the corpus). ``incremental_near_dup`` then joins each
    incoming shard against the frozen rows without re-reading the base
    corpus; after ingestion, append the shard's own band rows to keep the
    index current. All parameters are part of the artifact's identity —
    record them beside it (a band row set is only joinable against rows
    produced with the same (num_perm, bands, shingle_n, analyzer))."""
    analyzer = analyzer or AnalyzerConfig()
    bander = _MinhashBands(
        num_perm=num_perm,
        bands=bands,
        shingle_n=shingle_n,
        analyzer=analyzer,
        pair_partitions=pair_partitions,
    )

    def band_stage(batch: pa.Table) -> pa.Table:
        return bander(batch)

    return docs.map_batches(band_stage, batch_format="pyarrow")


def incremental_near_dup(
    base_bands: ray.data.Dataset,
    base_docs: ray.data.Dataset,
    new_docs: ray.data.Dataset,
    threshold: float = 0.5,
    num_perm: int = 128,
    bands: int = 32,
    shingle_n: int = 3,
    analyzer: AnalyzerConfig | None = None,
    pair_partitions: int = 64,
    max_bucket_size: int = 4096,
    join_partitions: int = 4,
) -> ray.data.Dataset:
    """Continuous-ingestion near-dup check: which NEW docs duplicate the
    EXISTING corpus? Returns verified cross pairs (doc_id = new doc,
    base_doc_id, jaccard >= threshold), exact-Jaccard precision.

    The base side is represented by its FROZEN fingerprint index
    (``minhash_band_rows`` output read back from parquet) — the base corpus
    is touched only to fetch the shingle sets of verification candidates
    (a column-pruned pass filtered to candidate ids, the same shape as
    ``_verify_pairs``; candidates are band-collision-sized, not corpus-
    sized). Only the new shard is fingerprinted. Recall matches
    ``minhash_lsh_pairs`` banding (tune (bands, num_perm) for the
    threshold); doc ids must be disjoint across sides.

    Scale shape: band rows co-partition by ``part`` (hash of band_hash), so
    the cross-side bucket mining is a per-part groupby over
    O(base_bands + new_bands / pair_partitions) rows per group, never an
    all-to-all of the corpus."""
    analyzer = analyzer or AnalyzerConfig()
    new_bands = minhash_band_rows(
        new_docs,
        num_perm=num_perm,
        bands=bands,
        shingle_n=shingle_n,
        analyzer=analyzer,
        pair_partitions=pair_partitions,
    )

    def tag(side: int):
        def f(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "side", pa.array(np.full(len(batch), side, dtype=np.uint64))
            )

        return f

    both = base_bands.map_batches(tag(0), batch_format="pyarrow").union(
        new_bands.map_batches(tag(1), batch_format="pyarrow")
    )

    def mine_cross(group: pa.Table) -> pa.Table:
        a, b, pa_, pb_ = _mine_bucket_pairs(
            group.column("band_hash").to_numpy(),
            group.column("doc_id").to_numpy(),
            group.column("side").to_numpy().astype(np.uint64),
            max_bucket_size,
        )
        if len(a):
            cross = pa_ != pb_
            a, b, pa_, pb_ = a[cross], b[cross], pa_[cross], pb_[cross]
        if len(a):
            # orient: doc_a = the NEW doc, doc_b = the base doc
            new_id = np.where(pa_ == 1, a, b)
            base_id = np.where(pa_ == 1, b, a)
            packed = np.unique(np.stack([new_id, base_id], axis=1), axis=0)
            a, b = packed[:, 0], packed[:, 1]
        pp = (
            (splitmix64(a.astype(np.uint64)) ^ splitmix64(b.astype(np.uint64)))
            % np.uint64(32)
        ).astype(np.int32)
        return pa.table(
            {
                "pp": pa.array(pp, type=pa.int32()),
                "doc_a": pa.array(a, type=pa.int64()),
                "doc_b": pa.array(b, type=pa.int64()),
            }
        )

    mined = both.groupby("part").map_groups(mine_cross, batch_format="pyarrow")

    def distinct_pairs(group: pa.Table) -> pa.Table:
        a = group.column("doc_a").to_numpy()
        b = group.column("doc_b").to_numpy()
        if len(a):
            packed = np.unique(np.stack([a, b], axis=1), axis=0)
            a, b = packed[:, 0], packed[:, 1]
        return pa.table(
            {"doc_a": pa.array(a, type=pa.int64()), "doc_b": pa.array(b, type=pa.int64())}
        )

    pairs = (
        mined.groupby("pp")
        .map_groups(distinct_pairs, batch_format="pyarrow")
        .materialize()
    )
    if pairs.count() == 0:
        return ray.data.from_arrow(_empty_pairs_table())

    verified = _verify_pairs(
        pairs,
        base_docs.union(new_docs),
        analyzer,
        shingle_n,
        threshold,
        join_partitions,
    )

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["doc_id", "base_doc_id", "jaccard"])

    return verified.map_batches(rename, batch_format="pyarrow")
