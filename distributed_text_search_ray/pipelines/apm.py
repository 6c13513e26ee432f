"""Distributed approximate-pattern-match counts — the reference kernel on Ray.

Reproduces the reference's observable result exactly (per-document; SURVEY.md
section 8): for each pattern ``p`` with bound ``k``, the number of positions
``j`` whose window ``T[j : j+min(m, N-j)]`` is within truncated-window
Levenshtein distance ``k`` (``src/apm1.c:235-281``), summed over documents.
Duplicate patterns are counted independently (``script.sh:11``) and result
rows follow the query ids (argv order analog, ``src/apm1.c:294-299``).

Shape: stateless ``map_batches`` scan over document batches (the OpenMP
position loop M4, ``src/flexible_mpi.c:476-525``, becomes one Ray task per
block) emitting per-batch partial counts, then a tiny
``groupby(query_id).sum`` — the partial+final aggregate the reference does
with ``omp atomic`` + ``MPI_Reduce`` (``src/flexible_mpi.c:487-544``).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pyarrow as pa
import ray.data
from ray.data.aggregate import Sum

from distributed_text_search_ray.functions.lev import windowed_match_counts_multi
from distributed_text_search_ray.util import cluster_cpus

import ray


@ray.remote
def _scan_tile(
    texts: list[str],
    chunk: list[tuple[int, str, int]],
    segs: list[tuple[int, int, int]],
    m_max: int,
) -> dict[int, int]:
    """One (pattern-chunk x window-segments) tile, one kernel call. Each
    segment is (doc_idx, start, owned_len): its slice carries an m_max-1
    halo so every owned full window is complete; an owned position counts
    as a truncated tail window when the slice reaches the document's end
    (reference halo rule, src/flexible_mpi.c:196-197)."""
    slices, owned, tails = [], [], []
    for di, start, owned_len in segs:
        t = texts[di]
        stop = start + owned_len + m_max - 1
        slices.append(t[start:stop])
        owned.append(owned_len)
        tails.append(stop >= len(t))
    return windowed_match_counts_multi(slices, chunk, owned=owned, tails=tails)


def _local_result_dataset(tbl: pa.Table) -> ray.data.Dataset:
    """Materialized single-block Dataset built WITHOUT remote calls.

    ``ray.data.from_arrow`` launches a remote metadata task; immediately
    after the tile burst has cycled every CPU lease, that one task waits
    ~0.3 s for a worker grant — 5x the whole scan at the reference's
    interactive scales (measured on the L100 head-to-head shape:
    0.33 s -> 0.07 s end to end). ``from_blocks`` computes metadata
    locally and only ``ray.put``s the block, so the result wrap stays
    off the task scheduler entirely."""
    try:
        return ray.data.from_blocks([tbl])
    except (AttributeError, TypeError):  # future Ray versions: the public path
        return ray.data.from_arrow(tbl)


def _in_order(ds: ray.data.Dataset) -> ray.data.Dataset:
    """``ds`` materialized with its blocks in dataset order. Ray Data
    otherwise yields blocks in completion order, which for a lazy read
    moves the document boundaries of the concatenated corpus from run to
    run."""
    opts = ds.context.execution_options
    saved, opts.preserve_order = opts.preserve_order, True
    try:
        return ds.materialize()
    finally:
        opts.preserve_order = saved


class ApmScan:
    """Task-stage scanner: per-batch partial match counts for the patterns
    it holds (the broadcast side)."""

    def __init__(self, patterns: list[tuple[int, str, int]], text_column: str = "content"):
        self.patterns = patterns
        self.text_column = text_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_column).to_pylist()
        got = windowed_match_counts_multi(texts, self.patterns)
        qids = [q for q, _, _ in self.patterns]
        counts = [got[q] for q in qids]
        return pa.table(
            {
                "query_id": pa.array(qids, type=pa.int64()),
                "n_partial": pa.array(counts, type=pa.int64()),
            }
        )


def windowed_match_counts(
    docs: ray.data.Dataset | str,
    patterns: Iterable[tuple[int, str, int]],
    text_column: str = "content",
    concat: bool = False,
    plan: str | None = None,
) -> ray.data.Dataset:
    """(query_id, n_matches) for each (query_id, pattern, k).

    ``concat=True`` reproduces the reference's exact corpus model: documents
    form ONE concatenated byte buffer in dataset row order and windows
    STRADDLE document boundaries (``src/apm1.c:229-232``; each MPI rank's
    slice carries an m-1 halo from its neighbor, ``src/flexible_mpi.c:
    196-197``). The tiled plan already implements the halo rule per window
    segment (owner counts the window), so concat mode feeds it the joined
    text when the corpus fits the 256 MB broadcast gate; larger corpora use
    the streaming concat plan (``_concat_streaming``: ordered block refs +
    neighbor-halo stitching — nothing corpus-sized leaves the object
    store). Default (False) is the engine's per-document model (SURVEY.md
    section 8.3).

    ``plan`` overrides the automatic strategy choice — the analog of the
    reference's env-var strategy switches (``DISTRIBUTE_PATTERNS`` /
    ``ONLY_RANK_0``, ``src/flexible_mpi.c:308-313``): ``"broadcast"``
    forces the 2-D pattern-chunk x window-segment tiling (the
    DISTRIBUTE_PATTERNS regime; the corpus must fit the broadcast),
    ``"stream"`` forces the doc-stream scan (data-only split),
    ``None``/``"auto"`` keeps the size-based heuristic. The env var
    ``DTS_APM_PLAN`` applies the same override without a code change (the
    ``get_env_int`` pattern, M7 ``src/flexible_mpi.c:25-33``).
    """
    import os as _os

    plan = plan or _os.environ.get("DTS_APM_PLAN") or "auto"
    if plan not in ("auto", "broadcast", "stream"):
        raise ValueError(f"unknown APM plan {plan!r}; use auto|broadcast|stream")
    if isinstance(docs, str):
        from distributed_text_search_ray.sources.corpus import read_corpus

        docs = read_corpus(docs, columns=[text_column])
    pats = [(int(q), str(p), int(k)) for q, p, k in patterns]
    # 2-D decomposition (the reference's DISTRIBUTE_PATTERNS strategy,
    # src/flexible_mpi.c:154-190): when the pattern set is large and the
    # corpus is small (the reference's S1000 / weak-scaling regime), broadcast
    # the documents ONCE (ray.put) and make pattern-chunks the dataset --
    # parallelism = n_chunks, zero shuffle. Otherwise one scan stage over the
    # doc stream with partial counts + groupby-sum (the large-corpus regime).
    approx_bytes = docs.size_bytes()  # None when Ray cannot tell
    # broadcast plan pays off when patterns dominate (DISTRIBUTE_PATTERNS
    # regime) or the corpus is interactive-tiny; a medium corpus with few
    # patterns segments into hundreds of under-filled tiles — the streaming
    # doc-scan plan is better there
    use_broadcast = plan == "broadcast" or (
        plan == "auto"
        and approx_bytes is not None
        and approx_bytes < 256 * 1024 * 1024
        and (concat or len(pats) > 64 or approx_bytes < 1 * 1024 * 1024)
    )
    if use_broadcast:
        # Raw-task exception (documented): this plan is a pure scatter/gather
        # — the corpus is ONE broadcast object, each task scores a pattern
        # chunk, the result is len(pats) integers. Ray Data's streaming
        # executor adds ~0.3 s fixed latency per run, which swamps the
        # compute at the reference's interactive scales; plain ray.remote
        # tasks against the ray.put corpus are the right tool here (the
        # large-corpus regime below stays a Dataset pipeline).
        import ray as _ray

        from ray.data.dataset import MaterializedDataset

        if not isinstance(docs, MaterializedDataset):
            docs = _in_order(docs.select_columns([text_column]))
        # executor-free fetch: block refs come straight from the object
        # store (running a Data pipeline here pays ~0.5s executor latency
        # right after raw tasks have held the CPU leases)
        texts = [
            t
            for b in _ray.get(docs.to_arrow_refs())
            if b.num_rows
            for t in b.column(text_column).to_pylist()
        ]
        if concat:
            # reference corpus model: one concatenated buffer, row order;
            # the segment halo below then matches flexible_mpi's rank halos
            texts = ["".join(texts)]
        texts_ref = _ray.put(texts)
        # 2-D (pattern-chunk x window-segments) tiling. Tile count targets
        # ONE wave of num_cpus tasks: spawning more tasks than CPUs makes the
        # raylet grow the worker pool past its soft limit and cull it after
        # every call — the respawn cost (~0.4 s) dominated these scenarios.
        # So segments (a long document's 16K-char pieces, or whole short
        # documents) are dealt round-robin into at most num_cpus tiles, each
        # one kernel call. Per-op DP lanes stay <= 256 KB so concurrent
        # tiles don't thrash the shared cache on pattern-heavy shapes.
        ncpu = cluster_cpus()
        m_max = max((len(p) for _, p, _ in pats), default=0)
        seg_chars = 16384
        segments: list[tuple[int, int, int]] = []
        for di, t in enumerate(texts):
            n = len(t)
            for s in range(0, max(n, 1), seg_chars):
                segments.append((di, s, min(n, s + seg_chars) - s))
        if not segments or not pats:  # empty corpus or empty pattern set
            return _local_result_dataset(
                pa.table(
                    {
                        "query_id": pa.array([q for q, _, _ in pats], type=pa.int64()),
                        "n_matches": pa.array([0] * len(pats), type=pa.int64()),
                    }
                )
            )
        max_seg = max(o for _, _, o in segments)
        n_tiles = min(len(segments), max(1, ncpu))
        tiles = [segments[i::n_tiles] for i in range(n_tiles)]
        n_chunks = max(1, ncpu // n_tiles)
        pat_chunk = max(
            1, min(-(-len(pats) // n_chunks), (1 << 18) // max(1, max_seg))
        )
        chunks = [pats[i : i + pat_chunk] for i in range(0, len(pats), pat_chunk)]
        refs = [
            _scan_tile.remote(texts_ref, c, tile, m_max)
            for c in chunks
            for tile in tiles
        ]
        out: dict[int, int] = {q: 0 for q, _, _ in pats}
        for part in _ray.get(refs):
            for q, c in part.items():
                out[q] += c
        return _local_result_dataset(
            pa.table(
                {
                    "query_id": pa.array([q for q, _, _ in pats], type=pa.int64()),
                    "n_matches": pa.array([out[q] for q, _, _ in pats], type=pa.int64()),
                }
            )
        )

    if concat:
        return _concat_streaming(docs, pats, text_column)
    scan = ApmScan(patterns=pats, text_column=text_column)

    def apm_scan(batch: pa.Table) -> pa.Table:
        return scan(batch)

    partials = docs.map_batches(apm_scan, batch_format="pyarrow")
    out = partials.groupby("query_id").aggregate(
        Sum("n_partial", alias_name="n_matches")
    )
    return out


@ray.remote
def _block_head(tbl: pa.Table, text_column: str, n_chars: int) -> tuple[int, str]:
    """(total chars, first n_chars) of a block's concatenated text — the
    metadata pass of the streaming concat plan."""
    texts = tbl.column(text_column).to_pylist()
    total = sum(len(t) for t in texts)
    head_parts: list[str] = []
    need = n_chars
    for t in texts:
        if need <= 0:
            break
        head_parts.append(t[:need])
        need -= len(t)
    return total, "".join(head_parts)


@ray.remote
def _block_concat_counts(
    tbl: pa.Table,
    text_column: str,
    chunk: list[tuple[int, str, int]],
    halo: str,
    reaches_end: bool,
) -> dict[int, int]:
    """Counts of windows STARTING in this block of the concatenated corpus
    (halo = the next blocks' head chars, so boundary windows are complete);
    truncated tails count when block + halo reach the corpus end."""
    texts = tbl.column(text_column).to_pylist()
    own = sum(len(t) for t in texts)
    joined = "".join(texts) + halo
    return windowed_match_counts_multi(
        [joined], chunk, owned=[own], tails=[reaches_end]
    )


def _concat_streaming(
    docs: ray.data.Dataset,
    pats: list[tuple[int, str, int]],
    text_column: str,
) -> ray.data.Dataset:
    """Concatenated-corpus counts for inputs too large to broadcast.

    The dataset's ordered blocks ARE the window segments: a metadata pass
    collects each block's char count and head chars, the driver stitches
    each block's halo from its successors (the reference's neighbor
    exchange, ``src/flexible_mpi.c:398-447``, as object-store refs instead
    of Isend/Recv), and one task per (block x pattern-chunk) scores the
    block's owned windows. Only O(n_blocks * m_max) chars ever reach the
    driver; parallelism = blocks x pattern chunks.
    """
    import ray as _ray

    m_max = max((len(p) for _, p, _ in pats), default=0)
    if not pats:
        return ray.data.from_arrow(
            pa.table(
                {
                    "query_id": pa.array([], type=pa.int64()),
                    "n_matches": pa.array([], type=pa.int64()),
                }
            )
        )
    refs = _in_order(docs).to_arrow_refs()  # ordered blocks, none pulled here
    metas = _ray.get(
        [_block_head.remote(r, text_column, max(m_max - 1, 0)) for r in refs]
    )
    # drop empty blocks but keep order
    keep = [i for i, (n, _) in enumerate(metas) if n > 0]
    out: dict[int, int] = {q: 0 for q, _, _ in pats}
    if keep:
        halos = []
        for pos, i in enumerate(keep):
            need = m_max - 1
            parts: list[str] = []
            for j in keep[pos + 1 :]:
                if need <= 0:
                    break
                h = metas[j][1][:need]
                parts.append(h)
                need -= len(h)
            halos.append("".join(parts))
        ncpu = cluster_cpus()
        n_chunks = max(1, ncpu // len(keep)) if len(keep) < ncpu else 1
        pat_chunk = max(1, -(-len(pats) // n_chunks))
        chunks = [pats[i : i + pat_chunk] for i in range(0, len(pats), pat_chunk)]
        # chars after each kept block: the halo holds them all when fewer
        # than m_max, and the block's tail windows then reach the end
        sizes = np.array([metas[i][0] for i in keep])
        after = sizes[::-1].cumsum()[::-1] - sizes
        task_refs = [
            _block_concat_counts.remote(
                refs[i], text_column, c, halos[pos], after[pos] <= m_max - 1
            )
            for pos, i in enumerate(keep)
            for c in chunks
        ]
        for part in _ray.get(task_refs):
            for q, c in part.items():
                out[q] += c
    return _local_result_dataset(
        pa.table(
            {
                "query_id": pa.array([q for q, _, _ in pats], type=pa.int64()),
                "n_matches": pa.array([out[q] for q, _, _ in pats], type=pa.int64()),
            }
        )
    )
