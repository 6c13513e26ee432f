"""Cross-index posting-segment merge — combine N built indexes into one.

The north-star lifecycle names "checkpointed posting-segment merge" as a
first-class build capability. Corpus APPEND is already covered by the
resumable build (new shards tokenize, old shards skip via per-file
fingerprints); this module covers the other direction: indexes built
INDEPENDENTLY (per tenant, per date-partition, per cluster) merged into one
queryable index without re-tokenizing anything.

Requirements (validated): every source index is complete, shares the same
``IndexConfig`` fingerprint (identical analyzer + partitioning, so term ->
partition routing agrees), and covers a disjoint doc-id set (checked during
the merge — overlapping (term, doc) pairs abort).

Plan (Ray-Data-first, resumable):

- one ``map_batches`` task per partition p: decode each source's
  ``part=p`` segment back to its pair stream (``read_segment_pairs`` —
  one vectorized varbyte decode per stream, NOT a per-term Python loop),
  recode onto the union term dictionary, lexsort by (term, doc), re-encode
  with ``build_segment_tables`` under the merged global stats (N, avgdl),
  write atomically with a lineage manifest keyed by the merge fingerprint
  (a killed merge resumes, skipping finished partitions);
- driver-side (vocabulary-sized): merge the per-partition dictionaries,
  recompute hot_df for the union of salted terms, write stats + meta;
  attribute sidecars are copied with a per-source prefix.

Scores after merge are identical to a from-scratch build over the union
corpus whenever per-shard salting decisions agree (they are shard-local,
so the same shards give the same decisions) — pinned by
``tests/test_merge.py::test_merged_index_equals_full_build``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import asdict

import numpy as np
import pyarrow as pa
import ray.data

from distributed_text_search_ray.config import IndexConfig
from distributed_text_search_ray.util import agg_rename
from distributed_text_search_ray.stages.executor import config_from_meta, load_meta
from distributed_text_search_ray.state import manifest as mf
from distributed_text_search_ray.state.alias import resolve_index
from distributed_text_search_ray.state.segment import (
    build_segment_tables,
    read_segment_pairs,
    write_segment,
)


def _merge_fingerprint(metas: list[dict]) -> str:
    h = hashlib.sha256()
    for m in metas:
        h.update(m["fingerprint"].encode())
        h.update(b"|")
    return "merge-" + h.hexdigest()[:16]


def validate_doc_disjointness(sources: list[str]) -> None:
    """EXACT cross-source doc-id disjointness check (opt-in; the per-part
    check inside the merge is best-effort — see the comment there).

    One distributed pass: every (source, partition) segment decodes its
    doc-id stream, uniques it locally, and emits (doc_id, src) rows; a
    ``groupby(doc_id)`` Min/Max-source aggregate then flags any id seen
    from two different sources (min != max). Cost is a shuffle of the
    per-part unique doc ids — O(Σ_parts unique docs per part), linear in
    index size and fully distributed (nothing corpus-sized reaches the
    driver; only the first few violations are pulled for the error).

    Caveat: a token-EMPTY document appears in no segment, so an id
    collision involving one is invisible here — it cannot corrupt scores
    (it has no postings) but would still double-count N. Raises
    ``ValueError`` on the first violations found."""
    from ray.data.aggregate import Max, Min

    items = [
        {"src": i, "seg_dir": os.path.join(s, "segments", d)}
        for i, s in enumerate(sources)
        for d in sorted(os.listdir(os.path.join(s, "segments")))
        if d.startswith("part=")
    ]

    def part_doc_ids(batch: pa.Table) -> pa.Table:
        out_docs, out_src = [], []
        for src, seg_dir in zip(
            batch.column("src").to_pylist(), batch.column("seg_dir").to_pylist()
        ):
            docs = np.unique(read_segment_pairs(seg_dir)[2])
            out_docs.append(docs)
            out_src.append(np.full(len(docs), src, dtype=np.int64))
        d = np.concatenate(out_docs) if out_docs else np.empty(0, dtype=np.int64)
        s = np.concatenate(out_src) if out_src else np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(d, type=pa.int64()),
                "src": pa.array(s, type=pa.int64()),
            }
        )

    spans = (
        ray.data.from_items(items)
        .map_batches(part_doc_ids, batch_format="pyarrow", batch_size=1)
        .groupby("doc_id")
        .aggregate(Min("src", alias_name="src_min"), Max("src", alias_name="src_max"))
    )

    def violations(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(
            pc.not_equal(batch.column("src_min"), batch.column("src_max"))
        )

    bad = spans.map_batches(violations, batch_format="pyarrow").take(5)
    if bad:
        ex = ", ".join(
            f"doc {r['doc_id']} in sources {r['src_min']} and {r['src_max']}"
            for r in bad
        )
        raise ValueError(
            f"source indexes share doc ids — merge requires disjoint doc-id "
            f"sets (first violations: {ex})"
        )


class _MergePart:
    """map_batches stage: one row = one partition to merge."""

    def __init__(self, sources: list[str], out_dir: str, fingerprint: str,
                 cfg: IndexConfig, N: int, avgdl: float):
        self.sources = sources
        self.out_dir = out_dir
        self.fingerprint = fingerprint
        self.cfg = cfg
        self.N = N
        self.avgdl = avgdl

    def merge_part(self, part: int) -> dict:
        seg_dir = os.path.join(self.out_dir, "segments", f"part={part:05d}")
        if mf.is_complete(seg_dir, self.fingerprint):
            m = mf.read_manifest(seg_dir)
            return {"part": part, "n_terms": m["n_terms"],
                    "n_postings": m["n_postings"], "skipped": True}
        with_pos = self.cfg.store_positions
        per_src = [
            read_segment_pairs(
                os.path.join(s, "segments", f"part={part:05d}"), with_positions=with_pos
            )
            for s in self.sources
        ]
        union: dict[str, int] = {}
        for rec in per_src:
            for t in rec[0]:
                union.setdefault(t, 0)
        union_terms = sorted(union)
        code_of = {t: i for i, t in enumerate(union_terms)}
        codes_parts, docs_parts, tfs_parts, dls_parts, pos_parts = [], [], [], [], []
        for rec in per_src:
            terms, df, docs, tfs, dls = rec[:5]
            if not len(docs):
                continue
            codes_parts.append(
                np.repeat(
                    np.fromiter((code_of[t] for t in terms), dtype=np.int64, count=len(terms)),
                    df,
                )
            )
            docs_parts.append(docs)
            tfs_parts.append(tfs)
            dls_parts.append(dls)
            if with_pos:
                pos_parts.append(rec[5])
        # doc-id disjointness across sources — BEST-EFFORT, per partition: a
        # doc present in two sources would double-count N/total_tokens and
        # carry inconsistent dl values, and is caught here by any part that
        # sees it from BOTH sources. Partitioning spreads a doc's postings
        # over many parts, so in practice a shared doc with any token
        # overlap is caught; the check CANNOT see a doc whose two token
        # sets are disjoint AND hash to disjoint partition sets (or that is
        # token-empty in one source). Exact verification needs a global
        # doc-id-set comparison — available as the opt-in
        # ``validate_doc_disjointness`` pass (``merge_indexes(...,
        # validate_disjoint=True)``) for sources from untrusted id
        # namespaces; trusted per-tenant / per-date namespaces can skip it.
        seen = np.empty(0, dtype=np.int64)
        for rec in per_src:
            docs_s = rec[2]
            u = np.unique(docs_s)
            inter = np.intersect1d(seen, u, assume_unique=True)
            if len(inter):
                raise ValueError(
                    f"part {part}: {len(inter)} doc ids present in more than "
                    f"one source index (e.g. {int(inter[0])}) — merge "
                    "requires disjoint doc-id sets"
                )
            seen = np.union1d(seen, u)
        positions = None
        if codes_parts:
            codes = np.concatenate(codes_parts)
            docs = np.concatenate(docs_parts)
            tfs_pre = np.concatenate(tfs_parts)
            dls_pre = np.concatenate(dls_parts)
            order = np.lexsort((docs, codes))
            codes, docs = codes[order], docs[order]
            tfs, dls = tfs_pre[order], dls_pre[order]
            dup = (np.diff(codes) == 0) & (np.diff(docs) == 0)
            if dup.any():
                raise ValueError(
                    f"part {part}: {int(dup.sum())} overlapping (term, doc) pairs — "
                    "merge requires disjoint doc-id sets across source indexes"
                )
            if with_pos:
                # permute each pair's position run with its pair: gather the
                # flat position values through the lexsort order, vectorized
                flat = (
                    np.concatenate(pos_parts)
                    if pos_parts
                    else np.empty(0, dtype=np.int64)
                )
                pre_starts = np.concatenate(([0], np.cumsum(tfs_pre)[:-1]))
                new_tfs = tfs
                out_starts = np.concatenate(([0], np.cumsum(new_tfs)[:-1]))
                total = int(new_tfs.sum())
                take = np.repeat(pre_starts[order], new_tfs) + (
                    np.arange(total, dtype=np.int64) - np.repeat(out_starts, new_tfs)
                )
                flat_new = flat[take]
                offsets = np.concatenate(([0], np.cumsum(new_tfs))).astype(np.int32)
                positions = pa.ListArray.from_arrays(
                    pa.array(offsets), pa.array(flat_new.astype(np.int32))
                )
        else:
            codes = np.empty(0, np.int64)
            docs = tfs = dls = np.empty(0, np.int64)
            if with_pos:
                positions = pa.ListArray.from_arrays(
                    pa.array(np.zeros(1, dtype=np.int32)),
                    pa.array(np.empty(0, dtype=np.int32)),
                )
        built = build_segment_tables(
            codes, union_terms, docs, tfs, dls, self.N, self.avgdl, self.cfg,
            positions=positions,
        )
        if with_pos:
            terms_table, docs_b, tfs_b, dls_b, stats, pos_b = built
        else:
            terms_table, docs_b, tfs_b, dls_b, stats = built
            pos_b = None
        with mf.AtomicDir(seg_dir) as tmp:
            checks = write_segment(
                tmp, terms_table, docs_b, tfs_b, dls_b, pos_stream=pos_b
            )
            mf.write_manifest(
                tmp,
                {
                    "kind": "segment",
                    "part": part,
                    "fingerprint": self.fingerprint,
                    "n_input_files": len(self.sources),
                    "checksums": checks,
                    **stats,
                },
            )
        return {"part": part, "n_terms": stats["n_terms"],
                "n_postings": stats["n_postings"], "skipped": False}

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"part": [], "n_terms": [], "n_postings": [], "skipped": []}
        for part in batch.column("part").to_pylist():
            res = self.merge_part(int(part))
            for k in out:
                out[k].append(res[k])
        return pa.table(
            {
                "part": pa.array(out["part"], type=pa.int64()),
                "n_terms": pa.array(out["n_terms"], type=pa.int64()),
                "n_postings": pa.array(out["n_postings"], type=pa.int64()),
                "skipped": pa.array(out["skipped"]),
            }
        )


def merge_indexes(
    sources: list[str], out_dir: str, validate_disjoint: bool = False
) -> dict:
    """Merge complete, same-config, doc-disjoint indexes into ``out_dir``.

    Returns a report (per-phase timings, totals). Resumable: finished
    partitions are skipped on rerun via their lineage manifests.

    ``validate_disjoint=True`` runs :func:`validate_doc_disjointness`
    first — an exact distributed doc-id-set check that catches what the
    in-merge per-part check cannot (a shared doc whose two token sets
    hash to disjoint partition sets); use it when merging sources from
    untrusted id namespaces."""
    import pyarrow.parquet as pq

    if len(sources) < 2:
        raise ValueError("merge_indexes needs at least two source indexes")
    if validate_disjoint:
        validate_doc_disjointness(sources)
    metas = [load_meta(s) for s in sources]
    for s, m in zip(sources, metas):
        if not m.get("complete"):
            raise ValueError(f"source index {s} is not complete")
    cfgs = [config_from_meta(m) for m in metas]
    fps = {c.fingerprint() for c in cfgs}
    if len(fps) != 1:
        raise ValueError(f"source configs differ (fingerprints {sorted(fps)})")
    cfg = cfgs[0]
    # positional (store_positions) sources merge too: read_segment_pairs
    # decodes the pos stream pair-aligned and _MergePart re-encodes it with
    # the merged pair order (positions permute with their pairs)
    N = sum(int(m["N"]) for m in metas)
    total_tokens = sum(int(m["total_tokens"]) for m in metas)
    avgdl = total_tokens / N if N else 0.0
    fp = _merge_fingerprint(metas)
    os.makedirs(out_dir, exist_ok=True)
    report: dict = {"fingerprint": fp, "phases": {}}

    meta_path = os.path.join(out_dir, "index_meta.json")
    if os.path.exists(meta_path):
        meta = load_meta(out_dir)
        if meta.get("fingerprint") == fp and meta.get("complete"):
            report["skipped"] = True
            report.update(meta)
            return report

    # ---- segments: one task per partition ----
    t0 = time.perf_counter()
    mf.gc_tmp_dirs(os.path.join(out_dir, "segments"))
    stage = _MergePart(sources, out_dir, fp, cfg, N, avgdl)

    def merge_batch(batch: pa.Table) -> pa.Table:
        return stage(batch)

    results = (
        ray.data.from_items([{"part": p} for p in range(cfg.num_partitions)])
        .map_batches(merge_batch, batch_size=1, batch_format="pyarrow")
        .take_all()
    )
    report["phases"]["segments"] = {
        "sec": time.perf_counter() - t0,
        "built": sum(1 for r in results if not r["skipped"]),
        "skipped": sum(1 for r in results if r["skipped"]),
    }

    # ---- dictionary + stats (vocabulary-sized, driver) ----
    t0 = time.perf_counter()
    dict_dir = os.path.join(out_dir, "dictionary")
    terms_files = [
        os.path.join(out_dir, "segments", f"part={p:05d}", "terms.parquet")
        for p in range(cfg.num_partitions)
    ]
    t = pa.concat_tables(
        pq.read_table(f, columns=["term", "df", "cf"]) for f in terms_files
    )
    g = t.group_by("term").aggregate([("df", "sum"), ("cf", "sum")])
    g = agg_rename(
        g, ["term"], [("df", "sum"), ("cf", "sum")], ["df", "cf"]
    ).sort_by("term")
    with mf.AtomicDir(dict_dir) as tmp:
        pq.write_table(g, os.path.join(tmp, "dictionary.parquet"))
        mf.write_manifest(tmp, {"kind": "dictionary", "fingerprint": fp})
    hot_terms = set()
    for m in metas:
        hot_terms.update(m.get("hot_df", {}))
    hot_df: dict[str, int] = {}
    if hot_terms:
        import pyarrow.compute as pc

        sel = g.filter(pc.is_in(g.column("term"), value_set=pa.array(sorted(hot_terms))))
        hot_df = {
            t_: int(d)
            for t_, d in zip(sel.column("term").to_pylist(), sel.column("df").to_pylist())
        }
    stats_path = os.path.join(out_dir, "stats.json")
    with open(stats_path + ".tmp", "w") as f:
        json.dump(
            {"fingerprint": fp, "N": N, "total_tokens": total_tokens,
             "avgdl": avgdl, "hot_df": hot_df},
            f, indent=1, sort_keys=True,
        )
    os.replace(stats_path + ".tmp", stats_path)
    report["phases"]["dictionary"] = {
        "sec": time.perf_counter() - t0, "multi_part_terms": len(hot_df),
    }

    # ---- attribute sidecars: copy with a per-source prefix ----
    for i, s in enumerate(sources):
        src_attr = os.path.join(s, "attributes")
        if os.path.isdir(src_attr):
            dst_attr = os.path.join(out_dir, "attributes")
            os.makedirs(dst_attr, exist_ok=True)
            for name in sorted(os.listdir(src_attr)):
                if name.endswith(".attrs.parquet"):
                    shutil.copyfile(
                        os.path.join(src_attr, name),
                        os.path.join(dst_attr, f"m{i}-{name}"),
                    )

    # ---- finalize ----
    part_stats = {}
    max_doc_id = -1
    for p in range(cfg.num_partitions):
        m = mf.read_manifest(os.path.join(out_dir, "segments", f"part={p:05d}"))
        part_stats[p] = {k: m[k] for k in ("n_terms", "n_postings", "sum_tf")}
        max_doc_id = max(max_doc_id, m.get("max_doc_id", -1))
    meta = {
        "max_doc_id": max_doc_id,
        "fingerprint": fp,
        "merged_from": [m["fingerprint"] for m in metas],
        "config": asdict(cfg),
        "N": N,
        "total_tokens": total_tokens,
        "avgdl": avgdl,
        "hot_df": hot_df,
        "num_partitions": cfg.num_partitions,
        "part_stats": part_stats,
        "complete": True,
    }
    # deletions survive merges: union the sources' tombstone files (doc sets
    # are disjoint, so a plain concat-unique is exact)
    import numpy as np

    tombs = [
        pq.read_table(p, columns=["doc_id"]).column("doc_id").to_numpy()
        for p in (os.path.join(s, "deleted.parquet") for s in sources)
        if os.path.exists(p)
    ]
    if tombs:
        ids = np.unique(np.concatenate(tombs))
        dp = os.path.join(out_dir, "deleted.parquet")
        pq.write_table(pa.table({"doc_id": pa.array(ids, type=pa.int64())}), dp + ".tmp")
        os.replace(dp + ".tmp", dp)
        report["n_deleted"] = int(len(ids))
    with open(meta_path + ".tmp", "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
    os.replace(meta_path + ".tmp", meta_path)
    report.update(meta)
    return report


class _CompactPart:
    """map_batches stage: one row = one partition to compact (drop
    tombstoned docs' pairs, re-encode under the post-delete stats)."""

    def __init__(self, index_dir: str, out_dir: str, fingerprint: str,
                 cfg: IndexConfig, N: int, avgdl: float, deleted_ref):
        self.index_dir = index_dir
        self.out_dir = out_dir
        self.fingerprint = fingerprint
        self.cfg = cfg
        self.N = N
        self.avgdl = avgdl
        self.deleted_ref = deleted_ref  # ray.put'd sorted int64 array

    def compact_part(self, part: int) -> dict:
        import ray as _ray

        seg_dir = os.path.join(self.out_dir, "segments", f"part={part:05d}")
        if mf.is_complete(seg_dir, self.fingerprint):
            m = mf.read_manifest(seg_dir)
            return {"part": part, "n_terms": m["n_terms"],
                    "n_postings": m["n_postings"], "skipped": True}
        with_pos = self.cfg.store_positions
        rec = read_segment_pairs(
            os.path.join(self.index_dir, "segments", f"part={part:05d}"),
            with_positions=with_pos,
        )
        terms, df, docs, tfs, dls = rec[:5]
        deleted = _ray.get(self.deleted_ref)
        codes_all = np.repeat(np.arange(len(df), dtype=np.int64), df)
        keep = ~np.isin(docs, deleted, assume_unique=False)
        positions = None
        if keep.all():
            codes_new, terms_kept = codes_all, list(terms)
            docs_k, tfs_k, dls_k = docs, tfs, dls
            if with_pos:
                flat_new, new_tfs = rec[5], tfs
        else:
            codes_k = codes_all[keep]
            docs_k, tfs_k, dls_k = docs[keep], tfs[keep], dls[keep]
            # drop now-empty terms so the dictionary equals a fresh build's
            kept_codes, codes_new = np.unique(codes_k, return_inverse=True)
            terms_kept = [terms[c] for c in kept_codes]
            if with_pos:
                flat = rec[5]
                pre_starts = np.concatenate(([0], np.cumsum(tfs)[:-1]))
                new_tfs = tfs_k
                out_starts = np.concatenate(([0], np.cumsum(new_tfs)[:-1]))
                total = int(new_tfs.sum())
                take = np.repeat(pre_starts[keep], new_tfs) + (
                    np.arange(total, dtype=np.int64) - np.repeat(out_starts, new_tfs)
                )
                flat_new = flat[take]
        if with_pos:
            if len(tfs_k):
                offsets = np.concatenate(([0], np.cumsum(new_tfs))).astype(np.int32)
                positions = pa.ListArray.from_arrays(
                    pa.array(offsets), pa.array(flat_new.astype(np.int32))
                )
            else:
                positions = pa.ListArray.from_arrays(
                    pa.array(np.zeros(1, dtype=np.int32)),
                    pa.array(np.empty(0, dtype=np.int32)),
                )
        built = build_segment_tables(
            codes_new if len(tfs_k) else np.empty(0, np.int64),
            terms_kept if len(tfs_k) else [],
            docs_k, tfs_k, dls_k, self.N, self.avgdl, self.cfg,
            positions=positions,
        )
        if with_pos:
            terms_table, docs_b, tfs_b, dls_b, stats, pos_b = built
        else:
            terms_table, docs_b, tfs_b, dls_b, stats = built
            pos_b = None
        with mf.AtomicDir(seg_dir) as tmp:
            checks = write_segment(
                tmp, terms_table, docs_b, tfs_b, dls_b, pos_stream=pos_b
            )
            mf.write_manifest(
                tmp,
                {"kind": "segment", "part": part,
                 "fingerprint": self.fingerprint, "checksums": checks, **stats},
            )
        return {"part": part, "n_terms": stats["n_terms"],
                "n_postings": stats["n_postings"], "skipped": False}

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"part": [], "n_terms": [], "n_postings": [], "skipped": []}
        for part in batch.column("part").to_pylist():
            res = self.compact_part(int(part))
            for k in out:
                out[k].append(res[k])
        return pa.table(
            {
                "part": pa.array(out["part"], type=pa.int64()),
                "n_terms": pa.array(out["n_terms"], type=pa.int64()),
                "n_postings": pa.array(out["n_postings"], type=pa.int64()),
                "skipped": pa.array(out["skipped"]),
            }
        )


def compact_index(index_dir: str, out_dir: str) -> dict:
    """Rewrite an index WITHOUT its tombstoned documents — the true
    compaction path for ``delete_docs``, no re-tokenization.

    Two distributed passes over the segments, never over the corpus:

    1. stats pre-pass: each partition decodes (doc, dl) and reports the
       tombstoned docs it contains (unique (doc_id, dl) rows — at most
       the tombstone set reaches the driver, small by the delete
       contract). N/total_tokens/avgdl are corrected by exactly the
       deleted docs' contributions.
    2. compact pass: one task per partition drops the deleted pairs
       (positions permute with their pairs on v4 segments), drops
       now-empty terms, and re-encodes under the NEW global stats;
       resumable via compact-fingerprint manifests.

    The result is rank- AND score-identical to a fresh build over the
    surviving corpus (pinned by tests) with one documented caveat: a
    tombstone for a doc with NO postings (token-empty, or an id that
    never existed) cannot be observed in any segment, so it leaves
    N/avgdl unchanged — it has no postings to remove either way.
    """
    import ray as _ray
    import pyarrow.parquet as pq

    meta = load_meta(index_dir)
    if not meta.get("complete"):
        raise ValueError(f"source index {index_dir} is not complete")
    cfg = config_from_meta(meta)
    tomb_path = os.path.join(index_dir, "deleted.parquet")
    deleted = (
        pq.read_table(tomb_path, columns=["doc_id"]).column("doc_id").to_numpy()
        if os.path.exists(tomb_path)
        else np.empty(0, dtype=np.int64)
    )
    deleted = np.unique(deleted)
    h = hashlib.sha256(meta["fingerprint"].encode())
    h.update(deleted.tobytes())
    fp = "compact-" + h.hexdigest()[:16]
    os.makedirs(out_dir, exist_ok=True)
    report: dict = {"fingerprint": fp, "phases": {}}

    meta_path = os.path.join(out_dir, "index_meta.json")
    if os.path.exists(meta_path):
        m = load_meta(out_dir)
        if m.get("fingerprint") == fp and m.get("complete"):
            report["skipped"] = True
            report.update(m)
            return report

    # ---- stats pre-pass ----
    t0 = time.perf_counter()
    deleted_ref = _ray.put(deleted)

    def find_deleted(batch: pa.Table) -> pa.Table:
        dset = _ray.get(deleted_ref)
        out_d, out_l = [], []
        for part in batch.column("part").to_pylist():
            _, _, docs, _, dls = read_segment_pairs(
                os.path.join(index_dir, "segments", f"part={int(part):05d}")
            )[:5]
            hit = np.isin(docs, dset)
            if hit.any():
                pairs = np.unique(
                    np.stack([docs[hit], dls[hit]], axis=1), axis=0
                )
                out_d.append(pairs[:, 0])
                out_l.append(pairs[:, 1])
        d = np.concatenate(out_d) if out_d else np.empty(0, dtype=np.int64)
        l = np.concatenate(out_l) if out_l else np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(d, type=pa.int64()),
                "dl": pa.array(l, type=pa.int64()),
            }
        )

    parts_ds = ray.data.from_items([{"part": p} for p in range(cfg.num_partitions)])
    found = (
        parts_ds.map_batches(find_deleted, batch_size=1, batch_format="pyarrow")
        .take_all()
        if len(deleted)
        else []
    )
    uniq = {r["doc_id"]: r["dl"] for r in found}
    n_found, dl_removed = len(uniq), int(sum(uniq.values()))
    N = int(meta["N"]) - n_found
    total_tokens = int(meta["total_tokens"]) - dl_removed
    avgdl = total_tokens / N if N else 0.0
    report["phases"]["stats"] = {
        "sec": time.perf_counter() - t0,
        "n_tombstones": int(len(deleted)),
        "n_found": n_found,
        "tokens_removed": dl_removed,
    }

    # ---- compact pass: one task per partition ----
    t0 = time.perf_counter()
    mf.gc_tmp_dirs(os.path.join(out_dir, "segments"))
    stage = _CompactPart(index_dir, out_dir, fp, cfg, N, avgdl, deleted_ref)
    results = (
        parts_ds.map_batches(lambda b: stage(b), batch_size=1, batch_format="pyarrow")
        .take_all()
    )
    report["phases"]["segments"] = {
        "sec": time.perf_counter() - t0,
        "built": sum(1 for r in results if not r["skipped"]),
        "skipped": sum(1 for r in results if r["skipped"]),
    }

    # ---- dictionary + stats + meta (vocabulary-sized, driver) ----
    t0 = time.perf_counter()
    dict_dir = os.path.join(out_dir, "dictionary")
    terms_files = [
        os.path.join(out_dir, "segments", f"part={p:05d}", "terms.parquet")
        for p in range(cfg.num_partitions)
    ]
    t = pa.concat_tables(
        pq.read_table(f, columns=["term", "df", "cf"]) for f in terms_files
    )
    g = t.group_by("term").aggregate([("df", "sum"), ("cf", "sum")])
    g = agg_rename(
        g, ["term"], [("df", "sum"), ("cf", "sum")], ["df", "cf"]
    ).sort_by("term")
    with mf.AtomicDir(dict_dir) as tmp:
        pq.write_table(g, os.path.join(tmp, "dictionary.parquet"))
        mf.write_manifest(tmp, {"kind": "dictionary", "fingerprint": fp})
    hot_terms = set(meta.get("hot_df", {}))
    hot_df: dict[str, int] = {}
    if hot_terms:
        import pyarrow.compute as pc

        sel = g.filter(
            pc.is_in(g.column("term"), value_set=pa.array(sorted(hot_terms)))
        )
        hot_df = {
            t_: int(d)
            for t_, d in zip(
                sel.column("term").to_pylist(), sel.column("df").to_pylist()
            )
        }
    stats_path = os.path.join(out_dir, "stats.json")
    with open(stats_path + ".tmp", "w") as f:
        json.dump(
            {"fingerprint": fp, "N": N, "total_tokens": total_tokens,
             "avgdl": avgdl, "hot_df": hot_df},
            f, indent=1, sort_keys=True,
        )
    os.replace(stats_path + ".tmp", stats_path)
    report["phases"]["dictionary"] = {"sec": time.perf_counter() - t0}

    # attribute sidecars copy unchanged: rows for compacted-away docs are
    # inert (attribute filters only ever intersect with postings)
    src_attr = os.path.join(index_dir, "attributes")
    if os.path.isdir(src_attr):
        dst_attr = os.path.join(out_dir, "attributes")
        os.makedirs(dst_attr, exist_ok=True)
        for name in sorted(os.listdir(src_attr)):
            if name.endswith(".attrs.parquet"):
                shutil.copyfile(
                    os.path.join(src_attr, name), os.path.join(dst_attr, name)
                )

    part_stats = {}
    max_doc_id = -1
    for p in range(cfg.num_partitions):
        m = mf.read_manifest(os.path.join(out_dir, "segments", f"part={p:05d}"))
        part_stats[p] = {k: m[k] for k in ("n_terms", "n_postings", "sum_tf")}
        max_doc_id = max(max_doc_id, m.get("max_doc_id", -1))
    out_meta = {
        "max_doc_id": max_doc_id,
        "fingerprint": fp,
        "compacted_from": meta["fingerprint"],
        "config": asdict(cfg),
        "N": N,
        "total_tokens": total_tokens,
        "avgdl": avgdl,
        "hot_df": hot_df,
        "num_partitions": cfg.num_partitions,
        "part_stats": part_stats,
        "complete": True,
    }
    with open(meta_path + ".tmp", "w") as f:
        json.dump(out_meta, f, indent=1, sort_keys=True)
    os.replace(meta_path + ".tmp", meta_path)
    report.update(out_meta)
    report["n_compacted_out"] = n_found
    return report


def extend_index(
    index_dir: str,
    new_corpus_path: str,
    out_dir: str,
    *,
    concurrency: int | None = None,
) -> dict:
    """Incremental index growth: add a batch of NEW corpus shards to an
    existing index without re-tokenizing the existing corpus.

    Builds a delta index over only the new shards (same recorded config as
    the base index — analyzer parity is what makes the merge score-exact),
    then segment-merges base + delta into ``out_dir``. Cost is
    O(new corpus) tokenize + O(vocab) merge; search results over ``out_dir``
    are rank- AND score-identical to a from-scratch build over the union
    (pinned by test_merge/test_extend). Doc-id disjointness is enforced by
    the merge (doc ids are (repo, path) fingerprints, so re-adding an
    existing document aborts loudly instead of double-counting).

    Resumable end-to-end: the delta build and the merge each skip completed
    work via their lineage manifests, so a killed extend re-runs in place.
    The delta index is left next to ``out_dir`` (``<out_dir>.delta``) as the
    merge's resume input; remove it after the merge report says complete.
    """
    from distributed_text_search_ray.pipelines.build import build_index

    base_meta = load_meta(index_dir)
    if not base_meta.get("complete"):
        raise ValueError(f"base index {index_dir} is not complete")
    cfg = config_from_meta(base_meta)
    delta_dir = out_dir.rstrip("/") + ".delta"
    build_index(new_corpus_path, delta_dir, cfg, concurrency=concurrency)
    report = merge_indexes([index_dir, delta_dir], out_dir)
    report["delta_dir"] = delta_dir
    return report


def upsert_docs(
    index_dir: str,
    new_corpus_path: str,
    out_dir: str,
    *,
    concurrency: int | None = None,
) -> dict:
    """Replace-or-add a batch of documents in one lifecycle operation.

    The missing third verb after delete (``build.delete_docs``) and append
    (``extend_index``): the new shards may carry doc ids that ALREADY exist
    in the base index (replacements) alongside brand-new ids (inserts).
    Composition, all existing resumable primitives:

    1. read the new shards' doc ids (bounded by the upsert batch — deletes/
       refreshes arrive as an id-sized changeset, not a corpus scan);
    2. tombstone those ids on a hardlink clone of the base (ids with no
       postings — pure inserts — are no-ops by the delete contract);
    3. ``compact_index`` the clone: old versions drop out of the segments
       and N/avgdl/df are recomputed without re-tokenizing the base corpus;
    4. ``extend_index`` with the new shards (delta build + segment merge —
       the merge's doc-id disjointness holds because step 3 removed every
       colliding id).

    Search over ``out_dir`` is rank- AND score-identical to a from-scratch
    build over (base corpus minus upserted ids) + new docs (pinned by
    tests/test_round4_fixes.py and the ``bm25_topk_upserted`` SQL twin).
    Cost is O(segments) rewrite + O(new docs) tokenize; the corpus is never
    re-read. Steps 3 and 4 resume via their lineage manifests; the clone is
    re-created when the tombstone set changes (cheap: hardlinks).
    """
    from distributed_text_search_ray.pipelines.build import delete_docs
    from distributed_text_search_ray.sources.corpus import read_corpus

    index_dir = resolve_index(index_dir)
    ids = np.sort(
        np.asarray(
            [
                r["doc_id"]
                for r in read_corpus(new_corpus_path, columns=["doc_id"]).take_all()
            ],
            dtype=np.int64,
        )
    )
    base_meta = load_meta(index_dir)
    if not base_meta.get("complete"):
        raise ValueError(f"base index {index_dir} is not complete")

    clone = out_dir.rstrip("/") + ".tombstoned"
    sig_path = os.path.join(clone, "upsert_clone.json")
    sig = {
        "base": base_meta["fingerprint"],
        "ids": hashlib.sha256(ids.tobytes()).hexdigest()[:16],
    }
    have = None
    if os.path.exists(sig_path):
        with open(sig_path) as f:
            have = json.load(f)
    if have != sig:
        shutil.rmtree(clone, ignore_errors=True)
        shutil.copytree(index_dir, clone, copy_function=os.link)
        delete_docs(clone, ids)
        with open(sig_path, "w") as f:
            json.dump(sig, f)

    compacted = out_dir.rstrip("/") + ".compacted"
    report_c = compact_index(clone, compacted)
    report = extend_index(compacted, new_corpus_path, out_dir, concurrency=concurrency)
    report["n_upserted"] = int(len(ids))
    report["compact"] = {k: report_c[k] for k in ("fingerprint",) if k in report_c}
    return report


class _ReshardPart:
    """map_batches stage for :func:`reshard_index`.

    ``mode="split"``: one row = one OLD partition; decodes it once and
    writes its ``factor`` child segments (term-level routing, no shuffle —
    with new_P = old_P * factor, ``h % new_P`` of every term routed to old
    part p is congruent to p mod old_P, so a parent's terms land only in
    its own children; same for every salt probe ``h(term#s)``).

    ``mode="shrink"``: one row = one NEW partition; decodes its ``factor``
    parent segments (old parts q with q % new_P == part) and re-encodes
    their concatenated pair streams. A salted term may appear in several
    parents (doc-disjoint by construction); docs legitimately repeat across
    different terms, so no doc-disjointness check applies here (unlike the
    cross-index merge).
    """

    def __init__(self, index_dir: str, out_dir: str, fingerprint: str,
                 cfg: IndexConfig, old_P: int, new_P: int,
                 N: int, avgdl: float, salted: list[str], mode: str):
        self.index_dir = index_dir
        self.out_dir = out_dir
        self.fingerprint = fingerprint
        self.cfg = cfg  # already carries num_partitions = new_P
        self.old_P = old_P
        self.new_P = new_P
        self.N = N
        self.avgdl = avgdl
        self.salted = set(salted)
        self.mode = mode

    # ---- routing -----------------------------------------------------
    def _split_target(self, term: str, parent: int) -> int:
        from distributed_text_search_ray.functions.hashing import (
            stable_u64,
            term_partition,
        )

        base = term_partition(term, self.new_P)
        if term not in self.salted:
            return base
        cand = {base} | {
            stable_u64(f"{term}#{s}") % self.new_P
            for s in range(self.cfg.salt_buckets)
        }
        mine = sorted(c for c in cand if c % self.old_P == parent)
        # at least one candidate is a child of the parent: whichever probe
        # routed these pairs to `parent` under old_P maps to one under new_P
        return mine[0]

    def _encode(self, part: int, union_terms, codes, docs, tfs, dls, positions):
        seg_dir = os.path.join(self.out_dir, "segments", f"part={part:05d}")
        built = build_segment_tables(
            codes, union_terms, docs, tfs, dls, self.N, self.avgdl, self.cfg,
            positions=positions,
        )
        if self.cfg.store_positions:
            terms_table, docs_b, tfs_b, dls_b, stats, pos_b = built
        else:
            terms_table, docs_b, tfs_b, dls_b, stats = built
            pos_b = None
        with mf.AtomicDir(seg_dir) as tmp:
            checks = write_segment(
                tmp, terms_table, docs_b, tfs_b, dls_b, pos_stream=pos_b
            )
            mf.write_manifest(
                tmp,
                {"kind": "segment", "part": part,
                 "fingerprint": self.fingerprint, "checksums": checks, **stats},
            )
        return stats

    @staticmethod
    def _empty_positions(with_pos: bool):
        if not with_pos:
            return None
        return pa.ListArray.from_arrays(
            pa.array(np.zeros(1, dtype=np.int32)),
            pa.array(np.empty(0, dtype=np.int32)),
        )

    # ---- split: parent -> factor children ------------------------------
    def _split_one(self, parent: int) -> list[dict]:
        factor = self.new_P // self.old_P
        children = [parent + i * self.old_P for i in range(factor)]
        done = [
            c for c in children
            if mf.is_complete(
                os.path.join(self.out_dir, "segments", f"part={c:05d}"),
                self.fingerprint,
            )
        ]
        if len(done) == len(children):
            out = []
            for c in children:
                m = mf.read_manifest(
                    os.path.join(self.out_dir, "segments", f"part={c:05d}")
                )
                out.append({"part": c, "n_terms": m["n_terms"],
                            "n_postings": m["n_postings"], "skipped": True})
            return out
        with_pos = self.cfg.store_positions
        rec = read_segment_pairs(
            os.path.join(self.index_dir, "segments", f"part={parent:05d}"),
            with_positions=with_pos,
        )
        terms, df = rec[0], rec[1]
        docs, tfs, dls = rec[2], rec[3], rec[4]
        flat_pos = rec[5] if with_pos else None
        targets = np.fromiter(
            (self._split_target(t, parent) for t in terms),
            dtype=np.int64, count=len(terms),
        )
        pair_target = np.repeat(targets, df)
        out = []
        for child in children:
            tmask = targets == child
            child_terms = [t for t, m in zip(terms, tmask) if m]
            pmask = pair_target == child
            c_docs, c_tfs, c_dls = docs[pmask], tfs[pmask], dls[pmask]
            # terms stay sorted; pairs stay doc-sorted within each term
            codes = np.repeat(
                np.arange(len(child_terms), dtype=np.int64), df[tmask]
            )
            positions = self._empty_positions(with_pos)
            if with_pos and len(c_tfs):
                pos_mask = np.repeat(pmask, tfs)
                cpos = flat_pos[pos_mask].astype(np.int32)
                offsets = np.concatenate(([0], np.cumsum(c_tfs))).astype(np.int32)
                positions = pa.ListArray.from_arrays(
                    pa.array(offsets), pa.array(cpos)
                )
            stats = self._encode(child, child_terms, codes, c_docs, c_tfs, c_dls, positions)
            out.append({"part": child, "n_terms": stats["n_terms"],
                        "n_postings": stats["n_postings"], "skipped": False})
        return out

    # ---- shrink: factor parents -> one child ----------------------------
    def _shrink_one(self, part: int) -> list[dict]:
        seg_dir = os.path.join(self.out_dir, "segments", f"part={part:05d}")
        if mf.is_complete(seg_dir, self.fingerprint):
            m = mf.read_manifest(seg_dir)
            return [{"part": part, "n_terms": m["n_terms"],
                     "n_postings": m["n_postings"], "skipped": True}]
        with_pos = self.cfg.store_positions
        factor = self.old_P // self.new_P
        parents = [part + i * self.new_P for i in range(factor)]
        per_src = [
            read_segment_pairs(
                os.path.join(self.index_dir, "segments", f"part={q:05d}"),
                with_positions=with_pos,
            )
            for q in parents
        ]
        union: set[str] = set()
        for rec in per_src:
            union.update(rec[0])
        union_terms = sorted(union)
        code_of = {t: i for i, t in enumerate(union_terms)}
        codes_parts, docs_parts, tfs_parts, dls_parts, pos_parts = [], [], [], [], []
        for rec in per_src:
            terms, df = rec[0], rec[1]
            if not len(rec[2]):
                continue
            codes_parts.append(
                np.repeat(
                    np.fromiter((code_of[t] for t in terms), dtype=np.int64,
                                count=len(terms)),
                    df,
                )
            )
            docs_parts.append(rec[2])
            tfs_parts.append(rec[3])
            dls_parts.append(rec[4])
            if with_pos:
                pos_parts.append(rec[5])
        positions = self._empty_positions(with_pos)
        if codes_parts:
            codes = np.concatenate(codes_parts)
            docs = np.concatenate(docs_parts)
            tfs_pre = np.concatenate(tfs_parts)
            dls_pre = np.concatenate(dls_parts)
            order = np.lexsort((docs, codes))
            codes, docs = codes[order], docs[order]
            tfs, dls = tfs_pre[order], dls_pre[order]
            if with_pos:
                flat = np.concatenate(pos_parts)
                pre_starts = np.concatenate(([0], np.cumsum(tfs_pre)[:-1]))
                out_starts = np.concatenate(([0], np.cumsum(tfs)[:-1]))
                total = int(tfs.sum())
                take = np.repeat(pre_starts[order], tfs) + (
                    np.arange(total, dtype=np.int64) - np.repeat(out_starts, tfs)
                )
                offsets = np.concatenate(([0], np.cumsum(tfs))).astype(np.int32)
                positions = pa.ListArray.from_arrays(
                    pa.array(offsets), pa.array(flat[take].astype(np.int32))
                )
        else:
            codes = np.empty(0, np.int64)
            docs = tfs = dls = np.empty(0, np.int64)
        stats = self._encode(part, union_terms, codes, docs, tfs, dls, positions)
        return [{"part": part, "n_terms": stats["n_terms"],
                 "n_postings": stats["n_postings"], "skipped": False}]

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"part": [], "n_terms": [], "n_postings": [], "skipped": []}
        for part in batch.column("part").to_pylist():
            rows = (
                self._split_one(int(part))
                if self.mode == "split"
                else self._shrink_one(int(part))
            )
            for r in rows:
                for k in out:
                    out[k].append(r[k])
        return pa.table(
            {
                "part": pa.array(out["part"], type=pa.int64()),
                "n_terms": pa.array(out["n_terms"], type=pa.int64()),
                "n_postings": pa.array(out["n_postings"], type=pa.int64()),
                "skipped": pa.array(out["skipped"]),
            }
        )


def reshard_index(index_dir: str, out_dir: str, num_partitions: int) -> dict:
    """Re-partition a complete index to ``num_partitions`` WITHOUT
    re-tokenizing the corpus — the ES shrink/split analog for elasticity
    (more partitions = more query/build parallelism; fewer = less per-query
    fan-out on small tenants).

    Requires the new count to be an integer multiple (split) or divisor
    (shrink) of the old one — the Lucene/ES split contract, and what makes
    the data movement ZERO-shuffle here: with new_P = old_P * k, every term
    (and every salt probe) routed to old part p satisfies
    ``h % new_P ≡ p (mod old_P)``, so a split is one task per OLD partition
    writing its k children, and a shrink is one task per NEW partition
    reading its k parents. Global stats (N, avgdl, df, hot_df) are
    unchanged; the dictionary is copied; block-max bounds are re-derived
    from each new segment's local df (local df <= global df keeps them
    valid upper bounds, same argument as the build). Search over the
    resharded index is rank- AND score-identical to the source (pinned by
    tests/test_reshard.py). Resumable via per-segment lineage manifests.
    """
    import pyarrow.parquet as pq

    meta = load_meta(index_dir)
    if not meta.get("complete"):
        raise ValueError(f"source index {index_dir} is not complete")
    cfg = config_from_meta(meta)
    old_P = int(cfg.num_partitions)
    new_P = int(num_partitions)
    if new_P == old_P:
        raise ValueError("new partition count equals the current one")
    if new_P > old_P:
        if new_P % old_P:
            raise ValueError(
                f"split requires a multiple of {old_P}, got {new_P}"
            )
        mode = "split"
    else:
        if new_P < 1 or old_P % new_P:
            raise ValueError(
                f"shrink requires a divisor of {old_P}, got {new_P}"
            )
        mode = "shrink"
    h = hashlib.sha256(f"{meta['fingerprint']}|{new_P}".encode())
    fp = "reshard-" + h.hexdigest()[:16]
    os.makedirs(out_dir, exist_ok=True)
    report: dict = {"fingerprint": fp, "phases": {}, "mode": mode}

    meta_path = os.path.join(out_dir, "index_meta.json")
    if os.path.exists(meta_path):
        m = load_meta(out_dir)
        if m.get("fingerprint") == fp and m.get("complete"):
            report["skipped"] = True
            report.update(m)
            return report

    from dataclasses import replace as _replace

    new_cfg = _replace(cfg, num_partitions=new_P)
    N = int(meta["N"])
    total_tokens = int(meta["total_tokens"])
    avgdl = float(meta["avgdl"])
    hot_df = {k: int(v) for k, v in meta.get("hot_df", {}).items()}

    # ---- segment pass: one task per parent (split) / child (shrink) ----
    t0 = time.perf_counter()
    n_tasks = old_P if mode == "split" else new_P
    parts_ds = ray.data.from_items([{"part": p} for p in range(n_tasks)])
    stage = _ReshardPart(
        index_dir, out_dir, fp, new_cfg, old_P, new_P, N, avgdl,
        sorted(hot_df), mode,
    )
    results = (
        parts_ds.map_batches(stage, batch_size=1, batch_format="pyarrow")
        .take_all()
    )
    report["phases"]["segments"] = {
        "sec": time.perf_counter() - t0,
        "built": sum(1 for r in results if not r["skipped"]),
        "skipped": sum(1 for r in results if r["skipped"]),
    }

    # ---- dictionary (unchanged content) + stats + meta ----
    t0 = time.perf_counter()
    dict_dir = os.path.join(out_dir, "dictionary")
    src_dict = os.path.join(index_dir, "dictionary", "dictionary.parquet")
    with mf.AtomicDir(dict_dir) as tmp:
        shutil.copyfile(src_dict, os.path.join(tmp, "dictionary.parquet"))
        mf.write_manifest(tmp, {"kind": "dictionary", "fingerprint": fp})
    stats_path = os.path.join(out_dir, "stats.json")
    with open(stats_path + ".tmp", "w") as f:
        json.dump(
            {"fingerprint": fp, "N": N, "total_tokens": total_tokens,
             "avgdl": avgdl, "hot_df": hot_df},
            f, indent=1, sort_keys=True,
        )
    os.replace(stats_path + ".tmp", stats_path)

    # attribute sidecars and tombstones carry over unchanged (doc-keyed)
    src_attr = os.path.join(index_dir, "attributes")
    if os.path.isdir(src_attr):
        dst_attr = os.path.join(out_dir, "attributes")
        os.makedirs(dst_attr, exist_ok=True)
        for name in sorted(os.listdir(src_attr)):
            if name.endswith(".attrs.parquet"):
                shutil.copyfile(
                    os.path.join(src_attr, name), os.path.join(dst_attr, name)
                )
    src_tomb = os.path.join(index_dir, "deleted.parquet")
    if os.path.exists(src_tomb):
        shutil.copyfile(src_tomb, os.path.join(out_dir, "deleted.parquet"))

    part_stats = {}
    for p in range(new_P):
        m = mf.read_manifest(os.path.join(out_dir, "segments", f"part={p:05d}"))
        part_stats[p] = {k: m[k] for k in ("n_terms", "n_postings", "sum_tf")}
    out_meta = {
        "max_doc_id": int(meta.get("max_doc_id", -1)),
        "fingerprint": fp,
        "resharded_from": meta["fingerprint"],
        "config": asdict(new_cfg),
        "N": N,
        "total_tokens": total_tokens,
        "avgdl": avgdl,
        "hot_df": hot_df,
        "num_partitions": new_P,
        "part_stats": part_stats,
        "complete": True,
    }
    report["phases"]["dictionary"] = {"sec": time.perf_counter() - t0}
    with open(meta_path + ".tmp", "w") as f:
        json.dump(out_meta, f, indent=1, sort_keys=True)
    os.replace(meta_path + ".tmp", meta_path)
    report.update(out_meta)
    return report


class _VerifyPart:
    """map_batches stage for :func:`verify_index`: one row = one partition."""

    def __init__(self, index_dir: str, fingerprint: str, deep: bool,
                 store_positions: bool):
        self.index_dir = index_dir
        self.fingerprint = fingerprint
        self.deep = deep
        self.store_positions = store_positions

    def _check(self, part: int) -> list[str]:
        from distributed_text_search_ray.state.segment import (
            POS_STREAM,
            STREAMS,
            TERMS_FILE,
        )

        errs: list[str] = []
        seg = os.path.join(self.index_dir, "segments", f"part={part:05d}")
        m = mf.read_manifest(seg)
        if m is None:
            return [f"part {part}: missing or unreadable MANIFEST"]
        if m.get("status") != "complete":
            errs.append(f"part {part}: manifest status {m.get('status')!r}")
        if m.get("fingerprint") != self.fingerprint:
            errs.append(
                f"part {part}: manifest fingerprint {m.get('fingerprint')!r} "
                f"!= index {self.fingerprint!r}"
            )
        names = list(STREAMS) + ([POS_STREAM] if self.store_positions else [])
        for name in names:
            p = os.path.join(seg, name)
            if not os.path.exists(p):
                errs.append(f"part {part}: missing stream {name}")
                continue
            want = m.get("checksums", {}).get(name)
            if want is None:
                errs.append(f"part {part}: manifest records no checksum for {name}")
                continue
            with open(p, "rb") as f:
                got = hashlib.md5(f.read()).hexdigest()
            if got != want:
                errs.append(
                    f"part {part}: {name} checksum {got} != manifest {want}"
                )
        import pyarrow.parquet as pq

        try:
            t = pq.read_table(os.path.join(seg, TERMS_FILE), columns=["term", "df", "cf"])
        except Exception as e:  # corrupt parquet is a finding, not a crash
            return errs + [f"part {part}: unreadable {TERMS_FILE}: {e}"]
        df = t.column("df").to_numpy()
        if int(df.sum()) != int(m.get("n_postings", -1)):
            errs.append(
                f"part {part}: terms df sum {int(df.sum())} != manifest "
                f"n_postings {m.get('n_postings')}"
            )
        if t.num_rows != int(m.get("n_terms", -1)):
            errs.append(
                f"part {part}: {t.num_rows} terms != manifest n_terms "
                f"{m.get('n_terms')}"
            )
        terms_list = t.column("term").to_pylist()
        if terms_list != sorted(terms_list):
            errs.append(f"part {part}: term dictionary not sorted")
        if self.deep and not errs:
            # full decode: validates varbyte/delta stream integrity and the
            # pair-level invariants the readers rely on
            rec = read_segment_pairs(seg, with_positions=self.store_positions)
            terms, rdf, docs, tfs, dls = rec[:5]
            if not np.array_equal(rdf, df):
                errs.append(f"part {part}: decoded df differs from {TERMS_FILE}")
            if int(tfs.sum()) != int(m.get("sum_tf", -1)):
                errs.append(
                    f"part {part}: decoded sum_tf {int(tfs.sum())} != "
                    f"manifest {m.get('sum_tf')}"
                )
            if len(docs) and int(docs.max()) > int(m.get("max_doc_id", -1)):
                errs.append(f"part {part}: decoded doc id beyond manifest max")
            if (tfs <= 0).any() or (dls <= 0).any():
                errs.append(f"part {part}: non-positive tf or dl")
            cf_tab = t.column("cf").to_numpy()
            seg_ids = np.repeat(np.arange(len(rdf)), rdf)
            cf_dec = np.bincount(seg_ids, weights=tfs, minlength=len(rdf)).astype(np.int64)
            if not np.array_equal(cf_dec, cf_tab):
                errs.append(f"part {part}: decoded cf differs from {TERMS_FILE}")
            # per-term doc ids strictly increasing (posting-list contract)
            d = np.diff(docs)
            bad = (d <= 0) & (np.diff(seg_ids) == 0)
            if bad.any():
                errs.append(f"part {part}: non-increasing doc ids within a term")
        return errs

    def __call__(self, batch: pa.Table) -> pa.Table:
        parts = batch.column("part").to_pylist()
        errors = ["\n".join(self._check(int(p))) for p in parts]
        return pa.table(
            {
                "part": pa.array(parts, type=pa.int64()),
                "errors": pa.array(errors, type=pa.string()),
            }
        )


def verify_index(index_dir: str, deep: bool = False) -> dict:
    """Index fsck — distributed integrity verification of a built index
    (the restore-side half of snapshot/restore: a copied or rsynced index
    is trustworthy iff this passes).

    One map_batches task per partition checks: manifest present/complete
    and fingerprint-matched to the index meta, stream md5 checksums equal
    the manifest's recorded values, ``terms.parquet`` consistent with the
    manifest (df sum == n_postings, row count == n_terms, sorted terms).
    ``deep=True`` additionally decodes every segment (one vectorized
    varbyte/delta pass, the merge path's reader) and re-derives
    df/cf/sum_tf/doc-order invariants from the raw pairs. Driver-side
    (vocabulary-sized, bounded): dictionary df/cf totals must equal the
    segment sums recorded in part manifests, and stats.json must agree
    with index_meta. Returns {"ok", "errors", "parts", "deep"}.
    """
    import pyarrow.parquet as pq

    meta = load_meta(index_dir)
    cfg = config_from_meta(meta)
    P = int(cfg.num_partitions)
    errors: list[str] = []
    if not meta.get("complete"):
        errors.append("index_meta: complete flag not set")
    stats_path = os.path.join(index_dir, "stats.json")
    if os.path.exists(stats_path):
        with open(stats_path) as f:
            st = json.load(f)
        for k in ("N", "total_tokens"):
            if int(st.get(k, -1)) != int(meta.get(k, -2)):
                errors.append(f"stats.json {k} {st.get(k)} != meta {meta.get(k)}")
    else:
        errors.append("missing stats.json")

    parts_ds = ray.data.from_items([{"part": p} for p in range(P)])
    stage = _VerifyPart(index_dir, meta["fingerprint"], deep, cfg.store_positions)
    res = parts_ds.map_batches(stage, batch_size=1, batch_format="pyarrow").take_all()
    for r in res:
        if r["errors"]:
            errors.extend(r["errors"].split("\n"))

    # dictionary totals vs per-part manifest sums (vocabulary-sized read,
    # aggregated columnar — the dictionary itself is never pulled row-wise)
    dict_path = os.path.join(index_dir, "dictionary", "dictionary.parquet")
    if os.path.exists(dict_path):
        dt = pq.read_table(dict_path, columns=["df", "cf"])
        dict_df = int(np.sum(dt.column("df").to_numpy()))
        dict_cf = int(np.sum(dt.column("cf").to_numpy()))
        man_post = sum(
            int(v.get("n_postings", 0)) for v in meta.get("part_stats", {}).values()
        )
        man_tf = sum(
            int(v.get("sum_tf", 0)) for v in meta.get("part_stats", {}).values()
        )
        if dict_df != man_post:
            errors.append(
                f"dictionary df total {dict_df} != part manifests {man_post}"
            )
        if dict_cf != man_tf:
            errors.append(
                f"dictionary cf total {dict_cf} != part manifests {man_tf}"
            )
        if dict_cf != int(meta.get("total_tokens", -1)):
            errors.append(
                f"dictionary cf total {dict_cf} != meta total_tokens "
                f"{meta.get('total_tokens')}"
            )
    else:
        errors.append("missing dictionary/dictionary.parquet")

    errors = [e for e in errors if e]
    return {"ok": not errors, "errors": errors, "parts": P, "deep": deep}
