"""Index build pipeline — streaming, explicitly partitioned, resumable.

Phases (each checkpointed; SURVEY.md section 7):

A. **tokenize + partition** — one task per corpus shard: analyze, assign each
   pair its explicit term-hash partition (salting shard-hot terms), write one
   pair file per partition (``pairs/part=P/shard_S.parquet``) + a lineage
   manifest. Map-side partitioning: the engine's "shuffle" is this file
   layout, not a Ray all-to-all (a sort-based groupby shuffle measured a
   ~15 s serial component that capped scaling efficiency at ~0.5).
B. **segments** — one task per partition: read exactly the files the phase-A
   manifests attribute to it, sort, delta+varbyte encode, write
   atomically. Embarrassingly parallel; resumable per
   partition.
C. **dictionary** — merge the per-partition term tables (vocabulary-sized,
   tiny next to the pairs) with a ``groupby(term)`` into the sorted global
   dictionary (term, df, cf); terms present in >1 partition (the salted ones)
   get their exact global df recorded for the query side.
D. **finalize** — ``index_meta.json``: global stats, multi-partition df map,
   per-partition metrics, completeness flag.

The reference analog of the lifecycle is plan/exchange/compute/merge in
``src/flexible_mpi.c:290-570``; resumability and lineage are new (the
reference has none — any MPI failure kills the job).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict

import pyarrow as pa
import ray.data
from ray.data.aggregate import Count, Sum

from distributed_text_search_ray.config import IndexConfig
from distributed_text_search_ray.util import agg_rename
from distributed_text_search_ray.sources.corpus import corpus_files
from distributed_text_search_ray.stages.segment_build import SegmentBuilder
from distributed_text_search_ray.stages.tokenize_stage import TokenizeShard, shard_manifest_dir
from distributed_text_search_ray.state import manifest as mf

META_FILE = "index_meta.json"


def read_index_meta(index_dir: str) -> dict:
    with open(os.path.join(index_dir, META_FILE)) as f:
        return json.load(f)


def index_stats(index_dir: str) -> "pa.Table":
    """First-principles index bookkeeping as a (metric, value) table —
    n_docs, n_terms (vocabulary size), total_postings (sum of df =
    distinct (doc, term) pairs), total_tokens (sum of cf), avgdl. Every
    number is independently recomputable from the raw corpus with plain
    SQL, which is exactly how the driver gate checks it: a mismatch means
    the build's dictionary/stats bookkeeping drifted from the data. The
    dictionary is vocabulary-sized (the standard broadcast small side), so
    this runs driver-local."""
    import numpy as np
    import pyarrow as pa

    from distributed_text_search_ray.stages.executor import DictionaryExpander
    from distributed_text_search_ray.util import round_half_away

    meta = read_index_meta(index_dir)
    exp = DictionaryExpander(index_dir)
    n_docs = float(meta["N"])
    metrics = [
        ("avgdl", round_half_away(float(meta["avgdl"]), 6)),
        ("n_docs", n_docs),
        ("n_terms", float(len(exp.df))),
        ("total_postings", float(np.sum(exp.df, dtype=np.int64))),
        ("total_tokens", float(np.sum(exp.cf, dtype=np.int64))),
    ]
    return pa.table(
        {
            "metric": pa.array([m for m, _ in metrics], type=pa.string()),
            "value": pa.array([v for _, v in metrics], type=pa.float64()),
        }
    )


def build_index(
    corpus_path: str,
    index_dir: str,
    cfg: IndexConfig | None = None,
) -> dict:
    """Build (or resume) the inverted index for a corpus.

    Returns a build report with per-phase wall times, work/skip counts and
    global stats. Safe to re-run after a crash: completed shards / partitions
    are skipped via their lineage manifests.
    """
    cfg = cfg or IndexConfig()
    files = corpus_files(corpus_path)
    fp = mf.corpus_fingerprint(files, cfg.fingerprint())
    os.makedirs(index_dir, exist_ok=True)
    report: dict = {"fingerprint": fp, "phases": {}}

    meta_path = os.path.join(index_dir, META_FILE)
    if os.path.exists(meta_path):
        meta = read_index_meta(index_dir)
        if meta.get("fingerprint") == fp and meta.get("complete"):
            report["skipped"] = True
            report.update(meta)
            return report

    pairs_dir = os.path.join(index_dir, "pairs")
    seg_parent = os.path.join(index_dir, "segments")
    mf.gc_tmp_dirs(seg_parent)

    # ---- Phase A: tokenize + partition -> per-partition pair files ----
    t0 = time.perf_counter()
    shards = [{"shard_id": i, "file": f} for i, f in enumerate(files)]
    # plain function -> task pool: tasks start instantly and scale elastically
    # (an autoscaling actor pool ramps from one actor and serializes the
    # phase); per-task construction is a regex compile, negligible
    tokenize_stage = TokenizeShard(pairs_dir=pairs_dir, fingerprint=fp, cfg=cfg)

    def tokenize_shard_batch(batch: pa.Table) -> pa.Table:
        return tokenize_stage(batch)

    shard_stats = (
        ray.data.from_items(shards)
        .map_batches(tokenize_shard_batch, batch_size=1, batch_format="pyarrow")
        .take_all()
    )
    N = int(sum(r["n_docs"] for r in shard_stats))
    total_tokens = int(sum(r["n_tokens"] for r in shard_stats))
    avgdl = total_tokens / N if N else 0.0
    report["phases"]["tokenize"] = {
        "sec": time.perf_counter() - t0,
        "shards": len(shards),
        "skipped": sum(1 for r in shard_stats if r["skipped"]),
        "n_docs": N,
        "n_tokens": total_tokens,
        "n_pairs": int(sum(r["n_pairs"] for r in shard_stats)),
    }

    # collect per-partition (file, row-group) lists from the shard manifests
    # (ONLY manifest-listed row groups — stale files from older fingerprints
    # are ignored)
    part_files: dict[int, list[tuple[str, list[int]]]] = {
        p: [] for p in range(cfg.num_partitions)
    }
    salted_union: set[str] = set()
    current_pairs_files: set[str] = set()
    man_dir = shard_manifest_dir(pairs_dir)
    # accept a manifest iff it belongs to a CURRENT corpus file and its
    # per-file fingerprint matches (append-only corpus growth leaves old
    # shards' manifests valid; removed/changed files' manifests are ignored)
    expected_fp = {
        mf.safe_name(f): mf.shard_fingerprint(f, cfg.fingerprint()) for f in files
    }
    os.makedirs(man_dir, exist_ok=True)  # zero-shard corpus: nothing tokenized
    os.makedirs(pairs_dir, exist_ok=True)
    for name in sorted(os.listdir(man_dir)):
        if not name.endswith(".json"):
            continue
        safe = name[: -len(".json")]
        m = mf.read_manifest_file(os.path.join(man_dir, name))
        if m is None or expected_fp.get(safe) != m.get("shard_fp"):
            continue
        path = os.path.join(pairs_dir, m["pairs_file"])
        for p_str, rgs in m["part_row_groups"].items():
            part_files[int(p_str)].append((path, [int(r) for r in rgs]))
        salted_union.update(m.get("salted_terms", []))
        current_pairs_files.add(m["pairs_file"])
    # gc pair files from removed/changed corpus files (their manifests no
    # longer validate, so nothing reads them)
    for name in os.listdir(pairs_dir):
        if name.endswith(".pairs.parquet") and name not in current_pairs_files:
            try:
                os.remove(os.path.join(pairs_dir, name))
            except OSError:
                pass

    # ---- Phase B: per-partition segment build (no all-to-all) ----
    t0 = time.perf_counter()
    builder = SegmentBuilder(index_dir, fp, cfg)

    def build_part_batch(batch: pa.Table) -> pa.Table:
        return builder(batch)

    part_items = [
        {
            "part": p,
            "files": [f for f, _ in part_files[p]],
            "row_groups": [rgs for _, rgs in part_files[p]],
        }
        for p in range(cfg.num_partitions)
    ]
    seg_results = (
        ray.data.from_items(part_items)
        .map_batches(build_part_batch, batch_size=1, batch_format="pyarrow")
        .take_all()
    )
    report["phases"]["segments"] = {
        "sec": time.perf_counter() - t0,
        "built": sum(1 for r in seg_results if not r["skipped"]),
        "skipped": sum(1 for r in seg_results if r["skipped"]),
    }

    # ---- Phase C: global dictionary + exact df for multi-partition terms ----
    t0 = time.perf_counter()
    dict_dir = os.path.join(index_dir, "dictionary")
    hot_df: dict[str, int] = {}
    terms_files = [
        os.path.join(seg_parent, f"part={p:05d}", "terms.parquet")
        for p in range(cfg.num_partitions)
    ]
    stats_blob = None
    if mf.is_complete(dict_dir, fp) and os.path.exists(
        os.path.join(index_dir, "stats.json")
    ):
        with open(os.path.join(index_dir, "stats.json")) as f:
            blob = json.load(f)
        # a crash between the dictionary rename and the stats.json replace
        # leaves a current dictionary next to a STALE stats.json — trusting
        # it would silently resume with wrong global df / salt routing, so
        # the skip requires BOTH fingerprints to match
        if blob.get("fingerprint") == fp:
            stats_blob = blob
    if stats_blob is not None:
        hot_df = {k: int(v) for k, v in stats_blob["hot_df"].items()}
        report["phases"]["dictionary"] = {"sec": time.perf_counter() - t0, "skipped": True}
    else:
        total_terms = sum(
            mf.read_manifest(os.path.join(seg_parent, f"part={p:05d}"))["n_terms"]
            for p in range(cfg.num_partitions)
        )
        if total_terms <= 5_000_000:
            # vocabulary is small: merge the per-partition term tables on the
            # driver with pure pyarrow — saves two Ray execution startups of
            # fixed cost per build. The Ray groupby path below handles
            # vocabularies that do not fit one process.
            import pyarrow.compute as pc
            import pyarrow.parquet as pq_

            t = pa.concat_tables(
                pq_.read_table(f, columns=["term", "df", "cf"]) for f in terms_files
            )
            g = t.group_by("term").aggregate([("df", "sum"), ("cf", "sum")])
            g = agg_rename(
                g, ["term"], [("df", "sum"), ("cf", "sum")], ["df", "cf"]
            ).sort_by("term")
            with mf.AtomicDir(dict_dir) as tmp:
                pq_.write_table(g, os.path.join(tmp, "dictionary.parquet"))
                mf.write_manifest(tmp, {"kind": "dictionary", "fingerprint": fp})
            if salted_union:
                keep = pc.is_in(
                    g.column("term"), value_set=pa.array(sorted(salted_union))
                )
                sel = g.filter(keep)
                hot_df = {
                    t_: int(d)
                    for t_, d in zip(
                        sel.column("term").to_pylist(), sel.column("df").to_pylist()
                    )
                }
        else:
            merged = (
                ray.data.read_parquet(terms_files, columns=["term", "df", "cf"])
                .groupby("term")
                .aggregate(Sum("df", alias_name="df"), Sum("cf", alias_name="cf"))
                .sort("term")
                .materialize()
            )
            with mf.AtomicDir(dict_dir) as tmp:
                merged.write_parquet(tmp)
                mf.write_manifest(tmp, {"kind": "dictionary", "fingerprint": fp})
            # exact global df for every term any shard salted (n_parts>1 alone
            # is NOT sufficient: all of a term's salt buckets can hash to a
            # single partition that differs from its base partition)
            salted = salted_union

            def pick_salted(batch: pa.Table) -> pa.Table:
                keep = [t in salted for t in batch.column("term").to_pylist()]
                return batch.filter(pa.array(keep))

            multi = merged.map_batches(pick_salted, batch_format="pyarrow").take_all()
            hot_df = {r["term"]: int(r["df"]) for r in multi}
        stats_path = os.path.join(index_dir, "stats.json")
        with open(stats_path + ".tmp", "w") as f:
            json.dump(
                {
                    "fingerprint": fp,
                    "N": N,
                    "total_tokens": total_tokens,
                    "avgdl": avgdl,
                    "hot_df": hot_df,
                },
                f,
                indent=1,
                sort_keys=True,
            )
        os.replace(stats_path + ".tmp", stats_path)
        report["phases"]["dictionary"] = {
            "sec": time.perf_counter() - t0,
            "skipped": False,
            "multi_part_terms": len(hot_df),
        }

    # ---- Phase D: finalize ----
    part_stats = {}
    max_doc_id = -1
    for p in range(cfg.num_partitions):
        m = mf.read_manifest(os.path.join(seg_parent, f"part={p:05d}"))
        part_stats[p] = {k: m[k] for k in ("n_terms", "n_postings", "sum_tf")}
        max_doc_id = max(max_doc_id, m.get("max_doc_id", -1))
    meta = {
        "max_doc_id": max_doc_id,
        "fingerprint": fp,
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
        json.dump(meta, f, indent=1, sort_keys=True)
    os.replace(meta_path + ".tmp", meta_path)
    report.update(meta)
    return report


def delete_docs(index_dir: str, doc_ids) -> dict:
    """Mark documents deleted WITHOUT rebuilding (Lucene-style tombstones).

    Appends to ``deleted.parquet`` atomically (temp file + rename), which
    starts a new index generation: every query task started afterwards
    excludes the ids from all posting and position fetches across every
    query path (BM25/fuzzy/boolean/phrase/facets). Corpus stats stay at
    build-time values until a rebuild — the standard stale-stats contract.
    ``merge_indexes`` unions sources' tombstones into the output, so
    deletions survive merges; a full rebuild over the surviving corpus is
    the compaction path.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    path = os.path.join(index_dir, "deleted.parquet")
    if os.path.exists(path):
        old = pq.read_table(path, columns=["doc_id"]).column("doc_id").to_numpy()
        ids = np.unique(np.concatenate([old, ids]))
    tmp = path + ".tmp"
    pq.write_table(pa.table({"doc_id": pa.array(ids, type=pa.int64())}), tmp)
    os.replace(tmp, path)
    return {"n_deleted": int(len(ids)), "path": path}
