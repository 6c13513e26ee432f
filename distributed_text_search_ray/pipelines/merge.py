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

Plan (Ray-Data-first, resumable), the part protocol of
``stages.segment_build`` shared with the build, compaction and reshard:

- one task per partition p: decode each source's ``part=p`` segment back
  to its pair stream (``read_segment_pairs`` — one vectorized varbyte
  decode per stream, NOT a per-term Python loop), combine the streams on
  the union term dictionary (``combine_pairs``: lexsort by (term, doc),
  positions move with their pairs), re-encode and write atomically with a
  lineage manifest keyed by the merge fingerprint (a killed merge
  resumes, skipping finished partitions);
- driver-side (vocabulary-sized): ``build.write_dictionary`` merges the
  per-partition dictionaries and recomputes hot_df for the union of salted
  terms, attribute sidecars are copied with a per-source prefix, and
  ``build.finalize_index`` writes stats + meta.

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
from functools import partial

import numpy as np
import pyarrow as pa
import ray.data

from distributed_text_search_ray.config import IndexConfig
from distributed_text_search_ray.pipelines.build import (
    finalize_index,
    finished_index,
    write_dictionary,
)
from distributed_text_search_ray.stages.executor import config_from_meta, load_meta
from distributed_text_search_ray.stages.segment_build import (
    combine_pairs,
    finished_part,
    part_dir,
    run_part_tasks,
    write_part,
)
from distributed_text_search_ray.state import manifest as mf
from distributed_text_search_ray.state.alias import resolve_index
from distributed_text_search_ray.state.segment import read_segment_pairs


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


def _copy_attributes(src_index: str, out_dir: str, prefix: str = "") -> None:
    """Copy ``src_index``'s attribute sidecars into ``out_dir``, each named
    ``prefix + name``."""
    src_attr = os.path.join(src_index, "attributes")
    if not os.path.isdir(src_attr):
        return
    dst_attr = os.path.join(out_dir, "attributes")
    os.makedirs(dst_attr, exist_ok=True)
    for name in sorted(os.listdir(src_attr)):
        if name.endswith(".attrs.parquet"):
            shutil.copyfile(os.path.join(src_attr, name), os.path.join(dst_attr, prefix + name))


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
    fp = _merge_fingerprint(metas)
    os.makedirs(out_dir, exist_ok=True)
    report: dict = {"fingerprint": fp, "phases": {}}
    done = finished_index(out_dir, fp)
    if done is not None:
        return {**report, "skipped": True, **done}

    # ---- segments: one task per partition ----
    def merge_part(item: dict) -> list[dict]:
        part = item["part"]
        row = finished_part(out_dir, part, fp)
        if row is not None:
            return [row]
        # positional (store_positions) sources merge too: the pos stream is
        # decoded pair-aligned and positions move with their pairs
        recs = [
            read_segment_pairs(part_dir(s, part), with_positions=cfg.store_positions)
            for s in sources
        ]
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
        for rec in recs:
            u = np.unique(rec[2])
            inter = np.intersect1d(seen, u, assume_unique=True)
            if len(inter):
                raise ValueError(
                    f"part {part}: {len(inter)} doc ids present in more than "
                    f"one source index (e.g. {int(inter[0])}) — merge "
                    "requires disjoint doc-id sets"
                )
            seen = np.union1d(seen, u)
        pairs = combine_pairs(recs)
        codes, docs = pairs[0], pairs[2]
        dup = (np.diff(codes) == 0) & (np.diff(docs) == 0)
        if dup.any():
            raise ValueError(
                f"part {part}: {int(dup.sum())} overlapping (term, doc) pairs — "
                "merge requires disjoint doc-id sets across source indexes"
            )
        return [write_part(out_dir, part, fp, cfg, pairs, n_input_files=len(sources))]

    mf.gc_tmp_dirs(os.path.join(out_dir, "segments"))
    _, report["phases"]["segments"] = run_part_tasks(
        [{"part": p} for p in range(cfg.num_partitions)], merge_part
    )

    # ---- dictionary (vocabulary-sized) over the union of salted terms ----
    hot_terms = set().union(*(m.get("hot_df", {}) for m in metas))
    hot_df, report["phases"]["dictionary"] = write_dictionary(
        out_dir, fp, cfg.num_partitions, hot_terms
    )

    # ---- attribute sidecars: copy with a per-source prefix ----
    for i, s in enumerate(sources):
        _copy_attributes(s, out_dir, prefix=f"m{i}-")

    # deletions survive merges: union the sources' tombstone files (doc sets
    # are disjoint, so a plain concat-unique is exact)
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
    report.update(finalize_index(
        out_dir, fp, cfg,
        sum(int(m["N"]) for m in metas),
        sum(int(m["total_tokens"]) for m in metas),
        hot_df,
        merged_from=[m["fingerprint"] for m in metas],
    ))
    return report


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
       now-empty terms, and re-encodes; the NEW global stats go to the
       metadata; resumable via compact-fingerprint manifests.

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
    done = finished_index(out_dir, fp)
    if done is not None:
        return {**report, "skipped": True, **done}

    # ---- stats pre-pass ----
    t0 = time.perf_counter()
    deleted_ref = _ray.put(deleted)

    def find_deleted(batch: pa.Table) -> pa.Table:
        dset = _ray.get(deleted_ref)
        out_d, out_l = [], []
        for part in batch.column("part").to_pylist():
            _, _, docs, _, dls = read_segment_pairs(part_dir(index_dir, int(part)))
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

    parts = [{"part": p} for p in range(cfg.num_partitions)]
    found = (
        ray.data.from_items(parts)
        .map_batches(find_deleted, batch_size=1, batch_format="pyarrow")
        .take_all()
        if len(deleted)
        else []
    )
    uniq = {r["doc_id"]: r["dl"] for r in found}
    n_found, dl_removed = len(uniq), int(sum(uniq.values()))
    report["phases"]["stats"] = {
        "sec": time.perf_counter() - t0,
        "n_tombstones": int(len(deleted)),
        "n_found": n_found,
        "tokens_removed": dl_removed,
    }

    # ---- compact pass: one task per partition ----
    def compact_part(item: dict) -> list[dict]:
        part = item["part"]
        row = finished_part(out_dir, part, fp)
        if row is None:
            rec = read_segment_pairs(
                part_dir(index_dir, part), with_positions=cfg.store_positions
            )
            keep = ~np.isin(rec[2], _ray.get(deleted_ref))
            row = write_part(out_dir, part, fp, cfg, combine_pairs([rec], keep))
        return [row]

    mf.gc_tmp_dirs(os.path.join(out_dir, "segments"))
    _, report["phases"]["segments"] = run_part_tasks(parts, compact_part)

    hot_df, report["phases"]["dictionary"] = write_dictionary(
        out_dir, fp, cfg.num_partitions, meta.get("hot_df", {})
    )
    # attribute sidecars copy unchanged: rows for compacted-away docs are
    # inert (attribute filters only ever intersect with postings)
    _copy_attributes(index_dir, out_dir)
    report.update(finalize_index(
        out_dir, fp, cfg,
        int(meta["N"]) - n_found,
        int(meta["total_tokens"]) - dl_removed,
        hot_df,
        compacted_from=meta["fingerprint"],
    ))
    report["n_compacted_out"] = n_found
    return report


def extend_index(
    index_dir: str,
    new_corpus_path: str,
    out_dir: str,
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
    build_index(new_corpus_path, delta_dir, cfg)
    report = merge_indexes([index_dir, delta_dir], out_dir)
    report["delta_dir"] = delta_dir
    return report


def upsert_docs(
    index_dir: str,
    new_corpus_path: str,
    out_dir: str,
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
    report = extend_index(compacted, new_corpus_path, out_dir)
    report["n_upserted"] = int(len(ids))
    report["compact"] = {k: report_c[k] for k in ("fingerprint",) if k in report_c}
    return report


def _split_target(term: str, parent: int, old_P: int, cfg: IndexConfig, salted) -> int:
    """The child of ``parent`` that receives ``term``'s pairs in a split
    to ``cfg.num_partitions``."""
    from distributed_text_search_ray.functions.hashing import stable_u64, term_partition

    new_P = cfg.num_partitions
    base = term_partition(term, new_P)
    if term not in salted:
        return base
    cand = {base} | {stable_u64(f"{term}#{s}") % new_P for s in range(cfg.salt_buckets)}
    # at least one candidate is a child of the parent: whichever probe
    # routed these pairs to `parent` under old_P maps to one under new_P
    return min(c for c in cand if c % old_P == parent)


def _split_part(index_dir: str, out_dir: str, fp: str, cfg: IndexConfig,
                old_P: int, salted, item: dict) -> list[dict]:
    """Split: decode OLD partition ``item["part"]`` once and write its children
    (term-level routing, no shuffle — with new_P = old_P * k, ``h % new_P``
    of every term routed to old part p is congruent to p mod old_P, so a
    parent's terms land only in its own children; same for every salt
    probe ``h(term#s)``). Only unfinished children are written."""
    parent = item["part"]
    children = range(parent, cfg.num_partitions, old_P)
    rows = [finished_part(out_dir, c, fp) for c in children]
    if all(r is not None for r in rows):
        return rows
    rec = read_segment_pairs(part_dir(index_dir, parent), with_positions=cfg.store_positions)
    targets = np.fromiter(
        (_split_target(t, parent, old_P, cfg, salted) for t in rec[0]),
        dtype=np.int64, count=len(rec[0]),
    )
    pair_target = np.repeat(targets, rec[1])
    return [
        row if row is not None
        else write_part(out_dir, c, fp, cfg, combine_pairs([rec], pair_target == c))
        for row, c in zip(rows, children)
    ]


def _shrink_part(index_dir: str, out_dir: str, fp: str, cfg: IndexConfig,
                 old_P: int, item: dict) -> list[dict]:
    """Shrink: combine NEW partition ``item["part"]``'s parents (old parts q
    with q % new_P == part). A salted term may appear in several parents
    (doc-disjoint by construction); docs legitimately repeat across
    different terms, so no doc-disjointness check applies here (unlike the
    cross-index merge)."""
    part = item["part"]
    row = finished_part(out_dir, part, fp)
    if row is None:
        recs = [
            read_segment_pairs(part_dir(index_dir, q), with_positions=cfg.store_positions)
            for q in range(part, old_P, cfg.num_partitions)
        ]
        row = write_part(out_dir, part, fp, cfg, combine_pairs(recs))
    return [row]


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
    unchanged; the dictionary is copied. Search over the
    resharded index is rank- AND score-identical to the source (pinned by
    tests/test_reshard.py). Resumable via per-segment lineage manifests.
    """
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
    done = finished_index(out_dir, fp)
    if done is not None:
        return {**report, "skipped": True, **done}

    from dataclasses import replace as _replace

    new_cfg = _replace(cfg, num_partitions=new_P)
    hot_df = {k: int(v) for k, v in meta.get("hot_df", {}).items()}

    # ---- segment pass: one task per parent (split) / child (shrink) ----
    if mode == "split":
        reshard_part = partial(_split_part, index_dir, out_dir, fp, new_cfg, old_P, set(hot_df))
    else:
        reshard_part = partial(_shrink_part, index_dir, out_dir, fp, new_cfg, old_P)
    mf.gc_tmp_dirs(os.path.join(out_dir, "segments"))
    _, report["phases"]["segments"] = run_part_tasks(
        [{"part": p} for p in range(min(old_P, new_P))], reshard_part
    )

    # ---- dictionary (unchanged content) + sidecars + finalize ----
    t0 = time.perf_counter()
    src_dict = os.path.join(index_dir, "dictionary", "dictionary.parquet")
    with mf.AtomicDir(os.path.join(out_dir, "dictionary")) as tmp:
        shutil.copyfile(src_dict, os.path.join(tmp, "dictionary.parquet"))
        mf.write_manifest(tmp, {"kind": "dictionary", "fingerprint": fp})
    report["phases"]["dictionary"] = {"sec": time.perf_counter() - t0}
    # attribute sidecars and tombstones carry over unchanged (doc-keyed)
    _copy_attributes(index_dir, out_dir)
    src_tomb = os.path.join(index_dir, "deleted.parquet")
    if os.path.exists(src_tomb):
        shutil.copyfile(src_tomb, os.path.join(out_dir, "deleted.parquet"))
    report.update(finalize_index(
        out_dir, fp, new_cfg, int(meta["N"]), int(meta["total_tokens"]), hot_df,
        resharded_from=meta["fingerprint"],
    ))
    return report


def _verify_part(index_dir: str, fingerprint: str, deep: bool,
                 store_positions: bool, part: int) -> list[str]:
    """:func:`verify_index`'s check of one partition."""
    from distributed_text_search_ray.state.segment import (
        POS_STREAM,
        STREAMS,
        TERMS_FILE,
    )

    errs: list[str] = []
    seg = part_dir(index_dir, part)
    m = mf.read_manifest(seg)
    if m is None:
        return [f"part {part}: missing or unreadable MANIFEST"]
    if m.get("status") != "complete":
        errs.append(f"part {part}: manifest status {m.get('status')!r}")
    if m.get("fingerprint") != fingerprint:
        errs.append(
            f"part {part}: manifest fingerprint {m.get('fingerprint')!r} "
            f"!= index {fingerprint!r}"
        )
    names = list(STREAMS) + ([POS_STREAM] if store_positions else [])
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
    if deep and not errs:
        # full decode: validates varbyte/delta stream integrity and the
        # pair-level invariants the readers rely on
        rec = read_segment_pairs(seg, with_positions=store_positions)
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

    def verify_part(item: dict) -> list[dict]:
        errs = _verify_part(
            index_dir, meta["fingerprint"], deep, cfg.store_positions, item["part"]
        )
        return [{"part": item["part"], "errors": "\n".join(errs)}]

    res, _ = run_part_tasks([{"part": p} for p in range(P)], verify_part)
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
