"""CLI entry points — the ``ray job submit`` surface.

The reference's entry point is ``mpirun ... ./apm approx_factor dir pattern...``
(parse_args: /root/reference/src/flexible_mpi.c:209-270). Ours:

    python -m distributed_text_search_ray.cli build  CORPUS_DIR INDEX_DIR [--partitions P]
    python -m distributed_text_search_ray.cli search INDEX_DIR QUERY... [--topk K]
    python -m distributed_text_search_ray.cli fuzzy  INDEX_DIR PATTERN... [--k K]
    python -m distributed_text_search_ray.cli apm    CORPUS_DIR K PATTERN...   # reference argv order
    python -m distributed_text_search_ray.cli phrase INDEX_DIR CORPUS_DIR PHRASE... [--scan]
    python -m distributed_text_search_ray.cli bool   INDEX_DIR QUERY...
    python -m distributed_text_search_ray.cli merge  OUT_DIR SRC_INDEX SRC_INDEX...

``apm`` mirrors the reference's output: one count per pattern, argv order.
Launched via ``ray job submit -- python -m distributed_text_search_ray.cli ...``
on a cluster; standalone it owns its own local Ray session.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="distributed_text_search_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("corpus_dir")
    b.add_argument("index_dir")
    b.add_argument("--partitions", type=int, default=16)
    b.add_argument(
        "--split-identifiers",
        action="store_true",
        help="code-subtoken analyzer: split camelCase/snake_case identifiers",
    )

    al = sub.add_parser(
        "alias", help="atomically (re-)point a serving alias at an index dir"
    )
    al.add_argument("name", help="alias name or <name>.alias.json path")
    al.add_argument(
        "index_dir", nargs="?", default=None,
        help="target index; omit to print the current target",
    )

    fs = sub.add_parser(
        "fsearch", help="federated top-k across several indexes (no merge)"
    )
    fs.add_argument("--index", action="append", required=True, dest="index_dirs")
    fs.add_argument("queries", nargs="+")
    fs.add_argument("--topk", type=int, default=10)

    s = sub.add_parser("search")
    s.add_argument("index_dir")
    s.add_argument("queries", nargs="+")
    s.add_argument("--topk", type=int, default=10)
    s.add_argument(
        "--filter",
        default=None,
        help="boolean filter query (AND/OR/AND NOT); gates docs, never scores",
    )
    s.add_argument(
        "--msm",
        type=int,
        default=1,
        help="minimum_should_match: only docs with >= N distinct query "
        "terms are scored (taat path)",
    )

    r3 = sub.add_parser(
        "rm3", help="RM3 pseudo-relevance-feedback expanded retrieval"
    )
    r3.add_argument("index_dir")
    r3.add_argument("corpus_dir", help="corpus parquet dir (feedback doc texts)")
    r3.add_argument("queries", nargs="+")
    r3.add_argument("--topk", type=int, default=10)
    r3.add_argument("--fb-docs", type=int, default=10)
    r3.add_argument("--fb-terms", type=int, default=10)
    r3.add_argument("--lam", type=float, default=0.6)

    f = sub.add_parser("fuzzy")
    f.add_argument("index_dir")
    f.add_argument("patterns", nargs="+")
    f.add_argument("--k", type=int, default=1)

    a = sub.add_parser("apm")
    a.add_argument("corpus_dir")
    a.add_argument("k", type=int)
    a.add_argument("patterns", nargs="+")
    a.add_argument(
        "--concat",
        action="store_true",
        help="reference corpus model: one concatenated buffer, windows "
        "straddle file boundaries (exact apm1/flexible_mpi parity)",
    )

    ph = sub.add_parser("phrase")
    ph.add_argument("index_dir")
    ph.add_argument("corpus_dir")
    ph.add_argument("phrases", nargs="+")
    ph.add_argument("--scan", action="store_true", help="skip the index, full scan")

    bq = sub.add_parser("bool")
    bq.add_argument("index_dir")
    bq.add_argument("queries", nargs="+")

    hy = sub.add_parser("hybrid", help="RRF sparse+dense retrieval (BM25 + hashed-vector cosine)")
    hy.add_argument("index_dir")
    hy.add_argument("corpus_dir")
    hy.add_argument("queries", nargs="+")
    hy.add_argument("--topk", type=int, default=10)

    ex2 = sub.add_parser("explain", help="per-term BM25 score breakdown for one (query, doc)")
    ex2.add_argument("index_dir")
    ex2.add_argument("query")
    ex2.add_argument("doc_id", type=int)

    pr = sub.add_parser("prefix", help="wildcard prefix* term stats or ranked retrieval")
    pr.add_argument("index_dir")
    pr.add_argument("prefixes", nargs="+")
    pr.add_argument("--topk", type=int, default=0, help="if > 0, rank docs over the expansion")

    wc = sub.add_parser(
        "wildcard",
        help="general */? wildcard term stats or ranked retrieval "
        "(mid-pattern wildcards; ? = one char, * = any run)",
    )
    wc.add_argument("index_dir")
    wc.add_argument("patterns", nargs="+")
    wc.add_argument("--topk", type=int, default=0, help="if > 0, rank docs over the expansion")

    mg = sub.add_parser("merge")
    mg.add_argument("out_dir")
    mg.add_argument("sources", nargs="+")
    mg.add_argument(
        "--validate-disjoint",
        action="store_true",
        help="exact distributed doc-id disjointness check before merging "
        "(for sources from untrusted id namespaces)",
    )

    cp = sub.add_parser(
        "compact",
        help="rewrite an index without its tombstoned docs (segment-level, "
        "no re-tokenization; stats recomputed)",
    )
    cp.add_argument("index_dir")
    cp.add_argument("out_dir")

    rs = sub.add_parser(
        "reshard",
        help="split/shrink a built index to k*P or P/k partitions "
        "(segment-level, no re-tokenization; results bit-identical)",
    )
    rs.add_argument("index_dir")
    rs.add_argument("out_dir")
    rs.add_argument("num_partitions", type=int)

    fk = sub.add_parser(
        "fsck",
        help="distributed index integrity verification (manifests, "
        "checksums, dictionary/stats consistency; --deep decodes segments)",
    )
    fk.add_argument("index_dir")
    fk.add_argument("--deep", action="store_true")

    dsr = sub.add_parser(
        "dsir",
        help="DSIR importance weights: score a corpus against a target "
        "corpus (hashed-n-gram data selection)",
    )
    dsr.add_argument("corpus_dir")
    dsr.add_argument("target_dir")
    dsr.add_argument("--buckets", type=int, default=4096)
    dsr.add_argument(
        "--fraction", type=float, default=0.0,
        help="keep only the top fraction by weight (0 = all rows)",
    )
    dsr.add_argument(
        "--out", default="",
        help="write the weight table to this parquet dir instead of stdout",
    )

    dl = sub.add_parser(
        "delete", help="tombstone doc ids (no rebuild; stats stay build-time)"
    )
    dl.add_argument("index_dir")
    dl.add_argument("doc_ids", nargs="+", type=int)

    info = sub.add_parser("info", help="index metadata: stats, config, tombstones")
    info.add_argument("index_dir")

    ex = sub.add_parser(
        "extend",
        help="add new corpus shards to an existing index (delta build + "
        "segment merge; never re-tokenizes the existing corpus)",
    )
    ex.add_argument("index_dir")
    ex.add_argument("new_corpus_dir")
    ex.add_argument("out_dir")

    up = sub.add_parser(
        "upsert",
        help="replace-or-add a changeset of docs (tombstone + compact + "
        "extend; score-identical to a fresh build over the merged corpus)",
    )
    up.add_argument("index_dir")
    up.add_argument("changeset_corpus_dir")
    up.add_argument("out_dir")

    cl = sub.add_parser(
        "clusters",
        help="near-duplicate clusters: (doc_id, cluster_id = component-min "
        "doc) over the verified anchor-edge graph",
    )
    cl.add_argument("corpus_dir")
    cl.add_argument("--threshold", type=float, default=0.8)
    cl.add_argument(
        "--bucket", choices=["lsh", "shingle"], default="lsh",
        help="candidate buckets: lsh (scale default) or shingle (recall-exact)",
    )

    mt = sub.add_parser(
        "materialize",
        help="resumable per-shard corpus copy (optionally curated): killed "
        "runs skip completed shards via lineage manifests",
    )
    mt.add_argument("corpus_dir")
    mt.add_argument("out_dir")
    mt.add_argument(
        "--curate",
        action="store_true",
        help="apply the curate_corpus filter formulas per shard before writing",
    )

    args = p.parse_args(argv)
    _ensure_ray()

    if args.cmd == "build":
        from distributed_text_search_ray.config import AnalyzerConfig, IndexConfig
        from distributed_text_search_ray.pipelines.build import build_index

        report = build_index(
            args.corpus_dir,
            args.index_dir,
            IndexConfig(
                num_partitions=args.partitions,
                analyzer=AnalyzerConfig(split_identifiers=args.split_identifiers),
            ),
        )
        print(json.dumps(report, default=str))
    elif args.cmd == "search":
        from distributed_text_search_ray.pipelines.search import (
            search_topk,
            search_topk_boolean_filtered,
        )

        if args.msm > 1 and args.filter:
            p.error("--msm supports the plain taat path only")
        if args.msm > 1:
            from distributed_text_search_ray.pipelines.search import search_topk_msm

            rows = search_topk_msm(
                args.index_dir,
                list(enumerate(args.queries)),
                min_should_match=args.msm,
                topk=args.topk,
            ).take_all()
        elif args.filter:
            rows = search_topk_boolean_filtered(
                args.index_dir,
                list(enumerate(args.queries)),
                args.filter,
                topk=args.topk,
            ).take_all()
        else:
            rows = search_topk(
                args.index_dir,
                list(enumerate(args.queries)),
                topk=args.topk,
            ).take_all()
        for r in rows:
            print(f"{r['query_id']}\t{r['rank']}\t{r['doc_id']}\t{r['score']:.6f}")
    elif args.cmd == "alias":
        from distributed_text_search_ray.state.alias import resolve_index, set_alias

        if args.index_dir:
            print(set_alias(args.name, args.index_dir))
        else:
            print(resolve_index(args.name))
    elif args.cmd == "fsearch":
        from distributed_text_search_ray.pipelines.search import search_topk_federated

        rows = search_topk_federated(
            args.index_dirs, list(enumerate(args.queries)), topk=args.topk
        ).take_all()
        for r in rows:
            print(f"{r['query_id']}\t{r['rank']}\t{r['doc_id']}\t{r['score']:.6f}")
    elif args.cmd == "rm3":
        from distributed_text_search_ray.pipelines.search import rm3_topk
        from distributed_text_search_ray.sources.corpus import read_corpus

        rows = rm3_topk(
            args.index_dir,
            list(enumerate(args.queries)),
            read_corpus(args.corpus_dir, columns=["doc_id", "content"]),
            fb_docs=args.fb_docs,
            fb_terms=args.fb_terms,
            lam=args.lam,
            topk=args.topk,
        ).take_all()
        for r in rows:
            print(f"{r['query_id']}\t{r['rank']}\t{r['doc_id']}\t{r['score']:.6f}")
    elif args.cmd == "fuzzy":
        from distributed_text_search_ray.pipelines.search import fuzzy_term_search

        rows = fuzzy_term_search(
            args.index_dir, [(i, pat, args.k) for i, pat in enumerate(args.patterns)]
        ).take_all()
        for r in rows:
            print(
                f"{r['query_id']}\t{r['n_matching_terms']}\t{r['n_docs']}\t{r['n_occurrences']}"
            )
    elif args.cmd == "hybrid":
        from distributed_text_search_ray.pipelines.search import hybrid_search_topk
        from distributed_text_search_ray.sources.corpus import read_corpus

        docs = read_corpus(args.corpus_dir, columns=["doc_id", "content"])
        rows = hybrid_search_topk(
            args.index_dir, docs, list(enumerate(args.queries)), k=args.topk
        ).take_all()
        for r in rows:
            print(f"{r['query_id']}\t{r['rank']}\t{r['doc_id']}\t{r['rrf']:.6f}")
    elif args.cmd == "explain":
        from distributed_text_search_ray.pipelines.search import explain_score

        print(json.dumps(explain_score(args.index_dir, args.query, args.doc_id)))
    elif args.cmd == "prefix":
        from distributed_text_search_ray.pipelines.search import (
            prefix_search_topk,
            prefix_term_search,
        )

        pats = list(enumerate(args.prefixes))
        if args.topk > 0:
            for r in prefix_search_topk(args.index_dir, pats, topk=args.topk).take_all():
                print(f"{r['query_id']}\t{r['rank']}\t{r['doc_id']}\t{r['score']:.6f}")
        else:
            for r in prefix_term_search(args.index_dir, pats).take_all():
                print(
                    f"{r['query_id']}\t{r['n_matching_terms']}\t{r['n_docs']}\t{r['n_occurrences']}"
                )
    elif args.cmd == "wildcard":
        from distributed_text_search_ray.pipelines.search import (
            wildcard_term_search,
            wildcard_topk_search,
        )

        pats = list(enumerate(args.patterns))
        if args.topk > 0:
            for r in wildcard_topk_search(args.index_dir, pats, topk=args.topk).take_all():
                print(f"{r['query_id']}\t{r['rank']}\t{r['doc_id']}\t{r['score']:.6f}")
        else:
            for r in wildcard_term_search(args.index_dir, pats).take_all():
                print(
                    f"{r['query_id']}\t{r['n_matching_terms']}\t{r['n_docs']}\t{r['n_occurrences']}"
                )
    elif args.cmd == "apm":
        from distributed_text_search_ray.pipelines.apm import windowed_match_counts

        counts = {
            r["query_id"]: r["n_matches"]
            for r in windowed_match_counts(
                args.corpus_dir,
                [(i, pat, args.k) for i, pat in enumerate(args.patterns)],
                concat=args.concat,
            ).take_all()
        }
        # reference output shape: one count per pattern in argv order
        # (src/apm1.c:294-299)
        for i, pat in enumerate(args.patterns):
            print(f"Number of matches for pattern <{pat}>: {counts.get(i, 0)}")
    elif args.cmd == "phrase":
        from distributed_text_search_ray.pipelines.phrase import (
            phrase_match_counts,
            phrase_search_indexed,
        )
        from distributed_text_search_ray.sources.corpus import read_corpus

        docs = read_corpus(args.corpus_dir, columns=["doc_id", "content"])
        phrases = list(enumerate(args.phrases))
        ds = (
            phrase_match_counts(docs, phrases)
            if args.scan
            else phrase_search_indexed(args.index_dir, docs, phrases)
        )
        for r in ds.take_all():
            print(f"{r['query_id']}\t{r['doc_id']}\t{r['n_occurrences']}")
    elif args.cmd == "bool":
        from distributed_text_search_ray.pipelines.boolquery import boolean_search

        for r in boolean_search(args.index_dir, list(enumerate(args.queries))).take_all():
            print(f"{r['query_id']}\t{r['doc_id']}")
    elif args.cmd == "merge":
        from distributed_text_search_ray.pipelines.merge import merge_indexes

        report = merge_indexes(
            args.sources, args.out_dir, validate_disjoint=args.validate_disjoint
        )
        print(json.dumps({k: report[k] for k in ("fingerprint", "N", "complete")}))
    elif args.cmd == "reshard":
        from distributed_text_search_ray.pipelines.merge import reshard_index

        report = reshard_index(args.index_dir, args.out_dir, args.num_partitions)
        print(
            json.dumps(
                {
                    k: report[k]
                    for k in ("fingerprint", "mode", "num_partitions", "complete")
                }
            )
        )
    elif args.cmd == "fsck":
        from distributed_text_search_ray.pipelines.merge import verify_index

        report = verify_index(args.index_dir, deep=args.deep)
        print(json.dumps(report))
        return 0 if report["ok"] else 1
    elif args.cmd == "compact":
        from distributed_text_search_ray.pipelines.merge import compact_index

        report = compact_index(args.index_dir, args.out_dir)
        print(
            json.dumps(
                {
                    k: report[k]
                    for k in ("fingerprint", "N", "complete")
                    if k in report
                }
            )
        )
    elif args.cmd == "dsir":
        from distributed_text_search_ray.pipelines.dsir import (
            dsir_importance_weights,
            dsir_select,
        )
        from distributed_text_search_ray.sources.corpus import read_corpus

        w = dsir_importance_weights(
            read_corpus(args.corpus_dir, columns=["doc_id", "content"]),
            read_corpus(args.target_dir, columns=["doc_id", "content"]),
            buckets=args.buckets,
        )
        sel = dsir_select(w, args.fraction) if args.fraction > 0 else w
        if args.out:
            sel.write_parquet(args.out)
            print(json.dumps({"out": args.out}))
        else:
            for r in sel.take_all():
                print(f"{r['doc_id']}\t{r['n_tokens']}\t{r['weight']:.6f}")
    elif args.cmd == "delete":
        from distributed_text_search_ray.pipelines.build import delete_docs

        print(json.dumps(delete_docs(args.index_dir, args.doc_ids)))
    elif args.cmd == "info":
        from distributed_text_search_ray.stages.executor import IndexView

        v = IndexView(args.index_dir)
        print(
            json.dumps(
                {
                    "N": v.N,
                    "avgdl": v.avgdl,
                    "num_partitions": v.cfg.num_partitions,
                    "store_positions": v.cfg.store_positions,
                    "analyzer_fingerprint": v.cfg.analyzer.fingerprint(),
                    "stem": v.cfg.analyzer.stem,
                    "n_stopwords": len(v.cfg.analyzer.stopwords),
                    "hot_terms": sorted(v.hot_df),
                    "n_deleted": int(len(v.deleted)),
                    "fingerprint": v.meta.get("fingerprint"),
                    "complete": v.meta.get("complete"),
                }
            )
        )
    elif args.cmd == "extend":
        from distributed_text_search_ray.pipelines.merge import extend_index

        report = extend_index(args.index_dir, args.new_corpus_dir, args.out_dir)
        print(json.dumps({k: report[k] for k in ("fingerprint", "N", "complete")}))
    elif args.cmd == "upsert":
        from distributed_text_search_ray.pipelines.merge import upsert_docs

        report = upsert_docs(args.index_dir, args.changeset_corpus_dir, args.out_dir)
        print(
            json.dumps(
                {k: report[k] for k in ("fingerprint", "N", "complete", "n_upserted")}
            )
        )
    elif args.cmd == "clusters":
        from distributed_text_search_ray.pipelines.dedup import near_dup_clusters
        from distributed_text_search_ray.sources.corpus import read_corpus

        rows = near_dup_clusters(
            read_corpus(args.corpus_dir),
            threshold=args.threshold,
            bucket=args.bucket,
        ).take_all()
        rows.sort(key=lambda r: (r["cluster_id"], r["doc_id"]))
        for r in rows:
            print(f"{r['doc_id']}\t{r['cluster_id']}")
    elif args.cmd == "materialize":
        from distributed_text_search_ray.sources.sink import write_corpus_resumable

        if args.curate:
            # shard-local curation: the fused quality filter runs per shard;
            # cross-shard exact dedup is a separate global pass
            # (pipelines.curate.curate_corpus) by design — the sink's unit of
            # resume is the input shard
            from distributed_text_search_ray.pipelines.curate import (
                make_curation_filter,
            )
            from distributed_text_search_ray.sources.corpus import _add_doc_ids

            filt = make_curation_filter()

            def transform(t):
                return filt(_add_doc_ids(t))

            tag = "curate-v1"
        else:
            transform, tag = None, "identity"
        report = write_corpus_resumable(
            args.corpus_dir, args.out_dir, transform, transform_tag=tag
        )
        print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
