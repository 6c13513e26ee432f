"""The workloads. Each one generates its inputs from the seed, sets
up (index build + warm-up call, timed), answers closed-loop requests through
the engine's public API, and checks every recorded output afterwards.

Layer spans (``bench.request`` roots, ``pipelines.*`` around each public
call) are recorded only when the run has a tracer; ``replay`` re-runs a
request in-process through the stage, state and function layers.
"""

from __future__ import annotations

import contextlib
import gc
import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq

import check
import gen
import layers
from stats import median

NUM_PARTITIONS = 8
TOPK = 10


def write_corpus(path: str, ids, texts) -> str:
    os.makedirs(path, exist_ok=True)
    ids = [int(i) for i in ids]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "repo": ["bench"] * len(ids),
                "path": [f"doc{i}.py" for i in ids],
                "commit": ["0"] * len(ids),
                "lang": ["python"] * len(ids),
                "content": texts,
            }
        ),
        os.path.join(path, "part-0.parquet"),
    )
    return path


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs
    )


class Workload:
    """Shared set-up and bookkeeping; subclasses define the requests."""

    n_docs = 4_000

    def __init__(self, seed: int, work: str, tracer=None):
        self.work = work
        self.tracer = tracer
        self.corpus = gen.Corpus(seed, self.n_docs)
        self.corpus_dir = write_corpus(os.path.join(work, "corpus"), self.corpus.ids, self.corpus.texts)
        self.corpus_bytes = sum(len(t.encode()) for t in self.corpus.texts)
        self.changeset = gen.Changesets(self.corpus).next()  # for write_probe
        self.build_reports: list[dict] = []
        self.records: list[tuple] = []  # (request id, kind, input, output)
        # traced runs: in-process replay timings and counts
        self.query_times: list[float] = []
        self.replay_bytes = 0
        self.replay_postings = 0
        self.replay_queries = 0
        self.overheads: list[float] = []
        self.parts: dict[str, list[float]] = {}  # per-operation latencies
        self.index = None
        self.pending = None  # input of the current request (next_input)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def op(self, part: str, span: str):
        """Time one public call, and the garbage collection after it, into
        ``parts[part]``, under span ``span``. Ray Data releases a finished
        actor pool's CPUs only when the driver's cyclic GC frees the pool,
        so without an explicit collection the next stage's tasks wait a
        random 0-20 s for those CPUs; the collection is work the engine
        leaves to its caller, so it counts in the call's time."""
        t = time.perf_counter()
        with self.span(span):
            yield
        with self.span("ray.gc_collect"):
            gc.collect()
        self.parts.setdefault(part, []).append(time.perf_counter() - t)

    def setup(self, i: int) -> None:
        """One set-up: build a fresh index and make one warm-up call on it."""
        from distributed_text_search_ray import IndexConfig
        from distributed_text_search_ray.pipelines.build import build_index

        index = os.path.join(self.work, f"index{i}")
        report = build_index(self.corpus_dir, index, IndexConfig(num_partitions=NUM_PARTITIONS))
        if report.get("skipped"):
            raise RuntimeError(f"build into fresh dir {index} was skipped")
        self.build_reports.append(report)
        self.warm_up(index)
        if self.index is not None:
            shutil.rmtree(self.index)
        self.index = index
        self.index_bytes = dir_bytes(index)

    def prewarm(self) -> None:
        """Untimed: build a small index, so that every timed set-up starts
        with Ray's worker processes already running."""
        from distributed_text_search_ray import IndexConfig
        from distributed_text_search_ray.pipelines.build import build_index

        n = 300
        small = write_corpus(os.path.join(self.work, "prewarm_corpus"), self.corpus.ids[:n], self.corpus.texts[:n])
        build_index(small, os.path.join(self.work, "prewarm_index"), IndexConfig(num_partitions=NUM_PARTITIONS))

    def ready(self) -> None:
        """Untimed preparation after the set-ups, before the first request."""

    def next_input(self):
        """Input of the next request, made before its timer starts."""
        return None

    def warm_up(self, index: str) -> None:
        from distributed_text_search_ray.pipelines.search import search_topk

        search_topk(index, list(enumerate(self.corpus.queries(8))), topk=TOPK).take_all()

    def search(self, queries: list[tuple[int, str]]) -> list[dict]:
        from distributed_text_search_ray.pipelines.search import search_topk

        with self.op("search", "pipelines.search.search_topk"):
            return search_topk(self.index, queries, topk=TOPK).take_all()

    def setup_metrics(self) -> dict[str, float]:
        phases = {
            p: median([r["phases"][p]["sec"] for r in self.build_reports])
            for p in ("tokenize", "segments", "dictionary")
        }
        return {
            "index_bytes_per_doc_byte": self.index_bytes / self.corpus_bytes,
            "pipelines.build.tokenize_s": phases["tokenize"],
            "pipelines.build.segments_s": phases["segments"],
            "pipelines.build.dictionary_s": phases["dictionary"],
        }

    def write_probe(self, outcomes) -> dict[str, float]:
        """Traced runs: one upsert of a 200-doc changeset (100 replacements,
        100 inserts) into a new generation of the served index, timed with
        its collection, then a delete of 50 ids. Checked as one request: the
        generation's live count, and a term planted only in the upserted
        docs must find exactly them."""
        from distributed_text_search_ray.pipelines.build import delete_docs
        from distributed_text_search_ray.pipelines.merge import upsert_docs
        from distributed_text_search_ray.pipelines.search import search_topk
        from distributed_text_search_ray.stages.executor import IndexView

        ch = self.changeset
        rid = outcomes.start()
        src = write_corpus(os.path.join(self.work, "changes"), ch["doc_ids"], ch["texts"])
        out = os.path.join(self.work, "written")
        t = time.perf_counter()
        upsert_docs(self.index, src, out)
        gc.collect()
        upsert_s = time.perf_counter() - t
        delete_docs(out, ch["deleted"])
        view = IndexView(out)
        if view.N - len(view.deleted) != ch["n_live"]:
            outcomes.fail(rid, f"{view.N - len(view.deleted)} live docs after the write, expected {ch['n_live']}")
        rows = search_topk(out, [(0, ch["planted"])], topk=2 * len(ch["doc_ids"])).take_all()
        gc.collect()
        if sorted(r["doc_id"] for r in rows) != ch["doc_ids"]:
            outcomes.fail(rid, f"planted-term read returned {len(rows)} ids, expected the {len(ch['doc_ids'])} upserted")
        return {"pipelines.merge.upsert_s": upsert_s}

    # --- checks ---
    def check_searches(self, con, outcomes) -> None:
        """DuckDB BM25 top-k for every recorded search call (also loads the
        postings other checks reuse)."""
        check.load_postings(con, self.corpus.ids, self.corpus.texts)
        searches = [r for r in self.records if r[1] == "search"]
        if not searches:
            return
        texts = sorted({q for r in searches for _, q in r[2]})
        bm25 = check.Bm25Oracle(con)
        oracle = {q: bm25.candidates(terms, TOPK) for q, terms in zip(texts, bm25.analyze(texts))}
        for rid, _, queries, rows in searches:
            by_q: dict[int, list] = {}
            for row in sorted(rows, key=lambda r: (r["query_id"], r["rank"])):
                by_q.setdefault(row["query_id"], []).append((row["doc_id"], row["score"]))
            for qid, q in queries:
                cand, n_match = oracle[q]
                bad = check.check_topk(by_q.get(qid, []), cand, n_match, TOPK)
                if bad:
                    outcomes.fail(rid, f"search {q!r}: {bad}")
                    break

    def replay_search(self, queries) -> None:
        """Replay the last search call in-process; its pipeline overhead is
        the call's wall time minus the replay's."""
        wall, per_query, nbytes, postings = layers.replay_search(self.index, queries, TOPK)
        self.query_times.extend(per_query)
        self.replay_bytes += nbytes
        self.replay_postings += postings
        self.replay_queries += len(queries)
        self.overheads.append(self.parts["search"][-1] - wall)

    def layer_counts(self, queries) -> dict[str, float]:
        """Per-query counts of the replayed searches, and the maxscore/taat
        decode ratio on one batch."""
        _, _, b_max, _ = layers.replay_search(self.index, queries, TOPK, mode="maxscore")
        _, _, b_taat, _ = layers.replay_search(self.index, queries, TOPK, mode="taat")
        return {
            "state.segment.bytes_decoded_per_query": self.replay_bytes / self.replay_queries,
            "stages.executor.postings_per_query": self.replay_postings / self.replay_queries,
            "stages.executor.decode_ratio": b_max / b_taat,
            "pipelines.search.overhead_s": median(self.overheads),
        }


class Serve(Workload):
    """Repeated inputs: every query and pattern recurs every other request.
    Per-call Ray overhead (two actor-pool starts) is most of a request."""

    n_queries = 256
    n_patterns = 64

    def __init__(self, seed, work, tracer=None):
        super().__init__(seed, work, tracer)
        c = self.corpus
        self.query_set = c.queries(2 * self.n_queries, hot_share=0.25)
        self.pattern_set = c.patterns(2 * self.n_patterns)

    def batch(self, i: int):
        """Request i's queries and (pattern, k) pairs."""
        nq, npat = self.n_queries, self.n_patterns
        queries = [(q, self.query_set[(nq * i + q) % len(self.query_set)]) for q in range(nq)]
        patterns = [(q, *self.pattern_set[(npat * i + q) % len(self.pattern_set)]) for q in range(npat)]
        return queries, patterns

    def request(self, rid: int, i: int) -> None:
        from distributed_text_search_ray.pipelines.search import fuzzy_term_search

        queries, patterns = self.batch(i)
        self.records.append((rid, "search", queries, self.search(queries)))
        with self.op("fuzzy", "pipelines.search.fuzzy_term_search"):
            rows = fuzzy_term_search(self.index, patterns).take_all()
        self.records.append((rid, "fuzzy", patterns, rows))

    def replay(self, i: int) -> None:
        from distributed_text_search_ray.pipelines.search import FuzzyCountExecutor

        queries, patterns = self.batch(i)
        self.replay_search(queries)
        FuzzyCountExecutor(self.index)(
            pa.table({"query_id": [q for q, _, _ in patterns], "pattern": [p for _, p, _ in patterns],
                      "k": [k for _, _, k in patterns]})
        )

    def check(self, con, outcomes) -> None:
        self.check_searches(con, outcomes)
        fuzzy = [r for r in self.records if r[1] == "fuzzy"]
        distinct = sorted({(p, k) for r in fuzzy for _, p, k in r[2]})
        stats = check.fuzzy_stats(con, [(i, p, k) for i, (p, k) in enumerate(distinct)])
        want = {pk: stats[i] for i, pk in enumerate(distinct)}
        for rid, _, inp, rows in fuzzy:
            got = {r["query_id"]: (r["n_matching_terms"], r["n_docs"], r["n_occurrences"]) for r in rows}
            for qid, p, k in inp:
                if got.get(qid) != want[(p, k)]:
                    outcomes.fail(rid, f"fuzzy {p!r} k={k}: {got.get(qid)} != oracle {want[(p, k)]}")
                    break

    def trace_inputs(self):
        return self.batch(0)[0], self.pattern_set[:4], self.corpus.texts[:200]


class Bulk(Workload):
    """Large query batches and an APM scan: scoring and kernels dominate."""

    n_docs = 10_000
    n_queries = 1024
    apm_docs = 2400
    apm_check_docs = 12

    def __init__(self, seed, work, tracer=None):
        super().__init__(seed, work, tracer)
        c = self.corpus
        self.apm_patterns = [(q, p, k) for q, (p, k) in enumerate(c.patterns(4, length=8))]
        self.apm_texts = c.texts[: self.apm_docs]

    def ready(self) -> None:
        import ray.data

        # the scanned slice is loaded once, so each request times the scan
        self.apm_ds = ray.data.from_arrow(pa.table({"content": self.apm_texts})).materialize()

    def next_input(self):
        return list(enumerate(self.corpus.queries(self.n_queries, hot_share=0.5)))

    def request(self, rid: int, i: int) -> None:
        from distributed_text_search_ray.pipelines.apm import windowed_match_counts

        queries = self.pending
        self.records.append((rid, "search", queries, self.search(queries)))
        with self.op("apm", "pipelines.apm.windowed_match_counts"):
            rows = windowed_match_counts(self.apm_ds, self.apm_patterns).take_all()
        self.records.append((rid, "apm", None, rows))

    def replay(self, i: int) -> None:
        from distributed_text_search_ray.pipelines.apm import ApmScan

        self.replay_search(self.pending)
        ApmScan(self.apm_patterns)(pa.table({"content": self.apm_texts}))

    def check(self, con, outcomes) -> None:
        import ray.data

        from distributed_text_search_ray.pipelines.apm import windowed_match_counts

        self.check_searches(con, outcomes)
        apm = [r for r in self.records if r[1] == "apm"]
        if not apm:
            return
        # the full-slice count must repeat exactly; the kernel is checked
        # against DuckDB on a sub-slice small enough to recompute there
        first = {r["query_id"]: r["n_matches"] for r in apm[0][3]}
        for rid, _, _, rows in apm:
            got = {r["query_id"]: r["n_matches"] for r in rows}
            if got != first or set(got) != {q for q, _, _ in self.apm_patterns}:
                outcomes.fail(rid, f"apm counts {got} differ from the first call's {first}")
        sub = self.corpus.texts[: self.apm_check_docs]
        sub_ds = ray.data.from_arrow(pa.table({"content": sub}))
        got = {r["query_id"]: r["n_matches"] for r in windowed_match_counts(sub_ds, self.apm_patterns).take_all()}
        want = check.apm_counts(con, sub, self.apm_patterns)
        if got != want:
            for rid, _, _, _ in apm:
                outcomes.fail(rid, f"apm sub-slice counts {got} != DuckDB {want}")

    def trace_inputs(self):
        return self.next_input(), [(p, k) for _, p, k in self.apm_patterns], self.apm_texts


WORKLOADS = {"serve": Serve, "bulk": Bulk}
