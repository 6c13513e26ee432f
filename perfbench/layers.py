"""Per-layer measurement for the traced run.

Spans are recorded from the benchmark's side only: ``install`` wraps the
engine's layer entry points *in the driver process* (worker processes import
the engine fresh and stay untouched), so a pipeline call shows as a
``pipelines.*`` span around ``ray.*`` execution spans, and the in-process
replay of a request shows its ``stages.*``, ``state.*`` and ``functions.*``
spans. ``microbench`` times single kernels on the workload's own data.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np
import pyarrow as pa

import gen
from stats import layer_of, median, self_times, tail


def install(tracer) -> list:
    """Wrap the layer entry points; returns the (owner, attr, original)
    list that ``uninstall`` restores."""
    import ray
    import ray.data

    from distributed_text_search_ray.functions import bm25
    from distributed_text_search_ray.functions.tokenize import Tokenizer
    from distributed_text_search_ray.pipelines import apm, search
    from distributed_text_search_ray.stages import executor
    from distributed_text_search_ray.state import segment

    targets = [
        (ray.data.Dataset, "take_all", "ray.execute"),
        (ray.data.Dataset, "take", "ray.execute"),
        (ray.data.Dataset, "materialize", "ray.execute"),
        (ray, "get", "ray.get"),
        (executor.QueryExecutor, "__init__", "stages.executor.init"),
        (executor.QueryExecutor, "__call__", "stages.executor.call"),
        (search.FuzzyCountExecutor, "__init__", "stages.fuzzy.init"),
        (search.FuzzyCountExecutor, "__call__", "stages.fuzzy.call"),
        (apm.ApmScan, "__call__", "stages.apm.call"),
        (executor.IndexView, "__init__", "state.view.open"),
        (executor.IndexView, "term_postings", "state.view.term_postings"),
        (search.DictionaryExpander, "__init__", "state.dictionary.open"),
        (segment.SegmentReader, "__init__", "state.segment.open"),
        (segment.SegmentReader, "postings", "state.segment.postings"),
        (segment, "varbyte_decode", "functions.codec.varbyte_decode"),
        (bm25, "idf", "functions.bm25.idf"),
        (bm25, "tf_part", "functions.bm25.tf_part"),
        (Tokenizer, "tokens", "functions.tokenize.tokens"),
        (search, "bounded_term_distances", "functions.lev.bounded_term_distances"),
        (apm, "windowed_match_counts_multi", "functions.lev.windowed_match_counts_multi"),
    ]
    saved = []
    for owner, attr, name in targets:
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap(fn, name))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, fn in reversed(saved):
        setattr(owner, attr, fn)


def request_layers(spans, request: int) -> dict[str, float]:
    """Attribute one request's wall time to layers.

    The request tree (root ``bench.request``) gives driver-side self time
    per layer. The in-process replay (root ``bench.replay``, same request
    id) re-runs the work the pipeline ran inside Ray workers, so its
    ``stages``/``state``/``functions`` self times are moved out of the
    ``ray`` layer's self time (floored at 0). ``residual`` is what no
    layer claims: the benchmark's own code between calls, plus any replay
    time the ``ray`` floor could not absorb."""
    st = self_times(spans)
    idx = [i for i, s in enumerate(spans) if s[4] == request]
    layers: dict[str, float] = {}
    wall = 0.0
    replay_wall = 0.0
    replayed: dict[str, float] = {}
    for i in idx:
        name, s, e, parent, _ = spans[i]
        root = i
        while spans[root][3] is not None:
            root = spans[root][3]
        layer = layer_of(name)
        if spans[root][0] == "bench.replay":
            if i == root:
                replay_wall += e - s
            elif layer != "bench":
                replayed[layer] = replayed.get(layer, 0.0) + st[i]
        else:
            if i == root:
                wall += e - s
            if layer != "bench":
                layers[layer] = layers.get(layer, 0.0) + st[i]
    if replay_wall:
        layers["ray"] = max(0.0, layers.get("ray", 0.0) - sum(replayed.values()))
        for layer, v in replayed.items():
            layers[layer] = layers.get(layer, 0.0) + v
    layers["residual"] = wall - sum(layers.values())
    return layers


def _rate(fn, work: float, reps: int = 5) -> float:
    """work / median seconds of ``fn()`` over ``reps`` calls."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return work / median(times)


def ray_floors() -> dict[str, float]:
    """Identity ``map_batches`` stage as a task and as an actor pool, each
    timed with the collection that releases it (as ``Workload.op`` times
    the engine's calls); median of 3. The input is in-memory, as the
    engine's query stages' is: with one CPU, a read task could not start
    beside the actor that holds it."""
    import ray.data

    class Identity:
        def __call__(self, batch):
            return batch

    def identity(batch):
        return batch

    out = {}
    for name, fn, kw in (
        ("ray.task_floor_s", identity, {}),
        ("ray.actor_floor_s", Identity, {"concurrency": 1}),
    ):
        times = []
        for _ in range(3):
            t = time.perf_counter()
            ray.data.from_items([{"x": i} for i in range(64)]).map_batches(fn, batch_size=8, **kw).take_all()
            gc.collect()
            times.append(time.perf_counter() - t)
        out[name] = median(times)
    return out


def microbench(index_dir: str, texts: list[str], patterns: list[tuple[str, int]], apm_texts: list[str]) -> dict[str, float]:
    """Single-kernel rates on the workload's index and data."""
    from distributed_text_search_ray.functions import bm25, codec, lev
    from distributed_text_search_ray.functions.tokenize import Tokenizer, batch_pairs_dict
    from distributed_text_search_ray.pipelines.search import DictionaryExpander
    from distributed_text_search_ray.stages.executor import IndexView, QueryExecutor
    from distributed_text_search_ray.state.segment import SegmentReader

    out = {}
    view = IndexView(index_dir)
    segs = sorted(os.listdir(os.path.join(index_dir, "segments")))
    opens = []
    for s in segs:
        t = time.perf_counter()
        SegmentReader(os.path.join(index_dir, "segments", s))
        opens.append(time.perf_counter() - t)
    out["state.segment.open_s"] = median(opens)
    inits = []
    for _ in range(5):
        t = time.perf_counter()
        QueryExecutor(index_dir, topk=10, mode="maxscore")
        inits.append(time.perf_counter() - t)
    out["stages.executor.init_s"] = median(inits)

    hot = [view.term_postings(t) for t in gen.HOT_TERMS]
    docs = np.concatenate([h[0] for h in hot])
    tfs = np.concatenate([h[1] for h in hot])
    dls = np.concatenate([h[2] for h in hot])
    stream = np.concatenate(
        [codec.varbyte_encode(codec.delta_encode(h[0]))[0] for h in hot]
        + [codec.varbyte_encode(h[1].astype(np.uint64))[0] for h in hot]
    )
    out["functions.codec.decode_mb_per_s"] = _rate(lambda: codec.varbyte_decode(stream), stream.nbytes / 1e6)
    out["functions.bm25.postings_per_s"] = _rate(
        lambda: bm25.score_postings(tfs, dls, view.N, len(docs) // len(hot), view.avgdl), len(docs)
    )

    terms = DictionaryExpander(index_dir).terms.to_pylist()
    out["functions.lev.terms_per_s"] = _rate(
        lambda: [lev.bounded_term_distances(p, terms, k) for p, k in patterns],
        len(terms) * len(patterns),
    )
    apm_pats = [(i, p, k) for i, (p, k) in enumerate(patterns)]
    positions = sum(len(t) for t in apm_texts)
    out["functions.lev.window_mpos_per_s"] = _rate(
        lambda: lev.windowed_match_counts_multi(apm_texts, apm_pats), positions * len(apm_pats) / 1e6, reps=3
    )
    tok = Tokenizer(view.cfg.analyzer)
    ids = np.arange(len(texts), dtype=np.int64)
    n_tokens = sum(len(tok.tokens(t)) for t in texts)
    out["functions.tokenize.tokens_per_s"] = _rate(lambda: batch_pairs_dict(tok, ids, texts), n_tokens)
    return out


def replay_search(index_dir: str, queries: list[tuple[int, str]], topk: int, mode: str = "maxscore"):
    """In-process replay of one search call, one query at a time.
    Returns (wall seconds, per-query seconds, bytes decoded, postings
    fetched from the index view)."""
    from distributed_text_search_ray.stages.executor import QueryExecutor

    t0 = time.perf_counter()
    ex = QueryExecutor(index_dir, topk=topk, mode=mode)
    term_postings = ex.view.term_postings
    postings = 0

    def counted(term):
        nonlocal postings
        out = term_postings(term)
        postings += len(out[0])
        return out

    ex.view.term_postings = counted
    per_query = []
    for qid, q in queries:
        t = time.perf_counter()
        ex(pa.table({"query_id": pa.array([qid], pa.int64()), "query": [q]}))
        per_query.append(time.perf_counter() - t)
    return time.perf_counter() - t0, per_query, ex.view.bytes_decoded(), postings


def summarize(spans, requests: list[int], latencies: list[float], query_times: list[float], extra: dict) -> dict[str, float]:
    """Per-layer metrics of a traced run: per-request means of each layer's
    self time, request and replayed-query latencies, and ``extra``."""
    per = [request_layers(spans, r) for r in requests]
    out = {}
    for layer in ("pipelines", "ray", "stages", "state", "functions", "residual"):
        key = "residual_s" if layer == "residual" else f"{layer}.self_s"
        out[f"layer.{key}"] = float(np.mean([p.get(layer, 0.0) for p in per]))
    out["trace.request_p50_s"] = median(latencies)
    out["stages.executor.query_p50_s"] = median(query_times)
    t = tail(query_times)
    out["stages.executor.query_tail_s"] = t[1] if t and t[0] >= 50 else max(query_times)
    out.update(extra)
    return out
