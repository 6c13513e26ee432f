"""Text analysis operators: token counts, quality scoring, language ID,
document fingerprints.

All are single-pass ``map_batches`` stages (no shuffle) with formulas chosen
to be exactly replicable in ANSI SQL, so the DuckDB oracle can verify them
value-for-value. Floats are rounded to 6 decimals at the producer.

Stages are PLAIN functions over a process-level tokenizer memo
(``tokenizer_for``): the analyzer regex compiles once per Ray worker, and the
stages ride the warm task pool — an autoscaling actor pool here paid ~2 s of
actor spin-up per call at interactive scales while starting at concurrency 1.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray.data

from distributed_text_search_ray.config import AnalyzerConfig
from distributed_text_search_ray.functions.hashing import rolling_fingerprint, simhash64
from distributed_text_search_ray.functions.tokenize import tokenizer_for
from distributed_text_search_ray.util import agg_rename, round_half_away

# fixed stopword lists (shared verbatim with the SQL oracles)
STOPWORDS = ["a", "and", "in", "is", "it", "of", "the", "to"]
LANG_STOPWORDS = {
    "en": ["the", "a", "of", "and", "to"],
    "es": ["el", "los", "las", "una", "y"],
    "de": ["der", "die", "das", "und", "nicht"],
    "fr": ["le", "les", "des", "une", "et"],
}
LANG_PRIORITY = ["en", "es", "de", "fr"]  # deterministic tie-break order
_STOPSET = frozenset(STOPWORDS)
_LANG_SETS = {lang: frozenset(ws) for lang, ws in LANG_STOPWORDS.items()}


def _flat_vocab_indices(
    toks_list: list[list[str]], vterms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-doc token lists and map every token to its index in the
    SORTED vocab array (-1 for OOV). Returns (vi, n_tok): ``vi`` is the
    flat int64 index stream, ``n_tok`` the per-doc token counts.

    One Arrow ``dictionary_encode`` (C) + one searchsorted over the batch's
    DISTINCT terms only. ``np.searchsorted`` over object-dtype string
    arrays compares in the interpreter — per-token that was ~10x the rest
    of the bigram pipeline at 1.15M docs (138M tokens); per-distinct-term
    it is ~vocab_size comparisons per batch."""
    from itertools import chain

    n_tok = np.fromiter(
        (len(x) for x in toks_list), dtype=np.int64, count=len(toks_list)
    )
    total = int(n_tok.sum())
    if total == 0 or len(vterms) == 0:
        return np.full(total, -1, dtype=np.int64), n_tok
    enc = pa.array(
        list(chain.from_iterable(toks_list)), type=pa.string()
    ).dictionary_encode()
    codes = enc.indices.to_numpy().astype(np.int64)
    dterms = np.asarray(enc.dictionary.to_pylist(), dtype=object)
    pos = np.searchsorted(vterms, dterms)
    pos_c = np.minimum(pos, len(vterms) - 1)
    dict_vi = np.where(vterms[pos_c] == dterms, pos_c, -1)
    return dict_vi[codes], n_tok


def _term_count_partial(batch: pa.Table, analyzer: AnalyzerConfig | None) -> pa.Table:
    """Per-batch partial term counts (term, c) — the combiner feeding every
    unigram-model ``groupby(term).sum``. One ``pyarrow.compute.value_counts``
    over the batch's flat token stream replaces the per-token Python dict
    loop (VERDICT r4 item 3: at 1.15M docs the loop was the whole wall)."""
    import pyarrow.compute as pc
    from itertools import chain

    tk = tokenizer_for(analyzer)
    flat = list(
        chain.from_iterable(tk.tokens(t) for t in batch.column("content").to_pylist())
    )
    if not flat:
        return pa.table(
            {"term": pa.array([], type=pa.string()), "c": pa.array([], type=pa.int64())}
        )
    vc = pc.value_counts(pa.array(flat, type=pa.string()))
    return pa.table({"term": vc.field("values"), "c": vc.field("counts")})


def distinct_term_estimate(
    docs: ray.data.Dataset,
    k: int = 256,
    analyzer: AnalyzerConfig | None = None,
) -> ray.data.Dataset:
    """KMV (k-minimum-values) distinct-term sketch: one row
    (k, kth_min_hash, estimate).

    The mergeable-sketch pattern at corpus scale: each batch keeps only its
    k smallest distinct term hashes (``md5_u64 % 2^53`` — exactly
    representable in a double, so the SQL oracle reproduces the estimate
    bit-for-bit); partial sketches union and re-truncate in a single tiny
    aggregate. Estimate = (k-1) * 2^53 / kth_min — standard KMV, relative
    error ~ 1/sqrt(k). Deterministic and order-independent (unlike a
    sampled count), so it is oracle-checkable — the property that separates
    a verifiable sketch from a heuristic."""
    from distributed_text_search_ray.functions.hashing import md5_u64

    M = 1 << 53

    def partial(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        seen: set[str] = set()
        for text in batch.column("content").to_pylist():
            seen.update(tk.tokens(text))
        hs = np.sort(
            np.unique(
                np.fromiter(
                    ((md5_u64(t) % M) for t in seen), dtype=np.int64, count=len(seen)
                )
            )
        )[:k]
        return pa.table({"h": pa.array(hs, type=pa.int64())})

    def merge(batch: pa.Table) -> pa.Table:
        hs = np.sort(np.unique(batch.column("h").to_numpy()))[:k]
        if not len(hs) or len(hs) < k:
            # fewer than k distinct terms: the sketch IS the exact count
            est = float(len(hs))
        else:
            est = (k - 1) * M / float(hs[k - 1])
        return pa.table(
            {
                "k": pa.array([k], type=pa.int64()),
                "kth_min_hash": pa.array(
                    [int(hs[k - 1]) if len(hs) >= k else -1], type=pa.int64()
                ),
                "estimate": pa.array([round_half_away(est, 4)], type=pa.float64()),
            }
        )

    # partials are tiny (k rows per batch) — the merge is one small task
    return docs.map_batches(partial, batch_format="pyarrow").repartition(1).map_batches(
        merge, batch_format="pyarrow", batch_size=None
    )


def deterministic_sample(
    docs: ray.data.Dataset, percent: int, salt: str = ""
) -> ray.data.Dataset:
    """Deterministic, resumable ``percent``-% sample of the corpus.

    Membership is a pure function of the row: ``md5(doc_id + salt) % 100 <
    percent`` (``md5_u64`` = DuckDB ``md5_number_lower``, so the oracle is
    exact). Unlike ``Dataset.random_sample`` this is stable across reruns,
    cluster sizes and block orders — the property a resumable 100 TB
    pipeline actually needs from a sampler (re-running a failed stage must
    not change which rows are in-sample). SURVEY.md section 2.6 "sampling".
    """
    from distributed_text_search_ray.functions.hashing import md5_u64

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        keep = pa.array([md5_u64(f"{d}{salt}") % 100 < percent for d in ids])
        return batch.filter(keep)

    return docs.map_batches(f, batch_format="pyarrow")


def stratified_sample(
    docs: ray.data.Dataset,
    group_col: str = "lang",
    *,
    rates: dict | None = None,
    salt: str = "strat",
    denom: int = 1_000_000,
) -> ray.data.Dataset:
    """Deterministic per-group (stratified) sampling — the language-balancing
    step of a training-data mix.

    Two passes, neither a shuffle: (1) per-group row counts via
    partial-aggregate ``map_batches`` (one (group, n) row per batch per
    group — the driver merge is O(groups), a small value vocabulary by
    contract); (2) a vectorized membership filter with the per-group keep
    rate closed over (broadcast-by-capture, tiny):
    ``md5(doc_id + ':' + salt) % denom < floor(rate_g * denom)``.

    Default rates equalize: every group is downsampled in expectation to the
    SMALLEST group's size (``rate_g = min_n / n_g``). Pass ``rates={value:
    fraction}`` for an explicit mix (groups missing from the dict keep
    everything). Membership is a pure function of the row — stable across
    reruns, cluster sizes and block orders, like ``deterministic_sample``
    (md5_u64 = DuckDB ``md5_number_lower``, so the oracle is exact).
    """
    from distributed_text_search_ray.functions.hashing import md5_u64

    if rates is None:
        def partial_counts(batch: pa.Table) -> pa.Table:
            t = batch.select([group_col]).group_by(group_col).aggregate([([], "count_all")])
            # columns selected BY NAME (util.agg_rename rationale)
            return pa.table({"g": t.column(group_col), "n_part": t.column("count_all")})

        merged: dict[str, int] = {}
        for row in docs.map_batches(partial_counts, batch_format="pyarrow").take_all():
            merged[row["g"]] = merged.get(row["g"], 0) + int(row["n_part"])
        if not merged:
            return docs
        mn = min(merged.values())
        rates = {g: mn / n for g, n in merged.items()}

    thr = {g: math.floor(float(r) * denom) for g, r in rates.items()}

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        gs = batch.column(group_col).to_pylist()
        mask = pa.array(
            [
                md5_u64(f"{d}:{salt}") % denom < thr.get(g, denom)
                for d, g in zip(ids, gs)
            ]
        )
        return batch.filter(mask)

    return docs.map_batches(keep, batch_format="pyarrow")


def bigram_counts(
    docs: ray.data.Dataset,
    top_n: int = 20,
    analyzer: AnalyzerConfig | None = None,
) -> ray.data.Dataset:
    """Top-N within-document token bigrams: (bigram, n), n desc / bigram asc.

    Partial-aggregate shape (SURVEY.md A1): each batch combines its own
    bigram counts BEFORE the shuffle, so the groupby moves one row per
    (batch, distinct bigram) — not one per occurrence."""

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        tk = tokenizer_for(analyzer)
        cnt: Counter = Counter()
        for text in batch.column("content").to_pylist():
            toks = tk.tokens(text)
            cnt.update(zip(toks, toks[1:]))
        return pa.table(
            {
                "bigram": pa.array([f"{a} {b}" for a, b in cnt], type=pa.string()),
                "n_part": pa.array(list(cnt.values()), type=pa.int64()),
            }
        )

    # distinct bigrams ~ vocab^2 (4M at the 1.15M-doc spot-check), so a
    # groupby(bigram) makes one-row groups and Ray's sort-based aggregate
    # pays per group (measured 458 s); instead: 64 coarse hash groups, an
    # Arrow C++ hash aggregate + LOCAL top-N inside each (each bigram lives
    # in exactly one group, so the global top-N is a subset of the 64
    # local top-Ns), then a tiny final sort over 64*N rows
    from distributed_text_search_ray.functions.hashing import md5_u64

    def add_coarse(batch: pa.Table) -> pa.Table:
        cg = [md5_u64(b) % 64 for b in batch.column("bigram").to_pylist()]
        return batch.append_column("cg", pa.array(cg, type=pa.int64()))

    def reduce_topn(g: pa.Table) -> pa.Table:
        agg = agg_rename(
            g.select(["bigram", "n_part"])
            .group_by("bigram")
            .aggregate([("n_part", "sum")]),
            ["bigram"],
            [("n_part", "sum")],
            ["n"],
        )
        n = agg.column("n").to_numpy()
        if len(n) > top_n:
            import pyarrow.compute as pc

            idx = pc.select_k_unstable(
                agg, k=top_n, sort_keys=[("n", "descending"), ("bigram", "ascending")]
            )
            agg = agg.take(idx)
        return agg

    return (
        docs.map_batches(partial, batch_format="pyarrow")
        .map_batches(add_coarse, batch_format="pyarrow")
        .groupby("cg")
        .map_groups(reduce_topn, batch_format="pyarrow")
        .sort(["n", "bigram"], descending=[True, False])
        .limit(top_n)
    )


def top_docs_per_key(
    docs_with_key: ray.data.Dataset,
    key_column: str = "lang",
    k: int = 3,
    analyzer: AnalyzerConfig | None = None,
) -> ray.data.Dataset:
    """Grouped top-k: per key value, the k docs with the most tokens
    (ties: doc_id asc). (key, rank, doc_id, n_tokens).

    Token counts are a single-pass map; the per-key ranking is a
    ``groupby(key).map_groups`` — per-group state never leaves one group,
    the scale-safe shape for windowed ranking (same pattern as
    sessionize)."""

    def count_tokens(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        n = [len(tk.tokens(t)) for t in batch.column("content").to_pylist()]
        return pa.table(
            {
                key_column: batch.column(key_column),
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(n, type=pa.int64()),
            }
        )

    def rank_group(group: pa.Table) -> pa.Table:
        n = group.column("n_tokens").to_numpy()
        ids = group.column("doc_id").to_numpy()
        order = np.lexsort((ids, -n))[:k]
        return pa.table(
            {
                key_column: group.column(key_column).take(pa.array(order)),
                "rank": pa.array(np.arange(1, len(order) + 1), type=pa.int64()),
                "doc_id": pa.array(ids[order], type=pa.int64()),
                "n_tokens": pa.array(n[order], type=pa.int64()),
            }
        )

    return (
        docs_with_key.map_batches(count_tokens, batch_format="pyarrow")
        .groupby(key_column)
        .map_groups(rank_group, batch_format="pyarrow")
    )


_regex_cache: dict = {}


def _compiled(pattern: str):
    import re

    rx = _regex_cache.get(pattern)
    if rx is None:
        rx = _regex_cache[pattern] = re.compile(pattern)
    return rx


def regex_match_counts(
    docs: ray.data.Dataset, patterns: list[tuple[int, str]]
) -> ray.data.Dataset:
    """(query_id, doc_id, n_matches) for docs with >= 1 regex match.

    Leftmost non-overlapping match counting over the RAW text — the same
    semantics as DuckDB ``regexp_extract_all`` (RE2), so patterns restricted
    to the common ``re``/RE2 syntax subset are SQL-oracle-checkable. The
    scan is a single-pass ``map_batches`` (regex work is inherently
    per-string; patterns compile once per worker via a process cache, the
    VERDICT setup-in-``__call__`` rule)."""

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("content").to_pylist()
        out_q, out_d, out_n = [], [], []
        for qid, pat in patterns:
            rx = _compiled(pat)
            for d, t in zip(ids, texts):
                n = sum(1 for _ in rx.finditer(t))
                if n:
                    out_q.append(int(qid))
                    out_d.append(d)
                    out_n.append(n)
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "doc_id": pa.array(out_d, type=pa.int64()),
                "n_matches": pa.array(out_n, type=pa.int64()),
            }
        )

    return docs.map_batches(f, batch_format="pyarrow")


def token_counts(
    docs: ray.data.Dataset, analyzer: AnalyzerConfig | None = None
) -> ray.data.Dataset:
    def f(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        counts = [tk.token_count(t) for t in batch.column("content").to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(counts, type=pa.int64()),
            }
        )

    return docs.map_batches(f, batch_format="pyarrow")


def quality_scores(
    docs: ray.data.Dataset, analyzer: AnalyzerConfig | None = None
) -> ray.data.Dataset:
    """Heuristic quality features + a fixed scalar score.

    score = stopword_ratio * 0.5 + least(n_tokens, 200) / 400.0
    (rounded to 6 dp; SQL-identical formula in the oracle).
    """

    def f(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        out = {"doc_id": [], "n_chars": [], "n_tokens": [], "stopword_ratio": [], "quality": []}
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("content").to_pylist()
        ):
            toks = tk.tokens(text)
            n = len(toks)
            sw = sum(1 for t in toks if t in _STOPSET) / n if n else 0.0
            score = sw * 0.5 + min(n, 200) / 400.0
            out["doc_id"].append(doc_id)
            out["n_chars"].append(len(text))
            out["n_tokens"].append(n)
            out["stopword_ratio"].append(round_half_away(sw, 6))
            out["quality"].append(round_half_away(score, 6))
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], type=pa.int64()),
                "n_chars": pa.array(out["n_chars"], type=pa.int64()),
                "n_tokens": pa.array(out["n_tokens"], type=pa.int64()),
                "stopword_ratio": pa.array(out["stopword_ratio"], type=pa.float64()),
                "quality": pa.array(out["quality"], type=pa.float64()),
            }
        )

    return docs.map_batches(f, batch_format="pyarrow")


def language_id(
    docs: ray.data.Dataset, analyzer: AnalyzerConfig | None = None
) -> ray.data.Dataset:
    """Stopword-list language ID: argmax of per-language stopword hits with a
    fixed priority tie-break; 'und' when no list scores > 0."""

    def f(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        preds = []
        for text in batch.column("content").to_pylist():
            toks = tk.tokens(text)
            best_lang, best = "und", 0
            for lang in LANG_PRIORITY:
                s = sum(1 for t in toks if t in _LANG_SETS[lang])
                if s > best:
                    best, best_lang = s, lang
            preds.append(best_lang)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "pred_lang": pa.array(preds, type=pa.string()),
            }
        )

    return docs.map_batches(f, batch_format="pyarrow")


def fingerprints(
    docs: ray.data.Dataset, analyzer: AnalyzerConfig | None = None
) -> ray.data.Dataset:
    """(doc_id, rolling_fp, simhash) deterministic document fingerprints."""

    def f(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        roll, sim = [], []
        for text in batch.column("content").to_pylist():
            roll.append(rolling_fingerprint(text))
            sim.append(int(np.uint64(simhash64(tk.tokens(text))).astype(np.int64)))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "rolling_fp": pa.array(roll, type=pa.int64()),
                "simhash": pa.array(sim, type=pa.int64()),
            }
        )

    return docs.map_batches(f, batch_format="pyarrow")


def repetition_scores(
    docs: ray.data.Dataset, analyzer: AnalyzerConfig | None = None
) -> ray.data.Dataset:
    """Gopher-style n-gram repetition quality signals, per document:

    - ``dup_trigram_frac``: fraction of token-trigram occurrences that are
      repeats of an earlier trigram in the same doc
      (= 1 - distinct_trigrams / total_trigrams; 0 when < 3 tokens).
    - ``top_bigram_frac``: share of token-bigram occurrences claimed by the
      single most frequent bigram (0 when < 2 tokens).

    Boilerplate / template / spam text scores high on both; the classic
    pre-training filter drops docs above a threshold. Single-pass
    ``map_batches`` (no shuffle); per-doc Counter work is inherently
    per-string, same as tokenization. Floats rounded to 6 dp with SQL
    ``round`` semantics so the DuckDB oracle matches value-for-value.
    """

    def f(batch: pa.Table) -> pa.Table:
        from collections import Counter

        tk = tokenizer_for(analyzer)
        n_toks, dup3, top2 = [], [], []
        for text in batch.column("content").to_pylist():
            toks = tk.tokens(text)
            n = len(toks)
            n_toks.append(n)
            if n >= 3:
                tgs = list(zip(toks, toks[1:], toks[2:]))
                dup3.append(round_half_away(1.0 - len(set(tgs)) / len(tgs), 6))
            else:
                dup3.append(0.0)
            if n >= 2:
                bgs = Counter(zip(toks, toks[1:]))
                top2.append(round_half_away(max(bgs.values()) / (n - 1), 6))
            else:
                top2.append(0.0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(n_toks, type=pa.int64()),
                "dup_trigram_frac": pa.array(dup3, type=pa.float64()),
                "top_bigram_frac": pa.array(top2, type=pa.float64()),
            }
        )

    return docs.map_batches(f, batch_format="pyarrow")


# default redaction rules: (pattern, replacement), applied in order. The
# regexes stay inside the common re/RE2 syntax subset so the same pattern
# string drives both the engine and the DuckDB regexp_replace oracle.
REDACT_RULES: list[tuple[str, str]] = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"[0-9]+(\.[0-9]+)?", "<NUM>"),
]


def redact_text(
    ds: ray.data.Dataset,
    id_column: str = "doc_id",
    text_column: str = "content",
    rules: list[tuple[str, str]] | None = None,
) -> ray.data.Dataset:
    """PII-style scrubbing: replace every match of each rule pattern with its
    placeholder; emit (id, redacted, n_redactions).

    Rules apply in declaration order (so the EMAIL rule claims its digits
    before the NUM rule sees them — order is part of the contract and the
    oracle nests ``regexp_replace`` in the same order). Single-pass
    ``map_batches``; patterns compile once per worker via the process cache.
    """
    rules = REDACT_RULES if rules is None else rules

    def f(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_column).to_pylist()
        counts = np.zeros(len(texts), dtype=np.int64)
        for pat, repl in rules:
            rx = _compiled(pat)
            for i, t in enumerate(texts):
                texts[i], n = rx.subn(repl, t)
                counts[i] += n
        return pa.table(
            {
                id_column: batch.column(id_column),
                "redacted": pa.array(texts, type=pa.string()),
                "n_redactions": pa.array(counts, type=pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def token_length_quantiles(
    docs: ray.data.Dataset,
    qs: tuple[float, ...] = (0.25, 0.5, 0.75, 0.95),
    analyzer: AnalyzerConfig | None = None,
) -> ray.data.Dataset:
    """EXACT token-count quantiles (DuckDB ``quantile_disc`` semantics:
    value at index ceil(q*N)-1 of the sorted lengths).

    Scale shape: order statistics over 10^12 docs need either a global sort
    or this — a distributed HISTOGRAM: each batch emits its bincount of
    n_tokens, a tiny groupby sums them, and quantiles read off the
    cumulative histogram. The histogram is bounded by the max document
    length (not the corpus size), so the final step is driver-safe at any
    corpus scale.
    """
    import math

    from ray.data.aggregate import Sum

    counts = token_counts(docs, analyzer)

    def hist(batch: pa.Table) -> pa.Table:
        c = batch.column("n_tokens").to_numpy()
        h = np.bincount(c)
        nz = np.flatnonzero(h)
        return pa.table(
            {
                "n_tokens": pa.array(nz, type=pa.int64()),
                "cnt": pa.array(h[nz], type=pa.int64()),
            }
        )

    rows = (
        counts.map_batches(hist, batch_format="pyarrow")
        .groupby("n_tokens")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .take_all()
    )
    rows.sort(key=lambda r: r["n_tokens"])
    lengths = np.array([r["n_tokens"] for r in rows], dtype=np.int64)
    cum = np.cumsum([r["cnt"] for r in rows])
    n_total = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    for q in qs:
        if n_total == 0:
            continue
        rank = min(max(1, math.ceil(q * n_total)), n_total)
        idx = int(np.searchsorted(cum, rank, side="left"))
        out_q.append(float(q))
        out_v.append(int(lengths[idx]))
    return ray.data.from_arrow(
        pa.table(
            {
                "q": pa.array(out_q, type=pa.float64()),
                "n_tokens": pa.array(out_v, type=pa.int64()),
            }
        )
    )


def lang_stats(docs_with_lang: ray.data.Dataset, analyzer: AnalyzerConfig | None = None) -> ray.data.Dataset:
    """Per-language corpus statistics: (lang, n_docs, total_tokens,
    avg_tokens 4dp) — the partial+final aggregate over a string key
    (per-batch token counts, one tiny groupby of partials)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        langs = batch.column("lang").to_pylist()
        n_tok = np.fromiter(
            (tk.token_count(t) for t in batch.column("content").to_pylist()),
            dtype=np.int64,
            count=batch.num_rows,
        )
        uniq = sorted(set(langs))
        idx = {l: i for i, l in enumerate(uniq)}
        li = np.fromiter((idx[l] for l in langs), dtype=np.int64, count=len(langs))
        return pa.table(
            {
                "lang": pa.array(uniq, type=pa.string()),
                "n_part": pa.array(np.bincount(li, minlength=len(uniq)), type=pa.int64()),
                "tok_part": pa.array(
                    np.bincount(li, weights=n_tok, minlength=len(uniq)).astype(np.int64),
                    type=pa.int64(),
                ),
            }
        )

    agg = (
        docs_with_lang.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n_part", alias_name="n_docs"), Sum("tok_part", alias_name="total_tokens"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("n_docs").to_numpy().astype(np.float64)
        t = batch.column("total_tokens").to_numpy().astype(np.float64)
        return pa.table(
            {
                "lang": batch.column("lang"),
                "n_docs": batch.column("n_docs"),
                "total_tokens": batch.column("total_tokens"),
                "avg_tokens": round_half_away(np.divide(t, np.maximum(n, 1.0)), 4),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def unigram_logperp(
    docs: ray.data.Dataset,
    vocab_size: int = 4096,
    analyzer: AnalyzerConfig | None = None,
) -> ray.data.Dataset:
    """Per-document unigram log-perplexity against the corpus's own
    unigram model — the CCNet-style LM quality filter with the corpus as
    its own reference model (no external LM in this container). Output:
    (doc_id, n_tokens, logperp) where logperp = round(avg over the doc's
    token stream of -ln p(token), 6); docs with zero tokens are omitted.

    Model: p(t) = cnt(t)/total for the ``vocab_size`` most frequent terms
    (ties: count desc, term asc — deterministic and SQL-replicable); every
    out-of-vocabulary token shares one aggregate probability
    p_oov = oov_occurrences/total (the truncated-vocabulary + OOV-mass
    convention that bounds the broadcast model at ``vocab_size`` rows no
    matter how large the corpus vocabulary grows — the reason this scales
    where a full-vocabulary broadcast would not).

    Two passes, both streaming: (1) per-batch partial term counts ->
    string-key ``groupby(term).sum`` (vocabulary-sized, the same shape as
    the build dictionary phase) -> top-V selected by a distributed
    ``sort.limit`` (only V rows and two scalars ever reach the driver);
    (2) the V-row model broadcast via ``ray.put``, per-doc cross-entropy
    vectorized in ``map_batches`` (token stream -> model lookup via a
    sorted term array + searchsorted, one np.take + mean per doc).
    """
    import ray as _ray
    from ray.data.aggregate import Sum

    vocab = (
        docs.map_batches(
            lambda b: _term_count_partial(b, analyzer), batch_format="pyarrow"
        )
        .groupby("term")
        .aggregate(Sum("c", alias_name="cnt"))
        # vocabulary-sized (the aggregate output, not the corpus) and
        # consumed twice below (total + top-V) — materialize once instead
        # of re-running the count pipeline per consumer
        .materialize()
    )
    total = vocab.sum("cnt")
    top = vocab.sort(["cnt", "term"], descending=[True, False]).limit(vocab_size).take_all()
    top_terms = np.array([r["term"] for r in top], dtype=object)
    top_cnt = np.array([r["cnt"] for r in top], dtype=np.float64)
    order = np.argsort(top_terms)
    top_terms, top_cnt = top_terms[order], top_cnt[order]
    oov = float(total) - float(top_cnt.sum())
    nll_in = -np.log(top_cnt / float(total))
    nll_oov = -np.log(oov / float(total)) if oov > 0 else 0.0
    model_ref = _ray.put((top_terms, nll_in, nll_oov))

    def score(batch: pa.Table) -> pa.Table:
        """Batch-flat: one tokenize pass, one dictionary-encoded vocab
        lookup (`_flat_vocab_indices`), per-doc means via np.add.reduceat."""
        terms, nll, oov_nll = _ray.get(model_ref)
        tk = tokenizer_for(analyzer)
        empty = pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "n_tokens": pa.array([], type=pa.int64()),
                "logperp": pa.array([], type=pa.float64()),
            }
        )
        if len(terms) == 0 or batch.num_rows == 0:
            return empty
        toks_list = [tk.tokens(t) for t in batch.column("content").to_pylist()]
        vi, n_tok = _flat_vocab_indices(toks_list, terms)
        if not len(vi):
            return empty
        keep = n_tok > 0  # zero-token docs are omitted
        vals = np.where(vi >= 0, nll[np.maximum(vi, 0)], oov_nll)
        starts = (np.cumsum(n_tok) - n_tok)[keep]
        lp = round_half_away(np.add.reduceat(vals, starts) / n_tok[keep], 6)
        return pa.table(
            {
                "doc_id": pa.array(
                    batch.column("doc_id").to_numpy()[keep], type=pa.int64()
                ),
                "n_tokens": pa.array(n_tok[keep], type=pa.int64()),
                "logperp": pa.array(lp, type=pa.float64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


def bigram_logperp(
    docs: ray.data.Dataset,
    vocab_size: int = 4096,
    bigram_size: int = 65536,
    lam: float = 0.7,
    analyzer: AnalyzerConfig | None = None,
) -> ray.data.Dataset:
    """Per-document log-perplexity under an interpolated BIGRAM model of the
    corpus itself — the step up from :func:`unigram_logperp` that a quality
    filter actually wants (word-salad docs have plausible unigrams but
    improbable transitions). Output (doc_id, n_tokens, logperp).

    Model, fully deterministic and SQL-replicable:
    - unigram side: the unigram_logperp convention — top-``vocab_size``
      terms (count desc, term asc), shared OOV mass for the rest;
    - bigram side: adjacent pairs with BOTH terms in-vocab, the
      top-``bigram_size`` pairs by (count desc, w1, w2);
      p_bi(w2|w1) = cnt(w1,w2) / ctx(w1) with ctx = the context's
      bigram-stream occurrences (any successor), 0 for unseen/OOV pairs;
    - position 1 scores by unigram alone, positions 2..n by
      ``lam * p_bi + (1 - lam) * p_uni`` — the (1-lam) unigram floor keeps
      every probability positive.

    Scale shape: three streaming passes (unigram counts, fused
    bigram+context counts filtered against the broadcast vocab, scoring);
    broadcast state is bounded at V terms + B packed int64 bigram keys +
    V context counts regardless of corpus size."""
    import ray as _ray
    from ray.data.aggregate import Sum

    vocab = (
        docs.map_batches(
            lambda b: _term_count_partial(b, analyzer), batch_format="pyarrow"
        )
        .groupby("term")
        .aggregate(Sum("c", alias_name="cnt"))
        .materialize()
    )
    total = vocab.sum("cnt")
    top = (
        vocab.sort(["cnt", "term"], descending=[True, False])
        .limit(vocab_size)
        .take_all()
    )
    terms = np.array([r["term"] for r in top], dtype=object)
    cnts = np.array([r["cnt"] for r in top], dtype=np.float64)
    order = np.argsort(terms)
    terms, cnts = terms[order], cnts[order]
    tot = float(total)
    p_in = cnts / tot
    oov = tot - float(cnts.sum())
    p_oov = (oov / tot) if oov > 0 else 0.0
    vocab_ref = _ray.put(terms)
    V = len(terms)

    def partial_bi(batch: pa.Table) -> pa.Table:
        """Fused bigram + context partial counts against the broadcast
        vocab: kind 0 = in-vocab (w1, w2) pair, kind 1 = context w1
        occurrence (any successor). Keys packed as int64. Fully batch-flat:
        the whole batch tokenizes into ONE object array, vocab lookup is one
        searchsorted, adjacent pairs that straddle a document boundary are
        masked out, and one ``np.unique`` replaces the per-token dict."""
        vterms = _ray.get(vocab_ref)
        tk = tokenizer_for(analyzer)
        nv = len(vterms)
        empty = pa.table(
            {
                "cg": pa.array([], type=pa.int64()),
                "k": pa.array([], type=pa.int64()),
                "c": pa.array([], type=pa.int64()),
            }
        )
        if nv == 0:
            return empty
        texts = batch.column("content").to_pylist()
        toks_list = [tk.tokens(t) for t in texts]
        vi, n_tok = _flat_vocab_indices(toks_list, vterms)
        total = int(n_tok.sum())
        if total < 2:
            return empty
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), n_tok)
        w1, w2 = vi[:-1], vi[1:]
        same_doc = doc_idx[:-1] == doc_idx[1:]
        # context counts: every in-vocab w1 with a same-doc successor
        # (successor vocab-ness irrelevant)
        ctx_keys = w1[same_doc & (w1 >= 0)] | (1 << 62)
        both = same_doc & (w1 >= 0) & (w2 >= 0)
        bi_keys = w1[both] * nv + w2[both]
        allk = np.concatenate([ctx_keys, bi_keys])
        if not len(allk):
            return empty
        uk, c = np.unique(allk, return_counts=True)
        return pa.table(
            {
                # 64 coarse hash groups: every packed key lives in exactly
                # one, so per-group exact reduce + per-group top-B contains
                # the global top-B (the collocations idiom). A flat
                # groupby(k) here fed ~49M partial rows with 3.4M distinct
                # keys into Ray's aggregate at 1.15M docs — 120 s of the
                # 150 s wall; the coarse shuffle is 64-valued.
                "cg": pa.array((uk * 0x9E3779B1) % 64, type=pa.int64()),
                "k": pa.array(uk, type=pa.int64()),
                "c": pa.array(c.astype(np.int64), type=pa.int64()),
            }
        )

    _CTX_BIT = 1 << 62

    def reduce_group(g: pa.Table) -> pa.Table:
        """Exact per-group key sums, then keep every ctx row (bounded at V
        per corpus) + the group's local (cnt desc, k asc) top-B bigrams."""
        k = g.column("k").to_numpy()
        c = g.column("c").to_numpy()
        order = np.argsort(k, kind="stable")
        ks, cs = k[order], c[order]
        uk, starts = np.unique(ks, return_index=True)
        sums = np.add.reduceat(cs, starts)
        is_ctx = uk >= _CTX_BIT
        keep = np.flatnonzero(is_ctx).tolist()
        bi_idx = np.flatnonzero(~is_ctx)
        if len(bi_idx) > bigram_size:
            sel = np.lexsort((uk[bi_idx], -sums[bi_idx]))[:bigram_size]
            bi_idx = bi_idx[sel]
        keep_idx = np.concatenate([np.asarray(keep, dtype=np.int64), bi_idx])
        return pa.table(
            {
                "k": pa.array(uk[keep_idx], type=pa.int64()),
                "cnt": pa.array(sums[keep_idx], type=pa.int64()),
            }
        )

    cand = (
        docs.map_batches(partial_bi, batch_format="pyarrow")
        .groupby("cg")
        .map_groups(reduce_group, batch_format="pyarrow")
        .materialize()
    )  # bounded: <= 64 * bigram_size + V rows

    def _keep(ctx_side: bool):
        def f(batch: pa.Table) -> pa.Table:
            k = batch.column("k").to_numpy()
            m = (k >= _CTX_BIT) if ctx_side else (k < _CTX_BIT)
            return batch.filter(pa.array(m))

        return f

    ctx = np.zeros(max(V, 1), dtype=np.float64)
    ctx_rows = cand.map_batches(
        _keep(True), batch_format="pyarrow"
    ).take_all()  # bounded at V rows
    for r in ctx_rows:
        ctx[r["k"] & ~_CTX_BIT] = float(r["cnt"])
    # top-B bigrams by (count desc, w1 asc, w2 asc) == (cnt desc, key asc)
    # since key = w1 * V + w2 is lexicographic in (w1, w2)
    top_bi = (
        cand.map_batches(_keep(False), batch_format="pyarrow")
        .sort(["cnt", "k"], descending=[True, False])
        .limit(bigram_size)
        .take_all()
    )
    bi_keys = np.array(sorted(r["k"] for r in top_bi), dtype=np.int64)
    bi_cnt_by_key = {r["k"]: float(r["cnt"]) for r in top_bi}
    bi_cnts = np.array([bi_cnt_by_key[k] for k in bi_keys], dtype=np.float64)
    model_ref = _ray.put((terms, p_in, p_oov, bi_keys, bi_cnts, ctx))
    one_minus = 1.0 - float(lam)
    lamf = float(lam)

    def score(batch: pa.Table) -> pa.Table:
        """Batch-flat scoring: one tokenize pass into a flat token array,
        one vocab searchsorted, one bigram searchsorted, per-doc means via
        ``np.add.reduceat`` — no per-token (or per-doc numpy re-dispatch)
        Python work. Positions that start a document score by unigram
        alone; every other position interpolates lam*p_bi + (1-lam)*p_uni
        with p_bi = 0 for unseen/OOV/cross-doc pairs."""
        vterms, pin, poov, bkeys, bcnts, ctxc = _ray.get(model_ref)
        tk = tokenizer_for(analyzer)
        nv = len(vterms)
        empty = pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "n_tokens": pa.array([], type=pa.int64()),
                "logperp": pa.array([], type=pa.float64()),
            }
        )
        if nv == 0 or batch.num_rows == 0:
            return empty
        texts = batch.column("content").to_pylist()
        doc_ids = batch.column("doc_id").to_numpy()
        toks_list = [tk.tokens(t) for t in texts]
        vi, n_tok = _flat_vocab_indices(toks_list, vterms)
        total = int(n_tok.sum())
        if total == 0:
            return empty
        keep = n_tok > 0  # zero-token docs are omitted from the output
        pu = np.where(vi >= 0, pin[np.maximum(vi, 0)], poov)
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), n_tok)
        starts = (np.cumsum(n_tok) - n_tok)[keep]
        is_first = np.zeros(total, dtype=bool)
        is_first[starts] = True
        # pair (j-1, j) feeds position j when both sit in the same doc
        p_bi = np.zeros(total, dtype=np.float64)
        if total > 1 and len(bkeys):
            w1, w2 = vi[:-1], vi[1:]
            both = (doc_idx[:-1] == doc_idx[1:]) & (w1 >= 0) & (w2 >= 0)
            if both.any():
                keys = w1[both] * nv + w2[both]
                pos = np.searchsorted(bkeys, keys)
                pos_c = np.minimum(pos, len(bkeys) - 1)
                hit = bkeys[pos_c] == keys
                vals = np.zeros(len(keys), dtype=np.float64)
                if hit.any():
                    vals[hit] = bcnts[pos_c[hit]] / ctxc[w1[both][hit]]
                tgt = np.flatnonzero(both) + 1
                p_bi[tgt] = vals
        nll = np.where(
            is_first, -np.log(pu), -np.log(lamf * p_bi + one_minus * pu)
        )
        sums = np.add.reduceat(nll, starts)
        lp = round_half_away(sums / n_tok[keep], 6)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[keep], type=pa.int64()),
                "n_tokens": pa.array(n_tok[keep], type=pa.int64()),
                "logperp": pa.array(lp, type=pa.float64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


def token_budget_sample(
    docs: ray.data.Dataset,
    budgets: dict[str, int],
    group_column: str = "lang",
    salt: str = "",
    analyzer: AnalyzerConfig | None = None,
) -> ray.data.Dataset:
    """Per-group token-budget corpus selection — the data-MIXTURE step of a
    pretraining pipeline ("N tokens of en, M of fr, ..."): for each key in
    ``budgets``, keep docs in deterministic md5 order until the group's
    cumulative token count reaches its budget; the doc that CROSSES the
    budget is the last one kept (budgets are met, never undershot, and a
    non-empty group always contributes at least one doc). Groups absent
    from ``budgets`` are dropped entirely.

    Deterministic and resumable like :func:`deterministic_sample`:
    selection is a pure function of (doc_id, salt, corpus) — stable across
    reruns, cluster sizes and block orders, which is what lets a failed
    mixture job re-run without changing which rows are in-sample.
    Output: (doc_id, ``group_column``, n_tokens).

    Shape: one tokenize ``map_batches`` emits (group, doc_id, n_tokens, h)
    — 24 B/doc, never content — then ``groupby(group)`` computes the
    hash-ordered prefix sum per group vectorized. At 10^12 docs a single
    group outgrows one worker; the same selection then runs as two passes
    (histogram of h-buckets → bucket-level prefix sums find the boundary
    bucket → fine sort inside only that bucket), which this single-pass
    plan documents as its scale refinement.
    """
    from distributed_text_search_ray.functions.hashing import md5_u64

    def measure(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        groups = batch.column(group_column).to_pylist()
        ids = batch.column("doc_id").to_pylist()
        keep = [i for i, g in enumerate(groups) if g in budgets]
        texts = batch.column("content").to_pylist()
        return pa.table(
            {
                group_column: pa.array([groups[i] for i in keep], type=pa.string()),
                "doc_id": pa.array([ids[i] for i in keep], type=pa.int64()),
                "n_tokens": pa.array(
                    [tk.token_count(texts[i]) for i in keep], type=pa.int64()
                ),
                "h": pa.array(
                    [md5_u64(f"{ids[i]}{salt}") for i in keep], type=pa.uint64()
                ),
            }
        )

    def select(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                group_column: pa.array([], type=pa.string()),
                "n_tokens": pa.array([], type=pa.int64()),
            }
        )
        if group.num_rows == 0:
            return empty
        g = group.column(group_column)[0].as_py()
        budget = budgets[g]
        ids = group.column("doc_id").to_numpy()
        nt = group.column("n_tokens").to_numpy()
        h = group.column("h").to_numpy()
        order = np.lexsort((ids, h))
        csum = np.cumsum(nt[order])
        keep = (csum - nt[order]) < budget  # doc starts before budget is spent
        rows = np.sort(order[keep])
        return pa.table(
            {
                "doc_id": pa.array(ids[rows], type=pa.int64()),
                group_column: pa.array([g] * len(rows), type=pa.string()),
                "n_tokens": pa.array(nt[rows], type=pa.int64()),
            }
        )

    return (
        docs.map_batches(measure, batch_format="pyarrow")
        .groupby(group_column)
        .map_groups(select, batch_format="pyarrow")
    )


def chunk_documents(
    docs: ray.data.Dataset,
    max_tokens: int = 512,
    overlap: int = 64,
    analyzer: AnalyzerConfig | None = None,
) -> ray.data.Dataset:
    """Split long docs into overlapping token-window chunks — the
    long-document preprocessing step before sequence packing / embedding.

    Chunk i covers tokens [i*stride, i*stride + max_tokens) with
    stride = max_tokens - overlap; a doc of nt tokens yields 1 chunk when
    nt <= max_tokens, else ceil((nt - overlap) / stride) chunks (this
    formula covers every token and never emits a tail chunk fully
    contained in its predecessor). Zero-token docs yield no chunks.
    Output: (doc_id, chunk_id, content, n_tokens) — content is the chunk's
    tokens joined with single spaces (defined over the analyzer's token
    stream, like dup_span_edit).

    Shape: a pure 1->N ``map_batches`` expansion, no shuffle; at 100 TB
    this is the cheapest kind of operator there is.
    """
    if not (0 <= overlap < max_tokens):
        raise ValueError(f"need 0 <= overlap < max_tokens: {overlap}, {max_tokens}")
    stride = max_tokens - overlap

    def f(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        o_id, o_ci, o_text, o_nt = [], [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("content").to_pylist()
        ):
            toks = tk.tokens(text)
            nt = len(toks)
            if nt == 0:
                continue
            n_chunks = 1 if nt <= max_tokens else -(-(nt - overlap) // stride)
            for i in range(n_chunks):
                s = i * stride
                e = min(s + max_tokens, nt)
                o_id.append(doc_id)
                o_ci.append(i)
                o_text.append(" ".join(toks[s:e]))
                o_nt.append(e - s)
        return pa.table(
            {
                "doc_id": pa.array(o_id, type=pa.int64()),
                "chunk_id": pa.array(o_ci, type=pa.int64()),
                "content": pa.array(o_text, type=pa.string()),
                "n_tokens": pa.array(o_nt, type=pa.int64()),
            }
        )

    return docs.map_batches(f, batch_format="pyarrow")


def grouped_token_length_quantiles(
    docs_with_group: ray.data.Dataset,
    qs: tuple[float, ...] = (0.25, 0.5, 0.75, 0.95),
    group_col: str = "lang",
    analyzer: AnalyzerConfig | None = None,
) -> ray.data.Dataset:
    """EXACT per-group token-count quantiles (same ``quantile_disc``
    semantics as ``token_length_quantiles``, keyed by ``group_col``).

    Scale shape: one distributed histogram PER GROUP — each batch emits
    its (group, n_tokens) bincount, a groupby sums partials, and the
    driver reads quantiles off n_groups bounded cumulative histograms
    (n_groups x max_doc_len rows total, corpus-size-independent). This is
    the per-key generalization of the global histogram; a global sort per
    group would be an all-to-all on every row instead.
    """
    import math

    from ray.data.aggregate import Sum

    def hist(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        counts = np.fromiter(
            (tk.token_count(t) for t in batch.column("content").to_pylist()),
            dtype=np.int64,
            count=batch.num_rows,
        )
        groups = batch.column(group_col).to_pylist()
        uniq = sorted(set(groups))
        gidx = np.fromiter((uniq.index(g) for g in groups), dtype=np.int64, count=len(groups))
        # composite int key -> bincount does the (group, len) partial combine
        width = int(counts.max()) + 1 if len(counts) else 1
        key = gidx * width + counts
        h = np.bincount(key)
        nz = np.flatnonzero(h)
        return pa.table(
            {
                group_col: pa.array([uniq[i] for i in nz // width]),
                "n_tokens": pa.array(nz % width, type=pa.int64()),
                "cnt": pa.array(h[nz], type=pa.int64()),
            }
        )

    rows = (
        docs_with_group.map_batches(hist, batch_format="pyarrow")
        .groupby([group_col, "n_tokens"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .take_all()
    )
    by_group: dict[str, list[tuple[int, int]]] = {}
    for r in rows:
        by_group.setdefault(r[group_col], []).append((r["n_tokens"], r["cnt"]))
    out_g, out_q, out_v = [], [], []
    for g in sorted(by_group):
        pairs = sorted(by_group[g])
        lengths = np.array([p[0] for p in pairs], dtype=np.int64)
        cum = np.cumsum([p[1] for p in pairs])
        n_total = int(cum[-1])
        for q in qs:
            rank = min(max(1, math.ceil(q * n_total)), n_total)
            idx = int(np.searchsorted(cum, rank, side="left"))
            out_g.append(g)
            out_q.append(float(q))
            out_v.append(int(lengths[idx]))
    return ray.data.from_arrow(
        pa.table(
            {
                group_col: pa.array(out_g),
                "q": pa.array(out_q, type=pa.float64()),
                "n_tokens": pa.array(out_v, type=pa.int64()),
            }
        )
    )


def hash_slot(term: str, dim: int) -> tuple[int, float]:
    """THE feature-hashing scheme (single definition): bucket = md5_u64 %
    dim, sign from the top md5 bit. Docs, queries, and any future consumer
    must hash through here so their vectors stay mutually comparable."""
    from distributed_text_search_ray.functions.hashing import md5_u64

    h = md5_u64(term)
    return h % dim, 1.0 if (h >> 63) & 1 else -1.0


def hashed_text_vector(
    text: str, dim: int = 64, analyzer: AnalyzerConfig | None = None
) -> np.ndarray:
    """One text -> L2-normalized feature-hashed TF vector (query-side twin
    of ``hashed_doc_vectors``)."""
    tk = tokenizer_for(analyzer)
    v = np.zeros(dim, dtype=np.float64)
    for t in tk.tokens(text):
        slot, sign = hash_slot(t, dim)
        v[slot] += sign
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def hashed_doc_vectors(
    docs: ray.data.Dataset,
    dim: int = 64,
    analyzer: AnalyzerConfig | None = None,
) -> ray.data.Dataset:
    """Feature-hashed TF document vectors: (vec_id=doc_id, embedding).

    Classic hashing-trick bag-of-words — term t adds sign(t) at bucket
    hash(t) % dim via ``hash_slot`` (sign from one hash bit decorrelates
    collisions), row L2-normalized. Deterministic (md5-based, no fitted vocabulary), so the
    map needs NO training pass, no broadcast state, and is stable across
    cluster sizes — the properties that let a 10^12-doc corpus be
    vectorized in a single streaming pass. Output schema matches the
    embeddings table, so every ANN/dedup/k-means operator composes on it
    unchanged."""
    def f(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        ids = batch.column("doc_id").to_pylist()
        out = np.zeros((len(ids), dim), dtype=np.float64)
        memo: dict[str, tuple[int, float]] = {}
        for i, text in enumerate(batch.column("content").to_pylist()):
            for t in tk.tokens(text):
                slot = memo.get(t)
                if slot is None:
                    slot = memo[t] = hash_slot(t, dim)
                out[i, slot[0]] += slot[1]
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        out = out / np.maximum(norms, 1e-30)
        return pa.table(
            {
                "vec_id": pa.array(ids, type=pa.int64()),
                "embedding": pa.array(out.tolist(), type=pa.list_(pa.float64())),
            }
        )

    return docs.map_batches(f, batch_format="pyarrow")


def doc_clusters(
    docs: ray.data.Dataset,
    n_clusters: int = 8,
    iters: int = 3,
    dim: int = 64,
    seed: int = 42,
    analyzer: AnalyzerConfig | None = None,
    init: str = "kmeanspp",
    round_dp: int | None = None,
) -> ray.data.Dataset:
    """Topic-bucket the corpus: feature-hashed TF vectors -> distributed
    spherical k-means. Output (doc_id, cluster, cosine).

    The text->vector->cluster composition a training-data pipeline uses for
    mixture balancing; both stages stream (the vector stage is stateless,
    each k-means pass is one map_batches with a k x dim driver reduce).
    The vector dataset is materialized once so the k-means passes re-read
    object-store blocks instead of re-tokenizing the corpus per iteration
    (iters + 2 passes otherwise; at RAM-exceeding scale write it to
    partitioned parquet instead — same one-tokenize property)."""
    from distributed_text_search_ray.pipelines.ann import kmeans_clusters

    vecs = hashed_doc_vectors(docs, dim=dim, analyzer=analyzer).materialize()
    out = kmeans_clusters(
        vecs, n_clusters=n_clusters, iters=iters, seed=seed,
        init=init, round_dp=round_dp,
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("vec_id"),
                "cluster": batch.column("cluster"),
                "cosine": batch.column("cosine"),
            }
        )

    return out.map_batches(rename, batch_format="pyarrow")


def corpus_rollup(
    docs_with_keys: ray.data.Dataset,
    keys: tuple[str, str] = ("lang", "source"),
    analyzer: AnalyzerConfig | None = None,
) -> ray.data.Dataset:
    """ROLLUP(k1, k2) corpus aggregate: (k1, k2, n_docs, total_tokens) at
    three levels — per (k1, k2), per k1 (k2 NULL), grand total (both NULL).

    Scale shape: ONE streaming pass computes the finest level (per-batch
    partials, tiny groupby); the coarser levels derive from the finest on
    the driver, which is bounded by |k1| x |k2| distinct pairs — rolling up
    never re-reads the corpus (the naive alternative is one groupby per
    level = 3 corpus passes)."""
    from ray.data.aggregate import Sum

    k1, k2 = keys

    def partial(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        n_tok = np.fromiter(
            (tk.token_count(t) for t in batch.column("content").to_pylist()),
            dtype=np.int64,
            count=batch.num_rows,
        )
        g = pa.table(
            {
                k1: batch.column(k1),
                k2: batch.column(k2),
                "n_tokens": pa.array(n_tok, type=pa.int64()),
            }
        ).group_by([k1, k2]).aggregate([("n_tokens", "sum"), ("n_tokens", "count")])
        return agg_rename(
            g,
            [k1, k2],
            [("n_tokens", "sum"), ("n_tokens", "count")],
            ["tok_part", "doc_part"],
        )

    fine = (
        docs_with_keys.map_batches(partial, batch_format="pyarrow")
        .groupby([k1, k2])
        .aggregate(
            Sum("doc_part", alias_name="n_docs"),
            Sum("tok_part", alias_name="total_tokens"),
        )
        .take_all()
    )
    out_1, out_2, out_d, out_t = [], [], [], []
    for r in fine:
        out_1.append(r[k1]); out_2.append(r[k2])
        out_d.append(int(r["n_docs"])); out_t.append(int(r["total_tokens"]))
    lvl1: dict[str, tuple[int, int]] = {}
    for r in fine:
        d, t = lvl1.get(r[k1], (0, 0))
        lvl1[r[k1]] = (d + int(r["n_docs"]), t + int(r["total_tokens"]))
    for g in sorted(lvl1):
        out_1.append(g); out_2.append(None)
        out_d.append(lvl1[g][0]); out_t.append(lvl1[g][1])
    out_1.append(None); out_2.append(None)
    out_d.append(sum(d for d, _ in lvl1.values()))
    out_t.append(sum(t for _, t in lvl1.values()))
    return ray.data.from_arrow(
        pa.table(
            {
                k1: pa.array(out_1, type=pa.string()),
                k2: pa.array(out_2, type=pa.string()),
                "n_docs": pa.array(out_d, type=pa.int64()),
                "total_tokens": pa.array(out_t, type=pa.int64()),
            }
        )
    )


def _required_regex_literal(pattern: str) -> str | None:
    """Longest REQUIRED token-charset literal of a regex, or None.

    Conservative single-pass scan of the pattern string (no regex-AST
    dependency): a literal run is a maximal stretch of [a-z0-9_] characters
    that (a) sits at top level (outside [...] classes and outside any
    group, since groups can carry alternation/quantifiers), (b) is not
    itself quantified — a trailing char followed by ? * + { drops that
    char, and (c) appears in a pattern with NO top-level alternation.
    Anything this scanner is unsure about returns None, which routes the
    pattern to the exhaustive scan — soundness over coverage.
    """
    import re as _re

    if "|" in pattern:
        return None  # alternation anywhere -> any branch may skip the literal
    best, cur = "", ""
    depth = 0
    in_class = False
    class_body = -1  # index of the class body's first char (after [ or [^)
    i, n = 0, len(pattern)
    while i < n:
        ch = pattern[i]
        if ch == "\\":
            nxt = pattern[i + 1] if i + 1 < n else ""
            if nxt in "xuUN01234567":
                # multi-char escape (\\xHH, \\uXXXX, octal, \\N{...}): its
                # tail would otherwise be mis-collected as a literal —
                # refuse the whole pattern (scan fallback) rather than parse
                return None
            best, cur = (cur, "") if len(cur) > len(best) else (best, "")
            i += 2
            continue
        if in_class:
            # ']' directly after '[' or '[^' is a LITERAL ']' (regex rule),
            # not the class terminator — e.g. '[]a]x' is the class {']','a'}
            # followed by 'x', and treating the first ']' as the terminator
            # would extract 'a' as a required literal and silently miss
            # docs matching via ']x'
            if ch == "]" and i != class_body:
                in_class = False
            i += 1
            continue
        if ch == "[":
            in_class = True
            class_body = i + 2 if pattern[i + 1 : i + 2] == "^" else i + 1
            best, cur = (cur, "") if len(cur) > len(best) else (best, "")
            i += 1
            continue
        if ch == "(":
            depth += 1
            best, cur = (cur, "") if len(cur) > len(best) else (best, "")
            i += 1
            continue
        if ch == ")":
            depth = max(0, depth - 1)
            best, cur = (cur, "") if len(cur) > len(best) else (best, "")
            i += 1
            continue
        if ch == "{":
            # skip the {m,n} counter entirely — its digits are NOT literals
            end = pattern.find("}", i)
            if end < 0:
                return None  # malformed; refuse rather than misparse
            best, cur = (cur, "") if len(cur) > len(best) else (best, "")
            i = end + 1
            continue
        if depth == 0 and _re.fullmatch(r"[a-z0-9_]", ch, flags=_re.IGNORECASE):
            nxt = pattern[i + 1] if i + 1 < n else ""
            if nxt and nxt in "?*+{":
                # this char is optional/repeated; the run up to it is required
                if len(cur) > len(best):
                    best = cur
                cur = ""
                if nxt == "{":
                    end = pattern.find("}", i + 1)
                    if end < 0:
                        return None
                    i = end + 1
                else:
                    i += 2
                continue
            cur += ch
        else:
            if len(cur) > len(best):
                best = cur
            cur = ""
            i += 1
            continue
        i += 1
    if len(cur) > len(best):
        best = cur
    return best.lower() or None


def regex_match_counts_indexed(
    index_dir: str,
    docs: ray.data.Dataset,
    patterns: list[tuple[int, str]],
) -> ray.data.Dataset:
    """Index-assisted regex search (the trigram-index idea applied to the
    token dictionary, cf. Google Code Search): result-identical to
    ``regex_match_counts``, but patterns with a required literal verify
    only CANDIDATE documents.

    Plan per pattern: extract a required [a-z0-9_]+ literal; any raw-text
    match must contain it, and the literal sits inside one maximal
    token-char run, so lowercase(literal) is a SUBSTRING of some dictionary
    term of every matching doc. Candidates = union of postings of the
    dictionary terms containing the literal (one vectorized
    ``match_substring`` over the dictionary per pattern). One broadcast
    filter pass fetches candidate contents; the regex verifies only those.
    Patterns with no safe literal fall back to the full scan — outputs are
    identical either way (differential-tested).

    What the index saves: the REGEX VERIFY runs on |candidates| docs
    instead of every doc (the expensive per-byte work, and the whole cost
    for heavy patterns). The candidate filter itself is still one
    column-pruned streaming read — skipping the read too requires a
    doc_id-partitioned corpus layout so the broadcast id set can prune
    files/row-groups (the corpus sink's per-shard manifests provide the
    hook). Measured at 1.15M docs: 1.7x end-to-end on a cheap pattern at
    1.5% selectivity (verify-dominated patterns scale the win).
    """
    from distributed_text_search_ray.stages.executor import DictionaryExpander, IndexView

    import pyarrow.compute as pc

    indexed: list[tuple[int, str]] = []
    fallback: list[tuple[int, str]] = []
    literals: dict[int, str] = {}
    for qid, pat in patterns:
        lit = _required_regex_literal(pat)
        if lit:
            indexed.append((qid, pat))
            literals[qid] = lit
        else:
            fallback.append((qid, pat))

    outs = []
    if indexed:
        view = IndexView(index_dir)
        az = view.cfg.analyzer
        if (
            getattr(az, "stem", "none") != "none"
            or not az.lowercase
            or az.token_pattern != "[a-z0-9_]+"
        ):
            # the literal-in-some-term argument assumes dictionary terms are
            # verbatim lowercased text runs; a stemming / case-preserving /
            # custom-pattern analyzer breaks that, so route everything to
            # the scan (still result-identical, just not pruned)
            fallback.extend(indexed)
            indexed = []
    if indexed:
        exp = DictionaryExpander(index_dir)
        n_corpus = view.N
        cand_ids: set[int] = set()
        still_indexed: list[tuple[int, str]] = []
        for qid, pat in indexed:
            mask = pc.match_substring(exp.terms, literals[qid])
            idxs = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
            # selectivity planning: sum(df) bounds the candidate count; a
            # non-selective literal (stopword-ish) would pull an O(N) id set
            # onto the driver AND verify ~everything — the scan is strictly
            # better there, so route it back (the cost-based-planner move)
            if idxs.size and float(exp.df[idxs].sum()) > 0.5 * n_corpus:
                fallback.append((qid, pat))
                continue
            still_indexed.append((qid, pat))
            for i in idxs:
                cand_ids.update(view.term_postings(exp.term_at(int(i)))[0].tolist())
        indexed = still_indexed
        if indexed and len(view.deleted):
            # regex ops are CORPUS-level: tombstoned docs still exist in the
            # docs dataset and the scan fallback would report them, but their
            # postings are tombstone-filtered — add them back as candidates
            # so both plans answer over the same doc universe
            cand_ids.update(view.deleted.tolist())
        if cand_ids and indexed:
            id_set = pa.array(sorted(cand_ids), type=pa.int64())
            cand_docs = docs.map_batches(
                lambda t: t.filter(pc.is_in(t.column("doc_id"), value_set=id_set)),
                batch_format="pyarrow",
            )
            outs.append(regex_match_counts(cand_docs, indexed))
    if fallback:
        outs.append(regex_match_counts(docs, fallback))
    if not outs:
        return ray.data.from_arrow(
            pa.table(
                {
                    "query_id": pa.array([], type=pa.int64()),
                    "doc_id": pa.array([], type=pa.int64()),
                    "n_matches": pa.array([], type=pa.int64()),
                }
            )
        )
    ds = outs[0]
    for o in outs[1:]:
        ds = ds.union(o)
    return ds


def heavy_hitter_terms(
    docs: ray.data.Dataset,
    k: int = 20,
    sketch_k: int = 4096,
    analyzer: AnalyzerConfig | None = None,
) -> ray.data.Dataset:
    """Top-``k`` corpus terms by collection frequency via one-pass
    Misra-Gries summaries: per input block a bounded sketch of at most
    ``sketch_k`` (term, est_cf) rows, merged with ONE small groupby over
    <= blocks x sketch_k rows — the whole-vocabulary term-count shuffle
    (``top_terms``'s dictionary path, or a groupby over every distinct
    term) never happens.

    Guarantee (standard MG): each term's summed estimate undercounts its
    true collection frequency by at most ``total_tokens / (sketch_k + 1)``
    (per block, each decrement round removes ``sketch_k + 1`` token units,
    so at most ``N_block/(sketch_k+1)`` rounds touch any term; sums of
    block sketches keep the bound additive). Any term with
    cf > total_tokens/(sketch_k+1) is guaranteed PRESENT in the merged
    summary. The returned top-k order is exact whenever the (k+1)-th true
    cf gap exceeds the bound — and bit-exact (estimates == true cf) when
    ``sketch_k`` >= the block vocabulary, because no decrement ever fires:
    that is the exactness-forcing conformance configuration the SQL twin
    gates (same pattern as the ANN probe-all configs). The approximate
    regime's undercount bound is pinned in pytest.

    Scale shape: tokenize is the only corpus pass; the merge input is
    O(blocks x sketch_k) regardless of vocabulary size — the operator for
    "what dominates this 100 TB corpus" where the distinct-term set itself
    is shuffle-prohibitive. Ties break by term ascending, as in the twin.
    """

    def mg_partial(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        toks: list[str] = []
        for text in batch.column("content").to_pylist():
            toks.extend(tk.tokens(text))
        if not toks:
            return pa.table(
                {
                    "term": pa.array([], type=pa.string()),
                    "est_cf": pa.array([], type=pa.int64()),
                }
            )
        enc = pa.array(toks, type=pa.string()).dictionary_encode()
        counts = np.bincount(
            enc.indices.to_numpy().astype(np.int64), minlength=len(enc.dictionary)
        ).astype(np.int64)
        if counts.size > sketch_k:
            # one vectorized decrement round: subtracting the (sketch_k+1)-th
            # largest count from every counter zeroes at least all but the
            # top sketch_k — the batched equivalent of MG's unit decrements,
            # with the same per-token-unit accounting
            thresh = np.partition(counts, counts.size - (sketch_k + 1))[
                counts.size - (sketch_k + 1)
            ]
            counts = counts - thresh
        keep = counts > 0
        return pa.table(
            {
                "term": pa.DictionaryArray.from_arrays(
                    pa.array(np.flatnonzero(keep).astype(np.int32)), enc.dictionary
                ).cast(pa.string()),
                "est_cf": pa.array(counts[keep], type=pa.int64()),
            }
        )

    merged = (
        docs.map_batches(mg_partial, batch_format="pyarrow")
        .groupby("term")
        .sum("est_cf")
        .map_batches(
            lambda t: t.rename_columns(
                ["est_cf" if c == "sum(est_cf)" else c for c in t.column_names]
            ),
            batch_format="pyarrow",
        )
    )
    return merged.sort(["est_cf", "term"], descending=[True, False]).limit(k)


def perplexity_buckets(
    docs: ray.data.Dataset,
    vocab_size: int = 4096,
    analyzer: AnalyzerConfig | None = None,
) -> ray.data.Dataset:
    """CCNet-style head/middle/tail corpus split by per-document unigram
    log-perplexity terciles (Wenzek et al. 2020: keep the "head" of the
    perplexity distribution as the highest-quality slice, sample the rest).

    Composition of two existing distributed primitives, no new shuffle
    machinery: ``unigram_logperp`` (one corpus pass against the broadcast
    truncated-vocab model) materialized once, then exact tercile cutpoints
    via ``float_quantiles`` distributed selection (bounded driver state),
    then one assign pass against the two broadcast cutpoints. Output:
    ``(doc_id, logperp, bucket)`` with bucket in {'head','middle','tail'};
    ties at a cutpoint go to the LOWER bucket (v <= cut), mirroring the
    SQL twin's CASE chain on ``quantile_disc`` cutpoints. Zero-token docs
    are omitted (no logperp is defined for them), as in
    ``unigram_logperp``.
    """
    from distributed_text_search_ray.pipelines.relational import float_quantiles

    lp = unigram_logperp(docs, vocab_size=vocab_size, analyzer=analyzer).materialize()
    cut_rows = float_quantiles(lp, "logperp", qs=(1.0 / 3.0, 2.0 / 3.0)).take_all()
    cuts = np.array(
        [r["value"] for r in sorted(cut_rows, key=lambda r: r["q"])], dtype=np.float64
    )
    labels = np.array(["head", "middle", "tail"])

    def assign(batch: pa.Table) -> pa.Table:
        v = batch.column("logperp").to_numpy()
        b = np.searchsorted(cuts, v, side="left")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "logperp": batch.column("logperp"),
                "bucket": pa.array(labels[b], type=pa.string()),
            }
        )

    return lp.map_batches(assign, batch_format="pyarrow")


def collocations(
    docs: ray.data.Dataset,
    top_n: int = 20,
    min_count: int = 5,
    analyzer: AnalyzerConfig | None = None,
) -> ray.data.Dataset:
    """Top-N collocations: within-document token bigrams ranked by pointwise
    mutual information — the word2vec-style phrase-detection pass of a
    training-data pipeline (merge "new york"-like units before tokenizer
    training). ``pmi = ln((c_ab/B) / ((c_a/T) * (c_b/T)))`` with T = total
    tokens, B = total bigram occurrences, computed in exactly that floating
    expression shape on both the Ray and SQL sides; bigrams below
    ``min_count`` are dropped (PMI is noise at tiny counts). Output
    ``(bigram, n, pmi)``, pmi desc / bigram asc.

    Shape: ONE fused tokenize pass emits per-batch partial rows for both
    unigram and bigram counts (+ a nonempty-doc counter: B = T - D1 needs
    no second stream); the unigram model reduces to a vocabulary-bounded
    table broadcast via ``ray.put`` (same bounded-model convention as
    ``unigram_logperp``), while bigrams — the vocab^2-sized side — reduce
    inside 64 coarse hash groups with an Arrow hash aggregate and a LOCAL
    top-N (each bigram lives in exactly one group, so the global top-N is
    a subset of the 64 local top-Ns; the ``bigram_counts`` idiom)."""
    import ray as _ray

    from distributed_text_search_ray.functions.hashing import md5_u64

    KIND_UNI, KIND_BI, KIND_D1 = 0, 1, 2

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        tk = tokenizer_for(analyzer)
        uni: Counter = Counter()
        bi: Counter = Counter()
        d1 = 0
        for text in batch.column("content").to_pylist():
            toks = tk.tokens(text)
            if toks:
                d1 += 1
            uni.update(toks)
            bi.update(f"{a} {b}" for a, b in zip(toks, toks[1:]))
        keys = list(uni.keys()) + list(bi.keys()) + [""]
        kinds = [KIND_UNI] * len(uni) + [KIND_BI] * len(bi) + [KIND_D1]
        ns = list(uni.values()) + list(bi.values()) + [d1]
        return pa.table(
            {
                "cg": pa.array(
                    [md5_u64(k) % 64 for k in keys], type=pa.int64()
                ),
                "kind": pa.array(kinds, type=pa.int8()),
                "key": pa.array(keys, type=pa.string()),
                "n_part": pa.array(ns, type=pa.int64()),
            }
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").materialize()

    def sum_by_key(g: pa.Table) -> pa.Table:
        return agg_rename(
            g.select(["key", "n_part"]).group_by("key").aggregate([("n_part", "sum")]),
            ["key"],
            [("n_part", "sum")],
            ["n"],
        )

    uni_rows = (
        parts.filter(expr="kind == 0")
        .groupby("cg")
        .map_groups(sum_by_key, batch_format="pyarrow")
        .take_all()
    )
    c_uni = {r["key"]: float(r["n"]) for r in uni_rows}
    T = float(sum(c_uni.values()))
    d1 = float(parts.filter(expr="kind == 2").sum("n_part") or 0)
    B = T - d1
    if B <= 0 or T <= 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "bigram": pa.array([], type=pa.string()),
                    "n": pa.array([], type=pa.int64()),
                    "pmi": pa.array([], type=pa.float64()),
                }
            )
        )
    uni_ref = _ray.put(c_uni)

    def pmi_topn(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cu = _ray.get(uni_ref)
        agg = sum_by_key(g)
        n = agg.column("n").to_numpy()
        keep = n >= min_count
        agg = agg.filter(pa.array(keep))
        if not agg.num_rows:
            return pa.table(
                {
                    "bigram": pa.array([], type=pa.string()),
                    "n": pa.array([], type=pa.int64()),
                    "pmi": pa.array([], type=pa.float64()),
                }
            )
        bigrams = agg.column("key").to_pylist()
        n = agg.column("n").to_numpy().astype(np.float64)
        ca = np.array([cu[s.split(" ", 1)[0]] for s in bigrams])
        cb = np.array([cu[s.split(" ", 1)[1]] for s in bigrams])
        pmi = round_half_away(np.log((n / B) / ((ca / T) * (cb / T))), 6)
        out = pa.table(
            {
                "bigram": pa.array(bigrams, type=pa.string()),
                "n": pa.array(n.astype(np.int64), type=pa.int64()),
                "pmi": pa.array(pmi, type=pa.float64()),
            }
        )
        if out.num_rows > top_n:
            idx = pc.select_k_unstable(
                out, k=top_n, sort_keys=[("pmi", "descending"), ("bigram", "ascending")]
            )
            out = out.take(idx)
        return out

    return (
        parts.filter(expr="kind == 1")
        .groupby("cg")
        .map_groups(pmi_topn, batch_format="pyarrow")
        .sort(["pmi", "bigram"], descending=[True, False])
        .limit(top_n)
    )


def source_overlap(
    docs: ray.data.Dataset,
    shingle_n: int = 5,
    source_col: str = "source",
    analyzer: AnalyzerConfig | None = None,
) -> pa.Table:
    """Cross-source n-gram overlap matrix — the contamination / mixture
    analytics a corpus-assembly pipeline runs before weighting sources:
    for every source pair, the number of DISTINCT token ``shingle_n``-grams
    they share and the Jaccard similarity of their shingle sets.

    Returns (source_a, source_b, n_shared, jaccard) for pairs with at
    least one shared shingle, source_a < source_b, jaccard rounded 6 dp
    = n_shared / (|A| + |B| - n_shared).

    Scale shape: each batch emits its DISTINCT (shingle, source) rows
    (batch-level dedup bounds the emit at the batch's shingle vocabulary);
    64 coarse md5 hash groups then dedup globally and count pairs INSIDE
    each group — a shingle lives in exactly one group, so per-group pair
    counts are disjoint partials. Only the bounded per-group partials
    (<= sources^2 + sources rows per group) ever reach the driver; the
    corpus-sized shingle table never does. Pair fan-out per shingle is
    C(m,2) over the m <= |sources| holders — bounded by the source count,
    not the corpus (unlike document-pair dedup, where the near_dedup
    anchor-edge design exists for exactly that reason).
    """
    from collections import Counter

    from distributed_text_search_ray.functions.hashing import md5_u64

    def partial(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        seen: set[tuple[str, str]] = set()
        for text, src in zip(
            batch.column("content").to_pylist(),
            batch.column(source_col).to_pylist(),
        ):
            toks = tk.tokens(text)
            for i in range(len(toks) - shingle_n + 1):
                seen.add((" ".join(toks[i : i + shingle_n]), src))
        if not seen:
            return pa.table(
                {
                    "sh": pa.array([], type=pa.string()),
                    "src": pa.array([], type=pa.string()),
                    "cg": pa.array([], type=pa.int64()),
                }
            )
        sh = [s for s, _ in seen]
        return pa.table(
            {
                "sh": pa.array(sh, type=pa.string()),
                "src": pa.array([s for _, s in seen], type=pa.string()),
                "cg": pa.array([md5_u64(s) % 64 for s in sh], type=pa.int64()),
            }
        )

    def reduce_group(g: pa.Table) -> pa.Table:
        # global dedup inside the group, then run-scan the shingle-sorted
        # rows: per shingle, its (tiny) holder set expands to C(m,2) pairs
        d = (
            g.select(["sh", "src"])
            .group_by(["sh", "src"])
            .aggregate([])
            .sort_by([("sh", "ascending"), ("src", "ascending")])
        )
        shs = d.column("sh").to_pylist()
        srcs = d.column("src").to_pylist()
        pairs: Counter = Counter()
        totals: Counter = Counter()
        i, n = 0, len(shs)
        while i < n:
            j = i
            while j < n and shs[j] == shs[i]:
                j += 1
            grp = srcs[i:j]
            for s in grp:
                totals[s] += 1
            for x in range(len(grp)):
                for y in range(x + 1, len(grp)):
                    pairs[(grp[x], grp[y])] += 1
            i = j
        return pa.table(
            {
                "a": pa.array(
                    [p[0] for p in pairs] + list(totals), type=pa.string()
                ),
                "b": pa.array(
                    [p[1] for p in pairs] + [""] * len(totals),
                    type=pa.string(),
                ),
                "n": pa.array(
                    list(pairs.values()) + list(totals.values()),
                    type=pa.int64(),
                ),
            }
        )

    rows = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("cg")
        .map_groups(reduce_group, batch_format="pyarrow")
        .take_all()
    )  # bounded: 64 groups x (sources^2 + sources) rows
    pair_n: Counter = Counter()
    tot_n: Counter = Counter()
    for r in rows:
        if r["b"]:
            pair_n[(r["a"], r["b"])] += r["n"]
        else:
            tot_n[r["a"]] += r["n"]
    out_a, out_b, out_n, out_j = [], [], [], []
    for (a, b) in sorted(pair_n):
        n_sh = pair_n[(a, b)]
        out_a.append(a)
        out_b.append(b)
        out_n.append(n_sh)
        out_j.append(
            float(round_half_away(n_sh / (tot_n[a] + tot_n[b] - n_sh), 6))
        )
    return pa.table(
        {
            "source_a": pa.array(out_a, type=pa.string()),
            "source_b": pa.array(out_b, type=pa.string()),
            "n_shared": pa.array(out_n, type=pa.int64()),
            "jaccard": pa.array(out_j, type=pa.float64()),
        }
    )


def string_stats(ds: ray.data.Dataset, column: str = "text") -> pa.Table:
    """ES ``string_stats`` aggregation over a text column: doc count,
    min/max/avg length and the Shannon entropy of the character
    distribution — from ONE streaming pass.

    Scale shape: each batch reduces to a bounded partial — (count, sum of
    lengths, batch min/max, 256-bin byte histogram via ``np.bincount`` over
    the batch's concatenated bytes) — and two tiny aggregates merge them;
    the 256-bin assembly happens once on the driver. Entropy is byte-level,
    which equals ES's char-level definition on ASCII corpora (asserted
    against the SQL twin, which counts characters). Returns one row
    (doc_count, min_length, max_length, avg_length, entropy), lengths in
    characters.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column(column)
        lens = pc.utf8_length(texts).to_numpy(zero_copy_only=False).astype(np.int64)
        blob = "".join(texts.to_pylist()).encode("utf-8")
        hist = np.bincount(np.frombuffer(blob, dtype=np.uint8), minlength=256)
        keys = ["n", "sum_len"] + [f"c{i:03d}" for i in range(256)]
        vals = [len(lens), int(lens.sum())] + hist.astype(np.int64).tolist()
        return pa.table(
            {
                "key": pa.array(keys, type=pa.string()),
                "s": pa.array(vals, type=pa.int64()),
                # min/max ride every row (the aggregate ignores all but one)
                "min_len": pa.array(
                    [int(lens.min()) if len(lens) else 2**62] * len(keys),
                    type=pa.int64(),
                ),
                "max_len": pa.array(
                    [int(lens.max()) if len(lens) else -1] * len(keys),
                    type=pa.int64(),
                ),
            }
        )

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("key")
        .aggregate(
            Sum("s", alias_name="s"),
            Min("min_len", alias_name="min_len"),
            Max("max_len", alias_name="max_len"),
        )
        .take_all()
    )
    of = {r["key"]: r for r in merged}
    n = int(of["n"]["s"])
    sum_len = int(of["sum_len"]["s"])
    counts = np.array(
        [int(of.get(f"c{i:03d}", {"s": 0})["s"]) for i in range(256)],
        dtype=np.float64,
    )
    total = counts.sum()
    nz = counts[counts > 0]
    p = nz / total
    entropy = float(np.sum(-(p) * np.log(p))) if total > 0 else 0.0
    return pa.table(
        {
            "doc_count": pa.array([n], type=pa.int64()),
            "min_length": pa.array([int(of["n"]["min_len"])], type=pa.int64()),
            "max_length": pa.array([int(of["n"]["max_len"])], type=pa.int64()),
            "avg_length": pa.array(
                [float(round_half_away(sum_len / n, 6))] if n else [None],
                type=pa.float64(),
            ),
            "entropy": pa.array(
                [float(round_half_away(entropy, 6))], type=pa.float64()
            ),
        }
    )


def source_diversity(
    docs: ray.data.Dataset,
    shingle_n: int = 5,
    source_col: str = "source",
    analyzer: AnalyzerConfig | None = None,
) -> pa.Table:
    """Per-source n-gram diversity — distinct token ``shingle_n``-grams over
    total occurrences, the corpus-level repetitiveness metric a curation
    pipeline reads before weighting sources (a boilerplate-heavy source
    scores low). Returns (source, total_ngrams, distinct_ngrams, diversity)
    with diversity = distinct/total rounded 6 dp.

    Scale shape: totals are plain per-batch counts (no shuffle); distinct
    counts ride ``source_overlap``'s coarse-shingle-group dedup — a shingle
    lives in exactly one md5 group, so per-group distinct-per-source counts
    are disjoint partials and only O(64 x sources) rows reach the driver.
    """
    from collections import Counter

    from distributed_text_search_ray.functions.hashing import md5_u64

    def partial(batch: pa.Table) -> pa.Table:
        tk = tokenizer_for(analyzer)
        seen: set[tuple[str, str]] = set()
        totals: Counter = Counter()
        for text, src in zip(
            batch.column("content").to_pylist(),
            batch.column(source_col).to_pylist(),
        ):
            toks = tk.tokens(text)
            m = len(toks) - shingle_n + 1
            if m > 0:
                totals[src] += m
            for i in range(max(m, 0)):
                seen.add((" ".join(toks[i : i + shingle_n]), src))
        sh = [s for s, _ in seen]
        return pa.table(
            {
                "sh": pa.array(sh + [""] * len(totals), type=pa.string()),
                "src": pa.array(
                    [s for _, s in seen] + list(totals), type=pa.string()
                ),
                "cg": pa.array(
                    [md5_u64(s) % 64 for s in sh] + [-1] * len(totals),
                    type=pa.int64(),
                ),
                "n": pa.array(
                    [1] * len(sh) + list(totals.values()), type=pa.int64()
                ),
            }
        )

    def reduce_group(g: pa.Table) -> pa.Table:
        if g.column("cg")[0].as_py() == -1:
            # the totals group: plain per-source sum
            agg = g.group_by("src").aggregate([("n", "sum")])
            agg = agg.select(["src", "n_sum"]).rename_columns(["src", "n"])
            return pa.table(
                {
                    "src": agg.column("src"),
                    "kind": pa.array(["total"] * agg.num_rows, type=pa.string()),
                    "n": agg.column("n"),
                }
            )
        d = g.select(["sh", "src"]).group_by(["sh", "src"]).aggregate([])
        agg = d.group_by("src").aggregate([([], "count_all")])
        agg = agg.select(["src", "count_all"]).rename_columns(["src", "n"])
        return pa.table(
            {
                "src": agg.column("src"),
                "kind": pa.array(["distinct"] * agg.num_rows, type=pa.string()),
                "n": agg.column("n"),
            }
        )

    rows = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("cg")
        .map_groups(reduce_group, batch_format="pyarrow")
        .take_all()
    )
    tot: Counter = Counter()
    dis: Counter = Counter()
    for r in rows:
        (tot if r["kind"] == "total" else dis)[r["src"]] += r["n"]
    srcs = sorted(tot)
    return pa.table(
        {
            "source": pa.array(srcs, type=pa.string()),
            "total_ngrams": pa.array([tot[s] for s in srcs], type=pa.int64()),
            "distinct_ngrams": pa.array([dis[s] for s in srcs], type=pa.int64()),
            "diversity": pa.array(
                [float(round_half_away(dis[s] / tot[s], 6)) for s in srcs],
                type=pa.float64(),
            ),
        }
    )
