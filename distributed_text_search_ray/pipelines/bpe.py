"""Distributed BPE tokenizer training (word-level byte-pair encoding).

The tokenizer-training step of an LLM data pipeline (Sennrich et al.
2016, "Neural Machine Translation of Rare Words with Subword Units"; the
algorithm behind GPT-2/LLaMA-style vocabularies). Industrial trainers
(e.g. HuggingFace ``tokenizers``) run it in exactly two phases, and so
does this operator:

  1. WORD COUNTING (distributed, the 100 TB phase): one tokenize pass
     over the corpus reduced to a (word, count) vocabulary — partial
     ``Counter`` per batch, coarse md5 hash groups, Arrow C++ hash
     aggregate inside each group (the ``bigram_counts`` reduce idiom).
     ``max_vocab`` caps what reaches the driver: the top-``max_vocab``
     words by (count desc, word asc), a distributed ``sort().limit()``
     over the already-aggregated vocabulary table (NOT the corpus).
  2. MERGE LOOP (driver, over the bounded vocabulary): ``num_merges``
     rounds of count-adjacent-pairs / pick-argmax / merge. Each round is
     O(total symbols in the vocab), independent of corpus size — merging
     on the weighted vocabulary is mathematically identical to merging
     on the raw token stream, which is why every real trainer does it.

Determinism / oracle contract (``oracle_sql()['bpe_merges']``): pair
counts are exact integers; the winning pair breaks ties by (count desc,
left asc, right asc); merge application is GREEDY NON-OVERLAPPING
LEFT-TO-RIGHT within each word — exactly the semantics of
``str.replace`` on a ``|l||r|``-wrapped symbol string, which is how the
DuckDB twin replays each round (``replace(s, '|l||r|', '|lr|')``).
'a a a a' merged on (a, a) becomes 'aa aa'; 'a a a' becomes 'aa a'.

``bpe_encode_token_counts`` is the apply side: per-document token and
subtoken counts under a FIXED merge table — a stateless ``map_batches``
pass that encodes each DISTINCT token once per batch through a per-task
cache (work bounded by vocabulary, not corpus), then segment-sums per
doc. Twin: the same merge chain replayed by chained ``replace``.

The reference engine (FabienRoger/Distributed-Text-Search) has no
tokenizer-training stage; this operator is part of the LLM-training-data
surface this repo adds (SURVEY.md "beyond the reference").
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from distributed_text_search_ray.config import AnalyzerConfig
from distributed_text_search_ray.functions.hashing import md5_u64
from distributed_text_search_ray.functions.tokenize import tokenizer_for
from distributed_text_search_ray.util import agg_rename

_COARSE = 64  # coarse hash groups for the vocabulary reduce


def word_counts(
    docs: ray.data.Dataset,
    analyzer: AnalyzerConfig | None = None,
    max_vocab: int | None = None,
) -> ray.data.Dataset:
    """(term, cnt) vocabulary of a (doc_id, content) corpus.

    Partial counts per batch (one dictionary-encode, one bincount — no
    per-occurrence Python work), reduced inside ``_COARSE`` md5 hash
    groups by an Arrow hash aggregate; each term lives in exactly one
    group, so the counts are exact. With ``max_vocab``, a distributed
    ``sort().limit()`` over the aggregated table keeps the top words by
    (cnt desc, term asc) — a shuffle of the vocabulary, never the corpus.
    """

    def partial(batch: pa.Table) -> pa.Table:
        from itertools import chain

        tk = tokenizer_for(analyzer)
        toks = [tk.tokens(t) for t in batch.column("content").to_pylist()]
        flat = list(chain.from_iterable(toks))
        if not flat:
            return pa.table(
                {
                    "term": pa.array([], type=pa.string()),
                    "c": pa.array([], type=pa.int64()),
                    "cg": pa.array([], type=pa.int64()),
                }
            )
        enc = pa.array(flat, type=pa.string()).dictionary_encode()
        vocab = enc.dictionary.to_pylist()
        c = np.bincount(
            enc.indices.to_numpy().astype(np.int64), minlength=len(vocab)
        )
        cg = [md5_u64(t) % _COARSE for t in vocab]
        return pa.table(
            {
                "term": pa.array(vocab, type=pa.string()),
                "c": pa.array(c, type=pa.int64()),
                "cg": pa.array(cg, type=pa.int64()),
            }
        )

    def reduce_group(g: pa.Table) -> pa.Table:
        return agg_rename(
            g.select(["term", "c"]).group_by("term").aggregate([("c", "sum")]),
            ["term"],
            [("c", "sum")],
            ["cnt"],
        )

    wc = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("cg")
        .map_groups(reduce_group, batch_format="pyarrow")
    )
    if max_vocab is not None:
        wc = wc.sort(["cnt", "term"], descending=[True, False]).limit(max_vocab)
    return wc


def _merge_word(sym: list[str], l: str, r: str) -> list[str]:
    """Greedy non-overlapping left-to-right merge of (l, r) in one word —
    identical to ``'|'+'||'.join(sym)+'|'`` followed by
    ``str.replace('|l||r|', '|lr|')`` (the twin's semantics)."""
    out = []
    i, n = 0, len(sym)
    while i < n:
        if i + 1 < n and sym[i] == l and sym[i + 1] == r:
            out.append(l + r)
            i += 2
        else:
            out.append(sym[i])
            i += 1
    return out


def bpe_train(
    docs: ray.data.Dataset,
    num_merges: int = 6,
    analyzer: AnalyzerConfig | None = None,
    max_vocab: int | None = 100_000,
) -> pa.Table:
    """Learn the top ``num_merges`` BPE merge operations.

    Returns (rank, lhs, rhs, pair_count): rank 1.. in learning order,
    pair_count the exact corpus-weighted adjacent-pair count at selection
    time. Stops early (fewer rows) if the vocabulary runs out of pairs.

    Driver state is O(max_vocab) — the word-count table — per the
    bounded-vocabulary contract shared with the unigram LM operators
    (pipelines/textstats.py). The merge loop touches only that table.
    """
    vocab_rows = word_counts(docs, analyzer, max_vocab=max_vocab).take_all()
    words: list[tuple[list[str], int]] = [
        (list(r["term"]), int(r["cnt"])) for r in vocab_rows
    ]
    out_rank, out_l, out_r, out_c = [], [], [], []
    for rank in range(1, num_merges + 1):
        from collections import Counter

        pairs: Counter = Counter()
        for sym, cnt in words:
            for a, b in zip(sym, sym[1:]):
                pairs[(a, b)] += cnt
        if not pairs:
            break
        # argmax with (count desc, lhs asc, rhs asc) tie-break — ORDER BY
        # c DESC, lhs, rhs LIMIT 1 in the twin
        (l, r), c = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        out_rank.append(rank)
        out_l.append(l)
        out_r.append(r)
        out_c.append(c)
        words = [(_merge_word(sym, l, r), cnt) for sym, cnt in words]
    return pa.table(
        {
            "rank": pa.array(out_rank, type=pa.int64()),
            "lhs": pa.array(out_l, type=pa.string()),
            "rhs": pa.array(out_r, type=pa.string()),
            "pair_count": pa.array(out_c, type=pa.int64()),
        }
    )


class _BpeCountEncoder:
    """Task-stage encoder: per-doc token/subtoken counts under fixed merges.

    The per-word encode cache lives on the instance, so each DISTINCT token
    is encoded at most once per task (vocabulary-bounded work); per-doc
    sums are one vectorized segment reduce.
    """

    def __init__(self, merges: list[tuple[str, str]], analyzer):
        self.merges = merges
        self.analyzer = analyzer
        self.cache: dict[str, int] = {}

    def _n_sub(self, word: str) -> int:
        n = self.cache.get(word)
        if n is None:
            sym = list(word)
            for l, r in self.merges:
                sym = _merge_word(sym, l, r)
            n = self.cache[word] = len(sym)
        return n

    def __call__(self, batch: pa.Table) -> pa.Table:
        from itertools import chain

        texts = batch.column("content").to_pylist()
        doc_ids = batch.column("doc_id").to_numpy()
        tk = tokenizer_for(self.analyzer)
        toks = [tk.tokens(t) for t in texts]
        counts = np.fromiter(
            (len(x) for x in toks), dtype=np.int64, count=len(toks)
        )
        if int(counts.sum()) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "n_tokens": pa.array([], type=pa.int64()),
                    "n_subtokens": pa.array([], type=pa.int64()),
                }
            )
        enc = pa.array(
            list(chain.from_iterable(toks)), type=pa.string()
        ).dictionary_encode()
        codes = enc.indices.to_numpy().astype(np.int64)
        sub_per_distinct = np.fromiter(
            (self._n_sub(w) for w in enc.dictionary.to_pylist()),
            dtype=np.int64,
            count=len(enc.dictionary),
        )
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
        n_sub = np.bincount(
            doc_idx, weights=sub_per_distinct[codes], minlength=len(texts)
        ).astype(np.int64)
        keep = counts > 0
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[keep], type=pa.int64()),
                "n_tokens": pa.array(counts[keep], type=pa.int64()),
                "n_subtokens": pa.array(n_sub[keep], type=pa.int64()),
            }
        )


def bpe_encode_token_counts(
    docs: ray.data.Dataset,
    merges: pa.Table | list[tuple[str, str]],
    analyzer: AnalyzerConfig | None = None,
) -> ray.data.Dataset:
    """(doc_id, n_tokens, n_subtokens) under a fixed merge table.

    ``merges`` is a ``bpe_train`` output (or a plain (lhs, rhs) list) in
    rank order; zero-token docs are omitted (twin inner-joins through the
    token stream).
    """
    if isinstance(merges, pa.Table):
        pairs = list(
            zip(
                merges.column("lhs").to_pylist(),
                merges.column("rhs").to_pylist(),
            )
        )
    else:
        pairs = list(merges)
    return docs.map_batches(_BpeCountEncoder(pairs, analyzer), batch_format="pyarrow")
