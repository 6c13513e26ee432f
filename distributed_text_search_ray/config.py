"""Engine configuration.

The reference's tuning surface is six env vars read by ``get_env_int``
(reference ``src/flexible_mpi.c:25-33`` with defaults at ``:308-313``); ours is
two small dataclasses recorded verbatim in the index manifest so the query side
always uses the identical analyzer (SURVEY.md section 2.10).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class AnalyzerConfig:
    """Tokenizer configuration.

    The default analyzer lowercases and extracts maximal runs of
    ``[a-z0-9_]`` — code-aware enough to keep identifiers like
    ``snake_case_names`` whole, and exactly expressible in ANSI SQL
    (``string_split_regex(lower(text), '[^a-z0-9_]+')``) so the DuckDB
    correctness oracle can replicate it bit-for-bit.
    """

    lowercase: bool = True
    token_pattern: str = "[a-z0-9_]+"
    # "none" or "s": Harman's S-stemmer (-ies/-es/-s plural stripping) —
    # chosen over heavier stemmers because its three rules are exactly
    # expressible in SQL CASE/LIKE, keeping stemmed pipelines oracle-checkable
    stem: str = "none"
    # dropped AFTER stemming; () disables. SQL twin: list_filter(.., t -> t
    # NOT IN (...)). Tuple (not list) so the config stays hashable/frozen
    stopwords: tuple = ()
    # code-subtoken mode (GitHub-code-search-style identifier splitting):
    # BEFORE lowercasing, inject '_' at every lower/digit->Upper camel
    # boundary (one non-overlapping pass of ([a-z0-9])([A-Z]) -> \1_\2,
    # identical semantics in Python re and DuckDB's RE2), then tokenize on
    # runs of [a-z0-9] so '_' acts as a separator — `parseHTTPConfig` ->
    # [parse, httpconfig] (acronym tails stay fused, documented),
    # `snake_case` -> [snake, case]. SQL twin:
    # string_split_regex(lower(regexp_replace(col,
    #   '([a-z0-9])([A-Z])', '\1_\2', 'g')), '[^a-z0-9]+')
    split_identifiers: bool = False
    # character-n-gram mode (Zoekt / Google-Code-Search-style trigram
    # indexing): when > 0, tokens are ALL overlapping runs of n characters
    # of the (lowercased) raw text — including whitespace and punctuation —
    # and every other analyzer knob is ignored. Token position i == char
    # offset i, so a positional (v4) build turns substring search into a
    # phrase-adjacency chain answered purely from the index. SQL twin of
    # the token stream: substring(lower(col), i, n) over
    # unnest(generate_series(1, length(col)-n+1))
    char_ngrams: int = 0

    def fingerprint(self) -> str:
        # later-added fields are dropped from the hash while at their
        # behavior-neutral defaults, so a default analyzer keeps the
        # fingerprint it had before the field existed — adding stem/stopwords
        # must not invalidate every pre-existing index/shard manifest
        d = asdict(self)
        if d.get("stem") == "none":
            d.pop("stem", None)
        if not d.get("stopwords"):
            d.pop("stopwords", None)
        if not d.get("split_identifiers"):
            d.pop("split_identifiers", None)
        if not d.get("char_ngrams"):
            d.pop("char_ngrams", None)
        return hashlib.sha256(
            json.dumps(d, sort_keys=True).encode()
        ).hexdigest()[:16]


@dataclass(frozen=True)
class IndexConfig:
    """Index build + query configuration.

    ``num_partitions`` is the explicit term-hash partition count (the only wide
    shuffle in the build, SURVEY.md section 2.11/P1-P3). ``salt_buckets`` is the
    fan-out for heavy-hitter terms: a term whose document frequency exceeds
    ``salt_df_threshold`` (as a fraction of N) has its postings split across
    ``salt_buckets`` partitions keyed by ``hash(doc_id)`` (SURVEY.md section 4,
    "salt hot terms"); global df for salted terms is re-aggregated in the
    finalize step so BM25 idf stays exact.
    """

    num_partitions: int = 16
    salt_buckets: int = 4
    salt_df_threshold: float = 0.25  # fraction of N above which a term is "hot"
    heavy_hitter_track: int = 512    # per-batch top-M terms tracked in the stats pass
    block_size: int = 128            # docs.bin doc-id delta-restart interval (postings)
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    analyzer: AnalyzerConfig = field(default_factory=AnalyzerConfig)
    # doc-metadata columns copied into a per-shard attribute sidecar at build
    # (attributes/<shard>.attrs.parquet) for filtered search; columns absent
    # from a shard's schema are skipped (recorded in the shard manifest)
    attribute_columns: tuple = ()
    # store token positions per posting (a 4th delta+varbyte stream,
    # pos.bin) so phrase queries answer purely from the index; ~doubles
    # pair/segment bytes, so it is opt-in
    store_positions: bool = False

    def fingerprint(self) -> str:
        d = asdict(self)
        d["__format_version__"] = INDEX_FORMAT_VERSION
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]


# bumped whenever the on-disk segment/manifest layout changes, so an index
# built by an older layout is never silently reused on resume
# v3: doc-id delta restarts every block_size postings (the per-block
# columns v3 added to terms.parquet are no longer written; readers ignore
# them, so both forms are v3)
# v4: optional positional stream (pos.bin + pos_off/pos_nbytes term
# columns) when IndexConfig.store_positions is set
INDEX_FORMAT_VERSION = 4
