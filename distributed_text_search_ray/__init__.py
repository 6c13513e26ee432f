"""Ray-Data-native full-text search engine.

A brand-new inverted-index + BM25 query engine with the query capabilities of
FabienRoger/Distributed-Text-Search (multi-pattern exact and Levenshtein-bounded
fuzzy search over a distributed text corpus), built Ray-Data-first:

- index build: ``ray.data.read_parquet`` -> ``map_batches`` tokenization over
  zero-copy Arrow batches -> explicit term-hash partitioning (salted for skewed
  terms) -> ``groupby(part).map_groups`` into delta-encoded, varbyte-compressed
  posting segments with per-block max-score metadata and per-partition lineage
  manifests (resumable);
- query: executors run as Ray Data tasks (``stages.index_stage``) over each
  worker's cached view of the current index generation, answering top-k BM25
  with optional block-max WAND pruning, and fuzzy matching via
  Levenshtein-banded expansion over the sorted term dictionary;
- conformance: a pure single-node oracle replicating the reference's windowed
  approximate-match semantics (see SURVEY.md section 8) diff-tested in pytest.

Reference semantics citations use ``file:line`` into /root/reference.
"""

from distributed_text_search_ray.config import AnalyzerConfig, IndexConfig

__all__ = ["AnalyzerConfig", "IndexConfig"]
__version__ = "0.1.0"
