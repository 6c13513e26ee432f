"""Trigram substring index: indexed plan vs scan plan vs Python brute force.

Substring search = phrase adjacency over a positional char-trigram index
(token position == char offset), so the differential strategy is the same
as the phrase suite: every plan must agree exactly, including overlapping
occurrence counts.
"""

import re

import pytest

from distributed_text_search_ray.config import AnalyzerConfig
from distributed_text_search_ray.functions.tokenize import Tokenizer
from distributed_text_search_ray.pipelines.build import build_index
from distributed_text_search_ray.pipelines.substring import (
    substring_match_counts,
    substring_search,
    trigram_index_config,
)
from tests.conftest import corpus_docs

NEEDLES = [
    (0, "def "),            # hot (salted) trigrams
    (1, "import"),
    (2, "zzz-not-here"),    # no match
    (3, "e s"),             # crosses token boundaries (space inside)
    (4, "DEF "),            # case-insensitive == needle 0
    (5, "self."),           # punctuation in needle
]


@pytest.fixture(scope="module")
def trigram_index(code_corpus, tmp_path_factory):
    corpus_dir, _ = code_corpus
    index_dir = str(tmp_path_factory.mktemp("tri") / "idx")
    cfg = trigram_index_config(num_partitions=8, salt_buckets=3, salt_df_threshold=0.25)
    rep = build_index(corpus_dir, index_dir, cfg)
    assert rep["complete"]
    return corpus_dir, index_dir


def _brute(corpus_dir, needles):
    docs = corpus_docs(corpus_dir)
    out = []
    for qid, ndl in needles:
        pat = re.compile("(?=" + re.escape(ndl.lower()) + ")")
        for d, t in docs:
            c = len(pat.findall(t.lower()))
            if c:
                out.append((qid, d, c))
    return sorted(out)


def _key(rows):
    return sorted((r["needle_id"], r["doc_id"], r["n_occurrences"]) for r in rows)


def test_indexed_matches_brute_force(trigram_index):
    corpus_dir, index_dir = trigram_index
    got = substring_search(index_dir, NEEDLES).take_all()
    want = _brute(corpus_dir, NEEDLES)
    assert _key(got) == want
    assert want, "test corpus must contain some needles"


def test_scan_plan_is_result_identical(trigram_index):
    from distributed_text_search_ray.sources.corpus import read_corpus

    corpus_dir, index_dir = trigram_index
    got = substring_search(index_dir, NEEDLES).take_all()
    scan = substring_match_counts(read_corpus(corpus_dir), NEEDLES).take_all()
    assert _key(got) == _key(scan)


def test_case_insensitive(trigram_index):
    _, index_dir = trigram_index
    rows = substring_search(index_dir, [(0, "def "), (4, "DEF ")]).take_all()
    a = sorted((r["doc_id"], r["n_occurrences"]) for r in rows if r["needle_id"] == 0)
    b = sorted((r["doc_id"], r["n_occurrences"]) for r in rows if r["needle_id"] == 4)
    assert a == b and a


def test_overlapping_occurrences_counted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    corpus = tmp_path / "c"
    corpus.mkdir()
    pq.write_table(
        pa.table({"doc_id": [1, 2], "content": ["aaaaa", "ababab"]}),
        str(corpus / "part0.parquet"),
    )
    idx = str(tmp_path / "idx")
    build_index(str(corpus), idx, trigram_index_config(num_partitions=2))
    rows = substring_search(idx, [(0, "aaa"), (1, "abab")]).take_all()
    got = {(r["needle_id"], r["doc_id"]): r["n_occurrences"] for r in rows}
    assert got == {(0, 1): 3, (1, 2): 2}  # overlapping starts


def test_no_needles_give_typed_empty_output(trigram_index):
    from distributed_text_search_ray.pipelines.substring import OUT_SCHEMA
    from distributed_text_search_ray.sources.corpus import read_corpus
    from distributed_text_search_ray.util import collect_table

    corpus_dir, index_dir = trigram_index
    for ds in (
        substring_search(index_dir, []),
        substring_match_counts(read_corpus(corpus_dir), []),
    ):
        got = collect_table(ds)
        assert got.num_rows == 0
        assert got.schema == OUT_SCHEMA


def test_empty_needle_is_rejected_by_the_scan_plan(trigram_index):
    from distributed_text_search_ray.sources.corpus import read_corpus

    corpus_dir, _ = trigram_index
    with pytest.raises(ValueError, match=r"empty needle \(id 3\)"):
        substring_match_counts(read_corpus(corpus_dir), [(0, "def"), (3, "")])


def test_short_needle_raises_on_indexed_plan_but_scans(trigram_index):
    from distributed_text_search_ray.sources.corpus import read_corpus

    corpus_dir, index_dir = trigram_index
    with pytest.raises(Exception, match="shorter than"):
        substring_search(index_dir, [(0, "ab")]).take_all()
    rows = substring_match_counts(read_corpus(corpus_dir), [(0, "de")]).take_all()
    assert rows  # the scan twin serves short needles


def test_term_index_rejected(code_corpus, tmp_path):
    from distributed_text_search_ray.config import IndexConfig

    corpus_dir, _ = code_corpus
    idx = str(tmp_path / "term_idx")
    build_index(corpus_dir, idx, IndexConfig(num_partitions=4))
    with pytest.raises(Exception, match="char-ngram"):
        substring_search(idx, [(0, "abc")]).take_all()


def test_respects_tombstones(trigram_index, tmp_path):
    import shutil

    from distributed_text_search_ray.pipelines.build import delete_docs

    corpus_dir, index_dir = trigram_index
    rows = substring_search(index_dir, [(0, "import")]).take_all()
    assert rows
    victim = rows[0]["doc_id"]
    idx2 = str(tmp_path / "idx2")
    shutil.copytree(index_dir, idx2)
    delete_docs(idx2, [victim])
    after = substring_search(idx2, [(0, "import")]).take_all()
    assert victim not in {r["doc_id"] for r in after}
    keep = {(r["doc_id"], r["n_occurrences"]) for r in rows if r["doc_id"] != victim}
    assert {(r["doc_id"], r["n_occurrences"]) for r in after} == keep


def test_char_ngram_tokenizer_positions_are_offsets():
    tk = Tokenizer(AnalyzerConfig(char_ngrams=3))
    t = "Def foo(x): pass"
    toks = tk.tokens(t)
    assert len(toks) == len(t) - 2
    for i, g in enumerate(toks):
        assert g == t.lower()[i : i + 3]
