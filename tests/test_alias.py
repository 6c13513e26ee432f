"""Index aliases: atomic blue/green swap of the serving index.

Contract: a query task resolves an alias path when it starts and serves the
index the alias pointed at then (a task already running finishes on its
generation; the next one sees a swap); ``set_alias`` re-points via
os.replace so a reader never sees a torn file; swapping to the compacted /
upserted sibling changes results exactly as querying it directly would.
Every index-reading entry point accepts the alias path in place of the dir.
"""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from distributed_text_search_ray.config import IndexConfig
from distributed_text_search_ray.pipelines.build import build_index
from distributed_text_search_ray.pipelines.merge import upsert_docs
from distributed_text_search_ray.pipelines.search import fuzzy_term_search, search_topk
from distributed_text_search_ray.stages.executor import load_meta
from distributed_text_search_ray.state.alias import resolve_index, set_alias


@pytest.fixture(scope="module")
def two_indexes(code_corpus, tmp_path_factory):
    """The full corpus index and a half-corpus index (visibly different
    results) — stand-ins for blue/green generations."""
    from tests.conftest import corpus_docs

    corpus_dir, _ = code_corpus
    root = tmp_path_factory.mktemp("alias")
    blue = str(root / "blue")
    build_index(corpus_dir, blue, IndexConfig(num_partitions=4))

    docs = [(d, c) for d, c in corpus_docs(corpus_dir) if d % 2 == 0]
    cdir = str(root / "half_corpus")
    os.makedirs(cdir)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
                "content": pa.array([c for _, c in docs], type=pa.string()),
            }
        ),
        os.path.join(cdir, "shard-0.parquet"),
    )
    green = str(root / "green")
    build_index(cdir, green, IndexConfig(num_partitions=4))
    return str(root / "serving"), blue, green


def _rows(index_path):
    return sorted(
        (r["query_id"], r["rank"], r["doc_id"], r["score"])
        for r in search_topk(index_path, [(0, "def data")], topk=5).take_all()
    )


def test_alias_resolves_and_swaps(two_indexes):
    alias, blue, green = two_indexes
    path = set_alias(alias, blue)
    assert path.endswith(".alias.json") and resolve_index(alias) == blue
    assert _rows(alias) == _rows(blue)

    set_alias(alias, green)  # atomic re-point
    assert resolve_index(alias) == green
    got = _rows(alias)
    assert got == _rows(green) and got != _rows(blue)
    # the alias file is always complete JSON (no torn write artifacts)
    with open(path) as f:
        assert json.load(f)["index_dir"] == green
    assert not os.path.exists(path + ".tmp")


def test_alias_rejects_unbuilt_target(two_indexes, tmp_path):
    alias, _, _ = two_indexes
    with pytest.raises(ValueError, match="index_meta"):
        set_alias(alias, str(tmp_path / "nope"))


def test_plain_dirs_pass_through(two_indexes):
    _, blue, _ = two_indexes
    assert resolve_index(blue) == blue


def test_cli_alias_roundtrip(two_indexes, capsys):
    from distributed_text_search_ray.cli import main

    alias, blue, _ = two_indexes
    assert main(["alias", alias, blue]) in (0, None)
    assert main(["alias", alias]) in (0, None)
    out = [ln for ln in capsys.readouterr().out.strip().splitlines() if ln]
    assert out[-1] == blue


def test_fuzzy_term_search_through_alias(two_indexes):
    """The fuzzy stage opens the term dictionary of the alias target."""
    alias, _, green = two_indexes
    set_alias(alias, green)
    patterns = [(0, "dat", 1), (1, "valu", 1), (2, "retrn", 2)]

    def stats(path):
        rows = fuzzy_term_search(path, patterns).take_all()
        return sorted(tuple(r.values()) for r in rows)

    got = stats(alias)
    assert got == stats(green) and len(got) == len(patterns)


def test_upsert_docs_through_alias(two_indexes, tmp_path):
    """upsert_docs takes its base index from the alias target."""
    alias, _, green = two_indexes
    set_alias(alias, green)
    replaced = _rows(green)[0][2]
    inserted = (1 << 40) + 1
    delta = tmp_path / "delta"
    delta.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([replaced, inserted], type=pa.int64()),
                "content": ["zqxplanted alpha", "zqxplanted beta"],
            }
        ),
        delta / "shard-0.parquet",
    )
    out = str(tmp_path / "upserted")
    upsert_docs(alias, str(delta), out)
    hits = {r["doc_id"] for r in search_topk(out, [(0, "zqxplanted")], topk=5).take_all()}
    assert hits == {replaced, inserted}
    assert load_meta(out)["N"] == load_meta(green)["N"] + 1
