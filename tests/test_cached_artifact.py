"""Crash-proof cache helper (`__ray_entry__._cached_artifact`) — VERDICT r4
items 1+8: round 4's only red driver row (`bm25_topk_upserted`) was a stale/
half-written cache dir trusted by a marker file. The helper must (a) build
into out_dir+'.tmp' and publish by atomic rename, (b) validate marker hits
before trusting them, (c) rebuild transparently after artificial corruption,
and (d) raise one-line stage-named errors (never dump table contents)."""

import json
import logging
import os

import pytest

from __ray_entry__ import _cached_artifact, _validate_index, _validate_parquet_dir


def _mk_build(calls, payload="v1"):
    def build(tmp):
        os.makedirs(tmp)
        with open(os.path.join(tmp, "data.txt"), "w") as f:
            f.write(payload)
        calls.append(tmp)

    return build


def _validate_data(d):
    with open(os.path.join(d, "data.txt")) as f:
        if f.read() == "":
            raise RuntimeError("empty artifact")


def test_cold_build_publishes_atomically(tmp_path):
    out = str(tmp_path / "art")
    calls = []
    got = _cached_artifact(out, {"v": 1}, _mk_build(calls), _validate_data)
    assert got == out
    assert calls == [out + ".tmp"]  # built in tmp, renamed into place
    assert not os.path.exists(out + ".tmp")
    assert open(os.path.join(out, "data.txt")).read() == "v1"
    with open(out + ".json") as f:
        assert json.load(f) == {"v": 1}


def test_marker_hit_skips_rebuild(tmp_path):
    out = str(tmp_path / "art")
    calls = []
    _cached_artifact(out, {"v": 1}, _mk_build(calls), _validate_data)
    _cached_artifact(out, {"v": 1}, _mk_build(calls), _validate_data)
    assert len(calls) == 1


def test_sig_change_rebuilds(tmp_path):
    out = str(tmp_path / "art")
    calls = []
    _cached_artifact(out, {"v": 1}, _mk_build(calls), _validate_data)
    _cached_artifact(out, {"v": 2}, _mk_build(calls), _validate_data)
    assert len(calls) == 2


def test_corrupted_artifact_is_rebuilt_despite_marker(tmp_path, caplog):
    """The r4 failure shape: marker says valid, dir is corrupt. The
    validator's error is logged as one line before the rebuild."""
    out = str(tmp_path / "art")
    calls = []
    _cached_artifact(out, {"v": 1}, _mk_build(calls), _validate_data)
    with open(os.path.join(out, "data.txt"), "w") as f:
        f.write("")  # corrupt: validator rejects empty payload

    def noisy(d):  # a remote-stack-sized message, its cause at the end
        if not os.path.getsize(os.path.join(d, "data.txt")):
            raise RuntimeError("remote frame\n" * 200 + "empty artifact")

    with caplog.at_level(logging.WARNING, logger="__ray_entry__"):
        got = _cached_artifact(out, {"v": 1}, _mk_build(calls), noisy)
    assert len(calls) == 2
    assert open(os.path.join(got, "data.txt")).read() == "v1"
    (rec,) = [r for r in caplog.records if r.name == "__ray_entry__"]
    line = rec.getMessage()
    assert "'art' failed validation" in line and "\n" not in line
    assert "RuntimeError: remote frame" in line and " ... " in line
    assert line.endswith("empty artifact") and len(line) < 500


def test_corrupt_marker_json_is_rebuilt(tmp_path):
    out = str(tmp_path / "art")
    calls = []
    _cached_artifact(out, {"v": 1}, _mk_build(calls), _validate_data)
    with open(out + ".json", "w") as f:
        f.write("{not json")
    _cached_artifact(out, {"v": 1}, _mk_build(calls), _validate_data)
    assert len(calls) == 2


def test_stale_tmp_from_crash_is_purged(tmp_path):
    out = str(tmp_path / "art")
    os.makedirs(out + ".tmp")  # leftover from a killed build
    with open(os.path.join(out + ".tmp", "junk"), "w") as f:
        f.write("partial")
    calls = []
    got = _cached_artifact(out, {"v": 1}, _mk_build(calls), _validate_data)
    assert not os.path.exists(os.path.join(got, "junk"))
    assert open(os.path.join(got, "data.txt")).read() == "v1"


def test_build_failure_raises_one_line_named_error(tmp_path):
    out = str(tmp_path / "art")

    def bad_build(tmp):
        raise ValueError("boom " + "doc content " * 200)

    with pytest.raises(RuntimeError) as ei:
        _cached_artifact(out, {"v": 1}, bad_build, _validate_data)
    msg = str(ei.value)
    assert "art" in msg and "ValueError" in msg
    # truncated head+tail — no table-content dumps, no embedded newlines
    assert len(msg) < 500
    assert "\n" not in msg
    assert " ... " in msg  # both the head and the terminal cause survive
    # nothing published: no marker, no out_dir, no tmp
    assert not os.path.exists(out) and not os.path.exists(out + ".json")
    assert not os.path.exists(out + ".tmp")


def test_validation_failure_of_fresh_build_raises_and_publishes_nothing(tmp_path):
    out = str(tmp_path / "art")

    def empty_build(tmp):
        os.makedirs(tmp)
        with open(os.path.join(tmp, "data.txt"), "w") as f:
            f.write("")

    with pytest.raises(RuntimeError):
        _cached_artifact(out, {"v": 1}, empty_build, _validate_data)
    assert not os.path.exists(out) and not os.path.exists(out + ".json")


def test_scratch_dirs_are_cleaned(tmp_path):
    out = str(tmp_path / "art")
    scratch = str(tmp_path / "scratch")

    def build(tmp):
        os.makedirs(tmp)
        os.makedirs(scratch)
        with open(os.path.join(tmp, "data.txt"), "w") as f:
            f.write("v1")

    _cached_artifact(out, {"v": 1}, build, _validate_data, scratch_dirs=(scratch,))
    assert not os.path.exists(scratch)


def test_validate_parquet_dir_rejects_truncated_footer(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "pqdir"
    d.mkdir()
    pq.write_table(pa.table({"a": [1, 2, 3]}), d / "f0.parquet")
    _validate_parquet_dir(str(d))  # intact: passes
    sz = os.path.getsize(d / "f0.parquet")
    with open(d / "f0.parquet", "r+b") as f:
        f.truncate(sz // 2)
    with pytest.raises(Exception):
        _validate_parquet_dir(str(d))
    (d / "f0.parquet").unlink()
    with pytest.raises(RuntimeError):
        _validate_parquet_dir(str(d))  # empty dir rejected too


def test_validate_index_catches_flipped_segment(built_index_r3, tmp_path):
    """End-to-end: the index validator used on marker hits rejects a
    corrupted clone of a real built index (and passes the intact one)."""
    import glob
    import shutil

    _, index_dir = built_index_r3
    _validate_index(index_dir)
    clone = str(tmp_path / "clone")
    shutil.copytree(index_dir, clone)
    seg = sorted(glob.glob(os.path.join(clone, "segments", "part=*", "*.bin")))[0]
    with open(seg, "r+b") as f:
        f.truncate(max(0, os.path.getsize(seg) // 2))
    with pytest.raises(RuntimeError):
        _validate_index(clone)
