"""Small shared helpers."""

from __future__ import annotations

import math
import os
import sys

import numpy as np


def round_half_away(x, ndigits: int = 6):
    """Round half away from zero, the way DuckDB's ROUND does (round(x*10^n)
    / 10^n in float64) — NOT Python's banker's rounding. Used for every float
    column that a SQL oracle reproduces, so both sides emit identical doubles.
    Accepts scalars or numpy arrays."""
    # DuckDB computes std::round(x * 10^n) / 10^n: the scaled value rounds
    # half AWAY from zero on its true float value. The classic floor(ax+0.5)
    # shortcut is wrong twice at the edges — ax+0.5 is inexact for ax with
    # ulp >= 1 (floor(2^52+1 + 0.5) lands on 2^52+2), and it rounds UP the
    # largest double below 0.5 (0.49999999999999994+0.5 == 1.0) — so round
    # via floor(ax) + (frac >= 0.5), which is exact in both regimes
    # (hypothesis-found divergences, tests/test_oracle_kernels.py).
    p = 10.0**ndigits
    if isinstance(x, np.ndarray):
        with np.errstate(invalid="ignore", over="ignore"):
            ax = np.abs(x) * p
            f = np.floor(ax)
            r = np.sign(x) * (f + (ax - f >= 0.5)) / p
        # |x|*10^n overflowing to inf would round a finite huge value to inf
        # (DuckDB returns x unchanged — no fractional part at that magnitude)
        return np.where(np.isfinite(ax), r, x)
    ax = abs(x) * p
    if not math.isfinite(ax):
        return x  # huge finite, inf, or nan: DuckDB round returns x
    f = math.floor(ax)
    return math.copysign((f + 1 if ax - f >= 0.5 else f) / p, x)


def cluster_cpus() -> int:
    """The Ray cluster's CPU count; 1 before Ray starts, when the cluster
    size is not known yet."""
    import ray

    return int(ray.cluster_resources().get("CPU", 1)) if ray.is_initialized() else 1


def result_stream():
    """Send everything but a script's result to stderr: point fd 1 at fd 2
    and return a stream on the original stdout. Ray's raylet warnings (e.g.
    "N PYTHON worker processes have been started") reach the driver's
    stdout even with ``log_to_driver=False``, and a caller parses the
    script's stdout (``bench.py``: one JSON document; ``crosscheck.py``:
    one line per query). Call it before Ray starts."""
    sys.stdout.flush()
    result = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    return result


def collect_table(ds):
    """A bounded Dataset as one pyarrow Table, collected through its Arrow
    block refs rather than ``to_pandas``: Ray's ``to_pandas`` returns a
    column-less frame when every block is empty, even though the blocks
    carry a schema, and an empty result must keep its schema."""
    import pyarrow as pa
    import ray

    tables = [
        t if isinstance(t, pa.Table) else pa.table(t) for t in ray.get(ds.to_arrow_refs())
    ]
    non_empty = [t for t in tables if t.num_rows]
    if non_empty:
        return pa.concat_tables(non_empty)
    return tables[0] if tables else pa.table({})


def agg_rename(t, keys, aggs, names):
    """Canonicalize a pyarrow ``group_by().aggregate()`` output BY NAME.

    pyarrow names aggregate columns ``<col>_<fn>`` but has historically
    flipped whether key columns come first or last in the output (keys-first
    on the pinned 16.1.0, keys-last in older releases) — a positional
    ``rename_columns`` on that output would silently swap column meanings
    across a version change. Select the expected names explicitly, then
    rename the aggregate columns.

    ``keys``: group key column names; ``aggs``: the (col, fn) pairs passed to
    ``aggregate``; ``names``: output names for the aggregate columns, in the
    same order.
    """
    cols = list(keys) + [f"{c}_{fn}" for c, fn in aggs]
    return t.select(cols).rename_columns(list(keys) + list(names))
