"""Small shared helpers."""

from __future__ import annotations

import math

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


def resolve_concurrency(concurrency=None):
    """Default actor-pool sizing for the stages that keep actors — those
    whose state is a model, a compiled query set or a writer (``ann``,
    ``multimodal``, ``boolquery.percolate``, ``sources.sink``); index query
    stages run as tasks (``stages.index_stage``). Autoscales between 1 and
    the cluster CPU count so a single stage never reserves every CPU (which
    would starve the read/write stages and serialize the pipeline)."""
    if concurrency is not None:
        return concurrency
    import ray

    try:
        n = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        n = 4
    return (1, max(2, n))


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
