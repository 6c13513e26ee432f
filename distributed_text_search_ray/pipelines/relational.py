"""Relational demo pipelines over the driver's TPC-H-ish tables.

These exist to exercise the engine's generic aggregate idioms (vectorized
pyarrow.compute per batch, partial aggregation before the shuffle) on
non-text data — the same patterns the index build uses (SURVEY.md A1).
"""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Mean, Sum

from distributed_text_search_ray.util import agg_rename


def sql_round(x: np.ndarray | pa.ChunkedArray, ndigits: int = 4) -> pa.Array:
    """Round exactly like DuckDB's ROUND (half away from zero, computed as
    round(x * 10^n) / 10^n in float64) so engine and SQL-oracle outputs are
    bit-identical. ``pc.round`` uses a different algorithm and can differ in
    the last ulp."""
    from distributed_text_search_ray.util import round_half_away

    v = x.to_numpy() if not isinstance(x, np.ndarray) else x
    return pa.array(
        round_half_away(np.asarray(v, dtype=np.float64), ndigits), type=pa.float64()
    )


def tpch_q1(sf_dir: str) -> ray.data.Dataset:
    """Pricing-summary aggregate over lineitem (TPC-H Q1 shape).

    Vectorized revenue/charge computation in Arrow, grouped aggregate with
    named outputs. Floats rounded to 4 dp post-aggregation for SQL parity.
    """
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )

    def derive(batch: pa.Table) -> pa.Table:
        keep = pc.less_equal(batch.column("l_shipdate"), pa.scalar(np.datetime64("1998-09-02", "us")))
        batch = batch.filter(keep)
        disc_price = pc.multiply(
            batch.column("l_extendedprice"), pc.subtract(pa.scalar(1.0), batch.column("l_discount"))
        )
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "l_quantity": batch.column("l_quantity"),
                "l_extendedprice": batch.column("l_extendedprice"),
                "disc_price": disc_price,
            }
        )

    agg = (
        ds.map_batches(derive, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("l_extendedprice", alias_name="sum_base_price"),
            Sum("disc_price", alias_name="sum_disc_price"),
            Mean("l_quantity", alias_name="avg_qty"),
            Count(alias_name="count_order"),
        )
    )

    def round_floats(batch: pa.Table) -> pa.Table:
        cols = {}
        for name in batch.column_names:
            col = batch.column(name)
            if pa.types.is_floating(col.type):
                col = sql_round(col, 4)
            cols[name] = col
        return pa.table(cols)

    return agg.map_batches(round_floats, batch_format="pyarrow")


def events_window_agg(sf_dir: str, window_minutes: int = 60) -> ray.data.Dataset:
    """Tumbling-window aggregate over the events stream table.

    Ray Data has no event-time windows; a tumbling window over a batch table
    is a plain grouped aggregate on floor(ts / width) (guide: "Streaming-
    shaped workloads"). Output: one row per (event_type, window_start).
    """
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type", "value"]
    )
    width_us = window_minutes * 60 * 1_000_000

    def add_window(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64())
        win = pc.multiply(pc.floor(pc.divide(ts, width_us)), width_us)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "window_start": pc.cast(pc.cast(win, pa.int64()), pa.timestamp("us")),
                "value": batch.column("value"),
            }
        )

    agg = (
        ds.map_batches(add_window, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(
            Count(alias_name="n_events"),
            Sum("value", alias_name="sum_value"),
        )
    )

    def round_floats(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.column_names.index("sum_value"),
            "sum_value",
            sql_round(batch.column("sum_value"), 4),
        )

    return agg.map_batches(round_floats, batch_format="pyarrow")


def events_hopping_window(
    sf_dir: str, width_minutes: int = 60, hop_minutes: int = 15
) -> ray.data.Dataset:
    """Hopping (sliding) window aggregate: overlapping windows of
    ``width`` starting every ``hop``. Each event belongs to width/hop
    windows; the fan-out is a vectorized per-batch expansion (np.repeat +
    tile of window starts), combined per batch BEFORE the shuffle so the
    groupby moves one row per (batch, event_type, window) — at scale the
    exchange grows with the number of windows, not width/hop times the
    event count. Output: (event_type, window_start, n_events, sum_value)
    with window_start in epoch seconds."""
    assert width_minutes % hop_minutes == 0
    fan = width_minutes // hop_minutes
    hop_s = hop_minutes * 60
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type", "value"]
    )

    def expand_and_combine(batch: pa.Table) -> pa.Table:
        import numpy as np

        ts_us = batch.column("ts").cast(pa.int64()).to_numpy()
        base = ts_us // 1_000_000 // hop_s  # hop index containing the event
        # window start hop-indices: base, base-1, ..., base-fan+1 (every
        # window [s, s+width) with s on a hop boundary and s <= ts < s+width)
        starts = (
            np.repeat(base, fan) - np.tile(np.arange(fan, dtype=np.int64), len(base))
        ) * hop_s
        etype = np.repeat(batch.column("event_type").to_numpy(zero_copy_only=False), fan)
        vals = np.repeat(batch.column("value").to_numpy(), fan)
        t = pa.table(
            {
                "event_type": pa.array(etype, type=pa.string()),
                "window_start": pa.array(starts, type=pa.int64()),
                "value": pa.array(vals, type=pa.float64()),
            }
        )
        # per-batch combine (partial aggregate) before the shuffle
        g = t.group_by(["event_type", "window_start"]).aggregate(
            [("value", "count"), ("value", "sum")]
        )
        return agg_rename(
            g,
            ["event_type", "window_start"],
            [("value", "count"), ("value", "sum")],
            ["n_part", "sum_part"],
        )

    agg = (
        ds.map_batches(expand_and_combine, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(
            Sum("n_part", alias_name="n_events"),
            Sum("sum_part", alias_name="sum_value"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "window_start": batch.column("window_start"),
                "n_events": batch.column("n_events"),
                "sum_value": sql_round(batch.column("sum_value"), 4),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def sessionize(sf_dir: str, gap_minutes: int = 30) -> ray.data.Dataset:
    """Session windows per user over the events stream table.

    Ray Data has no event-time sessions; per the streaming-shaped-workload
    pattern, partition by key and window inside ``groupby(key).map_groups``
    over the ts-sorted group. A new session starts when the gap to the
    previous event exceeds ``gap_minutes``. Output one row per session:
    (user_id, session_start (epoch s), n_events, sum_value 4dp).
    """
    import numpy as np

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts", "value"]
    )
    gap_us = gap_minutes * 60 * 1_000_000

    def per_user(g: pa.Table) -> pa.Table:
        g = g.sort_by([("ts", "ascending")])
        ts = g.column("ts").cast(pa.int64()).to_numpy()
        vals = g.column("value").to_numpy()
        user = g.column("user_id")[0].as_py()
        new_session = np.empty(len(ts), dtype=bool)
        new_session[0] = True
        np.greater(np.diff(ts), gap_us, out=new_session[1:])
        sid = np.cumsum(new_session) - 1
        n_sessions = int(sid[-1]) + 1
        starts = ts[new_session] // 1_000_000
        n_events = np.bincount(sid, minlength=n_sessions)
        sum_value = np.bincount(sid, weights=vals, minlength=n_sessions)
        return pa.table(
            {
                "user_id": pa.array([user] * n_sessions, type=pa.int64()),
                "session_start": pa.array(starts, type=pa.int64()),
                "n_events": pa.array(n_events, type=pa.int64()),
                "sum_value": sql_round(sum_value, 4),
            }
        )

    return ds.groupby("user_id").map_groups(per_user, batch_format="pyarrow")


def asof_join_latest(
    sf_dir: str, left_type: str = "purchase", right_type: str = "click"
) -> ray.data.Dataset:
    """As-of join over the events stream: each LEFT event gets the LATEST
    RIGHT event with right.ts <= left.ts for the same user (DuckDB
    ``ASOF JOIN`` semantics, inner — unmatched lefts drop).

    Ray Data has no as-of join; the composition is the keyed-window pattern:
    both sides union into one dataset with a side tag, partition by the join
    key with ``groupby(user_id)``, and resolve matches inside the group with
    one ``searchsorted`` over the ts-sorted right side — no per-row scans.
    Right rows are first deduped to one per (user, ts) (max event_id), which
    pins the otherwise-ambiguous equal-ts case to a deterministic winner on
    both the engine and oracle side.
    """
    import numpy as np

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )

    def tag(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(
            batch.column("event_type"), value_set=pa.array([left_type, right_type])
        )
        sub = batch.filter(keep)
        is_left = pc.equal(sub.column("event_type"), pa.scalar(left_type))
        return pa.table(
            {
                "user_id": sub.column("user_id"),
                "event_id": sub.column("event_id"),
                "tus": sub.column("ts").cast(pa.timestamp("us")).cast(pa.int64()),
                "value": sub.column("value"),
                "is_left": is_left,
            }
        )

    def per_user(g: pa.Table) -> pa.Table:
        user = g.column("user_id")[0].as_py()
        is_left = g.column("is_left").to_numpy(zero_copy_only=False)
        eid = g.column("event_id").to_numpy()
        tus = g.column("tus").to_numpy()
        val = g.column("value").to_numpy()
        L = np.flatnonzero(is_left)
        R = np.flatnonzero(~is_left)
        empty = pa.table(
            {
                "user_id": pa.array([], type=pa.int64()),
                "l_event_id": pa.array([], type=pa.int64()),
                "l_ts": pa.array([], type=pa.int64()),
                "l_value": pa.array([], type=pa.float64()),
                "r_event_id": pa.array([], type=pa.int64()),
                "r_ts": pa.array([], type=pa.int64()),
                "r_value": pa.array([], type=pa.float64()),
            }
        )
        if len(L) == 0 or len(R) == 0:
            return empty
        # right side: sort by (ts, event_id) and keep the LAST row per ts
        # (max event_id) — the deterministic equal-ts winner
        r_order = np.lexsort((eid[R], tus[R]))
        r_ts = tus[R][r_order]
        r_eid = eid[R][r_order]
        r_val = val[R][r_order]
        last = np.empty(len(r_ts), dtype=bool)
        last[-1] = True
        np.not_equal(r_ts[1:], r_ts[:-1], out=last[:-1])
        r_ts, r_eid, r_val = r_ts[last], r_eid[last], r_val[last]
        idx = np.searchsorted(r_ts, tus[L], side="right") - 1
        hit = idx >= 0
        if not hit.any():
            return empty
        Lh = L[hit]
        ih = idx[hit]
        return pa.table(
            {
                "user_id": pa.array(np.full(hit.sum(), user), type=pa.int64()),
                "l_event_id": pa.array(eid[Lh], type=pa.int64()),
                "l_ts": pa.array(tus[Lh], type=pa.int64()),
                "l_value": sql_round(val[Lh], 4),
                "r_event_id": pa.array(r_eid[ih], type=pa.int64()),
                "r_ts": pa.array(r_ts[ih], type=pa.int64()),
                "r_value": sql_round(r_val[ih], 4),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(per_user, batch_format="pyarrow")
    )


def range_join_window(
    sf_dir: str,
    left_type: str = "purchase",
    right_type: str = "click",
    window_minutes: int = 60,
) -> ray.data.Dataset:
    """Interval range join: every LEFT event pairs with ALL RIGHT events of
    the same user inside the trailing window (l.ts - W, l.ts].

    Ray Data has no range join; same keyed-window composition as
    :func:`asof_join_latest` but emitting the full per-left slice — two
    ``searchsorted`` bounds per left row, pair expansion fully vectorized
    (repeat + range concatenation), no per-row scans.
    """
    import numpy as np

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )
    w_us = window_minutes * 60 * 1_000_000

    def tag(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(
            batch.column("event_type"), value_set=pa.array([left_type, right_type])
        )
        sub = batch.filter(keep)
        return pa.table(
            {
                "user_id": sub.column("user_id"),
                "event_id": sub.column("event_id"),
                "tus": sub.column("ts").cast(pa.timestamp("us")).cast(pa.int64()),
                "is_left": pc.equal(sub.column("event_type"), pa.scalar(left_type)),
            }
        )

    def per_user(g: pa.Table) -> pa.Table:
        user = g.column("user_id")[0].as_py()
        is_left = g.column("is_left").to_numpy(zero_copy_only=False)
        eid = g.column("event_id").to_numpy()
        tus = g.column("tus").to_numpy()
        L = np.flatnonzero(is_left)
        R = np.flatnonzero(~is_left)
        if len(L) and len(R):
            r_order = np.lexsort((eid[R], tus[R]))
            r_ts, r_eid = tus[R][r_order], eid[R][r_order]
            lo = np.searchsorted(r_ts, tus[L] - w_us, side="right")
            hi = np.searchsorted(r_ts, tus[L], side="right")
            counts = hi - lo
            sel = counts > 0
            if sel.any():
                l_rep = np.repeat(L[sel], counts[sel])
                # ranges lo..hi per left, concatenated without a Python loop
                offs = np.concatenate(([0], np.cumsum(counts[sel])[:-1]))
                ridx = np.arange(int(counts[sel].sum())) - np.repeat(offs, counts[sel]) + np.repeat(lo[sel], counts[sel])
                return pa.table(
                    {
                        "user_id": pa.array(np.full(len(l_rep), user), type=pa.int64()),
                        "l_event_id": pa.array(eid[l_rep], type=pa.int64()),
                        "l_ts": pa.array(tus[l_rep], type=pa.int64()),
                        "r_event_id": pa.array(r_eid[ridx], type=pa.int64()),
                        "r_ts": pa.array(r_ts[ridx], type=pa.int64()),
                    }
                )
        return pa.table(
            {
                "user_id": pa.array([], type=pa.int64()),
                "l_event_id": pa.array([], type=pa.int64()),
                "l_ts": pa.array([], type=pa.int64()),
                "r_event_id": pa.array([], type=pa.int64()),
                "r_ts": pa.array([], type=pa.int64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(per_user, batch_format="pyarrow")
    )


def tpch_q3(sf_dir: str, cutoff: str = "1998-06-01", segment: str = "BUILDING", k: int = 10) -> ray.data.Dataset:
    """Shipping-priority top-k (TPC-H Q3 shape, adapted to the driver's
    column set — ``o_orderpriority`` stands in for ``o_shippriority``).

    Strategy mix (same rationale as ``joins.revenue_by_nation``):

    - customer is the small side — its BUILDING custkey set is collected
      once and applied as a broadcast ``np.searchsorted`` semi-filter on
      orders (at 10^9-customer scale swap this for ``joins.hash_join``;
      the filter itself stays map-side either way);
    - lineitem revenue is PRE-AGGREGATED per l_orderkey inside each batch
      before the one hash join, so the all-to-all moves one row per
      (batch, order) instead of one per lineitem;
    - final top-k is a distributed sort on the already-aggregated rows
      (bounded by the number of qualifying orders) + ``limit``.
    """
    import pyarrow.parquet as pq

    cut = pa.scalar(np.datetime64(cutoff, "us"))
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    keys = np.sort(
        cust.filter(pc.equal(cust.column("c_mktsegment"), segment))
        .column("c_custkey")
        .to_numpy()
    )

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    )

    def filter_orders(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less(batch.column("o_orderdate"), cut))
        ck = batch.column("o_custkey").to_numpy()
        pos = np.searchsorted(keys, ck)
        pos[pos == len(keys)] = 0
        hit = keys[pos] == ck if len(keys) else np.zeros(len(ck), dtype=bool)
        return batch.filter(pa.array(hit)).select(
            ["o_orderkey", "o_orderdate", "o_orderpriority"]
        )

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def partial_revenue(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater(batch.column("l_shipdate"), cut))
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        g = pa.table(
            {"l_orderkey": batch.column("l_orderkey"), "rev": rev}
        ).group_by("l_orderkey").aggregate([("rev", "sum")])
        return agg_rename(g, ["l_orderkey"], [("rev", "sum")], ["rev_part"])

    # final reduce via COARSE groups + vectorized reduceat, not
    # groupby(l_orderkey): Ray's sort-based aggregate pays per GROUP, and
    # qualifying orders are ~one group per row (measured 34 s of remote
    # wall in the Aggregate at sf0.1 vs <1 s for 32 coarse groups — the
    # same fix as the round-2 pair-reduce pipelines)
    def add_coarse(batch: pa.Table) -> pa.Table:
        cg = (batch.column("l_orderkey").to_numpy() % 32).astype(np.int64)
        return batch.append_column("cg", pa.array(cg))

    def reduce_orders(g: pa.Table) -> pa.Table:
        keys = g.column("l_orderkey").to_numpy()
        vals = g.column("rev_part").to_numpy()
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order]
        uk, starts = np.unique(keys, return_index=True)
        return pa.table(
            {
                "l_orderkey": pa.array(uk, type=pa.int64()),
                "revenue": pa.array(np.add.reduceat(vals, starts), type=pa.float64()),
            }
        )

    revenue = (
        lineitem.map_batches(partial_revenue, batch_format="pyarrow")
        .map_batches(add_coarse, batch_format="pyarrow")
        .groupby("cg")
        .map_groups(reduce_orders, batch_format="pyarrow")
    )

    joined = revenue.join(
        orders.map_batches(filter_orders, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=8,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    # round BEFORE ranking: distributed partial sums and the oracle's sum
    # differ in the last ulp, so ranking raw floats would break LIMIT-boundary
    # ties by fp noise instead of the l_orderkey tiebreak (the same contract
    # every top-k scorer here uses via round-then-rank)
    def round_rev(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "revenue": sql_round(batch.column("revenue"), 4),
                "o_orderdate": batch.column("o_orderdate"),
                "o_orderpriority": batch.column("o_orderpriority"),
            }
        )

    return (
        joined.map_batches(round_rev, batch_format="pyarrow")
        .sort(["revenue", "l_orderkey"], descending=[True, False])
        .limit(k)
    )


def tpch_q6(sf_dir: str, year: str = "1997") -> ray.data.Dataset:
    """Forecast-revenue single-scalar aggregate (TPC-H Q6 shape): pruned
    4-column read, vectorized filter, per-batch partial sum, one global
    reduce — the minimal filter->aggregate pipeline; no shuffle at all."""
    from ray.data.aggregate import Sum

    lo = pa.scalar(np.datetime64(f"{year}-01-01", "us"))
    hi = pa.scalar(np.datetime64(f"{int(year) + 1}-01-01", "us"))
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(batch.column("l_shipdate"), lo),
                pc.less(batch.column("l_shipdate"), hi),
            ),
            pc.and_(
                pc.and_(
                    pc.greater_equal(batch.column("l_discount"), pa.scalar(0.05)),
                    pc.less_equal(batch.column("l_discount"), pa.scalar(0.07)),
                ),
                pc.less(batch.column("l_quantity"), pa.scalar(24.0)),
            ),
        )
        batch = batch.filter(keep)
        rev = pc.multiply(batch.column("l_extendedprice"), batch.column("l_discount"))
        s = pc.sum(rev).as_py()
        return pa.table({"rev_part": pa.array([0.0 if s is None else s], type=pa.float64())})

    total = (
        ds.map_batches(partial, batch_format="pyarrow")
        .aggregate(Sum("rev_part", alias_name="revenue"))["revenue"]
    )
    from distributed_text_search_ray.util import round_half_away

    rounded = float(round_half_away(total, 4))
    return ray.data.from_arrow(
        pa.table({"revenue": pa.array([rounded], type=pa.float64())})
    )


def user_event_gaps(sf_dir: str) -> ray.data.Dataset:
    """Per-user inter-event gap statistics — the LAG()-window-function shape.

    Ray Data has no ordered window functions; the scale-correct expression
    is ``groupby(user_id).map_groups`` with an in-group ``np.lexsort``
    (groups are bounded by one user's events, so the sort never sees more
    than one user's history). Ties on ts break by event_id, matching the
    oracle's ``ORDER BY ts, event_id``. Users with < 2 events produce no
    row (their only LAG gap is NULL).

    Output: (user_id, n_gaps, avg_gap_s 4dp, max_gap_s 4dp).
    """
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts", "event_id"]
    )

    def per_user(g: pa.Table) -> pa.Table:
        ts = g.column("ts").cast(pa.int64()).to_numpy()
        eid = g.column("event_id").to_numpy()
        if len(ts) < 2:
            return pa.table(
                {
                    "user_id": pa.array([], type=pa.int64()),
                    "n_gaps": pa.array([], type=pa.int64()),
                    "avg_gap_s": pa.array([], type=pa.float64()),
                    "max_gap_s": pa.array([], type=pa.float64()),
                }
            )
        order = np.lexsort((eid, ts))
        gaps = np.diff(ts[order]) / 1e6
        return pa.table(
            {
                "user_id": pa.array([int(g.column("user_id")[0].as_py())], type=pa.int64()),
                "n_gaps": pa.array([len(gaps)], type=pa.int64()),
                "avg_gap_s": sql_round(np.array([float(np.mean(gaps))]), 4),
                "max_gap_s": sql_round(np.array([float(np.max(gaps))]), 4),
            }
        )

    return ds.groupby("user_id").map_groups(per_user, batch_format="pyarrow")


def _drop_null_nan(column: str):
    """Batch filter dropping null/NaN rows of ``column`` — the quantile
    operators' first stage. DuckDB ``quantile_disc`` skips NULLs the same
    way; NaN is treated as null here (documented divergence: DuckDB orders
    NaN above +inf). +/-inf rows are KEPT — they are legitimate orderable
    values that hold ranks; they are counted into rank offsets by the
    quantile operators and never reach the bin math."""

    def f(batch: pa.Table) -> pa.Table:
        v = batch.column(column).to_numpy(zero_copy_only=False)
        mask = ~np.isnan(v)
        if mask.all():
            return batch
        return batch.filter(pa.array(mask))

    return f


def _keep_finite(column: str):
    """Batch filter keeping only finite rows — the quantile operators'
    histogram/candidate passes run over this view so +/-inf never enters
    the ``(v - lo) / width`` bin computation (inf would become INT64_MIN)."""

    def f(batch: pa.Table) -> pa.Table:
        v = batch.column(column).to_numpy(zero_copy_only=False)
        mask = np.isfinite(v)
        if mask.all():
            return batch
        return batch.filter(pa.array(mask))

    return f


def float_quantiles(
    ds: ray.data.Dataset,
    column: str,
    qs: tuple[float, ...] = (0.25, 0.5, 0.75, 0.95),
    bins: int = 4096,
    max_candidate_rows: int = 2_000_000,
) -> ray.data.Dataset:
    """EXACT quantiles of an unbounded float column (DuckDB
    ``quantile_disc`` semantics: the element at rank ceil(q*N) of the
    sorted column) by DISTRIBUTED SELECTION — no global sort.

    Integer columns get exact order statistics from a value-indexed
    histogram (``textstats.token_length_quantiles``); floats need
    selection instead:

    - pass 1: (min, max, count) aggregate;
    - pass 2: fixed ``bins``-bucket histogram over [min, max] — each batch
      emits one bounded partial row, the driver sums (bins doubles, not
      rows);
    - pass 3: ONE filter pass collects only the rows falling in the few
      buckets that contain a requested rank; exact ranks are selected from
      that small candidate set.

    Cost: 3 streaming passes, driver state O(bins + candidates). The
    candidate set is ~N/bins per quantile for non-degenerate
    distributions. Pathological skew (one repeated value holding more than
    ``max_candidate_rows`` rows in a rank bucket) triggers ONE extra
    (min, max) refinement pass over the over-cap buckets: a single-valued
    bucket IS the quantile and resolves without collecting anything; only
    a bucket that is both over-cap AND multi-valued raises.

    Output: (q, value) — one row per requested quantile.

    Nulls and NaNs are EXCLUDED before any pass (matching DuckDB
    ``quantile_disc``'s null-skipping; NaN is treated as null — DuckDB
    itself orders NaN above +inf, the one documented divergence).
    +/-inf values are legitimate order statistics: they are counted into
    rank offsets in pass 1 (rank <= #(-inf) answers -inf; rank beyond the
    finite run answers +inf) and kept OUT of the bin math, which only ever
    sees finite values.
    """
    import math

    ds = ds.map_batches(_drop_null_nan(column), batch_format="pyarrow")

    def stats_partial(batch: pa.Table) -> pa.Table:
        v = batch.column(column).to_numpy()
        fin = v[np.isfinite(v)]
        return pa.table(
            {
                "fmin": pa.array([float(fin.min()) if fin.size else math.inf]),
                "fmax": pa.array([float(fin.max()) if fin.size else -math.inf]),
                "nf": pa.array([int(fin.size)], type=pa.int64()),
                "nneg": pa.array([int(np.count_nonzero(np.isneginf(v)))], type=pa.int64()),
                "npos": pa.array([int(np.count_nonzero(np.isposinf(v)))], type=pa.int64()),
            }
        )

    lo, hi, n_fin, n_neg, n_pos = math.inf, -math.inf, 0, 0, 0
    for r in ds.map_batches(stats_partial, batch_format="pyarrow").take_all():
        lo, hi = min(lo, r["fmin"]), max(hi, r["fmax"])
        n_fin += r["nf"]
        n_neg += r["nneg"]
        n_pos += r["npos"]
    n = n_fin + n_neg + n_pos
    if n == 0:
        return ray.data.from_arrow(
            pa.table({"q": pa.array([], type=pa.float64()), "value": pa.array([], type=pa.float64())})
        )
    ds = ds.map_batches(_keep_finite(column), batch_format="pyarrow")
    width = (hi - lo) / bins if hi > lo else 1.0

    def hist_partial(batch: pa.Table) -> pa.Table:
        v = batch.column(column).to_numpy()
        b = np.minimum(((v - lo) / width).astype(np.int64), bins - 1)
        h = np.bincount(b, minlength=bins)
        return pa.table({"h": pa.array([h.tolist()], type=pa.list_(pa.int64()))})

    partials = ds.map_batches(hist_partial, batch_format="pyarrow").take_all()
    hist = np.zeros(bins, dtype=np.int64)
    for r in partials:
        hist += np.asarray(r["h"], dtype=np.int64)
    cum = np.cumsum(hist)

    # ranks within the FINITE run only: rank r <= n_neg is -inf, rank past
    # n_neg + n_fin is +inf — neither needs a bucket
    ranks = sorted(
        {
            r - n_neg
            for r in (min(max(1, math.ceil(q * n)), n) for q in qs)
            if n_neg < r <= n_neg + n_fin
        }
    )
    need_bins = sorted({int(np.searchsorted(cum, r, side="left")) for r in ranks})
    resolved: dict[int, float] = {}
    if sum(int(hist[b]) for b in need_bins) > max_candidate_rows:
        # skew refinement: per over-cap bucket (min, max) in one pass; a
        # single-valued bucket resolves directly (the common degenerate case:
        # a default like 0.0 repeated for most of the column)
        big = sorted(b for b in need_bins if int(hist[b]) > max_candidate_rows)
        big_set = pa.array(big, type=pa.int64())

        def minmax_partial(batch: pa.Table) -> pa.Table:
            v = batch.column(column).to_numpy()
            b = np.minimum(((v - lo) / width).astype(np.int64), bins - 1)
            mask = pc.is_in(pa.array(b, type=pa.int64()), value_set=big_set).to_numpy(
                zero_copy_only=False
            )
            vv, bb = v[mask], b[mask]
            out_b, out_lo, out_hi = [], [], []
            for ub in np.unique(bb):
                m = bb == ub
                out_b.append(int(ub))
                out_lo.append(float(vv[m].min()))
                out_hi.append(float(vv[m].max()))
            return pa.table(
                {
                    "b": pa.array(out_b, type=pa.int64()),
                    "vmin": pa.array(out_lo, type=pa.float64()),
                    "vmax": pa.array(out_hi, type=pa.float64()),
                }
            )

        mm: dict[int, tuple[float, float]] = {}
        for r in ds.map_batches(minmax_partial, batch_format="pyarrow").take_all():
            b = int(r["b"])
            cur = mm.get(b)
            mm[b] = (
                min(r["vmin"], cur[0]) if cur else r["vmin"],
                max(r["vmax"], cur[1]) if cur else r["vmax"],
            )
        for b, (vmin, vmax) in mm.items():
            if vmin == vmax:
                resolved[b] = vmin
        need_bins = [b for b in need_bins if b not in resolved]
        if sum(int(hist[b]) for b in need_bins) > max_candidate_rows:
            raise ValueError(
                "degenerate value skew: an over-cap rank bucket is "
                "multi-valued; raise bins or max_candidate_rows"
            )
    need_set = pa.array(need_bins, type=pa.int64())

    def keep_candidates(batch: pa.Table) -> pa.Table:
        v = batch.column(column).to_numpy()
        b = np.minimum(((v - lo) / width).astype(np.int64), bins - 1)
        mask = pc.is_in(pa.array(b, type=pa.int64()), value_set=need_set)
        return pa.table({column: batch.column(column).filter(mask), "bin": pa.array(b[mask.to_numpy(zero_copy_only=False)], type=pa.int64())})

    cand = ds.map_batches(keep_candidates, batch_format="pyarrow").take_all()
    by_bin: dict[int, list[float]] = {}
    for r in cand:
        by_bin.setdefault(int(r["bin"]), []).append(float(r[column]))
    out_q, out_v = [], []
    for q in qs:
        r = min(max(1, math.ceil(q * n)), n)
        out_q.append(float(q))
        if r <= n_neg:
            out_v.append(-math.inf)
            continue
        if r > n_neg + n_fin:
            out_v.append(math.inf)
            continue
        rf = r - n_neg
        b = int(np.searchsorted(cum, rf, side="left"))
        if b in resolved:
            out_v.append(resolved[b])
            continue
        before = int(cum[b - 1]) if b else 0
        vals = np.sort(np.asarray(by_bin[b]))
        out_v.append(float(vals[rf - before - 1]))
    return ray.data.from_arrow(
        pa.table({"q": pa.array(out_q, type=pa.float64()), "value": pa.array(out_v, type=pa.float64())})
    )


def events_value_quantiles(sf_dir: str) -> ray.data.Dataset:
    """Exact float quantiles of events.value via distributed selection."""
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["value"])
    return float_quantiles(ds, "value")


def user_value_moving_avg(sf_dir: str, window: int = 3) -> ray.data.Dataset:
    """Per-user trailing moving average of ``value`` — the
    ``AVG() OVER (... ROWS BETWEEN w-1 PRECEDING AND CURRENT ROW)`` frame
    shape. Same bounded ``groupby(user_id).map_groups`` ordered-window
    pattern as ``user_event_gaps``; partial frames at the head average
    whatever exists. Sums accumulate oldest-first (matching the SQL
    window's frame order) so results are bit-identical pre-rounding.

    Output: (event_id, user_id, mov_avg 4dp).
    """
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts", "event_id", "value"]
    )

    def per_user(g: pa.Table) -> pa.Table:
        ts = g.column("ts").cast(pa.int64()).to_numpy()
        eid = g.column("event_id").to_numpy()
        val = g.column("value").to_numpy()
        order = np.lexsort((eid, ts))
        v = val[order]
        n = len(v)
        acc = np.zeros(n, dtype=np.float64)
        cnt = np.minimum(np.arange(n) + 1, window).astype(np.float64)
        # oldest-first accumulation per frame, vectorized across rows
        for off in range(window - 1, -1, -1):
            acc[off:] += v[: n - off] if off else v
        ma = acc / cnt
        return pa.table(
            {
                "event_id": pa.array(eid[order], type=pa.int64()),
                "user_id": g.column("user_id").take(pa.array(order)),
                "mov_avg": sql_round(ma, 4),
            }
        )

    return ds.groupby("user_id").map_groups(per_user, batch_format="pyarrow")


def grouped_float_quantiles(
    ds: ray.data.Dataset,
    group_col: str,
    column: str,
    qs: tuple[float, ...] = (0.25, 0.5, 0.75, 0.95),
    bins: int = 4096,
    max_candidate_rows: int = 2_000_000,
) -> ray.data.Dataset:
    """Per-group EXACT float quantiles — ``float_quantiles`` generalized to
    a partition key, same 3 streaming passes:

    1. per-group (min, max, count) via one grouped aggregate;
    2. per-group fixed-bin histograms — each batch emits one bounded
       partial row PER GROUP it sees, the driver sums (|groups| x bins);
    3. one filter pass collects only rows in rank-holding buckets of their
       own group.

    Driver state O(|groups| x bins + candidates) — independent of row
    count. Output: (group_col, q, value). Null/NaN values are excluded
    up-front (see ``_drop_null_nan``); +/-inf values hold ranks via
    per-group offsets exactly as in ``float_quantiles``.
    """
    import math

    ds = ds.map_batches(_drop_null_nan(column), batch_format="pyarrow")

    def gstats_partial(batch: pa.Table) -> pa.Table:
        gs = np.asarray(batch.column(group_col).to_pylist(), dtype=object)
        v = batch.column(column).to_numpy()
        out = {"g": [], "fmin": [], "fmax": [], "nf": [], "nneg": [], "npos": []}
        for g in np.unique(gs):
            vg = v[gs == g]
            fin = vg[np.isfinite(vg)]
            out["g"].append(g)
            out["fmin"].append(float(fin.min()) if fin.size else math.inf)
            out["fmax"].append(float(fin.max()) if fin.size else -math.inf)
            out["nf"].append(int(fin.size))
            out["nneg"].append(int(np.count_nonzero(np.isneginf(vg))))
            out["npos"].append(int(np.count_nonzero(np.isposinf(vg))))
        return pa.table(
            {
                "g": pa.array(out["g"]),
                "fmin": pa.array(out["fmin"], type=pa.float64()),
                "fmax": pa.array(out["fmax"], type=pa.float64()),
                "nf": pa.array(out["nf"], type=pa.int64()),
                "nneg": pa.array(out["nneg"], type=pa.int64()),
                "npos": pa.array(out["npos"], type=pa.int64()),
            }
        )

    # g -> [fmin, fmax, n_finite, n_neg_inf, n_pos_inf]
    gstats: dict = {}
    for r in ds.map_batches(gstats_partial, batch_format="pyarrow").take_all():
        cur = gstats.setdefault(r["g"], [math.inf, -math.inf, 0, 0, 0])
        cur[0] = min(cur[0], r["fmin"])
        cur[1] = max(cur[1], r["fmax"])
        cur[2] += r["nf"]
        cur[3] += r["nneg"]
        cur[4] += r["npos"]
    if not gstats:
        return ray.data.from_arrow(
            pa.table(
                {
                    group_col: pa.array([], type=pa.string()),
                    "q": pa.array([], type=pa.float64()),
                    "value": pa.array([], type=pa.float64()),
                }
            )
        )
    groups = sorted(gstats)
    gidx = {g: i for i, g in enumerate(groups)}
    lo = np.array([gstats[g][0] for g in groups])
    width = np.array([
        (gstats[g][1] - gstats[g][0]) / bins if gstats[g][1] > gstats[g][0] else 1.0
        for g in groups
    ])

    # histogram/candidate passes see only finite rows (groups whose values
    # are all +/-inf simply never appear in them)
    ds = ds.map_batches(_keep_finite(column), batch_format="pyarrow")

    def bin_of(gvals: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.minimum(((v - lo[gvals]) / width[gvals]).astype(np.int64), bins - 1)

    def hist_partial(batch: pa.Table) -> pa.Table:
        gs = batch.column(group_col).to_pylist()
        gv = np.fromiter((gidx[g] for g in gs), dtype=np.int64, count=len(gs))
        v = batch.column(column).to_numpy()
        b = bin_of(gv, v)
        out_g, out_h = [], []
        for gi in np.unique(gv):
            m = gv == gi
            out_g.append(groups[gi])
            out_h.append(np.bincount(b[m], minlength=bins).tolist())
        return pa.table(
            {
                group_col: pa.array(out_g),
                "h": pa.array(out_h, type=pa.list_(pa.int64())),
            }
        )

    hists = {g: np.zeros(bins, dtype=np.int64) for g in groups}
    for r in ds.map_batches(hist_partial, batch_format="pyarrow").take_all():
        hists[r[group_col]] += np.asarray(r["h"], dtype=np.int64)
    cums = {g: np.cumsum(hists[g]) for g in groups}

    need: dict[str, set[int]] = {}
    total_cand = 0
    for g in groups:
        _, _, nf, nneg, npos = gstats[g]
        n = nf + nneg + npos
        franks = {
            r - nneg
            for r in (min(max(1, math.ceil(q * n)), n) for q in qs)
            if nneg < r <= nneg + nf
        }
        bs = {int(np.searchsorted(cums[g], r, side="left")) for r in franks}
        need[g] = bs
        total_cand += sum(int(hists[g][b]) for b in bs)
    resolved: dict[tuple[str, int], float] = {}
    if total_cand > max_candidate_rows:
        # same skew refinement as float_quantiles, keyed by (group, bucket):
        # a single-valued over-cap bucket IS its ranks' answer
        big = sorted(
            gidx[g] * bins + b
            for g in groups
            for b in need[g]
            if int(hists[g][b]) > max_candidate_rows
        )
        big_set = pa.array(big, type=pa.int64())

        def minmax_partial(batch: pa.Table) -> pa.Table:
            gs = batch.column(group_col).to_pylist()
            gv = np.fromiter((gidx[g] for g in gs), dtype=np.int64, count=len(gs))
            v = batch.column(column).to_numpy()
            key = gv * bins + bin_of(gv, v)
            mask = pc.is_in(pa.array(key, type=pa.int64()), value_set=big_set).to_numpy(
                zero_copy_only=False
            )
            vv, kk = v[mask], key[mask]
            out_k, out_lo, out_hi = [], [], []
            for uk in np.unique(kk):
                m = kk == uk
                out_k.append(int(uk))
                out_lo.append(float(vv[m].min()))
                out_hi.append(float(vv[m].max()))
            return pa.table(
                {
                    "k": pa.array(out_k, type=pa.int64()),
                    "vmin": pa.array(out_lo, type=pa.float64()),
                    "vmax": pa.array(out_hi, type=pa.float64()),
                }
            )

        mm: dict[int, tuple[float, float]] = {}
        for r in ds.map_batches(minmax_partial, batch_format="pyarrow").take_all():
            k = int(r["k"])
            cur = mm.get(k)
            mm[k] = (
                min(r["vmin"], cur[0]) if cur else r["vmin"],
                max(r["vmax"], cur[1]) if cur else r["vmax"],
            )
        for k, (vmin, vmax) in mm.items():
            if vmin == vmax:
                resolved[(groups[k // bins], k % bins)] = vmin
        total_cand = 0
        for g in groups:
            need[g] = {b for b in need[g] if (g, b) not in resolved}
            total_cand += sum(int(hists[g][b]) for b in need[g])
        if total_cand > max_candidate_rows:
            raise ValueError(
                "degenerate value skew: an over-cap rank bucket is "
                "multi-valued; raise bins or max_candidate_rows"
            )
    need_keys = pa.array(
        sorted(gidx[g] * bins + b for g in groups for b in need[g]), type=pa.int64()
    )

    def keep_candidates(batch: pa.Table) -> pa.Table:
        gs = batch.column(group_col).to_pylist()
        gv = np.fromiter((gidx[g] for g in gs), dtype=np.int64, count=len(gs))
        v = batch.column(column).to_numpy()
        key = gv * bins + bin_of(gv, v)
        mask = pc.is_in(pa.array(key, type=pa.int64()), value_set=need_keys)
        mk = mask.to_numpy(zero_copy_only=False)
        return pa.table(
            {
                group_col: batch.column(group_col).filter(mask),
                column: batch.column(column).filter(mask),
                "bin": pa.array(key[mk] % bins, type=pa.int64()),
            }
        )

    by_bin: dict[tuple[str, int], list[float]] = {}
    for r in ds.map_batches(keep_candidates, batch_format="pyarrow").take_all():
        by_bin.setdefault((r[group_col], int(r["bin"])), []).append(float(r[column]))
    out_g, out_q, out_v = [], [], []
    for g in groups:
        _, _, nf, nneg, npos = gstats[g]
        n = nf + nneg + npos
        for q in qs:
            r = min(max(1, math.ceil(q * n)), n)
            out_g.append(g)
            out_q.append(float(q))
            if r <= nneg:
                out_v.append(-math.inf)
                continue
            if r > nneg + nf:
                out_v.append(math.inf)
                continue
            rf = r - nneg
            b = int(np.searchsorted(cums[g], rf, side="left"))
            if (g, b) in resolved:
                out_v.append(resolved[(g, b)])
                continue
            before = int(cums[g][b - 1]) if b else 0
            vals = np.sort(np.asarray(by_bin[(g, b)]))
            out_v.append(float(vals[rf - before - 1]))
    return ray.data.from_arrow(
        pa.table(
            {
                group_col: pa.array(out_g, type=pa.string()),
                "q": pa.array(out_q, type=pa.float64()),
                "value": pa.array(out_v, type=pa.float64()),
            }
        )
    )


def funnel_counts(
    sf_dir: str,
    steps: tuple[str, ...] = ("view", "click", "purchase"),
    window_minutes: int = 60,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Ordered funnel analysis (CEP sequence detection) over the events
    stream: for each step prefix j, the number of users with events of
    types ``steps[0..j]`` at strictly increasing stream positions (ts,
    event_id tiebreak) whose step-j event is within ``window_minutes`` of
    the step-1 event. Output: (step 1-based, event_type, n_users), exactly
    ``len(steps)`` rows, monotone nonincreasing in step.

    Matching is the greedy minimal chain (the ``span_near`` argument
    transplanted from token positions to event streams): for each step-1
    occurrence, each next step takes its SMALLEST stream position strictly
    after the current one — greedy minimizes the final position, hence the
    final ts, so a window-satisfying chain from that start exists iff the
    greedy one satisfies it. Repeated step types ("view view") work
    unchanged (the next occurrence must be a strictly later event).

    Scale shape: the type filter prunes the stream BEFORE the shuffle;
    survivors hash-bucket by user into ``n_buckets`` coarse groups (a user
    never splits), the per-bucket chain is vectorized across ALL users at
    once (one searchsorted per step), and bucket-disjoint partial distinct-
    user counts sum exactly in a k-row final aggregate — no per-user Python
    and nothing user-count-sized on the driver.
    """
    if not steps:
        raise ValueError("funnel needs at least one step")
    window_us = window_minutes * 60 * 1_000_000
    k = len(steps)
    step_list = list(steps)

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def prune(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.is_in(batch.column("event_type"), value_set=pa.array(step_list))
        )
        cg = (batch.column("user_id").to_numpy() % n_buckets).astype(np.int64)
        return batch.append_column("cg", pa.array(cg))

    def per_bucket(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy()
        t = g.column("ts").cast(pa.int64()).to_numpy()
        e = g.column("event_id").to_numpy()
        typ = np.asarray(g.column("event_type").to_pylist(), dtype=object)
        order = np.lexsort((e, t, u))
        u, t, typ = u[order], t[order], typ[order]
        counts = np.zeros(k, dtype=np.int64)
        gpos = {s: np.flatnonzero(typ == s) for s in set(step_list)}
        starts = gpos[step_list[0]]
        if len(starts):
            counts[0] = len(np.unique(u[starts]))
            cur = starts
            alive = np.ones(len(starts), dtype=bool)
            for j, s in enumerate(step_list[1:], start=1):
                nxt = gpos[s]
                if not len(nxt):
                    break
                i = np.searchsorted(nxt, cur + 1, side="left")
                ok = alive & (i < len(nxt))
                step = nxt[np.minimum(i, len(nxt) - 1)]
                ok &= u[step] == u[starts]
                cur = np.where(ok, step, cur)
                alive = ok
                done = alive & (t[cur] - t[starts] <= window_us)
                if not done.any():
                    break
                counts[j] = len(np.unique(u[starts[done]]))
        return pa.table(
            {
                "step": pa.array(np.arange(1, k + 1), type=pa.int64()),
                "event_type": pa.array(step_list, type=pa.string()),
                "n_users": pa.array(counts, type=pa.int64()),
            }
        )

    return (
        ds.map_batches(prune, batch_format="pyarrow")
        .groupby("cg")
        .map_groups(per_bucket, batch_format="pyarrow")
        .groupby(["step", "event_type"])
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


def funnel_sql(
    steps: tuple[str, ...] = ("view", "click", "purchase"),
    window_minutes: int = 60,
) -> str:
    """DuckDB oracle for :func:`funnel_counts`: the same greedy chain as
    min-seq join CTEs over per-user row_number stream positions, one
    count-distinct readout per step prefix."""

    def q(s: str) -> str:
        return "'" + s.replace("'", "''") + "'"

    window_us = window_minutes * 60 * 1_000_000
    in_list = ", ".join(q(s) for s in dict.fromkeys(steps))
    ctes = [
        f"""ev AS (
  SELECT user_id, event_type, epoch_us(ts) AS tus,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS seq
  FROM events WHERE event_type IN ({in_list}))""",
        f"s1 AS (SELECT user_id, seq AS p1, tus AS t1, seq AS cur FROM ev WHERE event_type = {q(steps[0])})",
    ]
    for j, s in enumerate(steps[1:], start=2):
        ctes.append(
            f"s{j} AS (SELECT s.user_id, s.p1, s.t1, min(n.seq) AS cur\n"
            f"  FROM s{j-1} s JOIN ev n ON n.user_id = s.user_id"
            f" AND n.event_type = {q(s)} AND n.seq > s.cur\n"
            f"  GROUP BY 1, 2, 3)"
        )
    selects = [
        f"SELECT 1 AS step, {q(steps[0])} AS event_type, "
        "count(DISTINCT user_id) AS n_users FROM s1"
    ]
    for j, s in enumerate(steps[1:], start=2):
        selects.append(
            f"SELECT {j}, {q(s)}, count(DISTINCT s.user_id)\n"
            f"FROM s{j} s JOIN ev n ON n.user_id = s.user_id AND n.seq = s.cur\n"
            f"WHERE n.tus - s.t1 <= {window_us}"
        )
    return "WITH " + ",\n".join(ctes) + "\n" + "\nUNION ALL\n".join(selects)


def percentile_ranks(
    sf_dir: str,
    probes: tuple[float, ...] = (5.0, 25.0, 75.0, 200.0),
    by_type: bool = False,
) -> ray.data.Dataset:
    """ES percentile_ranks aggregation: for each probe value v, the fraction
    of (non-null) ``events.value`` rows <= v — the inverse of the percentile
    aggregate. ``by_type=True`` buckets per ``event_type``.

    Scale shape: one streaming pass; each batch emits a k-row (or
    k x types) partial of (n_le, n_total) counts — the probe vector
    broadcast by closure is O(k) — and a tiny groupby sums them. NaN
    compares false against every probe (numerator excludes it) but counts
    in the denominator, matching the twin's CASE/count(value) semantics.
    Output: (event_type?, probe float64, pct_rank float64 rounded 6dp),
    rows only for groups with at least one counted value.
    """
    pv = np.asarray(sorted(probes), dtype=np.float64)

    cols = ["value"] + (["event_type"] if by_type else [])
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=cols)

    def partial(batch: pa.Table) -> pa.Table:
        valid = pc.is_valid(batch.column("value"))
        batch = batch.filter(valid)
        v = batch.column("value").to_numpy(zero_copy_only=False)
        if by_type:
            types = batch.column("event_type")
            enc = types.dictionary_encode().combine_chunks()
            codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            cats = enc.dictionary.to_pylist()
            g = len(cats)
            le = np.zeros((g, len(pv)), dtype=np.int64)
            tot = np.bincount(codes, minlength=g)
            for j, p in enumerate(pv):
                le[:, j] = np.bincount(codes, weights=(v <= p), minlength=g)
            return pa.table(
                {
                    "event_type": pa.array(np.repeat(cats, len(pv))),
                    "probe": pa.array(np.tile(pv, g), type=pa.float64()),
                    "n_le": pa.array(le.reshape(-1), type=pa.int64()),
                    "n_total": pa.array(
                        np.repeat(tot, len(pv)), type=pa.int64()
                    ),
                }
            )
        le = (v[:, None] <= pv[None, :]).sum(axis=0).astype(np.int64)
        return pa.table(
            {
                "probe": pa.array(pv, type=pa.float64()),
                "n_le": pa.array(le, type=pa.int64()),
                "n_total": pa.array(
                    np.full(len(pv), len(v), dtype=np.int64), type=pa.int64()
                ),
            }
        )

    keys = (["event_type"] if by_type else []) + ["probe"]
    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(keys)
        .aggregate(Sum("n_le", alias_name="n_le"), Sum("n_total", alias_name="n_total"))
    )

    def finalize(batch: pa.Table) -> pa.Table:
        le = batch.column("n_le").to_numpy().astype(np.float64)
        tot = batch.column("n_total").to_numpy().astype(np.float64)
        keep = tot > 0
        from distributed_text_search_ray.util import round_half_away

        cols = {k: batch.column(k).filter(pa.array(keep)) for k in keys}
        cols["pct_rank"] = pa.array(
            round_half_away(le[keep] / tot[keep], 6), type=pa.float64()
        )
        return pa.table(cols)

    return agg.map_batches(finalize, batch_format="pyarrow")


def welch_t_test(
    sf_dir: str, type_a: str = "view", type_b: str = "purchase"
) -> pa.Table:
    """ES ``t_test`` aggregation (heteroscedastic / Welch): compare
    ``events.value`` between two event-type populations. One streaming
    pass of per-group (n, Σx, Σx²) partials, a 2-row reduce, and the
    closed-form statistic on the driver:

        s² = (Σx² − (Σx)²/n) / (n − 1)
        t  = (μa − μb) / sqrt(s²a/na + s²b/nb)

    Returns one row (n_a, n_b, mean_a, mean_b, t_stat), means and t 6-dp
    rounded exactly like the SQL twin's expression."""
    tset = pa.array([type_a, type_b])

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_in(batch.column("event_type"), value_set=tset))
        out_g, out_n, out_sx, out_sxx = [], [], [], []
        for t in (type_a, type_b):
            m = pc.equal(batch.column("event_type"), t)
            v = batch.filter(m).column("value").to_numpy(zero_copy_only=False)
            v = v[np.isfinite(v)]
            out_g.append(t)
            out_n.append(len(v))
            out_sx.append(float(v.sum()))
            out_sxx.append(float((v * v).sum()))
        return pa.table(
            {
                "g": pa.array(out_g, type=pa.string()),
                "n": pa.array(out_n, type=pa.int64()),
                "sx": pa.array(out_sx, type=pa.float64()),
                "sxx": pa.array(out_sxx, type=pa.float64()),
            }
        )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "value"]
    )
    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("g")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sx", alias_name="sx"),
            Sum("sxx", alias_name="sxx"),
        )
        .take_all()
    )
    of = {r["g"]: r for r in rows}
    from distributed_text_search_ray.util import round_half_away

    def stats(t):
        r = of[t]
        n = float(r["n"])
        mu = r["sx"] / n
        var = (r["sxx"] - r["sx"] * r["sx"] / n) / (n - 1.0)
        return n, mu, var

    na, mua, va = stats(type_a)
    nb, mub, vb = stats(type_b)
    t_stat = (mua - mub) / float(np.sqrt(va / na + vb / nb))
    return pa.table(
        {
            "n_a": pa.array([int(na)], type=pa.int64()),
            "n_b": pa.array([int(nb)], type=pa.int64()),
            "mean_a": pa.array([float(round_half_away(mua, 6))], type=pa.float64()),
            "mean_b": pa.array([float(round_half_away(mub, 6))], type=pa.float64()),
            "t_stat": pa.array([float(round_half_away(t_stat, 6))], type=pa.float64()),
        }
    )


def median_absolute_deviation(sf_dir: str) -> pa.Table:
    """ES ``median_absolute_deviation`` aggregation over ``events.value`` —
    EXACTLY (ES itself approximates with TDigest; the exact form is the
    conformance-friendly choice): MAD = median(|x − median(x)|), two chained
    runs of the distributed-selection quantile machinery
    (:func:`float_quantiles` — histogram prune + bounded candidate set, no
    global sort), with the deviation column derived in one streaming
    ``map_batches`` between them. Returns one row (median, mad), 6-dp
    rounded; the twin computes the same two nested quantile_disc medians.
    """
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["value"]
    )
    med_rows = float_quantiles(ds, "value", qs=(0.5,)).take_all()
    med = float(med_rows[0]["value"])

    def deviate(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        return pa.table({"dev": pa.array(np.abs(v - med), type=pa.float64())})

    dev = ds.map_batches(deviate, batch_format="pyarrow")
    mad_rows = float_quantiles(dev, "dev", qs=(0.5,)).take_all()
    mad = float(mad_rows[0]["value"])  # float_quantiles emits (q, value)
    from distributed_text_search_ray.util import round_half_away

    return pa.table(
        {
            "median": pa.array([float(round_half_away(med, 6))], type=pa.float64()),
            "mad": pa.array([float(round_half_away(mad, 6))], type=pa.float64()),
        }
    )


def composite_agg(
    sf_dir: str,
    after: tuple[str, str] | None = None,
    size: int = 10,
) -> ray.data.Dataset:
    """ES ``composite`` aggregation over documents (lang, source): paginated
    multi-key bucket counts in key order — the aggregation sibling of
    search_after. ``after`` is the last (lang, source) of the previous page
    (exclusive); ``size`` bounds the page.

    Scale shape: the partial count collapses each batch to its distinct
    key pairs BEFORE the shuffle (pyarrow group_by inside map_batches), the
    final groupby sums the partials, and only the requested page survives
    the sort+limit — pagination keys prune distributed (a batch filter),
    not on the driver."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["lang", "source"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if after is not None:
            la, sa = after
            lang = batch.column("lang")
            src = batch.column("source")
            keep = pc.or_(
                pc.greater(lang, la),
                pc.and_(pc.equal(lang, la), pc.greater(src, sa)),
            )
            batch = batch.filter(keep)
        g = batch.group_by(["lang", "source"]).aggregate([([], "count_all")])
        # select-by-name before renaming: pyarrow's key-column position in
        # group_by output has differed across versions (ADVICE r3)
        return g.select(["lang", "source", "count_all"]).rename_columns(
            ["lang", "source", "n"]
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "source"])
        .aggregate(Sum("n", alias_name="doc_count"))
        .sort(["lang", "source"])
        .limit(size)
    )


def boxplot_agg(sf_dir: str, by_type: bool = False) -> pa.Table:
    """ES ``boxplot`` aggregation over ``events.value``: min, q1, median,
    q3, max — quartiles EXACT via the distributed-selection quantile
    machinery (ES approximates with TDigest), min/max from the same
    pass's group stats. ``by_type=False`` returns one global row."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["value"]
    )
    qrows = float_quantiles(ds, "value", qs=(0.25, 0.5, 0.75)).take_all()
    qq = {r["q"]: float(r["value"]) for r in qrows}

    def mm_partial(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        v = v[np.isfinite(v)]
        return pa.table(
            {
                "lo": pa.array(
                    [float(v.min()) if len(v) else float("inf")], type=pa.float64()
                ),
                "hi": pa.array(
                    [float(v.max()) if len(v) else float("-inf")], type=pa.float64()
                ),
            }
        )

    from ray.data.aggregate import Max, Min

    mm = (
        ds.map_batches(mm_partial, batch_format="pyarrow")
        .aggregate(Min("lo", alias_name="lo"), Max("hi", alias_name="hi"))
    )
    from distributed_text_search_ray.util import round_half_away

    r6 = lambda x: float(round_half_away(x, 6))
    return pa.table(
        {
            "vmin": pa.array([r6(mm["lo"])], type=pa.float64()),
            "q1": pa.array([r6(qq[0.25])], type=pa.float64()),
            "median": pa.array([r6(qq[0.5])], type=pa.float64()),
            "q3": pa.array([r6(qq[0.75])], type=pa.float64()),
            "vmax": pa.array([r6(mm["hi"])], type=pa.float64()),
        }
    )


def retention_cohorts(
    sf_dir: str, bucket_days: int = 7, n_buckets: int = 64
) -> ray.data.Dataset:
    """Product-analytics retention cohorts over the events stream: bucket
    every user by their FIRST event's period (cohort), then count distinct
    users active k periods after their cohort start. Output
    (cohort_period, period_k, n_users) with int64 period indexes
    (floor(epoch_us / period)), exact.

    Scale shape (the funnel_counts shape — ONE shuffle, no join): users
    hash into ``n_buckets`` coarse groups (a user never splits), so each
    user's first event AND every offset are computable inside its bucket —
    one vectorized pass (sort by user, segment-min for t0, np.unique for
    the distinct (cohort, k, user) triples) — and bucket-disjoint partial
    counts per (cohort, k) sum exactly in a small final aggregate. The
    naive first-event-groupby + hash-join formulation paid two extra
    all-to-all exchanges and a per-user groupby; at 10M events this shape
    measured 6x faster. Driver state is O(cohorts x k).
    """
    period_us = bucket_days * 24 * 3600 * 1_000_000

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )

    def prune(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy()
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "tus": batch.column("ts").cast(pa.int64()),
                "cg": pa.array((u % n_buckets).astype(np.int64), type=pa.int64()),
            }
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy()
        t = g.column("tus").to_numpy()
        order = np.lexsort((t, u))
        u, t = u[order], t[order]
        is_start = np.empty(len(u), dtype=bool)
        is_start[0] = True
        np.not_equal(u[1:], u[:-1], out=is_start[1:])
        seg = np.cumsum(is_start) - 1
        t0 = t[is_start][seg]  # per-event first-ts of its user (t sorted asc)
        cohort = t0 // period_us
        k = (t - t0) // period_us
        trip = np.unique(
            np.stack([cohort, k, u], axis=1), axis=0
        )
        pairs, counts = np.unique(trip[:, :2], axis=0, return_counts=True)
        return pa.table(
            {
                "cohort_period": pa.array(pairs[:, 0], type=pa.int64()),
                "period_k": pa.array(pairs[:, 1], type=pa.int64()),
                "n": pa.array(counts.astype(np.int64), type=pa.int64()),
            }
        )

    return (
        ds.map_batches(prune, batch_format="pyarrow")
        .groupby("cg")
        .map_groups(per_bucket, batch_format="pyarrow")
        .groupby(["cohort_period", "period_k"])
        .aggregate(Sum("n", alias_name="n_users"))
    )


def extended_stats(sf_dir: str) -> ray.data.Dataset:
    """ES ``extended_stats`` aggregation over ``events.value`` per
    event_type: count, min, max, sum, avg, sum_of_squares, population
    variance and std deviation — one streaming pass of per-type
    (n, Σx, Σx², min, max) partials and a types-sized reduce. Float
    outputs 6-dp rounded with the same expressions as the twin:
    var = Σx²/n − (Σx/n)², std = sqrt(var).

    Moments are accumulated as MICRO-UNIT INTEGERS (each x and x² is
    6-dp-quantized to int64 before summing, exactly like the twin's
    ``sum(CAST(round(v * 1e6) AS BIGINT))``): integer sums are
    order-independent, so the result is bit-identical across block
    layouts, cluster sizes AND to the SQL twin. A plain float Σx² diverged
    from DuckDB's summation order by one 6-dp ulp at sf0.1 (Σx² ~1e8 puts
    the rounding boundary within a few float64 ulps of the sum). NaN
    values are out of contract for this table (none exist at any sf)."""
    from ray.data.aggregate import Max, Min

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "value"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        from distributed_text_search_ray.util import round_half_away

        enc = batch.column("event_type").dictionary_encode().combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        cats = enc.dictionary.to_pylist()
        v = batch.column("value").to_numpy(zero_copy_only=False)
        g = len(cats)
        n = np.bincount(codes, minlength=g)
        # micro-unit integer quantization (see docstring), summed in int64:
        # exact while no block partial can pass 2^63, i.e. every quantized
        # value stays below 2^63 / rows
        qx = round_half_away(v * 1e6, 0)
        qxx = round_half_away(v * v * 1e6, 0)
        if len(v) and qxx.max() >= 2.0**63 / len(v):
            raise ValueError(
                f"extended_stats: |value| up to {np.abs(v).max():g} overflows "
                f"the int64 micro-unit sums of a {len(v)}-row block"
            )
        sxq = np.zeros(g, np.int64)
        sxxq = np.zeros(g, np.int64)
        np.add.at(sxq, codes, qx.astype(np.int64))
        np.add.at(sxxq, codes, qxx.astype(np.int64))
        mn = np.full(g, np.inf)
        mx = np.full(g, -np.inf)
        np.minimum.at(mn, codes, v)
        np.maximum.at(mx, codes, v)
        return pa.table(
            {
                "event_type": pa.array(cats, type=pa.string()),
                "n": pa.array(n, type=pa.int64()),
                "sxq": pa.array(sxq, type=pa.int64()),
                "sxxq": pa.array(sxxq, type=pa.int64()),
                "vmin": pa.array(mn, type=pa.float64()),
                "vmax": pa.array(mx, type=pa.float64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sxq", alias_name="sxq"),
            Sum("sxxq", alias_name="sxxq"),
            Min("vmin", alias_name="vmin"),
            Max("vmax", alias_name="vmax"),
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        from distributed_text_search_ray.util import round_half_away

        n = batch.column("n").to_numpy().astype(np.float64)
        sx = batch.column("sxq").to_numpy().astype(np.float64) / 1e6
        sxx = batch.column("sxxq").to_numpy().astype(np.float64) / 1e6
        avg = sx / n
        var = sxx / n - (sx / n) * (sx / n)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "n": batch.column("n"),
                "vmin": pa.array(
                    round_half_away(batch.column("vmin").to_numpy(), 6),
                    type=pa.float64(),
                ),
                "vmax": pa.array(
                    round_half_away(batch.column("vmax").to_numpy(), 6),
                    type=pa.float64(),
                ),
                "vsum": pa.array(round_half_away(sx, 6), type=pa.float64()),
                "avg": pa.array(round_half_away(avg, 6), type=pa.float64()),
                "sum_of_squares": pa.array(
                    round_half_away(sxx, 6), type=pa.float64()
                ),
                "variance": pa.array(round_half_away(var, 6), type=pa.float64()),
                "std_dev": pa.array(
                    round_half_away(np.sqrt(np.maximum(var, 0.0)), 6),
                    type=pa.float64(),
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def gap_stats(sf_dir: str, n_buckets: int = 64) -> ray.data.Dataset:
    """Inter-arrival (burstiness) statistics per event_type: over each
    USER's time-ordered events of a type, the gaps between consecutive
    occurrences, aggregated to (event_type, n_gaps, avg_gap_s, std_gap_s).

    Scale shape: the funnel/retention shape — one user-bucket shuffle (a
    user never splits), per-bucket vectorized diff over the (user, type,
    ts)-sorted stream with segment boundaries masking cross-user/type
    pairs, (n, Σg, Σg²) partials per type, k-row final reduce. Population
    std, 6-dp rounded with the twin's expression."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_type", "ts", "event_id"],
    )

    def prune(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy()
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_type": batch.column("event_type"),
                "tus": batch.column("ts").cast(pa.int64()),
                "event_id": batch.column("event_id"),
                "cg": pa.array((u % n_buckets).astype(np.int64), type=pa.int64()),
            }
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy()
        t = g.column("tus").to_numpy()
        e = g.column("event_id").to_numpy()
        enc = g.column("event_type").dictionary_encode().combine_chunks()
        c = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        cats = enc.dictionary.to_pylist()
        order = np.lexsort((e, t, c, u))
        u, t, c = u[order], t[order], c[order]
        same = (u[1:] == u[:-1]) & (c[1:] == c[:-1])
        gaps = (t[1:] - t[:-1])[same] / 1e6
        gc = c[1:][same]
        k = len(cats)
        n = np.bincount(gc, minlength=k)
        sx = np.bincount(gc, weights=gaps, minlength=k)
        sxx = np.bincount(gc, weights=gaps * gaps, minlength=k)
        keep = n > 0
        return pa.table(
            {
                "event_type": pa.array(
                    [cats[i] for i in np.flatnonzero(keep)], type=pa.string()
                ),
                "n": pa.array(n[keep], type=pa.int64()),
                "sx": pa.array(sx[keep], type=pa.float64()),
                "sxx": pa.array(sxx[keep], type=pa.float64()),
            }
        )

    partials = (
        ds.map_batches(prune, batch_format="pyarrow")
        .groupby("cg")
        .map_groups(per_bucket, batch_format="pyarrow")
    )
    return _gap_stats_reduce(partials)


def _gap_stats_reduce(partials: ray.data.Dataset) -> ray.data.Dataset:
    """:func:`gap_stats`' k-row final reduce of the per-bucket
    (event_type, n, sx, sxx) partials. ``n`` adds as an integer; Σg and Σg²
    add with ``math.fsum``, which is correctly rounded, so the 6-dp result
    does not depend on the order in which the shuffle delivers the partials
    (integer microsecond partials would overflow int64: gaps reach 2.6e12
    µs at sf0.1)."""

    def reduce_type(group: pa.Table) -> pa.Table:
        from distributed_text_search_ray.util import round_half_away

        n = int(pc.sum(group.column("n")).as_py())
        sx = math.fsum(group.column("sx").to_numpy())
        sxx = math.fsum(group.column("sxx").to_numpy())
        avg = sx / n
        var = sxx / n - avg * avg
        return pa.table(
            {
                "event_type": group.column("event_type").slice(0, 1),
                "n_gaps": pa.array([n], type=pa.int64()),
                "avg_gap_s": pa.array(round_half_away(np.array([avg]), 6), type=pa.float64()),
                "std_gap_s": pa.array(
                    round_half_away(np.sqrt(np.maximum([var], 0.0)), 6),
                    type=pa.float64(),
                ),
            }
        )

    return partials.groupby("event_type").map_groups(reduce_type, batch_format="pyarrow")
