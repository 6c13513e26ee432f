"""Join strategies (SURVEY.md section 2.4).

The reference has no joins (patterns x corpus is a broadcast nested loop);
a general engine needs them:

- ``broadcast_lookup``: small side shipped once per task, applied as a
  zero-copy ``pyarrow.Table.join`` inside ``map_batches`` — no shuffle, no
  pandas conversion. The right strategy for dimension tables, vocab maps,
  blocklists.
- ``hash_join``: both sides large — Ray's hash-partitioned ``Dataset.join``
  with an explicit ``num_partitions`` (an all-to-all on both sides; keep keys
  low-skew or pre-salt).
- ``left_anti_join``: rows of the left side whose key has no match on the
  right — the scale path for "drop this id set" when the set outgrows a
  driver-collected broadcast array.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data

from distributed_text_search_ray.util import agg_rename, cluster_cpus

_PA_JOIN_TYPE = {"inner": "inner", "left": "left outer", "right": "right outer"}


def broadcast_lookup(
    large: ray.data.Dataset,
    small_df: "pd.DataFrame | pa.Table",
    on: str,
    how: str = "inner",
) -> ray.data.Dataset:
    """Join a large Dataset against a small in-memory table by broadcast.

    The small table rides into each task via closure capture (Ray ships it
    to the object store once and workers share the copy); the per-batch
    merge is an Arrow-native hash join."""
    small = (
        small_df if isinstance(small_df, pa.Table) else pa.Table.from_pandas(small_df)
    )
    jt = _PA_JOIN_TYPE.get(how, how)

    def merge(batch: pa.Table) -> pa.Table:
        return batch.join(small, keys=on, join_type=jt)

    return large.map_batches(merge, batch_format="pyarrow")


def _clamp_to_cpus(num_partitions: int) -> int:
    """Ray's hash shuffle holds one aggregator actor per partition for the
    whole join; partitions > cluster CPUs deadlocks the pool (reproduced at
    32 partitions on a 4-CPU session), so clamp."""
    return max(1, min(num_partitions, cluster_cpus()))


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    num_partitions: int = 32,
    join_type: str = "inner",
) -> ray.data.Dataset:
    """Hash-partitioned join of two large Datasets (explicit partition count,
    clamped to cluster CPUs; this is an all-to-all exchange of both sides)."""
    return left.join(
        right,
        join_type=join_type,
        num_partitions=_clamp_to_cpus(num_partitions),
        on=(on,),
    )


def left_anti_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Rows of ``left`` whose ``on`` key has NO match in ``right`` — the
    complement of the broadcast pattern set every reference rank holds
    (src/flexible_mpi.c:325), and the 10^12-row alternative to collecting a
    dropped-id set on the driver (see ``dedup.near_dedup_filter``).

    Robustness contract: Ray's hash-join aggregator finalizes each
    partition with an acero join that resolves the key column BY NAME; a
    join partition fed only schema-less empty blocks — which
    ``groupby().map_groups()`` emits for empty hash partitions — has no
    columns at all and raises ``ArrowInvalid: No match ... for key field
    reference`` (this crashed the round-2 bench inside
    ``dup_span_filter``). The right side is therefore materialized (in
    every engine use it is the narrow id-only side) so an empty set can
    short-circuit to ``left`` unchanged, and repartitioned — Ray's
    ``repartition`` coalesces the schema-less empties into typed blocks.
    The left side must carry typed blocks (true for any read/
    map_batches-produced dataset).

    Right-side duplicate keys don't change anti-join semantics, so callers
    need not pre-distinct the right side.

    ``num_partitions`` is clamped to the cluster's CPU count (see
    ``_clamp_to_cpus``).
    """
    num_partitions = _clamp_to_cpus(num_partitions)
    right = right.materialize()
    n = right.count()
    if n == 0:
        return left
    right = right.select_columns([on]).repartition(max(1, min(num_partitions, n)))
    return left.join(
        right, join_type="left_anti", num_partitions=num_partitions, on=(on,)
    )


def revenue_by_nation(sf_dir: str, num_partitions: int = 8) -> ray.data.Dataset:
    """Demo pipeline: lineitem revenue rolled up to customer nation.

    Strategy mix on purpose: nation and customer are broadcast (small side),
    orders join lineitem is the large hash join. Output
    (n_name, revenue, n_orders) with revenue rounded to 4 dp (SQL-identical).

    ``num_partitions`` sizes the join exchange: target ~1-2 GB of joined
    rows per partition at real scale (partitions = input_bytes / 1.5 GB).
    At bench scale the join cost is dominated by Ray's per-partition actor
    overhead — measured 3.8 s at 8 partitions vs 20.7 s at 32 on the same
    sf0.1 input — so the default stays small.
    """
    import os

    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    from distributed_text_search_ray.pipelines.relational import sql_round

    import pyarrow.parquet as pq

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    customer = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    cust_nation = customer.join(
        nation, keys="c_nationkey", right_keys="n_nationkey"
    ).select(["c_custkey", "n_name"])

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_custkey"]
    )
    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def revenue(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        return pa.table({"l_orderkey": batch.column("l_orderkey"), "revenue": rev})

    joined = orders.join(
        lineitem.map_batches(revenue, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=num_partitions,
        on=("o_orderkey",),
        right_on=("l_orderkey",),
    )

    # broadcast merge + per-batch partial aggregation (SURVEY.md A1: combine
    # inside map_batches, then a tiny groupby over partials — the full-row
    # groupby was ~4x the cost of the join itself), all zero-copy Arrow
    def merge_and_partial(batch: pa.Table) -> pa.Table:
        m = batch.join(cust_nation, keys="o_custkey", right_keys="c_custkey")
        g = m.group_by("n_name").aggregate([("revenue", "sum"), ("revenue", "count")])
        return agg_rename(
            g,
            ["n_name"],
            [("revenue", "sum"), ("revenue", "count")],
            ["revenue_part", "n_part"],
        )

    partials = joined.map_batches(merge_and_partial, batch_format="pyarrow")
    agg = partials.groupby("n_name").aggregate(
        Sum("revenue_part", alias_name="revenue"), Sum("n_part", alias_name="n_rows")
    )

    def round_rev(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_name": batch.column("n_name"),
                "revenue": sql_round(batch.column("revenue"), 4),
                "n_rows": batch.column("n_rows"),
            }
        )

    return agg.map_batches(round_rev, batch_format="pyarrow")
