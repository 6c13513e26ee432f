"""Run a query executor as a Ray Data task stage over cached index views.

Every index-reading query stage goes through :func:`index_stage`. Its state
is a read-only index, which a worker process opens once per index generation
and keeps (``executor.open_view``), so the stage runs as plain Ray tasks and
no actor pool starts per call. Each task builds its executor once, on its
first batch, around the worker's view(s) of the generation current at that
moment.
"""

from __future__ import annotations

import math
import os

import pyarrow as pa
import ray
import ray.data

from distributed_text_search_ray.stages.executor import open_view


def _open(index):
    """Cached views for a path, a list of paths or a dict of paths."""
    if isinstance(index, (str, os.PathLike)):
        return open_view(os.fspath(index))
    if isinstance(index, dict):
        return {k: _open(v) for k, v in index.items()}
    return [_open(p) for p in index]


def _row_blocks(rows: list[dict] | pa.Table, batch_size: int) -> ray.data.Dataset:
    """``rows`` as ``min(ceil(n / batch_size), cluster CPUs)`` Arrow blocks:
    one task per block, enough blocks to use every CPU and no more (a task
    per tiny block costs scheduling, not work)."""
    if not rows:
        return ray.data.from_items(rows)
    # before Ray starts (from_arrow starts it) the cluster size is unknown
    cpus = int(ray.cluster_resources().get("CPU", 1)) if ray.is_initialized() else 1
    n_blocks = max(1, min(math.ceil(len(rows) / batch_size), cpus))
    step = math.ceil(len(rows) / n_blocks)
    table = rows if isinstance(rows, pa.Table) else pa.Table.from_pylist(rows)
    return ray.data.from_arrow([table.slice(i, step) for i in range(0, len(rows), step)])


def query_rows(queries, columns=("query",)) -> pa.Table | ray.data.Dataset:
    """(query_id, *strings) tuples as a typed table with an int64
    ``query_id`` and one string column per name in ``columns`` (a Dataset
    passes through): typed even when empty, so an empty query list gets
    typed output."""
    if isinstance(queries, ray.data.Dataset):
        return queries
    queries = list(queries)
    table = {"query_id": pa.array([int(q[0]) for q in queries], pa.int64())}
    for i, name in enumerate(columns, 1):
        table[name] = pa.array([str(q[i]) for q in queries], pa.string())
    return pa.table(table)


def index_stage(
    rows: list[dict] | pa.Table | ray.data.Dataset,
    executor,
    index,
    *,
    batch_size: int | None = 8,
    **kwargs,
) -> ray.data.Dataset:
    """``executor(views, **kwargs)`` applied to ``rows`` as a task stage.

    ``index``: an index path or alias, or a list or dict of them; the
    executor receives the open view(s) in its place. ``None``: the stage
    runs ``executor(**kwargs)``, which opens the views it needs itself
    (``open_view``) — e.g. only the members a batch routes to — or reads
    no index at all (``boolquery.percolate``). ``rows``: a Dataset,
    kept as it is, or a table or list of row dicts (see :func:`_row_blocks`).
    A table with no rows is answered here, by the executor applied to it:
    Ray Data never calls a stage on an empty block, so only this gives the
    output the executor's schema.
    """
    ex = None

    def run(batch: pa.Table) -> pa.Table:
        nonlocal ex
        if ex is None:
            ex = executor(**kwargs) if index is None else executor(_open(index), **kwargs)
        return ex(batch)

    if isinstance(rows, pa.Table) and not rows.num_rows:
        return ray.data.from_arrow(run(rows))
    if not isinstance(rows, ray.data.Dataset):
        rows = _row_blocks(rows, batch_size or 1)
    # Ray Data names the operator after the function
    run.__name__ = run.__qualname__ = executor.__name__
    return rows.map_batches(run, batch_format="pyarrow", batch_size=batch_size)
