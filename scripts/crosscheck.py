"""Local stand-in for the driver's correctness gate.

Runs every ``queries()`` entry at a given sf_dir, runs the matching
``oracle_sql()`` in DuckDB (tables pre-registered as views), and compares
row sets: row count, schema width, and order-insensitive value equality with
columns sorted by name (floats compared exactly — both sides round
identically).

Usage: python scripts/crosscheck.py [sf_dir]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_table(result):
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from distributed_text_search_ray.util import collect_table

    if isinstance(result, ray.data.Dataset):
        return collect_table(result)
    if isinstance(result, pd.DataFrame):
        return pa.Table.from_pandas(result)
    return result


def canon_rows(table) -> list[tuple]:
    cols = sorted(table.column_names)
    pyrows = []
    arrs = [table.column(c).to_pylist() for c in cols]
    for i in range(table.num_rows):
        pyrows.append(tuple(a[i] for a in arrs))
    return sorted(pyrows, key=repr)


def main(sf_dir: str, only: list[str] | None = None):
    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    qs = e.queries()
    if only:
        qs = {k: v for k, v in qs.items() if k in only}
    oracles = e.oracle_sql()
    failures = []
    for name, fn in qs.items():
        t0 = time.perf_counter()
        try:
            got = to_table(fn(sf_dir))
        except Exception as ex:
            print(f"{name:24s} ERROR {type(ex).__name__}: {ex}")
            failures.append(name)
            continue
        ray_sec = time.perf_counter() - t0
        if name not in oracles:
            print(f"{name:24s} rows-only  rows={got.num_rows:6d}  ({ray_sec:.2f}s)")
            continue
        t0 = time.perf_counter()
        want = con.execute(oracles[name]).fetch_arrow_table()
        sql_sec = time.perf_counter() - t0
        ok_rows = got.num_rows == want.num_rows
        ok_cols = sorted(got.column_names) == sorted(want.column_names)
        ok_vals = ok_rows and ok_cols and canon_rows(got) == canon_rows(want)
        status = "OK " if (ok_rows and ok_cols and ok_vals) else "FAIL"
        print(
            f"{name:24s} {status} rows={got.num_rows:6d}/{want.num_rows:<6d} "
            f"cols={'=' if ok_cols else 'DIFF'} vals={'=' if ok_vals else 'DIFF'} "
            f"(ray {ray_sec:.2f}s, sql {sql_sec:.2f}s)"
        )
        if not (ok_rows and ok_cols and ok_vals):
            failures.append(name)
            if ok_cols and ok_rows:
                g, w = canon_rows(got), canon_rows(want)
                diff = [i for i, (a, b) in enumerate(zip(g, w)) if a != b][:3]
                for i in diff:
                    print(f"   mine: {g[i]}\n   want: {w[i]}")
            else:
                print(f"   my cols:  {sorted(got.column_names)}")
                print(f"   sql cols: {sorted(want.column_names)}")
    print("FAILURES:", failures if failures else "none")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(
        main(
            sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01",
            sys.argv[2:] or None,
        )
    )
