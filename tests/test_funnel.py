"""Pin ordered funnel analysis (CEP sequence detection) over event streams.

Contract (relational.funnel_counts): for each step prefix j, the number of
users with events of types steps[0..j] at strictly increasing stream
positions (ts, event_id tiebreak) whose step-j event falls within
window_minutes of the step-1 event; matching is the greedy minimal chain
per step-1 occurrence. Differential vs a pure-Python per-user oracle and
vs the DuckDB min-join-chain oracle, plus bucket-count invariance.
"""

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from distributed_text_search_ray.pipelines.relational import funnel_counts, funnel_sql

SF = "/root/testdata/sf0.001"


def _brute_funnel(rows, steps, window_minutes):
    """Per-user exhaustive oracle: for EVERY step-1 occurrence, try every
    strictly-increasing chain (not just the greedy one) — independently
    validates the operator's greedy-is-optimal claim."""
    window_us = window_minutes * 60 * 1_000_000
    by_user = {}
    for r in rows:
        by_user.setdefault(r["user_id"], []).append(r)
    counts = [set() for _ in steps]
    for uid, evs in by_user.items():
        evs.sort(key=lambda r: (r["ts"], r["event_id"]))
        typ = [r["event_type"] for r in evs]
        tus = [r["ts"] for r in evs]
        for p1, t in enumerate(typ):
            if t != steps[0]:
                continue
            counts[0].add(uid)
            # DFS over all chains from this start
            frontier = {p1}
            for j, s in enumerate(steps[1:], start=1):
                nxt = set()
                for cur in frontier:
                    nxt.update(
                        p for p in range(cur + 1, len(typ)) if typ[p] == s
                    )
                if not nxt:
                    break
                if any(tus[p] - tus[p1] <= window_us for p in nxt):
                    counts[j].add(uid)
                frontier = nxt
    return [len(c) for c in counts]


def _crafted_events(tmp_path):
    """Adversarial stream: ts ties broken by event_id, repeated step types,
    window boundary exactly at the limit, multi-start users where only the
    SECOND start satisfies the window, interleaved users."""
    us = 1_000_000
    rows = []

    def ev(uid, t_min, eid, typ):
        rows.append(
            {"user_id": uid, "ts": t_min * 60 * us, "event_id": eid, "event_type": typ}
        )

    # u1: plain chain inside the window
    ev(1, 0, 1, "view"), ev(1, 5, 2, "click"), ev(1, 10, 3, "purchase")
    # u2: chain exists but purchase lands exactly ON the boundary (kept: <=)
    ev(2, 0, 1, "view"), ev(2, 30, 2, "click"), ev(2, 60, 3, "purchase")
    # u3: first start misses the window, a LATER start succeeds
    ev(3, 0, 1, "view"), ev(3, 100, 2, "view"), ev(3, 110, 3, "click")
    ev(3, 120, 4, "purchase")
    # u4: correct types but wrong order (purchase before click)
    ev(4, 0, 1, "view"), ev(4, 5, 2, "purchase"), ev(4, 10, 3, "click")
    # u5: ts tie — click shares ts with view but has a LARGER event_id,
    # so it counts as strictly later in stream order
    ev(5, 0, 1, "view"), ev(5, 0, 2, "click"), ev(5, 1, 3, "purchase")
    # u6: ts tie the other way — click's event_id is SMALLER, so it sorts
    # BEFORE the view and must not chain
    ev(6, 0, 2, "view"), ev(6, 0, 1, "click")
    # u7: noise types interleaved; chain still found
    ev(7, 0, 1, "error"), ev(7, 1, 2, "view"), ev(7, 2, 3, "signup")
    ev(7, 3, 4, "click"), ev(7, 4, 5, "error"), ev(7, 5, 6, "purchase")
    tbl = pa.table(
        {
            "user_id": pa.array([r["user_id"] for r in rows], type=pa.int64()),
            "ts": pa.array([r["ts"] for r in rows], type=pa.timestamp("us")),
            "event_id": pa.array([r["event_id"] for r in rows], type=pa.int64()),
            "event_type": pa.array([r["event_type"] for r in rows], type=pa.string()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "events.parquet"))
    return rows


def test_funnel_crafted_vs_brute(tmp_path):
    rows = _crafted_events(tmp_path)
    steps = ("view", "click", "purchase")
    got = {
        r["step"]: r["n_users"]
        for r in funnel_counts(str(tmp_path), steps=steps, window_minutes=60).take_all()
    }
    want = _brute_funnel(rows, steps, 60)
    assert [got[j + 1] for j in range(3)] == want
    # the crafted expectations, spelled out: every user has a 'view' start;
    # step2: u1,u2,u3,u4,u5,u7 (u4's out-of-order purchase doesn't block its
    # view->click prefix; u6's click sorts BEFORE its view); step3 drops u4.
    assert want == [7, 6, 5]


def test_funnel_repeated_step_types(tmp_path):
    rows = _crafted_events(tmp_path)
    steps = ("view", "view", "click")
    got = {
        r["step"]: (r["event_type"], r["n_users"])
        for r in funnel_counts(str(tmp_path), steps=steps, window_minutes=200).take_all()
    }
    want = _brute_funnel(rows, steps, 200)
    assert [got[j + 1][1] for j in range(3)] == want
    assert got[1][0] == "view" and got[2][0] == "view" and got[3][0] == "click"
    # only u3 has two views; its second view chains to the click at 110
    assert want[1:] == [1, 1]


def test_funnel_bucket_invariance(tmp_path):
    rows = _crafted_events(tmp_path)
    steps = ("view", "click", "purchase")
    ref = _brute_funnel(rows, steps, 60)
    for nb in (1, 2, 7):
        got = {
            r["step"]: r["n_users"]
            for r in funnel_counts(
                str(tmp_path), steps=steps, window_minutes=60, n_buckets=nb
            ).take_all()
        }
        assert [got[j + 1] for j in range(3)] == ref


@pytest.mark.parametrize("window", [60, 1440])
def test_funnel_matches_duckdb(window):
    got = sorted(
        (r["step"], r["event_type"], r["n_users"])
        for r in funnel_counts(SF, window_minutes=window).take_all()
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    want = sorted(tuple(r) for r in con.execute(funnel_sql(window_minutes=window)).fetchall())
    assert got == want
    assert got[0][2] > 0  # nonempty funnel


def test_percentile_ranks_matches_duckdb():
    """ES percentile_ranks (global + per-type) vs direct DuckDB, including
    a probe below the min (rank 0.0) and above the max (rank 1.0)."""
    import duckdb

    from distributed_text_search_ray.pipelines.relational import percentile_ranks

    probes = (0.001, 25.0, 75.0, 1e9)
    got = sorted(
        (r["probe"], r["pct_rank"])
        for r in percentile_ranks(SF, probes).take_all()
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    want = sorted(
        con.execute(
            "SELECT p.probe, round(sum(CASE WHEN value <= p.probe THEN 1 "
            "ELSE 0 END)::DOUBLE / count(value), 6) FROM events, "
            "(VALUES (0.001::DOUBLE), (25.0::DOUBLE), (75.0::DOUBLE), "
            "(1000000000.0::DOUBLE)) p(probe) GROUP BY 1"
        ).fetchall()
    )
    assert got == [tuple(w) for w in want]
    assert got[0][1] == 0.0 and got[-1][1] == 1.0
    by_t = percentile_ranks(SF, probes, by_type=True).take_all()
    assert len(by_t) == 4 * 5  # 5 event types
    assert all(0.0 <= r["pct_rank"] <= 1.0 for r in by_t)


def test_string_stats_vs_python():
    """ES string_stats: one-pass length + entropy vs direct Python on the
    same docs, split across many small blocks."""
    import math
    from collections import Counter

    import ray.data

    from distributed_text_search_ray.pipelines.textstats import string_stats
    from distributed_text_search_ray.util import round_half_away

    texts = ["hello world", "aaa", "", "the quick brown fox", "zz top"] * 7
    ds = ray.data.from_items([{"text": t} for t in texts], override_num_blocks=9)
    got = string_stats(ds)
    blob = "".join(texts)
    cnt = Counter(blob)
    n = len(blob)
    ent = sum(-(c / n) * math.log(c / n) for c in cnt.values())
    assert got.column("doc_count")[0].as_py() == len(texts)
    assert got.column("min_length")[0].as_py() == 0
    assert got.column("max_length")[0].as_py() == 19
    assert got.column("avg_length")[0].as_py() == pytest.approx(
        round_half_away(sum(map(len, texts)) / len(texts), 6), abs=1e-6
    )
    assert got.column("entropy")[0].as_py() == pytest.approx(
        round_half_away(ent, 6), abs=1e-6
    )


def test_welch_t_test_vs_python():
    """Welch t over the real events table vs a direct numpy computation."""
    import numpy as np
    import pyarrow.parquet as pq

    from distributed_text_search_ray.pipelines.relational import welch_t_test
    from distributed_text_search_ray.util import round_half_away

    got = welch_t_test(SF, "view", "click")
    t = pq.read_table(f"{SF}/events.parquet", columns=["event_type", "value"])
    va = t.filter(pa.compute.equal(t.column("event_type"), "view")).column("value").to_numpy()
    vb = t.filter(pa.compute.equal(t.column("event_type"), "click")).column("value").to_numpy()

    def s2(v):
        return (np.sum(v * v) - np.sum(v) ** 2 / len(v)) / (len(v) - 1)

    want = (va.mean() - vb.mean()) / np.sqrt(s2(va) / len(va) + s2(vb) / len(vb))
    assert got.column("n_a")[0].as_py() == len(va)
    assert got.column("n_b")[0].as_py() == len(vb)
    assert got.column("t_stat")[0].as_py() == pytest.approx(
        float(round_half_away(want, 6)), abs=2e-6
    )


def test_mad_matches_numpy():
    """Exact MAD: two chained distributed medians vs direct numpy on the
    same column (quantile_disc rank semantics: element at ceil(q*N))."""
    import numpy as np
    import pyarrow.parquet as pq

    from distributed_text_search_ray.pipelines.relational import (
        median_absolute_deviation,
    )
    from distributed_text_search_ray.util import round_half_away

    got = median_absolute_deviation(SF)
    v = np.sort(
        pq.read_table(f"{SF}/events.parquet", columns=["value"])
        .column("value")
        .to_numpy()
    )
    med = v[int(np.ceil(0.5 * len(v))) - 1]
    dev = np.sort(np.abs(v - med))
    mad = dev[int(np.ceil(0.5 * len(dev))) - 1]
    assert got.column("median")[0].as_py() == float(round_half_away(med, 6))
    assert got.column("mad")[0].as_py() == float(round_half_away(mad, 6))


def test_composite_agg_pagination_covers_keyspace():
    """ES composite agg: walking pages with after-keys enumerates every
    (lang, source) bucket exactly once, in key order, with exact counts."""
    import duckdb

    from distributed_text_search_ray.pipelines.relational import composite_agg

    pages, after = [], None
    while True:
        rows = composite_agg(SF, after=after, size=7).take_all()
        if not rows:
            break
        pages.extend((r["lang"], r["source"], r["doc_count"]) for r in rows)
        after = (rows[-1]["lang"], rows[-1]["source"])
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    want = con.execute(
        "SELECT lang, source, count(*)::BIGINT FROM documents GROUP BY 1, 2 ORDER BY 1, 2"
    ).fetchall()
    assert pages == [tuple(w) for w in want]


def test_boxplot_matches_numpy():
    import numpy as np
    import pyarrow.parquet as pq

    from distributed_text_search_ray.pipelines.relational import boxplot_agg
    from distributed_text_search_ray.util import round_half_away

    got = boxplot_agg(SF)
    v = np.sort(
        pq.read_table(f"{SF}/events.parquet", columns=["value"]).column("value").to_numpy()
    )
    rank = lambda q: v[max(int(np.ceil(q * len(v))) - 1, 0)]
    assert got.column("vmin")[0].as_py() == float(round_half_away(v[0], 6))
    assert got.column("vmax")[0].as_py() == float(round_half_away(v[-1], 6))
    for col, q in (("q1", 0.25), ("median", 0.5), ("q3", 0.75)):
        assert got.column(col)[0].as_py() == float(round_half_away(rank(q), 6))


def test_retention_cohorts_matches_duckdb():
    """Retention cohorts vs direct DuckDB, at a 2-day bucket so several
    cohorts and offsets exist at sf0.001."""
    import duckdb

    from distributed_text_search_ray.pipelines.relational import retention_cohorts

    got = sorted(
        (r["cohort_period"], r["period_k"], r["n_users"])
        for r in retention_cohorts(SF, bucket_days=2).take_all()
    )
    p = 2 * 24 * 3600 * 1_000_000
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    want = sorted(
        tuple(r)
        for r in con.execute(
            f"""
        WITH ev AS (SELECT user_id, epoch_us(ts) tus FROM events),
        f AS (SELECT user_id, min(tus) t0 FROM ev GROUP BY 1),
        b AS (SELECT DISTINCT f.t0 // {p} c, (ev.tus - f.t0) // {p} k, ev.user_id
              FROM ev JOIN f USING (user_id))
        SELECT c, k, count(*)::BIGINT FROM b GROUP BY 1, 2
        """
        ).fetchall()
    )
    assert got == want
    assert len(got) > 8  # several cohorts x offsets
    # every user's own cohort row exists with k=0
    assert all(any(g[0] == c and g[1] == 0 for g in got) for c in {g[0] for g in got})


def test_source_diversity_vs_python():
    """Distinct/total shingle diversity vs direct Python over a tiny
    crafted corpus with a repetitive source."""
    import ray.data

    from distributed_text_search_ray.pipelines.textstats import source_diversity
    from distributed_text_search_ray.util import round_half_away

    docs = [
        {"content": "a b c d e f g", "source": "fresh"},
        {"content": "a b c d e a b c d e a b c d e", "source": "boiler"},
        {"content": "x y", "source": "short"},  # no 5-gram -> absent
    ]
    got = source_diversity(
        ray.data.from_items(docs, override_num_blocks=3), shingle_n=5
    )
    rows = {
        got.column("source")[i].as_py(): (
            got.column("total_ngrams")[i].as_py(),
            got.column("distinct_ngrams")[i].as_py(),
            got.column("diversity")[i].as_py(),
        )
        for i in range(got.num_rows)
    }
    assert set(rows) == {"fresh", "boiler"}
    assert rows["fresh"] == (3, 3, 1.0)
    # boiler: 11 windows over the repeated phrase, 5 distinct rotations
    assert rows["boiler"][0] == 11 and rows["boiler"][1] == 5
    assert rows["boiler"][2] == float(round_half_away(5 / 11, 6))


def test_extended_stats_partials_exact_past_2_53(tmp_path):
    """A block's micro-unit Σx² partial past 2^53 (where float64 stops
    holding every integer) still sums exactly: one value whose quantized
    square is ~2^54, then small values whose quantized squares (1 each)
    a float64 running sum would drop. The output equals Python integer
    sums of the same quantized values."""
    import numpy as np

    from distributed_text_search_ray.pipelines.relational import extended_stats
    from distributed_text_search_ray.util import round_half_away

    v = np.array([134217.728] + [0.001] * 199 + [1.5, 2.25])
    types = ["a"] * 200 + ["b"] * 2
    pq.write_table(
        pa.table({"event_type": types, "value": v}), str(tmp_path / "events.parquet")
    )
    got = {r["event_type"]: r for r in extended_stats(str(tmp_path)).take_all()}
    assert set(got) == {"a", "b"}
    for t, row in got.items():
        x = v[np.array(types) == t]
        sx = sum(int(q) for q in round_half_away(x * 1e6, 0))
        sxx = sum(int(q) for q in round_half_away(x * x * 1e6, 0))
        assert row["n"] == len(x)
        assert row["vsum"] == round_half_away(float(sx) / 1e6, 6)
        assert row["sum_of_squares"] == round_half_away(float(sxx) / 1e6, 6)
    assert sum(int(q) for q in round_half_away(v[:200] ** 2 * 1e6, 0)) > 2**53
    # a value whose quantized square could overflow the int64 block sum
    pq.write_table(
        pa.table({"event_type": ["a", "a"], "value": [3.1e6, 1.0]}),
        str(tmp_path / "events.parquet"),
    )
    with pytest.raises(Exception, match="overflows"):
        extended_stats(str(tmp_path)).take_all()


def test_extended_stats_matches_duckdb():
    import duckdb

    from distributed_text_search_ray.pipelines.relational import extended_stats

    got = sorted(
        tuple(r[k] for k in ("event_type", "n", "vmin", "vmax", "vsum", "avg",
                             "sum_of_squares", "variance", "std_dev"))
        for r in extended_stats(SF).take_all()
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    want = sorted(
        tuple(r)
        for r in con.execute(
            """
        SELECT event_type, count(*)::BIGINT, round(min(value),6), round(max(value),6),
               round(sum(value),6), round(sum(value)/count(*),6),
               round(sum(value*value),6),
               round(sum(value*value)/count(*)
                     - (sum(value)/count(*))*(sum(value)/count(*)),6),
               round(sqrt(greatest(sum(value*value)/count(*)
                     - (sum(value)/count(*))*(sum(value)/count(*)),0)),6)
        FROM events GROUP BY 1
        """
        ).fetchall()
    )
    assert len(got) == 5
    for g, w in zip(got, want):
        assert g[0] == w[0] and g[1] == w[1]
        for a, b in zip(g[2:], w[2:]):
            assert a == pytest.approx(b, abs=2e-6)


def test_gap_stats_bucket_invariance_and_duckdb():
    import duckdb

    from distributed_text_search_ray.pipelines.relational import gap_stats

    def rows(nb):
        return sorted(
            (r["event_type"], r["n_gaps"], r["avg_gap_s"], r["std_gap_s"])
            for r in gap_stats(SF, n_buckets=nb).take_all()
        )

    got = rows(64)
    assert got == rows(3)  # a user never splits across buckets
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    want = sorted(
        tuple(r)
        for r in con.execute(
            """
        WITH ev AS (
          SELECT user_id, event_type, epoch_us(ts) tus,
                 lag(epoch_us(ts)) OVER (
                   PARTITION BY user_id, event_type ORDER BY ts, event_id) prev
          FROM events),
        g AS (SELECT event_type, (tus - prev) / 1000000.0 gap
              FROM ev WHERE prev IS NOT NULL)
        SELECT event_type, count(*)::BIGINT,
               round(sum(gap) / count(*), 6),
               round(sqrt(greatest(sum(gap * gap) / count(*)
                     - (sum(gap) / count(*)) * (sum(gap) / count(*)), 0)), 6)
        FROM g GROUP BY 1
        """
        ).fetchall()
    )
    for g, w in zip(got, want):
        assert g[0] == w[0] and g[1] == w[1]
        assert g[2] == pytest.approx(w[2], abs=2e-6)
        assert g[3] == pytest.approx(w[3], abs=2e-6)


def test_gap_stats_reduce_is_block_order_independent():
    """The final reduce of gap_stats adds the per-bucket float partials with
    math.fsum, so any order in which the shuffle delivers them gives the same
    doubles — here, orders whose plain left-to-right sums differ."""
    import numpy as np
    import ray.data

    from distributed_text_search_ray.pipelines.relational import _gap_stats_reduce

    rng = np.random.default_rng(11)
    n = 48
    types = np.array(["click", "view", "buy"])[rng.integers(0, 3, n)]
    sx = rng.random(n) * 10.0 ** rng.integers(0, 13, n)
    parts = pa.table(
        {
            "event_type": pa.array(types.tolist(), type=pa.string()),
            "n": pa.array(rng.integers(1, 10**6, n), type=pa.int64()),
            "sx": pa.array(sx, type=pa.float64()),
            "sxx": pa.array(sx * sx * (1 + rng.random(n)), type=pa.float64()),
        }
    )
    orders = [rng.permutation(n) for _ in range(4)]
    plain = {float(np.add.reduce(sx[o][types[o] == "click"])) for o in orders}
    assert len(plain) > 1  # the orders do reorder a non-associative float sum

    def rows(order, n_blocks):
        shuffled = parts.take(pa.array(order))
        cuts = np.linspace(0, n, n_blocks + 1).astype(int)
        blocks = [shuffled.slice(a, b - a) for a, b in zip(cuts, cuts[1:])]
        ds = ray.data.from_arrow(blocks)
        return sorted(tuple(r.values()) for r in _gap_stats_reduce(ds).take_all())

    want = rows(np.arange(n), 1)
    for i, order in enumerate(orders):
        assert rows(order, 2 + i) == want
