"""Output checks, run after the timed window.

BM25 top-k and windowed APM counts are recomputed in DuckDB from the raw
text, independently of the engine's code: the analyzer is
``string_split_regex(lower(text), '[^a-z0-9_]+')`` and BM25 is
``ln(1+(N-df+0.5)/(df+0.5)) * tf*(k1+1)/(tf+k1*(1-b+b*dl/avgdl))``. Each
check returns None or a description of what is wrong.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa

SCORE_TOL = 1e-9
K1, B = 1.2, 0.75  # the engine's default BM25 parameters


def connect() -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    con.execute("SET threads = 2")
    return con


def load_postings(con, ids: list[int], texts: list[str]) -> None:
    """Registers ``post(doc_id, term, tf)`` and ``stats(n, avgdl)``."""
    con.register("docs_in", pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts}))
    con.execute(
        """
        CREATE OR REPLACE TABLE toks AS
        SELECT doc_id, list_filter(string_split_regex(lower(text), '[^a-z0-9_]+'),
                                   x -> x <> '') AS t
        FROM docs_in
        """
    )
    con.execute(
        """
        CREATE OR REPLACE TABLE dl AS SELECT doc_id, len(t) AS dl FROM toks;
        CREATE OR REPLACE TABLE stats AS
            SELECT count(*)::DOUBLE AS n, sum(dl)::DOUBLE / count(*) AS avgdl FROM dl;
        CREATE OR REPLACE TABLE post AS
            SELECT doc_id, term, count(*) AS tf FROM (SELECT doc_id, unnest(t) AS term FROM toks)
            GROUP BY doc_id, term;
        CREATE OR REPLACE TABLE df AS SELECT term, count(*) AS df FROM post GROUP BY term;
        """
    )
    con.unregister("docs_in")


class Bm25Oracle:
    """BM25 from DuckDB's per-(term, doc) contributions; a query's scores
    are summed in numpy. Score sums may differ from the engine's in the last
    bits, hence the tolerance."""

    def __init__(self, con):
        t = con.execute(
            f"""
            SELECT p.term, p.doc_id,
                   ln(1 + (s.n - f.df + 0.5) / (f.df + 0.5))
                   * p.tf * ({K1} + 1) / (p.tf + {K1} * (1 - {B} + {B} * d.dl / s.avgdl)) AS w
            FROM post p JOIN df f USING (term) JOIN dl d USING (doc_id), stats s
            ORDER BY p.term, p.doc_id
            """
        ).arrow()
        terms = t.column("term").to_pylist()
        self.docs = t.column("doc_id").to_numpy()
        self.w = t.column("w").to_numpy()
        self.span: dict[str, tuple[int, int]] = {}
        start = 0
        for i in range(1, len(terms) + 1):
            if i == len(terms) or terms[i] != terms[start]:
                self.span[terms[start]] = (start, i)
                start = i
        self.con = con
        self.scores = np.zeros(int(self.docs.max()) + 1 if len(self.docs) else 0)

    def analyze(self, texts: list[str]) -> list[list[str]]:
        self.con.register("q_in", pa.table({"q": texts}))
        rows = self.con.execute(
            "SELECT list_filter(string_split_regex(lower(q), '[^a-z0-9_]+'), x -> x <> '') FROM q_in"
        ).fetchall()
        self.con.unregister("q_in")
        return [sorted(set(r[0])) for r in rows]

    def candidates(self, terms: list[str], k: int) -> tuple[dict[int, float], int]:
        """{doc_id: score} of every doc scoring at least the kth-best score
        minus the tolerance (the boundary tie group included), and the
        number of docs that match at all."""
        buf = self.scores
        touched = []
        for term in terms:
            if term in self.span:
                s, e = self.span[term]
                buf[self.docs[s:e]] += self.w[s:e]
                touched.append(self.docs[s:e])
        if not touched:
            return {}, 0
        hit = np.unique(np.concatenate(touched))
        sc = buf[hit]
        buf[hit] = 0.0
        kth = np.partition(sc, len(sc) - k)[len(sc) - k] if len(sc) > k else sc.min()
        keep = sc >= kth - SCORE_TOL
        return dict(zip(hit[keep].tolist(), sc[keep].tolist())), len(hit)


def check_topk(got: list[tuple[int, float]], cand: dict[int, float], n_match: int, k: int) -> str | None:
    """``got``: the engine's ranked (doc_id, score) list for one query.

    Correct when it holds min(k, n_match) rows ordered by (score desc,
    doc_id asc), every row's score equals the oracle's score for that doc,
    and it includes every doc scoring strictly above the kth-best score
    (docs tied with the kth-best may be any of the tie group)."""
    want_n = min(k, n_match)
    if len(got) != want_n:
        return f"{len(got)} rows, expected {want_n}"
    if len({d for d, _ in got}) != len(got):
        return "duplicate doc ids"
    for (d1, s1), (d2, s2) in zip(got, got[1:]):
        if (s1, -d1) < (s2, -d2):
            return f"rows out of order at doc {d2}"
    for d, s in got:
        if d not in cand:
            return f"doc {d} (score {s!r}) is not among the oracle's top {k}"
        if abs(cand[d] - s) > SCORE_TOL:
            return f"doc {d} score {s!r}, oracle {cand[d]!r}"
    if got:
        kth = got[-1][1]
        ids = {d for d, _ in got}
        missed = [d for d, s in cand.items() if s > kth + SCORE_TOL and d not in ids]
        if missed:
            return f"missing docs {sorted(missed)[:5]} that outscore the kth row"
    return None


def apm_counts(con, texts: list[str], patterns: list[tuple[int, str, int]]) -> dict[int, int]:
    """Windowed match counts, the reference's truncated-window semantics:
    every start position i counts when the window ``text[i:i+m]`` (cut at
    the text's end) is within distance k of the pattern cut to the same
    length."""
    con.register("t_in", pa.table({"text": texts}))
    con.register(
        "p_in",
        pa.table(
            {
                "qid": pa.array([q for q, _, _ in patterns], pa.int64()),
                "pat": [p for _, p, _ in patterns],
                "k": pa.array([k for _, _, k in patterns], pa.int64()),
            }
        ),
    )
    rows = con.execute(
        """
        WITH w AS (
            SELECT p.qid, p.pat, p.k, substring(t.text, i, length(p.pat)) AS win
            FROM t_in t, p_in p, unnest(range(1, length(t.text) + 1)) AS r(i))
        SELECT qid, count(*) FILTER (
            WHERE levenshtein(win, substring(pat, 1, length(win))) <= k)
        FROM w GROUP BY qid
        """
    ).fetchall()
    con.unregister("t_in")
    con.unregister("p_in")
    out = {q: 0 for q, _, _ in patterns}
    out.update({int(q): int(c) for q, c in rows})
    return out


def fuzzy_stats(con, patterns: list[tuple[int, str, int]]) -> dict[int, tuple[int, int, int]]:
    """Term-level fuzzy stats over the loaded postings: for each (qid,
    pattern, k), the number of vocabulary terms within Levenshtein distance
    k, the distinct docs holding any of them, and their total occurrences."""
    con.register(
        "f_in",
        pa.table(
            {
                "qid": pa.array([q for q, _, _ in patterns], pa.int64()),
                "pat": [p for _, p, _ in patterns],
                "k": pa.array([k for _, _, k in patterns], pa.int64()),
            }
        ),
    )
    rows = con.execute(
        """
        WITH m AS (
            SELECT f.qid, d.term FROM f_in f, df d
            WHERE levenshtein(f.pat, d.term) <= f.k)
        SELECT m.qid, count(DISTINCT m.term), count(DISTINCT p.doc_id), sum(p.tf)
        FROM m JOIN post p USING (term) GROUP BY m.qid
        """
    ).fetchall()
    con.unregister("f_in")
    out = {q: (0, 0, 0) for q, _, _ in patterns}
    out.update({int(q): (int(a), int(b), int(c)) for q, a, b, c in rows})
    return out
