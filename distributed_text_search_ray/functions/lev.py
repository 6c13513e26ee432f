"""Levenshtein kernels.

Two distinct uses, mirroring the reference:

1. **Windowed approximate-pattern-match (APM) conformance semantics** — the
   reference's core kernel (``/root/reference/src/apm1.c:235-281``): a pattern
   ``p`` of length ``m`` matches text ``T`` (length ``N``) at position ``j``
   iff ``lev(p[:size], T[j:j+size]) <= k`` with ``size = min(m, N - j)`` —
   near the end of the text **both** strings are truncated
   (``src/apm1.c:86-104`` loops both operands to ``len``). Every position
   ``j in [0, N)`` is tested; overlapping matches all count
   (``src/apm1.c:274``). Consequence: for ``k >= 1`` the last ``k`` positions
   always match (distance <= size <= k). We preserve this exactly, but
   per-document (windows do not cross document boundaries — documented model
   change, SURVEY.md section 8.3).

2. **Term-dictionary fuzzy expansion** — standard (untruncated) Levenshtein
   between a query pattern and candidate dictionary terms, banded at ``k``.

Both are vectorized with numpy: the DP loops run over the (small) pattern
dimensions while every position/term is processed as one vector lane. Strings
are compared as Unicode codepoints (``utf-32-le`` reinterpret), matching
Python's and DuckDB's character-based ``levenshtein``.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 16


def _dp_dtype(k: int, steps: int):
    """DP cell dtype. With the capped init (row 0 clipped at k+1) and NO
    per-step cap, any cell is bounded by k+1 plus one +1 per column, i.e.
    <= k+1+steps; every value > k is equivalent for both the <= k test and
    min-propagation (a true <= k distance is realized through a path of
    true-valued cells that dominate the drifted ones). uint8 is exact when
    that bound fits — 4x less memory traffic than int32 on the
    bandwidth-bound window sweeps."""
    return np.uint8 if k + 1 + steps <= 250 else np.int32


def codepoints(s: str) -> np.ndarray:
    """str -> uint32 codepoint array (zero-copy-ish via utf-32 encode)."""
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)


def levenshtein(a: str, b: str) -> int:
    """Plain O(len(a)*len(b)) DP — reference for tests and tail windows."""
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev = list(range(lb + 1))
    for x in range(1, la + 1):
        cur = [x] + [0] * lb
        ca = a[x - 1]
        for y in range(1, lb + 1):
            cur[y] = min(prev[y] + 1, cur[y - 1] + 1, prev[y - 1] + (ca != b[y - 1]))
        prev = cur
    return prev[lb]


def _banded_window_pass(wins: np.ndarray, P: np.ndarray, k: int) -> np.ndarray:
    """Vectorized banded DP: lev(P, w) capped at k+1 for each window row.

    ``wins``: (W, m) codepoints; ``P``: (m,) codepoints. Returns (W,) int32
    distances (values > k are reported as k+1).
    """
    W, m = wins.shape
    dt = _dp_dtype(k, m)
    INF = dt(k + 1)
    base = np.minimum(np.arange(m + 1, dtype=np.int64), k + 1).astype(dt)
    prev = np.broadcast_to(base[:, None], (m + 1, W)).copy()  # D[x][0] = x
    cur = np.empty_like(prev)
    nb = np.empty(W, dtype=bool)
    nb_u8 = nb.view(np.uint8)
    t1 = np.empty(W, dtype=dt)
    t2 = np.empty(W, dtype=dt)
    for y in range(1, m + 1):
        cur.fill(INF)
        cur[0] = min(y, k + 1)
        wy = wins[:, y - 1]
        lo = max(1, y - k)
        hi = min(m, y + k)
        for x in range(lo, hi + 1):
            # zero-alloc banded step (see _dp_dtype for the no-cap argument)
            np.not_equal(P[x - 1], wy, out=nb)
            np.add(prev[x - 1], nb_u8 if dt == np.uint8 else nb, out=t1)
            np.add(prev[x], dt(1), out=t2)
            np.minimum(t1, t2, out=t1)
            np.add(cur[x - 1], dt(1), out=t2)
            np.minimum(t1, t2, out=cur[x])
        prev, cur = cur, prev
    # re-clamp drifted >k values to the documented k+1 cap
    return np.minimum(prev[m].astype(np.int32), k + 1)


def _banded_window_pass_multi(wins: np.ndarray, Pmat: np.ndarray, k: int) -> np.ndarray:
    """Multi-pattern banded DP: lev(P_i, w_j) capped at k+1 for every
    (pattern, window) pair in one pass. ``wins``: (W, m); ``Pmat``: (P, m) —
    all patterns the same length m. Returns (P, W) int32.

    Per-cell ops process P*W lanes at once, amortizing numpy dispatch over
    the pattern set (the reference's pattern-heavy scenarios spend their time
    there)."""
    W, m = wins.shape
    P = Pmat.shape[0]
    dt = _dp_dtype(k, m)
    INF = dt(k + 1)
    base = np.minimum(np.arange(m + 1, dtype=np.int64), k + 1).astype(dt)
    prev = np.broadcast_to(base[:, None, None], (m + 1, P, W)).copy()
    cur = np.empty_like(prev)
    Pcol = Pmat.T[:, :, None]  # (m, P, 1)
    nb = np.empty((P, W), dtype=bool)
    nb_u8 = nb.view(np.uint8)  # same buffer: keeps the add a pure-uint8 loop
    t1 = np.empty((P, W), dtype=dt)
    t2 = np.empty((P, W), dtype=dt)
    for y in range(1, m + 1):
        cur.fill(INF)
        cur[0] = min(y, k + 1)
        wy = wins[:, y - 1][None, :]  # (1, W)
        lo = max(1, y - k)
        hi = min(m, y + k)
        for x in range(lo, hi + 1):
            # zero-alloc banded step (see _dp_dtype for the no-cap argument)
            np.not_equal(Pcol[x - 1], wy, out=nb)
            np.add(prev[x - 1], nb_u8 if dt == np.uint8 else nb, out=t1)
            np.add(prev[x], dt(1), out=t2)
            np.minimum(t1, t2, out=t1)
            np.add(cur[x - 1], dt(1), out=t2)
            np.minimum(t1, t2, out=cur[x])
        prev, cur = cur, prev
    # re-clamp drifted >k values to the documented k+1 cap
    return np.minimum(prev[m].astype(np.int32), k + 1)


def windowed_match_counts_multi(
    texts: list[str],
    patterns: list[tuple[int, str, int]],
    owned: list[int] | None = None,
    tails: list[bool] | None = None,
) -> dict[int, int]:
    """Counts for MANY patterns over many documents, grouping patterns by
    (length, k) so each group runs one multi-lane banded DP over the shared
    window matrix. Returns {query_id: count}. Exact same semantics as
    summing :func:`windowed_match_count` per doc (fuzz-tested).

    ``owned``/``tails`` support halo'd document SEGMENTS (the reference's
    neighbor-overlap trick, ``src/flexible_mpi.c:196-197``): ``owned[i]``
    caps the counted window start positions of ``texts[i]`` (the extra
    suffix chars are halo, owned by the next segment); ``tails[i]`` says
    whether ``texts[i]`` runs to its document's end, so that its last
    positions are truncated tail windows (a segment before a final one
    shorter than the halo reaches the end too). Defaults reproduce the
    plain whole-document semantics.
    """
    out: dict[int, int] = {}
    groups: dict[tuple[int, int], list[tuple[int, str]]] = {}
    for qid, pat, k in patterns:
        if len(pat) == 0:
            out[int(qid)] = 0
            continue
        groups.setdefault((len(pat), int(k)), []).append((int(qid), pat))
    if owned is None:
        owned = [len(t) for t in texts]
    if tails is None:
        tails = [True] * len(texts)
    keep = [i for i, t in enumerate(texts) if len(t) > 0]
    arrs = [codepoints(texts[i]) for i in keep]
    own = [owned[i] for i in keep]
    lens = np.fromiter((a.size for a in arrs), dtype=np.int64, count=len(arrs))
    T = np.concatenate(arrs) if arrs else np.empty(0, np.uint32)
    ends = np.cumsum(lens)
    starts = ends - lens
    tail = np.array([tails[i] for i in keep], dtype=bool)
    own_arr = np.array(own, dtype=np.int64)
    for (m, k), group in groups.items():
        Pmat = np.stack([codepoints(p) for _, p in group])
        counts = np.zeros(len(group), dtype=np.int64)
        W = T.size - m + 1
        if W > 0:
            valid = np.zeros(W, dtype=bool)
            for s, e, o in zip(starts, ends, own):
                n_full = min(int(o), int(e - s) - m + 1)
                if n_full > 0:
                    valid[s : s + n_full] = True
            wins_all = np.lib.stride_tricks.sliding_window_view(T, m)
            # chunk so the DP working set stays cache-sized
            chunk = max(1024, min(_CHUNK, (64 << 20) // max(1, len(group) * (m + 1))))
            for s in range(0, W, chunk):
                e = min(W, s + chunk)
                v = valid[s:e]
                if not v.any():
                    continue
                d = _banded_window_pass_multi(
                    np.ascontiguousarray(wins_all[s:e]), Pmat, k
                )
                counts += ((d <= k) & v[None, :]).sum(axis=1)
        # truncated tails: one window matrix per group, one pass per pattern
        tail_wins = _tail_windows(T, starts[tail], ends[tail], own_arr[tail], m, k)
        for gi, (qid, pat) in enumerate(group):
            c = int(counts[gi]) + _tail_matches(tail_wins, Pmat[gi], k)
            out[qid] = out.get(qid, 0) + c
    return out


def _banded_diag_pass(
    wins: np.ndarray, P: np.ndarray, k: int, sizes: np.ndarray
) -> np.ndarray:
    """Per-row distance lev(P[:s], w[:s]) for row-specific sizes s, capped at
    k+1 — the truncated-tail semantics. Uses the fact that DP cell (s, s) of
    the full lev(P, w_padded) table equals lev(P[:s], w[:s]) regardless of
    padding, so one banded pass serves every size (capture cur[x=y] when the
    outer column y hits a row's s)."""
    W, m = wins.shape
    dt = _dp_dtype(k, m)
    INF = dt(k + 1)
    out = np.full(W, k + 1, dtype=np.int32)
    done0 = sizes == 0
    if done0.any():
        out[done0] = 0
    base = np.minimum(np.arange(m + 1, dtype=np.int64), k + 1).astype(dt)
    prev = np.broadcast_to(base[:, None], (m + 1, W)).copy()
    cur = np.empty_like(prev)
    nb = np.empty(W, dtype=bool)
    nb_u8 = nb.view(np.uint8)
    t1 = np.empty(W, dtype=dt)
    t2 = np.empty(W, dtype=dt)
    for y in range(1, m + 1):
        cur.fill(INF)
        cur[0] = min(y, k + 1)
        wy = wins[:, y - 1]
        lo = max(1, y - k)
        hi = min(m, y + k)
        for x in range(lo, hi + 1):
            np.not_equal(P[x - 1], wy, out=nb)
            np.add(prev[x - 1], nb_u8 if dt == np.uint8 else nb, out=t1)
            np.add(prev[x], dt(1), out=t2)
            np.minimum(t1, t2, out=t1)
            np.add(cur[x - 1], dt(1), out=t2)
            np.minimum(t1, t2, out=cur[x])
        finished = sizes == y
        if finished.any():
            out[finished] = cur[y][finished]  # D[x=s][y=s]
        prev, cur = cur, prev
    return np.minimum(out, k + 1)


def _tail_windows(
    T: np.ndarray, starts: np.ndarray, ends: np.ndarray, owned: np.ndarray, m: int, k: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Truncated-tail positions (size = end - j < m) of the documents
    ``T[starts[i]:ends[i]]`` of the concatenated codepoints ``T``, among each
    one's first ``owned[i]`` positions, built with no per-position loop:
    ``(windows, sizes, certain)``. A position of size <= k always matches
    (lev of two length-s strings is <= s <= k), so only ``certain`` counts
    those; the others come as rows of ``windows``, ``m`` codepoints wide, of
    which :func:`_banded_diag_pass` reads only the first ``size``."""
    n_tail = np.minimum(ends - starts, m - 1)  # sizes 1..n_tail per doc
    lo = np.maximum(ends - starts - owned, 0) + 1  # smallest owned size
    certain = int(np.maximum(np.minimum(n_tail, k) - lo + 1, 0).sum())
    lo = np.maximum(lo, k + 1)
    n_todo = np.maximum(n_tail - lo + 1, 0)  # sizes lo..n_tail
    total = int(n_todo.sum())
    if total == 0:
        return np.empty((0, m), np.uint32), np.empty(0, np.int64), certain
    first_row = np.cumsum(n_todo) - n_todo
    sizes = np.repeat(lo, n_todo) + np.arange(total) - np.repeat(first_row, n_todo)
    first = np.repeat(ends, n_todo) - sizes
    # columns >= a row's size are never read; clip them into T
    wins = T[np.minimum(first[:, None] + np.arange(m), T.size - 1)]
    return wins, sizes, certain


def _tail_matches(tail_wins: tuple[np.ndarray, np.ndarray, int], P: np.ndarray, k: int) -> int:
    """Matching truncated-tail positions of pattern ``P`` among
    :func:`_tail_windows`' output."""
    wins, sizes, certain = tail_wins
    if not len(sizes):
        return certain
    return certain + int((_banded_diag_pass(wins, P, k, sizes) <= k).sum())


def windowed_match_count(text: str, pattern: str, k: int) -> int:
    """Number of matching positions of ``pattern`` in ``text`` under the
    reference's truncated-window semantics (module docstring, use 1)."""
    N = len(text)
    m = len(pattern)
    if N == 0 or m == 0:
        return 0
    T = codepoints(text)
    P = codepoints(pattern)
    count = 0
    W = N - m + 1
    if W > 0:
        for s in range(0, W, _CHUNK):
            e = min(W, s + _CHUNK)
            wins = np.lib.stride_tricks.sliding_window_view(T, m)[s:e]
            dists = _banded_window_pass(np.ascontiguousarray(wins), P, k)
            count += int((dists <= k).sum())
    # Tail positions: size = N - j < m; BOTH strings truncated to size.
    ends = np.array([N], dtype=np.int64)
    count += _tail_matches(_tail_windows(T, ends - N, ends, ends, m, k), P, k)
    return count


def windowed_match_count_many(texts: list[str], pattern: str, k: int) -> int:
    """Sum of :func:`windowed_match_count` over many documents, with ONE
    banded DP over the concatenation of all full windows.

    Per-document calls pay m*(2k+1) numpy dispatches per ~300-char doc —
    pure Python overhead on short documents. Here all documents' full windows
    run as one vector (windows crossing document boundaries are computed but
    masked out; the waste is m-1 windows per boundary). Truncated tail
    positions (size < m) run as one diagonal pass over all documents' tail
    windows.
    """
    m = len(pattern)
    if m == 0 or not texts:
        return 0
    P = codepoints(pattern)
    arrs = [codepoints(t) for t in texts if len(t) > 0]
    if not arrs:
        return 0
    lens = np.fromiter((len(a) for a in arrs), dtype=np.int64, count=len(arrs))
    T = np.concatenate(arrs)
    ends = np.cumsum(lens)
    starts = ends - lens
    N = T.size
    count = 0
    W = N - m + 1
    if W > 0:
        # a window starting at j is valid iff it does not cross a doc
        # boundary: j + m <= end_of_doc(j)
        valid = np.zeros(W, dtype=bool)
        for s, e in zip(starts, ends):
            if e - s >= m:
                valid[s : e - m + 1] = True
        wins = np.lib.stride_tricks.sliding_window_view(T, m)
        for s in range(0, W, _CHUNK):
            e = min(W, s + _CHUNK)
            v = valid[s:e]
            if not v.any():
                continue
            dists = _banded_window_pass(np.ascontiguousarray(wins[s:e]), P, k)
            count += int(((dists <= k) & v).sum())
    # truncated tails per document (vectorized diagonal pass)
    count += _tail_matches(_tail_windows(T, starts, ends, lens, m, k), P, k)
    return count


def bounded_term_distances(pattern: str, terms: list[str], k: int) -> np.ndarray:
    """Standard Levenshtein distance between ``pattern`` and each term,
    vectorized across terms, capped at k+1.

    Callers should pre-filter terms to the length band
    ``abs(len(t) - len(pattern)) <= k`` (anything outside is > k by the length
    lower bound); this function still returns correct capped values without
    the pre-filter.
    """
    n = len(terms)
    if n == 0:
        return np.empty(0, dtype=np.int32)
    m = len(pattern)
    P = codepoints(pattern)
    lens = np.fromiter((len(t) for t in terms), dtype=np.int64, count=n)
    maxlen = int(lens.max()) if n else 0
    dt = _dp_dtype(k, maxlen)
    INF = dt(k + 1)
    out = np.full(n, k + 1, dtype=np.int32)
    if maxlen == 0:
        out[:] = min(m, k + 1)
        return out
    # pad terms into a (n, maxlen) codepoint matrix
    mat = np.zeros((n, maxlen), dtype=np.uint32)
    for i, t in enumerate(terms):
        if t:
            mat[i, : len(t)] = codepoints(t)
    base = np.minimum(np.arange(m + 1, dtype=np.int64), k + 1).astype(dt)
    prev = np.broadcast_to(base[:, None], (m + 1, n)).copy()
    # terms of length 0: distance = m
    done0 = lens == 0
    if done0.any():
        out[done0] = min(m, k + 1)
    cur = np.empty_like(prev)
    nb = np.empty(n, dtype=bool)
    nb_u8 = nb.view(np.uint8)
    t1 = np.empty(n, dtype=dt)
    t2 = np.empty(n, dtype=dt)
    for y in range(1, maxlen + 1):
        cur.fill(INF)
        cur[0] = min(y, k + 1)
        wy = mat[:, y - 1]
        lo = max(1, y - k)
        hi = min(m, y + k)
        for x in range(lo, hi + 1):
            np.not_equal(P[x - 1], wy, out=nb)
            np.add(prev[x - 1], nb_u8 if dt == np.uint8 else nb, out=t1)
            np.add(prev[x], dt(1), out=t2)
            np.minimum(t1, t2, out=t1)
            np.add(cur[x - 1], dt(1), out=t2)
            np.minimum(t1, t2, out=cur[x])
        finished = lens == y
        if finished.any():
            out[finished] = cur[m][finished]
        prev, cur = cur, prev
    return np.minimum(out, k + 1)


def osa_distance(a: str, b: str) -> int:
    """Optimal String Alignment (restricted Damerau-Levenshtein): plain
    Levenshtein plus ADJACENT TRANSPOSITION as one edit, with the OSA
    restriction that no substring is edited twice ("CA"->"ABC" is 3 here
    but 2 under unrestricted Damerau). Reference implementation for tests
    and the truncated-tail path; the vectorized kernel is
    :func:`bounded_term_distances_osa`. This is the variant Lucene/
    Elasticsearch use for ``fuzziness`` with transpositions."""
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev2: list[int] | None = None
    prev = list(range(lb + 1))
    for x in range(1, la + 1):
        cur = [x] + [0] * lb
        ca = a[x - 1]
        for y in range(1, lb + 1):
            c = min(prev[y] + 1, cur[y - 1] + 1, prev[y - 1] + (ca != b[y - 1]))
            if (
                x > 1
                and y > 1
                and ca == b[y - 2]
                and a[x - 2] == b[y - 1]
            ):
                c = min(c, prev2[y - 2] + 1)
            cur[y] = c
        prev2, prev = prev, cur
    return prev[lb]


def bounded_term_distances_osa(pattern: str, terms: list[str], k: int) -> np.ndarray:
    """OSA (restricted Damerau-Levenshtein) distance between ``pattern``
    and each term, vectorized across terms, capped at k+1 — the
    transpositions=true sibling of :func:`bounded_term_distances` (same
    banding, same dtype argument; one extra ``prev2`` row buffer feeds the
    transposition term). The |len(t) - len(pattern)| <= k length band
    remains valid: every OSA edit changes length by at most 1."""
    n = len(terms)
    if n == 0:
        return np.empty(0, dtype=np.int32)
    m = len(pattern)
    P = codepoints(pattern)
    lens = np.fromiter((len(t) for t in terms), dtype=np.int64, count=n)
    maxlen = int(lens.max()) if n else 0
    dt = _dp_dtype(k, maxlen)
    INF = dt(k + 1)
    out = np.full(n, k + 1, dtype=np.int32)
    if maxlen == 0:
        out[:] = min(m, k + 1)
        return out
    mat = np.zeros((n, maxlen), dtype=np.uint32)
    for i, t in enumerate(terms):
        if t:
            mat[i, : len(t)] = codepoints(t)
    base = np.minimum(np.arange(m + 1, dtype=np.int64), k + 1).astype(dt)
    prev = np.broadcast_to(base[:, None], (m + 1, n)).copy()
    prev2 = np.empty_like(prev)  # row y-2; valid from the second y-step on
    done0 = lens == 0
    if done0.any():
        out[done0] = min(m, k + 1)
    cur = np.empty_like(prev)
    nb = np.empty(n, dtype=bool)
    nb_u8 = nb.view(np.uint8)
    t1 = np.empty(n, dtype=dt)
    t2 = np.empty(n, dtype=dt)
    tr = np.empty(n, dtype=bool)
    for y in range(1, maxlen + 1):
        cur.fill(INF)
        cur[0] = min(y, k + 1)
        wy = mat[:, y - 1]
        wy_prev = mat[:, y - 2] if y > 1 else None
        lo = max(1, y - k)
        hi = min(m, y + k)
        for x in range(lo, hi + 1):
            np.not_equal(P[x - 1], wy, out=nb)
            np.add(prev[x - 1], nb_u8 if dt == np.uint8 else nb, out=t1)
            np.add(prev[x], dt(1), out=t2)
            np.minimum(t1, t2, out=t1)
            np.add(cur[x - 1], dt(1), out=t2)
            np.minimum(t1, t2, out=t1)
            if x > 1 and y > 1:
                # transposition: P[x-1]==w[y-2] and P[x-2]==w[y-1]
                np.equal(P[x - 1], wy_prev, out=tr)
                np.logical_and(tr, P[x - 2] == wy, out=tr)
                np.add(prev2[x - 2], dt(1), out=t2)
                np.minimum(t1, np.where(tr, t2, INF).astype(dt), out=t1)
            cur[x] = t1
        finished = lens == y
        if finished.any():
            out[finished] = cur[m][finished]
        prev2, prev, cur = prev, cur, prev2
    return np.minimum(out, k + 1)
