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

2. **Term-dictionary fuzzy expansion** — standard (untruncated) Levenshtein,
   or OSA with ``transpositions``, between query patterns and dictionary
   terms, banded at ``k``. The whole pattern set is answered in one call, as
   the reference answers its pattern list in one pass
   (``src/flexible_mpi.c:549-565``): :func:`term_distances_many` groups the
   patterns by (length m, k), gathers each group's length band
   ``[m - k, m + k]`` from a :class:`TermStore` (the terms' codepoints
   sorted by length, flat and unpadded: characters x dtype width + 4 bytes
   per term + 16 per length resident), and runs one banded DP over the
   group's (pattern, band-term) lanes, in chunks of at most
   ``_LANE_BUDGET // (m + L + 1)`` lanes for a band of longest length L.

Both are vectorized with numpy: the DP loops run over the (small) pattern
dimensions while every position/term is processed as one vector lane. Strings
are compared as Unicode codepoints (``utf-32-le`` reinterpret), matching
Python's and DuckDB's character-based ``levenshtein``.

The APM kernel (:func:`windowed_match_counts_multi`) filters, then verifies
(the partition filter of Wu & Manber, "Fast text searching allowing errors",
CACM 1992). Take a pattern P and a full window W, both of length m, with
lev(P, W) <= k < m. Cut P into k+1 disjoint non-empty pieces
``[b_i, b_{i+1})``, ``b_i = m*i // (k+1)``. The <= k edits touch at most k
pieces, so some piece is untouched, and it appears verbatim in W at
``[b_i+d, b_{i+1}+d)`` for a shift |d| <= k that keeps the span inside
``[0, m]``. The (pattern, window) pairs with some piece at some allowed shift
are therefore a superset of the matches, and the banded DP verifies only
those: the counts are exact by construction. When k >= m every full window
matches (lev <= m <= k), so no DP runs at all. Truncated tail windows keep
their own diagonal DP. :func:`windowed_match_count` — the path the oracle and
the tests' references take — runs the banded DP over every window, with no
filter.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 16
# (pattern, window) lanes x (m + 1) per filter-and-verify text chunk: bounds
# the filter's (G, chunk) bool lanes and, when every pair is a candidate,
# the verify DP's gathered windows; the term kernel's (pattern, term) lanes
# x (m + L + 1) per DP chunk
_LANE_BUDGET = 1 << 21


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


def _banded_window_pass(wcols: np.ndarray, pcols: np.ndarray, k: int) -> np.ndarray:
    """Vectorized banded DP: lev(p, w) capped at k+1 for each lane.

    ``wcols``: (m, W) codepoints, row y = character y of every lane's window
    (``sliding_window_view(T, m)[s:e].T`` is such a view, with no copy);
    ``pcols``: (m,) one pattern for all lanes, or (m, W) one per lane.
    Returns (W,) int32 distances (values > k are reported as k+1).
    """
    m, W = wcols.shape
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
        wy = wcols[y - 1]
        lo = max(1, y - k)
        hi = min(m, y + k)
        for x in range(lo, hi + 1):
            # zero-alloc banded step (see _dp_dtype for the no-cap argument)
            np.not_equal(pcols[x - 1], wy, out=nb)
            np.add(prev[x - 1], nb_u8 if dt == np.uint8 else nb, out=t1)
            np.add(prev[x], dt(1), out=t2)
            np.minimum(t1, t2, out=t1)
            np.add(cur[x - 1], dt(1), out=t2)
            np.minimum(t1, t2, out=cur[x])
        prev, cur = cur, prev
    # re-clamp drifted >k values to the documented k+1 cap
    return np.minimum(prev[m].astype(np.int32), k + 1)


def _piece_candidates(
    T: np.ndarray, Pmat: np.ndarray, k: int, s: int, e: int, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pigeonhole filter: the (pattern, window) pairs among windows
    ``[s, e)`` of ``T`` in which some piece of the pattern occurs verbatim at
    an allowed shift (module docstring) — a superset of the pairs within
    distance k < m. ``Pmat``: (G, m) patterns; ``valid``: (W,) full-window
    mask. Returns (pattern rows, window starts), both int64.

    All G patterns are compared at once as (G, n) bool lanes, so the number
    of numpy calls depends on m and k only, not on G."""
    G, m = Pmat.shape
    w = e - s
    cand = np.zeros((G, w), dtype=bool)
    occ = np.empty((G, w + 2 * k), dtype=bool)
    eq = np.empty_like(occ)
    b = [m * i // (k + 1) for i in range(k + 2)]
    for lo, hi in zip(b, b[1:]):
        # shifts d that keep the piece's span [lo+d, hi+d) inside the window;
        # every text position read is < e - 1 + m <= T.size
        dmin, dmax = max(-k, -lo), min(k, m - hi)
        n = w + dmax - dmin
        p0 = s + lo + dmin
        hit, tmp = occ[:, :n], eq[:, :n]
        np.equal(T[None, p0 : p0 + n], Pmat[:, lo, None], out=hit)
        for t in range(1, hi - lo):
            np.equal(T[None, p0 + t : p0 + t + n], Pmat[:, lo + t, None], out=tmp)
            hit &= tmp
        for off in range(dmax - dmin + 1):
            cand |= hit[:, off : off + w]
    cand &= valid[None, s:e]
    gi, wi = np.divmod(np.flatnonzero(cand), w)  # 2-D nonzero is ~8x slower
    return gi, wi + s


def windowed_match_counts_multi(
    texts: list[str],
    patterns: list[tuple[int, str, int]],
    owned: list[int] | None = None,
    tails: list[bool] | None = None,
) -> dict[int, int]:
    """Counts for MANY patterns over many documents. Returns
    {query_id: count}, the same as summing :func:`windowed_match_count` per
    doc (fuzz-tested).

    Patterns are grouped by (length m, k). Per group, the full windows of
    the concatenated documents (those crossing a document boundary are
    masked out) go through :func:`_piece_candidates` in text chunks of at
    most ``_LANE_BUDGET // (G * (m + 1))`` windows, and one banded DP per
    chunk verifies the candidate (pattern, window) pairs only. When k >= m
    every full window matches, so the group counts its valid windows with
    no DP. Truncated tail windows run through :func:`_banded_diag_pass`.

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
        G = len(group)
        Pmat = np.stack([codepoints(p) for _, p in group])
        counts = np.zeros(G, dtype=np.int64)
        W = T.size - m + 1
        if W > 0:
            valid = np.zeros(W, dtype=bool)
            for s, e, o in zip(starts, ends, own):
                n_full = min(int(o), int(e - s) - m + 1)
                if n_full > 0:
                    valid[s : s + n_full] = True
            if k >= m:
                counts += int(valid.sum())
            else:
                PT = np.ascontiguousarray(Pmat.T)  # (m, G): row x = char x
                chunk = max(1, _LANE_BUDGET // (G * (m + 1)))
                for s in range(0, W, chunk):
                    e = min(W, s + chunk)
                    if not valid[s:e].any():
                        continue
                    gi, j = _piece_candidates(T, Pmat, k, s, e, valid)
                    if gi.size:
                        wcols = np.empty((m, gi.size), dtype=T.dtype)
                        for y in range(m):  # row by row: no (m, C) int64 index
                            np.take(T, j + y, out=wcols[y])
                        # one pattern: compare lanes against a scalar per cell
                        pcols = PT[:, gi] if G > 1 else PT[:, 0]
                        d = _banded_window_pass(wcols, pcols, k)
                        counts += np.bincount(gi[d <= k], minlength=G)
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
    reference's truncated-window semantics (module docstring, use 1).

    Runs the banded DP over EVERY window, with no pigeonhole filter: this is
    the path ``oracle.oracle_windowed_counts`` and the tests' references
    take, so it stays independent of :func:`_piece_candidates`."""
    N = len(text)
    m = len(pattern)
    if N == 0 or m == 0:
        return 0
    T = codepoints(text)
    P = codepoints(pattern)
    count = 0
    W = N - m + 1
    if W > 0:
        wins = np.lib.stride_tricks.sliding_window_view(T, m)
        for s in range(0, W, _CHUNK):
            dists = _banded_window_pass(wins[s : s + _CHUNK].T, P, k)
            count += int((dists <= k).sum())
    # Tail positions: size = N - j < m; BOTH strings truncated to size.
    ends = np.array([N], dtype=np.int64)
    count += _tail_matches(_tail_windows(T, ends - N, ends, ends, m, k), P, k)
    return count


def windowed_match_count_many(texts: list[str], pattern: str, k: int) -> int:
    """Sum of :func:`windowed_match_count` over many documents."""
    return windowed_match_counts_multi(texts, [(0, pattern, k)])[0]


def osa_distance(a: str, b: str) -> int:
    """Optimal String Alignment (restricted Damerau-Levenshtein): plain
    Levenshtein plus ADJACENT TRANSPOSITION as one edit, with the OSA
    restriction that no substring is edited twice ("CA"->"ABC" is 3 here
    but 2 under unrestricted Damerau). Reference implementation for tests;
    the vectorized kernel is :func:`term_distances_many` with
    ``transpositions=True``. This is the variant Lucene/Elasticsearch use
    for ``fuzziness`` with transpositions."""
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


def _banded_term_pass(
    tcols: np.ndarray, lens: np.ndarray, pcols: np.ndarray, k: int, transpositions: bool
) -> np.ndarray:
    """Vectorized banded DP over (pattern, term) lanes: the standard
    (untruncated) distance between each lane's pattern and term, capped at
    k+1. Levenshtein, or OSA when ``transpositions`` (one extra ``prev2``
    row buffer feeds the adjacent-swap step).

    ``tcols``: (L, W) codepoints, row y = character y of every lane's term.
    A lane's distance is captured at outer step y == its term length, so
    its columns at and past that length are never read and may hold
    anything. ``lens``: (W,) term lengths, each within k of m (the lanes
    of a length band). ``pcols``: (m,) one pattern for all lanes, or (m, W)
    one per lane, of ``tcols``' dtype. Returns (W,) int32.

    Per term character y, the band's cells x in ``[lo, hi]`` take their
    diagonal, vertical (and transposition) candidates from the previous
    rows in whole-band calls; only the horizontal chain ``D[x] =
    min(D[x], D[x-1] + 1)`` runs cell by cell."""
    L, W = tcols.shape
    m = pcols.shape[0]
    pc2 = pcols if pcols.ndim == 2 else pcols[:, None]
    dt = _dp_dtype(k, L)
    INF = dt(k + 1)
    one = dt(1)
    out = np.full(W, k + 1, dtype=np.int32)
    out[lens == 0] = min(m, k + 1)
    base = np.minimum(np.arange(m + 1, dtype=np.int64), k + 1).astype(dt)
    prev = np.broadcast_to(base[:, None], (m + 1, W)).copy()  # D[x][0] = x
    cur = np.empty_like(prev)
    prev2 = np.empty_like(prev) if transpositions else None  # row y-2
    nb = np.empty((2 * k + 1, W), dtype=bool)
    sw = np.empty((2 * k + 1, W), dtype=bool)
    tv = np.empty((2 * k + 1, W), dtype=dt)
    for y in range(1, L + 1):
        # cells outside [lo - 1, hi + 1] are never read: no full-row fill
        lo, hi = max(1, y - k), min(m, y + k)
        cur[0] = min(y, k + 1)
        if lo <= hi:
            n = hi - lo + 1
            band, ne = cur[lo : hi + 1], nb[:n]
            # zero-alloc steps (see _dp_dtype for the no-cap argument)
            np.not_equal(pc2[lo - 1 : hi], tcols[y - 1], out=ne)
            np.add(prev[lo - 1 : hi], ne.view(np.uint8) if dt == np.uint8 else ne, out=band)
            np.add(prev[lo : hi + 1], one, out=tv[:n])
            np.minimum(band, tv[:n], out=band)
            a = max(lo, 2)
            if transpositions and y > 1 and a <= hi:
                # adjacent swap: P[x-1] == w[y-2] and P[x-2] == w[y-1]
                c = hi - a + 1
                np.equal(pc2[a - 1 : hi], tcols[y - 2], out=sw[:c])
                np.equal(pc2[a - 2 : hi - 1], tcols[y - 1], out=ne[:c])
                sw[:c] &= ne[:c]
                np.add(prev2[a - 2 : hi - 1], one, out=tv[:c])
                np.minimum(cur[a : hi + 1], tv[:c], out=cur[a : hi + 1], where=sw[:c])
            if lo == 1:
                np.minimum(cur[1], dt(min(y, k + 1) + 1), out=cur[1])
            for x in range(lo + 1, hi + 1):
                np.add(cur[x - 1], one, out=tv[0])
                np.minimum(cur[x], tv[0], out=cur[x])
        if hi < m:
            cur[hi + 1] = INF  # read as D[hi+1] by the next step
        if lo <= m <= hi or m == 0:
            finished = lens == y
            if finished.any():
                out[finished] = cur[m][finished]
        if transpositions:
            prev2, prev, cur = prev, cur, prev2
        else:
            prev, cur = cur, prev
    # re-clamp drifted >k values to the documented k+1 cap
    return np.minimum(out, k + 1)


def _lane_distances(
    tcols: np.ndarray, lens: np.ndarray, P: np.ndarray, k: int, transpositions: bool
) -> np.ndarray:
    """(G, B) capped distances of the G patterns ``P`` (G, m) against the B
    terms of ``tcols`` (L, B) / ``lens`` (B,): one banded DP over the G * B
    (pattern, term) lanes, pattern-major, in chunks of at most ``_LANE_BUDGET
    // (m + L + 1)`` lanes (DP rows plus term columns). A chunk is either
    whole patterns (the band tiled once per pattern) or one pattern's slice
    of a band longer than a chunk (compared against a scalar per cell)."""
    G, m = P.shape
    L, B = tcols.shape
    if P.size and int(P.max()) > np.iinfo(tcols.dtype).max:
        tcols = tcols.astype(P.dtype)  # a pattern char no term can hold
    PT = np.ascontiguousarray(P.T.astype(tcols.dtype))  # (m, G): row x = char x
    out = np.empty((G, B), dtype=np.int32)
    chunk = max(1, _LANE_BUDGET // (m + L + 1))
    if B > chunk:
        for g in range(G):
            for s in range(0, B, chunk):
                e = min(B, s + chunk)
                out[g, s:e] = _banded_term_pass(
                    tcols[:, s:e], lens[s:e], PT[:, g], k, transpositions
                )
        return out
    per = chunk // B
    for g in range(0, G, per):
        h = min(G, g + per)
        if h - g == 1:
            d = _banded_term_pass(tcols, lens, PT[:, g], k, transpositions)
        else:
            tc, ln = np.tile(tcols, (1, h - g)), np.tile(lens, h - g)
            d = _banded_term_pass(tc, ln, np.repeat(PT[:, g:h], B, axis=1), k, transpositions)
        out[g:h] = d.reshape(h - g, B)
    return out


class TermStore:
    """Codepoints of a term list, sorted by length, for batched expansion.

    The sort is stable (terms of one length keep their input order), so the
    terms of a length band ``[lo, hi]`` are one contiguous range of store
    positions, and the terms of one length L are one dense (count, L) block
    of the flat buffer: no row is padded to the longest term.

    - ``codes``: every term's codepoints end to end, in store order, in the
      narrowest unsigned dtype that holds the largest codepoint;
    - ``order``: the input index of each store position (int32 below 2**31
      terms);
    - ``start[L]`` / ``base[L]``: the first store position / buffer offset
      of the terms of length >= L, for L in 0..longest+1.

    Resident bytes: characters x dtype width + 4 per term + 16 per length
    up to the longest term. :meth:`band` gathers a band's padded (L, B)
    column matrix with one fancy index, only while a group needs it.
    """

    def __init__(self, terms: list[str]):
        n = len(terms)
        lens = np.fromiter(map(len, terms), dtype=np.int64, count=n)
        flat = codepoints("".join(terms))
        self.order = np.argsort(lens, kind="stable").astype(np.int32 if n < 2**31 else np.int64)
        slens = lens[self.order]
        src = (np.cumsum(lens) - lens)[self.order]
        dst = np.cumsum(slens) - slens
        top = int(flat.max()) if flat.size else 0
        dt = np.uint8 if top < 1 << 8 else np.uint16 if top < 1 << 16 else np.uint32
        self.codes = flat[np.repeat(src - dst, slens) + np.arange(flat.size)].astype(dt)
        self.start = np.searchsorted(slens, np.arange((int(slens[-1]) if n else 0) + 2))
        self.base = np.append(dst, flat.size)[self.start]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.codes, self.order, self.start, self.base))

    def band(self, lo: int, hi: int) -> tuple[int, np.ndarray, np.ndarray]:
        """``(s, tcols, lens)`` for the terms of length in ``[lo, hi]``:
        store positions ``s .. s + B``, their (L, B) column matrix (row y =
        character y of each term, L the band's longest length; a term's
        columns past its own length hold other terms' characters) and
        their (B,) lengths."""
        lo, hi = max(lo, 0), min(hi, self.start.size - 2)
        if lo > hi:
            return 0, np.empty((0, 0), self.codes.dtype), np.empty(0, np.int64)
        s, e = int(self.start[lo]), int(self.start[hi + 1])
        lens = np.repeat(np.arange(lo, hi + 1), np.diff(self.start[lo : hi + 2]))
        first = self.base[lens] + (np.arange(s, e) - self.start[lens]) * lens
        L = int(lens[-1]) if e > s else 0
        idx = first[None, :] + np.arange(L)[:, None]
        return s, self.codes[np.minimum(idx, self.codes.size - 1)], lens


def term_distances_many(
    store: TermStore, patterns: list[tuple[str, int]], transpositions: bool = False
) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each ``(pattern, k)``: the ascending store positions of the
    terms within distance k (Levenshtein, or OSA with ``transpositions``)
    and their distances.

    Patterns are grouped by (length m, k). A group gathers its length band
    ``[m - k, m + k]`` once (anything outside is > k by the length lower
    bound, which holds for OSA too: every edit changes the length by at
    most 1) and runs one banded DP over its (pattern, band-term) lanes
    (:func:`_lane_distances`)."""
    patterns = list(patterns)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (p, k) in enumerate(patterns):
        groups.setdefault((len(p), int(k)), []).append(i)
    out: list[tuple[np.ndarray, np.ndarray]] = [None] * len(patterns)
    for (m, k), rows in groups.items():
        s, tcols, lens = store.band(m - k, m + k)
        if not lens.size:
            for i in rows:
                out[i] = np.empty(0, np.int64), np.empty(0, np.int32)
            continue
        P = np.stack([codepoints(patterns[i][0]) for i in rows])
        for i, d in zip(rows, _lane_distances(tcols, lens, P, k, transpositions)):
            hit = np.flatnonzero(d <= k)
            out[i] = hit + s, d[hit]
    return out


def bounded_term_distances(
    pattern: str, terms: list[str], k: int, transpositions: bool = False
) -> np.ndarray:
    """Distance between ``pattern`` and each term (Levenshtein, or OSA with
    ``transpositions``), capped at k+1: the one-pattern form of
    :func:`term_distances_many` over a :class:`TermStore` of ``terms``
    (one joined utf-32 encode, no per-term loop). Terms outside the length
    band come out k+1 without entering the DP."""
    out = np.full(len(terms), k + 1, dtype=np.int32)
    store = TermStore(terms)
    ((pos, d),) = term_distances_many(store, [(pattern, k)], transpositions)
    out[store.order[pos]] = d
    return out


def bounded_term_distances_osa(pattern: str, terms: list[str], k: int) -> np.ndarray:
    """OSA (restricted Damerau-Levenshtein) form of
    :func:`bounded_term_distances`."""
    return bounded_term_distances(pattern, terms, k, transpositions=True)
