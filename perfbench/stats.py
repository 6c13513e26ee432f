"""Benchmark-side statistics: medians and tails, error counting, and an
in-memory span tracer with self-time attribution."""

from __future__ import annotations

import contextlib
import math
import statistics
import threading
import time

TAIL_MIN_BEYOND = 10  # samples a tail percentile must leave above it


def median(xs) -> float:
    return float(statistics.median(xs))


def tail_rank(n: int) -> float | None:
    """Highest percentile (in percent, on the nearest-rank rule) with at
    least ``TAIL_MIN_BEYOND`` samples strictly above it among ``n`` samples,
    or None when ``n`` is too small for any.

    Nearest rank: percentile p is the sample at rank ceil(p/100 * n), which
    leaves n - rank samples above it. The highest rank with n - rank >=
    TAIL_MIN_BEYOND is n - TAIL_MIN_BEYOND, so p = 100 * rank / n."""
    rank = n - TAIL_MIN_BEYOND
    if rank < 1:
        return None
    return 100.0 * rank / n


def tail(xs) -> tuple[float, float] | None:
    """(percentile, value) of the tail rule above, or None."""
    n = len(xs)
    p = tail_rank(n)
    if p is None:
        return None
    return p, float(sorted(xs)[n - TAIL_MIN_BEYOND - 1])


class Outcomes:
    """Requests attempted and failed. A request fails when it raises or when
    its output is later found wrong; each request counts once."""

    def __init__(self):
        self.attempted = 0
        self._failed: set[int] = set()
        self.reasons: list[str] = []

    def start(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def fail(self, request: int, reason: str) -> None:
        if not 0 <= request < self.attempted:
            raise ValueError(f"request {request} was never attempted")
        self._failed.add(request)
        self.reasons.append(f"request {request}: {reason}")

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Tracer:
    """In-memory spans: (name, start, end, parent index, request id).

    Spans nest by call order, so only the thread that made the tracer
    records (wrapped functions called from other threads run untraced);
    nothing is written until the caller asks for the spans at the end of
    the run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.thread = threading.get_ident()
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self._stack: list[int] = []
        self.request: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        if threading.get_ident() != self.thread:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = [name, self.clock(), math.nan, parent, self.request]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = self.clock()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its children (children of one parent never overlap here, as
    spans come from one thread, but are clipped to the parent anyway)."""
    covered: dict[int, list[tuple[float, float]]] = {}
    for i, (_, s, e, parent, _) in enumerate(spans):
        if parent is not None:
            ps, pe = spans[parent][1], spans[parent][2]
            covered.setdefault(parent, []).append((max(s, ps), min(e, pe)))
    out = {}
    for i, (_, s, e, _, _) in enumerate(spans):
        busy = 0.0
        last = -math.inf
        for cs, ce in sorted(covered.get(i, [])):
            cs = max(cs, last)
            if ce > cs:
                busy += ce - cs
                last = ce
        out[i] = (e - s) - busy
    return out


def layer_of(name: str) -> str:
    """Layer = first dotted component of a span name."""
    return name.split(".", 1)[0]

