"""In-memory span tracer that wraps package functions where callers look them up.

A span is (name, start, end, parent, thread).  Spans are kept in memory while
a pass runs and written out once, at the end.  Tracing lives entirely in the
benchmark: each wrapper replaces a module attribute (``repulse.bounds.factor``,
``repulse.primes.is_prime``, ...) so the package code is not edited, and
``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import resource
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Union

SpanName = Union[str, Callable[..., str]]


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name: str, parent: Optional["Span"], thread: int) -> None:
        self.name = name
        self.parent = parent
        self.thread = thread
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def current_rss_mb() -> float:
    """Resident set size of this process now, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Collects spans and counters; installs and removes attribute wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        """Add to a counter; safe from the search worker threads."""
        with self._lock:
            self.counters[key] += value

    # ----- spans -----

    def current(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def open(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(name, stack[-1] if stack else None, threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def adopt(self, parent: Optional[Span]) -> list:
        """Make `parent` the enclosing span of this thread; returns the old stack."""
        old = getattr(self._local, "stack", None)
        self._local.stack = [parent] if parent is not None else []
        return old

    def restore(self, old: Optional[list]) -> None:
        self._local.stack = old

    # ----- wrapping -----

    def wrap(self, owner: object, attr: str, name: SpanName,
             on_result: Optional[Callable[..., None]] = None) -> None:
        """Replace owner.attr with a function that records one span per call."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = tracer.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        self.replace(owner, attr, wrapper)

    def wrap_iter(self, owner: object, attr: str, name: str) -> None:
        """Wrap a generator function: one span per next(), so the consumer's
        own work between items is not charged to the generator."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return tracer._traced_iter(name, orig(*args, **kwargs))

        self.replace(owner, attr, wrapper)

    def _traced_iter(self, name: str, it: Iterable) -> Iterator:
        it = iter(it)
        first = True
        while True:
            span = self.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close(span)
            if first:
                self.samples[name + ".first"].append(span.duration)
                first = False
            yield item

    def wrap_pool(self, owner: object, attr: str) -> None:
        """Wrap an executor class so work it runs is parented to the submitting span."""
        base = getattr(owner, attr)
        tracer = self

        class TracedPool(base):  # type: ignore[misc, valid-type]
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run():
                    old = tracer.adopt(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer.restore(old)

                return super().submit(run)

        self.replace(owner, attr, TracedPool)

    def replace(self, owner: object, attr: str, new: object) -> None:
        """Set owner.attr (or owner[attr] for a dict) until uninstall()."""
        if isinstance(owner, dict):
            self._installed.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._installed.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, orig = self._installed.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # ----- analysis -----

    def self_times(self, only: Optional[str] = None) -> dict[Span, float]:
        """Duration minus the part of the span's interval its children cover;
        with `only`, just the children of that name count."""
        children: defaultdict = defaultdict(list)
        for s in self.spans:
            if s.parent is not None and only in (None, s.name):
                children[s.parent].append(s)
        return {s: s.duration - _covered(s, children.get(s, ())) for s in self.spans}

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line: name start end parent thread."""
        index = {s: i for i, s in enumerate(self.spans)}
        threads: dict[int, int] = {}
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tthread\n")
            for i, s in enumerate(self.spans):
                parent = index[s.parent] if s.parent is not None else -1
                thread = threads.setdefault(s.thread, len(threads))
                fh.write(f"{i}\t{s.name}\t{s.start - t0:.9f}\t{s.end - t0:.9f}"
                         f"\t{parent}\t{thread}\n")


def _covered(span: Span, kids: Iterable[Span]) -> float:
    """Length of the union of the children's intervals, clipped to the span."""
    ivs = sorted((max(k.start, span.start), min(k.end, span.end)) for k in kids)
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in ivs:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds, self seconds, median ms."""
    selft = tracer.self_times()
    out: dict[str, dict[str, float]] = {}
    durations: defaultdict = defaultdict(list)
    for s in tracer.spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += selft[s]
        durations[s.name].append(s.duration)
    for n, row in out.items():
        row["p50_ms"] = statistics.median(durations[n]) * 1e3
    return out


def module_self_times(tracer: Tracer) -> dict[str, float]:
    """Self time summed per layer (the span name's first component)."""
    out: defaultdict = defaultdict(float)
    for s, t in tracer.self_times().items():
        out[s.module] += t
    return dict(out)
