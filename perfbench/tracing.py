"""Spans and counts around parmatch's layers, recorded from outside.

:func:`traced_to_sm_par` rebuilds ``to_sm_par`` from its public stage
calls -- ``ByteText.chunks``, ``pmap(to_sm)``, ``pmconcat(matcher_ops)``
-- and records a span around each, plus one per ``to_sm`` (timed inside
the worker that runs it) and one per ``sm_append`` handed to ``pmconcat``.
Nothing inside the package is patched.  Spans are kept in memory and
written out when the run ends.

Clock: ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, which is
shared by every process, so worker timestamps and the parent's can be
compared.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Executor
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.reduction import ForkingPickler

from parmatch import ByteText, MonoidOps, StringMatcher, pmap, pmconcat, sm_append, sm_empty, to_sm


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    call: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def self_seconds(span: Span, children: list[Span]) -> float:
    """Duration minus the part of it that child spans cover.

    Children can overlap (parallel workers), so their intervals are merged
    before they are subtracted.
    """
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.seconds - covered


class Tracer:
    """Thread-safe in-memory span store."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def record(self, name, start, end, parent, call, **counts) -> int:
        with self._lock:
            span = Span(len(self.spans), name, start, end, parent, call, counts)
            self.spans.append(span)
        return span.id

    def open(self, name: str, parent: int | None, call: int) -> int:
        return self.record(name, time.perf_counter(), None, parent, call)

    def close(self, span_id: int, **counts) -> Span:
        span = self.spans[span_id]
        span.end = time.perf_counter()
        span.counts.update(counts)
        return span

    def write(self, path) -> None:
        """One JSON object per span, with its self time, then a summary of
        self time per layer name."""
        by_parent: dict[int | None, list[Span]] = {}
        for span in self.spans:
            by_parent.setdefault(span.parent, []).append(span)
        self_by_name: dict[str, float] = {}
        with open(path, "w") as out:
            for span in self.spans:
                own = self_seconds(span, by_parent.get(span.id, []))
                self_by_name[span.name] = self_by_name.get(span.name, 0.0) + own
                record = {
                    "id": span.id, "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "call": span.call, "self_s": own, **span.counts,
                }
                out.write(json.dumps(record) + "\n")
            out.write(json.dumps({"self_s_by_layer": self_by_name}) + "\n")


def timed_to_sm(piece: ByteText, target: ByteText) -> tuple[StringMatcher, float, float]:
    """``to_sm`` with its start and end taken where it runs (picklable)."""
    start = time.perf_counter()
    matcher = to_sm(piece, target)
    return matcher, start, time.perf_counter()


class SubmitClock(Executor):
    """Passes tasks to ``pool`` and records when each was submitted."""

    def __init__(self, pool: Executor) -> None:
        self.pool = pool
        self.submitted: list[float] = []

    def submit(self, fn, /, *args, **kwargs):
        self.submitted.append(time.perf_counter())
        return self.pool.submit(fn, *args, **kwargs)


def traced_matcher_ops(tracer: Tracer, parent: int, call: int, target: ByteText):
    """``matcher_ops(target)`` with a span per ``sm_append``, and the
    reduction depth measured by tagging each matcher with its round.

    ``pmconcat`` folds each group with ``mconcat``, which starts from a
    fresh identity; a fold result sits one round above its operands.
    Returns the ops and a function giving the depth of a result.
    """
    rounds: dict[int, int] = {}
    fresh: set[int] = set()

    def identity() -> StringMatcher:
        empty = sm_empty(target)
        fresh.add(id(empty))
        return empty

    def combine(a: StringMatcher, b: StringMatcher) -> StringMatcher:
        start = time.perf_counter()
        out = sm_append(a, b)
        end = time.perf_counter()
        below = rounds.get(id(a), 0) + 1
        if id(b) in fresh:
            # Each identity is consumed once; forget it before its id is reused.
            fresh.discard(id(b))
            rounds[id(out)] = below
        else:
            rounds[id(out)] = max(below, rounds.get(id(b), 0))
        candidates = min(len(target) - 1, len(a.text)) if len(target) >= 2 else 0
        hits = len(out.indices) - len(a.indices) - len(b.indices)
        tracer.record("matcher.sm_append", start, end, parent, call,
                      seam_candidates=candidates, seam_hits=hits)
        return out

    def depth(result: StringMatcher) -> int:
        return rounds.get(id(result), 0)

    return MonoidOps(identity=identity, combine=combine), depth


def traced_to_sm_par(
    tracer: Tracer,
    call: int,
    branch: int,
    chunk_size: int,
    text: ByteText,
    target: ByteText,
    map_pool: Executor,
    reduce_pool: Executor,
) -> tuple[StringMatcher, list[ByteText], list[StringMatcher]]:
    """``to_sm_par`` by its stages, each in a span.  Returns the result,
    the pieces sent to the map stage and the matchers it returned."""
    top = tracer.open("pipeline.to_sm_par", None, call)

    stage = tracer.open("bytetext.chunks", top, call)
    pieces = text.chunks(chunk_size)
    tracer.close(stage, pieces=len(pieces))

    clock = SubmitClock(map_pool)
    stage = tracer.open("monoid.pmap", top, call)
    scanned = pmap(partial(timed_to_sm, target=target), pieces, pool=clock)
    tracer.close(stage, tasks=len(pieces))
    for submitted, (matcher, start, end) in zip(clock.submitted, scanned):
        tracer.record("matcher.to_sm", start, end, stage, call,
                      bytes=len(matcher.text), wait_s=start - submitted)
    matchers = [matcher for matcher, _, _ in scanned]

    stage = tracer.open("monoid.pmconcat", top, call)
    ops, depth = traced_matcher_ops(tracer, stage, call, target)
    result = pmconcat(ops, branch, matchers, pool=reduce_pool)
    tracer.close(stage, depth=depth(result))
    tracer.close(top, indices=len(result.indices))
    return result, pieces, matchers


def transport(pieces: list[ByteText], matchers: list[StringMatcher], target: ByteText):
    """Computed, not observed: the pickled size of what a process pool
    ships (each piece out, each matcher back) and the parent-side time to
    pickle and unpickle it once."""
    fn = partial(to_sm, target=target)
    size = 0
    start = time.perf_counter()
    for payload in [(fn, piece) for piece in pieces] + matchers:
        blob = ForkingPickler.dumps(payload)
        size += len(blob)
        ForkingPickler.loads(blob)
    return size, time.perf_counter() - start


def layer_counts(tracer: Tracer, call: int) -> dict[str, float]:
    """Per-layer figures of one traced ``to_sm_par`` call, from its spans."""
    named: dict[str, list[Span]] = {}
    for span in tracer.spans:
        if span.call == call:
            named.setdefault(span.name, []).append(span)
    (top,) = named["pipeline.to_sm_par"]
    (chunks,) = named["bytetext.chunks"]
    (pmap_span,) = named["monoid.pmap"]
    (reduce_span,) = named["monoid.pmconcat"]
    scans = named["matcher.to_sm"]
    appends = named.get("matcher.sm_append", [])
    scan_s = sum(span.seconds for span in scans)
    candidates = sum(span.counts["seam_candidates"] for span in appends)
    hits = sum(span.counts["seam_hits"] for span in appends)
    return {
        "bytetext.chunks_s": chunks.seconds,
        "bytetext.pieces": chunks.counts["pieces"],
        "matcher.to_sm_s": scan_s,
        "matcher.to_sm_calls": len(scans),
        "matcher.scan_mbps": sum(span.counts["bytes"] for span in scans) / 1e6 / scan_s,
        "matcher.sm_append_s": sum(span.seconds for span in appends),
        "matcher.sm_append_calls": len(appends),
        "matcher.seam_candidates": candidates,
        "matcher.seam_hits": hits,
        "matcher.seam_hit_ratio": hits / candidates if candidates else 0.0,
        "matcher.indices_out": top.counts["indices"],
        "monoid.pmap_s": pmap_span.seconds,
        "monoid.pmap_wait_s": sum(span.counts["wait_s"] for span in scans),
        "monoid.pmap_tasks": pmap_span.counts["tasks"],
        "monoid.pmconcat_s": reduce_span.seconds,
        "monoid.tree_depth": reduce_span.counts["depth"],
        "pipeline.to_sm_par_s": top.seconds,
        "pipeline.self_s": self_seconds(top, [chunks, pmap_span, reduce_span]),
    }
