"""Parallel matching and the sequential/parallel cross-check.

:func:`to_sm_par` is the production path.  It never copies the input: a
chunk is a window ``[lo, hi)`` of the caller's buffer, the chunks are
dealt as one run per worker (one run when inline, none for an empty
input), each worker scans and folds the windows of its run in parallel,
and the caller folds the run windows.  Indices are absolute offsets, so
no merge shifts them, and no fold reads the buffer.  It equals the
sequential :func:`~parmatch.matcher.to_sm` for every plan, and
:func:`verify_equivalence` checks that as a differential test with
timings.
"""

from __future__ import annotations

import os
import time
from functools import partial
from itertools import zip_longest

from .bytetext import ByteText, Value
from .matcher import StringMatcher, scan_window, ship, to_sm, window_matcher, window_ops
from .monoid import TYPE_CHECKING, pmap, pmconcat

if TYPE_CHECKING:
    from concurrent.futures import Executor


class ChunkPlan(Value):
    """Knobs of the parallel pipeline.

    ``chunk_size`` is the byte length of the windows scanned on their own.
    ``branch``, a fan-in, is not read by :func:`to_sm_par`, whose merges
    all run inline; callers build plans with it.
    Both are ints >= 1.
    """

    __slots__ = ("branch", "chunk_size")

    def __init__(self, branch: int, chunk_size: int) -> None:
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "chunk_size", chunk_size)
        if not all(type(n) is int and n >= 1 for n in (branch, chunk_size)):
            raise ValueError(f"branch and chunk_size must be integers >= 1, got {self}")


def _cpu_count() -> int:
    """The CPUs this process may run on, else the host's CPU count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def timed(fn, *args):
    """``(fn(*args), wall time in milliseconds)``."""
    started = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - started) * 1000.0


class _Run:
    """The whole chunks ``[lo, hi)`` of the bytes ``data`` that one map task
    scans.  In this process a run refers to the caller's buffer, so dealing
    runs copies no input byte.  Pickled for a process worker, it carries only
    its own bytes, rebased to start at 0, and ``base``, the offset they
    were cut at.  ``lo`` is a multiple of ``size``, so its chunks are the
    plan's chunks.
    """

    __slots__ = ("data", "lo", "hi", "size", "base")

    def __init__(self, data: bytes, lo: int, hi: int, size: int, base: int = 0) -> None:
        self.data, self.lo, self.hi, self.size, self.base = data, lo, hi, size, base

    def __reduce__(self) -> tuple:
        piece = self.data[self.lo : self.hi]
        return _Run, (piece, 0, self.hi - self.lo, self.size, self.base + self.lo)


def _scan_run(tg: bytes, run: _Run) -> tuple:
    """One map task: scan each chunk of ``run`` for the bytes ``tg`` on its
    own, fold the windows inline, and return the run's window moved by
    ``base`` to absolute offsets, in :func:`~parmatch.matcher.ship`'s form:
    its segments unlisted, so a periodic run returns as a ``range``.
    :func:`to_sm_par` deals no empty run: there is a window to fold.
    """
    data, hi, size = run.data, run.hi, run.size
    windows = [scan_window(data, tg, lo, min(lo + size, hi))
               for lo in range(run.lo, hi, size)]
    return ship(pmconcat(window_ops(tg), 2, windows), run.base)


def to_sm_par(
    plan: ChunkPlan,
    text: ByteText,
    target: ByteText,
    map_pool: Executor | None = None,
    reduce_pool: Executor | None = None,
) -> StringMatcher:
    """Chunked, parallel matching; result is identical to ``to_sm``.

    The text is never copied or cut: a chunk is a window ``[lo, hi)`` of
    the caller's buffer, ``plan.chunk_size`` bytes long (the last may be
    shorter), and the chunk list is dealt as one contiguous run of whole
    chunks per worker of ``map_pool`` (never more runs than chunks; run
    lengths differ by at most one chunk).  An empty input has no chunk,
    so it deals no run and sends no task, inline or to a pool: its result
    is the fold of no windows, :func:`~parmatch.matcher.window_ops`'s
    identity.  Each run is one task: the worker scans every chunk of its
    run on its own and folds the windows with
    :func:`~parmatch.matcher.join_windows`, so every chunk seam goes
    through the one merge.  Every run returns its window, never text, as
    :func:`~parmatch.matcher.ship` describes.  Inline and thread runs read
    the caller's buffer; a process task ships one slice, its run's bytes.
    ``map_pool=None`` is one worker, so the whole chunk list is one run,
    scanned inline.  The caller folds the run windows inline, as a run
    folds its chunks: there are at most as many as workers, and each merge
    tries fewer start positions than the target has bytes, too little
    work to repay a pool task.  The result wraps the caller's own
    ``text``.  A pool's worker count is its ``_max_workers`` (CPython's
    executors keep it there), else the CPUs this process may run on.
    ``reduce_pool`` is accepted and unused; perfbench's harness passes it.
    """
    size, data, tg = plan.chunk_size, text.data, target.data
    n = -(-len(data) // size)
    workers = 1 if map_pool is None else getattr(map_pool, "_max_workers", None) or _cpu_count()
    runs = min(workers, n)
    cuts = [k * n // runs * size for k in range(runs)] + [len(data)]
    dealt = [_Run(data, lo, hi, size) for lo, hi in zip(cuts, cuts[1:])]
    windows = pmap(partial(_scan_run, tg), dealt, pool=map_pool)
    return window_matcher(target, text, pmconcat(window_ops(tg), 2, windows))


def default_plan_sweep(target_length: int) -> list[ChunkPlan]:
    """Verification sweep: chunk sizes 1, 7 and 64 plus one boundary splitter.

    The splitter's chunk size is shorter than the target, forcing every
    occurrence to straddle a chunk seam.  All plans are at branch 2, which
    :func:`to_sm_par` does not read.
    """
    sizes = {1, 7, 64, max(target_length - 1, 1)}
    return [ChunkPlan(2, size) for size in sorted(sizes)]


class EquivalenceReport:
    """:func:`verify_equivalence`'s ``sequential`` matcher and ``entries``,
    one row per plan, the dict ``--mode bench --json`` prints: ``plan``
    (``{"branch", "chunk_size"}``), ``equal``, ``first_divergence``,
    ``sequential_ms``, ``parallel_ms`` and ``speedup`` (their ratio, or 0.0
    when ``parallel_ms`` is 0).
    """

    def __init__(self, entries: list[dict], sequential: StringMatcher) -> None:
        self.entries = entries
        self.sequential = sequential

    @property
    def ok(self) -> bool:
        return all(row["equal"] for row in self.entries)

    def to_text(self) -> str:
        header = f"{'branch':>6} {'chunk':>8} {'equal':>5} {'seq_ms':>10} {'par_ms':>10} {'speedup':>8}"
        lines = [header]
        for row in self.entries:
            plan = row["plan"]
            lines.append(
                f"{plan['branch']:>6} {plan['chunk_size']:>8} "
                f"{str(row['equal']).lower():>5} {row['sequential_ms']:>10.3f} "
                f"{row['parallel_ms']:>10.3f} {row['speedup']:>8.2f}"
            )
        return "\n".join(lines)


def first_divergence(seq: StringMatcher, par: StringMatcher) -> dict | None:
    """The first index-list position where the two matchers differ, or None.

    A list that ends first reads None there, and so do both lists when only
    the texts differ.
    """
    if seq == par:
        return None
    for position, (a, b) in enumerate(zip_longest(seq.indices, par.indices)):
        if a != b:
            return {"position": position, "sequential": a, "parallel": b}
    return {"position": len(seq.indices), "sequential": None, "parallel": None}


def verify_equivalence(
    text: ByteText,
    target: ByteText,
    plans: list[ChunkPlan] | None = None,
    map_pool: Executor | None = None,
) -> EquivalenceReport:
    """Run both paths for every plan and report equality plus timings.

    ``map_pool`` scans the chunks of every parallel run; merges run inline.
    ``to_sm`` is timed right before each plan, so every row (keyed as in
    :class:`EquivalenceReport`) has its own sequential sample, and its
    result is returned as ``sequential``.  Any inequality is reported data
    here, and a released-code bug there.
    """
    if plans is None:
        plans = default_plan_sweep(len(target))
    entries = []
    for plan in plans:
        sequential, seq_ms = timed(to_sm, text, target)
        parallel, par_ms = timed(to_sm_par, plan, text, target, map_pool)
        where = first_divergence(sequential, parallel)
        entries.append({
            "plan": {"branch": plan.branch, "chunk_size": plan.chunk_size},
            "equal": where is None, "first_divergence": where,
            "sequential_ms": seq_ms, "parallel_ms": par_ms,
            "speedup": seq_ms / par_ms if par_ms > 0 else 0.0,
        })
    return EquivalenceReport(entries, sequential if plans else to_sm(text, target))
