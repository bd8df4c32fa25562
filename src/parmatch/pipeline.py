"""Two-level parallel matching and the sequential/parallel cross-check.

:func:`to_sm_par` is the production path: cut the input into chunks once,
deal the chunk list as one run per worker (one run when inline), let each
worker scan and fold its run, then tree-reduce the per-run matchers.  It
equals the sequential :func:`~parmatch.matcher.to_sm` for every plan, and
:func:`verify_equivalence` checks that as a differential test with
timings, scanning on at most one pool and merging inline.
"""

from __future__ import annotations

import os
import time
from functools import partial
from itertools import zip_longest

from .bytetext import ByteText, Value
from .matcher import StringMatcher, matcher_ops, to_sm
from .monoid import TYPE_CHECKING, pmap, pmconcat

if TYPE_CHECKING:
    from concurrent.futures import Executor


class ChunkPlan(Value):
    """Knobs of the parallel pipeline.

    ``chunk_size`` is the byte length of the slices scanned on their own;
    ``branch`` is the reduction tree's fan-in (1 acts as 2); each group folds
    as a binary tree, so no fan-in makes the merges quadratic, and inline
    every power-of-two fan-in builds the same tree (3 does not).  Both are ints >= 1.
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


def _scan_run(plan: ChunkPlan, target: ByteText, pieces: list[ByteText]) -> StringMatcher:
    """One map task: scan each of ``pieces`` on its own, then fold them."""
    return pmconcat(matcher_ops(target), plan.branch, [to_sm(piece, target) for piece in pieces])


def to_sm_par(
    plan: ChunkPlan,
    text: ByteText,
    target: ByteText,
    map_pool: Executor | None = None,
    reduce_pool: Executor | None = None,
) -> StringMatcher:
    """Chunked, parallel matching; result is identical to ``to_sm``.

    The text is cut once, by ``ByteText.chunks``, and the chunk list is
    dealt as one contiguous slice per worker of ``map_pool`` (never more
    runs than chunks; run lengths differ by at most one chunk).  Each run
    is one task: the worker scans every chunk of its run on its own and
    folds them, so every chunk seam still goes through ``sm_append``.
    ``map_pool=None`` is one worker, so the whole list is one run, scanned
    inline.  The per-run matchers are folded on ``reduce_pool``, or inline
    when it is ``None``.  The worker count is the pool's ``_max_workers``
    (CPython's executors keep it there), else the CPUs this process may run
    on.  Nothing in the package passes ``reduce_pool``; it stays because
    perfbench's harness calls this with both pools, so retiring it waits for
    a change to that benchmark.
    """
    pieces = text.chunks(plan.chunk_size)
    n = len(pieces)
    workers = getattr(map_pool, "_max_workers", None) or _cpu_count()
    runs = 1 if map_pool is None else min(workers, n)
    dealt = [pieces[k * n // runs : (k + 1) * n // runs] for k in range(runs)]
    matchers = pmap(partial(_scan_run, plan, target), dealt, pool=map_pool)
    return pmconcat(matcher_ops(target), plan.branch, matchers, pool=reduce_pool)


def default_plan_sweep(target_length: int) -> list[ChunkPlan]:
    """Verification sweep: fixed grid plus one boundary-splitting plan.

    The extra plan's chunk size is shorter than the target, forcing every
    occurrence to straddle a chunk seam.
    """
    plans = [ChunkPlan(branch, size) for branch in (2, 4, 8) for size in (1, 7, 64)]
    plans.append(ChunkPlan(2, max(target_length - 1, 1)))
    return plans


class EquivalenceEntry:
    def __init__(
        self, plan: ChunkPlan, equal: bool, first_divergence: dict | None,
        sequential_ms: float, parallel_ms: float,
    ) -> None:
        self.plan = plan
        self.equal = equal
        self.first_divergence = first_divergence
        self.sequential_ms = sequential_ms
        self.parallel_ms = parallel_ms

    @property
    def speedup(self) -> float:
        return self.sequential_ms / self.parallel_ms if self.parallel_ms > 0 else 0.0


class EquivalenceReport:
    def __init__(self, entries: list[EquivalenceEntry], sequential: StringMatcher) -> None:
        self.entries = entries
        self.sequential = sequential

    @property
    def ok(self) -> bool:
        return all(entry.equal for entry in self.entries)

    def to_text(self) -> str:
        header = f"{'branch':>6} {'chunk':>8} {'equal':>5} {'seq_ms':>10} {'par_ms':>10} {'speedup':>8}"
        lines = [header]
        for entry in self.entries:
            lines.append(
                f"{entry.plan.branch:>6} {entry.plan.chunk_size:>8} "
                f"{str(entry.equal).lower():>5} {entry.sequential_ms:>10.3f} "
                f"{entry.parallel_ms:>10.3f} {entry.speedup:>8.2f}"
            )
        return "\n".join(lines)

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "plan": {"branch": entry.plan.branch, "chunk_size": entry.plan.chunk_size},
                "equal": entry.equal,
                "first_divergence": entry.first_divergence,
                "sequential_ms": entry.sequential_ms,
                "parallel_ms": entry.parallel_ms,
                "speedup": entry.speedup,
            }
            for entry in self.entries
        ]


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

    Any inequality is reported data here, and a released-code bug there.
    The sequential result does not depend on the plan, so it is computed
    (and timed) once, compared against every parallel run and returned
    as ``sequential``.
    """
    if plans is None:
        plans = default_plan_sweep(len(target))
    sequential, sequential_ms = timed(to_sm, text, target)
    entries = []
    for plan in plans:
        parallel, parallel_ms = timed(to_sm_par, plan, text, target, map_pool)
        where = first_divergence(sequential, parallel)
        entries.append(
            EquivalenceEntry(plan, where is None, where, sequential_ms, parallel_ms)
        )
    return EquivalenceReport(entries, sequential)
