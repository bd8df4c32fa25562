"""Monoid algebra: concatenation, chunking, parallel map and tree reduction.

Operation records (:class:`MonoidOps`, :class:`ChunkableOps`) are plain
classes that bundle the identity and combine functions of a monoid, so the
same reduction and law-checking machinery runs over byte strings, string
matchers, integers, or anything else.  A chunkable monoid adds ``length``
and ``window``, the one cut that chunking and counterexample shrinking use.

The two reduction paths are deliberately kept both:

* :func:`mconcat` is the sequential right fold and the semantic reference.
* :func:`pmconcat` chunks the operand list, reduces adjacent groups on a
  worker pool, and recurses (at a fan-in of at least 2); it must agree
  with ``mconcat`` exactly for any associative operation.

Every function that takes a ``pool`` runs inline when it is ``None``;
callers that want parallelism pass, and shut down, their own executor.

Nothing here assumes commutativity; operands are never reordered.
"""

from __future__ import annotations

from functools import partial

TYPE_CHECKING = False  # not typing.TYPE_CHECKING: importing typing costs more than parmatch
if TYPE_CHECKING:
    from concurrent.futures import Executor
    from typing import Callable, Sequence, TypeVar

    T = TypeVar("T")
    S = TypeVar("S")
    R = TypeVar("R")


class MonoidOps:
    """A monoid presented as first-class operations.

    ``identity`` is a zero-argument constructor (a fresh identity element
    per call) and ``combine`` the associative binary operation.  Law
    checks compare elements with ``==``.
    """

    def __init__(self, identity: Callable[[], T], combine: Callable[[T, T], T]) -> None:
        self.identity = identity
        self.combine = combine


class ChunkableOps(MonoidOps):
    """A monoid whose elements can be measured, cut, and reassembled.

    ``window(i, n, x)`` is the ``n`` elements of ``x`` from position
    ``i``, the one way to cut a value.  Cutting at any ``i`` up to
    ``length(x)`` and combining the halves must give ``x`` back:
    ``combine(window(0, i, x), window(i, length(x) - i, x)) == x``.
    """

    def __init__(
        self, identity: Callable[[], T], combine: Callable[[T, T], T],
        length: Callable[[T], int], window: Callable[[int, int, T], T],
    ) -> None:
        super().__init__(identity, combine)
        self.length = length
        self.window = window


class MorphismWitness:
    """A claimed structure-preserving map between two monoids.

    ``map_fn`` should send the source identity to the target identity and
    distribute over ``combine``; :func:`check_morphism` probes both claims.
    """

    def __init__(
        self, source: ChunkableOps, target: MonoidOps, map_fn: Callable[[S], T]
    ) -> None:
        self.source = source
        self.target = target
        self.map_fn = map_fn


def mconcat(ops: MonoidOps, items: Sequence[T]) -> T:
    """Right fold of ``combine`` over ``items``, seeded with the identity."""
    acc = ops.identity()
    for item in reversed(items):
        acc = ops.combine(item, acc)
    return acc


def chunk(ops: ChunkableOps, size: int, value: T) -> list[T]:
    """Split ``value`` into pieces of ``size``; ``mconcat`` undoes it.

    A value of length <= ``size`` yields a single-element list, so even an
    empty value produces one (empty) chunk.  Each piece is cut from
    ``value`` with one ``window``, so chunking copies each element once.
    """
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    length = ops.length(value)
    if length <= size:
        return [value]
    return [ops.window(i, min(size, length - i), value) for i in range(0, length, size)]


def pmap(fn: Callable[[S], R], items: Sequence[S], pool: Executor | None = None) -> list[R]:
    """Order-preserving parallel map, observationally equal to ``map``.

    ``pool=None`` runs inline, as ``list(map(fn, items))``.  On a pool,
    all submitted applications run to completion before results are
    gathered; if any application raised, the failure from the earliest
    list position is re-raised.
    """
    if pool is None:
        return list(map(fn, items))
    # Imported here: concurrent.futures loads logging, which inline runs skip.
    from concurrent.futures import wait

    futures = [pool.submit(fn, item) for item in items]
    wait(futures)
    return [future.result() for future in futures]


def pmconcat(
    ops: MonoidOps,
    fanin: int,
    items: Sequence[T],
    pool: Executor | None = None,
) -> T:
    """Tree-structured reduction, exactly equal to :func:`mconcat`.

    Groups of ``fanin`` adjacent operands (at least 2) are folded
    concurrently, then the (strictly shorter) list of group results is
    reduced the same way.  Each group, and the last ``fanin`` or fewer
    operands, fold by rounds of adjacent pairs, a balanced binary tree:
    a right fold would copy a growing accumulator at every step.
    """
    items = list(items)
    fanin = max(fanin, 2)
    while len(items) > fanin:
        groups = [items[k : k + fanin] for k in range(0, len(items), fanin)]
        # Termination guard: each round must shrink the operand list.
        assert len(groups) < len(items)
        # Recursing on a group runs only the pairwise fold.  A partial pickles; a lambda would not.
        items = pmap(partial(pmconcat, ops, fanin), groups, pool=pool)
    while len(items) > 2:
        pairs = zip(items[::2], items[1::2])
        items = [ops.combine(a, b) for a, b in pairs] + items[len(items) // 2 * 2 :]
    return mconcat(ops, items)


class LawResult:
    def __init__(
        self, law: str, trials: int, passed: bool, counterexample: tuple | None = None
    ) -> None:
        self.law = law
        self.trials = trials
        self.passed = passed
        self.counterexample = counterexample

    def to_line(self) -> str:
        line = f"law={self.law} trials={self.trials} result={'pass' if self.passed else 'fail'}"
        if self.counterexample is not None:
            line += f" counterexample={self.counterexample!r}"
        return line


class LawReport:
    def __init__(self, results: list[LawResult]) -> None:
        self.results = results

    @property
    def ok(self) -> bool:
        return all(result.passed for result in self.results)

    def to_text(self) -> str:
        return "\n".join(result.to_line() for result in self.results)

    def to_json(self) -> str:
        # Imported here: only callers that ask for JSON pay for loading it.
        import json

        return json.dumps([
            {
                "law": result.law,
                "trials": result.trials,
                "passed": result.passed,
                "counterexample": None if result.counterexample is None
                else [repr(part) for part in result.counterexample],
            }
            for result in self.results
        ], indent=2)


def _shrink(ops: MonoidOps, witness: tuple, still_fails: Callable[[tuple], bool]) -> tuple:
    """Shrink a failing tuple by repeatedly halving element lengths."""
    if not isinstance(ops, ChunkableOps):
        return witness
    current = list(witness)
    progress = True
    while progress:
        progress = False
        for position, element in enumerate(current):
            size = ops.length(element)
            if size == 0:
                continue
            candidate = current.copy()
            candidate[position] = ops.window(0, size // 2, element)
            if still_fails(tuple(candidate)):
                current = candidate
                progress = True
    return tuple(current)


def _run_law(
    ops: MonoidOps,
    name: str,
    arity: int,
    holds: Callable[..., bool],
    gen: Callable[[], T],
    trials: int,
) -> LawResult:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for _ in range(trials):
        args = tuple(gen() for _ in range(arity))
        if not holds(*args):
            shrunk = _shrink(ops, args, lambda candidate: not holds(*candidate))
            return LawResult(name, trials, False, shrunk)
    return LawResult(name, trials, True)


def check_monoid_laws(ops: MonoidOps, gen: Callable[[], T], trials: int) -> LawReport:
    """Probe the identity and associativity laws with random elements.

    Failure is data, not an exception: the report carries a (shrunk)
    counterexample for every law that did not hold.
    """

    def left_identity(x: T) -> bool:
        return ops.combine(ops.identity(), x) == x

    def right_identity(x: T) -> bool:
        return ops.combine(x, ops.identity()) == x

    def associativity(x: T, y: T, z: T) -> bool:
        return ops.combine(ops.combine(x, y), z) == ops.combine(x, ops.combine(y, z))

    return LawReport(
        [
            _run_law(ops, "left_identity", 1, left_identity, gen, trials),
            _run_law(ops, "right_identity", 1, right_identity, gen, trials),
            _run_law(ops, "associativity", 3, associativity, gen, trials),
        ]
    )


def check_morphism(witness: MorphismWitness, gen: Callable[[], S], trials: int) -> LawReport:
    """Probe identity preservation (one trial) and distribution over ``combine``."""
    src, tgt, fn = witness.source, witness.target, witness.map_fn

    def maps_identity() -> bool:
        return fn(src.identity()) == tgt.identity()

    def distributes(x: S, y: S) -> bool:
        return fn(src.combine(x, y)) == tgt.combine(fn(x), fn(y))

    return LawReport([
        _run_law(src, "maps_identity", 0, maps_identity, gen, 1),
        _run_law(src, "distributes_over_combine", 2, distributes, gen, trials),
    ])


def morphism_distribution_check(
    witness: MorphismWitness,
    value: S,
    size: int,
    pool: Executor | None = None,
) -> bool:
    """Does mapping the whole equal reducing the mapped chunks?"""
    parts = chunk(witness.source, size, value)
    whole = witness.map_fn(value)
    rebuilt = mconcat(witness.target, pmap(witness.map_fn, parts, pool=pool))
    return whole == rebuilt

