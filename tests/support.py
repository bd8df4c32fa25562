"""Shared helpers, hypothesis strategies, the merge spec and the path table.

``matching_paths`` lists every way the package turns ``(text, target,
plan)`` into an index list, and ``tests/test_paths.py`` holds each one
equal to ``naive_match`` over ``path_cases`` (random bytes plus an
adversarial family that puts occurrences on chunk seams) and its fixed
examples.

The spec functions state the paper's seam lemma as three index groups:
``cast_indices`` (the left operand's indices, unchanged), ``make_new_indices``
(matches created by the seam) and ``shift_indices`` (the right operand's
indices, moved past the left input).  The library has one merge,
``sm_append``; the tests hold it equal to ``cast + new + shift``.
"""

import io
import os
import pickle
import tempfile
from concurrent.futures import Executor, Future
from pathlib import Path
from typing import Sequence

from hypothesis import strategies as st

from parmatch import ByteText, ChunkPlan, cli, matcher_ops, mconcat, pmconcat
from parmatch import to_sm, to_sm_par, verify_equivalence


EMPTY = ByteText()


class PicklingPool(Executor):
    """Runs each task inline, as a process pool would: the task goes through
    pickle and so does its result.  Keeps the unpickled arguments and the
    pickled sizes of each task and of each result."""

    def __init__(self, workers: int) -> None:
        self._max_workers = workers
        self.shipped = []
        self.returned = []
        self.args = []

    def submit(self, fn, /, *args, **kwargs):
        task = pickle.dumps((fn, args))
        self.shipped.append(len(task))
        fn, args = pickle.loads(task)
        self.args.append(args)
        result = pickle.dumps(fn(*args, **kwargs))
        self.returned.append(len(result))
        future = Future()
        future.set_result(pickle.loads(result))
        return future


def bt(value) -> ByteText:
    if isinstance(value, str):
        return ByteText.from_text(value)
    return ByteText(bytes(value))


def byte_texts(alphabet_size: int = 256, max_size: int = 64):
    """Random ByteText values; small alphabets make matches dense."""
    if alphabet_size >= 256:
        return st.binary(max_size=max_size).map(ByteText)
    alphabet = bytes(range(97, 97 + alphabet_size))
    return st.lists(
        st.sampled_from(alphabet), max_size=max_size
    ).map(lambda items: ByteText(bytes(items)))


def dense_cases(max_input: int = 64, max_target: int = 6):
    """(input, target) pairs over a two-letter alphabet: match-heavy."""
    return st.tuples(
        byte_texts(alphabet_size=2, max_size=max_input),
        byte_texts(alphabet_size=2, max_size=max_target),
    )


def is_good_index(text: ByteText, target: ByteText, index: int) -> bool:
    """Does ``target`` occur at byte offset ``index``, fully in bounds?

    Out-of-range indices (including negative ones) are simply not good;
    no error is raised.  ``len(text)`` is never good, not even for the
    empty target, matching ``to_sm`` and ``naive_match``.
    """
    width = len(target)
    return (
        0 <= index < len(text)
        and index + width <= len(text)
        and text.data[index : index + width] == target.data
    )


def cast_indices(
    target: ByteText,
    left: ByteText,
    right: ByteText,
    indices: Sequence[int],
) -> list[int]:
    """Re-interpret good indices of ``left`` as good indices of ``left + right``.

    The values are unchanged; appending on the right cannot invalidate an
    in-bounds occurrence.  Debug builds re-check the claim per index.
    """
    if __debug__:
        combined = left + right
        assert all(is_good_index(combined, target, i) for i in indices)
    return list(indices)


def make_new_indices(left: ByteText, right: ByteText, target: ByteText) -> list[int]:
    """Matches created by concatenation itself.

    Only the last ``len(target) - 1`` positions of ``left`` can start an
    occurrence that straddles the seam, so at most that many candidates
    are examined regardless of input sizes.  Targets shorter than two
    bytes cannot straddle anything.  Each candidate is checked with
    ``is_good_index``, so the spec shares no code with the library's scan.
    """
    if len(target) < 2:
        return []
    combined = left + right
    lo = max(len(left) - (len(target) - 1), 0)
    return [i for i in range(lo, len(left)) if is_good_index(combined, target, i)]


def shift_indices(
    target: ByteText,
    left: ByteText,
    right: ByteText,
    indices: Sequence[int],
) -> list[int]:
    """Move good indices of ``right`` up by ``len(left)``.

    The results are good indices of ``left + right``.
    """
    if __debug__:
        assert all(is_good_index(right, target, i) for i in indices)
    offset = len(left)
    return [i + offset for i in indices]


def spec_append_indices(a, b) -> list[int]:
    """``cast + new + shift``: the index list ``sm_append(a, b)`` must produce."""
    return (
        cast_indices(a.target, a.text, b.text, a.indices)
        + make_new_indices(a.text, b.text, a.target)
        + shift_indices(a.target, a.text, b.text, b.indices)
    )


def flatten(segments) -> list[int]:
    """The indices of a window's segments (its lists and ranges), in order.

    Written here, not imported from the library, so that tests comparing
    windows with ``naive_match`` do not rest on the expansion they check.
    """
    return [i for segment in segments for i in segment]


def flat_window(window: tuple) -> tuple:
    """A window ``(lo, hi, head, tail, segments)`` as ``(lo, hi, indices)``."""
    return window[0], window[1], flatten(window[-1])


def whole_window(window: tuple) -> tuple:
    """A window with its segments as indices, its edges kept:
    ``(lo, hi, head, tail, indices)``."""
    return *window[:-1], flatten(window[-1])


def fibonacci_word(length: int) -> bytes:
    """The first ``length`` bytes of the Fibonacci word ``abaababaabaab...``."""
    shorter, word = b"a", b"ab"
    while len(word) < length:
        shorter, word = word, word + shorter
    return word[:length]


def period(word: bytes) -> int:
    """The smallest ``p >= 1`` with ``word[i] == word[i + p]`` wherever both exist."""
    return next((p for p in range(1, len(word)) if word[p:] == word[:-p]), max(len(word), 1))


@st.composite
def seam_cases(draw, max_size: int = 64):
    """Adversarial (input, target) pairs, dense in overlapping occurrences.

    Either a Fibonacci-word prefix with one of the word's factors, or a
    power of a short word, maybe with one byte changed, with a target of
    period 1, m/2 or m - 1 made from the same word.
    """
    n, m = draw(st.integers(0, max_size)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        word, start = fibonacci_word(2 * max_size), draw(st.integers(0, max_size))
        return ByteText(word[:n]), ByteText(word[start : start + m])
    p = draw(st.sampled_from([1, max(m // 2, 1), max(m - 1, 1)]))
    unit = bytes(draw(st.lists(st.sampled_from(b"ab"), min_size=p, max_size=p)))
    text = (unit * (n // p + 1))[:n]
    if text and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        text = text[:i] + draw(st.sampled_from([b"a", b"b", b"z"])) + text[i + 1 :]
    return ByteText(text), ByteText((unit * (m // p + 1))[:m])


def any_cases():
    """(input, target) pairs: dense, random bytes, or adversarial."""
    return st.one_of(
        dense_cases(), st.tuples(byte_texts(), byte_texts(max_size=4)), seam_cases()
    )


@st.composite
def path_cases(draw):
    """(input, target, plan): random or adversarial pairs, and chunk sizes of
    1, below m, m - 1, the target's period, any, and at least the input length."""
    text, target = draw(any_cases())
    n, m = len(text), len(target)
    size = draw(st.one_of(
        st.sampled_from([1, max(m - 1, 1), period(target.data)]),
        st.integers(1, max(m - 1, 1)),
        st.integers(1, max(n, 1)),
        st.integers(max(n, 1), n + 4),
    ))
    return text, target, ChunkPlan(draw(st.integers(1, 5)), size)


def _cli_indices(text: ByteText, target: ByteText, plan: ChunkPlan) -> tuple | None:
    """``parmatch --mode par`` run in-process: the printed indices, or None
    when the exit status disagrees with them.  The target goes in as argv
    would pass its bytes, as a string with lone surrogates for non-UTF-8."""
    out = io.StringIO()
    argv_target = os.fsdecode(target.data)
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "input").write_bytes(text.data)
        status = cli.run([f"--target={argv_target}", "--input", str(Path(tmp, "input")),
                          "--mode", "par", "--branch", str(plan.branch),
                          "--chunk", str(plan.chunk_size)], out=out, err=io.StringIO())
    indices = tuple(map(int, out.getvalue().split()))
    return indices if status == (cli.EXIT_MATCH if indices else cli.EXIT_NO_MATCH) else None


def matching_paths(threads, processes) -> dict:
    """Every matching path, as ``name -> f(text, target, plan) -> indices``.

    ``threads`` and ``processes`` are executors the caller owns.  A new path
    joins the differential suite by adding one entry here.  The ``cli``
    entry takes only non-empty targets; the CLI rejects the empty one.
    """

    def par(*pools):
        return lambda text, target, plan: to_sm_par(plan, text, target, *pools).indices

    def chunk_matchers(text, target, plan):
        return [to_sm(piece, target) for piece in text.chunks(plan.chunk_size)]

    def verified(text, target, plan):
        report = verify_equivalence(text, target, [plan], processes)
        return report.sequential.indices if report.ok else None

    return {
        "to_sm": lambda text, target, plan: to_sm(text, target).indices,
        "to_sm_par inline": par(),
        "to_sm_par threads": par(threads),
        "to_sm_par processes": par(processes),
        "verify_equivalence": verified,
        "pmconcat processes": lambda text, target, plan: pmconcat(
            matcher_ops(target), plan.branch, chunk_matchers(text, target, plan), processes
        ).indices,
        "mconcat": lambda text, target, plan: mconcat(
            matcher_ops(target), chunk_matchers(text, target, plan)).indices,
        "cli": _cli_indices,
    }
