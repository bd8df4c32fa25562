"""The string-matcher monoid and its brute-force oracle.

A :class:`StringMatcher` pairs a piece of input with every offset where a
fixed target occurs in it.  Two matchers over the same target combine by
concatenating their inputs and stitching three index groups together:

1. the left matcher's indices, unchanged (still valid after appending on
   the right),
2. fresh matches discovered in the boundary window, the only region where
   concatenation can create occurrences absent from both sides, and
3. the right matcher's indices, shifted by the left input's length.

Because the three groups occupy disjoint ascending ranges, plain
concatenation keeps the index list sorted.  :func:`to_sm` builds a matcher
by scanning, and the whole point of the design is that it distributes over
concatenation, so matching can be chunked and run in parallel.

Every index list is a window scan or a concatenation of window scans:
:func:`scan_window` lists the matches wholly inside a half-open window
``[lo, hi)`` of one buffer, as absolute offsets, and is the only caller of
the scan :func:`make_indices`.  :func:`to_sm` scans ``[0, len(text))``, and
:func:`join_windows` joins adjacent windows, with no shift, by scanning the
seam, the ``m - 1`` bytes on each side of the cut.  It is the one merge:
:func:`sm_append` and the pipeline's :func:`window_ops` both go through it.

:func:`naive_match` is the deliberately simple reference scanner; it
shares no code with the scan used by the matcher pipeline and exists to
differential-test everything else.
"""

from __future__ import annotations

from functools import partial

from .bytetext import ByteText, Value, chunkable_ops
from .monoid import MonoidOps, MorphismWitness


class TargetMismatchError(ValueError):
    """Two matchers with different targets were combined."""


def make_indices(text: ByteText, target: ByteText, lo: int, hi: int) -> list[int]:
    """All good indices of ``target`` in ``text`` within ``[lo, hi]``.

    An empty range (``hi < lo``) yields an empty list, and so does
    ``len(text)``, even for the empty target.  A negative ``lo`` reads
    as 0.  The scan checks every candidate position directly.
    """
    data = text.data
    tg = target.data
    width = len(tg)
    last = min(hi, len(data) - max(width, 1))
    return [i for i in range(max(lo, 0), last + 1) if data[i : i + width] == tg]


class StringMatcher(Value):
    """Input text plus the sorted good indices of a fixed target.

    Invariant: ``indices`` is strictly increasing and each entry is a good
    index of ``target`` in ``text``.  Matchers produced by :func:`to_sm`
    are additionally complete (they list *every* good index); completeness
    is preserved by :func:`sm_append`.
    """

    __slots__ = ("target", "text", "indices")

    def __init__(self, target: ByteText, text: ByteText, indices: tuple[int, ...]) -> None:
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "indices", indices)


def sm_empty(target: ByteText) -> StringMatcher:
    """The identity matcher: empty input, no indices."""
    return StringMatcher(target, ByteText(), ())


def scan_window(text: ByteText, target: ByteText, lo: int, hi: int) -> tuple[int, int, list[int]]:
    """The window ``(lo, hi, indices)``: the good indices of ``target``
    lying wholly inside ``[lo, hi)`` of ``text``, as absolute offsets.

    The one scan rule: an empty target matches at every offset of the
    window but not at ``hi``, and an empty or inverted window lists nothing.
    """
    return lo, hi, make_indices(text, target, lo, hi - max(len(target), 1))


def join_windows(
    text: ByteText, target: ByteText, left: tuple, right: tuple
) -> tuple[int, int, list[int]]:
    """Join adjacent windows ``(lo, mid, a)`` and ``(mid, hi, b)`` of ``text``.

    The join keeps ``a`` and ``b`` as they are and adds the matches that
    straddle ``mid``, which are exactly the matches of the seam: the window
    of the ``m - 1`` bytes on each side of the cut, for an ``m``-byte
    target, within ``[lo, hi)``.  It has at most ``m - 1`` start positions,
    and none for ``m <= 1``.  An empty window, at any offset, is the identity.
    """
    lo, mid, a = left
    start, hi, b = right
    if lo == mid:
        return right
    if start == hi:
        return left
    m = len(target)
    _, _, seam = scan_window(text, target, max(lo, mid - m + 1), min(hi, mid + m - 1))
    return lo, hi, [*a, *seam, *b]


def window_ops(text: ByteText, target: ByteText) -> MonoidOps:
    """Adjacent windows of ``text`` as a monoid; identity is the empty window."""
    return MonoidOps(identity=_empty_window, combine=partial(join_windows, text, target))


def _empty_window() -> tuple[int, int, list[int]]:
    return 0, 0, []


def sm_append(a: StringMatcher, b: StringMatcher) -> StringMatcher:
    """Combine two matchers over the same target.

    The result lists ``a``'s indices unchanged, then the matches that
    straddle the seam (found by rescanning the last ``len(target) - 1``
    start positions of ``a.text``), then ``b``'s indices shifted by
    ``len(a.text)``.  The seam is :func:`join_windows`'s, over the two
    inputs as adjacent windows of their concatenation.  The test suite
    states the paper's three lemma functions (cast, new, shift) in
    ``tests/support.py`` and checks this merge against their
    concatenation.  An operand with empty text is the identity.
    """
    if a.target != b.target:
        raise TargetMismatchError(
            f"cannot combine matchers for {a.target!r} and {b.target!r}"
        )
    target = a.target
    combined = a.text + b.text
    split = len(a.text)
    shifted = [i + split for i in b.indices]
    _, _, indices = join_windows(
        combined, target, (0, split, a.indices), (split, len(combined), shifted)
    )
    return StringMatcher(target, combined, tuple(indices))


def to_sm(text: ByteText, target: ByteText) -> StringMatcher:
    """Scan ``text`` and build the complete matcher for ``target``.

    Its indices are the window ``[0, len(text))``: an empty target matches
    at every offset ``0..len(text) - 1`` but not at ``len(text)``, so an
    empty input has no match; ``to_sm_par`` and ``naive_match`` agree.
    """
    _, _, indices = scan_window(text, target, 0, len(text))
    return StringMatcher(target, text, tuple(indices))


def naive_match(text: ByteText, target: ByteText) -> list[int]:
    """Reference oracle: compare a window at every position.

    Intentionally independent of :func:`make_indices`; kept as dumb as
    possible so its correctness is evident by inspection.
    """
    data = bytes(text)
    tg = bytes(target)
    width = len(tg)
    return [i for i in range(len(data)) if data[i : i + width] == tg]


def matcher_ops(target: ByteText) -> MonoidOps:
    """StringMatcher (for one fixed target) as a monoid."""
    return MonoidOps(identity=partial(sm_empty, target), combine=sm_append)


def to_sm_witness(target: ByteText) -> MorphismWitness:
    """The matching map as a morphism from byte strings to matchers."""
    return MorphismWitness(
        source=chunkable_ops(),
        target=matcher_ops(target),
        map_fn=partial(to_sm, target=target),
    )
