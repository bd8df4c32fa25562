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

The scan compares candidates one by one in blocks, except where hits of a
periodic target overlap: it then lists the run of hits that follow at the
target's smallest period as an arithmetic progression, after a few slice
compares, instead of one Python step per byte.  A window ``(lo, hi,
segments)`` holds its indices as *segments*, a list of ascending ``list``
and ``range`` objects: a run stays a ``range`` (O(1) to store, shift or
pickle) through every join, which concatenates segment lists and copies
no index.  Only this module reads segments.  :func:`ship` moves a window
into the form a map task returns, and :func:`window_matcher` lists a
window's segments once, into a matcher's ``indices`` tuple.

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


BLOCK = 4096
"""Candidate positions per block of :func:`make_indices`."""


def make_indices(text: ByteText, target: ByteText, lo: int, hi: int) -> list:
    """All good indices of ``target`` in ``text`` within ``[lo, hi]``, as
    segments: a list of ascending runs of indices, each a ``list`` of the
    candidates the scan compared or a ``range`` of the hits it skipped to.
    Their concatenation (:func:`_expand`) is the index list.

    An empty range (``hi < lo``) lists no index and no segment, and
    ``len(text)`` is no index, even for the empty target.  A negative
    ``lo`` reads as 0.  The empty target has no first byte and matches at
    every candidate: a non-empty range of candidates is its one segment,
    ``range(lo, last + 1)``, and an empty one gives ``[]``.

    The scan runs over the candidates in blocks of :data:`BLOCK`.  In a
    block it compares the target's first byte at each position and slices
    out the whole window only where that byte matches, the check that
    Horspool's skip loop is built on.  After a block whose last hit ``h``
    overlaps the hit before it, the target is periodic, and the scan
    lists the run of hits that follow ``h`` at its smallest period ``q``
    (:func:`_period`) without comparing the candidates between them.
    It grows the stretch after ``h`` in which every
    byte equals the byte ``q`` before it, with slice compares of doubling,
    then halving, length, and lists ``h + q, h + 2q, ...`` for every
    window inside that stretch.  A window in it starts with the same ``q``
    bytes as the one at ``h`` and has period ``q``, so it is the target.
    No position skipped between these hits can be one: it lies ``d < q``
    bytes after a listed hit, within the target's width, and two
    overlapping hits ``d`` apart give the target the period ``d``, which
    the smallest period ``q`` rules out (the periodicity argument of
    Fine and Wilf's lemma).  The comprehension resumes after the last
    listed hit, or at the block's end if none was listed.  The last block
    needs no skip: its last hit is the last one in ``[lo, hi]``.  A block
    with hits is one ``list`` segment and a skipped run one ``range``, so
    a periodic run costs O(1) memory until :func:`_expand` lists it.

    :data:`BLOCK` is 4096 as a trade-off: aperiodic input pays one Python
    block step per 4 KiB of candidates, and periodic input compares at
    most one block of candidates one by one before each run is skipped.
    The smallest period is computed only after two overlapping hits.
    """
    data = text.data
    tg = target.data
    width = len(tg)
    lo = max(lo, 0)
    last = min(hi, len(data) - max(width, 1))
    if not width:
        return [range(lo, last + 1)] if lo <= last else []
    first = tg[0]
    segments: list = []
    h = lo - width  # the last hit; none yet, and lo - width overlaps no hit at or after lo
    while lo <= last:
        # min(lo + BLOCK, last + 1), without the call that short scans would feel
        end = last + 1 if last - lo < BLOCK else lo + BLOCK
        block = [i for i in range(lo, end) if data[i] == first and data[i : i + width] == tg]
        lo = end
        if block:
            segments.append(block)
            before = block[-2] if len(block) > 1 else h
            h = block[-1]
            if lo <= last and h - before < width:
                q = _period(tg)
                runs = (_periodic_end(data, h + width, q, last + width) - width - h) // q
                if runs:
                    segments.append(range(h + q, h + q * runs + 1, q))
                    h += q * runs
                    lo = h + 1
    return segments


def _period(tg: bytes) -> int:
    """The smallest period of a non-empty ``tg``: its length less its
    longest proper border, from the Knuth–Morris–Pratt failure function."""
    border = [0] * len(tg)
    k = 0
    for i in range(1, len(tg)):
        while k and tg[i] != tg[k]:
            k = border[k - 1]
        if tg[i] == tg[k]:
            k += 1
        border[i] = k
    return len(tg) - k


def _periodic_end(data: bytes, stop: int, q: int, cap: int) -> int:
    """Grow ``stop`` while each byte of ``data`` equals the one ``q`` before
    it, up to ``cap``: by steps of 1, 2, 4, ... bytes, then halving ones,
    which together cover every length short of the step that failed."""
    step = 1
    while stop < cap:
        nxt = min(stop + step, cap)
        if data[stop:nxt] != data[stop - q : nxt - q]:
            break
        stop = nxt
        step *= 2
    else:
        return stop
    while step > 1:
        step //= 2
        nxt = min(stop + step, cap)
        if data[stop:nxt] == data[stop - q : nxt - q]:
            stop = nxt
    return stop


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


def scan_window(text: ByteText, target: ByteText, lo: int, hi: int) -> tuple[int, int, list]:
    """The window ``(lo, hi, segments)``: the good indices of ``target``
    lying wholly inside ``[lo, hi)`` of ``text``, as absolute offsets, in
    :func:`make_indices`'s segments.

    The one scan rule: an empty target matches at every offset of the
    window but not at ``hi``, and an empty or inverted window lists nothing.
    """
    return lo, hi, make_indices(text, target, lo, hi - max(len(target), 1))


def join_windows(
    text: ByteText, target: ByteText, left: tuple, right: tuple
) -> tuple[int, int, list]:
    """Join adjacent windows ``(lo, mid, a)`` and ``(mid, hi, b)`` of ``text``.

    The windows must be adjacent: ``right`` starts where ``left`` ends.
    The join keeps ``a`` and ``b`` as they are and adds the matches that
    straddle ``mid``, which are exactly the matches of the seam: the window
    of the ``m - 1`` bytes on each side of the cut, for an ``m``-byte
    target, within ``[lo, hi)``.  It has at most ``m - 1`` start positions,
    and none for ``m <= 1``.  Next to an empty operand the seam is shorter
    than the target, or inverted for the empty target, so it adds no
    segment (the paper's ``newIsNullLeft`` and ``newIsNullRight``, where
    ``isNew`` is the empty list) and the other operand keeps its bounds
    and segments.  The joined segment list is ``a``'s, the seam's and
    ``b``'s segment objects in order, the paper's ``is1 ++ isNew ++
    is2``: a join copies references to segments, never an index.
    """
    lo, mid, a = left
    _, hi, b = right
    m = len(target)
    _, _, seam = scan_window(text, target, max(lo, mid - m + 1), min(hi, mid + m - 1))
    return lo, hi, [*a, *seam, *b]


def window_ops(text: ByteText, target: ByteText) -> MonoidOps:
    """Windows of ``text`` under :func:`join_windows`, which joins only
    adjacent ones: a category, not a monoid.  ``identity`` is the fold of
    no windows, and so the window of an empty input, which the pipeline
    deals no run."""
    return MonoidOps(identity=_empty_window, combine=partial(join_windows, text, target))


def _empty_window() -> tuple[int, int, list]:
    """The identity: an empty input's window, holding no segment."""
    return 0, 0, []


def _shift(segments: list, offset: int) -> list:
    """``segments`` with every index moved by ``offset``: a ``range`` in
    O(1), a list index by index; ``segments`` itself for offset 0."""
    if not offset:
        return segments
    return [range(s.start + offset, s.stop + offset, s.step) if type(s) is range
            else [i + offset for i in s] for s in segments]


def _expand(segments: list) -> list[int]:
    """The indices that ``segments`` list, in order, as one new list."""
    indices: list[int] = []
    for segment in segments:
        indices += segment
    return indices


def _flatten(segments: list) -> list:
    """``segments`` as one ``list`` segment: :class:`_Shipped`'s unpickler."""
    return [_expand(segments)]


class _Shipped(list):
    """Segments that unpickle as :func:`_flatten`'s one ``list`` segment."""

    __slots__ = ()

    def __reduce__(self) -> tuple:
        return _flatten, (list(self),)


def ship(window: tuple, base: int) -> tuple[int, int, list]:
    """``window`` moved by ``base``, in the form every map task returns.

    Its segments move as :func:`_shift` moves them, a ``range`` in O(1),
    and travel as :class:`_Shipped`: pickled, they go as they are, so a
    periodic run crosses a process pipe as a ``range``, not one int per
    hit, and the receiving process lists them as it unpickles them.  In
    the process that made them they stay plain segments, which
    :func:`window_matcher` lists like any others.
    """
    lo, hi, segments = window
    return lo + base, hi + base, _Shipped(_shift(segments, base))


def window_matcher(target: ByteText, text: ByteText, window: tuple) -> StringMatcher:
    """The matcher of ``text`` whose indices ``window`` lists, each listed once."""
    return StringMatcher(target, text, tuple(_expand(window[2])))


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
    shifted = _shift([b.indices], split)
    joined = join_windows(
        combined, target, (0, split, [a.indices]), (split, len(combined), shifted)
    )
    return window_matcher(target, combined, joined)


def to_sm(text: ByteText, target: ByteText) -> StringMatcher:
    """Scan ``text`` and build the complete matcher for ``target``.

    Its indices are the window ``[0, len(text))``: an empty target matches
    at every offset ``0..len(text) - 1`` but not at ``len(text)``, so an
    empty input has no match; ``to_sm_par`` and ``naive_match`` agree.
    """
    return window_matcher(target, text, scan_window(text, target, 0, len(text)))


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
