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

Every index list is a window scan or a concatenation of window scans.  A
window ``(lo, hi, head, tail, segments)`` is the range ``[lo, hi)`` of an
input with its first and last ``min(m - 1, hi - lo)`` bytes, for an
``m``-byte target, and the matches wholly inside it, as absolute offsets.
:func:`scan_window` cuts one from a buffer and is the only caller of the
scan :func:`make_indices`; :func:`to_sm` scans ``[0, len(text))``.
:func:`join_windows` joins adjacent windows, with no shift, by scanning
the seam, the left tail and the right head: it reads only its operands,
so no fold of windows needs a buffer.  It is the one merge:
:func:`sm_append` and the pipeline's :func:`window_ops` both go through it.
The window layer works on plain ``bytes``: :func:`to_sm`, :func:`sm_append`
and ``to_sm_par`` unwrap the public value, :class:`ByteText`, at the edge.

The scan compares candidates one by one in blocks, except where hits of a
periodic target overlap: it then lists the run of hits that follow at the
target's smallest period as an arithmetic progression, after a few slice
compares, instead of one Python step per byte.  A window holds its
indices as *segments*, a list of ascending ``list`` and ``range`` objects:
a run stays a ``range`` (O(1) to store, shift or pickle) through every
join, which concatenates segment lists and copies no index.  Only this
module reads segments.  :func:`ship` moves a window into the form a map
task returns, and :func:`window_matcher` wraps a window's segments,
unlisted, as a matcher's :class:`Indices`, a read-only sequence of ints
(the rope idea of Boehm, Atkinson and Plass).

:func:`naive_match` is the deliberately simple reference scanner; it
shares no code with the scan used by the matcher pipeline and exists to
differential-test everything else.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from functools import partial
from itertools import accumulate, chain
from operator import eq

from .bytetext import ByteText, Value, chunkable_ops
from .monoid import MonoidOps, MorphismWitness


class TargetMismatchError(ValueError):
    """Two matchers with different targets were combined."""


FIRST = 256
"""Candidate positions in the first block of a :func:`make_indices` scan,
and in the first block after each skipped run.  ``FIRST <= BLOCK``."""

BLOCK = 4096
"""The most candidate positions in one block of :func:`make_indices`."""


def make_indices(data: bytes, tg: bytes, lo: int, hi: int) -> list:
    """All good indices of the bytes ``tg`` in the bytes ``data`` within
    ``[lo, hi]``, as segments: a list of ascending runs of indices, each a
    ``list`` of the candidates the scan compared or a ``range`` of the hits
    it skipped to.  Their concatenation (:class:`Indices`) is the index list.

    An empty range (``hi < lo``) lists no index and no segment, and
    ``len(data)`` is no index, even for the empty target.  A negative
    ``lo`` reads as 0.  The empty target has no first byte and matches at
    every candidate: a non-empty range of candidates is its one segment,
    ``range(lo, last + 1)``, and an empty one gives ``[]``.

    The scan runs over the candidates in blocks, sized as below.  In a
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
    a periodic run costs O(1) memory until a reader iterates it.

    Block sizes double, as in Bentley and Yao's unbounded search: a
    window's first block is :data:`FIRST` candidates, each later one twice
    the one before, up to :data:`BLOCK`, and the first block after a
    skipped run is :data:`FIRST` again.  So a run of hits that starts a
    window, or follows a skipped run, is skipped after one block of
    ``FIRST`` candidates compared one by one, and every chunk of a parallel
    scan is a window of its own; a run that starts later is skipped at the
    end of its block, of at most ``BLOCK`` candidates.  Aperiodic input
    still pays one Python block step per ``BLOCK`` candidates once the
    blocks have grown.  Once at most :data:`BLOCK`
    candidates remain, they are the last block: a window that short, such
    as a small input or a join's seam, is one block, since splitting it
    would add block steps to the scans where they cost the most, and it
    has no later block that a skip could save.  With ``FIRST == BLOCK``
    every block is ``BLOCK`` candidates.  The smallest period is computed
    at most once per call, after the first two overlapping hits.
    """
    width = len(tg)
    lo = max(lo, 0)
    last = min(hi, len(data) - max(width, 1))
    if not width:
        return [range(lo, last + 1)] if lo <= last else []
    first = tg[0]
    segments: list = []
    h = lo - width  # the last hit; none yet, and lo - width overlaps no hit at or after lo
    span = FIRST
    q = 0  # the smallest period, computed at the first skip
    while lo <= last:
        if last - lo < BLOCK:  # the last block, which never skips
            end = last + 1
        else:
            end = lo + span
            span = min(2 * span, BLOCK)
        block = [i for i in range(lo, end) if data[i] == first and data[i : i + width] == tg]
        lo = end
        if block:
            segments.append(block)
            before = block[-2] if len(block) > 1 else h
            h = block[-1]
            if lo <= last and h - before < width:
                q = q or _period(tg)
                runs = (_periodic_end(data, h + width, q, last + width) - width - h) // q
                if runs:
                    segments.append(range(h + q, h + q * runs + 1, q))
                    h += q * runs
                    lo = h + 1
                    span = FIRST
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


class Indices(Sequence):
    """The ints that ``segments`` list in order, as a read-only sequence
    that keeps the segments and never lists them: it iterates them in
    turn, finds an index by bisecting their cumulative lengths, builds a
    tuple only for a slice, and equals, hashes and prints as the tuple of
    its ints, whatever the segmentation."""

    __slots__ = ("_segments", "_starts")

    def __init__(self, segments: list) -> None:
        self._segments = segments
        self._starts = list(accumulate(map(len, segments), initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def __iter__(self):
        return chain.from_iterable(self._segments)

    def __getitem__(self, key):
        at = range(len(self))[key]
        if type(at) is range:  # a slice
            return tuple(map(self.__getitem__, at))
        k = bisect_right(self._starts, at) - 1
        return self._segments[k][at - self._starts[k]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Indices, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class StringMatcher(Value):
    """Input text plus the sorted good indices of a fixed target.

    Invariant: ``indices`` is strictly increasing and each entry is a good
    index of ``target`` in ``text``.  Matchers produced by :func:`to_sm`
    are additionally complete (they list *every* good index); completeness
    is preserved by :func:`sm_append`.  ``indices`` is held as an
    :class:`Indices`, and pickles as its segments.
    """

    __slots__ = ("target", "text", "indices")

    def __init__(self, target: ByteText, text: ByteText, indices: Sequence[int]) -> None:
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "text", text)
        if type(indices) is not Indices:
            indices = Indices([indices])
        object.__setattr__(self, "indices", indices)

    def __reduce__(self) -> tuple:
        return StringMatcher, (self.target, self.text, ()), self.indices._segments

    def __setstate__(self, segments: list) -> None:
        object.__setattr__(self, "indices", Indices(segments))


def sm_empty(target: ByteText) -> StringMatcher:
    """The identity matcher: empty input, no indices."""
    return StringMatcher(target, ByteText(), Indices([]))


def scan_window(data: bytes, tg: bytes, lo: int, hi: int) -> tuple:
    """The window ``(lo, hi, head, tail, segments)`` of ``[lo, hi)`` of the
    bytes ``data``: its first and last ``min(m - 1, hi - lo)`` bytes and the
    good indices of the bytes ``tg`` wholly inside it, as absolute offsets,
    in :func:`make_indices`'s segments.  So a run of chunks shorter than
    the target holds at most twice its bytes in edges.

    The one scan rule: an empty target matches at every offset of the
    window but not at ``hi``, and an empty or inverted window lists nothing.
    """
    return _window(data, tg, lo, hi, make_indices(data, tg, lo, hi - max(len(tg), 1)))


def _window(data: bytes, tg: bytes, lo: int, hi: int, segments: list) -> tuple:
    """``[lo, hi)`` of ``data`` as a window that lists ``segments``."""
    k = max(min(len(tg) - 1, hi - lo), 0)
    return lo, hi, data[lo : lo + k], data[hi - k : hi], segments


def join_windows(tg: bytes, left: tuple, right: tuple) -> tuple:
    """Join adjacent windows ``(lo, mid, ...)`` and ``(mid, hi, ...)`` of
    the target's bytes ``tg``.

    The join keeps their segments ``a`` and ``b`` and adds the matches that
    straddle ``mid``: those of the seam, ``left``'s tail and ``right``'s
    head, the only bytes it reads, with fewer start positions than the
    target has bytes.  Next to an empty operand the seam is shorter than
    the target, so it adds no segment (the paper's ``newIsNullLeft`` and
    ``newIsNullRight``) and the other operand is the join.  The segment
    list is ``a``'s, the seam's and ``b``'s segment objects in order, the
    paper's ``is1 ++ isNew ++ is2``: a join copies no index.  The head is
    ``left``'s and the tail ``right``'s, or else the seam scan's own edges:
    the seam holds all of an operand shorter than ``m - 1`` bytes.
    """
    lo, mid, head, ta, a = left
    _, hi, hb, tail, b = right
    k, seam = len(tg) - 1, ta + hb
    _, _, sh, st, found = scan_window(seam, tg, 0, len(seam))
    if len(head) < k:
        head = sh
    if len(tail) < k:
        tail = st
    return lo, hi, head, tail, [*a, *_shift(found, mid - len(ta)), *b]


def window_ops(tg: bytes) -> MonoidOps:
    """Windows ``(lo, hi, head, tail, segments)`` of the bytes ``tg`` under
    :func:`join_windows`, which joins only adjacent ones, reading no buffer:
    a category, not a monoid.  ``identity`` is the fold of no windows,
    ``(0, 0, b"", b"", [])``, the window of an empty input, which the
    pipeline deals no run."""
    return MonoidOps(identity=_empty_window, combine=partial(join_windows, tg))


def _empty_window() -> tuple:
    """The identity: an empty input's window, holding no byte and no segment."""
    return 0, 0, b"", b"", []


def _shift(segments: list, offset: int) -> list:
    """``segments`` with every index moved by ``offset``: a ``range`` in
    O(1), a list index by index; ``segments`` itself for offset 0 or none."""
    if not offset or not segments:
        return segments
    return [range(s.start + offset, s.stop + offset, s.step) if type(s) is range
            else [i + offset for i in s] for s in segments]


def ship(window: tuple, base: int) -> tuple:
    """``window`` moved by ``base``, in the form every map task returns.

    Its edges, at most ``m - 1`` bytes each, go as they are.  Its
    segments move as :func:`_shift` moves them, a ``range`` in O(1), and
    stay plain segments: pickled, a periodic run crosses a process pipe
    as a ``range``, not one int per hit, and arrives as one.
    """
    lo, hi, head, tail, segments = window
    return lo + base, hi + base, head, tail, _shift(segments, base)


def window_matcher(target: ByteText, text: ByteText, window: tuple) -> StringMatcher:
    """The matcher of ``text`` whose :class:`Indices` wrap ``window``'s
    segments, none of them listed."""
    return StringMatcher(target, text, Indices(window[-1]))


def sm_append(a: StringMatcher, b: StringMatcher) -> StringMatcher:
    """Combine two matchers over the same target.

    The result lists ``a``'s indices unchanged, then the matches that
    straddle the seam (found by rescanning the last ``len(target) - 1``
    start positions of ``a.text``), then ``b``'s indices shifted by
    ``len(a.text)``.  The seam is :func:`join_windows`'s, over the two
    inputs as adjacent windows of their concatenation.  The test suite
    states the paper's three lemma functions (cast, new, shift) in
    ``tests/support.py`` and checks this merge against their
    concatenation.  An operand with empty text is the identity.  It splices
    the operands' segment lists: no :class:`Indices` nests in another.
    """
    if a.target != b.target:
        raise TargetMismatchError(
            f"cannot combine matchers for {a.target!r} and {b.target!r}"
        )
    combined = a.text + b.text
    data, tg, split = combined.data, a.target.data, len(a.text.data)
    left = _window(data, tg, 0, split, a.indices._segments)
    right = _window(data, tg, split, len(data), _shift(b.indices._segments, split))
    return window_matcher(a.target, combined, join_windows(tg, left, right))


def to_sm(text: ByteText, target: ByteText) -> StringMatcher:
    """Scan ``text`` and build the complete matcher for ``target``.

    Its indices are the window ``[0, len(text))``: an empty target matches
    at every offset ``0..len(text) - 1`` but not at ``len(text)``, so an
    empty input has no match; ``to_sm_par`` and ``naive_match`` agree.
    """
    return window_matcher(target, text, scan_window(text.data, target.data, 0, len(text.data)))


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
