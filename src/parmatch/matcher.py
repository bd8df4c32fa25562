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


def sm_append(a: StringMatcher, b: StringMatcher) -> StringMatcher:
    """Combine two matchers over the same target.

    The result lists ``a``'s indices unchanged, then the matches that
    straddle the seam (found by rescanning the last ``len(target) - 1``
    start positions of ``a.text``), then ``b``'s indices shifted by
    ``len(a.text)``.  The test suite states the paper's three lemma
    functions (cast, new, shift) in ``tests/support.py`` and checks this
    merge against their concatenation.  An operand with empty text is the
    identity, so the other operand is returned as it is.
    """
    if a.target != b.target:
        raise TargetMismatchError(
            f"cannot combine matchers for {a.target!r} and {b.target!r}"
        )
    if not b.text:
        return a
    if not a.text:
        return b
    target = a.target
    combined = a.text + b.text
    split = len(a.text)
    seam = make_indices(combined, target, split - len(target) + 1, split - 1)
    return StringMatcher(target, combined, (*a.indices, *seam, *[i + split for i in b.indices]))


def to_sm(text: ByteText, target: ByteText) -> StringMatcher:
    """Scan ``text`` and build the complete matcher for ``target``.

    An empty target matches at every offset ``0..len(text) - 1`` but not
    at ``len(text)``, so an empty input has no match; ``to_sm_par`` and
    ``naive_match`` follow the same convention.
    """
    indices = make_indices(text, target, 0, len(text) - 1)
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
