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

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .bytetext import ByteText, chunkable_ops
from .monoid import MonoidOps, MorphismWitness


class TargetMismatchError(ValueError):
    """Two matchers with different targets were combined."""


def is_good_index(text: ByteText, target: ByteText, index: int) -> bool:
    """Does ``target`` occur at byte offset ``index``, fully in bounds?

    Out-of-range indices (including negative ones) are simply not good;
    no error is raised.
    """
    width = len(target)
    return (
        0 <= index
        and index + width <= len(text)
        and text.data[index : index + width] == target.data
    )


def make_indices(text: ByteText, target: ByteText, lo: int, hi: int) -> list[int]:
    """All good indices of ``target`` in ``text`` within ``[lo, hi]``.

    An empty range (``hi < lo``) yields an empty list.  The scan checks
    every candidate position directly; the package's speedup comes from
    chunked parallelism, not from a cleverer sequential scan.
    """
    data = text.data
    tg = target.data
    width = len(tg)
    limit = len(data) - width
    return [i for i in range(lo, hi + 1) if i <= limit and data[i : i + width] == tg]


def make_sm_indices(text: ByteText, target: ByteText) -> list[int]:
    """Every good index of ``target`` in ``text``, ascending."""
    return make_indices(text, target, 0, len(text) - 1)


@dataclass(frozen=True, slots=True)
class StringMatcher:
    """Input text plus the sorted good indices of a fixed target.

    Invariant: ``indices`` is strictly increasing and each entry is a good
    index of ``target`` in ``text``.  Matchers produced by :func:`to_sm`
    are additionally complete (they list *every* good index); completeness
    is preserved by :func:`sm_append`.
    """

    target: ByteText
    text: ByteText
    indices: tuple[int, ...]

    def to_record(self) -> dict:
        """Serializable summary; the raw input text is not echoed."""
        return {
            "target": self.target.data.decode("utf-8", errors="replace"),
            "input_length": len(self.text),
            "indices": list(self.indices),
        }


def sm_empty(target: ByteText) -> StringMatcher:
    """The identity matcher: empty input, no indices."""
    return StringMatcher(target, ByteText(), ())


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
    bytes cannot straddle anything.
    """
    if len(target) < 2:
        return []
    return _seam_indices(left + right, len(left), target)


def _seam_indices(combined: ByteText, split: int, target: ByteText) -> list[int]:
    lo = max(split - (len(target) - 1), 0)
    return make_indices(combined, target, lo, split - 1)


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


def sm_append(a: StringMatcher, b: StringMatcher) -> StringMatcher:
    """Combine two matchers over the same target.

    Equivalent to concatenating ``cast_indices``, ``make_new_indices``,
    and ``shift_indices`` outputs; the seam scan here reuses the combined
    text instead of rebuilding it.
    """
    if a.target != b.target:
        raise TargetMismatchError(
            f"cannot combine matchers for {a.target!r} and {b.target!r}"
        )
    target = a.target
    combined = a.text + b.text
    split = len(a.text)
    kept = list(a.indices)
    seam = _seam_indices(combined, split, target) if len(target) >= 2 else []
    shifted = [i + split for i in b.indices]
    return StringMatcher(target, combined, tuple(kept + seam + shifted))


def to_sm(text: ByteText, target: ByteText) -> StringMatcher:
    """Scan ``text`` and build the complete matcher for ``target``.

    An empty target matches at every offset ``0..len(text) - 1`` but not
    at ``len(text)``, so an empty input has no match; ``to_sm_par`` and
    ``naive_match`` follow the same convention.
    """
    return StringMatcher(target, text, tuple(make_sm_indices(text, target)))


def naive_match(text: ByteText, target: ByteText) -> list[int]:
    """Reference oracle: compare a window at every position.

    Intentionally independent of :func:`make_indices`; kept as dumb as
    possible so its correctness is evident by inspection.
    """
    data = bytes(text)
    tg = bytes(target)
    width = len(tg)
    return [i for i in range(len(data)) if data[i : i + width] == tg]


def matcher_ops(target: ByteText) -> MonoidOps[StringMatcher]:
    """StringMatcher (for one fixed target) as a monoid."""
    return MonoidOps(identity=partial(sm_empty, target), combine=sm_append)


def to_sm_witness(target: ByteText) -> MorphismWitness[ByteText, StringMatcher]:
    """The matching map as a morphism from byte strings to matchers."""
    return MorphismWitness(
        source=chunkable_ops(),
        target=matcher_ops(target),
        map_fn=partial(to_sm, target=target),
    )
