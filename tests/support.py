"""Shared helpers, hypothesis strategies and the merge spec for the test suite.

The spec functions state the paper's seam lemma as three index groups:
``cast_indices`` (the left operand's indices, unchanged), ``make_new_indices``
(matches created by the seam) and ``shift_indices`` (the right operand's
indices, moved past the left input).  The library has one merge,
``sm_append``; the tests hold it equal to ``cast + new + shift``.
"""

from typing import Sequence

from hypothesis import strategies as st

from parmatch import ByteText


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
