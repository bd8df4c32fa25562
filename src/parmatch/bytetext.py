"""Immutable byte-string values with exact slicing and chunking.

ByteText is the domain of every matcher in this package: a thin value
wrapper around ``bytes`` whose operations (take, drop, substring, chunks)
have hard preconditions instead of Python's clamping slice semantics.
They all cut through ``substring``, whose out-of-range requests raise
:class:`RangeError` rather than silently truncating, so algebraic
properties stated about these operations hold byte-for-byte.
"""

from __future__ import annotations

import os
from operator import attrgetter

from .monoid import ChunkableOps, chunk


class RangeError(ValueError):
    """A slicing operation was asked for a window outside the value."""


class Value:
    """Base of the immutable value types; their fields are their ``__slots__``.

    Instances compare and hash by field, print as ``Name(field=value, ...)``
    and pickle by calling the class with their fields.  Subclasses set their
    fields in ``__init__`` with ``object.__setattr__``; assigning or deleting
    a field afterwards raises ``AttributeError``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # One C call reads every field: sm_append compares targets on each merge.
        cls._key = staticmethod(attrgetter(*cls.__slots__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ByteText(Value):
    """An immutable, freely shareable sequence of bytes.

    Matching is byte-exact: text constructors encode to bytes up front and
    all offsets are byte offsets, so chunk boundaries may fall inside
    multi-byte encoded characters without affecting correctness.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes = b"") -> None:
        object.__setattr__(self, "data", data if isinstance(data, bytes) else bytes(data))

    @classmethod
    def from_text(cls, text: str, encoding: str = "utf-8") -> "ByteText":
        return cls(text.encode(encoding))

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "ByteText":
        with open(path, "rb") as handle:
            return cls(handle.read())

    def __len__(self) -> int:
        return len(self.data)

    def __bytes__(self) -> bytes:
        return self.data

    def __add__(self, other: "ByteText") -> "ByteText":
        if not isinstance(other, ByteText):
            return NotImplemented
        return ByteText(self.data + other.data)

    def __repr__(self) -> str:
        return f"ByteText({self.data!r})"

    def take(self, count: int) -> "ByteText":
        """First ``count`` bytes; ``count`` must not exceed the length."""
        return self.substring(0, count)

    def drop(self, count: int) -> "ByteText":
        """Everything after the first ``count`` bytes."""
        return self.substring(count, len(self.data) - count)

    def substring(self, offset: int, length: int) -> "ByteText":
        """``length`` bytes starting at ``offset``.

        The window must lie entirely inside the value; ``take``, ``drop``
        and ``chunks`` all cut through this one range check.
        """
        if offset < 0 or length < 0 or offset + length > len(self.data):
            raise RangeError(
                f"substring [{offset}, {offset + length}) of length {len(self.data)}"
            )
        return ByteText(self.data[offset : offset + length])

    def chunks(self, size: int) -> list["ByteText"]:
        """Split into pieces of ``size`` bytes (last one may be shorter).

        Concatenating the result reconstructs the value exactly.  A value
        no longer than ``size`` (including the empty value) yields a
        single-element list.
        """
        return chunk(chunkable_ops(), size, self)


def chunkable_ops() -> ChunkableOps:
    """ByteText as a chunkable monoid (concatenation with empty identity)."""
    return ChunkableOps(
        identity=ByteText,
        combine=ByteText.__add__,
        length=len,
        window=lambda offset, length, text: text.substring(offset, length),
    )
