"""Contracts of the value types ByteText, StringMatcher and ChunkPlan.

They are compared, hashed, printed in error messages and pickled to
process-pool workers, so each of those behaviours is pinned here.
"""

import pickle

import pytest

from parmatch import ByteText, ChunkPlan, StringMatcher, to_sm, to_sm_par

from support import bt


def values():
    """Two equal but distinct instances of each value type."""
    return [
        (ByteText(b"ab"), ByteText(b"ab")),
        (to_sm(bt("abab"), bt("ab")), to_sm(bt("abab"), bt("ab"))),
        (ChunkPlan(2, 3), ChunkPlan(2, 3)),
    ]


@pytest.mark.parametrize("a, b", values())
def test_equal_values_hash_equal(a, b):
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_different_values_compare_unequal():
    assert ByteText(b"ab") != ByteText(b"ba")
    assert to_sm(bt("abab"), bt("ab")) != to_sm(bt("abab"), bt("ba"))
    assert ChunkPlan(2, 3) != ChunkPlan(3, 2)
    assert ByteText(b"ab") != b"ab"


@pytest.mark.parametrize(
    "value, field",
    [(ByteText(b"ab"), "data"), (to_sm(bt("abab"), bt("ab")), "indices"),
     (ChunkPlan(2, 3), "branch")],
)
def test_fields_are_read_only(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before


def test_reprs():
    assert repr(ChunkPlan(2, 3)) == "ChunkPlan(branch=2, chunk_size=3)"
    assert repr(ByteText(b"ab")) == "ByteText(b'ab')"
    assert repr(to_sm(bt("abab"), bt("ab"))) == (
        "StringMatcher(target=ByteText(b'ab'), text=ByteText(b'abab'), indices=(0, 2))"
    )


def test_bytetext_coerces_buffers_to_bytes():
    assert type(ByteText(bytearray(b"ab")).data) is bytes
    assert type(ByteText(memoryview(b"ab")).data) is bytes
    assert ByteText().data == b""


@pytest.mark.parametrize("a, b", values())
def test_pickle_round_trip(a, b):
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a)
    assert copy == b


def test_matcher_pickle_stays_small():
    # A matcher crosses a pipe only when a caller maps to_sm on a process
    # pool itself, as perfbench's traced run does; the library's own workers
    # return a shipped window instead.
    matcher = to_sm(ByteText(b"ab" * 1000), ByteText(b"aba"))
    assert len(pickle.dumps(matcher)) <= 4990


@pytest.mark.parametrize(
    "branch, size", [(2, 2.5), (2.0, 3), ("2", 3), (2, "3"), (True, 3), (2, None)]
)
def test_chunk_plan_rejects_non_integers(branch, size):
    with pytest.raises(ValueError, match="ChunkPlan"):
        ChunkPlan(branch, size)


def test_chunk_plan_keywords():
    plan = ChunkPlan(branch=2, chunk_size=3)
    assert (plan.branch, plan.chunk_size) == (2, 3)
    assert to_sm_par(plan, bt("abababa"), bt("aba")).indices == (0, 2, 4)


def test_matcher_keywords():
    matcher = StringMatcher(target=bt("a"), text=bt("aa"), indices=(0, 1))
    assert matcher == to_sm(bt("aa"), bt("a"))
