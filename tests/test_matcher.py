import bisect
import itertools
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from parmatch import (
    ByteText,
    ChunkPlan,
    StringMatcher,
    TargetMismatchError,
    check_monoid_laws,
    check_morphism,
    matcher_ops,
    naive_match,
    sm_append,
    sm_empty,
    to_sm,
    to_sm_par,
    to_sm_witness,
)
from parmatch import matcher
from parmatch.matcher import Indices, join_windows, make_indices, scan_window, ship

from support import (
    EMPTY,
    PicklingPool,
    any_cases,
    bt,
    byte_texts,
    cast_indices,
    dense_cases,
    flat_window,
    flatten,
    is_good_index,
    make_new_indices,
    period,
    shift_indices,
    spec_append_indices,
    whole_window,
)


DEFAULT_BLOCKS = (matcher.FIRST, matcher.BLOCK)
BLOCKS = [(1, 1), (1, 4), (2, 8), (3, 3), (3, 8), DEFAULT_BLOCKS]
"""``(FIRST, BLOCK)`` pairs for the scan: small blocks reach the periodic
skip from every hit, and a ``FIRST`` below ``BLOCK`` doubles the blocks and
restarts them after each skip, across block edges."""


def blocks(first, block):
    """The scan's block sizes patched to ``first`` and ``block``."""
    return mock.patch.multiple(matcher, FIRST=first, BLOCK=block)


def full_scan(text, target):
    """The paper's ``makeSMIndices``: every good index, ascending."""
    return flatten(make_indices(text.data, target.data, 0, len(text) - 1))


@st.composite
def any_windows(draw):
    """(input, target, lo, hi): any case, with ``lo`` and ``hi`` past
    either end and inverted windows."""
    text, target = draw(any_cases())
    lo = draw(st.integers(-3, len(text) + 1))
    hi = draw(st.integers(lo - 2, len(text) + 2))
    return text, target, lo, hi


class TestGoodIndex:
    def test_paper_vector(self):
        assert is_good_index(bt("ababcabcab"), bt("abcab"), 2)
        assert not is_good_index(bt("ababcabcab"), bt("abcab"), 0)

    def test_whole_string(self):
        assert is_good_index(bt("abc"), bt("abc"), 0)

    def test_target_longer_than_input(self):
        assert not is_good_index(bt("abc"), bt("abcd"), 0)

    def test_out_of_bounds_is_false_not_error(self):
        assert not is_good_index(bt("abc"), bt("ab"), -1)
        assert not is_good_index(bt("abc"), bt("ab"), 2)
        assert not is_good_index(bt("abc"), bt("ab"), 99)


class TestMakeIndices:
    def test_spec_example(self):
        assert flatten(make_indices(b"abababa", b"aba", 0, 6)) == [0, 2, 4]

    def test_empty_range(self):
        assert flatten(make_indices(b"abababa", b"aba", 5, 4)) == []

    def test_window_restricted(self):
        assert flatten(make_indices(b"ababcabcab", b"abcab", 0, 9)) == [2, 5]
        assert flatten(make_indices(b"ababcabcab", b"abcab", 3, 9)) == [5]

    @given(any_windows(), st.sampled_from(BLOCKS))
    @example((bt("abc"), EMPTY, -1, 5), DEFAULT_BLOCKS)  # no first byte: every candidate
    @example((bt(b"\x80\xff\xff\x00\xff"), bt(b"\xff\x00"), 0, 5), DEFAULT_BLOCKS)  # high bytes
    @example((bt("aXaYabc"), bt("abc"), 0, 6), DEFAULT_BLOCKS)  # first byte matches, tail does not
    @example((bt("xxab"), bt("ab"), 0, 2), DEFAULT_BLOCKS)  # a match at the last candidate
    @example((bt("xxab"), bt("ab"), -3, 9), DEFAULT_BLOCKS)
    @example((bt("abababbababa"), bt("abab"), 0, 11), (2, 2))  # a periodic run broken by one byte
    @example((bt("aaaaaaaa"), bt("aaa"), 1, 4), (1, 1))  # a run cut short by hi
    @example((bt("abababbababababa"), bt("abab"), 0, 15), (1, 4))  # skip, restart, skip
    def test_any_window_equals_naive_match(self, window, sizes):
        # lo < 0, hi < lo, hi past the end, and windows ending in the last m bytes;
        # small blocks start the periodic skip after every hit
        text, target, lo, hi = window
        expected = [i for i in naive_match(text, target) if lo <= i <= hi]
        with blocks(*sizes):
            assert flatten(make_indices(text.data, target.data, lo, hi)) == expected

    def test_make_sm_indices_full_scan(self):
        assert full_scan(bt("abababa"), bt("aba")) == [0, 2, 4]
        assert full_scan(EMPTY, bt("aba")) == []
        assert full_scan(bt("aaaa"), bt("aa")) == [0, 1, 2]

    @given(dense_cases(), st.data())
    def test_merge_lemma(self, case, data):
        text, target = case
        hi = len(text) - 1
        if hi < 0:
            return  # lemma needs lo <= mid <= hi
        mid = data.draw(st.integers(0, hi))
        text, tg = text.data, target.data
        assert flatten(make_indices(text, tg, 0, hi)) == (
            flatten(make_indices(text, tg, 0, mid)) + flatten(make_indices(text, tg, mid + 1, hi))
        )


class TestPeriod:
    def test_smallest_period_of_every_short_target(self):
        # brute force: the least p >= 1 with tg[p:] == tg[:-p], else m
        for m in range(1, 8):
            for word in itertools.product(b"abc", repeat=m):
                tg = bytes(word)
                assert matcher._period(tg) == period(tg), tg


class TestBlocks:
    """The scan's blocks double from ``FIRST`` to ``BLOCK`` candidates and
    start at ``FIRST`` again after each skipped run; a window of at most
    ``BLOCK`` candidates is one block."""

    def test_block_sizes_double_up_to_block(self):
        # A one-byte target never overlaps itself, so every candidate is a
        # hit, no block skips, and each block is one list of its size.
        with blocks(2, 8):
            segments = scan_window(b"a" * 30, b"a", 0, 30)[-1]
        assert [len(s) for s in segments] == [2, 4, 8, 8, 8]

    def test_a_periodic_window_is_skipped_after_the_first_block(self):
        text, target = ByteText(b"ab" * 32768), bt("ababa")
        segments = scan_window(text.data, target.data, 0, 65536)[-1]
        assert [type(s) for s in segments] == [list, range]
        assert len(segments[0]) <= 128  # FIRST // 2: one block of 256 candidates
        assert flatten(segments) == naive_match(text, target)

    def test_a_broken_run_is_skipped_again_within_first_candidates(self):
        text, target = ByteText(b"ab" * 16384 + b"b" + b"ab" * 16384), bt("ababa")
        segments = scan_window(text.data, target.data, 0, len(text))[-1]
        assert [type(s) for s in segments] == [list, range, list, range]
        assert len(segments[2]) <= 128
        assert segments[2][-1] - segments[1][-1] <= 256  # FIRST
        assert flatten(segments) == naive_match(text, target)

    def test_a_window_of_at_most_block_candidates_is_one_block(self):
        # abc never overlaps itself: no skip, so only the block sizes cut lists.
        target = bt("abc")
        for candidates, count in ((matcher.BLOCK - 1, 1), (matcher.BLOCK, 1),
                                  (matcher.BLOCK + 1, 2)):
            text = ByteText((b"abcx" * matcher.BLOCK)[: candidates + 2])
            segments = scan_window(text.data, target.data, 0, len(text))[-1]
            assert len(segments) == count, candidates
            assert flatten(segments) == naive_match(text, target)


class TestSmallScope:
    """Every text over ``{a,b}`` of up to ``TEXT_MAX`` bytes, every target of up
    to 4 bytes and every cut: both windows and their join against
    ``naive_match``, and the join against the seam spec ``cast + new + shift``.
    No window or join holds an empty segment.
    Blocks of 1 and 3 start the periodic skip from every position, and
    blocks that double from 1, 2 or 3 cross block edges and restart after
    a skip (:data:`BLOCKS`).  A skip
    made with a period that is too long first lists a wrong hit on 10 bytes
    (``abab`` skipped at period 4), so whole texts of up to ``SCAN_MAX``
    bytes are also scanned, without cuts."""

    TEXT_MAX = 6
    SCAN_MAX = 10

    def test_windows_and_joins_of_every_small_case(self):
        targets = [bt(bytes(w)) for m in range(5) for w in itertools.product(b"ab", repeat=m)]
        texts = [bt(bytes(w)) for n in range(self.SCAN_MAX + 1)
                 for w in itertools.product(b"ab", repeat=n)]
        for sizes in BLOCKS:
            with blocks(*sizes):
                for text in texts:
                    for target in targets:
                        if len(text) <= self.TEXT_MAX:
                            self.check(text, target, spec=sizes == DEFAULT_BLOCKS)
                        elif sizes != DEFAULT_BLOCKS:  # one block of these never skips
                            window = scan_window(text.data, target.data, 0, len(text))
                            assert flat_window(window) == (
                                0, len(text), naive_match(text, target)), (text, target, sizes)

    @staticmethod
    def check(text, target, spec):
        n, m = len(text), len(target)
        data, tg = text.data, target.data
        expected = naive_match(text, target)
        for cut in range(n + 1):
            a = scan_window(data, tg, 0, cut)
            b = scan_window(data, tg, cut, n)
            assert flat_window(a) == (
                0, cut, expected[: bisect.bisect_right(expected, cut - max(m, 1))])
            assert flat_window(b) == (cut, n, expected[bisect.bisect_left(expected, cut) :])
            joined = join_windows(tg, a, b)
            assert flat_window(joined) == (0, n, expected), (text, target, cut)
            # An empty window or seam adds no segment, for the empty target too.
            assert all(len(s) for w in (a, b, joined) for s in w[-1]), (text, target, cut)
            if spec:
                left, right = text.take(cut), text.drop(cut)
                # Edges too, also when the operands were scanned apart.
                apart = join_windows(tg, scan_window(left.data, tg, 0, cut),
                                     ship(scan_window(right.data, tg, 0, n - cut), cut))
                whole = whole_window(scan_window(data, tg, 0, n))
                assert whole_window(joined) == whole_window(apart) == whole, (text, target, cut)
                assert flatten(joined[-1]) == (
                    cast_indices(target, left, right, flatten(a[-1]))
                    + make_new_indices(left, right, target)
                    + shift_indices(target, left, right, naive_match(right, target))
                ), (text, target, cut)


class TestOracle:
    def test_spec_examples(self):
        assert naive_match(bt("abababa"), bt("aba")) == [0, 2, 4]
        assert naive_match(bt("aaaa"), bt("aa")) == [0, 1, 2]
        assert naive_match(bt("a" * 50), bt("aaa")) == list(range(48))
        assert naive_match(bt("ab"), bt("abc")) == []

    def test_empty_target_matches_everywhere(self):
        # 0..n-1 are reported and n is not, so the empty input has no match
        for text in (EMPTY, bt("a"), bt("abc"), bt("abcdefgh")):
            assert naive_match(text, EMPTY) == list(range(len(text)))


class TestIndexGroups:
    def test_cast_is_identity_on_values(self):
        assert cast_indices(bt("aba"), bt("abab"), bt("xy"), [0]) == [0]
        assert is_good_index(bt("ababxy"), bt("aba"), 0)
        assert cast_indices(bt("t"), bt("l"), bt("r"), []) == []

    @given(dense_cases(), byte_texts(alphabet_size=2, max_size=16))
    def test_map_cast_id(self, case, right):
        left, target = case
        indices = full_scan(left, target)
        assert cast_indices(target, left, right, indices) == indices

    def test_new_indices_paper_vector(self):
        assert make_new_indices(bt("ababcab"), bt("cab"), bt("abcab")) == [5]

    def test_new_is_null_right_operand_empty(self):
        assert make_new_indices(bt("ababa"), EMPTY, bt("aba")) == []

    def test_new_is_null_left_operand_empty(self):
        assert make_new_indices(EMPTY, bt("ababa"), bt("aba")) == []

    def test_short_target_guard(self):
        assert make_new_indices(bt("aaa"), bt("aaa"), bt("a")) == []
        assert make_new_indices(bt("aaa"), bt("aaa"), EMPTY) == []

    @given(dense_cases(max_input=32), byte_texts(alphabet_size=2, max_size=32))
    def test_new_indices_confined_to_boundary_window(self, case, right):
        left, target = case
        fresh = make_new_indices(left, right, target)
        lo = max(len(left) - (len(target) - 1), 0) if len(target) >= 2 else 0
        assert all(lo <= i <= len(left) - 1 for i in fresh)
        # at most len(target) - 1 candidate positions exist
        assert len(fresh) <= max(len(target) - 1, 0)

    def test_shift_by_empty_left_is_identity(self):
        indices = [0, 2]
        assert shift_indices(bt("aba"), EMPTY, bt("ababa"), indices) == indices

    def test_shift_example(self):
        assert shift_indices(bt("aba"), bt("xy"), bt("aba"), [0]) == [2]
        assert is_good_index(bt("xyaba"), bt("aba"), 2)

    def test_shift_empty_list(self):
        assert shift_indices(bt("aba"), bt("xy"), bt("aba"), []) == []

    @given(dense_cases(max_input=32), byte_texts(alphabet_size=2, max_size=32))
    def test_shift_indices_right_lemma(self, case, left):
        right, target = case
        hi = len(right) - 1
        shifted = shift_indices(target, left, right,
                                flatten(make_indices(right.data, target.data, 0, hi)))
        combined = left + right
        assert shifted == flatten(
            make_indices(combined.data, target.data, len(left), len(left) + hi))

    @given(dense_cases(max_input=32), byte_texts(alphabet_size=2, max_size=32))
    def test_merge_new_indices_lemma(self, case, right):
        left, target = case
        combined = left + right
        merged = full_scan(left, target) + make_new_indices(left, right, target)
        assert merged == flatten(make_indices(combined.data, target.data, 0, len(left) - 1))


class TestWindows:
    """Windows ``(lo, hi, head, tail, segments)``: the range ``[lo, hi)`` of
    an input, its first and last ``min(m - 1, hi - lo)`` bytes, and the
    matches wholly inside it as absolute indices.  A join reads only its
    operands, so windows scanned from separate buffers join."""

    @given(dense_cases(), st.data())
    def test_window_lists_the_matches_wholly_inside(self, case, data):
        text, target = case
        lo = data.draw(st.integers(0, len(text)))
        hi = data.draw(st.integers(lo, len(text)))
        inside = [i for i in naive_match(text, target) if lo <= i and i + len(target) <= hi
                  and i < hi]
        assert flat_window(scan_window(text.data, target.data, lo, hi)) == (lo, hi, inside)

    @given(dense_cases(), st.data())
    def test_join_of_adjacent_windows_scans_their_union(self, case, data):
        # Includes empty windows and windows shorter than the target.
        text, tg = case[0].data, case[1].data
        lo, mid, hi = sorted(data.draw(st.integers(0, len(text))) for _ in range(3))
        joined = join_windows(tg, scan_window(text, tg, lo, mid), scan_window(text, tg, mid, hi))
        assert flat_window(joined) == flat_window(scan_window(text, tg, lo, hi))
        assert whole_window(joined) == whole_window(scan_window(text, tg, lo, hi))

    @given(dense_cases(), st.data())
    def test_join_of_windows_scanned_apart_scans_their_union(self, case, data):
        # Each operand is scanned from a buffer of its own bytes, and the
        # right one is shipped to absolute offsets: the join has no shared
        # buffer to read, at every cut, next to operands shorter than m - 1
        # bytes and at both ends.
        text, tg = case[0].data, case[1].data
        n, m = len(text), len(tg)
        mid = data.draw(st.one_of(st.integers(0, n), st.sampled_from(
            [0, n, min(max(m - 2, 0), n), max(n - m + 2, 0)])))
        left = scan_window(text[:mid], tg, 0, mid)
        right = ship(scan_window(text[mid:], tg, 0, n - mid), mid)
        joined = join_windows(tg, left, right)
        assert whole_window(joined) == whole_window(scan_window(text, tg, 0, n))

    def test_join_keeps_the_operands_segments(self):
        # A join copies no index: its segments are the operands' own
        # objects around the seam's, and a periodic run stays a range.
        text, target = bt("ab" * 6000), bt("ababa")
        for mid in (4, 6001, 6002, 11995):
            a = scan_window(text.data, target.data, 0, mid)
            b = scan_window(text.data, target.data, mid, len(text))
            joined = join_windows(target.data, a, b)
            assert any(type(segment) is range for segment in a[-1] + b[-1]), mid
            assert all(x is y for x, y in zip(joined[-1], a[-1])), mid
            assert all(x is y for x, y in zip(reversed(joined[-1]), reversed(b[-1]))), mid
            assert len(a[-1]) + len(b[-1]) <= len(joined[-1]) <= len(a[-1]) + len(b[-1]) + 1, mid
            assert flatten(joined[-1]) == naive_match(text, target), mid

    @given(dense_cases(), st.data())
    def test_an_adjacent_empty_window_leaves_a_window_unchanged(self, case, data):
        # The paper's newIsNullLeft and newIsNullRight: the seam next to an
        # empty operand is shorter than the target, or inverted for the
        # empty target, so it lists nothing.
        text, tg = case[0].data, case[1].data
        lo, hi = sorted(data.draw(st.integers(0, len(text))) for _ in range(2))
        window = scan_window(text, tg, lo, hi)
        before, after = (lo, lo, b"", b"", []), (hi, hi, b"", b"", [])
        assert flat_window(join_windows(tg, before, window)) == flat_window(window)
        assert flat_window(join_windows(tg, window, after)) == flat_window(window)
        assert whole_window(join_windows(tg, before, window)) == whole_window(window)
        assert whole_window(join_windows(tg, window, after)) == whole_window(window)

    @given(dense_cases(), st.data())
    def test_joins_of_adjacent_triples_associate(self, case, data):
        # Only adjacent windows join, so windows form a category: both
        # groupings of [a, b), [b, c), [c, d) list the scan of [a, d).
        text, tg = case[0].data, case[1].data
        a, b, c, d = sorted(data.draw(st.integers(0, len(text))) for _ in range(4))
        x, y, z = (scan_window(text, tg, lo, hi) for lo, hi in ((a, b), (b, c), (c, d)))
        join = partial(join_windows, tg)
        expected = flat_window(scan_window(text, tg, a, d))
        assert flat_window(join(join(x, y), z)) == expected
        assert flat_window(join(x, join(y, z))) == expected
        whole = whole_window(scan_window(text, tg, a, d))
        assert whole_window(join(join(x, y), z)) == whole
        assert whole_window(join(x, join(y, z))) == whole


class TestOneScan:
    """Every index list is a window scan: ``scan_window`` is the only caller
    of the scan ``make_indices``, and a join scans only its seam.  The
    window layer works on ``bytes``: ``ByteText`` stays at the public API."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """Each kernel call as ``(caller, caller's caller, start positions,
        (type of data, type of tg))``."""
        calls = []
        real = matcher.make_indices

        def recording(data, tg, lo, hi):
            last = min(hi, len(data) - max(len(tg), 1))
            caller = sys._getframe(1)
            calls.append((caller.f_code.co_name, caller.f_back.f_code.co_name,
                          max(last + 1 - max(lo, 0), 0), (type(data), type(tg))))
            return real(data, tg, lo, hi)

        monkeypatch.setattr(matcher, "make_indices", recording)
        return calls

    def test_scan_window_is_the_only_caller(self, scans):
        rng = random.Random(43)
        text = ByteText(bytes(rng.choices(b"ab", k=200)))
        with ThreadPoolExecutor(max_workers=3) as pool:
            for target in map(bt, ["", "a", "ab", "aba", "abab", "babba"]):
                expected = naive_match(text, target)
                assert list(to_sm(text, target).indices) == expected
                for cut in (0, 1, 99, 200):
                    left, right = text.take(cut), text.drop(cut)
                    merged = sm_append(to_sm(left, target), to_sm(right, target))
                    assert list(merged.indices) == expected
                for size in (1, 2, 7, 64, 200):
                    for pool_or_none in (None, pool):
                        result = to_sm_par(ChunkPlan(2, size), text, target, pool_or_none)
                        assert list(result.indices) == expected
        assert scans
        assert {caller for caller, *_ in scans} == {"scan_window"}

    def test_every_path_gives_the_kernel_bytes(self, scans):
        # Each public entry point unwraps its ByteText values once, so every
        # scan, a pickled map task's and a join's seam scan too, reads bytes.
        text, target = ByteText(b"abaababaab" * 20), bt("aba")
        data, tg = text.data, target.data
        expected = naive_match(text, target)
        with ThreadPoolExecutor(max_workers=2) as threads:
            paths = {"to_sm": partial(to_sm, text, target),
                     "sm_append": lambda: sm_append(to_sm(text.take(7), target),
                                                    to_sm(text.drop(7), target))}
            for name, pool in (("inline", None), ("threaded", threads),
                               ("pickled", PicklingPool(2))):
                paths[name] = partial(to_sm_par, ChunkPlan(2, 3), text, target, pool)
            for name, path in paths.items():
                scans.clear()
                assert list(path().indices) == expected, name
                assert scans and {types for *_, types in scans} == {(bytes, bytes)}, name
        scans.clear()
        joined = join_windows(tg, scan_window(data, tg, 0, 7), scan_window(data, tg, 7, len(data)))
        assert flatten(joined[-1]) == expected
        assert "join_windows" in {outer for _, outer, _, _ in scans}
        assert {types for *_, types in scans} == {(bytes, bytes)}

    def test_a_join_scans_at_most_m_minus_one_positions(self, scans):
        text = bt("abaababaab")
        for target in map(bt, ["", "a", "ab", "aba", "abaa", "ababa"]):
            bound = max(len(target) - 1, 0)
            for hi in range(len(text) + 1):
                for mid in range(hi + 1):
                    for lo in range(mid + 1):
                        left = scan_window(text.data, target.data, lo, mid)
                        right = scan_window(text.data, target.data, mid, hi)
                        scans.clear()
                        join_windows(target.data, left, right)
                        seam = [n for caller, outer, n, _ in scans
                                if "join_windows" in (caller, outer)]
                        assert len(seam) == len(scans) <= 1
                        assert sum(seam) <= bound, (target, lo, mid, hi)


class TestMatcherMonoid:
    def test_empty_matcher(self):
        empty = sm_empty(bt("aba"))
        assert empty == StringMatcher(bt("aba"), EMPTY, ())

    def test_identities(self):
        m = to_sm(bt("abab"), bt("aba"))
        assert sm_append(sm_empty(bt("aba")), m) == m
        assert sm_append(m, sm_empty(bt("aba"))) == m

    def test_append_spec_vector(self):
        merged = sm_append(to_sm(bt("abab"), bt("aba")), to_sm(bt("ab"), bt("aba")))
        assert merged.text == bt("ababab")
        assert merged.indices == (0, 2)
        assert naive_match(bt("ababab"), bt("aba")) == [0, 2]

    def test_append_paper_vector_with_boundary_match(self):
        left = to_sm(bt("ababcab"), bt("abcab"))
        right = to_sm(bt("cab"), bt("abcab"))
        assert left.indices == (2,)
        assert right.indices == ()
        merged = sm_append(left, right)
        assert merged.indices == (2, 5)
        # index 5 exists only because of the seam
        assert make_new_indices(left.text, right.text, bt("abcab")) == [5]

    @given(dense_cases(), byte_texts(alphabet_size=2))
    def test_append_is_group_composition(self, case, other):
        # the production merge equals the test-side cast + new + shift spec
        x, target = case
        a, b = to_sm(x, target), to_sm(other, target)
        assert list(sm_append(a, b).indices) == spec_append_indices(a, b)

    def test_target_mismatch(self):
        with pytest.raises(TargetMismatchError):
            sm_append(to_sm(bt("ab"), bt("a")), to_sm(bt("ab"), bt("b")))

    @given(dense_cases(max_input=48), byte_texts(alphabet_size=2, max_size=48))
    def test_morphism_law(self, case, other):
        x, target = case
        assert to_sm(x + other, target) == sm_append(
            to_sm(x, target), to_sm(other, target)
        )

    @given(dense_cases(max_input=48), byte_texts(alphabet_size=2, max_size=48))
    def test_append_groups_disjoint_and_sorted(self, case, other):
        x, target = case
        merged = sm_append(to_sm(x, target), to_sm(other, target))
        assert list(merged.indices) == sorted(set(merged.indices))
        assert all(is_good_index(merged.text, target, i) for i in merged.indices)

    def test_monoid_law_suite_on_shared_string_slices(self):
        rng = random.Random(41)
        shared = ByteText(bytes(rng.choice(b"ab") for _ in range(512)))
        target = bt("aba")

        def gen():
            lo = rng.randrange(len(shared) + 1)
            hi = rng.randrange(lo, len(shared) + 1)
            return to_sm(shared.substring(lo, hi - lo), target)

        report = check_monoid_laws(matcher_ops(target), gen, trials=300)
        assert report.ok, report.to_text()

    def test_morphism_witness_passes(self):
        rng = random.Random(43)
        gen = lambda: ByteText(bytes(rng.choice(b"abc") for _ in range(rng.randrange(64))))
        assert check_morphism(to_sm_witness(bt("abc")), gen, trials=300).ok


def segmentations():
    """Segment lists, the empty one included: ``list`` blocks and ``range``
    runs of step q, either of them possibly empty."""
    runs = st.builds(range, st.integers(-20, 20), st.integers(-20, 60), st.integers(1, 5))
    return st.lists(st.one_of(st.lists(st.integers(-99, 99), max_size=6), runs), max_size=6)


class TestIndices:
    """An :class:`Indices` behaves as the tuple of its segments' expansion."""

    @given(segmentations())
    def test_reads_as_the_tuple(self, segments):
        indices, expected = Indices(segments), tuple(flatten(segments))
        n = len(expected)
        assert len(indices) == n
        assert tuple(iter(indices)) == expected
        assert list(reversed(indices)) == list(reversed(expected))
        for i in range(-n - 2, n + 2):
            if -n <= i < n:
                assert indices[i] == expected[i]
            else:
                with pytest.raises(IndexError):
                    indices[i]
        bounds = [None, -n - 2, -n, -1, 0, 1, n // 2, n, n + 2]
        for start, stop, step in itertools.product(bounds, bounds, [None, -3, -1, 1, 2]):
            cut = slice(start, stop, step)
            assert indices[cut] == expected[cut] and type(indices[cut]) is tuple, cut
        for sequence in (expected, indices):
            with pytest.raises(ValueError):
                sequence[::0]

    @given(segmentations(), segmentations())
    def test_compares_hashes_prints_and_pickles_as_the_tuple(self, segments, others):
        indices, expected = Indices(segments), tuple(flatten(segments))
        other = tuple(flatten(others))
        regrouped = Indices([list(expected[i : i + 2]) for i in range(0, len(expected), 2)])
        for a, b in ((indices, expected), (indices, regrouped)):
            assert a == b and b == a and not a != b and not b != a
        for b in (other, Indices(others)):
            assert (indices == b) == (b == indices) == (expected == other)
            assert (indices != b) == (b != indices) == (expected != other)
        assert indices != list(expected) and list(expected) != indices
        assert hash(indices) == hash(expected) == hash(regrouped)
        assert repr(indices) == repr(expected)
        copy = pickle.loads(pickle.dumps(indices))
        assert type(copy) is Indices and copy == expected
        assert copy._segments == segments  # list == list, range == range


class TestEmptyTargetSemantics:
    def test_every_position_is_good(self):
        matcher = to_sm(bt("abc"), EMPTY)
        assert matcher.indices == (0, 1, 2)
        assert not is_good_index(bt("abc"), EMPTY, 3)

    def test_morphism_still_holds(self):
        assert to_sm(bt("ab") + bt("cd"), EMPTY) == sm_append(
            to_sm(bt("ab"), EMPTY), to_sm(bt("cd"), EMPTY)
        )

    def test_empty_input_nonempty_target(self):
        assert to_sm(EMPTY, bt("aba")).indices == ()
