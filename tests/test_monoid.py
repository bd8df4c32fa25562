import json
import math
import operator
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from parmatch import (
    ByteText,
    ChunkableOps,
    MonoidOps,
    MorphismWitness,
    check_monoid_laws,
    check_morphism,
    chunk,
    chunkable_ops,
    mconcat,
    morphism_distribution_check,
    pmap,
    pmconcat,
)

from support import EMPTY, bt, byte_texts


def int_add_ops() -> MonoidOps:
    return MonoidOps(identity=lambda: 0, combine=operator.add)


def list_ops() -> ChunkableOps:
    return ChunkableOps(
        identity=list,
        combine=operator.add,
        length=len,
        window=lambda i, n, xs: xs[i : i + n],
    )


def length_witness() -> MorphismWitness:
    return MorphismWitness(
        source=chunkable_ops(), target=int_add_ops(), map_fn=len
    )


class TestMconcat:
    def test_empty_is_identity(self):
        assert mconcat(chunkable_ops(), []) == EMPTY
        assert mconcat(int_add_ops(), []) == 0

    def test_singleton(self):
        assert mconcat(chunkable_ops(), [bt("xy")]) == bt("xy")

    def test_fold(self):
        assert mconcat(chunkable_ops(), [bt("ab"), bt("c"), bt("d")]) == bt("abcd")

    @given(st.lists(byte_texts(max_size=16), max_size=8), st.data())
    def test_split_lemma(self, xs, data):
        i = data.draw(st.integers(0, len(xs)))
        ops = chunkable_ops()
        assert mconcat(ops, xs) == ops.combine(mconcat(ops, xs[:i]), mconcat(ops, xs[i:]))

    @given(st.lists(byte_texts(max_size=16), max_size=12), st.integers(1, 6))
    def test_chunk_lemma(self, xs, size):
        ops = chunkable_ops()
        groups = chunk(list_ops(), size, xs)
        assert mconcat(ops, xs) == mconcat(ops, [mconcat(ops, group) for group in groups])


class TestChunk:
    def test_base_case_single_chunk(self):
        assert chunk(chunkable_ops(), 4, bt("abc")) == [bt("abc")]

    def test_list_monoid_example(self):
        assert chunk(list_ops(), 2, [1, 2, 3, 4, 5]) == [[1, 2], [3, 4], [5]]

    def test_unit_size_gives_singletons(self):
        assert chunk(chunkable_ops(), 1, bt("abc")) == [bt("a"), bt("b"), bt("c")]

    def test_bad_size(self):
        with pytest.raises(ValueError):
            chunk(chunkable_ops(), 0, bt("ab"))

    @given(byte_texts(), st.integers(1, 8))
    def test_reassembly(self, x, size):
        ops = chunkable_ops()
        assert mconcat(ops, chunk(ops, size, x)) == x

    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("size", range(1, 9))
    def test_copies_each_byte_once(self, n, size):
        # Every operation adds the length of the value it returns, so the
        # total is the number of bytes chunking copied.
        copied = 0

        def counted(op):
            def run(*args):
                nonlocal copied
                out = op(*args)
                copied += len(out)
                return out
            return run

        ops = ChunkableOps(
            identity=ByteText,
            combine=counted(ByteText.__add__),
            length=len,
            window=counted(lambda i, k, x: x.substring(i, k)),
        )
        text = ByteText(bytes(range(256)) * (n // 256))
        assert b"".join(map(bytes, chunk(ops, size, text))) == bytes(text)
        assert copied <= 2 * n


class TestPmap:
    def test_empty(self):
        assert pmap(len, []) == []

    def test_identity_function(self):
        xs = [bt("a"), bt("bb"), EMPTY]
        assert pmap(lambda x: x, xs) == xs

    def test_lengths(self):
        assert pmap(len, [bt("a"), bt("bb"), EMPTY]) == [1, 2, 0]

    @given(st.lists(st.integers(), max_size=40))
    @settings(deadline=None)
    def test_matches_sequential_map(self, xs):
        fn = lambda v: v * v - 1
        assert pmap(fn, xs) == [fn(v) for v in xs]

    def test_order_preserved_despite_uneven_durations(self):
        def slow_then_fast(v):
            time.sleep(0.01 if v == 0 else 0)
            return v

        with ThreadPoolExecutor(max_workers=4) as pool:
            assert pmap(slow_then_fast, list(range(8)), pool=pool) == list(range(8))

    def test_first_failure_in_list_order_wins(self):
        settled = []

        def fn(v):
            if v in (2, 5):
                time.sleep(0.005 if v == 2 else 0)
                raise ValueError(f"boom {v}")
            settled.append(v)
            return v

        with ThreadPoolExecutor(max_workers=8) as pool:
            with pytest.raises(ValueError, match="boom 2"):
                pmap(fn, list(range(8)), pool=pool)
        # everything that could settle did settle before the raise
        assert set(settled) == {0, 1, 3, 4, 6, 7}


class TestPmconcat:
    def test_degenerate_fanin_is_sequential(self):
        # Every fan-in, degenerate or past the operand count, folds its groups
        # as binary trees, so the bytes copied stay n log n; a right fold
        # copies about n * n / 2.
        n, copied = 1024, 0

        def combine(x, y):
            nonlocal copied
            copied += len(x) + len(y)
            return x + y

        xs = [ByteText(bytes([i % 256])) for i in range(n)]
        for fanin in (0, 1, 2, 4, 8, 64, 1024, 10**6):
            copied = 0
            assert pmconcat(MonoidOps(ByteText, combine), fanin, xs) == mconcat(chunkable_ops(), xs)
            assert copied <= n * (math.ceil(math.log2(n)) + 1), (fanin, copied)

    @pytest.mark.parametrize("fanin", [0, 1, 2, 4, 64, None])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 100])
    def test_folds_without_identity_seed(self, n, fanin):
        # n operands take n - 1 combines whatever the fan-in (None: above n);
        # only the empty list asks for the identity.
        calls = {"identity": 0, "combine": 0}

        def identity():
            calls["identity"] += 1
            return ()

        def combine(x, y):
            calls["combine"] += 1
            return x + y

        xs = [(i,) for i in range(n)]
        result = pmconcat(MonoidOps(identity, combine), n + 1 if fanin is None else fanin, xs)
        assert result == tuple(range(n))
        if n:
            assert calls == {"identity": 0, "combine": n - 1}
        else:
            assert calls == {"identity": 1, "combine": 0}

    def test_singleton(self):
        assert pmconcat(chunkable_ops(), 2, [bt("q")]) == bt("q")

    def test_power_of_two_fanins_build_one_tree(self):
        # Inline, fan-ins 2, 4 and 8 nest the operands alike, so sweeping
        # them times one computation three times.
        pairs = MonoidOps(identity=tuple, combine=lambda a, b: (a, b))
        for n in range(1, 300):
            xs = list(range(n))
            assert pmconcat(pairs, 2, xs) == pmconcat(pairs, 4, xs) == pmconcat(pairs, 8, xs), n

    def test_fanin_three_builds_another_tree(self):
        pairs = MonoidOps(identity=tuple, combine=lambda a, b: (a, b))
        assert any(pmconcat(pairs, 3, range(n)) != pmconcat(pairs, 2, range(n))
                   for n in range(4, 300))

    @given(st.lists(byte_texts(max_size=8), max_size=20), st.integers(0, 6))
    @settings(deadline=None)
    def test_agrees_with_mconcat_on_strings(self, xs, fanin):
        # string concatenation is non-commutative: reorderings would show
        assert pmconcat(chunkable_ops(), fanin, xs) == mconcat(chunkable_ops(), xs)

    def test_five_random_strings(self):
        rng = random.Random(7)
        xs = [ByteText(rng.randbytes(rng.randrange(10))) for _ in range(5)]
        assert pmconcat(chunkable_ops(), 2, xs) == mconcat(chunkable_ops(), xs)


class TestLawChecker:
    def test_bytetext_passes(self):
        rng = random.Random(11)
        gen = lambda: ByteText(rng.randbytes(rng.randrange(32)))
        report = check_monoid_laws(chunkable_ops(), gen, trials=200)
        assert report.ok

    def test_int_addition_passes(self):
        rng = random.Random(13)
        report = check_monoid_laws(int_add_ops(), lambda: rng.randrange(-50, 50), trials=200)
        assert report.ok

    def test_left_projection_semigroup_fails_identity(self):
        rng = random.Random(17)
        broken = ChunkableOps(
            identity=ByteText,
            combine=lambda x, y: x,
            length=len,
            window=lambda i, n, x: x.substring(i, n),
        )
        gen = lambda: ByteText(rng.randbytes(rng.randrange(1, 16)))
        report = check_monoid_laws(broken, gen, trials=300)
        by_law = {result.law: result for result in report.results}
        assert by_law["associativity"].passed
        assert not by_law["left_identity"].passed
        # right identity genuinely holds for first-projection
        assert by_law["right_identity"].passed
        assert not report.ok

    def test_counterexample_is_shrunk(self):
        rng = random.Random(19)
        broken = ChunkableOps(
            identity=ByteText,
            combine=lambda x, y: x,
            length=len,
            window=lambda i, n, x: x.substring(i, n),
        )
        gen = lambda: ByteText(rng.randbytes(rng.randrange(8, 64)))
        report = check_monoid_laws(broken, gen, trials=100)
        failed = next(r for r in report.results if not r.passed)
        (witness,) = failed.counterexample
        # halving stops at the smallest element that still fails
        assert len(witness) == 1

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            check_monoid_laws(int_add_ops(), lambda: 0, trials=0)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            check_morphism(length_witness(), lambda: EMPTY, trials=0)

    def test_text_and_json_serialization(self):
        rng = random.Random(23)
        report = check_monoid_laws(int_add_ops(), lambda: rng.randrange(10), trials=5)
        text = report.to_text()
        assert "law=left_identity trials=5 result=pass" in text
        parsed = json.loads(report.to_json())
        assert [entry["law"] for entry in parsed] == [
            "left_identity",
            "right_identity",
            "associativity",
        ]
        assert all(entry["passed"] for entry in parsed)


class TestMorphismChecker:
    def test_length_is_a_morphism(self):
        rng = random.Random(29)
        gen = lambda: ByteText(rng.randbytes(rng.randrange(32)))
        assert check_morphism(length_witness(), gen, trials=200).ok

    def test_constant_one_fails_identity(self):
        witness = MorphismWitness(
            source=chunkable_ops(), target=int_add_ops(), map_fn=lambda _: 1
        )
        report = check_morphism(witness, lambda: EMPTY, trials=5)
        by_law = {result.law: result for result in report.results}
        assert not by_law["maps_identity"].passed
        assert by_law["maps_identity"].trials == 1
        assert by_law["maps_identity"].counterexample == ()

    @given(byte_texts(max_size=48), st.integers(1, 10))
    @settings(deadline=None)
    def test_distribution_over_chunks(self, x, size):
        assert morphism_distribution_check(length_witness(), x, size)

    def test_distribution_single_chunk(self):
        x = bt("abc")
        assert morphism_distribution_check(length_witness(), x, len(x) + 1)

    def test_distribution_hand_example(self):
        assert morphism_distribution_check(length_witness(), bt("abcdef"), 2)

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            morphism_distribution_check(length_witness(), bt("ab"), 0)


class TestTwoLevelEquivalence:
    @given(byte_texts(max_size=48), st.integers(1, 6), st.integers(1, 6))
    @settings(deadline=None)
    def test_morphism_two_level(self, x, fanin, size):
        witness = length_witness()
        parts = chunk(witness.source, size, x)
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert witness.map_fn(x) == pmconcat(
                witness.target, fanin, pmap(witness.map_fn, parts, pool=pool), pool=pool
            )


class TestPoolConfiguration:
    def test_explicit_pool_threads_are_used(self):
        seen = set()

        def record(v):
            seen.add(threading.current_thread().name)
            return v

        with ThreadPoolExecutor(max_workers=2, thread_name_prefix="probe") as pool:
            pmap(record, list(range(16)), pool=pool)
        assert all(name.startswith("probe") for name in seen)
