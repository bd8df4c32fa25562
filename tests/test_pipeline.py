import json
import random
import threading
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from parmatch import (
    ByteText,
    ChunkPlan,
    StringMatcher,
    matcher_ops,
    naive_match,
    pmconcat,
    sm_empty,
    to_sm,
    to_sm_par,
    verify_equivalence,
)
from parmatch.bytetext import EMPTY
from parmatch.pipeline import default_plan_sweep, first_divergence

from support import bt, byte_texts, dense_cases


class CountingPool(Executor):
    """Passes tasks to ``pool`` and counts them; other attributes, such as
    the worker count, are read from ``pool``."""

    def __init__(self, pool: Executor) -> None:
        self.pool = pool
        self.submits = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submits += 1
        return self.pool.submit(fn, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.pool, name)


class TestChunkPlan:
    @pytest.mark.parametrize("branch,size", [(0, 1), (1, 0), (-2, 3), (3, -1)])
    def test_rejects_nonpositive(self, branch, size):
        with pytest.raises(ValueError):
            ChunkPlan(branch, size)

    def test_sweep_contains_boundary_splitter(self):
        plans = default_plan_sweep(target_length=5)
        assert ChunkPlan(2, 4) in plans
        assert len(plans) == 10


class TestToSmPar:
    def test_spec_vector(self):
        text, target = bt("abababa"), bt("aba")
        result = to_sm_par(ChunkPlan(2, 3), text, target)
        assert result == to_sm(text, target)
        assert result.indices == (0, 2, 4)
        with ProcessPoolExecutor(max_workers=2) as pool:
            assert to_sm_par(ChunkPlan(2, 3), text, target, pool, pool) == result
            # Three matchers exceed the fan-in, so a merge round is pickled
            # to a worker.
            matchers = [to_sm(piece, target) for piece in text.chunks(3)]
            assert pmconcat(matcher_ops(target), 2, matchers, pool=pool) == result

    def test_boundary_split_vector(self):
        # chunk boundary at offset 4 splits the occurrence at index 5
        result = to_sm_par(ChunkPlan(2, 4), bt("ababcabcab"), bt("abcab"))
        assert result.indices == (2, 5)

    def test_empty_input(self):
        assert to_sm_par(ChunkPlan(3, 5), EMPTY, bt("aba")) == sm_empty(bt("aba"))

    def test_degenerate_plan_is_sequential(self):
        text, target = bt("aabbaabb"), bt("ab")
        assert to_sm_par(ChunkPlan(1, 1), text, target) == to_sm(text, target)

    @given(dense_cases(max_input=48), st.integers(1, 5), st.integers(1, 9), st.integers(1, 4))
    @settings(deadline=None)
    def test_equals_sequential_for_any_plan(self, case, branch, size, workers):
        text, target = case
        plan = ChunkPlan(branch, size)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            assert to_sm_par(plan, text, target, pool, pool) == to_sm(text, target)

    def test_no_pools_start_no_threads(self):
        before = threading.active_count()
        result = to_sm_par(ChunkPlan(2, 3), bt("abababa"), bt("aba"))
        assert result.indices == (0, 2, 4)
        assert threading.active_count() == before

    def test_deterministic_across_runs(self):
        rng = random.Random(3)
        text = ByteText(bytes(rng.choice(b"ab") for _ in range(400)))
        target = bt("abab")
        plan = ChunkPlan(2, 3)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = {to_sm_par(plan, text, target, pool, pool).indices for _ in range(10)}
        assert len(results) == 1


class TestDispatch:
    """The map stage submits one task per worker, not one per chunk."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_to_sm_par_submits_at_most_one_task_per_worker(self, workers):
        rng = random.Random(7)
        text = ByteText(bytes(rng.choices(b"ab", k=8192)))
        target = ByteText(bytes(rng.choices(b"ab", k=8)))
        plan = ChunkPlan(2, 4)
        assert len(text.chunks(plan.chunk_size)) == 2048
        with ThreadPoolExecutor(max_workers=workers) as inner:
            pool = CountingPool(inner)
            result = to_sm_par(plan, text, target, pool)
        assert 1 <= pool.submits <= workers
        assert result == to_sm(text, target)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_verify_equivalence_submits_at_most_one_task_per_worker(self, workers):
        rng = random.Random(9)
        text = ByteText(bytes(rng.choices(b"abc", k=2048)))
        target = bt("abca")
        with ThreadPoolExecutor(max_workers=workers) as inner:
            pool = CountingPool(inner)
            for plan in default_plan_sweep(len(target)):
                before = pool.submits
                assert verify_equivalence(text, target, [plan], pool).ok
                assert pool.submits - before <= workers, plan


class TestBoundaryAdversarial:
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_periodic_input_chunks_shorter_than_target(self, size):
        # every occurrence straddles at least one chunk seam
        text = bt("ab" * 64)
        target = bt("ababa")
        assert size < len(target)
        result = to_sm_par(ChunkPlan(2, size), text, target)
        assert list(result.indices) == naive_match(text, target)

    def test_single_byte_chunks_dense_matches(self):
        text = bt("a" * 50)
        target = bt("aaa")
        result = to_sm_par(ChunkPlan(3, 1), text, target)
        assert list(result.indices) == list(range(48))


class TestFirstDivergence:
    @pytest.mark.parametrize(
        "seq, par, expected",
        [((0, 2, 4), (0, 2, 4), None),
         ((0, 2, 4), (0, 3, 4), (1, 2, 3)),
         ((0, 2, 4), (0, 2), (2, 4, None)),
         ((0,), (0, 5), (1, None, 5)),
         ((), (), (0, None, None))],
    )
    def test_names_first_differing_position(self, seq, par, expected):
        # The last case differs only in its text.
        a = StringMatcher(bt("a"), bt("a" * 6), seq)
        b = StringMatcher(bt("a"), bt("a" * (6 if seq else 7)), par)
        found = first_divergence(a, b)
        if expected is None:
            assert found is None
        else:
            assert found == dict(zip(("position", "sequential", "parallel"), expected))


class TestVerifyEquivalence:
    def test_spec_instance(self):
        report = verify_equivalence(bt("abababa"), bt("aba"), [ChunkPlan(2, 3)])
        assert report.ok
        assert report.sequential == to_sm(bt("abababa"), bt("aba"))
        entry = report.entries[0]
        assert entry.equal and entry.first_divergence is None
        assert entry.sequential_ms >= 0 and entry.parallel_ms >= 0

    def test_fully_degenerate_plan(self):
        report = verify_equivalence(bt("abcabc"), bt("abc"), [ChunkPlan(1, 1)])
        assert report.ok

    def test_default_sweep_on_random_text(self):
        rng = random.Random(5)
        text = ByteText(bytes(rng.choice(b"abcd") for _ in range(2048)))
        report = verify_equivalence(text, bt("abc"))
        assert report.ok
        assert len(report.entries) == 10

    def test_text_table_shape(self):
        report = verify_equivalence(bt("abababa"), bt("aba"), [ChunkPlan(2, 3)])
        lines = report.to_text().splitlines()
        assert "branch" in lines[0] and "speedup" in lines[0]
        assert len(lines) == 2

    def test_json_shape(self):
        report = verify_equivalence(bt("abababa"), bt("aba"), [ChunkPlan(2, 3)])
        payload = json.loads(json.dumps(report.to_json_obj()))
        assert payload[0]["plan"] == {"branch": 2, "chunk_size": 3}
        assert payload[0]["equal"] is True
        assert payload[0]["first_divergence"] is None
