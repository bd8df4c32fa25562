import json
import os
import random
import threading
from concurrent.futures import Executor, Future, ThreadPoolExecutor

import pytest

from parmatch import (
    ByteText,
    ChunkPlan,
    StringMatcher,
    to_sm,
    to_sm_par,
    verify_equivalence,
)
from parmatch.pipeline import _cpu_count, default_plan_sweep, first_divergence

from support import bt


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


class RunRecorder(Executor):
    """Runs each task inline and keeps its argument: the run of chunks it scans."""

    def __init__(self, workers: int) -> None:
        self._max_workers = workers
        self.runs = []

    def submit(self, fn, /, *args, **kwargs):
        self.runs.append(args[0])
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


class TestChunkPlan:
    @pytest.mark.parametrize("branch,size", [(0, 1), (1, 0), (-2, 3), (3, -1)])
    def test_rejects_nonpositive(self, branch, size):
        with pytest.raises(ValueError):
            ChunkPlan(branch, size)

    def test_sweep_contains_boundary_splitter(self):
        plans = default_plan_sweep(target_length=5)
        assert ChunkPlan(2, 4) in plans
        assert len(plans) == 10
        assert ChunkPlan(2, 1) in default_plan_sweep(target_length=0)


class TestToSmPar:
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
    @pytest.mark.parametrize("n", [0, 1, 7, 1000, 1001, 1023, 4097])
    def test_runs_are_balanced_whole_chunks(self, n, workers):
        # Runs differ by at most one chunk: ceil-sized runs would give
        # n=7, workers=2, size 3 the runs [6, 1] instead of [3, 4].
        text = ByteText(bytes(random.Random(n).choices(b"ab", k=n)))
        target = bt("aba")
        sizes = {max(s, 1) for s in (1, 3, n // workers, -(-n // workers), n, n + 5)}
        for size in sorted(sizes):
            pool = RunRecorder(workers)
            assert to_sm_par(ChunkPlan(2, size), text, target, pool) == to_sm(text, target)
            lengths = [sum(map(len, run)) for run in pool.runs]
            assert len(lengths) == min(workers, max(-(-n // size), 1)), size
            assert all(length % size == 0 for length in lengths[:-1]), (size, lengths)
            assert b"".join(bytes(piece) for run in pool.runs for piece in run) == bytes(text)
            assert max(lengths) - min(lengths) <= size, (size, lengths)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_copies_each_input_byte_at_most_once(self, workers, monkeypatch):
        # Chunking is the only copy: each input byte lands in one chunk, once.
        n = 4099
        text = ByteText(bytes(random.Random(n).choices(b"ab", k=n)))
        target = bt("abba")
        copied = []
        substring = ByteText.substring

        def counting_substring(self, offset, length):
            piece = substring(self, offset, length)
            copied.append(len(piece))
            return piece

        monkeypatch.setattr(ByteText, "substring", counting_substring)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for size in (1, 7, 64, n // 2, n, n + 5):
                copied.clear()
                assert to_sm_par(ChunkPlan(2, size), text, target, pool) == to_sm(text, target)
                assert sum(copied) <= n, (size, sum(copied))

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


class TestCpuCount:
    def test_counts_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert _cpu_count() == 2

    @pytest.mark.parametrize("host, expected", [(3, 3), (None, 1)])
    def test_falls_back_to_the_host_count(self, monkeypatch, host, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: host)
        assert _cpu_count() == expected


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
