import ast
import itertools
import json
import os
import pickle
import random
import threading
from concurrent.futures import Executor, Future, ThreadPoolExecutor

import pytest

from parmatch import (
    ByteText,
    ChunkPlan,
    StringMatcher,
    naive_match,
    pmconcat,
    to_sm,
    to_sm_par,
    verify_equivalence,
)
from parmatch import matcher, pipeline
from parmatch.matcher import window_ops
from parmatch.pipeline import _cpu_count, default_plan_sweep, first_divergence

from support import bt, flat_window, flatten


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


class PicklingPool(Executor):
    """Runs each task inline, as a process pool would: the task goes through
    pickle and so does its result.  Keeps the unpickled arguments and the
    pickled sizes of each task and of each result."""

    def __init__(self, workers: int) -> None:
        self._max_workers = workers
        self.shipped = []
        self.returned = []
        self.args = []

    def submit(self, fn, /, *args, **kwargs):
        task = pickle.dumps((fn, args))
        self.shipped.append(len(task))
        fn, args = pickle.loads(task)
        self.args.append(args)
        result = pickle.dumps(fn(*args, **kwargs))
        self.returned.append(len(result))
        future = Future()
        future.set_result(pickle.loads(result))
        return future


def run_bytes(run) -> bytes:
    """The input bytes a run covers."""
    return run.text.data[run.lo : run.hi]


class TestChunkPlan:
    @pytest.mark.parametrize("branch,size", [(0, 1), (1, 0), (-2, 3), (3, -1)])
    def test_rejects_nonpositive(self, branch, size):
        with pytest.raises(ValueError):
            ChunkPlan(branch, size)

    def test_sweep_contains_boundary_splitter(self):
        plans = default_plan_sweep(target_length=5)
        assert ChunkPlan(2, 4) in plans
        assert len(plans) == 4
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
            results = {to_sm_par(plan, text, target, pool).indices for _ in range(10)}
        assert len(results) == 1


class TestDispatch:
    """The map stage submits one task per worker, not one per chunk, and
    the merges run in the caller."""

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
    def test_empty_input_sends_no_task(self, workers, monkeypatch):
        # The empty input deals no run, so no task is sent inline or to a
        # pool, and its result is the fold of no windows, the identity.
        text, target = ByteText(b""), bt("aba")
        sequential = to_sm(text, target)
        with ThreadPoolExecutor(max_workers=workers) as inner:
            for plan in default_plan_sweep(len(target)):
                threads, processes = CountingPool(inner), PicklingPool(workers)
                for pool in (threads, processes):
                    assert to_sm_par(plan, text, target, pool) == sequential, (plan, pool)
                assert threads.submits == 0, plan
                assert processes.shipped == [] and processes.returned == [], plan
        scans = []
        monkeypatch.setattr(pipeline, "_scan_run", lambda target, run: scans.append(run))
        for plan in default_plan_sweep(len(target)):
            assert to_sm_par(plan, text, target) == sequential, plan
        assert scans == []

    @pytest.mark.parametrize("branch", range(1, 9))
    def test_reduce_pool_gets_no_task(self, branch):
        # perfbench's harness passes a thread pool as reduce_pool, with a
        # thread or a process map pool.  A merge of four runs on that pool
        # would submit tasks at branches 1 to 3.
        text = ByteText(bytes(random.Random(branch).choices(b"ab", k=2048)))
        target = bt("abab")
        sequential = to_sm(text, target)
        with ThreadPoolExecutor(max_workers=4) as threads:
            reduce_pool = CountingPool(threads)
            for map_pool in (threads, PicklingPool(4)):
                for size in (plan.chunk_size for plan in default_plan_sweep(len(target))):
                    plan = ChunkPlan(branch, size)
                    assert to_sm_par(plan, text, target, map_pool, reduce_pool) == sequential
        assert reduce_pool.submits == 0

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
            lengths = [run.hi - run.lo for run in pool.runs]
            # An empty input deals no run: its result is the fold of no windows.
            assert len(lengths) == min(workers, -(-n // size)), size
            assert b"".join(map(run_bytes, pool.runs)) == bytes(text)
            if lengths:
                assert all(run.lo % size == 0 and run.size == size for run in pool.runs), size
                assert all(length % size == 0 for length in lengths[:-1]), (size, lengths)
                assert max(lengths) - min(lengths) <= size, (size, lengths)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_copies_each_input_byte_at_most_once(self, workers, monkeypatch):
        # In this process a run is a window of the caller's own buffer, so
        # inline and thread runs copy no input byte; a process task ships
        # its run's bytes once, so all tasks together carry the input once.
        n = 4099
        text = ByteText(bytes(random.Random(n).choices(b"ab", k=n)))
        target = bt("abba")
        runs = []
        scan_run = pipeline._scan_run

        def recording_scan_run(target, run):
            runs.append(run)
            return scan_run(target, run)

        sizes = (1, 7, 64, n // 2, n, n + 5)
        with monkeypatch.context() as patched, ThreadPoolExecutor(workers) as threads:
            patched.setattr(pipeline, "_scan_run", recording_scan_run)
            for size, pool in itertools.product(sizes, (None, threads)):
                runs.clear()
                assert to_sm_par(ChunkPlan(2, size), text, target, pool) == to_sm(text, target)
                assert runs and all(run.text.data is text.data for run in runs), size
        for size in sizes:
            processes = PicklingPool(workers)
            assert to_sm_par(ChunkPlan(2, size), text, target, processes) == to_sm(text, target)
            shipped = [run for (run,) in processes.args]
            assert sum(len(run.text) for run in shipped) == n, size
            assert all(run.lo == 0 and run.hi == len(run.text) for run in shipped), size
            assert b"".join(run.text.data for run in shipped) == text.data

    @pytest.mark.parametrize("plan", default_plan_sweep(8), ids=str)
    def test_map_tasks_ship_linear_bytes(self, plan):
        # Deterministic: the pickled size of every map task, summed.
        def shipped(n):
            text = ByteText(bytes(random.Random(n).choices(b"ab", k=n)))
            target = ByteText(bytes(random.Random(-n).choices(b"ab", k=8)))
            pool = PicklingPool(2)
            assert to_sm_par(plan, text, target, pool) == to_sm(text, target)
            return sum(pool.shipped)

        for n in (1024, 4096, 16384):
            assert shipped(2 * n) <= 2.2 * shipped(n), n

    @pytest.mark.parametrize("workers", [1, 2])
    def test_periodic_runs_return_as_ranges(self, workers):
        # Deterministic: one chunk per run, so each shipped run returns its
        # first block of hits as a list and the rest of its run as a range;
        # its pickled result does not grow with the hits.  From n = 2**16 the
        # second run's offsets all take pickle's 4-byte int at n and at 2n.
        def returned(n):
            text = ByteText(b"ab" * n)
            pool = PicklingPool(workers)
            result = to_sm_par(ChunkPlan(2, -(-len(text) // workers)), text, bt("ababa"), pool)
            assert result == to_sm(text, bt("ababa"))
            assert len(result.indices) == n - 2
            assert len(pool.returned) == workers
            return sum(pool.returned)

        for n in (65536, 131072):
            assert returned(2 * n) <= 1.1 * returned(n), n

    @pytest.mark.parametrize("size", [1, 3, 4, 16])
    def test_pickled_run_scans_like_the_run_in_process(self, size):
        # Runs of whole chunks over a dense text, so matches straddle every
        # run edge; those belong to neither run, and the merge finds them.
        text = ByteText(b"ab" * 48)
        target = bt("abab")
        runs = [pipeline._Run(text, lo * size, min(hi * size, len(text)), size)
                for lo, hi in ((0, 5), (5, 11), (11, 96))]
        windows = []
        for run in runs:
            copy = pickle.loads(pickle.dumps(run))
            assert copy.text.data == run_bytes(run) and copy.base == run.lo
            window = pipeline._scan_run(target, run)
            shipped = pipeline._scan_run(target, copy)
            assert flat_window(shipped) == flat_window(window)
            # The receiver lists a run's segments as it unpickles them,
            # whichever process scanned it: both have one result shape.
            assert len(pickle.loads(pickle.dumps(shipped))[2]) == 1
            assert len(pickle.loads(pickle.dumps(window))[2]) == 1
            lo, hi, indices = flat_window(window)
            assert (lo, hi) == (run.lo, run.hi)
            assert indices == [i for i in naive_match(text, target) if lo <= i <= hi - 4]
            windows.append(window)
        edges = [run.hi for run in runs[:-1]]
        assert any(i < edge < i + 4 for edge in edges for i in naive_match(text, target))
        _, _, segments = pmconcat(window_ops(text, target), 2, windows)
        assert tuple(flatten(segments)) == to_sm(text, target).indices

    def test_runs_in_process_list_each_index_once(self, monkeypatch):
        # Inline and thread runs return their segments unlisted, and the
        # caller lists them once, into the result's tuple.
        calls = []
        expand = matcher._expand

        def counting_expand(segments):
            calls.append(len(segments))
            return expand(segments)

        monkeypatch.setattr(matcher, "_expand", counting_expand)
        text, target, plan = ByteText(b"ab" * 4096), bt("ababa"), ChunkPlan(2, 1024)
        expected = to_sm(text, target)
        with ThreadPoolExecutor(2) as threads:
            for pool in (None, threads):
                calls.clear()
                assert to_sm_par(plan, text, target, pool) == expected
                assert len(calls) == 1, pool

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


class TestBoundary:
    def test_pipeline_imports_no_private_matcher_name(self):
        # Only matcher knows what a segment is: pipeline ships windows and
        # lists them into matchers through matcher's public operations.
        with open(pipeline.__file__, encoding="utf-8") as source:
            tree = ast.parse(source.read())
        names = [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 and node.module == "matcher" for alias in node.names]
        assert names
        assert [name for name in names if name.startswith("_")] == []


class TestCpuCount:
    def test_counts_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert _cpu_count() == 2

    @pytest.mark.parametrize("host, expected", [(3, 3), (None, 1)])
    def test_falls_back_to_the_host_count(self, monkeypatch, host, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: host)
        assert _cpu_count() == expected

    def test_inline_runs_read_no_cpu_count(self, monkeypatch):
        def unavailable():
            raise AssertionError("an inline run read the CPU count")

        monkeypatch.setattr(pipeline, "_cpu_count", unavailable)
        text, target = bt("abcab" * 40), bt("abcab")
        sequential = to_sm(text, target)
        for plan in default_plan_sweep(len(target)):
            assert to_sm_par(plan, text, target) == sequential
        report = verify_equivalence(text, target, map_pool=None)
        assert report.ok and report.sequential == sequential

    def test_pool_without_max_workers_reads_cpu_count_once_per_call(self, monkeypatch):
        class InlinePool(Executor):
            def submit(self, fn, /, *args, **kwargs):
                future = Future()
                future.set_result(fn(*args, **kwargs))
                return future

        reads = []
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: reads.append(1) or 2)
        text, target = bt("abcab" * 40), bt("abcab")
        for calls in (1, 2, 3):
            assert to_sm_par(ChunkPlan(2, 7), text, target, InlinePool()) == to_sm(text, target)
            assert len(reads) == calls


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
        assert len(report.entries) == 4

    def test_times_to_sm_next_to_each_plan(self, monkeypatch):
        calls = []

        def logged(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        def par(plan, text, target, pool):
            # A stand-in: the real pipeline's workers call to_sm too.
            return to_sm(text, target)

        monkeypatch.setattr(pipeline, "to_sm", logged("seq", to_sm))
        monkeypatch.setattr(pipeline, "to_sm_par", logged("par", par))
        plans = [ChunkPlan(2, size) for size in (1, 3, 7)]
        report = verify_equivalence(bt("abababa"), bt("aba"), plans)
        assert calls == ["seq", "par"] * 3
        assert report.ok and report.sequential == to_sm(bt("abababa"), bt("aba"))
        calls.clear()
        report = verify_equivalence(bt("abababa"), bt("aba"), [])
        assert calls == ["seq"]
        assert report.entries == [] and report.sequential.indices == (0, 2, 4)

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
