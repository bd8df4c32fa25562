import errno
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import Executor, Future
from concurrent.futures.process import BrokenProcessPool
from concurrent.futures.thread import BrokenThreadPool
from pathlib import Path

import pytest

from parmatch import ByteText, ChunkPlan, StringMatcher, cli, matcher, naive_match, pipeline

from support import bt


class CountingOut(io.StringIO):
    """A stdout stand-in that counts its ``write`` calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    status = cli.run(argv, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


def child_env():
    """The environment with ``src`` on PYTHONPATH, for ``python -m parmatch.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
    )
    return env


def buffered_child_env():
    """``child_env`` without PYTHONUNBUFFERED, so the child buffers stdout
    as it does under a plain shell."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def interrupt_group(code, announcement):
    """Runs ``code`` in a child that leads its own process group, and sends
    SIGINT to the group, as a terminal does, once the child's stderr starts
    with ``announcement``.  Returns the exited child, its stdout and the rest
    of its stderr.
    """
    child = subprocess.Popen(
        [sys.executable, "-c", code], env=child_env(), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert child.stderr.readline() == announcement
        os.killpg(child.pid, signal.SIGINT)
        out, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    return child, out, err


@pytest.fixture
def pool_log(monkeypatch):
    """Records, in order, each input the CLI reads and each process pool it starts."""
    log = []
    real_read, real_make = cli._read_input, cli._make_pool

    def read(path, err):
        log.append(("read", path))
        return real_read(path, err)

    def make(workers):
        log.append("pool")
        return real_make(workers)

    monkeypatch.setattr(cli, "_read_input", read)
    monkeypatch.setattr(cli, "_make_pool", make)
    return log


@pytest.fixture
def sample(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_bytes(b"abababa")
    return str(path)


class TestRun:
    def test_seq_mode_finds_indices(self, sample):
        status, out, err = invoke(["--target", "aba", "--input", sample])
        assert status == cli.EXIT_MATCH
        assert out.splitlines() == ["0", "2", "4"]
        assert "count=3" in err

    def test_absent_target_exits_one(self, sample):
        status, out, err = invoke(["--target", "zzz", "--input", sample])
        assert status == cli.EXIT_NO_MATCH
        assert out == ""
        assert "count=0" in err

    def test_verify_boundary_case(self, tmp_path):
        path = tmp_path / "boundary.txt"
        path.write_bytes(b"ababcabcab")
        status, out, _ = invoke(
            ["--target", "abcab", "--mode", "both", "--branch", "2", "--chunk", "4",
             "--input", str(path)]
        )
        assert status == cli.EXIT_MATCH
        assert out.splitlines() == ["2", "5"]

    def test_mode_both_reports_single_index_list(self, sample):
        status, out, _ = invoke(
            ["--target", "aba", "--input", sample, "--mode", "both", "--chunk", "2"]
        )
        assert status == cli.EXIT_MATCH
        assert out.splitlines() == ["0", "2", "4"]

    def test_stdin_input(self, sample, monkeypatch):
        class FakeStdin:
            buffer = io.BytesIO(b"abababa")

        monkeypatch.setattr(cli.sys, "stdin", FakeStdin())
        status, out, _ = invoke(["--target", "aba"])
        assert status == cli.EXIT_MATCH
        assert out.splitlines() == ["0", "2", "4"]

    def test_pools_are_shut_down(self, sample, monkeypatch):
        # A threshold of 0 puts even this 7-byte input on the pool.
        monkeypatch.setattr(cli, "PAR_MIN_BYTES", 0)
        before = threading.active_count()
        status, out, _ = invoke(
            ["--target", "aba", "--input", sample, "--mode", "par", "--processes",
             "--threads", "2", "--chunk", "2"]
        )
        assert status == cli.EXIT_MATCH
        assert out.splitlines() == ["0", "2", "4"]
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("flags", [["--mode", "both"], ["--mode", "bench", "--chunk", "3"]])
    def test_divergence_names_first_differing_position(self, sample, monkeypatch, flags):
        def one_wrong_index(plan, text, target, map_pool=None, reduce_pool=None):
            return StringMatcher(target, text, (0, 2, 5))

        monkeypatch.setattr(cli, "to_sm_par", one_wrong_index)
        monkeypatch.setattr(pipeline, "to_sm_par", one_wrong_index)
        status, _, err = invoke(["--target", "aba", "--input", sample, *flags])
        assert status == cli.EXIT_DIVERGENCE
        assert "position 2" in err
        assert "seq=4, par=5" in err
        if "--chunk" in flags:
            assert f"divergence on {sample} with ChunkPlan(branch=4, chunk_size=3): " in err

    def test_multiple_inputs(self, sample, tmp_path):
        other = tmp_path / "other.txt"
        other.write_bytes(b"zzz")
        status, out, err = invoke(
            ["--target", "aba", "--input", sample, "--input", str(other)]
        )
        assert status == cli.EXIT_MATCH
        assert "count=3" in err and "count=0" in err


class TestMain:
    def test_closed_pipe_exits_141_without_traceback(self, tmp_path):
        path = tmp_path / "many.txt"
        path.write_bytes(b"a" * 200_000)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
        )
        # About 1.3 MB of output: far more than a pipe holds, so the child is
        # still writing when the reader goes away.
        child = subprocess.Popen(
            [sys.executable, "-m", "parmatch.cli", "--target", "a", "--input", str(path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert child.stdout.readline() == b"0\n"
        child.stdout.close()
        status = child.wait(timeout=60)
        stderr = child.stderr.read()
        child.stderr.close()
        assert status == cli.EXIT_BROKEN_PIPE == 141
        assert b"Traceback" not in stderr, stderr.decode(errors="replace")

    @pytest.mark.parametrize("close, stdout, expected", [
        (0, os.devnull, "error: cannot read -: "),
        (1, os.devnull, f"[Errno {errno.EBADF}]"),
        (None, "/dev/full", os.strerror(errno.ENOSPC)),
    ], ids=["stdin-closed", "stdout-closed", "stdout-full"])
    def test_stream_failure_exits_two_with_one_error_line(self, sample, close, stdout, expected):
        # Status 1 means "no match", so a failed stream must not end with it.
        if not os.path.exists(stdout):
            pytest.skip(f"no {stdout} on this platform")
        argv = ["--target", "a"] + ([] if close == 0 else ["--input", sample])
        with open(stdout, "wb") as sink:
            child = subprocess.run(
                [sys.executable, "-m", "parmatch.cli", *argv], env=buffered_child_env(),
                stdout=sink, stderr=subprocess.PIPE, timeout=60,
                preexec_fn=None if close is None else lambda: os.close(close),
            )
        err = child.stderr.decode(errors="replace")
        assert child.returncode == cli.EXIT_USAGE, err
        assert err.count("error:") == 1 and "Traceback" not in err, err
        assert expected in err

    @pytest.mark.parametrize("stderr", [None, "/dev/full"], ids=["stderr-closed", "stderr-full"])
    def test_failing_stderr_leaves_stdout_to_indices(self, sample, stderr):
        # With fd 2 closed, sys.stderr is None, and print(file=None) writes to
        # stdout.  With stderr full, the indices already written stay.
        if stderr is not None and not os.path.exists(stderr):
            pytest.skip(f"no {stderr} on this platform")
        with open(stderr or os.devnull, "wb") as sink:
            child = subprocess.run(
                [sys.executable, "-m", "parmatch.cli", "--target", "a", "--input", sample,
                 "--input", "/nonexistent/nope"],
                env=buffered_child_env(), stdout=subprocess.PIPE, stderr=sink, timeout=60,
                preexec_fn=None if stderr else lambda: os.close(2),
            )
        assert child.returncode == cli.EXIT_USAGE
        assert child.stdout.splitlines() == [b"0", b"2", b"4", b"6"]

    @pytest.mark.parametrize(
        "flags, raises_in_parent",
        [([], True),
         (["--mode", "par", "--processes", "--threads", "2", "--chunk", "2"], False)],
        ids=["inline-scan", "scan-in-process-pool"],
    )
    def test_ctrl_c_exits_130_without_traceback(self, sample, monkeypatch, capfd,
                                                flags, raises_in_parent):
        # With --processes, only a forked worker's scan raises, so the
        # interrupt reaches the parent through a future after the workers
        # have started.  The parent's seam scans run the real function.  A
        # threshold of 0 puts even this 7-byte input on the pool.
        monkeypatch.setattr(cli, "PAR_MIN_BYTES", 0)
        parent = os.getpid()
        real = matcher.make_indices

        def interrupted(*args):
            if (os.getpid() == parent) == raises_in_parent:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(matcher, "make_indices", interrupted)
        monkeypatch.setattr(cli.sys, "argv", ["parmatch", "--target", "aba", "--input", sample,
                                              *flags])
        before = threading.active_count()
        with pytest.raises(SystemExit) as exc:
            try:
                cli.main()
            except KeyboardInterrupt:
                pytest.fail("main let KeyboardInterrupt escape")
        assert exc.value.code == cli.EXIT_INTERRUPT == 130
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_ctrl_c_to_process_group_leaves_idle_workers_quiet(self, sample):
        # The child runs the real parallel path, so the process pool's
        # workers exist and wait for work, then announces itself and sleeps.
        # SIGINT then goes to its whole process group, as a terminal sends it.
        argv = ["parmatch", "--target", "aba", "--input", sample, "--mode", "par",
                "--processes", "--threads", "2", "--chunk", "2"]
        code = (
            "import signal, sys, time\n"
            "from parmatch import cli\n"
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            "real = cli.to_sm_par\n"
            "def then_wait(*args):\n"
            "    matcher = real(*args)\n"
            "    print('ready', file=sys.stderr, flush=True)\n"
            "    time.sleep(60)\n"
            "    return matcher\n"
            "cli.to_sm_par = then_wait\n"
            "cli.PAR_MIN_BYTES = 0\n"
            f"sys.argv = {argv!r}\n"
            "cli.main()\n"
        )
        child, out, err = interrupt_group(code, b"ready\n")
        assert child.returncode == cli.EXIT_INTERRUPT, err.decode(errors="replace")
        assert out == b""
        assert err == b"", err.decode(errors="replace")

    def test_ctrl_c_while_workers_fork_shuts_the_pool_down(self, sample, monkeypatch):
        # A Ctrl-C that arrives while SIGINT is blocked for the fork is raised
        # once it is unblocked; the pool, its workers forked, must still stop.
        from concurrent.futures import ProcessPoolExecutor

        real = ProcessPoolExecutor.submit

        def submit_then_interrupt(self, *args):
            future = real(self, *args)
            signal.raise_signal(signal.SIGINT)
            return future

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_then_interrupt)
        monkeypatch.setattr(cli, "PAR_MIN_BYTES", 0)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            invoke(["--target", "aba", "--input", sample, "--mode", "par", "--processes",
                    "--threads", "2", "--chunk", "2"])
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []

    def test_ctrl_c_before_a_worker_ignores_it_stays_quiet(self, sample):
        # The worker's initializer announces itself, then waits until the
        # process group's SIGINT is pending before it ignores SIGINT.  A
        # worker that can take SIGINT before its initializer ends dies of it
        # in that wait, and logs a traceback.
        argv = ["parmatch", "--target", "aba", "--input", sample, "--mode", "par",
                "--processes", "--threads", "1", "--chunk", "2"]
        code = (
            "import signal, sys, time\n"
            "from parmatch import cli\n"
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            "real = cli._ignore_sigint\n"
            "def ignore_late():\n"
            "    print('forked', file=sys.stderr, flush=True)\n"
            "    deadline = time.monotonic() + 60\n"
            "    while signal.SIGINT not in signal.sigpending() and time.monotonic() < deadline:\n"
            "        time.sleep(0.01)\n"
            "    real()\n"
            "cli._ignore_sigint = ignore_late\n"
            "cli.PAR_MIN_BYTES = 0\n"
            f"sys.argv = {argv!r}\n"
            "cli.main()\n"
        )
        child, out, err = interrupt_group(code, b"forked\n")
        assert child.returncode == cli.EXIT_INTERRUPT, err.decode(errors="replace")
        assert out == b""
        assert err == b"", err.decode(errors="replace")

    @pytest.mark.parametrize("error, message", [
        (BrokenProcessPool, "error: worker died"),
        (BrokenThreadPool, "error: worker died"),
        (MemoryError, "error: MemoryError"),
        (RuntimeError, "Traceback"),
    ], ids=["broken-process-pool", "broken-thread-pool", "memory", "bug"])
    def test_crash_exits_two_after_the_pool_shuts_down(self, sample, monkeypatch, capfd,
                                                       error, message):
        # Status 1 means "no match", so a crash must not end with it.  A dead
        # worker or exhausted memory is one error line; any other exception
        # is a bug and keeps its traceback.
        pools = []

        class FailingPool(Executor):
            _max_workers = 2
            shut_down = False

            def submit(self, fn, /, *args, **kwargs):
                future = Future()
                future.set_exception(error() if error is MemoryError else error("worker died"))
                return future

            def shutdown(self, wait=True, *, cancel_futures=False):
                self.shut_down = True

        def make(workers):
            pools.append(FailingPool())
            return pools[-1]

        monkeypatch.setattr(cli, "_make_pool", make)
        monkeypatch.setattr(cli, "PAR_MIN_BYTES", 0)
        monkeypatch.setattr(cli.sys, "argv", ["parmatch", "--target", "aba", "--input", sample,
                                              "--mode", "par", "--processes", "--threads", "2"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == cli.EXIT_USAGE == 2
        assert [pool.shut_down for pool in pools] == [True]
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == (error is not RuntimeError), captured.err
        assert message in captured.err
        assert ("Traceback" in captured.err) == (error is RuntimeError), captured.err

    def test_killed_worker_exits_two_with_one_error_line(self, tmp_path):
        # A sitecustomize module on the child's path replaces the scan task
        # with one that kills the worker running it.  The input is just large
        # enough to scan on the process pool.
        (tmp_path / "sitecustomize.py").write_text(
            "import os\n"
            "from parmatch import pipeline\n"
            "real = pipeline._scan_run\n"
            "def _scan_run(tg, run):\n"
            "    import multiprocessing\n"
            "    if multiprocessing.parent_process() is not None:\n"
            "        os._exit(1)\n"
            "    return real(tg, run)\n"
            "pipeline._scan_run = _scan_run\n"
        )
        path = tmp_path / "large.txt"
        path.write_bytes(b"a" * cli.PAR_MIN_BYTES)
        env = child_env()
        env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
        child = subprocess.run(
            [sys.executable, "-m", "parmatch.cli", "--target", "aba", "--input", str(path),
             "--mode", "par", "--processes", "--threads", "2"],
            env=env, capture_output=True, timeout=60,
        )
        err = child.stderr.decode(errors="replace")
        assert child.returncode == cli.EXIT_USAGE, err
        assert child.stdout == b""
        assert err.count("error:") == 1 and "Traceback" not in err, err
        assert "terminated abruptly" in err, err

    @pytest.mark.parametrize(
        "flags, loaded",
        [(["--mode", "seq"], False),
         (["--mode", "both", "--processes", "--threads", "1", "--chunk", "2"], True),
         (["--mode", "par", "--threads", "2"], False),
         (["--mode", "seq", "--json"], False),
         (["--mode", "seq", "--processes"], False)],
    )
    def test_process_pool_imported_only_with_processes(self, sample, flags, loaded):
        # No CLI path starts a thread pool, so its module is never loaded,
        # and only --json loads json.  A threshold of 0 leaves the pool to
        # the flags alone, even on this 7-byte input.
        code = (
            "import io, sys\n"
            "from parmatch import cli\n"
            "cli.PAR_MIN_BYTES = 0\n"
            f"status = cli.run({['--target', 'aba', '--input', sample, *flags]!r},"
            " out=io.StringIO(), err=io.StringIO())\n"
            "print(status, 'concurrent.futures.process' in sys.modules,"
            " 'concurrent.futures.thread' in sys.modules, 'json' in sys.modules)\n"
        )
        child = subprocess.run(
            [sys.executable, "-S", "-c", code], env=child_env(), capture_output=True,
            timeout=60,
        )
        assert child.returncode == 0, child.stderr.decode(errors="replace")
        assert child.stdout.split() == [
            b"0", str(loaded).encode(), b"False", str("--json" in flags).encode()
        ]

    def test_import_loads_no_heavy_modules(self):
        # -S keeps site from loading modules (typing, here) before the check.
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import parmatch.cli\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        child = subprocess.run(
            [sys.executable, "-S", "-c", code], env=child_env(), capture_output=True,
            timeout=60,
        )
        assert child.returncode == 0, child.stderr.decode(errors="replace")
        loaded = child.stdout.decode().split()
        assert "parmatch.cli" in loaded
        heavy = {"dataclasses", "inspect", "json", "signal", "logging", "typing"}
        assert [name for name in loaded if name in heavy
                or name.startswith(("concurrent.futures", "multiprocessing"))] == []


EDGE_COUNTS = [0, cli.INDEX_BLOCK - 1, cli.INDEX_BLOCK, cli.INDEX_BLOCK + 1,
               3 * cli.INDEX_BLOCK + 5]


@pytest.fixture
def periodic(tmp_path):
    """Makes a file where ``aba`` occurs ``count`` times, overlapping."""

    def make(count):
        path = tmp_path / f"periodic-{count}.txt"
        path.write_bytes(b"ab" * count + b"a")
        return str(path)

    return make


class TestTextOutput:
    @pytest.mark.parametrize("count", EDGE_COUNTS)
    def test_stdout_is_one_line_per_index_at_block_edges(self, periodic, count):
        path = periodic(count)
        expected = "".join(
            f"{i}\n" for i in naive_match(bt(Path(path).read_bytes()), bt("aba"))
        )
        out, err = CountingOut(), io.StringIO()
        status = cli.run(["--target", "aba", "--input", path], out=out, err=err)
        assert status == (cli.EXIT_MATCH if count else cli.EXIT_NO_MATCH)
        assert out.getvalue() == expected
        assert expected.count("\n") == count
        assert out.writes == -(-count // cli.INDEX_BLOCK)
        assert err.getvalue() == f"count={count}\n"


class TestDenseOutputMemory:
    def test_peak_rss_does_not_grow_with_the_hits(self, tmp_path):
        # Zero bytes with target 00000000 hit at every offset but the last
        # three, so 4 MiB prints 3 Mi more lines than 1 MiB.  Each run is
        # the only child of a fresh wrapper process, so RUSAGE_CHILDREN
        # reads that CLI's own peak (in KiB on Linux).
        def peak_kib(mib):
            path = tmp_path / f"zeros-{mib}.bin"
            path.write_bytes(bytes(mib << 20))
            argv = [sys.executable, "-m", "parmatch.cli", "--mode", "seq",
                    "--target-hex", "00000000", "--input", str(path)]
            code = (
                "import os, resource, subprocess\n"
                "with open(os.devnull, 'wb') as sink:\n"
                f"    subprocess.run({argv!r}, stdout=sink, check=True)\n"
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
            )
            wrapper = subprocess.run([sys.executable, "-c", code], env=child_env(),
                                     capture_output=True, timeout=120)
            assert wrapper.returncode == 0, wrapper.stderr.decode(errors="replace")
            assert wrapper.stderr == f"count={(mib << 20) - 3}\n".encode()
            return int(wrapper.stdout)

        assert peak_kib(4) - peak_kib(1) < 32 * 1024


class TestJsonOutput:
    @pytest.mark.parametrize("count", EDGE_COUNTS)
    def test_match_report_is_one_write(self, periodic, count):
        path = periodic(count)
        out = CountingOut()
        status = cli.run(["--target", "aba", "--input", path, "--json"],
                         out=out, err=io.StringIO())
        assert status == (cli.EXIT_MATCH if count else cli.EXIT_NO_MATCH)
        assert out.writes == 1
        assert out.getvalue().endswith("}\n")
        report = json.loads(out.getvalue())
        assert report == {
            "path": path,
            "target_length": 3,
            "indices": list(range(0, 2 * count, 2)),
            "count": count,
            "mode": "seq",
            "timings_ms": {"seq": report["timings_ms"]["seq"]},
        }
        # The exact line: the index tuple is written as a JSON array.
        seq_ms = json.dumps(report["timings_ms"]["seq"])
        assert out.getvalue() == (
            f'{{"path": {json.dumps(path)}, "target_length": 3, '
            f'"indices": [{", ".join(map(str, range(0, 2 * count, 2)))}], '
            f'"count": {count}, "mode": "seq", "timings_ms": {{"seq": {seq_ms}}}}}\n'
        )

    def test_bench_line_is_one_write(self, sample):
        out = CountingOut()
        status = cli.run(["--target", "aba", "--input", sample, "--mode", "bench", "--json",
                          "--chunk", "2"], out=out, err=io.StringIO())
        assert status == cli.EXIT_MATCH
        assert out.writes == 1
        assert json.loads(out.getvalue())["path"] == sample

    def test_match_report_schema(self, sample):
        status, out, _ = invoke(["--target", "aba", "--input", sample, "--json"])
        assert status == cli.EXIT_MATCH
        report = json.loads(out)
        assert report["path"] == sample
        assert report["target_length"] == 3
        assert report["indices"] == [0, 2, 4]
        assert report["count"] == 3
        assert report["mode"] == "seq"
        assert "seq" in report["timings_ms"]

    def test_one_object_per_input(self, sample, tmp_path):
        other = tmp_path / "other.txt"
        other.write_bytes(b"aba")
        _, out, _ = invoke(
            ["--target", "aba", "--json", "--input", sample, "--input", str(other)]
        )
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["count"] for r in reports] == [3, 1]


class TestBinaryTargets:
    def test_target_hex(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"\x00\xff\x00\xff\x00")
        status, out, _ = invoke(["--target-hex", "00ff", "--input", str(path)])
        assert status == cli.EXIT_MATCH
        assert out.splitlines() == ["0", "2"]

    def test_target_that_is_not_utf8(self, tmp_path):
        # Python hands a non-UTF-8 argv byte over as a lone surrogate.
        path = tmp_path / "blob.bin"
        path.write_bytes(b"a\xffb")
        status, out, _ = invoke(["--target", "\udcff", "--input", str(path)])
        assert (status, out) == (cli.EXIT_MATCH, "1\n")

    def test_invalid_hex(self, sample, capsys):
        status, _, _ = invoke(["--target-hex", "zz", "--input", sample])
        assert status == cli.EXIT_USAGE
        assert "hex" in capsys.readouterr().err


class TestUsageErrors:
    def test_empty_target_rejected(self, sample, capsys):
        status, _, _ = invoke(["--target", "", "--input", sample])
        assert status == cli.EXIT_USAGE
        assert "empty target" in capsys.readouterr().err

    def test_missing_target_flag(self, sample):
        assert invoke(["--input", sample])[0] == cli.EXIT_USAGE

    def test_both_target_flags(self, sample):
        assert invoke(["--target", "a", "--target-hex", "61", "--input", sample])[0] == cli.EXIT_USAGE

    def test_unreadable_file(self):
        status, _, err = invoke(["--target", "aba", "--input", "/nonexistent/nope"])
        assert status == cli.EXIT_USAGE
        assert "cannot read" in err

    @pytest.mark.parametrize("flag", ["--chunk", "--branch", "--threads"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_sizes_rejected(self, sample, capsys, flag, value):
        status, _, _ = invoke(["--target", "aba", "--input", sample, "--mode", "par", flag, value])
        assert status == cli.EXIT_USAGE
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--chunk", "abc"), ("--threads", "1.5"),
                                             ("--branch", "")])
    def test_non_integer_sizes_rejected(self, sample, capsys, flag, value):
        status, out, _ = invoke(["--target", "aba", "--input", sample, "--mode", "par", flag, value])
        err = capsys.readouterr().err
        assert (status, out) == (cli.EXIT_USAGE, "")
        assert f"argument {flag}: not an integer: {value!r}" in err and "Traceback" not in err

    def test_removed_selectors_exit_two(self, sample, capsys):
        # --mode alone picks the run; --verify and --bench are not options.
        help_text = cli.build_parser().format_help()
        assert "--mode {seq,par,both,bench}" in help_text
        for flag in ("--verify", "--bench"):
            assert flag not in help_text
            status, out, _ = invoke(["--target", "aba", "--input", sample, flag])
            err = capsys.readouterr().err
            assert (status, out) == (cli.EXIT_USAGE, "")
            assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err

    def test_processes_beyond_cpu_count_rejected(self, sample, pool_log, capsys):
        # A process pool may fork all its workers at once, so this must fail
        # before any pool starts, and before any input is read, whatever its
        # size.  Without --processes the value only sizes chunks.
        flags = ["--target", "aba", "--input", sample, "--mode", "par",
                 "--threads", str(pipeline._cpu_count() + 1)]
        status, out, _ = invoke([*flags, "--processes"])
        err = capsys.readouterr().err
        assert status == cli.EXIT_USAGE
        assert "--threads" in err and "CPU count" in err
        assert out == ""
        assert pool_log == []
        assert multiprocessing.active_children() == []
        assert invoke(flags)[0] == cli.EXIT_MATCH


class TestBench:
    def test_single_plan_single_rep(self, sample):
        status, out, _ = invoke(
            ["--target", "aba", "--input", sample, "--mode", "bench",
             "--branch", "2", "--chunk", "3"]
        )
        assert status == cli.EXIT_MATCH
        lines = out.splitlines()
        assert lines[0] == f"path={sample}"
        assert "speedup" in lines[1]
        assert len(lines) == 3

    def test_absent_target_exits_one(self, sample):
        status, _, _ = invoke(
            ["--target", "zzz", "--input", sample, "--mode", "bench", "--chunk", "3"]
        )
        assert status == cli.EXIT_NO_MATCH

    def test_text_tables_name_their_input(self, sample, tmp_path):
        other = tmp_path / "other.txt"
        other.write_bytes(b"xabax")
        status, out, _ = invoke(
            ["--target", "aba", "--input", sample, "--input", str(other),
             "--mode", "bench", "--chunk", "2"]
        )
        assert status == cli.EXIT_MATCH
        paths = [line for line in out.splitlines() if line.startswith("path=")]
        assert paths == [f"path={sample}", f"path={other}"]

    def test_sweep_json(self, sample):
        status, out, _ = invoke(
            ["--target", "aba", "--input", sample, "--mode", "bench", "--json", "--threads", "2"]
        )
        assert status == cli.EXIT_MATCH
        line = json.loads(out)
        assert line["path"] == sample
        entries = line["entries"]
        assert [entry["plan"] for entry in entries] == [
            {"branch": 4, "chunk_size": size} for size in (1, 3, 7)
        ]
        for entry in entries:
            assert set(entry) == {
                "plan", "equal", "first_divergence", "sequential_ms", "parallel_ms", "speedup"
            }
            assert entry["equal"] and entry["first_divergence"] is None
        # The printed rows are verify_equivalence's rows, apart from timings.
        plans = [ChunkPlan(**entry["plan"]) for entry in entries]
        rows = pipeline.verify_equivalence(ByteText.from_file(sample), bt("aba"), plans).entries
        timings = {"sequential_ms", "parallel_ms", "speedup"}
        for entry, row in zip(entries, rows, strict=True):
            assert set(entry) == set(row)
            assert {k: v for k, v in entry.items() if k not in timings} == {
                k: v for k, v in row.items() if k not in timings
            }
            par_ms = entry["parallel_ms"]
            assert entry["speedup"] == (entry["sequential_ms"] / par_ms if par_ms > 0 else 0.0)

    def test_sweep_is_at_branch(self, periodic):
        # Without --chunk, bench sweeps chunk sizes only, all at --branch.
        status, out, _ = invoke(["--target", "aba", "--input", periodic(500), "--mode", "bench",
                                 "--json", "--branch", "3"])
        assert status == cli.EXIT_MATCH
        plans = [entry["plan"] for entry in json.loads(out)["entries"]]
        assert {plan["branch"] for plan in plans} == {3}
        sizes = [plan["chunk_size"] for plan in plans]
        assert 1 <= len(sizes) <= 3
        assert sizes == sorted(set(sizes))

    def test_sweep_has_no_two_rows_of_one_chunk(self, sized):
        # With one worker, two chunks per worker would be one chunk again.
        status, out, _ = invoke(["--target", "aba", "--input", sized(500), "--mode", "bench",
                                 "--json", "--threads", "1"])
        assert status == cli.EXIT_MATCH
        sizes = [entry["plan"]["chunk_size"] for entry in json.loads(out)["entries"]]
        assert sizes == [250, 500]

    def test_chunk_larger_than_input_degenerates(self, sample):
        status, out, _ = invoke(
            ["--target", "aba", "--input", sample, "--mode", "bench",
             "--branch", "2", "--chunk", "1000", "--json"]
        )
        assert status == cli.EXIT_MATCH
        line = json.loads(out)
        assert line["path"] == sample
        assert [entry["plan"] for entry in line["entries"]] == [
            {"branch": 2, "chunk_size": 1000}
        ]

    def test_json_one_line_per_input(self, sample, tmp_path):
        other = tmp_path / "other.txt"
        other.write_bytes(b"xabax")
        status, out, _ = invoke(
            ["--target", "aba", "--input", sample, "--input", str(other),
             "--mode", "bench", "--json", "--chunk", "2"]
        )
        assert status == cli.EXIT_MATCH
        lines = [json.loads(line) for line in out.splitlines()]
        assert [line["path"] for line in lines] == [sample, str(other)]
        for line in lines:
            assert [entry["plan"] for entry in line["entries"]] == [
                {"branch": 4, "chunk_size": 2}
            ]


@pytest.fixture
def sized(tmp_path):
    """Makes an ``n``-byte file with ``aba`` at its start, across its middle and at its end."""

    def make(n):
        data = bytearray(b"x" * n)
        for start in (0, n // 2 - 1, n - 3):
            data[start : start + 3] = b"aba"
        path = tmp_path / f"sized-{n}.bin"
        path.write_bytes(bytes(data))
        return str(path)

    return make


class TestPoolChoice:
    """``--processes`` starts one pool, at the first input of ``PAR_MIN_BYTES`` or more."""

    WORKERS = str(min(2, pipeline._cpu_count()))

    @pytest.fixture(autouse=True)
    def small_threshold(self, monkeypatch):
        # The choice is one comparison with PAR_MIN_BYTES, so a threshold of
        # a few KiB pins it without scanning megabytes on real pools.
        monkeypatch.setattr(cli, "PAR_MIN_BYTES", 4096)

    def flags(self, mode):
        return ["--target", "aba", "--mode", mode, "--processes", "--threads", self.WORKERS]

    @pytest.mark.parametrize("mode", ["par", "both"])
    @pytest.mark.parametrize("offset, pools", [(-1, []), (0, ["pool"])], ids=["below", "at"])
    def test_pool_starts_at_threshold(self, sized, pool_log, mode, offset, pools):
        path = sized(cli.PAR_MIN_BYTES + offset)
        status, out, _ = invoke([*self.flags(mode), "--input", path])
        assert status == cli.EXIT_MATCH
        assert pool_log == [("read", path), *pools]
        assert multiprocessing.active_children() == []
        assert out == invoke(["--target", "aba", "--mode", "seq", "--input", path])[1]

    @pytest.mark.parametrize("mode", ["par", "both", "bench"])
    def test_one_pool_from_the_first_large_input(self, sized, pool_log, mode):
        small, large = sized(cli.PAR_MIN_BYTES - 1), sized(cli.PAR_MIN_BYTES)
        inputs = ["--input", small, "--input", large, "--input", large]
        chunk = ["--chunk", str(cli.PAR_MIN_BYTES // 4)]
        status, out, _ = invoke([*self.flags(mode), *chunk, *inputs])
        assert status == cli.EXIT_MATCH
        assert pool_log == [("read", small), ("read", large), "pool", ("read", large)]
        assert multiprocessing.active_children() == []
        if mode != "bench":
            assert out == invoke(["--target", "aba", "--mode", "seq", *inputs])[1]

    def test_small_input_loads_no_process_pool(self, sized):
        # -S keeps site from loading modules before the check.
        argv = [*self.flags("par"), "--input", sized(cli.PAR_MIN_BYTES - 1)]
        code = (
            "import io, sys\n"
            "from parmatch import cli\n"
            f"cli.PAR_MIN_BYTES = {cli.PAR_MIN_BYTES}\n"
            f"status = cli.run({argv!r}, out=io.StringIO(), err=io.StringIO())\n"
            "print(status, 'concurrent.futures.process' in sys.modules,"
            " 'multiprocessing' in sys.modules)\n"
        )
        child = subprocess.run(
            [sys.executable, "-S", "-c", code], env=child_env(), capture_output=True,
            timeout=60,
        )
        assert child.returncode == 0, child.stderr.decode(errors="replace")
        assert child.stdout.split() == [b"0", b"False", b"False"]

    @pytest.mark.parametrize("flags, pooled", [([], False), (["--processes"], False),
                                                (["--processes"], True)],
                             ids=["inline", "below-threshold", "on-pool"])
    def test_par_default_plan_is_one_chunk_inline(self, sized, monkeypatch, flags, pooled):
        # Inline, more chunks only add merges; an explicit --chunk still wins.
        if pooled:
            monkeypatch.setattr(cli, "PAR_MIN_BYTES", 0)
        plans, real = [], cli.to_sm_par

        def par(plan, *args):
            plans.append(plan)
            return real(plan, *args)

        monkeypatch.setattr(cli, "to_sm_par", par)
        path = sized(1000)
        for chunk in ([], ["--chunk", "10"]):
            status, out, _ = invoke(["--target", "aba", "--mode", "par", "--threads",
                                     self.WORKERS, *flags, *chunk, "--input", path])
            assert status == cli.EXIT_MATCH
            assert out == invoke(["--target", "aba", "--mode", "seq", "--input", path])[1]
        default = 1000 // int(self.WORKERS) if pooled else 1000
        assert [plan.chunk_size for plan in plans] == [default, 10]
        assert multiprocessing.active_children() == []


class TestCpuCount:
    """The worker count defaults to, and under ``--processes`` may not exceed,
    the CPUs this process may run on, however many the host has."""

    @pytest.fixture(autouse=True)
    def one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def test_processes_beyond_affinity_rejected(self, sample, pool_log, capsys):
        status, out, _ = invoke(["--target", "aba", "--input", sample, "--mode", "par",
                                 "--processes", "--threads", "2"])
        err = capsys.readouterr().err
        assert status == cli.EXIT_USAGE
        assert "--threads 2" in err and "CPU count" in err
        assert (out, pool_log) == ("", [])

    def test_default_pool_and_plan_have_one_worker(self, sample, monkeypatch):
        # A threshold of 0 puts even this 7-byte input on the pool.
        monkeypatch.setattr(cli, "PAR_MIN_BYTES", 0)
        calls = []
        real_make, real_par = cli._make_pool, cli.to_sm_par

        def make(workers):
            calls.append(("pool", workers))
            return real_make(workers)

        def par(plan, *args):
            calls.append(("plan", plan))
            return real_par(plan, *args)

        monkeypatch.setattr(cli, "_make_pool", make)
        monkeypatch.setattr(cli, "to_sm_par", par)
        status, out, _ = invoke(["--target", "aba", "--input", sample, "--mode", "par",
                                 "--processes"])
        assert status == cli.EXIT_MATCH
        assert out.splitlines() == ["0", "2", "4"]
        assert calls == [("pool", 1), ("plan", ChunkPlan(4, 7))]
        assert multiprocessing.active_children() == []
