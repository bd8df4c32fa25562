"""Grep-like front end: byte offsets of a target in files or stdin.

Unlike grep, the input is treated as one byte string with no line
semantics; reported indices are global byte offsets.  ``--mode`` picks
the run: ``seq``, ``par``, ``both`` (the two checked against each other)
or ``bench`` (both timed per chunk size).  ``--processes`` scans on a
process pool, started at the first input of at least ``PAR_MIN_BYTES``
bytes; smaller inputs scan inline.  ``--target`` is its argv bytes
(``os.fsencode``); argparse reports every bad flag.  Exit status: 0 if
any match, 1 if none, 2 on usage or I/O errors (stdin or stdout closed
or failing among them), a process-pool worker that died, exhausted memory
or any other crash (which alone keeps its traceback), 3 when the two paths
disagree (a bug), 130 on Ctrl-C, 141 when stdout's reader goes away.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys

from .bytetext import ByteText
from .matcher import to_sm
from .monoid import TYPE_CHECKING
from .pipeline import ChunkPlan, _cpu_count, timed, to_sm_par, verify_equivalence

if TYPE_CHECKING:
    from concurrent.futures import Executor

EXIT_MATCH = 0
EXIT_NO_MATCH = 1
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3
EXIT_INTERRUPT = 130  # 128 + SIGINT
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the status a shell reports for it

# Indices per write in text mode: Indices.lines prints them a block at a
# time, so printing holds one block's text however many hits there are.
# One write per index costs more than the scan; one write of everything
# lets a closed pipe pass unnoticed, because the kernel reports a short
# write rather than an error.
INDEX_BLOCK = 8192

# Smallest input that --processes scans on the pool; smaller ones run the
# same plan inline.  A pool of w workers saves n * c * (1 - 1/w) on an
# n-byte input, costs P to start and t per byte to ship each run to its
# worker, so it repays itself once n > P / (c * (1 - 1/w) - t).  With
# P ~ 43 ms to start a pool, c ~ 36 ns/B for the scan and t ~ 3.6 ns/B to
# pickle and send a run, break-even is 3.0 MB at w = 2 and 1.3 MB for any
# w.  Measured on 2 CPUs (CLI wall time, medians of 9), the pool took
# 1.22x the inline time at 1 MiB and 1.02x at 2 MiB, and 0.81x at 4 MiB.
# A faster scan lowers c and so raises this bound; once c * (1 - 1/w)
# falls below t, no input repays a pool that ships its bytes.
PAR_MIN_BYTES = 4 * 1024 * 1024


def _positive_int(value: str) -> int:
    """argparse ``type`` for sizes and counts: an integer of at least 1."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parmatch",
        description="Report every byte offset where a target occurs in the input.",
    )
    target_group = parser.add_mutually_exclusive_group(required=True)
    target_group.add_argument("--target", type=os.fsencode,
                              help="target string, matched as its argv bytes")
    target_group.add_argument("--target-hex", dest="target", metavar="HEX", type=bytes.fromhex,
                              help="target as hex bytes, for binary matching")
    parser.add_argument(
        "--input",
        action="append",
        metavar="PATH",
        help="input file; '-' or omitted reads stdin (repeatable)",
    )
    parser.add_argument(
        "--mode", choices=("seq", "par", "both", "bench"), default="seq",
        help="both: check par against seq (exit 3 if they differ); bench: time each chunk size",
    )
    parser.add_argument(
        "--branch", type=_positive_int, default=4,
        help="plan fan-in, shown by --mode bench; every merge runs inline, so it changes no work",
    )
    parser.add_argument(
        "--chunk", type=_positive_int, default=None,
        help="chunk size in bytes (default: input length / (--threads or CPU count), "
             "min 1; with --mode par, the whole input when it scans inline)",
    )
    parser.add_argument(
        "--threads", type=_positive_int, default=None,
        help=f"workers of the --processes pool (at most the CPUs this process may run on), "
             f"used from {PAR_MIN_BYTES} bytes of input on; also sets the default chunk size, "
             f"except for an input that --mode par scans inline",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON object per input; it holds every index in memory")
    parser.add_argument(
        "--processes", action="store_true",
        help=f"scan chunks in a process pool instead of inline; the pool starts at the "
             f"first input of at least {PAR_MIN_BYTES} bytes, and smaller inputs scan inline",
    )
    return parser


def _read_input(path: str, err) -> ByteText | None:
    try:
        if path != "-":
            return ByteText.from_file(path)
        if sys.stdin is None:  # fd 0 was closed when the interpreter started
            raise OSError(errno.EBADF, "stdin is closed")
        return ByteText(sys.stdin.buffer.read())
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=err)
        return None


def _init_worker() -> None:
    """Process-pool initializer: leave Ctrl-C to the parent, and end with it.

    A terminal sends SIGINT to the whole process group.  A worker waiting
    for its next task would die of it with a traceback; ignoring it lets
    the parent's shutdown end the workers instead.  The worker is forked
    with SIGINT blocked (see ``_make_pool``), so a SIGINT that came before
    this ran is still pending: ignoring it first discards it, and only
    then is it unblocked.

    A parent killed before its shutdown (SIGKILL, SIGTERM) would leave its
    workers running with its stdout open, so a daemon thread ends the
    worker once the parent's sentinel is ready.
    """
    # Imported here: only process-pool workers run this.
    import multiprocessing
    import signal
    import threading
    from multiprocessing.connection import wait

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})

    def exit_with_parent() -> None:
        wait([multiprocessing.parent_process().sentinel])
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()


def _make_pool(workers: int) -> Executor:
    """The scan stage's process pool, its workers already forked.

    Merges always run inline; a thread pool for them measured no faster.
    """
    # Imported here: they pull in multiprocessing, which no other path uses.
    import signal
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker)
    try:
        # With the fork start method the first task forks every worker.
        # Forking them here with SIGINT blocked means no worker can take a
        # Ctrl-C before _init_worker has run; they inherit the mask.  The
        # task's result is not awaited: int() cannot fail, and a broken pool
        # fails the scan's own tasks.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            pool.submit(int)
        finally:
            # A Ctrl-C that came meanwhile is raised here, once unblocked.
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    except BaseException:
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    return pool


def _plans(args: argparse.Namespace, input_length: int, workers: int,
           pooled: bool) -> list[ChunkPlan]:
    """``--chunk``; else for ``--mode par`` one chunk per worker of the pool,
    or one chunk when the input scans inline, where more chunks only add
    merges; else one chunk per worker, or for ``--mode bench`` half, one
    and two, none past the whole input.  All are at ``--branch``, which no
    merge reads, so fan-ins are not swept.
    """
    if args.chunk is not None:
        return [ChunkPlan(args.branch, args.chunk)]
    if args.mode == "par" and not pooled:
        workers = 1
    halves = (1, 2, 4) if args.mode == "bench" else (2,)  # k / 2 chunks per worker
    sizes = {max(min(input_length * k // (2 * workers), input_length), 1) for k in halves}
    return [ChunkPlan(args.branch, size) for size in sorted(sizes)]


def _print_divergence(path: str, row: dict, err) -> None:
    where = row["first_divergence"]
    print(
        f"error: sequential/parallel divergence on {path} with {ChunkPlan(**row['plan'])}: "
        f"index lists first differ at position {where['position']} "
        f"(seq={where['sequential']}, par={where['parallel']})",
        file=err,
    )


def _write_json(out, obj: dict) -> None:
    """One JSON line in one write (``json.dump`` writes once per token)."""
    # Imported here: only --json writes JSON.
    import json

    out.write(json.dumps(obj) + "\n")


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.target:
            parser.error("empty target rejected: every position would match; "
                         "the library defines this case but it is never what a CLI user means")
        cpus = _cpu_count()
        workers = args.threads or cpus
        if args.processes and workers > cpus:
            # A process pool may fork every worker at its first task.
            parser.error(f"--threads {workers} exceeds the CPU count with --processes")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_MATCH
    target = ByteText(args.target)

    pool = None
    try:
        found_any = False
        for path in args.input or ["-"]:
            text = _read_input(path, err)
            if text is None:
                return EXIT_USAGE
            map_pool = None
            if args.processes and args.mode != "seq" and len(text) >= PAR_MIN_BYTES:
                map_pool = pool = pool or _make_pool(workers)
            plans = _plans(args, len(text), workers, map_pool is not None)
            if args.mode == "seq":
                matcher, seq_ms = timed(to_sm, text, target)
                timings = {"seq": seq_ms}
            elif args.mode == "par":
                matcher, par_ms = timed(to_sm_par, plans[0], text, target, map_pool)
                timings = {"par": par_ms}
            else:
                report = verify_equivalence(text, target, plans, map_pool)
                if args.mode == "bench" and args.json:
                    _write_json(out, {"path": path, "entries": report.entries})
                elif args.mode == "bench":
                    out.write(f"path={path}\n{report.to_text()}\n")
                if not report.ok:
                    for row in report.entries:
                        if not row["equal"]:
                            _print_divergence(path, row, err)
                    return EXIT_DIVERGENCE
                matcher = report.sequential
                first = report.entries[0]
                timings = {"seq": first["sequential_ms"], "par": first["parallel_ms"]}
            indices = matcher.indices
            found_any = found_any or len(indices) > 0
            if args.mode == "bench":
                continue
            if args.json:
                _write_json(out, {
                    "path": path,
                    "target_length": len(target),
                    "indices": list(indices),
                    "count": len(indices),
                    "mode": args.mode,
                    "timings_ms": timings,
                })
            else:
                for block in indices.lines(INDEX_BLOCK):
                    out.write(block)
                print(f"count={len(indices)}", file=err)
        return EXIT_MATCH if found_any else EXIT_NO_MATCH
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def main() -> None:
    if sys.stderr is None:  # fd 2 closed at start: print(file=None) would write to stdout
        sys.stderr = open(os.devnull, "w")
    try:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError(errno.EBADF, "stdout is closed")
        status = run()
        # Flush inside the try, so a failed write is seen here.
        sys.stdout.flush()
    except KeyboardInterrupt:
        # run's finally has already shut the pool down.
        sys.exit(EXIT_INTERRUPT)
    except OSError as exc:
        # A stream or a worker's fork failed.  A reader that went away ends quietly.
        if not isinstance(exc, BrokenPipeError):
            with contextlib.suppress(OSError):
                print(f"error: {exc}", file=sys.stderr)
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                # Keep what was written unless this stream is what failed, then point
                # it at devnull: the interpreter flushes it again at exit.
                with contextlib.suppress(OSError):
                    stream.flush()
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        sys.exit(EXIT_BROKEN_PIPE if isinstance(exc, BrokenPipeError) else EXIT_USAGE)
    except Exception as exc:
        # A crash is never "no match".  run's finally has already shut the
        # pool down.  A dead worker or exhausted memory is one error line;
        # anything else is a bug, and keeps its traceback for the report.
        # concurrent.futures is loaded by every pool, so only look it up.
        futures = sys.modules.get("concurrent.futures")
        known = (MemoryError, futures.BrokenExecutor) if futures else MemoryError
        with contextlib.suppress(OSError):
            if isinstance(exc, known):
                print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            else:
                # Imported here: only a bug prints a traceback.
                import traceback

                traceback.print_exc()
        sys.exit(EXIT_USAGE)
    sys.exit(status)


if __name__ == "__main__":
    main()
