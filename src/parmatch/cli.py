"""Grep-like front end: byte offsets of a target in files or stdin.

Unlike grep, the input is treated as one byte string with no line
semantics; reported indices are global byte offsets.  Exit status: 0 if
any match was found, 1 if none, 2 on usage or I/O errors, 3 when the
sequential and parallel paths disagree (which is a bug, not a usage
problem).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from .bytetext import ByteText
from .matcher import to_sm
from .pipeline import ChunkPlan, first_divergence, to_sm_par, verify_equivalence

EXIT_MATCH = 0
EXIT_NO_MATCH = 1
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3


@dataclass
class MatchReport:
    """One input's result, as emitted in JSON mode."""

    path: str
    target_length: int
    indices: list[int]
    mode: str
    timings_ms: dict[str, float] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.indices)

    def to_json_obj(self) -> dict:
        return {
            "path": self.path,
            "target_length": self.target_length,
            "indices": self.indices,
            "count": self.count,
            "mode": self.mode,
            "timings_ms": self.timings_ms,
        }


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
    target_group.add_argument("--target", help="target string (UTF-8, matched as bytes)")
    target_group.add_argument("--target-hex", help="target as hex bytes, for binary matching")
    parser.add_argument(
        "--input",
        action="append",
        metavar="PATH",
        help="input file; '-' or omitted reads stdin (repeatable)",
    )
    parser.add_argument("--mode", choices=("seq", "par", "both"), default="seq")
    parser.add_argument("--branch", type=_positive_int, default=4, help="reduction fan-in")
    parser.add_argument(
        "--chunk", type=_positive_int, default=None,
        help="chunk size in bytes (default: input length / threads, min 1)",
    )
    parser.add_argument(
        "--threads", type=_positive_int, default=None,
        help="worker pool size (default: no thread pool; stages run inline)",
    )
    parser.add_argument("--json", action="store_true", help="emit MatchReport JSON")
    parser.add_argument(
        "--verify", action="store_true",
        help="run both paths and fail (status 3) on any divergence",
    )
    parser.add_argument(
        "--bench", action="store_true",
        help="time both paths over a plan sweep; fail (status 3) on any divergence",
    )
    parser.add_argument(
        "--processes", action="store_true",
        help="scan chunks in a process pool instead of threads",
    )
    return parser


def _parse_target(args: argparse.Namespace, err) -> ByteText | None:
    if args.target_hex is not None:
        try:
            raw = bytes.fromhex(args.target_hex)
        except ValueError:
            print("error: --target-hex is not valid hex", file=err)
            return None
    else:
        raw = args.target.encode("utf-8")
    if not raw:
        print(
            "error: empty target rejected: every position would match; "
            "the library defines this case but it is never what a CLI user means",
            file=err,
        )
        return None
    return ByteText(raw)


def _read_input(path: str, err) -> ByteText | None:
    if path == "-":
        return ByteText(sys.stdin.buffer.read())
    try:
        return ByteText.from_file(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=err)
        return None


def _make_pools(
    args: argparse.Namespace,
) -> tuple[Executor | None, Executor | None]:
    """Map-stage and reduce-stage pools; None runs that stage inline."""
    map_pool = None
    reduce_pool = None
    if args.processes:
        map_pool = ProcessPoolExecutor(max_workers=args.threads)
    elif args.threads:
        map_pool = ThreadPoolExecutor(max_workers=args.threads)
    if args.threads:
        reduce_pool = ThreadPoolExecutor(max_workers=args.threads)
    return map_pool, reduce_pool


def _default_chunk(input_length: int, threads: int | None) -> int:
    workers = threads or os.cpu_count() or 1
    return max(input_length // workers, 1)


def _plan(args: argparse.Namespace, input_length: int) -> ChunkPlan:
    chunk = args.chunk if args.chunk is not None else _default_chunk(input_length, args.threads)
    return ChunkPlan(branch=args.branch, chunk_size=chunk)


def _match_one(
    path: str,
    text: ByteText,
    target: ByteText,
    args: argparse.Namespace,
    map_pool: Executor | None,
    reduce_pool: Executor | None,
    err,
) -> MatchReport | None:
    """Run the requested mode(s); None signals a divergence."""
    mode = "both" if args.verify else args.mode
    timings: dict[str, float] = {}
    indices: list[int] = []
    if mode in ("seq", "both"):
        started = time.perf_counter()
        sequential = to_sm(text, target)
        timings["seq"] = (time.perf_counter() - started) * 1000.0
        indices = list(sequential.indices)
    if mode in ("par", "both"):
        plan = _plan(args, len(text))
        started = time.perf_counter()
        parallel = to_sm_par(plan, text, target, map_pool, reduce_pool)
        timings["par"] = (time.perf_counter() - started) * 1000.0
        where = first_divergence(sequential, parallel) if mode == "both" else None
        if where is not None:
            _print_divergence(path, plan, where, err)
            return None
        indices = list(parallel.indices)
    return MatchReport(
        path=path,
        target_length=len(target),
        indices=indices,
        mode=mode,
        timings_ms=timings,
    )


def _bench_plans(input_length: int, threads: int | None) -> list[ChunkPlan]:
    workers = threads or os.cpu_count() or 1
    sizes = sorted(
        {
            max(input_length // (2 * workers), 1),
            max(input_length // workers, 1),
            max(2 * input_length // workers, 1),
        }
    )
    return [ChunkPlan(branch, size) for branch in (2, 4, 8) for size in sizes]


def _print_divergence(path: str, plan: ChunkPlan, where: dict, err) -> None:
    print(
        f"error: sequential/parallel divergence on {path} with {plan}: "
        f"index lists first differ at position {where['position']} "
        f"(seq={where['sequential']}, par={where['parallel']})",
        file=err,
    )


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_MATCH

    target = _parse_target(args, err)
    if target is None:
        return EXIT_USAGE

    paths = args.input or ["-"]
    map_pool, reduce_pool = _make_pools(args)
    try:
        found_any = False
        for path in paths:
            text = _read_input(path, err)
            if text is None:
                return EXIT_USAGE
            if args.bench:
                plans = (
                    [ChunkPlan(args.branch, args.chunk)]
                    if args.chunk is not None
                    else _bench_plans(len(text), args.threads)
                )
                sweep = verify_equivalence(text, target, plans, map_pool, reduce_pool)
                if args.json:
                    json.dump({"path": path, "entries": sweep.to_json_obj()}, out)
                    out.write("\n")
                else:
                    print(sweep.to_text(), file=out)
                if not sweep.ok:
                    for entry in sweep.entries:
                        if not entry.equal:
                            _print_divergence(path, entry.plan, entry.first_divergence, err)
                    return EXIT_DIVERGENCE
                found_any = True
                continue
            report = _match_one(path, text, target, args, map_pool, reduce_pool, err)
            if report is None:
                return EXIT_DIVERGENCE
            if args.json:
                json.dump(report.to_json_obj(), out)
                out.write("\n")
            else:
                for index in report.indices:
                    print(index, file=out)
                print(f"count={report.count}", file=err)
            found_any = found_any or report.count > 0
        return EXIT_MATCH if found_any else EXIT_NO_MATCH
    finally:
        for pool in (map_pool, reduce_pool):
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
