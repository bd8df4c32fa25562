"""Measures one workload: the untraced end-to-end run and the traced run.

Load is a closed loop with one caller: each call starts when the last one
has returned.  Pools are started once per run and reused; CLI children
run one at a time.
"""

from __future__ import annotations

import gc
import itertools
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from parmatch import ByteText, ChunkPlan, naive_match, to_sm, to_sm_par

import tracing
from pools import start_pools, stop_pools
from workloads import Workload

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 3
SETUP_PROBES = 9
SLICE_S = 0.3
GROUP_S = 0.1
PATHS = ("seq", "thread", "proc", "cli_seq", "cli_par")
CHILD_TIMEOUT_S = 150

# Calibration probes: fixed work that shares no code with parmatch, so a
# change to the program cannot move them.  Their time tracks how fast the
# shared machine runs at the moment.  The scan is a pure-Python loop of
# bytes slices and compares, the kind of work to_sm does, and calibrates
# the in-process paths.  The start probe is a bare interpreter start
# (``python -c pass``) and calibrates the CLI paths.  A new process's
# speed follows the machine differently from a warm loop's: call by call,
# CLI times spread 1.4 to 4 times less relative to the start probe than
# relative to the scan.  The *_REF_S constants are the probes' times on
# the 2-core reference machine when it runs fast (scan medians span
# 7.5-12 ms, start medians 62-70 ms).
CALIBRATION_TEXT = bytes(range(256)) * 256
CALIBRATION_REF_S = 0.0075
START_REF_S = 0.06
PROBES = {"seq": "scan", "thread": "scan", "proc": "scan", "cli_seq": "start", "cli_par": "start"}


def calibrate() -> float:
    """Seconds one calibration scan takes."""
    data, pattern = CALIBRATION_TEXT, b"\x10\x11\x12"
    started = time.perf_counter()
    found = [i for i in range(len(data) - 2) if data[i : i + 3] == pattern]
    seconds = time.perf_counter() - started
    if len(found) != 256:
        raise RuntimeError("calibration scan found the wrong matches")
    return seconds


def start_probe(env: dict) -> float:
    """Seconds a bare interpreter takes to start and exit.

    It is run the way the CLI children are, with piped output: without a
    pipe to read, a wait with a timeout polls at growing intervals, and
    the probe's time would jump between the polls (63.5 and 113.5 ms)."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - started


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than 21
    samples that would fall below the median, so the upper median is
    returned instead, with the (fewer) samples beyond it.
    """
    ordered = sorted(samples)
    beyond = min(10, (len(ordered) - 1) // 2)
    k = len(ordered) - 1 - beyond
    return ordered[k], 100.0 * (k + 1) / len(ordered), beyond


def schedule(seconds: float, steps: tuple):
    """(round, step) pairs in round-robin order until ``seconds`` have
    passed.  The deadline is checked before every step, so a run overshoots
    by at most one step; the first MIN_ROUNDS rounds always run in full."""
    deadline = time.perf_counter() + seconds
    for k in itertools.count():
        for step in steps:
            if k >= MIN_ROUNDS and time.perf_counter() >= deadline:
                return
            yield k, step


def peak_rss_mb() -> float:
    """High-water RSS of this process or of any child it has reaped."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    first_errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_errors) < 5:
                self.first_errors.append(what)
                print(f"FAILED: {what}", file=sys.stderr)
        return ok


class Bench:
    """One workload's inputs, oracle answers, pools and call paths."""

    def __init__(self, workload: Workload, root: Path, out_dir: Path, nproc: int) -> None:
        self.workload = workload
        self.nproc = nproc
        self.target = ByteText(workload.target)
        self.texts = [ByteText(text) for text in workload.texts]
        self.plan = ChunkPlan(workload.branch, workload.chunk_size)
        # Oracle answers come first and are never timed.
        self.expected = [naive_match(text, self.target) for text in self.texts]
        self.files = []
        for k, text in enumerate(workload.texts):
            path = out_dir / f"{workload.name}-{k}.bin"
            path.write_bytes(text)
            self.files.append(path)
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.root = root
        self.tally = Tally()
        self.pools = None

    def __enter__(self) -> "Bench":
        self.pools = start_pools(self.nproc)
        # The harness's own data (inputs, oracle lists) would otherwise be
        # rescanned by every full collection inside a timed call.
        gc.collect()
        gc.freeze()
        return self

    def __exit__(self, *exc) -> None:
        stop_pools(self.pools)
        gc.unfreeze()

    def call(self, path: str, k: int):
        """Run one library path on text ``k``; returns (seconds, matcher)."""
        threads, processes = self.pools
        text = self.texts[k]
        run = {
            "seq": lambda: to_sm(text, self.target),
            "thread": lambda: to_sm_par(self.plan, text, self.target, threads, threads),
            "proc": lambda: to_sm_par(self.plan, text, self.target, processes, threads),
        }[path]
        gc.collect()
        started = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # a failed call is counted, not fatal
            self.tally.check(False, f"{path} on text {k} raised {exc!r}")
            return None, None
        seconds = time.perf_counter() - started
        ok = list(result.indices) == self.expected[k]
        self.tally.check(ok, f"{path} on text {k}: indices differ from naive_match")
        return seconds, result

    def timed(self, path: str, k: int) -> float | None:
        """Seconds one call of ``path`` took on text ``k``; None if it failed."""
        if path.startswith("cli_"):
            return self.cli(path[4:], k)[0]
        return self.call(path, k)[0]

    def cli_command(self, mode: str, k: int) -> list[str]:
        command = [
            sys.executable, "-m", "parmatch.cli",
            "--target-hex", self.workload.target.hex(),
            "--input", str(self.files[k]),
            "--mode", mode,
        ]
        if mode == "par":
            command += [
                "--processes", "--threads", str(self.nproc),
                "--branch", str(self.plan.branch), "--chunk", str(self.plan.chunk_size),
            ]
        return command

    def cli(self, mode: str, k: int):
        """Run the CLI on text ``k`` to completion; returns (seconds, stdout bytes)."""
        started = time.perf_counter()
        try:
            child = subprocess.run(
                self.cli_command(mode, k), cwd=self.root, env=self.env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.tally.check(False, f"cli {mode} on text {k} timed out")
            return None, 0
        seconds = time.perf_counter() - started
        expected = self.expected[k]
        status = 0 if expected else 1
        if child.returncode != status:
            self.tally.check(False, f"cli {mode} on text {k} exited {child.returncode}: "
                             f"{child.stderr.decode(errors='replace')[-300:]}")
            return None, len(child.stdout)
        ok = [int(line) for line in child.stdout.split()] == expected
        self.tally.check(ok, f"cli {mode} on text {k}: stdout differs from naive_match")
        return seconds, len(child.stdout)

    def child_seconds(self, command: list[str]) -> float:
        started = time.perf_counter()
        subprocess.run(command, cwd=self.root, env=self.env, check=True,
                       stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - started

    def setup_samples(self) -> list[float]:
        """Set-up time, measured in fresh processes so every import is cold."""
        samples = []
        for _ in range(SETUP_PROBES):
            child = subprocess.run(
                [sys.executable, str(HERE / "pools.py"), str(self.nproc)],
                cwd=self.root, env=self.env, check=True,
                stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
            )
            samples.append(float(child.stdout))
        return samples


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced run; returns (metrics, per-metric sample record).

    Calls are bracketed by the calibration probe PROBES names for their
    path, and each sample is also kept scaled by the probe's reference time
    over the mean of its two brackets: the time the call would have taken
    with the machine at its reference speed.  The ``*_cal_mbps`` metrics
    come from those.
    """
    setup = bench.setup_samples()
    raw = {path: [] for path in PATHS}
    calibrated = {path: [] for path in PATHS}
    probes = {"scan": (calibrate, CALIBRATION_REF_S),
              "start": (partial(start_probe, bench.env), START_REF_S)}
    brackets = {kind: [] for kind in probes}
    cursor = 0
    last_kind = last_probe = None
    with bench:
        # Each path gets a slice of every round, at least one call, so cheap
        # paths collect many samples and slow ones one per round, and a slow
        # spell of the machine falls on every path alike.
        for _, path in schedule(seconds, PATHS):
            kind = PROBES[path]
            probe, reference = probes[kind]
            began = time.perf_counter()
            if kind == last_kind:  # the last slice's closing probe is this one's opening
                before = last_probe
            else:
                before = probe()
                brackets[kind].append(before)
            while True:
                # The machine's speed swings within a second, so probes sit
                # next to the calls they calibrate: around every call that
                # takes GROUP_S or more, around groups of faster ones.
                group, group_began = [], time.perf_counter()
                while True:
                    group.append(bench.timed(path, cursor % len(bench.texts)))
                    cursor += 1
                    if time.perf_counter() - group_began >= GROUP_S:
                        break
                after = probe()
                brackets[kind].append(after)
                scale = reference * 2 / (before + after)
                for call_s in group:
                    if call_s is not None:
                        raw[path].append(call_s)
                        calibrated[path].append(call_s * scale)
                before = after
                if time.perf_counter() - began >= SLICE_S:
                    break
            last_kind, last_probe = kind, after
    if bench.tally.failed:
        return {}, {}

    megabytes = bench.workload.text_bytes / 1e6
    metrics: dict[str, tuple[float, str]] = {}
    record: dict[str, dict] = {}
    metrics["setup_s"] = (statistics.median(setup), "s")
    record["setup_s"] = {"samples": len(setup)}
    for kind, name in (("scan", "calibration_ms"), ("start", "start_probe_ms")):
        metrics[name] = (statistics.median(brackets[kind]) * 1e3, "ms")
        record[name] = {"samples": len(brackets[kind])}
    for path in PATHS:
        values = raw[path]
        metrics[f"{path}_mbps"] = (megabytes / statistics.median(values), "MB/s")
        metrics[f"{path}_cal_mbps"] = (megabytes / statistics.median(calibrated[path]), "MB/s")
        record[f"{path}_mbps"] = record[f"{path}_cal_mbps"] = {"samples": len(values)}
        if not path.startswith("cli"):
            value, percentile, beyond = tail(values)
            metrics[f"{path}_tail_ms"] = (value * 1e3, "ms")
            record[f"{path}_tail_ms"] = {
                "samples": len(values), "percentile": percentile, "samples_beyond": beyond,
            }
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    record["peak_rss_mb"] = {"samples": 1}
    return metrics, record


def traced(bench: Bench, seconds: float, tracer: tracing.Tracer) -> tuple[dict, dict]:
    """Traced run of the process path; returns (per-layer metrics, record).

    Each round also times the untraced process path (for the tracing
    overhead) and the sequential path (for the CLI's overhead), and runs
    both CLI modes and a bare ``import parmatch.cli`` child.
    """
    calls = itertools.count()
    layers: list[dict] = []
    times = {key: [] for key in ("seq", "proc", "traced", "cli_seq", "cli_par", "import")}
    stdout_bytes = []
    import_command = [sys.executable, "-c", "import parmatch.cli"]

    def run_traced(k: int):
        """One traced call on text ``k``: (seconds, call id, result,
        pieces, matchers), or None if it raised."""
        threads, processes = bench.pools
        call = next(calls)
        gc.collect()
        started = time.perf_counter()
        try:
            result, pieces, matchers = tracing.traced_to_sm_par(
                tracer, call, bench.plan.branch, bench.plan.chunk_size,
                bench.texts[k], bench.target, processes, threads,
            )
        except Exception as exc:  # a failed call is counted, not fatal
            bench.tally.check(False, f"traced call on text {k} raised {exc!r}")
            return None
        return time.perf_counter() - started, call, result, pieces, matchers

    with bench:
        for turn, _ in schedule(seconds, ("round",)):
            k = turn % len(bench.texts)
            times["seq"].append(bench.call("seq", k)[0])
            # Alternate which of the untraced and traced calls goes first, so
            # neither one always meets freshly woken pool workers.
            traced_out = run_traced(k) if turn % 2 else None
            plain_s, plain = bench.call("proc", k)
            times["proc"].append(plain_s)
            if not turn % 2:
                traced_out = run_traced(k)
            if traced_out is not None:
                traced_s, call, result, pieces, matchers = traced_out
                times["traced"].append(traced_s)
                ok = result == plain and list(result.indices) == bench.expected[k]
                if bench.tally.check(ok, f"traced call on text {k} differs from to_sm_par"):
                    figures = tracing.layer_counts(tracer, call)
                    size, pickling_s = tracing.transport(pieces, matchers, bench.target)
                    figures["pipeline.transport_bytes"] = size
                    figures["pipeline.transport_s"] = pickling_s
                    layers.append(figures)

            for mode in ("seq", "par"):
                call = next(calls)
                started = time.perf_counter()
                wall, size = bench.cli(mode, k)
                times[f"cli_{mode}"].append(wall)
                tracer.record("cli.run", started, time.perf_counter(), None, call,
                              mode=mode, stdout_bytes=size, ok=wall is not None)
                if mode == "seq":
                    stdout_bytes.append(size)
            call = next(calls)
            started = time.perf_counter()
            times["import"].append(bench.child_seconds(import_command))
            tracer.record("cli.import", started, time.perf_counter(), None, call)

    if bench.tally.failed:
        return {}, {}
    med = {key: statistics.median(values) for key, values in times.items()}
    metrics: dict[str, tuple[float, str]] = {}
    for key in layers[0]:
        metrics[key] = (statistics.median(figures[key] for figures in layers), _layer_unit(key))
    metrics["cli.wall_s"] = (med["cli_seq"], "s")
    metrics["cli.import_s"] = (med["import"], "s")
    metrics["cli.stdout_bytes"] = (statistics.median(stdout_bytes), "bytes")
    metrics["cli.overhead_s"] = (med["cli_seq"] - med["import"] - med["seq"], "s")
    metrics["cli.par_wall_s"] = (med["cli_par"], "s")
    metrics["cli.par_overhead_s"] = (med["cli_par"] - med["import"] - med["proc"], "s")
    metrics["trace.overhead_ratio"] = (med["traced"] / med["proc"], "ratio")
    record = {key: {"samples": len(values)} for key, values in times.items()}
    record["traced_calls"] = {"samples": len(layers)}
    return metrics, record


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mbps"):
        return "MB/s"
    if key.endswith("_ratio"):
        return "ratio"
    if key.endswith("_bytes"):
        return "bytes"
    return "count"
