"""Tests of the benchmark itself: inputs, metric code and tracing.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from parmatch import ByteText, naive_match, to_sm

import harness
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_are_seed_deterministic(name):
    first = workloads.make(name, 7, 2)
    assert first.sha256() == workloads.make(name, 7, 2).sha256()
    if name != "dense-ab":  # its input is fixed by definition
        assert first.sha256() != workloads.make(name, 8, 2).sha256()


def test_uniform_1m_has_the_planted_targets():
    workload = workloads.make("uniform-1m", 3, 2)
    (text,) = workload.texts
    assert len(text) == workloads.MIB and len(workload.target) == 8
    found = naive_match(ByteText(text), ByteText(workload.target))
    assert len(found) == 16
    # The copies next to each 256 KiB chunk mark straddle a seam.
    chunk = workload.chunk_size
    assert chunk == 256 * workloads.KIB
    assert [i for i in found if i % chunk > chunk - 8] == [chunk - 4, 2 * chunk - 4, 3 * chunk - 4]


def test_dense_ab_has_131070_matches():
    workload = workloads.make("dense-ab", 0, 2)
    (text,) = workload.texts
    assert len(text) == 256 * workloads.KIB
    assert len(to_sm(ByteText(text), ByteText(workload.target)).indices) == 131_070


def test_tiny_chunks_cut_every_occurrence_at_a_seam():
    workload = workloads.make("tiny-chunks", 5, 2)
    (text,) = workload.texts
    assert workload.chunk_size < len(workload.target)
    tracer = tracing.Tracer()
    with ThreadPoolExecutor(2) as pool:
        result, pieces, _ = tracing.traced_to_sm_par(
            tracer, 0, workload.branch, workload.chunk_size,
            ByteText(text), ByteText(workload.target), pool, pool,
        )
    assert len(pieces) == 2048
    assert result == to_sm(ByteText(text), ByteText(workload.target))
    figures = tracing.layer_counts(tracer, 0)
    assert figures["monoid.tree_depth"] == 11
    assert figures["matcher.seam_hits"] == len(result.indices)


def test_small_1k_texts_are_distinct_and_use_the_default_plan():
    workload = workloads.make("small-1k", 5, 2)
    assert len(set(workload.texts)) == len(workload.texts) == workloads.SMALL_TEXTS
    assert {len(text) for text in workload.texts} == {1024}
    assert (workload.branch, workload.chunk_size) == (4, 512)


def test_tail_keeps_ten_samples_beyond_or_falls_back_to_the_upper_median():
    assert harness.tail([float(x) for x in range(30)]) == (19.0, pytest.approx(200 / 3), 10)
    assert harness.tail([4.0, 1.0, 3.0, 2.0]) == (3.0, 75.0, 1)


def test_self_time_subtracts_the_union_of_children():
    top = tracing.Span(0, "top", 0.0, 10.0, None, 0)
    children = [
        tracing.Span(k, "child", start, end, 0, 0)
        for k, (start, end) in enumerate([(1.0, 4.0), (3.0, 5.0), (8.0, 12.0)], 1)
    ]
    assert tracing.self_seconds(top, children) == pytest.approx(4.0)


def _small_bench(tmp_path):
    workload = workloads.Workload(
        "smoke", (b"abcab" * 400, b"xyz" * 700), b"cab", branch=2, chunk_size=256,
    )
    return harness.Bench(workload, ROOT, tmp_path, nproc=2)


def test_end_to_end_smoke_emits_every_metric(tmp_path):
    bench = _small_bench(tmp_path)
    metrics, _ = harness.end_to_end(bench, seconds=0)
    assert bench.tally.attempted > 0 and bench.tally.failed == 0
    spec = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    printed_only = {f"{path}_mbps": "MB/s" for path in harness.PATHS}
    printed_only |= {f"{path}_tail_ms": "ms" for path in ("seq", "thread", "proc")}
    printed_only |= {"calibration_ms": "ms", "start_probe_ms": "ms"}
    assert {name: unit for name, (_, unit) in metrics.items()} == spec | printed_only
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_smoke_emits_every_layer_metric(tmp_path):
    bench = _small_bench(tmp_path)
    tracer = tracing.Tracer()
    metrics, _ = harness.traced(bench, 0, tracer)
    assert bench.tally.attempted > 0 and bench.tally.failed == 0
    spec = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == spec
    layers = {span.name.split(".")[0] for span in tracer.spans}
    assert layers == {"bytetext", "matcher", "monoid", "pipeline", "cli"}
    tracer.write(tmp_path / "spans.jsonl")
    *spans, summary = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(spans) == len(tracer.spans)
    assert set(json.loads(summary)["self_s_by_layer"]) == {span.name for span in tracer.spans}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", *"--workload small-1k --seed 1 --seconds 1".split()],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert child.returncode == 2 and child.stdout == b""
