"""parmatch benchmark: one workload per invocation.

    python3 perfbench/run.py --workload uniform-1m --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` makes the traced run and reports the per-layer metrics.
Human-readable lines come first, every metric measured among them; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, which holds the metrics BENCHMARK.json names.
Exit status: 0 if every call matched the ``naive_match`` oracle, 1 if
any failed, 2 if the package source is missing or an argument is bad.
See README.md in this directory.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def l3_size() -> str:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "parmatch" / "__init__.py").is_file():
        print(f"error: no parmatch package under {src}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = [metric["name"] for metric in spec["per_layer" if args.trace else "end_to_end"]]
    sys.path.insert(0, str(src))
    import harness
    import tracing

    nproc = len(os.sched_getaffinity(0))
    workload = workloads.make(args.workload, args.seed, nproc)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    bench = harness.Bench(workload, ROOT, out_dir, nproc)
    tracer = tracing.Tracer()
    if args.trace:
        metrics, samples = harness.traced(bench, args.seconds, tracer)
    else:
        metrics, samples = harness.end_to_end(bench, args.seconds)
    tally = bench.tally

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": nproc,
        "python": platform.python_version(),
        "l3": l3_size(),
        "pools": {
            "thread": {"kind": "ThreadPoolExecutor", "workers": nproc,
                       "used_for": "thread path map+reduce, proc path reduce"},
            "process": {"kind": "ProcessPoolExecutor(spawn)", "workers": nproc,
                        "used_for": "proc path map"},
            "cli_par": f"--processes --threads {nproc}",
        },
        "plan": {"branch": workload.branch, "chunk_size": workload.chunk_size},
        "texts": len(workload.texts),
        "input_bytes": workload.text_bytes,
        "input_sha256": workload.sha256(),
        "expected_indices": [len(indices) for indices in bench.expected],
        "samples": samples,
        "failed_ratio": tally.failed / tally.attempted if tally.attempted else None,
        "first_errors": tally.first_errors,
    }
    if args.trace:
        tracer.write(out_dir / f"{stem}-spans.jsonl")
    (out_dir / f"{stem}-record.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        note = samples.get(name, {})
        extra = ", ".join(f"{key}={val:g}" for key, val in note.items())
        print(f"{name:<26} {value:>14.6g} {unit:<6} {extra}")
    print(f"{'failed_ratio':<26} {record['failed_ratio']:>14.6g} ratio  "
          f"attempted={tally.attempted} failed={tally.failed}")
    print("record " + json.dumps(record))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in reported if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
