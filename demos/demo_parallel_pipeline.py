#!/usr/bin/env python3
"""Walkthrough: the two-level parallel pipeline and its verification sweep.

Deal the input as one run of chunks per worker, let each process-pool
worker scan its chunks and fold them, fold the per-worker windows in the
parent, and confirm the result is byte-identical to the sequential scan
for a sweep of chunk sizes.  Each worker receives only its run's bytes
and sends back absolute indices, never text.
"""

import random
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from parmatch import ByteText, ChunkPlan, to_sm, to_sm_par, verify_equivalence


def main() -> None:
    rng = random.Random(42)
    text = ByteText(bytes(rng.choice(b"abcd") for _ in range(8 * 1024)))
    target = ByteText(b"abcab")

    sequential = to_sm(text, target)
    print(f"input: {len(text)} bytes, target {bytes(target)!r}, "
          f"{len(sequential.indices)} occurrences")
    print()

    plan = ChunkPlan(branch=4, chunk_size=max(len(text) // 8, 1))
    # A process pool is what buys wall-clock speedup in CPython.  Each of
    # its two workers gets one task: a run of four of the plan's chunks.
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        parallel = to_sm_par(plan, text, target, map_pool=pool)
        print(f"plan {plan}: parallel == sequential -> {parallel == sequential}")
        print()

        print("default verification sweep (includes a plan that splits every match):")
        report = verify_equivalence(text, target, map_pool=pool)
    print(report.to_text())
    assert report.ok


if __name__ == "__main__":
    main()
