#!/usr/bin/env python3
"""Walkthrough: the two-level parallel pipeline and its verification sweep.

Chunk the input, scan chunks on a worker pool, tree-reduce the matchers
inline, and confirm the result is byte-identical to the sequential scan
for a grid of plans.
"""

import random
from concurrent.futures import ThreadPoolExecutor

from parmatch import ByteText, ChunkPlan, to_sm, to_sm_par, verify_equivalence

rng = random.Random(42)
text = ByteText(bytes(rng.choice(b"abcd") for _ in range(8 * 1024)))
target = ByteText(b"abcab")

sequential = to_sm(text, target)
print(f"input: {len(text)} bytes, target {bytes(target)!r}, "
      f"{len(sequential.indices)} occurrences")
print()

plan = ChunkPlan(branch=4, chunk_size=max(len(text) // 8, 1))
with ThreadPoolExecutor(max_workers=4) as pool:
    parallel = to_sm_par(plan, text, target, map_pool=pool)
    print(f"plan {plan}: parallel == sequential -> {parallel == sequential}")
    print()

    print("default verification sweep (includes a plan that splits every match):")
    report = verify_equivalence(text, target, map_pool=pool)
print(report.to_text())
assert report.ok
