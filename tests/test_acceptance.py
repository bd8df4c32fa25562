"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; stated runtime budgets are asserted alongside correctness.
"""

import random
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from parmatch import (
    ByteText,
    ChunkPlan,
    chunkable_ops,
    matcher_ops,
    mconcat,
    morphism_distribution_check,
    naive_match,
    pmconcat,
    sm_append,
    to_sm,
    to_sm_par,
    to_sm_witness,
)
from parmatch.matcher import make_indices
from parmatch.pipeline import _cpu_count

from support import cast_indices, flatten, make_new_indices, shift_indices, spec_append_indices

ALPHABETS = {2: b"ab", 4: b"abcd", 256: bytes(range(256))}


def report(name, detail=""):
    print(f"\nACCEPTANCE {name}: PASS {detail}".rstrip())


def rand_text(rng, alphabet, length):
    return ByteText(bytes(rng.choice(alphabet) for _ in range(length)))


def test_fixed_paper_vectors():
    started = time.perf_counter()

    assert to_sm(ByteText(b"abababa"), ByteText(b"aba")).indices == (0, 2, 4)
    assert to_sm(ByteText(b"ababcabcab"), ByteText(b"abcab")).indices == (2, 5)

    left = to_sm(ByteText(b"ababcab"), ByteText(b"abcab"))
    right = to_sm(ByteText(b"cab"), ByteText(b"abcab"))
    merged = sm_append(left, right)
    assert merged.indices == (2, 5)
    # index 5 must come from the boundary-window scan, not either operand
    assert 5 not in left.indices and not right.indices
    assert make_new_indices(left.text, right.text, ByteText(b"abcab")) == [5]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report("fixed-paper-vectors", f"({elapsed:.3f}s)")


def test_oracle_differential_suite():
    rng = random.Random(0xACCE)
    started = time.perf_counter()
    pairs = 10_000
    for k in range(pairs):
        alphabet = ALPHABETS[(2, 4, 256)[k % 3]]
        text = rand_text(rng, alphabet, rng.randrange(513))
        if len(text) >= 4 and rng.random() < 0.5:
            # slice the target out of the input: guarantees dense matches
            width = rng.randrange(1, 9)
            lo = rng.randrange(len(text))
            target = text.substring(lo, min(width, len(text) - lo))
        else:
            target = rand_text(rng, alphabet, rng.randrange(9))
        assert list(to_sm(text, target).indices) == naive_match(text, target), (
            text,
            target,
        )
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0
    report("oracle-differential", f"({pairs} pairs, {elapsed:.1f}s)")


def test_monoid_law_suite():
    rng = random.Random(0x1A75)
    started = time.perf_counter()
    trials = 1_000

    text_ops = chunkable_ops()
    for _ in range(trials):
        x, y, z = (
            rand_text(rng, ALPHABETS[(2, 4, 256)[rng.randrange(3)]], rng.randrange(257))
            for _ in range(3)
        )
        assert text_ops.combine(text_ops.identity(), x) == x
        assert text_ops.combine(x, text_ops.identity()) == x
        assert text_ops.combine(text_ops.combine(x, y), z) == text_ops.combine(
            x, text_ops.combine(y, z)
        )

    shared = rand_text(rng, ALPHABETS[2], 1024)
    target = ByteText(b"aba")
    sm_ops = matcher_ops(target)

    def matcher_slice():
        lo = rng.randrange(len(shared) + 1)
        hi = rng.randrange(lo, len(shared) + 1)
        return to_sm(shared.substring(lo, hi - lo), target)

    for _ in range(trials):
        a, b, c = matcher_slice(), matcher_slice(), matcher_slice()
        assert sm_ops.combine(sm_ops.identity(), a) == a
        assert sm_ops.combine(a, sm_ops.identity()) == a
        assert sm_ops.combine(sm_ops.combine(a, b), c) == sm_ops.combine(
            a, sm_ops.combine(b, c)
        )

    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0
    report("monoid-laws", f"({trials} triples per law per monoid, {elapsed:.1f}s)")


def test_morphism_suite():
    rng = random.Random(0x3019)
    started = time.perf_counter()
    trials = 1_000
    for _ in range(trials):
        alphabet = ALPHABETS[(2, 4)[rng.randrange(2)]]
        x = rand_text(rng, alphabet, rng.randrange(257))
        y = rand_text(rng, alphabet, rng.randrange(257))
        target = rand_text(rng, alphabet, rng.randrange(9))
        assert to_sm(x + y, target) == sm_append(to_sm(x, target), to_sm(y, target))
    elapsed = time.perf_counter() - started
    report("morphism-suite", f"({trials} cases, {elapsed:.1f}s)")


def test_equivalence_theorem_suites():
    with ThreadPoolExecutor(max_workers=4) as pool:
        _equivalence_theorem_suites(pool)


def _equivalence_theorem_suites(pool):
    rng = random.Random(0x7113)
    started = time.perf_counter()

    # morphism distribution over chunking (single-level)
    witness = to_sm_witness(ByteText(b"abab"))
    for _ in range(1_000):
        x = rand_text(rng, ALPHABETS[2], rng.randrange(129))
        size = rng.randrange(1, 17)
        assert morphism_distribution_check(witness, x, size, pool=pool)

    # parallel tree reduction equals the sequential fold, both monoids
    text_ops = chunkable_ops()
    target = ByteText(b"aba")
    sm_ops = matcher_ops(target)
    for _ in range(1_000):
        fanin = rng.randrange(0, 9)
        texts = [rand_text(rng, ALPHABETS[4], rng.randrange(17)) for _ in range(rng.randrange(25))]
        assert pmconcat(text_ops, fanin, texts, pool=pool) == mconcat(text_ops, texts)
        matchers = [to_sm(piece, target) for piece in texts]
        assert pmconcat(sm_ops, fanin, matchers, pool=pool) == mconcat(sm_ops, matchers)

    # the pipeline over a grid of plans: the pool scans the runs and the
    # caller merges them, so no plan's branch changes the result
    grid = [ChunkPlan(branch, size) for branch in (2, 4, 8) for size in (1, 7, 64)]
    sweeps = 500
    for _ in range(sweeps):
        alphabet = ALPHABETS[(2, 4)[rng.randrange(2)]]
        text = rand_text(rng, alphabet, rng.randrange(65))
        target = rand_text(rng, alphabet, rng.randrange(1, 6))
        sequential = to_sm(text, target)
        for plan in grid + [ChunkPlan(2, max(len(target) - 1, 1))]:
            assert to_sm_par(plan, text, target, pool) == sequential

    elapsed = time.perf_counter() - started
    assert elapsed <= 120.0
    report(
        "equivalence-theorems",
        f"(1000 distribution, 1000x2 reduction, {sweeps}x10 pipeline, {elapsed:.1f}s)",
    )


def test_boundary_adversarial():
    with ThreadPoolExecutor(max_workers=4) as pool:
        _boundary_adversarial(pool)


def _boundary_adversarial(pool):
    started = time.perf_counter()
    cases = [
        (ByteText(b"ab" * 128), ByteText(b"ababa")),
        (ByteText(b"a" * 200), ByteText(b"aaaa")),
        (ByteText(b"abc" * 100), ByteText(b"cabcab")),
    ]
    for text, target in cases:
        expected = naive_match(text, target)
        assert expected  # adversarial setup must actually contain matches
        for size in range(1, len(target)):  # every chunk seam splits a match
            for branch in (2, 3, 8):
                result = to_sm_par(ChunkPlan(branch, size), text, target, pool)
                assert list(result.indices) == expected
    elapsed = time.perf_counter() - started
    report("boundary-adversarial", f"({elapsed:.1f}s)")


def test_substring_lemma_suite():
    rng = random.Random(0x5135)
    started = time.perf_counter()
    trials = 1_000
    ops = chunkable_ops()
    for _ in range(trials):
        alphabet = ALPHABETS[(2, 4, 256)[rng.randrange(3)]]
        left = rand_text(rng, alphabet, rng.randrange(129))
        right = rand_text(rng, alphabet, rng.randrange(129))

        if len(left):
            i = rng.randrange(len(left) + 1)
            j = rng.randrange(len(left) - i + 1)
            assert left.substring(i, j) == (left + right).substring(i, j)
        if len(right):
            i = rng.randrange(len(right) + 1)
            j = rng.randrange(len(right) - i + 1)
            assert right.substring(i, j) == (left + right).substring(len(left) + i, j)

        split = rng.randrange(len(left) + 1)
        assert left.take(split) + left.drop(split) == left

        size = rng.randrange(1, 17)
        assert mconcat(ops, left.chunks(size)) == left
    elapsed = time.perf_counter() - started
    report("substring-lemmas", f"({trials} cases each, {elapsed:.1f}s)")


def test_lemma_level_properties():
    rng = random.Random(0x1E44)
    started = time.perf_counter()
    trials = 500
    for _ in range(trials):
        alphabet = ALPHABETS[2]
        x = rand_text(rng, alphabet, rng.randrange(65))
        y = rand_text(rng, alphabet, rng.randrange(65))
        target = rand_text(rng, alphabet, rng.randrange(9))
        combined = x + y

        # mergeIndices
        hi = len(x) - 1
        if hi >= 0:
            mid = rng.randrange(hi + 1)
            assert flatten(make_indices(x, target, 0, hi)) == (
                flatten(make_indices(x, target, 0, mid))
                + flatten(make_indices(x, target, mid + 1, hi))
            )

        # shiftIndicesRight
        y_hi = len(y) - 1
        shifted = shift_indices(target, x, y, flatten(make_indices(y, target, 0, y_hi)))
        assert shifted == flatten(make_indices(combined, target, len(x), len(x) + y_hi))

        # mergeNewIndices
        good = flatten(make_indices(x, target, 0, len(x) - 1))
        assert good + make_new_indices(x, y, target) == (
            flatten(make_indices(combined, target, 0, len(x) - 1))
        )

        # newIsNull, both sides
        assert make_new_indices(x, ByteText(), target) == []
        assert make_new_indices(ByteText(), x, target) == []

        # mapShiftZero
        assert shift_indices(target, ByteText(), x, good) == good

        # mapCastId
        assert cast_indices(target, x, y, good) == good

        # the production merge is cast + new + shift
        a, b = to_sm(x, target), to_sm(y, target)
        assert list(sm_append(a, b).indices) == spec_append_indices(a, b)
    elapsed = time.perf_counter() - started
    report("lemma-level-properties", f"({trials} cases each, {elapsed:.1f}s)")


def test_performance_informational():
    """Non-gating: only index equality is asserted; the speedup is reported."""
    threads = _cpu_count()
    if threads < 4:
        report(
            "performance-informational",
            f"(SKIPPED: requires >= 4 hardware threads, found {threads})",
        )
        pytest.skip(f"performance criterion premised on >= 4 threads, found {threads}")

    rng = random.Random(0xBE9C)
    text = ByteText(rng.randbytes(64 * 1024 * 1024))
    target = ByteText(rng.randbytes(8))

    started = time.perf_counter()
    sequential = to_sm(text, target)
    seq_s = time.perf_counter() - started

    plan = ChunkPlan(2, max(len(text) // threads, 1))
    times = []
    with ProcessPoolExecutor(max_workers=threads) as pool:
        for _ in range(3):
            started = time.perf_counter()
            parallel = to_sm_par(plan, text, target, map_pool=pool)
            times.append(time.perf_counter() - started)
            assert parallel.indices == sequential.indices

    best = min(times)
    ratio = best / seq_s
    verdict = "PASS" if ratio <= 0.8 else "FAIL (informational, non-gating)"
    print(
        f"\nACCEPTANCE performance-informational: {verdict} "
        f"(seq {seq_s:.2f}s, best of 3 par {best:.2f}s, ratio {ratio:.2f})"
    )
