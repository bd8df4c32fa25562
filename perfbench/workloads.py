"""Seeded inputs for the benchmark's workloads.

Each workload is a set of input texts, one target and the chunk plan the
parallel paths use.  The program under test sees only these bytes; the
seed decides every random choice, so one seed always gives the same
inputs (and the same :func:`Workload.sha256`).

The sizes keep the slowest path's call well under a second on a 2-core
machine, so a run gets a dozen or more calls of every path: the median of
fewer moves too much from run to run.  The cost each workload isolates
grows in proportion to its size, so a larger input shows the same mix.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True)
class Workload:
    name: str
    texts: tuple[bytes, ...]
    target: bytes
    branch: int
    chunk_size: int

    @property
    def text_bytes(self) -> int:
        """Bytes of input one call scans (every text has this length)."""
        return len(self.texts[0])

    def sha256(self) -> str:
        digest = hashlib.sha256(self.target)
        for text in self.texts:
            digest.update(text)
        return digest.hexdigest()


def uniform_1m(seed: int, nproc: int) -> Workload:
    """Scan-bound: 1 MiB of uniform random bytes, an 8-byte target planted
    every 64 KiB.  The copies sit 4 bytes before each 64 KiB mark, so the
    three at the 256 KiB chunk marks straddle a seam."""
    rng = random.Random(seed)
    target = rng.randbytes(8)
    data = bytearray(rng.randbytes(MIB))
    for mark in range(0, MIB, 64 * KIB):
        start = max(mark - 4, 0)
        data[start : start + len(target)] = target
    return Workload("uniform-1m", (bytes(data),), target, branch=2, chunk_size=256 * KIB)


def dense_ab(seed: int, nproc: int) -> Workload:
    """Output-bound: ``ab`` repeated to 256 KiB with target ``ababa``, which
    occurs at every even offset (131,070 overlapping matches).  The input
    is fixed by its definition, so the seed does not change it."""
    return Workload("dense-ab", (b"ab" * (128 * KIB),), b"ababa", branch=2, chunk_size=64 * KIB)


def tiny_chunks(seed: int, nproc: int) -> Workload:
    """Chunk-bound: 8 KiB over ``{a,b}`` cut into 4-byte chunks, shorter
    than the 8-byte target, so every occurrence straddles a seam
    (2,048 pieces, reduction depth 11)."""
    rng = random.Random(seed)
    target = bytes(rng.choices(b"ab", k=8))
    text = bytes(rng.choices(b"ab", k=8 * KIB))
    return Workload("tiny-chunks", (text,), target, branch=2, chunk_size=4)


SMALL_TEXTS = 64


def small_1k(seed: int, nproc: int) -> Workload:
    """Overhead-bound: distinct 1 KiB texts over ``{a,b,c,d}`` with a 4-byte
    target, at the CLI's default plan (branch 4, chunk = n // nproc)."""
    rng = random.Random(seed)
    target = bytes(rng.choices(b"abcd", k=4))
    texts: dict[bytes, None] = {}
    while len(texts) < SMALL_TEXTS:
        texts[bytes(rng.choices(b"abcd", k=KIB))] = None
    return Workload("small-1k", tuple(texts), target, branch=4, chunk_size=max(KIB // nproc, 1))


GENERATORS = {
    "uniform-1m": uniform_1m,
    "dense-ab": dense_ab,
    "tiny-chunks": tiny_chunks,
    "small-1k": small_1k,
}


def make(name: str, seed: int, nproc: int) -> Workload:
    return GENERATORS[name](seed, nproc)
