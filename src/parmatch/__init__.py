"""Parallel byte-string matching via chunkable monoids and tree reduction."""

from .bytetext import ByteText, RangeError, chunkable_ops
from .matcher import (
    StringMatcher,
    TargetMismatchError,
    matcher_ops,
    naive_match,
    sm_append,
    sm_empty,
    to_sm,
    to_sm_witness,
)
from .monoid import (
    ChunkableOps,
    LawReport,
    MonoidOps,
    MorphismWitness,
    check_monoid_laws,
    check_morphism,
    chunk,
    mconcat,
    morphism_distribution_check,
    pmap,
    pmconcat,
)
from .pipeline import ChunkPlan, EquivalenceReport, to_sm_par, verify_equivalence

__all__ = [
    "ByteText",
    "RangeError",
    "chunkable_ops",
    "StringMatcher",
    "TargetMismatchError",
    "matcher_ops",
    "naive_match",
    "sm_append",
    "sm_empty",
    "to_sm",
    "to_sm_witness",
    "ChunkableOps",
    "LawReport",
    "MonoidOps",
    "MorphismWitness",
    "check_monoid_laws",
    "check_morphism",
    "chunk",
    "mconcat",
    "morphism_distribution_check",
    "pmap",
    "pmconcat",
    "ChunkPlan",
    "EquivalenceReport",
    "to_sm_par",
    "verify_equivalence",
]

__version__ = "0.1.0"
