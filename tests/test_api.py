"""The package's public names: pinned, so trimming or adding one is deliberate."""

import parmatch

PUBLIC = [
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


def test_all_is_pinned():
    assert parmatch.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in parmatch.__all__:
        assert getattr(parmatch, name) is not None, name
