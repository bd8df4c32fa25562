"""The equivalence theorem over every matching path: each entry of the
path table returns exactly ``naive_match``'s indices, for random and
adversarial inputs and for chunk sizes on both sides of the target length."""

from hypothesis import example, given, settings

from parmatch import ChunkPlan

from support import assert_paths_agree, bt, path_cases


@given(case=path_cases())
@example(case=(bt("abababa"), bt("aba"), ChunkPlan(2, 3)))
@example(case=(bt("ababcabcab"), bt("abcab"), ChunkPlan(2, 4)))  # a chunk seam splits index 5
@example(case=(bt(""), bt("aba"), ChunkPlan(3, 5)))
@example(case=(bt("aabbaabb"), bt("ab"), ChunkPlan(1, 1)))
@settings(max_examples=200, deadline=None)
def test_every_path_equals_naive_match(paths, case):
    assert_paths_agree(paths, *case)
