"""The equivalence theorem over every matching path: each entry of the
path table returns exactly ``naive_match``'s indices, for random and
adversarial inputs and for chunk sizes on both sides of the target length."""

from hypothesis import example, given, settings

from parmatch import ChunkPlan, naive_match

from support import bt, path_cases


@given(case=path_cases())
@example(case=(bt("abababa"), bt("aba"), ChunkPlan(2, 3)))
@example(case=(bt("ababcabcab"), bt("abcab"), ChunkPlan(2, 4)))  # a chunk seam splits index 5
@example(case=(bt(""), bt("aba"), ChunkPlan(3, 5)))
@example(case=(bt("aabbaabb"), bt("ab"), ChunkPlan(1, 1)))
# chunks shorter than the target: every occurrence straddles a chunk seam
@example(case=(bt("ab" * 64), bt("ababa"), ChunkPlan(2, 1)))
@example(case=(bt("ab" * 64), bt("ababa"), ChunkPlan(2, 2)))
@example(case=(bt("ab" * 64), bt("ababa"), ChunkPlan(2, 3)))
@example(case=(bt("ab" * 64), bt("ababa"), ChunkPlan(2, 4)))
@example(case=(bt("a" * 50), bt("aaa"), ChunkPlan(3, 1)))
# the empty target matches at 0..n-1, never at n
@example(case=(bt(""), bt(""), ChunkPlan(2, 1)))
@example(case=(bt("a"), bt(""), ChunkPlan(4, 1)))
@example(case=(bt("abc"), bt(""), ChunkPlan(8, 7)))
@example(case=(bt("abcdefgh"), bt(""), ChunkPlan(2, 1)))
@settings(max_examples=200, deadline=None)
def test_every_path_equals_naive_match(paths, case):
    text, target, plan = case
    expected = tuple(naive_match(text, target))
    for name, path in paths.items():
        if target or name != "cli":  # the CLI rejects the empty target
            assert path(text, target, plan) == expected, name
