#!/usr/bin/env python3
"""Walkthrough: sequential matching and the index-stitching append.

Shows how a matcher built from two halves of a string reproduces the
matcher of the whole string, including an occurrence that exists in
neither half.
"""

from parmatch import ByteText, naive_match, sm_append, to_sm

target = ByteText(b"abcab")
whole = ByteText(b"ababcabcab")

print(f"input : {bytes(whole)!r}")
print(f"target: {bytes(target)!r}")
print()

matcher = to_sm(whole, target)
print(f"to_sm indices        : {list(matcher.indices)}")
print(f"naive oracle indices : {naive_match(whole, target)}")
print()

# Split the input so the occurrence at index 5 straddles the cut.
left, right = whole.take(7), whole.drop(7)
left_matcher = to_sm(left, target)
right_matcher = to_sm(right, target)
print(f"left  {bytes(left)!r:>14} -> {list(left_matcher.indices)}")
print(f"right {bytes(right)!r:>14} -> {list(right_matcher.indices)}")

merged = sm_append(left_matcher, right_matcher)
print(f"appended matcher     : {list(merged.indices)}")
# Whatever neither half reported (once shifted) came from the seam rescan.
from_halves = set(left_matcher.indices) | {i + len(left) for i in right_matcher.indices}
print(f"created by the seam  : {[i for i in merged.indices if i not in from_halves]}")
assert merged == matcher
print("\nappend(left, right) == match(whole)  [exact]")
