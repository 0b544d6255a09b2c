"""Independent answer checker: re-scores every answer from the raw input pairs.

It never calls into kcut, so a scoring bug in the program cannot hide
behind the same bug in the check.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

Pair = Tuple[int, int]


def rescore(pairs: Sequence[Pair], blocks: Sequence[Sequence[str]]) -> int:
    """Number of input edges whose endpoints lie in different blocks."""
    where = {}
    for i, block in enumerate(blocks):
        for label in block:
            where[label] = i
    return sum(1 for u, v in pairs if where[str(u)] != where[str(v)])


def problem(pairs: Sequence[Pair], k: int, blocks: Iterable[Sequence[str]], value: int,
            reference: int) -> Optional[str]:
    """Why an answer is invalid, or None when it is a valid k-cut.

    Valid means: exactly k nonempty, disjoint blocks covering every vertex
    of the input, a value equal to the re-score over the input pairs, and a
    value no lower than the reference (an optimum or a proven lower bound).
    """
    blocks = [list(b) for b in blocks]
    if len(blocks) != k:
        return "%d blocks, expected %d" % (len(blocks), k)
    if any(not b for b in blocks):
        return "empty block"
    vertices = {str(v) for p in pairs for v in p}
    seen = [label for b in blocks for label in b]
    if len(seen) != len(set(seen)):
        return "a vertex lies in two blocks"
    if set(seen) != vertices:
        return "blocks do not cover exactly the input vertices"
    true_value = rescore(pairs, blocks)
    if value != true_value:
        return "reported value %d, re-scored %d" % (value, true_value)
    if value < reference:
        return "value %d below reference %d" % (value, reference)
    return None
