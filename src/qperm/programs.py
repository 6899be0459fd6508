"""Rank-vector generators for the supported orderings, plus validators.

Trees are stored in breadth-first array form: slot 0 is the root and the
children of slot i are slots b*i+1 .. b*i+b (those below n).  All levels
are full except possibly the last, which fills left to right, so a size
alone fixes the shape.

A generated program assigns rank k to the slot that should end up with
the k-th smallest value:

* ascending / descending are the two trivial rank lines;
* bst gives each slot its in-order position, so the filled tree is a
  binary search tree;
* heap gives the root the top rank and splits the remaining ranks into
  contiguous blocks, one block per child subtree, lowest block to the
  leftmost child, recursing; the filled tree is a max-heap and works for
  any branching factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidSize, UnsupportedBranching
from .model import OrderProgram, _integral


@dataclass(frozen=True)
class TreeShape:
    """Breadth-first complete tree with `size` slots and arity `branching`."""

    size: int
    branching: int = 2

    def __post_init__(self):
        size = _integral(self.size, "size")
        branching = _integral(self.branching, "branching")
        if size < 1:
            raise InvalidSize("a tree needs at least one slot")
        if branching < 2:
            raise UnsupportedBranching("branching must be at least 2")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "branching", branching)

    def children(self, slot: int) -> range:
        first = self.branching * slot + 1
        return range(first, min(first + self.branching, self.size))

    def subtree_size(self, slot: int) -> int:
        total = 0
        frontier = [slot]
        while frontier:
            j = frontier.pop()
            total += 1
            frontier.extend(self.children(j))
        return total


def ascending_program(n: int) -> OrderProgram:
    """Slot i receives the (i+1)-th smallest value: a plain sort."""
    n = _check_size(n)
    return OrderProgram(tuple(range(1, n + 1)), kind="ascending")


def descending_program(n: int) -> OrderProgram:
    """Reverse sort: slot 0 gets the largest value."""
    n = _check_size(n)
    return OrderProgram(tuple(range(n, 0, -1)), kind="descending")


def bst_program(n: int, branching: int = 2) -> OrderProgram:
    """Ranks equal to each slot's in-order position in the complete tree.

    Only branching 2 is meaningful for a search order; OrderProgram
    refuses any other.
    """
    n = _check_size(n)
    ranks = [0] * n
    for position, slot in enumerate(_inorder(n)):
        ranks[slot] = position + 1
    return OrderProgram(tuple(ranks), kind="bst", branching=branching)


def heap_program(n: int, branching: int = 2) -> OrderProgram:
    """Root gets rank n; child subtrees get contiguous blocks of 1..n-1.

    Every subtree size comes from one bottom-up pass, each slot adding its
    size to its parent's, and the blocks from one top-down pass, in O(n).
    """
    n = _check_size(n)
    shape = TreeShape(n, branching)
    sizes = [1] * n
    for slot in range(n - 1, 0, -1):
        sizes[(slot - 1) // shape.branching] += sizes[slot]
    ranks = [0] * n
    lows = [1] * n  # lows[slot]: the lowest rank of the block of slot's subtree
    ranks[0] = n
    for slot in range(n):
        block_low = lows[slot]
        for child in shape.children(slot):
            lows[child] = block_low
            block_low += sizes[child]
            ranks[child] = block_low - 1
    return OrderProgram(tuple(ranks), kind="heap", branching=branching)


def validate_bst(values, shape: TreeShape) -> bool:
    """True when every slot separates its whole left and right subtrees.

    Non-strict inequalities: no value in the left subtree is above the
    slot's and none in the right subtree is below it, so the values read in
    order never decrease and repeated values pass.  NaN fails.  Never
    raises on value content; the shape must have branching 2.
    """
    if shape.branching != 2:
        raise UnsupportedBranching("search-tree validation exists for branching 2 only")
    vals = _as_values(values, shape)

    def within(slot: int, low: float, high: float) -> bool:
        if slot >= shape.size:
            return True
        v = vals[slot]
        if not (low <= v <= high):
            return False
        return within(2 * slot + 1, low, v) and within(2 * slot + 2, v, high)

    return within(0, -np.inf, np.inf)


def validate_heap(values, shape: TreeShape) -> bool:
    """True when every slot's value is >= each of its children's values."""
    vals = _as_values(values, shape)
    return all(
        vals[slot] >= vals[child]
        for slot in range(shape.size)
        for child in shape.children(slot)
    )


def _check_size(n: int) -> int:
    """n as an int, which it must equal (3.0 is 3; 3.5 and "3" raise)."""
    n = _integral(n, "n")
    if n < 1:
        raise InvalidSize("programs exist for n >= 1")
    return n


def _inorder(n: int) -> list[int]:
    order: list[int] = []

    def walk(slot: int) -> None:
        if slot >= n:
            return
        walk(2 * slot + 1)
        order.append(slot)
        walk(2 * slot + 2)

    walk(0)
    return order


def _as_values(values, shape: TreeShape) -> np.ndarray:
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size != shape.size:
        raise DimensionMismatch(f"{vals.size} values for a tree of {shape.size} slots")
    return vals
