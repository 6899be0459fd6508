"""Order programs for the built-in arrangements, plus structure checks.

A program is an order of the slots: the slot that comes k-th in the
order receives rank k, the k-th smallest value.  The built-in orders are

* ascending: slots 0, 1, ..., n-1;
* descending: the same, reversed;
* bst: the in-order of the binary tree, so the filled tree is a binary
  search tree;
* heap: the post-order, each slot after the subtrees of its children,
  left to right.  A slot thus follows its whole subtree and takes the
  top rank in it, so the filled tree is a max-heap for any branching.

Trees are stored in breadth-first array form: slot 0 is the root and the
children of slot i are slots b*i+1 .. b*i+b (those below n).  All levels
are full except possibly the last, which fills left to right, so a size
alone fixes the shape.

The structure checks read the values the same way: validate_bst along
the in-order, validate_heap from every slot to its parent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, InvalidSize, UnsupportedBranching
from .model import OrderProgram, _integral, _reals


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


def ascending_program(n: int) -> OrderProgram:
    """Slot i receives the (i+1)-th smallest value: a plain sort."""
    return _ranked(range(_check_size(n)), "ascending")


def descending_program(n: int) -> OrderProgram:
    """Reverse sort: slot 0 gets the largest value."""
    return _ranked(range(_check_size(n) - 1, -1, -1), "descending")


def bst_program(n: int, branching: int = 2) -> OrderProgram:
    """Ranks along the in-order of the binary tree.

    Only branching 2 is meaningful for a search order; OrderProgram
    refuses any other.
    """
    return _ranked(_inorder(_check_size(n)), "bst", branching)


def heap_program(n: int, branching: int = 2) -> OrderProgram:
    """Ranks along the post-order: the root gets rank n, and each child
    subtree a contiguous block of 1..n-1, the lowest to the leftmost."""
    shape = TreeShape(_check_size(n), branching)
    return _ranked(_postorder(shape), "heap", shape.branching)


def validate_bst(values, shape: TreeShape) -> bool:
    """True when the values read in in-order never decrease, so no slot's
    left subtree holds a larger value and no right subtree a smaller one.

    Repeated values pass; a NaN entry fails.  Never raises on the value of
    an entry; the shape must have branching 2.
    """
    if shape.branching != 2:
        raise UnsupportedBranching("search-tree validation exists for branching 2 only")
    vals = _slot_values(values, shape)
    read = vals[_inorder(shape.size)]
    return bool((read[:-1] <= read[1:]).all()) and not np.isnan(vals).any()


def validate_heap(values, shape: TreeShape) -> bool:
    """True when no slot's value is above its parent's.

    Repeated values pass; a NaN entry fails.  Never raises on the value of
    an entry.
    """
    vals = _slot_values(values, shape)
    parents = np.arange(shape.size - 1) // shape.branching  # of slots 1 .. n-1
    return bool((vals[1:] <= vals[parents]).all()) and not np.isnan(vals).any()


def _check_size(n: int) -> int:
    """n as an int, which it must equal (3.0 is 3; 3.5 and "3" raise)."""
    n = _integral(n, "n")
    if n < 1:
        raise InvalidSize("programs exist for n >= 1")
    return n


def _ranked(order, kind: str, branching: int = 2) -> OrderProgram:
    """The program that gives the k-th slot of order rank k."""
    ranks = [0] * len(order)
    for rank, slot in enumerate(order, 1):
        ranks[slot] = rank
    return OrderProgram(tuple(ranks), kind=kind, branching=branching)


def _inorder(n: int) -> list[int]:
    """The slots of the binary tree, each after its left subtree and before
    its right one."""
    order: list[int] = []

    def walk(slot: int) -> None:
        if slot >= n:
            return
        walk(2 * slot + 1)
        order.append(slot)
        walk(2 * slot + 2)

    walk(0)
    return order


def _postorder(shape: TreeShape) -> list[int]:
    """The slots, each after the subtrees of its children, left to right."""
    order: list[int] = []

    def walk(slot: int) -> None:
        for child in shape.children(slot):
            walk(child)
        order.append(slot)

    walk(0)
    return order


def _slot_values(values, shape: TreeShape) -> np.ndarray:
    """values under the value rule, one real number per slot of shape."""
    vals = _reals(values, "values")
    if vals.ndim != 1:
        raise DomainError(f"values must be a vector, not of shape {vals.shape}")
    if vals.size != shape.size:
        raise DimensionMismatch(f"{vals.size} values for a tree of {shape.size} slots")
    return vals
