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
are full except possibly the last, which fills left to right.

The structure checks read the values the same way, one slot per value:
validate_bst along the in-order, validate_heap from every slot to its
parent at arity b.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InvalidSize
from .model import OrderProgram, _arity, _integral, _reals


def ascending_program(n: int) -> OrderProgram:
    """Slot i receives the (i+1)-th smallest value: a plain sort."""
    return _ranked(range(_check_size(n)), "ascending")


def descending_program(n: int) -> OrderProgram:
    """Reverse sort: slot 0 gets the largest value."""
    return _ranked(range(_check_size(n) - 1, -1, -1), "descending")


def bst_program(n: int, branching: int = 2) -> OrderProgram:
    """Ranks along the in-order of the binary tree.

    Only branching 2 is meaningful for a search order; any other is refused.
    """
    n, branching = _check_size(n), _arity(branching, "bst")
    return _ranked(_inorder(n), "bst", branching)


def heap_program(n: int, branching: int = 2) -> OrderProgram:
    """Ranks along the post-order: the root gets rank n, and each child
    subtree a contiguous block of 1..n-1, the lowest to the leftmost."""
    n, branching = _check_size(n), _arity(branching)
    return _ranked(_postorder(n, branching), "heap", branching)


def validate_bst(values) -> bool:
    """True when the values, one per slot of the binary tree, read in
    in-order never decrease, so no slot's left subtree holds a larger
    value and no right subtree a smaller one.

    Repeated values pass; a NaN entry fails.  Never raises on the value of
    an entry.
    """
    vals = _slot_values(values)
    read = vals[_inorder(vals.size)]
    return bool((read[:-1] <= read[1:]).all()) and not np.isnan(vals).any()


def validate_heap(values, branching: int = 2) -> bool:
    """True when no slot's value is above its parent's in the tree of
    arity branching, one slot per value.

    Repeated values pass; a NaN entry fails.  Never raises on the value of
    an entry.
    """
    branching = _arity(branching)
    vals = _slot_values(values)
    # The parents of slots 1 .. n-1; from b = n on, every parent is slot 0.
    parents = np.arange(vals.size - 1) // min(branching, vals.size)
    return bool((vals[1:] <= vals[parents]).all()) and not np.isnan(vals).any()


def _check_size(n: int) -> int:
    """n as an int, which it must equal (3.0 is 3; 3.5 and "3" raise)."""
    n = _integral(n, "n")
    if n < 1:
        raise InvalidSize("programs exist for n >= 1")
    return n


def _ranked(order, kind: str, branching: int = 2) -> OrderProgram:
    """The program that gives the k-th slot of order, an order of all the
    slots, rank k: ranks that permute 1..n by construction."""
    ranks = [0] * len(order)
    for rank, slot in enumerate(order, 1):
        ranks[slot] = rank
    return OrderProgram._of(tuple(ranks), kind, branching)


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


def _postorder(n: int, branching: int) -> list[int]:
    """The n slots of the tree of arity branching, each after the subtrees
    of its children, left to right."""
    order: list[int] = []

    def walk(slot: int) -> None:
        first = branching * slot + 1
        for child in range(first, min(first + branching, n)):
            walk(child)
        order.append(slot)

    walk(0)
    return order


def _slot_values(values) -> np.ndarray:
    """values under the value rule, one real number per slot of a tree."""
    vals = _reals(values, "values")
    if vals.ndim != 1:
        raise DomainError(f"values must be a vector, not of shape {vals.shape}")
    if vals.size < 1:
        raise InvalidSize("a tree needs at least one slot")
    return vals
