import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qperm import (
    InvalidSize,
    OrderProgram,
    QpermError,
    ascending_program,
    bst_program,
    descending_program,
    heap_program,
    validate_bst,
    validate_heap,
)

from . import reference
from .conftest import PROGRAMS


def arrange(values, ranks):
    """Slot i receives the ranks[i]-th smallest value."""
    ordered = sorted(values)
    return [ordered[r - 1] for r in ranks]


def children(n, b, slot):
    """The children of slot in the breadth-first tree of n slots and arity b."""
    return range(b * slot + 1, min(b * slot + b + 1, n))


class TestTreeArguments:
    """A tree is its values, one slot each, and for a heap an arity."""

    @pytest.mark.parametrize(
        "check", [validate_bst, validate_heap, lambda v: validate_heap(v, 3)],
        ids=["bst", "heap", "heap3"],
    )
    @pytest.mark.parametrize("values", [[], np.array([]), ()], ids=["list", "array", "tuple"])
    def test_no_values_is_no_tree(self, check, values):
        """No values make no tree, at any arity."""
        with pytest.raises(InvalidSize, match="^a tree needs at least one slot$"):
            check(values)

    def test_integral_float_arity_is_that_arity(self):
        y = [7.0, 4.0, 5.0, 6.0, 1.0, 2.0, 3.0]  # heap_program(7, 3) over 1..7
        assert validate_heap(y, 3.0) and validate_heap(y, np.int8(3))
        assert not validate_heap(y, 2.0) and not validate_heap(y, 2)

    @pytest.mark.parametrize("b", [3, 4, 2**63 - 1, 2**63, 10**30, 1e30])
    def test_an_arity_of_n_minus_one_or_more_makes_a_star(self, b):
        """Once b >= n - 1 every slot's parent is the root.  An arity of
        2^63 or more once raised a bare OverflowError in validate_heap."""
        assert validate_heap([3, 1, 2], b)
        assert not validate_heap([1, 3, 2], b)
        assert validate_heap([3.0, 1.0, 2.0, 2.0], b) and not validate_heap([3.0, 1.0, 2.0, 2.0])
        assert not validate_heap([2.0, 1.0, 1.0, 3.0], b)
        assert validate_heap([math.inf], b) and not validate_heap([math.nan], b)


class TestLinearPrograms:
    def test_ascending(self):
        assert ascending_program(4).ranks == (1, 2, 3, 4)
        assert ascending_program(4).kind == "ascending"

    def test_descending(self):
        assert descending_program(4).ranks == (4, 3, 2, 1)

    def test_size_validated(self):
        with pytest.raises(InvalidSize):
            ascending_program(0)


class TestBstProgram:
    def test_seven_slots(self):
        assert bst_program(7).ranks == (4, 2, 6, 1, 3, 5, 7)

    def test_three_slots(self):
        assert bst_program(3).ranks == (2, 1, 3)

    def test_single_slot(self):
        assert bst_program(1).ranks == (1,)

    def test_binary_only(self):
        with pytest.raises(InvalidSize):
            bst_program(5, branching=3)

    @given(st.integers(min_value=1, max_value=32))
    @settings(max_examples=30)
    def test_ranks_are_permutations(self, n):
        assert sorted(bst_program(n).ranks) == list(range(1, n + 1))


class TestHeapProgram:
    def test_seven_slots_binary(self):
        assert heap_program(7).ranks == (7, 3, 6, 1, 2, 4, 5)

    def test_seven_slots_ternary(self):
        assert heap_program(7, branching=3).ranks == (7, 4, 5, 6, 1, 2, 3)

    def test_single_slot(self):
        assert heap_program(1).ranks == (1,)

    def test_root_always_largest(self):
        for n in range(1, 12):
            assert heap_program(n).ranks[0] == n

    @given(
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=40)
    def test_ranks_are_permutations(self, n, b):
        assert sorted(heap_program(n, b).ranks) == list(range(1, n + 1))

    @pytest.mark.parametrize("b", [2, 3, 4, 5])
    def test_ranks_follow_the_tree_definition(self, b):
        """Each slot holds the top rank of its block, and its children split
        the rest in order, each block as large as the child's subtree."""
        for n in range(1, 201):
            want = [0] * n

            def subtree_size(slot):
                return 1 + sum(subtree_size(child) for child in children(n, b, slot))

            def assign(root, low, high):
                want[root] = high
                for child in children(n, b, root):
                    size = subtree_size(child)
                    assign(child, low, low + size - 1)
                    low += size

            assign(0, 1, n)
            assert heap_program(n, b).ranks == tuple(want), n


class TestMakersArePublicPrograms:
    """The makers form their programs without OrderProgram's checks, which
    ranks they make by construction pass."""

    def test_every_maker_equals_the_checked_program(self):
        for n in range(1, 65):
            programs = [ascending_program(n), descending_program(n), bst_program(n)]
            programs += [heap_program(n, b) for b in range(2, 6)]
            for p in programs:
                checked = OrderProgram(list(p.ranks), p.kind, p.branching)
                assert p == checked and hash(p) == hash(checked), (n, p.kind, p.branching)
                assert type(p.ranks) is tuple and all(type(rank) is int for rank in p.ranks)
                assert type(p.branching) is int

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: ascending_program(0), "programs exist for n >= 1"),
            (lambda: descending_program(3.5), "n must be an integer, not 3.5"),
            (lambda: heap_program(None), "n must be an integer"),
            (lambda: heap_program(0, 1), "programs exist for n >= 1"),
            (lambda: heap_program(5, 1), "branching must be at least 2"),
            (lambda: heap_program(5, "3"), "branching must be an integer, not '3'"),
            (lambda: bst_program(0, 3), "programs exist for n >= 1"),
            (lambda: bst_program(7, 1), "branching must be at least 2"),
            (lambda: bst_program(7, 2.5), "branching must be an integer, not 2.5"),
            (lambda: bst_program(7, 3), "search-tree programs exist for branching 2 only"),
            (lambda: bst_program(7, 3.0), "search-tree programs exist for branching 2 only"),
        ],
    )
    def test_every_refusal_keeps_its_type_and_text(self, make, message):
        """n is read first, then the arity, then the search tree's arity of 2."""
        with pytest.raises(InvalidSize) as raised:
            make()
        assert type(raised.value) is InvalidSize and str(raised.value) == message


class TestRankDigest:
    def test_every_built_in_program_keeps_its_ranks(self):
        """The ranks of every kind at n = 1..300, heap at branching 2..6,
        hashed as first recorded, when heap_program filled subtree blocks
        top down and bst_program walked its own in-order."""
        digest = hashlib.sha256()
        for n in range(1, 301):
            programs = [ascending_program(n), descending_program(n), bst_program(n)]
            programs += [heap_program(n, b) for b in range(2, 7)]
            for p in programs:
                digest.update(f"{p.kind} {p.branching} {p.ranks}\n".encode())
        assert digest.hexdigest() == (
            "954998a475a73ac9c9a6ddd133efbee974c4b0fd6230e11bde8d1ad792ab7cb6"
        )


class TestValidateBst:
    def test_arranged_values_pass(self):
        values = [46.0, 52.0, -12.0, 33.0, 10.0, 51.0, 24.0]
        y = arrange(values, bst_program(7).ranks)
        assert y == [33.0, 10.0, 51.0, -12.0, 24.0, 46.0, 52.0]
        assert validate_bst(y)

    def test_violation_detected(self):
        assert not validate_bst([1.0, 2.0, 3.0])

    def test_duplicates_allowed(self):
        """Equal values once failed, however they were placed: the bounds
        were strict."""
        assert validate_bst([1.0, 1.0])
        assert validate_bst([1.0, 1.0, 1.0])
        assert not validate_bst([1.0, 1.0, 0.0])

    @given(
        st.lists(
            st.sampled_from([-2.0, -0.0, 0.0, 1.0, 1.5, 3.0, 1e300]), min_size=2, max_size=15
        ).filter(lambda v: len(set(v)) < len(v))
    )
    @example([3.0, 1.0, 1.0, 2.0, 3.0, 0.0, 2.0])
    @example([1.0, 1.0, 1.0])
    @settings(max_examples=60)
    def test_repeated_values_in_order_pass_and_any_swap_fails(self, values):
        """The bst arrangement of values with repeats passes, and swapping any
        two unequal values in it breaks the non-decreasing in-order reading."""
        n = len(values)
        y = arrange(values, bst_program(n).ranks)
        assert validate_bst(y)
        for i in range(n):
            for j in range(i + 1, n):
                if y[i] != y[j]:
                    swapped = list(y)
                    swapped[i], swapped[j] = y[j], y[i]
                    assert not validate_bst(swapped), (i, j)

    @given(
        st.integers(min_value=1, max_value=20),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40)
    def test_program_arrangement_always_valid(self, n, rnd):
        values = rnd.sample(range(-1000, 1000), n)
        y = arrange(values, bst_program(n).ranks)
        assert validate_bst(y)


class TestValidateHeap:
    def test_arranged_values_pass(self):
        values = [46.0, 52.0, -12.0, 33.0, 10.0, 51.0, 24.0]
        y = arrange(values, heap_program(7).ranks)
        assert y == [52.0, 24.0, 51.0, -12.0, 10.0, 33.0, 46.0]
        assert validate_heap(y)

    def test_violation_detected(self):
        assert not validate_heap([1.0, 2.0, 3.0])

    def test_duplicates_allowed(self):
        assert validate_heap([2.0, 2.0, 1.0])

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=2, max_value=4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40)
    def test_program_arrangement_always_valid(self, n, b, rnd):
        values = rnd.sample(range(-1000, 1000), n)
        y = arrange(values, heap_program(n, b).ranks)
        assert validate_heap(y, b)


class TestProgramSizes:
    @pytest.mark.parametrize("kind", sorted(PROGRAMS))
    @pytest.mark.parametrize("bad", [3.5, "3", None, 2**0.5, True, np.True_])
    def test_sizes_are_never_truncated_or_parsed(self, kind, bad):
        """ascending_program(3.5), bst_program(3.5) and heap_program("3") once
        raised a bare TypeError, which is not a QpermError; heap_program(True)
        once made a one-slot program."""
        with pytest.raises(InvalidSize):
            PROGRAMS[kind](bad)

    @pytest.mark.parametrize("kind", sorted(PROGRAMS))
    def test_integral_float_size_is_that_size(self, kind):
        assert PROGRAMS[kind](3.0) == PROGRAMS[kind](3)


ALPHABET = (-math.inf, -1.0, -0.0, 0.0, 1.0, math.inf, math.nan)


def reference_verdicts(values, b):
    """(bst, heap) verdicts of the reference checks; bst is None unless b is
    2.  A lone NaN fails both library checks, unlike the reference heap."""
    lone_nan = len(values) == 1 and math.isnan(values[0])
    bst = reference.validate_bst(values, len(values)) if b == 2 else None
    heap = reference.validate_heap(values, len(values), b) and not lone_nan
    return bst, heap


def verdicts(values, b):
    return (validate_bst(values) if b == 2 else None), validate_heap(values, b)


class TestValidatorsMatchTheReference:
    @pytest.mark.parametrize("b", [2, 3, 2**63], ids=["2", "3", "2^63"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_list_over_the_alphabet(self, n, b):
        """Signed zeros, infinities and NaN in every position, as lists and
        as float arrays."""
        for values in itertools.product(ALPHABET, repeat=n):
            want = reference_verdicts(values, b)
            assert verdicts(list(values), b) == want, values
            assert verdicts(np.array(values), b) == want, values

    @given(
        st.lists(st.floats() | st.integers(-3, 3), min_size=1, max_size=40),
        st.integers(min_value=2, max_value=5),
    )
    @example([math.nan], 2)
    @example([2, 1, 2**70], 2)
    @settings(max_examples=200)
    def test_any_real_list(self, values, b):
        assert verdicts(values, b) == reference_verdicts(values, b)


class TestOneNanRule:
    def test_a_lone_nan_fails_both_checks(self):
        """validate_heap once passed [nan]: a lone slot has no child to
        compare with, while validate_bst's bounds failed it."""
        assert not validate_bst([math.nan])
        assert not validate_heap([math.nan])
        assert not validate_heap([math.nan], 3)
        assert validate_bst([math.inf])
        assert validate_heap([-math.inf])


class TestValidatorValueRule:
    @pytest.mark.parametrize("check", [validate_bst, validate_heap])
    @pytest.mark.parametrize(
        "values, what",
        [([[3, 2], [1, 0]], "(2, 2)"), ([[3, 2, 1]], "(1, 3)"), (5, "()")],
        ids=["grid", "row", "scalar"],
    )
    def test_refuses_what_is_not_a_vector(self, check, values, what):
        """A grid was once flattened.  Strings, booleans, None and ragged
        nestings are refused as in every array reader (test_model)."""
        message = f"values must be a vector, not of shape {what}"
        with pytest.raises(QpermError, match=f"^{re.escape(message)}$"):
            check(values)

    @pytest.mark.parametrize("check", [validate_bst, validate_heap])
    def test_integers_and_arrays_are_read_as_given(self, check):
        """Integers are compared as integers: 2^60 + 1 once equalled 2^60,
        both rounded to the same float."""
        assert check([2, 1, 3] if check is validate_bst else [3, 1, 2])
        assert check(np.array([1, 1, 1], dtype=np.int8))
        assert check((2**70, 2**70))
        assert not check([2**60, 2**60 + 1])
