import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qperm
from qperm import oracle
from qperm import (
    DimensionMismatch,
    InvalidSize,
    OrderProgram,
    PenaltyMatrix,
    QuboInstance,
    ValueVector,
    apply_permutation,
    ascending_program,
    best_permutation,
    bst_program,
    build_qubo,
    certify,
    decode_permutation,
    heap_program,
    sort_optimum,
)

from . import reference_run as ref
from .conftest import PROGRAMS, make_program, near_float_limit, run_pipeline
from .reference import (
    _float,
    bits,
    dense,
    enumerated_best,
    exact_objective,
    exhaustive_qubo_min,
    in_rank_order,
    permutation_matrix,
    qubo_objective,
    vectorize,
)


@st.composite
def certify_cases(draw, values):
    """x drawn from values, a custom program and a permutation state, n = 1..8."""
    n = draw(st.integers(min_value=1, max_value=8))
    x = ValueVector(draw(st.lists(values, min_size=n, max_size=n)))
    program = OrderProgram(ranks=tuple(draw(st.permutations(range(1, n + 1)))), kind="custom")
    return x, program, draw(st.permutations(range(n)))


@st.composite
def enumeration_cases(draw):
    """x of n = 1..6 distinct or repeating integers, and a program of any
    kind or of custom ranks."""
    n = draw(st.integers(min_value=1, max_value=6))
    distinct = st.lists(st.integers(-1000, 1000), min_size=n, max_size=n, unique=True)
    repeating = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    x = ValueVector([float(v) for v in draw(distinct | repeating)])
    custom = st.permutations(range(1, n + 1)).map(lambda ranks: OrderProgram(ranks=tuple(ranks)))
    kinds = st.sampled_from(sorted(PROGRAMS)).map(lambda kind: make_program(kind, n))
    return x, draw(kinds | custom)


# duplicates and both zeros, or any finite float
EVERYDAY = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(allow_nan=False, allow_infinity=False)
# within a factor of 4 of +-1.7e308: most sums of products overflow, many both ways
NEAR_THE_LIMIT = st.builds(
    lambda sign, magnitude: sign * magnitude,
    st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=1.7e308 / 4, max_value=1.7e308),
)


def certified_objectives(x, program, mapping):
    """certify's report on the state of mapping, and (objective, arrangement)
    for its achieved and best objectives and for sort_optimum."""
    report = certify(x, program, vectorize(permutation_matrix(mapping)))
    best = np.empty(x.n)
    best[np.argsort(program.ranks)] = sorted(x.entries.tolist())
    arranged = x.entries[list(mapping)]
    pairs = [(report.achieved_objective, arranged), (report.best_objective, best),
             (sort_optimum(x, program), best)]
    return report, arranged, pairs


def expected_objective(y, ranks) -> float:
    """-float(y @ ranks) where that is finite; else the exact objective rounded once."""
    with np.errstate(all="ignore"):
        value = -float(np.asarray(y) @ np.asarray(ranks, dtype=float))
    return value if math.isfinite(value) else _float(exact_objective(y, ranks))


class TestBestPermutation:
    def test_sorting_semantics(self):
        p, _ = best_permutation(ValueVector([3.0, 1.0, 2.0]), ascending_program(3))
        x = ValueVector([3.0, 1.0, 2.0])
        arranged = [x.entries[c] for c in p.as_mapping]
        assert arranged == [1.0, 2.0, 3.0]

    def test_reference_heap_arrangement(self):
        x = ValueVector(ref.INPUT_X)
        p, _ = best_permutation(x, heap_program(7))
        arranged = [float(x.entries[c]) for c in p.as_mapping]
        assert arranged == ref.EXPECTED_Y["heap"]

    def test_reference_sorting_mapping(self):
        p, _ = best_permutation(ValueVector(ref.INPUT_X), ascending_program(7))
        assert p.as_mapping == ref.EXPECTED_MAPPING["ascending"]

    def test_duplicates_take_lexicographically_smallest(self):
        p, _ = best_permutation(ValueVector([5.0, 5.0]), ascending_program(2))
        assert p.as_mapping == (0, 1)

    def test_objective_value(self):
        x = ValueVector([3.0, 1.0])
        _, value = best_permutation(x, ascending_program(2))
        # best pairing on raw entries: 1*1 + 3*2
        assert value == pytest.approx(-7.0)

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_size_guard(self, n):
        with pytest.raises(InvalidSize, match=f"^n={n} exceeds the n<=8 enumeration budget$"):
            best_permutation(ValueVector(np.arange(float(n))), ascending_program(n))

    def test_size_guard_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_ORACLE_N", 3)
        p, _ = best_permutation(ValueVector([3.0, 1.0, 2.0]), ascending_program(3))
        assert p.as_mapping == (1, 2, 0)
        with pytest.raises(InvalidSize, match="^n=4 exceeds the n<=3 enumeration budget$"):
            best_permutation(ValueVector([3.0, 1.0, 2.0, 0.0]), ascending_program(4))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="^x has 2 entries but the program has 3 slots$"):
            best_permutation(ValueVector([1.0, 2.0]), ascending_program(3))

    @given(
        st.integers(min_value=1, max_value=6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_comparison_sort(self, n, rnd):
        values = rnd.sample(range(-500, 500), n)
        x = ValueVector([float(v) for v in values])
        p, _ = best_permutation(x, ascending_program(n))
        arranged = [float(x.entries[c]) for c in p.as_mapping]
        assert arranged == sorted(float(v) for v in values)

    @given(enumeration_cases())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_exact_enumeration(self, case):
        """On integers every float sum is exact, so the pick is the first
        exact minimum, and the value is sort_optimum's, bit for bit."""
        x, program = case
        p, value = best_permutation(x, program)
        assert p.as_mapping == enumerated_best(x.entries, program.ranks)[0]
        assert bits(value) == bits(sort_optimum(x, program))

    @pytest.mark.parametrize("kind", ["ascending", "bst", "heap"])
    @pytest.mark.parametrize(
        "values",
        [near_float_limit(n) for n in range(2, 9)] + [[1.7e308, -1.7e308, 1.7e308]],
        ids=[f"n{n}" for n in range(2, 9)] + ["three-entries"],
    )
    def test_scores_beyond_the_float_range(self, values, kind):
        """Products with the ranks overflow both ways, so float scores are
        infinite or NaN; the pick is still in rank order, and its value is
        sort_optimum's.  No RuntimeWarning, an error under the project's
        filter, is raised."""
        x = ValueVector(values)
        program = make_program(kind, x.n)
        p, value = best_permutation(x, program)
        assert in_rank_order(apply_permutation(p, x), program.ranks)
        assert bits(value) == bits(sort_optimum(x, program))


class TestSortOptimum:
    def test_reference_heap_value(self):
        x = ValueVector(ref.INPUT_X)
        program = heap_program(7)
        expected = -float(np.asarray(ref.EXPECTED_Y["heap"]) @ np.asarray(program.ranks))
        assert sort_optimum(x, program) == expected

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sort_optimum(ValueVector([1.0, 2.0]), ascending_program(3))

    def test_no_size_guard(self):
        n = 2000
        value = sort_optimum(ValueVector(np.arange(float(n))), ascending_program(n))
        assert value == -sum(k * (k - 1) for k in range(1, n + 1))

    @given(
        st.integers(min_value=1, max_value=8),
        st.sampled_from(sorted(PROGRAMS) + ["custom"]),
        st.sampled_from(["distinct", "duplicate", "signed"]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_enumeration(self, n, kind, style, rnd):
        # integer values keep every objective exact, so the reference is exact too
        if style == "distinct":
            values = [float(v) for v in rnd.sample(range(0, 10 * n), n)]
        elif style == "duplicate":
            values = [float(rnd.randint(-2, 2)) for _ in range(n)]
        else:
            values = [float(rnd.randint(-1000, 1000)) for _ in range(n)]
        if kind == "custom":
            ranks = list(range(1, n + 1))
            rnd.shuffle(ranks)
            program = OrderProgram(ranks=tuple(ranks), kind="custom")
        else:
            program = make_program(kind, n)
        x = ValueVector(values)
        p_best, best = best_permutation(x, program)
        assert sort_optimum(x, program) == best

        # certify's verdict is the enumeration's, for an optimal and an arbitrary state
        ranks = np.asarray(program.ranks, dtype=float)
        for mapping in (list(p_best.as_mapping), rnd.sample(range(n), n)):
            matrix = np.zeros((n, n))
            matrix[np.arange(n), mapping] = 1.0
            report = certify(x, program, vectorize(matrix))
            assert report.best_objective == best
            achieved = -float(x.entries[mapping] @ ranks)
            assert report.achieved_objective == achieved
            assert report.optimal == (achieved == best)


class TestExhaustiveQuboMin:
    def test_positive_linear_term_keeps_zero(self):
        inst = QuboInstance(matrix_R=PenaltyMatrix(2, 0.0, 0.0, 0.0), vector_r=np.ones(4))
        z, value = exhaustive_qubo_min(inst)
        assert z.tolist() == [0, 0, 0, 0]
        assert value == 0.0

    def test_negative_linear_term_fills_ones(self):
        inst = QuboInstance(matrix_R=PenaltyMatrix(2, 0.0, 0.0, 0.0), vector_r=-np.ones(4))
        z, value = exhaustive_qubo_min(inst)
        assert z.tolist() == [1, 1, 1, 1]
        assert value == -4.0

    def test_tie_breaks_to_smallest_encoding(self):
        inst = QuboInstance(matrix_R=PenaltyMatrix(2, 0.0, 0.0, 0.0), vector_r=np.zeros(4))
        z, value = exhaustive_qubo_min(inst)
        assert z.tolist() == [0, 0, 0, 0]
        assert value == 0.0

    def test_minimizer_is_sorting_permutation(self):
        x = ValueVector([3.0, 1.0, 2.0])
        inst = build_qubo(x, ascending_program(3))
        z, _ = exhaustive_qubo_min(inst)
        p = decode_permutation(z)
        assert [float(x.entries[c]) for c in p.as_mapping] == [1.0, 2.0, 3.0]

    def test_agrees_with_best_permutation_objective(self):
        x = ValueVector([3.0, 1.0, 2.0])
        inst = build_qubo(x, ascending_program(3))
        _, value = exhaustive_qubo_min(inst)
        zp, best_value = best_permutation(x, ascending_program(3))
        assert value == pytest.approx(qubo_objective(*dense(inst), vectorize(permutation_matrix(zp.as_mapping))))

    def test_size_guard(self):
        inst = QuboInstance(matrix_R=PenaltyMatrix(5, 0.0, 0.0, 0.0), vector_r=np.zeros(25))
        with pytest.raises(InvalidSize):
            exhaustive_qubo_min(inst)

    def test_lives_in_the_tests_only(self):
        """The package exported it and qperm verify --exhaustive called it;
        certify is exact at every n, so only the tests enumerate states."""
        assert "exhaustive_qubo_min" not in qperm.__all__
        assert not hasattr(qperm, "exhaustive_qubo_min")
        assert not hasattr(qperm.oracle, "exhaustive_qubo_min")


class TestCertify:
    def test_reference_sorting_run_passes(self, reference_x):
        program = ascending_program(7)
        z, _, _ = run_pipeline(reference_x, program)
        report = certify(reference_x, program, z)
        assert report.feasible
        assert report.optimal
        assert report.structure_valid is None
        assert report.passed
        assert report.mapping == ref.EXPECTED_MAPPING["ascending"]

    def test_reference_tree_run_checks_structure(self, reference_x):
        program = bst_program(7)
        z, _, _ = run_pipeline(reference_x, program)
        report = certify(reference_x, program, z)
        assert report.passed
        assert report.structure_valid is True

    def test_corrupted_state_fails_without_raising(self, reference_x):
        program = ascending_program(7)
        z, _, _ = run_pipeline(reference_x, program)
        z = z.copy()
        z[np.argmin(z)] = 1  # one extra active neuron
        report = certify(reference_x, program, z)
        assert not report.feasible
        assert not report.passed
        assert any("decode failed" in note for note in report.notes)

    def test_feasible_but_suboptimal(self):
        x = ValueVector([3.0, 1.0])
        identity = np.eye(2)
        report = certify(x, ascending_program(2), vectorize(identity))
        assert report.feasible
        assert not report.optimal
        assert not report.passed
        assert report.achieved_objective > report.best_objective

    @pytest.mark.parametrize(
        "values, wrong, right",
        [
            # both objectives of the wrong order overflow to -inf
            ([1e308, 1.5e308, 0.0], (0, 1, 2), (2, 0, 1)),
            # only the optimum overflows; the right order overflows too
            ([1e308, -1e308, 0.0], (0, 1, 2), (1, 2, 0)),
        ],
    )
    def test_objectives_beyond_float_range(self, values, wrong, right):
        x = ValueVector(values)
        program = ascending_program(3)
        with np.errstate(all="raise"):
            report = certify(x, program, vectorize(permutation_matrix(wrong)))
            assert report.feasible and not report.optimal
            assert certify(x, program, vectorize(permutation_matrix(right))).optimal

    @pytest.mark.parametrize(
        "values, note",
        [
            (
                [0.0, 1e17, 1e17 + 64, 1e17 + 32],
                "slot 1 holds 1.0000000000000003e+17, not 1e+17, a gap of 3.2e-16 of the spread",
            ),
            (
                [-1.7e308, 1.7e308, 1.0, 5.0, -3.0],
                "slot 2 holds 5.0, not 1.0, a gap of 1.2e-308 of the spread",
            ),
        ],
        ids=["values0", "values1"],
    )
    def test_endpoint_below_float_resolution_fails(self, values, note):
        """Gaps below about 2^-52 of the spread are lost to the descent's gains,
        so it returns those values out of order; the objectives agree to within
        1e-9 relative, but the order check sees the wrong order and names the
        first slot out of place."""
        x = ValueVector(values)
        program = ascending_program(x.n)
        z, _, _ = run_pipeline(x, program)
        assert apply_permutation(decode_permutation(z), x).tolist() != sorted(values)
        report = certify(x, program, z)
        assert report.feasible and not report.optimal and not report.passed
        assert report.notes == (f"out of order: {note}",)

    def test_tiny_magnitudes_in_the_wrong_order_fail(self):
        x = ValueVector([1e-10, 2e-10, 3e-10])
        program = ascending_program(3)
        report = certify(x, program, vectorize(permutation_matrix((2, 1, 0))))
        assert report.feasible and not report.optimal
        assert abs(report.achieved_objective - report.best_objective) < 1e-9
        z, _, _ = run_pipeline(x, program)
        assert certify(x, program, z).passed

    def test_duplicate_values_noted(self):
        x = ValueVector([5.0, 5.0])
        report = certify(x, ascending_program(2), vectorize(np.eye(2)))
        assert report.optimal
        assert any("objective-tie" in note for note in report.notes)

    @pytest.mark.parametrize(
        "values, arranged",
        [([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]), ([3, 1, 1, 2, 3, 0, 2], [2, 1, 3, 0, 1, 2, 3])],
    )
    def test_search_tree_with_repeated_values_passes(self, values, arranged):
        """Both once certified feasible and optimal but failed the structure
        check, whose bounds were strict."""
        x = ValueVector(values)
        program = bst_program(x.n)
        z, _, _ = run_pipeline(x, program)
        assert apply_permutation(decode_permutation(z), x).tolist() == arranged
        report = certify(x, program, z)
        assert report.structure_valid is True and report.passed

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e300]), min_size=1, max_size=6))
    @example([0.0, -0.0, 1.0])
    @example([1.0, 2.0, 1.0])
    @example([1.0, 2.0])
    @settings(max_examples=60, deadline=None)
    def test_tie_note_exactly_when_a_value_repeats(self, values):
        """-0.0 and 0.0 are one value, as == has it."""
        x = ValueVector(values)
        report = certify(x, ascending_program(x.n), vectorize(np.eye(x.n)))
        noted = any("objective-tie" in note for note in report.notes)
        assert noted == (len(set(values)) < len(values))

    @pytest.mark.parametrize("kind", ["ascending", "bst", "heap"])
    def test_sorts_the_values_once(self, reference_x, kind):
        """The optimum and the tie note read one sort of x."""
        program = make_program(kind, 7)
        z, _, _ = run_pipeline(reference_x, program)
        with mock.patch.object(oracle.np, "sort", wraps=np.sort) as sort:
            report = certify(reference_x, program, z)
        assert report.passed
        assert sort.call_count == 1

    @given(certify_cases(EVERYDAY))
    @example((ValueVector([0.0, -0.0]), OrderProgram(ranks=(2, 1)), (0, 1)))
    @example((ValueVector([-0.0, 0.0, -1.0]), OrderProgram(ranks=(3, 1, 2)), (0, 2, 1)))
    @settings(max_examples=300, deadline=None)
    def test_verdict_is_the_pairwise_rule_and_objectives_the_float_sums(self, case):
        """optimal holds exactly when the arranged values, read in increasing
        rank order, never decrease; where -y^T ranks is finite in floats,
        every objective is that float sum, bit for bit."""
        x, program, mapping = case
        report, arranged, pairs = certified_objectives(x, program, mapping)
        assert report.feasible
        assert report.optimal == in_rank_order(arranged, program.ranks)
        for objective, y in pairs:
            assert bits(objective) == bits(expected_objective(y, program.ranks))

    @given(certify_cases(NEAR_THE_LIMIT))
    @settings(max_examples=200, deadline=None)
    def test_objectives_near_the_float_limit(self, case):
        """Where the float sum overflows or is inf - inf, each objective is
        the exact sum rounded once: never NaN, and an infinity only beyond
        the float range.  No RuntimeWarning is raised."""
        x, program, mapping = case
        report, arranged, pairs = certified_objectives(x, program, mapping)
        assert report.optimal == in_rank_order(arranged, program.ranks)
        for objective, y in pairs:
            assert not math.isnan(objective)
            assert bits(objective) == bits(expected_objective(y, program.ranks))

    @pytest.mark.parametrize(
        "values, best",
        [([-1e308, -1e308, 1e308], 0.0), (near_float_limit(24), -math.inf)],
        ids=["cancels-to-zero", "beyond-the-range"],
    )
    def test_overflowing_sums_give_the_exact_objective(self, values, best):
        """The float sums overflow, to -inf and +inf in one sum; the first
        optimum is exactly 0, the second about -107 times the float maximum."""
        x = ValueVector(values)
        program = ascending_program(x.n)
        mapping = tuple(np.argsort(values, kind="stable").tolist())
        report, _, pairs = certified_objectives(x, program, mapping)
        assert report.passed
        for objective, y in pairs:
            assert objective == best == _float(exact_objective(y, program.ranks))

    @given(certify_cases(EVERYDAY | NEAR_THE_LIMIT))
    @example((ValueVector([0.0, 5e-324]), OrderProgram(ranks=(1, 2)), (1, 0)))
    @example((ValueVector([-1.7e308, 1.7e308, 0.0]), OrderProgram(ranks=(1, 2, 3)), (0, 1, 2)))
    @settings(max_examples=300, deadline=None)
    def test_an_arrangement_out_of_order_names_its_first_wrong_slot(self, case):
        """One note, on failure only: the first slot where the state's
        arrangement differs from the optimal one, both values, and their
        distance as a share of max(x) - min(x), exact to two digits."""
        x, program, mapping = case
        report, arranged, pairs = certified_objectives(x, program, mapping)
        best = pairs[1][1]
        noted = [note for note in report.notes if note.startswith("out of order")]
        if report.optimal:
            assert noted == []
            return
        slot, held, wanted, gap = re.fullmatch(
            r"out of order: slot ([0-9]+) holds (\S+), not (\S+), a gap of (\S+) of the spread",
            *noted,
        ).groups()
        i = int(slot)
        assert (arranged[:i] == best[:i]).all() and arranged[i] != best[i]
        assert (float(held), float(wanted)) == (arranged[i], best[i])
        low, high = (Fraction(v) for v in (x.entries.min(), x.entries.max()))
        exact = abs(Fraction(arranged[i]) - Fraction(best[i])) / (high - low)
        assert float(gap) == pytest.approx(float(exact), rel=0.06)

    def test_wrong_state_size_fails(self, reference_x):
        report = certify(reference_x, ascending_program(7), vectorize(np.eye(2)))
        assert not report.feasible

    def test_heap_structure_failure_detected(self):
        # feasible permutation, wrong shape for a max-heap
        x = ValueVector([1.0, 2.0, 3.0])
        report = certify(x, heap_program(3), vectorize(np.eye(3)))
        assert report.feasible
        assert report.structure_valid is False
        assert not report.passed
