from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qperm import (
    DomainError,
    HopfieldInstance,
    InvalidSize,
    MaxStepsExceeded,
    PenaltyMatrix,
    ValueVector,
    apply_permutation,
    ascending_program,
    certify,
    decode_permutation,
    descending_program,
    energy,
    heap_program,
    solve,
)
from qperm import hopfield

from . import reference_run as ref
from .conftest import make_program, paper_faithful, random_start, run_pipeline
from .reference import binary_to_bipolar, dense, exact_sum, flip_gain, fraction_energy, vectorize


def small_network(seed, n=3):
    """A network on an n x n grid with Gaussian weights of either sign and a
    Gaussian theta, so descent meets landscapes no builder makes."""
    rnd = np.random.default_rng(seed)
    W = PenaltyMatrix(n, *rnd.normal(size=2), 0.0)
    return HopfieldInstance(weights_W=W, bias_theta=rnd.normal(size=n * n))


class TestReferenceRun:
    """The frozen run, through the paper's route: x scaled by sum(|x|), unshifted."""

    @pytest.fixture(autouse=True)
    def _run(self, reference_x, program_kind):
        self.kind = program_kind
        program = make_program(program_kind, 7)
        scaled = paper_faithful(ref.INPUT_X)
        self.z, self.trace, self.instance = run_pipeline(scaled, program, normalize=False)
        self.x = reference_x

    def test_energy_sequence_at_one_decimal(self):
        assert [f"{s.energy:.1f}" for s in self.trace.steps] == ref.ENERGY_STRINGS

    def test_exact_endpoint_energies(self):
        assert self.trace.steps[0].energy == pytest.approx(
            ref.INITIAL_ENERGY, abs=ref.ENDPOINT_TOL
        )
        assert self.trace.final_energy == pytest.approx(
            ref.FINAL_ENERGY, abs=ref.ENDPOINT_TOL
        )

    def test_flip_positions(self):
        assert self.trace.flipped.tolist() == ref.FLIPS[self.kind]

    def test_seven_flips_then_stable_repeat(self):
        assert self.trace.flips == 7
        assert len(self.trace.steps) == 9
        last, prev = self.trace.steps[-1], self.trace.steps[-2]
        assert np.array_equal(last.state, prev.state)
        assert last.energy == prev.energy

    def test_rows_match_the_recorded_run(self):
        state = np.full(49, -1, dtype=np.int8)
        states = [state.copy()]
        for i in ref.FLIPS[self.kind]:
            state[i] = -state[i]
            states.append(state.copy())
        states.append(state)  # the stable endpoint, repeated
        rows = self.trace.steps
        assert [row.index for row in rows] == list(range(9))
        assert all(np.array_equal(row.state, s) for row, s in zip(rows, states, strict=True))
        network = _reference_network(self.instance)
        expected = [float(fraction_energy(*dense(network), s)).hex() for s in states]
        assert [row.energy.hex() for row in rows] == expected

    def test_starts_all_inactive(self):
        assert np.all(self.trace.steps[0].state == -1)

    def test_decodes_to_expected_arrangement(self):
        p = decode_permutation(self.z)
        assert apply_permutation(p, self.x).tolist() == ref.EXPECTED_Y[self.kind]

    def test_first_flip_gain(self):
        network = _reference_network(self.instance)
        start = np.full(49, -1, dtype=np.int8)
        gain = flip_gain(*dense(network), start, ref.FLIPS[self.kind][0])
        assert f"{gain:.1f}" == f"{ref.FIRST_GAIN:.1f}"
        assert gain == pytest.approx(
            self.trace.steps[1].energy - self.trace.steps[0].energy, abs=1e-9
        )

    def test_default_route_keeps_flips_and_arrangement(self):
        # the shift moves the energies but not the order of the greedy pairing
        program = make_program(self.kind, 7)
        z, trace, _ = run_pipeline(self.x, program)
        assert trace.flipped.tolist() == ref.FLIPS[self.kind]
        y = apply_permutation(decode_permutation(z), self.x)
        assert y.tolist() == ref.EXPECTED_Y[self.kind]


def _reference_network(instance):
    from qperm import fold_diagonal, to_hopfield, to_ising

    return to_hopfield(to_ising(fold_diagonal(instance)))


class TestDyadicSum:
    """_dyadic(values, u) is (m, v): the exact sum is m * 2^v, and v is the
    least of u and the exponents of the values' last significand bits."""

    @staticmethod
    def assert_exact(values, u):
        v = min(u, int(np.frexp(values)[1].min()) - 53)
        m = exact_sum(values) / Fraction(2) ** v
        assert m.denominator == 1
        assert hopfield._dyadic(values, u) == (m.numerator, v)

    @given(st.integers(1, 5000), st.one_of(st.just(0), st.integers(-1021, 1024)),
           st.integers(0, 2**32 - 1), st.integers(-1200, 0))
    @example(1, 0, 0, 0)
    @example(5000, 1024, 1, 0)  # every term near the top of the float range
    @settings(max_examples=60, deadline=None)
    def test_values_of_one_exponent(self, size, exponent, seed, u):
        """Every value m 2^(e - 53), 2^52 <= |m| < 2^53, of one sign or mixed;
        at e = 0 some are zeros of either sign, whose exponent is 0 too."""
        rnd = np.random.default_rng(seed)
        signs = rnd.choice([-1.0, 1.0], size=size) if seed % 3 else np.full(size, 1.0)
        mantissas = rnd.integers(2**52, 2**53, size=size).astype(float) * signs
        values = np.ldexp(mantissas, exponent - 53)
        if exponent == 0:
            zeros = rnd.random(size) < 0.2
            values[zeros] = np.copysign(0.0, signs[zeros])
        assert np.ptp(np.frexp(values)[1]) == 0  # the one-sum branch
        self.assert_exact(values, u)

    @pytest.mark.parametrize("values", [[-0.0], [0.0, -0.0, -0.0], [-0.5, 0.75, -0.0]])
    def test_zeros_of_either_sign(self, values):
        self.assert_exact(np.array(values), 0)

    @given(st.integers(2, 5000), st.integers(0, 2**32 - 1), st.integers(-1200, 0))
    @example(2, 0, 0)
    @settings(max_examples=60, deadline=None)
    def test_values_of_mixed_exponents(self, size, seed, u):
        """Any finite bit patterns, with zeros and subnormals among them."""
        rnd = np.random.default_rng(seed)
        values = rnd.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)
        values[~np.isfinite(values)] = 0.0
        kind = rnd.integers(0, 3, size=size)
        subnormals = rnd.integers(-(2**52), 2**52, size=size) * 5e-324
        values = np.where(kind == 1, subnormals, np.where(kind == 2, -0.0, values))
        values[0] = 5e-324  # exponent -1073, with any other value: mixed
        assume(np.ptp(np.frexp(values)[1]) > 0)
        self.assert_exact(values, u)


class TestGainBookkeeping:
    def test_gain_matches_energy_difference(self):
        """The reference's 2 s_i ((W s)_i - theta_i) is the change in the
        library's energy."""
        network = small_network(2)
        W, theta = dense(network)
        rnd = np.random.default_rng(9)
        for _ in range(50):
            s = (rnd.integers(0, 2, size=9) * 2 - 1).astype(np.int8)
            i = int(rnd.integers(0, 9))
            flipped = s.copy()
            flipped[i] = -flipped[i]
            assert flip_gain(W, theta, s, i) == pytest.approx(
                energy(network, flipped) - energy(network, s), abs=1e-9
            )


class TestDescent:
    def test_energy_strictly_decreases_until_stable(self):
        network = small_network(4)
        _, trace = hopfield._descend(network, random_start(9, 3), 81)
        energies = [s.energy for s in trace.steps]
        for a, b in zip(energies[:-2], energies[1:-1]):
            assert b < a
        assert energies[-1] == energies[-2]

    def test_endpoint_is_single_flip_stable(self):
        network = small_network(8)
        state, _ = hopfield._descend(network, random_start(9, 1), 81)
        gains = [flip_gain(*dense(network), state, i) for i in range(9)]
        assert min(gains) >= 0.0

    def test_max_steps_budget_enforced(self):
        x = ValueVector(ref.INPUT_X)
        with pytest.raises(MaxStepsExceeded):
            run_pipeline(x, ascending_program(7), max_steps=2)

    def test_energy_overflow_is_named(self):
        """Penalty weights of 3e306 carry the start energy to -inf; the trace
        names the overflow, where descent could only stop at the start."""
        x = ValueVector([3, 1, 2, 5, 4, 0, 7, 6])
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="overflows"):
            run_pipeline(x, ascending_program(8), lambda_r=3e306, lambda_c=3e306)

    def test_explicit_initial_state(self):
        network = small_network(6)
        s0 = np.array([1, -1, 1, -1, 1, -1, 1, -1, 1], dtype=np.int8)
        _, trace = hopfield._descend(network, s0, 81)
        assert np.array_equal(trace.start, s0)
        assert np.array_equal(trace.steps[0].state, s0)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            solve(small_network(2), max_steps=-5)

    @pytest.mark.parametrize("bad", [2.9, "3", True, np.True_])
    def test_max_steps_is_never_truncated_or_parsed(self, bad):
        """2.9 once ran with a budget of 2, "3" was parsed as 3 and True read as 1."""
        with pytest.raises(InvalidSize):
            solve(small_network(2), max_steps=bad)

    def test_integral_max_steps_is_kept_as_an_int(self):
        x = ValueVector(ref.INPUT_X)
        messages = []
        for budget in (3, 3.0):
            with pytest.raises(MaxStepsExceeded) as exc:
                run_pipeline(x, ascending_program(7), max_steps=budget)
            messages.append(str(exc.value))
        assert messages == ["no stable state within 3 flips"] * 2
        _, trace, _ = run_pipeline(x, ascending_program(7), max_steps=np.int64(7))
        assert trace.flips == 7


class TestSpuriousMinima:
    """Every feasible permutation encoding is single-flip stable, so the
    landscape carries n! local minima.  These tests pin down both sides:
    on the paper's unshifted route the greedy descent is exact when at most
    one entry is negative and a two-negative input defeats it; on the
    default route, shifted by the minimum, one descent is exact for every
    input."""

    def test_every_permutation_encoding_is_stable(self):
        x = ValueVector(ref.INPUT_X)
        _, _, instance = run_pipeline(x, ascending_program(7))
        W, theta = dense(_reference_network(instance))
        rnd = np.random.default_rng(0)
        for _ in range(5):
            mapping = rnd.permutation(7)
            Z = np.zeros((7, 7))
            for row, col in enumerate(mapping):
                Z[row, col] = 1.0
            s = binary_to_bipolar(vectorize(Z))
            gains = [flip_gain(W, theta, s, i) for i in range(49)]
            assert min(gains) > 0.0

    def test_two_negative_entries_defeat_default_start(self):
        x = ValueVector([-1.0, -2.0])
        scaled = paper_faithful(x.entries)
        z, _, _ = run_pipeline(scaled, ascending_program(2), normalize=False)
        p = decode_permutation(z)
        assert apply_permutation(p, x).tolist() == [-1.0, -2.0]  # stuck, not sorted

    def test_default_route_sorts_two_negative_case(self):
        x = ValueVector([-1.0, -2.0])
        z, trace, _ = run_pipeline(x, ascending_program(2))
        p = decode_permutation(z)
        assert apply_permutation(p, x).tolist() == [-2.0, -1.0]

    @given(
        st.integers(min_value=2, max_value=7),
        st.sampled_from(["ascending", "bst", "heap"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_greedy_exact_for_at_most_one_negative(self, n, kind, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(5.0, 100.0, size=n).tolist()
        while len(set(values)) < n:
            values = rng.uniform(5.0, 100.0, size=n).tolist()
        if rng.random() < 0.5:
            values[int(rng.integers(0, n))] *= -1.0
        x = ValueVector(values)
        program = make_program(kind, n)
        scaled = paper_faithful(values)
        z, _, _ = run_pipeline(scaled, program, normalize=False)
        p = decode_permutation(z)
        got = apply_permutation(p, x)
        ordered = sorted(values)
        want = [ordered[r - 1] for r in program.ranks]
        assert got.tolist() == want

    @given(
        st.integers(min_value=2, max_value=7),
        st.sampled_from(["ascending", "bst", "heap"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_shift_to_nonnegative_workaround(self, n, kind, seed):
        # on the paper's route, mixed-sign inputs become reliable after
        # shifting by the minimum; the default route does this itself
        rng = np.random.default_rng(seed)
        values = rng.uniform(-50.0, 50.0, size=n)
        while len(np.unique(values)) < n:
            values = rng.uniform(-50.0, 50.0, size=n)
        shifted = values - values.min()
        program = make_program(kind, n)
        scaled = paper_faithful(shifted)
        z, _, _ = run_pipeline(scaled, program, normalize=False)
        mapping = decode_permutation(z).as_mapping
        got = [float(values[c]) for c in mapping]
        ordered = sorted(float(v) for v in values)
        want = [ordered[r - 1] for r in program.ranks]
        assert got == want


PROGRAMS = {
    "ascending": ascending_program,
    "descending": descending_program,
    "bst": lambda n: make_program("bst", n),
    "heap": heap_program,
    "heap3": lambda n: heap_program(n, 3),
}


@st.composite
def input_classes(draw, n):
    """One draw from each input class the default route must handle."""
    style = draw(
        st.sampled_from(
            ("paper", "gaussian", "all_negative", "duplicates", "offset_1e12",
             "offset_1e15", "constant", "mixed_magnitudes")
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if style == "paper":
        return rng.choice(10 * n, size=n, replace=False).astype(float)
    if style == "gaussian":
        return rng.standard_normal(n)
    if style == "all_negative":
        return -rng.uniform(0.5, 100.0, size=n)
    if style == "duplicates":
        return rng.integers(-3, 4, size=n).astype(float)
    if style == "offset_1e12":
        return rng.permutation(n).astype(float) + 1e12
    if style == "offset_1e15":
        return rng.permutation(n).astype(float) + 1e15
    if style == "constant":
        return np.full(n, float(rng.integers(-5, 6)))
    signs = rng.choice([-1.0, 1.0], size=n)
    return signs * 10.0 ** rng.integers(-6, 7, size=n) * rng.uniform(1.0, 9.0, size=n)


class TestOneDescentIsExact:
    @given(
        st.integers(1, 12),
        st.sampled_from(sorted(PROGRAMS)),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_default_descent_reaches_the_sort_optimum(self, n, kind, data):
        values = data.draw(input_classes(n))
        x = ValueVector(values)
        program = PROGRAMS[kind](n)
        z, trace, _ = run_pipeline(x, program)
        report = certify(x, program, z)
        assert report.feasible and report.optimal, (values.tolist(), kind, report)
