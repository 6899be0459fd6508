import ast
import dataclasses
import functools
import hashlib
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qperm
from qperm import (
    DomainError,
    HopfieldInstance,
    InvalidSize,
    MaxStepsExceeded,
    PenaltyMatrix,
    SolverTrace,
    ValueVector,
    apply_permutation,
    ascending_program,
    build_qubo,
    certify,
    decode_permutation,
    heap_program,
    solve,
)
from qperm import hopfield

from . import reference
from . import reference_run as ref
from .conftest import (
    PROGRAMS,
    input_classes,
    library_chain,
    make_program,
    networks,
    paper_faithful,
    run_pipeline,
    small_network,
    x_of,
)
from .reference import (
    assert_bitwise_same_descent,
    assert_own_budget_suffices,
    binary_to_bipolar,
    compare_descents,
    dense,
    exact_sum,
    flip_gain,
    fraction_energies,
    fraction_energy,
    replay,
    vectorize,
)


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
        # ENERGY_STRINGS ends with the endpoint's energy once more, as --trace prints it
        assert [f"{e:.1f}" for e in self.trace.energies] == ref.ENERGY_STRINGS[:-1]

    def test_exact_endpoint_energies(self):
        assert self.trace.energies[0] == pytest.approx(
            ref.INITIAL_ENERGY, abs=ref.ENDPOINT_TOL
        )
        assert self.trace.final_energy == pytest.approx(
            ref.FINAL_ENERGY, abs=ref.ENDPOINT_TOL
        )

    def test_flip_positions(self):
        assert self.trace.flipped.tolist() == ref.FLIPS[self.kind]

    def test_seven_flips_then_stable(self):
        assert self.trace.flips == 7 and self.trace.energies.size == 8
        endpoint = replay(self.trace)[-1]
        assert endpoint.tobytes() == binary_to_bipolar(self.z).tobytes()
        W, theta = dense(library_chain(self.instance)[2])
        assert min(flip_gain(W, theta, endpoint, i) for i in range(49)) > 0

    def test_rows_match_the_recorded_run(self):
        state = np.full(49, -1, dtype=np.int8)
        states = [state.copy()]
        for i in ref.FLIPS[self.kind]:
            state[i] = -state[i]
            states.append(state.copy())
        visited = replay(self.trace)
        assert all(np.array_equal(v, s) for v, s in zip(visited, states, strict=True))
        network = library_chain(self.instance)[2]
        expected = [float(fraction_energy(*dense(network), s)).hex() for s in states]
        assert [e.hex() for e in self.trace.energies.tolist()] == expected

    def test_starts_all_inactive(self):
        network = library_chain(self.instance)[2]
        assert self.trace.energies[0] == reference.energy(*dense(network), np.full(49, -1))

    def test_decodes_to_expected_arrangement(self):
        p = decode_permutation(self.z)
        assert apply_permutation(p, self.x).tolist() == ref.EXPECTED_Y[self.kind]

    def test_first_flip_gain(self):
        network = library_chain(self.instance)[2]
        start = np.full(49, -1, dtype=np.int8)
        gain = flip_gain(*dense(network), start, ref.FLIPS[self.kind][0])
        assert f"{gain:.1f}" == f"{ref.FIRST_GAIN:.1f}"
        assert gain == pytest.approx(
            self.trace.energies[1] - self.trace.energies[0], abs=1e-9
        )

    def test_default_route_keeps_flips_and_arrangement(self):
        # the shift moves the energies but not the order of the greedy pairing
        program = make_program(self.kind, 7)
        z, trace, _ = run_pipeline(self.x, program)
        assert trace.flipped.tolist() == ref.FLIPS[self.kind]
        y = apply_permutation(decode_permutation(z), self.x)
        assert y.tolist() == ref.EXPECTED_Y[self.kind]


@pytest.mark.parametrize(
    "dyadic", [hopfield._dyadic, reference._dyadic], ids=["library", "reference"]
)
class TestDyadicSum:
    """_dyadic(values, u) is (m, v): the exact sum is m * 2^v, and v is the
    least of u and the exponents of the values' last significand bits.  The
    reference descent sums with its own copy, held to the same Fractions."""

    @staticmethod
    def assert_exact(dyadic, values, u):
        v = min(u, int(np.frexp(values)[1].min()) - 53)
        m = exact_sum(values) / Fraction(2) ** v
        assert m.denominator == 1
        assert dyadic(values, u) == (m.numerator, v)

    @given(st.integers(1, 5000), st.one_of(st.just(0), st.integers(-1021, 1024)),
           st.integers(0, 2**32 - 1), st.integers(-1200, 0))
    @example(1, 0, 0, 0)
    @example(5000, 1024, 1, 0)  # every term near the top of the float range
    @settings(max_examples=60, deadline=None)
    def test_values_of_one_exponent(self, dyadic, size, exponent, seed, u):
        """Every value m 2^(e - 53), 2^52 <= |m| < 2^53, of one sign or mixed;
        at e = 0 some are zeros of either sign, whose exponent is 0 too."""
        rnd = np.random.default_rng(seed)
        signs = rnd.choice([-1.0, 1.0], size=size) if seed % 3 else np.full(size, 1.0)
        mantissas = rnd.integers(2**52, 2**53, size=size).astype(float) * signs
        values = np.ldexp(mantissas, exponent - 53)
        if exponent == 0:
            zeros = rnd.random(size) < 0.2
            values[zeros] = np.copysign(0.0, signs[zeros])
        assert np.ptp(np.frexp(values)[1]) == 0  # the library's one-sum branch
        self.assert_exact(dyadic, values, u)

    @pytest.mark.parametrize("values", [[-0.0], [0.0, -0.0, -0.0], [-0.5, 0.75, -0.0]])
    def test_zeros_of_either_sign(self, dyadic, values):
        self.assert_exact(dyadic, np.array(values), 0)

    @given(st.integers(2, 5000), st.integers(0, 2**32 - 1), st.integers(-1200, 0))
    @example(2, 0, 0)
    @settings(max_examples=60, deadline=None)
    def test_values_of_mixed_exponents(self, dyadic, size, seed, u):
        """Any finite bit patterns, with zeros and subnormals among them."""
        rnd = np.random.default_rng(seed)
        values = rnd.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)
        values[~np.isfinite(values)] = 0.0
        kind = rnd.integers(0, 3, size=size)
        subnormals = rnd.integers(-(2**52), 2**52, size=size) * 5e-324
        values = np.where(kind == 1, subnormals, np.where(kind == 2, -0.0, values))
        values[0] = 5e-324  # exponent -1073, with any other value: mixed
        assume(np.ptp(np.frexp(values)[1]) > 0)
        self.assert_exact(dyadic, values, u)


@pytest.mark.parametrize("n", [8, 24, 40, 200, 1000])
@pytest.mark.parametrize("kind", ["ascending", "bst", "heap"])
@pytest.mark.parametrize("regime", ["paper", "gaussian"])
def test_theta_of_a_default_build_has_one_exponent(regime, kind, n):
    """The benchmark's kind of input, built with the defaults, takes
    _dyadic's one-sum branch.  Not every n does: at n = 2 to 4 theta often
    has several exponents, and takes the bincount path."""
    instance = build_qubo(ValueVector(x_of(regime, n)), make_program(kind, n))
    assert np.ptp(np.frexp(library_chain(instance)[2].bias_theta)[1]) == 0


def test_the_reference_takes_no_private_name_of_the_library():
    """The reference once imported _dyadic, _rounded and _scaled from
    qperm.hopfield, so a change to them moved its energies with descent's."""
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    taken = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert ("qperm", "solve") in taken  # the walk reads the reference's imports
    assert all(not name.startswith("_") for module, name in taken if module.startswith("qperm"))


def test_no_test_module_imports_another():
    """Shared inputs, the program table and the chain helper live in
    conftest, and the descent comparators in reference; test modules once
    took strategies and comparators from one another."""
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        nodes = ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        imports = [node for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))]
        names = [getattr(node, "module", None) or "" for node in imports]
        names += [alias.name for node in imports for alias in node.names]
        assert not [n for n in names if any(p.startswith("test_") for p in n.split("."))], path


def test_the_star_import_gives_every_public_name():
    """Each name in qperm.__all__ is a public attribute of the package, so
    `from qperm import *` succeeds.  The library has no energy(): the tests
    read E(s) from the reference."""
    namespace = {}
    exec("from qperm import *", namespace)
    assert set(qperm.__all__) <= set(namespace)
    assert all(not name.startswith("_") and hasattr(qperm, name) for name in qperm.__all__)
    assert "energy" not in qperm.__all__
    assert not hasattr(qperm, "energy") and not hasattr(hopfield, "energy")


def test_six_error_types():
    """One type per failure a caller can act on.  Four more types once split
    these; no caller told them apart."""
    defined = {name for name, value in vars(qperm.errors).items() if isinstance(value, type)}
    assert defined == {"QpermError", "DomainError", "InvalidSize", "DimensionMismatch",
                       "NotAPermutation", "MaxStepsExceeded"}
    for name in defined:
        assert name in qperm.__all__ and issubclass(getattr(qperm.errors, name), qperm.QpermError)
    for name in defined - {"QpermError"}:
        base = RuntimeError if name == "MaxStepsExceeded" else ValueError
        assert issubclass(getattr(qperm.errors, name), base)


class TestGainBookkeeping:
    def test_gain_matches_energy_difference(self):
        """The reference's 2 s_i ((W s)_i - theta_i) is the change in its
        energy."""
        network = small_network(2)
        W, theta = dense(network)
        rnd = np.random.default_rng(9)
        for _ in range(50):
            s = (rnd.integers(0, 2, size=9) * 2 - 1).astype(np.int8)
            i = int(rnd.integers(0, 9))
            flipped = s.copy()
            flipped[i] = -flipped[i]
            assert flip_gain(W, theta, s, i) == pytest.approx(
                reference.energy(W, theta, flipped) - reference.energy(W, theta, s), abs=1e-9
            )


class TestDescent:
    def test_energy_strictly_decreases_until_stable(self):
        _, trace = solve(small_network(4))
        assert trace.flips > 1
        energies = trace.energies.tolist()
        for a, b in zip(energies, energies[1:]):
            assert b < a

    def test_endpoint_is_single_flip_stable(self):
        network = small_network(8)
        state, _ = solve(network)
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
        W, theta = dense(library_chain(instance)[2])
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
        program = make_program(kind, n)
        z, trace, _ = run_pipeline(x, program)
        report = certify(x, program, z)
        assert report.feasible and report.optimal, (values.tolist(), kind, report)


class TestFreeLines:
    """A free-line flip writes +inf over its grid row and column; a flip in
    the general phase forms the gains of both with _line.  Both give the
    gains a fresh W @ s gives, so only the call count shows which one ran."""

    @pytest.mark.parametrize("n", [1, 2, 8, 40])
    @pytest.mark.parametrize("kind", sorted(PROGRAMS))
    def test_default_builds_never_call_line(self, n, kind):
        for regime in ("paper", "gaussian"):
            with mock.patch.object(hopfield, "_line", wraps=hopfield._line) as line:
                _, trace, _ = run_pipeline(ValueVector(x_of(regime, n)), make_program(kind, n))
            assert trace.flips == n
            assert line.call_count == 0

    def test_unnormalized_build_and_signed_weights_call_line(self):
        with mock.patch.object(hopfield, "_line", wraps=hopfield._line) as line:
            run_pipeline(ValueVector(x_of("paper", 8)), heap_program(8), normalize=False)
        assert line.call_count > 0
        with mock.patch.object(hopfield, "_line", wraps=hopfield._line) as line:
            solve(small_network(4))
        assert line.call_count > 0

    def test_clearing_the_only_active_cell_of_a_line(self):
        """The last flip clears cell 7, the only active cell of grid column 1;
        grid row 2 holds cell 8 too.  The clear goes through _line, the
        endpoint's grid column 2 holds three active cells, and descent takes
        the reference's flips, states and energies bit for bit."""
        theta = [1.25, 2.0, -2.0, 3.0, 3.0, 1.5, -0.25, -2.25, 1.75]
        network = HopfieldInstance(PenaltyMatrix(3, 1.5, -1.0, 0.0), theta)
        with mock.patch.object(hopfield, "_line", wraps=hopfield._line) as line:
            state, trace = solve(network)
        assert trace.flipped.tolist() == [7, 2, 5, 8, 7]
        before = replay(trace)[4].reshape(3, 3)  # the state the last flip clears
        assert before[2].tolist() == [-1, 1, 1] and before[:, 1].tolist() == [-1, -1, 1]
        assert line.call_count > 0
        assert state.reshape(3, 3)[:, 2].tolist() == [1, 1, 1]
        assert_bitwise_same_descent(network)


def rebuilds(run):
    """run() and the state, as an int8 vector, at each call of _gains during it."""
    gains, seen = hopfield._gains, []

    def recorded(G, S, *rest):
        seen.append(S.ravel().astype(np.int8))
        return gains(G, S, *rest)

    with mock.patch.object(hopfield, "_gains", side_effect=recorded):
        return run(), seen


class TestAllInactiveStart:
    """solve sets the all-inactive state up in closed form and keeps only the
    gains of free lines while every flip pairs a free row with a free column,
    forming every gain from the state, once, when the argmin may be a cell it
    does not keep.  Either way it takes the flips of the two-product descent,
    which forms W @ s afresh at every step."""

    @given(networks(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_descent_as_the_two_products(self, network, data):
        N = network.dimension
        budget = data.draw(st.integers(0, N * N), label="budget")
        compare_descents(network, budget=budget)

    @given(networks())
    @settings(max_examples=300, deadline=None)
    def test_a_budget_of_its_own_flip_count_is_enough(self, network):
        """max_steps bounds committed flips: a budget of the descent's own
        flip count gives the same trace, and one flip fewer raises."""
        try:
            assert_own_budget_suffices(network)
        except DomainError:  # an energy beyond the float range
            assume(False)

    def test_a_budget_runs_out_only_on_a_flip_it_would_commit(self):
        """The fifth flip's rounded energy does not fall, so descent stops
        after 4 flips, within a budget of 4, where the two-product descent,
        which would take that flip, runs out."""
        instance = build_qubo(ValueVector([0, 3, 0, 0]), ascending_program(4),
                              lambda_r=4.4004, lambda_c=4.4004, normalize=False)
        network = library_chain(instance)[2]
        state, trace = solve(network)
        assert trace.flipped.tolist() == [7, 6, 0, 9]
        capped_state, capped = solve(network, 4)
        assert capped_state.tobytes() == state.tobytes()
        assert capped.energies.tobytes() == trace.energies.tobytes()
        with pytest.raises(MaxStepsExceeded, match="^no stable state within 3 flips$"):
            solve(network, 3)
        assert compare_descents(network, budget=4).flipped.tolist() == [7, 6, 0, 9]

    @pytest.mark.parametrize(
        "w_r, w_c, theta",
        [
            # the first flip: cells 1, 2 and 3 have gains of -1.1e308 to -1.6e308
            (-5e307, -6e307, [9.5e307, 1.0, 0.0, -5e307]),
            # every free field overflows, so after the first flip the free
            # cell 3 has the gain -inf, and cell 1, in the taken row, -1.6e308
            (-1.7e308, -1e307, [1.5e308, 1.0, 1.0, 5e307]),
        ],
    )
    def test_gains_tied_below_the_float_range(self, w_r, w_c, theta):
        """Doubled, half gains at or below -2^1023 are -inf and tie, so the
        lowest index among them is flipped, not the least gain."""
        network = HopfieldInstance(PenaltyMatrix(2, w_r, w_c, 0.0), theta)
        compare_descents(network)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("kind", sorted(PROGRAMS))
    @pytest.mark.parametrize("weights", ["default", "lambda"])
    def test_default_and_scaled_builds_never_rebuild(self, n, kind, weights):
        keywords = {} if weights == "default" else {"lambda_r": 1.1001 * n, "lambda_c": 1.1001 * n}
        for regime in ("paper", "gaussian"):
            x, program = ValueVector(x_of(regime, n)), make_program(kind, n)
            (_, trace, _), seen = rebuilds(lambda: run_pipeline(x, program, **keywords))
            assert trace.flips == n
            assert seen == []

    @pytest.mark.parametrize(
        "x, active, flips",
        [(x_of("paper", 8), [1], 40),  # the paper's regime: after the first flip
         (np.random.default_rng(2).normal(size=8), [7], 8)],  # signed: after 7 of 8
    )
    def test_unnormalized_builds_rebuild_once(self, x, active, flips):
        """A normalize=False build leaves the free-line phase once; the rebuild
        forms the whole grid with one _line call, each flip after it forms its
        grid row and its grid column with one _line call each, and descent
        takes the reference's flips, states and energies on the materialized
        network."""
        with mock.patch.object(hopfield, "_line", wraps=hopfield._line) as line:
            (z, trace, instance), seen = rebuilds(
                lambda: run_pipeline(ValueVector(x), heap_program(8), normalize=False)
            )
        assert [int((state > 0).sum()) for state in seen] == active
        assert trace.flips == flips
        assert line.call_count == 1 + 2 * (flips - active[0])
        checked = assert_bitwise_same_descent(library_chain(instance)[2])
        assert binary_to_bipolar(z).tobytes() == replay(checked)[-1].tobytes()
        assert trace.energies.tobytes() == checked.energies.tobytes()

    @pytest.mark.parametrize(
        "family, seed",
        [("gaussian", seed) for seed in (0, 3, 5, 7)]
        + [("unnormalized", seed) for seed in (2, 3, 6, 34)],
    )
    def test_the_one_rebuild_reads_the_state_of_the_free_line_flips(self, family, seed):
        """The rebuild is the only way into the general phase: _gains runs
        once, on the state after the free-line flips, one active cell each,
        and descent takes the two-product descent's flips, states and
        energies."""
        if family == "gaussian":
            network = small_network(seed, 4)
        else:
            x = ValueVector(np.random.default_rng(seed).normal(size=4))
            network = library_chain(build_qubo(x, heap_program(4), normalize=False))[2]
        trace, seen = rebuilds(lambda: compare_descents(network))
        assert len(seen) == 1
        active = int((seen[0] > 0).sum())
        assert 0 < active < trace.flips
        assert seen[0].tobytes() == replay(trace)[active].tobytes()

    def test_a_gain_that_rounds_to_zero_stops_descent(self):
        """Cell 0's half gain rounds to 0.0, though the energy after its flip,
        0.0, is below the start's 5.6e-17: descent stops at the start, as the
        reference descent does, and takes neither flip 0 nor flip 2 to -1.4."""
        network = HopfieldInstance(PenaltyMatrix(2, 0.6, -0.1, 0.0), [-0.5, 0.0, 0.0, -0.5])
        _, trace = solve(network)
        assert trace.flipped.tolist() == []
        assert trace.energies.tolist() == [5.551115123125783e-17]
        assert_bitwise_same_descent(network)

    def test_an_overflowing_start_energy_is_named(self):
        """Penalty weights of 3e306 carry the start energy to -inf."""
        x = ValueVector([3, 1, 2, 5, 4, 0, 7, 6])
        instance = build_qubo(x, ascending_program(8), lambda_r=3e306, lambda_c=3e306)
        network = library_chain(instance)[2]
        with pytest.raises(DomainError) as raised:
            solve(network)
        assert str(raised.value) == (
            "trace energies must be finite: the energy overflows the float range"
        )

    @pytest.mark.parametrize("bias", [1.7e308, -1.7e308], ids=["to-minus-inf", "to-plus-inf"])
    def test_the_reference_names_the_same_overflow(self, bias):
        """E = -sum(theta) - 2 at the start leaves the float range; the
        reference rounds it to the infinity of its exact sign and refuses the
        descent with solve's error."""
        network = HopfieldInstance(PenaltyMatrix(2, 1.0, 1.0, 0.0), [bias] * 4)
        W, theta = dense(network)
        start = np.full(4, -1)
        exact = fraction_energy(W, theta, start)
        assert reference.energy(W, theta, start) == (np.inf if exact > 0 else -np.inf)
        with pytest.raises(DomainError) as by_solve:
            solve(network)
        with pytest.raises(DomainError) as by_reference:
            reference.descend(W, theta)
        assert str(by_reference.value) == str(by_solve.value) == (
            "trace energies must be finite: the energy overflows the float range"
        )


class TestDescentTrace:
    """SolverTrace._of keeps what descent recorded and checks only its overflow."""

    @pytest.mark.parametrize(
        "energies", [[np.inf], [-np.inf], [np.inf, 0.0], [0.0, -np.inf], [1.0, 0.0, -np.inf]]
    )
    def test_refuses_an_infinite_first_or_last_energy(self, energies):
        with pytest.raises(
            DomainError,
            match="^trace energies must be finite: the energy overflows the float range$",
        ):
            SolverTrace._of(4, list(range(len(energies) - 1)), energies)


RECORD_CASES = [
    (regime, kind, build)
    for regime in ("paper", "gaussian")
    for kind in PROGRAMS
    for build in ("default", "raw")
]


@functools.cache
def recorded_descent(regime, kind, build):
    """(network, bipolar endpoint, trace) of solve on n = 6 values of the
    regime, built at the default weights or with normalize=False."""
    n = 6
    weights = {"normalize": False} if build == "raw" else {}
    instance = build_qubo(ValueVector(x_of(regime, n)), make_program(kind, n), **weights)
    network = library_chain(instance)[2]
    state, trace = solve(network)
    return network, state, trace


@pytest.mark.parametrize("regime, kind, build", RECORD_CASES)
class TestTheRecordSolveMakes:
    """What the constructor SolverTrace(start, flipped, energies) once
    checked of any record, the records solve makes keep: integer flips in
    range, one energy per flip and one for the start, finite and strictly
    falling energies, read-only arrays and bipolar rows."""

    def test_flips_are_coordinates_of_the_network(self, regime, kind, build):
        network, _, trace = recorded_descent(regime, kind, build)
        assert trace.dimension == network.dimension == 36
        assert trace.flipped.dtype == np.intp
        assert ((trace.flipped >= 0) & (trace.flipped < trace.dimension)).all()

    def test_one_energy_per_flip_and_one_for_the_start(self, regime, kind, build):
        _, _, trace = recorded_descent(regime, kind, build)
        assert trace.energies.dtype == np.float64
        assert trace.energies.shape == (trace.flips + 1,)
        assert trace.final_energy == trace.energies[-1]

    def test_energies_are_finite_and_strictly_fall(self, regime, kind, build):
        _, _, trace = recorded_descent(regime, kind, build)
        assert trace.flips > 0
        assert np.isfinite(trace.energies).all()
        assert (np.diff(trace.energies) < 0).all()

    def test_each_energy_is_that_of_its_state(self, regime, kind, build):
        network, _, trace = recorded_descent(regime, kind, build)
        energies = fraction_energies(*dense(network), replay(trace))
        assert [e.hex() for e in trace.energies.tolist()] == [e.hex() for e in energies]

    def test_replay_from_all_inactive_ends_at_the_returned_state(self, regime, kind, build):
        network, state, trace = recorded_descent(regime, kind, build)
        visited = replay(trace)
        assert visited[0].tolist() == [-1] * trace.dimension
        assert visited[-1].tobytes() == state.tobytes()
        assert reference.energy(*dense(network), state) == trace.final_energy

    def test_the_record_is_read_only(self, regime, kind, build):
        _, _, trace = recorded_descent(regime, kind, build)
        assert not trace.flipped.flags.writeable and not trace.energies.flags.writeable
        with pytest.raises(ValueError):
            trace.flipped[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.energies = np.zeros(1)

    def test_steps_are_read_only_bipolar_rows(self, regime, kind, build):
        _, state, trace = recorded_descent(regime, kind, build)
        rows = trace.steps
        assert [row.index for row in rows] == list(range(trace.flips + 2))
        for row, seen in zip(rows, [*replay(trace), state], strict=True):
            assert row.state.dtype == np.int8 and row.state.shape == (trace.dimension,)
            assert not row.state.flags.writeable
            assert row.state.tobytes() == seen.tobytes()
        assert [row.energy for row in rows] == [*trace.energies.tolist(), trace.final_energy]


# sha256 of the bipolar endpoint (int8), trace.flipped (<i8) and
# trace.energies (<f8), recorded before the free-line rewrite of descent.
DESCENT_DIGESTS = {
    ("paper", "ascending", 8, "default"):
        "39a85d4ab73ffc5914e5ebb3ad2b07511043e2526c3d8c4de242945ae8f81afa",
    ("paper", "bst", 8, "default"):
        "a4fff5052a304d31e5d560a541e5ca025b10ffcbc13ca3b5293f2cec1a57bb07",
    ("paper", "heap", 8, "default"):
        "a496295844e2ec44688f044daec68cdf5ace4e6d06ccca668c4bb30c11e8c5a1",
    ("gaussian", "ascending", 8, "default"):
        "c4f7669fb5ba132a6e45e72b8cb7e1d0599ab87741b787de3b29f691ca6512f9",
    ("gaussian", "bst", 8, "default"):
        "0d198ae5235bf0fa9691ec34aac57e21bfe46b024a816dccf87b1fec8c4492e9",
    ("gaussian", "heap", 8, "default"):
        "5668a59f04153d3cc2129e528a6a4ae8e6b414c8ef4ae734f7f1079b402d33af",
    ("paper", "ascending", 24, "default"):
        "ce896305622b842e0e3f0dcbbdf081258d32decb19931f3fab913115d012ef75",
    ("paper", "bst", 24, "default"):
        "604c450dd9a379a6a279e35dd113d8e4c509fcd9b9f171a774535583d24a4e61",
    ("paper", "heap", 24, "default"):
        "54b0150e148cf3fb1c58718d7da634148c88388a4e68bf4028139748583b01a2",
    ("gaussian", "ascending", 24, "default"):
        "79e91ba75e6df05ce26826b5a406a7db88467f6dc9ecd61f35f8eef03ec299b3",
    ("gaussian", "bst", 24, "default"):
        "e7c3057a0bdee461e9a408e96a25f263d39fe634be2e4fd752fef5b15f7278fa",
    ("gaussian", "heap", 24, "default"):
        "2b120eae47cff45efee65a704034816526ae422d70eed045d85bdb3cdcbfbd94",
    ("paper", "ascending", 40, "default"):
        "eac7accf2f7b57373b6e34f667bbe24c6d458126989fab3b9b7261640ba8c03b",
    ("paper", "bst", 40, "default"):
        "fa96d836fe204bbe03bc49cf73c0021d32e351f4917aff256874e05d0831226e",
    ("paper", "heap", 40, "default"):
        "43750b194a9c685de1a6dda65da11c47eb294539d37c439e55fdb579a765ca57",
    ("gaussian", "ascending", 40, "default"):
        "e1f4df4b70008f6afc5922122b3aad296f41b8a7a0a61cf43565c60c7be315e0",
    ("gaussian", "bst", 40, "default"):
        "0ed19bdb001080e03e1ec29cbee4995f7639199fb822dfea2ed4f5e18b5cff06",
    ("gaussian", "heap", 40, "default"):
        "318ee55b12b1b852ed39f1ea8ca1d91c333b00f7ad3fcc488a9bad5286a2ed97",
    ("paper", "ascending", 200, "default"):
        "a74d34c4e036c9565d43bba7a4c42b42a61052a2243525cc7e530f13aa42d075",
    ("paper", "bst", 200, "default"):
        "553b211c1f2ff6d99c31312d9867f1840e47528e78aa4af28aeaa8cc94d7a317",
    ("paper", "heap", 200, "default"):
        "f6649b35e837f12702a6e89f32f2fe984c6d82712afb75aa2bbb8f015128ecd9",
    ("gaussian", "ascending", 200, "default"):
        "5cff0f2e17b32f4be1c012d3e1bc7521955daf62ba44b5f09cba4b05efaee3f9",
    ("gaussian", "bst", 200, "default"):
        "62512b2f3bd812932efc484a2a74378e4ac062321fbe0e996b5a54e1b9f9b6b8",
    ("gaussian", "heap", 200, "default"):
        "bb07dcdf8710554283cc4c0d12e1c16fa866c254726c97623cbcb96c13205981",
    ("paper", "ascending", 40, "lambda"):
        "5cee95528b51ed5bbca93dca2f75bc731d1de852ce524e09a61142139d064c41",
    ("paper", "bst", 40, "lambda"):
        "7f8fa656f4cb754d0ea63d6b5bfa7063e1b7992aec8a4b9ca8e02120734c906a",
    ("paper", "heap", 40, "lambda"):
        "2c83012a174ffc2e9f131668fb561c57f72cfe6c9245c0a31c0b6b75768e4f16",
    ("gaussian", "ascending", 40, "lambda"):
        "590c605dde21abf7b47c9ef35d8454ef6eec777255b262253f174230a8c41dd4",
    ("gaussian", "bst", 40, "lambda"):
        "830151234b5e05d5c95918c16b3bd38579209ba57fb823a8cbfb66ae109b66ee",
    ("gaussian", "heap", 40, "lambda"):
        "f4193df5b139c8f0e7aa48ede8ca70330a8ed6dc12d6ea731d0707e406036465",
    ("paper", "ascending", 40, "raw"):
        "4f7301fd059476b4bbbc6e70a3d5750e9fad4dc00986ccb6fe1f997ede17a9aa",
    ("paper", "bst", 40, "raw"):
        "eb35f47e1d0a4bf047cd54dbd1422dad6917ec214ff2f6c36ce7e91337541e73",
    ("paper", "heap", 40, "raw"):
        "0e8422198b3acad2d554a84f0f3e8c2502d46f363fdd4aa665de34ec57aff476",
    ("gaussian", "ascending", 40, "raw"):
        "67a603ca6da8a4051f53ec778a641f95454fb532834058d37881bf828e8ec458",
    ("gaussian", "bst", 40, "raw"):
        "3297739d2dbe08c83f41f4f4183aeabf7168ef98040397a06c417128f1a3a4d9",
    ("gaussian", "heap", 40, "raw"):
        "53a876148bf18b8445140cb83f3dad93b77fc0b1945863dbb4a56ea3fc1afdc9",
    # long general-phase runs: 19,848 flips (paper) and 200 flips (gaussian),
    # recorded before the general phase dropped its kept n-vectors
    ("paper", "heap", 200, "raw"):
        "8001e8e760af153a5789d85d24190d1d6ee3bdd9b45d18be7efce312364ac423",
    ("gaussian", "heap", 200, "raw"):
        "33cd3c356812dfd384233df02f60b3fea92c04b723e0d5d8d2606132a142d62a",
}


class TestPinnedDescent:
    """Flips, states and energies at the sizes the benchmark runs, where the
    reference descent is too slow to compare with."""

    @pytest.mark.parametrize("regime, kind, n, build", sorted(DESCENT_DIGESTS))
    def test_descent_digest(self, regime, kind, n, build):
        weights = {
            "default": {},
            "lambda": {"lambda_r": 1.1001 * n, "lambda_c": 1.1001 * n},
            "raw": {"normalize": False},
        }[build]
        (z, trace, _), seen = rebuilds(
            lambda: run_pipeline(ValueVector(x_of(regime, n)), make_program(kind, n), **weights)
        )
        assert len(seen) == (build == "raw")  # only normalize=False leaves the free lines
        digest = hashlib.sha256()
        for values, dtype in ((binary_to_bipolar(z), "<i1"), (trace.flipped, "<i8"),
                              (trace.energies, "<f8")):
            digest.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
        assert digest.hexdigest() == DESCENT_DIGESTS[regime, kind, n, build]
