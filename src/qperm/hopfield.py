"""Steepest single-flip descent on a Hopfield energy.

The energy is E(s) = -1/2 s^T W s + theta^T s over bipolar states.  Each
step flips the coordinate whose flip lowers the energy the most, ties
going to the lowest index, and descent stops at the first state where no
flip has negative gain.  Because every accepted flip strictly lowers the
energy, no state repeats and termination is guaranteed; the step budget
is a safety net for hand-crafted instances.

Descent keeps the field h = W s and the gains it implies: it computes h
once and after flipping coordinate i adds row i of W and recomputes the
gains of the cells that row reaches; energies come from h.  Row updates
can round differently from a fresh W @ s, so a tie guard checks every
choice: whenever the best gain lies within a proven rounding bound of 0,
or within twice that bound of another gain, h is recomputed as W @ s and
the choice is made from it.  The bound scales with the largest absolute
row sum of W (see _rounding_bounds).  A flip whose gain lies within the
energy rounding bound of 0 also takes both of its energies from a fresh
product; if the energy after it is not strictly below the energy before
it, as happens when a gain that is 0 in exact arithmetic rounds
negative, the flip is not taken and descent stops there.  Flip sequences
and outcomes are thereby exactly those of recomputing W @ s at every
step and stopping at the first flip that fails to lower that energy.

A network whose weights_W is a PenaltyMatrix (what the conversions make
of build_qubo's penalty) runs the same descent.  There W @ s costs O(N)
and row i has 2n - 1 nonzeros, so a flip updates the field and the gains
of only those cells, in O(n); the argmin over all gains and the energy's
two dot products stay O(N) per flip, in numpy.  Descent never forms W
and needs O(N) memory, where a dense network holds N^2 weights and adds
all N entries of a row per flip.

When the penalty weights are short dyadic fractions, integers among
them, as build_qubo's default lambda = n is, every field and every row
update is exact (PenaltyMatrix.exact_fields says when, and proves it).
Then h always equals a fresh W @ s in value, so it never goes stale:
the tie guard never runs, no runner-up gain is sought, and a descent
forms W @ s once, at its start.  A dense W, or weights such as
lambda = 1.1001 * n, keep the guard.  With integer penalty weights the descent on the
structured network agrees bit for bit in flips, states and energies with
the one on its materialized form.

solve always starts from the all-inactive state.  The trace it returns
holds that start, the coordinate of every accepted flip and the energy
before and after each, O(N + flips) numbers; its steps rebuild every
visited state, plus one repeated final row that makes the stability of
the endpoint visible in renderings of the run, only when read.

On the ordering instances produced by the builder, every feasible
permutation encoding is single-flip stable, so the landscape has n! local
minima and descent cannot cross between them.  Descent from the
all-inactive state pairs values with ranks greedily, largest reward
first.  With the builder's default input, shifted by its minimum and
L1-normalized, every reward is non-negative and that greedy pairing is
the sorted, optimal one (see ValueVector), so one descent is all that
solve runs.  With normalize=False or custom penalty weights that
guarantee is gone, and a descent can stop in a stable non-optimal or
infeasible state; certify says which.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
    MaxStepsExceeded,
)
from .model import (
    SYMMETRY_TOL,
    HopfieldInstance,
    PenaltyMatrix,
    SolverTrace,
    _all_in,
    _integral,
    _up,
)

_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Descent controls: max_steps bounds the number of accepted flips and
    defaults to N*N.  It must equal an integer: strings and fractions are
    rejected, never truncated."""

    max_steps: Optional[int] = None

    def __post_init__(self):
        if self.max_steps is None:
            return
        max_steps = _integral(self.max_steps, "max_steps")
        if max_steps < 0:
            raise DomainError("max_steps must be non-negative")
        object.__setattr__(self, "max_steps", max_steps)


def energy(instance: HopfieldInstance, s) -> float:
    """Evaluate -1/2 s^T W s + theta^T s at a bipolar state; W dense or a PenaltyMatrix."""
    sv = _check_state(instance, s)
    return float(-0.5 * (sv @ instance.weights_W @ sv) + instance.bias_theta @ sv)


def flip_gain(instance: HopfieldInstance, s, i: int) -> float:
    """Energy change from flipping coordinate i of s, in O(N) time.

    Equals energy(s with s[i] negated) - energy(s).
    """
    sv = _check_state(instance, s)
    if not 0 <= int(i) < instance.dimension:
        raise IndexOutOfRange(f"coordinate {i} outside 0..{instance.dimension - 1}")
    i = int(i)
    return float(2.0 * sv[i] * (instance.weights_W[i] @ sv - instance.bias_theta[i]))


def solve(
    instance: HopfieldInstance, config: Optional[SolverConfig] = None
) -> tuple[np.ndarray, SolverTrace]:
    """Run steepest descent from the all-inactive state to a stable state.

    Parameters
    ----------
    instance : HopfieldInstance
    config : SolverConfig, optional
        Defaults to max_steps = N*N.

    Returns
    -------
    (state, trace)
        The final bipolar state and the trace of the descent.

    Raises
    ------
    MaxStepsExceeded
        If descent uses up its flip budget without reaching a stable
        state.
    """
    cfg = config if config is not None else SolverConfig()
    N = instance.dimension
    budget = cfg.max_steps if cfg.max_steps is not None else N * N
    return _descend(instance, np.full(N, -1, dtype=np.int8), budget)


def _descend(
    instance: HopfieldInstance, start: np.ndarray, budget: int
) -> tuple[np.ndarray, SolverTrace]:
    """Descend from start; the returned SolverTrace checks that start is bipolar."""
    W = instance.weights_W
    theta = instance.bias_theta
    N = theta.size
    structured = isinstance(W, PenaltyMatrix)
    add_row = W.add_row if structured else partial(_add_dense_row, W)
    # With exact fields h always equals a fresh W @ s, so stale stays 0 and
    # the tie guard never runs.
    exact = structured and W.exact_fields()
    scale = _scale(W, theta)
    s = start.astype(float)
    two_s = 2.0 * s
    h = W @ s
    gains = two_s * (h - theta)
    stale = 0  # row updates folded into h since it was last computed as W @ s
    bounds_at = None  # the stale count gain_err and energy_err were taken for
    energies = [-0.5 * float(s @ h) + float(theta @ s)]
    flipped: list[int] = []
    while True:
        if stale != bounds_at:
            gain_err, energy_err = _rounding_bounds(N, stale + 1, scale)
            bounds_at = stale
        i = int(gains.argmin())  # ties: lowest index
        if stale and _ambiguous(gains, i, gain_err):
            h = W @ s
            stale = 0
            gains = two_s * (h - theta)
            i = int(gains.argmin())
        gain = float(gains[i])
        if gain >= 0.0:
            break
        if len(flipped) >= budget:
            raise MaxStepsExceeded(f"no stable state within {budget} flips")
        # A gain this close to 0 may not lower the energy as computed.  Take
        # both energies from a fresh product, and treat a flip that does not
        # lower the fresh energy as no improvement: the state is stable.
        near_zero = gain >= -(gain_err + 2.0 * energy_err)
        if near_zero:
            energies[-1] = _fresh_energy(W, theta, s)
            s[i] = -s[i]
            e_next = _fresh_energy(W, theta, s)
            if not e_next < energies[-1]:
                s[i] = -s[i]
                break
        else:
            s[i] = -s[i]
        two_s[i] = -two_s[i]
        # Only the cells row i reaches change their field, so only their
        # gains are computed again, in place.
        for cells in add_row(i, two_s[i], h):
            out = gains[cells]
            np.subtract(h[cells], theta[cells], out=out)
            out *= two_s[cells]
        stale += not exact
        flipped.append(i)
        energies.append(e_next if near_zero else -0.5 * float(s @ h) + float(theta @ s))
    return s.astype(np.int8), SolverTrace(start, flipped, energies)


def _add_dense_row(W: np.ndarray, i: int, factor: float, h: np.ndarray) -> tuple[slice]:
    """h += factor * W[i] for a dense W, which may reach every cell."""
    h += factor * W[i]
    return (slice(None),)


def _scale(W, theta: np.ndarray) -> float:
    """A float no smaller than max_j sum_k |W_jk| + max_j |theta_j|.

    A PenaltyMatrix answers the row sum in closed form.  A dense W is read
    once, row by row: math.fsum rounds each exact row sum to the nearest
    float, so one step up from the largest of them is no smaller than any.
    The final sum is rounded and stepped up the same way.
    """
    if isinstance(W, PenaltyMatrix):
        rows = W.abs_row_sum()
    else:
        rows = _up(max((math.fsum(np.abs(row)) for row in W), default=0.0))
    return _up(rows + float(np.abs(theta).max(initial=0.0)))


def _fresh_energy(W, theta: np.ndarray, s: np.ndarray) -> float:
    return float(-0.5 * (s @ W @ s) + theta @ s)


def _rounding_bounds(N: int, stale: int, scale: float) -> tuple[float, float]:
    """Bounds on how far gains and energies from h stray from a fresh W @ s.

    Let u be the unit roundoff, gamma = gamma_{N+t+1} with
    gamma_k = k*u / (1 - k*u), t = stale, tau = SYMMETRY_TOL, and
    S = max_j (sum_k |W_jk| + |theta_j|), which bounds |(W s)_j| + |theta_j|
    for every bipolar s.  scale is never below S: _scale takes it from
    sums rounded to nearest and then stepped one float up, which lands
    at or above the exact value.  Below, S is replaced by scale.

    Gains.  A dot product of length N is off by at most
    gamma_N * sum_k |W_jk| in any summation order; a PenaltyMatrix forms
    (W s)_j from exact integer row and column sums of s in three products
    and two additions, within gamma_3 of the same sum, and N >= 4 unless
    n = 1, where only the zero diagonal term remains.  So a fresh gain
    2*s_j*(fl(W @ s)_j - theta_j) (doubling is exact) lies within
    2*gamma_{N+1}*S of the exact one.  Each of the t row updates folded
    into h since then rounds by at most u*|h_j|, which compounds to
    gamma*S.  It also adds W[i, j] where the field needs W[j, i], which
    the instance guarantees to tau; the flip doubles that to 2*tau.  A
    gain from h is thus within 2*gamma*S + 4*t*tau*(1 + gamma) of the
    exact gain, and within gain_err = 4*gamma*scale + 4*t*tau*(1 + gamma)
    of the fresh one.

    Energies.  -1/2 s.h + theta.s sums N such fields against s, and so
    does the fresh -1/2 (s @ W) @ s + theta @ s; with the final roundings
    either is within energy_err = 4*N*(gamma*scale + t*tau) of the exact
    energy.

    Only the row sum enters.  A PenaltyMatrix row holds 2n - 1 nonzeros,
    so S is about 2n*max|W|, not N*max|W|: the bounds are n/2 times
    tighter, and the guard lets that many more choices stand without the
    O(N) fresh product, against O(n) for the row update of a flip.

    When W.exact_fields() holds, no row update rounds and h is a fresh
    W @ s at every step, so descent keeps t = 0: the guard never runs, and
    these bounds, taken once, serve only the energy check of a flip whose
    gain is near 0.
    """
    k = (N + stale + 1) * _UNIT_ROUNDOFF
    gamma = k / (1.0 - k)
    gain_err = 4.0 * gamma * scale + 4.0 * stale * SYMMETRY_TOL * (1.0 + gamma)
    energy_err = 4.0 * N * (gamma * scale + stale * SYMMETRY_TOL)
    return gain_err, energy_err


def _ambiguous(gains: np.ndarray, i: int, err: float) -> bool:
    """Whether gains off by up to err each could make a fresh W @ s choose otherwise.

    The choice stands when gains[i] > err (stop; every fresh gain is
    positive), or when gains[i] < -err (flip) and every other gain exceeds
    gains[i] by more than 2*err (the fresh argmin is still i).
    """
    best = float(gains[i])
    if best > err:
        return False
    if best >= -err:
        return True
    gains[i] = np.inf
    runner_up = float(gains[gains.argmin()])  # argmin is faster than min
    gains[i] = best
    return runner_up - best <= 2.0 * err


def _check_state(instance: HopfieldInstance, s) -> np.ndarray:
    sv = np.asarray(s, dtype=float).ravel()
    if sv.size != instance.dimension:
        raise DimensionMismatch(
            f"state has {sv.size} coordinates, instance has {instance.dimension}"
        )
    if not _all_in(sv, (-1.0, 1.0)):
        raise DomainError("state must be bipolar")
    return sv
