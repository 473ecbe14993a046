"""Ground-truth machinery: truncated operator application, brute-force
variation-diminishing verification, and the worked demo scenarios
(three-lag demo, momentum tuning)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceededError
from .lti import (PartialFractionSystem, RationalTransferFunction,
                  impulse_response, require_horizon, sample_matrix)
from .positivity import (CERTIFIED, PositivityReport, check_toeplitz_total)
from .signals import (Signal, first_nonzero_sign, forward_difference,
                      row_variations, sign_buffers, variation)
from .tolerance import ZERO_TOL
from .totpos import matrix_rank

# Hard cap on the lattice points of a brute-force check.
ENUM_CAP = 3 ** 9
DEFAULT_SEED = 0x5EED
# Candidate inputs per product in the brute-force oracle: enough rows to
# amortise one matrix product, few enough to bound peak memory whatever the
# lattice or sample count.
OVD_BLOCK = 2048

# The three-lag demo system: two excitatory channels and one weak
# inhibitory channel, each a first-order lag.
DEMO_TERMS = ((0.9, 0.9), (0.5, 0.5), (-0.1, 0.1))
# Past inputs (u(-1), u(-2), ...) and a future input used as hardcoded
# regression vectors: one variation diminished, one amplified, and one
# preserved with a flipped leading sign.
DEMO_PAST_DIMINISH = (1.0, -10.0)
DEMO_FUTURE_GROWTH = (10.0, -8.5)
DEMO_PAST_ORDER_FLIP = (10.9, -21.5, 9.7)


def demo_system() -> PartialFractionSystem:
    return PartialFractionSystem(DEMO_TERMS)


def _require_input_length(input_length: int):
    if input_length < 0:
        raise ValueError("input length must be >= 0")


def hankel_truncation(g: Signal, input_length: int,
                      output_length: int) -> np.ndarray:
    """Read-only matrix that maps the past stack (u(-1), ..., u(-L)) to
    outputs at t = 0..N-1: entry (t, tau - 1) is g(t + tau)."""
    _require_input_length(input_length)
    return sample_matrix(g, 1, output_length, input_length)


def toeplitz_truncation(g: Signal, input_length: int,
                        output_length: int) -> np.ndarray:
    """Read-only matrix that maps inputs at t = 0..L-1 to outputs at
    t = 0..N-1 causally: entry (t, tau) is g(t - tau)."""
    _require_input_length(input_length)
    return sample_matrix(g, 0, output_length, input_length, toeplitz=True)


def apply_hankel(g: Signal, past, output_length: int) -> Signal:
    """Free response y(t) = sum_tau g(t + tau) u(-tau) for t = 0..N-1 to
    ``past``, a Signal on negative times or the stack (u(-1), u(-2), ...)."""
    if isinstance(past, Signal):
        if past.support_end > -1:
            raise ValueError("past input must live on negative times")
        past = past.window(past.support_start, -1)[::-1]
    u = tuple(float(v) for v in past)
    y = hankel_truncation(g, len(u), output_length) @ np.asarray(u)
    return Signal(0, tuple(float(v) for v in y))


def apply_toeplitz(g: Signal, u, output_length: int) -> Signal:
    """Causal convolution truncated to N output samples."""
    if isinstance(u, Signal):
        if u.support_start < 0:
            raise ValueError("future input must live on t >= 0")
        u = u.window(0, u.support_end)
    vec = tuple(float(v) for v in u)
    y = toeplitz_truncation(g, len(vec), output_length) @ np.asarray(vec)
    return Signal(0, tuple(float(v) for v in y))


@dataclass(frozen=True)
class OvdViolation:
    kind: str  # "variation" | "order"
    input: tuple
    output: tuple
    input_variation: int
    output_variation: int


class _Violations(Sequence):
    """The violations of an ``ovd_verify`` run, built from each block's
    hits when read.  An item or a slice builds only what it returns;
    iteration, ``==``, ``hash`` and ``repr`` build the whole tuple once,
    keep it, and act as that tuple does."""

    def __init__(self, matrix: np.ndarray, blocks: list):
        self._matrix, self._blocks, self._all = matrix, blocks, None
        self._starts = np.cumsum([0] + [len(b[0]) for b in blocks]).tolist()

    def _build(self, lo: int, hi: int) -> tuple:
        out = []
        for start, (hits, grew, su, sy, U, inputs_of) in zip(self._starts,
                                                             self._blocks):
            js = hits[max(lo - start, 0):max(hi - start, 0)]
            # A stack of (L, 1) inputs: each product is the matrix-vector
            # product of ``matrix @ u``, so the outputs keep its bits.
            Y = self._matrix @ U[js][:, :, None]
            out.extend(
                OvdViolation("variation" if up else "order", u, tuple(y), a, b)
                for up, u, y, a, b in zip(
                    grew[js].tolist(), inputs_of(js), Y[:, :, 0],
                    su[js].tolist(), sy[js].tolist()))
        return tuple(out)

    def _tuple(self) -> tuple:
        if self._all is None:
            self._all = self._build(0, len(self))
        return self._all

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i):
        r = range(len(self))[i]
        if self._all is None and isinstance(r, int):
            return self._build(r, r + 1)[0]
        if self._all is None and r.step == 1:
            return self._build(r.start, r.stop)
        return self._tuple()[i]

    def __iter__(self):
        return iter(self._tuple())

    def __eq__(self, other):
        return self._tuple() == other

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())

    def __reduce__(self):
        return tuple, (self._tuple(),)


@dataclass(frozen=True)
class OvdReport:
    """Outcome of the brute-force operator check."""

    passed: bool
    violations: Sequence
    inputs_checked: int
    rank: int

    @property
    def variation_violations(self) -> tuple:
        return tuple(v for v in self.violations if v.kind == "variation")

    @property
    def order_violations(self) -> tuple:
        return tuple(v for v in self.violations if v.kind == "order")

    @property
    def passed_variation_only(self) -> bool:
        """Pass status when the leading-sign clause is disregarded."""
        return not self.variation_violations

    @property
    def counterexample(self) -> Optional[OvdViolation]:
        return self.violations[0] if self.violations else None


def _impulse_for(sys, kind: str, L: int, N: int) -> Signal:
    if isinstance(sys, Signal):
        return sys
    return impulse_response(sys, N + L if kind == "hankel" else max(N, 1))


def lattice_codes(size: int, length: int, start: int,
                  stop: int) -> np.ndarray:
    """Digit codes of the points start..stop-1 of the lattice
    ``range(size) ** length``, in ``itertools.product`` order, computed
    ``OVD_BLOCK`` points at a time."""
    powers = size ** np.arange(length - 1, -1, -1, dtype=np.int64)
    codes = np.empty((stop - start, length),
                     dtype=np.min_scalar_type(max(size - 1, 0)))
    for lo in range(start, stop, OVD_BLOCK):
        hi = min(lo + OVD_BLOCK, stop)
        codes[lo - start:hi - start] = (
            np.arange(lo, hi, dtype=np.int64)[:, None] // powers % size)
    return codes


def sample_blocks(samples: int, seed: int, length: int):
    """``samples`` seeded uniform inputs on [-1, 1]^length, ``OVD_BLOCK``
    rows at a time; the values are those of drawing one input at a time
    from the same stream."""
    if samples > 0:
        rng = np.random.default_rng(seed)
        for start in range(0, samples, OVD_BLOCK):
            yield rng.uniform(-1.0, 1.0,
                              size=(min(OVD_BLOCK, samples - start), length))


def candidate_rows(U: np.ndarray, max_variation: int,
                   zero_tol: float) -> tuple:
    """Rows of U with at most ``max_variation`` sign changes and a sample
    above ``zero_tol``, with their variations and leading signs."""
    su, fu = row_variations(U, zero_tol)
    rows = np.flatnonzero((su <= max_variation)
                          & (np.abs(U) > zero_tol).any(axis=1))
    return rows, su[rows], fu[rows]


class BlockWorkspace:
    """What ``output_signs`` reuses across the blocks of one matrix X: X
    transposed and contiguous, max|X| (at least 1), and for blocks of up
    to ``rows`` inputs the product, its magnitudes, two guard-band masks
    and the buffers of ``row_variations``.  A block of n inputs works on
    their first n rows, so a scan allocates nothing of block size per
    block; no array that ``output_signs`` returns is a view of them."""

    def __init__(self, X: np.ndarray, rows: int):
        self.XT = np.ascontiguousarray(X.T)
        self.x_max = np.abs(X).max(initial=1.0)
        shape = (rows, len(X))
        self.Y, self.A = np.empty(shape), np.empty(shape)
        self.near, self.inside = np.empty(shape, bool), np.empty(shape, bool)
        self.signs = sign_buffers(*shape)


def output_signs(X: np.ndarray, U: np.ndarray, eff_tol: float,
                 work: Optional[BlockWorkspace] = None) -> tuple:
    """Variation and leading sign of ``X @ u`` for every row u of U.

    The block takes one matrix product, whose rows may round differently
    from the per-vector product ``X @ u``.  Both lie within the dot-product
    error bound of the exact value, so a row with an output within twice
    that bound of +-eff_tol is recomputed per vector: no sign then depends
    on the blocking.  ``work`` is a ``BlockWorkspace`` of X with room for
    U; without one, one is made for this block.
    """
    if work is None:
        work = BlockWorkspace(X, len(U))
    n, L = U.shape
    Y = np.matmul(U, work.XT, out=work.Y[:n])
    # max|U| as max(max U, -min U): the same value, NaN included, with no
    # array of magnitudes.
    u_max = np.maximum(U.max(initial=0.0), -U.min(initial=0.0))
    bound = (2 * L * L * np.finfo(float).eps * work.x_max * u_max
             + np.finfo(float).tiny)
    lo, hi = abs(eff_tol) - bound, abs(eff_tol) + bound
    A = np.abs(Y, out=work.A[:n])
    near = np.greater_equal(A, lo, out=work.near[:n])
    near &= np.less_equal(A, hi, out=work.inside[:n])
    # Most blocks have no output in the band: one test of the whole block
    # spares them the per-row reduction.
    if near.any():
        for r in np.flatnonzero(near.any(axis=1)):
            Y[r] = X @ np.array(U[r])
    return row_variations(Y, eff_tol, work.signs)


@functools.lru_cache(maxsize=8)
def _lattice_candidates(alpha: tuple, length: int, zero_tol: float,
                        k: int) -> tuple:
    """The lattice inputs with at most k-1 sign changes and a nonzero
    sample, in ``itertools.product`` order, filtered ``OVD_BLOCK`` points
    at a time: read-only float inputs, variations and leading signs."""
    size = len(alpha) ** length
    values = np.array(alpha)
    parts = []
    # One block even for an empty lattice, so that the arrays keep shape.
    for start in range(0, max(size, 1), OVD_BLOCK):
        U = values[lattice_codes(len(alpha), length, start,
                                 min(start + OVD_BLOCK, size))]
        rows, su, fu = candidate_rows(U, k - 1, zero_tol)
        parts.append((U[rows], su, fu))
    out = tuple(np.concatenate(p) for p in zip(*parts))
    for arr in out:
        arr.setflags(write=False)
    return out


def _lattice_blocks(alpha: list, length: int, k: int, signs):
    """The cached lattice candidates ``OVD_BLOCK`` at a time, with the
    output variations and leading signs that ``signs`` gives a block of
    inputs.

    On a sign-symmetric alphabet (sorted, it equals its own negation
    reversed) the candidates pair up in product order: row n-1-i is the
    negation of row i, so the rows of the second half take the output
    variation of their twin and the negation of its leading sign.  The
    signs are decided with a guard band around the zero level, so those
    of the negated input are exactly these.  ``signs`` then sees only the
    first half of the lattice.
    """
    U, su, fu = _lattice_candidates(tuple(alpha), length, ZERO_TOL, k)
    n = len(U)
    half = n // 2 if alpha == [-a for a in reversed(alpha)] else n
    sy, fy = np.empty(n, np.intp), np.empty(n, np.int8)
    for start in range(0, n, OVD_BLOCK):
        stop = min(start + OVD_BLOCK, n)
        mid = min(max(start, half), stop)
        if mid > start:
            sy[start:mid], fy[start:mid] = signs(U[start:mid])
        # Reversed, row i of the arrays is row n-1-i.
        sy[mid:stop] = sy[::-1][mid:stop]
        fy[mid:stop] = -fy[::-1][mid:stop]
        block = slice(start, stop)
        yield (U[block], su[block], fu[block], sy[block], fy[block],
               lambda js, U=U[block]: list(map(tuple, U[js].tolist())))


def _candidate_blocks(extras: list, alpha: list, length: int, k: int,
                      samples: int, seed: int, signs):
    """Blocks of candidate inputs in order: injected vectors, the lattice,
    then seeded uniform samples.  Each block holds only the inputs with at
    most k-1 sign changes and a nonzero sample, as (rows, variations,
    leading signs, output variations, output leading signs, inputs of a
    row-index array); the output signs are those that ``signs`` gives the
    rows, or their lattice twins'."""
    for start in range(0, len(extras), OVD_BLOCK):
        chunk = extras[start:start + OVD_BLOCK]
        U = np.zeros((len(chunk), length))
        for i, u in enumerate(chunk):
            U[i, :len(u)] = u
        rows, su, fu = candidate_rows(U, k - 1, ZERO_TOL)
        yield (U[rows], su, fu, *signs(U[rows]),
               lambda js, c=chunk, r=rows: [c[i] for i in r[js]])
    yield from _lattice_blocks(alpha, length, k, signs)
    for U in sample_blocks(samples, seed, length):
        rows, su, fu = candidate_rows(U, k - 1, ZERO_TOL)
        U = U[rows]
        yield (U, su, fu, *signs(U),
               lambda js, U=U: list(map(tuple, U[js].tolist())))


def ovd_matrix(matrix, k: int, alphabet: Sequence[float] = (-1, 0, 1),
               samples: int = 0, seed: int = DEFAULT_SEED,
               extra_inputs: Sequence = (),
               stop_at: Optional[int] = None) -> OvdReport:
    """Brute-force check that inputs with at most k-1 sign changes map to
    outputs with no more sign changes under ``matrix``.

    When the variation is attained, 0 included, the leading nonzero signs
    must agree; order violations are recorded separately so the two
    readings of the property can be distinguished.  Candidates run in
    deterministic order: injected vectors (at most one sample per matrix
    column each, zero-padded), the lattice ``alphabet ** columns`` (at
    most ``ENUM_CAP`` points), then seeded uniform samples.  They are
    checked ``OVD_BLOCK`` at a time, one matrix product per block, in one
    ``BlockWorkspace`` allocated for the whole call.  The
    lattice candidates of each k (inputs, variations, leading signs) are
    cached read-only per alphabet and length, so the lattice runs as
    full blocks; on a sign-symmetric alphabet only its first half is
    multiplied, and the second half, its negation, reuses those signs.
    Each block keeps its hits; the report builds the violations from them
    only when they are read.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # A private copy: the report builds its violations from it later.
    X = np.array(matrix, dtype=float, ndmin=2)
    length = X.shape[1]
    alpha = sorted(set(float(a) for a in alphabet))
    if len(alpha) ** length > ENUM_CAP:
        raise BudgetExceededError(
            f"{len(alpha)}^{length} lattice inputs exceed the budget")
    extras = [tuple(float(v) for v in u) for u in extra_inputs]
    for u in extras:
        if len(u) > length:
            raise ValueError(f"extra input {u} is longer than the input "
                             f"length {length}")
    rank = matrix_rank(X)
    # Rows for the largest block of the call, so that a long output on a
    # small lattice reserves no more than its blocks use.
    lattice = len(_lattice_candidates(tuple(alpha), length, ZERO_TOL, k)[0])
    work = BlockWorkspace(X, min(OVD_BLOCK,
                                 max(len(extras), lattice, samples)))
    eff_tol = ZERO_TOL * float(work.x_max)

    blocks = []
    checked = found = 0
    for U, su, fu, sy, fy, inputs_of in _candidate_blocks(
            extras, alpha, length, k, samples, seed,
            lambda U: output_signs(X, U, eff_tol, work)):
        if not len(U):
            continue
        grew = sy > su
        hits = np.flatnonzero(grew | ((sy == su) & (fy != 0) & (fy != fu)))
        # The scan stops right after the candidate that brings the
        # violation count to stop_at.
        last = None
        if stop_at is not None:
            need = stop_at - found
            if need <= 0:
                last = 0
            elif need <= hits.size:
                last = hits[need - 1]
            if last is not None:
                hits = hits[hits <= last]
        if hits.size:
            blocks.append((hits, grew, su, sy, U, inputs_of))
            found += hits.size
        if last is not None:
            checked += int(last) + 1
            break
        checked += len(U)
    return OvdReport(not blocks, _Violations(X, blocks), checked, rank)


def ovd_verify(sys, kind: str, k: int, input_length: int, output_length: int,
               alphabet: Sequence[float] = (-1, 0, 1), samples: int = 0,
               seed: int = DEFAULT_SEED, extra_inputs: Sequence = (),
               stop_at: Optional[int] = None) -> OvdReport:
    """``ovd_matrix`` on the truncated Hankel or Toeplitz operator of a
    system (or of an impulse response given as a ``Signal``) that maps
    ``input_length`` input samples to ``output_length`` output samples."""
    if kind not in ("hankel", "toeplitz"):
        raise ValueError(f"unknown operator kind {kind!r}")
    if output_length < 1:
        raise ValueError("output length must be >= 1")
    _require_input_length(input_length)
    g = _impulse_for(sys, kind, input_length, output_length)
    build = hankel_truncation if kind == "hankel" else toeplitz_truncation
    return ovd_matrix(build(g, input_length, output_length), k, alphabet,
                      samples, seed, extra_inputs, stop_at)


@dataclass(frozen=True)
class ScenarioResult:
    """Reproducible record of a worked input/output scenario."""

    scenario: str
    kind: str
    input_values: tuple
    output: Signal
    input_variation: int
    output_variation: int
    order_preserved: Optional[bool]
    verdict_text: str


SCENARIOS = {
    "hankel-diminish": ("hankel", DEMO_PAST_DIMINISH),
    "toeplitz-growth": ("toeplitz", DEMO_FUTURE_GROWTH),
    "hankel-order-flip": ("hankel", DEMO_PAST_ORDER_FLIP),
}


def run_scenario(name: str, horizon: int = 8,
                 system: Optional[PartialFractionSystem] = None
                 ) -> ScenarioResult:
    """Run one of the named demo scenarios on the three-lag demo system."""
    try:
        kind, vec = SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; choose from "
                         f"{sorted(SCENARIOS)}") from None
    require_horizon(horizon)
    sys = system if system is not None else demo_system()
    g = impulse_response(sys, horizon + len(vec) + 1)
    if kind == "hankel":
        y = apply_hankel(g, vec, horizon)
    else:
        y = apply_toeplitz(g, vec, horizon)
    su = variation(vec)
    sy = variation(y, ZERO_TOL * max(1.0, float(np.max(np.abs(
        y.to_array())))))
    order = None
    if sy == su != 0:
        order = first_nonzero_sign(vec) == first_nonzero_sign(y)
    text = (f"{kind} response: input variation {su} -> output variation "
            f"{sy}")
    if order is not None:
        text += ", leading sign " + ("preserved" if order else "flipped")
    return ScenarioResult(name, kind, tuple(vec), y, su, sy, order, text)


@dataclass(frozen=True)
class HeavyBallScenario:
    """Momentum-method tuning analysis for a scalar quadratic objective."""

    curvature: float
    step_size: float
    momentum: float
    open_loop: RationalTransferFunction
    closed_loop: RationalTransferFunction
    threshold: float
    meets_threshold: bool
    closed_loop_report: PositivityReport
    iterates: Signal
    iterate_extrema: int

    @property
    def consistent(self) -> bool:
        """Threshold rule and pole-zero test agree."""
        return self.meets_threshold == (
            self.closed_loop_report.verdict == CERTIFIED)

    @property
    def verdict_text(self) -> str:
        side = "at or above" if self.meets_threshold else "below"
        return (f"momentum {self.momentum} is {side} the smoothing "
                f"threshold {self.threshold}; closed-loop pole-zero test: "
                f"{self.closed_loop_report.verdict}; iterate extrema: "
                f"{self.iterate_extrema}")


def heavy_ball(curvature: float, step_size: float, momentum: float,
               steps: int = 64) -> HeavyBallScenario:
    """Classify a momentum iteration on a quadratic objective.

    The open loop from the gradient input to the iterate is
    step_size * z / ((z - 1)(z - momentum)); closing the loop with gradient
    gain ``curvature`` yields the characteristic polynomial
    z^2 - (1 + momentum - step_size*curvature) z + momentum.  Smoothing of
    the iterates holds exactly when momentum >= (sqrt(curvature *
    step_size) + 1)^2, which is cross-checked against the pole-zero
    characterization of the closed loop.
    """
    require_horizon(steps, "steps")
    a, alpha, beta = float(curvature), float(step_size), float(momentum)
    if a <= 0 or alpha <= 0 or beta <= 0:
        raise ValueError("curvature, step size and momentum must be "
                         "positive")
    open_loop = RationalTransferFunction(
        (alpha, 0.0), (1.0, -(1.0 + beta), beta))
    mid = 1.0 + beta - alpha * a
    closed = RationalTransferFunction((alpha, 0.0), (1.0, -mid, beta))
    threshold = (math.sqrt(a * alpha) + 1.0) ** 2
    report = check_toeplitz_total(closed)

    # Iterates from rest under a unit step disturbance.
    xs = [0.0, 0.0]
    for _ in range(steps):
        xs.append(mid * xs[-1] - beta * xs[-2] + alpha)
    iterates = Signal(-1, tuple(xs))
    extrema = variation(forward_difference(iterates))
    return HeavyBallScenario(a, alpha, beta, open_loop, closed, threshold,
                             beta >= threshold, report, iterates, extrema)
