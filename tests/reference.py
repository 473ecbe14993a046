"""The paper's dense constructions and propositions, kept as a test
reference.

The paper states k-positivity through the C(n, j)-state compound
realization and the minors of the compound matrix (Karlin, *Total
Positivity*, 1968).  The package decides every verdict another way: by
the Cauchy-Binet residue formula, by Hankel-window determinants or by the
exact serial-lag test, and it samples a num/den input by its own
recursion, not through a companion realization.  The tests compare those
routes with the dense constructions below, which no check runs.

The paper's propositions follow them: the shapes of an impulse response
(unimodal, log-concave, log-convex), the necessary residue and pole
signs, the three faces of complete monotonicity, the repeated-pole
pattern, the differenced system, the recombined response of a dominant
decomposition, static output nonlinearities and the three-channel
imbalance condition.  No check or command runs them: where one restates
a question of order-k positivity (2-positivity, say, is log-concavity of
g: g(t)^2 - g(t-1) g(t+1) = g_[2](t) >= 0), the order-k checks answer it
through the compound.  The tests run them on the paper's examples and,
where the paper equates the two, against the checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from vardim.errors import (BudgetExceededError, DegenerateSystemError,
                           UnsupportedRepresentationError)
from vardim.lti import (PartialFractionSystem, RationalTransferFunction,
                        StateSpace, canonical, dominance_key, hankel_matrix,
                        impulse_response)
from vardim.positivity import Decomposition
from vardim.signals import (Signal, _as_samples, forward_difference,
                            variation)
from vardim.tolerance import ROOT_TOL, SLACK_TOL, ZERO_TOL
from vardim.totpos import is_pd, is_psd, minor_zero_threshold

# Hard cap on exhaustive minor scans.
MINOR_SCAN_CAP = 10 ** 6


@dataclass(frozen=True)
class MinorReport:
    """A single evaluated minor: order, row/column tuples and value."""

    order: int
    rows: tuple
    cols: tuple
    value: float


def minor(X, I, J) -> float:
    """Determinant of the submatrix addressed by 1-based tuples I and J."""
    X = np.asarray(X, dtype=float)
    ri = tuple(int(v) - 1 for v in I)
    ci = tuple(int(v) - 1 for v in J)
    if len(ri) != len(ci):
        raise ValueError("row and column tuples must have equal size")
    sub = X[np.ix_(ri, ci)]
    if sub.shape == (1, 1):
        return float(sub[0, 0])
    return float(np.linalg.det(sub))


def compound_matrix(X, r: int) -> np.ndarray:
    """Matrix of all r-minors in lexicographic index order."""
    X = np.asarray(X, dtype=float)
    m, n = X.shape
    if not 1 <= r <= min(m, n):
        raise ValueError(f"compound order r={r} out of range for {m}x{n}")
    rows = np.asarray(list(itertools.combinations(range(m), r)))
    cols = np.asarray(list(itertools.combinations(range(n), r)))
    subs = X[rows[:, None, :, None], cols[None, :, None, :]]
    if r == 1:
        return subs[:, :, 0, 0].copy()
    return np.linalg.det(subs)


@dataclass(frozen=True)
class KPositivityVerdict:
    """Outcome of a minor scan.

    ``positive`` is True/False for a definite answer and None when the
    consecutive-minor pattern neither certifies nor refutes.
    """

    positive: Optional[bool]
    witness: Optional[MinorReport]
    minors_checked: int
    mode: str

    def __bool__(self):
        return self.positive is True


def _scan_budget(m: int, n: int, k: int) -> int:
    total = 0
    for j in range(1, k + 1):
        total += math.comb(m, j) * math.comb(n, j)
    return total


def is_k_positive(X, k: int, strict: bool = False,
                  consecutive_only: bool = False) -> KPositivityVerdict:
    """Check that all minors of order <= k are nonnegative (positive).

    Exhaustive mode scans every minor.  Consecutive mode scans only
    interval-indexed minors and applies the strict/nonneg shortcut
    (strict up to order k-1, nonnegative at order k); it certifies or
    refutes, and returns an open verdict when strictness fails without
    an outright negative minor.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m, n = X.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} out of range for a {m}x{n} matrix")
    checked = 0

    if not consecutive_only:
        if _scan_budget(m, n, k) > MINOR_SCAN_CAP:
            raise BudgetExceededError(
                "exhaustive minor scan too large; use consecutive mode")
        for j in range(1, k + 1):
            for ri in itertools.combinations(range(m), j):
                for ci in itertools.combinations(range(n), j):
                    sub = X[np.ix_(ri, ci)]
                    d = float(np.linalg.det(sub)) if j > 1 else float(sub[0, 0])
                    checked += 1
                    theta = minor_zero_threshold(sub)
                    bad = d <= theta if strict else d < -theta
                    if bad:
                        rep = MinorReport(j, tuple(i + 1 for i in ri),
                                          tuple(i + 1 for i in ci), d)
                        return KPositivityVerdict(False, rep, checked,
                                                  "exhaustive")
        return KPositivityVerdict(True, None, checked, "exhaustive")

    open_verdict = False
    for j in range(1, k + 1):
        need_strict = strict if j == k else True
        for a in range(m - j + 1):
            for b in range(n - j + 1):
                sub = X[a:a + j, b:b + j]
                d = float(np.linalg.det(sub)) if j > 1 else float(sub[0, 0])
                checked += 1
                theta = minor_zero_threshold(sub)
                rows = tuple(range(a + 1, a + j + 1))
                cols = tuple(range(b + 1, b + j + 1))
                if d < -theta:
                    # A negative minor refutes regardless of the pattern.
                    rep = MinorReport(j, rows, cols, d)
                    return KPositivityVerdict(False, rep, checked,
                                              "consecutive")
                if need_strict and d <= theta:
                    open_verdict = True
    if open_verdict:
        return KPositivityVerdict(None, None, checked, "consecutive")
    return KPositivityVerdict(True, None, checked, "consecutive")


def desnanot_jacobi_residual(X) -> float:
    """|det(X) det(interior) - (det(NW) det(SE) - det(NE) det(SW))|."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if X.shape != (n, n) or n < 3:
        raise ValueError("identity needs a square matrix of size >= 3")
    det = np.linalg.det
    lhs = det(X) * det(X[1:n - 1, 1:n - 1])
    nw = det(X[:n - 1, :n - 1])
    se = det(X[1:, 1:])
    ne = det(X[:n - 1, 1:])
    sw = det(X[1:, :n - 1])
    return float(abs(lhs - (nw * se - ne * sw)))


def to_state_space(pfs: PartialFractionSystem,
                   symmetric: bool = False) -> StateSpace:
    """Diagonal realization A = diag(p), b = residues, c = ones.

    With ``symmetric=True`` the square-root splitting b = c.T = sqrt(r) is
    used instead; it requires all residues nonnegative.  A FIR tail is
    realized by an appended shift chain (its t=0 sample must be zero).
    """
    diag = list(pfs.poles)
    fir = pfs.fir
    if symmetric:
        if any(r < 0 for r in pfs.residues):
            raise ValueError("symmetric splitting needs nonnegative residues")
        if len(fir):
            raise UnsupportedRepresentationError(
                "symmetric splitting does not cover FIR tails")
        roots = [math.sqrt(r) for r in pfs.residues]
        b = np.asarray(roots)
        c = np.asarray(roots)
    else:
        b = np.asarray(pfs.residues, dtype=float)
        c = np.ones(len(diag))
    span = 0 if len(fir) == 0 else fir.support_end
    if span:
        if fir.value(0) != 0.0:
            raise UnsupportedRepresentationError(
                "FIR sample at t=0 needs a feedthrough term; none exists")
        n = len(diag)
        A = np.zeros((n + span, n + span))
        A[:n, :n] = np.diag(diag) if n else A[:n, :n]
        for i in range(span - 1):
            A[n + i + 1, n + i] = 1.0
        bb = np.zeros(n + span)
        bb[:n] = b
        bb[n] = 1.0
        cc = np.zeros(n + span)
        cc[:n] = c
        cc[n:] = [fir.value(tau) for tau in range(1, span + 1)]
        return StateSpace(A, bb, cc)
    if not diag:
        raise DegenerateSystemError("zero system has no realization")
    return StateSpace(np.diag(diag), b, c)


def rtf_to_state_space(rtf: RationalTransferFunction) -> StateSpace:
    """Controllable canonical realization from coefficient vectors."""
    n = rtf.order
    den = np.asarray(rtf.den)
    num = np.zeros(n)
    num[n - len(rtf.num):] = rtf.num
    A = np.zeros((n, n))
    A[0, :] = -den[1:]
    for i in range(n - 1):
        A[i + 1, i] = 1.0
    b = np.zeros(n)
    b[0] = 1.0
    return StateSpace(A, b, num)


def extended_controllability(ss: StateSpace, j: int) -> np.ndarray:
    """Columns b, Ab, ..., A^(j-1) b."""
    if j < 1:
        raise ValueError("block count j must be >= 1")
    cols = [ss.b]
    for _ in range(j - 1):
        cols.append(ss.A @ cols[-1])
    return np.column_stack(cols)


def extended_observability(ss: StateSpace, j: int) -> np.ndarray:
    """Rows c, cA, ..., cA^(j-1)."""
    if j < 1:
        raise ValueError("block count j must be >= 1")
    rows = [ss.c]
    for _ in range(j - 1):
        rows.append(rows[-1] @ ss.A)
    return np.vstack(rows)


def compound_realization(ss: StateSpace, j: int) -> StateSpace:
    """State space of the order-j compound system.

    The state matrix is the j-th multiplicative compound of A; input and
    output maps are the compounds of the extended controllability and
    observability blocks.  State dimension is C(n, j).
    """
    n = ss.order
    if not 1 <= j <= n:
        raise ValueError(f"compound order j={j} out of range for n={n}")
    A = compound_matrix(ss.A, j)
    b = compound_matrix(extended_controllability(ss, j), j).reshape(-1)
    c = compound_matrix(extended_observability(ss, j), j).reshape(-1)
    return StateSpace(A, b, c)


def state_space_samples(ss: StateSpace, horizon: int) -> list:
    """g(0..horizon) of a state space by the recurrence y = c @ x,
    x <- A @ x from x = b, with g(0) = 0; samples that leave the doubles
    are kept as they come (inf or nan)."""
    g = [0.0]
    x = ss.b.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(horizon):
            g.append(float(ss.c @ x))
            x = ss.A @ x
    return g


def is_unimodal(u: Signal) -> bool:
    """True when the first forward difference changes sign at most once."""
    if len(_as_samples(u)) <= 1:
        return True
    return variation(forward_difference(_coerce(u), 1)) <= 1


def _coerce(u) -> Signal:
    return u if isinstance(u, Signal) else Signal(0, tuple(u))


def _default_window(g: Signal, window) -> tuple:
    if window is None:
        return (g.support_start, g.support_end)
    a, b = int(window[0]), int(window[1])
    if b < a:
        raise ValueError("window end precedes window start")
    return (a, b)


def _shape_check(g: Signal, window, concave: bool) -> bool:
    a, b = _default_window(_coerce(g), window)
    g = _coerce(g)
    samples = [g.value(t) for t in range(a, b + 1)]
    for t, v in zip(range(a, b + 1), samples):
        if v < -ZERO_TOL:
            raise ValueError(f"negative sample g({t})={v} inside window")
    # Nonzero support restricted to the window must be contiguous.
    nz = [i for i, v in enumerate(samples) if v > ZERO_TOL]
    if nz and any(samples[i] <= ZERO_TOL for i in range(nz[0], nz[-1] + 1)):
        return False
    for i in range(len(samples) - 2):
        sq = samples[i + 1] ** 2
        prod = samples[i] * samples[i + 2]
        lhs = (sq - prod) if concave else (prod - sq)
        scale = max(sq, abs(prod), 1e-300)
        if lhs < -SLACK_TOL * scale:
            return False
    return True


def is_log_concave(g: Signal, window=None) -> bool:
    """Nonnegative on the window, interval support, and
    g(t+1)^2 - g(t) g(t+2) >= 0 up to relative slack ``SLACK_TOL``."""
    return _shape_check(g, window, concave=True)


def is_log_convex(g: Signal, window=None) -> bool:
    """Mirror of is_log_concave with the inequality reversed."""
    return _shape_check(g, window, concave=False)


class CoefficientCheck(NamedTuple):
    ok: bool
    index: Optional[int]
    reason: Optional[str]


def necessary_coefficients(sys, k: int,
                           operator: str = "hankel") -> CoefficientCheck:
    """Necessary residue/pole sign pattern for order-k positivity.

    Hankel: the first min(k, n) residues are positive with nonnegative
    poles.  Toeplitz: residues alternate starting positive, poles
    nonnegative.  Returns the first offending 1-based index.
    """
    pfs = canonical(sys)
    if not isinstance(pfs, PartialFractionSystem):
        raise UnsupportedRepresentationError(
            "coefficient conditions need simple real poles")
    m = min(k, len(pfs.terms))
    for i in range(1, m + 1):
        r, p = pfs.terms[i - 1]
        if p < -ZERO_TOL:
            return CoefficientCheck(False, i, f"pole {p} negative")
        if operator == "hankel":
            if r <= 0:
                return CoefficientCheck(False, i, f"residue {r} not positive")
        elif operator == "toeplitz":
            want = 1 if i % 2 == 1 else -1
            if r * want <= 0:
                return CoefficientCheck(
                    False, i, f"residue {r} breaks the alternating pattern")
        else:
            raise ValueError(f"unknown operator {operator!r}")
    return CoefficientCheck(True, None, None)


class RelaxationBundle(NamedTuple):
    coefficient_form: bool
    window_definite: bool
    alternating_differences: bool

    @property
    def agree(self) -> bool:
        return (self.coefficient_form == self.window_definite
                == self.alternating_differences)


def check_relaxation(pfs: PartialFractionSystem, J: int = 6,
                     horizon: int = 40) -> RelaxationBundle:
    """Three equivalent faces of complete monotonicity.

    (a) all residues and poles nonnegative; (b) the order-n windows at
    offsets 1 and 2 are PD/PSD; (c) the alternating forward differences
    of the impulse response are nonnegative samplewise for orders 0..J.
    The three must agree for bounded impulse responses.
    """
    if len(pfs.fir):
        raise UnsupportedRepresentationError(
            "relaxation bundle needs a pure pole/residue form")
    n = len(pfs.terms)
    if n == 0:
        return RelaxationBundle(True, True, True)
    coeff = all(r > 0 for r in pfs.residues) and \
        all(p >= 0 for p in pfs.poles)

    need = max(horizon + J + 1, 2 * n + 2)
    g = impulse_response(pfs, need)
    h1 = hankel_matrix(g, 1, n)
    h2 = hankel_matrix(g, 2, n)
    definite = is_pd(h1) and is_psd(h2)

    tail = Signal(1, g.window(1, horizon + J))
    alternating = True
    for j in range(J + 1):
        d = tail if j == 0 else forward_difference(tail, j)
        vals = [((-1) ** j) * v for v in d.values]
        scale = max(max(abs(v) for v in vals), 1e-300) if vals else 1.0
        if any(v < -SLACK_TOL * scale for v in vals):
            alternating = False
            break
    return RelaxationBundle(coeff, definite, alternating)


def recombined_impulse(dec: Decomposition, horizon: int) -> Signal:
    if dec.mode == "hankel-additive":
        a = impulse_response(dec.dominant, horizon)
        if dec.remainder.is_zero():
            return a
        b = impulse_response(dec.remainder, horizon)
        return Signal(0, tuple(a.value(t) + b.value(t)
                               for t in range(horizon + 1)))
    gr = impulse_response(dec.remainder, horizon)
    p1 = dec.factor_pole
    out = []
    for t in range(horizon + 1):
        out.append(math.fsum(p1 ** (t - s) * gr.value(s)
                             for s in range(t + 1)))
    return Signal(0, tuple(out))


class RepeatedPoleCheck(NamedTuple):
    ok: bool
    reason: Optional[str]
    multiplicities: tuple


def repeated_pole_check(ss: StateSpace, k: int) -> RepeatedPoleCheck:
    """Necessary multiplicity pattern for order-k positivity of the
    past-to-future operator: the k-1 dominant pole clusters are simple and
    the (k-1)-th is positive; at k = n all poles must be simple."""
    lam = [complex(v) for v in np.linalg.eigvals(ss.A)]
    lam.sort(key=dominance_key)
    clusters = []
    for v in lam:
        if clusters and abs(v - clusters[-1][0]) <= ROOT_TOL * (
                1.0 + abs(v)):
            clusters[-1][1] += 1
        else:
            clusters.append([v, 1])
    mults = tuple(m for _, m in clusters)
    n = ss.order
    limit = min(k - 1, len(clusters))
    for i in range(limit):
        if clusters[i][1] > 1:
            return RepeatedPoleCheck(
                False, f"dominant pole {clusters[i][0]} repeated "
                       f"(multiplicity {clusters[i][1]})", mults)
    if k >= 2:
        if k - 1 > len(clusters):
            return RepeatedPoleCheck(False, "fewer distinct poles than k-1",
                                     mults)
        p = clusters[k - 2][0]
        if abs(p.imag) > ROOT_TOL * (1.0 + abs(p)) or p.real <= 0:
            return RepeatedPoleCheck(
                False, f"pole {p} at rank {k - 1} is not real positive",
                mults)
    if k >= n and any(m > 1 for m in mults):
        return RepeatedPoleCheck(False, "total positivity needs all poles "
                                        "simple", mults)
    return RepeatedPoleCheck(True, None, mults)


def diff_system(pfs: PartialFractionSystem) -> PartialFractionSystem:
    """System whose impulse response is the negated first forward
    difference of the source response, boundary sample included.

    Pole terms map to residue r(1-p) at the same pole; the t = 0 boundary
    and any source FIR tail land in the direct tail.
    """
    terms = tuple((r * (1.0 - p), p) for r, p in pfs.terms)
    fir_src = pfs.fir
    end = max(fir_src.support_end if len(fir_src) else 0, 0)
    fir = {t: fir_src.value(t) - fir_src.value(t + 1) for t in range(end + 1)}
    fir[0] = fir.get(0, 0.0) - math.fsum(pfs.residues)
    span = max(fir)
    sig = Signal(0, tuple(fir.get(t, 0.0) for t in range(span + 1)))
    return PartialFractionSystem(terms, sig)


_BUILTIN_NONLINEARITIES = {
    "relay": (lambda y: float(np.sign(y)), "sign-preserving"),
    "saturation": (lambda y: float(np.clip(y, -1.0, 1.0)),
                   "sign-preserving"),
    "sigmoid": (lambda y: 1.0 / (1.0 + math.exp(-y)), "monotone"),
}


def apply_nonlinearity(y: Signal, kind: str = "relay",
                       table: Optional[Sequence] = None,
                       declared: Optional[str] = None) -> Signal:
    """Samplewise static nonlinearity with its declared class enforced.

    Sign-preserving maps keep the variation unchanged; monotone
    (strictly increasing) maps keep the variation of the first forward
    difference, i.e. the local extrema.  Violations of the declared class
    raise.
    """
    if kind == "table":
        if table is None or declared not in ("sign-preserving", "monotone"):
            raise ValueError("custom tables need breakpoints and a declared "
                             "class")
        pts = sorted((float(x), float(v)) for x, v in table)
        xs = [p[0] for p in pts]
        vs = [p[1] for p in pts]
        if declared == "monotone":
            if any(b <= a for a, b in zip(vs, vs[1:])):
                raise ValueError("monotone table must be strictly "
                                 "increasing; declare sign-preserving "
                                 "otherwise")
        fn = lambda t: float(np.interp(t, xs, vs))
        cls = declared
    else:
        try:
            fn, cls = _BUILTIN_NONLINEARITIES[kind]
        except KeyError:
            raise ValueError(f"unknown nonlinearity {kind!r}") from None
    out = Signal(y.support_start, tuple(fn(v) for v in y.values))
    if cls == "sign-preserving":
        for v, w in zip(y.values, out.values):
            if np.sign(v) != np.sign(w) and abs(v) > ZERO_TOL:
                raise ValueError("table is not sign-preserving at "
                                 f"input {v}")
        if variation(out) != variation(y):
            raise ValueError("sign-preserving map changed the variation")
    else:
        dv = variation(forward_difference(y))
        dw = variation(forward_difference(out))
        if dv != dw:
            raise ValueError("monotone map changed the local extrema count")
    return out


@dataclass(frozen=True)
class NeuronalCondition:
    """Excitation/inhibition balance for a three-channel lag bank."""

    ok: bool
    margin: float


def neuronal_condition(r1: float, r2: float, r3: float,
                       p1: float, p2: float, p3: float) -> NeuronalCondition:
    """Smoothing condition for the parallel bank r1/(z-p1) + r2/(z-p2)
    - r3/(z-p3).

    Requires r_i > 0, p1 > p2 > p3 > 0 and r2 >= r3.  The bank keeps the
    one-step smoothing property exactly when the cross-channel gap margin
    r1 r2 (p1-p2)^2 - r1 r3 (p1-p3)^2 - r2 r3 (p2-p3)^2 is nonnegative;
    the margin equals the first sample of the order-2 compound response.
    """
    vals = dict(r1=r1, r2=r2, r3=r3, p1=p1, p2=p2, p3=p3)
    if any(v <= 0 for v in vals.values()):
        raise ValueError("all gains and poles must be positive")
    if not (p1 > p2 > p3):
        raise ValueError("poles must satisfy p1 > p2 > p3")
    if r2 < r3:
        raise ValueError("the inhibitory gain must not exceed r2")
    margin = math.fsum([r1 * r2 * (p1 - p2) ** 2,
                        -r1 * r3 * (p1 - p3) ** 2,
                        -r2 * r3 * (p2 - p3) ** 2])
    return NeuronalCondition(margin >= 0.0, margin)


# Every name above that the package once defined, and the wrappers and
# constants it deleted; no ``vardim`` module binds any of them.
MOVED = ("MINOR_SCAN_CAP", "MinorReport", "minor", "compound_matrix",
         "KPositivityVerdict", "_scan_budget", "is_k_positive",
         "desnanot_jacobi_residual", "to_state_space", "rtf_to_state_space",
         "extended_controllability", "extended_observability",
         "compound_realization", "is_unimodal", "_coerce",
         "_default_window", "_shape_check", "is_log_concave",
         "is_log_convex", "CoefficientCheck", "necessary_coefficients",
         "RelaxationBundle", "check_relaxation", "recombined_impulse",
         "RepeatedPoleCheck", "repeated_pole_check", "diff_system",
         "_BUILTIN_NONLINEARITIES", "apply_nonlinearity",
         "NeuronalCondition", "neuronal_condition")
DELETED = ("toeplitz_minor", "zeros", "IndexTuple", "enumerate_tuples",
           "_indices", "RELAXATION", "StructuredMatrixView", "_compound",
           "_sorted_roots")
