"""The paper's dense compound constructions, kept as a test reference.

The paper states k-positivity through the C(n, j)-state compound
realization and the minors of the compound matrix (Karlin, *Total
Positivity*, 1968).  The package decides every verdict another way: by
the Cauchy-Binet residue formula, by Hankel-window determinants or by the
exact serial-lag test.  The tests compare those routes with the dense
constructions below, which no check runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from vardim.errors import (BudgetExceededError, DegenerateSystemError,
                           UnsupportedRepresentationError)
from vardim.lti import PartialFractionSystem, StateSpace
from vardim.totpos import minor_zero_threshold

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


# Every name above that the package once defined, and the wrappers it
# deleted; no ``vardim`` module binds any of them.
MOVED = ("MINOR_SCAN_CAP", "MinorReport", "minor", "compound_matrix",
         "KPositivityVerdict", "_scan_budget", "is_k_positive",
         "desnanot_jacobi_residual", "to_state_space",
         "extended_controllability", "extended_observability",
         "compound_realization")
DELETED = ("toeplitz_minor", "zeros", "IndexTuple", "enumerate_tuples",
           "_indices")
