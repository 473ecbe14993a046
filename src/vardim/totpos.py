"""Finite-matrix total positivity: minors, compounds, definiteness and rank."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError

# Relative threshold below which a minor counts as zero.
MINOR_TOL = 1e-9
PD_TOL = 1e-10
PSD_TOL = 1e-9
RANK_TOL = 1e-10
# Relative asymmetry above which ``is_pd``/``is_psd`` reject a matrix.
SYMMETRY_TOL = 1e-9
# Hard cap on exhaustive minor scans.
MINOR_SCAN_CAP = 10 ** 6


@dataclass(frozen=True)
class IndexTuple:
    """Strictly increasing 1-based index tuple inside an ambient range."""

    n: int
    elements: tuple

    def __post_init__(self):
        elems = tuple(int(v) for v in self.elements)
        if any(b <= a for a, b in zip(elems, elems[1:])):
            raise ValueError("indices must be strictly increasing")
        if elems and not (1 <= elems[0] and elems[-1] <= self.n):
            raise ValueError(f"indices must lie in 1..{self.n}")
        object.__setattr__(self, "elements", elems)

    @property
    def r(self) -> int:
        return len(self.elements)

    def zero_based(self) -> tuple:
        return tuple(v - 1 for v in self.elements)


def enumerate_tuples(n: int, r: int) -> list:
    """All r-element index tuples of 1..n in lexicographic order."""
    if r < 1:
        raise ValueError("tuple size r must be >= 1")
    if r > n:
        return []
    return [IndexTuple(n, c)
            for c in itertools.combinations(range(1, n + 1), r)]


@dataclass(frozen=True)
class MinorReport:
    """A single evaluated minor: order, row/column tuples and value."""

    order: int
    rows: tuple
    cols: tuple
    value: float


def _indices(sel, n: int) -> tuple:
    if isinstance(sel, IndexTuple):
        return sel.zero_based()
    return tuple(int(v) - 1 for v in sel)


def minor(X, I, J) -> float:
    """Determinant of the submatrix addressed by 1-based tuples I and J."""
    X = np.asarray(X, dtype=float)
    ri = _indices(I, X.shape[0])
    ci = _indices(J, X.shape[1])
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


def minor_zero_threshold(sub: np.ndarray, tol: float = MINOR_TOL) -> float:
    """Scale below which a determinant of ``sub`` is indistinguishable
    from zero: tol times the product of row sup-norms."""
    sub = np.atleast_2d(sub)
    prod = 1.0
    for row in sub:
        prod *= float(np.max(np.abs(row)))
    return tol * prod


def _check_symmetric(X: np.ndarray):
    scale = max(1.0, float(np.max(np.abs(X))) if X.size else 0.0)
    if np.max(np.abs(X - X.T)) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric")


def is_pd(X) -> bool:
    """Positive definiteness through leading principal minors."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.size == 0:
        return True
    _check_symmetric(X)
    for j in range(1, X.shape[0] + 1):
        sub = X[:j, :j]
        d = float(np.linalg.det(sub)) if j > 1 else float(sub[0, 0])
        if d <= minor_zero_threshold(sub, PD_TOL):
            return False
    return True


def is_psd(X) -> bool:
    """Positive semidefiniteness through the smallest eigenvalue."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.size == 0:
        return True
    _check_symmetric(X)
    w = np.linalg.eigvalsh((X + X.T) / 2.0)
    scale = max(float(np.max(np.abs(w))), 1e-300)
    return bool(w[0] >= -PSD_TOL * scale)


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


def matrix_rank(X) -> int:
    """Rank by singular values above ``RANK_TOL`` times the largest."""
    s = np.linalg.svd(np.asarray(X, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))
