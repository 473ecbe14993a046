"""Finite-matrix tests: the zero level of a minor, definiteness and rank."""

from __future__ import annotations

import math

import numpy as np

from .tolerance import RANK_TOL, SLACK_TOL


def minor_zero_threshold(sub: np.ndarray, tol: float = SLACK_TOL) -> float:
    """Scale below which a determinant of ``sub`` is indistinguishable
    from zero: tol times the product of row sup-norms."""
    return tol * math.prod(np.abs(np.atleast_2d(sub)).max(axis=1).tolist())


def _check_symmetric(X: np.ndarray):
    scale = max(1.0, float(np.max(np.abs(X))) if X.size else 0.0)
    if np.max(np.abs(X - X.T)) > SLACK_TOL * scale:
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
        if d <= minor_zero_threshold(sub, RANK_TOL):
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
    return bool(w[0] >= -SLACK_TOL * scale)


def matrix_rank(X) -> int:
    """Rank by singular values above ``RANK_TOL`` times the largest."""
    s = np.linalg.svd(np.asarray(X, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))
