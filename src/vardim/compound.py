"""Compound systems: consecutive-minor impulse responses, their state-space
realizations, and the explicit partial-fraction form for simple real poles.

The checks use the partial-fraction form whenever the source has one and
build a realization only for other sources; the minor sequence is a
reference for tests."""

from __future__ import annotations

import itertools
import math

from .lti import (PartialFractionSystem, StateSpace, extended_controllability,
                  extended_observability, hankel_matrix, toeplitz_matrix)
from .signals import Signal
from .totpos import compound_matrix

# Pole products closer than this (relative) are merged into one term.
MERGE_TOL = 1e-12


def reversal_sign(j: int) -> int:
    """Sign of the j x j column-reversal permutation: +1 iff j mod 4 <= 1.

    Relates Toeplitz windows to Hankel windows: reversing the column order
    of a Toeplitz window yields a Hankel window up to this sign.
    """
    if j < 1:
        raise ValueError("order j must be >= 1")
    return 1 if j % 4 <= 1 else -1


def compound_impulse(g: Signal, j: int, horizon: int) -> Signal:
    """Sequence of order-j Hankel-window determinants for t = 1..horizon."""
    if j < 1:
        raise ValueError("order j must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    vals = [hankel_matrix(g, t, j).det() for t in range(1, horizon + 1)]
    return Signal(1, tuple(vals))


def toeplitz_minor(g: Signal, t: int, j: int) -> float:
    """Determinant of the order-j Toeplitz window at offset t."""
    return toeplitz_matrix(g, t, j).det()


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


def compound_transfer(pfs: PartialFractionSystem,
                      j: int) -> PartialFractionSystem:
    """Partial-fraction form of the order-j compound of a simple-real-pole
    system: one term per index tuple v, with pole prod(p_v) and residue
    prod(r_v) times the squared pole gaps inside v.

    Terms whose pole products coincide are merged by compensated summation.
    """
    n = len(pfs.terms)
    if not pfs.fir.is_zero():
        raise ValueError("compound transfer needs a pure pole/residue form")
    if j == 1:
        return pfs
    if not 2 <= j <= n:
        raise ValueError(f"compound order j={j} out of range for n={n}")
    residues = pfs.residues
    poles = pfs.poles
    raw = []
    for v in itertools.combinations(range(n), j):
        res = 1.0
        for i in v:
            res *= residues[i]
        for a, b in itertools.combinations(v, 2):
            res *= (poles[a] - poles[b]) ** 2
        pole = 1.0
        for i in v:
            pole *= poles[i]
        raw.append((pole, res))
    raw.sort(key=lambda pr: pr[0])
    merged = []
    for pole, res in raw:
        if merged and abs(pole - merged[-1][0]) <= MERGE_TOL * max(
                1.0, abs(pole), abs(merged[-1][0])):
            merged[-1][1].append(res)
        else:
            merged.append((pole, [res]))
    terms = tuple((math.fsum(parts), pole) for pole, parts in merged)
    return PartialFractionSystem(terms)
