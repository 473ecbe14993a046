"""Seeded system generator with construction labels.

Every system is built from its factors, so its label follows from how it
was built and never from a vardim verdict:

* parallel-lag characterization: a bank of first-order lags with
  nonnegative residues and poles has a totally positive Hankel operator,
  hence it is order-k positive on the Hankel face for every k;
* serial-lag characterization: a cascade with positive gain, real
  nonnegative poles and real nonpositive zeros has a totally positive
  Toeplitz operator, hence it is order-k positive on the Toeplitz face for
  every k;
* necessary residue-sign pattern (distinct positive poles, residues in
  dominance order): Hankel order-k positivity needs r_1..r_k > 0, and
  Toeplitz order-k positivity needs sign(r_i) = (-1)^(i-1) for i <= k,
  because the order-j consecutive minors end with the sign of
  r_1..r_j (times the column-reversal sign on the Toeplitz face).

A label is ``True``, ``False`` or ``None`` (no construction argument).

Magnitudes follow a fixed pattern per size and the seed moves each one by
up to ``JITTER`` (relative).  Every seed therefore gives different inputs
that ask the same questions, so the spread between seeds measures the
program rather than the draw: vardim's cost and verdict on several grid
cells change abruptly with the magnitudes (a witness search that finds a
sample at t=4 on one draw runs to its cap on another).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from vardim import (PartialFractionSystem, RationalTransferFunction,
                    StateSpace)

GRID_N = (3, 6, 10, 12, 16)
JITTER = 0.01
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def grid_ks(n: int) -> tuple:
    """k in {2, floor(n/2), n}, ascending and without repeats."""
    return tuple(sorted({2, n // 2, n}))


def grid():
    """The (n, k) cells shared by the hankel and toeplitz workloads."""
    return [(n, k) for n in GRID_N for k in grid_ks(n)]


def rng_for(workload: str, seed: int) -> random.Random:
    """One independent stream per workload and seed."""
    return random.Random(f"{workload}:{seed}")


def even_poles(n: int, hi: float = 0.95, lo: float = 0.05) -> tuple:
    """n distinct poles evenly spaced from hi down to lo."""
    if n == 1:
        return ((hi + lo) / 2,)
    step = (hi - lo) / (n - 1)
    return tuple(hi - i * step for i in range(n))


def jittered(value: float, rng: Optional[random.Random]) -> float:
    """value moved by up to JITTER (relative); unchanged when rng is None."""
    if rng is None:
        return value
    return value * (1.0 + JITTER * rng.uniform(-1.0, 1.0))


def spread(n: int, lo: float, hi: float,
           rng: Optional[random.Random]) -> list:
    """n magnitudes spread over [lo, hi] in a fixed low-discrepancy order
    (no two neighbours alike), each jittered by the seed."""
    return [jittered(lo + (hi - lo) * ((i + 1) * _GOLDEN % 1.0), rng)
            for i in range(n)]


@dataclass(frozen=True)
class Face:
    """Label of one operator face: order-k positive for every k
    (``always``), or not order-k positive for every k >= ``fails_from``."""

    always: bool = False
    fails_from: Optional[int] = None

    def label(self, k: float) -> Optional[bool]:
        if self.always:
            return True
        if self.fails_from is not None and k >= self.fails_from:
            return False
        return None


UNKNOWN = Face()
ALWAYS = Face(always=True)


@dataclass(frozen=True)
class Case:
    """One generated system with the factors it was built from."""

    kind: str
    system: object
    hankel: Face = UNKNOWN
    toeplitz: Face = UNKNOWN
    poles: tuple = ()
    residues: tuple = ()
    zeros: tuple = ()
    gain: float = 0.0

    def label(self, operator: str, k: int = 1) -> Optional[bool]:
        """Construction label for a check; the totals mean every order, and
        external positivity is order 1 of either face."""
        if operator == "external":
            return self.hankel.label(1)
        face, _, total = operator.partition("-")
        order = math.inf if total else k
        chosen = self.hankel if face == "hankel" else self.toeplitz
        return chosen.label(order)


def positive_bank(n: int, rng: Optional[random.Random]) -> Case:
    """Parallel lags: evenly spaced poles, residues spread over [0.2, 1]."""
    poles = even_poles(n)
    res = tuple(spread(n, 0.2, 1.0, rng))
    # r_2 > 0 breaks the Toeplitz alternation from order 2 on.
    return Case("positive-bank", PartialFractionSystem(tuple(zip(res, poles))),
                hankel=ALWAYS, toeplitz=Face(fails_from=2), poles=poles,
                residues=res)


def negated_bank(n: int, k: int, rng: random.Random) -> Case:
    """Positive bank with the k-th residue negated, the last one the
    order-k pattern needs.  The index is fixed by the cell, not drawn, so
    every seed asks the same question with other magnitudes."""
    poles = even_poles(n)
    res = spread(n, 0.2, 1.0, rng)
    i = k - 1
    res[i] = -res[i]
    return Case("negated-bank",
                PartialFractionSystem(tuple(zip(res, poles))),
                hankel=Face(fails_from=i + 1), poles=poles,
                residues=tuple(res))


def broken_alternating_bank(n: int, k: int, rng: random.Random) -> Case:
    """Residues alternating in dominance order with the k-th one flipped
    (fixed by the cell, like ``negated_bank``)."""
    poles = even_poles(n)
    res = [(-1) ** i * r for i, r in enumerate(spread(n, 0.2, 1.0, rng))]
    i = k - 1
    res[i] = -res[i]
    return Case("broken-alternating-bank",
                PartialFractionSystem(tuple(zip(res, poles))),
                toeplitz=Face(fails_from=i + 1), poles=poles,
                residues=tuple(res))


def cascade_residues(poles, zeros, gain) -> tuple:
    """Partial-fraction residues of a serial cascade, from its factors."""
    out = []
    for i, p in enumerate(poles):
        r = gain
        for z in zeros:
            r *= p - z
        for j, q in enumerate(poles):
            if j != i:
                r /= p - q
        out.append(r)
    return tuple(out)


def serial_cascade(n: int, rng: Optional[random.Random], sign: float = 1.0,
                   as_bank: bool = False) -> Case:
    """Cascade of n first-order lags with n // 2 nonpositive real zeros,
    as num/den coefficients or (``as_bank``) in partial-fraction form.

    ``sign=-1`` flips the gain: the first nonzero sample is then negative,
    so the system fails both faces at every order.  With positive gain the
    residues alternate, so r_2 < 0 breaks the Hankel pattern from order 2.
    """
    poles = even_poles(n)
    zeros = tuple(-z for z in spread(n // 2, 0.05, 0.9, rng))
    gain = sign * jittered(1.0, rng)
    residues = cascade_residues(poles, zeros, gain)
    if as_bank:
        system = PartialFractionSystem(tuple(zip(residues, poles)))
    else:
        num = gain * np.atleast_1d(np.poly(zeros))
        system = RationalTransferFunction(tuple(num), tuple(np.poly(poles)))
    if sign > 0:
        return Case("serial-cascade", system, hankel=Face(fails_from=2),
                    toeplitz=ALWAYS, poles=poles, residues=residues,
                    zeros=zeros, gain=gain)
    return Case("flipped-cascade", system, hankel=Face(fails_from=1),
                toeplitz=Face(fails_from=1), poles=poles, residues=residues,
                zeros=zeros, gain=gain)


def complex_tail_state_space(n: int, rng: random.Random) -> Case:
    """Dominant real pole plus a subdominant complex pair, in modal form.

    n - 2 real poles evenly spaced from 0.95 down to 0.3, then a rotation
    block by about 1.4 rad whose radius is about 0.45 times the smallest
    real pole.  No label: neither characterization
    covers complex modes.
    """
    reals = even_poles(n - 2, 0.95, 0.3) if n > 2 else ()
    rho = jittered(0.45, rng) * (reals[-1] if reals else 0.95)
    theta = jittered(1.4, rng)
    A = np.zeros((n, n))
    for i, p in enumerate(reals):
        A[i, i] = p
    A[n - 2:, n - 2:] = rho * np.array([[math.cos(theta), -math.sin(theta)],
                                        [math.sin(theta), math.cos(theta)]])
    b = np.array(spread(n, 0.2, 1.0, rng))
    c = np.ones(n)
    return Case("complex-tail-state-space", StateSpace(A, b, c),
                poles=reals)
