"""Exact real-root counts on integer polynomials, and the serial-lag test.

A float is a dyadic rational, so float coefficients times a power of two
are Python ``int``s, and a question about the roots of a float polynomial
is decided exactly on them.  A polynomial is a list of ``int``
coefficients in descending powers, as ``numpy.poly`` orders them; ``[]``
is the zero polynomial.  Root counts come from Sturm sequences built as
primitive signed pseudo-remainder sequences (Basu, Pollack & Roy,
*Algorithms in Real Algebraic Geometry*, ch. 2): each step multiplies by
positive factors only, so every element has the sign of the signed
remainder sequence's element at every point.  Standard library only.
"""

from __future__ import annotations

import math
from typing import NamedTuple

INF = math.inf


def _primitive(p: list) -> list:
    """``p`` without leading zeros, divided by the gcd of its
    coefficients (a positive number, so every sign is kept)."""
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    p = p[i:]
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def integer_poly(coeffs) -> list:
    """Primitive integer polynomial that is a positive multiple of the
    float polynomial ``coeffs`` (descending powers)."""
    try:
        ratios = [float(c).as_integer_ratio() for c in coeffs]
    except (OverflowError, ValueError) as exc:
        raise ValueError("polynomial coefficients must be finite") from exc
    # Every denominator is a power of two, so the largest is their lcm.
    scale = max((d for _, d in ratios), default=1)
    return _primitive([n * (scale // d) for n, d in ratios])


def _derivative(p: list) -> list:
    deg = len(p) - 1
    return _primitive([c * (deg - i) for i, c in enumerate(p[:-1])])


def _negated_remainder(a: list, b: list) -> list:
    """Minus the remainder of ``a`` divided by ``b``, times a positive
    factor, primitive.  Each step takes m * r - sign(lc) r_0 b x^i with
    m = |lc(b)|, which cancels the leading term of r."""
    lead = b[0]
    m, s = abs(lead), (1 if lead > 0 else -1)
    nb = len(b)
    r = a
    while len(r) >= nb:
        q = s * r[0]
        if q:
            r = ([m * x - q * y for x, y in zip(r[1:nb], b[1:])]
                 + [m * x for x in r[nb:]])
        else:
            r = r[1:]
    return _primitive([-c for c in r])


def _sturm(p: list) -> list:
    """Sturm sequence p, p', ...; its last element is gcd(p, p') up to a
    nonzero factor."""
    seq = [p]
    q = _derivative(p)
    while q:
        seq.append(q)
        q = _negated_remainder(seq[-2], q)
    return seq


def _quotient(p: list, g: list) -> list:
    """p / g for a primitive divisor g of p; every quotient coefficient
    is an integer (Gauss's lemma), so each division is exact."""
    r = list(p)
    q = []
    for i in range(len(p) - len(g) + 1):
        c = r[i] // g[0]
        q.append(c)
        for j in range(1, len(g)):
            r[i + j] -= c * g[j]
    return q


def _squarefree_sturm(p: list) -> list:
    """Sturm sequence of the squarefree part of ``p`` (primitive, with
    the sign of ``p``'s leading coefficient)."""
    seq = _sturm(p)
    g = seq[-1]
    if len(g) == 1:
        return seq
    q = _primitive(_quotient(p, g))
    if (q[0] > 0) != (p[0] > 0):
        q = [-c for c in q]
    return _sturm(q)


def squarefree(p: list) -> list:
    """Squarefree part p / gcd(p, p'): every root of ``p`` once."""
    p = _primitive(list(p))
    if not p:
        raise ValueError("the zero polynomial has no squarefree part")
    return _squarefree_sturm(p)[0]


def _sign_at(p: list, x) -> int:
    if x == INF or x == -INF:
        v = p[0] if x > 0 or len(p) % 2 else -p[0]
    elif x == 0:
        v = p[-1]
    else:
        v = 0
        for c in p:
            v = v * x + c
    return (v > 0) - (v < 0)


def _variations(seq: list, x) -> int:
    signs = [s for s in (_sign_at(p, x) for p in seq) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _count(seq: list, lo, hi) -> int:
    return _variations(seq, lo) - _variations(seq, hi)


def sturm_count(p: list, lo, hi) -> int:
    """Number of distinct real roots of ``p`` in (lo, hi], for lo < hi
    integers or infinities: a root at ``hi`` counts, one at ``lo`` does
    not."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    p = _primitive(list(p))
    if not p:
        raise ValueError("the zero polynomial has no finite root count")
    return _count(_squarefree_sturm(p), lo, hi)


class SerialLag(NamedTuple):
    """Exact root counts of the serial-lag test on N/D.

    ``gain`` is the sign of lead(N)/lead(D).  D has ``poles`` distinct
    roots in [0, inf) out of ``distinct_poles`` (the degree of its
    squarefree part) and degree ``den_degree``; N has ``zeros`` distinct
    roots in (-inf, 0] out of ``distinct_zeros`` and degree
    ``num_degree``.
    """

    gain: int
    poles: int
    distinct_poles: int
    den_degree: int
    zeros: int
    distinct_zeros: int
    num_degree: int

    @property
    def holds(self) -> bool:
        """Positive gain, every pole real and nonnegative and every zero
        real and nonpositive, with multiplicity: by the Aissen-Schoenberg-
        Whitney-Edrei theorem (Karlin, *Total Positivity*, ch. 8) N/D is a
        serial cascade of first-order lags whose Toeplitz operator is
        totally positive."""
        return (self.gain > 0 and self.poles == self.distinct_poles
                and self.zeros == self.distinct_zeros)

    @property
    def simple(self) -> bool:
        """D is squarefree: every pole is simple."""
        return self.distinct_poles == self.den_degree

    def failure(self) -> dict:
        """The first root count that fails ``holds``, as a witness;
        ``{}`` when only the gain or nothing fails."""
        if self.poles != self.distinct_poles:
            return {"kind": "root-count", "polynomial": "squarefree(den)",
                    "interval": "[0, inf)", "count": self.poles,
                    "degree": self.distinct_poles}
        if self.zeros != self.distinct_zeros:
            return {"kind": "root-count", "polynomial": "squarefree(num)",
                    "interval": "(-inf, 0]", "count": self.zeros,
                    "degree": self.distinct_zeros}
        return {}


def serial_lag(num, den) -> SerialLag:
    """Root counts of the float num/den pair (descending powers) as
    given, every coefficient read as the exact dyadic rational it is."""
    n, d = integer_poly(num), integer_poly(den)
    if not n or not d:
        raise ValueError("numerator and denominator must be nonzero")
    dseq, nseq = _squarefree_sturm(d), _squarefree_sturm(n)
    return SerialLag(
        gain=1 if (n[0] > 0) == (d[0] > 0) else -1,
        poles=_count(dseq, 0, INF) + (d[-1] == 0),
        distinct_poles=len(dseq[0]) - 1, den_degree=len(d) - 1,
        zeros=_count(nseq, -INF, 0), distinct_zeros=len(nseq[0]) - 1,
        num_degree=len(n) - 1)
