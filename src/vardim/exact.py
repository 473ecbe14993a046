"""Exact real-root counts on integer polynomials, and the serial-lag test.

A float is a dyadic rational, so float coefficients times a power of two
are Python ``int``s, and a question about the roots of a float polynomial
is decided exactly on them.  A polynomial is a list of ``int``
coefficients in descending powers, as ``numpy.poly`` orders them; ``[]``
is the zero polynomial; a finite point is read as the rational a / b it
is.  Root counts come from Sturm sequences built as primitive signed
pseudo-remainder sequences (Basu, Pollack & Roy, *Algorithms in Real
Algebraic Geometry*, ch. 2): each step multiplies by positive factors
only, so every element has the sign of the signed remainder sequence's
element at every point.  ``serial_lag`` first tries exact sign changes at
points that float roots place; those roots decide nothing, and no
tolerance is used.  Standard library only.
"""

from __future__ import annotations

import math
import operator
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
    """Sign of ``p`` at ``x``, an infinity or a finite number read as the
    exact rational a / b: that of b^deg p * p(a / b)."""
    if x == INF or x == -INF:
        v = p[0] if x > 0 or len(p) % 2 else -p[0]
    else:
        try:
            a, b = x.as_integer_ratio()
        except AttributeError:  # a numpy integer
            a, b = operator.index(x), 1
        v, w = p[0], 1
        for c in p[1:]:
            w *= b
            v = v * a + c * w
    return (v > 0) - (v < 0)


def _variations(seq: list, x) -> int:
    signs = [s for s in (_sign_at(p, x) for p in seq) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _count(seq: list, lo, hi) -> int:
    return _variations(seq, lo) - _variations(seq, hi)


def sturm_count(p: list, lo, hi) -> int:
    """Number of distinct real roots of ``p`` in (lo, hi], for lo < hi
    numbers or infinities: a root at ``hi`` counts, one at ``lo`` does
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


def _alternates(p: list, hints, lo, hi) -> bool:
    """True when ``p``, of degree d >= 1 with p(0) != 0, has d simple roots
    in (lo, hi): its signs strictly alternate at d + 1 increasing points,
    lo, a short dyadic point between each two consecutive sorted real
    parts of the d ``hints``, and hi.  Wrong hints only make it fail."""
    d = len(p) - 1
    if d < 1 or p[-1] == 0 or len(hints) != d:
        return False
    xs = sorted(h.real for h in hints)
    points = [lo]
    try:
        for a, b in zip(xs, xs[1:]):
            gap = b - a
            if not 0 < gap < INF:
                return False
            step = math.ldexp(1.0, math.frexp(gap)[1] - 3)  # <= gap / 4
            points.append(round((a + gap / 2) / step) * step)
    except ArithmeticError:  # a subnormal gap far from zero
        return False
    points.append(hi)
    if not all(x < y for x, y in zip(points, points[1:])):
        return False
    signs = [_sign_at(p, x) for x in points]
    return all(s == -t != 0 for s, t in zip(signs, signs[1:]))


def _roots(p: list, hints, lo, hi) -> tuple:
    """Distinct roots of ``p`` in (lo, hi] and the degree of its
    squarefree part, by ``_alternates`` or else by Sturm sequence."""
    if _alternates(p, hints, lo, hi):
        return len(p) - 1, len(p) - 1
    seq = _squarefree_sturm(p)
    return _count(seq, lo, hi), len(seq[0]) - 1


def serial_lag(rtf) -> SerialLag:
    """Root counts of the float num/den pair of ``rtf`` (descending
    powers) as given, every coefficient read as the exact dyadic rational
    it is.  The float roots ``rtf.poles`` and ``rtf.zeros`` only place
    the points of ``_alternates``."""
    n, d = integer_poly(rtf.num), integer_poly(rtf.den)
    if not n or not d:
        raise ValueError("numerator and denominator must be nonzero")
    poles, distinct_poles = _roots(d, rtf.poles, 0, INF)
    zeros, distinct_zeros = _roots(n, rtf.zeros, -INF, 0)
    return SerialLag(
        gain=1 if (n[0] > 0) == (d[0] > 0) else -1,
        poles=poles + (d[-1] == 0), distinct_poles=distinct_poles,
        den_degree=len(d) - 1, zeros=zeros, distinct_zeros=distinct_zeros,
        num_degree=len(n) - 1)
