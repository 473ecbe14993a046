"""System representations, impulse responses and Hankel/Toeplitz windows.

Three representations are supported: partial fractions (simple real poles
plus an optional direct FIR tail), rational transfer functions stored as
coefficient vectors, and state-space triples (A, b, c).  Poles, zeros and
eigenvalues are always ordered by descending magnitude with ties broken by
descending real part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import (BudgetExceededError, DegenerateSystemError,
                     UnsupportedRepresentationError, WindowError)
from .signals import Signal
from .tolerance import ROOT_TOL, SLACK_TOL, ZERO_TOL

DEFAULT_HORIZON = 64


def dominance_key(x):
    """Sort key: descending magnitude, then descending real part."""
    z = complex(x)
    return (-abs(z), -z.real, -z.imag)


class _Terms:
    """The ``terms`` field of ``PartialFractionSystem``.

    The constructor's argument is held only until ``__post_init__`` turns
    it into the canonical arrays.  Reading the field builds the tuple of
    (residue, pole) pairs from those arrays on first access and caches it,
    so a system that is only scanned never builds it.
    """

    def __get__(self, obj, owner=None):
        if obj is None:
            return ()  # the field's default
        d = obj.__dict__
        if "terms" not in d:
            d["terms"] = tuple(zip(obj._r.tolist(), obj._p.tolist()))
        return d["terms"]

    def __set__(self, obj, value):
        obj.__dict__["terms"] = value


def _dominance_arrays(r: np.ndarray, p: np.ndarray,
                      ascending: bool = False) -> tuple:
    """Residues and poles checked finite, zero residues dropped, in
    dominance order, poles checked separated.  Poles that arrive in
    ascending order and are all positive are in dominance order reversed;
    any other input is sorted."""
    if not (np.isfinite(r).all() and np.isfinite(p).all()):
        raise ValueError("residues and poles must be finite")
    keep = r != 0.0
    if not keep.all():
        r, p = r[keep], p[keep]
    if ascending and (p > 0.0).all():
        r, p = r[::-1], p[::-1]
    else:
        # Stable, and the same total order as sorting by ``dominance_key``.
        order = np.lexsort((-p, -np.abs(p)))
        r, p = r[order], p[order]
    scale = np.maximum(np.abs(p), 1.0)
    near = np.abs(np.diff(p)) <= ZERO_TOL * np.maximum(scale[:-1], scale[1:])
    if near.any():
        raise UnsupportedRepresentationError(
            f"repeated pole {float(p[np.argmax(near)])}; use StateSpace "
            f"for repeated poles")
    return r, p


@dataclass(frozen=True)
class PartialFractionSystem:
    """Sum of simple real first-order terms plus an optional direct FIR tail.

    ``terms`` holds (residue, pole) pairs; the impulse response is
    residue * pole**(t-1) for t >= 1 from each term, plus the FIR samples.
    Zero residues are dropped and the FIR tail is trimmed to its exactly
    nonzero samples, however small they are; an empty system is the zero
    system.

    The state is the pair of read-only ``arrays`` (residues and poles in
    dominance order).  ``terms`` is built from them when first read, and
    equality, hashing, ``repr`` and pickling go through it, so they are
    those of the tuple.
    """

    terms: tuple = _Terms()
    fir: Signal = field(default_factory=Signal)

    def __post_init__(self):
        terms = self.__dict__.pop("terms")
        if not isinstance(terms, (tuple, list, np.ndarray)):
            terms = tuple(terms)
        rp = np.array(terms, dtype=float)
        if rp.size == 0:
            rp = rp.reshape(0, 2)
        if rp.ndim != 2 or rp.shape[1] != 2:
            raise ValueError("terms must be (residue, pole) pairs")
        self._set_arrays(*_dominance_arrays(rp[:, 0], rp[:, 1]))
        if self.fir.support_start < 0:
            raise ValueError("FIR tail samples must sit at t >= 0")
        object.__setattr__(self, "fir", self.fir.trimmed(0.0))

    @classmethod
    def _from_ascending(cls, r: np.ndarray,
                        p: np.ndarray) -> "PartialFractionSystem":
        """Pure pole/residue system from residue and pole arrays sorted by
        ascending pole, such as ``compound_transfer`` hands over: the same
        system as the constructor builds from the pairs, without copying
        them into pairs or sorting them again.  The system takes the arrays
        over (read-only, possibly as reversed views)."""
        out = object.__new__(cls)
        object.__setattr__(out, "fir", Signal())
        out._set_arrays(*_dominance_arrays(r, p, ascending=True))
        return out

    def _set_arrays(self, r: np.ndarray, p: np.ndarray):
        for arr in (r, p):
            arr.setflags(write=False)
        object.__setattr__(self, "_r", r)
        object.__setattr__(self, "_p", p)

    def __reduce__(self):
        return PartialFractionSystem, (self.terms, self.fir)

    @property
    def arrays(self) -> tuple:
        """Residues and poles as read-only float arrays, in term order."""
        return self._r, self._p

    @cached_property
    def residues(self) -> tuple:
        return tuple(self._r.tolist())

    @cached_property
    def poles(self) -> tuple:
        return tuple(self._p.tolist())

    @property
    def order(self) -> int:
        """State dimension of the canonical realization (FIR included)."""
        return len(self._r) + self._fir_span()

    def _fir_span(self) -> int:
        return self.fir.support_end if len(self.fir) else 0

    def is_zero(self) -> bool:
        return len(self._r) == 0 and not len(self.fir)

    def scaled(self, a: float) -> "PartialFractionSystem":
        """``a`` times the system.  When every a * r is finite and nonzero
        the sorted, separated poles are reused as they are; otherwise the
        scaled pairs go through the constructor."""
        r = a * self._r
        fir = self.fir.scaled(a).trimmed(0.0)
        if not (np.isfinite(r).all() and r.all()):
            return PartialFractionSystem(np.column_stack((r, self._p)), fir)
        out = object.__new__(PartialFractionSystem)
        object.__setattr__(out, "fir", fir)
        out._set_arrays(r, self._p)
        return out


@dataclass(frozen=True)
class RationalTransferFunction:
    """Strictly proper rational function stored as coefficient vectors.

    ``num`` and ``den`` are descending-power coefficients; the denominator
    is normalized monic.  Poles and zeros must be disjoint.
    """

    num: tuple
    den: tuple

    def __post_init__(self):
        num = np.trim_zeros(np.asarray(self.num, dtype=float), "f")
        den = np.trim_zeros(np.asarray(self.den, dtype=float), "f")
        if den.size:  # monic; a quotient that overflows is not finite
            with np.errstate(all="ignore"):
                num, den = num / den[0], den / den[0]
        if not (np.isfinite(num).all() and np.isfinite(den).all()):
            raise ValueError("transfer-function coefficients must be finite")
        if den.size == 0:
            raise ValueError("denominator must be nonzero")
        if num.size == 0:
            raise DegenerateSystemError("zero numerator: system is trivial")
        if num.size >= den.size:
            raise ValueError("system must be strictly proper "
                             "(deg num < deg den)")
        object.__setattr__(self, "num", tuple(float(v) for v in num))
        object.__setattr__(self, "den", tuple(float(v) for v in den))
        scale = max(1.0, max(abs(p) for p in self.poles))
        for p in self.poles:
            for z in self.zeros:
                if abs(p - z) <= SLACK_TOL * scale:
                    raise ValueError(
                        f"pole {p} and zero {z} coincide; cancel the factor")

    @property
    def gain(self) -> float:
        return self.num[0]

    @cached_property
    def poles(self) -> tuple:
        return polynomial_roots(self.den)

    @cached_property
    def zeros(self) -> tuple:
        return polynomial_roots(self.num)

    @property
    def order(self) -> int:
        return len(self.den) - 1


@dataclass(frozen=True)
class StateSpace:
    """Single-input single-output realization x+ = Ax + bu, y = cx."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        c = np.asarray(self.c, dtype=float).reshape(-1)
        n = A.shape[0]
        if A.shape != (n, n) or n < 1:
            raise ValueError("A must be square and nonempty")
        if b.shape != (n,) or c.shape != (n,):
            raise ValueError("b and c must match the state dimension")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))
                and np.all(np.isfinite(c))):
            raise ValueError("state-space entries must be finite")
        for arr in (A, b, c):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def order(self) -> int:
        return self.A.shape[0]


SystemLike = Union[PartialFractionSystem, RationalTransferFunction, StateSpace]


def polynomial_roots(coeffs: Sequence[float]) -> tuple:
    """Roots via companion-matrix eigenvalues, near-real roots snapped,
    sorted by descending magnitude."""
    coeffs = np.trim_zeros(np.asarray(coeffs, dtype=float), "f")
    if coeffs.size == 0:
        raise DegenerateSystemError("zero polynomial has no defined roots")
    if coeffs.size == 1:
        return ()
    roots = np.roots(coeffs)
    snapped = []
    for z in roots:
        if abs(z.imag) <= ROOT_TOL * (1.0 + abs(z)):
            snapped.append(complex(z.real, 0.0))
        else:
            snapped.append(complex(z))
    return tuple(sorted(snapped, key=dominance_key))


def partial_fraction_samples(terms, fir: Signal, times) -> list:
    """Samples at ``times`` of the sum of r * p**(t-1) over (r, p) in
    ``terms`` plus the FIR tail, every term rounded once and every sum
    correctly rounded (``math.fsum``): the values ``impulse_response``
    reports.  ``terms`` is iterated once per time, so a call for a single
    time may pass an iterator.  The list ends at the first sample that is
    not a finite double."""
    out = []
    for t in times:
        try:
            acc = [r * p ** (t - 1) for r, p in terms] if t >= 1 else []
            acc.append(fir.value(t))
            out.append(math.fsum(acc))
        except (OverflowError, ValueError):  # inf, or inf - inf
            out.append(math.nan)
        if not math.isfinite(out[-1]):
            break
    return out


def require_horizon(horizon: int, name: str = "horizon"):
    """The one rule for a horizon or step count: ValueError below 1."""
    if horizon < 1:
        raise ValueError(f"{name} must be >= 1")


def impulse_response(sys: SystemLike, horizon: int) -> Signal:
    """Samples g(0..horizon); g(0) = 0 for strictly proper dynamics.

    Raises BudgetExceededError (``overflow_error``), naming the first t,
    when a sample up to the horizon is not a finite double (unstable
    dynamics overflow)."""
    require_horizon(horizon)
    if isinstance(sys, PartialFractionSystem):
        g = partial_fraction_samples(sys.terms, sys.fir, range(horizon + 1))
    elif isinstance(sys, StateSpace):
        g = [0.0]
        x = sys.b.copy()
        # Bound ``dot`` methods skip matmul's per-call dispatch and give
        # the samples of ``c @ x`` and ``A @ x``; adding 0.0 turns the -0.0
        # that ``dot`` returns for a lone zero product (n = 1) into matmul's
        # +0.0, and changes no other value.
        cdot, Adot = sys.c.dot, sys.A.dot
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(horizon):
                g.append(float(cdot(x)) + 0.0)
                x = Adot(x)
    elif isinstance(sys, RationalTransferFunction):
        den = sys.den
        n = len(den) - 1
        # Align numerator coefficients with z^(n-k).
        c = [0.0] * (n + 1)
        for i, v in enumerate(reversed(sys.num)):
            c[n - i] = v
        g = []
        for t in range(horizon + 1):
            acc = c[t] if t <= n else 0.0
            try:
                acc -= math.fsum(den[i] * g[t - i]
                                 for i in range(1, min(t, n) + 1))
            except (OverflowError, ValueError):  # inf, or inf - inf
                g.append(math.nan)
                break
            g.append(acc)
    else:
        raise TypeError(f"unsupported system type {type(sys).__name__}")
    try:
        return Signal(0, g)
    except ValueError:  # a Signal holds finite samples only
        t = next(t for t, v in enumerate(g) if not math.isfinite(v))
        raise overflow_error(t) from None


def overflow_error(t: int) -> BudgetExceededError:
    """The error ``impulse_response`` raises when g(t) is its first sample
    that is not a finite double; that t is its ``time``."""
    exc = BudgetExceededError(
        f"impulse response leaves the doubles at t={t}; shorten the horizon")
    exc.time = t
    return exc


def partial_fractions(rtf: RationalTransferFunction) -> PartialFractionSystem:
    """Residue expansion over simple real poles.

    Raises UnsupportedRepresentationError for repeated or complex poles;
    those systems have no partial-fraction form.
    """
    poles = rtf.poles
    scale = max(1.0, max(abs(p) for p in poles))
    for p in poles:
        if p.imag != 0.0:
            raise UnsupportedRepresentationError(
                f"complex pole {p}; use StateSpace")
    reals = sorted(p.real for p in poles)
    for a, b in zip(reals, reals[1:]):
        if abs(b - a) <= ZERO_TOL * scale:
            raise UnsupportedRepresentationError(
                f"repeated pole near {a}; use StateSpace")
    den = np.asarray(rtf.den)
    dden = np.polyder(den)
    xs = []
    for p in poles:
        x = p.real
        # One Newton polish; companion eigenvalues are accurate but not
        # always correctly rounded.
        slope = np.polyval(dden, x)
        if slope != 0.0:
            x = x - np.polyval(den, x) / slope
        xs.append(float(x))
    # N(p_i) / prod(p_i - p_j) over the polished poles, divided differences
    # of N, so that the samples below the relative degree cancel.
    return PartialFractionSystem(tuple(
        (float(np.polyval(rtf.num, x) / math.prod(
            x - y for y in xs[:i] + xs[i + 1:])), x)
        for i, x in enumerate(xs)))


def recombine(pfs: PartialFractionSystem) -> RationalTransferFunction:
    """Rational form of a partial-fraction system, FIR tail folded in."""
    if pfs.is_zero():
        raise DegenerateSystemError("cannot recombine the zero system")
    poles = list(pfs.poles)
    den = np.poly(poles) if poles else np.asarray([1.0])
    num = np.zeros(max(len(poles), 1))
    if poles:
        for i, r in enumerate(pfs.residues):
            rest = np.poly(poles[:i] + poles[i + 1:]) if len(poles) > 1 \
                else np.asarray([1.0])
            num = np.polyadd(num, r * rest)
    fir = pfs.fir
    if len(fir):
        if fir.value(0) != 0.0:
            raise UnsupportedRepresentationError(
                "direct term at t=0 breaks strict properness")
        span = fir.support_end
        # G_fir = sum f(tau) z^-tau -> multiply through by z^span.
        den_full = np.polymul(den, [1.0] + [0.0] * span)
        num_full = np.polymul(num, [1.0] + [0.0] * span)
        for tau in range(1, span + 1):
            shift = np.zeros(span - tau + 1)
            shift[0] = fir.value(tau)
            num_full = np.polyadd(num_full, np.polymul(shift, den))
        num, den = num_full, den_full
    return RationalTransferFunction(tuple(num), tuple(den))


def canonical(sys: SystemLike) -> SystemLike:
    """Partial fractions when the poles are simple and real, otherwise the
    input itself.

    State-space inputs are diagonalized; modes whose residue is negligible
    (uncontrollable or unobservable) are dropped.
    """
    if isinstance(sys, PartialFractionSystem):
        return sys
    if isinstance(sys, RationalTransferFunction):
        try:
            return partial_fractions(sys)
        except UnsupportedRepresentationError:
            return sys
    if not isinstance(sys, StateSpace):
        raise TypeError(f"unsupported system type {type(sys).__name__}")
    lam, V = np.linalg.eig(sys.A)
    scale = max(1.0, float(np.max(np.abs(lam))))
    if np.max(np.abs(lam.imag)) > ROOT_TOL * scale:
        return sys
    lam = lam.real
    # A conditioning choice, not a repeated-pole test: eigenvectors of
    # eigenvalues closer than this make an ill-conditioned basis.
    if np.any(np.diff(np.sort(lam)) <= SLACK_TOL * scale):
        return sys
    try:
        W = np.linalg.inv(V.real)
    except np.linalg.LinAlgError:
        return sys
    residues = (sys.c @ V.real) * (W @ sys.b)
    drop = ZERO_TOL * max(1.0, float(np.max(np.abs(residues))))
    return PartialFractionSystem(tuple(
        (float(r), float(p)) for r, p in zip(residues, lam) if abs(r) > drop))


def pole_residue_form(sys: SystemLike, needs: str) -> PartialFractionSystem:
    """The canonical form of ``sys`` if a pure pole/residue form, else
    UnsupportedRepresentationError opening with ``needs``."""
    pfs = canonical(sys)
    if not isinstance(pfs, PartialFractionSystem):
        raise UnsupportedRepresentationError(f"{needs} simple real poles")
    if len(pfs.fir):
        raise UnsupportedRepresentationError(
            f"{needs} a pure pole/residue form")
    return pfs


def _require_window(g: Signal, lo: int, hi: int, what: str):
    if lo < g.support_start or hi > g.support_end:
        raise WindowError(
            f"{what} needs samples {lo}..{hi} but the signal stores "
            f"{g.support_start}..{g.support_end}")


# 64 tables: both kinds of window up to order 16, and a run's truncations.
@lru_cache(maxsize=64)
def _offsets(rows: int, cols: int, toeplitz: bool) -> np.ndarray:
    """Read-only table of where entry (a, b) reads, counted from the first
    sample of its matrix: a + b, or with ``toeplitz`` a - b + cols - 1."""
    b = np.arange(cols)
    table = np.add.outer(np.arange(rows), b[::-1] if toeplitz else b)
    table.setflags(write=False)
    return table


def sample_matrix(g: Signal, t: int, rows: int, cols: int,
                  toeplitz: bool = False, stack: int = 0) -> np.ndarray:
    """Read-only rows x cols matrix, entry (a, b) = g(t + a + b), or
    g(t + a - b) with ``toeplitz``; g is 0 before t = 0 and past its
    stored samples.  A ``stack`` > 0 stacks that matrix at t, t + 1, ..."""
    table = _offsets(rows, cols, toeplitz)
    if stack:
        table = np.arange(stack)[:, None, None] + table
    # One zero-padded causal copy of g(start), g(start + 1), ...
    start = t - cols + 1 if toeplitz else t
    span = np.zeros(max(rows + cols + max(stack, 1) - 2, 0))
    lo = max(start, g.support_start, 0)
    hi = max(lo, min(start + len(span), g.support_end + 1))
    span[lo - start:hi - start] = g.values[lo - g.support_start:
                                           hi - g.support_start]
    m = span[table]
    m.setflags(write=False)
    return m


def hankel_matrix(g: Signal, t: int, j: int) -> np.ndarray:
    """Read-only j x j window, entry (a, b) = g(t+a+b-2): symmetric."""
    if t < 1:
        raise ValueError("Hankel windows start at t >= 1")
    if j < 1:
        raise ValueError("order j must be >= 1")
    _require_window(g, t, t + 2 * j - 2, f"H(t={t}, j={j})")
    return sample_matrix(g, t, j, j)


def toeplitz_matrix(g: Signal, t: int, j: int) -> np.ndarray:
    """Read-only j x j window, entry (a, b) = g(t+a-b); g is 0 before t=0."""
    if t < 0:
        raise ValueError("Toeplitz windows start at t >= 0")
    if j < 1:
        raise ValueError("order j must be >= 1")
    _require_window(g, max(0, t - j + 1), t + j - 1, f"T(t={t}, j={j})")
    return sample_matrix(g, t, j, j, toeplitz=True)
