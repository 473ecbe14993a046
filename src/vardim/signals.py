"""Finite-support discrete-time signals and sign-variation counting."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tolerance import ZERO_TOL

# Columns per base-3 sign word in ``row_variations``: a table of 3^8
# words.
SIGN_WORD = 8


@dataclass(frozen=True)
class Signal:
    """Real sequence over integer time, stored dense on a finite window.

    Samples outside the stored window are implicitly zero.  A length-0
    signal is the zero signal.
    """

    support_start: int = 0
    values: tuple = ()

    def __post_init__(self):
        vals = tuple(map(float, self.values))
        if not all(map(math.isfinite, vals)):
            raise ValueError("signal samples must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def support_end(self) -> int:
        """Last stored time index (start - 1 when empty)."""
        return self.support_start + len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)

    def value(self, t: int) -> float:
        i = t - self.support_start
        if 0 <= i < len(self.values):
            return self.values[i]
        return 0.0

    def window(self, start: int, end: int) -> tuple:
        """Samples on start..end inclusive, zero-padded outside the store."""
        return tuple(self.value(t) for t in range(start, end + 1))

    def to_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def is_zero(self) -> bool:
        return all(abs(v) <= ZERO_TOL for v in self.values)

    def scaled(self, a: float) -> "Signal":
        return Signal(self.support_start, tuple(a * v for v in self.values))

    def trimmed(self, zero_tol: float = ZERO_TOL) -> "Signal":
        """Shrink the stored window to the nonzero support; with none
        left, the zero signal ``Signal()``."""
        idx = [i for i, v in enumerate(self.values) if abs(v) > zero_tol]
        if not idx:
            return Signal()
        return Signal(self.support_start + idx[0],
                      self.values[idx[0]:idx[-1] + 1])


def sign(x: float, zero_tol: float = ZERO_TOL) -> int:
    if x > zero_tol:
        return 1
    if x < -zero_tol:
        return -1
    return 0


def _as_samples(u) -> Sequence[float]:
    if isinstance(u, Signal):
        return u.values
    return tuple(float(v) for v in u)


def variation(u, zero_tol: float = ZERO_TOL) -> int:
    """Number of strict sign changes after deleting zero samples.

    The zero signal has variation 0.
    """
    count = 0
    prev = 0
    for v in _as_samples(u):
        s = sign(v, zero_tol)
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def forward_difference(u: Signal, k: int = 1) -> Signal:
    """k-th forward difference on the stored window; the window shrinks by k."""
    if k < 1:
        raise ValueError("difference order k must be >= 1")
    vals = list(_as_samples(u))
    start = u.support_start if isinstance(u, Signal) else 0
    for _ in range(k):
        vals = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    return Signal(start, tuple(vals))


def first_nonzero_sign(u, zero_tol: float = ZERO_TOL) -> int:
    """Sign of the earliest-time nonzero sample, 0 for the zero signal."""
    for v in _as_samples(u):
        s = sign(v, zero_tol)
        if s != 0:
            return s
    return 0


def _join(changes, first, last, w_changes, w_first, w_last) -> tuple:
    """(sign changes, first and last nonzero sign) of a sign sequence
    followed by a word: a zero first or last sign is filled in from the
    neighbour."""
    return (changes + w_changes + (last * w_first < 0),
            first + w_first * (first == 0),
            w_last + last * (w_last == 0))


@functools.lru_cache(maxsize=None)
def _word_table(width: int) -> tuple:
    """(sign changes, first and last nonzero sign) of every sign word of
    ``width`` columns, as read-only arrays indexed by the word's code: the
    sum of (s mod 3) * 3^j over its signs s, column j first.  Built by
    joining one column at a time."""
    codes = np.arange(3 ** width)
    zero = np.zeros(len(codes), np.int8)
    word = (zero.astype(np.intp), zero, zero)
    for j in range(width):
        s = np.array([0, 1, -1], np.int8)[codes // 3 ** j % 3]
        word = _join(*word, 0, s, s)
    for arr in word:
        arr.setflags(write=False)
    return word


# The weight 3^j of the sign digit in column j of a word.
_WORD_POWERS = 3.0 ** np.arange(SIGN_WORD)


def sign_buffers(rows: int, columns: int) -> tuple:
    """Buffers that ``row_variations`` can reuse for blocks of up to
    ``rows`` rows of ``columns`` samples: the masks above and below the
    zero level, the sign digits, the same as floats, and the codes of the
    ``SIGN_WORD``-column words (a row of no columns is one empty word)."""
    shape = (rows, columns)
    return (np.empty(shape, bool), np.empty(shape, bool),
            np.empty(shape, np.int8), np.empty(shape),
            np.empty((rows, max(-(-columns // SIGN_WORD), 1))))


def row_variations(rows, zero_tol: float = ZERO_TOL,
                   buffers=None) -> tuple:
    """``variation`` and ``first_nonzero_sign`` of every row of a 2-D
    array, as two integer arrays.

    Each run of ``SIGN_WORD`` columns is one base-3 word, coded by one
    matrix-vector product per word and looked up in ``_word_table``; the
    words of a row are joined from left to right.  A short last word reads
    as one padded with zero signs.  The masks and codes are written to the
    first rows of ``buffers`` (from ``sign_buffers``), or to new ones
    without them; the two arrays returned are new either way.
    """
    a = np.asarray(rows, dtype=float)
    n, columns = a.shape
    if buffers is None:
        buffers = sign_buffers(n, columns)
    pos, neg, digits, wide, codes = (b[:n] for b in buffers)
    # The digit s mod 3 of the sign s: +1 above zero_tol, else -1 below
    # -zero_tol, else 0 (NaN included).
    np.greater(a, zero_tol, out=pos)
    np.greater(np.less(a, -zero_tol, out=neg), pos, out=neg)
    np.add(neg.view(np.int8), neg.view(np.int8), out=digits)
    digits += pos.view(np.int8)
    # Float digits: a product with int8 ones would cast a copy first.  The
    # codes are small integers, exact in any summation order.
    np.copyto(wide, digits)
    for w, code in enumerate(codes.T):
        word = wide[:, w * SIGN_WORD:(w + 1) * SIGN_WORD]
        np.matmul(word, _WORD_POWERS[:word.shape[1]], out=code)
    codes = codes.astype(np.intp).T
    table = _word_table(SIGN_WORD)
    changes, first, last = (t[codes[0]] for t in table)
    for code in codes[1:]:
        changes, first, last = _join(changes, first, last,
                                     *(t[code] for t in table))
    return changes, first
