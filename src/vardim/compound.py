"""Compound systems.  The order-j compound response g_[j](t) is the
determinant of the order-j Hankel window of g at t.  This module gives it
as sampled determinants (all windows in one batched call) and, for simple
real poles, in partial-fraction form.  Checks use that form for pure
pole/residue sources and the sampled determinants for every other source.
The form is built by numpy over all C(n, j) index tuples at once (cached
read-only tables), rounding every product as the scalar left-to-right loop
does; products are sorted once, merged run by run and handed to
``PartialFractionSystem`` ascending."""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import BudgetExceededError, UnsupportedRepresentationError
from .lti import (PartialFractionSystem, _require_window, require_horizon,
                  sample_matrix)
from .signals import Signal
from .tolerance import ZERO_TOL

# (n, j) index tables kept by ``index_tuples``: every key of a Toeplitz
# ladder over n in {3, 6, 10, 12, 16} (43 keys), which would miss on every
# lookup in a smaller LRU since each pass visits the keys in one order.
INDEX_TABLES = 64


def reversal_sign(j: int) -> int:
    """Sign of the j x j column-reversal permutation: +1 iff j mod 4 <= 1.

    Relates Toeplitz windows to Hankel windows: reversing the column order
    of a Toeplitz window yields a Hankel window up to this sign.
    """
    if j < 1:
        raise ValueError("order j must be >= 1")
    return 1 if j % 4 <= 1 else -1


def compound_impulse(g: Signal, j: int, horizon: int) -> Signal:
    """Sequence of order-j Hankel-window determinants for t = 1..horizon.

    Raises BudgetExceededError, naming the first t, when a determinant of
    finite samples is not a finite double."""
    if j < 1:
        raise ValueError("order j must be >= 1")
    require_horizon(horizon)
    _require_window(g, 1, horizon + 2 * j - 2, f"H(t=1..{horizon}, j={j})")
    with np.errstate(all="ignore"):
        d = np.linalg.det(sample_matrix(g, 1, j, j, stack=horizon))
    bad = np.flatnonzero(~np.isfinite(d))
    if len(bad):
        raise BudgetExceededError(
            f"order-{j} compound impulse response leaves the doubles at "
            f"t={int(bad[0]) + 1}; shorten the horizon")
    return Signal(1, tuple(d.tolist()))


@functools.lru_cache(maxsize=INDEX_TABLES)
def index_tuples(n: int, j: int) -> np.ndarray:
    """Read-only j x C(n, j) table whose column i is the i-th tuple of
    ``itertools.combinations(range(n), j)``, in the smallest unsigned dtype
    that holds n - 1; row c holds the c-th index of every tuple."""
    m = math.comb(n, j)
    table = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n), j)), dtype=np.min_scalar_type(n - 1),
        count=m * j).reshape(m, j).T.copy()
    table.setflags(write=False)
    return table


def compound_transfer(pfs: PartialFractionSystem,
                      j: int) -> PartialFractionSystem:
    """Partial-fraction form of the order-j compound of a simple-real-pole
    system: one term per index tuple v, with pole prod(p_v) and residue
    prod(r_v) times the squared pole gaps inside v.

    Terms whose pole products coincide (within ``ZERO_TOL``) are merged
    into one, whose residue is the correctly rounded sum of theirs: one
    IEEE add for a pair, ``math.fsum`` for more.

    Raises BudgetExceededError when a squared gap, a product or a merged
    sum is not a finite double.
    """
    residues, poles = pfs.arrays
    n = len(residues)
    if len(pfs.fir):
        raise UnsupportedRepresentationError(
            "compound transfer needs a pure pole/residue form")
    if j == 1:
        return pfs
    if not 2 <= j <= n:
        raise ValueError(f"compound order j={j} out of range for n={n}")
    cols = index_tuples(n, j).astype(np.intp)
    m = cols.shape[1]
    # Squared gaps rounded exactly as the scalar expression rounds them,
    # flat at a * n + b.
    pl = poles.tolist()
    try:
        gaps = np.array([(a - b) ** 2 for a in pl for b in pl])
    except OverflowError:
        raise _overflow(j) from None
    # One vector product per factor, in the order prod(r_v), then the gaps
    # of combinations(v, 2), so every product rounds as a left-to-right loop.
    res = residues.take(cols[0])
    pole = poles.take(cols[0])
    with np.errstate(all="ignore"):
        for c in cols[1:]:
            res *= residues.take(c)
            pole *= poles.take(c)
        rows = cols * n
        for a, b in itertools.combinations(range(j), 2):
            res *= gaps.take(rows[a] + cols[b])
    del cols, rows
    if not (np.isfinite(res).all() and np.isfinite(pole).all()):
        raise _overflow(j)
    # Equal products land in one group, whose sum does not depend on the
    # order of its members, so an unstable sort gives the same result, up
    # to the sign of a zero product: -0.0 == 0.0 may come in either order,
    # so the first zero takes the sign of the zero product a stable sort
    # puts first, the one of the smallest index.
    order = np.argsort(pole)
    pole, res = pole[order], res[order]
    zeros = np.flatnonzero(pole == 0.0)
    if len(zeros):
        pole[zeros[0]] = pole[zeros[order[zeros].argmin()]]
    heads = _merge_heads(pole)
    if heads is not None:
        ends = np.append(heads[1:], m)
        sizes = ends - heads
        merged = res[heads]
        # One IEEE add is the correctly rounded sum of a pair, as fsum is;
        # fsum sums the larger groups.
        pair = sizes == 2
        with np.errstate(over="ignore"):
            merged[pair] += res[heads[pair] + 1]
        try:
            for g in np.flatnonzero(sizes > 2).tolist():
                merged[g] = math.fsum(res[heads[g]:ends[g]].tolist())
        except OverflowError:
            raise _overflow(j) from None
        if not np.isfinite(merged).all():
            raise _overflow(j)
        res, pole = merged, pole[heads]
    return PartialFractionSystem._from_ascending(res, pole)


def _overflow(j: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"order-{j} compound residue formula leaves the doubles")


def _merge_heads(pole: np.ndarray):
    """First index of each merged group of ascending pole products, or None
    when every product is a group of its own.

    A pole joins the group of its predecessor when it lies within
    ``ZERO_TOL`` (relative) of that group's first pole.  A step wider than
    ``ZERO_TOL * max(1, max|pole|)`` always starts a group.  A run of
    narrower steps whose whole span is within ``ZERO_TOL * max(1, |p|)``
    of its first pole p is one group; only the runs that span more are
    decided one step at a time.
    """
    scale = max(1.0, float(np.max(np.abs(pole))))
    steps = np.flatnonzero(pole[1:] - pole[:-1] <= ZERO_TOL * scale)
    if not len(steps):
        return None
    head = np.ones(len(pole), dtype=bool)
    head[steps + 1] = False
    # A run of narrow steps joins the poles from one head to the next; the
    # largest pole of each run is the last.
    first = np.flatnonzero(head)
    low = pole[first]
    wide = np.maximum.reduceat(pole, first) - low > ZERO_TOL * np.maximum(
        1.0, np.abs(low))
    if not wide.any():
        return first
    ends = np.append(first[1:], len(pole))
    for h, end in zip(first[wide].tolist(), ends[wide].tolist()):
        for i in range(h + 1, end):
            a, b = float(pole[i]), float(pole[h])
            if abs(a - b) > ZERO_TOL * max(1.0, abs(a), abs(b)):
                head[i] = True
                h = i
    return None if head.all() else np.flatnonzero(head)
