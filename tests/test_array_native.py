"""The array-native compound ladder against the eager forms it replaces.

``compound_transfer`` reads its index tuples from cached read-only tables,
``PartialFractionSystem`` builds ``terms`` only when read, ``scaled``
reuses the sorted poles, and every structured window, truncation and
compound stack is read from one zero-padded copy of the samples.  The
eager constructor, the eager compound and the entry-by-entry windows are
kept below as test-only references; results must agree bit for bit.  The
run-wise merge and the ascending hand-over of ``compound_transfer`` are
checked against the one-step-at-a-time merge rule and the eager
constructor.
"""

import dataclasses
import itertools
import math
import pickle
import tracemalloc
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import pytest

from vardim import lti, positivity
from vardim.compound import (INDEX_TABLES, _merge_heads, compound_impulse,
                             compound_transfer, index_tuples)
from vardim.errors import UnsupportedRepresentationError, WindowError
from vardim.lti import (PartialFractionSystem, RationalTransferFunction,
                        hankel_matrix, partial_fraction_samples,
                        partial_fractions, toeplitz_matrix)
from vardim.oracle import (DEMO_FUTURE_GROWTH, demo_system,
                           hankel_truncation, ovd_verify,
                           toeplitz_truncation)
from vardim.positivity import check_toeplitz_k
from vardim.signals import Signal
from vardim.tolerance import ZERO_TOL

# ---------------------------------------------------------------------------
# Eager references.


@dataclass(frozen=True)
class EagerPFS:
    """The constructor that builds ``terms`` as a tuple on every call."""

    terms: tuple = ()
    fir: Signal = field(default_factory=Signal)

    def __post_init__(self):
        terms = self.terms
        if not isinstance(terms, (tuple, list, np.ndarray)):
            terms = tuple(terms)
        rp = np.array(terms, dtype=float)
        if rp.size == 0:
            rp = rp.reshape(0, 2)
        if rp.ndim != 2 or rp.shape[1] != 2:
            raise ValueError("terms must be (residue, pole) pairs")
        if not np.isfinite(rp).all():
            raise ValueError("residues and poles must be finite")
        rp = rp[rp[:, 0] != 0.0]
        r, p = rp[np.lexsort((-rp[:, 1], -np.abs(rp[:, 1])))].T.copy()
        scale = np.maximum(np.abs(p), 1.0)
        near = np.abs(np.diff(p)) <= ZERO_TOL * np.maximum(scale[:-1],
                                                           scale[1:])
        if near.any():
            raise UnsupportedRepresentationError(
                f"repeated pole {float(p[np.argmax(near)])}; use StateSpace "
                f"for repeated poles")
        object.__setattr__(self, "terms", tuple(zip(r.tolist(), p.tolist())))
        if self.fir.support_start < 0:
            raise ValueError("FIR tail samples must sit at t >= 0")

    def scaled(self, a: float) -> "EagerPFS":
        return EagerPFS(tuple((a * r, p) for r, p in self.terms),
                        self.fir.scaled(a))


def outcome(fn) -> str:
    """repr of the result, or the exception's type and message."""
    try:
        return repr(fn())
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return f"{type(exc).__name__}: {exc}"


def eager_repr(e: EagerPFS) -> str:
    return repr(e).replace("EagerPFS(", "PartialFractionSystem(", 1)


def eager_compound(pfs: PartialFractionSystem, j: int) -> tuple:
    """Compound terms from an index table built per call and a 2-D gap
    gather, as the route before the cached tables."""
    n = len(pfs.terms)
    if j == 1:
        return pfs.terms
    m = math.comb(n, j)
    idx = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n), j)), dtype=np.intp,
        count=m * j).reshape(m, j)
    residues, poles = pfs.arrays
    gaps = np.array([[(a - b) ** 2 for b in pfs.poles] for a in pfs.poles])
    res = residues[idx[:, 0]]
    pole = poles[idx[:, 0]]
    for c in range(1, j):
        res *= residues[idx[:, c]]
        pole *= poles[idx[:, c]]
    for a, b in itertools.combinations(range(j), 2):
        res *= gaps[idx[:, a], idx[:, b]]
    order = np.argsort(pole, kind="stable")
    pole, res = pole[order], res[order]
    heads = _merge_heads(pole)
    if heads is not None:
        ends = np.append(heads[1:], m)
        merged = res[heads]
        for g in np.flatnonzero(ends - heads > 1):
            merged[g] = math.fsum(res[heads[g]:ends[g]].tolist())
        res, pole = merged, pole[heads]
    return EagerPFS(np.column_stack((res, pole))).terms


def loop_hankel(g: Signal, t: int, j: int) -> np.ndarray:
    entries = np.empty((j, j))
    for a in range(j):
        for b in range(j):
            entries[a, b] = g.value(t + a + b)
    return entries


def loop_toeplitz(g: Signal, t: int, j: int) -> np.ndarray:
    entries = np.empty((j, j))
    for a in range(j):
        for b in range(j):
            tau = t + a - b
            entries[a, b] = g.value(tau) if tau >= 0 else 0.0
    return entries


def cascade(n: int) -> RationalTransferFunction:
    """The n-lag serial cascade with n // 2 negative zeros."""
    zeros = -np.linspace(0.2, 0.6, n // 2)
    return RationalTransferFunction(tuple(np.atleast_1d(np.poly(zeros))),
                                    tuple(np.poly(np.linspace(0.9, 0.1, n))))


def random_raw(rng, n: int) -> tuple:
    """n (residue, pole) pairs with distinct poles, unsorted, one residue
    tiny enough that scaling by 1e-300 underflows it to zero."""
    poles = rng.permutation(np.linspace(-0.9, 0.95, 4 * n))[:n]
    residues = rng.uniform(-2.0, 2.0, n)
    residues[rng.integers(n)] = 1e-30
    return tuple(zip(residues.tolist(), poles.tolist()))


def cases():
    rng = np.random.default_rng(8)
    out = []
    for n in (1, 2, 3, 5, 7):
        for _ in range(3):
            raw = random_raw(rng, n)
            out.append((raw, Signal()))
            fir = Signal(1, tuple(rng.uniform(-1.0, 1.0, 2).tolist()))
            out.append((raw + ((0.0, 0.123),), fir))
    out.append(((), Signal()))
    return out


CASES = cases()


def compound_cases():
    """Random pure systems and all their compounds, as (terms, fir)."""
    out = []
    for raw, fir in CASES:
        if not fir.is_zero():
            continue
        pfs = PartialFractionSystem(raw)
        for j in range(1, len(pfs.arrays[0]) + 1):
            out.append((compound_transfer(pfs, j).terms, Signal()))
    return out


ALL_CASES = CASES + compound_cases()


# ---------------------------------------------------------------------------
# Index tables.


class TestIndexTables:
    def test_tables_match_combinations(self):
        for n in range(1, 17):
            for j in range(1, n + 1):
                table = index_tuples(n, j)
                assert table.dtype == np.uint8
                assert table.shape == (j, math.comb(n, j))
                assert table.flags.c_contiguous
                assert not table.flags.writeable
                assert [tuple(c) for c in table.T.tolist()] == list(
                    itertools.combinations(range(n), j))
        with pytest.raises(ValueError):
            index_tuples(16, 8)[0, 0] = 1

    def test_one_ladder_fits_the_cache(self):
        keys = {(n, j) for n in (3, 6, 10, 12, 16) for j in range(2, n + 1)}
        assert len(keys) <= INDEX_TABLES

    def test_n16_tables_stay_under_one_mib(self):
        index_tuples.cache_clear()
        tracemalloc.start()
        try:
            tables = [index_tuples(16, j) for j in range(1, 17)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(t.nbytes for t in tables) == 16 * 2 ** 15
        assert peak < 1 << 20

    def test_compound_matches_eager_route(self):
        for raw, fir in CASES:
            if not fir.is_zero():
                continue
            pfs = PartialFractionSystem(raw)
            for j in range(1, len(raw) + 1):
                comp = compound_transfer(pfs, j)
                want = eager_compound(pfs, j)
                assert comp.terms == want
                assert repr(comp.terms) == repr(want)

    def test_compound_matches_eager_route_n16(self):
        pfs = partial_fractions(cascade(16))
        for j in (2, 8, 15, 16):
            assert compound_transfer(pfs, j).terms == eager_compound(pfs, j)


# ---------------------------------------------------------------------------
# The merge and the hand-over of sorted arrays.


def sequential_heads(pole: np.ndarray) -> list:
    """First index of each group under the one-product-at-a-time rule."""
    heads = [0]
    for i in range(1, len(pole)):
        a, b = float(pole[i]), float(pole[heads[-1]])
        if abs(a - b) > ZERO_TOL * max(1.0, abs(a), abs(b)):
            heads.append(i)
    return heads


class TestMergeAndHandOver:
    def test_merge_heads_match_sequential_rule(self):
        rng = np.random.default_rng(10)
        for scale in (1.0, 0.3, 40.0):
            for _ in range(200):
                # Clusters of products spaced a fraction of ZERO_TOL apart,
                # some chains spanning several tolerances.
                centres = rng.uniform(-1.0, 1.0, rng.integers(1, 6)) * scale
                steps = rng.uniform(0.0, 0.9, (len(centres),
                                               rng.integers(1, 6)))
                pole = np.sort(np.concatenate([
                    c + np.cumsum(s) * ZERO_TOL * max(1.0, abs(c))
                    for c, s in zip(centres, steps)]))
                heads = _merge_heads(pole)
                want = sequential_heads(pole)
                if heads is None:
                    assert want == list(range(len(pole)))
                else:
                    assert heads.tolist() == want

    def test_from_ascending_matches_constructor(self):
        rng = np.random.default_rng(11)
        arrays = []
        for n in (0, 1, 2, 5, 9):
            for lo in (0.05, -0.9, -2.0):
                p = np.sort(rng.choice(np.linspace(lo, 1.5, 64), n,
                                       replace=False))
                r = rng.uniform(-2.0, 2.0, n)
                r[:n // 3] = 0.0
                arrays.append((rng.permutation(r), p))
        arrays.append((np.ones(2), np.array([0.5, 0.5 + 1e-14])))
        arrays.append((np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5, 0.7])))
        arrays.append((np.array([1.0, np.inf]), np.array([0.2, 0.4])))
        arrays.append((np.array([1.0, 2.0]), np.array([0.2, np.nan])))
        for r, p in arrays:
            want = outcome(lambda: EagerPFS(np.column_stack((r, p))))
            got = outcome(lambda: PartialFractionSystem._from_ascending(
                r.copy(), p.copy()))
            assert got == want.replace("EagerPFS(", "PartialFractionSystem(")


class TestExactSampleBudget:
    def test_sixteen_lag_cascade_sums_few_exact_terms(self):
        # Wide compounds cancel to near zero at early samples; a guard band
        # that grows with sqrt(m) rather than m leaves them outside it, so
        # few samples are re-decided term by term.  The cascade is given as
        # poles/residues: its num/den form is certified by the exact
        # serial-lag test before any compound is scanned.
        summed = []

        def counting(terms, fir, times):
            terms, times = list(terms), list(times)
            summed.append(len(terms) * sum(t >= 1 for t in times))
            return partial_fraction_samples(terms, fir, times)

        system = lti.canonical(cascade(16))
        assert isinstance(system, PartialFractionSystem)
        with mock.patch.object(positivity, "partial_fraction_samples",
                               counting):
            report = check_toeplitz_k(system, 16)
        assert repr(report) == repr(check_toeplitz_k(system, 16))
        assert 0 < sum(summed) < 1000


# ---------------------------------------------------------------------------
# Deferred terms.


class TestDeferredTerms:
    def test_fresh_system_holds_no_tuple(self):
        pfs = PartialFractionSystem(CASES[3][0])
        assert "terms" not in vars(pfs)
        assert pfs.order == len(pfs.arrays[0]) and not pfs.is_zero()
        assert "terms" not in vars(pfs)
        assert pfs.terms is pfs.terms

    def test_matches_eager_constructor(self):
        for raw, fir in ALL_CASES:
            want = EagerPFS(raw, fir)
            assert PartialFractionSystem(raw, fir).terms == want.terms
            assert hash(PartialFractionSystem(raw, fir)) == hash(want)
            assert repr(PartialFractionSystem(raw, fir)) == eager_repr(want)
            back = pickle.loads(pickle.dumps(PartialFractionSystem(raw, fir)))
            assert back == PartialFractionSystem(raw, fir)
            assert repr(back) == eager_repr(want)
            assert not any(a.flags.writeable for a in back.arrays)
            tail = Signal(2, (0.25,))
            assert repr(dataclasses.replace(PartialFractionSystem(raw, fir),
                                            fir=tail)) == \
                eager_repr(dataclasses.replace(want, fir=tail))

    def test_equality_and_concatenation_match_eager(self):
        for (ra, fa), (rb, fb) in itertools.product(ALL_CASES[::5], repeat=2):
            ea, eb = EagerPFS(ra, fa), EagerPFS(rb, fb)
            assert (PartialFractionSystem(ra, fa) ==
                    PartialFractionSystem(rb, fb)) == (ea == eb)
            assert PartialFractionSystem(ra, fa).terms + \
                PartialFractionSystem(rb, fb).terms == ea.terms + eb.terms

    def test_scaled_matches_eager(self):
        underflowed = 0
        for raw, fir in ALL_CASES:
            want = EagerPFS(raw, fir)
            for a in (1.0, -1.0, 2.5, 1e-300):
                got = PartialFractionSystem(raw, fir).scaled(a)
                assert repr(got) == eager_repr(want.scaled(a))
                assert got.terms == want.scaled(a).terms
                assert not any(arr.flags.writeable for arr in got.arrays)
                underflowed += len(got.terms) < len(want.terms)
        assert underflowed > 0

    def test_scaled_reuses_poles(self):
        pfs = PartialFractionSystem(CASES[6][0])
        for a in (1.0, -1.0, 2.5):
            assert pfs.scaled(a).arrays[1] is pfs.arrays[1]
        assert pfs.scaled(1e-300).arrays[1] is not pfs.arrays[1]

    def test_toeplitz_ladder_builds_no_compound_tuple(self):
        pfs = partial_fractions(cascade(16))
        built = []
        get = lti._Terms.__get__

        def counting(self, obj, owner=None):
            if obj is not None and "terms" not in vars(obj):
                built.append(obj)
            return get(self, obj, owner)

        with mock.patch.object(lti._Terms, "__get__", counting):
            report = check_toeplitz_k(pfs, 16)
        assert repr(report) == repr(check_toeplitz_k(pfs, 16))
        # The impulse response reads the system's own terms, nothing else.
        assert built and all(obj is pfs for obj in built)


# ---------------------------------------------------------------------------
# Windows by slicing.


class TestSlicedWindows:
    SIGNALS = [
        Signal(-3, (0.5, -0.0, 2.0, 1.0, -0.25) + tuple(
            np.random.default_rng(1).uniform(-1.0, 1.0, 40).tolist())),
        Signal(0, (-0.0,) + tuple(
            np.random.default_rng(2).uniform(-1.0, 1.0, 40).tolist())),
        Signal(3, tuple(np.random.default_rng(3).uniform(-1.0, 1.0, 40)
                        .tolist()) + (-0.0,)),
    ]

    def test_windows_match_double_loop(self):
        for g in self.SIGNALS:
            for j in range(1, 17):
                hankel = range(max(1, g.support_start),
                               g.support_end - 2 * j + 3)
                toeplitz = [t for t in range(g.support_end - j + 2)
                            if max(0, t - j + 1) >= g.support_start]
                assert hankel and toeplitz
                for t in hankel:
                    assert hankel_matrix(g, t, j).tobytes() == \
                        loop_hankel(g, t, j).tobytes()
                for t in toeplitz:
                    assert toeplitz_matrix(g, t, j).tobytes() == \
                        loop_toeplitz(g, t, j).tobytes()
                with pytest.raises(WindowError):
                    hankel_matrix(g, hankel[-1] + 1, j)
                with pytest.raises(WindowError):
                    toeplitz_matrix(g, toeplitz[-1] + 1, j)

    # Shorter than most truncations below, and starting before t = 0.
    SHORT = [Signal(0, (1.0, -0.5, 0.25)), Signal(-2, (3.0, -1.0, 0.5, 2.0))]

    def test_truncations_match_double_loop(self):
        for g in self.SIGNALS + self.SHORT:
            for L in range(12):
                for N in range(1, 12):
                    hankel = np.empty((N, L))
                    toeplitz = np.empty((N, L))
                    for t in range(N):
                        for tau in range(L):
                            hankel[t, tau] = g.value(t + tau + 1)
                            toeplitz[t, tau] = (g.value(t - tau)
                                                if t >= tau else 0.0)
                    for got, want in ((hankel_truncation(g, L, N), hankel),
                                      (toeplitz_truncation(g, L, N),
                                       toeplitz)):
                        assert got.shape == want.shape
                        assert got.tobytes() == want.tobytes()
                        assert not got.flags.writeable

    def test_compound_stack_matches_double_loop(self):
        for g in self.SIGNALS[:2] + self.SHORT:
            for j in range(1, 9):
                horizon = g.support_end - 2 * j + 2
                if horizon < 1:
                    with pytest.raises(WindowError):
                        compound_impulse(g, j, 1)
                    continue
                want = [np.linalg.det(loop_hankel(g, t, j))
                        for t in range(1, horizon + 1)]
                got = compound_impulse(g, j, horizon)
                assert got.support_start == 1
                assert np.array(got.values).tobytes() == \
                    np.array(want).tobytes()
                with pytest.raises(WindowError):
                    compound_impulse(g, j, horizon + 1)


# ---------------------------------------------------------------------------
# Oracle inputs are Python floats.


class TestOracleInputs:
    def test_every_block_kind_yields_floats(self):
        rep = ovd_verify(demo_system(), "toeplitz", 3, 5, 8, samples=400,
                         extra_inputs=[np.array(DEMO_FUTURE_GROWTH)])
        inputs = [v.input for v in rep.violations]
        letters = {-1.0, 0.0, 1.0}
        extra = inputs[0]
        lattice = [u for u in inputs[1:] if set(u) <= letters]
        sampled = [u for u in inputs[1:] if not set(u) <= letters]
        assert extra == tuple(float(v) for v in DEMO_FUTURE_GROWTH)
        assert lattice and sampled
        for u in inputs:
            assert all(type(v) is float for v in u)
