"""Cross-module invariants that tie the verdict machinery together."""

import itertools

import numpy as np
import pytest

from reference import apply_nonlinearity, is_k_positive
from vardim.compound import compound_transfer
from vardim.errors import BudgetExceededError
from vardim.lti import PartialFractionSystem, impulse_response
from vardim.oracle import apply_hankel
from vardim.positivity import (CERTIFIED, HOLDS, check_external,
                               check_hankel_k)
from vardim.signals import Signal, forward_difference, variation


def _random_bank(rng, n, positive=False):
    while True:
        poles = np.sort(rng.uniform(0.05, 0.95, size=n))
        if n == 1 or np.min(np.diff(poles)) >= 0.1:
            break
    res = rng.uniform(0.2, 1.0, size=n)
    if not positive:
        res *= rng.choice([-1.0, 1.0], size=n)
    return PartialFractionSystem(tuple(zip(res, poles)))


class TestCertificateSoundness:
    def test_certified_survives_horizon_extension(self):
        rng = np.random.default_rng(41)
        certified = 0
        for _ in range(60):
            pfs = _random_bank(rng, int(rng.integers(1, 5)))
            rep = check_external(pfs, horizon=64)
            if rep.verdict != CERTIFIED:
                continue
            certified += 1
            g = impulse_response(pfs, 256)
            theta = 1e-12 * max(abs(v) for v in g.values)
            assert all(v >= -theta for v in g.values)
            assert check_external(pfs, horizon=256).verdict == CERTIFIED
        assert certified >= 10

    def test_holds_never_upgrades_on_shrink(self):
        sys = PartialFractionSystem(((1.0, 0.9), (0.5, -0.9), (0.5, 0.5)))
        assert check_external(sys, horizon=32).verdict == HOLDS
        assert check_external(sys, horizon=128).verdict == HOLDS


class TestWindowCompoundConsistency:
    def test_all_orders_versus_reduced_check(self):
        # Checking every compound order up to k agrees with the reduced
        # form (two definite windows plus the k-th compound) on random
        # all-positive banks.
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            pfs = _random_bank(rng, n, positive=True)
            for k in range(2, n + 1):
                reduced = check_hankel_k(pfs, k).verdict
                ladder = [check_external(compound_transfer(pfs, j)).verdict
                          for j in range(1, k + 1)]
                all_positive = all(v == CERTIFIED for v in ladder)
                assert (reduced == CERTIFIED) == all_positive


class TestTruncationLadder:
    def test_output_variation_monotone_in_window(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            pfs = _random_bank(rng, 3)
            g = impulse_response(pfs, 40)
            past = rng.uniform(-1.0, 1.0, size=5)
            svals = [variation(apply_hankel(g, past, N))
                     for N in (8, 16, 32)]
            assert svals[0] <= svals[1] <= svals[2]


class TestCompositionWithNonlinearity:
    def test_monotone_map_keeps_extrema_bound(self):
        # A certified order-2 bank maps inputs with at most one extremum
        # (counted on the zero-extended sequence) to outputs with at most
        # one extremum; a monotone map keeps that count.
        bank = PartialFractionSystem(((1.0, 0.9), (1.0, 0.5)))
        assert check_hankel_k(bank, 2).verdict == CERTIFIED
        g = impulse_response(bank, 24)
        checked = 0
        for u in itertools.product((-1.0, 0.0, 1.0), repeat=4):
            if not any(u):
                continue
            extended = (0.0,) + u[::-1] + (0.0,)
            du = variation(forward_difference(Signal(0, extended)))
            if du > 1:
                continue
            checked += 1
            y = apply_hankel(g, u, 12)
            smoothed = apply_nonlinearity(y, "sigmoid")
            ey = variation(forward_difference(y))
            assert variation(forward_difference(smoothed)) == ey
            assert ey <= du
        assert checked >= 20


class TestScanBudget:
    def test_exhaustive_minor_scan_cap(self):
        X = np.eye(40)
        with pytest.raises(BudgetExceededError):
            is_k_positive(X, 6)
        # Consecutive mode stays available at the same size.
        assert is_k_positive(X, 6, consecutive_only=True).positive is not \
            False
