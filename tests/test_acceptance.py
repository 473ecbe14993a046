"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Determinant ground truth for the compound-triangle criterion is computed
in 60-digit arithmetic (mpmath), independent of every library code path;
deep windows of decaying kernels exceed float64 conditioning and an
oracle must outresolve the paths it judges.
"""

import itertools
import math
import time
from contextlib import contextmanager

import mpmath as mp
import numpy as np

from reference import (check_relaxation, compound_matrix,
                       compound_realization, desnanot_jacobi_residual,
                       neuronal_condition, recombined_impulse,
                       to_state_space)
from vardim.compound import compound_impulse, compound_transfer
from vardim.lti import PartialFractionSystem, impulse_response, recombine
from vardim.oracle import (DEMO_FUTURE_GROWTH, DEMO_PAST_DIMINISH,
                           DEMO_PAST_ORDER_FLIP, apply_hankel,
                           apply_toeplitz, demo_system, heavy_ball,
                           ovd_verify)
from vardim.positivity import (CERTIFIED, REFUTED, check_hankel_k,
                               check_toeplitz_k, hankel_decompose,
                               toeplitz_decompose)
from vardim.signals import first_nonzero_sign, variation
from vardim.totpos import is_psd

DEMO = demo_system()


@contextmanager
def criterion(number: int, label: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed <= budget else \
        f"FAIL (runtime {elapsed:.2f}s over budget {budget}s)"
    print(f"[criterion {number}] {label}: {status} ({elapsed:.2f}s)")
    assert elapsed <= budget


def test_criterion_1_demo_reproduction():
    with criterion(1, "demo operator responses", 1.0):
        g = impulse_response(DEMO, 20)

        y = apply_hankel(g, DEMO_PAST_DIMINISH, 8)
        assert abs(y.value(0) - (-9.2)) <= 1e-9
        assert variation(y) == 0
        assert all(v < 0 for v in y.values)

        y = apply_toeplitz(g, DEMO_FUTURE_GROWTH, 8)
        assert abs(y.value(1) - 13.0) <= 1e-9
        assert variation(y) == 2

        y = apply_hankel(g, DEMO_PAST_ORDER_FLIP, 8)
        assert variation(y) == 2
        assert first_nonzero_sign(y) == -1
        assert first_nonzero_sign(DEMO_PAST_ORDER_FLIP) == 1


def _mp_hankel_det(pfs, t, j):
    def g(tt):
        return mp.fsum(mp.mpf(r) * mp.mpf(p) ** (tt - 1)
                       for r, p in pfs.terms)

    M = mp.matrix(j, j)
    for a in range(j):
        for b in range(j):
            M[a, b] = g(t + a + b)
    return float(mp.det(M))


def _random_simple_system(rng):
    n = int(rng.integers(2, 5))
    while True:
        poles = np.sort(rng.uniform(0.02, 0.98, size=n))
        if np.min(np.diff(poles)) >= 0.05:
            break
    res = rng.uniform(0.1, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return PartialFractionSystem(tuple(zip(res, poles)))


def test_criterion_2_compound_triangle():
    with criterion(2, "minor / realization / residue-formula triangle",
                   10.0):
        mp.mp.dps = 60
        rng = np.random.default_rng(0xC0FFEE)
        for _ in range(50):
            pfs = _random_simple_system(rng)
            n = len(pfs.terms)
            ss = to_state_space(pfs)
            for j in range(2, n + 1):
                comp_tf = compound_transfer(pfs, j)
                g_real = impulse_response(compound_realization(ss, j), 20)
                g_form = impulse_response(comp_tf, 20)
                for t in range(1, 21):
                    det = _mp_hankel_det(pfs, t, j)
                    scale = math.fsum(abs(r) * abs(p) ** (t - 1)
                                      for r, p in comp_tf.terms)
                    scale = max(scale, 1e-300)
                    for x, y in ((det, g_real.value(t)),
                                 (det, g_form.value(t)),
                                 (g_real.value(t), g_form.value(t))):
                        rel = abs(x - y) / max(abs(x), abs(y), scale)
                        assert rel <= 1e-8


def test_criterion_3_demo_classification():
    with criterion(3, "demo verdicts and imbalance margin", 5.0):
        assert check_hankel_k(DEMO, 2).verdict == CERTIFIED
        assert check_hankel_k(DEMO, 3).verdict == REFUTED
        assert check_toeplitz_k(DEMO, 2).verdict == REFUTED

        res = neuronal_condition(0.9, 0.5, 0.1, 0.9, 0.5, 0.1)
        g = impulse_response(DEMO, 8)
        g2_first = compound_impulse(g, 2, 1).value(1)
        assert abs(res.margin - 0.0064) <= 1e-12
        assert abs(res.margin - g2_first) <= 1e-12


def test_criterion_4_momentum_threshold_grid():
    with criterion(4, "momentum threshold vs pole-zero test", 5.0):
        for a in (0.5, 1.0, 2.0):
            for alpha in (0.5, 1.0):
                threshold = (math.sqrt(a * alpha) + 1.0) ** 2
                mismatches = []
                beta = 1.0
                while beta <= 6.0 + 1e-12:
                    scen = heavy_ball(a, alpha, beta)
                    if not scen.consistent:
                        mismatches.append(beta)
                    beta += 0.25
                # At most the cell containing the double-root boundary.
                assert all(abs(b - threshold) <= 0.25 for b in mismatches)
                assert len(mismatches) <= 1
        boundary = heavy_ball(1.0, 1.0, 4.0)
        assert boundary.threshold == 4.0
        assert boundary.meets_threshold
        assert boundary.closed_loop_report.verdict == CERTIFIED
        below = heavy_ball(1.0, 1.0, 4.0 - 0.25)
        assert not below.meets_threshold
        assert below.closed_loop_report.verdict == REFUTED


def _relax_positive(rng):
    n = int(rng.integers(1, 5))
    while True:
        poles = np.sort(rng.uniform(0.05, 0.95, size=n))
        if n == 1 or np.min(np.diff(poles)) >= 0.22:
            break
    res = rng.uniform(0.5, 1.0, size=n)
    return PartialFractionSystem(tuple(zip(res, poles)))


def _relax_perturbed(rng):
    n = int(rng.integers(2, 5))
    if rng.integers(0, 2) == 0:
        while True:
            poles = np.sort(rng.uniform(0.1, 0.9, size=n))
            if np.min(np.diff(poles)) >= 0.1:
                break
        res = rng.uniform(0.3, 1.0, size=n)
        res[-1] = -res[-1]  # dominant residue flipped
    else:
        while True:
            poles = np.sort(rng.uniform(0.05, 0.5, size=n))
            if np.min(np.diff(poles)) >= 0.05:
                break
        poles[-1] = -rng.uniform(0.6, 0.9)  # dominant pole negative
        res = rng.uniform(0.3, 1.0, size=n)
    return PartialFractionSystem(tuple(zip(res, poles)))


def test_criterion_5_relaxation_equivalence():
    with criterion(5, "complete-monotonicity bundle agreement", 30.0):
        rng = np.random.default_rng(0x51EE7)
        for _ in range(200):
            bundle = check_relaxation(_relax_positive(rng), J=6, horizon=40)
            assert bundle.agree and bundle.coefficient_form
        for _ in range(200):
            bundle = check_relaxation(_relax_perturbed(rng), J=6,
                                      horizon=40)
            assert bundle.agree and not bundle.coefficient_form


def test_criterion_6_matrix_identity_suites():
    with criterion(6, "matrix identity property suites", 10.0):
        rng = np.random.default_rng(0xBEEF)

        for _ in range(1000):  # multiplicativity over products
            n, p, m = rng.integers(2, 7, size=3)
            r = int(rng.integers(1, min(n, p, m) + 1))
            X = rng.normal(size=(n, p))
            Y = rng.normal(size=(p, m))
            lhs = compound_matrix(X @ Y, r)
            rhs = compound_matrix(X, r) @ compound_matrix(Y, r)
            scale = max(1.0, float(np.max(np.abs(lhs))),
                        float(np.max(np.abs(rhs))))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale

        for _ in range(1000):  # spectra are eigenvalue products
            n = int(rng.integers(2, 6))
            r = int(rng.integers(1, n + 1))
            lam = rng.uniform(0.2, 2.0, size=n) * rng.choice(
                [-1.0, 1.0], size=n)
            Q = rng.normal(size=(n, n))
            while abs(np.linalg.det(Q)) < 0.2:
                Q = rng.normal(size=(n, n))
            X = Q @ np.diag(lam) @ np.linalg.inv(Q)
            got = np.sort_complex(np.linalg.eigvals(compound_matrix(X, r)))
            want = np.sort_complex([np.prod(c) for c in
                                    itertools.combinations(lam, r)])
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-6 * scale

        for _ in range(1000):  # semidefiniteness lifts to compounds
            n = int(rng.integers(2, 6))
            B = rng.normal(size=(n, n))
            X = B.T @ B
            r = int(rng.integers(1, n + 1))
            assert is_psd(compound_matrix(X, r))

        for _ in range(1000):  # determinant recursion residual
            n = int(rng.integers(3, 7))
            X = rng.normal(size=(n, n))
            scale = max(1.0, abs(float(np.linalg.det(X)))) * max(
                1.0, float(np.max(np.abs(X)))) ** 2
            assert desnanot_jacobi_residual(X) <= 1e-9 * scale


ORACLE_SYSTEMS = {
    "three-lag-demo": DEMO,
    "parallel-positive-bank": PartialFractionSystem(
        ((1.0, 0.9), (1.0, 0.5), (1.0, 0.1))),
    "alternating-serial-lags": PartialFractionSystem(
        ((2.25, 0.9), (-1.25, 0.5))),
}
ORACLE_EXTRAS = {
    ("three-lag-demo", "hankel"): (DEMO_PAST_DIMINISH,
                                   DEMO_PAST_ORDER_FLIP),
    ("three-lag-demo", "toeplitz"): (DEMO_FUTURE_GROWTH,),
}


def test_criterion_7_oracle_agreement():
    with criterion(7, "brute-force vs minor-based verdicts", 60.0):
        for name, sys in ORACLE_SYSTEMS.items():
            for kind in ("hankel", "toeplitz"):
                for k in (1, 2, 3):
                    check = check_hankel_k(sys, k) if kind == "hankel" \
                        else check_toeplitz_k(sys, k)
                    rep = ovd_verify(
                        sys, kind, k, 6, 12,
                        extra_inputs=ORACLE_EXTRAS.get((name, kind), ()))
                    if check.verdict == CERTIFIED:
                        assert rep.passed, (name, kind, k)
                    elif check.verdict == REFUTED:
                        # The variation bound needs enough modes to be
                        # expressible before a counterexample is owed.
                        assert rep.rank >= min(k, sys.order), (name, kind, k)
                        assert not rep.passed, (name, kind, k)
                        assert rep.counterexample is not None


def test_criterion_8_decomposition_round_trips():
    with criterion(8, "dominant decomposition round trips", 10.0):
        # Additive split.
        for sys, k in ((DEMO, 2), (DEMO, 1),
                       (PartialFractionSystem(((1.0, 0.9),)), 1),
                       (PartialFractionSystem(
                           ((0.5, 0.8), (0.3, 0.5), (0.2, 0.2))), 3)):
            if check_hankel_k(sys, k).verdict == REFUTED:
                continue
            dec = hankel_decompose(sys, k)
            got = recombined_impulse(dec, 64)
            want = impulse_response(sys, 64)
            scale = max(abs(v) for v in want.values)
            for t in range(65):
                assert abs(got.value(t) - want.value(t)) <= 1e-9 * max(
                    scale, abs(want.value(t)))

        # Multiplicative split.
        alternating = PartialFractionSystem(((2.25, 0.9), (-1.25, 0.5)))
        serial3 = PartialFractionSystem(
            ((5.4, 0.9), (-6.0, 0.6), (1.6, 0.4)))  # z^2/((z-.9)(z-.6)(z-.4))
        for sys, k in ((alternating, 2), (serial3, 2), (serial3, 3)):
            if check_toeplitz_k(sys, k).verdict == REFUTED:
                continue
            dec = toeplitz_decompose(sys, k)
            got = recombined_impulse(dec, 64)
            want = impulse_response(sys, 64)
            scale = max(abs(v) for v in want.values)
            for t in range(65):
                assert abs(got.value(t) - want.value(t)) <= 1e-9 * max(
                    scale, abs(want.value(t)))

        # Exact coefficient identity for the two-lag serial chain.
        dec = toeplitz_decompose(alternating, 2)
        remainder = recombine(dec.remainder)
        assert remainder.num == (1.0,)
        assert remainder.den == (1.0, -0.5)
