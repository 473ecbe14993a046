import math
import warnings

import numpy as np
import pytest

from reference import compound_realization, to_state_space
from vardim.compound import compound_impulse, compound_transfer, reversal_sign
from vardim.errors import (BudgetExceededError,
                           UnsupportedRepresentationError, WindowError)
from vardim.lti import (PartialFractionSystem, StateSpace, hankel_matrix,
                        impulse_response, toeplitz_matrix)
from vardim.signals import Signal

DEMO = PartialFractionSystem(((0.9, 0.9), (0.5, 0.5), (-0.1, 0.1)))


def random_pfs(rng, n):
    while True:
        poles = np.sort(rng.uniform(0.05, 0.95, size=n))
        if n == 1 or np.min(np.diff(poles)) >= 0.08:
            break
    res = rng.uniform(0.1, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return PartialFractionSystem(tuple(zip(res, poles)))


class TestReversalSign:
    def test_small_orders(self):
        assert reversal_sign(1) == 1
        assert reversal_sign(2) == -1
        assert reversal_sign(3) == -1
        assert reversal_sign(4) == 1

    def test_equals_half_floor_parity(self):
        for j in range(1, 20):
            assert reversal_sign(j) == (-1) ** (j // 2)


class TestCompoundImpulse:
    def test_demo_first_sample(self):
        g = impulse_response(DEMO, 12)
        c = compound_impulse(g, 2, 4)
        assert c.value(1) == pytest.approx(0.0064, abs=1e-12)

    def test_first_order_vanishes_at_two(self):
        g = impulse_response(PartialFractionSystem(((1.0, 0.7),)), 12)
        c = compound_impulse(g, 2, 5)
        assert all(abs(v) < 1e-14 for v in c.values)

    def test_above_order_vanishes(self):
        g = impulse_response(DEMO, 16)
        c = compound_impulse(g, 4, 4)
        assert all(abs(v) < 1e-12 for v in c.values)

    def test_window_shortfall(self):
        g = impulse_response(DEMO, 5)
        with pytest.raises(WindowError):
            compound_impulse(g, 2, 5)  # needs g(7)
        with pytest.raises(WindowError):
            compound_impulse(Signal(2, g.values), 2, 1)  # needs g(1)

    def test_overflowing_determinant_exceeds_budget(self):
        # Every sample up to t = 66 is finite (the largest is about 5e4^65),
        # but the products in the order-2 windows leave the doubles near
        # t = 33; numpy warns of nothing, and no ValueError escapes.
        ss = StateSpace([[5e4, 0, 0], [0, 0.3824, -0.3221],
                         [0, 0.3221, 0.3824]], [1.0, 1.0, 0.5], [1, 1, 1])
        g = impulse_response(ss, 66)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BudgetExceededError, match="at t=35;"):
                compound_impulse(g, 2, 64)
            assert compound_impulse(g, 2, 34).support_end == 34

    def test_batched_matches_window_loop(self):
        # Reference: one ``hankel_matrix`` determinant per window.
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            ss = StateSpace(rng.normal(size=(n, n)) * 0.5, rng.normal(size=n),
                            rng.normal(size=n))
            j, horizon = int(rng.integers(1, 9)), int(rng.integers(1, 70))
            g = impulse_response(ss, horizon + 2 * j - 2 +
                                 int(rng.integers(0, 3)))
            loop = [np.linalg.det(hankel_matrix(g, t, j))
                    for t in range(1, horizon + 1)]
            got = compound_impulse(g, j, horizon)
            assert got.support_start == 1
            assert [(v, math.copysign(1.0, v)) for v in got.values] == [
                (v, math.copysign(1.0, v)) for v in loop]


class TestCompoundRealization:
    def test_two_state_collapses_to_scalar(self):
        pfs = PartialFractionSystem(((1.0, 0.8), (2.0, 0.3)))
        ss = compound_realization(to_state_space(pfs), 2)
        assert ss.order == 1
        assert ss.A[0, 0] == pytest.approx(0.24)

    def test_order_one_is_identity_lift(self):
        ss = to_state_space(DEMO)
        c1 = compound_realization(ss, 1)
        np.testing.assert_allclose(c1.A, ss.A)
        np.testing.assert_allclose(c1.b, ss.b)
        np.testing.assert_allclose(c1.c, ss.c)

    def test_impulse_matches_minor_sequence(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            A = rng.normal(size=(4, 4)) * 0.4
            b = rng.normal(size=4)
            c = rng.normal(size=4)
            ss = StateSpace(A, b, c)
            g = impulse_response(ss, 60)
            gmax = max(1.0, max(abs(v) for v in g.values))
            for j in (2, 3):
                comp = compound_realization(ss, j)
                gc = impulse_response(comp, 20)
                mins = compound_impulse(g, j, 20)
                # Determinant round-off floor for an order-j window.
                noise = 1e-13 * gmax ** j
                for t in range(1, 21):
                    scale = max(abs(mins.value(t)), abs(gc.value(t)))
                    assert abs(mins.value(t) - gc.value(t)) <= (
                        1e-8 * scale + noise)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            compound_realization(to_state_space(DEMO), 4)


class TestCompoundTransfer:
    def test_two_term_closed_form(self):
        r1, p1, r2, p2 = 0.7, 0.8, -0.4, 0.3
        comp = compound_transfer(
            PartialFractionSystem(((r1, p1), (r2, p2))), 2)
        assert comp.terms == ((r1 * r2 * (p1 - p2) ** 2, p1 * p2),)

    def test_demo_order_two(self):
        comp = compound_transfer(DEMO, 2)
        assert comp.poles == pytest.approx((0.45, 0.09, 0.05))
        assert comp.residues == pytest.approx((0.072, -0.0576, -0.008))
        g1 = sum(comp.residues)
        assert g1 == pytest.approx(0.0064, abs=1e-12)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_fir_tail_unsupported(self, j):
        # A FIR tail is valid input that the residue formula cannot take.
        pfs = PartialFractionSystem(((1.0, 0.9), (0.5, 0.5)),
                                    fir=Signal(0, (0.3, 0.1)))
        with pytest.raises(UnsupportedRepresentationError):
            compound_transfer(pfs, j)

    def test_top_order_single_term(self):
        comp = compound_transfer(DEMO, 3)
        assert len(comp.terms) == 1
        assert comp.poles[0] == pytest.approx(0.9 * 0.5 * 0.1)

    def test_coinciding_pole_products_merge(self):
        pfs = PartialFractionSystem(
            ((1.0, 0.9), (1.0, 0.6), (1.0, 0.45), (1.0, 0.3)))
        comp = compound_transfer(pfs, 2)
        # 0.9*0.3 and 0.6*0.45 both give 0.27: five distinct poles remain.
        assert len(comp.terms) == 5
        poles = sorted(comp.poles)
        assert poles.count(pytest.approx(0.27)) >= 1

    @pytest.mark.parametrize("terms", [
        ((1.0, 1e200), (1.0, 0.5)),  # a squared pole gap
        ((1e200, 0.9), (1e200, 0.5), (-1e200, 0.3)),  # a residue product
        ((1e300, 0.8), (1e300, 0.4), (1e300, 0.2), (-1e300, 0.1)),  # inf - inf
        # 1.0 * 0.05 = 0.5 * 0.1: two finite products whose sum overflows.
        tuple((1.34e154, p) for p in (1.0, 0.5, 0.1, 0.05)),
        # 6 * 1 = 3 * 2 = 4 * 1.5: three, summed by fsum.
        tuple((2.6458e153, p) for p in (6.0, 4.0, 3.0, 2.0, 1.5, 1.0)),
    ], ids=["gap", "product", "products-cancel", "pair-sum", "group-sum"])
    def test_overflow_exceeds_budget(self, terms):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BudgetExceededError,
                               match="leaves the doubles"):
                compound_transfer(PartialFractionSystem(terms), 2)

    def test_matches_minor_sequence(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            pfs = random_pfs(rng, int(rng.integers(2, 5)))
            n = len(pfs.terms)
            g = impulse_response(pfs, 50)
            gmax = max(1.0, max(abs(v) for v in g.values))
            for j in range(2, n + 1):
                comp = compound_transfer(pfs, j)
                gc = impulse_response(comp, 12)
                mins = compound_impulse(g, j, 12)
                noise = 1e-13 * gmax ** j
                for t in range(1, 13):
                    scale = max(
                        math.fsum(abs(r) * abs(p) ** (t - 1)
                                  for r, p in comp.terms),
                        abs(mins.value(t)))
                    assert abs(mins.value(t) - gc.value(t)) <= (
                        1e-8 * scale + noise)


class TestToeplitzMinor:
    def test_swap_identity_order_two(self):
        g = impulse_response(DEMO, 16)
        for t in range(2, 10):
            lhs = np.linalg.det(toeplitz_matrix(g, t, 2))
            rhs = -compound_impulse(g, 2, 12).value(t - 1)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_swap_identity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            pfs = random_pfs(rng, int(rng.integers(2, 5)))
            g = impulse_response(pfs, 40)
            gmax = max(1.0, max(abs(v) for v in g.values))
            for j in range(1, 5):
                noise = 1e-13 * gmax ** j
                for t in range(j, 12):
                    lhs = np.linalg.det(toeplitz_matrix(g, t, j))
                    rhs = reversal_sign(j) * compound_impulse(
                        g, j, 16).value(t - j + 1)
                    scale = max(abs(lhs), abs(rhs))
                    assert abs(lhs - rhs) <= 1e-9 * scale + noise

    def test_demo_value(self):
        g = impulse_response(DEMO, 8)
        assert np.linalg.det(toeplitz_matrix(g, 2, 2)) == pytest.approx(
            -0.0064, abs=1e-12)

    def test_lower_triangular_region(self):
        g = impulse_response(DEMO, 8)
        # At t=1 the window contains the implicit zero g(-1)=0 above the
        # onset, so the determinant reduces to g(1) g(1) - g(0) g(2).
        expect = g.value(1) ** 2 - g.value(0) * g.value(2)
        assert np.linalg.det(toeplitz_matrix(g, 1, 2)) == pytest.approx(
            expect, abs=1e-12)


class TestCompoundSystemBundle:
    def test_bundle_routes_agree(self):
        pf = compound_transfer(DEMO, 2)
        ss = compound_realization(to_state_space(DEMO), 2)
        ga = impulse_response(pf, 15)
        gb = impulse_response(ss, 15)
        np.testing.assert_allclose(ga.to_array(), gb.to_array(), atol=1e-12)
