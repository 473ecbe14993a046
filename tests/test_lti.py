import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (extended_controllability, extended_observability,
                       rtf_to_state_space, state_space_samples,
                       to_state_space)
from vardim import lti
from vardim.errors import (BudgetExceededError, DegenerateSystemError,
                           UnsupportedRepresentationError, WindowError)
from vardim.lti import (PartialFractionSystem, RationalTransferFunction,
                        StateSpace, canonical, hankel_matrix,
                        impulse_response, partial_fractions, recombine,
                        toeplitz_matrix)
from vardim.positivity import (check_external, check_hankel_k,
                               check_toeplitz_k)
from vardim.signals import Signal

DEMO = PartialFractionSystem(((0.9, 0.9), (0.5, 0.5), (-0.1, 0.1)))


def random_pfs(rng, n, pole_range=(0.05, 0.95), min_gap=0.05):
    while True:
        poles = np.sort(rng.uniform(*pole_range, size=n))
        if n == 1 or np.min(np.diff(poles)) >= min_gap:
            break
    res = rng.uniform(0.1, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return PartialFractionSystem(tuple(zip(res, poles)))


class TestPartialFractionSystem:
    def test_sorted_by_dominance(self):
        pfs = PartialFractionSystem(((1.0, 0.1), (2.0, 0.9), (1.0, -0.5)))
        assert pfs.poles == (0.9, -0.5, 0.1)

    def test_tie_prefers_positive_pole(self):
        pfs = PartialFractionSystem(((1.0, -0.9), (1.0, 0.9)))
        assert pfs.poles == (0.9, -0.9)

    def test_repeated_pole_rejected(self):
        with pytest.raises(UnsupportedRepresentationError):
            PartialFractionSystem(((1.0, 0.5), (2.0, 0.5)))

    def test_zero_residues_dropped(self):
        pfs = PartialFractionSystem(((0.0, 0.5), (1.0, 0.3)))
        assert pfs.poles == (0.3,)

    def test_zero_fir_tails_are_one_tail(self):
        # An all-zero tail trims to the zero signal wherever it started.
        zero = PartialFractionSystem(())
        for fir in (Signal(1, (0.0,)), Signal(3, (0.0, 0.0)), Signal(2, ())):
            pfs = PartialFractionSystem((), fir)
            assert pfs == zero and hash(pfs) == hash(zero)
            assert pfs.fir == Signal()


class TestImpulseResponse:
    def test_demo_values(self):
        g = impulse_response(DEMO, 8)
        assert g.value(0) == 0.0
        assert g.value(1) == pytest.approx(1.3, abs=1e-12)
        assert g.value(2) == pytest.approx(1.05, abs=1e-12)

    def test_fir_pulse(self):
        g = impulse_response(PartialFractionSystem(((2.0, 0.0),)), 6)
        assert g.values == (0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_state_space_matches_partial_fractions(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4):
            pfs = random_pfs(rng, n)
            ss = to_state_space(pfs)
            ga = impulse_response(pfs, 200)
            gb = impulse_response(ss, 200)
            scale = max(abs(v) for v in ga.values)
            for t in range(201):
                assert abs(ga.value(t) - gb.value(t)) <= 1e-9 * max(
                    scale, abs(ga.value(t)))

    def test_rational_series_matches(self):
        rtf = RationalTransferFunction((1.0, 0.0), (1.0, -1.4, 0.45))
        pfs = partial_fractions(rtf)
        ga = impulse_response(rtf, 50)
        gb = impulse_response(pfs, 50)
        np.testing.assert_allclose(ga.to_array(), gb.to_array(),
                                   rtol=1e-9, atol=1e-12)



def unstable_state_space() -> StateSpace:
    """A real pole 2 and a complex pair of radius 1e6: the samples leave
    the doubles at t = 53, inside the default horizon."""
    A = np.zeros((3, 3))
    A[0, 0] = 2.0
    A[1:, 1:] = 1e6 * np.array([[math.cos(1.0), -math.sin(1.0)],
                                [math.sin(1.0), math.cos(1.0)]])
    return StateSpace(A, np.ones(3), np.ones(3))


class TestNonFiniteSamples:
    @pytest.mark.parametrize("check", [
        check_external, lambda s: check_hankel_k(s, 2),
        lambda s: check_toeplitz_k(s, 2)],
        ids=["external", "hankel-2", "toeplitz-2"])
    def test_checks_raise_budget_exceeded(self, check):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BudgetExceededError, match="t=53"):
                check(unstable_state_space())

    @pytest.mark.parametrize("system, t", [
        (PartialFractionSystem(((1.0, 1e10),)), 32),
        (RationalTransferFunction((1.0,), (1.0, -1e10)), 32),
        (RationalTransferFunction((1.0,), (1.0, 0.0, 1e300)), 6),
        (PartialFractionSystem(((1e300, 2.0), (-1e300, 1.9))), 29)])
    def test_every_form_names_the_first_bad_sample(self, system, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BudgetExceededError, match=f"t={t};"):
                impulse_response(system, 64)
        assert len(impulse_response(system, t - 1)) == t

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 16).flatmap(lambda n: st.tuples(
        st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n),
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
        st.sampled_from((0.3, 1.0, 3.0, 1e4, 1e8)),
        st.integers(1, 80))))
    def test_state_space_matches_matmul_recurrence(self, case):
        # Bit for bit, zero signs included, and the same first bad t.
        a, b, c, scale, horizon = case
        n = len(b)
        ss = StateSpace(np.reshape(a, (n, n)) * scale, b, c)
        want = state_space_samples(ss, horizon)
        bad = next((t for t, v in enumerate(want) if not math.isfinite(v)),
                   None)
        if bad is None:
            got = impulse_response(ss, horizon).values
            assert [v.hex() for v in got] == [v.hex() for v in want]
        else:
            with pytest.raises(BudgetExceededError,
                               match=f"at t={bad};") as info:
                impulse_response(ss, horizon)
            assert info.value.time == bad


class TestPartialFractions:
    def test_two_pole_example(self):
        rtf = RationalTransferFunction((1.0, 0.0), (1.0, -1.4, 0.45))
        pfs = partial_fractions(rtf)
        assert pfs.terms[0] == pytest.approx((2.25, 0.9), rel=1e-12)
        assert pfs.terms[1] == pytest.approx((-1.25, 0.5), rel=1e-12)

    def test_single_pole(self):
        rtf = RationalTransferFunction((1.0,), (1.0, -0.7))
        assert partial_fractions(rtf).terms == ((1.0, 0.7),)

    def test_zero_in_numerator(self):
        rtf = RationalTransferFunction((1.0, -0.7), (1.0, -1.4, 0.45))
        pfs = partial_fractions(rtf)
        assert pfs.terms[0] == pytest.approx((0.5, 0.9))
        assert pfs.terms[1] == pytest.approx((0.5, 0.5))

    def test_complex_poles_rejected(self):
        rtf = RationalTransferFunction((1.0,), (1.0, 0.0, 0.64))
        with pytest.raises(UnsupportedRepresentationError):
            partial_fractions(rtf)

    def test_round_trip_residues(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            pfs = random_pfs(rng, int(rng.integers(1, 5)))
            back = partial_fractions(recombine(pfs))
            for (ra, pa), (rb, pb) in zip(pfs.terms, back.terms):
                assert abs(ra - rb) <= 1e-9 * max(1.0, abs(ra))
                assert abs(pa - pb) <= 1e-9


    @pytest.mark.parametrize("n", [3, 6, 8, 10, 12, 16])
    def test_cascade_samples_below_relative_degree_cancel(self, n):
        # n lags with n // 2 zeros: g(t) = 0 exactly for t below the
        # relative degree, so the residues must cancel there to rounding
        # (residues N(p) / D'(p) give g(1) = 3.9e5 at n = 16).
        poles = [0.95 - i * 0.9 / (n - 1) for i in range(n)]
        zeros = [-0.05 - 0.85 * i / max(1, n // 2 - 1)
                 for i in range(n // 2)]
        pfs = partial_fractions(RationalTransferFunction(
            tuple(np.poly(zeros)), tuple(np.poly(poles))))
        r, p = pfs.arrays
        for t in range(1, n - n // 2):
            terms = r * p ** (t - 1)
            assert abs(math.fsum(terms.tolist())) <= 1e-14 * math.fsum(
                np.abs(terms).tolist())


class TestStateSpaceConversion:
    def test_single_term(self):
        ss = to_state_space(PartialFractionSystem(((1.0, 0.5),)))
        assert ss.A[0, 0] == 0.5 and ss.b[0] == 1.0 and ss.c[0] == 1.0

    def test_asymmetric_default(self):
        ss = to_state_space(PartialFractionSystem(((2.25, 0.9),
                                                   (-1.25, 0.5))))
        np.testing.assert_allclose(np.diag(ss.A), [0.9, 0.5])
        np.testing.assert_allclose(ss.b, [2.25, -1.25])
        np.testing.assert_allclose(ss.c, [1.0, 1.0])

    def test_symmetric_option(self):
        ss = to_state_space(PartialFractionSystem(((1.0, 0.9), (1.0, 0.5))),
                            symmetric=True)
        np.testing.assert_allclose(ss.b, ss.c)
        np.testing.assert_allclose(ss.b, [1.0, 1.0])

    def test_symmetric_rejects_negative_residue(self):
        with pytest.raises(ValueError):
            to_state_space(PartialFractionSystem(((-1.0, 0.5),)),
                           symmetric=True)

    def test_fir_tail_realized(self):
        pfs = PartialFractionSystem(((1.0, 0.5),), Signal(1, (0.3, -0.2)))
        ss = to_state_space(pfs)
        ga = impulse_response(pfs, 12)
        gb = impulse_response(ss, 12)
        np.testing.assert_allclose(ga.to_array(), gb.to_array(), atol=1e-12)


class TestCanonical:
    CASCADE = RationalTransferFunction((1.0, 0.4), (1.0, -1.5, 0.66, -0.08))
    COMPLEX = StateSpace([[0.9, 0.0, 0.0], [0.0, 0.3, -0.4],
                          [0.0, 0.4, 0.3]], [1.0, 0.5, 0.5], [1.0, 1.0, 1.0])

    def test_partial_fractions_returned_as_is(self):
        assert canonical(DEMO) is DEMO

    def test_rational_with_simple_real_poles(self):
        assert canonical(self.CASCADE) == partial_fractions(self.CASCADE)

    def test_diagonal_state_space_is_exact(self):
        assert canonical(to_state_space(DEMO)) == DEMO

    def test_companion_state_space(self):
        form = canonical(rtf_to_state_space(self.CASCADE))
        assert isinstance(form, PartialFractionSystem)
        want = partial_fractions(self.CASCADE)
        np.testing.assert_allclose(form.poles, want.poles, rtol=1e-9)
        np.testing.assert_allclose(form.residues, want.residues, rtol=1e-9)

    def test_unreachable_modes_dropped(self):
        ss = StateSpace(np.diag([0.9, 0.5]), [1.0, 0.0], [1.0, 1.0])
        assert canonical(ss) == PartialFractionSystem(((1.0, 0.9),))
        zero = StateSpace(np.diag([0.9, 0.5]), [0.0, 0.0], [1.0, 1.0])
        assert canonical(zero).is_zero()

    def test_complex_poles_stay_state_space(self):
        assert canonical(self.COMPLEX) is self.COMPLEX
        rtf = RationalTransferFunction((2.0, -1.8, 0.52),
                                       (1.0, -1.5, 0.79, -0.225))
        assert canonical(rtf) is rtf

    def test_repeated_poles_stay_state_space(self):
        jordan = StateSpace([[0.5, 1.0], [0.0, 0.5]], [0.0, 1.0], [1.0, 0.0])
        assert canonical(jordan) is jordan
        rtf = RationalTransferFunction((1.0,), (1.0, -1.0, 0.25))
        assert canonical(rtf) is rtf

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            canonical((0.5, 1.0))


class TestExtendedBlocks:
    def test_scalar_chain(self):
        ss = StateSpace([[0.5]], [1.0], [1.0])
        np.testing.assert_allclose(extended_controllability(ss, 3),
                                   [[1.0, 0.5, 0.25]])

    def test_two_state_determinant(self):
        ss = StateSpace(np.diag([1.0, 2.0]), [1.0, 1.0], [1.0, 1.0])
        C2 = extended_controllability(ss, 2)
        np.testing.assert_allclose(C2, [[1.0, 1.0], [1.0, 2.0]])
        assert np.linalg.det(C2) == pytest.approx(1.0)

    def test_duality(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(4, 4))
        b = rng.normal(size=4)
        c = rng.normal(size=4)
        ss = StateSpace(A, b, c)
        dual = StateSpace(A.T, c, b)
        np.testing.assert_allclose(extended_observability(dual, 3),
                                   extended_controllability(ss, 3).T)

    def test_diagonal_controllability_determinant(self):
        # Independent oracle: det [b, Ab, ..., A^(n-1)b] for diagonal A is
        # the Vandermonde product prod b_i * prod_{i<j} (p_j - p_i).
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            p = rng.uniform(-1.0, 1.0, size=n)
            while n > 1 and np.min(np.abs(np.subtract.outer(
                    p, p)[~np.eye(n, dtype=bool)])) < 0.05:
                p = rng.uniform(-1.0, 1.0, size=n)
            b = rng.uniform(-1.0, 1.0, size=n)
            ss = StateSpace(np.diag(p), b, np.ones(n))
            got = np.linalg.det(extended_controllability(ss, n))
            expect = float(np.prod(b))
            for i, j in itertools.combinations(range(n), 2):
                expect *= p[j] - p[i]
            assert got == pytest.approx(expect, rel=1e-8, abs=1e-12)


class TestStructuredMatrices:
    def test_demo_hankel_window(self):
        g = impulse_response(DEMO, 8)
        H = hankel_matrix(g, 1, 2)
        np.testing.assert_allclose(
            H, [[1.3, 1.05], [1.05, 0.853]], atol=1e-12)
        assert np.linalg.det(H) == pytest.approx(0.0064, abs=1e-12)

    def test_first_order_hankel_is_rank_one(self):
        g = impulse_response(PartialFractionSystem(((1.0, 0.6),)), 20)
        for t in range(1, 9):
            assert np.linalg.det(hankel_matrix(g, t, 2)) == pytest.approx(
                0.0, abs=1e-15)

    def test_hankel_factorization(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pfs = random_pfs(rng, int(rng.integers(1, 5)))
            ss = to_state_space(pfs)
            g = impulse_response(pfs, 30)
            j = int(rng.integers(1, len(pfs.terms) + 1))
            t = int(rng.integers(1, 10))
            H = hankel_matrix(g, t, j)
            O = extended_observability(ss, j)
            C = extended_controllability(ss, j)
            expect = O @ np.linalg.matrix_power(ss.A, t - 1) @ C
            np.testing.assert_allclose(H, expect, rtol=1e-9, atol=1e-12)

    def test_hankel_rank_equals_order(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3, 4):
            pfs = random_pfs(rng, n, pole_range=(0.3, 0.95), min_gap=0.12)
            g = impulse_response(pfs, 3 * n + 4)
            H = hankel_matrix(g, 1, n + 1)
            s = np.linalg.svd(H, compute_uv=False)
            rank = int(np.sum(s > 1e-8 * s[0]))
            assert rank == min(n + 1, n)

    def test_toeplitz_pattern_and_causality(self):
        g = impulse_response(DEMO, 8)
        T = toeplitz_matrix(g, 1, 3)
        assert T[0, 1] == g.value(0)
        assert T[0, 2] == 0.0  # g(-1) vanishes
        assert T[2, 0] == g.value(3)

    def test_window_coverage_errors(self):
        g = impulse_response(DEMO, 4)
        with pytest.raises(WindowError):
            hankel_matrix(g, 3, 2)  # needs g(5)
        with pytest.raises(WindowError):
            toeplitz_matrix(g, 4, 2)  # needs g(5)


class TestZerosAndRationalForm:
    def test_single_zero(self):
        rtf = RationalTransferFunction((1.0, -0.7), (1.0, -1.4, 0.45))
        assert rtf.zeros == ((0.7 + 0j),)

    def test_two_zeros_sorted(self):
        rtf = RationalTransferFunction((1.0, 0.0, -1.0),
                                       (1.0, 0.0, 0.0, -0.001))
        zs = rtf.zeros
        assert zs == ((1 + 0j), (-1 + 0j))

    def test_recombined_demo_zero_at_origin(self):
        pfs = PartialFractionSystem(((2.25, 0.9), (-1.25, 0.5)))
        rtf = recombine(pfs)
        zs = rtf.zeros
        assert len(zs) == 1
        assert zs[0] == pytest.approx(0.0, abs=1e-12)

    def test_strict_properness_enforced(self):
        with pytest.raises(ValueError):
            RationalTransferFunction((2.0, 1.0), (1.0, -0.5))

    def test_pole_zero_overlap_rejected(self):
        with pytest.raises(ValueError):
            RationalTransferFunction((1.0, -0.5), (1.0, -1.0, 0.25, 0.0)[:3])

    def test_zero_numerator_degenerate(self):
        with pytest.raises(DegenerateSystemError):
            RationalTransferFunction((0.0,), (1.0, -0.5))

    @pytest.mark.parametrize("num, den", [
        ((1.0,), (math.inf, 1.0)), ((math.nan,), (1.0, -0.5)),
        ((1.0,), (1.0, -math.inf)), ((1e10,), (1e-300, 1.0))])
    def test_non_finite_coefficients_rejected(self, num, den):
        # Refused with no numpy warning, also when normalising overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                RationalTransferFunction(num, den)

    def test_companion_realization_matches_series(self):
        rtf = RationalTransferFunction((2.0, -0.3), (1.0, -1.0, 0.21))
        ga = impulse_response(rtf, 40)
        gb = impulse_response(rtf_to_state_space(rtf), 40)
        np.testing.assert_allclose(ga.to_array(), gb.to_array(),
                                   rtol=1e-9, atol=1e-12)

    def test_roots_computed_once(self, monkeypatch):
        calls = []
        roots = lti.polynomial_roots
        monkeypatch.setattr(lti, "polynomial_roots",
                            lambda c: calls.append(c) or roots(c))
        rtf = RationalTransferFunction((1.0, 0.4), (1.0, -1.5, 0.66, -0.08))
        for _ in range(2):
            assert rtf.poles == roots(rtf.den)
            assert rtf.zeros == roots(rtf.num)
        assert len(calls) == 2
