import math
import random
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vardim.positivity
from reference import (DELETED, MOVED, check_relaxation, diff_system,
                       necessary_coefficients, recombined_impulse,
                       repeated_pole_check)
from vardim.compound import compound_impulse, compound_transfer, reversal_sign
from vardim.errors import (BudgetExceededError, StructuralError,
                           UnsupportedRepresentationError)
from vardim.lti import (DEFAULT_HORIZON, PartialFractionSystem,
                        RationalTransferFunction, StateSpace, canonical,
                        dominance_key, impulse_response, recombine)
from vardim.positivity import (CERTIFIED, HOLDS, REFUTED, TOEPLITZ_K,
                               UNSUPPORTED, PositivityReport,
                               _compound_external, _initial_window_witness,
                               _pole_magnitudes, check_external,
                               check_hankel_k, check_hankel_total,
                               check_toeplitz_k, check_toeplitz_total,
                               hankel_decompose, render_report,
                               toeplitz_decompose, WITNESS_SEARCH_CAP)
from vardim.signals import Signal, forward_difference
from vardim.tolerance import ZERO_TOL

DEMO = PartialFractionSystem(((0.9, 0.9), (0.5, 0.5), (-0.1, 0.1)))
ALTERNATING = PartialFractionSystem(((2.25, 0.9), (-1.25, 0.5)))
PARALLEL = PartialFractionSystem(((1.0, 0.9), (1.0, 0.5)))
ZERO_RESPONSE = StateSpace(np.diag([0.9, 0.5]), [0.0, 0.0], [1.0, 1.0])


def even_bank(residues):
    """Residues on poles evenly spaced from 0.95 down to 0.05."""
    n = len(residues)
    poles = [0.95 - i * 0.9 / (n - 1) for i in range(n)]
    return PartialFractionSystem(tuple(zip(residues, poles)))


def spread(n):
    """n magnitudes in [0.2, 1] in golden-ratio order (no two alike)."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    return [0.2 + 0.8 * ((i + 1) * golden % 1.0) for i in range(n)]


class TestCheckExternal:
    def test_negative_dominant_pole_refuted(self):
        rep = check_external(PartialFractionSystem(((1.0, -0.9),)))
        assert rep.verdict == REFUTED
        # The alternating response is caught directly in the sampled scan.
        assert rep.witness["kind"] == "negative-sample"
        assert rep.witness["time"] == 2

    def test_alternating_residues_certified(self):
        rep = check_external(ALTERNATING)
        assert rep.verdict == CERTIFIED
        assert "tail dominance from t=1" in rep.certificate

    def test_tied_magnitudes_hold_to_horizon(self):
        sys = PartialFractionSystem(((1.0, 0.9), (0.5, -0.9), (0.5, 0.5)))
        rep = check_external(sys)
        assert rep.verdict == HOLDS

    def test_oscillating_numerator_chain_holds_only(self):
        # Serial product of a lag with a nonnegative-but-wiggly kernel:
        # complex poles block the structural certificate machinery.
        den = np.polymul(np.polymul((1.0, -0.9), (1.0, -0.8)),
                         (1.0, 0.0, 0.64))
        num = np.polyadd(np.polymul((2.0, -0.8, 0.0), (1.0,)),
                         (0.64,))
        rtf = RationalTransferFunction(tuple(num), tuple(den))
        g = impulse_response(rtf, 64)
        assert min(g.values) >= -1e-12
        rep = check_external(rtf)
        assert rep.verdict == HOLDS

    def test_real_zero_above_dominant_pole_refuted(self):
        # num (z - 0.95) with dominant pole 0.9: necessary condition fails.
        rtf = RationalTransferFunction((1.0, -0.95), (1.0, -1.4, 0.45))
        rep = check_external(rtf)
        assert rep.verdict == REFUTED
        assert rep.witness["kind"] in ("real-zero-dominates",
                                       "negative-sample")

    def test_fir_certified_by_support(self):
        pfs = PartialFractionSystem((), Signal(1, (1.0, 0.5, 0.25)))
        rep = check_external(pfs)
        assert rep.verdict == CERTIFIED
        assert "support exhausted" in rep.certificate

    def test_zero_system_certified(self):
        rep = check_external(PartialFractionSystem(()))
        assert rep.verdict == CERTIFIED

    def test_negative_sample_witness(self):
        pfs = PartialFractionSystem(((1.0, 0.9), (-2.0, 0.5)))
        rep = check_external(pfs)
        assert rep.verdict == REFUTED
        assert rep.witness["kind"] == "negative-sample"
        t = rep.witness["time"]
        assert impulse_response(pfs, t).value(t) < 0


class TestFirSampleIsData:
    """A FIR sample far below ``ZERO_TOL`` is part of the response: the
    constructor drops only exact zeros, and every check reads the rest."""

    TINY = PartialFractionSystem((), Signal(1, (-1e-13,)))

    def test_constructor_drops_exact_zeros_only(self):
        pfs = PartialFractionSystem(((1.0, 0.5),),
                                    Signal(0, (0.0, -0.0, 1e-300, 0.0)))
        assert pfs.fir == Signal(2, (1e-300,))
        assert pfs.order == 3
        assert not self.TINY.is_zero()
        assert PartialFractionSystem((), Signal(1, (0.0,))).is_zero()

    @pytest.mark.parametrize("check", [
        check_external,
        lambda s: check_hankel_k(s, 1),
        lambda s: check_toeplitz_k(s, 1),
    ])
    def test_sample_checks_refute_at_t1(self, check):
        rep = check(self.TINY)
        assert rep.verdict == REFUTED
        assert rep.t0 == 1
        assert rep.witness["time"] == 1
        assert rep.witness["value"] == -1e-13

    def test_hankel_total_refutes_the_negative_lag(self):
        # The FIR sample at t=1 is a lag with pole 0 and residue -1e-13.
        rep = check_hankel_total(self.TINY)
        assert rep.verdict == REFUTED
        assert rep.witness == {"kind": "negative-residue", "index": 1,
                               "residue": -1e-13}


class TestCheckHankelK:
    def test_demo_certified_at_two(self):
        rep = check_hankel_k(DEMO, 2)
        assert rep.verdict == CERTIFIED

    def test_demo_refuted_at_three(self):
        rep = check_hankel_k(DEMO, 3)
        assert rep.verdict == REFUTED
        assert rep.witness["compound-order"] == 3

    def test_parallel_bank_certified_at_two(self):
        assert check_hankel_k(PARALLEL, 2).verdict == CERTIFIED

    def test_alternating_refuted_at_two(self):
        assert check_hankel_k(ALTERNATING, 2).verdict == REFUTED

    def test_k_above_order_uses_total_characterization(self):
        rep = check_hankel_k(PARALLEL, 5)
        assert rep.property_name == "hankel-k"
        assert rep.k == 5
        assert rep.verdict == CERTIFIED

    def test_k_one_equals_external(self):
        for sys in (DEMO, ZERO_RESPONSE):
            assert check_hankel_k(sys, 1).verdict == check_external(
                sys).verdict

    def test_witness_search_stops_when_no_sample_can_cross(self,
                                                         monkeypatch):
        # Order-5 compound of 212 terms with theta ~ 1e-20: the search
        # used to run to its cap without finding a negative sample.
        res = spread(10)
        res[4] = -res[4]
        reached = []
        blocks = vardim.positivity._SampleScan._blocks

        def recording(self, stop):
            reached.append(stop)
            return blocks(self, stop)

        monkeypatch.setattr(vardim.positivity._SampleScan, "_blocks",
                            recording)
        assert check_hankel_k(even_bank(res), 5).verdict == HOLDS
        assert max(reached) <= WITNESS_SEARCH_CAP // 256

    def test_window_refutation_carries_witness(self):
        rep = check_hankel_k(ALTERNATING, 2)
        assert rep.witness is not None

    def test_positive_partial_fractions_certified_by_residue_signs(self):
        # The leading windows of these banks are too ill-conditioned for
        # is_pd, which refuted every one of them.
        rng = np.random.default_rng(0)
        for n, k in ((8, 7), (10, 10), (12, 12), (16, 8), (16, 16)):
            bank = even_bank(rng.uniform(0.2, 1.0, n).tolist())
            rep = check_hankel_k(bank, k)
            assert rep == replace(check_hankel_total(bank),
                                  property_name="hankel-k", k=k)
            assert rep.verdict == CERTIFIED
        # Other forms keep the windows and the compound check.
        rep = check_hankel_k(recombine(PARALLEL), 2)
        assert rep.verdict == CERTIFIED and len(rep.details) == 1


class TestCheckToeplitzK:
    def test_demo_refuted_at_two(self):
        rep = check_toeplitz_k(DEMO, 2)
        assert rep.verdict == REFUTED
        assert rep.witness["compound-order"] == 2

    def test_alternating_certified_up_to_order(self):
        for k in (1, 2, 3):
            assert check_toeplitz_k(ALTERNATING, k).verdict == CERTIFIED

    def test_parallel_bank_refuted_at_two(self):
        assert check_toeplitz_k(PARALLEL, 2).verdict == REFUTED

    def test_zero_pole_hypothesis_unsupported(self):
        sys = PartialFractionSystem(((1.0, 0.9), (0.5, 0.0)))
        rep = check_toeplitz_k(sys, 3)
        assert rep.verdict == UNSUPPORTED

    def test_k_one_equals_external(self):
        assert check_toeplitz_k(DEMO, 1).verdict == CERTIFIED

    def test_zero_level_is_that_of_the_system(self):
        # Below 1e-12 in absolute terms but not relative to its residue:
        # the response is negative, not identically zero.
        tiny = PartialFractionSystem(((-1e-13, 0.5),))
        rep = check_toeplitz_k(tiny, 1)
        assert rep.verdict == REFUTED and rep.t0 == 1
        zero = check_toeplitz_k(PartialFractionSystem(()), 1)
        assert zero.verdict == CERTIFIED and zero.t0 is None
        assert zero.certificate == "impulse response identically zero"

    def test_nearly_cancelling_compound_certified(self):
        # The order-11 compound recombines to a rational form whose pole
        # and zero near 2.2e-4 nearly cancel; its tail-dominance
        # certificate needs no zero test.
        res = [(-1) ** i * r for i, r in enumerate(spread(12))]
        res[11] = -res[11]
        bank = even_bank(res)
        rep = check_toeplitz_k(bank, 12)
        assert rep.verdict == REFUTED
        assert rep.witness["kind"] == "negative-sample"
        comp = compound_transfer(bank, 11).scaled(reversal_sign(11))
        assert check_external(comp).verdict == CERTIFIED

    def test_first_refuted_compound_ends_the_ladder(self, monkeypatch):
        # DEMO is refuted at order 2; no higher compound and no initial
        # window is built.
        real = vardim.positivity.compound_transfer

        def upto_two(form, j):
            if j > 2:
                raise AssertionError(f"compound of order {j} built")
            return real(form, j)

        def no_windows(*args):
            raise AssertionError("initial windows tested")

        monkeypatch.setattr(vardim.positivity, "compound_transfer", upto_two)
        monkeypatch.setattr(vardim.positivity, "_initial_window_witness",
                            no_windows)
        rep = check_toeplitz_k(DEMO, 3)
        assert rep.verdict == REFUTED
        assert rep.witness["compound-order"] == 2
        assert [sub.verdict for sub in rep.details] == [CERTIFIED, REFUTED]


_RANK = {CERTIFIED: 0, HOLDS: 1, REFUTED: 2}


def ladder_reference(sys, k, horizon=DEFAULT_HORIZON):
    """``check_toeplitz_k`` as a ladder that runs every order: the
    compounds of orders 1..k and the initial windows are all checked, the
    verdict is the worst of them, and the witness is that of the first
    refuted check."""
    form = canonical(sys)
    poles = sorted(_pole_magnitudes(form), key=dominance_key)
    if k >= 2 and (k - 1 > len(poles) or abs(poles[k - 2]) <= ZERO_TOL):
        return PositivityReport(TOEPLITZ_K, k, UNSUPPORTED, horizon)
    # Samples of the form for the compounds that read them.
    g = impulse_response(form, horizon + 2 * k - 2)
    first = _compound_external(form, 1, horizon, 1, g)
    if first.t0 is None:
        return PositivityReport(
            TOEPLITZ_K, k, first.verdict, horizon,
            certificate=("impulse response identically zero"
                         if first.verdict == CERTIFIED else None))
    details = (first,) + tuple(
        _compound_external(form, j, horizon, reversal_sign(j), g)
        for j in range(2, k + 1))
    witnesses = [{**sub.witness, "compound-order": j}
                 for j, sub in enumerate(details, start=1)
                 if sub.verdict == REFUTED]
    initial = _initial_window_witness(
        impulse_response(form, max(1, 2 * k - 4)), k, first.t0)
    if initial is not None:
        witnesses.append(initial)
    verdict = max((sub.verdict for sub in details), key=_RANK.get)
    if witnesses:
        verdict = REFUTED
    certificate = None
    if verdict == CERTIFIED:
        certificate = (f"sign-adjusted compounds of orders 1..{k} externally "
                       f"positive and initial windows positive")
    return PositivityReport(TOEPLITZ_K, k, verdict, horizon,
                            certificate=certificate,
                            witness=witnesses[0] if witnesses else None,
                            t0=first.t0, details=details)


@st.composite
def ladder_systems(draw):
    """A stable pole/residue system with poles at least 0.01 apart and
    away from zero, residues of alternating or random sign, an optional
    FIR tail, and an order k from 1 to one above the number of poles."""
    n = draw(st.integers(1, 6))
    bins = draw(st.lists(st.integers(-19, 19), min_size=n, max_size=n,
                         unique=True))
    poles = [(b + draw(st.floats(0.1, 0.9))) / 20.0 for b in bins]
    mags = draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        rank = sorted(range(n), key=lambda i: -abs(poles[i]))
        signs = [0.0] * n
        for pos, i in enumerate(rank):
            signs[i] = (-1.0) ** pos
    else:
        signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=n,
                              max_size=n))
    fir = draw(st.sampled_from((Signal(), Signal(1, (0.4,)),
                                Signal(0, (0.2, 0.0, 0.5)))))
    pfs = PartialFractionSystem(
        tuple((m * sg, p) for m, sg, p in zip(mags, signs, poles)), fir)
    return pfs, draw(st.integers(1, n + 1))


class TestFirstRefutation:
    @settings(max_examples=150, deadline=None)
    @given(ladder_systems())
    # Refuted by an initial window after four certified compounds, and
    # unsupported for a pole at zero.
    @example((PartialFractionSystem(((1.9, 0.68), (-1.4, 0.34),
                                     (0.36, 0.014))), 4))
    @example((PartialFractionSystem(((1.0, 0.9), (0.5, 0.0))), 3))
    def test_matches_the_full_ladder(self, case):
        sys_, k = case
        rep, ref = check_toeplitz_k(sys_, k), ladder_reference(sys_, k)
        assert ((rep.verdict, rep.witness, rep.t0, rep.certificate)
                == (ref.verdict, ref.witness, ref.t0, ref.certificate))
        refuted = [j for j, sub in enumerate(ref.details, start=1)
                   if sub.verdict == REFUTED]
        ran = refuted[0] if refuted else len(ref.details)
        assert rep.details == ref.details[:ran]


class TestCompoundRoute:
    @pytest.fixture
    def no_sampling(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("partial-fraction input sampled its "
                                 "compound")

        monkeypatch.setattr(vardim.positivity, "compound_impulse", fail)

    def test_hankel_uses_residue_formula(self, no_sampling):
        bank = even_bank(spread(6))
        # The pole/residue form is certified by its residue signs; its
        # num/den form reaches the compounds.
        for sys in (bank, recombine(bank)):
            for k in range(1, 7):
                assert check_hankel_k(sys, k).verdict != REFUTED
        assert check_hankel_k(DEMO, 3).verdict == REFUTED

    def test_toeplitz_uses_residue_formula(self, no_sampling):
        res = [(-1) ** i * r for i, r in enumerate(spread(6))]
        for k in range(1, 7):
            check_toeplitz_k(even_bank(res), k)
        assert check_toeplitz_k(ALTERNATING, 2).verdict == CERTIFIED


def complex_tail(n):
    """n - 2 real modes from 0.95 down to 0.3 and a complex pair of radius
    0.135 at angle 1.4, in modal form."""
    A = np.diag([0.95 - i * 0.65 / (n - 3) for i in range(n - 2)] + [0, 0])
    A[n - 2:, n - 2:] = 0.135 * np.array([[math.cos(1.4), -math.sin(1.4)],
                                          [math.sin(1.4), math.cos(1.4)]])
    return StateSpace(A, np.linspace(1.0, 0.2, n), np.ones(n))


# Forms without a residue formula: complex poles as a state space and as
# num/den, repeated poles, and a pole/residue form with a FIR tail.
SAMPLED_FORMS = {
    "complex-ss": StateSpace([[0.9, 0, 0], [0, 0.3, -0.4], [0, 0.4, 0.3]],
                             [1.0, 0.5, 0.5], [1, 1, 1]),
    "complex-rtf": RationalTransferFunction((2.0, -1.8, 0.52),
                                            (1.0, -1.5, 0.79, -0.225)),
    "repeated-ss": StateSpace([[0.8, 1.0, 0], [0, 0.8, 0], [0, 0, 0.3]],
                              [0.0, 1.0, 1.0], [1, 1, 1]),
    "fir-tail": PartialFractionSystem(((1.0, 0.8), (-0.2, 0.4)),
                                      Signal(1, (0.0, 0.5))),
    "complex-16": complex_tail(16),
}


class TestSampledCompounds:
    @pytest.mark.parametrize("name", SAMPLED_FORMS)
    def test_checks_build_no_realization(self, name):
        # The dense constructions live in the test reference only: after
        # the checks have run, no loaded package module binds one of them.
        sys_ = SAMPLED_FORMS[name]
        ks = (1, 2, 8) if name == "complex-16" else range(1, 5)
        check_external(sys_)
        for k in ks:
            check_hankel_k(sys_, k)
            check_toeplitz_k(sys_, k)
        modules = [module for key, module in sys.modules.items()
                   if key.split(".")[0] == "vardim" and module is not None]
        assert vardim in modules and vardim.compound in modules
        for module in modules:
            bound = [attr for attr in MOVED + DELETED if hasattr(module, attr)]
            assert not bound, (module.__name__, bound)

    def test_fir_tail_checked_as_partial_fractions(self):
        # At order 1 the compound is the system itself, whose FIR tail the
        # sample scan reads; tail dominance then certifies it.
        fir = SAMPLED_FORMS["fir-tail"]
        for rep in (check_hankel_k(fir, 1), check_toeplitz_k(fir, 1)):
            assert rep.verdict == CERTIFIED
            assert "tail dominance" in rep.details[0].certificate

    def test_wide_compounds_sample_in_small_memory(self):
        # The C(16, 8)-state realization would need gigabytes.
        tracemalloc.start()
        try:
            rep = check_toeplitz_k(SAMPLED_FORMS["complex-16"], 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.verdict == REFUTED
        assert rep.witness["compound-order"] == 2
        assert peak < 1 << 20

    def test_sampled_compound_is_the_window_determinant(self):
        ss = SAMPLED_FORMS["complex-ss"]
        rep = check_hankel_k(ss, 2)
        g = compound_impulse(impulse_response(ss, 66), 2, 64)
        assert rep.witness["value"] == g.value(rep.witness["time"]) < 0


def overflow_tail(p):
    """A pole p in 4e4..6e4, a complex pair of radius 0.5 and b = [-1, 3,
    0.5]: the samples leave the doubles between t = 66 and 68, past the 64
    that the zero level, the windows and the order-1 compound read."""
    return StateSpace([[p, 0, 0], [0, 0.3824, -0.3221], [0, 0.3221, 0.3824]],
                      [-1.0, 3.0, 0.5], [1, 1, 1])


class TestOneSampling:
    @pytest.fixture
    def calls(self, monkeypatch):
        """(system, horizon) of every impulse response a check samples."""
        seen = []
        real = vardim.positivity.impulse_response

        def spy(sys_, horizon):
            seen.append((sys_, horizon))
            return real(sys_, horizon)

        monkeypatch.setattr(vardim.positivity, "impulse_response", spy)
        return seen

    @pytest.mark.parametrize("name, ks", [
        ("complex-ss", (1, 2, 3)), ("repeated-ss", (1, 2, 3)),
        ("fir-tail", (1, 2, 3)), ("complex-16", (1, 2, 8)),
        ("complex-rtf", (1, 2, 3))])
    def test_form_sampled_once_per_check(self, calls, name, ks):
        # The form is the system itself: one sampling serves the zero
        # level, t0, the windows and every compound of the check.
        sys_ = SAMPLED_FORMS[name]
        assert canonical(sys_) is sys_
        for k in ks:
            for check in (check_hankel_k, check_toeplitz_k):
                calls.clear()
                check(sys_, k)
                assert [c[0] for c in calls] == [sys_], (check.__name__, k)

    @pytest.mark.parametrize("n, k", [(3, 2), (3, 3), (6, 3), (10, 5),
                                      (12, 6), (16, 8), (16, 16)])
    def test_negated_bank_windows_read_a_prefix(self, calls, n, k):
        # The windows read g(1..2k-2), and g(1) clears the zero level.
        res = spread(n)
        res[k - 1] = -res[k - 1]
        check_hankel_k(even_bank(res), k)
        assert len(calls) == 1
        assert calls[0][1] + 1 <= 2 * k - 1

    @pytest.mark.parametrize("p", (4e4, 5e4, 6e4))
    @pytest.mark.parametrize("k, witness", [
        (2, {"kind": "window-not-positive-semidefinite", "offset": 2,
             "order": 1}),
        (3, {"kind": "window-not-positive-definite", "offset": 1,
             "order": 2})])
    def test_hankel_windows_refute_before_the_overflow(self, p, k, witness):
        ss = overflow_tail(p)
        rep = check_hankel_k(ss, k)
        assert (rep.verdict, rep.t0, rep.witness) == (REFUTED, 62, witness)
        if k == 3:
            # The order-3 compound would read samples that are not finite.
            with pytest.raises(BudgetExceededError):
                impulse_response(ss, DEFAULT_HORIZON + 2 * k - 2)

    @pytest.mark.parametrize("p", (4e4, 5e4, 6e4))
    def test_toeplitz_ladder_refutes_before_the_overflow(self, p):
        # The order-3 ladder would read g up to t = 68; its order-1
        # compound, which reads g up to the horizon, refutes first.
        ss = overflow_tail(p)
        with pytest.raises(BudgetExceededError):
            impulse_response(ss, DEFAULT_HORIZON + 4)
        rep = check_toeplitz_k(ss, 3)
        assert rep.verdict == REFUTED
        assert rep.witness == {
            "kind": "negative-sample", "time": 62,
            "value": impulse_response(ss, 62).value(62), "compound-order": 1}
        assert rep.witness["value"] < 0

    def test_overflow_read_by_a_layer_names_its_time(self):
        # The order-2 compound of a positive tail reads g up to t = 66.
        ss = StateSpace(overflow_tail(6e4).A, [1.0, 1.0, 0.5], [1, 1, 1])
        with pytest.raises(BudgetExceededError) as want:
            impulse_response(ss, DEFAULT_HORIZON + 2)
        with pytest.raises(BudgetExceededError) as got:
            check_hankel_k(ss, 2)
        assert str(got.value) == str(want.value)


def exact_samples(rtf, stop):
    """g(0..stop) of a num/den system as given, by its recursion in exact
    rational arithmetic."""
    den = [Fraction(v) for v in rtf.den]
    n = len(den) - 1
    # The numerator coefficient of z^(n-t), zero past the strict degree.
    c = [Fraction(0)] * (n + 1 - len(rtf.num)) + [Fraction(v)
                                                  for v in rtf.num]
    g = []
    for t in range(stop + 1):
        g.append((c[t] if t <= n else 0) - sum(
            den[i] * g[t - i] for i in range(1, min(t, n) + 1)))
    return g


def exact_det(m):
    """Determinant of a square matrix of Fractions by elimination."""
    m = [list(row) for row in m]
    d = Fraction(1)
    for i in range(len(m)):
        p = next((r for r in range(i, len(m)) if m[r][i]), None)
        if p is None:
            return Fraction(0)
        if p != i:
            m[i], m[p], d = m[p], m[i], -d
        d *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return d


def seeded_banks():
    """60 degree-16 num/den systems with positive residues: each is 16
    poles in U(0.05, 0.95) and 16 residues in U(0.2, 2), recombined.  The
    float roots of some of their denominators are not simple and real."""
    rng = random.Random(5)
    for _ in range(60):
        poles = [rng.uniform(0.05, 0.95) for _ in range(16)]
        residues = [rng.uniform(0.2, 2.0) for _ in range(16)]
        yield recombine(PartialFractionSystem(tuple(zip(residues, poles))))


class TestExactReplay:
    def test_seeded_bank_witnesses_replay(self):
        # Every order-2 refutation of a seeded bank names a compound sample
        # g_[j](t) = det H(t, j) (sign-adjusted for Toeplitz) that is
        # negative in exact arithmetic on the system as given.
        replayed = 0
        for rtf in seeded_banks():
            for check, sign in ((check_hankel_k, lambda j: 1),
                                (check_toeplitz_k, reversal_sign)):
                rep = check(rtf, 2)
                if rep.verdict != REFUTED:
                    continue
                j, t = rep.witness["compound-order"], rep.witness["time"]
                g = exact_samples(rtf, t + 2 * j - 2)
                value = sign(j) * exact_det(
                    [g[t + a:t + a + j] for a in range(j)])
                assert value < 0, (check.__name__, rep.witness)
                replayed += 1
        assert replayed >= 60


class TestNecessaryCoefficients:
    def test_demo_signs(self):
        assert necessary_coefficients(DEMO, 2, "hankel").ok
        check = necessary_coefficients(DEMO, 3, "hankel")
        assert not check.ok and check.index == 3

    def test_alternating_toeplitz(self):
        assert necessary_coefficients(ALTERNATING, 2, "toeplitz").ok

    def test_parallel_toeplitz_fails_at_two(self):
        check = necessary_coefficients(PARALLEL, 2, "toeplitz")
        assert not check.ok and check.index == 2


class TestRelaxation:
    def test_single_lag(self):
        b = check_relaxation(PartialFractionSystem(((1.0, 0.5),)))
        assert b == (True, True, True) and b.agree

    def test_parallel_bank(self):
        b = check_relaxation(PARALLEL, J=6, horizon=40)
        assert b.agree and b.coefficient_form

    def test_alternating_fails_all_three(self):
        b = check_relaxation(ALTERNATING, J=6, horizon=40)
        assert b == (False, False, False) and b.agree

    def test_alternating_differences_by_direct_evaluation(self):
        g = impulse_response(PARALLEL, 48)
        tail = Signal(1, g.window(1, 47))
        for j in range(7):
            d = tail if j == 0 else forward_difference(tail, j)
            assert all((-1) ** j * v >= -1e-12 for v in d.values)


class TestHankelDecompose:
    def test_demo_split(self):
        dec = hankel_decompose(DEMO, 2)
        assert dec.dominant.terms == ((0.9, 0.9), (0.5, 0.5))
        assert dec.remainder.terms == ((-0.1, 0.1),)
        assert check_hankel_total(dec.dominant).verdict == CERTIFIED

    def test_single_term_whole(self):
        dec = hankel_decompose(PartialFractionSystem(((1.0, 0.9),)), 1)
        assert dec.remainder.is_zero()

    def test_already_total_keeps_everything(self):
        pfs = PartialFractionSystem(((0.5, 0.8), (0.3, 0.5), (0.2, 0.2)))
        dec = hankel_decompose(pfs, 3)
        assert dec.dominant.terms == pfs.terms
        assert dec.remainder.is_zero()

    def test_recombination(self):
        dec = hankel_decompose(DEMO, 2)
        got = recombined_impulse(dec, 64)
        want = impulse_response(DEMO, 64)
        np.testing.assert_allclose(got.to_array(), want.to_array(),
                                   rtol=1e-9, atol=1e-15)

    def test_refuted_precondition_raises(self):
        with pytest.raises(StructuralError):
            hankel_decompose(ALTERNATING, 2)

    def test_any_representation(self):
        # Like toeplitz_decompose, it canonicalises its input: the num/den
        # and diagonal state-space twins of a bank split as their canonical
        # forms do, and a complex pair is refused as unsupported.
        bank = PartialFractionSystem(((1.0, 0.9), (0.5, 0.5), (0.2, 0.1)))
        twins = (recombine(bank),
                 StateSpace(np.diag(bank.poles), bank.residues, np.ones(3)))
        for twin in twins:
            want = hankel_decompose(canonical(twin), 2)
            assert hankel_decompose(twin, 2).dominant.terms == \
                want.dominant.terms
        rotation = StateSpace([[0.9, 0, 0], [0, 0.3824, -0.3221],
                               [0, 0.3221, 0.3824]], [1.0, 1.0, 0.5],
                              [1, 1, 1])
        with pytest.raises(UnsupportedRepresentationError,
                           match="simple real poles"):
            hankel_decompose(rotation, 2)


class TestToeplitzDecompose:
    def test_exact_remainder_coefficients(self):
        dec = toeplitz_decompose(ALTERNATING, 2)
        assert dec.factor_pole == 0.9
        rem = recombine(dec.remainder)
        assert rem.num == (1.0,)
        assert rem.den == (1.0, -0.5)

    def test_remainder_without_tail_equals_its_terms(self):
        # 1.8/(z-0.9) - 1/(z-0.5): the remainder's pulse at t=1 cancels, so
        # its tail is empty and it is the pure pole/residue system.
        dec = toeplitz_decompose(
            PartialFractionSystem(((1.8, 0.9), (-1.0, 0.5))), 1)
        pure = PartialFractionSystem(dec.remainder.terms)
        assert not len(dec.remainder.fir)
        assert dec.remainder == pure and hash(dec.remainder) == hash(pure)

    def test_momentum_open_loop_shape(self):
        # alpha z / ((z - 1)(z - beta)) with beta < 1 sheds its integrator
        # pole and leaves alpha / (z - beta).
        alpha, beta = 0.7, 0.5
        pfs = PartialFractionSystem(
            ((alpha / (1 - beta), 1.0), (-alpha / (1 - beta) * beta, beta)))
        dec = toeplitz_decompose(pfs, 2)
        assert dec.factor_pole == 1.0
        rem = recombine(dec.remainder)
        assert rem.num == pytest.approx((alpha,))
        assert rem.den == pytest.approx((1.0, -beta))

    def test_improper_first_order_rejected(self):
        with pytest.raises(ValueError):
            RationalTransferFunction((2.0, 0.0), (1.0, -0.5))

    def test_recombination(self):
        dec = toeplitz_decompose(ALTERNATING, 2)
        got = recombined_impulse(dec, 64)
        want = impulse_response(ALTERNATING, 64)
        np.testing.assert_allclose(got.to_array(), want.to_array(),
                                   rtol=1e-9, atol=1e-15)

    def test_serial_lag_with_negative_zero_round_trips(self):
        # gain (z + 0.5) / ((z-0.9)(z-0.5)): the remainder keeps a pulse
        # component at the origin.
        rtf = RationalTransferFunction((0.3, 0.15), (1.0, -1.4, 0.45))
        dec = toeplitz_decompose(rtf, 2)
        got = recombined_impulse(dec, 64)
        want = impulse_response(rtf, 64)
        np.testing.assert_allclose(got.to_array(), want.to_array(),
                                   rtol=1e-8, atol=1e-12)

    def test_zero_bound_enforced(self):
        # A certified-at-k=1 system whose zero sits above the k-th pole.
        rtf = RationalTransferFunction((1.0, -0.7), (1.0, -1.4, 0.45))
        assert check_external(rtf).verdict != REFUTED
        with pytest.raises(StructuralError):
            toeplitz_decompose(rtf, 2)


class TestTotals:
    def test_parallel_pattern_certified(self):
        assert check_hankel_total(PARALLEL).verdict == CERTIFIED

    def test_serial_pattern_certified(self):
        rtf = RationalTransferFunction((1.0, 0.0), (1.0, -1.4, 0.45))
        rep = check_toeplitz_total(rtf)
        assert rep.verdict == CERTIFIED

    def test_demo_fails_both(self):
        assert check_hankel_total(DEMO).verdict == REFUTED
        assert check_toeplitz_total(recombine(DEMO)).verdict == REFUTED

    def test_complex_poles_refute_toeplitz_total(self):
        rtf = RationalTransferFunction((1.0,), (1.0, 0.0, 0.25))
        assert check_toeplitz_total(rtf).verdict == REFUTED


class TestRepeatedPoles:
    def test_double_dominant_fails(self):
        A = np.array([[0.9, 1.0], [0.0, 0.9]])
        ss = StateSpace(A, [1.0, 1.0], [1.0, 0.0])
        assert not repeated_pole_check(ss, 2).ok

    def test_simple_diagonal_passes(self):
        ss = StateSpace(np.diag([0.9, 0.5]), [1.0, 1.0], [1.0, 1.0])
        assert repeated_pole_check(ss, 2).ok

    def test_zero_cluster(self):
        ss = StateSpace(np.diag([0.9, 0.0, 0.0]), np.ones(3), np.ones(3))
        assert repeated_pole_check(ss, 2).ok
        check = repeated_pole_check(ss, 3)
        assert not check.ok

    def test_total_needs_all_simple(self):
        ss = StateSpace(np.diag([0.9, 0.5, 0.5 + 1e-12]), np.ones(3),
                        np.ones(3))
        assert not repeated_pole_check(ss, 3).ok


class TestDiffSystem:
    def test_matches_negated_difference(self):
        for pfs in (DEMO, ALTERNATING, PartialFractionSystem(((1.0, 0.5),))):
            d = diff_system(pfs)
            g = impulse_response(pfs, 33)
            gd = impulse_response(d, 32)
            for t in range(32):
                want = -(g.value(t + 1) - g.value(t))
                assert gd.value(t) == pytest.approx(want, abs=1e-12)

    def test_integrator_residue(self):
        d = diff_system(PartialFractionSystem(((1.0, 1.0),)))
        g = impulse_response(d, 16)
        assert g.value(0) == -1.0
        assert all(g.value(t) == 0.0 for t in range(1, 17))

    def test_total_positivity_preserved(self):
        d = diff_system(PARALLEL)
        # Windows of the differenced response stay nonnegative definite.
        g = impulse_response(d, 24)
        for j in (1, 2):
            c = compound_impulse(g, j, 10)
            assert all(v >= -1e-12 for v in c.values)


class TestReportRendering:
    def test_stable_and_deterministic(self):
        rep = check_hankel_k(DEMO, 2)
        a = render_report(rep)
        b = render_report(check_hankel_k(DEMO, 2))
        assert a == b
        assert a.splitlines()[0] == "property: hankel-k"
        assert "verdict: certified" in a

    def test_witness_block(self):
        rep = check_toeplitz_k(DEMO, 2)
        text = render_report(rep)
        assert "witness:" in text
        assert "compound-order: 2" in text


class TestConvexConeClosure:
    def test_sum_of_certified_stays_good(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            poles = np.sort(rng.uniform(0.05, 0.95, size=2 * n + 1))
            a = PartialFractionSystem(tuple(
                (float(rng.uniform(0.2, 1.0)), float(p))
                for p in poles[0::2]))
            b = PartialFractionSystem(tuple(
                (float(rng.uniform(0.2, 1.0)), float(p))
                for p in poles[1::2]))
            assert check_hankel_k(a, min(2, len(a.terms))).verdict == \
                CERTIFIED
            merged = PartialFractionSystem(a.terms + b.terms)
            rep = check_hankel_k(merged, 2)
            assert rep.verdict in (CERTIFIED, HOLDS)


def exact_sample(pfs: PartialFractionSystem, t: int) -> Fraction:
    """g(t) = sum r p^(t-1) in exact arithmetic on the stored doubles."""
    return sum(Fraction(r) * Fraction(p) ** (t - 1) for r, p in pfs.terms)


class TestRarePaths:
    """Verdict paths that the rest of the suite does not reach."""

    def test_witness_search_past_the_horizon(self):
        # A negative dominant pole whose residue is 1000 times smaller:
        # the first negative sample lies past the default horizon.
        pfs = PartialFractionSystem(((1.0, 0.9), (1e-3, -0.95)))
        rep = check_external(pfs)
        assert rep.verdict == REFUTED
        assert rep.witness["kind"] == "dominant-structure"
        assert rep.witness["reason"] == "dominant pole negative"
        assert rep.witness["time"] == 130 > DEFAULT_HORIZON
        assert rep.witness["value"] == -8.658190096414746e-08
        assert exact_sample(pfs, 130) < 0
        assert all(exact_sample(pfs, t) >= 0 for t in range(1, 130))

    def test_t0_found_by_resampling(self):
        # g(1) = 1 - 1 = 0 exactly, so t0 is 2, past the one sample the
        # order-1 check reads.
        pfs = PartialFractionSystem(((1.0, 0.9), (-1.0, 0.5)))
        assert impulse_response(pfs, 2).values == (0.0, 0.0, 0.4)
        rep = check_hankel_k(pfs, 1)
        assert rep.verdict == CERTIFIED
        assert rep.t0 == 2

    @pytest.mark.parametrize("k", [1, 2])
    def test_first_sample_overflow_is_reraised(self, k):
        # g(1) = 1e308 + 1e308 leaves the doubles: there is no finite
        # sample past g(0) to fall back on.
        pfs = PartialFractionSystem(((1e308, 10.0), (1e308, -5.0)))
        with pytest.raises(BudgetExceededError) as info:
            check_hankel_k(pfs, k)
        assert info.value.time == 1


class TestStructuralWitnesses:
    def test_hankel_total_negative_pole(self):
        rep = check_hankel_total(PartialFractionSystem(((1.0, -0.5),)))
        assert rep.verdict == REFUTED
        assert rep.witness == {"kind": "negative-pole", "index": 1,
                               "pole": -0.5}

    def test_toeplitz_total_negative_pole(self):
        rep = check_toeplitz_total(RationalTransferFunction((1.0,),
                                                            (1.0, 0.5)))
        assert rep.verdict == REFUTED
        assert rep.witness == {"kind": "negative-pole", "pole": -0.5}

    def test_toeplitz_total_complex_zero(self):
        # The zeros of z^2 + 1 are +-i.
        rep = check_toeplitz_total(RationalTransferFunction(
            (1.0, 0.0, 1.0), tuple(np.poly([0.9, 0.5, 0.2]))))
        assert rep.verdict == REFUTED
        assert rep.witness["kind"] == "complex-zero"
        assert abs(complex(rep.witness["zero"]).imag) == pytest.approx(1.0)

    def test_toeplitz_decompose_pole_at_zero(self):
        # The pole-at-zero term is the pulse 0.5 at t = 1; filtering by
        # (z - 0.9)/z leaves 1 + 0.5 at t = 1 and -0.9 * 0.5 at t = 2.
        dec = toeplitz_decompose(
            PartialFractionSystem(((1.0, 0.9), (0.5, 0.0))), 1)
        assert dec.remainder == PartialFractionSystem(
            (), Signal(1, (1.5, -0.45)))
        assert dec.factor_pole == 0.9
