"""Exact root counts and the serial-lag test on num/den inputs.

``exact.sturm_count`` and ``exact.squarefree`` are checked on hand-made
integer polynomials.  ``exact.serial_lag`` must give the counts that
``sturm_count`` and ``squarefree`` give, whatever float roots it is
handed, and decides a cascade of simple lags without a Sturm sequence.
``check_toeplitz_k`` decides a num/den serial cascade
from its coefficients before any compound is built: it certifies every
construction with positive gain, distinct poles in (0, 1) and zeros at or
below 0, refutes a negative one at its first sample, and hands every other
num/den input to the compound ladder unchanged.
"""

import itertools
import math
import random
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vardim import exact, positivity
from vardim.exact import (SerialLag, integer_poly, serial_lag, squarefree,
                          sturm_count)
from vardim.lti import RationalTransferFunction, canonical
from vardim.oracle import ovd_verify
from vardim.positivity import (CERTIFIED, REFUTED, check_toeplitz_k,
                               check_toeplitz_total)

INF = math.inf


def int_poly(roots, extra=(1,)) -> list:
    """Integer polynomial with the given integer roots, times ``extra``."""
    p = list(extra)
    for r in roots:
        p = [a - r * b for a, b in itertools.zip_longest(p + [0], [0] + p,
                                                         fillvalue=0)]
    return p


class TestHandPolynomials:
    def test_root_at_an_interval_end(self):
        p = int_poly((-1, 1))  # x^2 - 1
        assert p == [1, 0, -1]
        assert sturm_count(p, -1, 1) == 1  # (-1, 1] holds 1, not -1
        assert sturm_count(p, -2, 1) == 2
        assert sturm_count(p, -1, 2) == 1
        assert sturm_count(p, -INF, INF) == 2

    def test_double_root(self):
        p = int_poly((2, 2, -3))
        assert squarefree(p) == int_poly((2, -3))
        assert sturm_count(p, 1, 2) == 1
        assert sturm_count(p, 2, INF) == 0
        assert sturm_count(p, -INF, INF) == 2

    def test_zero_at_the_origin(self):
        p = int_poly((0, 0, -1))  # x^3 + x^2
        assert squarefree(p) == [1, 1, 0]
        assert sturm_count(p, -INF, 0) == 2
        assert sturm_count(p, 0, INF) == 0
        assert sturm_count(p, -1, 0) == 1

    def test_complex_roots_are_not_counted(self):
        p = int_poly((3,), extra=(1, 0, 1))  # (x^2 + 1)(x - 3)
        assert sturm_count(p, -INF, INF) == 1
        assert squarefree(p) == p

    def test_float_endpoints_are_exact(self):
        # The root 3 + 2**-60 is above 3.0, which float Horner cannot see.
        p = [2**60, -(3 * 2**60 + 1)]
        assert sturm_count(p, 3.0, 4.0) == sturm_count(p, 3, 4) == 1
        assert sturm_count(p, 2.0, 3.0) == sturm_count(p, 2, 3) == 0

    def test_integer_form_is_a_positive_multiple(self):
        assert integer_poly((0.0, -0.5, 0.25, 3.0)) == [-2, 1, 12]
        assert integer_poly((1e-300, 1.0))[0] > 0
        with pytest.raises(ValueError):
            integer_poly((1.0, math.inf))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-6, 6), max_size=8),
           st.sampled_from(((1,), (-2,), (1, 0, 1), (3, 2, 5))),
           st.integers(-7, 6), st.integers(1, 8))
    def test_counts_match_the_roots(self, roots, extra, lo, width):
        p = int_poly(roots, extra)
        hi = lo + width
        assert sturm_count(p, lo, hi) == len({r for r in roots
                                              if lo < r <= hi})
        assert sturm_count(p, -INF, INF) == len(set(roots))
        assert len(squarefree(p)) - 1 == len(set(roots)) + len(extra) - 1


@st.composite
def serial_lags(draw, max_n=16):
    """Poles on the grid i/20 in (0, 1), each moved by at most 0.01, zeros
    on the grid -i/10 (0 included), gain in [0.1, 10], as np.poly
    coefficients."""
    n = draw(st.integers(1, max_n))
    bins = draw(st.lists(st.integers(1, 19), min_size=n, max_size=n,
                         unique=True))
    poles = [b / 20 + draw(st.floats(-0.01, 0.01)) for b in bins]
    zbins = draw(st.lists(st.integers(0, 20), max_size=n - 1, unique=True))
    zeros = [-b / 10 for b in zbins]
    gain = draw(st.floats(0.1, 10.0))
    return poles, zeros, gain


def rtf(poles, zeros, gain) -> RationalTransferFunction:
    num = gain * np.atleast_1d(np.poly(zeros))
    return RationalTransferFunction(tuple(num), tuple(np.real(np.poly(poles))))


@st.composite
def lag_systems(draw):
    """``serial_lags`` as drawn, or broken by a complex pole pair, a
    positive zero, one or all poles negated, a repeated pole, or two poles
    1e-12 apart."""
    poles, zeros, gain = draw(serial_lags())
    how = draw(st.sampled_from(("as-drawn", "complex-pair", "positive-zero",
                                "negative-pole", "negated",
                                "repeated-pole", "clustered")))
    if how == "complex-pair":
        rho, theta = draw(st.floats(0.1, 0.9)), draw(st.floats(0.3, 2.8))
        poles = poles[1:] + [rho * complex(math.cos(theta), math.sin(theta)),
                             rho * complex(math.cos(theta), -math.sin(theta))]
    elif how == "positive-zero":
        zeros = zeros + [(2 * draw(st.integers(0, 18)) + 1) / 40]
        poles = poles + [0.975]
    elif how == "negative-pole":
        poles = poles + [-0.975]
    elif how == "negated":  # no zeros: none can meet a pole
        poles, zeros = [-p for p in poles], []
    elif how == "repeated-pole":
        poles = poles + [poles[0]]
    elif how == "clustered":
        poles = poles + [poles[0] + 1e-12]
    return rtf(poles, zeros[:len(poles) - 1], gain)


def sturm_lag(system) -> SerialLag:
    """``serial_lag`` of ``system`` from ``sturm_count`` and
    ``squarefree`` alone."""
    n, d = integer_poly(system.num), integer_poly(system.den)
    return SerialLag(
        gain=1 if (n[0] > 0) == (d[0] > 0) else -1,
        poles=sturm_count(d, 0, INF) + (d[-1] == 0),
        distinct_poles=len(squarefree(d)) - 1, den_degree=len(d) - 1,
        zeros=sturm_count(n, -INF, 0), distinct_zeros=len(squarefree(n)) - 1,
        num_degree=len(n) - 1)


def wrong_roots(roots, how: str, rng: random.Random) -> tuple:
    """``roots`` shuffled, shifted by 0.3, with one NaN, or one short."""
    roots = list(roots)
    if how == "shuffled":
        rng.shuffle(roots)
    elif how == "shifted":
        roots = [r + 0.3 for r in roots]
    elif how == "nan" and roots:
        roots[rng.randrange(len(roots))] = complex(math.nan, 0.0)
    elif how == "too-few":
        roots = roots[1:]
    return tuple(roots)


def grid_ks(n: int) -> list:
    return sorted({2, n // 2, n} & set(range(1, n + 2)))


class TestSerialLagCounts:
    @settings(max_examples=300, deadline=None)
    @given(lag_systems())
    def test_counts_match_sturm(self, system):
        assert serial_lag(system) == sturm_lag(system)

    @settings(max_examples=200, deadline=None)
    @given(lag_systems(),
           st.sampled_from(("shuffled", "shifted", "nan", "too-few")),
           st.randoms(use_true_random=False))
    def test_float_roots_decide_nothing(self, system, how, rng):
        stand_in = SimpleNamespace(
            num=system.num, den=system.den,
            poles=wrong_roots(system.poles, how, rng),
            zeros=wrong_roots(system.zeros, how, rng))
        assert serial_lag(stand_in) == serial_lag(system)

    def test_cascade_takes_no_sturm_sequence(self):
        system = rtf([0.95 - 0.06 * i for i in range(16)],
                     [-0.1 * (i + 1) for i in range(8)], 1.0)
        with mock.patch.object(exact, "_sturm", wraps=exact._sturm) as sturm:
            reps = [check_toeplitz_k(system, k) for k in (8, 16)]
        assert sturm.call_count == 0
        assert {rep.verdict for rep in reps} == {CERTIFIED}


class TestSerialLagFastPath:
    @settings(max_examples=60, deadline=None)
    @given(serial_lags())
    def test_constructions_are_certified(self, case):
        system = rtf(*case)
        for k in grid_ks(len(case[0])):
            rep = check_toeplitz_k(system, k)
            assert rep.verdict == CERTIFIED, (k, rep)
            assert rep.t0 == len(case[0]) - len(case[1])
            assert rep.details == ()

    @settings(max_examples=40, deadline=None)
    @given(serial_lags(), st.sampled_from(("positive-zero", "complex-pair")),
           st.data())
    def test_broken_constructions_match_the_ladder(self, case, how, data):
        poles, zeros, gain = case
        if how == "positive-zero":
            # Halfway between two pole bins, so no pole cancels it.
            zeros = zeros + [(2 * data.draw(st.integers(0, 18)) + 1) / 40]
            if len(zeros) >= len(poles):
                poles = poles + [0.975]
        else:
            rho = data.draw(st.floats(0.1, 0.9))
            theta = data.draw(st.floats(0.3, 2.8))
            poles = poles[2:] + [rho * complex(math.cos(theta),
                                               math.sin(theta)),
                                 rho * complex(math.cos(theta),
                                               -math.sin(theta))]
            zeros = zeros[:len(poles) - 1]
        system = rtf(poles, zeros, gain)
        assert not serial_lag(system).holds
        k = data.draw(st.sampled_from(grid_ks(len(poles))))
        assert (repr(check_toeplitz_k(system, k))
                == repr(check_toeplitz_k(canonical(system), k)))

    @settings(max_examples=20, deadline=None)
    @given(serial_lags(max_n=4))
    def test_certified_passes_the_oracle(self, case):
        system = rtf(*case)
        for k in range(1, len(case[0]) + 2):
            assert check_toeplitz_k(system, k).verdict == CERTIFIED
            assert ovd_verify(system, "toeplitz", k, 7, 10).passed, k

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_no_compound_is_built(self, sign):
        poles = [0.9 - 0.05 * i for i in range(16)]
        zeros = [-0.1 * (i + 1) for i in range(8)]
        system = rtf(poles, zeros, sign)
        with mock.patch.object(positivity, "compound_transfer") as transfer, \
                mock.patch.object(positivity, "compound_impulse") as sampled:
            reps = [check_toeplitz_k(system, k) for k in (2, 8, 16)]
        assert transfer.call_count == sampled.call_count == 0
        assert {rep.verdict for rep in reps} == {
            CERTIFIED if sign > 0 else REFUTED}

    def test_negative_numerator_refutes_at_its_first_sample(self):
        system = rtf([0.8, 0.5, 0.2], [-0.4], -1.5)
        rep = check_toeplitz_k(system, 3)
        assert rep.verdict == REFUTED and rep.t0 == 2
        assert rep.witness == {"kind": "negative-sample", "time": 2,
                               "value": -1.5, "compound-order": 1}
        assert [(sub.verdict, sub.k) for sub in rep.details] == [(REFUTED, 1)]
        assert rep.details[0].witness["value"] == -1.5

    def test_noise_lead_goes_to_the_ladder(self):
        # A num/den form written from a recombined cascade: the leading
        # numerator coefficient is rounding noise of a cancelled term.
        system = RationalTransferFunction(
            (-4.218847493575595e-15, 1.0000000000000027, 0.825986671312231,
             0.14421066295021462),
            (1.0, -1.9999999999999998, 1.275, -0.275, 0.010806250000000007))
        rep = check_toeplitz_k(system, 2)
        assert repr(rep) == repr(check_toeplitz_k(canonical(system), 2))
        assert rep.verdict == CERTIFIED and len(rep.details) == 2

    def test_pole_at_zero_and_high_order_go_to_the_ladder(self):
        at_zero = rtf([0.8, 0.5, 0.0], [-0.4], 1.0)
        assert check_toeplitz_k(at_zero, 3) == check_toeplitz_k(
            canonical(at_zero), 3)
        lag = rtf([0.8, 0.5], [], 1.0)
        assert check_toeplitz_k(lag, 4) == check_toeplitz_k(canonical(lag), 4)

    def test_n16_cascade_is_decided_in_milliseconds(self):
        # About 0.1 ms on a 2-CPU x86-64 host, against 23-40 ms for the
        # compound ladder; the bound leaves room for a slow or busy host.
        system = rtf([0.95 - 0.06 * i for i in range(16)],
                     [-0.1 * (i + 1) for i in range(8)], 1.0)
        for k in (8, 16):
            best = INF
            for _ in range(5):
                start = time.perf_counter()
                rep = check_toeplitz_k(system, k)
                best = min(best, time.perf_counter() - start)
            assert rep.verdict == CERTIFIED and best < 0.01


class TestToeplitzTotal:
    def test_root_count_witness_below_the_float_zero_level(self):
        # A zero at 1e-14 is below the float test's zero level; the exact
        # count places it in (0, inf).
        system = RationalTransferFunction((1.0, -1e-14), (1.0, -1.3, 0.4))
        rep = check_toeplitz_total(system)
        assert rep.verdict == REFUTED
        assert rep.witness == {"kind": "root-count",
                               "polynomial": "squarefree(num)",
                               "interval": "(-inf, 0]", "count": 0,
                               "degree": 1}

    def test_float_witness_kept(self):
        system = RationalTransferFunction((1.0, -0.7), (1.0, -1.4, 0.45))
        assert check_toeplitz_total(system).witness == {
            "kind": "positive-real-zero", "zero": pytest.approx(0.7)}

    def test_repeated_pole_cascade_certified(self):
        # (z - 0.5)^2: two equal lags in series are totally positive.
        system = RationalTransferFunction((1.0,), (1.0, -1.0, 0.25))
        with mock.patch.object(exact, "_sturm", wraps=exact._sturm) as sturm:
            lag = serial_lag(system)
            assert check_toeplitz_total(system).verdict == CERTIFIED
        assert lag.holds and not lag.simple
        # No sign change shows a double pole: D's count is Sturm's.
        assert [4, -4, 1] in [c.args[0] for c in sturm.call_args_list]
