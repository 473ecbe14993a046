"""``check_external`` issues its tail-dominance certificate first and
otherwise searches for a negative sample, with no zero test in between.

Serial cascades given as num/den or as a companion state space are
certified as their pole/residue form is, the witness search stays within
the doubles on unstable systems, and every certificate that the order of
the two steps newly issues passes the brute-force oracle.

The scan up to the horizon also stops at the last sample that is a finite
double.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vardim.positivity
from test_cli_golden import SYSTEMS
from vardim.errors import UnsupportedRepresentationError
from vardim.lti import PartialFractionSystem, RationalTransferFunction
from vardim.oracle import ovd_verify
from vardim.positivity import (CERTIFIED, HOLDS, REFUTED, PositivityReport,
                               check_external, check_hankel_k,
                               check_toeplitz_k)
from vardim.sysfile import parse_system


class TestUnstableWitnessSearch:
    def test_strictly_dominant_unstable_system_holds(self):
        # Tail dominance starts past the horizon, and the search stops
        # before 1.5^t leaves the doubles.
        rep = check_external(PartialFractionSystem(((1.0, 1.5),
                                                    (5.0, 1.49))))
        assert rep.verdict == HOLDS

    def test_unstable_compound_certified(self):
        pfs = PartialFractionSystem(((1.0, 2.0), (-1.0, 1.0), (-1.0, 0.6),
                                     (1.0, -0.4)))
        # Both compounds earn tail-dominance certificates, so no witness
        # search runs over powers of the pole product 2.
        assert check_toeplitz_k(pfs, 2).verdict == CERTIFIED
        for length in (6, 9):
            assert ovd_verify(pfs, "toeplitz", 2, length, length).passed

    def test_scan_to_the_horizon_stays_finite(self):
        # 1e10^t leaves the doubles at t = 31, inside the horizon 64.
        big = ((1.0, 1e10),)
        for terms in (big, big + ((0.5, 0.3),), big + ((-0.5, 1e9),)):
            rep = check_external(PartialFractionSystem(terms))
            assert rep.verdict == CERTIFIED and rep.t0 == 1
        mixed = PartialFractionSystem(big + ((-0.5, 1e9),))
        assert check_toeplitz_k(mixed, 2).verdict == CERTIFIED
        # Serial-lag totally positive (gain 0.5, zero -8e9); the order-2
        # window at t0 = 1 is g(1)^2 and is not tested.
        assert check_toeplitz_k(mixed, 3).verdict == CERTIFIED
        # g(1) = 0, and g(2) is already beyond the last finite sample
        # bound: no sample was seen, so nothing is certified.
        cut = PartialFractionSystem(((1.0, 1e200), (-1.0, 2.0)))
        for rep in (check_external(cut), check_toeplitz_k(cut, 1)):
            assert rep.verdict == HOLDS and rep.t0 is None

    def test_hankel_windows_stay_finite(self):
        # The windows and t0 read no sample past the last finite one, and
        # t0 is taken at the zero level of check_external, not at 1e-12
        # times the largest sample, which would put it at t = 28.
        mixed = PartialFractionSystem(((1.0, 1e10), (-0.5, 1e9)))
        first, second = check_hankel_k(mixed, 1), check_hankel_k(mixed, 2)
        assert (first.verdict, first.t0) == (CERTIFIED, 1)
        assert (second.verdict, second.t0) == (REFUTED, 1)

    def test_toeplitz_t0_is_the_first_nonzero_sample(self):
        pfs = PartialFractionSystem(((1.0, 2.0), (-1.0, 1.0), (-1.0, 0.6),
                                     (1.0, -0.4)))
        rep = check_toeplitz_k(pfs, 2)
        assert rep.t0 == rep.details[0].t0 == 3

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-2.0, 2.0), st.one_of(
        st.floats(-3.0, 3.0), st.sampled_from((2.0, -2.0, 1.5, -1.5, 1.49)))),
        min_size=1, max_size=4, unique_by=lambda rp: rp[1]))
    @example([(1.0, 1.5), (1.0, -1.5)])
    def test_search_never_overflows(self, terms):
        # Tied or nearly tied magnitudes above 1 leave the check without a
        # certificate, so the search runs until its bound.
        try:
            pfs = PartialFractionSystem(tuple(terms))
        except UnsupportedRepresentationError:
            return
        assert isinstance(check_external(pfs), PositivityReport)


def lag_cascade(n: int) -> RationalTransferFunction:
    """n lags with poles evenly spaced from 0.95 to 0.05 and zeros at
    -0.5, -0.25, ... in num/den form."""
    poles = [0.95 - i * 0.9 / (n - 1) for i in range(n)]
    zeros = [-0.5 / 2 ** i for i in range(n // 2)]
    return RationalTransferFunction(tuple(np.poly(zeros).tolist()),
                                    tuple(np.poly(poles).tolist()))


@pytest.mark.parametrize("n", range(3, 13))
def test_num_den_cascade_needs_no_recombination(n, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("check_external recombined a system")

    monkeypatch.setattr(vardim.positivity, "recombine", fail)
    for k in (1, 2, n):
        assert isinstance(check_toeplitz_k(lag_cascade(n), k),
                          PositivityReport)


@pytest.mark.parametrize("name", ["cascade-pfs", "cascade-rtf", "cascade-ss",
                                  "cascade8-pfs"])
def test_cascade_certificates_pass_the_oracle(name):
    system = parse_system(SYSTEMS[name])
    n = 8 if name.startswith("cascade8") else 3
    reports = [(1, check_external(system))] + [
        (k, check_toeplitz_k(system, k)) for k in range(1, min(n, 4) + 1)]
    certified = [k for k, rep in reports if rep.verdict == CERTIFIED]
    assert certified
    for k in certified:
        assert ovd_verify(system, "toeplitz", k, 8, 12).passed
