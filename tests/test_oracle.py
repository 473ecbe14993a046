import itertools
import pickle
import tracemalloc

import numpy as np
import pytest

from reference import apply_nonlinearity, neuronal_condition
from vardim import oracle
from vardim.cli import main
from vardim.errors import BudgetExceededError
from vardim.lti import (PartialFractionSystem, RationalTransferFunction,
                        impulse_response)
from vardim.oracle import (DEFAULT_SEED, DEMO_FUTURE_GROWTH,
                           DEMO_PAST_DIMINISH, DEMO_PAST_ORDER_FLIP,
                           ENUM_CAP, OVD_BLOCK, OvdReport, OvdViolation,
                           _impulse_for, _lattice_candidates, apply_hankel,
                           apply_toeplitz, demo_system, hankel_truncation,
                           heavy_ball, ovd_matrix, ovd_verify, run_scenario,
                           toeplitz_truncation)
from vardim.positivity import (CERTIFIED, REFUTED, check_hankel_k,
                               check_toeplitz_k)
from vardim.signals import (Signal, first_nonzero_sign, forward_difference,
                            variation)
from vardim.sysfile import serialize_system
from vardim.totpos import matrix_rank

DEMO = demo_system()


def scalar_ovd_matrix(X, k, alphabet=(-1, 0, 1), samples=0,
                      seed=DEFAULT_SEED, extra_inputs=(), zero_tol=1e-12,
                      stop_at=None):
    """Reference: ``ovd_matrix`` one candidate at a time, through the
    scalar ``variation`` and ``first_nonzero_sign``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    input_length = X.shape[1]
    alpha = sorted(set(float(a) for a in alphabet))
    if len(alpha) ** input_length > ENUM_CAP:
        raise BudgetExceededError("lattice too large")
    rank = matrix_rank(X)
    eff_tol = zero_tol * float(np.abs(X).max(initial=1.0))

    def candidates():
        for u in extra_inputs:
            yield tuple(float(v) for v in u)
        for u in itertools.product(alpha, repeat=input_length):
            yield u
        if samples:
            rng = np.random.default_rng(seed)
            for _ in range(samples):
                yield tuple(rng.uniform(-1.0, 1.0,
                                        size=input_length).tolist())

    violations = []
    checked = 0
    for u in candidates():
        su = variation(u, zero_tol)
        if su > k - 1:
            continue
        uv = np.zeros(input_length)
        uv[:len(u)] = u[:input_length]
        if not np.any(np.abs(uv) > zero_tol):
            continue
        checked += 1
        y = X @ uv
        sy = variation(y, eff_tol)
        if sy > su:
            violations.append(OvdViolation("variation", u, tuple(y), su, sy))
        elif sy == su:
            fy = first_nonzero_sign(y, eff_tol)
            if fy != 0 and fy != first_nonzero_sign(u, zero_tol):
                violations.append(OvdViolation("order", u, tuple(y), su, sy))
        if stop_at is not None and len(violations) >= stop_at:
            break
    return OvdReport(not violations, tuple(violations), checked, rank)


def scalar_ovd_verify(sys, kind, k, input_length, output_length, **kw):
    """Reference: ``ovd_verify`` through ``scalar_ovd_matrix``."""
    g = _impulse_for(sys, kind, input_length, output_length)
    build = hankel_truncation if kind == "hankel" else toeplitz_truncation
    return scalar_ovd_matrix(build(g, input_length, output_length), k, **kw)


def assert_same_report(got, want):
    """Equal reports, with inputs and outputs equal bit for bit."""
    assert got == want
    for a, b in zip(got.violations, want.violations):
        for x, y in ((a.input, b.input), (a.output, b.output)):
            assert np.array(x).tobytes() == np.array(y).tobytes()


def lag_bank(n):
    poles = np.linspace(0.9, 0.1, n)
    return PartialFractionSystem(tuple(zip(np.linspace(1.0, 0.3, n), poles)))


def lag_cascade(n):
    poles = np.linspace(0.9, 0.1, n)
    zeros = -np.linspace(0.2, 0.6, n // 2)
    return RationalTransferFunction(tuple(np.atleast_1d(np.poly(zeros))),
                                    tuple(np.poly(poles)))


SYSTEMS = [DEMO, DEMO.scaled(-1.0)] + [build(n)
                                      for build in (lag_bank, lag_cascade)
                                      for n in (2, 3, 4)]

# A positive bank whose Toeplitz operator at k=3 violates on about 1 400
# inputs of the 3^9 lattice, in every one of its five candidate blocks.
POSITIVE_BANK3 = PartialFractionSystem(((0.7, 0.95), (0.4, 0.5), (0.9, 0.05)))
LATTICE_ARGS = (POSITIVE_BANK3, "toeplitz", 3, 9, 10)


class TestApplyHankel:
    def test_diminishing_demo_vector(self):
        g = impulse_response(DEMO, 16)
        y = apply_hankel(g, DEMO_PAST_DIMINISH, 8)
        assert y.value(0) == pytest.approx(-9.2, abs=1e-12)
        assert variation(y) == 0

    def test_first_order_lag_never_varies(self):
        g = impulse_response(PartialFractionSystem(((0.8, 0.7),)), 24)
        rng = np.random.default_rng(1)
        for _ in range(20):
            past = rng.uniform(-1, 1, size=5)
            y = apply_hankel(g, past, 12)
            assert variation(y) == 0

    def test_order_flip_demo_vector(self):
        g = impulse_response(DEMO, 16)
        y = apply_hankel(g, DEMO_PAST_ORDER_FLIP, 8)
        assert y.value(0) == pytest.approx(-0.1309, abs=1e-9)
        assert variation(y) == 2
        assert first_nonzero_sign(y) != first_nonzero_sign(
            DEMO_PAST_ORDER_FLIP)

    def test_signal_input_on_negative_times(self):
        g = impulse_response(DEMO, 16)
        past = Signal(-2, (-10.0, 1.0))  # u(-2) = -10, u(-1) = 1
        y = apply_hankel(g, past, 4)
        assert y.value(0) == pytest.approx(-9.2, abs=1e-12)

    def test_truncation_matches_window(self):
        g = impulse_response(DEMO, 20)
        trunc = hankel_truncation(g, 4, 6)
        for t in range(6):
            for tau in range(1, 5):
                assert trunc[t, tau - 1] == g.value(t + tau)


def loop_hankel(g, input_length, output_length):
    """Reference: the Hankel truncation entry by entry through ``g.value``."""
    m = np.empty((output_length, input_length))
    for t in range(output_length):
        for tau in range(1, input_length + 1):
            m[t, tau - 1] = g.value(t + tau)
    return m


def loop_toeplitz(g, input_length, output_length):
    """Reference: the Toeplitz truncation entry by entry through
    ``g.value``; entries above the diagonal stay 0."""
    m = np.zeros((output_length, input_length))
    for t in range(output_length):
        for tau in range(min(t + 1, input_length)):
            m[t, tau] = g.value(t - tau)
    return m


TRUNCATION_SIGNALS = [
    impulse_response(DEMO, 30),
    Signal(0, ()),
    Signal(3, ()),
    Signal(2, (0.5, -0.0, -1.25, 3e-300)),   # support starts at t=2
    Signal(-3, (7.0, -2.0, 0.25, -0.0, 1.5, -4.0)),   # also t < 0
    Signal(0, (1.0, -0.5)),                  # an FIR shorter than a window
    Signal(-1, (-1e308, 5e-324)),
]


class TestSlicedTruncations:
    @pytest.mark.parametrize("signal", range(len(TRUNCATION_SIGNALS)))
    @pytest.mark.parametrize("input_length,output_length", [
        (0, 0), (0, 1), (1, 0), (1, 1), (9, 10), (10, 9), (3, 12)])
    def test_bitwise_equal_to_loops(self, signal, input_length,
                                    output_length):
        g = TRUNCATION_SIGNALS[signal]
        for build, loop in ((hankel_truncation, loop_hankel),
                            (toeplitz_truncation, loop_toeplitz)):
            got = build(g, input_length, output_length)
            want = loop(g, input_length, output_length)
            assert not got.flags.writeable
            assert got.shape == want.shape == (output_length, input_length)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), build.__name__


class TestApplyToeplitz:
    def test_growth_demo_vector(self):
        g = impulse_response(DEMO, 16)
        y = apply_toeplitz(g, DEMO_FUTURE_GROWTH, 8)
        assert y.value(1) == pytest.approx(13.0, abs=1e-12)
        assert variation(y) == 2

    def test_pulse_reproduces_kernel(self):
        g = impulse_response(DEMO, 16)
        y = apply_toeplitz(g, (1.0,), 10)
        for t in range(10):
            assert y.value(t) == g.value(t)

    def test_first_order_lattice_diminishes(self):
        g = impulse_response(PartialFractionSystem(((0.8, 0.7),)), 24)
        rep = ovd_verify(PartialFractionSystem(((0.8, 0.7),)), "toeplitz",
                         3, 5, 12)
        assert rep.passed

    def test_lower_triangular_structure(self):
        g = impulse_response(DEMO, 12)
        trunc = toeplitz_truncation(g, 4, 6)
        assert trunc[0, 1] == 0.0
        assert trunc[3, 1] == g.value(2)


class TestOvdVerify:
    def test_parallel_bank_passes(self):
        rep = ovd_verify(PartialFractionSystem(((1.0, 0.9), (1.0, 0.5))),
                         "hankel", 2, 6, 12)
        assert rep.passed
        assert rep.inputs_checked > 0

    def test_demo_toeplitz_counterexample(self):
        rep = ovd_verify(DEMO, "toeplitz", 2, 6, 12,
                         extra_inputs=[DEMO_FUTURE_GROWTH])
        assert not rep.passed
        first = rep.counterexample
        assert first.kind == "variation"
        assert first.input[:2] == DEMO_FUTURE_GROWTH

    def test_demo_hankel_order_counterexample(self):
        rep = ovd_verify(DEMO, "hankel", 3, 6, 12,
                         extra_inputs=[DEMO_PAST_ORDER_FLIP])
        assert not rep.passed
        first = rep.counterexample
        assert first.kind == "order"
        assert first.input_variation == first.output_variation == 2

    def test_order_violations_reported_separately(self):
        rep = ovd_verify(DEMO, "hankel", 3, 6, 12,
                         extra_inputs=[DEMO_PAST_ORDER_FLIP])
        assert rep.order_violations
        assert rep.passed_variation_only or rep.variation_violations

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            ovd_verify(DEMO, "hankel", 2, 12, 8,
                       alphabet=(-2, -1, 0, 1, 2))
        with pytest.raises(BudgetExceededError):
            ovd_matrix(np.eye(10), 2)

    def test_random_sampling_is_seeded(self):
        a = ovd_verify(DEMO, "hankel", 2, 4, 8, samples=50, seed=0xABC)
        b = ovd_verify(DEMO, "hankel", 2, 4, 8, samples=50, seed=0xABC)
        assert a.inputs_checked == b.inputs_checked
        assert a.passed == b.passed

    def test_extra_longer_than_input_rejected(self):
        # Scored on all four samples, only two of which would be applied.
        with pytest.raises(ValueError):
            ovd_verify(DEMO, "toeplitz", 2, 2, 6,
                       extra_inputs=[(1, -1, 1, -1)])

    def test_negative_samples_draw_nothing(self):
        assert_same_report(ovd_verify(DEMO, "hankel", 2, 4, 8, samples=-3),
                           ovd_verify(DEMO, "hankel", 2, 4, 8))

    def test_order_below_one_rejected(self):
        for k in (0, -1):
            with pytest.raises(ValueError):
                ovd_verify(DEMO, "hankel", k, 4, 8)

    def test_empty_output_window_rejected(self):
        for kind in ("hankel", "toeplitz"):
            for n in (0, -1):
                with pytest.raises(ValueError):
                    ovd_verify(DEMO, kind, 2, 4, n)
            # An empty input window stays valid: it checks no input.
            assert ovd_verify(DEMO, kind, 2, 0, 1).passed

    def test_empty_alphabet_checks_extras_and_samples(self):
        rep = ovd_verify(DEMO, "hankel", 2, 3, 5, alphabet=(), samples=5)
        assert rep.passed and rep.inputs_checked == 3
        U, su, fu = _lattice_candidates((), 3, 1e-12, 2)
        assert U.shape == (0, 3) and su.shape == fu.shape == (0,)


# Order 1 keeps the leading sign at a count of 0: a negative lag flips the
# sign of every nonnegative input, so it is not externally positive.
NEGATIVE_LAG = PartialFractionSystem(((-1.0, 0.5),))
# The oracle systems of acceptance criterion 7.
ORACLE_SYSTEMS = (DEMO, PartialFractionSystem(((1.0, 0.9), (1.0, 0.5),
                                               (1.0, 0.1))),
                  PartialFractionSystem(((2.25, 0.9), (-1.25, 0.5))))


class TestOrderOne:
    @pytest.mark.parametrize("kind", ["hankel", "toeplitz"])
    def test_negative_lag_refuted(self, kind):
        rep = ovd_verify(NEGATIVE_LAG, kind, 1, 4, 8)
        assert not rep.passed
        first = rep.counterexample
        assert first.kind == "order"
        assert first.input_variation == first.output_variation == 0

    @pytest.mark.parametrize("system", range(len(ORACLE_SYSTEMS)))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_refuted_checks_never_pass(self, system, sign):
        sys = ORACLE_SYSTEMS[system].scaled(sign)
        for kind, check in (("hankel", check_hankel_k),
                            ("toeplitz", check_toeplitz_k)):
            if check(sys, 1).verdict == REFUTED:
                assert not ovd_verify(sys, kind, 1, 6, 12).passed, kind


class TestOvdVerifyMatchesScalar:
    @pytest.mark.parametrize("system", range(len(SYSTEMS)))
    def test_systems(self, system):
        for kind in ("hankel", "toeplitz"):
            for k in (2, 3):
                args = (SYSTEMS[system], kind, k, 7, 9)
                assert_same_report(ovd_verify(*args, samples=40, seed=k),
                                   scalar_ovd_verify(*args, samples=40,
                                                     seed=k))

    def test_extras_and_samples_across_blocks(self):
        extras = [DEMO_FUTURE_GROWTH, DEMO_PAST_ORDER_FLIP, (0.0, 0.0),
                  (1, -1, 1, -1)]
        for kind in ("hankel", "toeplitz"):
            kw = dict(samples=2 * OVD_BLOCK + 37, seed=7,
                      extra_inputs=extras)
            assert_same_report(ovd_verify(DEMO, kind, 3, 4, 8, **kw),
                               scalar_ovd_verify(DEMO, kind, 3, 4, 8, **kw))

    def test_stop_at_mid_block(self):
        full = scalar_ovd_verify(DEMO, "toeplitz", 3, 5, 8, samples=3000)
        assert len(full.violations) > 40
        for stop_at in (-1, 0, 1, 7, 40, len(full.violations),
                        len(full.violations) + 1):
            args = (DEMO, "toeplitz", 3, 5, 8)
            kw = dict(samples=3000, stop_at=stop_at)
            assert_same_report(ovd_verify(*args, **kw),
                               scalar_ovd_verify(*args, **kw))

    @pytest.mark.parametrize("length,alphabet", [
        (0, (-1, 0, 1)), (1, (-1, 0, 1)), (1, (0,)), (5, (-1.5, 2)),
        (4, (-1, -0.0, 0.5, 1e-13))])
    def test_short_inputs_and_other_alphabets(self, length, alphabet):
        for kind in ("hankel", "toeplitz"):
            args = (DEMO, kind, 3, length, 6)
            kw = dict(alphabet=alphabet, samples=20, extra_inputs=[(1,) *
                                                                   length])
            assert_same_report(ovd_verify(*args, **kw),
                               scalar_ovd_verify(*args, **kw))


class TestOvdVerifyFullLattice:
    def test_matches_scalar(self):
        kw = dict(samples=64, seed=5, extra_inputs=[DEMO_FUTURE_GROWTH])
        got = ovd_verify(*LATTICE_ARGS, **kw)
        assert len(got.violations) > 1000
        assert_same_report(got, scalar_ovd_verify(*LATTICE_ARGS, **kw))

    def test_stop_at_in_first_middle_and_last_block(self):
        full = ovd_verify(*LATTICE_ARGS)
        U = _lattice_candidates((-1.0, 0.0, 1.0), 9, 1e-12, 3)[0]
        where = {u: i for i, u in enumerate(map(tuple, U.tolist()))}
        block = np.array([where[v.input] // OVD_BLOCK
                          for v in full.violations])
        blocks = -(-len(U) // OVD_BLOCK)
        assert blocks == 5 and set(block.tolist()) == set(range(blocks))
        for b in (0, blocks // 2, blocks - 1):
            in_b = np.flatnonzero(block == b)
            stop_at = int(in_b[len(in_b) // 2]) + 1
            got = ovd_verify(*LATTICE_ARGS, stop_at=stop_at)
            assert (got.inputs_checked - 1) // OVD_BLOCK == b
            assert_same_report(got, scalar_ovd_verify(*LATTICE_ARGS,
                                                      stop_at=stop_at))

    def test_candidate_cache_is_read_only_and_shared(self):
        key = ((-1.0, 0.0, 1.0), 9, 1e-12, 3)
        first = _lattice_candidates(*key)
        ovd_verify(*LATTICE_ARGS)
        second = _lattice_candidates(*key)
        for a, b in zip(first, second):
            assert a is b
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_candidate_cache_build_memory(self):
        # About 0.75 MB of float inputs at k=3, plus the blocks they are
        # joined from; built from scratch, the peak stays under 2 MiB.
        _lattice_candidates.cache_clear()
        tracemalloc.start()
        try:
            U, su, fu = _lattice_candidates((-1.0, 0.0, 1.0), 9, 1e-12, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert U.shape == (len(su), 9) and U.nbytes > 700_000
        assert peak < 2 << 20


# A seeded mixed-sign matrix: it violates all over every lattice below.
MIRROR_X = np.random.default_rng(18).normal(size=(10, 9))
# Sign-symmetric alphabets with the input length and k of their lattice:
# five blocks, one block of 512 candidates, three blocks.
SYMMETRIC = [((-1, 0, 1), 9, 3), ((-1, 1), 9, 9),
             ((-2, -0.5, 0.5, 2), 7, 3)]


def lattice_of(alphabet, length, k):
    key = tuple(sorted(float(a) for a in alphabet))
    return _lattice_candidates(key, length, 1e-12, k)


class TestSignMirror:
    @pytest.mark.parametrize("alphabet", [(-1, 0, 1), (-1, 1),
                                          (-2, -0.5, 0.5, 2)])
    def test_candidates_pair_up_in_product_order(self, alphabet):
        for length in range(10):
            if len(alphabet) ** length > ENUM_CAP:
                continue
            for k in (1, 2, 3, 5):
                U, su, fu = lattice_of(alphabet, length, k)
                assert len(U) % 2 == 0
                assert np.array_equal(U[::-1], -U)
                assert np.array_equal(su[::-1], su)
                assert np.array_equal(fu[::-1], -fu)

    @pytest.mark.parametrize("alphabet,length,k", SYMMETRIC)
    def test_matches_scalar_with_extras_and_samples(self, alphabet, length,
                                                    k):
        X = MIRROR_X[:, :length]
        kw = dict(alphabet=alphabet, samples=OVD_BLOCK + 5, seed=3,
                  extra_inputs=[(1.0, -2.0), (0.5,) * length])
        got = ovd_matrix(X, k, **kw)
        assert len(got.violations) > 50
        assert_same_report(got, scalar_ovd_matrix(X, k, **kw))

    @pytest.mark.parametrize("alphabet,length,k", SYMMETRIC)
    def test_stop_at_either_side_of_the_midpoint(self, alphabet, length, k):
        X = MIRROR_X[:, :length]
        U = lattice_of(alphabet, length, k)[0]
        where = {u: i for i, u in enumerate(map(tuple, U.tolist()))}
        rows = [where[v.input]
                for v in ovd_matrix(X, k, alphabet).violations]
        half = len(U) // 2
        # Violations come in pairs u, -u: as many in each half.
        first = sum(r < half for r in rows)
        assert 2 * first == len(rows) > 8
        spanning = [i for i, r in enumerate(rows)
                    if r // OVD_BLOCK == half // OVD_BLOCK]
        stops = {1, first // 2, first, first + 1, first + first // 2,
                 len(rows), spanning[0] + 1, spanning[-1] + 1}
        for stop_at in sorted(stops):
            got = ovd_matrix(X, k, alphabet, stop_at=stop_at)
            assert got.inputs_checked == rows[stop_at - 1] + 1
            assert_same_report(got, scalar_ovd_matrix(X, k, alphabet,
                                                      stop_at=stop_at))

    @pytest.mark.parametrize("alphabet", [(-1, 0, 2), (0, 1)])
    def test_asymmetric_alphabets_full_lattice(self, alphabet):
        got = ovd_matrix(MIRROR_X, 3, alphabet)
        assert len(got.violations) > 50
        assert_same_report(got, scalar_ovd_matrix(MIRROR_X, 3, alphabet))

    @pytest.mark.parametrize("alphabet,share", [((-1, 0, 1), 2),
                                                ((-1, 0, 2), 1)])
    def test_products_see_half_a_symmetric_lattice(self, monkeypatch,
                                                   alphabet, share):
        seen = [0]
        signs = oracle.output_signs

        def counting(X, U, eff_tol, *rest):
            seen[0] += len(U)
            return signs(X, U, eff_tol, *rest)
        monkeypatch.setattr(oracle, "output_signs", counting)
        rep = ovd_verify(*LATTICE_ARGS, alphabet=alphabet)
        n = len(lattice_of(alphabet, 9, 3)[0])
        assert rep.inputs_checked == n and seen[0] * share == n


# A seeded mixed-sign matrix on inputs of length 7.  At k = 7 every nonzero
# input is a candidate, so each block of samples reaches ``output_signs``
# whole: 2048 rows, then the short rest.
REUSE_X = np.random.default_rng(26).normal(size=(40, 7))
REUSE_K, REUSE_SEED = 7, 26


def violation_blocks(report, samples):
    """(source, block) of every violation: the lattice block of its
    candidate, or the sample block of its input."""
    lattice = lattice_of((-1, 0, 1), 7, REUSE_K)[0]
    drawn = np.random.default_rng(REUSE_SEED).uniform(-1.0, 1.0,
                                                      size=(samples, 7))
    where = {u: ("lattice", i // OVD_BLOCK)
             for i, u in enumerate(map(tuple, lattice.tolist()))}
    where.update({u: ("sample", i // OVD_BLOCK)
                  for i, u in enumerate(map(tuple, drawn.tolist()))})
    return [where[v.input] for v in report.violations]


class TestWorkspaceReuse:
    """One ``BlockWorkspace`` serves every block of an ``ovd_matrix`` call:
    a short block after a full one must see none of its rows, and nothing
    a report keeps may change when later blocks reuse the buffers."""

    @pytest.mark.parametrize("outputs", [1, 40])
    @pytest.mark.parametrize("samples", [OVD_BLOCK + 1,
                                         2 * OVD_BLOCK + 37])
    def test_short_block_after_full_ones(self, outputs, samples):
        X = REUSE_X[:outputs]
        kw = dict(samples=samples, seed=REUSE_SEED)
        got = ovd_matrix(X, REUSE_K, **kw)
        # The violations are read only now, after the scan.
        assert len(set(violation_blocks(got, samples))) >= 2
        assert_same_report(got, scalar_ovd_matrix(X, REUSE_K, **kw))

    def test_stop_at_in_a_short_last_block(self):
        samples = 2 * OVD_BLOCK + 37
        kw = dict(samples=samples, seed=REUSE_SEED)
        blocks = violation_blocks(ovd_matrix(REUSE_X, REUSE_K, **kw),
                                  samples)
        in_short = [i for i, b in enumerate(blocks) if b == ("sample", 2)]
        assert len(in_short) > 2
        stop_at = in_short[len(in_short) // 2] + 1
        got = ovd_matrix(REUSE_X, REUSE_K, stop_at=stop_at, **kw)
        lattice = len(lattice_of((-1, 0, 1), 7, REUSE_K)[0])
        assert 2 * OVD_BLOCK < got.inputs_checked - lattice < samples
        assert_same_report(got, scalar_ovd_matrix(REUSE_X, REUSE_K,
                                                  stop_at=stop_at, **kw))

    def test_rows_follow_the_largest_block(self):
        # A long output on a small lattice: the workspace has the rows of
        # the call's blocks, not OVD_BLOCK of them (2048 rows of the
        # product alone would take 32 MB here).
        args = (DEMO, "toeplitz", 2, 4, 2000)
        ovd_verify(*args)
        tracemalloc.start()
        try:
            ovd_verify(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


@pytest.fixture
def built(monkeypatch):
    """Counts the ``OvdViolation`` objects that ``ovd_verify`` reports
    build from here on."""
    count = [0]

    def counting(*args):
        count[0] += 1
        return OvdViolation(*args)
    monkeypatch.setattr(oracle, "OvdViolation", counting)
    return count


def assert_same_violations(got, want):
    """Equal violation tuples, with inputs and outputs equal bit for bit."""
    assert type(got) is tuple and got == want
    assert_same_report(OvdReport(False, got, 0, 0),
                       OvdReport(False, want, 0, 0))


# 1 399 violations in six blocks: the injected input's and all five
# lattice blocks' (none among the samples).
LAZY_KW = dict(samples=64, seed=5, extra_inputs=[DEMO_FUTURE_GROWTH])


class TestLazyViolations:
    def test_counts_build_nothing(self, built):
        rep = ovd_verify(*LATTICE_ARGS, **LAZY_KW)
        assert not rep.passed and rep.inputs_checked > 0
        assert len(rep.violations) > 1000 and rep.violations
        passing = ovd_verify(lag_bank(3), "hankel", 3, 9, 10)
        assert passing.passed and not passing.violations
        assert len(passing.violations) == 0
        assert passing.counterexample is None and built[0] == 0
        assert rep.counterexample is not None and built[0] == 1

    def test_items_and_slices_build_what_they_return(self, built):
        want = scalar_ovd_verify(*LATTICE_ARGS, **LAZY_KW).violations
        n = len(want)
        # [:8] spans the extras block and the first lattice block, and
        # [300:900] four lattice blocks.
        for key in (slice(None, 8), slice(0, 0), slice(n - 3, None),
                    slice(-5, -1), slice(300, 900), slice(n + 4, n + 9),
                    slice(300, 250), slice(None, None, 97),
                    slice(40, 10, -3)):
            before = built[0]
            got = ovd_verify(*LATTICE_ARGS, **LAZY_KW).violations[key]
            assert_same_violations(got, want[key])
            if key.step is None:
                assert built[0] - before == len(want[key])
        for i in (0, 1, n // 2, n - 1, -1, -n):
            before = built[0]
            got = ovd_verify(*LATTICE_ARGS, **LAZY_KW).violations[i]
            assert_same_violations((got,), (want[i],))
            assert built[0] - before == 1
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                ovd_verify(*LATTICE_ARGS, **LAZY_KW).violations[i]

    def test_full_access_builds_once(self, built):
        rep = ovd_verify(*LATTICE_ARGS, **LAZY_KW)
        want = scalar_ovd_verify(*LATTICE_ARGS, **LAZY_KW)
        assert_same_report(rep, want)
        assert built[0] == len(want.violations)
        assert repr(rep) == repr(want) and hash(rep) == hash(want)
        assert rep.violations == want.violations == rep.violations
        assert rep.violations != want.violations[1:]
        assert rep.violations[3] is rep.violations[3]
        assert_same_violations(tuple(rep.violations[-9:]),
                               want.violations[-9:])
        assert len(rep.order_violations) + len(rep.variation_violations) \
            == len(want.violations)
        assert built[0] == len(want.violations)

    def test_pickles_as_a_tuple(self):
        rep = ovd_verify(*LATTICE_ARGS, **LAZY_KW)
        back = pickle.loads(pickle.dumps(rep))
        assert type(back.violations) is tuple
        assert_same_report(back, rep)

    def test_cmd_oracle_builds_at_most_eight(self, built, tmp_path, capsys):
        path = tmp_path / "bank.sys"
        path.write_text(serialize_system(POSITIVE_BANK3))
        assert main(["oracle", "--system", str(path), "--operator",
                     "toeplitz", "--k", "3", "--input-length", "9",
                     "--horizon", "10"]) == 4
        out = capsys.readouterr().out
        assert out.count("violation: ") == 8
        assert built[0] == 8


class TestNonlinearities:
    def test_relay_preserves_variation(self):
        y = Signal(0, (1.0, -2.0, 3.0))
        out = apply_nonlinearity(y, "relay")
        assert out.values == (1.0, -1.0, 1.0)
        assert variation(out) == 2

    def test_saturation_preserves_variation(self):
        y = Signal(0, (0.5, -2.0, 3.0))
        out = apply_nonlinearity(y, "saturation")
        assert out.values == (0.5, -1.0, 1.0)
        assert variation(out) == 2

    def test_sigmoid_keeps_extrema(self):
        y = Signal(0, (0.1, 2.0, -1.0, 3.0, 0.5))
        out = apply_nonlinearity(y, "sigmoid")
        assert variation(out) == 0  # outputs all positive
        assert variation(forward_difference(out)) == variation(
            forward_difference(y))

    def test_monotone_table_with_plateau_rejected(self):
        with pytest.raises(ValueError):
            apply_nonlinearity(Signal(0, (1.0,)), "table",
                               table=[(-1, 0.0), (0, 0.5), (1, 0.5)],
                               declared="monotone")

    def test_sign_preserving_table_enforced(self):
        with pytest.raises(ValueError):
            apply_nonlinearity(Signal(0, (-1.0, 1.0)), "table",
                               table=[(-1.0, 1.0), (1.0, 2.0)],
                               declared="sign-preserving")

    def test_custom_monotone_table(self):
        y = Signal(0, (-1.0, 0.5, -0.25, 0.75))
        out = apply_nonlinearity(y, "table",
                                 table=[(-2.0, -1.0), (0.0, 0.2),
                                        (2.0, 1.4)],
                                 declared="monotone")
        assert variation(forward_difference(out)) == variation(
            forward_difference(y))


class TestScenarios:
    def test_all_three_reproduce(self):
        dim = run_scenario("hankel-diminish")
        assert (dim.input_variation, dim.output_variation) == (1, 0)
        grow = run_scenario("toeplitz-growth")
        assert (grow.input_variation, grow.output_variation) == (1, 2)
        flip = run_scenario("hankel-order-flip")
        assert (flip.input_variation, flip.output_variation) == (2, 2)
        assert flip.order_preserved is False

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            run_scenario("nope")

    def test_horizon_below_one(self):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            run_scenario("hankel-diminish", 0)


class TestHeavyBall:
    def test_unit_threshold(self):
        assert heavy_ball(1.0, 1.0, 4.0).threshold == pytest.approx(4.0)

    def test_boundary_double_pole(self):
        scen = heavy_ball(1.0, 1.0, 4.0)
        assert scen.meets_threshold
        assert scen.closed_loop_report.verdict == CERTIFIED
        poles = scen.closed_loop.poles
        assert poles[0] == pytest.approx(2.0, abs=1e-6)
        assert poles[1] == pytest.approx(2.0, abs=1e-6)

    def test_below_threshold_oscillates(self):
        scen = heavy_ball(1.0, 1.0, 3.0)
        assert not scen.meets_threshold
        assert scen.closed_loop_report.verdict == REFUTED
        assert scen.iterate_extrema > 0
        assert scen.consistent

    def test_above_threshold_monotone(self):
        scen = heavy_ball(1.0, 1.0, 5.0)
        assert scen.meets_threshold
        assert scen.iterate_extrema == 0

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            heavy_ball(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="steps must be >= 1"):
            heavy_ball(1.0, 1.0, 4.0, steps=0)


class TestNeuronalCondition:
    def test_demo_margin(self):
        res = neuronal_condition(0.9, 0.5, 0.1, 0.9, 0.5, 0.1)
        assert res.ok
        assert res.margin == pytest.approx(0.0064, abs=1e-12)

    def test_margin_matches_compound_check(self):
        res = neuronal_condition(0.9, 0.5, 0.1, 0.9, 0.5, 0.1)
        rep = check_hankel_k(DEMO, 2)
        assert (res.margin >= 0) == (rep.verdict == CERTIFIED)

    def test_near_equal_poles_fail(self):
        res = neuronal_condition(1.0, 1.0, 1.0, 0.9, 0.8999, 0.5)
        assert not res.ok

    def test_vanishing_inhibition_passes(self):
        res = neuronal_condition(1.0, 1.0, 1e-9, 0.9, 0.5, 0.1)
        assert res.ok

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            neuronal_condition(1.0, 1.0, 1.0, 0.5, 0.9, 0.1)
        with pytest.raises(ValueError):
            neuronal_condition(1.0, 0.5, 0.8, 0.9, 0.5, 0.1)
