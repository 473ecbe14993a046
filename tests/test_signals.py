import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import is_log_concave, is_log_convex, is_unimodal
from vardim.signals import (SIGN_WORD, Signal, first_nonzero_sign,
                            forward_difference, row_variations, sign_buffers,
                            variation)


class TestVariation:
    def test_alternating(self):
        assert variation((1, -1, 1)) == 2

    def test_zero_signal_is_zero(self):
        assert variation((0, 0, 0)) == 0
        assert variation(()) == 0

    def test_zeros_deleted(self):
        assert variation((1, 0, -2, 0, 3)) == 2

    def test_below_tolerance_counts_as_zero(self):
        assert variation((1.0, 1e-15, -1.0)) == 1

    @given(st.lists(st.integers(-3, 3), max_size=8),
           st.sampled_from([-2.0, -0.5, 0.5, 3.0]))
    def test_scaling_invariance(self, vals, alpha):
        assert variation([alpha * v for v in vals]) == variation(vals)

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=8),
           st.integers(0, 8))
    def test_zero_insertion_invariance(self, vals, pos):
        pos = min(pos, len(vals))
        padded = vals[:pos] + [0] + vals[pos:]
        assert variation(padded) == variation(vals)

    @given(st.lists(st.integers(-3, 3), max_size=8))
    def test_reversal_invariance(self, vals):
        assert variation(vals[::-1]) == variation(vals)


TOLS = (0.0, 1e-12, 0.5)
# Zeros of both signs, values exactly at and just beside +-tol, and
# ordinary magnitudes.
EDGE_SAMPLES = st.sampled_from(
    [0.0, -0.0, 2.0, -3.0] + [v for t in TOLS for v in
                             (t, -t, math.nextafter(t, 1.0),
                              -math.nextafter(t, 1.0), math.nextafter(t, 0.0),
                              -math.nextafter(t, 0.0))])


class TestRowVariations:
    @given(st.integers(0, 6).flatmap(lambda width: st.tuples(
               st.just(width),
               st.lists(st.lists(EDGE_SAMPLES | st.floats(-2.0, 2.0),
                                 min_size=width, max_size=width),
                        max_size=6))),
           st.sampled_from(TOLS))
    def test_matches_scalar_counts(self, shaped, tol):
        width, rows = shaped
        changes, first = row_variations(
            np.array(rows, dtype=float).reshape(len(rows), width), tol)
        assert changes.tolist() == [variation(r, tol) for r in rows]
        assert first.tolist() == [first_nonzero_sign(r, tol) for r in rows]

    # One, two and three sign words, and every sample that reads as zero:
    # +-tol, +-0.0 and NaN, besides +-inf.
    @given(st.integers(0, 25).flatmap(lambda width: st.tuples(
               st.just(width),
               st.lists(st.lists(EDGE_SAMPLES | st.sampled_from(
                                     [math.nan, math.inf, -math.inf])
                                 | st.floats(-2.0, 2.0),
                                 min_size=width, max_size=width),
                        max_size=6))),
           st.sampled_from(TOLS))
    def test_sign_words_match_scalar_counts(self, shaped, tol):
        width, rows = shaped
        changes, first = row_variations(
            np.array(rows, dtype=float).reshape(len(rows), width), tol)
        for row, c, f in zip(rows, changes.tolist(), first.tolist()):
            assert (c, f) == (variation(row, tol),
                              first_nonzero_sign(row, tol))

    def test_every_sign_word_matches_scalar_counts(self):
        words = np.array(list(itertools.product((-1.0, 0.0, 1.0),
                                                repeat=SIGN_WORD)))
        changes, first = row_variations(words)
        assert changes.tolist() == [variation(w) for w in words]
        assert first.tolist() == [first_nonzero_sign(w) for w in words]

    def test_reused_buffers_match_fresh_ones(self):
        # Buffers that a fuller block has filled, at zero levels of either
        # sign: the counts of fresh buffers and of the scalar reference.
        pool = [0.0, -0.0, 2.0, -3.0, 0.3, -0.3, math.nan, math.inf,
                -math.inf] + [v for t in TOLS for v in (t, -t)]
        rng = np.random.default_rng(26)
        for width in (0, 3, SIGN_WORD, 10, 17):
            buffers = sign_buffers(64, width)
            for tol in TOLS + (-0.5,):
                for n in (64, 37, 0):
                    rows = rng.choice(pool, size=(n, width))
                    got = row_variations(rows, tol, buffers)
                    want = row_variations(rows, tol)
                    assert [a.tolist() for a in got] == [a.tolist()
                                                         for a in want]
                    assert got[0].tolist() == [variation(r, tol)
                                               for r in rows]
                    assert got[1].tolist() == [first_nonzero_sign(r, tol)
                                               for r in rows]

    def test_empty_rows_and_columns(self):
        for shape in ((0, 4), (3, 0)):
            changes, first = row_variations(np.zeros(shape))
            assert changes.shape == first.shape == (shape[0],)
            assert not changes.any() and not first.any()

    def test_memory_linear_in_row_length(self):
        # Every buffer is linear in the row length; a dense (words,
        # columns) coding matrix would take 100 MB here.
        row = np.ones((1, 10000))
        tracemalloc.start()
        try:
            changes, first = row_variations(row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (changes.tolist(), first.tolist()) == ([0], [1])
        assert peak < 2 * 2 ** 20


class TestForwardDifference:
    def test_first_difference(self):
        d = forward_difference(Signal(0, (1, 3, 6)), 1)
        assert d.values == (2.0, 3.0)
        assert d.support_start == 0

    def test_second_difference(self):
        d = forward_difference(Signal(0, (1, 3, 6)), 2)
        assert d.values == (1.0,)

    def test_constants_vanish(self):
        d = forward_difference(Signal(0, (5, 5, 5)), 1)
        assert d.values == (0.0, 0.0)

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            forward_difference(Signal(0, (1, 2)), 0)


class TestUnimodal:
    def test_single_peak(self):
        assert is_unimodal(Signal(0, (1, 3, 2)))

    def test_valley_has_one_difference_change(self):
        # Differences (-1, 1) change sign once, so the window counts as
        # unimodal under the difference criterion.
        assert is_unimodal(Signal(0, (1, 0, 1)))

    def test_two_peaks(self):
        u = Signal(0, (2, 0, 3, 0, 2))
        assert variation(forward_difference(u, 1)) == 3
        assert not is_unimodal(u)


class TestShapePredicates:
    def test_geometric_is_both(self):
        g = Signal(0, tuple(0.5 ** t for t in range(11)))
        assert is_log_concave(g)
        assert is_log_convex(g)

    def test_log_concave_examples(self):
        assert is_log_concave(Signal(0, (1, 3, 1)))
        assert not is_log_concave(Signal(0, (1, 1, 4)))

    def test_log_convex_examples(self):
        g = Signal(1, tuple(0.9 ** t + 0.5 ** t for t in range(1, 11)))
        assert is_log_convex(g)
        assert not is_log_convex(Signal(0, (1, 3, 1)))

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            is_log_concave(Signal(0, (1.0, -0.5, 1.0)))

    def test_gap_in_support_fails(self):
        assert not is_log_concave(Signal(0, (1.0, 0.0, 1.0)))

    def test_both_forces_geometric_equality(self):
        # First-order kernels are the only sequences satisfying both; on
        # such windows the three-term determinant vanishes identically.
        g = Signal(0, tuple(2.0 * 0.7 ** t for t in range(8)))
        assert is_log_concave(g) and is_log_convex(g)
        for t in range(6):
            det = g.value(t + 1) ** 2 - g.value(t) * g.value(t + 2)
            assert abs(det) <= 1e-9 * g.value(t + 1) ** 2


class TestFirstNonzeroSign:
    def test_negative_first(self):
        assert first_nonzero_sign((0, -2, 5)) == -1

    def test_single_positive(self):
        assert first_nonzero_sign((3,)) == 1

    def test_zero_signal(self):
        assert first_nonzero_sign(()) == 0
        assert first_nonzero_sign((0.0, 0.0)) == 0


class TestSignalType:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Signal(0, (1.0, math.nan))
        with pytest.raises(ValueError):
            Signal(0, (math.inf,))

    def test_implicit_zeros_outside_window(self):
        s = Signal(3, (1.0, 2.0))
        assert s.value(2) == 0.0
        assert s.value(3) == 1.0
        assert s.value(5) == 0.0

    def test_trimmed(self):
        s = Signal(0, (0.0, 0.0, 1.0, 0.0, 2.0, 0.0)).trimmed()
        assert s.support_start == 2
        assert s.values == (1.0, 0.0, 2.0)

    @pytest.mark.parametrize("signal", [Signal(1, (0.0,)), Signal(5, ()),
                                        Signal(-2, (1e-13, -1e-13))])
    def test_trimmed_to_nothing_is_the_zero_signal(self, signal):
        s = signal.trimmed()
        assert s == Signal() and hash(s) == hash(Signal())
