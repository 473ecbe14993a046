import itertools

import numpy as np
import pytest

from reference import (compound_matrix, desnanot_jacobi_residual,
                       is_k_positive, minor)
from test_oracle import assert_same_report, scalar_ovd_matrix
from vardim.lti import PartialFractionSystem, impulse_response, hankel_matrix
from vardim.oracle import (OVD_BLOCK, BlockWorkspace, OvdReport,
                           lattice_codes, output_signs, ovd_matrix)
from vardim.signals import row_variations
from vardim.totpos import is_pd, is_psd, matrix_rank


class RowLog(np.ndarray):
    """An input block that logs the rows read one at a time, which are the
    rows ``output_signs`` decides again through the per-vector product."""

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)) and hasattr(self, "read"):
            self.read.append(int(key))
        return super().__getitem__(key)


def logged_rows(rows):
    U = np.array(rows, dtype=float).view(RowLog)
    U.read = []
    return U


def four_comparison_signs(X, U, eff_tol):
    """``output_signs`` with its earlier guard band: four comparisons on
    the signed outputs instead of two on their magnitudes."""
    Y = U @ X.T
    L = U.shape[1]
    bound = (2 * L * L * np.finfo(float).eps * np.abs(X).max(initial=1.0)
             * np.abs(U).max(initial=0.0) + np.finfo(float).tiny)
    lo, hi = abs(eff_tol) - bound, abs(eff_tol) + bound
    near = ((Y >= lo) & (Y <= hi)) | ((Y >= -hi) & (Y <= -lo))
    for r in np.flatnonzero(near.any(axis=1)):
        Y[r] = X @ np.array(U[r])
    return row_variations(Y, eff_tol)


GUARD_TOL = 1e-3


def guard_band_cases() -> list:
    """(X, rows, index of the first edge row, index of the row one ulp
    beyond hi) for rows whose outputs lie at exactly +-lo, +-hi and +-0.0
    of the guard band around ``GUARD_TOL``, and one ulp beside each; then
    the same rows with NaN, and with +-inf (no indices for those two)."""
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    cases = []
    for X, big in ((np.array([[1.0]]), [(1.0,)]),
                   (np.array([[1.0, 1.0]]),
                    [(1e308, 1e308), (-1e308, -1e308)])):
        L = X.shape[1]
        bound = (2 * L * L * eps * np.abs(X).max() * abs(big[0][0])
                 + tiny)
        lo, hi = GUARD_TOL - bound, GUARD_TOL + bound
        edges = [s * v for v in (lo, hi, 0.0) for s in (1.0, -1.0)]
        ys = edges + [np.nextafter(v, d) for v in edges
                      for d in (-np.inf, np.inf)]
        rows = big + [(y,) + (0.0,) * (L - 1) for y in ys]
        beyond = ys.index(np.nextafter(hi, np.inf)) + len(big)
        cases.append((X, rows, len(big), beyond))
    X, rows = cases[0][:2]
    return cases + [(X, rows + [(np.nan,)], None, None),
                    (X, rows + [(np.inf,), (-np.inf,)], None, None)]


class TestMinor:
    def test_identity_selection(self):
        assert minor(np.eye(3), (1, 3), (1, 3)) == pytest.approx(1.0)

    def test_two_by_two(self):
        assert minor([[1, 2], [3, 4]], (1, 2), (1, 2)) == pytest.approx(-2.0)

    def test_entries_are_one_minors(self):
        X = np.arange(9.0).reshape(3, 3)
        for i, j in itertools.product(range(1, 4), repeat=2):
            assert minor(X, (i,), (j,)) == X[i - 1, j - 1]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            minor(np.eye(3), (1, 2), (1,))


class TestCompoundMatrix:
    def test_identity(self):
        np.testing.assert_allclose(compound_matrix(np.eye(3), 2), np.eye(3))

    def test_diagonal_products(self):
        got = compound_matrix(np.diag([2.0, 3.0, 5.0]), 2)
        np.testing.assert_allclose(got, np.diag([6.0, 10.0, 15.0]))

    def test_top_order_is_determinant(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 4))
        got = compound_matrix(X, 4)
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(np.linalg.det(X), rel=1e-9)

    def test_cauchy_binet(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n, p, m = rng.integers(2, 7, size=3)
            r = int(rng.integers(1, min(n, p, m) + 1))
            X = rng.normal(size=(n, p))
            Y = rng.normal(size=(p, m))
            lhs = compound_matrix(X @ Y, r)
            rhs = compound_matrix(X, r) @ compound_matrix(Y, r)
            scale = max(1.0, np.max(np.abs(lhs)), np.max(np.abs(rhs)))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9 * scale)

    def test_spectrum_products(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            r = int(rng.integers(1, n + 1))
            lam = rng.uniform(0.2, 2.0, size=n) * rng.choice([-1, 1], size=n)
            Q = rng.normal(size=(n, n))
            while abs(np.linalg.det(Q)) < 0.1:
                Q = rng.normal(size=(n, n))
            X = Q @ np.diag(lam) @ np.linalg.inv(Q)
            got = np.sort_complex(np.linalg.eigvals(compound_matrix(X, r)))
            want = np.sort_complex([np.prod(c) for c in
                                    itertools.combinations(lam, r)])
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_psd_lifting(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            B = rng.normal(size=(n, n))
            X = B.T @ B
            for r in range(1, n + 1):
                assert is_psd(compound_matrix(X, r))


class TestDefiniteness:
    def test_demo_window_is_pd(self):
        g = impulse_response(
            PartialFractionSystem(((0.9, 0.9), (0.5, 0.5), (-0.1, 0.1))), 8)
        H = hankel_matrix(g, 1, 2)
        assert is_pd(H)
        assert H[0, 0] == pytest.approx(1.3)
        assert np.linalg.det(H) == pytest.approx(0.0064, abs=1e-12)

    def test_indefinite(self):
        assert not is_pd([[1.0, 2.0], [2.0, 1.0]])

    def test_zero_matrix(self):
        Z = np.zeros((3, 3))
        assert is_psd(Z) and not is_pd(Z)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            is_pd([[1.0, 2.0], [0.0, 1.0]])


class TestKPositive:
    def test_triangular_certified(self):
        v = is_k_positive([[1.0, 1.0], [0.0, 1.0]], 2)
        assert v.positive is True

    def test_antidiagonal_refuted_with_witness(self):
        v = is_k_positive([[0.0, 1.0], [1.0, 0.0]], 2)
        assert v.positive is False
        assert v.witness.order == 2
        assert (v.witness.rows, v.witness.cols) == ((1, 2), (1, 2))
        assert v.witness.value == pytest.approx(-1.0)

    def test_distinct_geometric_bank_is_strictly_positive(self):
        pfs = PartialFractionSystem(((1.0, 0.9), (1.0, 0.5), (1.0, 0.1)))
        g = impulse_response(pfs, 10)
        H = hankel_matrix(g, 1, 3)
        assert is_k_positive(H, 3, strict=True).positive is True

    def test_consecutive_mode_certifies(self):
        pfs = PartialFractionSystem(((1.0, 0.9), (1.0, 0.5), (1.0, 0.1)))
        g = impulse_response(pfs, 10)
        H = hankel_matrix(g, 1, 3)
        assert is_k_positive(H, 3, consecutive_only=True).positive is True

    def test_consecutive_mode_refutes_on_negative_minor(self):
        v = is_k_positive([[0.0, 1.0], [1.0, 0.0]], 2, consecutive_only=True)
        assert v.positive is False

    def test_consecutive_mode_open_when_strictness_fails(self):
        # Interval minors hit an exact zero without any negative minor.
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = is_k_positive(X, 2, consecutive_only=True)
        assert v.positive is None


class TestDesnanotJacobi:
    def test_tridiagonal_example(self):
        X = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        assert desnanot_jacobi_residual(X) == pytest.approx(0.0, abs=1e-12)

    def test_identity(self):
        assert desnanot_jacobi_residual(np.eye(3)) == 0.0

    def test_random_matrices(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(3, 7))
            X = rng.normal(size=(n, n))
            scale = max(1.0, abs(np.linalg.det(X)))
            assert desnanot_jacobi_residual(X) <= 1e-9 * scale * max(
                1.0, np.max(np.abs(X))) ** 2


class TestBruteForce:
    # The matrix oracle of ``vardim.oracle``: inputs with at most k-1 sign
    # changes.
    def test_totally_positive_window_passes(self):
        pfs = PartialFractionSystem(((1.0, 0.9), (1.0, 0.5), (1.0, 0.1)))
        g = impulse_response(pfs, 12)
        H = hankel_matrix(g, 1, 4)
        v = ovd_matrix(H, 4)
        assert isinstance(v, OvdReport) and v.passed

    def test_antidiagonal_order_violation(self):
        # The swap matrix preserves the variation of (1, -1) but flips the
        # leading sign; enumeration hits the mirror input first.
        v = ovd_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
        assert not v.passed and v.passed_variation_only
        first = v.counterexample
        assert first.kind == "order"
        assert first.input in ((-1.0, 1.0), (1.0, -1.0))
        assert first.output == tuple(-np.array(first.input))

    def test_rank_one_outer_product(self):
        a = np.array([1.0, 2.0, 0.5])
        b = np.array([0.3, 1.0])
        v = ovd_matrix(np.outer(a, b), 3)
        assert v.passed and v.rank == 1

    def test_equivalence_with_minor_scan(self):
        # Order-preserving diminishment on inputs with <= k-1 changes is
        # equivalent to nonnegativity of all minors up to order k for
        # full-column-rank matrices.
        rng = np.random.default_rng(8)
        agree = 0
        for _ in range(40):
            X = rng.normal(size=(5, 3))
            if rng.random() < 0.5:
                X = np.abs(X)  # bias towards positives so both sides appear
            if matrix_rank(X) < 3:
                continue
            for k in (1, 2, 3):
                minors_ok = is_k_positive(X, k).positive
                brute = ovd_matrix(X, k).passed
                assert minors_ok == brute
                agree += 1
        assert agree > 0

    def test_random_real_sampling_mode(self):
        X = np.array([[1.0, 0.5], [0.5, 1.0]])
        v = ovd_matrix(X, 2, samples=200, seed=0x5EED)
        assert v.passed

    def test_matches_scalar_scan(self):
        rng = np.random.default_rng(21)
        cases = [(np.array([[1.0, 0.5], [0.5, 1.0]]), OVD_BLOCK + 50)]
        for trial in range(16):
            X = rng.normal(size=(int(rng.integers(2, 6)),
                                 int(rng.integers(1, 6))))
            cases.append((np.abs(X) if trial % 2 else X, 100))
        for X, samples in cases:
            for k in (1, 2, 3):
                kw = dict(samples=samples, seed=k)
                assert_same_report(ovd_matrix(X, k, **kw),
                                   scalar_ovd_matrix(X, k, **kw))

    def test_block_signs_follow_per_vector_product(self):
        # Put the zero tolerance between a block-product output and the
        # per-vector one where they round apart: the sign must be the
        # per-vector one.
        rng = np.random.default_rng(3)
        U = rng.uniform(-1.0, 1.0, size=(OVD_BLOCK, 9))
        X = rng.normal(size=(10, 9))
        block = U @ X.T
        single = np.array([X @ np.array(u) for u in U])
        for r, t in np.argwhere(block != single):
            tol = min(abs(block[r, t]), abs(single[r, t]))
            want = row_variations(single, tol)
            changes, first = row_variations(block[r:r + 1], tol)
            if (changes[0], first[0]) != (want[0][r], want[1][r]):
                break
        else:
            pytest.skip("block and per-vector products give the same "
                        "signs here")
        got = output_signs(X, U, tol)
        assert (got[0] == want[0]).all() and (got[1] == want[1]).all()

    def test_guard_band_matches_four_comparisons(self):
        # The |Y| band must re-decide the same rows as the four comparisons
        # on signed outputs, with the same signs.
        for X, rows, first_edge, beyond in guard_band_cases():
            got_U, want_U = logged_rows(rows), logged_rows(rows)
            with np.errstate(over="ignore"):
                got = output_signs(X, got_U, GUARD_TOL)
                want = four_comparison_signs(X, want_U, GUARD_TOL)
            assert got_U.read == want_U.read
            assert [a.tolist() for a in got] == [a.tolist() for a in want]
            if first_edge is not None:
                # +-lo and +-hi are in the band; one ulp beyond hi is not.
                assert set(range(first_edge, first_edge + 4)) <= set(
                    got_U.read)
                assert beyond not in got_U.read

    def test_workspace_matches_fresh_buffers(self):
        # A workspace that an earlier full block has filled gives the
        # signs and the re-decided rows of fresh buffers, on the guard
        # band's edge rows and on a random block with outputs in the band.
        rng = np.random.default_rng(26)
        X = rng.normal(size=(10, 9))
        U = rng.uniform(-1.0, 1.0, size=(OVD_BLOCK, 9))
        Y = U @ X.T
        # Zero levels at outputs of the block, so that their rows are in
        # the band.
        cases = [(X, U.tolist(), abs(Y[r, r % 10])) for r in (5, 700)]
        cases += [(X, rows, GUARD_TOL)
                  for X, rows, _, _ in guard_band_cases()]
        reads = []
        for X, rows, eff_tol in cases:
            work = BlockWorkspace(X, OVD_BLOCK)
            stale = rng.uniform(-1.0, 1.0, size=(OVD_BLOCK, X.shape[1]))
            output_signs(X, stale, 0.5, work)
            got_U, want_U = logged_rows(rows), logged_rows(rows)
            with np.errstate(over="ignore"):
                got = output_signs(X, got_U, eff_tol, work)
                want = output_signs(X, want_U, eff_tol)
            assert got_U.read == want_U.read
            assert [a.tolist() for a in got] == [a.tolist() for a in want]
            reads.append(got_U.read)
        assert 5 in reads[0] and 700 in reads[1]

    def test_lattice_codes_follow_product_order(self):
        want = list(itertools.product(range(3), repeat=4))
        for start, stop in ((0, 81), (5, 40), (80, 81), (7, 7)):
            assert [tuple(c) for c in lattice_codes(3, 4, start, stop)] \
                == want[start:stop]
