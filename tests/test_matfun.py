import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from mekit import matfun
from conftest import nakagami, quadpack, random_stable_matrix, run_fresh


class TestExpm:
    def test_zero_matrix(self):
        assert_allclose(matfun.expm(np.zeros((2, 2))), np.eye(2))

    def test_scalar(self):
        assert_allclose(matfun.expm([[-1.0]]), [[np.exp(-1.0)]], rtol=1e-14)

    def test_nilpotent_series_truncates(self):
        assert_allclose(matfun.expm([[0.0, 1.0], [0.0, 0.0]]),
                        [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_scipy(self, rng, n):
        for _ in range(5):
            A = rng.normal(size=(n, n)) * rng.uniform(0.1, 10.0)
            assert_allclose(matfun.expm(A), scipy.linalg.expm(A),
                            rtol=1e-11, atol=1e-11)

    def test_complex_input(self, rng):
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert_allclose(matfun.expm(A), scipy.linalg.expm(A),
                        rtol=1e-11, atol=1e-11)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_semigroup_property(self, rng, n):
        M = random_stable_matrix(rng, n)
        s, t = 0.7, 1.9
        lhs = matfun.expm((s + t) * M)
        rhs = matfun.expm(s * M) @ matfun.expm(t * M)
        assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_commutes_with_argument(self, rng):
        M = random_stable_matrix(rng, 5)
        E = matfun.expm(M)
        assert np.max(np.abs(M @ E - E @ M)) < 1e-10 * np.max(np.abs(E))

    def test_block_triangular_preserved(self, rng):
        A = random_stable_matrix(rng, 3)
        B = random_stable_matrix(rng, 2)
        C = rng.normal(size=(3, 2))
        M = np.block([[A, C], [np.zeros((2, 3)), B]])
        E = matfun.expm(M)
        assert np.all(E[3:, :3] == 0.0)
        assert_allclose(E[:3, :3], matfun.expm(A), rtol=1e-12)

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 30.0])
    def test_expm1_keeps_small_steps(self, rng, scale):
        # e^M - I to the relative accuracy of its own entries: for a tiny
        # M against the series M + M^2/2 + M^3/6 (the next term is below
        # 1e-16 of M), otherwise against scipy
        M = scale * random_stable_matrix(rng, 4)
        E = matfun.expm1(M)
        if scale < 1e-6:
            ref = M + M @ M / 2.0 + M @ M @ M / 6.0
            assert_allclose(E, ref, rtol=1e-13, atol=0.0)
        else:
            ref = scipy.linalg.expm(M) - np.eye(4)
            assert_allclose(E, ref, rtol=1e-11, atol=1e-11)

    def test_stack_matches_each_matrix(self, rng):
        # scaling exponents from 0 (t = 1e-3) to about 12 (t = 1e3)
        M = random_stable_matrix(rng, 4)
        ts = np.logspace(-3, 3, 13)
        S = matfun.expm(ts[:, None, None] * M)
        assert S.shape == (13, 4, 4)
        for t, E in zip(ts, S):
            assert_allclose(E, matfun.expm(t * M), rtol=1e-14, atol=1e-300)

    def test_complex_stack_with_batch_axes(self, rng):
        M = (rng.normal(size=(2, 3, 3, 3))
             + 1j * rng.normal(size=(2, 3, 3, 3)))
        M *= np.logspace(-3, 2, 3)[None, :, None, None]
        S = matfun.expm(M)
        assert S.shape == M.shape and S.dtype == complex
        for i in range(2):
            for j in range(3):
                assert_allclose(S[i, j], matfun.expm(M[i, j]), rtol=1e-14,
                                atol=1e-300)

    def test_block_triangular_preserved_in_stack(self, rng):
        A = random_stable_matrix(rng, 3)
        B = random_stable_matrix(rng, 2)
        C = rng.normal(size=(3, 2))
        M = np.block([[A, C], [np.zeros((2, 3)), B]])
        ts = np.array([1e3, 1e-3, 0.5, 30.0])
        S = matfun.expm(ts[:, None, None] * M)
        assert np.all(S[:, 3:, :3] == 0.0)
        for t, E in zip(ts, S):
            assert_allclose(E[:3, :3], matfun.expm(t * A), rtol=1e-12,
                            atol=1e-300)

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError, match="square"):
            matfun.expm(np.zeros((3, 2, 3)))

    def test_integral_identity_vs_quadrature(self, rng):
        M = random_stable_matrix(rng, 3)
        b = 1.3
        for i in range(3):
            closed = matfun.expm_integral(np.eye(3)[i], M, b)
            for j in range(3):
                val, _ = quadpack(lambda t: matfun.expm(t * M)[i, j], 0.0, b)
                assert abs(closed[j] - val) < 1e-9

    def test_integral_singular_generator_vs_quadrature(self, rng):
        # rank-deficient Y: M^{-1}(e^{bM} - I) does not exist
        M = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.0, -2.0]])
        x = rng.normal(size=3)
        b = 1.7
        closed = matfun.expm_integral(x, M, b)
        for j in range(3):
            val, _ = quadpack(lambda t: (x @ matfun.expm(t * M))[j], 0.0, b)
            assert abs(closed[j] - val) < 1e-9

    def test_integral_complex_row(self):
        # int_0^b e^{i w t} dt = (e^{i w b} - 1) / (i w)
        w, b = 3.0, 0.8
        got = matfun.expm_integral([1.0 + 0.0j], [[1j * w]], b)[0]
        assert abs(got - (np.exp(1j * w * b) - 1.0) / (1j * w)) < 1e-14

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            matfun.expm(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            matfun.expm([[np.nan, 0.0], [0.0, 0.0]])


def _subgenerator(rng, n, s, imag):
    """n x n transient generator (nonnegative off-diagonal, exit rates on
    the diagonal) scaled so that Pade-13 scaling picks exponent s; ``imag``
    adds an imaginary diagonal, which keeps |e^M|_inf <= 1."""
    M = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 4.0 / n)
    np.fill_diagonal(M, 0.0)
    np.fill_diagonal(M, -M.sum(axis=1) - rng.uniform(0.1, 1.0, n))
    if imag:
        M = M + 1j * np.diag(rng.normal(size=n))
    norm = np.abs(M).sum(axis=0).max()
    return M * (0.5 if s == 0 else 0.9 * 2.0 ** s) * matfun._PADE13_THETA / norm


class TestExpmRow:
    @pytest.mark.parametrize("imag", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [2, 9, 65, 257])
    def test_matches_scipy_rows(self, rng, n, imag):
        # scaling exponents 0..7; at n = 65 and 257 the last 4 and 6
        # squarings run as row products
        for s in range(8):
            M = _subgenerator(rng, n, s, imag)
            E = scipy.linalg.expm(M)
            r = rng.normal(size=(2, n))
            if imag:
                r = r + 1j * rng.normal(size=(2, n))
            assert_allclose(matfun.expm_row(r[0], M), r[0] @ E,
                            rtol=1e-11, atol=1e-11)
            assert_allclose(matfun.expm_row(r, M), r @ E,
                            rtol=1e-11, atol=1e-11)
            assert_allclose(matfun.expm_row(None, M), E[0],
                            rtol=1e-11, atol=1e-11)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_small_order_is_a_row_of_expm(self, rng, n):
        # below n = 8 no squaring becomes a row product: the row is the
        # one expm gives, to the last bit
        for t in (1e-3, 1.0, 1e3):
            M = t * random_stable_matrix(rng, n)
            x = rng.normal(size=n)
            assert np.array_equal(matfun.expm_row(None, M), matfun.expm(M)[0])
            assert np.array_equal(matfun.expm_row(x, M), x @ matfun.expm(M))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            matfun.expm_row(None, np.ones((2, 3)))


class TestKron:
    def test_kron_sum_scalar(self):
        assert_allclose(matfun.kron_sum([[2.0]], [[3.0]]), [[5.0]])

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (5, 1), (3, 16),
                                      (16, 16)])
    @pytest.mark.parametrize("kinds", [(float, float), (complex, complex),
                                       (float, complex), (complex, float)])
    def test_kron_sum_is_the_identity_product_formula(self, m, n, kinds):
        rng = np.random.default_rng(100 * m + n)

        def draw(k, kind):
            M = rng.normal(size=(k, k))
            return M + 1j * rng.normal(size=(k, k)) if kind is complex else M

        A, B = draw(m, kinds[0]), draw(n, kinds[1])
        ref = np.kron(A, np.eye(n)) + np.kron(np.eye(m), B)
        got = matfun.kron_sum(A, B)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("A, B, match", [
        (np.ones((2, 3)), np.eye(2), "A must be a square"),
        (np.eye(2), np.ones(3), "B must be a square"),
        (np.array([[np.nan]]), np.eye(2), "A contains non-finite"),
        (np.eye(2), np.array([[1.0, np.inf], [0.0, 1.0]]),
         "B contains non-finite")])
    def test_kron_sum_refuses_by_name(self, A, B, match):
        with pytest.raises(ValueError, match=match):
            matfun.kron_sum(A, B)

    def test_exponential_of_kron_sum(self, rng):
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2))
        lhs = matfun.expm(matfun.kron_sum(A, B))
        rhs = np.kron(matfun.expm(A), matfun.expm(B))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))


class TestSylvester:
    def test_scalar_case(self):
        X = matfun.solve_sylvester([[-1.0]], [[-2.0]], [[-1.0]])
        assert_allclose(X, [[1.0 / 3.0]], rtol=1e-14)

    def test_identity_case(self):
        X = matfun.solve_sylvester(-np.eye(2), -np.eye(2), -np.eye(2))
        assert_allclose(X, np.eye(2) / 2.0, rtol=1e-14)

    def test_matches_vectorized_path(self, rng):
        for _ in range(5):
            A = random_stable_matrix(rng, 3)
            B = random_stable_matrix(rng, 3)
            C = rng.normal(size=(3, 3))
            X1 = matfun.solve_sylvester(A, B, C)
            # vec(X) = (B^T (+) A)^{-1} vec(C), column-major vec
            K = np.kron(B.T, np.eye(3)) + np.kron(np.eye(3), A)
            X2 = np.linalg.solve(K, C.flatten(order="F")).reshape(
                (3, 3), order="F")
            assert np.max(np.abs(X1 - X2)) < 1e-10 * max(np.max(np.abs(X1)), 1.0)

    def test_residual_bound(self, rng):
        A = random_stable_matrix(rng, 4)
        B = random_stable_matrix(rng, 4)
        C = rng.normal(size=(4, 4))
        X = matfun.solve_sylvester(A, B, C)
        res = np.max(np.abs(A @ X + X @ B - C))
        scale = (np.linalg.norm(A) + np.linalg.norm(B)) * np.max(np.abs(X))
        assert res <= 1e-10 * scale

    def test_shared_eigenvalue_raises(self):
        A = np.diag([-1.0, -2.0])
        B = np.diag([1.0, -5.0])  # -B has eigenvalue -1 = eig of A
        with pytest.raises(matfun.SpectralCollisionError):
            matfun.solve_sylvester(A, B, np.eye(2))


class TestFracPower:
    def test_scalar_inverse_sqrt(self):
        assert_allclose(matfun.mat_frac_power([[4.0]], -0.5), [[0.5]], rtol=1e-12)

    @pytest.mark.parametrize("p", [-1.0, -0.5, 0.5, -1.5])
    def test_identity(self, p):
        assert_allclose(matfun.mat_frac_power(np.eye(3), p), np.eye(3),
                        rtol=1e-12, atol=1e-13)

    def test_defective_matrix_square_root(self):
        # a Jordan block, and I - Y for the Nakagami-8 generator Y (one
        # Jordan block of order 8)
        Y = nakagami(8).Y
        for M in (np.array([[2.0, 1.0], [0.0, 2.0]]), np.eye(8) - Y):
            X = matfun.mat_frac_power(M, -0.5)
            assert np.max(np.abs(X @ X - np.linalg.inv(M))) < 1e-10

    def test_power_roundtrip(self, rng):
        M = -random_stable_matrix(rng, 3)  # spectrum in right half-plane
        p = -0.5
        X = matfun.mat_frac_power(M, p)
        back = matfun.mat_frac_power(X, 1.0 / p)
        assert np.max(np.abs(back - M)) < 1e-9 * np.max(np.abs(M))

    def test_integer_power(self, rng):
        M = rng.normal(size=(3, 3))
        assert_allclose(matfun.mat_frac_power(M, -1), np.linalg.inv(M),
                        rtol=1e-10)

    def test_branch_cut_rejected(self):
        with pytest.raises(matfun.BranchCutError):
            matfun.mat_frac_power([[-1.0]], -0.5)

    def test_non_half_integer_power_rejected(self):
        with pytest.raises(ValueError, match="half-integer"):
            matfun.mat_frac_power(np.eye(2), 1.0 / 3.0)


class TestQuad:
    def test_exponential_tail(self):
        val, err = matfun.quad(lambda t: np.exp(-t), 0.0, np.inf)
        assert abs(val - 1.0) < 1e-12

    def test_constant_over_half_pi(self):
        val, _ = matfun.quad(lambda t: np.full_like(t, 1.0 / np.pi),
                             0.0, np.pi / 2.0)
        assert abs(val - 0.5) < 1e-12

    def test_first_moment(self):
        val, _ = matfun.quad(lambda t: t * np.exp(-t), 0.0, np.inf)
        assert abs(val - 1.0) < 1e-12

    def test_whole_line_and_lower_infinite(self):
        val, _ = matfun.quad(lambda t: np.exp(-t * t), -np.inf, np.inf)
        assert abs(val - np.sqrt(np.pi)) < 1e-12
        val, _ = matfun.quad(lambda t: np.exp(t), -np.inf, 0.0)
        assert abs(val - 1.0) < 1e-12

    def test_endpoint_singularity(self):
        val, err = matfun.quad(lambda t: 1.0 / np.sqrt(t), 0.0, 1.0,
                               tol=1e-10, limit=1000)
        assert abs(val - 2.0) < 1e-9 and err < 1e-9

    def test_nodes_arrive_in_batches(self):
        calls = []

        def f(t):
            calls.append(t.shape)
            return np.cos(30.0 * t)

        val, _ = matfun.quad(f, 0.0, 3.0, tol=1e-12)
        assert abs(val - np.sin(90.0) / 30.0) < 1e-12
        assert all(len(s) == 1 and s[0] % 21 == 0 for s in calls)
        assert sum(s[0] for s in calls) > 21 * len(calls)

    @pytest.mark.parametrize("f, a, b, sizes", [
        (lambda t: t * np.exp(-t), 0.0, np.inf, [21, 42, 42, 42, 42]),
        (lambda t: np.exp(-t * t), -np.inf, np.inf, [42, 84, 84, 84]),
        (lambda t: np.exp(t), -np.inf, 0.0, [21, 42, 42, 42, 42]),
    ], ids=["half_line", "whole_line", "lower_infinite"])
    def test_infinite_range_is_one_call(self, monkeypatch, f, a, b, sizes):
        # an infinite range is mapped once and integrated by one adaptive
        # pass: one call of quad, with the same node batches as before
        calls, seen = [], []
        inner = matfun.quad

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return inner(*args, **kwargs)

        def g(t):
            seen.append(t.size)
            return f(t)

        monkeypatch.setattr(matfun, "quad", counted)
        val, _ = matfun.quad(g, a, b)
        assert calls == [(a, b)]
        assert seen == sizes
        assert val == inner(f, a, b)[0]

    @pytest.mark.parametrize("integrand", [
        "np.where(t < 0.5, np.nan, 1.0)", "np.full_like(t, np.nan)",
        "np.full_like(t, np.inf)"], ids=["half_nan", "nan", "inf"])
    def test_non_finite_integrand_refused(self, integrand):
        # in a subprocess under a timeout, so that a loop that never ends
        # fails instead of hanging the suite
        code = ("import warnings; warnings.simplefilter('error')\n"
                "import numpy as np; from mekit import matfun\n"
                "try:\n"
                f"    matfun.quad(lambda t: {integrand}, 0.0, 1.0)\n"
                "except ValueError as exc:\n"
                "    print(exc)\n")
        assert "quadrature integrand is not finite" in run_fresh(code)

    def test_overflowing_sums_refused_without_warning(self):
        # 1.7e308 sin(40 t) is finite at every node, but its weighted sums
        # overflow: the refusal is the named ValueError, not a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="estimate is not finite"):
                matfun.quad(lambda t: 1.7e308 * np.sin(40.0 * t), 0.0, 1.0)

    def test_warns_instead_of_silent_failure(self):
        with pytest.warns(matfun.AccuracyWarning):
            matfun.quad(lambda t: np.sin(1.0 / (t + 1e-12)) / (t + 1e-12),
                        0.0, 1.0, tol=1e-13, limit=3)


class TestHelpers:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
    def test_row_powers(self, rng, n):
        # a block of two rows w P^k projected on Z, and the last row,
        # against repeated products, across the doubling and the blocked
        # stages and both forms of P^B (I + E, then P); P = I + E is a
        # rotation and Z has orthonormal columns, so every row and
        # projection is at most 1
        K = rng.normal(size=(3, 3))
        E = scipy.linalg.expm(0.1 * (K - K.T)) - np.eye(3)
        P = np.eye(3) + E
        Z = np.linalg.qr(rng.normal(size=(3, 2)))[0]
        w = np.array([[0.6, 0.8, 0.0], [0.0, 0.6, 0.8]])
        ref = [w]
        for _ in range(n - 1):
            ref.append(ref[-1] @ P)
        ref = np.array(ref)
        V, last = matfun.row_powers(w, E, n, Z)
        assert V.shape == (n, 2, 2) and last.shape == (2, 3)
        assert_allclose(V, ref @ Z, rtol=0.0, atol=1e-12)
        assert_allclose(last, ref[-1], rtol=0.0, atol=1e-12)
        # a lone row projected on a column drops both axes
        v, last = matfun.row_powers(w[1], E, n, Z[:, 0])
        assert v.shape == (n,) and last.shape == (3,)
        assert_allclose(v, ref[:, 1] @ Z[:, 0], rtol=0.0, atol=1e-12)
        assert_allclose(last, ref[-1, 1], rtol=0.0, atol=1e-12)

    def test_eig_decomp_diagonalizable(self, rng):
        M = random_stable_matrix(rng, 4)
        dec = matfun.eig_decomp(M)
        assert dec.diagonalizable
        rec = dec.vectors @ np.diag(dec.eigenvalues) @ np.linalg.inv(dec.vectors)
        assert np.max(np.abs(rec - M)) <= 1e-9 * np.max(np.abs(M))

    def test_eig_decomp_defective(self):
        dec = matfun.eig_decomp(np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert not dec.diagonalizable
