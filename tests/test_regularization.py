"""Regularization layer: chi stencils, golden matrices, conjugation."""

import numpy as np
import pytest

from quasispec.errors import ValidationError
from quasispec.piecewise import PiecewisePoly as P, PieceTable
from quasispec.regularization import (
    AssociatedMatrix,
    build_associated_matrix,
    chi_matrix,
    conjugate_system,
    diag_correction,
    ExpressionSpec,
    s_coefficient,
    zero_expression,
)
from quasispec.sectors import sector_frame


def sym(name, value=None):
    """Constant coefficient standing in for a symbol; distinct primes keep
    products distinguishable in entry-wise comparisons."""
    return P.constant(value)


def make_spec(n, indices, values, tags=None):
    coeffs = []
    for k, v in enumerate(values):
        c = P.constant(v)
        if tags is not None:
            c = c.with_tag(tags[k])
        coeffs.append(c)
    return ExpressionSpec(n, tuple(indices), tuple(coeffs))


class TestChiMatrix:
    def test_even_nu_zero_order(self):
        chi = chi_matrix(0, 0, 1)
        expected = np.zeros((2, 2), dtype=int)
        expected[0, 0] = 1
        assert np.array_equal(chi, expected)

    def test_odd_nu_zero_order(self):
        chi = chi_matrix(1, 0, 1)
        expected = np.zeros((2, 2), dtype=int)
        expected[0, 1] = 1   # C(1,0) - 2C(0,-1)
        expected[1, 0] = -1  # C(1,1) - 2C(0,0)
        assert np.array_equal(chi, expected)

    def test_even_nu_two_first_order(self):
        chi = chi_matrix(2, 1, 2)
        expected = np.zeros((3, 3), dtype=int)
        expected[1, 2] = 1
        expected[2, 1] = 1
        assert np.array_equal(chi, expected)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            chi_matrix(0, 3, 2)

    def test_cached_instances_shared(self):
        assert chi_matrix(1, 0, 2) is chi_matrix(1, 0, 2)


def entries_equal(F, expected):
    """expected: n x n grid of PiecewisePoly."""
    n = F.n
    for a in range(n):
        for b in range(n):
            assert F.entries[a][b].equals(expected[a][b]), (a + 1, b + 1)


class TestGoldenMatrices:
    def test_example_third_order(self):
        # n=3, i = (1, 0): F = [[0,1,0],[s0+s1,0,1],[0,-(s0-s1),0]]
        s0, s1 = P.constant(2 + 1j), P.constant(0.5 - 3j)
        F = build_associated_matrix(ExpressionSpec(3, (1, 0), (s0, s1)))
        z, one = P.zero(), P.constant(1.0)
        expected = [
            [z, one, z],
            [s0 + s1, z, one],
            [z, -(s0 - s1), z],
        ]
        entries_equal(F, expected)

    def test_example_sixth_order(self):
        # n=6, all i=0; rows 4..6 of the printed matrix
        vals = [2.0, 3.0, 5.0, 7.0, 11.0]
        s = [P.constant(v) for v in vals]
        F = build_associated_matrix(ExpressionSpec(6, (0,) * 5, tuple(s)))
        z, one = P.zero(), P.constant(1.0)
        expected = [
            [z, one, z, z, z, z],
            [z, z, one, z, z, z],
            [z, z, z, one, z, z],
            [z, -s[3], -s[4], z, one, z],
            [s[1], s[2], -s[3], z, z, one],
            [-s[0], s[1], z, z, z, z],
        ]
        entries_equal(F, expected)

    def test_example_fourth_order_all_first(self):
        # n=4, all i=1: quadratic entries appear
        s0, s1, s2 = (P.constant(2.0), P.constant(3.0), P.constant(5.0))
        F = build_associated_matrix(ExpressionSpec(4, (1, 1, 1), (s0, s1, s2)))
        z, one = P.zero(), P.constant(1.0)
        expected = [
            [z, one, z, z],
            [-s1, -s2, one, z],
            [s0 - s1 * s2, -(s2 * s2), s2, one],
            [-(s1 * s1), -s0 - s1 * s2, s1, z],
        ]
        entries_equal(F, expected)

    def test_quadratic_with_piecewise(self):
        # the product route must close under piecewise polynomials
        s0 = P([0, 0.5, 1], [[1.0], [0.0, 2.0]])
        s1 = P.constant(1.0)
        s2 = P([0, 1], [[0.0, 1.0]])  # x
        F = build_associated_matrix(ExpressionSpec(4, (1, 1, 1), (s0, s1, s2)))
        x = np.linspace(0, 1, 7)
        np.testing.assert_allclose(F.entries[2][1](x), -(s2(x) ** 2), atol=1e-14)

    def test_trace_vanishes(self):
        s = [P([0, 0.3, 1], [[1.0, 2.0], [-0.5]]), P.constant(2.0), P.constant(-1.0)]
        F = build_associated_matrix(ExpressionSpec(4, (1, 1, 1), tuple(s)))
        assert F.trace().sup_on_grid() < 1e-13


class TestExpressionValidation:
    def test_index_bound(self):
        with pytest.raises(ValidationError, match=r"indices\[0\]"):
            make_spec(3, (2, 0), (1.0, 1.0))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            ExpressionSpec(3, (1,), (P.zero(), P.zero()))

    def test_l2_required_for_even_max_index(self):
        # n = 4, i_0 = m = 2 is maximal: sigma_0 must be L2-tagged
        with pytest.raises(ValidationError, match=r"coefficients\[0\]"):
            make_spec(4, (2, 0, 0), (1.0, 1.0, 1.0), tags=("L1", "L1", "L1"))

    def test_l2_tag_accepted(self):
        make_spec(4, (2, 0, 0), (1.0, 1.0, 1.0), tags=("L2", "L1", "L1"))


class TestConjugation:
    def test_zero_system(self):
        F = build_associated_matrix(zero_expression(4))
        sys = conjugate_system(F, sector_frame(4, 1))
        x = np.linspace(0, 1, 11)
        assert np.max(np.abs(sys.evaluate_Ak(x))) < 1e-15

    def test_example_third_order_diag_a1(self):
        # diag(A_1)(x) = (2/3) sigma_1(x) * diag(1/omega_k)
        s0 = P([0, 0.4, 1], [[1.0, 1.0], [0.2]])
        s1 = P([0, 1], [[0.5, -2.0]])
        frame = sector_frame(3, 1)
        F = build_associated_matrix(ExpressionSpec(3, (1, 0), (s0, s1)))
        sys = conjugate_system(F, frame)
        x = np.linspace(0, 1, 23)
        a1 = sys.evaluate_Ak(x)[1]
        expect = (2.0 / 3.0) * s1(x)[:, None] / frame.omegas[None, :]
        np.testing.assert_allclose(np.diagonal(a1, axis1=1, axis2=2), expect,
                                   atol=1e-13)

    def test_diag_a0_zero_randomized(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            m = n // 2
            idx, coeffs = [], []
            for nu in range(n - 1):
                k, j = divmod(nu, 2)
                idx.append(int(rng.integers(0, m - k - j + 1)))
                bp = [0.0, float(rng.uniform(0.3, 0.7)), 1.0]
                coeffs.append(P(bp, [[complex(rng.normal(), rng.normal()),
                                      complex(rng.normal(), rng.normal())],
                                     [complex(rng.normal(), rng.normal())]]))
            spec = ExpressionSpec(n, tuple(idx), tuple(coeffs))
            sys = conjugate_system(build_associated_matrix(spec),
                                   sector_frame(n, int(rng.integers(1, 2 * n + 1))))
            x = np.linspace(0, 1, 101)
            a0 = sys.evaluate_Ak(x)[0]
            diag = np.abs(np.diagonal(a0, axis1=1, axis2=2))
            assert np.max(diag) < 1e-12 * (1 + np.max(np.abs(a0)))


def reference_conjugate(F, frame):
    """Every A_k entry, flat in [k][i][l] order, as the per-entry sum
    (1/n) sum_a omega_i^{-a} omega_l^{a-k} F[a][a-k] of PiecewisePoly."""
    n, om = F.n, frame.omegas
    out = []
    for k in range(n):
        for i in range(n):
            for l in range(n):
                acc = P.zero()
                for a in range(k, n):
                    b = a - k
                    acc = acc + F.entries[a][b] * ((om[i] ** (-a)) * (om[l] ** b) / n)
                out.append(acc)
    return out


def random_coefficient(rng):
    """Up to three random cuts, pieces of degree 0-2 with complex values."""
    cuts = np.sort(rng.uniform(0.05, 0.95, int(rng.integers(0, 4))))
    pieces = [rng.normal(size=int(rng.integers(1, 4)))
              + 1j * rng.normal(size=1) for _ in range(len(cuts) + 1)]
    return P(np.concatenate([[0.0], cuts, [1.0]]), pieces)


class TestConjugationMap:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_table_matches_per_entry_sums(self, n):
        """The table conjugate_system builds from F's coefficients agrees
        with the per-entry sums: values to 1e-13 of the largest A_k value
        on a grid plus every breakpoint, the same non-zero mask, the same
        breakpoints and the same constant pieces; each entry read out as a
        PiecewisePoly evaluates as the table does."""
        rng = np.random.default_rng(100 + n)
        m = n // 2
        for _ in range(3):
            idx = [int(rng.integers(0, m - nu // 2 - nu % 2 + 1))
                   for nu in range(n - 1)]
            coeffs = [random_coefficient(rng) for _ in range(n - 1)]
            F = build_associated_matrix(ExpressionSpec(n, tuple(idx), tuple(coeffs)))
            frame = sector_frame(n, int(rng.integers(1, 2 * n + 1)))
            table = conjugate_system(F, frame).table
            ref = reference_conjugate(F, frame)
            ref_table = PieceTable(ref, (n, n, n))
            x = np.union1d(np.linspace(0.0, 1.0, 201),
                           np.concatenate([c.breakpoints for c in coeffs]))
            want = np.array([p(x) for p in ref]).reshape((n, n, n, len(x)))
            np.testing.assert_allclose(table(x), want, rtol=1e-13,
                                       atol=1e-13 * np.max(np.abs(want)))
            np.testing.assert_array_equal(table.nonzero, ref_table.nonzero)
            np.testing.assert_array_equal(table.breakpoints, ref_table.breakpoints)
            np.testing.assert_array_equal(table.constant, ref_table.constant)
            for index in np.ndindex(n, n, n):
                np.testing.assert_array_equal(table.entry(index)(x), table(x)[index])


class TestSCoefficient:
    def test_even_zero_order(self):
        assert s_coefficient(0, 0) == -1
        assert s_coefficient(2, 0) == 1
        assert s_coefficient(4, 0) == -1

    def test_odd_zero_order(self):
        assert s_coefficient(1, 0) == 2
        assert s_coefficient(3, 0) == -2
        assert s_coefficient(5, 0) == 2

    def test_positive_index_vanishes(self):
        for nu in range(8):
            for i in range(1, 4):
                assert s_coefficient(nu, i) == 0

    @pytest.mark.parametrize("n,indices", [
        (3, (1, 0)),
        (4, (0, 0, 0)),
        (6, (0, 0, 0, 0, 0)),
        (4, (1, 1, 1)),
        (5, (2, 1, 1, 0)),
        (6, (1, 0, 1, 0, 0)),
    ])
    def test_diagonal_sum_identity(self, n, indices):
        # sum over the first differing diagonal of Fhat equals
        # sum S_nu sigmahat_nu, checked by brute-force subtraction
        rng = np.random.default_rng(n * 100 + sum(indices))
        vals_a = [complex(rng.normal(), rng.normal()) for _ in range(n - 1)]
        for nu0 in range(1, n - 1):
            vals_b = list(vals_a)
            for nu in range(nu0):
                vals_b[nu] = complex(rng.normal(), rng.normal())
            Fa = build_associated_matrix(make_spec(n, indices, vals_a))
            Fb = build_associated_matrix(make_spec(n, indices, vals_b))
            d = n - 1 - max(nu + indices[nu] for nu in range(nu0))
            Fhat = Fa.subtract(Fb)
            # diagonals below d vanish identically
            for dd in range(d):
                assert Fhat.diagonal_sum(dd).sup_on_grid() < 1e-12
                for a in range(dd, n):
                    assert Fhat.entries[a][a - dd].sup_on_grid() < 1e-12
            got = Fhat.diagonal_sum(d)(np.array([0.37]))[0]
            want = sum(
                s_coefficient(nu, indices[nu]) * (vals_a[nu] - vals_b[nu])
                for nu in range(nu0)
                if n - 1 - (nu + indices[nu]) == d
            )
            assert abs(got - want) < 1e-12 * (1 + abs(want))


class TestDiagCorrection:
    def test_identical_specs(self):
        s = make_spec(4, (0, 0, 0), (1.0, 2.0, 3.0))
        out = diag_correction(s, s, 2, sector_frame(4, 1))
        assert all(f.is_zero(1e-15) for f in out)

    def test_all_first_order_empty_combination(self):
        # i = 1 everywhere: N_d^0 is empty, correction vanishes
        a = make_spec(4, (1, 1, 1), (1.0, 2.0, 3.0))
        b = make_spec(4, (1, 1, 1), (-1.0, 5.0, 3.0))
        out = diag_correction(a, b, 1, sector_frame(4, 1))
        assert all(f.is_zero(1e-15) for f in out)

    def test_sixth_order_constant_difference(self):
        # all-multiplication-operator pair: only sigma_{nu0-1} differs, by 1
        n, nu0 = 6, 3
        vals_a = [2.0, 3.0, 5.0, 7.0, 11.0]
        vals_b = list(vals_a)
        vals_b[nu0 - 1] -= 1.0
        a = make_spec(n, (0,) * 5, vals_a)
        b = make_spec(n, (0,) * 5, vals_b)
        d = n - nu0
        frame = sector_frame(n, 1)
        out = diag_correction(a, b, d, frame)
        # brute force from the built matrices
        Fhat = build_associated_matrix(a).subtract(build_associated_matrix(b))
        x = np.linspace(0, 1, 11)
        dsum = Fhat.diagonal_sum(d)(x)
        for i in range(n):
            want = dsum * (frame.omegas[i] ** (-d)) / n
            np.testing.assert_allclose(out[i](x), want, atol=1e-13)
        assert not out[0].is_zero(1e-6)

    def test_brute_force_full_diagonal_of_Ahat(self):
        # the display formula equals diag(Omega^{-1} Fhat_d Omega)
        n, nu0 = 6, 3
        rng = np.random.default_rng(5)
        vals_a = [complex(rng.normal(), rng.normal()) for _ in range(5)]
        vals_b = list(vals_a)
        for nu in range(nu0):
            vals_b[nu] = complex(rng.normal(), rng.normal())
        a = make_spec(n, (0,) * 5, vals_a)
        b = make_spec(n, (0,) * 5, vals_b)
        d = n - 1 - max(nu for nu in range(nu0))
        frame = sector_frame(n, 1)
        out = diag_correction(a, b, d, frame)
        Fhat = build_associated_matrix(a).subtract(build_associated_matrix(b))
        x = np.linspace(0, 1, 9)
        Fd = np.zeros((len(x), n, n), dtype=complex)
        for aa in range(d, n):
            Fd[:, aa, aa - d] = Fhat.entries[aa][aa - d](x)
        Ahat_d = np.einsum("ia,xab,bl->xil", frame.Omega_inv, Fd, frame.Omega)
        for i in range(n):
            np.testing.assert_allclose(out[i](x), Ahat_d[:, i, i], atol=1e-12)

    def test_order_mismatch(self):
        a = make_spec(4, (0, 0, 0), (1.0, 2.0, 3.0))
        b = make_spec(6, (0,) * 5, (1.0, 2.0, 3.0, 4.0, 5.0))
        with pytest.raises(ValidationError):
            diag_correction(a, b, 1, sector_frame(4, 1))


class TestRawMatrixValidation:
    def test_valid_matrix_passes(self):
        F = build_associated_matrix(make_spec(4, (1, 1, 1), (1.0, 2.0, 3.0)))
        F.validate()

    def test_bad_superdiagonal(self):
        F = build_associated_matrix(make_spec(3, (1, 0), (1.0, 2.0)))
        rows = [list(r) for r in F.entries]
        rows[0][1] = P.constant(2.0)
        bad = AssociatedMatrix(3, tuple(tuple(r) for r in rows))
        with pytest.raises(ValidationError, match="superdiagonal"):
            bad.validate()

    def test_bad_trace(self):
        F = build_associated_matrix(make_spec(3, (1, 0), (1.0, 2.0)))
        rows = [list(r) for r in F.entries]
        rows[1][1] = P.constant(0.5)
        bad = AssociatedMatrix(3, tuple(tuple(r) for r in rows))
        with pytest.raises(ValidationError, match="trace"):
            bad.validate()
