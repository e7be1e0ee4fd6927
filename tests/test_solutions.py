"""Direct integration layer: oracles, Liouville identity, residuals."""

import numpy as np
import pytest
from scipy.linalg import expm

from quasispec import solutions
from quasispec.errors import IntegrationError
from quasispec.piecewise import PiecewisePoly as P
from quasispec.regularization import ExpressionSpec, build_associated_matrix, zero_expression
from quasispec.solutions import (
    _GL3,
    _lambda_matrix,
    _magnus6_omegas,
    _step_counts,
    closed_form_zero_coeff,
    integrate_fundamental,
)


def build(n, indices, coeffs):
    return build_associated_matrix(ExpressionSpec(n, tuple(indices), tuple(coeffs)))


class TestClosedForm:
    def test_second_order_sine(self):
        # C_2(x, -pi^2) = sin(pi x)/pi, vanishes at 1
        C = closed_form_zero_coeff(2, -np.pi ** 2, np.array([0.5, 1.0]))
        assert C[0, 0, 1] == pytest.approx(1 / np.pi, rel=1e-12)
        assert abs(C[1, 0, 1]) < 1e-12

    def test_lambda_zero_polynomial(self):
        x = np.array([0.0, 0.3, 1.0])
        C = closed_form_zero_coeff(3, 0.0, x)
        for i, t in enumerate(x):
            expect = np.array([
                [1, t, t ** 2 / 2],
                [0, 1, t],
                [0, 0, 1],
            ])
            np.testing.assert_allclose(C[i], expect, atol=1e-14)

    def test_series_matches_exponential_route(self):
        # continuity across the representation switch
        x = np.linspace(0, 1, 5)
        for lam in (0.9, 1.1, 0.9j, -0.95):
            lo = closed_form_zero_coeff(3, lam, x, switch=1.0)
            hi = closed_form_zero_coeff(3, lam, x, switch=0.5)
            np.testing.assert_allclose(lo, hi, atol=1e-11)

    def test_initial_condition(self):
        C = closed_form_zero_coeff(5, 37.0 + 11j, np.array([0.0]))
        np.testing.assert_allclose(C[0], np.eye(5), atol=1e-10)

    def test_det_one(self):
        # lambda kept where the exponential spread stays below ~e^18;
        # beyond that det evaluation itself loses the identity in doubles
        x = np.linspace(0, 1, 7)
        cases = {2: (2.0, -2500.0, 60j), 3: (2.0, -900.0, 1e3j),
                 4: (2.0, -3e4, 1e4j)}
        for n, lams in cases.items():
            for lam in lams:
                C = closed_form_zero_coeff(n, lam, x)
                np.testing.assert_allclose(np.linalg.det(C), 1.0, atol=1e-8)


class TestIntegrateFundamental:
    def test_zero_coeff_agrees_with_oracle(self):
        x = np.linspace(0, 1, 9)
        for n in (2, 3, 4):
            F = build_associated_matrix(zero_expression(n))
            for lam in (1.0, -40.0, 200.0 + 35j, 1e4):
                fm = integrate_fundamental(F, lam, grid=x)
                oracle = closed_form_zero_coeff(n, lam, fm.grid)
                np.testing.assert_allclose(fm.values, oracle, atol=1e-10 * max(
                    1.0, float(np.max(np.abs(oracle)))))

    def test_sinh_exact(self):
        F = build_associated_matrix(zero_expression(2))
        lam = 7.3
        fm = integrate_fundamental(F, lam, grid=np.array([0.0, 1.0]))
        s = np.sqrt(lam)
        assert fm.at_one[0, 1] == pytest.approx(np.sinh(s) / s, rel=1e-11)

    def test_det_identity_piecewise(self):
        s0 = P([0, 0.5, 1], [[1.0], [0.0, 2.0]])
        s1 = P([0, 1], [[0.5, -1.0]])
        F = build(3, (1, 0), (s0, s1))
        fm = integrate_fundamental(F, -30.0 + 12j,
                                   grid=np.linspace(0, 1, 21))
        assert fm.det_deviation() < 1e-8

    def test_magnus_order(self):
        # sixth-order step: on a polynomial piece, halving the step cuts
        # the error against a fine reference by about 2^6 (4th order: 2^4)
        s0 = P([0, 1], [[1.0, 2.0, -3.0]])
        F = build(2, (0,), (s0,))
        lam_mat = _lambda_matrix(2, -180.0)

        def propagate(nsteps):
            return magnus_steps(F, lam_mat, 0.0, 1.0 / nsteps, nsteps,
                                np.eye(2, dtype=complex))

        ref = propagate(512)
        err_n = np.max(np.abs(propagate(16) - ref))
        err_2n = np.max(np.abs(propagate(32) - ref))
        assert err_n / err_2n >= 2 ** 5
        assert err_2n < 1e-7

    @pytest.mark.parametrize("chunk", [solutions.CHUNK_STEPS, 7])
    @pytest.mark.parametrize("lam_abs", [11.0, 221.0, 3e4])
    def test_batched_matches_sequential(self, monkeypatch, chunk, lam_abs):
        # chunked stacked expm and product tree against one expm per
        # step, applied in order; chunk 7 crosses chunk boundaries and
        # leaves odd stacks in the product tree
        monkeypatch.setattr(solutions, "CHUNK_STEPS", chunk)
        F = build(3, (1, 0), two_piece_quadratic())
        lam = lam_abs * np.exp(0.7j)
        fm = integrate_fundamental(F, lam, grid=np.linspace(0, 1, 9))
        np.testing.assert_allclose(
            fm.values, sequential_reference(F, lam, fm.grid),
            rtol=0, atol=1e-12 * np.max(np.abs(fm.values)))

    def test_stacked_expm_calls(self, monkeypatch):
        # at |lambda| = 1e7 the quadratic piece takes ~6,900 steps: two
        # stacked exponentials on it, and one scipy expm on the constant
        # piece's single step
        s1 = P([0, 0.8, 1], [[0.5, 1.0, -2.0], [1.0]])
        F = build(3, (1, 0), (P.zero(), s1))
        lam = 1e7
        sizes = {"_expm": [], "expm": []}

        def counted(name):
            f = getattr(solutions, name)

            def wrapped(A):
                sizes[name].append(len(A))
                return f(A)
            return wrapped

        for name in sizes:
            monkeypatch.setattr(solutions, name, counted(name))
        fm = integrate_fundamental(F, lam)
        counts = _step_counts(F.table, fm.grid, lam ** (1 / 3)).astype(int)
        chunk = solutions.CHUNK_STEPS
        expected = []
        for nsteps in counts[counts > 1]:
            full, rest = divmod(int(nsteps), chunk)
            expected += [chunk] * full + [rest] * (rest > 0)
        assert counts[0] > chunk and counts[1] == 1
        assert sizes == {"_expm": expected, "expm": [1]}

    def test_step_budget_checked_before_integrating(self, monkeypatch):
        # each piece fits MAX_STEPS alone, the two together do not
        s1 = P([0, 0.5, 1], [[0.0, 8400.0], [4200.0, 8400.0]])
        F = build(3, (1, 0), (P.zero(), s1))

        def no_expm(A):
            raise AssertionError("expm called before the budget check")

        monkeypatch.setattr(solutions, "_expm", no_expm)
        monkeypatch.setattr(solutions, "expm", no_expm)
        with pytest.raises(IntegrationError) as info:
            integrate_fundamental(F, 10.0)
        assert str(info.value) == "step budget exhausted (at x=0.5)"
        assert info.value.x == 0.5

    @pytest.mark.parametrize("lam_abs", [11.0, 221.0, 1.4e3, 3e4])
    def test_step_count_against_finer_reference(self, monkeypatch, lam_abs):
        # C(1) at the calibrated step count against eight times the steps;
        # at 3e4 the reference's Omegas have 1-norm ~4.7 before balancing,
        # where the unbalanced Pade approximant loses ~1e-8 entrywise
        F = build(3, (1, 0), two_piece_quadratic())
        lam = lam_abs * np.exp(0.7j)
        C1 = integrate_fundamental(F, lam).at_one
        monkeypatch.setattr(solutions, "STEPS_PER_SCALE",
                            8 * solutions.STEPS_PER_SCALE)
        ref = integrate_fundamental(F, lam).at_one
        assert np.max(np.abs(C1 - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_lambda_cap(self):
        F = build_associated_matrix(zero_expression(3))
        with pytest.raises(IntegrationError, match="direct-integration cap"):
            integrate_fundamental(F, 1.0001 * solutions.LAMBDA_MAX * 1j)

    def test_breakpoints_in_grid(self):
        s0 = P([0, 0.37, 1], [[1.0], [2.0]])
        F = build(2, (0,), (s0,))
        fm = integrate_fundamental(F, 5.0)
        assert 0.37 in fm.grid

    def test_residual(self):
        s0 = P([0, 0.5, 1], [[2.0], [0.0, 1.0]])
        s1 = P([0, 1], [[1.0]])
        F = build(3, (1, 0), (s0, s1))
        lam = -25.0 + 4j
        assert residual_loop(F, lam) < 1e-6 * (1 + abs(lam))


def random_stack(rng, n, norms):
    """Complex (len(norms), n, n) stack, slice k of 1-norm norms[k]."""
    shape = (len(norms), n, n)
    A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return A * (norms / one_norms(A))[:, None, None]


def one_norms(A):
    return np.abs(A).sum(axis=1).max(axis=1)


class TestStackedExpm:
    THETA = solutions._THETA13

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_pade_matches_scipy_per_slice(self, n):
        # 1-norms from 1e-3 up to theta_13, one stack
        A = random_stack(np.random.default_rng(n), n,
                         np.geomspace(1e-3, self.THETA, 40))
        for e, a in zip(solutions._pade13(A), A):
            ref = expm(a)
            assert np.max(np.abs(e - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("norms", [
        np.geomspace(1e-3, 0.999 * THETA, 20),   # every slice small
        np.geomspace(1.001 * THETA, 50.0, 9),    # every slice past theta
        np.geomspace(1e-3, 50.0, 30),            # both sides: mixed
    ])
    def test_route_and_values(self, monkeypatch, norms):
        # the Pade block runs only when no slice is past theta_13; scipy's
        # expm takes the whole stack otherwise
        A = random_stack(np.random.default_rng(len(norms)), 3, norms)
        calls = []

        def via(name, f):
            def wrapped(B):
                calls.append((name, len(B)))
                return f(B)
            return wrapped

        monkeypatch.setattr(solutions, "_pade13",
                            via("pade", solutions._pade13))
        monkeypatch.setattr(solutions, "expm", via("scipy", expm))
        E = solutions._expm(A)
        small = bool(np.all(one_norms(A) <= self.THETA))
        assert calls == [("pade" if small else "scipy", len(A))]
        for e, a in zip(E, A):
            ref = expm(a)
            assert np.max(np.abs(e - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_non_finite_slice_reaches_fallback(self, monkeypatch):
        A = random_stack(np.random.default_rng(3), 3,
                         np.array([0.5, 1.0, 0.5]))
        A[1, 2, 0] = np.inf

        def refused(B):
            raise AssertionError("Pade block ran on a non-finite slice")

        monkeypatch.setattr(solutions, "_pade13", refused)
        with np.errstate(over="ignore", invalid="ignore"):
            E = solutions._expm(A)
        assert not np.isfinite(E[1]).all()


def two_piece_quadratic():
    """sigma_0 = 0, sigma_1 a quadratic on each of [0, 0.4] and [0.4, 1]."""
    return (P.zero(), P([0, 0.4, 1], [[0.5, -1.0, 2.0], [1.5, 0.3, -0.8]]))


def magnus_steps(F, lam_mat, a, h, nsteps, C):
    """C after nsteps Magnus steps of length h from a: one expm per
    step, applied in order."""
    ts = (a + np.arange(nsteps) * h)[:, None] + h * _GL3
    for om in _magnus6_omegas(F.table, lam_mat, ts, h):
        C = expm(om) @ C
    return C


def sequential_reference(F, lam, grid):
    """C on the grid, one Magnus step at a time."""
    lam_mat = _lambda_matrix(F.n, lam)
    counts = _step_counts(F.table, grid, abs(lam) ** (1 / F.n)).astype(int)
    out = [np.eye(F.n, dtype=complex)]
    for a, b, nsteps in zip(grid[:-1], grid[1:], counts):
        out.append(magnus_steps(F, lam_mat, a, (b - a) / nsteps, nsteps, out[-1]))
    return np.array(out)


def residual_loop(F, lam):
    """Mean over 257 uniform points of max |C'(x) - (F(x)+Lambda) C(x)|.

    C is integrated on the points joined with the breakpoints, and C' is
    a seven-point sixth-order central difference; points within 3.5
    steps of a breakpoint, where C' jumps, are skipped.
    """
    bp = F.breakpoints()
    x = np.linspace(0.0, 1.0, 257)
    fm = integrate_fundamental(F, lam, grid=np.union1d(x, bp))
    Cu = np.array([fm.values[np.searchsorted(fm.grid, t)] for t in x])
    h = x[1] - x[0]
    w = np.array([-1, 9, -45, 0, 45, -9, 1]) / 60.0
    Ms = F.evaluate(x) + _lambda_matrix(F.n, lam)
    total, count = 0.0, 0
    for i in range(3, len(x) - 3):
        if np.min(np.abs(bp - x[i])) < 3.5 * h:
            continue
        dC = sum(w[j] * Cu[i - 3 + j] for j in range(7)) / h
        total += float(np.max(np.abs(dC - Ms[i] @ Cu[i])))
        count += 1
    return total / max(count, 1)
