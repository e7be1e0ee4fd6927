"""Direct integration layer: oracles, Liouville identity, residuals."""

import numpy as np
import pytest

from quasispec.piecewise import PiecewisePoly as P
from quasispec.regularization import ExpressionSpec, build_associated_matrix, zero_expression
from quasispec.solutions import (
    _lambda_matrix,
    _magnus6_step,
    closed_form_zero_coeff,
    condensation_index,
    integrate_fundamental,
    residual_norm,
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
            h = 1.0 / nsteps
            C = np.eye(2, dtype=complex)
            for q in range(nsteps):
                C = _magnus6_step(F.evaluate, lam_mat, q * h, h) @ C
            return C

        ref = propagate(512)
        err_n = np.max(np.abs(propagate(16) - ref))
        err_2n = np.max(np.abs(propagate(32) - ref))
        assert err_n / err_2n >= 2 ** 5
        assert err_2n < 1e-7

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
        fm = integrate_fundamental(F, lam)
        assert residual_norm(F, fm) < 1e-6 * (1 + abs(lam))


def test_condensation_index():
    rhos = np.concatenate([np.arange(1, 30, 0.5), [3.1, 3.2, 3.3]])
    assert condensation_index(rhos) == 5
    assert condensation_index([]) == 0
