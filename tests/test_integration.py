"""Cross-module invariants: remainder decay, distribution-order pairs,
raw-matrix mode, condensation utilities."""

import numpy as np
import pytest

from quasispec.asymptotics import compute_d, pair_difference
from quasispec.birkhoff import birkhoff_fss
from quasispec.piecewise import PiecewisePoly as P
from quasispec.regularization import (
    AssociatedMatrix,
    ExpressionSpec,
    build_associated_matrix,
    conjugate_system,
    diag_correction,
)
from quasispec.sectors import sector_frame
from quasispec.spectrum import (
    BoundaryForm,
    BoundarySpec,
    ProblemSpec,
    locate_eigenvalues,
    weight_numbers,
)


class TestRemainderDecay:
    def test_E_decays_along_ray(self):
        # max_x ||E(x, rho)|| at |rho| = 200 below its value at 20
        fixtures = [
            ExpressionSpec(2, (1,), (P([0, 1], [[1.0, -2.0, 1.5]]),)),
            ExpressionSpec(3, (1, 0), (P([0, 1], [[0.4, 0.3]]),
                                       P([0, 0.6, 1], [[0.8], [0.1, -1.0]]))),
            ExpressionSpec(4, (0, 0, 0), (P.constant(0.8), P.constant(1.0),
                                          P.constant(-0.6))),
        ]
        for spec in fixtures:
            n = spec.n
            system = conjugate_system(build_associated_matrix(spec),
                                      sector_frame(n, 1))
            ray = np.exp(1j * np.pi / (2 * n))
            e20 = birkhoff_fss(system, 20.0 * ray).max_E()
            e200 = birkhoff_fss(system, 200.0 * ray).max_E()
            assert e200 < e20, (n, e20, e200)

    def test_paired_remainder_matches_diagonal_integral(self):
        # max_x ||rho^d E_hat(x,rho) - int_0^x diag(Ahat_d)|| decays
        sa = ExpressionSpec(4, (0, 0, 0), (P.constant(0.8), P.constant(1.0),
                                           P.constant(-0.6)))
        sb = ExpressionSpec(4, (0, 0, 0), (P.constant(0.8), P.constant(0.4),
                                           P.constant(-0.6)))
        d, _, _ = compute_d(sa, sb, 2)
        frame = sector_frame(4, 1)
        ca = conjugate_system(build_associated_matrix(sa), frame)
        cb = conjugate_system(build_associated_matrix(sb), frame)
        dc = diag_correction(sa, sb, d, frame)
        ray = np.exp(1j * np.pi / 8)

        def deviation(t):
            sol_a = birkhoff_fss(ca, t * ray)
            sol_b = birkhoff_fss(cb, t * ray)
            zh = sol_a.z - sol_b.z
            worst = 0.0
            for p in range(0, sol_a.xs.shape[0], 2):
                x = sol_a.xs[p, -1]
                got = (t * ray) ** d * zh[:, :, p, -1]
                want = np.diag([f.antiderivative_values(x) for f in dc])
                worst = max(worst, float(np.max(np.abs(got - want))))
            return worst

        lo, hi = deviation(25.0), deviation(100.0)
        assert hi < lo
        assert hi < 0.01


class TestDistributionOrderPair:
    def test_fourth_order_first_derivative_coefficients(self):
        # i = 1 everywhere: coefficients enter as first distributional
        # derivatives; the N_d0-empty pairing forces c_hat = 0 and the
        # scaled difference l^d |rho_hat| must decay
        base = (P.constant(0.5), P.constant(0.7), P.constant(-0.4))
        pert = (P([0, 0.5, 1], [[0.9], [0.3]]), P.constant(0.7),
                P.constant(-0.4))
        sa = ExpressionSpec(4, (1, 1, 1), pert)
        sb = ExpressionSpec(4, (1, 1, 1), base)
        d, N_d, N_d0 = compute_d(sa, sb, 1)
        assert d == 2  # n - 1 - (0 + i_0) with i_0 = 1
        assert N_d == (0,)
        assert N_d0 == ()
        forms = (BoundaryForm(0, 0), BoundaryForm(1, 0),
                 BoundaryForm(1, 1), BoundaryForm(1, 2))
        bnd = BoundarySpec(1, forms)
        ra = locate_eigenvalues(ProblemSpec(boundary=bnd, expression=sa),
                                l_max=20)
        rb = locate_eigenvalues(ProblemSpec(boundary=bnd, expression=sb),
                                l_max=20)
        pc = pair_difference(ra.data, rb.data, d, (4, 20), N_d, N_d0)
        scaled = np.abs(pc.ls ** d * pc.rho_hat)
        lo = np.max(scaled[pc.ls <= 8])
        hi = np.max(scaled[pc.ls >= 14])
        assert hi < lo  # c_hat = 0: the scaled difference keeps falling

    def test_sturm_liouville_distribution_potential(self):
        # n = 2, i_0 = 1: potential sigma'; constant sigma shifts nothing
        # but a step sigma moves eigenvalues (delta potential at the jump)
        step = P([0, 0.5, 1], [[0.0], [1.0]])
        forms = (BoundaryForm(0, 0), BoundaryForm(1, 0))
        bnd = BoundarySpec(1, forms)
        pa = ProblemSpec(boundary=bnd,
                         expression=ExpressionSpec(2, (1,), (step,)))
        ra = locate_eigenvalues(pa, l_max=6)
        # oracle: -y'' has delta potential of weight 1 at 1/2 (sign per
        # regularization); eigenvalues of y'' - delta_{1/2} y = lam y:
        # lam = -rho^2 with sin(rho/2)^2 shift: secular equation
        # rho sin(rho) = -sin^2(rho/2) ... checked numerically instead:
        # the even-index eigenfunctions vanish at 1/2 and stay exactly
        # at -(2k pi)^2
        for d_ in ra.data:
            if d_.l % 2 == 0:
                want = -(np.pi * d_.l) ** 2
                assert abs(d_.lam - want) < 1e-7 * abs(want)
            else:
                assert abs(d_.lam - (-(np.pi * d_.l) ** 2)) > 0.1


class TestRawMatrixMode:
    def test_matches_expression_route(self):
        # n = 2 with f_{2,1} = q: same spectrum from both constructions
        q = 2.0
        forms = (BoundaryForm(0, 0), BoundaryForm(1, 0))
        bnd = BoundarySpec(1, forms, weight=BoundaryForm(0, 1))
        z, one = P.zero(), P.constant(1.0)
        raw = AssociatedMatrix(2, ((z, one), (P.constant(q), z)))
        prob_raw = ProblemSpec(boundary=bnd, matrix=raw)
        # i_0 = 0: sigma_0 enters as multiplication operator: f_{2,1} = -sigma_0
        prob_expr = ProblemSpec(
            boundary=bnd,
            expression=ExpressionSpec(2, (0,), (P.constant(-q),)))
        res_raw = weight_numbers(locate_eigenvalues(prob_raw, l_max=6))
        res_expr = weight_numbers(locate_eigenvalues(prob_expr, l_max=6))
        for a, b in zip(res_raw.data, res_expr.data):
            assert abs(a.lam - b.lam) < 1e-9 * max(1.0, abs(a.lam))
            assert abs(a.beta - b.beta) < 1e-8 * abs(a.beta)

    def test_structural_validation(self):
        z, one = P.zero(), P.constant(1.0)
        with pytest.raises(Exception):
            bad = AssociatedMatrix(2, ((one, one), (z, z)))
            bad.validate()


class TestDeterminism:
    def test_repeat_runs_identical(self):
        forms = (BoundaryForm(0, 0), BoundaryForm(1, 0), BoundaryForm(1, 1))
        spec = ExpressionSpec(3, (1, 0), (P.zero(), P.constant(1.0)))
        prob = ProblemSpec(boundary=BoundarySpec(1, forms), expression=spec)
        r1 = locate_eigenvalues(prob, l_max=8)
        r2 = locate_eigenvalues(prob, l_max=8)
        for a, b in zip(r1.data, r2.data):
            assert a.rho == b.rho and a.lam == b.lam
