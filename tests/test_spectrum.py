"""Determinants, winding counts, eigenvalue location, weight numbers."""

import gc
import re
import weakref

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq

from quasispec.errors import (
    ConfigurationError,
    ContourError,
    IntegrationError,
    RootSearchError,
    ValidationError,
)
from quasispec.piecewise import PiecewisePoly as P
from quasispec.regularization import ExpressionSpec, zero_expression
from quasispec.asymptotics import asymptotic_model
from quasispec.spectrum import (
    BoundaryForm,
    BoundarySpec,
    DeterminantEvaluator,
    ProblemSpec,
    boundary_form,
    count_zeros,
    delta_derivative,
    disk_contour,
    locate_eigenvalues,
    rect_contour,
    weight_numbers,
)
from quasispec.solutions import _expm


def dirichlet2(weight_p=None):
    forms = (BoundaryForm(0, 0), BoundaryForm(1, 0))
    w = BoundaryForm(0, weight_p) if weight_p is not None else None
    return ProblemSpec(boundary=BoundarySpec(1, forms, w),
                       expression=zero_expression(2))


def clamped4():
    forms = (BoundaryForm(0, 0), BoundaryForm(0, 1),
             BoundaryForm(1, 0), BoundaryForm(1, 1))
    return ProblemSpec(boundary=BoundarySpec(2, forms),
                       expression=zero_expression(4))


def third_order(c1=0.0):
    forms = (BoundaryForm(0, 0), BoundaryForm(1, 0), BoundaryForm(1, 1))
    coeffs = (P.zero(), P.constant(c1)) if c1 else (P.zero(), P.zero())
    return ProblemSpec(boundary=BoundarySpec(1, forms),
                       expression=ExpressionSpec(3, (1, 0), coeffs))


def char_delta(problem, lam, bullet=False):
    """Delta(lambda), or Delta_bullet(lambda) with bullet=True, on the
    direct route of a fresh evaluator."""
    model = asymptotic_model(problem.n, problem.boundary.r,
                             problem.boundary.p_list)
    return DeterminantEvaluator(problem, model).delta(lam, bullet=bullet)


def laplace_gap(ev, rc, bullet=False):
    """Relative gap of the identity Delta det Y(0) = rho^P exp(rho w*)
    d_norm at rho_check rc, Y(0) = diag(rho^j) Omega."""
    model, n = ev.model, ev.n
    rho = rc * model.e_dir
    lhs = (ev.delta(model.sign * rc ** n, bullet=bullet)
           * np.prod([rho ** j for j in range(n)])
           * np.linalg.det(model.frame.Omega))
    rhs = (rho ** sum(model.p_list)
           * np.exp(rho * np.sum(model.frame.omegas[model.r:]))
           * ev.d_norm(rc, bullet=bullet))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def nilpotent_n2():
    """n = 2, constant sigma, and the rho_check at which rho B + A is a
    nonzero nilpotent matrix (det(F + Lambda) = 0): defective, so no
    eigenvector basis crosses the piece."""
    prob = ProblemSpec(
        boundary=BoundarySpec(1, (BoundaryForm(0, 0), BoundaryForm(1, 0))),
        expression=ExpressionSpec(2, (0,), (P.constant(3.0),)))
    model = asymptotic_model(2, 1, (0, 0))
    F = prob.F.table(0.5)
    return prob, model, model.rho_of_lambda(np.linalg.det(F) / F[0, 1])


def beam_roots(count):
    roots = []
    g = lambda r: np.cos(r) * np.cosh(r) - 1.0
    x = 3.0
    while len(roots) < count:
        if g(x) * g(x + 0.25) < 0:
            roots.append(brentq(g, x, x + 0.25, xtol=1e-13))
        x += 0.25
    return roots


class TestBoundaryData:
    def test_form_validation(self):
        with pytest.raises(ValidationError):
            BoundaryForm(2, 0)
        with pytest.raises(ValidationError):
            BoundaryForm(0, 1, u=(1.0, 2.0))

    def test_spec_side_order(self):
        with pytest.raises(ValidationError):
            BoundarySpec(1, (BoundaryForm(1, 0), BoundaryForm(0, 0)))

    def test_duplicate_orders(self):
        with pytest.raises(ValidationError):
            BoundarySpec(1, (BoundaryForm(0, 0), BoundaryForm(1, 1),
                             BoundaryForm(1, 1)))

    def test_weight_p_clash(self):
        with pytest.raises(ValidationError, match="p0"):
            BoundarySpec(1, (BoundaryForm(0, 0), BoundaryForm(1, 0)),
                         weight=BoundaryForm(0, 0))

    def test_boundary_form_values(self):
        col = np.array([2.0, 3.0, 5.0])
        assert boundary_form(BoundaryForm(0, 0), col) == 2.0
        assert boundary_form(BoundaryForm(0, 2), col) == 5.0
        assert boundary_form(BoundaryForm(0, 2, u=(10.0, 100.0)), col) == \
            pytest.approx(5.0 + 20.0 + 300.0)
        # a matrix (one column per solution) gives one row
        mat = np.outer(col, [1.0, -1.0j])
        np.testing.assert_array_equal(
            boundary_form(BoundaryForm(0, 2, u=(10.0, 100.0)), mat),
            np.array([325.0, -325.0j]))

    def test_problem_requires_one_operator(self):
        forms = (BoundaryForm(0, 0), BoundaryForm(1, 0))
        with pytest.raises(ValidationError):
            ProblemSpec(boundary=BoundarySpec(1, forms))


class TestCharDelta:
    def test_dirichlet_values(self):
        prob = dirichlet2()
        assert char_delta(prob, -np.pi ** 2) == pytest.approx(0.0, abs=1e-10)
        assert char_delta(prob, 0.0) == pytest.approx(1.0, rel=1e-10)

    def test_beam_root(self):
        prob = clamped4()
        r1 = beam_roots(1)[0]
        assert abs(char_delta(prob, r1 ** 4)) < 1e-6 * abs(char_delta(
            prob, (r1 + 0.3) ** 4))

    def test_bullet_closed_forms(self):
        # rows (U_0, U_2): determinant equals -C_1(1, lam) = -cosh(sqrt lam)
        prob = dirichlet2(weight_p=1)
        assert char_delta(prob, -np.pi ** 2, bullet=True) == pytest.approx(
            1.0, rel=1e-10)
        assert char_delta(prob, 0.0, bullet=True) == pytest.approx(
            -1.0, rel=1e-10)

    def test_bullet_requires_weight(self):
        with pytest.raises(ConfigurationError):
            char_delta(dirichlet2(), 1.0, bullet=True)

    def test_factored_route_matches_direct(self):
        # one identity on both routes: Delta * det Y(0) = rho^P exp(rho w*)
        # d_norm, with P the plain rows' orders (for the bullet rows too)
        # and Y(0) = diag(rho^j) Omega
        jump = lambda a, c: P([0.0, 0.45, 1.0], [[a], [c]])
        # r = 2, jump coefficients, u-terms on both sides: 6 column pairs
        fourth = ProblemSpec(
            boundary=BoundarySpec(2, (
                BoundaryForm(0, 0), BoundaryForm(0, 2, u=(0.5, -0.3)),
                BoundaryForm(1, 1, u=(0.7,)), BoundaryForm(1, 3))),
            expression=ExpressionSpec(4, (0, 0, 0), (
                jump(0.7, -0.4), jump(-0.3, 0.9), jump(0.5, 0.2))))
        weighted = ProblemSpec(
            boundary=BoundarySpec(1, third_order().boundary.forms,
                                  BoundaryForm(0, 2, u=(0.4, 0.0))),
            expression=ExpressionSpec(3, (1, 0), (P.constant(0.6),
                                                  P.constant(1.2))))
        linear = ProblemSpec(
            boundary=BoundarySpec(1, third_order().boundary.forms,
                                  BoundaryForm(0, 1)),
            expression=ExpressionSpec(3, (1, 0), (
                P.zero(), P([0.0, 1.0], [[0.5, 0.8]]))))
        for prob, rcs, bullet, exact in (
                (third_order(c1=1.0), (8.0 + 0.1j, 11.0 - 0.3j), False, True),
                (fourth, (6.0 + 0.2j, 9.0 - 0.1j), False, True),
                (weighted, (8.0 + 0.1j, 11.0 - 0.3j), True, True),
                (linear, (8.0 + 0.1j, 11.0 - 0.3j), True, False)):
            n, b = prob.n, prob.boundary
            model = asymptotic_model(n, b.r, b.p_list)
            ev = DeterminantEvaluator(prob, model)
            assert ev.exact == exact
            wstar = np.sum(model.frame.omegas[model.r:])
            for rc in rcs:
                rho = rc * model.e_dir
                direct = ev.delta(model.sign * rc ** n, bullet=bullet)
                detY0 = (np.prod([rho ** j for j in range(n)])
                         * np.linalg.det(model.frame.Omega))
                lhs = direct * detY0
                rhs = (rho ** sum(model.p_list) * np.exp(rho * wstar)
                       * ev.d_norm(rc, bullet=bullet))
                # the plain determinant cancels: the sides are 4e-10 apart
                # at rc = 11 on `linear`
                assert abs(lhs - rhs) < 1e-7 * max(abs(lhs), abs(rhs))

    def test_exact_route_fails_typed(self):
        # the exponential of the additive compound needs no eigenvectors:
        # the defective rho B + A evaluates like its neighbours, and only a
        # non-finite one (at a subnormal rho) fails
        prob, model, defective = nilpotent_n2()
        ev = DeterminantEvaluator(prob, model)
        for rc in (defective, defective * (1 + 1e-6)):
            assert laplace_gap(ev, rc) < 1e-12
        with pytest.raises(IntegrationError, match="not finite"):
            ev.d_norm(1e-310)

    def test_factored_laplace_identity_zero_coeff(self):
        # for zero coefficients both routes are exact: compare absolutely
        prob = third_order()
        model = asymptotic_model(3, 1, (0, 0, 1))
        ev = DeterminantEvaluator(prob, model)
        for rc in (3.0, 5.0 + 0.4j, 9.0 - 0.2j):
            lam = model.sign * rc ** 3
            direct = ev.delta(lam)
            om = model.frame.omegas
            rho = rc * model.e_dir
            wstar = np.sum(om[model.r:])
            # conversion factor: det A = 1/det Y(0); Y(0) = diag(rho^j) Omega
            detY0 = np.prod([rho ** j for j in range(3)]) * np.linalg.det(model.frame.Omega)
            lhs = direct * detY0
            rhs = rho ** sum(model.p_list) * np.exp(rho * wstar) * ev.d_norm(rc)
            assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), abs(rhs))


class TestCompound:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exp_of_additive_compound_is_compound_of_exp(self, n):
        # exp(h M^[n-r]) from the evaluator's coefficient tensor equals the
        # minors det exp(h M)[S, T] for every r, on a random M and on a
        # Jordan block, which has no eigenvector basis
        rng = np.random.default_rng(n)
        h = 0.7
        for r in range(1, n):
            forms = (tuple(BoundaryForm(0, p) for p in range(r))
                     + tuple(BoundaryForm(1, p) for p in range(n - r)))
            prob = ProblemSpec(boundary=BoundarySpec(r, forms),
                               expression=zero_expression(n))
            ev = DeterminantEvaluator(
                prob, asymptotic_model(n, r, prob.boundary.p_list))
            subsets = ev._laplace[0]
            for M in (rng.standard_normal((n, n))
                      + 1j * rng.standard_normal((n, n)),
                      (0.8j - 0.3) * np.eye(n) + np.eye(n, k=1)):
                E = _expm(h * np.tensordot(M, ev._compound, axes=2)[None])[0]
                C = np.linalg.det(expm(h * M)[subsets[:, None, :, None],
                                              subsets[None, :, None, :]])
                assert E.shape == (len(subsets),) * 2
                assert np.max(np.abs(E - C)) <= 1e-13 * np.max(np.abs(C))


class TestExactRouteOracle:
    """The exact route against 50 digits of mpmath, on an n = 4 jump
    problem shaped like the strip-n4 benchmark: Delta from the product
    of mp.expm((F + Lambda) h) over the pieces, with F the library's
    associated matrix on each piece."""

    BREAKS = (0.0, 0.45, 1.0)

    @classmethod
    def problem(cls):
        jump = lambda a, c: P(list(cls.BREAKS), [[a], [c]])
        forms = (BoundaryForm(0, 1), BoundaryForm(1, 0), BoundaryForm(1, 2),
                 BoundaryForm(1, 3))
        return ProblemSpec(
            boundary=BoundarySpec(1, forms),
            expression=ExpressionSpec(4, (0, 0, 0), (
                jump(0.7, -0.4), jump(-0.3, 0.9), jump(0.5, 0.2))))

    @classmethod
    def reference(cls, mp, prob, model, rho):
        """Delta det V rho^(-P) exp(-rho omega*) at rho, to 50 digits
        past the exp(2 |rho|) cancellation of the plain determinant."""
        n, b = prob.n, prob.boundary
        with mp.workdps(50 + int(np.ceil(2 * abs(rho) / np.log(10)))):
            rho = mp.mpc(rho)
            C = mp.eye(n)
            for a, c in zip(cls.BREAKS[:-1], cls.BREAKS[1:]):
                F = prob.F.table(0.5 * (a + c))
                M = mp.matrix([[mp.mpc(complex(v)) for v in row] for row in F])
                M[n - 1, 0] += rho ** n
                C = mp.expm(M * (mp.mpf(c) - mp.mpf(a))) * C
            U = mp.matrix(n, n)
            for s, f in enumerate(b.forms):
                end = mp.eye(n) if f.side == 0 else C
                for k in range(n):
                    U[s, k] = end[f.p, k] + sum(mp.mpc(u) * end[j, k]
                                                for j, u in enumerate(f.u))
            om = [mp.mpc(complex(w)) for w in model.frame.omegas]
            detV = (mp.det(mp.matrix([[w ** j for w in om] for j in range(n)]))
                    * rho ** (n * (n - 1) // 2))
            return (mp.det(U) * detV * rho ** -sum(b.p_list)
                    * mp.exp(-rho * sum(om[model.r:])))

    def test_d_norm_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        prob = self.problem()
        model = asymptotic_model(4, 1, prob.boundary.p_list)
        ev = DeterminantEvaluator(prob, model)
        assert ev.exact
        for rc in (180.0 + 0.3j, 400.0 - 0.2j):
            want = complex(self.reference(mp, prob, model, rc * model.e_dir))
            assert abs(ev.d_norm(rc) - want) < 1e-10 * abs(want)

    def test_root_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        prob = self.problem()
        res = locate_eigenvalues(prob, l_min=40, l_max=40)
        (d,) = res.data
        e_dir = res.model.e_dir
        with mp.workdps(30):
            root = complex(mp.findroot(
                lambda rc: self.reference(mp, prob, res.model, rc * e_dir),
                mp.mpc(d.rho), tol=mp.mpf(10) ** -25, verify=False))
        assert abs(d.rho - root) < 1e-12 * abs(root)


class TestDirectRouteOracle:
    """A direct-route root against mpmath, on an n = 3 problem shaped like
    the lowdisk-poly3 benchmark: a quadratic sigma_1, and C(1) summed as
    the Taylor series of y' = (F + Lambda) y at 30 digits, with F the
    library's associated matrix."""

    @staticmethod
    def problem():
        sigma1 = P([0, 1], [[0.48, 0.33, -0.054]])
        forms = (BoundaryForm(0, 0), BoundaryForm(1, 0), BoundaryForm(1, 1))
        return ProblemSpec(boundary=BoundarySpec(1, forms),
                           expression=ExpressionSpec(3, (1, 0),
                                                     (P.zero(), sigma1)))

    @staticmethod
    def delta(mp, prob, rho):
        """det[U_s(C)] at lambda = rho^n; C(1) = sum of c_k with
        (k + 1) c_(k+1) = sum_d F_d c_(k-d), F_0 carrying Lambda."""
        n, b = prob.n, prob.boundary
        npow = max(len(e.coeffs[0]) for row in prob.F.entries for e in row)
        coef = lambda e, d: (mp.mpc(complex(e.coeffs[0][d]))
                             if d < len(e.coeffs[0]) else 0)
        Fd = [mp.matrix([[coef(e, d) for e in row] for row in prob.F.entries])
              for d in range(npow)]
        Fd[0][n - 1, 0] += mp.mpc(rho) ** n
        terms, C = [mp.eye(n)], mp.eye(n)
        while len(terms) < 8 or mp.mnorm(terms[-1], 1) > mp.eps * mp.mnorm(C, 1):
            k = len(terms) - 1
            nxt = sum((Fd[d] * terms[k - d] for d in range(min(npow, k + 1))),
                      mp.zeros(n)) / (k + 1)
            terms.append(nxt)
            C += nxt
        U = mp.matrix(n, n)
        for s, f in enumerate(b.forms):
            end = mp.eye(n) if f.side == 0 else C
            for k in range(n):
                U[s, k] = end[f.p, k]
        return mp.det(U)

    def test_root_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        prob = self.problem()
        res = locate_eigenvalues(prob, l_min=1, l_max=1)
        (d,) = res.data
        assert DeterminantEvaluator(prob, res.model).is_direct(abs(d.rho))
        e_dir = res.model.e_dir
        with mp.workdps(30):
            root = complex(mp.findroot(
                lambda rc: self.delta(mp, prob, rc * e_dir),
                mp.mpc(d.rho), tol=mp.mpf(10) ** -25, verify=False))
        assert abs(d.rho - root) < 1e-12 * abs(root)

    def test_surrogate_counted_roots_against_mpmath(self):
        # the l = 2, 3, 4 strip boxes lie past direct_limit: each is
        # counted and seeded on the surrogate of F, and its root polished
        # by the factored solve
        from quasispec.spectrum import BOX_HALF_HEIGHT_FACTOR
        mp = pytest.importorskip("mpmath")
        prob = self.problem()
        res = locate_eigenvalues(prob, l_min=2, l_max=4)
        ev = DeterminantEvaluator(prob, res.model)
        growth, e_dir = res.model.growth, res.model.e_dir
        assert [d.l for d in res.data] == [2, 3, 4] and res.n_low == 1
        for d in res.data:
            outer = (abs(growth * (d.l + res.chi_cal))
                     + (0.5 + 4 * BOX_HALF_HEIGHT_FACTOR) * growth)
            assert not ev.is_direct(outer)
            with mp.workdps(30):
                root = complex(mp.findroot(
                    lambda rc: self.delta(mp, prob, rc * e_dir),
                    mp.mpc(d.rho), tol=mp.mpf(10) ** -25, verify=False))
            assert abs(d.rho - root) < 1e-11 * abs(root)


class TestContours:
    def test_disk_counts(self):
        prob = dirichlet2()
        f = lambda lam: char_delta(prob, lam)
        c1, _ = count_zeros(f, disk_contour(-np.pi ** 2, 1.0))
        assert c1 == 1
        c0, _ = count_zeros(f, disk_contour(0.0, 1.0))
        assert c0 == 0

    def test_strip_box_two_roots(self):
        r1, r2 = beam_roots(2)
        prob = clamped4()
        model = asymptotic_model(4, 2, (0, 1, 0, 1))
        ev = DeterminantEvaluator(prob, model)
        f = ev.box_function(outer_radius=r2 + 2.0)
        pts = rect_contour(r1 - 0.5, r2 + 0.5, -1.0, 1.0, m=12)
        cnt, _ = count_zeros(f, pts)
        assert cnt == 2

    def test_polynomial_winding(self):
        f = lambda z: (z - 0.3) ** 2 * (z + 0.2 - 0.1j)
        cnt, _ = count_zeros(f, disk_contour(0.0, 1.0))
        assert cnt == 3

    def test_contour_touching_zero_retries(self):
        f = lambda z: z - 1.0
        # zero exactly on the contour: dilation must rescue the count
        cnt, _ = count_zeros(f, disk_contour(0.0, 1.0))
        assert cnt in (0, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [complex(1e308, 1e308), complex(1e308, np.inf),
                                       complex(np.nan, 0.0)])
    def test_non_finite_values_are_contour_error(self, value):
        # the ratio of two 1e308 + 1e308j values overflows: no NaN winding
        # and no numpy warning; dilation cannot help, so the 65-point
        # contour is evaluated once
        calls = []

        def f(z):
            calls.extend(np.ravel(z))
            return np.full(np.shape(z), value)

        with pytest.raises(ContourError, match="not finite"):
            count_zeros(f, disk_contour(0.0, 1.0))
        assert len(calls) == 65

    def test_vanishing_values_fail_on_first_pass(self):
        calls = []

        def f(z):
            calls.extend(np.ravel(z))
            return np.zeros(np.shape(z))

        with pytest.raises(ContourError, match="vanishes"):
            count_zeros(f, disk_contour(0.0, 1.0))
        assert len(calls) == 65


class TestDeltaDerivative:
    def test_linear(self):
        assert delta_derivative(lambda z: z, 0.0, 0.5) == pytest.approx(1.0)

    def test_dirichlet_analytic(self):
        # d/dlam [sinh(sqrt lam)/sqrt lam] at lam_1 = -pi^2 equals
        # -cos(pi)/(2 pi^2) in modulus
        prob = dirichlet2()
        f = lambda lam: char_delta(prob, lam)
        der = delta_derivative(f, -np.pi ** 2, 2.0)
        assert abs(der) == pytest.approx(1.0 / (2 * np.pi ** 2), rel=1e-8)

    def test_matches_finite_difference(self):
        prob = third_order(c1=1.0)
        f = lambda lam: char_delta(prob, lam)
        lam0 = 40.0 + 3.0j
        der = delta_derivative(f, lam0, 1.5)
        h = 1e-5 * abs(lam0)
        fd = (f(lam0 + h) - f(lam0 - h)) / (2 * h)
        assert abs(der - fd) < 1e-6 * abs(der)


class TestLocate:
    def test_dirichlet_classical(self):
        res = locate_eigenvalues(dirichlet2(), l_max=20)
        assert res.chi_cal == pytest.approx(0.0, abs=1e-12)
        for d in res.data:
            want = -(np.pi * d.l) ** 2
            assert abs(d.lam - want) < 1e-8 * abs(want)
            assert d.multiplicity == 1

    def test_beam(self):
        res = locate_eigenvalues(clamped4(), l_max=5)
        for d, want in zip(res.data, beam_roots(5)):
            assert abs(d.rho - want) < 1e-6

    def test_third_order_prediction_track(self):
        res = locate_eigenvalues(third_order(), l_max=12)
        growth = res.model.growth
        for d in res.data:
            if d.l >= 4:
                assert abs(d.rho - growth * (d.l + 1.0 / 6.0)) < 1e-6

    @pytest.mark.parametrize("n, r, p_list", [(3, 1, (0, 0, 1)),
                                              (4, 1, (1, 0, 2, 3))])
    def test_low_root_on_the_negative_axis(self, n, r, p_list):
        # sign lambda negative real up to roundoff: the root at arg pi / n,
        # whatever the sign of the roundoff or of a zero imaginary part
        from quasispec.spectrum import _low_rho
        model = asymptotic_model(n, r, p_list)
        lam = -model.sign * 0.82523
        rhos = {_low_rho(model, lam * w)
                for w in (1 + 1e-28j, 1 - 1e-28j, complex(1, 0.0),
                          complex(1, -0.0), 1 + 8e-13j)}
        (rho,) = rhos
        assert abs(np.angle(rho) - np.pi / n) < 1e-15
        assert abs(model.sign * rho ** n - lam) < 1e-15
        # off that axis, and at 0, rho_of_lambda's root
        for lam in (0.0, model.sign * 0.82523, lam * (1 + 1e-6j)):
            want = model.rho_of_lambda(lam) if lam != 0 else 0.0
            assert _low_rho(model, lam) == want

    def test_no_evaluator_outlives_its_stage(self, monkeypatch):
        # the result carries data and the problem, not the solver state
        # (determinant caches, conjugated system) of locating or weights
        from quasispec import spectrum
        refs = []

        class Recorded(DeterminantEvaluator):
            def __init__(self, *args):
                super().__init__(*args)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(spectrum, "DeterminantEvaluator", Recorded)
        res = locate_eigenvalues(dirichlet2(weight_p=1), l_max=5)
        gc.collect()
        assert refs and all(ref() is None for ref in refs)
        res = weight_numbers(res)
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert all(d.beta is not None for d in res.data)

    def test_l_min_filter(self):
        res = locate_eigenvalues(dirichlet2(), l_max=6, l_min=4)
        assert [d.l for d in res.data] == [4, 5, 6]

    def test_residual_contract(self):
        # every refined root satisfies |f| << boundary scale
        prob = clamped4()
        res = locate_eigenvalues(prob, l_max=5)
        model = res.model
        ev = DeterminantEvaluator(prob, model)
        for d in res.data:
            if d.l <= 2:
                continue
            f = ev.box_function(abs(d.rho) + 1.0)
            pts = rect_contour(d.rho.real - 0.5 * model.growth,
                               d.rho.real + 0.5 * model.growth,
                               d.rho.imag - 1.0, d.rho.imag + 1.0, m=8)
            boundary = max(abs(f(z)) for z in pts)
            assert abs(f(d.rho)) < 1e-9 * max(1.0, boundary)

    def test_count_equals_refined(self):
        # argument-principle count over the union of boxes equals the
        # number of refined roots: no loss, no duplication
        prob = third_order()
        res = locate_eigenvalues(prob, l_max=8)
        model = res.model
        ev = DeterminantEvaluator(prob, model)
        lo, hi = 4, 8
        f = ev.box_function(model.growth * (hi + 1.0))
        x0 = model.growth * (lo - 0.5 + float(np.real(res.chi_cal)))
        x1 = model.growth * (hi + 0.5 + float(np.real(res.chi_cal)))
        cnt, _ = count_zeros(f, rect_contour(x0, x1, -2.0, 2.0, m=24))
        got = sum(1 for d in res.data if lo <= d.l <= hi)
        assert cnt == got


class TestWeights:
    def test_dirichlet_weights(self):
        prob = dirichlet2(weight_p=1)
        res = weight_numbers(locate_eigenvalues(prob, l_max=15))
        for d in res.data:
            want = -2.0 * (np.pi * d.l) ** 2
            assert abs(d.beta - want) < 1e-6 * abs(want)

    def test_requires_weight_form(self):
        prob = dirichlet2()
        res = locate_eigenvalues(prob, l_max=3)
        with pytest.raises(ConfigurationError):
            weight_numbers(res)

    def test_direct_and_strip_routes_agree(self):
        # n=4 fixture where both routes are usable at moderate index
        forms = (BoundaryForm(0, 0), BoundaryForm(1, 0),
                 BoundaryForm(1, 1), BoundaryForm(1, 2))
        bnd = BoundarySpec(1, forms, weight=BoundaryForm(0, 2))
        coeffs = (P.constant(0.8), P.constant(1.0), P.constant(-0.6))
        prob = ProblemSpec(boundary=bnd,
                           expression=ExpressionSpec(4, (0, 0, 0), coeffs))
        res = locate_eigenvalues(prob, l_max=4)
        model = res.model
        from quasispec.spectrum import _ratio_and_residue, _run
        ev = DeterminantEvaluator(prob, model)
        d = res.data[1]
        assert abs(d.rho) < ev.direct_limit
        radius = 0.1 * model.growth * abs(4 * d.rho ** 3)
        b1, r1 = _run(_ratio_and_residue(ev.lambda_function(0.0), d.lam,
                                         radius))
        b2, r2 = _run(_ratio_and_residue(ev.lambda_function(np.inf), d.lam,
                                         radius))
        assert abs(b1 - b2) < 1e-7 * abs(b1)
        assert abs(r1 - b1) < 1e-8 * abs(b1)
        assert abs(r2 - b2) < 1e-8 * abs(b2)

    def test_weight_at_lambda_zero(self):
        # y''' = lambda y, y'(0) = y'(1) = y''(1) = 0: the constants make
        # lambda_1 = 0, a root that a rho-circle would wind n times round
        forms = (BoundaryForm(0, 1), BoundaryForm(1, 1), BoundaryForm(1, 2))
        prob = ProblemSpec(boundary=BoundarySpec(1, forms, BoundaryForm(0, 0)),
                           expression=zero_expression(3))
        res = weight_numbers(locate_eigenvalues(prob, l_max=4))
        d = res.data[0]
        assert abs(d.lam) < 1e-8
        assert abs(d.beta + 2.0) < 1e-9

    @pytest.mark.parametrize("coeff, factored_circles", [
        (P.constant(1.1), 0), (P([0.0, 1.0], [[1.1, 0.6]]), 6)],
        ids=["constant", "linear"])
    def test_one_circle_of_solves_per_weight(self, monkeypatch, coeff,
                                             factored_circles):
        # a weight costs its circle's RESIDUE_POINTS solves, shared by the
        # plain and bullet rows, on any route: a lambda of a direct
        # integration, a point of an exact-route carry (constant
        # coefficients) or of a factored solve (a linear one), whose carry
        # then solves nothing more; each call takes a batch of lambda or rho
        from quasispec import spectrum
        forms = (BoundaryForm(0, 0), BoundaryForm(1, 0), BoundaryForm(1, 1))
        prob = ProblemSpec(
            boundary=BoundarySpec(1, forms, BoundaryForm(0, 1)),
            expression=ExpressionSpec(3, (1, 0), (P.constant(0.4), coeff)))
        res = locate_eigenvalues(prob, l_max=8)
        ev = DeterminantEvaluator(prob, res.model)
        assert any(abs(d.rho) <= ev.direct_limit for d in res.data)
        assert any(abs(d.rho) > ev.direct_limit for d in res.data)
        points = {}

        def counted(name, solve):
            def call(*args, **kwargs):
                points[name] = points.get(name, 0) + np.size(args[1])
                return solve(*args, **kwargs)
            return call

        for name in ("integrate_fundamental", "fss_ends",
                     "closed_form_zero_coeff"):
            monkeypatch.setattr(spectrum, name,
                                counted(name, getattr(spectrum, name)))
        monkeypatch.setattr(DeterminantEvaluator, "_carry",
                            counted("_carry", DeterminantEvaluator._carry))
        out = weight_numbers(res)
        assert all(d.beta is not None for d in out.data)
        factored = factored_circles * spectrum.RESIDUE_POINTS
        assert points.get("fss_ends", 0) == factored
        if factored:
            assert points["_carry"] == factored
        direct = (points.get("integrate_fundamental", 0)
                  + points.get("closed_form_zero_coeff", 0))
        assert direct + points["_carry"] == (
            spectrum.RESIDUE_POINTS * len(out.data))

    def test_constant_pieces_need_no_factored_solve(self, monkeypatch):
        # past direct_limit, constant coefficients take the exact route;
        # a polynomial coefficient still takes the factored solve
        from quasispec import spectrum
        forms = (BoundaryForm(0, 0), BoundaryForm(1, 0), BoundaryForm(1, 1))
        boundary = BoundarySpec(1, forms, BoundaryForm(0, 1))

        def problem(coeff):
            return ProblemSpec(boundary=boundary, expression=ExpressionSpec(
                3, (1, 0), (P.constant(0.4), coeff)))

        def refused(system, rho):
            raise AssertionError(f"factored solve at rho = {rho}")

        monkeypatch.setattr(spectrum, "fss_ends", refused)
        res = weight_numbers(locate_eigenvalues(problem(P.constant(1.1)),
                                                l_max=5))
        ev = DeterminantEvaluator(res.problem, res.model)
        assert abs(res.data[-1].rho) > ev.direct_limit
        assert all(d.beta is not None for d in res.data)
        with pytest.raises(AssertionError, match="factored solve"):
            locate_eigenvalues(problem(P([0.0, 1.0], [[1.1, 0.6]])), l_max=5)

    def test_weight_circle_routed_by_its_far_side(self, monkeypatch):
        # l = 3 lies inside direct_limit, but its weight circle reaches
        # past it, so the whole circle takes the factored route
        from quasispec.spectrum import _ratio_and_residue, _run
        forms = (BoundaryForm(0, 0), BoundaryForm(1, 0), BoundaryForm(1, 1))
        prob = ProblemSpec(
            boundary=BoundarySpec(1, forms, BoundaryForm(0, 1)),
            expression=ExpressionSpec(3, (1, 0), (P.constant(0.4),
                                                  P.constant(1.1))))
        res = locate_eigenvalues(prob, l_max=6)
        ev = DeterminantEvaluator(prob, res.model)
        lams = np.array([d.lam for d in res.data])
        d = res.data[2]
        spacing = 0.25 * res.model.growth * abs(3 * d.rho ** 2)
        radius = min(0.3 * np.min(np.abs(np.delete(lams, 2) - d.lam)), spacing)
        assert abs(d.rho) < ev.direct_limit
        assert (abs(d.lam) + radius) ** (1 / 3) > ev.direct_limit
        plain = []
        delta = DeterminantEvaluator.delta

        def recorded(self, lam, bullet=False):
            plain.extend(np.ravel(lam))
            return delta(self, lam, bullet=bullet)

        monkeypatch.setattr(DeterminantEvaluator, "delta", recorded)
        out = weight_numbers(res)
        assert plain and not any(abs(lam - d.lam) < 2 * radius for lam in plain)
        ratio, _ = _run(_ratio_and_residue(ev.lambda_function(np.inf), d.lam,
                                           radius))
        assert abs(out.data[2].beta + ratio) < 1e-9 * abs(ratio)


class TestBatches:
    """Evaluators map an array of points to an array of values, and every
    contour pass, weight circle and Newton step is one call."""

    @staticmethod
    def weighted(coeff):
        # n = 3 with a weight form: constant coefficients take the exact
        # route past direct_limit, a linear one the factored solve
        forms = (BoundaryForm(0, 0), BoundaryForm(1, 0), BoundaryForm(1, 1))
        prob = ProblemSpec(
            boundary=BoundarySpec(1, forms, BoundaryForm(0, 1)),
            expression=ExpressionSpec(3, (1, 0), (P.constant(0.4), coeff)))
        b = prob.boundary
        return prob, asymptotic_model(3, b.r, b.p_list)

    @pytest.mark.parametrize("coeff, exact", [
        (P.constant(1.1), True), (P([0.0, 1.0], [[1.1, 0.6]]), False)])
    @pytest.mark.parametrize("bullet", [False, True])
    def test_d_norm_batch_equals_its_points(self, coeff, exact, bullet):
        prob, model = self.weighted(coeff)
        # a repeated point, as a closed contour has
        rcs = np.array([[8.0 + 0.1j, 11.0 - 0.3j, 15.0 + 0.2j],
                        [26.0 + 0.5j, 9.5, 8.0 + 0.1j]])
        ev = DeterminantEvaluator(prob, model)
        assert ev.exact == exact
        batch = ev.d_norm(rcs, bullet=bullet)
        single = DeterminantEvaluator(prob, model)
        points = [single.d_norm(rc, bullet=bullet) for rc in rcs.ravel()]
        assert all(isinstance(v, np.ndarray) and v.shape == () for v in points)
        assert batch.shape == rcs.shape
        assert np.array_equal(batch.ravel(), np.array(points))

    def test_factored_d_norm_solves_a_call_at_once(self, monkeypatch):
        # the carry takes a call's points in chunks of CARRY_COMPOUNDS
        # compounds, but one fss_ends call solves them all, so the
        # factored solve stacks the whole call; the bullet rows reuse it
        from quasispec import spectrum
        monkeypatch.setattr(spectrum, "CARRY_COMPOUNDS", 512)
        prob, model = self.weighted(P([0.0, 1.0], [[1.1, 0.6]]))
        ev = DeterminantEvaluator(prob, model)
        rcs = np.linspace(8.0, 20.0, 120) + 0.1j
        assert len(rcs) * len(ev._laplace[0]) ** 2 > spectrum.CARRY_COMPOUNDS
        taken, solve = [], spectrum.fss_ends

        def recorded(system, rho):
            taken.append(len(rho))
            return solve(system, rho)

        monkeypatch.setattr(spectrum, "fss_ends", recorded)
        ev.d_norm(rcs)
        ev.d_norm(rcs, bullet=True)
        assert taken == [len(rcs)]

    @pytest.mark.parametrize("bullet", [False, True])
    def test_delta_batch_equals_its_points(self, bullet):
        prob, model = self.weighted(P([0.0, 1.0], [[1.1, 0.6]]))
        lams = model.sign * np.array([3.0 + 0.2j, 5.0 - 0.1j, 3.0 + 0.2j,
                                      7.5]) ** 3
        batch = DeterminantEvaluator(prob, model).delta(lams, bullet=bullet)
        single = DeterminantEvaluator(prob, model)
        points = [single.delta(lam, bullet=bullet) for lam in lams]
        assert all(isinstance(v, np.ndarray) and v.shape == () for v in points)
        assert batch.shape == lams.shape
        assert np.array_equal(batch, np.array(points))

    @pytest.mark.parametrize("coeff", [
        P.constant(1.1), P([0.0, 0.45, 1.0], [[1.1], [0.7]]),
        P([0.0, 0.3, 0.7, 1.0], [[1.1], [0.7], [1.3]]),
        P([0.0, 0.5, 1.0], [[1.1], [0.7, 0.6]])])
    def test_delta_integrates_a_call_at_once(self, monkeypatch, coeff):
        # one to three constant pieces (one stacked expm over every
        # lambda), and a constant plus a linear one (Magnus chunks per
        # lambda after it): one integration takes a call's new lambdas,
        # and the values are those of the lambdas taken one at a time
        from quasispec import spectrum
        prob, model = self.weighted(coeff)
        lams = model.sign * np.array([3.0 + 0.2j, 5.0 - 0.1j, 3.0 + 0.2j,
                                      7.5, 1.5j]) ** 3
        single = DeterminantEvaluator(prob, model)
        points = [single.delta(lam) for lam in lams]
        taken, integrate = [], spectrum.integrate_fundamental

        def recorded(F, lam):
            taken.append(np.array(lam))
            return integrate(F, lam)

        monkeypatch.setattr(spectrum, "integrate_fundamental", recorded)
        ev = DeterminantEvaluator(prob, model)
        assert np.array_equal(ev.delta(lams), np.array(points))
        assert np.array_equal(ev.delta(lams[:2], bullet=True),
                              [single.delta(lam, bullet=True)
                               for lam in lams[:2]])
        assert len(taken) == 1 and np.array_equal(taken[0],
                                                  np.delete(lams, 2))

    def test_batch_fails_typed_at_its_first_bad_point(self):
        # the n = 2 problem of test_exact_route_fails_typed: rho B + A is
        # not finite at two subnormal rho; the error names whichever comes
        # first, and the batch caches nothing. Its defective rho evaluates
        prob, model, defective = nilpotent_n2()
        tiny, tinier, good = 2e-310, 1e-310, defective * (1 + 1e-6)
        name = lambda rc: re.escape(f"{complex(rc) * model.e_dir:.6g}")
        for batch, first in (([good, defective, tiny, tinier], tiny),
                             ([good, tinier, defective, tiny], tinier)):
            ev = DeterminantEvaluator(prob, model)
            with pytest.raises(IntegrationError, match=(
                    f"^rho B \\+ A is not finite at rho = {name(first)}$")):
                ev.d_norm(np.array(batch))
            assert not ev._cache
            assert np.isfinite(ev.d_norm(good))
        ev, single = (DeterminantEvaluator(prob, model) for _ in range(2))
        assert np.array_equal(ev.d_norm(np.array([good, defective])),
                              [single.d_norm(good), single.d_norm(defective)])
        assert laplace_gap(ev, defective) < 1e-12

    @staticmethod
    def counted(f, calls):
        def call(z, **kwargs):
            calls.append((np.array(z), kwargs))
            return f(z, **kwargs)
        return call

    def test_one_call_per_contour_pass(self):
        # a zero 0.03 inside the unit circle: the 64-point circle's steps
        # near it exceed 1 radian twice over, so two refinement rounds
        # each add the midpoints of the steps still too large
        calls = []
        f = self.counted(lambda z: z - 0.97, calls)
        pts = disk_contour(0.0, 1.0)
        cnt, out = count_zeros(f, pts)
        assert cnt == 1 and np.array_equal(out, pts)
        assert len(calls) == 3 and np.array_equal(calls[0][0], pts)
        seen = pts
        for z, _ in calls[1:]:
            assert 0 < len(z) < len(pts) and not np.isin(z, seen).any()
            seen = np.concatenate([seen, z])

    def test_one_call_per_weight_row(self):
        from quasispec.spectrum import RESIDUE_POINTS, _ratio_and_residue, _run
        prob, model = self.weighted(P.constant(1.1))
        ev = DeterminantEvaluator(prob, model)
        calls = []
        f = self.counted(ev.lambda_function(np.inf), calls)
        _run(_ratio_and_residue(f, model.sign * 20.0 ** 3, 50.0))
        assert [len(z) for z, _ in calls] == [RESIDUE_POINTS] * 2
        assert [kw.get("bullet", False) for _, kw in calls] == [False, True]

    def test_calls_grow_with_rounds_not_boxes(self, monkeypatch):
        # n = 4 with coefficients that jump at x = 0.45: twice the strip
        # boxes take the same evaluator calls, and the weight circles, on
        # both routes, one plain and one bullet call per route
        forms = (BoundaryForm(0, 1), BoundaryForm(1, 0), BoundaryForm(1, 2),
                 BoundaryForm(1, 3))
        coeffs = tuple(P([0.0, 0.45, 1.0], [[a], [b]])
                       for a, b in ((0.3, -0.7), (-0.7, 0.3), (0.3, 0.7)))
        prob = ProblemSpec(
            boundary=BoundarySpec(1, forms, BoundaryForm(0, 0)),
            expression=ExpressionSpec(4, (0, 0, 0), coeffs))
        calls = []
        for name in ("delta", "d_norm"):
            def recorded(self, z, bullet=False, name=name,
                         method=getattr(DeterminantEvaluator, name)):
                calls.append((name, bullet))
                return method(self, z, bullet=bullet)
            monkeypatch.setattr(DeterminantEvaluator, name, recorded)
        counts = []
        for l_max in (12, 24):
            calls.clear()
            res = locate_eigenvalues(prob, l_max=l_max)
            counts.append(len(calls))
        assert len(res.data) == 24 and counts[0] == counts[1]
        calls.clear()
        weight_numbers(res)
        assert {name for name, _ in calls} == {"delta", "d_norm"}
        for name in ("delta", "d_norm"):
            assert sum(c == name for c, _ in calls) <= 2

    @pytest.mark.parametrize("problem, evaluators", [
        (TestExactRouteOracle.problem, 1), (TestDirectRouteOracle.problem, 3)],
        ids=["constant", "quadratic"])
    def test_no_point_asked_in_two_calls(self, monkeypatch, problem,
                                         evaluators):
        # constant jumps (no surrogate) and a quadratic sigma_1 (counted
        # on both surrogates, polished on F): across the calls of one
        # locate, each evaluator is asked for each point once at most
        calls = []
        for name in ("delta", "d_norm"):
            def recorded(self, z, bullet=False, name=name,
                         method=getattr(DeterminantEvaluator, name)):
                calls.append((self, name, set(np.ravel(z).tolist())))
                return method(self, z, bullet=bullet)
            monkeypatch.setattr(DeterminantEvaluator, name, recorded)
        locate_eigenvalues(problem(), l_max=10)
        assert len({ev for ev, _, _ in calls}) == evaluators
        seen = {}
        for ev, name, pts in calls:
            asked = seen.setdefault((ev, name), set())
            assert not asked & pts
            asked |= pts

    def test_one_call_per_newton_step(self):
        # each call takes (z, z + h, z - h); the root is the step from the
        # last call's values, taken with no evaluation after it
        from quasispec.spectrum import _newton, _run
        calls = []
        f = self.counted(lambda z: (z - 1.0) * (z + 2.0), calls)
        root = _run(_newton(f, 1.1))
        assert abs(root - 1.0) < 1e-12 and len(calls) >= 2
        z = 1.1
        for pts, _ in calls:
            h = 1e-7 * max(1.0, abs(z))
            assert np.array_equal(pts, [z, z + h, z - h])
            fz, fp, fm = map(complex, (pts - 1.0) * (pts + 2.0))
            z = z - fz / ((fp - fm) / (2 * h))
        assert root == z


class TestClusterHandling:
    def test_double_zero_reported_with_multiplicity(self):
        from quasispec.spectrum import _run, _zeros_inside
        f = lambda z: (z - 0.4 - 0.1j) ** 2 * (z + 1.2)
        out = _run(_zeros_inside(f, disk_contour(0.0, 2.0)))
        out.sort(key=lambda t: t[0].real)
        assert out[0][1] == 1 and abs(out[0][0] + 1.2) < 1e-8
        assert out[1][1] == 2 and abs(out[1][0] - (0.4 + 0.1j)) < 1e-5

    def test_simple_zeros_all_refined(self):
        from quasispec.spectrum import _run, _zeros_inside
        roots = [0.3, -0.5 + 0.4j, 0.9j]
        f = lambda z: np.prod([z - r for r in roots], axis=0)
        out = _run(_zeros_inside(f, disk_contour(0.0, 1.5)))
        assert len(out) == 3
        for r, m in out:
            assert m == 1
            assert min(abs(r - rr) for rr in roots) < 1e-9

    def test_near_coalescing_pair_stays_two_simple_zeros(self):
        # a pair 1e-2 apart: two simple zeros, not one double one
        from quasispec.spectrum import _run, _zeros_inside
        roots = [0.3, 0.31, -0.5j]
        f = lambda z: np.prod([z - r for r in roots], axis=0)
        out = _run(_zeros_inside(f, disk_contour(0.0, 1.5)))
        assert sorted(m for _, m in out) == [1, 1, 1]
        for rr in roots:
            assert min(abs(r - rr) for r, _ in out) < 1e-9

    def test_zero_on_the_counting_circle(self):
        # the count dilates its circle off the zero at z = 1; the dilated
        # circle's own values yield both zeros
        from quasispec.spectrum import _run, _zeros_inside
        roots = [1.0, -0.3 + 0.2j]
        f = lambda z: (z - roots[0]) * (z - roots[1])
        given = disk_contour(0.0, 1.0)
        cnt, pts = count_zeros(f, given)
        assert cnt == 2 and not np.array_equal(pts, given)
        out = _run(_zeros_inside(f, given))
        assert sorted(m for _, m in out) == [1, 1]
        for rr in roots:
            assert min(abs(r - rr) for r, _ in out) < 1e-9

    def test_disk_sweep_reuses_the_circle(self, monkeypatch):
        # n = 3 with a quadratic sigma_1: the circle is counted once, on
        # the surrogate of F, and every low-disk zero costs the true
        # problem only its Newton evaluations, counted by the lambdas each
        # batched integration of F takes
        from quasispec import spectrum
        s1 = P([0.0, 1.0], [[0.48, 0.33, -0.054]])
        forms = (BoundaryForm(0, 0), BoundaryForm(1, 0), BoundaryForm(1, 1))
        prob = ProblemSpec(boundary=BoundarySpec(1, forms),
                           expression=ExpressionSpec(3, (1, 0), (P.zero(), s1)))
        calls, circle = [], []
        integrate, count = spectrum.integrate_fundamental, spectrum._counted

        def counted_integrate(F, lam, *args, **kwargs):
            if F is prob.F:
                calls.extend(np.ravel(lam))
            return integrate(F, lam, *args, **kwargs)

        def counted_count(f, pts, *check):
            circle.append(f.__self__)
            return (yield from count(f, pts, *check))

        monkeypatch.setattr(spectrum, "integrate_fundamental", counted_integrate)
        monkeypatch.setattr(spectrum, "_counted", counted_count)
        res = locate_eigenvalues(prob, l_max=1)
        assert res.n_low >= 1 and len(circle) == 1
        assert isinstance(circle[0], spectrum._Surrogate)
        assert circle[0].F is not prob.F
        assert 0 < len(calls) <= 4 * res.n_low

    @staticmethod
    def strip_zeros(monkeypatch, cluster):
        # Dirichlet problem whose strip boxes see a polynomial with zeros
        # at 3 pi, 4 pi, 7 pi, 8 pi and `cluster` in the box of index 5
        from quasispec import spectrum
        zeros = np.pi * np.array([3.0, 4.0, *cluster, 7.0, 8.0])

        class Moved(DeterminantEvaluator):
            def box_function(self, outer_radius):
                return lambda z: np.prod(np.subtract.outer(z, zeros), axis=-1)

        monkeypatch.setattr(spectrum, "DeterminantEvaluator", Moved)

    def test_two_zeros_in_one_strip_box_take_two_indices(self, monkeypatch):
        self.strip_zeros(monkeypatch, (4.8, 5.2))
        res = locate_eigenvalues(dirichlet2(), l_max=8)
        assert [d.l for d in res.data] == list(range(1, 9))
        assert all(d.multiplicity == 1 for d in res.data)
        for d, want in zip(res.data[2:], (3, 4, 4.8, 5.2, 7, 8)):
            assert abs(d.rho - want * np.pi) < 1e-9

    def test_double_zero_in_a_strip_box_refused(self, monkeypatch):
        # the box's moments take the double zero for two simple ones, and
        # Newton cannot find two distinct zeros inside the box for them
        self.strip_zeros(monkeypatch, (5.3, 5.3))
        with pytest.raises(RootSearchError, match=r"^index 5: the 2 zeros "
                           r"inside the contour could not be separated "
                           r"\(a multiple zero\)$"):
            locate_eigenvalues(dirichlet2(), l_max=8)

    def test_box_height_doubles_until_it_holds_a_zero(self, monkeypatch):
        # the index-5 zero sits 0.6 spacings off the axis, outside the
        # first box (half-height 0.4 spacings) and inside the doubled one
        self.strip_zeros(monkeypatch, (5 + 0.6j, 6.0))
        res = locate_eigenvalues(dirichlet2(), l_max=8)
        assert [d.l for d in res.data] == list(range(1, 9))
        assert all(d.multiplicity == 1 for d in res.data)
        for d, want in zip(res.data[2:], (3, 4, 5 + 0.6j, 6, 7, 8)):
            assert abs(d.rho - want * np.pi) < 1e-9

    def test_zero_next_to_a_strip_box_edge(self):
        # the zero sits 1e-3 spacings inside the right edge, so two
        # neighbouring box points are more than pi apart in phase: the
        # phase of the unrefined values closes at 0 turns, not 1
        from quasispec.spectrum import CONTOUR_POINTS, _run, _strip_box_zeros
        model = asymptotic_model(2, 1, (0, 0))
        growth = model.growth
        pred = growth * (5 + model.chi)
        zero = pred + (0.499 + 0.07j) * growth
        f = lambda z: (z - zero) * np.exp(z)
        pts = rect_contour(pred.real - 0.5 * growth, pred.real + 0.5 * growth,
                           -0.4 * growth, 0.4 * growth, m=CONTOUR_POINTS)
        phase = np.unwrap(np.angle([f(z) for z in pts]))
        assert abs(phase[-1] - phase[0]) < 1e-9

        class Box:
            def box_function(self, outer_radius):
                return f

        out = _run(_strip_box_zeros(Box(), model, 5, model.chi, 0.4 * growth))
        assert len(out) == 1 and out[0][1] == 1
        assert abs(out[0][0] - zero) < 1e-9


class TestSurrogate:
    """Counting and seeding on the piecewise-constant surrogate of F, the
    roots polished on F itself, and the fallback to counting on F."""

    problem = staticmethod(TestDirectRouteOracle.problem)

    @staticmethod
    def located(prob, l_max=10):
        res = locate_eigenvalues(prob, l_max=l_max)
        return res.data, res.chi_cal, res.n_low

    def test_constant_pieces_build_no_surrogate(self, monkeypatch):
        from quasispec import spectrum

        def refused(*args):
            raise AssertionError("surrogate built")

        monkeypatch.setattr(spectrum._Surrogate, "__init__", refused)
        for prob in (TestExactRouteOracle.problem(), third_order(),
                     third_order(c1=1.1)):
            b = prob.boundary
            model = asymptotic_model(prob.n, b.r, b.p_list)
            assert spectrum._surrogates(prob, model) == ()
            assert len(locate_eigenvalues(prob, l_max=6).data) == 6
        with pytest.raises(AssertionError, match="surrogate built"):
            locate_eigenvalues(self.problem(), l_max=6)

    def test_uncertified_counts_fall_back(self, monkeypatch):
        # a coarse surrogate that certifies nothing: every contour is
        # counted on F, which gives exactly the run without a surrogate
        from quasispec import spectrum
        build, checks = spectrum._surrogates, []

        def opposed(prob, model):
            g, g_half = build(prob, model)
            for name in ("delta", "d_norm"):
                def negated(z, method=getattr(g, name)):
                    checks.append(np.size(z))
                    return -method(z)
                setattr(g_half, name, negated)
            return g, g_half

        monkeypatch.setattr(spectrum, "_surrogates", opposed)
        got = self.located(self.problem())
        assert len(checks) >= 2
        monkeypatch.setattr(spectrum, "_surrogates", lambda prob, model: ())
        assert got == self.located(self.problem())

    def test_failed_surrogate_evaluations_fall_back(self, monkeypatch):
        # an IntegrationError of the surrogate, on either route, gives NaN
        # at every point of its call; the run goes on, on F alone
        from quasispec import spectrum
        integrate, raised = spectrum.integrate_fundamental, []

        def refused(*args):
            raised.append(args[0])
            raise IntegrationError("refused")

        def integrate_F(F, lam):
            return (integrate(F, lam) if F is prob.F else refused(F))

        prob = self.problem()
        monkeypatch.setattr(spectrum, "integrate_fundamental", integrate_F)
        monkeypatch.setattr(spectrum._Surrogate, "_carry", refused)
        got = self.located(prob)
        assert any(isinstance(a, spectrum._Surrogate) for a in raised)
        assert any(a is not prob.F and not isinstance(a, spectrum._Surrogate)
                   for a in raised)
        monkeypatch.undo()
        monkeypatch.setattr(spectrum, "_surrogates", lambda prob, model: ())
        assert got == self.located(prob)

    def test_factored_solves_per_strip_index(self, monkeypatch):
        # the boxes' counts, refinements and seeds solve nothing: the
        # factored solve only polishes, a few points per root
        from quasispec import spectrum
        solve, points = spectrum.fss_ends, []

        def counted(system, rho):
            points.append(len(rho))
            return solve(system, rho)

        monkeypatch.setattr(spectrum, "fss_ends", counted)
        data, _, n_low = self.located(self.problem())
        assert len(data) == 10 and points
        assert sum(points) <= 4 * (10 - n_low)

    @staticmethod
    def recorded(h, name, asked):
        def call(z):
            asked.append((name, len(z)))
            return h(z)
        return call

    def test_polish_on_F_with_the_surrogate_slope(self):
        # the surrogate's zeros sit ~1e-6 off f's: it counts and seeds
        # (65 circle points and g_half's certificate), f is asked only for
        # single points, each Newton step's slope from g at z +- h
        from quasispec.spectrum import _run, _zeros_inside
        roots = [0.3, -0.5 + 0.4j, 0.9j]
        f = lambda z: np.prod([z - r for r in roots], axis=0)
        asked = []
        out = _run(_zeros_inside(
            self.recorded(f, "f", asked), disk_contour(0.0, 1.5),
            (self.recorded(lambda z: f(z) + 1e-6, "g", asked),
             self.recorded(lambda z: f(z) + 4e-6, "g_half", asked))))
        assert sorted(m for _, m in out) == [1, 1, 1]
        for rr in roots:
            assert min(abs(r - rr) for r, _ in out) < 1e-12
        assert asked[:2] == [("g", 65), ("g_half", 65)]
        assert {n for name, n in asked if name == "f"} == {1}
        assert {n for name, n in asked[2:] if name != "f"} == {2}

    def test_multiple_zero_comes_from_F(self):
        # a double zero is not polished, so a surrogate count holding one
        # falls back: f is counted and its own moments give multiplicity 2
        from quasispec.spectrum import _run, _zeros_inside
        f = lambda z: (z - 0.4 - 0.1j) ** 2 * (z + 1.2)
        asked = []
        out = _run(_zeros_inside(
            self.recorded(f, "f", asked), disk_contour(0.0, 2.0),
            (self.recorded(lambda z: f(z) * (1 + 1e-9 * z), "g", asked),
             self.recorded(lambda z: f(z) * (1 + 4e-9 * z), "g_half", asked))))
        out.sort(key=lambda t: t[0].real)
        assert out[0][1] == 1 and abs(out[0][0] + 1.2) < 1e-8
        assert out[1][1] == 2 and abs(out[1][0] - (0.4 + 0.1j)) < 1e-5
        assert ("f", 65) in asked
