"""Integral-equation fundamental systems and oscillatory functionals."""

import warnings

import numpy as np
import pytest

from quasispec import birkhoff, piecewise, regularization, solutions
from quasispec.birkhoff import (
    DEGREE,
    birkhoff_fss,
    upsilon,
    upsilon_d,
)
from quasispec.errors import NonContractionError
from quasispec.piecewise import PiecewisePoly as P, PieceTable
from quasispec.regularization import (
    ConjugatedSystem,
    ExpressionSpec,
    build_associated_matrix,
    conjugate_system,
    zero_expression,
)
from quasispec.sectors import sector_frame
from quasispec.solutions import integrate_fundamental


def conj(n, indices, coeffs, kappa=1):
    F = build_associated_matrix(ExpressionSpec(n, tuple(indices), tuple(coeffs)))
    return conjugate_system(F, sector_frame(n, kappa))


def direct_mismatch(F, sol):
    """Relative gap between the FSS fundamental system y_k =
    diag(rho^j) Omega w_k at x = 1 and the direct integration of its
    x = 0 values."""
    n, rho = sol.n, sol.rho
    scal = (rho ** np.arange(n))[:, None]
    Y0 = scal * (sol.system.frame.Omega @ sol.w_at(0, 0))
    Y1 = scal * (sol.system.frame.Omega @ sol.w_at(-1, -1))
    C1 = integrate_fundamental(F, rho ** n, grid=np.array([0.0, 1.0])).at_one
    return np.max(np.abs(C1 @ Y0 - Y1)) / np.max(np.abs(Y1))


def assert_interfaces_continuous(sol):
    """The duplicated interface nodes of neighbouring panels agree."""
    np.testing.assert_allclose(sol.z[:, :, :-1, -1], sol.z[:, :, 1:, 0],
                               atol=1e-9)


def three_piece_matrix():
    """n = 3 with both coefficients jumping at 0.23 and 0.61: three
    pieces of unequal width."""
    bp = [0.0, 0.23, 0.61, 1.0]
    return build_associated_matrix(ExpressionSpec(3, (1, 0), (
        P(bp, [[0.3], [-0.6], [0.1]]), P(bp, [[1.0], [-0.5], [2.0]]))))


class TestTrivialSystem:
    def test_zero_A_gives_identity(self):
        sys = conjugate_system(build_associated_matrix(zero_expression(3)),
                               sector_frame(3, 1))
        sol = birkhoff_fss(sys, 40.0 * np.exp(1j * np.pi / 6))
        assert sol.max_E() < 1e-13
        assert sol.iterations <= 2

    def test_interface_continuity(self):
        s1 = P([0, 0.5, 1], [[1.0], [-1.0]])
        sys = conj(3, (1, 0), (P.zero(), s1))
        sol = birkhoff_fss(sys, 60.0 * np.exp(1j * np.pi / 6))
        assert_interfaces_continuous(sol)

    def test_residual_small(self):
        s1 = P([0, 1], [[1.0, -0.5]])
        sys = conj(3, (1, 0), (P.zero(), s1))
        sol = birkhoff_fss(sys, 45.0 * np.exp(1j * np.pi / 7))
        assert sol.residual() < 1e-8


class TestSolverPaths:
    @pytest.mark.parametrize("rabs", [4.0, 15.0])
    def test_jump_coefficient_matches_direct(self, rabs):
        # panels ending on the jump at 0.4 must read sigma_1 from their
        # own piece there; the next piece's value cost ~1e-5 at |rho| = 4
        F = build_associated_matrix(ExpressionSpec(
            3, (1, 0), (P.zero(), P([0, 0.4, 1], [[1.0], [-0.5]]))))
        sys = conjugate_system(F, sector_frame(3, 1))
        sol = birkhoff_fss(sys, rabs * np.exp(1j * np.pi / 6))
        assert direct_mismatch(F, sol) < 1e-11
        assert sol.residual() < 1e-8

    @pytest.mark.parametrize("rabs", [15.0, 90.0, 400.0])
    def test_three_unequal_pieces(self, rabs):
        # every piece has its own panel width, collocation solve and run
        # of carries
        F = three_piece_matrix()
        sys = conjugate_system(F, sector_frame(3, 1))
        sol = birkhoff_fss(sys, rabs * np.exp(1j * np.pi / 6))
        assert sol.residual() < 1e-8
        assert_interfaces_continuous(sol)
        if rabs == 15.0:
            # beyond small |rho| the direct integration from x = 0 loses
            # exp(spread |rho|) of its accuracy
            assert direct_mismatch(F, sol) < 1e-11

    def test_no_runtime_warning_at_large_rho(self):
        # n = 4 mid-sector at |rho| = 400: the steepest kernel has
        # |Re mu| ~ 740, so an exponential evaluated on the growing side
        # of any pair overflows
        jump = P([0.0, 0.45, 1.0], [[0.7], [-0.4]])
        sys = conj(4, (0, 0, 0), (jump, jump * 0.5, jump * -1.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = birkhoff_fss(sys, 400.0 * np.exp(1j * np.pi / 8))
        assert sol.residual() < 1e-8

    def test_gmres_fallback(self):
        # |rho| = 1 with large constant coefficients: the fixed-point
        # iteration does not contract and GMRES solves the system
        F = build_associated_matrix(ExpressionSpec(
            3, (1, 0), (P.constant(4.0), P.constant(6.0))))
        sys = conjugate_system(F, sector_frame(3, 1))
        sol = birkhoff_fss(sys, np.exp(1j * np.pi / 6))
        assert sol.used_gmres
        assert sol.residual() < 1e-9
        assert direct_mismatch(F, sol) < 1e-11


class TestWorkCounts:
    def test_no_breakpoint_merge_per_solve(self, monkeypatch):
        # the coefficients are compiled once; solves and integrations
        # read the stored breakpoints
        F = three_piece_matrix()
        sys = conjugate_system(F, sector_frame(3, 1))
        F.breakpoints(), sys.breakpoints()
        calls = []
        for mod in (piecewise, regularization, birkhoff, solutions):
            merge = getattr(mod, "merge_breakpoints", None)
            if merge is not None:
                def counted(*args, _merge=merge):
                    calls.append(args)
                    return _merge(*args)

                monkeypatch.setattr(mod, "merge_breakpoints", counted)
        for theta in np.linspace(0.1, 0.9, 5) * np.pi / 3:
            birkhoff_fss(sys, 90.0 * np.exp(1j * theta))
        integrate_fundamental(F, 11.0, grid=np.linspace(0.0, 1.0, 5))
        assert calls == []

    @pytest.mark.parametrize("bp, widths", [([0.0, 0.23, 0.61, 1.0], 3),
                                            ([0.0, 0.5, 1.0], 1)])
    def test_one_collocation_solve_per_width(self, monkeypatch, bp, widths):
        s1 = P(bp, [[float(i % 2) - 0.5] for i in range(len(bp) - 1)])
        sys = conj(3, (1, 0), (P.zero(), s1))
        shapes = []
        solve = np.linalg.solve

        def recorded(a, b):
            shapes.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        sol = birkhoff_fss(sys, 90.0 * np.exp(1j * np.pi / 6))
        assert sol.xs.shape[0] > 20
        assert shapes == [(1, 3, 3, widths, DEGREE + 1, DEGREE + 1)]


class TestStacks:
    """The GMRES fallback of the factored solve fails typed."""

    def test_failed_fallback_names_its_rho(self):
        # constants 400 and 600 at |rho| = 10: 40 restarted cycles of 60
        # steps do not reach the tolerance
        F = build_associated_matrix(ExpressionSpec(
            3, (1, 0), (P.constant(400.0), P.constant(600.0))))
        sys = conjugate_system(F, sector_frame(3, 1))
        with pytest.raises(NonContractionError, match=r"\|rho\|=10\b"):
            birkhoff_fss(sys, 10.0 * np.exp(1j * np.pi / 6))

    @pytest.mark.parametrize("rabs", [1.0, 1.5])
    def test_fallback_matches_scipy_gmres(self, monkeypatch, rabs):
        # test_gmres_fallback's problem: the numpy fallback's z against
        # scipy's GMRES on the same operator, start and settings
        from scipy.sparse.linalg import LinearOperator, gmres

        def scipy_gmres(bank, V, rho):
            b = np.broadcast_to(np.eye(V.shape[1], dtype=complex)[:, :, None, None],
                                V.shape).ravel()

            def matvec(v):
                z = v.reshape(V.shape)
                return (z - bank.apply(V, z)).ravel()

            op = LinearOperator((b.size, b.size), matvec=matvec, dtype=complex)
            sol, info = gmres(op, b, rtol=birkhoff.TOL, atol=0.0, restart=60,
                              maxiter=40)
            assert info == 0
            return sol.reshape(V.shape[1:])

        F = build_associated_matrix(ExpressionSpec(
            3, (1, 0), (P.constant(4.0), P.constant(6.0))))
        sys = conjugate_system(F, sector_frame(3, 1))
        rho = rabs * np.exp(1j * np.pi / 6)
        ours = birkhoff_fss(sys, rho)
        monkeypatch.setattr(birkhoff, "_gmres", scipy_gmres)
        ref = birkhoff_fss(sys, rho)
        assert ours.used_gmres and ref.used_gmres
        assert np.max(np.abs(ours.z - ref.z)) < 1e-10 * np.max(np.abs(ref.z))


class TestThirdOrderExpansion:
    def test_diagonal_correction_term(self):
        # constant sigma_1: diag(E(x)) ~ (2x/(3 rho)) omega_k^{-1} + O(rho^-2)
        sys = conj(3, (1, 0), (P.zero(), P.constant(1.0)))
        frame = sys.frame
        rho = 100.0 * np.exp(1j * np.pi / 6)
        sol = birkhoff_fss(sys, rho)
        xs = sol.xs
        for p in range(0, xs.shape[0], 3):
            for q in (0, xs.shape[1] // 2):
                x = xs[p, q]
                E = sol.z[:, :, p, q] - np.eye(3)
                want = (2.0 * x / (3.0 * rho)) / frame.omegas
                got = np.diag(E)
                assert np.max(np.abs(got - want)) < 40.0 / abs(rho) ** 2

    def test_error_decays_with_rho(self):
        sys = conj(3, (1, 0), (P.zero(), P.constant(1.0)))
        frame = sys.frame

        def expansion_error(rabs):
            rho = rabs * np.exp(1j * np.pi / 6)
            sol = birkhoff_fss(sys, rho)
            errs = []
            for p in range(sol.xs.shape[0]):
                x = sol.xs[p, -1]
                E = sol.z[:, :, p, -1] - np.eye(3)
                want = (2.0 * x / (3.0 * rho)) / frame.omegas
                errs.append(np.max(np.abs(np.diag(E) - want)))
            return max(errs)

        assert expansion_error(200.0) < 0.5 * expansion_error(40.0)


class TestAgainstDirectIntegration:
    @pytest.mark.parametrize("case", ["const", "linear"])
    def test_columns_match(self, case):
        # FSS columns y_k = diag(rho^j) Omega w_k integrated directly from
        # their x=0 values must match the factored solution;每 column is
        # compared up to the x where forward growth stays representable.
        n = 3
        if case == "const":
            coeffs = (P.zero(), P.constant(1.0))
        else:
            coeffs = (P([0, 1], [[0.4, 0.3]]), P([0, 0.6, 1], [[0.8], [0.1, -1.0]]))
        F = build_associated_matrix(ExpressionSpec(n, (1, 0), coeffs))
        frame = sector_frame(n, 1)
        sys = conjugate_system(F, frame)
        rho = 50.0 * np.exp(1j * np.pi / 6)
        lam = rho ** n
        sol = birkhoff_fss(sys, rho)
        scal = rho ** np.arange(n)
        om = frame.omegas
        for k in range(n):
            # forward integration amplifies seed error by e^{spread * x};
            # cap the compared interval so amplification stays ~3e6
            spreads = np.real(rho * (om - om[k]))
            budget = 15.0 / max(float(np.max(spreads)), 1e-9)
            xstar = min(1.0, budget)
            # nearest stored node
            flat = np.argmin(np.abs(sol.xs - xstar))
            p, qn = np.unravel_index(flat, sol.xs.shape)
            xstar = float(sol.xs[p, qn])
            y0 = scal * (frame.Omega @ sol.w_at(0, 0))[:, k]
            fm = integrate_fundamental(F, lam, grid=np.array([0.0, xstar, 1.0])
                                       if 0 < xstar < 1 else np.array([0.0, 1.0]))
            idx = int(np.argmin(np.abs(fm.grid - xstar)))
            direct = fm.values[idx] @ y0
            birk = scal * (frame.Omega @ sol.w_at(p, qn))[:, k]
            denom = np.max(np.abs(birk))
            assert np.max(np.abs(direct - birk)) / denom < 1e-6


def exact_cumulative(a_pw, mu, tg):
    """_AnchoredCumulative's values in 80-digit mpmath: W(t_i) =
    integral_0^t_i a e^{mu (t - t_i)} dt for Re mu >= 0, else
    integral_t_i^t_end a e^{mu (t - t_i)} dt; each interval's
    right-anchored integral of s^k by the by-parts recurrence."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workprec(270):
        mu = mp.mpc(mu)
        tg = [mp.mpf(float(t)) for t in tg]
        local = []
        for c, d in zip(tg[:-1], tg[1:]):
            i = int(a_pw.piece_index(float((c + d) / 2)))
            u, h = c - mp.mpf(float(a_pw.breakpoints[i])), d - c
            p = [mp.mpc(complex(x)) for x in a_pw.coeffs[i]]
            # p(u + s) in powers of s
            q = [sum(p[k] * mp.binomial(k, j) * u ** (k - j)
                     for k in range(j, len(p))) for j in range(len(p))]
            I = []
            for k in range(len(q)):
                if mu == 0:
                    I.append(h ** (k + 1) / (k + 1))
                elif k == 0:
                    I.append((1 - mp.exp(-mu * h)) / mu)
                else:
                    I.append((h ** k - k * I[-1]) / mu)
            local.append((d, sum(qk * Ik for qk, Ik in zip(q, I))))
        vals = []
        for i, t in enumerate(tg):
            span = local[:i] if mp.re(mu) >= 0 else local[i:]
            vals.append(complex(sum(mp.exp(mu * (d - t)) * v for d, v in span)))
        return np.array(vals)


class TestAnchoredIntegrals:
    """The local integrals of _AnchoredCumulative, from one stacked
    exponential, against the exact recurrence."""

    # |mu h| on both sides of max(4, 2 deg), where the scalar forms used
    # to switch between a series and integration by parts
    NU = [1e-3, 0.5, 3.5, 4.5, 6.5, 40.0, 3e3]

    @pytest.mark.parametrize("deg", [0, 1, 2, 3])
    @pytest.mark.parametrize("kind", ["general", "oscillatory", "zero"])
    def test_one_interval(self, deg, kind):
        rng = np.random.default_rng(10 * deg + len(kind))
        for nu in self.NU if kind != "zero" else [0.0]:
            for _ in range(6):
                h = rng.uniform(0.05, 1.0)
                mu = nu / h * np.exp(1j * np.pi * rng.uniform(-1.0, 1.0))
                if kind == "oscillatory":               # Re mu = 0 exactly
                    mu = 1j * rng.choice([-1.0, 1.0]) * abs(mu)
                c = rng.uniform(0.0, 1.0 - h)
                coeffs = rng.normal(size=(deg + 1, 2)) @ [1.0, 1j]
                a = P([0.0, 1.0], [coeffs])
                tg = np.array([c, c + h])
                got = birkhoff._AnchoredCumulative(a, mu, tg).vals
                np.testing.assert_allclose(got, exact_cumulative(a, mu, tg),
                                           rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("mu", [0.0, 7.0 - 2.0j, -30.0 + 5.0j, 45.0j])
    def test_grid_across_pieces(self, mu):
        # pieces of degree 3, 0 and 2 on one grid: the stack pads the
        # shorter polynomials, left-anchored values run the mirror
        a = P([0.0, 0.3, 0.55, 1.0],
              [[0.4, -1.0, 2.0, 0.5j], [1.5 - 0.5j], [0.2, 0.0, -3.0]])
        tg = np.union1d(np.linspace(0.0, 1.0, 9), a.breakpoints)
        got = birkhoff._AnchoredCumulative(a, mu, tg).vals
        np.testing.assert_allclose(got, exact_cumulative(a, mu, tg),
                                   rtol=1e-11, atol=0.0)


class TestUpsilon:
    def test_zero_for_vanishing_a0(self):
        sys = conj(3, (1, 0), (P.constant(2.0), P.constant(1.0)))
        assert sys.a0_is_zero()
        assert upsilon(sys, 30.0 * np.exp(1j * np.pi / 6)) == 0.0

    def test_constant_entry_linear_growth(self):
        # A_0 with one entry c at (j, l) = (k, k): the zero-exponent case
        # integrates |c| (x - s); the maximum over the grid is |c|.
        n = 2
        frame = sector_frame(2, 1)
        c = 0.7
        entries = [P.zero() for _ in range(n ** 3)]  # [k][j][l] flat
        entries[0] = P.constant(c)
        sys = ConjugatedSystem(n=n, frame=frame,
                               table=PieceTable(entries, (n, n, n)))
        got = upsilon(sys, 25.0 * np.exp(1j * np.pi / 4))
        assert got == pytest.approx(c, rel=1e-10)

    def test_decay_along_ray(self):
        # L2-type coefficient so A_0 is nonzero: n = 2, i_0 = 1
        s0 = P([0, 1], [[1.0, -2.0, 1.5]])
        sys = conj(2, (1,), (s0,))
        assert not sys.a0_is_zero()
        ray = np.exp(1j * np.pi / 4)
        u20 = upsilon(sys, 20.0 * ray)
        u200 = upsilon(sys, 200.0 * ray)
        assert u200 < u20

    def test_upsilon_d_trivial_and_decay(self):
        frame = sector_frame(4, 1)
        zero_entries = [[P.zero()] * 4 for _ in range(4)]
        assert upsilon_d(zero_entries, 30.0, frame) == 0.0
        entries = [[P.zero()] * 4 for _ in range(4)]
        entries[2][0] = P.constant(1.0)
        ray = np.exp(1j * np.pi / 8)
        vals = [upsilon_d(entries, t * ray, frame) for t in (25.0, 50.0, 100.0)]
        assert vals[2] < vals[1] < vals[0]

    def test_upsilon_d_closed_form(self):
        # one constant entry per orientation; closed forms of the two
        # oriented integrals, |int_b^x e^{mu'(x-t)} dt|, on a fine grid
        frame = sector_frame(2, 1)
        rho = 40.0 * np.exp(1j * np.pi / 4)
        xg = np.linspace(0, 1, 201)
        # growing pair (1,0): integrates from 1
        entries = [[P.zero(), P.zero()], [P.zero(), P.zero()]]
        entries[1][0] = P.constant(1.0)
        mu = rho * (frame.omegas[1] - frame.omegas[0])
        ref = np.max(np.abs((1.0 - np.exp(mu * (xg - 1.0))) / mu))
        got = upsilon_d(entries, rho, frame, grid=xg)
        assert got == pytest.approx(ref, rel=1e-8)
        # decaying pair (0,1): integrates from 0
        entries = [[P.zero(), P.zero()], [P.zero(), P.zero()]]
        entries[0][1] = P.constant(1.0)
        mu = rho * (frame.omegas[0] - frame.omegas[1])
        ref = np.max(np.abs((np.exp(mu * xg) - 1.0) / mu))
        got = upsilon_d(entries, rho, frame, grid=xg)
        assert got == pytest.approx(ref, rel=1e-8)
