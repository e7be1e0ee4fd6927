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
    def test_one_layout_evaluates_A_once(self, monkeypatch):
        # eight points of one |rho| circle share a panel layout and fill
        # more than one stack of CHUNK_PANELS pairs: one call places their
        # nodes and reads A_k at them once, and once more for a second layout
        sys = conjugate_system(three_piece_matrix(), sector_frame(3, 1))
        calls, stacks, placed = [], [], []
        evaluate = ConjugatedSystem.evaluate_Ak
        solve_stack = birkhoff._solve_stack
        panel_nodes = birkhoff._panel_nodes

        def counted(self, *args, **kwargs):
            calls.append(args)
            return evaluate(self, *args, **kwargs)

        def nodes(bounds, counts):
            placed.append(tuple(counts))
            return panel_nodes(bounds, counts)

        def recorded(system, rho, counts, shared):
            stacks.append(len(rho))
            return solve_stack(system, rho, counts, shared)

        monkeypatch.setattr(ConjugatedSystem, "evaluate_Ak", counted)
        monkeypatch.setattr(birkhoff, "_solve_stack", recorded)
        monkeypatch.setattr(birkhoff, "_panel_nodes", nodes)
        circle = np.exp(1j * np.linspace(0.1, 0.9, 8) * np.pi / 3)
        birkhoff.fss_ends(sys, 90.0 * circle)
        assert len(stacks) > 1 and sum(stacks) == 8 and len(calls) == 1
        assert len(placed) == 1
        calls.clear(), placed.clear()
        birkhoff.fss_ends(sys, np.concatenate([90.0 * circle, 20.0 * circle]))
        assert len(calls) == 2 and len(set(placed)) == len(placed) == 2

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
    """The factored solve of a batch of points equals, bit for bit, the
    lone solve at each point."""

    @staticmethod
    def stacked(sys, rho, monkeypatch):
        """Each point's solution from one batched call, and the (points,
        layout) of every stacked solve it made."""
        stacks = []
        solve_stack = birkhoff._solve_stack

        def recorded(system, rho, counts, shared):
            stacks.append((len(rho), tuple(counts)))
            return solve_stack(system, rho, counts, shared)

        monkeypatch.setattr(birkhoff, "_solve_stack", recorded)
        return birkhoff._factored_solves(sys, rho, lambda sol: sol), stacks

    @staticmethod
    def assert_lone_solves(sys, rho, sols):
        ends = birkhoff.fss_ends(sys, rho)
        assert len(sols) == len(ends) == len(rho)
        for i, r in enumerate(rho):
            lone = birkhoff_fss(sys, r)
            assert np.array_equal(sols[i].z, lone.z)
            assert np.array_equal(ends[i][0], lone.z_at_zero)
            assert np.array_equal(ends[i][1], lone.z_at_one)
            assert sols[i].iterations == lone.iterations
            assert sols[i].used_gmres == lone.used_gmres

    def test_layouts_and_budget(self, monkeypatch):
        sys = conj(3, (1, 0), (P([0, 1], [[0.4, 0.3]]),
                               P([0, 0.6, 1], [[0.8], [0.1, -1.0]])))
        theta = np.linspace(0.1, 0.9, 4) * np.pi / 3
        rho = np.concatenate([r * np.exp(1j * theta) for r in (5.0, 15.0, 90.0)]
                             + [100.0 * np.exp(1j * np.linspace(0.1, 1.0, 9))])
        sols, stacks = self.stacked(sys, rho, monkeypatch)
        assert len({counts for _, counts in stacks}) >= 4
        assert sum(m for m, _ in stacks) == len(rho)
        assert any(m > 1 for m, _ in stacks)
        for m, counts in stacks:
            assert m == 1 or m * sum(counts) <= birkhoff.CHUNK_PANELS
        self.assert_lone_solves(sys, rho, sols)

    def test_gmres_for_the_stalled_point_alone(self, monkeypatch):
        # test_gmres_fallback's point and a contracting one of its layout
        F = build_associated_matrix(ExpressionSpec(
            3, (1, 0), (P.constant(4.0), P.constant(6.0))))
        sys = conjugate_system(F, sector_frame(3, 1))
        rho = np.array([1.0, 2.8]) * np.exp(1j * np.pi / 6)
        sols, stacks = self.stacked(sys, rho, monkeypatch)
        assert [m for m, _ in stacks] == [2]
        assert sols[0].used_gmres and not sols[1].used_gmres
        self.assert_lone_solves(sys, rho, sols)

    def test_failed_fallback_names_its_rho(self, monkeypatch):
        F = build_associated_matrix(ExpressionSpec(
            3, (1, 0), (P.constant(4.0), P.constant(6.0))))
        sys = conjugate_system(F, sector_frame(3, 1))
        monkeypatch.setattr(birkhoff, "gmres", lambda op, b, **kw: (b, 7))
        with pytest.raises(NonContractionError, match=r"\|rho\|=1.5\b"):
            birkhoff.fss_ends(sys, np.array([2.8, 1.5]) * np.exp(1j * np.pi / 6))


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
