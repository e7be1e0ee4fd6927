"""Direct integration layer: oracles, Liouville identity, residuals."""

from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from quasispec import solutions
from quasispec.cli import problem_from_config
from quasispec.errors import IntegrationError
from quasispec.piecewise import PiecewisePoly as P
from quasispec.regularization import ExpressionSpec, build_associated_matrix, zero_expression
from quasispec.solutions import (
    _GL3,
    _lambda_matrix,
    _magnus6,
    _step_counts,
    closed_form_zero_coeff,
    integrate_fundamental,
)
from quasispec.spectrum import (
    BoundaryForm,
    BoundarySpec,
    ProblemSpec,
    locate_eigenvalues,
    weight_numbers,
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

    @pytest.mark.parametrize("chunk", [4096, 7])
    @pytest.mark.parametrize("lam_abs", [11.0, 221.0, 3e4])
    def test_batched_matches_sequential(self, monkeypatch, chunk, lam_abs):
        # chunked stacked expm and product tree against one expm per
        # step, applied in order; chunk 4096 holds every interval's steps
        # in one stack, chunk 7 crosses chunk boundaries and leaves odd
        # stacks in the product tree
        monkeypatch.setattr(solutions, "CHUNK_STEPS", chunk)
        F = build(3, (1, 0), two_piece_quadratic())
        lam = lam_abs * np.exp(0.7j)
        fm = integrate_fundamental(F, lam, grid=np.linspace(0, 1, 9))
        np.testing.assert_allclose(
            fm.values, sequential_reference(F, lam, fm.grid),
            rtol=0, atol=1e-12 * np.max(np.abs(fm.values)))

    def test_stacked_expm_calls(self, monkeypatch):
        # at |lambda| = 1e7 the quadratic piece takes ~6,900 steps: two
        # stacked exponentials on it, after one for the constant piece's
        # single step, all by the one kernel _expm (scipy's expm is gone)
        s1 = P([0, 0.8, 1], [[0.5, 1.0, -2.0], [1.0]])
        F = build(3, (1, 0), (P.zero(), s1))
        lam = 1e7
        sizes = []
        kernel = solutions._expm

        def counted(A):
            sizes.append(len(A))
            return kernel(A)

        monkeypatch.setattr(solutions, "_expm", counted)
        fm = integrate_fundamental(F, lam)
        counts = _step_counts(F.table, fm.grid, lam ** (1 / 3)).astype(int)
        chunk = solutions.CHUNK_STEPS
        expected = [1]
        for nsteps in counts[counts > 1]:
            full, rest = divmod(int(nsteps), chunk)
            expected += [chunk] * full + [rest] * (rest > 0)
        assert counts[0] > chunk and counts[1] == 1
        assert sizes == expected
        assert "expm" not in vars(solutions)

    def test_step_budget_checked_before_integrating(self, monkeypatch):
        # each piece fits MAX_STEPS alone, the two together do not
        s1 = P([0, 0.5, 1], [[0.0, 8400.0], [4200.0, 8400.0]])
        F = build(3, (1, 0), (P.zero(), s1))

        def no_expm(A):
            raise AssertionError("expm called before the budget check")

        monkeypatch.setattr(solutions, "_expm", no_expm)
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
        # an array is refused whole, naming its first lambda past the cap
        lams = np.array([5.0, 3e12j, 2e12, 7.0]).reshape(2, 2)
        with pytest.raises(IntegrationError, match=r"^\|lambda\|=3e\+12 "):
            integrate_fundamental(F, lams)

    @pytest.mark.parametrize("coeffs", [
        (P.constant(0.4), P.constant(1.1)),
        (P([0, 0.45, 1], [[0.4], [-0.3]]), P.constant(1.1)),
        (P([0, 0.3, 0.7, 1], [[0.4], [-0.3], [0.9]]), P.constant(1.1)),
        (P.constant(0.4), P([0, 0.5, 1], [[1.1], [0.6, 1.0]]))])
    def test_lambda_batch_equals_lone_calls(self, coeffs):
        # one to three constant pieces, whose single steps share one
        # stacked expm across all lambdas, and a constant plus a linear
        # piece, whose Magnus steps run per group of equal step counts
        F = build(3, (1, 0), coeffs)
        lams = np.array([[3.0 + 0.2j, -40.0 + 7j, 3.0 + 0.2j],
                         [2.5e3j, 1e4 * np.exp(0.3j), 0.5]])
        grid = np.linspace(0.0, 1.0, 5)
        fm = integrate_fundamental(F, lams, grid=grid)
        lone = [integrate_fundamental(F, lam, grid=grid) for lam in lams.ravel()]
        assert fm.values.shape == lams.shape + lone[0].values.shape
        assert np.array_equal(fm.values.reshape(-1, *lone[0].values.shape),
                              np.array([f.values for f in lone]))
        assert np.array_equal(integrate_fundamental(F, lams).at_one,
                              np.array([integrate_fundamental(F, lam).at_one
                                        for lam in lams.ravel()]).reshape(
                                  lams.shape + (3, 3)))

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
        # one Pade block takes the whole stack, each slice scaled by 2^-s
        # into the approximant's bound theta_13 (s = 0 up to it) and
        # squared s times; values per slice against scipy's expm
        A = random_stack(np.random.default_rng(len(norms)), 3, norms)
        blocks, pade = [], solutions._pade13

        def recorded(B):
            blocks.append(B)
            return pade(B)

        monkeypatch.setattr(solutions, "_pade13", recorded)
        E = solutions._expm(A)
        s = np.fmax(0.0, np.ceil(np.log2(one_norms(A) / self.THETA)))
        assert len(blocks) == 1
        assert np.array_equal(blocks[0], A * 2.0 ** -s[:, None, None])
        assert np.all(one_norms(blocks[0]) <= self.THETA)
        for e, a in zip(E, A):
            ref = expm(a)
            assert np.max(np.abs(e - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_non_finite_slice_stays_in_its_slice(self):
        # a non-finite slice takes s = 0 and gives a non-finite exponential
        # with no numpy warning (pytest fails on one); the other slices,
        # one of them squared, are those of the stack without it
        A = random_stack(np.random.default_rng(3), 3,
                         np.array([0.5, 1.0, 40.0]))
        A[1, 2, 0] = np.inf
        E = solutions._expm(A)
        assert not np.isfinite(E[1]).any()
        assert np.array_equal(E[[0, 2]], solutions._expm(A[[0, 2]]))


class TestExpmOracle:
    """_expm against 50 digits of mpmath: max |E - exp(A)| at most
    3e-15 max(10, |A|_1) of the largest entry of exp(A), per slice (the
    Omegas of the order-six problem, 1-norms near 10, come to 1.2e-14)."""

    @staticmethod
    def assert_exact(A, E):
        mp = pytest.importorskip("mpmath")
        for a, e in zip(A, E):
            with mp.workdps(50):
                ref = np.array(mp.expm(mp.matrix(a.tolist())).tolist(),
                               dtype=complex)
            bound = 3e-15 * max(10.0, one_norms(a[None])[0])
            assert np.max(np.abs(e - ref)) <= bound * np.max(np.abs(ref))

    @staticmethod
    def exponentiated(monkeypatch, run, n):
        """Every n x n slice exponentiated during run(), the direct
        route's and, where the column subsets number n, the carry's, and a
        sample of them: the six largest 1-norms and six spread over the
        sorted rest."""
        stacks, kernel = [], solutions._expm

        def recorded(A):
            stacks.append(A.copy())
            return kernel(A)

        monkeypatch.setattr(solutions, "_expm", recorded)
        run()
        A = np.concatenate([a for a in stacks if a.shape[-1] == n])
        order = np.argsort(one_norms(A))
        pick = np.linspace(0, len(A) - 1, 6).astype(int)
        return A[np.union1d(order[-6:], order[pick])]

    def test_mixed_scaling_and_a_non_finite_slice(self):
        # 1-norms from 1e-3 to 300 (s from 0 to 6) in one stack, and a
        # non-finite slice among them that leaves the others exact
        A = random_stack(np.random.default_rng(7), 4,
                         np.geomspace(1e-3, 300.0, 12))
        A[5, 1, 3] = np.nan
        E = solutions._expm(A)
        assert not np.isfinite(E[5]).any()
        keep = np.arange(len(A)) != 5
        self.assert_exact(A[keep], E[keep])

    @pytest.mark.parametrize("name", ["strip-n4", "weights-n3",
                                      "lowdisk-poly3"])
    def test_seed_1_workload_omegas(self, monkeypatch, name):
        # the balanced Omegas of the benchmark workload's seed-1 command
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        from workloads import WORKLOADS, make_config

        doc = make_config(name, 1)
        problem = problem_from_config(doc)

        def command():
            res = locate_eigenvalues(problem, doc["settings"]["l_max"])
            if WORKLOADS[name].command == "weights":
                weight_numbers(res)

        A = self.exponentiated(monkeypatch, command, problem.n)
        self.assert_exact(A, solutions._expm(A))

    def test_criterion_11_order_six(self, monkeypatch):
        # the n = 6 problem of acceptance criterion 11, whose weight
        # cross-check failed on unbalanced scaling and squaring
        n, r = 6, 3
        forms = (tuple(BoundaryForm(0, p) for p in range(r))
                 + tuple(BoundaryForm(1, p) for p in range(n - r)))
        idx = tuple(min(1, n // 2 - sum(divmod(nu, 2))) for nu in range(n - 1))
        problem = ProblemSpec(
            boundary=BoundarySpec(r, forms, weight=BoundaryForm(0, r)),
            expression=ExpressionSpec(n, idx, tuple(
                P.constant(0.3 * (nu + 1) / n) for nu in range(n - 1))))
        A = self.exponentiated(monkeypatch, lambda: weight_numbers(
            locate_eigenvalues(problem, l_max=4)), n)
        self.assert_exact(A, solutions._expm(A))


def two_piece_quadratic():
    """sigma_0 = 0, sigma_1 a quadratic on each of [0, 0.4] and [0.4, 1]."""
    return (P.zero(), P([0, 0.4, 1], [[0.5, -1.0, 2.0], [1.5, 0.3, -0.8]]))


def magnus_steps(F, lam_mat, a, h, nsteps, C):
    """C after nsteps Magnus steps of length h from a: one expm per
    step, applied in order."""
    ts = (a + np.arange(nsteps) * h)[:, None] + h * _GL3
    nodes = np.moveaxis(F.table(ts), (3, 2), (0, 1)) + lam_mat
    for om in _magnus6(*nodes, h):
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
