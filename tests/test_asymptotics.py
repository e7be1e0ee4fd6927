"""Sector frames, the two-exponential model, remainder and pair fits."""

import numpy as np
import pytest

from quasispec.asymptotics import (
    asymptotic_model,
    check_boundary_match,
    chi1_fit,
    compute_d,
    extract_remainders,
    pair_difference,
    weight_asymptotics,
    weight_pair_difference,
)
from quasispec.errors import ConfigurationError, ValidationError
from quasispec.piecewise import PiecewisePoly as P, from_samples
from quasispec.regularization import ExpressionSpec
from quasispec.sectors import sector_frame
from quasispec.spectrum import SpectralDatum


class TestSectorFrame:
    def test_third_order_first_sector(self):
        fr = sector_frame(3, 1)
        # ordered by Re(rho w) on the midpoint ray: (e^{2pi i/3}, e^{-2pi i/3}, 1)
        want = np.array([np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3), 1.0])
        np.testing.assert_allclose(fr.omegas, want, atol=1e-14)

    def test_second_order(self):
        fr = sector_frame(2, 1)
        np.testing.assert_allclose(fr.omegas, [-1.0, 1.0], atol=1e-15)

    def test_ordering_everywhere_in_sector(self):
        for n in (2, 3, 4, 5, 6):
            for kappa in range(1, 2 * n + 1):
                fr = sector_frame(n, kappa)
                for t in (0.15, 0.5, 0.85):
                    ray = np.exp(1j * np.pi * (kappa - 1 + t) / n)
                    re = np.real(ray * fr.omegas)
                    assert np.all(np.diff(re) > 0), (n, kappa, t)

    def test_kappa_range(self):
        with pytest.raises(ValidationError):
            sector_frame(3, 7)


class TestAsymptoticModel:
    def test_third_order_chi(self):
        m = asymptotic_model(3, 1, (0, 0, 1))
        assert m.chi.real == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert abs(m.chi.imag) < 1e-12
        assert m.growth == pytest.approx(2 * np.pi / np.sqrt(3))

    def test_dirichlet(self):
        m = asymptotic_model(2, 1, (0, 0))
        assert m.c1 == pytest.approx(1.0)
        assert m.c2 == pytest.approx(1.0)
        assert abs(m.chi) < 1e-12
        assert m.sign == -1
        np.testing.assert_allclose(m.lambda_prediction(np.arange(1, 4)),
                                   [-np.pi ** 2, -4 * np.pi ** 2, -9 * np.pi ** 2],
                                   rtol=1e-12)

    def test_beam_chi_half(self):
        m = asymptotic_model(4, 2, (0, 1, 0, 1))
        assert m.chi.real == pytest.approx(0.5, abs=1e-12)

    def test_predictions_are_model_zeros(self):
        for (n, r, ps) in [(2, 1, (0, 0)), (3, 1, (0, 0, 1)),
                           (4, 2, (0, 1, 0, 1)), (5, 3, (0, 1, 2, 0, 1)),
                           (4, 1, (0, 0, 1, 2)), (6, 3, (0, 1, 2, 0, 1, 2))]:
            m = asymptotic_model(n, r, ps)
            for l in (-50, -3, 0, 7, 50):
                val = m.model_function(m.prediction(l))
                assert abs(val) < 1e-10 * (abs(m.c1) + abs(m.c2)), (n, r, l)

    def test_chi_ignores_u_entirely(self):
        # the operation takes neither sigma nor u; identical output for
        # any boundary coefficients is structural
        m1 = asymptotic_model(3, 1, (0, 0, 1))
        m2 = asymptotic_model(3, 1, (0, 0, 1))
        assert m1.chi == m2.chi

    def test_degenerate_configuration(self):
        # repeated p on one side is rejected upstream; a genuinely
        # degenerate c1 needs special (n, p) combos; validate the guard
        with pytest.raises(ValidationError):
            asymptotic_model(3, 1, (0, 1, 1))


def fake_data(model, ls, eps_fn, chi=None):
    chi = model.chi if chi is None else chi
    out = []
    for l in ls:
        rho = model.growth * (l + chi + eps_fn(l))
        lam = model.sign * rho ** model.n
        out.append(SpectralDatum(l=int(l), lam=complex(lam), rho=complex(rho),
                                 eps=complex(eps_fn(l))))
    return out


class TestRemainders:
    def test_exact_inverse_of_prediction(self):
        m = asymptotic_model(3, 1, (0, 0, 1))
        data = fake_data(m, range(1, 30), lambda l: 0.0)
        ls, eps, diag = extract_remainders(data, m)
        assert np.max(np.abs(eps)) < 1e-13

    def test_recovers_planted_remainder(self):
        m = asymptotic_model(2, 1, (0, 0))
        data = fake_data(m, range(1, 40), lambda l: 0.07 / l)
        ls, eps, diag = extract_remainders(data, m)
        np.testing.assert_allclose(eps, 0.07 / ls, atol=1e-12)
        assert diag["sup_tail"] <= 0.07 / 19

    def test_tail_sums_decrease(self):
        m = asymptotic_model(2, 1, (0, 0))
        data = fake_data(m, range(1, 65), lambda l: 0.1 / l)
        _, _, diag = extract_remainders(data, m)
        sums = list(diag["tail_sq_sums"].values())
        assert all(a > b for a, b in zip(sums, sums[1:]))


class TestChi1Fit:
    def test_recovers_constant(self):
        ls = np.arange(10, 45, dtype=float)
        eps = 0.3 / ls
        chi1, resid = chi1_fit(ls, eps)
        assert chi1 == pytest.approx(0.3, rel=1e-12)
        assert resid < 1e-12

    def test_zero_sequence(self):
        ls = np.arange(5, 25, dtype=float)
        chi1, resid = chi1_fit(ls, np.zeros(len(ls)))
        assert abs(chi1) < 1e-14

    def test_window_too_small(self):
        with pytest.raises(ConfigurationError):
            chi1_fit(np.array([3.0, 4.0]), np.array([0.1, 0.1]))


def _oracle_l_eps(mp, sigma1, l):
    """l * eps_l for the third-order problem of acceptance criterion 05,
    from its characteristic determinant alone.

    n = 3, i = (1, 0), sigma_0 = 0 and constant sigma_1 give the constant
    associated matrix F = [[0, 1, 0], [s, 0, 1], [0, s, 0]], so
    C(1) = expm(F + Lambda) exactly, with lambda = rho^3 in the corner.
    The forms y(0), y(1), y^[1](1) leave the minor C01 C12 - C02 C11.
    The minor grows like exp(rho / 2), cancelling from exp(2 rho), hence
    the working precision that rises with l.
    """
    with mp.workdps(int(40 + 3.15 * l)):
        s = mp.mpf(sigma1)
        growth = 2 * mp.pi / mp.sqrt(3)
        chi = mp.mpf(1) / 6

        def delta(rho):
            C = mp.expm(mp.matrix([[0, 1, 0], [s, 0, 1], [rho ** 3, s, 0]]))
            return (C[0, 1] * C[1, 2] - C[0, 2] * C[1, 1]) * mp.exp(-rho / 2)

        x0 = growth * (l + chi)
        rho = mp.findroot(delta, (x0, x0 + mp.mpf("1e-3")), solver="secant",
                          tol=mp.mpf(10) ** -30)
        return l * (rho / growth - l - chi)


class TestChi1Oracle:
    """The refinement constant of criterion 05 by an independent oracle:
    exact matrix exponentials and mpmath root finding, then Richardson
    extrapolation of l * eps_l = chi_1 + a / l + b / l^2 + ... over
    l = 20, 40, 80, 160. The limit is integral(sigma_1) / (2 pi^2); the
    source prints integral(sigma_1) / pi^2, a factor two too large."""

    @pytest.mark.parametrize("sigma1", [1.0, 0.5])
    def test_limit_is_integral_over_two_pi_squared(self, sigma1):
        mp = pytest.importorskip("mpmath")
        table = [_oracle_l_eps(mp, sigma1, l) for l in (20, 40, 80, 160)]
        for k in (1, 2, 3):
            table = [(2 ** k * b - a) / (2 ** k - 1)
                     for a, b in zip(table, table[1:])]
        limit = float(table[0])
        derived = sigma1 / (2 * np.pi ** 2)
        printed = sigma1 / np.pi ** 2
        assert abs(limit - derived) < 1e-6 * derived
        assert abs(limit - printed) > 0.4 * printed


class TestComputeD:
    def make(self, n, indices, vals):
        return ExpressionSpec(n, tuple(indices),
                              tuple(P.constant(v) for v in vals))

    def test_sixth_order_all_zero_indices(self):
        a = self.make(6, (0,) * 5, (1, 2, 3, 4, 5))
        b = self.make(6, (0,) * 5, (9, 8, 3, 4, 5))
        d, Nd, Nd0 = compute_d(a, b, 3)
        # wait: sigma_2 differs? ensure nu >= nu0 agree
        assert d == 6 - 1 - max(0, 1 + 0, 2 + 0)

    def test_example_style_cases(self):
        a = self.make(6, (0,) * 5, (1, 2, 3, 4, 5))
        b = self.make(6, (0,) * 5, (0, 5, 3, 4, 5))
        d, Nd, Nd0 = compute_d(a, b, 3)
        assert (d, Nd, Nd0) == (3, (2,), (2,))
        a = self.make(4, (1, 1, 1), (1, 2, 3))
        b = self.make(4, (1, 1, 1), (5, 7, 3))
        d, Nd, Nd0 = compute_d(a, b, 2)
        assert (d, Nd, Nd0) == (1, (1,), ())

    def test_mirzoev_shkalikov_case(self):
        # n = 2m, i_{2k+j} = m-k-j: nu0 = 2 nu1 gives d = m - nu1, N_d0 empty
        n, m = 6, 3
        idx = []
        for nu in range(n - 1):
            k, j = divmod(nu, 2)
            idx.append(m - k - j)
        a = self.make(n, idx, (1, 2, 3, 4, 5))
        b = self.make(n, idx, (7, 8, 3, 4, 5))
        nu1 = 1
        d, Nd, Nd0 = compute_d(a, b, 2 * nu1)
        assert d == m - nu1
        assert Nd == (2 * nu1 - 2, 2 * nu1 - 1)
        assert Nd0 == ()

    def test_disagreement_detected(self):
        a = self.make(4, (0, 0, 0), (1, 2, 3))
        b = self.make(4, (0, 0, 0), (1, 2, 4))
        with pytest.raises(ValidationError, match=r"coefficients\[2\]"):
            compute_d(a, b, 2)


class TestBoundaryMatch:
    def test_accepts_matching(self):
        fa = [(2, (1.0, 2.0)), (1, (0.5,))]
        fb = [(2, (1.0, 2.0)), (1, (0.5,))]
        check_boundary_match(fa, fb, d=3)

    def test_rejects_mismatch_in_window(self):
        # u_{s, p_s - j} constrained for j = 0..d-2: with p = 2 and d = 2
        # only the top coefficient u_2 matters; d = 3 pulls in u_1
        fa = [(2, (1.0, 2.0))]
        fb = [(2, (1.5, 2.0))]
        check_boundary_match(fa, fb, d=2)
        with pytest.raises(ValidationError):
            check_boundary_match(fa, fb, d=3)


class TestPairDifference:
    def test_identical_data(self):
        m = asymptotic_model(4, 2, (0, 1, 0, 1))
        data = fake_data(m, range(1, 20), lambda l: 0.01 / l)
        pc = pair_difference(data, data, d=2, l_range=(4, 19))
        assert np.max(np.abs(pc.rho_hat)) == 0.0
        assert pc.c_hat == 0.0

    def test_planted_decay(self):
        m = asymptotic_model(4, 2, (0, 1, 0, 1))
        da = fake_data(m, range(1, 41), lambda l: 0.0)
        db = fake_data(m, range(1, 41), lambda l: 0.02 / l ** 2 / m.growth)
        pc = pair_difference(da, db, d=2, l_range=(10, 40))
        # subtracting rho ~ 100 to expose differences ~ 1e-5 costs ~1e-9
        # of absolute accuracy in the synthetic data itself
        assert pc.slope_fit == pytest.approx(-2.0, abs=1e-4)
        assert pc.c_hat == pytest.approx(-0.02, rel=1e-6)

    def test_alignment_guard(self):
        m = asymptotic_model(2, 1, (0, 0))
        da = fake_data(m, range(1, 12), lambda l: 0.0)
        db = fake_data(m, range(1, 12), lambda l: 0.9)
        with pytest.raises(ValidationError):
            pair_difference(da, db, d=1, l_range=(1, 11))


class TestWeightFits:
    def test_exponent_and_beta0(self):
        m = asymptotic_model(2, 1, (0, 0))
        data = [SpectralDatum(l=l, lam=0.0, rho=np.pi * l, eps=0.0,
                              beta=-2.0 * (np.pi * l) ** 2)
                for l in range(1, 16)]
        expo, beta0 = weight_asymptotics(data, m, p0=1)
        assert expo == pytest.approx(2.0, abs=1e-9)
        assert beta0 == pytest.approx(-2.0 * np.pi ** 2, rel=1e-12)

    def test_pair_identical(self):
        m = asymptotic_model(2, 1, (0, 0))
        data = [SpectralDatum(l=l, lam=0.0, rho=np.pi * l, eps=0.0,
                              beta=-2.0 * (np.pi * l) ** 2)
                for l in range(1, 16)]
        with pytest.raises(ConfigurationError):
            # identical pair: all differences vanish, no exponent to fit
            weight_pair_difference(data, data, d=1)

    def test_pair_planted_exponent(self):
        m = asymptotic_model(4, 1, (0, 0, 1, 2))
        da = [SpectralDatum(l=l, lam=0.0, rho=0.0, eps=0.0, beta=l ** 4.0)
              for l in range(5, 40)]
        db = [SpectralDatum(l=l, lam=0.0, rho=0.0, eps=0.0,
                            beta=l ** 4.0 - 3.0 * l ** 2)
              for l in range(5, 40)]
        expo, ls, bh = weight_pair_difference(da, db, d=2)
        assert expo == pytest.approx(2.0, abs=1e-9)

    def test_missing_weights(self):
        m = asymptotic_model(2, 1, (0, 0))
        data = fake_data(m, range(1, 10), lambda l: 0.0)
        with pytest.raises(ConfigurationError):
            weight_asymptotics(data, m, p0=1)
