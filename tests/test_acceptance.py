"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
are produced. Shared heavy spectra are computed once per module.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from quasispec.asymptotics import (
    chi1_fit,
    compute_d,
    extract_remainders,
    pair_difference,
    weight_asymptotics,
    weight_pair_difference,
)
from quasispec.birkhoff import birkhoff_fss, upsilon
from quasispec.piecewise import PiecewisePoly as P
from quasispec.regularization import (
    ExpressionSpec,
    build_associated_matrix,
    conjugate_system,
    zero_expression,
)
from quasispec.sectors import sector_frame
from quasispec.solutions import integrate_fundamental
from quasispec.spectrum import (
    BoundaryForm,
    BoundarySpec,
    DeterminantEvaluator,
    ProblemSpec,
    count_zeros,
    locate_eigenvalues,
    rect_contour,
    weight_numbers,
)


def report(num, name, ok, detail=""):
    line = f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

def third_order_problem(sigma1=None):
    forms = (BoundaryForm(0, 0), BoundaryForm(1, 0), BoundaryForm(1, 1))
    coeffs = (P.zero(), sigma1 if sigma1 is not None else P.zero())
    return ProblemSpec(boundary=BoundarySpec(1, forms),
                       expression=ExpressionSpec(3, (1, 0), coeffs))


PAIR_FORMS = (BoundaryForm(0, 1), BoundaryForm(1, 0),
              BoundaryForm(1, 2), BoundaryForm(1, 3))
SIGMA0 = P.constant(0.8)
SIGMA2 = P.constant(-0.6)


def pair_specs(sigma1_a, sigma1_b):
    a = ExpressionSpec(4, (0, 0, 0), (SIGMA0, sigma1_a, SIGMA2))
    b = ExpressionSpec(4, (0, 0, 0), (SIGMA0, sigma1_b, SIGMA2))
    return a, b


@pytest.fixture(scope="module")
def criterion6_pair():
    """n=4, i=0, nu0=2 pair with constant sigma1 difference; weight forms
    attached. Their sub-window coefficient differs (the matching window
    only pins the top d-1 coefficients), which the weight-difference
    constant needs to stay nonzero."""
    sa, sb = pair_specs(P.constant(1.0), P.constant(0.4))
    wa = BoundaryForm(0, 2, u=(0.6, 0.0))
    wb = BoundaryForm(0, 2)
    pa = ProblemSpec(boundary=BoundarySpec(1, PAIR_FORMS, weight=wa),
                     expression=sa)
    pb = ProblemSpec(boundary=BoundarySpec(1, PAIR_FORMS, weight=wb),
                     expression=sb)
    ra = locate_eigenvalues(pa, l_max=40)
    rb = locate_eigenvalues(pb, l_max=40)
    return (sa, sb, pa, pb, ra, rb)


def beam_oracle():
    g = lambda r: np.cos(r) * np.cosh(r) - 1.0
    return brentq(g, 4.6, 4.8, xtol=1e-12)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_golden_matrices():
    z, one = P.zero(), P.constant(1.0)
    ok = True
    # third order, i = (1, 0)
    s0, s1 = P.constant(2.0 + 1j), P.constant(-0.5 + 0.25j)
    F = build_associated_matrix(ExpressionSpec(3, (1, 0), (s0, s1)))
    want = [[z, one, z], [s0 + s1, z, one], [z, -(s0 - s1), z]]
    for a in range(3):
        for b in range(3):
            ok &= F.entries[a][b].equals(want[a][b])
    # sixth order, i = 0
    s = [P.constant(v) for v in (2.0, 3.0, 5.0, 7.0, 11.0)]
    F = build_associated_matrix(ExpressionSpec(6, (0,) * 5, tuple(s)))
    want = [
        [z, one, z, z, z, z],
        [z, z, one, z, z, z],
        [z, z, z, one, z, z],
        [z, -s[3], -s[4], z, one, z],
        [s[1], s[2], -s[3], z, z, one],
        [-s[0], s[1], z, z, z, z],
    ]
    for a in range(6):
        for b in range(6):
            ok &= F.entries[a][b].equals(want[a][b])
    # fourth order, i = 1 (quadratic terms)
    t0, t1, t2 = (P.constant(2.0), P.constant(3.0), P.constant(5.0))
    F = build_associated_matrix(ExpressionSpec(4, (1, 1, 1), (t0, t1, t2)))
    want = [
        [z, one, z, z],
        [-t1, -t2, one, z],
        [t0 - t1 * t2, -(t2 * t2), t2, one],
        [-(t1 * t1), -t0 - t1 * t2, t1, z],
    ]
    for a in range(4):
        for b in range(4):
            ok &= F.entries[a][b].equals(want[a][b])
    report(1, "golden regularization matrices", ok,
           "orders 3, 6, 4 entry-by-entry symbolic")


def test_criterion_02_classical_spectrum():
    forms = (BoundaryForm(0, 0), BoundaryForm(1, 0))
    prob = ProblemSpec(boundary=BoundarySpec(1, forms),
                       expression=zero_expression(2))
    res = locate_eigenvalues(prob, l_max=20)
    errs = [abs(d.lam - (-(np.pi * d.l) ** 2)) / (np.pi * d.l) ** 2
            for d in res.data]
    ok = len(res.data) == 20 and max(errs) < 1e-8
    report(2, "classical Dirichlet spectrum", ok,
           f"max rel err {max(errs):.2e}")


def test_criterion_03_beam_oracle():
    forms = (BoundaryForm(0, 0), BoundaryForm(0, 1),
             BoundaryForm(1, 0), BoundaryForm(1, 1))
    prob = ProblemSpec(boundary=BoundarySpec(2, forms),
                       expression=zero_expression(4))
    res = locate_eigenvalues(prob, l_max=1)
    r1 = beam_oracle()
    err = abs(res.data[0].rho - r1)
    report(3, "clamped beam fundamental root", err < 1e-6,
           f"rho_1 = {res.data[0].rho.real:.9f}, oracle {r1:.9f}, "
           f"err {err:.2e}")


def test_criterion_04_chi_constant():
    res = locate_eigenvalues(third_order_problem(), l_max=40)
    ls = np.array([d.l for d in res.data], dtype=float)
    rhos = np.array([d.rho for d in res.data])
    mask = (ls >= 10) & (ls <= 40)
    fitted = np.mean(rhos[mask] / res.model.growth - ls[mask])
    # only chi mod 1 is contract-bearing
    frac = (fitted.real - 1.0 / 6.0 + 0.5) % 1.0 - 0.5
    ok = abs(frac) < 1e-3 and abs(fitted.imag) < 1e-3
    report(4, "third-order chi = 1/6", ok, f"fitted chi {fitted:.9f}")


def test_criterion_05_chi1_constant():
    res = locate_eigenvalues(third_order_problem(P.constant(1.0)), l_max=40)
    ls, eps, _ = extract_remainders(res.data, res.model,
                                    chi_shift=res.chi_cal - res.model.chi)
    chi1, resid = chi1_fit(ls, eps, (15, 40))
    # The source prints chi_1 = 1/pi^2, a factor two too large: the
    # conjugation gives diag(A_1) = (2/3) sigma_1 diag(1/omega_k), hence
    # chi_1 = integral(sigma_1) / (2 pi^2). The mpmath oracle in
    # test_asymptotics.py extrapolates to 0.0506605920 (1/(2 pi^2) within
    # 4e-9). The one-term fit on (15, 40) reads about 2% low, the O(1/l^2)
    # bias of the window (the oracle's l * eps_l is 0.04955 at l = 20 and
    # 0.05010 at l = 40), so the tolerance stays at 5%.
    target = 1.0 / (2 * np.pi ** 2)
    rel = abs(chi1 - target) / target
    printed = 1.0 / np.pi ** 2
    rel_printed = abs(chi1 - printed) / printed
    ok = rel < 0.05
    report(5, "third-order chi_1 = 1/(2 pi^2) (source prints 1/pi^2)", ok,
           f"fitted chi_1 {chi1.real:.6f}, rel dev from 1/(2 pi^2) "
           f"{rel:.3f}, from printed 1/pi^2 {rel_printed:.3f}")


def test_criterion_06_pair_decay_order(criterion6_pair):
    sa, sb, pa, pb, ra, rb = criterion6_pair
    d, N_d, N_d0 = compute_d(sa, sb, 2)
    pc = pair_difference(ra.data, rb.data, d, (10, 40), N_d, N_d0)
    ok = d == 2 and abs(pc.slope_fit + d) < 0.15
    report(6, "pair decay order", ok,
           f"d = {d}, slope {pc.slope_fit:.4f}, c_hat {pc.c_hat:.6g}")


def test_criterion_07_pair_zero_mean():
    sa, sb = pair_specs(P([0, 0.5, 1], [[0.6], [-0.6]]), P.zero())
    bnd = BoundarySpec(1, PAIR_FORMS)
    pa = ProblemSpec(boundary=bnd, expression=sa)
    pb = ProblemSpec(boundary=bnd, expression=sb)
    ra = locate_eigenvalues(pa, l_max=40)
    rb = locate_eigenvalues(pb, l_max=40)
    d, _, _ = compute_d(sa, sb, 2)
    ls = np.array([x.l for x in ra.data], dtype=float)
    rh = np.array([a.rho - b.rho for a, b in zip(ra.data, rb.data)])
    scaled = np.abs(ls ** d * rh)
    lo = np.max(scaled[(ls >= 5) & (ls <= 10)])
    hi = np.max(scaled[(ls >= 20) & (ls <= 40)])
    ok = hi <= 0.5 * lo
    report(7, "pair zero-mean difference collapses", ok,
           f"max l^d|rho_hat| [20,40] {hi:.3e} vs [5,10] {lo:.3e}")


def test_criterion_08_weight_numbers():
    forms = (BoundaryForm(0, 0), BoundaryForm(1, 0))
    bnd = BoundarySpec(1, forms, weight=BoundaryForm(0, 1))
    prob = ProblemSpec(boundary=bnd, expression=zero_expression(2))
    res = weight_numbers(locate_eigenvalues(prob, l_max=15))
    rels = [abs(d.beta - (-2.0 * (np.pi * d.l) ** 2)) / (2 * (np.pi * d.l) ** 2)
            for d in res.data]
    expo, beta0 = weight_asymptotics(res.data, res.model, p0=1)
    ok = max(rels) < 1e-6 and abs(expo - 2.0) < 0.1
    report(8, "Dirichlet weight numbers", ok,
           f"max rel err {max(rels):.2e}, exponent {expo:.4f}")


def test_criterion_09_weight_pair(criterion6_pair):
    sa, sb, pa, pb, ra, rb = criterion6_pair
    d, _, _ = compute_d(sa, sb, 2)
    wa = weight_numbers(ra)
    wb = weight_numbers(rb)
    expo, _, _ = weight_pair_difference(wa.data, wb.data, d, (10, 40))
    target = 4 - 1 + 2 - 1 - d  # n - 1 + p0 - p_r - d
    ok = abs(expo - target) < 0.2
    report(9, "paired weight difference exponent", ok,
           f"exponent {expo:.4f}, target {target}")


def test_criterion_10_birkhoff_consistency():
    # (a) FSS vs direct integration at |rho| = 50 in sector 1
    coeffs = (P([0, 1], [[0.4, 0.3]]), P([0, 1], [[0.8, -0.5]]))
    F = build_associated_matrix(ExpressionSpec(3, (1, 0), coeffs))
    frame = sector_frame(3, 1)
    system = conjugate_system(F, frame)
    rho = 50.0 * np.exp(1j * np.pi / 6)
    sol = birkhoff_fss(system, rho)
    scal = rho ** np.arange(3)
    worst = 0.0
    for k in range(3):
        spreads = np.real(rho * (frame.omegas - frame.omegas[k]))
        xstar = min(1.0, 15.0 / max(float(np.max(spreads)), 1e-9))
        flat = np.argmin(np.abs(sol.xs - xstar))
        p, qn = np.unravel_index(flat, sol.xs.shape)
        y0 = scal * (frame.Omega @ sol.w_at(0, 0))[:, k]
        grid = np.unique(np.array([0.0, sol.xs[p, qn], 1.0]))
        fm = integrate_fundamental(F, rho ** 3, grid=grid)
        idx = int(np.argmin(np.abs(fm.grid - sol.xs[p, qn])))
        direct = fm.values[idx] @ y0
        birk = scal * (frame.Omega @ sol.w_at(p, qn))[:, k]
        worst = max(worst, float(np.max(np.abs(direct - birk))
                                 / np.max(np.abs(birk))))
    ok_a = worst < 1e-6

    # (b) Upsilon decay on smooth fixtures with A_0 != 0
    fixtures = [
        conjugate_system(build_associated_matrix(
            ExpressionSpec(2, (1,), (P([0, 1], [[1.0, -2.0, 1.5]]),))),
            sector_frame(2, 1)),
        conjugate_system(build_associated_matrix(
            ExpressionSpec(4, (2, 1, 1),
                           (P([0, 1], [[0.5, 0.5]]), P([0, 1], [[0.3, -0.4]]),
                            P([0, 1], [[-0.2, 0.6]])))),
            sector_frame(4, 1)),
    ]
    ok_b = True
    decays = []
    for system in fixtures:
        assert not system.a0_is_zero()
        ray = np.exp(1j * np.pi / (2 * system.n))
        u20 = upsilon(system, 20.0 * ray)
        u200 = upsilon(system, 200.0 * ray)
        decays.append((u20, u200))
        ok_b &= u200 < u20

    # (c) Upsilon vanishes identically when A_0 does
    sys0 = conjugate_system(build_associated_matrix(
        ExpressionSpec(3, (1, 0), (P.constant(2.0), P.constant(1.0)))),
        sector_frame(3, 1))
    ups0 = upsilon(sys0, 30.0 * np.exp(1j * np.pi / 6))
    ok_c = sys0.a0_is_zero() and ups0 == 0.0

    ok = ok_a and ok_b and ok_c
    report(10, "Birkhoff consistency and Upsilon decay", ok,
           f"FSS agreement {worst:.2e}; decay {decays}; "
           f"Upsilon(A0=0) = {ups0}")


def test_criterion_11_property_suite():
    rng = np.random.default_rng(2024)
    checked = 0
    count_checks = 0
    beta_checks = 0
    ok = True
    messages = []
    for trial in range(50):
        n = int(rng.integers(2, 7))
        m = n // 2
        idx, coeffs = [], []
        for nu in range(n - 1):
            k, j = divmod(nu, 2)
            idx.append(int(rng.integers(0, m - k - j + 1)))
            bp = [0.0, float(rng.uniform(0.3, 0.7)), 1.0]
            coeffs.append(P(bp, [
                [complex(rng.normal(0, 0.4), rng.normal(0, 0.4)),
                 complex(rng.normal(0, 0.4), rng.normal(0, 0.4))],
                [complex(rng.normal(0, 0.4), rng.normal(0, 0.4))]]))
        spec = ExpressionSpec(n, tuple(idx), tuple(coeffs))
        F = build_associated_matrix(spec)
        x = np.linspace(0, 1, 101)
        # superdiagonal structure
        for a in range(n):
            for b in range(a + 2, n):
                ok &= F.entries[a][b].is_zero()
            if a < n - 1:
                ok &= F.entries[a][a + 1].equals(P.constant(1.0))
        # trace
        ok &= F.trace().sup_on_grid() < 1e-12
        # diag(A_0) == 0
        system = conjugate_system(F, sector_frame(n, int(rng.integers(1, 2 * n + 1))))
        a0 = system.evaluate_Ak(x)[0]
        diag0 = float(np.max(np.abs(np.diagonal(a0, axis1=1, axis2=2))))
        ok &= diag0 < 1e-12 * (1.0 + float(np.max(np.abs(a0))))
        # det C == 1
        lam = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        fm = integrate_fundamental(F, lam, grid=np.linspace(0, 1, 9))
        ok &= fm.det_deviation() < 1e-8
        checked += 1
        if not ok:
            messages.append(f"trial {trial} n={n}")
            break

    # count == refined roots and beta residue/ratio agreement on a
    # deterministic subsample exercising every order
    for n in (2, 3, 4, 5, 6):
        r = max(1, n // 2)
        ps_left = tuple(range(r))
        ps_right = tuple(range(n - r))
        forms = tuple(BoundaryForm(0, p) for p in ps_left) + \
            tuple(BoundaryForm(1, p) for p in ps_right)
        wp = next(p for p in range(n) if p not in ps_left)
        bnd = BoundarySpec(r, forms, weight=BoundaryForm(0, wp))
        m = n // 2
        idx = []
        for nu in range(n - 1):
            k, j = divmod(nu, 2)
            idx.append(min(1, m - k - j))
        coeffs = tuple(P.constant(0.3 * (nu + 1) / n) for nu in range(n - 1))
        prob = ProblemSpec(boundary=bnd,
                           expression=ExpressionSpec(n, tuple(idx), coeffs))
        res = locate_eigenvalues(prob, l_max=4)
        model = res.model
        ev = DeterminantEvaluator(prob, model)
        lo, hi = 3, 4
        f = ev.box_function(model.growth * (hi + 1.5))
        x0 = model.growth * (lo - 0.5 + float(np.real(res.chi_cal)))
        x1 = model.growth * (hi + 0.5 + float(np.real(res.chi_cal)))
        cnt, _ = count_zeros(f, rect_contour(
            x0, x1, -0.45 * model.growth, 0.45 * model.growth, m=16))
        got = sum(1 for d in res.data if lo <= d.l <= hi)
        if cnt != got:
            ok = False
            messages.append(f"count mismatch n={n}: {cnt} vs {got}")
        count_checks += 1
        # beta ratio vs residue agreement is enforced inside weight_numbers
        try:
            weight_numbers(res)
            beta_checks += 1
        except Exception as exc:  # noqa: BLE001
            ok = False
            messages.append(f"beta cross-check n={n}: {exc}")

    report(11, "randomized property suite", ok,
           f"{checked} specs, {count_checks} count checks, "
           f"{beta_checks} beta checks" + ("; " + "; ".join(messages)
                                           if messages else ""))
