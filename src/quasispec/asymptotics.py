"""Closed-form spectral asymptotics and the paired-problem analysis.

The two-exponential model of the normalized characteristic function has
zeros on an arithmetic progression growth*(l + chi); its constants c1,
c2, chi depend only on (n, r, p_s). Remainders of located eigenvalues
against that progression, the 1/l refinement constant, the first
differing diagonal of a pair of expressions, and the difference decay
fits all live here.

All rho values are "normalized": rho_check = ((-1)^(n-r) lambda)^(1/n)
taken near the positive real axis, so eigenvalue families march to the
right regardless of the parity of n - r. The physical rho is
rho_check * e_dir with e_dir = exp(i pi ((n-r) mod 2)/n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ValidationError
from .regularization import ExpressionSpec
from .sectors import SectorFrame, sector_frame

__all__ = [
    "AsymptoticModel",
    "asymptotic_model",
    "extract_remainders",
    "chi1_fit",
    "compute_d",
    "PairComparison",
    "pair_difference",
    "weight_asymptotics",
    "weight_pair_difference",
]

# a pair difference at or below this share of |rho_l| is round-off (the
# accuracy spectrum.NEWTON_RTOL gives a located root) and counts as zero
ROUNDOFF_RTOL = 1e-12


def _submatrix_det(omegas, ps, cols):
    """det [omega_k^{p_s}] over the given (ordered) column index list."""
    M = np.array([[omegas[k] ** p for k in cols] for p in ps], dtype=complex)
    return complex(np.linalg.det(M)) if len(ps) else 1.0 + 0j


@dataclass(frozen=True)
class AsymptoticModel:
    """Two-exponential model of the normalized determinant.

    Zeros of D1(rho_check) = c1 - c2 exp(rho_check * e_exp) form the set
    growth*(chi + Z); predictions for index l are growth*(l + chi).
    """

    n: int
    r: int
    p_list: tuple
    kappa: int
    frame: SectorFrame
    e_dir: complex
    c1: complex
    c2: complex
    chi: complex
    growth: float
    sign: int
    e_exp: complex

    @property
    def p_r(self):
        return self.p_list[self.r - 1]

    def model_function(self, rho_check):
        """D1(rho_check); vanishes exactly at growth*(l + chi), l integer."""
        return self.c1 - self.c2 * np.exp(np.asarray(rho_check) * self.e_exp)

    def prediction(self, l):
        return self.growth * (np.asarray(l) + self.chi)

    def lambda_prediction(self, l):
        return self.sign * self.prediction(l) ** self.n

    def rho_of_lambda(self, lam):
        """Canonical normalized root, arg in (-pi/n, pi/n]."""
        return (self.sign * np.asarray(lam, dtype=complex)) ** (1.0 / self.n)


def asymptotic_model(n, r, p_list, kappa=None, strip_R=None):
    """Constants (c1, c2, chi) and the prediction machinery for one
    boundary configuration.

    The sector is chosen adjacent to the eigenvalue ray (arg 0 for even
    n - r, arg pi/n for odd), where the ordered roots tie exactly at
    positions (r, r+1); chi is read off the zero set of the
    two-exponential model, so its value is branch-consistent with the
    predictions by construction. Re(chi) is reduced to [0, 1).
    """
    # strip_R has no effect; bench/setup_probe.py still passes it
    p_list = tuple(int(p) for p in p_list)
    if not 1 <= r <= n - 1:
        raise ValidationError("boundary.r", f"need 1 <= r <= {n - 1}")
    if len(p_list) != n:
        raise ValidationError("boundary", f"expected {n} boundary orders")
    for s, p in enumerate(p_list):
        if not 0 <= p <= n - 1:
            raise ValidationError(f"boundary.p[{s}]", "order out of range")
    if len(set(p_list[:r])) != r or len(set(p_list[r:])) != n - r:
        raise ValidationError("boundary", "orders must be distinct per side")

    parity = (n - r) % 2
    e_dir = np.exp(1j * np.pi * parity / n)
    growth = np.pi / np.sin(np.pi * r / n)

    candidates = [1, 2, 2 * n] if kappa is None else [kappa]
    frame = None
    for kap in candidates:
        fr = sector_frame(n, kap)
        re_on_ray = np.real(e_dir * fr.omegas)
        order_ok = np.all(np.diff(re_on_ray) > -1e-12)
        tie = abs(re_on_ray[r] - re_on_ray[r - 1]) < 1e-12
        if order_ok and tie:
            frame = fr
            kappa = kap
            break
    if frame is None:
        raise ValidationError(
            "kappa", "no sector adjacent to the eigenvalue ray ties the "
            f"pair ({r}, {r + 1}); check (n, r) = ({n}, {r})")

    om = frame.omegas
    c1 = (_submatrix_det(om, p_list[:r], list(range(r)))
          * _submatrix_det(om, p_list[r:], list(range(r, n))))
    cols_left = list(range(r - 1)) + [r]
    cols_right = [r - 1] + list(range(r + 1, n))
    c2 = (_submatrix_det(om, p_list[:r], cols_left)
          * _submatrix_det(om, p_list[r:], cols_right))
    if abs(c1) < 1e-12 or abs(c2) < 1e-12:
        raise ValidationError(
            "boundary", "degenerate configuration: a model constant vanishes")

    e_exp = e_dir * (om[r - 1] - om[r])
    step = 2j * np.pi / e_exp
    if abs(abs(step.real) - growth) > 1e-9 * growth or abs(step.imag) > 1e-9 * growth:
        raise ValidationError("boundary", "model zero spacing is not the "
                              "strip spacing; sector misconfigured")
    rho0 = np.log(c1 / c2) / e_exp
    chi = rho0 / growth
    chi = chi - np.floor(chi.real)
    return AsymptoticModel(
        n=n, r=r, p_list=p_list, kappa=kappa, frame=frame,
        e_dir=complex(e_dir), c1=c1, c2=c2, chi=complex(chi),
        growth=float(growth), sign=(-1) ** (n - r),
        e_exp=complex(e_exp))


# ---------------------------------------------------------------------------
# remainder extraction and fits
# ---------------------------------------------------------------------------

def extract_remainders(data, model, chi_shift=0):
    """epsilon_l = rho_l / growth - l - chi for located spectral data.

    `data` is any sequence of objects with attributes l and rho (the
    normalized rho). Returns (ls, eps, diagnostics); the diagnostics
    carry the tail sup and dyadic tail sums of |eps|^2.
    """
    ls = np.array([d.l for d in data], dtype=float)
    rhos = np.array([d.rho for d in data], dtype=complex)
    eps = rhos / model.growth - ls - (model.chi + chi_shift)
    order = np.argsort(ls)
    ls, eps = ls[order], eps[order]
    diag = {}
    if len(ls):
        diag["sup_tail"] = float(np.max(np.abs(eps[len(eps) // 2:])))
        ladders = {}
        L = int(ls[0])
        while L <= ls[-1]:
            mask = ls >= L
            ladders[L] = float(np.sum(np.abs(eps[mask]) ** 2))
            L *= 2
        diag["tail_sq_sums"] = ladders
    return ls, eps, diag


def _window(ls, vals, l_range):
    """(ls, vals) as arrays, cut to the inclusive index window l_range
    (all of them when l_range is None)."""
    ls = np.asarray(ls, dtype=float)
    vals = np.asarray(vals, dtype=complex)
    if l_range is None:
        return ls, vals
    mask = (ls >= l_range[0]) & (ls <= l_range[1])
    return ls[mask], vals[mask]


def _log_slope(ls, vals):
    """Least-squares slope of log|vals| against log l over the nonzero
    values. Raises when fewer than 4 remain."""
    nz = np.abs(vals) > 0
    if np.count_nonzero(nz) < 4:
        raise ConfigurationError("exponent fit needs at least 4 nonzero values")
    A = np.vstack([np.log(ls[nz]), np.ones(np.count_nonzero(nz))]).T
    sol, *_ = np.linalg.lstsq(A, np.log(np.abs(vals[nz])), rcond=None)
    return float(sol[0])


def _aligned(data_a, data_b, key):
    """(ls, a-values, b-values) of key(datum) at the indices both data
    hold and neither key is None, in data_a's order."""
    by_l = {d.l: key(d) for d in data_b}
    rows = [(d.l, key(d), by_l.get(d.l)) for d in data_a]
    rows = [row for row in rows if row[1] is not None and row[2] is not None]
    ls, va, vb = zip(*rows) if rows else ((), (), ())
    return (np.asarray(ls, dtype=float), np.asarray(va, dtype=complex),
            np.asarray(vb, dtype=complex))


def chi1_fit(ls, eps, l_range=None):
    """Least-squares fit eps_l ~ chi1 / l over an index window.

    Returns (chi1, residual_norm). Raises when fewer than 4 usable
    indices fall in the window.
    """
    ls, eps = _window(ls, eps, l_range)
    if len(ls) < 4:
        raise ConfigurationError("chi1 fit needs at least 4 indices")
    w = 1.0 / ls
    chi1 = complex(np.dot(w, eps) / np.dot(w, w))
    residual = float(np.linalg.norm(eps - chi1 * w))
    return chi1, residual


# ---------------------------------------------------------------------------
# paired problems
# ---------------------------------------------------------------------------

def compute_d(spec_a: ExpressionSpec, spec_b: ExpressionSpec, nu0):
    """Decay order d and index sets (N_d, N_d0) for a pair of expressions
    agreeing on sigma_nu for nu >= nu0.

    d = n - 1 - max_{nu < nu0}(nu + i_nu); N_d collects the maximizers,
    N_d0 those with i_nu = 0 (they alone reach the diagonal of the
    conjugated difference).
    """
    if spec_a.n != spec_b.n:
        raise ValidationError("pair.n", "orders must match")
    if spec_a.indices != spec_b.indices:
        raise ValidationError("pair.indices", "index tuples must match")
    n = spec_a.n
    if not 1 <= nu0 <= n - 2:
        raise ValidationError("nu0", f"need 1 <= nu0 <= {n - 2}")
    for nu in range(nu0, n - 1):
        if not spec_a.coefficients[nu].equals(spec_b.coefficients[nu]):
            raise ValidationError(
                f"coefficients[{nu}]",
                f"pair must agree on sigma_{nu} (nu >= nu0 = {nu0})")
    levels = [nu + spec_a.indices[nu] for nu in range(nu0)]
    d = n - 1 - max(levels)
    N_d = tuple(nu for nu in range(nu0) if n - 1 - levels[nu] == d)
    N_d0 = tuple(nu for nu in N_d if spec_a.indices[nu] == 0)
    return d, N_d, N_d0


def check_boundary_match(forms_a, forms_b, d):
    """Verify u_{s, p_s - j} agreement for j = 0..d-2 across a pair.

    forms_*: sequences of (p, u-tuple) pairs; indices beyond a form's
    coefficient list are unconstrained. Raises on a violation.
    """
    if len(forms_a) != len(forms_b):
        raise ValidationError("pair.boundary", "form counts differ")
    for s, ((pa, ua), (pb, ub)) in enumerate(zip(forms_a, forms_b)):
        if pa != pb:
            raise ValidationError(f"pair.boundary[{s}].p", "orders differ")
        for j in range(0, d - 1):
            idx = pa - j  # coefficient u_{s, idx}, defined for 1 <= idx <= p
            if idx < 1:
                continue
            va = ua[idx - 1] if idx <= len(ua) else 0.0
            vb = ub[idx - 1] if idx <= len(ub) else 0.0
            if abs(complex(va) - complex(vb)) > 1e-14:
                raise ValidationError(
                    f"pair.boundary[{s}].u[{idx}]",
                    f"must match for the stated decay order d = {d}")


@dataclass(frozen=True)
class PairComparison:
    """Difference diagnostics for an index-aligned pair of spectra."""

    d: int
    N_d: tuple
    N_d0: tuple
    ls: np.ndarray
    rho_hat: np.ndarray
    c_hat: complex
    delta_l: np.ndarray
    slope_fit: float


def pair_difference(data_a, data_b, d, l_range=None, N_d=(), N_d0=()):
    """rho_hat_l = rho_l - rho_tilde_l plus the decay fits.

    A difference at round-off level (ROUNDOFF_RTOL |rho_l|) is taken as
    zero. c_hat is the mean of l^d rho_hat_l over the top half of the
    window (consistent since delta_l -> 0); slope_fit is the
    least-squares slope of log|rho_hat_l| against log l over the
    non-zero differences, 0 when fewer than 4 differences are non-zero.
    """
    ls, ra, rb = _aligned(data_a, data_b, lambda d_: d_.rho)
    rh = ra - rb
    rh[np.abs(rh) <= ROUNDOFF_RTOL * np.abs(ra)] = 0.0
    ls, rh = _window(ls, rh, l_range)
    if len(ls) < 4:
        raise ConfigurationError("pair difference needs at least 4 aligned indices")
    spacing_guard = 0.45
    if np.max(np.abs(rh)) > spacing_guard * np.pi:
        raise ValidationError(
            "pair.alignment",
            "paired spectra differ by more than half a spacing; numbering "
            "misaligned")
    scaled = ls ** d * rh
    top = ls >= np.median(ls)
    c_hat = complex(np.mean(scaled[top]))
    delta_l = scaled - c_hat
    slope = (_log_slope(ls, rh) if np.count_nonzero(np.abs(rh) > 0) >= 4
             else 0.0)
    return PairComparison(d=d, N_d=tuple(N_d), N_d0=tuple(N_d0), ls=ls,
                          rho_hat=rh, c_hat=c_hat, delta_l=delta_l,
                          slope_fit=slope)


# ---------------------------------------------------------------------------
# weight-number asymptotics
# ---------------------------------------------------------------------------

def weight_asymptotics(data, model, p0, l_range=None):
    """Growth-exponent fit of the weight numbers.

    Returns (exponent, beta0) with beta0 the mean of beta_l scaled by
    the predicted power l^(n - 1 + p0 - p_r).
    """
    pts = [(d.l, d.beta) for d in data if d.beta is not None]
    if not pts:
        raise ConfigurationError("no weight numbers present")
    ls, bs = _window(*zip(*pts), l_range)
    expo = _log_slope(ls, bs)
    q = model.n - 1 + p0 - model.p_r
    beta0 = complex(np.mean(bs / ls ** q))
    return expo, beta0


def weight_pair_difference(data_a, data_b, d, l_range=None):
    """Exponent fit of |beta_l - beta_tilde_l| against log l."""
    ls, ba, bb = _aligned(data_a, data_b, lambda dd: dd.beta)
    ls, bh = _window(ls, ba - bb, l_range)
    expo = _log_slope(ls, bh)
    return expo, ls, bh
