"""Fundamental matrices of y' = (F(x) + Lambda) y for moderate |lambda|.

Two routes live here: a closed-form oracle for zero coefficients (pure
exponential or power-series basis for y^(n) = lambda y) and a Magnus
stepper for the general piecewise-polynomial F. Constant pieces are
integrated exactly by a single matrix exponential; polynomial pieces use
the sixth-order three-node Magnus scheme.

Large |rho| work is *not* done here; the exponentially factored
integral-equation solver in `birkhoff` owns that regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import IntegrationError, ValidationError
from .regularization import AssociatedMatrix

__all__ = [
    "FundamentalMatrix",
    "closed_form_zero_coeff",
    "integrate_fundamental",
    "residual_norm",
    "condensation_index",
]

# three-node Gauss-Legendre abscissae on [0, 1]
_GL3 = np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10])

# relative accuracy the Magnus step count is chosen for
MAGNUS_RTOL = 1e-11
# largest |lambda| integrated directly; beyond it the large-rho solver owns
LAMBDA_MAX = 1e12
# most Magnus steps one integration may take
MAX_STEPS = 500_000
# factor on the step-count estimate
STEP_SAFETY = 2.0
# uniform grid points of the residual_norm check
RESIDUAL_POINTS = 257


@dataclass(frozen=True)
class FundamentalMatrix:
    """C(x, lambda) sampled on a grid, columns C_k, rows quasi-derivatives."""

    lam: complex
    grid: np.ndarray
    values: np.ndarray  # (len(grid), n, n)
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", self.values.shape[-1])

    @property
    def at_zero(self):
        return self.values[0]

    @property
    def at_one(self):
        return self.values[-1]

    def det_deviation(self):
        """max |det C(x) - 1| over the grid (Liouville: trace(F+Lambda)=0)."""
        dets = np.linalg.det(self.values)
        return float(np.max(np.abs(dets - 1.0)))


def _lambda_matrix(n, lam):
    L = np.zeros((n, n), dtype=complex)
    L[n - 1, 0] = lam
    return L


# ---------------------------------------------------------------------------
# closed form for zero coefficients
# ---------------------------------------------------------------------------

def closed_form_zero_coeff(n, lam, x, switch=1.0):
    """C(x, lambda) for y^(n) = lambda y, quasi-derivatives = derivatives.

    For |lambda| >= switch the exponential basis exp(rho w_k x) with
    rho = lambda^(1/n) is converted to the initial-value basis through
    the Vandermonde system in (rho w_k)^j; for smaller |lambda| the
    power series in lambda is used (the Vandermonde conversion degrades
    as rho -> 0).

    Returns an array of shape (len(x), n, n).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lam = complex(lam)
    if abs(lam) >= switch:
        rho = lam ** (1.0 / n)
        ws = rho * np.exp(2j * np.pi * np.arange(n) / n)
        V = ws[None, :] ** np.arange(n)[:, None]
        E = (ws[None, None, :] ** np.arange(n)[None, :, None]
             * np.exp(ws[None, None, :] * x[:, None, None]))
        Vinv = np.linalg.inv(V)
        return E @ Vinv
    # power series: column k solves the equation with a_p = delta_{p,k}/k!,
    # giving C_{j,k}(x) = sum_m lam^m x^{k+nm-j} / (k+nm-j)!
    import math as _math

    out = np.zeros((len(x), n, n), dtype=complex)
    terms = 24
    for j in range(n):
        for k in range(n):
            acc = np.zeros(len(x), dtype=complex)
            for m in range(terms):
                p = k + n * m - j
                if p < 0:
                    continue
                fact = _math.factorial(p)
                if abs(lam) ** m / fact < 1e-22:
                    break
                acc += (lam ** m) / fact * x ** p
            out[:, j, k] = acc
    return out


# ---------------------------------------------------------------------------
# Magnus stepper
# ---------------------------------------------------------------------------

def _comm(a, b):
    return a @ b - b @ a

def _magnus6_step(Fmat, lam_mat, a, h):
    """One sixth-order Magnus step over [a, a+h] for M(x) = F(x) + Lambda."""
    ts = a + h * _GL3
    A1, A2, A3 = (m + lam_mat for m in Fmat(ts))
    al1 = h * A2
    al2 = (np.sqrt(15) / 3.0) * h * (A3 - A1)
    al3 = (10.0 / 3.0) * h * (A3 - 2.0 * A2 + A1)
    C1 = _comm(al1, al2)
    C2 = (-1.0 / 60.0) * _comm(al1, 2.0 * al3 + C1)
    Om = (al1 + al3 / 12.0
          + _comm(-20.0 * al1 - al3 + C1, al2 + C2) / 240.0)
    return expm(Om)


def integrate_fundamental(F: AssociatedMatrix, lam, grid=None):
    """Fundamental matrix C(x, lambda) with C(0) = I on the requested grid.

    Step points always include every coefficient breakpoint. Constant
    pieces are advanced by exact matrix exponentials; polynomial pieces
    by sixth-order Magnus steps with the count chosen from the dynamics
    scale max(|lambda|^(1/n), sup|F|) and MAGNUS_RTOL.
    """
    lam = complex(lam)
    n = F.n
    if abs(lam) > LAMBDA_MAX:
        raise IntegrationError(
            f"|lambda|={abs(lam):.3g} beyond direct-integration cap "
            f"{LAMBDA_MAX:.3g}; use the large-rho solver")
    bp = F.breakpoints()
    if grid is None:
        grid = bp
    grid = np.union1d(np.asarray(grid, dtype=float), bp)
    if grid[0] != 0.0 or grid[-1] != 1.0:
        raise ValidationError("grid", "grid must span [0, 1]")
    lam_mat = _lambda_matrix(n, lam)

    # per-piece constancy and scale
    piece_const = []
    piece_scale = []
    for i in range(len(bp) - 1):
        degs = [F.entries[a][b].coeffs[F.entries[a][b].piece_index(
            0.5 * (bp[i] + bp[i + 1]))] for a in range(n) for b in range(n)]
        piece_const.append(all(len(c) <= 1 for c in degs))
        piece_scale.append(max(abs(v) for c in degs for v in c) if degs else 0.0)
    rho_scale = abs(lam) ** (1.0 / n)

    values = np.zeros((len(grid), n, n), dtype=complex)
    C = np.eye(n, dtype=complex)
    values[0] = C
    total_steps = 0
    for gi in range(len(grid) - 1):
        a, b = grid[gi], grid[gi + 1]
        piece = int(np.searchsorted(bp, 0.5 * (a + b), side="right") - 1)
        piece = min(max(piece, 0), len(piece_const) - 1)
        if piece_const[piece]:
            M = F.evaluate(np.array([0.5 * (a + b)]))[0] + lam_mat
            C = expm(M * (b - a)) @ C
            total_steps += 1
        else:
            s = max(1.0, rho_scale, piece_scale[piece])
            L = b - a
            nsteps = max(1, int(np.ceil(
                STEP_SAFETY * (s * L) * ((s * L) / MAGNUS_RTOL) ** (1.0 / 6.0))))
            total_steps += nsteps
            if total_steps > MAX_STEPS:
                raise IntegrationError("step budget exhausted", x=a)
            h = L / nsteps
            Feval = lambda ts: F.evaluate(ts)
            for q in range(nsteps):
                C = _magnus6_step(Feval, lam_mat, a + q * h, h) @ C
        values[gi + 1] = C
    return FundamentalMatrix(lam=lam, grid=grid, values=values)


def residual_norm(F: AssociatedMatrix, fm: FundamentalMatrix):
    """Integral of ||C'(x) - (F(x)+Lambda) C(x)|| over [0, 1].

    The solution is re-sampled on a uniform grid by re-integrating from
    the recorded values piece by piece would be circular; instead the
    derivative is estimated with a seventh-point sixth-order stencil on
    a dedicated fine grid, skipping a neighborhood of every coefficient
    breakpoint where C' genuinely jumps.
    """
    n = F.n
    bp = F.breakpoints()
    x = np.union1d(np.linspace(0.0, 1.0, RESIDUAL_POINTS), bp)
    fm2 = integrate_fundamental(F, fm.lam, grid=x)
    xs, vals = fm2.grid, fm2.values
    # uniform sub-grid for stencils
    xu = np.linspace(0.0, 1.0, RESIDUAL_POINTS)
    Cu = np.array([vals[np.searchsorted(xs, t)] for t in xu])
    h = xu[1] - xu[0]
    w = np.array([-1, 9, -45, 0, 45, -9, 1]) / 60.0
    lam_mat = _lambda_matrix(n, fm.lam)
    Ms = F.evaluate(xu) + lam_mat
    total = 0.0
    count = 0
    for i in range(3, len(xu) - 3):
        if np.min(np.abs(bp - xu[i])) < 3.5 * h:
            continue
        dC = sum(w[j] * Cu[i - 3 + j] for j in range(7)) / h
        R = dC - Ms[i] @ Cu[i]
        total += float(np.max(np.abs(R)))
        count += 1
    return total / max(count, 1)


def condensation_index(rhos):
    """sup over unit annuli of the counting-measure increment.

    A sequence is non-condensing when counts N(t+1) - N(t) stay bounded;
    the series form of that definition telescopes as written, so the
    bounded-increment reading is implemented here.
    """
    mags = np.sort(np.abs(np.asarray(rhos)))
    if len(mags) == 0:
        return 0
    best = 0
    for t in range(int(np.floor(mags[-1])) + 1):
        best = max(best, int(np.sum((mags > t) & (mags <= t + 1))))
    return best
