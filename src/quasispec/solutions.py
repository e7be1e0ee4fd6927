"""Fundamental matrices of y' = (F(x) + Lambda) y for moderate |lambda|.

Two routes live here: a closed-form oracle for zero coefficients (pure
exponential or power-series basis for y^(n) = lambda y) and a Magnus
stepper for the general piecewise-polynomial F, which reads F through
its compiled piece table. Every piece uses the sixth-order three-node
Magnus scheme; on a constant piece the three nodes agree, the scheme
reduces to exp(h M) exactly, and one step spans the piece.

The stepper takes one lambda or an array of them and works in batches,
every lambda's step counts checked against the budget before any step
is taken. Every exponential is one kernel, _expm: scaling and squaring
over the [13/13] Pade approximant, each slice of a stack on its own, of
Omegas balanced by diag(r^j), r = max(1, |rho|). The one-step intervals
of all the lambdas share one stacked _expm, each lambda's product then
taken in grid order. A longer interval's steps run per lambda in chunks
of at most CHUNK_STEPS: one piece-table read at all Gauss nodes of the
chunk, one stacked _expm of the chunk's Omegas, and a pairwise product
tree, later step on the left.

Large |rho| work is *not* done here; the exponentially factored
integral-equation solver in `birkhoff` owns that regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .errors import IntegrationError, ValidationError
from .regularization import AssociatedMatrix

__all__ = [
    "FundamentalMatrix",
    "closed_form_zero_coeff",
    "integrate_fundamental",
]

# three-node Gauss-Legendre abscissae on [0, 1]
_GL3 = np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10])

# largest |lambda| integrated directly; beyond it the large-rho solver owns
LAMBDA_MAX = 1e12
# most Magnus steps one integration may take
MAX_STEPS = 500_000
# most Magnus steps one stacked exponential takes; bounds the batch's memory
CHUNK_STEPS = 4096
# Magnus steps per unit of (sL)^(7/6) on a non-constant piece of length
# L and dynamics scale s (sixth order: the error is ~ (sL)^7 / steps^6)
STEPS_PER_SCALE = 17.0

# [13/13] Pade coefficients b_0..b_13 of exp, and the largest 1-norm with
# the unscaled approximant's backward error below unit roundoff (Higham 2005)
_PADE13 = [factorial(26 - k) // (factorial(k) * factorial(13 - k))
           for k in range(14)]
_THETA13 = 5.371920351148152


@dataclass(frozen=True)
class FundamentalMatrix:
    """C(x, lambda) sampled on a grid, columns C_k, rows quasi-derivatives;
    for an array of lambda, one such sample per lambda."""

    lam: complex | np.ndarray
    grid: np.ndarray
    values: np.ndarray  # lam's shape + (len(grid), n, n)
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", self.values.shape[-1])

    @property
    def at_one(self):
        return self.values[..., -1, :, :]

    def det_deviation(self):
        """max |det C(x) - 1| over the grid (Liouville: trace(F+Lambda)=0)."""
        dets = np.linalg.det(self.values)
        return float(np.max(np.abs(dets - 1.0)))


def _lambda_matrix(n, lam):
    """Lambda, zero but for lambda in its corner, per lambda of lam."""
    L = np.zeros(np.shape(lam) + (n, n), dtype=complex)
    L[..., n - 1, 0] = lam
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


def _magnus6_omegas(table, lam_mat, ts, h):
    """Sixth-order Magnus exponents Omega of a batch of steps of length h
    for M(x) = F(x) + Lambda, F read from its piece table.

    ts holds each step's three Gauss nodes, shape (k, 3), and h is one
    length or one per step, shape (k, 1, 1); the result is the stack of
    k exponents, shape (k, n, n).
    """
    A1, A2, A3 = np.moveaxis(table(ts), (3, 2), (0, 1)) + lam_mat
    al1 = h * A2
    al2 = (np.sqrt(15) / 3.0) * h * (A3 - A1)
    al3 = (10.0 / 3.0) * h * (A3 - 2.0 * A2 + A1)
    C1 = _comm(al1, al2)
    C2 = (-1.0 / 60.0) * _comm(al1, 2.0 * al3 + C1)
    return (al1 + al3 / 12.0
            + _comm(-20.0 * al1 - al3 + C1, al2 + C2) / 240.0)


def _expm(A):
    """exp of each slice of a (k, n, n) stack by scaling and squaring over
    _pade13, slice k scaled by 2^-s_k into the 1-norm bound theta_13 (s_k
    the least such s >= 0) and squared s_k times. A non-finite slice takes
    s = 0 and gives NaN, the other slices unaffected."""
    norms = np.abs(A).sum(axis=-2).max(axis=-1)
    finite = np.isfinite(norms)
    with np.errstate(divide="ignore"):      # a zero slice: log2(0)
        s = np.ceil(np.log2(norms / _THETA13))
    s = np.where(finite & (s > 0), s, 0).astype(int)
    E = _pade13(np.where(finite[:, None, None], A, 0.0) * 2.0 ** -s[:, None, None])
    E[~finite] = np.nan
    for i in range(s.max(initial=0)):
        E[s > i] = E[s > i] @ E[s > i]
    return E


def _pade13(A):
    """The unscaled [13/13] Pade approximant of exp on a (k, n, n) stack."""
    b = _PADE13
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    return np.linalg.solve(V - U, V + U)


def _ordered_product(E):
    """E[k-1] @ ... @ E[0] of a (k, n, n) stack by a pairwise product
    tree: log2 k batched matmuls, the later factor on the left."""
    while len(E) > 1:
        pairs = E[1::2] @ E[:-1:2]
        E = np.concatenate((pairs, E[-1:])) if len(E) % 2 else pairs
    return E[0]


def _step_counts(table, grid, rho_scale):
    """Magnus steps of each grid interval, as floats: one on a constant
    piece, else STEPS_PER_SCALE * (sL)^(7/6) for the interval length L
    and the dynamics scale s = max(1, |lambda|^(1/n), sup|F| on the
    piece)."""
    # the grid holds every breakpoint, so each midpoint is inside a piece
    piece = np.searchsorted(table.breakpoints, 0.5 * (grid[:-1] + grid[1:]),
                            side="right") - 1
    sL = np.fmax(np.fmax(1.0, rho_scale), table.scale[piece]) * np.diff(grid)
    # a scale near the float limit gives inf steps, which exhaust the budget
    with np.errstate(over="ignore"):
        steps = np.ceil(STEPS_PER_SCALE * sL ** (7.0 / 6.0))
    return np.where(table.constant[piece], 1.0, np.fmax(1.0, steps))


def integrate_fundamental(F: AssociatedMatrix, lam, grid=None):
    """Fundamental matrix C(x, lambda) with C(0) = I on the requested grid,
    for one lambda or for each of an array of them (values of shape
    lam's shape + (len(grid), n, n)).

    Step points always include every coefficient breakpoint. Each piece
    takes sixth-order Magnus steps, STEPS_PER_SCALE per unit of (sL)^(7/6)
    for the interval length L and the dynamics scale s = max(|lambda|^(1/n),
    sup|F|); a piece on which F is constant takes one step, the exact
    exp(M (b - a)). The step counts of all intervals are checked against
    MAX_STEPS before any step is taken; the steps then run in batches (see
    the module docstring). The one-step intervals of every lambda share one
    stacked _expm, and each lambda's values are those of its lone call.
    IntegrationError names the first lambda past LAMBDA_MAX or past the
    step budget.
    """
    lams = np.asarray(lam, dtype=complex)
    flat = lams.ravel()
    n = F.n
    for x in flat:
        if abs(x) > LAMBDA_MAX:
            raise IntegrationError(
                f"|lambda|={abs(x):.3g} beyond direct-integration cap "
                f"{LAMBDA_MAX:.3g}; use the large-rho solver")
    table = F.table
    bp = table.breakpoints
    if grid is None:
        grid = bp
    grid = np.union1d(np.asarray(grid, dtype=float), bp)
    if grid[0] != 0.0 or grid[-1] != 1.0:
        raise ValidationError("grid", "grid must span [0, 1]")
    lam_mat = _lambda_matrix(n, flat)
    r = np.array([abs(x) ** (1.0 / n) for x in flat])
    counts = _step_counts(table, grid, r[:, None])
    over = np.cumsum(counts, axis=1) > MAX_STEPS
    if over.any():
        raise IntegrationError("step budget exhausted",
                               x=grid[np.argmax(over[np.argmax(over.any(1))])])
    counts = counts.astype(int)

    values = np.zeros((len(flat), len(grid), n, n), dtype=complex)
    values[:, 0] = np.eye(n)
    # steps run balanced: Omega * W = diag(r^-j) Omega diag(r^j)
    W = np.fmax(1.0, r)[:, None, None] ** (np.arange(n) - np.arange(n)[:, None])
    # coefficients near the float limit overflow to inf or nan, which
    # the determinant's finiteness checks report as a typed failure
    with np.errstate(over="ignore", invalid="ignore"):
        # the one-step intervals of every lambda, each constant piece among
        # them, by one stacked _expm: their Omegas can be large
        one = counts == 1
        E = np.empty(one.shape + (n, n), dtype=complex)
        if one.any():
            li, gi = np.nonzero(one)
            h = np.diff(grid)[gi][:, None, None]
            ts = grid[gi][:, None] + h[:, 0] * _GL3
            E[li, gi] = _expm(
                _magnus6_omegas(table, lam_mat[li], ts, h) * W[li]) / W[li]
        C = values[:, 0].copy()
        for gi, nsteps in enumerate(counts.T):
            single = nsteps == 1
            C[single] = E[single, gi] @ C[single]
            for i in np.flatnonzero(~single):
                h = (grid[gi + 1] - grid[gi]) / nsteps[i]
                for q0 in range(0, nsteps[i], CHUNK_STEPS):
                    q = np.arange(q0, min(q0 + CHUNK_STEPS, nsteps[i]))
                    ts = (grid[gi] + q * h)[:, None] + h * _GL3
                    E_q = _expm(_magnus6_omegas(table, lam_mat[i], ts, h) * W[i])
                    C[i] = (_ordered_product(E_q) / W[i]) @ C[i]
            values[:, gi + 1] = C
    return FundamentalMatrix(
        lam=lams if lams.ndim else complex(lams), grid=grid,
        values=values.reshape(lams.shape + values.shape[1:]))
