"""Fundamental matrices of y' = (F(x) + Lambda) y for moderate |lambda|.

Two routes live here: a closed-form oracle for zero coefficients (pure
exponential or power-series basis for y^(n) = lambda y) and a Magnus
stepper for the general piecewise-polynomial F, which reads F through
its compiled piece table. Every piece uses the sixth-order three-node
Magnus scheme; on a constant piece the three nodes agree, the scheme
reduces to exp(h M) exactly, and one step spans the piece.

The stepper works in batches. Every interval's step count is checked
against the budget before any step is taken. An interval's steps then
run in chunks of at most CHUNK_STEPS: the piece table is read once at
all Gauss nodes of the chunk, the Omegas are formed as stacked arrays,
one stacked `expm` exponentiates them, and a pairwise product tree
joins the exponentials, later step on the left, into one factor.

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
]

# three-node Gauss-Legendre abscissae on [0, 1]
_GL3 = np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10])

# relative accuracy the Magnus step count is chosen for
MAGNUS_RTOL = 1e-11
# largest |lambda| integrated directly; beyond it the large-rho solver owns
LAMBDA_MAX = 1e12
# most Magnus steps one integration may take
MAX_STEPS = 500_000
# most Magnus steps one stacked expm takes; bounds the batch's memory
CHUNK_STEPS = 4096
# factor on the step-count estimate
STEP_SAFETY = 2.0


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


def _magnus6_omegas(table, lam_mat, ts, h):
    """Sixth-order Magnus exponents Omega of a batch of steps of length h
    for M(x) = F(x) + Lambda, F read from its piece table.

    ts holds each step's three Gauss nodes, shape (k, 3); the result is
    the stack of k exponents, shape (k, n, n).
    """
    A1, A2, A3 = np.moveaxis(table(ts), (3, 2), (0, 1)) + lam_mat
    al1 = h * A2
    al2 = (np.sqrt(15) / 3.0) * h * (A3 - A1)
    al3 = (10.0 / 3.0) * h * (A3 - 2.0 * A2 + A1)
    C1 = _comm(al1, al2)
    C2 = (-1.0 / 60.0) * _comm(al1, 2.0 * al3 + C1)
    return (al1 + al3 / 12.0
            + _comm(-20.0 * al1 - al3 + C1, al2 + C2) / 240.0)


def _ordered_product(E):
    """E[k-1] @ ... @ E[0] of a (k, n, n) stack by a pairwise product
    tree: log2 k batched matmuls, the later factor on the left."""
    while len(E) > 1:
        pairs = E[1::2] @ E[:-1:2]
        E = np.concatenate((pairs, E[-1:])) if len(E) % 2 else pairs
    return E[0]


def _step_counts(table, grid, rho_scale):
    """Magnus steps of each grid interval, as floats: one on a constant
    piece, else STEP_SAFETY * sL * (sL / MAGNUS_RTOL)^(1/6) for the
    interval length L and the dynamics scale s = max(1, |lambda|^(1/n),
    sup|F| on the piece)."""
    # the grid holds every breakpoint, so each midpoint is inside a piece
    piece = np.searchsorted(table.breakpoints, 0.5 * (grid[:-1] + grid[1:]),
                            side="right") - 1
    sL = np.fmax(np.fmax(1.0, rho_scale), table.scale[piece]) * np.diff(grid)
    # a scale near the float limit gives inf steps, which exhaust the budget
    with np.errstate(over="ignore"):
        steps = np.ceil(STEP_SAFETY * sL * (sL / MAGNUS_RTOL) ** (1.0 / 6.0))
    return np.where(table.constant[piece], 1.0, np.fmax(1.0, steps))


def integrate_fundamental(F: AssociatedMatrix, lam, grid=None):
    """Fundamental matrix C(x, lambda) with C(0) = I on the requested grid.

    Step points always include every coefficient breakpoint. Each piece
    takes sixth-order Magnus steps, their count chosen from the dynamics
    scale max(|lambda|^(1/n), sup|F|) and MAGNUS_RTOL; a piece on which F
    is constant takes one step, which is the exact exp(M (b - a)). The
    step counts of all intervals are checked against MAX_STEPS before any
    step is taken.

    An interval's steps run in chunks of at most CHUNK_STEPS: one read of
    the piece table at every Gauss node of the chunk, the chunk's Omegas
    as stacked arrays, one stacked `expm`, and a pairwise product tree
    that joins the exponentials into one factor applied to C.
    """
    lam = complex(lam)
    n = F.n
    if abs(lam) > LAMBDA_MAX:
        raise IntegrationError(
            f"|lambda|={abs(lam):.3g} beyond direct-integration cap "
            f"{LAMBDA_MAX:.3g}; use the large-rho solver")
    table = F.table
    bp = table.breakpoints
    if grid is None:
        grid = bp
    grid = np.union1d(np.asarray(grid, dtype=float), bp)
    if grid[0] != 0.0 or grid[-1] != 1.0:
        raise ValidationError("grid", "grid must span [0, 1]")
    lam_mat = _lambda_matrix(n, lam)
    counts = _step_counts(table, grid, abs(lam) ** (1.0 / n))
    over = np.flatnonzero(np.cumsum(counts) > MAX_STEPS)
    if over.size:
        raise IntegrationError("step budget exhausted", x=grid[over[0]])
    counts = counts.astype(int)

    values = np.zeros((len(grid), n, n), dtype=complex)
    C = np.eye(n, dtype=complex)
    values[0] = C
    for gi, nsteps in enumerate(counts):
        a = grid[gi]
        h = (grid[gi + 1] - a) / nsteps
        # coefficients near the float limit overflow to inf or nan, which
        # the determinant's finiteness checks report as a typed failure
        with np.errstate(over="ignore", invalid="ignore"):
            for q0 in range(0, nsteps, CHUNK_STEPS):
                q = np.arange(q0, min(q0 + CHUNK_STEPS, nsteps))
                ts = (a + q * h)[:, None] + h * _GL3
                E = expm(_magnus6_omegas(table, lam_mat, ts, h))
                C = _ordered_product(E) @ C
        values[gi + 1] = C
    return FundamentalMatrix(lam=lam, grid=grid, values=values)
