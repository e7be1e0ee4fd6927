"""Fundamental matrices of y' = (F(x) + Lambda) y for moderate |lambda|,
and the one stepping kernel of the package.

A closed-form oracle for zero coefficients (exponential or power-series
basis of y^(n) = lambda y) sits beside the Magnus stepper for the
general piecewise-polynomial F, read through its piece table.

_transfer steps every system: a batch of points sharing a step count
across some pieces, each step's exponent Omega from three Gauss nodes
(_magnus6, sixth order) or from the midpoint alone (one such step spans
a constant piece exactly), one stacked _expm (scaling and squaring over
the [13/13] Pade approximant, each slice on its own) per chunk of steps
and a product tree, later step on the left. The direct route
(_fundamental) balances its Omegas by diag(r^j), r = max(1, |rho|);
spectrum's carry lifts its nodes to the compound system, and a counting
surrogate takes midpoint steps on F's own pieces.
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

# largest |lambda| integrated directly; beyond it spectrum's carry owns
LAMBDA_MAX = 1e12
# most Magnus steps one integration, or one point of spectrum's carry, may take
MAX_STEPS = 500_000
# most steps one stacked exponential of the kernel takes (point x piece x
# step), on every route: _expm costs least a slice near 512 (3 x 3 to 6 x 6
# stacks; at 4096 up to 1.6 times as much, its temporaries out of cache)
CHUNK_STEPS = 512
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


def _magnus6(A1, A2, A3, h):
    """Sixth-order Magnus exponents Omega of a batch of steps of length h
    from the matrices A1, A2, A3 of the system at each step's three Gauss
    nodes (stacks of shape (..., n, n); h one length or one per step,
    broadcast against them)."""
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


def _pieces(table, grid):
    """The piece holding each interval of a grid holding every breakpoint."""
    mid = 0.5 * (grid[:-1] + grid[1:])
    return np.searchsorted(table.breakpoints, mid, side="right") - 1


def _step_counts(table, grid, rho_scale):
    """Magnus steps of each grid interval, as floats: one on a constant
    piece, else STEPS_PER_SCALE * (sL)^(7/6) for the interval length L
    and the dynamics scale s = max(1, |lambda|^(1/n), sup|F| on the
    piece)."""
    piece = _pieces(table, grid)
    sL = np.fmax(np.fmax(1.0, rho_scale), table.scale[piece]) * np.diff(grid)
    # a scale near the float limit gives inf steps, which exhaust the budget
    with np.errstate(over="ignore"):
        steps = np.ceil(STEPS_PER_SCALE * sL ** (7.0 / 6.0))
    return np.where(table.constant[piece], 1.0, np.fmax(1.0, steps))


def _transfer(read, lift, points, a, width, steps, midpoint=False,
              balance=None):
    """Transfer matrices (m, p, N, N) of the points (m indices) across the
    pieces [a, a + width] (p each), each in `steps` steps of width h, the
    later on the left. The node matrices of the points b are lift(read(ts),
    b) at the nodes ts (p * steps, j) of a chunk of at most CHUNK_STEPS
    steps. Omega is _magnus6 at the Gauss nodes, or with midpoint h times
    the midpoint's matrix, times balance[b] if given; one stacked _expm and
    product tree per batch of at most CHUNK_STEPS (point x piece x step)."""
    h = width / steps
    nodes = np.array([0.5]) if midpoint else _GL3
    span = max(1, CHUNK_STEPS // len(a))
    E = None
    for q0 in range(0, steps, span):
        q = np.arange(q0, min(q0 + span, steps))
        ts = (a[:, None] + q * h[:, None])[..., None] + h[:, None, None] * nodes
        values = read(ts.reshape(-1, len(nodes)))
        hs = np.repeat(h, len(q))[:, None, None]
        size = max(1, CHUNK_STEPS // len(hs))
        X = []
        for i in range(0, len(points), size):
            b = points[i:i + size]
            A = lift(values, b)
            Om = (hs * A[:, :, 0] if midpoint
                  else _magnus6(*np.moveaxis(A, 2, 0), hs))
            if balance is not None:
                Om = Om * balance[b, None]
            Om = _expm(Om.reshape(-1, *Om.shape[-2:]))
            Om = Om.reshape(len(b), len(a), len(q), *Om.shape[-2:])
            X.append(_ordered_product(np.moveaxis(Om, 2, 0)))
        X = np.concatenate(X)
        E = X if E is None else X @ E
    return E if balance is None else E / balance[points, None]


def _fundamental(table, lams, grid, pieces=None):
    """C (L, len(grid), n, n) with C(0) = I at the lambdas lams (L,) for F's
    table. The constant pieces take one midpoint step, all in one
    _transfer; another interval _step_counts Gauss steps (checked against
    MAX_STEPS first), or `pieces` midpoint steps (a counting surrogate),
    one _transfer per group of equal steps. Omegas are balanced by
    diag(r^j), r = max(1, |lambda|^(1/n)); C takes its factors in order."""
    n = table.nonzero.shape[0]
    r = np.array([abs(x) ** (1.0 / n) for x in lams])
    const = table.constant[_pieces(table, grid)]
    if pieces is None:
        counts = _step_counts(table, grid, r[:, None])
        over = np.cumsum(counts, axis=1) > MAX_STEPS
        if over.any():
            raise IntegrationError("step budget exhausted",
                                   x=grid[np.argmax(over[np.argmax(over.any(1))])])
    else:
        counts = np.full((len(lams), len(const)), pieces)
    lam_mat = _lambda_matrix(n, lams)
    # steps run balanced: Omega * W = diag(r^-j) Omega diag(r^j)
    W = np.fmax(1.0, r)[:, None, None] ** (np.arange(n) - np.arange(n)[:, None])
    read = lambda ts: np.moveaxis(table(ts), (0, 1), (-2, -1))
    lift = lambda values, b: values + lam_mat[b, None, None]
    a, h = grid[:-1], np.diff(grid)
    E = np.empty((len(lams), len(a), n, n), dtype=complex)
    values = np.zeros((len(lams), len(grid), n, n), dtype=complex)
    values[:, 0] = np.eye(n)
    # coefficients near the float limit overflow to inf or nan, which
    # the determinant's finiteness checks report as a typed failure
    with np.errstate(over="ignore", invalid="ignore"):
        if const.any():
            E[:, const] = _transfer(read, lift, np.arange(len(lams)), a[const],
                                    h[const], 1, True, W)
        for g in np.flatnonzero(~const):
            for k in np.unique(counts[:, g]):
                i = np.flatnonzero(counts[:, g] == k)
                E[i, g] = _transfer(read, lift, i, a[g:g + 1], h[g:g + 1],
                                    int(k), pieces is not None, W)[:, 0]
        for g in range(len(a)):
            values[:, g + 1] = E[:, g] @ values[:, g]
    return values


def integrate_fundamental(F: AssociatedMatrix, lam, grid=None):
    """Fundamental matrix C(x, lambda) with C(0) = I on the requested grid
    joined with every breakpoint, for one lambda or each of an array of
    them (values of shape lam's shape + (len(grid), n, n), each lambda's
    those of its lone call), stepped by _fundamental. IntegrationError
    names the first lambda past LAMBDA_MAX or past the step budget."""
    lams = np.asarray(lam, dtype=complex)
    flat = lams.ravel()
    for x in flat:
        if abs(x) > LAMBDA_MAX:
            raise IntegrationError(
                f"|lambda|={abs(x):.3g} beyond direct-integration cap "
                f"{LAMBDA_MAX:.3g}; use the large-rho solver")
    bp = F.table.breakpoints
    if grid is None:
        grid = bp
    grid = np.union1d(np.asarray(grid, dtype=float), bp)
    if grid[0] != 0.0 or grid[-1] != 1.0:
        raise ValidationError("grid", "grid must span [0, 1]")
    values = _fundamental(F.table, flat, grid)
    return FundamentalMatrix(
        lam=lams if lams.ndim else complex(lams), grid=grid,
        values=values.reshape(lams.shape + values.shape[1:]))
