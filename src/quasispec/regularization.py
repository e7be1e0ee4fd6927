"""Regularization of higher-order differential expressions.

A differential expression of order n = 2m + tau with coefficients
sigma_nu entering through distributional derivatives of orders i_nu is
encoded by an n x n matrix function F(x) built from sigma_nu alone (no
derivative of any sigma is ever formed). The first-order system
y' = (F(x) + Lambda) y in the quasi-derivatives is then equivalent to
the original equation, and all spectral computations flow through F.

This module builds F, conjugates each of its lower diagonals into the
root-of-unity frame of a sector, and evaluates the integer combination
coefficients that govern the first differing diagonal of a pair of
expressions. The conjugates A_k are one linear map of the coefficients
of F's piece table, applied piece by piece; no entry of A_k is ever a
PiecewisePoly sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConsistencyError, ValidationError
from .piecewise import PieceTable, PiecewisePoly
from .sectors import SectorFrame

__all__ = [
    "chi_matrix",
    "ExpressionSpec",
    "AssociatedMatrix",
    "build_associated_matrix",
    "ConjugatedSystem",
    "conjugate_system",
    "s_coefficient",
    "diag_correction",
]


# ---------------------------------------------------------------------------
# binomial stencils
# ---------------------------------------------------------------------------

def _comb(i, s):
    """Binomial coefficient with the convention C(i, -1) = 0."""
    if s < 0 or s > i:
        return 0
    return math.comb(i, s)


@lru_cache(maxsize=None)
def _chi_matrix_cached(nu, i, m):
    chi = np.zeros((m + 1, m + 1), dtype=np.int64)
    k, odd = divmod(nu, 2)
    if odd:
        for s in range(i + 2):
            xi, j = s + k, i + 1 - s + k
            if 0 <= xi <= m and 0 <= j <= m:
                chi[xi, j] = _comb(i + 1, s) - 2 * _comb(i, s - 1)
    else:
        for s in range(i + 1):
            xi, j = s + k, i - s + k
            if 0 <= xi <= m and 0 <= j <= m:
                chi[xi, j] = _comb(i, s)
    chi.setflags(write=False)
    return chi


def chi_matrix(nu, i, m):
    """Binomial stencil placing sigma_nu (derivative order i) into Q.

    Returns the (m+1) x (m+1) integer matrix chi_{nu,i}; its nonzero
    entries are C(i, s) on the anti-diagonal xi + j = i + 2k for even
    nu = 2k, and C(i+1, s) - 2 C(i, s-1) on xi + j = i + 1 + 2k for odd
    nu = 2k + 1.
    """
    if m < 0:
        raise ValidationError("m", "half-order must be non-negative")
    if not 0 <= i <= m:
        raise ValidationError("i", f"derivative order {i} outside 0..{m}")
    if nu < 0:
        raise ValidationError("nu", "coefficient index must be non-negative")
    return _chi_matrix_cached(nu, i, m)


# ---------------------------------------------------------------------------
# expression specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpressionSpec:
    """Order data and coefficients of one differential expression.

    Attributes:
        n: order, >= 2; n = 2m + tau with tau in {0, 1}.
        indices: (i_0, ..., i_{n-2}) distributional-derivative orders.
        coefficients: (sigma_0, ..., sigma_{n-2}) as PiecewisePoly.
    """

    n: int
    indices: tuple
    coefficients: tuple

    def __post_init__(self):
        n = self.n
        if n < 2:
            raise ValidationError("order.n", "order must be >= 2")
        if len(self.indices) != n - 1:
            raise ValidationError("indices", f"expected {n - 1} entries")
        if len(self.coefficients) != n - 1:
            raise ValidationError("coefficients", f"expected {n - 1} entries")
        m = self.m
        for nu, i in enumerate(self.indices):
            k, j = divmod(nu, 2)
            bound = m - k - j
            if not 0 <= i <= bound:
                raise ValidationError(f"indices[{nu}]",
                                      f"must satisfy 0 <= i <= {bound}, got {i}")
        if self.tau == 0:
            for nu, i in enumerate(self.indices):
                k, j = divmod(nu, 2)
                if i == m - k - j and self.coefficients[nu].class_tag != "L2":
                    raise ValidationError(
                        f"coefficients[{nu}]",
                        "must be tagged L2 when n is even and i_nu is maximal")

    @property
    def m(self):
        return self.n // 2

    @property
    def tau(self):
        return self.n - 2 * self.m

    def q_matrix(self):
        """Q(x) = sum_nu sigma_nu(x) chi_{nu, i_nu} as an (m+1)^2 grid."""
        m = self.m
        Q = [[PiecewisePoly.zero() for _ in range(m + 1)] for _ in range(m + 1)]
        for nu, (i, sig) in enumerate(zip(self.indices, self.coefficients)):
            chi = chi_matrix(nu, i, m)
            for xi in range(m + 1):
                for j in range(m + 1):
                    c = chi[xi, j]
                    if c:
                        Q[xi][j] = Q[xi][j] + sig * complex(c)
        return Q


def zero_expression(n):
    """Expression of order n with all coefficients identically zero."""
    return ExpressionSpec(
        n=n,
        indices=tuple(0 for _ in range(n - 1)),
        coefficients=tuple(PiecewisePoly.zero() for _ in range(n - 1)),
    )


# ---------------------------------------------------------------------------
# associated matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssociatedMatrix:
    """The n x n matrix function F(x) encoding the expression.

    entries[k][j] (0-based) is a PiecewisePoly; everything strictly above
    the superdiagonal is zero and the superdiagonal is the constant 1.
    """

    n: int
    entries: tuple

    @cached_property
    def table(self):
        """The entries compiled once for evaluation (shape (n, n))."""
        return PieceTable((e for row in self.entries for e in row),
                          (self.n, self.n))

    def evaluate(self, x):
        """F at points x; returns an array of shape x.shape + (n, n)."""
        return np.moveaxis(self.table(x), (0, 1), (-2, -1))

    def breakpoints(self):
        return self.table.breakpoints

    def trace(self):
        return self.diagonal_sum(0)

    def diagonal_sum(self, d):
        """Sum of the entries on the lower diagonal of index d (row-col = d)."""
        t = PiecewisePoly.zero()
        for a in range(d, self.n):
            t = t + self.entries[a][a - d]
        return t

    def validate(self):
        """Check the structural contract of a raw_matrix config entry."""
        n = self.n
        for a in range(n):
            for b in range(n):
                e = self.entries[a][b]
                if b == a + 1:
                    if not e.equals(PiecewisePoly.constant(1.0)):
                        raise ValidationError(f"raw_matrix.entries[{a}][{b}]",
                                              "superdiagonal entries must equal 1")
                elif b > a + 1:
                    if not e.is_zero(tol=0.0):
                        raise ValidationError(f"raw_matrix.entries[{a}][{b}]",
                                              "entries above the superdiagonal must vanish")
        tr = self.trace()
        if tr.sup_on_grid() > 1e-12:
            raise ValidationError("raw_matrix.trace", "pointwise trace must vanish")
        for a in range(n):
            if self.entries[a][a].class_tag != "L2":
                raise ValidationError(f"raw_matrix.entries[{a}][{a}]",
                                      "diagonal entries must be tagged L2")
        return self

    def subtract(self, other):
        rows = [[self.entries[a][b] - other.entries[a][b] for b in range(self.n)]
                for a in range(self.n)]
        return AssociatedMatrix(self.n, tuple(tuple(r) for r in rows))


def build_associated_matrix(spec: ExpressionSpec) -> AssociatedMatrix:
    """Assemble F(x) from the expression per the even/odd case split.

    Even n = 2m:
        f_{m,j}   = (-1)^{m+1} q_{j-1,m},                       j = 1..m
        f_{k,m+1} = (-1)^{k+1} q_{m,2m-k},                      k = m+1..2m
        f_{k,j}   = (-1)^{k+1} q_{j-1,2m-k}
                    + (-1)^{m+k} q_{j-1,m} q_{m,2m-k},          k = m+1..2m, j = 1..m
    Odd n = 2m + 1:
        f_{k,j}   = (-1)^k q_{j-1,2m+1-k},                      k = m+1..2m+1, j = 1..m+1

    All remaining entries are delta_{k+1,j}.
    """
    n, m, tau = spec.n, spec.m, spec.tau
    Q = spec.q_matrix()
    one = PiecewisePoly.constant(1.0)
    zero = PiecewisePoly.zero()
    F = [[zero for _ in range(n)] for _ in range(n)]
    for k in range(1, n):
        F[k - 1][k] = one

    def sgn(p):
        return 1.0 if p % 2 == 0 else -1.0

    if tau == 1:
        for k in range(m + 1, n + 1):
            for j in range(1, m + 2):
                F[k - 1][j - 1] = Q[j - 1][2 * m + 1 - k] * sgn(k)
    else:
        for j in range(1, m + 1):
            F[m - 1][j - 1] = Q[j - 1][m] * sgn(m + 1)
        for k in range(m + 1, 2 * m + 1):
            F[k - 1][m] = Q[m][2 * m - k] * sgn(k + 1)
        for k in range(m + 1, 2 * m + 1):
            for j in range(1, m + 1):
                lin = Q[j - 1][2 * m - k] * sgn(k + 1)
                quad = (Q[j - 1][m] * Q[m][2 * m - k]) * sgn(m + k)
                F[k - 1][j - 1] = lin + quad
    # diagonal entries belong to L2 by construction of the index bounds
    for a in range(n):
        F[a][a] = F[a][a].with_tag("L2")
    out = AssociatedMatrix(n, tuple(tuple(r) for r in F))
    tr = out.trace()
    if tr.sup_on_grid() > 1e-10 * (1.0 + max(s.sup_on_grid() for s in spec.coefficients)):
        raise ConsistencyError("built associated matrix has nonzero trace")
    return out


# ---------------------------------------------------------------------------
# conjugation into a sector frame
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugatedSystem:
    """The split system rotated into the root-of-unity frame of a sector.

    w' = rho B w + A(x, rho) w with A(x, rho) = A_0(x) + sum_k rho^-k A_k(x),
    A_k = Omega^{-1} F_k Omega. diag(A_0) vanishes identically. `table`
    holds every A_k, entry [k, i, l], on the merged pieces of F;
    `table.entry((k, i, l))` gives one entry as a PiecewisePoly.
    """

    n: int
    frame: SectorFrame
    table: PieceTable  # shape (n, n, n), [k][i][l]

    def evaluate_Ak(self, x, at=None):
        """All A_k at points x: array of shape (n,) + x.shape + (n, n);
        `at` picks the coefficient pieces as in PieceTable.__call__."""
        return np.moveaxis(self.table(x, at), (1, 2), (-2, -1))

    def breakpoints(self):
        return self.table.breakpoints

    def a0_is_zero(self):
        return not self.table.nonzero[0].any()


def conjugate_system(F: AssociatedMatrix, frame: SectorFrame) -> ConjugatedSystem:
    """A_k = Omega^{-1} F_k Omega for every lower diagonal F_k.

    An entry of A_k is the scalar combination
        (1/n) sum_{a-b=k} omega_i^{-a} f_{a+1,b+1} omega_l^{b}
    (0-based a, b), so the A_k are one linear map of F's coefficients:
    `F.table.combine` applies it on each merged piece of F, summing in
    the order of a. diag(A_0) = trace(F)/n = 0 is re-checked numerically.
    """
    n = F.n
    om = frame.omegas
    weights = np.zeros((n, n, n, n, n), dtype=complex)  # [k, i, l, a, b]
    for i, l, a, b in np.ndindex(n, n, n, n):
        if a >= b:
            weights[a - b, i, l, a, b] = (om[i] ** (-a)) * (om[l] ** b) / n
    sys = ConjugatedSystem(n=n, frame=frame, table=F.table.combine(
        weights.reshape(n ** 3, n ** 2), (n, n, n)))
    # internal consistency: the main-diagonal conjugate has zero diagonal
    a0 = sys.table(np.union1d(np.linspace(0.0, 1.0, 101), F.breakpoints()))[0]
    dmax = float(np.max(np.abs(np.diagonal(a0))))
    if dmax > 1e-12 * (1.0 + float(np.max(np.abs(a0)))):
        raise ConsistencyError(
            f"diag(A_0) deviates from zero by {dmax:.3e}; builder bug upstream")
    return sys


# ---------------------------------------------------------------------------
# pair-comparison combination coefficients
# ---------------------------------------------------------------------------

def s_coefficient(nu, i_nu):
    """Integer weight of sigma_nu in the first differing diagonal sum.

    sum_{row-col=d} fhat = sum_{nu in N_d} S_nu sigmahat_nu with
        S_{2k}   = (-1)^{k+1} sum_{s=0}^{i} (-1)^s C(i, s)
        S_{2k+1} = (-1)^k  [ sum_{s=0}^{i+1} (-1)^s C(i+1, s)
                             + 2 sum_{s=0}^{i} (-1)^s C(i, s) ]
    so S_nu = 0 whenever i_nu > 0. The odd-case sign is the one derived
    from the matrix construction itself (verified symbolically in tests).
    """
    if nu < 0 or i_nu < 0:
        raise ValidationError("nu", "indices must be non-negative")
    k, odd = divmod(nu, 2)
    alt_i = sum((-1) ** s * _comb(i_nu, s) for s in range(i_nu + 1))
    if odd:
        alt_i1 = sum((-1) ** s * _comb(i_nu + 1, s) for s in range(i_nu + 2))
        return (-1) ** k * (alt_i1 + 2 * alt_i)
    return (-1) ** (k + 1) * alt_i


def diag_correction(spec_a: ExpressionSpec, spec_b: ExpressionSpec, d,
                    frame: SectorFrame):
    """diag(Ahat_d) for a pair of expressions differing below index nu_0.

    Returns the n functions ahat_{d,ii}(x) = (omega_i^{-d}/n) *
    sum_nu S_nu sigmahat_nu(x); only nu with i_nu = 0 contribute.
    """
    if spec_a.n != spec_b.n:
        raise ValidationError("pair.n", "orders must match")
    if spec_a.indices != spec_b.indices:
        raise ValidationError("pair.indices", "index tuples must match")
    n = spec_a.n
    comb = PiecewisePoly.zero()
    for nu in range(n - 1):
        if n - 1 - (nu + spec_a.indices[nu]) != d:
            continue
        s = s_coefficient(nu, spec_a.indices[nu])
        if s:
            comb = comb + (spec_a.coefficients[nu] - spec_b.coefficients[nu]) * float(s)
    om = frame.omegas
    return [comb * (om[i] ** (-d) / n) for i in range(n)]
