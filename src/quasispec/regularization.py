"""Regularization of higher-order differential expressions.

A differential expression of order n = 2m + tau with coefficients
sigma_nu entering through distributional derivatives of orders i_nu is
encoded by an n x n matrix function F(x) built from sigma_nu alone (no
derivative of any sigma is ever formed). The first-order system
y' = (F(x) + Lambda) y in the quasi-derivatives is then equivalent to
the original equation, and all spectral computations flow through F.

This module builds F, splits it into its lower diagonals, conjugates the
split system into the root-of-unity frame of a sector, and evaluates the
integer combination coefficients that govern the first differing
diagonal of a pair of expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, ValidationError
from .piecewise import PiecewisePoly, merge_breakpoints
from .sectors import SectorFrame

__all__ = [
    "chi_matrix",
    "ExpressionSpec",
    "AssociatedMatrix",
    "build_associated_matrix",
    "diagonal_split",
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

    def evaluate(self, x):
        """F at points x; returns an array of shape x.shape + (n, n)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (self.n, self.n), dtype=complex)
        for a in range(self.n):
            for b in range(self.n):
                e = self.entries[a][b]
                if not e.is_zero():
                    out[..., a, b] = e(x)
        return out

    def breakpoints(self):
        return merge_breakpoints(*(e.breakpoints for row in self.entries for e in row))

    def trace(self):
        t = PiecewisePoly.zero()
        for a in range(self.n):
            t = t + self.entries[a][a]
        return t

    def diagonal_sum(self, d):
        """Sum of the entries on the lower diagonal of index d (row-col = d)."""
        t = PiecewisePoly.zero()
        for a in range(d, self.n):
            t = t + self.entries[a][a - d]
        return t

    def lower_diagonal(self, d):
        """Matrix holding exactly the lower diagonal of index d (0 = main)."""
        rows = [[PiecewisePoly.zero() for _ in range(self.n)] for _ in range(self.n)]
        for a in range(d, self.n):
            rows[a][a - d] = self.entries[a][a - d]
        return tuple(tuple(r) for r in rows)

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


def diagonal_split(F: AssociatedMatrix):
    """Split F into the constant shift and its lower diagonals.

    Returns (F_minus1, [F_0, ..., F_{n-1}]) where F_minus1 is the
    constant matrix with ones on the superdiagonal and at (n, 1), and
    F_d holds exactly the lower diagonal of index d of F(x).
    """
    n = F.n
    f_m1 = np.zeros((n, n), dtype=complex)
    for j in range(n - 1):
        f_m1[j, j + 1] = 1.0
    f_m1[n - 1, 0] = 1.0
    diags = [F.lower_diagonal(d) for d in range(n)]
    return f_m1, diags


# ---------------------------------------------------------------------------
# conjugation into a sector frame
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugatedSystem:
    """The split system rotated into the root-of-unity frame of a sector.

    w' = rho B w + A(x, rho) w with A(x, rho) = A_0(x) + sum_k rho^-k A_k(x),
    A_k = Omega^{-1} F_k Omega. diag(A_0) vanishes identically.
    """

    n: int
    frame: SectorFrame
    A: tuple  # A[k][i][l] PiecewisePoly, k = 0..n-1

    def evaluate_Ak(self, x, at=None):
        """All A_k at points x: array of shape (n,) + x.shape + (n, n);
        `at` (x's shape) picks the coefficient pieces as in
        PiecewisePoly.__call__."""
        x = np.asarray(x, dtype=float)
        out = np.zeros((self.n,) + x.shape + (self.n, self.n), dtype=complex)
        for k in range(self.n):
            for i in range(self.n):
                for l in range(self.n):
                    e = self.A[k][i][l]
                    if not e.is_zero():
                        out[k, ..., i, l] = e(x, at)
        return out

    def evaluate(self, x, rho, at=None):
        """A(x, rho) at points x: array of shape x.shape + (n, n)."""
        ak = self.evaluate_Ak(x, at)
        out = ak[0].astype(complex)
        for k in range(1, self.n):
            out += ak[k] * rho ** (-k)
        return out

    def breakpoints(self):
        return merge_breakpoints(*(e.breakpoints for Ak in self.A
                                   for row in Ak for e in row))

    def a0_is_zero(self):
        return all(self.A[0][i][l].is_zero() for i in range(self.n)
                   for l in range(self.n))


def conjugate_system(F: AssociatedMatrix, frame: SectorFrame) -> ConjugatedSystem:
    """A_k = Omega^{-1} F_k Omega for every lower diagonal F_k.

    An entry of A_k is the scalar combination
        (1/n) sum_{a-b=k} omega_i^{-a} f_{a+1,b+1} omega_l^{b}
    (0-based a, b). diag(A_0) = trace(F)/n = 0 is re-checked numerically.
    """
    n = F.n
    om = frame.omegas
    A = []
    for k in range(n):
        Ak = [[PiecewisePoly.zero() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for l in range(n):
                acc = PiecewisePoly.zero()
                for a in range(k, n):
                    b = a - k
                    e = F.entries[a][b]
                    if e.is_zero():
                        continue
                    scale = (om[i] ** (-a)) * (om[l] ** b) / n
                    acc = acc + e * scale
                Ak[i][l] = acc
        A.append(tuple(tuple(r) for r in Ak))
    sys = ConjugatedSystem(n=n, frame=frame, A=tuple(A))
    # internal consistency: the main-diagonal conjugate has zero diagonal
    x = np.union1d(np.linspace(0.0, 1.0, 101), F.breakpoints())
    a0 = sys.evaluate_Ak(x)[0]
    dmax = float(np.max(np.abs(np.diagonal(a0, axis1=-2, axis2=-1))))
    scale = 1.0 + float(np.max(np.abs(a0)))
    if dmax > 1e-12 * scale:
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
