"""High-precision mpmath oracle for eigenvalues and weight numbers.

Works from the JSON config alone and shares no code with quasispec: the
associated matrix F(x) is rebuilt here from the binomial stencils of the
regularization, and the fundamental matrix C(1, lambda) of
y' = (F(x) + Lambda) y is formed piece by piece

  * as an exact product of `mp.expm` factors where F is constant, and
  * by a Taylor-series solve where F is a polynomial in x.

Delta(lambda) = det[U_s(C)] is then formed at a working precision that
covers the exp(2 |rho|) cancellation of the plain determinant. Roots come
from `mp.findroot` seeded with the library's own roots; weight numbers
are beta = -Delta_bullet(lambda) / Delta'(lambda) with `mp.diff`.
"""

from __future__ import annotations

import math

import mpmath as mp

__all__ = ["Problem", "check"]

_GUARD_DIGITS = 30


# ---------------------------------------------------------------------------
# polynomials: lists of mpc coefficients in ascending powers
# ---------------------------------------------------------------------------

def _padd(a, b):
    out = [mp.mpc(0)] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return out


def _pmul(a, b):
    if not a or not b:
        return []
    out = [mp.mpc(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _pscale(a, s):
    return [v * s for v in a]


def _pshift(a, delta):
    """Coefficients of p(t + delta) from those of p(t)."""
    out = [mp.mpc(0)] * len(a)
    for k, ck in enumerate(a):
        for j in range(k + 1):
            out[j] += ck * math.comb(k, j) * mp.mpf(delta) ** (k - j)
    return out


def _complex(pair):
    return mp.mpc(mp.mpf(pair[0]), mp.mpf(pair[1]))


# ---------------------------------------------------------------------------
# the associated matrix, rebuilt from the stencils
# ---------------------------------------------------------------------------

def _chi(nu, i, m):
    """Stencil of sigma_nu with derivative order i as {(xi, j): weight}."""
    k, odd = divmod(nu, 2)
    out = {}
    if odd:
        for s in range(i + 2):
            w = math.comb(i + 1, s) - (2 * math.comb(i, s - 1) if s >= 1 else 0)
            xi, j = s + k, i + 1 - s + k
            if w and 0 <= xi <= m and 0 <= j <= m:
                out[(xi, j)] = w
    else:
        for s in range(i + 1):
            xi, j = s + k, i - s + k
            if 0 <= xi <= m and 0 <= j <= m:
                out[(xi, j)] = math.comb(i, s)
    return out


def _f_polys(n, indices, sigmas):
    """F on one piece as an n x n grid of local polynomials."""
    m, odd = divmod(n, 2)
    Q = [[[] for _ in range(m + 1)] for _ in range(m + 1)]
    for nu, (i, sig) in enumerate(zip(indices, sigmas)):
        for (xi, j), w in _chi(nu, i, m).items():
            Q[xi][j] = _padd(Q[xi][j], _pscale(sig, w))
    F = [[[] for _ in range(n)] for _ in range(n)]
    for k in range(n - 1):
        F[k][k + 1] = [mp.mpc(1)]

    def sgn(p):
        return 1 if p % 2 == 0 else -1

    # 1-based (k, j) below, as in the regularization formulas
    if odd:
        for k in range(m + 1, n + 1):
            for j in range(1, m + 2):
                F[k - 1][j - 1] = _pscale(Q[j - 1][2 * m + 1 - k], sgn(k))
    else:
        for j in range(1, m + 1):
            F[m - 1][j - 1] = _pscale(Q[j - 1][m], sgn(m + 1))
        for k in range(m + 1, 2 * m + 1):
            F[k - 1][m] = _pscale(Q[m][2 * m - k], sgn(k + 1))
            for j in range(1, m + 1):
                F[k - 1][j - 1] = _padd(
                    _pscale(Q[j - 1][2 * m - k], sgn(k + 1)),
                    _pscale(_pmul(Q[j - 1][m], Q[m][2 * m - k]), sgn(m + k)))
    return F


def _sigma_pieces(doc):
    """Breakpoints and, per piece, each sigma as a local polynomial."""
    coeffs = doc["coefficients"]
    bps = {0.0, 1.0}
    for c in coeffs:
        if c["type"] == "piecewise_poly":
            bps.update(float(b) for b in c["breakpoints"])
    bps = sorted(bps)
    pieces = []
    for a, b in zip(bps[:-1], bps[1:]):
        mid = 0.5 * (a + b)
        sig = []
        for c in coeffs:
            if c["type"] == "zero":
                sig.append([])
            elif c["type"] == "constant":
                sig.append([_complex(c["value"])])
            else:
                own = [float(x) for x in c["breakpoints"]]
                p = max(i for i in range(len(own) - 1) if own[i] <= mid)
                local = [_complex(v) for v in c["coeffs"][p]]
                sig.append(_pshift(local, mp.mpf(a) - mp.mpf(own[p])))
        pieces.append((mp.mpf(a), mp.mpf(b), sig))
    return pieces


class Problem:
    """One boundary value problem of a quasispec config document."""

    def __init__(self, doc):
        self.n = n = doc["order"]["n"]
        indices = doc["indices"]["i"]
        self.pieces = [(a, b, _f_polys(n, indices, sig))
                       for a, b, sig in _sigma_pieces(doc)]
        bd = doc["boundary"]
        self.r = bd["r"]
        self.forms = ([(0, f["p"], [_complex(u) for u in f.get("u", [])])
                       for f in bd["left"]]
                      + [(1, f["p"], [_complex(u) for u in f.get("u", [])])
                         for f in bd["right"]])
        wf = doc.get("weight_form")
        self.weight = None if wf is None else (
            0, wf["p0"], [_complex(u) for u in wf.get("u0", [])])

    @staticmethod
    def dps_for(rho_abs):
        """Digits that keep the exp(2|rho|) cancellation plus a guard."""
        return _GUARD_DIGITS + int(math.ceil(2.0 * rho_abs / math.log(10.0)))

    # -- fundamental matrix ----------------------------------------------

    def _piece_factor(self, a, b, F, lam):
        n, h = self.n, b - a
        if all(len(F[i][j]) <= 1 for i in range(n) for j in range(n)):
            M = mp.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    M[i, j] = F[i][j][0] if F[i][j] else 0
            M[n - 1, 0] += lam
            return mp.expm(M * h)
        return self._taylor(F, lam, h)

    def _taylor(self, F, lam, h):
        """C(h) of Y' = (F(t) + Lambda) Y, Y(0) = I, F polynomial in t:
        (k + 1) Y_{k+1} = sum_j M_j Y_{k-j}, summed at t = h."""
        n = self.n
        deg = max(len(F[i][j]) for i in range(n) for j in range(n))
        Ms = []
        for d in range(deg):
            M = mp.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    if d < len(F[i][j]):
                        M[i, j] = F[i][j][d]
            Ms.append(M)
        Ms[0][n - 1, 0] += lam
        Ms = [M * h ** d for d, M in enumerate(Ms)]
        terms = [mp.eye(n)]
        total = mp.eye(n)
        tiny = mp.mpf(10) ** (-mp.mp.dps - 5)
        quiet = 0
        for k in range(100000):
            nxt = mp.matrix(n, n)
            for d, M in enumerate(Ms):
                if k - d >= 0:
                    nxt += M * terms[k - d]
            nxt = nxt * (h / (k + 1))   # terms carry their power of h
            terms.append(nxt)
            total += nxt
            if mp.mnorm(nxt, 1) <= tiny * mp.mnorm(total, 1):
                quiet += 1
                if quiet > deg + 1:
                    return total
            else:
                quiet = 0
        raise ArithmeticError("Taylor series did not converge")

    def c_one(self, lam):
        C = mp.eye(self.n)
        for a, b, F in self.pieces:
            C = self._piece_factor(a, b, F, lam) * C
        return C

    # -- determinants ----------------------------------------------------

    def delta(self, lam, bullet=False):
        n = self.n
        if bullet:
            rows = [self.weight] + [f for s, f in enumerate(self.forms)
                                    if s != self.r - 1]
        else:
            rows = self.forms
        C1 = self.c_one(lam)
        M = mp.matrix(n, n)
        for i, (side, p, u) in enumerate(rows):
            for col in range(n):
                if side == 0:
                    v = mp.mpf(1 if col == p else 0)
                    v += sum(uj for j, uj in enumerate(u, 1) if col == j - 1)
                else:
                    v = C1[p, col] + sum(uj * C1[j - 1, col]
                                         for j, uj in enumerate(u, 1))
                M[i, col] = v
        return mp.det(M)

    def root(self, lam0):
        """The zero of Delta next to lam0 (secant from the library root)."""
        lam0 = mp.mpc(lam0)
        step = mp.mpf(10) ** -8 * max(1, abs(lam0))
        root = mp.findroot(self.delta, (lam0, lam0 + step), solver="secant",
                           tol=mp.mpf(10) ** (-_GUARD_DIGITS), verify=False,
                           maxsteps=60)
        probe = root + mp.mpf(10) ** -10 * max(1, abs(root))
        if abs(self.delta(root)) > mp.mpf(10) ** -20 * abs(self.delta(probe)):
            raise ArithmeticError(f"no simple zero found next to {lam0}")
        return root

    def beta(self, lam):
        """Weight number -Res(Delta_bullet / Delta) at a simple zero."""
        return -self.delta(lam, bullet=True) / mp.diff(self.delta, lam)


# ---------------------------------------------------------------------------
# checks against library output
# ---------------------------------------------------------------------------

def check(doc, rows):
    """Relative errors of library rows {l, lam, rho[, beta]}.

    Returns {l: (rho_err, beta_err or None)} with
    rho_err = |rho - rho_ref| / |rho_ref|, rho_ref = rho (lam_ref/lam)^(1/n)
    on the branch next to the library's root.
    """
    prob = Problem(doc)
    out = {}
    for row in rows:
        with mp.workdps(Problem.dps_for(abs(row["rho"]))):
            lam = mp.mpc(row["lam"])
            ref = prob.root(lam)
            ratio = (ref / lam) ** (mp.mpf(1) / prob.n)
            beta_err = None
            if row.get("beta") is not None:
                beta = prob.beta(ref)
                beta_err = float(abs(mp.mpc(row["beta"]) - beta) / abs(beta))
            out[row["l"]] = (float(abs(1 - 1 / ratio)), beta_err)
    return out
