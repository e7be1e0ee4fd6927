"""Fundamental systems for large |rho| via exponentially factored
integral equations, and the oscillatory-integral functionals that
control their remainders.

The conjugated system w' = rho B w + A(x, rho) w is solved as
w = z(x, rho) exp(rho B x) where each column of z satisfies a system of
Volterra-type integral equations. Component (j, k) is integrated from
the endpoint that keeps its kernel exp(rho (w_j - w_k)(x - t)) bounded:
from x = 1 when Re(rho (w_j - w_k)) > 0 in the sector, from x = 0
otherwise. All exponentials in the scheme then have non-positive real
part up to the sector-extension slack, so the computation is stable at
any |rho|.

Each kernel application is realized as a panel-wise Chebyshev
collocation solve of the equivalent scalar ODE I' = mu I + f with I
pinned at the integration origin; panels are sized so the local
exponent stays small, which keeps the collocation spectrally accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import NonContractionError, ValidationError
from .piecewise import _shift_coeffs
from .regularization import ConjugatedSystem

__all__ = [
    "BirkhoffSolution",
    "birkhoff_fss",
    "upsilon",
    "upsilon_d",
]

# Chebyshev degree per panel
DEGREE = 12
# cap on |mu| * panel width
TARGET_EXPONENT = 5.0
# fewest panels of a layout
MIN_PANELS = 4
# relative change that stops the fixed-point iteration; GMRES tolerance
TOL = 1e-12
# fixed-point iterations before the GMRES fallback
MAX_ITER = 60
# (s, x) grid points per axis of upsilon
UPSILON_POINTS = 25


def _cheb_nodes_and_diff(q):
    """Chebyshev-Lobatto nodes ascending on [-1, 1] and the
    differentiation matrix acting on values at those nodes."""
    i = np.arange(q + 1)
    x = -np.cos(np.pi * i / q)
    c = np.ones(q + 1)
    c[0] = c[-1] = 2.0
    c = c * (-1.0) ** i
    X = x[:, None] - x[None, :]
    D = (c[:, None] / c[None, :]) / (X + np.eye(q + 1))
    D -= np.diag(D.sum(axis=1))
    return x, D


def _panel_layout(breakpoints, rho_abs, span):
    """Panel edges: coefficient breakpoints refined so that the largest
    kernel exponent per panel stays below the target."""
    width_cap = TARGET_EXPONENT / max(rho_abs * span, 1e-9)
    edges = [0.0]
    bp = np.asarray(breakpoints, dtype=float)
    for a, b in zip(bp[:-1], bp[1:]):
        nsub = max(1, int(np.ceil((b - a) / width_cap)))
        for i in range(1, nsub + 1):
            edges.append(a + (b - a) * i / nsub)
    edges = np.asarray(edges)
    if len(edges) - 1 < MIN_PANELS:
        # refine uniformly to the minimum count
        extra = np.linspace(0.0, 1.0, MIN_PANELS + 1)
        edges = np.union1d(edges, extra)
    return edges


@dataclass(frozen=True)
class BirkhoffSolution:
    """Solution z of the factored system; w = z exp(rho B x).

    z is stored per panel at Chebyshev-Lobatto nodes; `xs` has shape
    (panels, degree + 1) and `z` has shape (n, n, panels, degree + 1).
    """

    rho: complex
    system: ConjugatedSystem
    xs: np.ndarray
    z: np.ndarray
    iterations: int
    used_gmres: bool = False

    @property
    def n(self):
        return self.z.shape[0]

    @property
    def z_at_zero(self):
        return self.z[:, :, 0, 0]

    @property
    def z_at_one(self):
        return self.z[:, :, -1, -1]

    def max_E(self):
        """max over nodes of |z - I|."""
        E = self.z.copy()
        for j in range(self.n):
            E[j, j] -= 1.0
        return float(np.max(np.abs(E)))

    def w_at(self, panel, node):
        """w(x) = z(x) exp(rho B x) at one stored node."""
        x = self.xs[panel, node]
        col = np.exp(self.rho * self.system.frame.omegas * x)
        return self.z[:, :, panel, node] * col[None, :]

    def residual(self):
        """max over nodes of |z' - rho(Bz - zB) - A z| (bounded coords)."""
        _, D = _cheb_nodes_and_diff(DEGREE)
        om = self.system.frame.omegas
        mus = self.rho * (om[:, None] - om[None, :])
        A = _node_A(self.system, self.xs, self.rho)
        worst = 0.0
        for p in range(self.xs.shape[0]):
            h = self.xs[p, -1] - self.xs[p, 0]
            dz = np.einsum("ab,jkb->jka", D, self.z[:, :, p, :]) * (2.0 / h)
            Az = np.einsum("xjl,lkx->jkx", A[p], self.z[:, :, p, :])
            res = dz - mus[:, :, None] * self.z[:, :, p, :] - Az
            worst = max(worst, float(np.max(np.abs(res))))
        return worst


def _node_A(system, xs, rho):
    """A(x, rho) at the panel nodes xs, shape xs.shape + (n, n).

    Every node of a panel is read from the coefficient piece holding the
    panel midpoint, so a panel that ends on a jump takes the left limit
    at its last node, not the next piece's value.
    """
    mids = 0.5 * (xs[:, :1] + xs[:, -1:])
    return system.evaluate(xs, rho, at=np.repeat(mids, xs.shape[1], axis=1))


class _KernelBank:
    """Per-(j,k) panelized kernel solvers for integral from b_jk to x."""

    def __init__(self, frame, rho, edges, q):
        n = frame.n
        om = frame.omegas
        self.n, self.q = n, q
        self.edges = edges
        P = len(edges) - 1
        self.P = P
        xhat, D = _cheb_nodes_and_diff(q)
        self.xs = edges[:-1, None] + (xhat[None, :] + 1.0) * 0.5 * np.diff(edges)[:, None]
        hs = np.diff(edges)
        grow = frame.grow_mask
        mus = rho * (om[:, None] - om[None, :])
        self.backward = grow
        # batched collocation solves over all (j, k, panel) triples
        nus = mus[:, :, None] * hs[None, None, :] / 2.0        # (n, n, P)
        eye = np.eye(q + 1)
        Amat = D[None, None, None] - nus[..., None, None] * eye
        Proj = np.broadcast_to(eye, (n, n, P, q + 1, q + 1)).copy()
        pin_back, pin_fwd = q, 0
        back3 = np.broadcast_to(grow[:, :, None], (n, n, P))
        Amat[back3, pin_back, :] = 0.0
        Amat[back3, pin_back, pin_back] = 1.0
        Proj[back3, pin_back, pin_back] = 0.0
        fwd3 = ~back3
        Amat[fwd3, pin_fwd, :] = 0.0
        Amat[fwd3, pin_fwd, pin_fwd] = 1.0
        Proj[fwd3, pin_fwd, pin_fwd] = 0.0
        self.psi = np.linalg.solve(Amat, Proj) * (hs[None, None, :, None, None] / 2.0)
        self.prop = np.where(
            grow[:, :, None, None],
            np.exp(nus[..., None] * (xhat - 1.0)),
            np.exp(nus[..., None] * (xhat + 1.0)))
        self.step = np.where(grow[:, :, None],
                             np.exp(-mus[:, :, None] * hs[None, None, :]),
                             np.exp(mus[:, :, None] * hs[None, None, :]))

    def apply(self, G):
        """out[j,k,p,:] = integral_{b_jk}^{x} G_jk(t) exp(mu_jk (x-t)) dt."""
        partial = np.einsum("jkpab,jkpb->jkpa", self.psi, G)
        out = np.empty_like(partial)
        n, P = self.n, self.P
        back = self.backward
        fwd = ~back
        # forward sweep: carry_p = integral over [0, a_p], propagated
        carry = np.zeros((n, n), dtype=complex)
        for p in range(P):
            out[:, :, p, :] = np.where(
                fwd[:, :, None],
                partial[:, :, p, :] + carry[:, :, None] * self.prop[:, :, p, :],
                0.0)
            carry = carry * self.step[:, :, p] + partial[:, :, p, -1]
        # backward sweep: carry_p = integral from 1 down to b_p
        carry = np.zeros((n, n), dtype=complex)
        for p in range(P - 1, -1, -1):
            vals = partial[:, :, p, :] + carry[:, :, None] * self.prop[:, :, p, :]
            out[:, :, p, :] = np.where(back[:, :, None], vals, out[:, :, p, :])
            carry = vals[:, :, 0]
        return out


def birkhoff_fss(system: ConjugatedSystem, rho) -> BirkhoffSolution:
    """Solve the factored fundamental-system equations at one rho.

    The fixed-point iteration z <- I + V z is stopped at relative change
    TOL; if the measured contraction stalls or MAX_ITER runs out, the
    discretized linear system is solved by GMRES instead
    (NonContractionError when that fails too).
    """
    rho = complex(rho)
    if rho == 0:
        raise ValidationError("rho", "rho must be nonzero")
    n = system.n
    frame = system.frame
    om = frame.omegas
    span = float(np.max(np.abs(om[:, None] - om[None, :])))
    edges = _panel_layout(system.breakpoints(), abs(rho), span)
    q = DEGREE
    bank = _KernelBank(frame, rho, edges, q)
    xs = bank.xs
    V = np.transpose(_node_A(system, xs, rho), (2, 3, 0, 1))  # (j, l, P, q+1)

    ident = np.zeros((n, n, bank.P, q + 1), dtype=complex)
    for j in range(n):
        ident[j, j] = 1.0

    def apply_V(z):
        G = np.einsum("jlpq,lkpq->jkpq", V, z)
        return bank.apply(G)

    z = ident.copy()
    prev = np.inf
    for it in range(1, MAX_ITER + 1):
        znew = ident + apply_V(z)
        delta = float(np.max(np.abs(znew - z)))
        z = znew
        scale = float(np.max(np.abs(z)))
        if delta < TOL * max(1.0, scale):
            return BirkhoffSolution(rho=rho, system=system, xs=xs, z=z,
                                    iterations=it)
        ratio = delta / prev if np.isfinite(prev) and prev > 0 else 0.0
        prev = delta
        if it >= 6 and ratio >= 0.97:
            break
    # stalled or out of iterations
    shape = ident.shape

    def matvec(v):
        zz = v.reshape(shape)
        return (zz - apply_V(zz)).ravel()

    op = LinearOperator((ident.size, ident.size), matvec=matvec,
                        dtype=complex)
    sol, info = gmres(op, ident.ravel(), rtol=TOL,
                      atol=0.0, restart=60, maxiter=40)
    if info != 0:
        raise NonContractionError(
            f"GMRES fallback failed (info={info}) at |rho|={abs(rho):.3g}; "
            "increase |rho|")
    return BirkhoffSolution(rho=rho, system=system, xs=xs, z=sol.reshape(shape),
                            iterations=MAX_ITER, used_gmres=True)


# ---------------------------------------------------------------------------
# oscillatory-integral functionals
# ---------------------------------------------------------------------------

def _poly_exp_integral(coeffs, delta, mu):
    """integral_0^delta p(t) exp(mu (t - delta)) dt, right-anchored.

    Stable for Re mu >= 0 (the kernel is then <= 1 on [0, delta]).
    """
    deg = len(coeffs) - 1
    nu = mu * delta
    if abs(nu) > max(4.0, 2.0 * deg):
        # by parts, dividing by mu
        I = np.empty(deg + 1, dtype=complex)
        I[0] = (1.0 - np.exp(-nu)) / mu
        for k in range(1, deg + 1):
            I[k] = (delta ** k) / mu - (k / mu) * I[k - 1]
        return complex(np.dot(coeffs, I[: deg + 1]))
    # series in mu: e^{mu(t-delta)} = e^{-nu} e^{mu t}
    total = 0.0 + 0.0j
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        term = 0.0 + 0.0j
        fac = 1.0
        for jj in range(0, 40):
            add = fac * delta ** (k + jj + 1) / (k + jj + 1)
            term += add
            if abs(add) < 1e-20 * (1 + abs(term)):
                break
            fac = fac * mu / (jj + 1)
        total += c * term
    return total * np.exp(-nu)


class _AnchoredCumulative:
    """H(t) = integral_0^t a(tau) exp(mu tau) d tau represented stably.

    Values are stored as W(t) with H(t) = exp(mu t) W(t) when Re mu >= 0
    (W decays into the past) and as Wt(t) with
    integral_c^d = exp(mu c) Wt(c) - exp(mu d) Wt(d) when Re mu < 0.
    The combination rules keep every evaluated exponential's argument
    equal to the true kernel exponent at an interval end.
    """

    def __init__(self, a_pw, mu, tgrid):
        self.mu = mu
        self.t = tgrid
        self.decaying_right = np.real(mu) >= 0
        vals = np.zeros(len(tgrid), dtype=complex)
        if self.decaying_right:
            # W(t_i+1) = e^{-mu dt} W(t_i) + local right-anchored integral
            for i in range(1, len(tgrid)):
                dt = tgrid[i] - tgrid[i - 1]
                loc = self._local(a_pw, tgrid[i - 1], tgrid[i], mu)
                vals[i] = vals[i - 1] * np.exp(-mu * dt) + loc
        else:
            # Wt(t_i) = e^{mu dt} Wt(t_i+1) + local left-anchored integral
            for i in range(len(tgrid) - 2, -1, -1):
                dt = tgrid[i + 1] - tgrid[i]
                loc = self._local_left(a_pw, tgrid[i], tgrid[i + 1], mu)
                vals[i] = vals[i + 1] * np.exp(mu * dt) + loc
        self.vals = vals

    @staticmethod
    def _shifted(a_pw, c, d):
        """Local polynomial of a_pw on [c, d], re-expanded around t = c."""
        i = int(a_pw.piece_index(0.5 * (c + d)))
        return _shift_coeffs(a_pw.coeffs[i], c - a_pw.breakpoints[i])

    @classmethod
    def _local(cls, a_pw, c, d, mu):
        """integral_c^d a e^{mu (t - d)} dt, right-anchored (Re mu >= 0)."""
        return _poly_exp_integral(cls._shifted(a_pw, c, d), d - c, mu)

    @classmethod
    def _local_left(cls, a_pw, c, d, mu):
        """integral_c^d a e^{mu (t - c)} dt, left-anchored (Re mu <= 0)."""
        # mirror t -> c + d - t reduces to the right-anchored form with -mu
        loc = cls._shifted(a_pw, c, d)
        q = _shift_coeffs(loc, d - c) * (-1.0) ** np.arange(len(loc))
        return _poly_exp_integral(q, d - c, -mu)

    def segment(self, c_idx, d_idx, exp_at_c, exp_at_d):
        """integral of a e^{g(t)} over [t[c_idx], t[d_idx]] given the true
        kernel exponents g at the two ends (arrays broadcastable together);
        g(t) = mu t + theta with theta constant per evaluation point."""
        if self.decaying_right:
            return (np.exp(exp_at_d) * self.vals[d_idx]
                    - np.exp(exp_at_c) * self.vals[c_idx])
        return (np.exp(exp_at_c) * self.vals[c_idx]
                - np.exp(exp_at_d) * self.vals[d_idx])


def upsilon(system: ConjugatedSystem, rho):
    """Maximal modulus of the oscillatory kernels v_{jkl}(s, x, rho).

    v_{jkl} integrates A_0[j,l] against the two-exponent kernel over the
    interval determined by which of the pairs (j,k), (l,k) grow in the
    sector; the maximum runs over all index triples and a product grid
    in (s, x). A_0 == 0 gives exactly 0.
    """
    rho = complex(rho)
    frame = system.frame
    n = system.n
    om = frame.omegas
    tg = np.linspace(0.0, 1.0, UPSILON_POINTS)
    tg = np.union1d(np.union1d(tg, system.breakpoints()), [0.0, 1.0])
    grow = frame.grow_mask
    best = 0.0
    S, X = np.meshgrid(tg, tg, indexing="ij")  # S[s_i, x_j]
    iS, iX = np.meshgrid(np.arange(len(tg)), np.arange(len(tg)), indexing="ij")
    for j in range(n):
        for l in range(n):
            a_pw = system.A[0][j][l]
            if a_pw.is_zero():
                continue
            mu = rho * (om[l] - om[j])
            cum = _AnchoredCumulative(a_pw, mu, tg)
            for k in range(n):
                gj, gl = grow[j, k], grow[l, k]
                sgn = (-1.0 if gj else 1.0) * (-1.0 if gl else 1.0)
                # interval ends as index grids
                if gj and gl:
                    ci, di = iX, iS          # (x, s), zero when s < x
                    valid = S >= X
                elif gj and not gl:
                    ci, di = np.maximum(iX, iS), np.full_like(iX, len(tg) - 1)
                    valid = np.ones_like(S, dtype=bool)
                elif (not gj) and gl:
                    ci, di = np.zeros_like(iX), np.minimum(iX, iS)
                    valid = np.ones_like(S, dtype=bool)
                else:
                    ci, di = iS, iX          # (s, x), zero when x < s
                    valid = X >= S
                tc, td = tg[ci], tg[di]
                gc = rho * ((om[l] - om[k]) * (tc - S) + (om[j] - om[k]) * (X - tc))
                gd = rho * ((om[l] - om[k]) * (td - S) + (om[j] - om[k]) * (X - td))
                v = sgn * cum.segment(ci, di, gc, gd)
                v = np.where(valid, v, 0.0)
                m = float(np.max(np.abs(v)))
                best = max(best, m)
    return best


def upsilon_d(entries, rho, frame, grid=None):
    """max over j != k and x of |integral_{b_jk}^x a_{jk}(t)
    exp(rho (w_j - w_k)(x - t)) dt| for a matrix of functions."""
    rho = complex(rho)
    n = frame.n
    om = frame.omegas
    if grid is None:
        grid = 41
    if np.isscalar(grid):
        tg = np.linspace(0.0, 1.0, int(grid))
    else:
        tg = np.asarray(grid, dtype=float)
    bps = [0.0, 1.0]
    for j in range(n):
        for k in range(n):
            bps = np.union1d(bps, entries[j][k].breakpoints)
    tg = np.union1d(tg, bps)
    grow = frame.grow_mask
    best = 0.0
    idx = np.arange(len(tg))
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            a_pw = entries[j][k]
            if a_pw.is_zero():
                continue
            # exponent is mu'(x - t) with mu' = rho (w_j - w_k); in the
            # t-integral that is theta(x) + mu t with mu = -mu'
            mu_p = rho * (om[j] - om[k])
            cum = _AnchoredCumulative(a_pw, -mu_p, tg)
            if grow[j, k]:
                # b = 1: |integral over (x, 1)|; exponents at ends:
                # g(x) = 0, g(1) = mu'(x - 1) <= 0 in-sector
                ci, di = idx, np.full_like(idx, len(tg) - 1)
                gc = np.zeros(len(tg), dtype=complex)
                gd = mu_p * (tg - 1.0)
            else:
                # b = 0: integral over (0, x); g(0) = mu' x, g(x) = 0
                ci, di = np.zeros_like(idx), idx
                gc = mu_p * tg
                gd = np.zeros(len(tg), dtype=complex)
            v = cum.segment(ci, di, gc, gd)
            best = max(best, float(np.max(np.abs(v))))
    return best
