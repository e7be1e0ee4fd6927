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

Panels are uniform inside each coefficient piece, at least
ceil(MIN_PANELS h) on a piece of width h, so a layout is a panel count
per piece. A solve costs:

- one collocation solve per pair (j, k) and distinct panel width;
- A = A_0 + sum_k rho^-k A_k at the nodes from node values of the A_k;
- per kernel application, the panels' local integrals I_p plus carries.
  For a pair integrated from x = 0 the carry at panel start e_p is
      C_p = sum_{q < p} exp(mu (e_p - e_{q+1})) I_q(e_{q+1}),
  the linear recurrence C_{p+1} = exp(mu h_p) C_p + I_p(e_{p+1}); a
  pair integrated from x = 1 runs the mirrored recurrence. Every factor
  exp(mu h_p) is an in-sector non-positive exponent, and the recurrence
  is evaluated as a log-depth scan over the panels.

A stalled fixed-point iteration falls back to a restarted GMRES on the
discretized system. The oscillatory integrals of `upsilon` and
`upsilon_d` take each grid interval's integral of a polynomial against
an exponential from one stacked matrix exponential (`solutions._expm`)
of augmented matrices. The module needs numpy only.

The solve serves the `birkhoff` command; the determinants of `spectrum`
do not call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, NonContractionError, ValidationError
from .piecewise import _shift_coeffs, merge_breakpoints
from .regularization import ConjugatedSystem
from .solutions import _expm

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
# fewest panels per unit length of a layout
MIN_PANELS = 4
# most panels of a layout; a larger |rho| is refused before any array is
# built
MAX_PANELS = 10_000
# relative change that stops the fixed-point iteration; GMRES tolerance
TOL = 1e-12
# fixed-point iterations before the GMRES fallback
MAX_ITER = 60
# (s, x) grid points per axis of upsilon
UPSILON_POINTS = 25
# x grid points of upsilon_d when no grid is given
UPSILON_D_POINTS = 41


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


_XHAT, _DIFF = _cheb_nodes_and_diff(DEGREE)


def _panel_layout(breakpoints, rho_abs, span):
    """Panels per coefficient piece at |rho| = rho_abs: the largest kernel
    exponent per panel stays below the target, and a piece of width h
    takes at least ceil(MIN_PANELS h) panels. IntegrationError when the
    layout takes more than MAX_PANELS panels."""
    width_cap = TARGET_EXPONENT / np.maximum(rho_abs * span, 1e-9)
    widths = np.diff(np.asarray(breakpoints, dtype=float))
    counts = np.maximum(np.ceil(MIN_PANELS * widths), np.ceil(widths / width_cap))
    total = counts.sum()
    if not total <= MAX_PANELS:
        raise IntegrationError(
            f"|rho| = {rho_abs:.3g} is too large: the factored solve would "
            f"need {total:.3g} panels, more than {MAX_PANELS}")
    return counts.astype(int)


@dataclass(frozen=True)
class BirkhoffSolution:
    """Solution z of the factored system; w = z exp(rho B x).

    z is stored per panel at Chebyshev-Lobatto nodes; `xs` has shape
    (panels, degree + 1), `z` has shape (n, n, panels, degree + 1) and
    `A`, the A(x, rho) the solve used, has the same shape as `z`.
    """

    rho: complex
    system: ConjugatedSystem
    xs: np.ndarray
    z: np.ndarray
    A: np.ndarray
    iterations: int
    used_gmres: bool = False

    @property
    def n(self):
        return self.z.shape[0]

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
        om = self.system.frame.omegas
        mus = self.rho * (om[:, None] - om[None, :])
        h = self.xs[:, -1] - self.xs[:, 0]
        dz = (self.z @ _DIFF.T) * (2.0 / h)[:, None]
        Az = np.einsum("jlpx,lkpx->jkpx", self.A, self.z)
        return float(np.max(np.abs(dz - mus[:, :, None, None] * self.z - Az)))


def _panel_nodes(bounds, counts):
    """(nodes (panels, DEGREE + 1), piece per panel, panel width per piece)
    of the layout counts, uniform panels inside each piece of bounds."""
    ends = np.cumsum(counts)
    seg = np.repeat(np.arange(len(counts)), counts)    # segment per panel
    lengths = np.diff(bounds)
    local = np.arange(ends[-1]) - (ends - counts)[seg]
    starts = bounds[:-1][seg] + lengths[seg] * local / counts[seg]
    hs = lengths / counts
    xs = starts[:, None] + (_XHAT[None, :] + 1.0) * 0.5 * hs[seg][:, None]
    return xs, seg, hs


class _KernelBank:
    """Per-(j,k) panelized kernel solvers for integral from b_jk to x at
    the points rho (m,) of one panel layout.

    Every array has the point axis first (birkhoff_fss solves one point);
    the collocation solves and their kernel factors are per point, the
    nodes xs per layout. Panel axes run in x for the local work; the
    carries run in scan order, which is reversed for the pairs integrated
    from x = 1.
    """

    def __init__(self, frame, rho, counts, nodes):
        om = frame.omegas
        q = DEGREE
        grow = frame.grow_mask
        mus = rho[:, None, None] * (om[:, None] - om[None, :])   # (m, n, n)
        self.xs, seg, hs = nodes
        widths, wid = np.unique(hs, return_inverse=True)
        self.segments = [(slice(e - m, e), w)
                         for e, m, w in zip(np.cumsum(counts), counts, wid)]
        # collocation solves over the (point, j, k, distinct width) tuples only
        nus = mus[..., None] * widths / 2.0    # (m, n, n, W)
        eye = np.eye(q + 1)
        Amat = _DIFF - nus[..., None, None] * eye
        Proj = np.broadcast_to(eye, (1,) + Amat.shape[1:]).copy()
        pin = np.where(grow, q, 0)[:, :, None]
        jj, kk, ww = np.indices(nus.shape[1:])
        Amat[:, jj, kk, ww, pin, :] = 0.0
        Amat[:, jj, kk, ww, pin, pin] = 1.0
        Proj[:, jj, kk, ww, pin, pin] = 0.0
        self.psi = np.linalg.solve(Amat, Proj)
        self.psi *= widths[:, None, None] / 2.0
        # each node's kernel factor from its panel's integration origin
        origin = np.where(grow[:, :, None, None], _XHAT - 1.0, _XHAT + 1.0)
        self.prop = np.exp(nus[..., None] * origin)[:, :, :, wid[seg]]
        # scan factors exp(mu h) forward, exp(-mu h) backward: both decay
        self.back = grow[:, :, None]
        step = np.exp(np.where(grow, -mus, mus)[..., None] * widths)[..., wid[seg]]
        step = np.where(self.back, step[..., ::-1], step)   # scan order
        # Hillis-Steele levels: products of step over windows of length d
        self.levels = []
        d = 1
        while d < len(seg):
            self.levels.append((d, step[..., d:]))
            step = np.concatenate([step[..., :d], step[..., d:] * step[..., :-d]],
                                  axis=-1)
            d *= 2

    def apply(self, V, z):
        """out[i,j,k,p,:] = integral_{b_jk}^{x} G_jk(t) exp(mu_jk (x-t)) dt
        with G = V z at each point i."""
        G = np.einsum("ijlpq,ilkpq->ijkpq", V, z)
        for sl, w in self.segments:
            G[..., sl, :] = G[..., sl, :] @ np.swapaxes(self.psi[:, :, :, w], -1, -2)
        # carry recurrence inputs in scan order: each panel's local integral
        # at the panel end that faces away from the integration origin
        y = np.where(self.back, G[..., ::-1, 0], G[..., -1])
        for d, a in self.levels:
            y[..., d:] = y[..., d:] + a * y[..., :-d]
        carry = np.zeros_like(y)
        carry[..., 1:] = y[..., :-1]
        carry = np.where(self.back, carry[..., ::-1], carry)
        G += carry[..., None] * self.prop
        return G


def _gmres(bank, V, rho):
    """z = I + V z at one point (V of shape (1, n, n, P, q+1)) by GMRES
    from z = 0, restarted every 60 steps, for at most 40 cycles (Saad &
    Schultz 1986); NonContractionError unless the residual falls to
    TOL times that of z = 0."""
    b = np.broadcast_to(np.eye(V.shape[1], dtype=complex)[:, :, None, None],
                        V.shape).ravel()

    def op(v):
        z = v.reshape(V.shape)
        return (z - bank.apply(V, z)).ravel()

    x = np.zeros_like(b)
    tol = TOL * np.linalg.norm(b)
    for cycle in range(41):
        r = b - op(x)
        beta = np.linalg.norm(r)
        if beta <= tol:
            return x.reshape(V.shape[1:])
        if cycle == 40 or not np.isfinite(beta):
            break
        Q = np.zeros((61, b.size), dtype=complex)
        H = np.zeros((61, 60), dtype=complex)
        # u H = 0 for the Hessenberg H so far: the least-squares residual
        # of its step is beta / ||u||
        u = np.zeros(61, dtype=complex)
        Q[0], u[0] = r / beta, 1.0
        for j in range(60):
            w = op(Q[j])
            # classical Gram-Schmidt twice: orthogonal to rounding, in matmuls
            for _ in range(2):
                c = Q[:j + 1].conj() @ w
                w -= c @ Q[:j + 1]
                H[:j + 1, j] += c
            H[j + 1, j] = np.linalg.norm(w)
            u[j + 1] = -(u[:j + 1] @ H[:j + 1, j]) / H[j + 1, j]
            if beta <= tol * np.linalg.norm(u[:j + 2]):
                break
            Q[j + 1] = w / H[j + 1, j]
        y = np.linalg.lstsq(H[:j + 2, :j + 1], beta * np.eye(j + 2)[0], rcond=None)[0]
        x += y @ Q[:j + 1]
    raise NonContractionError(
        f"GMRES fallback did not converge at |rho|={abs(rho):.3g}; increase |rho|")


def birkhoff_fss(system: ConjugatedSystem, rho) -> BirkhoffSolution:
    """Solve the factored fundamental-system equations at one rho: the
    fixed-point iteration z <- I + V z stops at relative change TOL; once
    its contraction stalls or MAX_ITER runs out, GMRES solves the system
    (NonContractionError when that fails too)."""
    rho = np.array([complex(rho)])
    if rho[0] == 0:
        raise ValidationError("rho", "rho must be nonzero")
    n, om = system.n, system.frame.omegas
    breakpoints = system.breakpoints()
    diag = np.arange(n)
    # rho near the float limits overflows to inf or nan; the solve then
    # fails with its typed error, not with numpy warnings
    with np.errstate(all="ignore"):
        counts = _panel_layout(breakpoints, np.abs(rho)[0],
                               np.max(np.abs(om[:, None] - om)))
        nodes = _panel_nodes(breakpoints, counts)
        xs = nodes[0]
        # A_k at the nodes, (k, j, l) + xs.shape: each node reads the piece
        # of its panel's midpoint, so a panel that ends on a jump takes the
        # left limit at its last node
        Ak = np.moveaxis(system.evaluate_Ak(xs, at=0.5 * (xs[:, :1] + xs[:, -1:])),
                         (-2, -1), (1, 2))
        bank = _KernelBank(system.frame, rho, counts, nodes)
        V = (rho[:, None, None] ** -np.arange(n) @ Ak.reshape(n, -1)).reshape(
            (1,) + Ak.shape[1:])                          # (1, j, l, P, q+1)
        z = np.zeros(V.shape, dtype=complex)
        z[:, diag, diag] = 1.0
        prev, used_gmres = np.inf, False
        for it in range(1, MAX_ITER + 1):
            znew = bank.apply(V, z)
            znew[:, diag, diag] += 1.0
            delta = np.max(np.abs(znew - z))
            z = znew
            if delta < TOL * np.fmax(1.0, np.max(np.abs(z))):
                break
            if it >= 6 and delta / prev >= 0.97 or it == MAX_ITER:
                z, it, used_gmres = _gmres(bank, V, rho[0])[None], MAX_ITER, True
                break
            prev = delta
    return BirkhoffSolution(rho=complex(rho[0]), system=system, xs=bank.xs,
                            z=z[0], A=V[0], iterations=it, used_gmres=used_gmres)


# ---------------------------------------------------------------------------
# oscillatory-integral functionals
# ---------------------------------------------------------------------------

class _AnchoredCumulative:
    """H(t) = integral_0^t a(tau) exp(mu tau) d tau represented stably.

    Values are stored as W(t) with H(t) = exp(mu t) W(t) when Re mu >= 0
    (W decays into the past) and as Wt(t) with
    integral_c^d = exp(mu c) Wt(c) - exp(mu d) Wt(d) when Re mu < 0.
    The combination rules keep every evaluated exponential's argument
    equal to the true kernel exponent at an interval end.
    """

    def __init__(self, a_pw, mu, tgrid):
        self.decaying_right = np.real(mu) >= 0
        h = np.diff(tgrid)
        polys = [self._shifted(a_pw, c, d) for c, d in zip(tgrid[:-1], tgrid[1:])]
        nu = mu
        if not self.decaying_right:
            # the mirror t -> c + d - t makes the left-anchored integral
            # integral_c^d a e^{mu (t - c)} dt right-anchored with -mu
            polys = [_shift_coeffs(p, w) * (-1.0) ** np.arange(len(p))
                     for p, w in zip(polys, h)]
            nu = -mu
        # integral_0^h p(s) e^{nu (s - h)} ds of each interval is entry
        # (0, 1) of exp(h [[-nu, p], [0, N]]) (Van Loan 1978), where
        # N (s^k) = k s^(k-1) on the powers 1, s, ..., s^deg
        m = max(len(p) for p in polys)
        M = np.zeros((len(h), m + 1, m + 1), dtype=complex)
        M[:, 0, 0] = -nu
        for i, p in enumerate(polys):
            M[i, 0, 1:len(p) + 1] = p
        M[:, 2:, 1:-1] = np.diag(np.arange(1.0, m))
        local = _expm(M * h[:, None, None])[:, 0, 1]
        # right: W(t_i+1) = e^{-mu dt} W(t_i) + local; left: Wt(t_i) =
        # e^{mu dt} Wt(t_i+1) + local, the same recurrence run backwards
        step = np.exp(-nu * h)
        if not self.decaying_right:
            step, local = step[::-1], local[::-1]
        vals = np.zeros(len(tgrid), dtype=complex)
        for i in range(len(h)):
            vals[i + 1] = vals[i] * step[i] + local[i]
        self.vals = vals if self.decaying_right else vals[::-1]

    @staticmethod
    def _shifted(a_pw, c, d):
        """Local polynomial of a_pw on [c, d], re-expanded around t = c."""
        i = int(a_pw.piece_index(0.5 * (c + d)))
        return _shift_coeffs(a_pw.coeffs[i], c - a_pw.breakpoints[i])

    def segment(self, c_idx, d_idx, exp_at_c, exp_at_d):
        """integral of a e^{g(t)} over [t[c_idx], t[d_idx]] given the true
        kernel exponents g at the two ends (arrays broadcastable together);
        g(t) = mu t + theta with theta constant per evaluation point."""
        if self.decaying_right:
            return (np.exp(exp_at_d) * self.vals[d_idx]
                    - np.exp(exp_at_c) * self.vals[c_idx])
        return (np.exp(exp_at_c) * self.vals[c_idx]
                - np.exp(exp_at_d) * self.vals[d_idx])


def _kernel_max(a_pw, j, l, ks, rho, frame, tg, s_idx):
    """max over k in ks, s = tg[s_idx] and x in tg of |v_jlk(s, x)|, the
    integral of a_pw(t) exp(rho ((w_l - w_k)(t - s) + (w_j - w_k)(x - t)))
    over the interval set by which of the pairs (j, k), (l, k) grow in
    the sector (empty, so v = 0, when its ends are reversed)."""
    om = frame.omegas
    grow = frame.grow_mask
    cum = _AnchoredCumulative(a_pw, rho * (om[l] - om[j]), tg)
    iS, iX = np.meshgrid(s_idx, np.arange(len(tg)), indexing="ij")
    S, X = tg[iS], tg[iX]
    best = 0.0
    for k in ks:
        gj, gl = grow[j, k], grow[l, k]
        # interval ends as index grids
        valid = True
        if gj and gl:
            ci, di = iX, iS
            valid = S >= X
        elif gj:
            ci, di = np.maximum(iX, iS), np.full_like(iX, len(tg) - 1)
        elif gl:
            ci, di = np.zeros_like(iX), np.minimum(iX, iS)
        else:
            ci, di = iS, iX
            valid = X >= S
        tc, td = tg[ci], tg[di]
        gc = rho * ((om[l] - om[k]) * (tc - S) + (om[j] - om[k]) * (X - tc))
        gd = rho * ((om[l] - om[k]) * (td - S) + (om[j] - om[k]) * (X - td))
        v = np.where(valid, cum.segment(ci, di, gc, gd), 0.0)
        best = max(best, float(np.max(np.abs(v))))
    return best


def upsilon(system: ConjugatedSystem, rho):
    """Maximal modulus of the oscillatory kernels v_jlk(s, x, rho).

    The maximum of _kernel_max over every nonzero entry A_0[j,l], every
    k and a product grid in (s, x). A_0 == 0 gives exactly 0.
    """
    rho = complex(rho)
    tg = np.union1d(np.linspace(0.0, 1.0, UPSILON_POINTS), system.breakpoints())
    return max((_kernel_max(system.table.entry((0, j, l)), j, l, range(system.n),
                            rho, system.frame, tg, np.arange(len(tg)))
                for j, l in zip(*np.nonzero(system.table.nonzero[0]))),
               default=0.0)


def upsilon_d(entries, rho, frame, grid=None):
    """max over j != k and x of |integral_{b_jk}^x a_{jk}(t)
    exp(rho (w_j - w_k)(x - t)) dt| for a matrix of functions, over the
    x points of grid (UPSILON_D_POINTS equispaced ones when None) and
    the entries' breakpoints: the slice s = 0, k = l of _kernel_max,
    where the interval is (x, 1) when (j, k) grows and (0, x) otherwise.
    """
    rho = complex(rho)
    tg = (np.linspace(0.0, 1.0, UPSILON_D_POINTS) if grid is None
          else np.asarray(grid, dtype=float))
    tg = np.union1d(tg, merge_breakpoints(*(e.breakpoints for row in entries
                                            for e in row)))
    return max((_kernel_max(entries[j][k], j, k, (k,), rho, frame, tg, [0])
                for j in range(frame.n) for k in range(frame.n)
                if j != k and not entries[j][k].is_zero()),
               default=0.0)
