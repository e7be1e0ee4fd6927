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
per piece. The points of one call are grouped by layout and each group
is solved as one stack with the point axis first (at most CHUNK_PANELS
(point, panel) pairs), every point keeping its own stop rule. Per point
a solve costs:

- one collocation solve per pair (j, k) and distinct panel width;
- A = A_0 + sum_k rho^-k A_k at the nodes from node values of the A_k;
  the nodes and those values depend on the layout alone, so they are
  computed once per layout group of a call and shared by all its stacks;
- per kernel application, the panels' local integrals I_p plus carries.
  For a pair integrated from x = 0 the carry at panel start e_p is
      C_p = sum_{q < p} exp(mu (e_p - e_{q+1})) I_q(e_{q+1}),
  the linear recurrence C_{p+1} = exp(mu h_p) C_p + I_p(e_{p+1}); a
  pair integrated from x = 1 runs the mirrored recurrence. Every factor
  exp(mu h_p) is an in-sector non-positive exponent, and the recurrence
  is evaluated as a log-depth scan over the panels.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import IntegrationError, NonContractionError, ValidationError
from .piecewise import _shift_coeffs, merge_breakpoints
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
# fewest panels per unit length of a layout
MIN_PANELS = 4
# most panels of a layout; a larger |rho| is refused before any array is
# built (the largest benchmark layouts hold about 60)
MAX_PANELS = 10_000
# (point, panel) pairs of one stacked solve
CHUNK_PANELS = 64
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
    """Panels per coefficient piece at each |rho| of rho_abs (m,), as an
    (m, pieces) array whose rows name the layouts: the largest kernel
    exponent per panel stays below the target, and a piece of width h
    takes at least ceil(MIN_PANELS h) panels. IntegrationError names the
    first |rho| whose layout takes more than MAX_PANELS panels."""
    width_cap = TARGET_EXPONENT / np.maximum(rho_abs * span, 1e-9)
    widths = np.diff(np.asarray(breakpoints, dtype=float))
    counts = np.maximum(np.ceil(MIN_PANELS * widths),
                        np.ceil(widths / width_cap[:, None]))
    total = counts.sum(axis=1)
    refused = ~(total <= MAX_PANELS)
    if refused.any():
        i = np.argmax(refused)
        raise IntegrationError(
            f"|rho| = {rho_abs[i]:.3g} is too large: the factored solve would "
            f"need {total[i]:.3g} panels, more than {MAX_PANELS}")
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

    @property
    def z_at_zero(self):
        """z(0), a copy: fss_ends holds the ends of a call's finished
        points until its last finishes, and a view would keep all of z."""
        return self.z[:, :, 0, 0].copy()

    @property
    def z_at_one(self):
        """z(1), a copy (see z_at_zero)."""
        return self.z[:, :, -1, -1].copy()

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


def _node_Ak(system, xs):
    """A_k at the panel nodes xs, as an array of shape (k, j, l) + xs.shape.

    Every node of a panel is read from the coefficient piece holding the
    panel midpoint, so a panel that ends on a jump takes the left limit
    at its last node, not the next piece's value.
    """
    mids = 0.5 * (xs[:, :1] + xs[:, -1:])
    # a view of the piece table's contiguous (k, j, l) + xs.shape output
    return np.moveaxis(system.evaluate_Ak(xs, at=mids), (-2, -1), (1, 2))


class _KernelBank:
    """Per-(j,k) panelized kernel solvers for integral from b_jk to x, for
    a stack of points that share one panel layout.

    Every array has the point axis first; the collocation solves and
    their kernel factors are per point, the nodes xs per layout. Panel
    axes run in x for the local work; the carries run in scan order,
    which is reversed for the pairs integrated from x = 1.
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

    def take(self, points):
        """The bank of the given points of the stack only."""
        sub = copy.copy(self)
        sub.psi, sub.prop = self.psi[points], self.prop[points]
        sub.levels = [(d, a[points]) for d, a in self.levels]
        return sub

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
    """z = I + V z at one point (V of shape (1, n, n, P, q+1)) by GMRES;
    NonContractionError when it fails."""
    ident = np.broadcast_to(np.eye(V.shape[1], dtype=complex)[:, :, None, None],
                            V.shape).ravel()

    def matvec(v):
        z = v.reshape(V.shape)
        return (z - bank.apply(V, z)).ravel()

    op = LinearOperator((ident.size, ident.size), matvec=matvec, dtype=complex)
    sol, info = gmres(op, ident, rtol=TOL, atol=0.0, restart=60,
                      maxiter=40)
    if info != 0:
        raise NonContractionError(
            f"GMRES fallback failed (info={info}) at |rho|={abs(rho):.3g}; "
            "increase |rho|")
    return sol.reshape(V.shape[1:])


def _solve_stack(system, rho, counts, shared):
    """Factored solves at the points rho (m,) of the layout counts, shared
    holding the layout's _panel_nodes and their _node_Ak, stacked on a
    leading point axis: yields (i, solution) as point i finishes, and a
    finished point leaves the stack. Each point
    stops the fixed-point iteration z <- I + V z at relative change TOL;
    once its contraction stalls or MAX_ITER runs out, GMRES solves it."""
    n = system.n
    nodes, Ak = shared
    bank = _KernelBank(system.frame, rho, counts, nodes)
    # one vector-matrix product per point, the arithmetic of a lone solve
    V = (rho[:, None, None] ** -np.arange(n) @ Ak.reshape(n, -1)).reshape(
        (len(rho),) + Ak.shape[1:])                       # (m, j, l, P, q+1)
    diag = np.arange(n)
    z = np.zeros(V.shape, dtype=complex)
    z[:, diag, diag] = 1.0
    live, prev = np.arange(len(rho)), np.full(len(rho), np.inf)
    for it in range(1, MAX_ITER + 1):
        znew = bank.apply(V, z)
        znew[:, diag, diag] += 1.0
        delta = np.max(np.abs(znew - z), axis=(1, 2, 3, 4))
        z = znew
        done = delta < TOL * np.fmax(1.0, np.max(np.abs(z), axis=(1, 2, 3, 4)))
        ratio = np.where(np.isfinite(prev) & (prev > 0), delta / prev, 0.0)
        prev = delta
        # stalled or out of iterations
        stalled = ~done & ((it >= 6) & (ratio >= 0.97) | (it == MAX_ITER))
        for i in np.flatnonzero(done | stalled):
            r = rho[live[i]]
            yield live[i], BirkhoffSolution(
                rho=complex(r), system=system, xs=bank.xs, A=V[i],
                z=z[i] if done[i] else _gmres(bank.take([i]), V[i:i + 1], r),
                iterations=it if done[i] else MAX_ITER, used_gmres=not done[i])
        rest = ~(done | stalled)
        if not rest.any():
            return
        if not rest.all():
            live, z, V, prev = live[rest], z[rest], V[rest], prev[rest]
            bank = bank.take(rest)


def _factored_solves(system, rho, pick):
    """[pick(solution)] of the factored solve at each point of rho (m,).
    Points are grouped by panel layout, each keeping its own, and a group
    is solved in stacks of at most CHUNK_PANELS (point, panel) pairs."""
    if np.any(rho == 0):
        raise ValidationError("rho", "rho must be nonzero")
    om = system.frame.omegas
    span = np.max(np.abs(om[:, None] - om))
    breakpoints = system.breakpoints()
    out = [None] * len(rho)
    # rho near the float limits overflows to inf or nan; the solve then
    # fails with its typed error, not with numpy warnings
    with np.errstate(all="ignore"):
        layouts, group = np.unique(_panel_layout(breakpoints, np.abs(rho), span),
                                   axis=0, return_inverse=True)
        for g, counts in enumerate(layouts):
            points = np.flatnonzero(group.ravel() == g)
            size = max(1, CHUNK_PANELS // counts.sum())
            nodes = _panel_nodes(breakpoints, counts)
            shared = (nodes, _node_Ak(system, nodes[0]))
            for s in range(0, len(points), size):
                chunk = points[s:s + size]
                for i, sol in _solve_stack(system, rho[chunk], counts, shared):
                    out[chunk[i]] = pick(sol)
    return out


def birkhoff_fss(system: ConjugatedSystem, rho) -> BirkhoffSolution:
    """Solve the factored fundamental-system equations at one rho: the
    stacked solve of one point (NonContractionError when the fixed-point
    iteration and GMRES both fail)."""
    return _factored_solves(system, np.array([complex(rho)]), lambda sol: sol)[0]


def fss_ends(system: ConjugatedSystem, rho):
    """[(z(0), z(1))] of the factored solve at each point of rho (m,),
    bit for bit those of birkhoff_fss, from one stacked solve per panel
    layout (and per CHUNK_PANELS pairs)."""
    return _factored_solves(system, np.asarray(rho, dtype=complex),
                            lambda sol: (sol.z_at_zero, sol.z_at_one))


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
