"""Characteristic determinants, eigenvalue location, weight numbers.

The characteristic function Delta(lambda) = det[U_s(C_k)] is evaluated
on two routes. For moderate |rho| the fundamental matrix is integrated
directly and the determinant formed as written. Beyond a cancellation
budget (the plain determinant loses eps * exp(spread * |rho|) of
relative accuracy) the normalized determinant d_norm takes over, in
which no exponential with a positive real part is ever taken. It has
one formula, the compound-matrix method: the (n - r)-th compound of the
x = 1 rows is carried to x = 0 across the pieces of [0, 1] and met by
the x = 0 rows in a Laplace sum. Both routes step with one kernel
(solutions._transfer). The carry steps the additive compound of the
conjugated system: a constant piece in one midpoint step, exactly the
exponential of the compound matrix, a non-constant one in sixth-order
Magnus steps of the compound system, their number set by |rho| and by
the piece's width and coefficient scale. Zero coefficients take the
same routes: a zero piece is a constant one. Both routes share the same
zeros, and on each the bullet determinant carries the plain one's
normalization, so weight numbers read the same ratio Delta_bullet /
Delta off either route; a bullet call gives both side by side, from one
solve per point. The evaluator keeps no values.

Eigenvalue numbering follows the zero-count anchoring: the low-lying
zeros are counted by the argument principle on a circle whose radius
sits midway between model rings, the model offset chi is shifted by an
integer so the counts line up, and every further index gets its own
strip box centered on the calibrated prediction. Every counted contour,
circle or box, is one _zeros_inside work: its zeros come from the
contour moments of the values its count made, and one loop numbers them
in order, each zero taking as many indices as its multiplicity. Where F
has a non-constant piece, a contour is counted and seeded on a surrogate
of F, a step rule of a few midpoint steps a non-constant piece (F held
at its midpoint values), certified against a coarser one (Rouche), and
Newton polishes on F; if that pass fails, it is counted on F. Works
are generators of point requests run in lockstep: each round, the
points all of them ask of one evaluator function go to it in one call,
which computes each distinct point once.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property
from itertools import combinations, product

import numpy as np

from .asymptotics import ROUNDOFF_RTOL, AsymptoticModel, asymptotic_model
from .birkhoff import birkhoff_fss  # noqa: F401 (bench/tracer.py)
from .errors import (
    ConfigurationError,
    ContourError,
    IntegrationError,
    RootSearchError,
    ValidationError,
)
from .regularization import (
    AssociatedMatrix,
    ExpressionSpec,
    build_associated_matrix,
    conjugate_system,
)
from .solutions import (
    MAX_STEPS,
    _fundamental,
    _transfer,
    integrate_fundamental,
)
from .solutions import closed_form_zero_coeff  # noqa: F401 (bench/tracer.py)

__all__ = [
    "BoundaryForm",
    "BoundarySpec",
    "ProblemSpec",
    "SpectralDatum",
    "SpectrumResult",
    "boundary_form",
    "count_zeros",
    "disk_contour",
    "rect_contour",
    "locate_eigenvalues",
    "weight_numbers",
]


# ---------------------------------------------------------------------------
# problem data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryForm:
    """One linear form y^[p](x0) + sum_j u_j y^[j-1](x0), x0 in {0, 1}.

    field names the u list in a validation error.
    """

    side: int  # 0 or 1
    p: int
    u: tuple = ()
    field: InitVar[str] = "boundary.u"

    def __post_init__(self, field):
        if self.side not in (0, 1):
            raise ValidationError("boundary.side", "endpoint must be 0 or 1")
        if len(self.u) > self.p:
            raise ValidationError(field, "more coefficients than the "
                                  "form order admits")
        object.__setattr__(self, "u", tuple(complex(v) for v in self.u))


@dataclass(frozen=True)
class BoundarySpec:
    """r forms at x = 0, n - r at x = 1, optional weight form at x = 0.

    A validation error names form s as boundary.left[s] (s < r) or
    boundary.right[s - r], as a config document lists them.
    """

    r: int
    forms: tuple
    weight: BoundaryForm | None = None

    def __post_init__(self):
        n, r = len(self.forms), self.r
        if not 1 <= r <= n - 1:
            raise ValidationError("boundary.r", f"need 1 <= r <= {n - 1}")
        for s, f in enumerate(self.forms):
            want = 0 if s < r else 1
            path = f"boundary.left[{s}]" if s < r else f"boundary.right[{s - r}]"
            if f.side != want:
                raise ValidationError(path, f"expected side {want}")
            if not 0 <= f.p <= n - 1:
                raise ValidationError(f"{path}.p", "out of range")
        left = [f.p for f in self.forms[:r]]
        for key, ps in (("left", left), ("right", [f.p for f in self.forms[r:]])):
            if len(set(ps)) != len(ps):
                raise ValidationError(f"boundary.{key}", "orders must be "
                                      "distinct within each side")
        if self.weight is not None:
            if self.weight.side != 0:
                raise ValidationError("weight_form", "weight form lives at x = 0")
            if not 0 <= self.weight.p <= n - 1:
                raise ValidationError("weight_form.p0", "out of range")
            if self.weight.p in left:
                raise ValidationError("weight_form.p0",
                                      "p0 must differ from the left-end orders")

    @property
    def n(self):
        return len(self.forms)

    @property
    def p_list(self):
        return tuple(f.p for f in self.forms)


@dataclass(frozen=True)
class ProblemSpec:
    """A boundary value problem: expression (or raw matrix) + forms."""

    boundary: BoundarySpec
    expression: ExpressionSpec | None = None
    matrix: AssociatedMatrix | None = None

    def __post_init__(self):
        if (self.expression is None) == (self.matrix is None):
            raise ValidationError(
                "operator", "exactly one of expression / raw matrix required")
        n = self.expression.n if self.expression is not None else self.matrix.n
        if n != self.boundary.n:
            raise ValidationError("boundary", "form count must equal the order")
        if self.matrix is not None:
            self.matrix.validate()

    @property
    def n(self):
        return self.boundary.n

    @cached_property
    def F(self):
        """The associated matrix, built once per problem."""
        return (self.matrix if self.matrix is not None
                else build_associated_matrix(self.expression))


@dataclass(frozen=True)
class SpectralDatum:
    """One located eigenvalue with its normalized root and remainder."""

    l: int
    lam: complex
    rho: complex
    eps: complex
    multiplicity: int = 1
    beta: complex | None = None


# largest |rho| * spread the plain determinant's exponentials may reach
EXPONENT_BUDGET = 18.0
# most indices the low-disk sweep covers before strip boxes take over
LOW_INDEX_COUNT = 4
# strip box half-height, in units of the model spacing
BOX_HALF_HEIGHT_FACTOR = 0.4
# segments per side of a strip box contour
CONTOUR_POINTS = 6
# two located rho closer than this share of max(1, |rho|) are one zero
# found twice
DEDUPE_TOL = 1e-6
# singular values of the disk moments' Hankel matrix below this share of
# the largest are noise; the others count the distinct zeros
PENCIL_RANK_RTOL = 1e-8
# largest distance of a winding number or a multiplicity from an integer
INTEGER_ATOL = 1e-3
# a contour value below this share of the contour median is a zero contact
ZERO_CONTACT_RTOL = 5e-13
# most points a winding contour may be refined to
MAX_CONTOUR_POINTS = 20000
# 3% dilations _counted tries after a zero contact
CONTOUR_RETRIES = 3
# agreement between successive Cauchy derivative estimates
DERIVATIVE_RTOL = 1e-9
# first node count of the Cauchy derivative circle (doubled up to 5 times)
DERIVATIVE_START_NODES = 16
# Magnus steps of the carry per unit width of a non-constant piece and per
# unit of s^(1/6) sqrt|rho|, s the piece's table scale: while |rho| h <= 1,
# d_norm's error goes as s |rho|^3 h^6 for steps of width h (measured on
# lowdisk-poly3 with its coefficient scaled up to 1000-fold and cut into
# up to 16 pieces), which this holds below 1e-11 (20 doubles the steps of
# some lowdisk-poly3 points, and its peak memory, for no better root)
CARRY_STEPS_PER_ROOT = 19
# points of the lambda-circle each weight number is read from
RESIDUE_POINTS = 32
# agreement a weight number's ratio and contour residue must reach
BETA_CROSS_CHECK_RTOL = 1e-8
# sub-pieces per non-constant piece of F in the surrogate that counts and
# seeds (the certificate compares it with half as many)
SURROGATE_PIECES = 8
# most Newton steps of one root refinement
NEWTON_MAX_ITER = 50
# Newton stops once a step is below this share of max(1, |z|). That is
# the noise level of the determinants: a smaller value makes Newton fail
# to converge (1e-14 does at l <= 14 on the seed-1 strip-n4 benchmark
# config); a larger one gives up accuracy (1e-6 moves those rho by up to
# 9.5e-12 relative).
NEWTON_RTOL = 1e-12


# ---------------------------------------------------------------------------
# boundary forms and direct determinants
# ---------------------------------------------------------------------------

def _unfused_product(a, b):
    """a * b per entry of a, flat, rounded as unfused scalar complex
    arithmetic rounds it: numpy's fused kernels may land an ulp apart."""
    return np.array([complex(x) * b for x in np.ravel(a)], dtype=complex)


def _first_occurrences(z):
    """(distinct, where): the distinct entries of the flat array z in
    the order they are first met, and the index in distinct of each."""
    first = {}
    where = [first.setdefault(complex(w), len(first)) for w in z]
    return np.array(list(first), dtype=complex), np.array(where, dtype=int)


def boundary_form(form: BoundaryForm, values):
    """Apply one form to quasi-derivatives at its endpoint: a column
    gives a number, a matrix (one column per solution) a row."""
    values = np.asarray(values)
    val = values[form.p]
    for j, uj in enumerate(form.u, start=1):
        if uj != 0:
            val = val + uj * values[j - 1]
    return complex(val) if val.ndim == 0 else val


def _carry_steps(rho_abs, scale, width):
    """The carry's Magnus steps on a non-constant piece of table scale
    `scale` and width `width` at |rho| = rho_abs (broadcast together): the
    least power of two at least 1 and at least width times each of |rho|,
    the scale and CARRY_STEPS_PER_ROOT scale^(1/6) sqrt|rho|. A function of
    the point's own |rho| and the problem, so that a batch's values are
    those of its points."""
    rate = np.fmax(np.fmax(rho_abs, scale),
                   CARRY_STEPS_PER_ROOT * scale ** (1 / 6) * np.sqrt(rho_abs))
    return 2.0 ** np.fmax(0.0, np.ceil(np.log2(width * rate)))


class DeterminantEvaluator:
    """All determinant routes for one problem in one sector frame."""

    # midpoint steps a non-constant piece (a counting surrogate), or None
    # for F's own Magnus steps (_step_counts, _carry_steps)
    pieces = None

    def __init__(self, problem: ProblemSpec, model: AsymptoticModel):
        self.problem = problem
        self.model = model
        self.F = problem.F
        self.n = problem.n
        re_dir = np.real(model.e_dir * model.frame.omegas)
        self.eta = float(np.max(re_dir) - np.min(re_dir))
        self.direct_limit = (np.inf if self.eta < 1e-12
                             else EXPONENT_BUDGET / self.eta)

    # -- direct route -----------------------------------------------------

    def _boundary_rows(self, ends, bullet, rho=None):
        """The rows U_f applied to ends[f.side], per matrix of the (m, n, n)
        stacks, as (m, k, n, n) row sets: k = 1, the plain rows, or with
        bullet k = 2, the plain rows and the bullet rows, which put the
        weight form in place of row r - 1. With rho (m,) given, each row is
        scaled by rho^(-p) for the order p of the plain row it stands for."""
        b = self.problem.boundary
        forms, ps = list(b.forms), list(b.p_list)
        sets = [list(range(self.n))]
        if bullet:
            if b.weight is None:
                raise ConfigurationError("weight form required for the "
                                         "bullet determinant")
            forms.append(b.weight)
            ps.append(ps[b.r - 1])
            sets.append([self.n] + sets[0][:b.r - 1] + sets[0][b.r:])
        sides = [np.moveaxis(end, -2, 0) for end in ends]
        M = np.stack([boundary_form(f, sides[f.side]) for f in forms], axis=-2)
        if rho is not None:
            M *= rho[:, None, None] ** -np.array(ps)[:, None]
        return M[:, sets]

    def delta(self, lam, bullet=False):
        """det[U_s(C_k)] at an array of lambda, in its shape, or with bullet
        the plain and the bullet determinant side by side (a last axis of
        2). Rows at x = 0 come from C(0) = I exactly, C(1) of the distinct
        lambdas from one integrate_fundamental call (a surrogate's from its
        midpoint steps); one stacked det."""
        lam_u, where = _first_occurrences(np.ravel(lam))
        table = self.F.table
        C1 = (_fundamental(table, lam_u, table.breakpoints, self.pieces)[:, -1]
              if self.pieces else integrate_fundamental(self.F, lam_u).at_one)
        M = self._boundary_rows((np.broadcast_to(np.eye(self.n), C1.shape), C1),
                                bullet)
        # overflow to inf or nan is reported by _contour_values' finiteness
        # checks as a typed failure, not as a numpy warning
        with np.errstate(invalid="ignore", over="ignore"):
            return np.linalg.det(M)[where].reshape(
                np.shape(lam) + (2,) * bullet)

    # -- carry route -------------------------------------------------------

    @cached_property
    def system(self):
        """The conjugated system the carry steps, built on first use."""
        return conjugate_system(self.F, self.model.frame)

    @cached_property
    def _laplace(self):
        """The column subsets S of size n - r, their complements and the
        Laplace signs (-1)^(sum of the x = 1 rows + sum S), both counted
        from 0."""
        n, r = self.n, self.model.r
        subsets = np.array(list(combinations(range(n), n - r)))
        comps = np.array([[j for j in range(n) if j not in S]
                          for S in subsets])
        signs = (-1.0) ** (subsets.sum(axis=1) + (n - r) * (n + r - 1) // 2)
        return subsets, comps, signs

    @cached_property
    def _compound(self):
        """The (n, n, S, S) coefficients, 0 or +-1, of the additive compound
        over the subsets S of _laplace: M^[n-r] = sum_ij M_ij G[i, j], so
        that exp(h M^[n-r])[S, T] = det exp(h M)[S, T]."""
        subsets = [tuple(S) for S in self._laplace[0]]
        G = np.zeros((self.n, self.n) + (len(subsets),) * 2)
        for (s, S), (t, T) in product(enumerate(subsets), repeat=2):
            for (a, i), (b, j) in product(enumerate(S), enumerate(T)):
                if S[:a] + S[a + 1:] == T[:b] + T[b + 1:]:
                    G[i, j, s, t] = (-1) ** (a + b)
        return G

    def _segments(self, rho):
        """The carry's transfer matrices (m, P, S, S) at the points rho (m,):
        E_p = det P[S, T] exp(-h_p rho omega*) for the solution operator P
        of w' = (rho B + A) w across piece p, from solutions._transfer on
        the nodes M^[n-r] - rho omega* (the additive compound, a Lie algebra
        homomorphism): one midpoint step on each constant piece, all in one
        call, and _carry_steps Gauss steps (a surrogate's `pieces` midpoint
        steps) on another, one call per group of equal steps. Before any
        step, IntegrationError names the first rho past MAX_STEPS, else the
        first at which rho B or a rho^-k is not finite. Runs under d_norm's
        errstate."""
        n, om = self.n, self.model.frame.omegas
        table = self.system.table
        bp, const = table.breakpoints, table.constant
        h = np.diff(bp)
        K = (np.full((len(rho), len(h)), self.pieces) if self.pieces else
             _carry_steps(np.abs(rho)[:, None], table.scale, h))
        over = np.sum(np.where(const, 1, K), axis=1) > MAX_STEPS
        if over.any():
            raise IntegrationError(
                f"|rho| = {abs(rho[np.argmax(over)]):.3g} is too large: "
                f"the carry would take more than {MAX_STEPS} steps")
        pows, rho_om = rho[:, None] ** -np.arange(n), rho[:, None] * om
        finite = np.all(np.isfinite(pows) & np.isfinite(rho_om), axis=1)
        if not finite.all():
            raise IntegrationError("rho B + A is not finite at rho = "
                                   f"{rho[np.argmin(finite)]:.6g}")
        wstar = _unfused_product(rho, np.sum(om[self.model.r:]))
        G = self._compound
        eye = np.eye(G.shape[-1])

        def lift(Ak, b):
            M = (np.tensordot(pows[b], Ak, axes=1)
                 + rho_om[b, None, None, None, :] * np.eye(n))
            X = np.tensordot(M, G, axes=2)
            X -= wstar[b, None, None, None, None] * eye
            return X

        read = self.system.evaluate_Ak
        E = np.empty((len(rho), len(h)) + eye.shape, dtype=complex)
        if const.any():
            E[:, const] = _transfer(read, lift, np.arange(len(rho)),
                                    bp[:-1][const], h[const], 1, True)
        for p in np.flatnonzero(~const):
            for k in np.unique(K[:, p]):
                i = np.flatnonzero(K[:, p] == k)
                E[i, p] = _transfer(read, lift, i, bp[p:p + 1], h[p:p + 1],
                                    int(k), bool(self.pieces))[:, 0]
        return E

    def _carry(self, rho, right):
        """The compounds q_S = det right[:, :, S] of the x = 1 rows
        (m, n - r, n), carried to x = 0 across the pieces of
        _segments(rho), the last first, q <- q E_p; E_p holds
        exp(-h_p rho omega*), so no exponent has a real part above O(h).
        Runs under d_norm's errstate."""
        q = np.linalg.det(np.moveaxis(right[..., self._laplace[0]], -2,
                                      -3))[:, None]
        E = self._segments(rho)
        for p in reversed(range(E.shape[1])):
            q = q @ E[:, p]
        return q[:, 0]

    def d_norm(self, rho_check, bullet=False):
        """Normalized determinant in the strip variable at each rho_check
        of an array, in its shape: Delta det V rho^(-P) exp(-rho omega*);
        with bullet the plain and the bullet value side by side (a last
        axis of 2).

        Here rho = rho_check * e_dir, V[j, k] = (rho omega_k)^j, P is the
        sum of the plain rows' orders (for the bullet rows too, so that
        the ratio of the two d_norm is Delta_bullet / Delta) and omega*
        the sum of the top n - r ordered roots. Each row is scaled by
        rho^(-p) and acts on V w(x) for the solutions w of
        w' = (rho B + A) w with w(0) = I. The x = 1 rows' compound is
        carried to x = 0 (_carry, one call) and met by the x = 0 rows in a
        Laplace sum over the column
        subsets S: sum_S sign_S det(L[:, S^c]) q_S. The bullet rows differ
        from the plain ones at x = 0 only, so both sums take that q. Each
        distinct rho is computed once (two strip boxes' shared edge can be
        an ulp apart in rho_check, not in rho).
        """
        model, shape = self.model, np.shape(rho_check)
        rho, where = _first_occurrences(
            _unfused_product(rho_check, model.e_dir))
        r, om = model.r, model.frame.omegas
        _, comps, signs = self._laplace
        # no numpy warnings: _segments fails typed on a non-finite system,
        # and _contour_values reports a non-finite value
        with np.errstate(all="ignore"):
            V = (rho[:, None, None] * om) ** np.arange(self.n)[:, None]
            rows = self._boundary_rows((V, V), bullet, rho)
            del V   # not held through the carry's solves and minors
            q = self._carry(rho, rows[:, 0, r:])
            left = np.linalg.det(np.moveaxis(rows[..., :r, :][..., comps],
                                             -2, -3))
            return np.sum(signs * left * q[:, None], axis=-1)[where].reshape(
                shape + (2,) * bullet)

    # -- region dispatch ---------------------------------------------------

    def is_direct(self, outer_radius):
        """The route rule: a contour takes the plain determinant if and
        only if its largest |rho|, outer_radius, is within the budget."""
        return outer_radius <= self.direct_limit

    def box_function(self, outer_radius):
        """Evaluator f(points) -> values in rho_check for one box/contour,
        on one route by the route rule (mixing them mid-contour would fake
        a discontinuity): the plain determinant within direct_limit, d_norm
        beyond it."""
        if self.is_direct(outer_radius):
            return self._delta_in_rho
        return self.d_norm

    def lambda_function(self, outer_radius):
        """Evaluator f(lams, bullet=False) -> values in lambda (with bullet,
        plain and bullet side by side) for one weight circle whose largest
        |rho| is outer_radius (its far side): the plain determinant when
        the route rule says so, d_norm at the canonical root otherwise."""
        if self.is_direct(outer_radius):
            return self.delta
        return self._d_norm_in_lambda

    # every box, or circle, of one route gets the same function, so that
    # _lockstep merges their points into one call per round

    def _delta_in_rho(self, rho_check):
        return self.delta(self.model.sign * np.asarray(rho_check) ** self.n)

    def _d_norm_in_lambda(self, lam, bullet=False):
        return self.d_norm(self.model.rho_of_lambda(lam), bullet=bullet)


class _Surrogate(DeterminantEvaluator):
    """The determinants of F on a counting surrogate's step rule, by the
    same model, route rule and kernel: `pieces` midpoint steps on each
    non-constant piece, which hold F at its midpoint values (Pruess, SIAM
    J. Numer. Anal. 10, 1973). A call that raises IntegrationError gives
    NaN at all its points: its contours fall back to F."""

    def __init__(self, problem, model, pieces):
        super().__init__(problem, model)
        self.pieces = pieces

    def delta(self, lam):
        return self._or_nan(super().delta, lam)

    def d_norm(self, rho_check):
        return self._or_nan(super().d_norm, rho_check)

    @staticmethod
    def _or_nan(evaluate, z):
        try:
            return evaluate(z)
        except IntegrationError:
            return np.full(np.shape(z), np.nan, dtype=complex)


def _surrogates(problem, model):
    """The counting evaluators (g, g_half), SURROGATE_PIECES and half as
    many midpoint steps a non-constant piece; none where every piece of F
    is constant."""
    return () if problem.F.table.constant.all() else tuple(
        _Surrogate(problem, model, k)
        for k in (SURROGATE_PIECES, SURROGATE_PIECES // 2))


# ---------------------------------------------------------------------------
# contours, winding numbers, derivatives
# ---------------------------------------------------------------------------

def disk_contour(center, radius, m=64):
    """m points on a circle, closed by its first point exactly."""
    pts = center + radius * np.exp(1j * np.linspace(0.0, 2 * np.pi, m + 1))
    pts[-1] = pts[0]
    return pts


def rect_contour(x0, x1, y0, y1, m=16):
    xs = np.linspace(x0, x1, m + 1)
    ys = np.linspace(y0, y1, m + 1)
    pts = np.concatenate([
        xs + 1j * y0,
        x1 + 1j * ys[1:],
        xs[::-1][1:] + 1j * y1,
        x0 + 1j * ys[::-1][1:],
    ])
    return pts


def _lockstep(works):
    """Run works side by side; the return value of each, or the
    ContourError or RootSearchError it raised, in order.

    A work is a generator that yields (f, points) or (f, points, True)
    and is sent f's values at those points (f(points, bullet=True) for
    the latter) until it returns. Each round, every distinct request
    function takes the points of all the works asking for it in one
    call, so the calls made grow with the rounds, not with the works.
    An error raised by such a call ends the run.
    """
    out = [None] * len(works)
    asks = {}

    def advance(i, vals):
        try:
            asks[i] = works[i].send(vals)
        except StopIteration as stop:
            out[i] = stop.value
        except (ContourError, RootSearchError) as exc:
            out[i] = exc

    for i in range(len(works)):
        advance(i, None)
    while asks:
        groups, asked, asks = {}, asks, {}
        for i, (f, _, *bullet) in asked.items():
            groups.setdefault((f, *bullet), []).append(i)
        for (f, *bullet), ids in groups.items():
            pts = [np.asarray(asked[i][1]) for i in ids]
            vals = np.asarray(f(np.concatenate(pts), **(
                {"bullet": True} if bullet else {})))
            ends = np.cumsum([len(p) for p in pts])
            for i, v in zip(ids, np.split(vals, ends[:-1])):
                advance(i, v)
    return out


def _run(work):
    """The return value of one work (see _lockstep), or its error raised."""
    out, = _lockstep([work])
    if isinstance(out, Exception):
        raise out
    return out


def _contour_values(f, pts, check=None):
    """Work (see _lockstep) giving (values, phase steps) of f on the
    closed polyline pts: f at each point and the change of arg f from
    each point to the next.

    It asks f for all of pts, then once more each refinement round.
    Segments whose phase step exceeds 1 radian are refined by their
    midpoints and the step is summed over the refined pieces, so no step
    jumps a branch. A value tiny against the contour median trips
    ContourError (zero too close), and so does a value, or a ratio of
    neighbouring values, that is not finite. With check, the values stand
    only if 2048 |f - check| < |f| at every point used (else ContourError).
    """
    pts = np.asarray(pts, dtype=complex)
    given = np.ones(len(pts), dtype=bool)
    vals = np.asarray((yield f, pts), dtype=complex)
    scale = np.median(np.abs(vals))
    if scale == 0:
        raise ContourError("determinant vanishes on the contour")
    for _ in range(40):
        mags = np.abs(vals)
        if not np.all(np.isfinite(mags)):
            raise ContourError("determinant is not finite on the contour")
        if np.min(mags) < ZERO_CONTACT_RTOL * scale:
            raise ContourError("zero too close to the contour", contact=True)
        with np.errstate(invalid="ignore", over="ignore"):
            ratios = vals[1:] / vals[:-1]
        if not np.all(np.isfinite(ratios)):
            raise ContourError("determinant ratio is not finite on the contour")
        dphi = np.angle(ratios)
        bad = np.nonzero(np.abs(dphi) > 1.0)[0]
        if len(bad) == 0:
            # Rouche needs |F - f| < |f|, and |F - f| reached 1040 |f - check|
            # (README); a power of two makes the product exact
            if check is not None and not np.all(
                    2048 * np.abs(vals - (yield check, pts)) < mags):
                raise ContourError("surrogate count not certified")
            keep = np.nonzero(given)[0]
            phase = np.concatenate([[0.0], np.cumsum(dphi)])
            return vals[keep], np.diff(phase[keep])
        if len(pts) + len(bad) > MAX_CONTOUR_POINTS:
            raise ContourError("contour refinement budget exhausted",
                               contact=True)
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        pts = np.insert(pts, bad + 1, mids)
        given = np.insert(given, bad + 1, False)
        vals = np.insert(vals, bad + 1, (yield f, mids))
    raise ContourError("winding did not stabilize", contact=True)


def _counted(f, contour_pts, check=None):
    """Work (see _lockstep) of count_zeros and _zeros_inside: (count,
    contour, (values, phase steps) of f on that contour). With check, the
    count stands only if 2048 |f - check| < |f| at every point it used."""
    pts = np.asarray(contour_pts, dtype=complex)
    centroid = np.mean(pts[:-1])
    for attempt in range(CONTOUR_RETRIES + 1):
        try:
            values = yield from _contour_values(f, pts, check)
            w = float(np.sum(values[1])) / (2 * np.pi)
            if abs(w - round(w)) > INTEGER_ATOL:
                raise ContourError(f"winding {w:.6f} not integer-consistent",
                                   contact=True)
            return int(round(w)), pts, values
        except ContourError as exc:
            if not exc.contact or attempt == CONTOUR_RETRIES:
                raise
            pts = centroid + (pts - centroid) * 1.03


def count_zeros(f, contour_pts):
    """Argument-principle zero count of f, which maps an array of points
    to their values, inside a closed contour: (count, contour counted on).

    On contact with a zero the contour is dilated about its centroid by
    3 percent and retried; other contour failures are raised at once.
    """
    return _run(_counted(f, contour_pts))[:2]


def delta_derivative(f, lam0, radius):
    """d f / d lambda at lam0 via the Cauchy integral on a circle.

    Trapezoidal quadrature on the circle is spectrally accurate for the
    analytic integrand; node counts double until two answers agree.
    """
    prev = None
    m = DERIVATIVE_START_NODES
    for _ in range(6):
        th = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
        w = lam0 + radius * np.exp(1j * th)
        vals = np.asarray(f(w))
        est = np.mean(vals * np.exp(-1j * th)) / radius
        if prev is not None and abs(est - prev) <= DERIVATIVE_RTOL * max(1.0, abs(est)):
            return complex(est)
        prev = est
        m *= 2
    raise ContourError(
        "Cauchy derivative did not converge; radius may cross a "
        "non-analytic point or another zero")


def _newton(f, z0, g=None):
    """Work (see _lockstep) polishing a zero of f from z0 by Newton steps,
    the slope a central difference of g (f itself by default): per step,
    one request of (z, z + h, z - h) of f, or with g one of z of f and one
    of (z + h, z - h) of g; none after the last step, the first below
    NEWTON_RTOL of max(1, |z|)."""
    z = complex(z0)
    for _ in range(NEWTON_MAX_ITER):
        h = 1e-7 * max(1.0, abs(z))
        if g is None:
            fz, fp, fm = map(complex, (yield f, np.array([z, z + h, z - h])))
        else:
            fz = complex((yield f, np.array([z]))[0])
            fp, fm = map(complex, (yield g, np.array([z + h, z - h])))
        der = (fp - fm) / (2 * h)
        if der == 0 or not np.isfinite(der):
            raise RootSearchError(f"flat or non-finite derivative near {z}")
        step = fz / der
        z = z - step
        if abs(step) <= NEWTON_RTOL * max(1.0, abs(z)):
            return z
    raise RootSearchError(f"Newton failed to converge near {z0}")


# ---------------------------------------------------------------------------
# eigenvalue location
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumResult:
    data: tuple
    model: AsymptoticModel
    chi_cal: complex
    n_low: int
    # the located problem, from which weight_numbers builds its evaluator
    problem: ProblemSpec = field(compare=False, repr=False)


def _zeros_inside(f, pts, counters=()):
    """Work (see _lockstep) giving the zeros of f inside the closed
    polyline pts, counted (_counted) and located (_contour_zeros). With
    counters = (g, g_half), g counts, certified by g_half, and seeds, and
    f only polishes; if that pass fails, pts is counted on f."""
    if counters:
        g, g_half = counters
        try:
            cnt, cpts, values = yield from _counted(g, pts, g_half)
            return (yield from _contour_zeros(f, cpts, cnt, values, g))
        except (ContourError, RootSearchError):
            pass
    cnt, pts, values = yield from _counted(f, pts)
    return (yield from _contour_zeros(f, pts, cnt, values))


def _strip_box_zeros(ev, model, l, chi_cal, hy, surrogates=()):
    """Work (see _lockstep) counting the first strip box about index l's
    prediction that holds a zero, and locating its zeros from the
    count's contour values: a list of (rho, multiplicity) sorted by real
    part, counted on surrogates first if given (_zeros_inside). A failure
    is raised as RootSearchError naming index l."""
    growth = model.growth
    pred = growth * (l + chi_cal)
    cx, cy = pred.real, pred.imag
    half = 0.5 * growth
    outer = abs(pred) + half + hy * 4
    fstrip, *counters = (e.box_function(outer) for e in (ev, *surrogates))
    for attempt in range(3):
        pts = rect_contour(cx - half, cx + half, cy - hy * (2 ** attempt),
                           cy + hy * (2 ** attempt), m=CONTOUR_POINTS)
        try:
            found = yield from _zeros_inside(fstrip, pts, counters)
        except (ContourError, RootSearchError) as exc:
            raise RootSearchError(f"index {l}: {exc}") from exc
        if found:
            return sorted(found, key=lambda t: t[0].real)
    raise RootSearchError(
        f"index {l}: no zero found near prediction {pred:.6g}")


def _same_root(z, w):
    """Whether z and w are one zero found twice."""
    return abs(z - w) <= DEDUPE_TOL * max(1.0, abs(w))


def _contour_zeros(f, pts, expected, values, surrogate=None):
    """Work (see _lockstep) giving all zeros of f inside the closed
    polyline pts, a contour _counted verified with count `expected` =
    N, as a list of (root, multiplicity). With `surrogate`, which counted
    in f's place, the moments and slopes are its own, f only polishes
    (_newton) and a multiple zero, which is not polished, is refused.

    The values are the count's own: `values`, its (values, phase steps),
    with each phase step summed over the count's refinement so no step
    jumps a branch. The nodes are the points of pts alone: where
    refinement changes the step, the trapezoid rule's h^2 error terms
    stop cancelling. With w = (z - c) / R (c the centroid of pts, R the
    largest |z - c|) the Delves-Lyness moments s_k = sum_i w_i^k are
    -(k / 2 pi i) oint w^(k-1) g dw, g = log f - N log w, by the
    trapezoid rule over the polyline (weights (w_(i+1) - w_(i-1)) / 2)
    divided by the same rule's value of (1 / 2 pi i) oint dw / w; on an
    equispaced circle that is the periodic trapezoid rule. The rank of
    H_0 = [s_(i+j)] counts the distinct zeros and the pencil (H_1, H_0)
    gives them. At rank N all are simple; below it a Vandermonde fit to
    s_0..s_(N-1) must give integer multiplicities. Simple zeros are
    polished by Newton, one after another. Every root must wind once
    inside pts and no two may meet; otherwise the zeros could not be
    separated.
    """
    if expected == 0:
        return []
    pts = np.asarray(pts, dtype=complex)
    vals, dphi = values
    c = np.mean(pts[:-1])
    R = np.max(np.abs(pts - c))
    w = (pts - c) / R
    # phase of f / w^N along the polyline, from its steps (the constant
    # start does not enter the moments)
    steps = dphi - expected * np.angle(w[1:] / w[:-1])
    arg = np.concatenate([[0.0], np.cumsum(steps[:-1])])
    w = w[:-1]
    g = np.log(np.abs(vals[:-1])) - expected * np.log(np.abs(w)) + 1j * arg
    dw = 0.5 * (np.roll(w, -1) - np.roll(w, 1))
    k = np.arange(1, 2 * expected)
    s = np.concatenate([[expected], -k * np.sum(w ** (k[:, None] - 1) * g * dw,
                                                axis=1) / np.sum(dw / w)])
    idx = np.add.outer(np.arange(expected), np.arange(expected))
    U, sig, Vh = np.linalg.svd(s[idx])
    rank = int(np.count_nonzero(sig > PENCIL_RANK_RTOL * sig[0]))
    U, Vh = U[:, :rank], Vh[:rank]
    pencil = (U.conj().T @ s[idx + 1] @ Vh.conj().T) / sig[:rank, None]
    roots = np.linalg.eigvals(pencil)
    # on a box the trapezoid rule is second order, too coarse for the fit
    # to show a pair of simple zeros as multiplicities 1 and 1; at full
    # rank the zeros are distinct, so simple: Newton polishes each, and
    # locate_eigenvalues refuses two roots that meet
    mult = np.ones(rank)
    if rank < expected:
        vander = roots[None, :] ** np.arange(expected)[:, None]
        mult = np.linalg.lstsq(vander, s[:expected], rcond=None)[0]
    mult_int = np.rint(mult.real).astype(int)
    if (np.max(np.abs(mult - mult_int)) > INTEGER_ATOL
            or np.any(mult_int < 1) or mult_int.sum() != expected):
        raise RootSearchError(
            f"contour moments give multiplicities {np.round(mult, 6)}, "
            f"count says {expected}")
    found = []
    for wr, mu in zip(roots, mult_int):
        root = c + R * complex(wr)
        if mu == 1:
            root = yield from _newton(f, root, surrogate)
        elif surrogate is not None:
            raise RootSearchError("a multiple zero is located on F itself")
        with np.errstate(invalid="ignore", divide="ignore"):
            turns = np.sum(np.angle((pts[1:] - root) / (pts[:-1] - root)))
        if (not abs(turns / (2 * np.pi) - 1) < 0.5
                or any(_same_root(root, r) for r, _ in found)):
            raise RootSearchError(f"the {expected} zeros inside the contour "
                                  "could not be separated (a multiple zero)")
        found.append((root, int(mu)))
    return found


def _low_rho(model, lam):
    """model.rho_of_lambda(lam), but the root at arg pi / n where sign lam
    is negative real up to a relative imaginary part of ROUNDOFF_RTOL."""
    z = model.sign * complex(lam)
    if z.real < 0 and abs(z.imag) <= ROUNDOFF_RTOL * -z.real:
        return (-z.real) ** (1.0 / model.n) * np.exp(1j * np.pi / model.n)
    return model.rho_of_lambda(lam) if z != 0 else 0.0


def locate_eigenvalues(problem: ProblemSpec, l_max, l_min=1,
                       kappa=None) -> SpectrumResult:
    """Eigenvalues with global numbering, indices l_min..l_max.

    Stage 1 counts every zero inside a circle whose radius sits midway
    between model rings (plain determinant); the count pins the integer
    part of chi. Stage 2 counts one strip box per further index up to
    l_max by winding. Each contour is one _zeros_inside work, its zeros
    from the contour moments of its count's values, on F's surrogates
    where they exist. All boxes run in lockstep (_lockstep), so each round
    of contour passes and Newton steps makes one call per evaluator
    function. One loop then numbers the zeros in order, each advancing
    the index by its multiplicity, and records the remainder against the
    calibrated model; a box's failure is raised only if the numbering
    reaches its index. kappa picks the model's sector (asymptotic_model).
    """
    model = asymptotic_model(problem.n, problem.boundary.r,
                             problem.boundary.p_list, kappa=kappa)
    ev = DeterminantEvaluator(problem, model)
    n = problem.n
    growth = model.growth
    chi_re = model.chi.real

    # stage 1: low-disk sweep (the direct determinant must hold its budget
    # on the full lambda-circle, where the worst spread is 2|rho|)
    L_A = max(1, min(LOW_INDEX_COUNT, l_max,
                     int(np.floor(EXPONENT_BUDGET / (2.0 * growth) - chi_re - 0.5))))
    T_A = growth * (L_A + chi_re + 0.5)
    lam_radius = T_A ** n

    disk = disk_contour(0.0, lam_radius, m=max(64, 16 * L_A))
    surrogates = _surrogates(problem, model)
    low = _run(_zeros_inside(ev.delta, disk, tuple(s.delta for s in surrogates)))
    n_low = sum(mult for _, mult in low)
    chi_cal = model.chi + (L_A - n_low)

    # stage 2: one strip box per remaining index on the calibrated
    # predictions; the low zeros take indices 1..n_low
    hy = BOX_HALF_HEIGHT_FACTOR * growth
    first = n_low + 1
    boxes = _lockstep([_strip_box_zeros(ev, model, l, chi_cal, hy, surrogates)
                       for l in range(first, l_max + 1)])
    # sorted by |lambda| then arg, with canonical normalized roots
    pending = [(lam, _low_rho(model, lam), mult)
               for lam, mult in sorted(low, key=lambda t: (abs(t[0]),
                                                           np.angle(t[0])))]
    data = []
    l = 1
    while pending or l <= l_max:
        if not pending:
            found = boxes[l - first]
            if isinstance(found, Exception):
                raise found
            pending = [(model.sign * rho ** n, rho, mult)
                       for rho, mult in found]
        lam, rho, mult = pending.pop(0)
        if any(_same_root(rho, d.rho) for d in data):
            raise RootSearchError(f"index {l}: duplicated root {rho:.9g}")
        eps = rho / growth - l - chi_cal
        data.append(SpectralDatum(l=l, lam=complex(lam), rho=complex(rho),
                                  eps=complex(eps), multiplicity=mult))
        l += mult

    data = [d for d in data if l_min <= d.l <= l_max]
    return SpectrumResult(data=tuple(data), model=model,
                          chi_cal=complex(chi_cal), n_low=n_low,
                          problem=problem)


# ---------------------------------------------------------------------------
# weight numbers
# ---------------------------------------------------------------------------

def weight_numbers(result: SpectrumResult) -> SpectrumResult:
    """Attach weight numbers beta_l to the located eigenvalues.

    beta_l is minus the residue of Delta_bullet/Delta at lambda_l. Each
    simple eigenvalue gets one lambda-circle of RESIDUE_POINTS points,
    sampled on one route of a DeterminantEvaluator built here for the
    result's problem and model, by the evaluator's route rule on the
    circle's far side (|lambda_l| + radius)^(1/n): the plain determinants
    while it is within direct_limit, d_norm at the canonical root beyond.
    Its radius is 0.3 of the lambda-distance to the nearest other located
    eigenvalue, at most a quarter spacing
    (0.25 growth |d lambda / d rho|) and at least 1e-8 max(1, |lambda_l|).
    The ratio Delta_bullet(lambda_l) / Delta'(lambda_l) and the contour
    residue, both from those values, must agree to BETA_CROSS_CHECK_RTOL.
    All circles run in lockstep (_lockstep): one evaluator call per route
    takes their points and gives the plain and the bullet rows' values.
    Multiple eigenvalues are skipped with their multiplicity left set.
    """
    if result.problem.boundary.weight is None:
        raise ConfigurationError("weight numbers need a weight form")
    ev = DeterminantEvaluator(result.problem, result.model)
    n, growth = ev.n, result.model.growth
    lams = np.array([d.lam for d in result.data], dtype=complex)
    simple = [i for i, d in enumerate(result.data) if d.multiplicity == 1]
    circles = []
    for i in simple:
        d = result.data[i]
        gap = np.min(np.abs(np.delete(lams, i) - d.lam), initial=np.inf)
        spacing = 0.25 * growth * abs(n * d.rho ** (n - 1))
        radius = max(min(0.3 * gap, spacing), 1e-8 * max(1.0, abs(d.lam)))
        far = (abs(d.lam) + radius) ** (1.0 / n)
        circles.append(_ratio_and_residue(ev.lambda_function(far), d.lam,
                                          radius))
    out = list(result.data)
    for i, (ratio, res) in zip(simple, _lockstep(circles)):
        if abs(res - ratio) > BETA_CROSS_CHECK_RTOL * max(abs(ratio), 1e-300):
            raise RootSearchError(
                f"index {out[i].l}: residue cross-check failed "
                f"({res:.9g} vs {ratio:.9g})")
        out[i] = replace(out[i], beta=-ratio)
    return replace(result, data=tuple(out))


def _ratio_and_residue(f, lam0, radius):
    """Work (see _lockstep) giving Delta_bullet(lam0) / Delta'(lam0) and
    the residue of Delta_bullet / Delta at lam0, from the plain and the
    bullet values f(., bullet=True) gives side by side on the
    m = RESIDUE_POINTS points lam0 + radius w_k, w_k = exp(2 pi i k / m),
    in one request: each point's solve serves both rows.

    By the trapezoid rule on the circle, Delta_bullet(lam0) is the mean
    of the bullet values, Delta'(lam0) the mean of the plain values over
    w_k, divided by radius, and the residue radius times the mean of
    w_k Delta_bullet / Delta.
    """
    w = np.exp(2j * np.pi * np.arange(RESIDUE_POINTS) / RESIDUE_POINTS)
    pts = lam0 + radius * w
    plain, bullet = np.transpose((yield f, pts, True))
    der = np.mean(plain / w) / radius
    ratio = np.mean(bullet) / der
    res = radius * np.mean(w * bullet / plain)
    return complex(ratio), complex(res)
