"""Characteristic determinants, eigenvalue location, weight numbers.

The characteristic function Delta(lambda) = det[U_s(C_k)] is evaluated
on two routes. For moderate |rho| the fundamental matrix is integrated
directly and the determinant formed as written. Beyond a cancellation
budget (the plain determinant loses eps * exp(spread * |rho|) of
relative accuracy) the factored route takes over: the boundary matrix is
assembled from the integral-equation solution z with every exponential
extracted analytically, and the determinant is expanded over column
subsets so all remaining exponentials have non-positive real part. Both
routes share the same zeros, and on both the bullet determinant carries
the plain one's normalization, so weight numbers read the same ratio
Delta_bullet / Delta off either route.

Eigenvalue numbering follows the zero-count anchoring: the low-lying
zeros are counted by the argument principle on a circle whose radius
sits midway between model rings and located from the contour moments of
the same circle values, the model offset chi is shifted by an integer
so the counts line up, and every further index gets its own strip box
centered on the calibrated prediction.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property
from itertools import combinations

import numpy as np

from .asymptotics import AsymptoticModel, asymptotic_model
from .birkhoff import birkhoff_fss
from .errors import (
    ConfigurationError,
    ContourError,
    RootSearchError,
    ValidationError,
)
from .regularization import (
    AssociatedMatrix,
    ExpressionSpec,
    build_associated_matrix,
    conjugate_system,
)
from .solutions import closed_form_zero_coeff, integrate_fundamental

__all__ = [
    "BoundaryForm",
    "BoundarySpec",
    "ProblemSpec",
    "SpectralDatum",
    "SpectrumResult",
    "boundary_form",
    "char_delta",
    "char_delta_bullet",
    "delta_derivative",
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

    def is_zero_coefficient(self):
        return not np.tril(self.F.table.nonzero).any()


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
# two located roots closer than this signal numbering drift
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
# 3% dilations count_zeros tries after a zero contact
CONTOUR_RETRIES = 3
# agreement between successive Cauchy derivative estimates
DERIVATIVE_RTOL = 1e-9
# first node count of the Cauchy derivative circle (doubled up to 5 times)
DERIVATIVE_START_NODES = 16
# points of the lambda-circle each weight number is read from
RESIDUE_POINTS = 32
# agreement a weight number's ratio and contour residue must reach
BETA_CROSS_CHECK_RTOL = 1e-8
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

def boundary_form(form: BoundaryForm, values):
    """Apply one form to quasi-derivatives at its endpoint: a column
    gives a number, a matrix (one column per solution) a row."""
    values = np.asarray(values)
    val = values[form.p]
    for j, uj in enumerate(form.u, start=1):
        if uj != 0:
            val = val + uj * values[j - 1]
    return complex(val) if val.ndim == 0 else val


class DeterminantEvaluator:
    """All determinant routes for one problem in one sector frame."""

    def __init__(self, problem: ProblemSpec, model: AsymptoticModel):
        self.problem = problem
        self.model = model
        self.n = problem.n
        self.zero_coeff = problem.is_zero_coefficient()
        self._cache = {}
        re_dir = np.real(model.e_dir * model.frame.omegas)
        self.eta = float(np.max(re_dir) - np.min(re_dir))
        self.direct_limit = (np.inf if self.eta < 1e-12
                             else EXPONENT_BUDGET / self.eta)

    # -- rows -----------------------------------------------------------

    def _rows(self, bullet=False):
        b = self.problem.boundary
        if not bullet:
            return list(b.forms)
        if b.weight is None:
            raise ConfigurationError("weight form required for the bullet "
                                     "determinant")
        rows = [b.weight] + [f for s, f in enumerate(b.forms) if s != b.r - 1]
        return rows

    def _memo(self, key, compute):
        """compute(), cached under key; the cache is wiped past 4,096 entries."""
        if key not in self._cache:
            value = compute()
            if len(self._cache) > 4096:
                self._cache.clear()
            self._cache[key] = value
        return self._cache[key]

    # -- direct route -----------------------------------------------------

    def _fundamental_at_one(self, lam):
        def compute():
            if self.zero_coeff:
                return closed_form_zero_coeff(self.n, lam, np.array([1.0]))[0]
            return integrate_fundamental(self.problem.F, lam,
                                         grid=np.array([0.0, 1.0])).at_one
        return self._memo(("C1", complex(lam)), compute)

    def delta(self, lam, bullet=False):
        """det[U_s(C_k)]; rows at x = 0 come from C(0) = I exactly."""
        lam = complex(lam)
        ends = (np.eye(self.n), self._fundamental_at_one(lam))
        M = np.array([boundary_form(f, ends[f.side])
                      for f in self._rows(bullet)], dtype=complex)
        # overflow to inf or nan is reported by _winding's finiteness
        # checks as a typed failure, not as a numpy warning
        with np.errstate(invalid="ignore", over="ignore"):
            return complex(np.linalg.det(M))

    # -- factored route ----------------------------------------------------

    @cached_property
    def system(self):
        """The conjugated system of the factored route, built on first use."""
        return conjugate_system(self.problem.F, self.model.frame)

    def _z_pair(self, rho):
        """(z(0), z(1)) for the factored boundary matrix."""
        if self.zero_coeff:
            eye = np.eye(self.n, dtype=complex)
            return eye, eye

        def compute():
            sol = birkhoff_fss(self.system, rho)
            return sol.z_at_zero, sol.z_at_one
        return self._memo(("z", complex(rho)), compute)

    def d_norm(self, rho_check, bullet=False):
        """Normalized determinant in the strip variable.

        det[U rows] = rho^P exp(rho omega*) d_norm with P the sum of the
        plain rows' orders (for the bullet rows too, so that the ratio
        of the two d_norm is Delta_bullet / Delta), omega* the sum of the
        top n - r ordered roots, and rho = rho_check * e_dir. All
        exponentials inside d_norm have non-positive real part up to the
        strip slack.
        """
        model = self.model
        rho = complex(rho_check) * model.e_dir
        z0, z1 = self._z_pair(rho)
        om = model.frame.omegas
        n, r = self.n, model.r
        rows = self._rows(bullet)
        T = np.zeros((r, n), dtype=complex)
        B = np.zeros((n - r, n), dtype=complex)
        ti = bi = 0
        for f in rows:
            vec = om ** f.p
            for j, uj in enumerate(f.u, start=1):
                if uj != 0:
                    vec = vec + uj * rho ** (j - 1 - f.p) * om ** (j - 1)
            if f.side == 0:
                T[ti] = vec @ z0
                ti += 1
            else:
                B[bi] = vec @ z1
                bi += 1
        if bullet:
            # the weight row (first at x = 0) stands in for row r
            T[0] *= rho ** (rows[0].p - model.p_r)
        wstar = np.sum(om[r:])
        sgn_base = sum(range(r + 1, n + 1))
        total = 0.0 + 0.0j
        for S in combinations(range(n), n - r):
            Sc = [k for k in range(n) if k not in S]
            sgn = (-1) ** (sum(S) + len(S) + sgn_base)
            ex = np.exp(rho * (np.sum(om[list(S)]) - wstar))
            total += (sgn * np.linalg.det(B[:, list(S)])
                      * np.linalg.det(T[:, Sc]) * ex)
        return total

    # -- region dispatch ---------------------------------------------------

    def box_function(self, outer_radius):
        """Evaluator in rho_check for one box/contour.

        One route per contour (mixing them mid-contour would fake a
        discontinuity): the factored determinant whenever the problem is
        coefficient-free (it is then exact at every rho) or the box
        leaves the plain determinant's cancellation budget.
        """
        model = self.model
        if self.zero_coeff or outer_radius > self.direct_limit:
            return self.d_norm
        return lambda rc: self.delta(model.sign * complex(rc) ** self.n)

    def lambda_function(self, rho_abs):
        """Evaluator f(lam, bullet=False) in lambda for one weight circle
        around a root of modulus rho_abs: the plain determinant within
        the cancellation budget, d_norm at the canonical root beyond."""
        if rho_abs <= self.direct_limit:
            return self.delta
        rho_of_lambda = self.model.rho_of_lambda
        return lambda lam, bullet=False: self.d_norm(rho_of_lambda(lam),
                                                     bullet=bullet)


def char_delta(problem, lam):
    """Delta(lambda) by direct integration (moderate |lambda|)."""
    model = asymptotic_model(problem.n, problem.boundary.r,
                             problem.boundary.p_list)
    return DeterminantEvaluator(problem, model).delta(lam)


def char_delta_bullet(problem, lam):
    """Delta_bullet(lambda): row r replaced by the weight form, rows in
    increasing s order (0, 1, ..., n without r)."""
    model = asymptotic_model(problem.n, problem.boundary.r,
                             problem.boundary.p_list)
    return DeterminantEvaluator(problem, model).delta(lam, bullet=True)


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


def _winding(f, pts):
    """Winding number of f along the closed polyline pts.

    Segments with phase jumps above 1 radian are refined; a value tiny
    against the contour median trips ContourError (zero too close), and
    so does a value, or a ratio of neighbouring values, that is not finite.
    """
    pts = list(np.asarray(pts, dtype=complex))
    vals = [complex(f(z)) for z in pts]
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
            ratios = np.array(vals[1:]) / np.array(vals[:-1])
        if not np.all(np.isfinite(ratios)):
            raise ContourError("determinant ratio is not finite on the contour")
        dphi = np.angle(ratios)
        bad = np.nonzero(np.abs(dphi) > 1.0)[0]
        if len(bad) == 0:
            total = float(np.sum(dphi))
            w = total / (2 * np.pi)
            if abs(w - round(w)) > INTEGER_ATOL:
                raise ContourError(
                    f"winding {w:.6f} not integer-consistent", contact=True)
            return int(round(w))
        if len(pts) + len(bad) > MAX_CONTOUR_POINTS:
            raise ContourError("contour refinement budget exhausted",
                               contact=True)
        for idx in bad[::-1]:
            mid = 0.5 * (pts[idx] + pts[idx + 1])
            pts.insert(idx + 1, mid)
            vals.insert(idx + 1, complex(f(mid)))
    raise ContourError("winding did not stabilize", contact=True)


def count_zeros(f, contour_pts):
    """Argument-principle zero count inside a closed contour.

    On contact with a zero the contour is dilated about its centroid by
    3 percent and retried; other contour failures are raised at once.
    """
    pts = np.asarray(contour_pts, dtype=complex)
    centroid = np.mean(pts[:-1])
    for attempt in range(CONTOUR_RETRIES + 1):
        try:
            return _winding(f, pts), pts
        except ContourError as exc:
            if not exc.contact or attempt == CONTOUR_RETRIES:
                raise
            pts = centroid + (pts - centroid) * 1.03


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
        vals = np.array([f(z) for z in w])
        est = np.mean(vals * np.exp(-1j * th)) / radius
        if prev is not None and abs(est - prev) <= DERIVATIVE_RTOL * max(1.0, abs(est)):
            return complex(est)
        prev = est
        m *= 2
    raise ContourError(
        "Cauchy derivative did not converge; radius may cross a "
        "non-analytic point or another zero")


def _newton(f, z0):
    z = complex(z0)
    fz = complex(f(z))
    for _ in range(NEWTON_MAX_ITER):
        h = 1e-7 * max(1.0, abs(z))
        der = (f(z + h) - f(z - h)) / (2 * h)
        if der == 0:
            raise RootSearchError(f"flat derivative near {z}")
        step = fz / der
        z = z - step
        fz = complex(f(z))
        if abs(step) <= NEWTON_RTOL * max(1.0, abs(z)):
            return z, fz
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
    # the evaluator that located the roots; weight_numbers reuses its cache
    evaluator: DeterminantEvaluator = field(compare=False, repr=False)


def _strip_box_root(ev, model, l, chi_cal, hy):
    """Count-verify and refine the zero for one strip index."""
    growth = model.growth
    pred = growth * (l + chi_cal)
    cx, cy = pred.real, pred.imag
    half = 0.5 * growth
    fstrip = ev.box_function(abs(pred) + half + hy * 4)
    box = None
    for attempt in range(3):
        pts = rect_contour(cx - half, cx + half, cy - hy * (2 ** attempt),
                           cy + hy * (2 ** attempt), m=CONTOUR_POINTS)
        try:
            cnt, _ = count_zeros(fstrip, pts)
        except ContourError as exc:
            raise RootSearchError(
                f"index {l}: contour count failed: {exc}") from exc
        if cnt >= 1:
            box = (cnt, hy * (2 ** attempt))
            break
    if box is None:
        raise RootSearchError(
            f"index {l}: no zero found near prediction {pred:.6g}")
    cnt, used_hy = box
    if cnt == 1:
        root, _ = _newton(fstrip, pred)
        return root, 1
    # cluster: a root is returned only when one half-box holds all cnt zeros
    for sgn in (-1, 1):
        sub = rect_contour(cx + (sgn - 1) * 0.25 * growth,
                           cx + (sgn + 1) * 0.25 * growth,
                           cy - used_hy, cy + used_hy, m=CONTOUR_POINTS)
        try:
            c2, _ = count_zeros(fstrip, sub)
        except ContourError:
            continue
        if c2 == cnt:
            root, _ = _newton(fstrip, complex(cx + sgn * 0.25 * growth, cy))
            return root, c2
    raise RootSearchError(
        f"index {l}: strip box holds {cnt} zeros that no half-box isolates")


def _find_disk_zeros(f, pts, expected):
    """All zeros of f inside the circle pts from f's values on it.

    pts is the closed circle count_zeros verified (m equispaced points
    and the first one again, centre c, radius R) and `expected` its
    count N. In the scaled variable w = (z - c) / R the Delves-Lyness
    moments s_k = sum_i w_i^k come from g = log f - N log w by the
    trapezoid rule: s_k = -(k / 2 pi i) oint w^(k-1) g dw
    = -k mean(w^k g). The rank of the Hankel matrix H_0 = [s_(i+j)] is
    the number of distinct zeros, the pencil (H_1, H_0) gives them, and
    a Vandermonde fit to s_0..s_(N-1) their multiplicities. Simple zeros
    are polished by Newton; a multiple one keeps its pencil value.
    Returns a list of (root, multiplicity).
    """
    if expected == 0:
        return []
    pts = np.asarray(pts, dtype=complex)[:-1]
    c = np.mean(pts)
    R = abs(pts[0] - c)
    w = (pts - c) / R
    vals = np.array([complex(f(z)) for z in pts])
    phase = np.unwrap(np.angle(np.append(vals, vals[0])))
    turns = (phase[-1] - phase[0]) / (2 * np.pi)
    if round(turns) != expected:
        raise RootSearchError(f"phase of f closes at {turns:.6f} turns on "
                              f"the disk circle, count says {expected}")
    g = np.log(np.abs(vals)) + 1j * (phase[:-1]
                                     - expected * np.unwrap(np.angle(w)))
    k = np.arange(1, 2 * expected)
    s = np.concatenate([[expected], -k * np.mean(w ** k[:, None] * g, axis=1)])
    idx = np.add.outer(np.arange(expected), np.arange(expected))
    U, sig, Vh = np.linalg.svd(s[idx])
    rank = int(np.count_nonzero(sig > PENCIL_RANK_RTOL * sig[0]))
    U, Vh = U[:, :rank], Vh[:rank]
    pencil = (U.conj().T @ s[idx + 1] @ Vh.conj().T) / sig[:rank, None]
    roots = np.linalg.eigvals(pencil)
    vander = roots[None, :] ** np.arange(expected)[:, None]
    mult = np.linalg.lstsq(vander, s[:expected], rcond=None)[0]
    mult_int = np.rint(mult.real).astype(int)
    if (np.max(np.abs(mult - mult_int)) > INTEGER_ATOL
            or np.any(mult_int < 1) or mult_int.sum() != expected):
        raise RootSearchError(
            f"disk moments give multiplicities {np.round(mult, 6)}, circle "
            f"count says {expected}")
    found = []
    for wr, mu in zip(roots, mult_int):
        root = c + R * complex(wr)
        if mu == 1:
            root, _ = _newton(f, root)
        if abs(root - c) >= R:
            raise RootSearchError(f"disk root {root:.9g} lies outside the "
                                  f"counting circle")
        if any(abs(root - r0) <= DEDUPE_TOL * max(1.0, abs(r0))
               for r0, _ in found):
            raise RootSearchError(f"disk roots coincide at {root:.9g}")
        found.append((root, int(mu)))
    return found


def locate_eigenvalues(problem: ProblemSpec, l_max, l_min=1,
                       kappa=None) -> SpectrumResult:
    """Eigenvalues with global numbering, indices l_min..l_max.

    Stage 1 counts every zero inside a circle whose radius sits midway
    between model rings (plain determinant) and locates them from the
    contour moments of the circle values the count made; the count pins
    the integer part of chi. Stage 2 walks one strip box per remaining
    index, counts by winding, refines by Newton, and records the
    remainder against the calibrated model. kappa picks the model's
    sector (see asymptotic_model).
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

    def f_lam(lam):
        return ev.delta(lam)

    n_low, circle = count_zeros(f_lam, disk_contour(0.0, lam_radius,
                                                     m=max(64, 16 * L_A)))
    low = _find_disk_zeros(f_lam, circle, n_low)
    # canonical normalized roots, sorted by |lambda| then arg
    low_data = []
    for root, mult in low:
        rho = model.rho_of_lambda(root) if root != 0 else 0.0
        low_data.append((abs(root), np.angle(root), root, rho, mult))
    low_data.sort(key=lambda t: (t[0], t[1]))

    chi_shift = L_A - n_low
    chi_cal = model.chi + chi_shift

    data = []
    idx = 1
    for _, _, lam, rho, mult in low_data:
        eps = rho / growth - idx - chi_cal
        data.append(SpectralDatum(l=idx, lam=complex(lam), rho=complex(rho),
                                  eps=complex(eps), multiplicity=mult))
        idx += mult

    # stage 2: per-index strip boxes on the calibrated predictions
    hy = BOX_HALF_HEIGHT_FACTOR * growth
    for l in range(idx, l_max + 1):
        root, mult = _strip_box_root(ev, model, l, chi_cal, hy)
        if data and abs(root - data[-1].rho) < DEDUPE_TOL:
            raise RootSearchError(
                f"index {l}: duplicated root {root:.9g}; numbering drift")
        eps = root / growth - l - chi_cal
        lam = model.sign * root ** n
        data.append(SpectralDatum(l=l, lam=complex(lam), rho=complex(root),
                                  eps=complex(eps), multiplicity=mult))

    data = [d for d in data if l_min <= d.l <= l_max]
    return SpectrumResult(data=tuple(data), model=model,
                          chi_cal=complex(chi_cal), n_low=n_low, evaluator=ev)


# ---------------------------------------------------------------------------
# weight numbers
# ---------------------------------------------------------------------------

def weight_numbers(result: SpectrumResult) -> SpectrumResult:
    """Attach weight numbers beta_l to the located eigenvalues.

    beta_l is minus the residue of Delta_bullet/Delta at lambda_l. Each
    simple eigenvalue gets one lambda-circle of RESIDUE_POINTS points,
    sampled on one route of the evaluator that located the roots: the
    plain determinants while |rho_l| <= direct_limit, d_norm at the
    canonical root beyond. Its radius is 0.3 of the lambda-distance to
    the nearest other located eigenvalue, at most a quarter spacing
    (0.25 growth |d lambda / d rho|) and at least 1e-8 max(1, |lambda_l|).
    The ratio Delta_bullet(lambda_l) / Delta'(lambda_l) and the contour
    residue, both from those values, must agree to BETA_CROSS_CHECK_RTOL.
    Multiple eigenvalues are skipped with their multiplicity left set.
    """
    ev = result.evaluator
    if ev.problem.boundary.weight is None:
        raise ConfigurationError("weight numbers need a weight form")
    n, growth = ev.n, result.model.growth
    lams = np.array([d.lam for d in result.data], dtype=complex)
    out = []
    for i, d in enumerate(result.data):
        if d.multiplicity != 1:
            out.append(d)
            continue
        gap = np.min(np.abs(np.delete(lams, i) - d.lam), initial=np.inf)
        spacing = 0.25 * growth * abs(n * d.rho ** (n - 1))
        radius = max(min(0.3 * gap, spacing), 1e-8 * max(1.0, abs(d.lam)))
        ratio, res = _ratio_and_residue(ev.lambda_function(abs(d.rho)),
                                        d.lam, radius)
        if abs(res - ratio) > BETA_CROSS_CHECK_RTOL * max(abs(ratio), 1e-300):
            raise RootSearchError(
                f"index {d.l}: residue cross-check failed "
                f"({res:.9g} vs {ratio:.9g})")
        out.append(replace(d, beta=-ratio))
    return replace(result, data=tuple(out))


def _ratio_and_residue(f, lam0, radius):
    """Delta_bullet(lam0) / Delta'(lam0) and the residue of
    Delta_bullet / Delta at lam0, from f and f(., bullet=True) on the
    m = RESIDUE_POINTS points lam0 + radius w_k, w_k = exp(2 pi i k / m).
    Both rows are read at each point in turn, so the bullet value finds
    the plain one's solve in the evaluator's cache.

    By the trapezoid rule on the circle, Delta_bullet(lam0) is the mean
    of the bullet values, Delta'(lam0) the mean of the plain values over
    w_k, divided by radius, and the residue radius times the mean of
    w_k Delta_bullet / Delta.
    """
    w = np.exp(2j * np.pi * np.arange(RESIDUE_POINTS) / RESIDUE_POINTS)
    pts = lam0 + radius * w
    plain, bullet = np.array([(f(z), f(z, bullet=True)) for z in pts]).T
    der = np.mean(plain / w) / radius
    ratio = np.mean(bullet) / der
    res = radius * np.mean(w * bullet / plain)
    return complex(ratio), complex(res)
