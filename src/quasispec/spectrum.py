"""Characteristic determinants, eigenvalue location, weight numbers.

The characteristic function Delta(lambda) = det[U_s(C_k)] is evaluated
on two routes. For moderate |rho| the fundamental matrix is integrated
directly and the determinant formed as written. Beyond a cancellation
budget (the plain determinant loses eps * exp(spread * |rho|) of
relative accuracy) the factored route takes over: the boundary matrix is
assembled from the integral-equation solution z with every exponential
extracted analytically, and the determinant is expanded over column
subsets so all remaining exponentials have non-positive real part. Both
routes share the same zeros; weight numbers use ratios in which all
normalization factors cancel exactly.

Eigenvalue numbering follows the zero-count anchoring: low-lying zeros
are enumerated by argument-principle subdivision of a disk whose radius
sits midway between model rings, the model offset chi is shifted by an
integer so the counts line up, and every further index gets its own
strip box centered on the calibrated prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    "SpectrumSettings",
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
    """One linear form y^[p](x0) + sum_j u_j y^[j-1](x0), x0 in {0, 1}."""

    side: int  # 0 or 1
    p: int
    u: tuple = ()

    def __post_init__(self):
        if self.side not in (0, 1):
            raise ValidationError("boundary.side", "endpoint must be 0 or 1")
        if len(self.u) > self.p:
            raise ValidationError("boundary.u", "more coefficients than the "
                                  "form order admits")
        object.__setattr__(self, "u", tuple(complex(v) for v in self.u))


@dataclass(frozen=True)
class BoundarySpec:
    """r forms at x = 0, n - r at x = 1, optional weight form at x = 0."""

    r: int
    forms: tuple
    weight: BoundaryForm | None = None

    def __post_init__(self):
        n = len(self.forms)
        if not 1 <= self.r <= n - 1:
            raise ValidationError("boundary.r", f"need 1 <= r <= {n - 1}")
        for s, f in enumerate(self.forms):
            want = 0 if s < self.r else 1
            if f.side != want:
                raise ValidationError(f"boundary.forms[{s}]",
                                      f"expected side {want}")
            if not 0 <= f.p <= n - 1:
                raise ValidationError(f"boundary.forms[{s}].p", "out of range")
        left = [f.p for f in self.forms[: self.r]]
        right = [f.p for f in self.forms[self.r:]]
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise ValidationError("boundary.forms", "orders must be distinct "
                                  "within each side")
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
    _built: dict = field(default_factory=dict, repr=False)

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

    @property
    def F(self):
        if "F" not in self._built:
            self._built["F"] = (self.matrix if self.matrix is not None
                                else build_associated_matrix(self.expression))
        return self._built["F"]

    def is_zero_coefficient(self):
        F = self.F
        for a in range(self.n):
            for b in range(min(a + 1, self.n)):
                if not F.entries[a][b].is_zero():
                    return False
        return True


@dataclass(frozen=True)
class SpectralDatum:
    """One located eigenvalue with its normalized root and remainder."""

    l: int
    lam: complex
    rho: complex
    eps: complex
    multiplicity: int = 1
    beta: complex | None = None
    residual: float = 0.0


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
# deepest rectangle quadrisection allowed in the low-disk sweep
MAX_SUBDIVISION_DEPTH = 36
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


@dataclass(frozen=True)
class SpectrumSettings:
    kappa: int | None = None
    newton_tol: float = 1e-12


# ---------------------------------------------------------------------------
# boundary forms and direct determinants
# ---------------------------------------------------------------------------

def boundary_form(form: BoundaryForm, column):
    """Apply one form to a quasi-derivative column at its endpoint."""
    column = np.asarray(column)
    val = column[form.p]
    for j, uj in enumerate(form.u, start=1):
        if uj != 0:
            val = val + uj * column[j - 1]
    return complex(val)


class DeterminantEvaluator:
    """All determinant routes for one problem in one sector frame."""

    def __init__(self, problem: ProblemSpec, model: AsymptoticModel):
        self.problem = problem
        self.model = model
        self.n = problem.n
        self.zero_coeff = problem.is_zero_coefficient()
        self._system = None
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
        C1 = self._fundamental_at_one(lam)
        rows = self._rows(bullet)
        M = np.zeros((self.n, self.n), dtype=complex)
        for i, f in enumerate(rows):
            if f.side == 0:
                M[i, f.p] = 1.0
                for j, uj in enumerate(f.u, start=1):
                    M[i, j - 1] += uj
            else:
                M[i] = C1[f.p]
                for j, uj in enumerate(f.u, start=1):
                    M[i] += uj * C1[j - 1]
        # overflow to inf or nan is reported by _winding's finiteness
        # checks as a typed failure, not as a numpy warning
        with np.errstate(invalid="ignore", over="ignore"):
            return complex(np.linalg.det(M))

    # -- factored route ----------------------------------------------------

    @property
    def system(self):
        if self._system is None:
            self._system = conjugate_system(self.problem.F, self.model.frame)
        return self._system

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
        rows' orders, omega* the sum of the top n - r ordered roots, and
        rho = rho_check * e_dir. All exponentials inside d_norm have
        non-positive real part up to the strip slack.
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

    def box_function(self, outer_radius, bullet=False):
        """Evaluator in rho_check for one box/contour.

        One route per contour (mixing them mid-contour would fake a
        discontinuity): the factored determinant whenever the problem is
        coefficient-free (it is then exact at every rho) or the box
        leaves the plain determinant's cancellation budget.
        """
        model = self.model
        if self.zero_coeff or outer_radius > self.direct_limit:
            return lambda rc: self.d_norm(rc, bullet=bullet)
        return lambda rc: self.delta(model.sign * complex(rc) ** self.n,
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
    th = np.linspace(0.0, 2 * np.pi, m + 1)
    return center + radius * np.exp(1j * th)


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
            if abs(w - round(w)) > 1e-3:
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


def _newton(f, z0, tol, fval_scale=1.0, max_iter=50):
    z = complex(z0)
    fz = complex(f(z))
    for _ in range(max_iter):
        h = 1e-7 * max(1.0, abs(z))
        der = (f(z + h) - f(z - h)) / (2 * h)
        if der == 0:
            raise RootSearchError(f"flat derivative near {z}")
        step = fz / der
        z = z - step
        fz = complex(f(z))
        if abs(step) <= tol * max(1.0, abs(z)):
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
    diagnostics: dict

    def __iter__(self):
        return iter(self.data)


def _strip_box_root(ev, model, settings, l, chi_cal, hy):
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
        root, _ = _newton(fstrip, pred, settings.newton_tol)
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
            root, _ = _newton(fstrip, complex(cx + sgn * 0.25 * growth, cy),
                              settings.newton_tol)
            return root, c2
    raise RootSearchError(
        f"index {l}: strip box holds {cnt} zeros that no half-box isolates")


def _find_disk_zeros(f, radius, expected, settings):
    """All zeros of f in |z| <= radius by rectangle subdivision.

    f is analytic; `expected` is the verified circle count. Returns a
    list of (root, multiplicity).
    """
    found = []
    min_size = max(radius * 1e-6, 1e-9)

    def rect_count(x0, x1, y0, y1):
        pts = rect_contour(x0, x1, y0, y1, m=8)
        cnt, _ = count_zeros(f, pts)
        return cnt

    def recurse(x0, x1, y0, y1, depth):
        # ignore rectangles fully outside the disk
        nearest_x = min(abs(x0), abs(x1)) if x0 * x1 > 0 else 0.0
        nearest_y = min(abs(y0), abs(y1)) if y0 * y1 > 0 else 0.0
        if np.hypot(nearest_x, nearest_y) > radius:
            return
        try:
            cnt = rect_count(x0, x1, y0, y1)
        except ContourError:
            cnt = None
        if cnt == 0:
            return
        size = max(x1 - x0, y1 - y0)
        if cnt == 1:
            try:
                root, fr = _newton(f, complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)),
                                   settings.newton_tol)
                if x0 - 1e-9 <= root.real <= x1 + 1e-9 and \
                   y0 - 1e-9 <= root.imag <= y1 + 1e-9:
                    found.append((root, 1))
                    return
            except RootSearchError:
                pass
        if size < min_size:
            found.append((complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)),
                          cnt if cnt else 1))
            return
        if depth > MAX_SUBDIVISION_DEPTH:
            raise RootSearchError("subdivision depth exhausted in the disk "
                                  "sweep")
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        # quadrisection with slight jitter to dodge on-edge zeros
        j = 1e-3 * size
        recurse(x0, xm + j, y0, ym + j, depth + 1)
        recurse(xm + j, x1, y0, ym + j, depth + 1)
        recurse(x0, xm + j, ym + j, y1, depth + 1)
        recurse(xm + j, x1, ym + j, y1, depth + 1)

    if expected == 0:
        return []
    R = radius * 1.0001
    recurse(-R, R, -R, R, 0)
    # dedupe
    uniq = []
    for root, mult in found:
        if abs(root) > radius:
            continue
        for i, (r0, m0) in enumerate(uniq):
            if abs(root - r0) < 1e-7 * max(1.0, abs(r0)):
                break
        else:
            uniq.append((root, mult))
    if sum(m for _, m in uniq) != expected:
        raise RootSearchError(
            f"disk sweep found {sum(m for _, m in uniq)} zeros, circle count "
            f"says {expected}")
    return uniq


def locate_eigenvalues(problem: ProblemSpec, l_max, l_min=1,
                       settings: SpectrumSettings = None) -> SpectrumResult:
    """Eigenvalues with global numbering, indices l_min..l_max.

    Stage 1 counts and locates every zero inside a disk whose radius
    sits midway between model rings (plain determinant, rectangle
    subdivision); the count pins the integer part of chi. Stage 2 walks
    one strip box per remaining index, counts by winding, refines by
    Newton, and records the remainder against the calibrated model.
    """
    settings = settings or SpectrumSettings()
    model = asymptotic_model(problem.n, problem.boundary.r,
                             problem.boundary.p_list, kappa=settings.kappa)
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

    n_low, _ = count_zeros(f_lam, disk_contour(0.0, lam_radius,
                                                m=max(64, 16 * L_A)))
    low = _find_disk_zeros(f_lam, lam_radius, n_low, settings)
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
        root, mult = _strip_box_root(ev, model, settings, l, chi_cal, hy)
        if data and abs(root - data[-1].rho) < DEDUPE_TOL:
            raise RootSearchError(
                f"index {l}: duplicated root {root:.9g}; numbering drift")
        eps = root / growth - l - chi_cal
        lam = model.sign * root ** n
        data.append(SpectralDatum(l=l, lam=complex(lam), rho=complex(root),
                                  eps=complex(eps), multiplicity=mult))

    data = [d for d in data if l_min <= d.l <= l_max]
    diagnostics = {
        "n_low": n_low,
        "L_A": L_A,
        "T_A": T_A,
        "chi_shift": chi_shift,
        "direct_limit": ev.direct_limit,
    }
    return SpectrumResult(data=tuple(data), model=model,
                          chi_cal=complex(chi_cal), n_low=n_low,
                          diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# weight numbers
# ---------------------------------------------------------------------------

def weight_numbers(problem: ProblemSpec, result: SpectrumResult,
                   cross_check_rtol=1e-8) -> SpectrumResult:
    """Attach weight numbers beta_l to the located eigenvalues.

    beta_l is minus the residue of Delta_bullet/Delta at lambda_l; the
    ratio Delta_bullet(lambda_l) / Delta'(lambda_l) and a contour
    residue must agree to cross_check_rtol (simple eigenvalues only;
    multiple ones are skipped with their multiplicity flag left set).
    """
    if problem.boundary.weight is None:
        raise ConfigurationError("weight numbers need a weight form")
    model = result.model
    ev = DeterminantEvaluator(problem, model)
    n = problem.n
    p0 = problem.boundary.weight.p
    p_r = model.p_r
    rhos = np.array([d.rho for d in result.data], dtype=complex)
    out = []
    for i, d in enumerate(result.data):
        if d.multiplicity != 1:
            out.append(d)
            continue
        gaps = [abs(d.rho - rhos[j]) for j in range(len(rhos)) if j != i]
        gap = min(gaps) if gaps else model.growth
        r_rho = max(min(0.3 * gap, 0.25 * model.growth), 1e-4 * model.growth)
        if abs(d.rho) <= ev.direct_limit and abs(d.rho) > 0:
            beta_raw, res = _beta_direct(ev, model, d, r_rho)
        else:
            beta_raw, res = _beta_strip(ev, model, d, r_rho, p0, p_r)
        if abs(res - beta_raw) > cross_check_rtol * max(abs(beta_raw), 1e-300):
            raise RootSearchError(
                f"index {d.l}: residue cross-check failed "
                f"({res:.9g} vs {beta_raw:.9g})")
        out.append(replace(d, beta=-beta_raw))
    return replace(result, data=tuple(out))


def _beta_direct(ev, model, d, r_rho):
    """Ratio and contour residue in the lambda plane."""
    n = model.n
    dlam = abs(n * model.sign * d.rho ** (n - 1)) if d.rho != 0 else 1.0
    radius = max(r_rho * dlam, 1e-8 * max(1.0, abs(d.lam)))
    der = delta_derivative(lambda z: ev.delta(z), d.lam, radius)
    beta_raw = ev.delta(d.lam, bullet=True) / der
    m = 64
    th = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    w = d.lam + radius * np.exp(1j * th)
    g = np.array([ev.delta(z, bullet=True) / ev.delta(z) for z in w])
    res = radius * np.mean(g * np.exp(1j * th))
    return complex(beta_raw), complex(res)


def _beta_strip(ev, model, d, r_rho, p0, p_r):
    """Ratio and contour residue from the factored determinants.

    beta_raw = n (-1)^(n-r) rho^(n-1) (rho e_dir)^(p0 - p_r)
               * D_bullet_norm / D_norm' at the root (all normalization
               factors cancel in the ratio).
    """
    n = model.n
    rc = d.rho
    m = 32
    th = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    circ = rc + r_rho * np.exp(1j * th)
    dn = np.array([ev.d_norm(z) for z in circ])
    dnb = np.array([ev.d_norm(z, bullet=True) for z in circ])
    # derivative of D_norm at the root (Cauchy)
    der = np.mean(dn * np.exp(-1j * th)) / r_rho
    dnb_at = ev.d_norm(rc, bullet=True)
    front = n * model.sign * rc ** (n - 1) * (rc * model.e_dir) ** (p0 - p_r)
    beta_raw = front * dnb_at / der
    # residue of Delta_bullet/Delta in lambda via the rho-circle
    dlam = n * model.sign * circ ** (n - 1)
    integrand = (circ * model.e_dir) ** (p0 - p_r) * (dnb / dn) * dlam
    res = r_rho * np.mean(integrand * np.exp(1j * th))
    return complex(beta_raw), complex(res)
