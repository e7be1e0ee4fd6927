"""Exact algebra of complex piecewise polynomials on [0, 1].

These objects carry the operator coefficients. Everything downstream
needs exact products (the even-order regularization multiplies two
coefficients) and exact definite integrals (the pair-comparison
constants are integrals of coefficient differences), so the class
closes under +, -, *, scalar ops, antiderivative and integral without
any sampling.

Polynomials are stored per piece in the local variable ``t = x - a``
where ``a`` is the left breakpoint of the piece; this keeps high-degree
pieces well conditioned on short intervals.

`PieceTable` compiles a fixed set of them once for evaluation; it is the
one evaluator of the package.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

__all__ = ["PiecewisePoly", "PieceTable", "merge_breakpoints"]

_BREAK_TOL = 1e-13
# largest coefficient difference `equals` treats as equal
_EQUALS_TOL = 1e-13
# uniform grid points of `sup_on_grid`, before the breakpoints join
_SUP_POINTS = 257


def _shift_coeffs(coeffs, delta):
    """Re-expand sum c_k t^k around t = delta: coefficients in s = t - delta."""
    deg = len(coeffs) - 1
    out = np.zeros(deg + 1, dtype=complex)
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        # (s + delta)^k
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * delta ** (k - j)
    return out


def merge_breakpoints(*arrays):
    """Sorted union of breakpoint arrays on [0, 1].

    Float unions leave near-duplicates: a point within _BREAK_TOL of the
    last one kept is dropped, and the ends are pinned to 0.0 and 1.0.
    """
    bp = np.union1d([0.0, 1.0], np.concatenate([np.ravel(a) for a in arrays]))
    keep = [0.0]
    for b in bp[1:]:
        if b - keep[-1] > _BREAK_TOL:
            keep.append(b)
    keep[-1] = 1.0
    return np.asarray(keep, dtype=float)


def _trim(coeffs):
    arr = np.asarray(coeffs, dtype=complex)
    nz = np.nonzero(arr)[0]
    if len(nz) == 0:
        return np.zeros(1, dtype=complex)
    return arr[: nz[-1] + 1].copy()


class PiecewisePoly:
    """A complex-valued piecewise polynomial on [0, 1].

    Attributes:
        breakpoints: strictly increasing, breakpoints[0] == 0, [-1] == 1.
        coeffs: one complex coefficient array per piece, ascending powers
            of the local variable x - breakpoints[i].
        class_tag: "L1" or "L2"; semantic integrability tag carried along
            (every polynomial is in both spaces, the tag records which
            class the user asserts for the modelled coefficient).
    """

    __slots__ = ("breakpoints", "coeffs", "class_tag")

    def __init__(self, breakpoints, coeffs, class_tag="L2", field="coefficient"):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or len(bp) < 2:
            raise ValidationError(field, "need at least two breakpoints")
        if abs(bp[0]) > _BREAK_TOL or abs(bp[-1] - 1.0) > _BREAK_TOL:
            raise ValidationError(field, "breakpoints must start at 0 and end at 1")
        if np.any(np.diff(bp) <= _BREAK_TOL):
            raise ValidationError(field, "breakpoints must be strictly increasing")
        if len(coeffs) != len(bp) - 1:
            raise ValidationError(field, "one coefficient array per piece required")
        if class_tag not in ("L1", "L2"):
            raise ValidationError(field, f"unknown class tag {class_tag!r}")
        bp = bp.copy()
        bp[0], bp[-1] = 0.0, 1.0
        self.breakpoints = bp
        self.coeffs = tuple(_trim(c) for c in coeffs)
        self.class_tag = class_tag

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return PiecewisePoly([0.0, 1.0], [[0.0]], class_tag="L2")

    @staticmethod
    def constant(value):
        return PiecewisePoly([0.0, 1.0], [[complex(value)]], class_tag="L2")

    # -- basic queries -------------------------------------------------

    @property
    def degree(self):
        return max(len(c) - 1 for c in self.coeffs)

    def is_zero(self, tol=0.0):
        return all(np.all(np.abs(c) <= tol) for c in self.coeffs)

    def piece_index(self, x):
        """Index of the piece containing x (right-closed at x = 1)."""
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        return np.clip(idx, 0, len(self.coeffs) - 1)

    def __call__(self, x):
        """Values at x (a scalar for scalar x)."""
        return PieceTable([self], ())(x)[()]

    # -- refinement and arithmetic --------------------------------------

    def refined(self, breakpoints):
        """Same function re-expressed on a superset of breakpoints."""
        bp = merge_breakpoints(self.breakpoints, breakpoints)
        new_coeffs = []
        for a in bp[:-1]:
            i = int(self.piece_index(a + _BREAK_TOL))
            new_coeffs.append(_shift_coeffs(self.coeffs[i], a - self.breakpoints[i]))
        return PiecewisePoly(bp, new_coeffs, class_tag=self.class_tag)

    def _align(self, other):
        bp = np.union1d(self.breakpoints, other.breakpoints)
        return self.refined(bp), other.refined(bp)

    @staticmethod
    def _merge_tag(a, b):
        return "L2" if a == "L2" and b == "L2" else "L1"

    def __add__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            return self + PiecewisePoly.constant(other)
        a, b = self._align(other)
        coeffs = []
        for ca, cb in zip(a.coeffs, b.coeffs):
            m = max(len(ca), len(cb))
            c = np.zeros(m, dtype=complex)
            c[: len(ca)] += ca
            c[: len(cb)] += cb
            coeffs.append(c)
        return PiecewisePoly(a.breakpoints, coeffs,
                             class_tag=self._merge_tag(self.class_tag, other.class_tag))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return PiecewisePoly(self.breakpoints, [-c for c in self.coeffs],
                             class_tag=self.class_tag)

    def __sub__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            return self + PiecewisePoly.constant(-complex(other))
        return self + (-other)

    def __mul__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            z = complex(other)
            return PiecewisePoly(self.breakpoints, [c * z for c in self.coeffs],
                                 class_tag=self.class_tag)
        a, b = self._align(other)
        coeffs = [np.convolve(ca, cb) for ca, cb in zip(a.coeffs, b.coeffs)]
        return PiecewisePoly(a.breakpoints, coeffs,
                             class_tag=self._merge_tag(self.class_tag, other.class_tag))

    def __rmul__(self, other):
        return self.__mul__(other)

    # -- calculus --------------------------------------------------------

    def antiderivative_values(self, x):
        """Values of t -> integral_0^t of self, exactly, at points x."""
        # cumulative integrals at piece starts
        piece_int = []
        for i, c in enumerate(self.coeffs):
            h = self.breakpoints[i + 1] - self.breakpoints[i]
            piece_int.append(sum(ck * h ** (k + 1) / (k + 1) for k, ck in enumerate(c)))
        cum = np.concatenate([[0.0], np.cumsum(piece_int)])
        return PiecewisePoly(self.breakpoints, [
            np.concatenate([[s], c / np.arange(1, len(c) + 1)])
            for s, c in zip(cum, self.coeffs)])(x)

    def integral(self, a=0.0, b=1.0):
        """Exact definite integral over [a, b]."""
        va, vb = self.antiderivative_values(np.asarray([a, b], dtype=float))
        return vb - va

    def sup_on_grid(self):
        x = np.linspace(0.0, 1.0, _SUP_POINTS)
        x = np.union1d(x, self.breakpoints)
        return float(np.max(np.abs(self(x))))

    # -- comparison ------------------------------------------------------

    def equals(self, other):
        """Symbolic equality: identical polynomials on every merged piece."""
        return not any(np.max(np.abs(c)) > _EQUALS_TOL for c in (self - other).coeffs)

    def with_tag(self, class_tag):
        return PiecewisePoly(self.breakpoints, self.coeffs, class_tag=class_tag)

    def __repr__(self):
        return (f"PiecewisePoly(pieces={len(self.coeffs)}, degree={self.degree}, "
                f"tag={self.class_tag})")


class PieceTable:
    """A fixed array of piecewise polynomials compiled for evaluation.

    Built once from a flat sequence of PiecewisePoly and the shape they
    fill. On each merged piece every non-zero entry keeps its own local
    coefficients, zero-padded to the largest degree, and its own piece
    origin: a value is Horner's rule in the entry's own local variable,
    bit for bit the entry evaluated alone.

    Attributes:
        breakpoints: the merged breakpoints of all entries.
        nonzero: boolean array of the table's shape, False where an entry
            vanishes identically.
        constant: per merged piece, whether every entry is constant there.
        scale: per merged piece, the largest |coefficient| of any entry.
    """

    def __init__(self, polys, shape):
        polys = list(polys)
        bp = merge_breakpoints(*(p.breakpoints for p in polys))
        mids = 0.5 * (bp[:-1] + bp[1:])
        deg = max((p.degree for p in polys), default=0)
        # coefficient k of entry e on merged piece j, and that piece's origin
        coef = np.zeros((deg + 1, len(polys), len(mids)), dtype=complex)
        origin = np.zeros((len(polys), len(mids)))
        for e, p in enumerate(polys):
            idx = p.piece_index(mids)
            origin[e] = p.breakpoints[idx]
            for j, i in enumerate(idx):
                coef[: len(p.coeffs[i]), e, j] = p.coeffs[i]
        self._keep(bp, coef, origin, shape)

    def _keep(self, breakpoints, coef, origin, shape):
        """Keep the non-zero entries of coef (degree, entry, piece) and of
        origin (entry, piece), and the per-piece summaries."""
        self.breakpoints = breakpoints
        self.nonzero = np.any(coef != 0, axis=(0, 2)).reshape(shape)
        self._rows = np.flatnonzero(self.nonzero)
        self._coef, self._origin = coef[:, self._rows], origin[self._rows]
        self.constant = ~np.any(self._coef[1:], axis=(0, 1))
        self.scale = np.max(np.abs(self._coef), axis=(0, 1), initial=0.0)

    def combine(self, weights, shape):
        """The table of `shape` whose flat entry r is sum_e weights[r, e] *
        (flat entry e of this table), terms of zero weight left out. On each
        merged piece the entries are re-expanded about the piece start, the
        new table's origin there, and summed in the order of e."""
        start = self.breakpoints[:-1]
        coef = self._coef.copy()
        for e, j in zip(*np.nonzero(self._origin != start)):
            coef[:, e, j] = _shift_coeffs(coef[:, e, j], start[j] - self._origin[e, j])
        out = np.zeros((len(coef), len(weights), len(start)), dtype=complex)
        for e, w in enumerate(np.asarray(weights)[:, self._rows].T):
            r = np.flatnonzero(w)
            out[:, r] += w[r, None] * coef[:, None, e]
        table = object.__new__(PieceTable)
        table._keep(self.breakpoints, out, np.broadcast_to(start, out.shape[1:]), shape)
        return table

    def surrogate(self, pieces):
        """The table, constant everywhere, that splits each non-constant
        piece into `pieces` equal ones holding the entries' values at their
        midpoints (Pruess, SIAM J. Numer. Anal. 10, 1973) and keeps the
        constant pieces' coefficients bit for bit."""
        bp, split = self.breakpoints, np.where(self.constant, 1, pieces)
        starts = np.concatenate([np.linspace(a, b, k, endpoint=False)
                                 for a, b, k in zip(bp[:-1], bp[1:], split)])
        j, new_bp = np.repeat(np.arange(len(split)), split), np.append(starts, 1.0)
        mids = 0.5 * (new_bp[:-1] + new_bp[1:])
        coef = np.zeros((1, self.nonzero.size, len(starts)), dtype=complex)
        coef[0, self._rows] = np.where(self.constant[j], self._coef[0][:, j],
                                       self(mids).reshape(-1, len(mids))[self._rows])
        table = object.__new__(PieceTable)
        table._keep(new_bp, coef, np.broadcast_to(starts, coef.shape[1:]),
                    self.nonzero.shape)
        return table

    def entry(self, index):
        """The entry at `index` (a tuple into the shape) as a PiecewisePoly
        with one piece per distinct origin."""
        flat = np.ravel_multi_index(index, self.nonzero.shape)
        if not self.nonzero.flat[flat]:
            return PiecewisePoly.zero()
        e = np.searchsorted(self._rows, flat)
        origins, first = np.unique(self._origin[e], return_index=True)
        return PiecewisePoly(np.append(origins, 1.0), list(self._coef[:, e, first].T))

    def __call__(self, x, at=None):
        """Values at x, an array of shape `shape + x.shape`.

        Each value comes from the piece holding the matching point of `at`
        (broadcastable against x; default x itself), so a point of `at`
        inside the piece left of a breakpoint reads the left limit there.
        """
        x = np.asarray(x, dtype=float)
        j = np.searchsorted(self.breakpoints, x if at is None else at,
                            side="right") - 1
        j = np.clip(j, 0, len(self.breakpoints) - 2)
        t = x - self._origin[:, j]
        acc = np.zeros(t.shape, dtype=complex)
        for c in self._coef[::-1, :, j]:
            acc = acc * t + c
        out = np.zeros((self.nonzero.size,) + t.shape[1:], dtype=complex)
        out[self._rows] = acc
        return out.reshape(self.nonzero.shape + t.shape[1:])
