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
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

__all__ = ["PiecewisePoly", "merge_breakpoints", "from_samples"]

_BREAK_TOL = 1e-13


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
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        idx = self.piece_index(xv)
        out = np.zeros(xv.shape, dtype=complex)
        for i, c in enumerate(self.coeffs):
            mask = idx == i
            if not np.any(mask):
                continue
            t = xv[mask] - self.breakpoints[i]
            acc = np.zeros(t.shape, dtype=complex)
            for ck in c[::-1]:
                acc = acc * t + ck
            out[mask] = acc
        return out[0] if scalar else out

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

    def conj(self):
        return PiecewisePoly(self.breakpoints, [np.conj(c) for c in self.coeffs],
                             class_tag=self.class_tag)

    # -- calculus --------------------------------------------------------

    def antiderivative_values(self, x):
        """Values of t -> integral_0^t of self, exactly, at points x."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        # cumulative integrals at piece starts
        piece_int = []
        for i, c in enumerate(self.coeffs):
            h = self.breakpoints[i + 1] - self.breakpoints[i]
            piece_int.append(sum(ck * h ** (k + 1) / (k + 1) for k, ck in enumerate(c)))
        cum = np.concatenate([[0.0], np.cumsum(piece_int)])
        idx = self.piece_index(xv)
        out = np.zeros(xv.shape, dtype=complex)
        for i, c in enumerate(self.coeffs):
            mask = idx == i
            if not np.any(mask):
                continue
            t = xv[mask] - self.breakpoints[i]
            acc = np.zeros(t.shape, dtype=complex)
            for k in range(len(c) - 1, -1, -1):
                acc = acc * t + c[k] / (k + 1)
            out[mask] = cum[i] + acc * t
        return out[0] if scalar else out

    def integral(self, a=0.0, b=1.0):
        """Exact definite integral over [a, b]."""
        va, vb = self.antiderivative_values(np.asarray([a, b], dtype=float))
        return vb - va

    def l2_norm_sq(self):
        """Exact integral of |f|^2 over [0, 1]."""
        return float((self * self.conj()).integral().real)

    def sup_on_grid(self, npts=257):
        x = np.linspace(0.0, 1.0, npts)
        x = np.union1d(x, self.breakpoints)
        return float(np.max(np.abs(self(x))))

    # -- comparison ------------------------------------------------------

    def equals(self, other, tol=1e-13):
        """Symbolic equality: identical polynomials on every merged piece."""
        a, b = self._align(other)
        for ca, cb in zip(a.coeffs, b.coeffs):
            m = max(len(ca), len(cb))
            da = np.zeros(m, dtype=complex)
            db = np.zeros(m, dtype=complex)
            da[: len(ca)] = ca
            db[: len(cb)] = cb
            if np.max(np.abs(da - db)) > tol:
                return False
        return True

    def with_tag(self, class_tag):
        return PiecewisePoly(self.breakpoints, self.coeffs, class_tag=class_tag)

    def __repr__(self):
        return (f"PiecewisePoly(pieces={len(self.coeffs)}, degree={self.degree}, "
                f"tag={self.class_tag})")


def from_samples(breakpoints, values, class_tag="L2"):
    """Piecewise-constant function taking values[i] on piece i."""
    return PiecewisePoly(breakpoints, [[complex(v)] for v in values],
                         class_tag=class_tag)
