"""Piecewise polynomial algebra: exactness of products and integrals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasispec.errors import ValidationError
from quasispec.piecewise import PiecewisePoly as P


def random_pp(rng, max_pieces=3, max_deg=3):
    k = rng.integers(1, max_pieces + 1)
    bp = np.sort(rng.uniform(0.05, 0.95, size=k - 1))
    bp = np.concatenate([[0.0], bp, [1.0]])
    coeffs = []
    for _ in range(k):
        deg = rng.integers(1, max_deg + 2)
        coeffs.append(rng.normal(size=deg) + 1j * rng.normal(size=deg))
    return P(bp, coeffs)


class TestConstruction:
    def test_bad_range(self):
        with pytest.raises(ValidationError):
            P([0.0, 0.5], [[1.0]])

    def test_nonincreasing(self):
        with pytest.raises(ValidationError):
            P([0.0, 0.6, 0.6, 1.0], [[1.0], [2.0], [3.0]])

    def test_piece_count(self):
        with pytest.raises(ValidationError):
            P([0.0, 1.0], [[1.0], [2.0]])


class TestEvaluation:
    def test_local_variable(self):
        # on [0.5, 1], 1 + 2(x - 0.5)
        f = P([0, 0.5, 1], [[0.0], [1.0, 2.0]])
        assert f(0.75) == pytest.approx(1.5)
        assert f(0.25) == 0.0
        assert f(1.0) == pytest.approx(2.0)

    def test_vectorized(self):
        f = P([0, 0.3, 1], [[2.0], [-1.0]])
        x = np.array([0.0, 0.29, 0.31, 1.0])
        np.testing.assert_allclose(f(x), [2, 2, -1, -1])


class TestAlgebra:
    def test_add_refines(self):
        f = P([0, 0.5, 1], [[1.0], [2.0]])
        g = P([0, 0.25, 1], [[10.0], [20.0]])
        h = f + g
        x = np.array([0.1, 0.3, 0.7])
        np.testing.assert_allclose(h(x), [11, 21, 22])

    def test_product_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f, g = random_pp(rng), random_pp(rng)
            x = np.linspace(0, 1, 37)
            np.testing.assert_allclose((f * g)(x), f(x) * g(x), atol=1e-12)

    def test_scalar_ops(self):
        f = P([0, 1], [[1.0, 1.0]])
        np.testing.assert_allclose((2 * f - 1.0)(np.array([0.5])), [2.0])

    def test_tag_merge(self):
        f = P([0, 1], [[1.0]], class_tag="L1")
        g = P([0, 1], [[1.0]], class_tag="L2")
        assert (f + g).class_tag == "L1"
        assert (g * g).class_tag == "L2"


class TestCalculus:
    def test_integral_polynomial(self):
        # x^2 on [0,1] -> 1/3
        f = P([0, 1], [[0.0, 0.0, 1.0]])
        assert f.integral() == pytest.approx(1 / 3)

    def test_integral_piecewise(self):
        f = P([0, 0.5, 1], [[1.0], [-1.0]])
        assert f.integral() == pytest.approx(0.0, abs=1e-15)
        assert f.integral(0.25, 0.75) == pytest.approx(0.0, abs=1e-15)
        assert f.integral(0.0, 0.5) == pytest.approx(0.5)

    def test_antiderivative_continuous(self):
        rng = np.random.default_rng(3)
        f = random_pp(rng)
        x = np.linspace(0, 1, 501)
        vals = f.antiderivative_values(x)
        # derivative of antiderivative recovers f away from breakpoints
        mid = 0.5 * (x[1:] + x[:-1])
        d = np.diff(vals) / np.diff(x)
        keep = np.ones(len(mid), bool)
        for b in f.breakpoints:
            keep &= np.abs(mid - b) > 2e-3
        np.testing.assert_allclose(d[keep], f(mid)[keep], atol=5e-3,
                                   rtol=1e-3)

@settings(max_examples=60, deadline=None)
@given(
    c1=st.lists(st.floats(-3, 3), min_size=1, max_size=4),
    c2=st.lists(st.floats(-3, 3), min_size=1, max_size=4),
    brk=st.floats(0.1, 0.9),
)
def test_product_integral_consistency(c1, c2, brk):
    """integral(f * g) computed exactly matches dense quadrature."""
    f = P([0, brk, 1], [c1, c2])
    g = P([0, 1], [[0.5, 1.0]])
    exact = (f * g).integral()
    # quadrature piece by piece so the jump at brk costs nothing
    approx = 0.0
    for a, b in ((0.0, brk), (brk, 1.0)):
        x = np.linspace(a + 1e-12, b - 1e-12, 4001)
        approx += np.trapezoid(f(x) * g(x), x)
    assert abs(exact - approx) < 5e-6 * (1 + abs(exact))


def test_equals_symbolic():
    f = P([0, 0.5, 1], [[1.0], [1.0]])
    g = P([0, 1], [[1.0]])
    assert f.equals(g)
    assert not f.equals(P([0, 1], [[1.0, 1e-10]]))
