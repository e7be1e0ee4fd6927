"""Piecewise polynomial algebra: exactness of products and integrals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasispec.errors import ValidationError
from quasispec.piecewise import PiecewisePoly as P, PieceTable


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


def _local_reference(p, x, at):
    """p at x from np.polyval of the piece holding `at`, in that piece's
    local variable."""
    i = np.clip(np.searchsorted(p.breakpoints, at, side="right") - 1,
                0, len(p.coeffs) - 1)
    return np.array([np.polyval(p.coeffs[k][::-1], xv - p.breakpoints[k])
                     for xv, k in zip(x, i)])


_entries = st.lists(
    st.tuples(st.lists(st.integers(1, 999), max_size=3, unique=True),
              st.lists(st.lists(st.complex_numbers(max_magnitude=10),
                                min_size=1, max_size=5),
                       min_size=4, max_size=4)),
    min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(entries=_entries, extra=st.lists(st.floats(0, 1), max_size=8))
def test_table_matches_each_entry(entries, extra):
    """Different breakpoints and degrees per entry, plus a zero entry: the
    table equals every entry's own local polynomial at the breakpoints,
    at x = 1 and in between, and at a jump `at` left of it reads the
    left limit."""
    polys = [P(np.concatenate([[0.0], np.sort(cuts) / 1000.0, [1.0]]),
               pieces[: len(cuts) + 1]) for cuts, pieces in entries]
    polys.append(P.zero())
    table = PieceTable(polys, (len(polys),))
    bp = table.breakpoints
    x = np.concatenate([bp, np.asarray(extra), [1.0]])
    got = table(x)
    assert got.shape == (len(polys), len(x))
    for p, row in zip(polys, got):
        np.testing.assert_allclose(row, _local_reference(p, x, x), rtol=1e-14)
    # each interior breakpoint read from the merged piece on its left
    left = 0.5 * (bp[:-2] + bp[1:-1])
    got = table(bp[1:-1], at=left)
    for p, row in zip(polys, got):
        np.testing.assert_allclose(row, _local_reference(p, bp[1:-1], left),
                                   rtol=1e-14)
    assert list(table.nonzero) == [not p.is_zero() for p in polys]
    for j, mid in enumerate(0.5 * (bp[:-1] + bp[1:])):
        local = [p.coeffs[p.piece_index(mid)] for p in polys]
        assert table.constant[j] == all(len(c) == 1 for c in local)
        assert table.scale[j] == max(np.max(np.abs(c)) for c in local)


def test_table_left_limit():
    # 1 + 2t on [0, 0.5), 5 on [0.5, 1]; the zero entry stays zero
    table = PieceTable([P([0, 0.5, 1], [[1.0, 2.0], [5.0]]), P.zero()], (2,))
    np.testing.assert_array_equal(table(np.array([0.5])), [[5.0], [0.0]])
    np.testing.assert_array_equal(table(np.array([0.5]), at=np.array([0.25])),
                                  [[2.0], [0.0]])
    assert table.constant.tolist() == [False, True]
    assert table.nonzero.tolist() == [True, False]


def test_table_entry_and_combine():
    # entries with their own breakpoints: `entry` gives each back, and a
    # combination is re-expanded about the merged piece starts
    f = P([0, 0.5, 1], [[1.0, 2.0], [5.0, -1.0, 3.0]])
    g = P([0, 0.25, 1], [[10.0], [20.0, 4.0]])
    table = PieceTable([f, g, P.zero()], (3,))
    for e, p in enumerate([f, g, P.zero()]):
        back = table.entry((e,))
        np.testing.assert_array_equal(back.breakpoints, p.breakpoints)
        assert back.equals(p)
    both = table.combine([[2.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]], (3,))
    np.testing.assert_array_equal(both.breakpoints, [0.0, 0.25, 0.5, 1.0])
    assert both.nonzero.tolist() == [True, True, False]
    x = np.linspace(0.0, 1.0, 41)
    np.testing.assert_allclose(both(x), [2.0 * f(x), f(x) - g(x), 0.0 * x],
                               rtol=1e-15, atol=1e-15)
    assert (f - g).equals(both.entry((1,)))


def test_table_surrogate():
    # merged pieces [0, .3], [.3, .6], [.6, 1]: only the middle one is
    # constant in every entry
    f = P([0, 0.3, 0.6, 1], [[1.0, 2.0], [0.7 - 0.2j], [0.5, 2.0, -1.0]])
    g = P([0, 0.3, 1], [[0.25, -1.0], [np.pi / 3]])
    table = PieceTable([f, g, P.zero()], (3,))
    assert table.constant.tolist() == [False, True, False]
    sur = table.surrogate(4)
    assert sur.constant.all() and sur.nonzero.tolist() == [True, True, False]
    starts = np.concatenate([np.linspace(0.0, 0.3, 4, endpoint=False), [0.3],
                             np.linspace(0.6, 1.0, 4, endpoint=False)])
    np.testing.assert_array_equal(sur.breakpoints, np.append(starts, 1.0))
    mids = 0.5 * (sur.breakpoints[:-1] + sur.breakpoints[1:])
    # each piece holds the entries' values at its midpoint, constant on it
    for x in (mids, sur.breakpoints[:-1], np.nextafter(sur.breakpoints[1:], 0)):
        got = sur(x, at=mids)
        np.testing.assert_allclose(got, table(mids), rtol=1e-15, atol=1e-15)
    x = np.linspace(0.3, 0.6, 7)
    at = np.full_like(x, 0.45)
    assert sur(x, at=at).tobytes() == table(x, at=at).tobytes()


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
