import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modwave.errors import InvalidArgument, NoConvergence
from modwave.indices import ind
from modwave.numerics import (
    cos_product,
    cos_product_matrix,
    cos_square,
    cos_to_full,
    eig_dense,
    find_root,
    scan_roots,
    full_to_cos,
    property_rng,
)
from modwave.stokes import EquationKind


def bracket(f, lo, hi):
    return lo, hi, f(lo), f(hi)


def test_find_root_identity():
    f = lambda x: x
    assert find_root(f, bracket(f, -1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_find_root_bbm_index_threshold(bbm):
    f = lambda k: ind(EquationKind.BBM, bbm, k).ind
    root = find_root(f, bracket(f, 1.5, 2.0), tol=1e-13)
    assert abs(root - math.sqrt(3.0)) <= 1e-10


def test_find_root_fractional_alpha():
    f = lambda a: 3.0 - np.float_power(2.0, 1.0 + a) + a
    root = find_root(f, bracket(f, 0.5, 1.5), tol=1e-14)
    assert abs(root - 1.0) <= 1e-12


def test_find_root_stays_in_bracket():
    rng = property_rng()
    for _ in range(50):
        shift = rng.uniform(-2.0, 2.0)
        f = lambda x: np.tanh(x - shift)
        lo, hi = shift - rng.uniform(0.1, 3.0), shift + rng.uniform(0.1, 3.0)
        root = find_root(f, bracket(f, lo, hi))
        assert lo <= root <= hi
        assert abs(root - shift) <= 1e-9


def test_find_root_reports_no_convergence():
    # tol = 0 cannot be met once the bracket is two adjacent floats
    f = lambda x: x * x - 2.0
    with pytest.raises(NoConvergence):
        find_root(f, bracket(f, 1.0, 2.0), tol=0.0)
    # one bracket that cannot converge fails the whole batch
    with pytest.raises(NoConvergence):
        find_root(f, bracket(f, np.array([1.0, 0.0]), np.array([2.0, 3.0])), tol=0.0)


def test_no_bracket():
    f = lambda x: x * x + 1.0
    with pytest.raises(InvalidArgument, match="do not bracket a root$"):
        find_root(f, bracket(f, -1.0, 1.0))
    g = lambda x: x * x - 2.0
    with pytest.raises(InvalidArgument, match=r"f\(-1\.0\)"):
        find_root(g, bracket(g, np.array([1.0, -1.0]), np.array([2.0, 1.0])))


def test_find_root_batch_matches_each_bracket_alone():
    # brackets that stop by each rule: |f| <= tol at a forced midpoint (the
    # flat quintic), the interval width (the step, where |f| = 1), and
    # |f| <= tol at a secant point (the rest); the last holds NaN samples
    def f(x):
        with np.errstate(invalid="ignore"):
            return np.select([x < 1.5, x < 2.95, x < 10.0, x < 20.0, x < 30.0],
                             [np.float_power(x - 0.25, 5), np.where(x < 2.3, -1.0, 1.0),
                              np.sin(x), x - 12.5, np.tanh(4.0 * (x - 25.1))], np.log(x - 35.0))

    lo = np.array([0.0, 2.0, 3.0, 11.0, 20.5, 24.0, 34.0])
    hi = np.array([1.0, 2.9, 4.0, 15.0, 29.0, 27.0, 38.0])
    f_lo, f_hi = f(lo), f(hi)
    f_lo[-1] = -1.0  # f(34) is NaN
    for tol in (1e-12, 1e-8):
        calls = []
        roots = find_root(lambda x: calls.append(x.shape) or f(x), (lo, hi, f_lo, f_hi), tol)
        alone = [find_root(f, (lo[i], hi[i], f_lo[i], f_hi[i]), tol) for i in range(lo.size)]
        assert roots.tolist() == alone
        assert set(calls) == {lo.shape}
    assert isinstance(alone[0], float)


def test_scan_roots():
    grid = np.linspace(0.1, 4.0, 40)
    assert scan_roots(np.sin, grid, np.sin(grid)) == [pytest.approx(math.pi, abs=1e-12)]
    # tan changes sign at its pole pi/2 and at its root pi; cos marks the pole
    assert len(scan_roots(np.tan, grid, np.tan(grid))) == 2
    assert scan_roots(np.tan, grid, np.tan(grid), poles=np.cos(grid)) == [
        pytest.approx(math.pi, abs=1e-12)]
    # a sample that is a root counts only with zero_tol, and ends no bracket
    line = np.linspace(0.0, 2.0, 5)

    def f(x):
        return x - 1.0

    assert scan_roots(f, line, f(line)) == []
    assert scan_roots(f, line, f(line), zero_tol=0.0) == [1.0]

    def g(x):
        return x - 1.0 + 1e-15

    assert scan_roots(g, line, g(line), zero_tol=1e-14) == [1.0]
    # the samples are the caller's: f itself is only called to refine the
    # brackets, all at once, so its calls do not grow with their number
    counts = []
    for periods in (1, 10, 100):
        line = np.linspace(0.1, 4.0 * periods, 40 * periods)
        calls = []
        roots = scan_roots(lambda x: calls.append(x) or np.sin(x), line, np.sin(line))
        assert roots == pytest.approx(math.pi * np.arange(1, len(roots) + 1), abs=1e-12)
        assert all(isinstance(x, np.ndarray) and x.ndim == 2 for x in calls)
        counts.append(len(calls))
    assert counts[0] > 0 and counts[0] == counts[1] == counts[2]


def test_scan_roots_sees_a_sign_change_whose_product_underflows():
    # 0.5e-200 * -0.5e-200 underflows to -0.0, which is not < 0
    grid = np.array([0.0, 1.0])

    def f(x):
        return 0.5e-200 - 1e-200 * x

    assert scan_roots(f, grid, f(grid)) == [0.5]
    assert find_root(f, (0.0, 1.0, f(0.0), f(1.0))) == 0.5


def test_scan_roots_table_rows_match_one_row_scans():
    grid = np.linspace(0.1, 10.0, 200)
    n = np.arange(1, 6)[:, None]
    f = lambda x: np.sin(n * x) - 0.3
    rows = scan_roots(f, grid, f(grid), tol=1e-13)
    assert [len(r) for r in rows] == [4, 7, 10, 12, 15]
    for i, row in enumerate(rows):
        g = lambda x, m=float(n[i, 0]): np.sin(m * x) - 0.3
        assert row == scan_roots(g, grid, g(grid), tol=1e-13)
    assert scan_roots(f, grid, np.ones((2, grid.size))) == [[], []]


def test_eig_dense_diagonal():
    vals = eig_dense(np.diag([3.0, 1.0, 2.0]))
    assert_allclose(vals.real, [1.0, 2.0, 3.0], atol=1e-14)


def test_eig_dense_rotation():
    vals = eig_dense(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert_allclose(sorted(vals.imag), [-1.0, 1.0], atol=1e-14)
    assert_allclose(vals.real, 0.0, atol=1e-14)


def test_eig_dense_hermitian_real():
    rng = property_rng()
    for _ in range(20):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = a + a.conj().T
        vals = eig_dense(h)
        assert np.max(np.abs(vals.imag)) <= 1e-10


def test_eig_vs_poly_roots_on_pencil(bbm):
    from modwave.pencil import build_bbm_pencil, rescaled_charpoly

    pencil = build_bbm_pencil(bbm, 1.0, 1e-2, 1e-2)
    lam_direct = np.linalg.eigvals(np.linalg.solve(pencil.i_matrix, pencil.b_matrix))
    poly = rescaled_charpoly(pencil)
    lam_poly = -1j * pencil.xi * np.roots(poly)
    # by (Im, Re): np.roots gives real parts of exactly 0 where eigvals gives +-1e-18
    assert_allclose(sorted(lam_direct, key=lambda z: (z.imag, z.real)),
                    sorted(lam_poly, key=lambda z: (z.imag, z.real)), atol=1e-12)


def test_convolution_zero():
    u = np.zeros(5)
    v = np.array([1.0, 0.5, 0.25, 0.0, 0.0])
    assert_allclose(cos_product(u, v, 8), 0.0, atol=0.0)


def test_cos_squared_identity():
    # cos(z)^2 = 1/2 + cos(2z)/2
    u = np.array([0.0, 1.0, 0.0])
    out = cos_square(u, 4)
    assert_allclose(out, [0.5, 0.0, 0.5, 0.0, 0.0], atol=1e-15)


def test_convolution_matches_grid_oracle():
    rng = property_rng()
    n = 10
    z = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    modes = np.arange(2 * n + 1)
    basis = np.cos(np.outer(z, modes))
    for _ in range(25):
        u = rng.normal(size=n + 1)
        v = rng.normal(size=n + 1)
        product = (basis[:, : n + 1] @ u) * (basis[:, : n + 1] @ v)
        # recover cosine coefficients from the grid
        expected = basis.T @ product / z.size * 2.0
        expected[0] /= 2.0
        got = cos_product(u, v, 2 * n)
        assert_allclose(got, expected, atol=1e-12)


def test_product_matrix_is_multiplication():
    rng = property_rng()
    u = rng.normal(size=9)
    v = rng.normal(size=9)
    table = cos_product_matrix(u, 8)
    assert_allclose(table @ v, cos_product(u, v, 8), atol=1e-13)


def _product_matrix_by_columns(u, n_out):
    # reference: column m is the product of u with the m-th basis vector
    size = n_out + 1
    t = np.zeros((size, size))
    for m in range(size):
        basis = np.zeros(size)
        basis[m] = 1.0
        t[:, m] = cos_product(u, basis, n_out)
    return t


@pytest.mark.parametrize("n", [8, 32, 128])
def test_product_matrix_closed_form_matches_columns(n):
    rng = property_rng()
    for _ in range(5):
        u = rng.normal(size=n + 1)
        assert np.array_equal(cos_product_matrix(u, n), _product_matrix_by_columns(u, n))
    # a series shorter or longer than the output window
    u = rng.normal(size=n // 2 + 1)
    assert np.array_equal(cos_product_matrix(u, n), _product_matrix_by_columns(u, n))
    u = rng.normal(size=3 * n + 1)
    assert np.array_equal(cos_product_matrix(u, n), _product_matrix_by_columns(u, n))


def test_cos_full_round_trip():
    rng = property_rng()
    u = rng.normal(size=17)
    f = cos_to_full(u)
    assert f.size == 33 and f[16] == u[0]
    assert np.array_equal(f, f[::-1])
    assert np.array_equal(full_to_cos(f, 16), u)
    assert np.array_equal(full_to_cos(f.astype(complex), 16), u)
    # a wider window pads with zeros; a narrower one drops the outer modes
    wide = cos_to_full(u, 24)
    assert wide.size == 49 and np.array_equal(wide[8:41], f)
    assert not wide[:8].any() and not wide[41:].any()
    assert np.array_equal(full_to_cos(wide, 24), np.concatenate([u, np.zeros(8)]))
    assert np.array_equal(cos_to_full(u, 5), f[11:22])
    assert np.array_equal(full_to_cos(f, 5), u[:6])
