"""Shared numerical kernels.

Bracketed root finding over an array of brackets, a root scan that
refines the sign changes of a table its caller sampled by one array
call, a dense eigensolver wrapper, and cosine-series helpers used by the
wave solver and the Bloch operator assembly: conversion between cosine
and full-line coefficients (padded to any mode window), products by
convolution, and the closed-form Toeplitz-plus-Hankel multiplication
table.  All routines are pure and deterministic; property tests draw
samples from a fixed-seed generator.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import EigenFailure, InvalidArgument, NoConvergence

# Fixed seed for every randomized property test in the suite.
PROPERTY_TEST_SEED = 0x5EED_0D15_9E45_0001


def unbox(x):
    """A 0-d result as a Python float; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


def property_rng() -> np.random.Generator:
    """Generator used by randomized tests; documented fixed seed."""
    return np.random.default_rng(PROPERTY_TEST_SEED)


def opposite_signs(a, b):
    """Elementwise, whether a and b have strictly opposite signs; unlike
    a * b < 0, a product that underflows to zero does not hide it.  A zero
    or a nan has no sign."""
    return np.sign(a) * np.sign(b) < 0.0


def find_root(f: Callable, bracket, tol: float = 1e-12):
    """Bisection/secant hybrid, elementwise over brackets; iterates stay in them.

    ``bracket`` is (lo, hi, f(lo), f(hi)), floats or 1-d arrays, and the
    roots come back in that shape.  f gets a 1-d array with a point per
    bracket (a finished one keeps its last point); each bracket takes the
    float steps it would take alone.  It stops when |f| <= tol or its
    interval shrinks below tol*max(1, |x|); NoConvergence is raised when
    one does neither within 200 iterations.
    """
    lo, hi, f_lo, f_hi = (np.array(b, dtype=float, ndmin=1) for b in bracket)
    bracketed = opposite_signs(f_lo, f_hi)
    if not np.all(bracketed):
        i = np.argmin(bracketed)
        raise InvalidArgument(f"f({lo[i]})={f_lo[i]:.3e} and f({hi[i]})={f_hi[i]:.3e} "
                              "do not bracket a root")
    x = 0.5 * (lo + hi)
    points, roots = x.copy(), x.copy()
    live, prev_width = np.arange(x.size), hi - lo  # live: the brackets still iterating

    def f_at(at: np.ndarray) -> np.ndarray:
        points[live] = at
        return f(points)[live]

    for _ in range(200):
        mid = 0.5 * (lo + hi)  # prev_width is hi - lo here
        out = prev_width <= tol * np.maximum(1.0, np.abs(x))
        # secant proposal from the current bracket endpoints, else the midpoint
        with np.errstate(divide="ignore", invalid="ignore"):
            x = hi - f_hi * prev_width / (f_hi - f_lo)
        x = np.where((lo < x) & (x < hi), x, mid)
        fx = f_at(x)
        stop = ~out & (np.abs(fx) <= tol)
        found, out = np.where(stop, x, mid), out | stop
        left = opposite_signs(f_lo, fx)
        lo, f_lo = np.where(left, lo, x), np.where(left, f_lo, fx)
        hi, f_hi = np.where(left, x, hi), np.where(left, fx, f_hi)
        # force a bisection step wherever the secant stops contracting
        forced = ~out & ((hi - lo) > 0.5 * prev_width)
        if np.count_nonzero(forced):
            mid = 0.5 * (lo + hi)
            fm = f_at(np.where(forced, mid, x))
            stop = forced & (np.abs(fm) <= tol)
            found, out = np.where(stop, mid, found), out | stop
            left = forced & opposite_signs(f_lo, fm)
            right = forced & ~left
            lo, f_lo = np.where(right, mid, lo), np.where(right, fm, f_lo)
            hi, f_hi = np.where(left, mid, hi), np.where(left, fm, f_hi)
        prev_width = hi - lo
        if np.count_nonzero(out):
            roots[live[out]], keep = found[out], ~out
            live, lo, hi, f_lo, f_hi, x, prev_width = (
                a[keep] for a in (live, lo, hi, f_lo, f_hi, x, prev_width))
            if not live.size:
                return unbox(roots.reshape(np.shape(bracket[0])))
    raise NoConvergence(200, float(np.min(np.minimum(np.abs(f_lo), np.abs(f_hi)))))


def scan_roots(
    f: Callable,
    grid: np.ndarray,
    vals: np.ndarray,
    tol: float = 1e-12,
    zero_tol: float | np.ndarray | None = None,
    poles: np.ndarray | None = None,
) -> list:
    """Roots of each row of a table vals = f(grid), in grid order: a list
    per row, or one list for a 1-d vals.

    The caller samples f (and the denominator ``poles``, if any) once over
    the grid by an array call.  With zero_tol set (a number, or an array
    that broadcasts against vals, so that it can scale with each sample),
    a sample with |f| <= zero_tol is a root itself; every other pair of
    neighbouring samples of opposite sign brackets a root, unless
    ``poles`` changes sign there too (a pole of f).  One find_root
    refines all brackets: f gets a (rows, slots) array of each row's
    points, grid[0] in a slot the row does not use.
    """
    table = np.array(vals, dtype=float, ndmin=2)
    zero = np.zeros(table.shape, dtype=bool) if zero_tol is None else np.abs(table) <= zero_tol
    cross = opposite_signs(table[:, :-1], table[:, 1:]) & ~zero[:, :-1] & ~zero[:, 1:]
    if poles is not None:
        poles = np.array(poles, ndmin=2)
        cross &= ~opposite_signs(poles[:, :-1], poles[:, 1:])
    found = np.where(zero, grid, np.nan)
    row, col = np.nonzero(cross)
    if row.size:
        slot = np.arange(row.size) - np.searchsorted(row, row)  # rank within the row
        points = np.full((table.shape[0], slot.max() + 1), grid[0])

        def at(x: np.ndarray) -> np.ndarray:
            points[row, slot] = x
            return f(points)[row, slot]

        found[row, col] = find_root(
            at, (grid[col], grid[col + 1], table[row, col], table[row, col + 1]), tol)
    zero[:, :-1] |= cross
    roots = [r[hit].tolist() for r, hit in zip(found, zero)]
    return roots if np.ndim(vals) == 2 else roots[0]


def eig_dense(matrix: np.ndarray) -> np.ndarray:
    """Full spectrum of a dense complex matrix, sorted by (Re, Im)."""
    a = np.asarray(matrix, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise EigenFailure("matrix has non-finite entries")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenFailure(str(exc)) from exc
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


# ---------------------------------------------------------------------------
# Cosine-series arithmetic.
#
# A real even 2*pi-periodic function is stored as cosine coefficients
# u[0..N] with u(z) = sum_n u[n] cos(n z).  The equivalent full (complex
# exponential) line has coefficients f[j] = u[|j|]/2 for j != 0 and
# f[0] = u[0].  Products are convolutions on the full line; coefficients
# produced outside the requested window are dropped (no aliasing wrap).
# Only this section knows how the two layouts are stored.
# ---------------------------------------------------------------------------


def cos_to_full(u: np.ndarray, n_window: int | None = None) -> np.ndarray:
    """Full-line coefficients f[-W..W] (offset W) of a cosine series.

    The window W defaults to the series' own N; a wider window is padded
    with zeros (no aliasing wrap), a narrower one drops the outer modes.
    """
    u = np.asarray(u, dtype=float)
    w = u.size - 1 if n_window is None else n_window
    half = np.zeros(w + 1)
    reach = min(u.size, w + 1)
    half[:reach] = 0.5 * u[:reach]
    half[0] = u[0]
    return np.concatenate([half[:0:-1], half])


def full_to_cos(f: np.ndarray, n_out: int) -> np.ndarray:
    """Cosine coefficients 0..n_out of a symmetric full-line array."""
    f = np.real(f)
    mid = (f.size - 1) // 2
    hi = min(n_out, mid)
    out = np.zeros(n_out + 1)
    out[0] = f[mid]
    out[1 : hi + 1] = 2.0 * f[mid + 1 : mid + hi + 1]
    return out


def cos_product(u: np.ndarray, v: np.ndarray, n_out: int) -> np.ndarray:
    """Cosine coefficients of the pointwise product u(z)*v(z)."""
    g = np.convolve(cos_to_full(u), cos_to_full(v))
    return full_to_cos(g, n_out)


def cos_square(u: np.ndarray, n_out: int) -> np.ndarray:
    """Cosine coefficients of u(z)^2."""
    return cos_product(u, u, n_out)


def cos_product_matrix(u: np.ndarray, n_out: int) -> np.ndarray:
    """Toeplitz-plus-Hankel table T with (T v)[n] = cosine coefficient n of u*v.

    With F the non-negative half of the full line of u over the window
    0..2*n_out, T[n, m] = F[|n-m|] + F[n+m] for n >= 1 and T[0, m] = F[m]:
    cos(n z) cos(m z) = (cos((n-m) z) + cos((n+m) z))/2.  Explicit
    (n_out+1) x (n_out+1) matrix, exact within the mode window; used for
    multiplication operators in Newton Jacobians.
    """
    f = cos_to_full(u, 2 * n_out)[2 * n_out :]
    diff, total = _product_indices(n_out)
    t = f[diff] + f[total]
    t[0] = f[: n_out + 1]
    return t


@functools.lru_cache(maxsize=16)
def _product_indices(n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """The |n-m| and n+m tables of cos_product_matrix, read-only."""
    j = np.arange(n_out + 1)
    tables = np.abs(j[:, None] - j), j[:, None] + j
    for table in tables:
        table.flags.writeable = False
    return tables
