"""Shared numerical kernels.

Bracketed root finding, a root scan that refines the sign changes of
samples its caller took by one array call, the evenly spaced grid
itself, companion-matrix polynomial roots, a dense eigensolver wrapper,
and cosine-series helpers used by the wave solver and the Bloch
operator assembly: conversion between cosine and full-line
coefficients (padded to any mode window), products by convolution, and
the closed-form Toeplitz-plus-Hankel multiplication table.  All routines
are pure and deterministic; property tests draw samples from a
fixed-seed generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EigenFailure, LeadingZero, NoBracket, NoConvergence

# Fixed seed for every randomized property test in the suite.
PROPERTY_TEST_SEED = 0x5EED_0D15_9E45_0001


def unbox(x):
    """A 0-d result as a Python float; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


def property_rng() -> np.random.Generator:
    """Generator used by randomized tests; documented fixed seed."""
    return np.random.default_rng(PROPERTY_TEST_SEED)


@dataclass(frozen=True)
class Bracket:
    """Sign-change interval for root finding."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not (self.f_lo * self.f_hi < 0.0):
            raise NoBracket(
                f"f({self.lo})={self.f_lo:.3e} and f({self.hi})={self.f_hi:.3e} "
                "do not bracket a root"
            )

    @classmethod
    def scan(cls, f: Callable[[float], float], lo: float, hi: float) -> "Bracket":
        return cls(lo, hi, f(lo), f(hi))


def find_root(f: Callable[[float], float], bracket: Bracket, tol: float = 1e-12) -> float:
    """Bisection/secant hybrid; the iterate never leaves the bracket.

    Stops when |f| <= tol or the interval shrinks below tol*max(1, |x|);
    raises NoConvergence when neither happens within 200 iterations.
    """
    lo, hi = bracket.lo, bracket.hi
    f_lo, f_hi = bracket.f_lo, bracket.f_hi
    x = 0.5 * (lo + hi)
    prev_width = hi - lo
    for _ in range(200):
        if hi - lo <= tol * max(1.0, abs(x)):
            return 0.5 * (lo + hi)
        # secant proposal from the current bracket endpoints
        denom = f_hi - f_lo
        if denom != 0.0:
            x = hi - f_hi * (hi - lo) / denom
        if denom == 0.0 or not (lo < x < hi):
            x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx) <= tol:
            return x
        if f_lo * fx < 0.0:
            hi, f_hi = x, fx
        else:
            lo, f_lo = x, fx
        # force a bisection step whenever the secant stops contracting
        if (hi - lo) > 0.5 * prev_width:
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if abs(fm) <= tol:
                return mid
            if f_lo * fm < 0.0:
                hi, f_hi = mid, fm
            else:
                lo, f_lo = mid, fm
        prev_width = hi - lo
    raise NoConvergence(200, min(abs(f_lo), abs(f_hi)))


def scan_roots(
    f: Callable,
    grid: np.ndarray,
    vals: np.ndarray,
    tol: float = 1e-12,
    zero_tol: float | None = None,
    poles: np.ndarray | None = None,
) -> list[float]:
    """Roots of f on a sample grid, in grid order, from its samples vals = f(grid).

    The caller samples f (and the denominator ``poles``, if any) once over
    the whole grid by an array call.  With zero_tol set, a sample with
    |f| <= zero_tol is a root itself; every other pair of neighbouring
    samples of opposite sign brackets a root, refined by find_root through
    0-d calls of f.  A bracket across which ``poles`` also changes sign
    holds a pole of f, not a root, and is skipped.
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(vals, dtype=float)
    zero = np.zeros(grid.size, dtype=bool) if zero_tol is None else np.abs(vals) <= zero_tol
    cross = (vals[:-1] * vals[1:] < 0.0) & ~zero[:-1] & ~zero[1:]
    if poles is not None:
        cross &= ~(poles[:-1] * poles[1:] < 0.0)
    roots = []
    for i in np.flatnonzero(zero | np.append(cross, False)).tolist():
        if zero[i]:
            roots.append(float(grid[i]))
        else:
            bracket = Bracket(float(grid[i]), float(grid[i + 1]), float(vals[i]), float(vals[i + 1]))
            roots.append(find_root(lambda x: float(f(x)), bracket, tol))
    return roots


def linear_grid(lo: float, hi: float, steps: int) -> np.ndarray:
    """steps evenly spaced points lo + i*(hi - lo)/(steps - 1); [lo] for one step."""
    if steps == 1:
        return np.array([float(lo)])
    return np.arange(steps) * ((hi - lo) / (steps - 1)) + lo


def poly_roots(coeffs: Sequence[complex]) -> np.ndarray:
    """All roots of sum(coeffs[i] * x^(n-i)) via the companion matrix.

    Coefficients are highest degree first.  The leading coefficient must be
    nonzero.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size < 2:
        raise LeadingZero("need a polynomial of degree >= 1")
    if c[0] == 0:
        raise LeadingZero("leading coefficient is zero")
    n = c.size - 1
    companion = np.zeros((n, n), dtype=complex)
    companion[0, :] = -c[1:] / c[0]
    if n > 1:
        companion[1:, :-1] = np.eye(n - 1)
    return eig_dense(companion)


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
    j = np.arange(n_out + 1)
    t = f[np.abs(j[:, None] - j)] + f[j[:, None] + j]
    t[0] = f[: n_out + 1]
    return t
