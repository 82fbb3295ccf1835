"""Reduced spectral pencils near the origin and their discriminants.

The action of the linearized operator on its near-zero spectral subspace
is represented by a pair of small matrices (B, I): 3x3 for the
unidirectional equation, 4x4 for the bidirectional system.  After the
substitution lambda -> -i*xi*L the characteristic polynomial in L has
real coefficients; its cubic/quartic discriminants decide modulational
stability for small Floquet exponent and amplitude.  The polynomial is one
real coefficient array, highest degree first, and every discriminant, the
quartic classifier and the tolerance take it in that form.

The matrices are exact finite formulas in (xi, a); the asymptotic
remainders are dropped by construction, so their validity domain is
small (xi, a) only.  One entry of the 4x4 pencil, position (1,4), is
taken from the projection inner products rather than the assembled
matrix display because only that value reproduces the instability index
threshold against the independent Floquet-Bloch oracle (the two
candidate transcriptions differ by a factor of two on one term).

Every stage runs on a whole k-grid at once: a k-array gives stacked
(n, size, size) pencils, coefficient rows and elementwise discriminants,
and a scalar k is a batch of one through the same code that returns
(size, size) matrices and scalars.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionSymbol, eval_m, jet_m
from .errors import DegenerateResonance, InvalidArgument, NotRescalable
from .indices import IndexReport, Verdict, ind
from .numerics import unbox
from .stokes import RESONANCE_TOL, EquationKind

#: admissible relative imaginary residue when realifying coefficients
IMAG_RESIDUE_TOL = 1e-10
#: the small Floquet exponent and amplitude at which a pencil verdict is taken
VERDICT_XI = VERDICT_A = 1e-2


@dataclass(frozen=True)
class ReducedPencil:
    """One pencil (k scalar, (size, size) matrices) or a stack of them
    (k an n-array, (n, size, size) matrices).  eigenvalues() takes a
    single pencil only."""

    k: float | np.ndarray
    xi: float
    a: float
    b_matrix: np.ndarray
    i_matrix: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        """Roots of det(B - lambda I); approximate near-origin spectrum."""
        if self.b_matrix.ndim != 2:
            raise InvalidArgument("expected a single pencil, got a stack")
        vals = np.linalg.eigvals(np.linalg.solve(self.i_matrix, self.b_matrix))
        order = np.lexsort((vals.imag, vals.real))
        return vals[order]


def _symbol_columns(sym: DispersionSymbol, k) -> tuple[np.ndarray, ...]:
    """(k, m(k), m'(k), m''(k), m(2k)) as 1-d arrays over the grid, from one
    array call of the jet; a one-k build is the same code on one element."""
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    if np.any(ks <= 0):
        raise InvalidArgument("k must be positive")
    return ks, *jet_m(sym, ks), eval_m(sym, 2 * ks)


def _check_resonance(ks: np.ndarray, resonant: np.ndarray) -> None:
    """Raise for the first resonant k in grid order."""
    if np.any(resonant):
        raise DegenerateResonance(f"resonant denominators at k={ks[np.argmax(resonant)]}")


def _pencil(k, xi, a, b, i_mat) -> ReducedPencil:
    if np.ndim(k) == 0:
        return ReducedPencil(k, xi, a, b[0], i_mat[0])
    return ReducedPencil(np.asarray(k), xi, a, b, i_mat)


# The entries are bit-identical to the same formulas in scalar Python
# arithmetic.  Imaginary entries are written 1j * (real product) with the
# factors in that order, since numpy's complex division by a real array
# rounds differently; squares that the formulas take with ** use
# float_power, which calls the same libm pow as a Python float.


def build_bbm_pencil(sym: DispersionSymbol, k, xi: float, a: float) -> ReducedPencil:
    """3x3 pencil for the unidirectional equation (stacked for a k-array)."""
    ks, m, mp, mpp, m2 = _symbol_columns(sym, k)
    _check_resonance(ks, (np.abs(m - 1.0) <= RESONANCE_TOL) | (np.abs(m - m2) <= RESONANCE_TOL))
    e = ks * mp + 0.5 * ks * ks * mpp
    ratio = m2 * (m - 1.0) / (m - m2)

    b = np.zeros((ks.size, 3, 3), dtype=complex)
    b[:, 2, 1] = a * m
    b[:, 0, 0] = b[:, 1, 1] = 1j * (xi * (-ks * mp))
    b[:, 2, 2] = 1j * (xi * (m - 1.0))
    b[:, 0, 2] = 1j * (-xi * a * (2.0 + ratio))
    b[:, 2, 0] = 1j * (-xi * a * (m + ks * mp + 0.5 * ratio))
    b[:, 0, 1] = xi * xi * e
    b[:, 1, 0] = -xi * xi * e

    i_mat = np.tile(np.eye(3, dtype=complex), (ks.size, 1, 1))
    s = m2 / (2.0 * (m - m2))
    i_mat[:, 0, 2] -= 2.0 * a * s
    i_mat[:, 2, 0] -= a * s
    return _pencil(k, xi, a, b, i_mat)


def build_bnesq_pencil(sym: DispersionSymbol, k, xi: float, a: float) -> ReducedPencil:
    """4x4 pencil for the bidirectional system (stacked for a k-array)."""
    ks, m, mp, mpp, m2 = _symbol_columns(sym, k)
    msq, m2sq = m * m, m2 * m2
    _check_resonance(
        ks, (np.abs(msq - 1.0) <= RESONANCE_TOL) | (np.abs(msq - m2sq) <= RESONANCE_TOL)
    )
    u2 = 0.5 * msq * m2sq / (msq - m2sq)
    e = ks * mp + 0.5 * ks * ks * mpp

    b = np.zeros((ks.size, 4, 4), dtype=complex)
    b[:, 3, 1] = -0.5 * a * m * (msq + 1.0)
    b[:, 0, 0] = b[:, 1, 1] = 1j * (xi * (-ks * mp))
    b[:, 2, 2] = b[:, 3, 3] = 1j * (xi * m)
    b[:, 2, 3] = b[:, 3, 2] = 1j * xi
    b[:, 0, 2] = 1j * (2.0 * xi * a / (msq + 1.0) * (u2 - msq))
    # (1,4): m*U2 + k m'(m^2+2)/2, from the projection inner products
    b[:, 0, 3] = 1j * (2.0 * xi * a / (msq + 1.0) * (m * u2 + 0.5 * ks * mp * (msq + 2.0)))
    b[:, 2, 0] = 1j * (xi * a * u2)
    b[:, 3, 0] = 1j * (xi * a * m * (0.5 * (msq + 3.0) + 2.0 * u2 + 2.0 * ks * m * mp))
    b[:, 0, 1] = xi * xi * e
    b[:, 1, 0] = -xi * xi * e

    i_mat = np.tile(np.eye(4, dtype=complex), (ks.size, 1, 1))
    w = 0.5 * a * (2.0 * u2 - msq - 2.0) / (msq + 1.0)
    i_mat[:, 0, 3] += 2.0 * w
    i_mat[:, 3, 0] += w * (msq + 1.0)
    v = 0.5 * ks * m * mp / np.float_power(msq + 1.0, 2)
    i_mat[:, 1, 3] = 1j * (-xi * a * 2.0 * v)
    i_mat[:, 3, 1] = 1j * (-xi * a * v * (msq + 1.0))
    return _pencil(k, xi, a, b, i_mat)


#: the pencil builder of each kind that has one
PENCILS = {EquationKind.BBM: build_bbm_pencil, EquationKind.BOUSSINESQ: build_bnesq_pencil}


def build_pencil(kind: EquationKind, sym: DispersionSymbol, k, xi: float, a: float) -> ReducedPencil:
    if kind not in PENCILS:
        raise InvalidArgument(
            "no reduced pencil for the KdV-type nonlinearity; use the index or "
            "the Floquet-Bloch spectrum directly"
        )
    return PENCILS[kind](sym, k, xi, a)


def _charpoly_monic(m: np.ndarray) -> np.ndarray:
    """Coefficients (highest degree first, monic) of det(lambda I - M) by
    the Faddeev-LeVerrier recursion, for M of shape (..., n, n)."""
    n = m.shape[-1]
    eye = np.eye(n, dtype=complex)
    coeffs = np.zeros(m.shape[:-2] + (n + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    mk = np.array(m, dtype=complex)
    ck = -np.trace(mk, axis1=-2, axis2=-1)
    coeffs[..., 1] = ck
    for j in range(2, n + 1):
        mk = m @ (mk + ck[..., None, None] * eye)
        ck = -np.trace(mk, axis1=-2, axis2=-1) / j
        coeffs[..., j] = ck
    return coeffs


def rescaled_charpoly(pencil: ReducedPencil) -> np.ndarray:
    """Real coefficients of det(I) det(L - G), highest degree first, with
    G = I^-1 B / (-i xi) and L = lambda/(-i xi): shape (size+1,) for one
    pencil, (n, size+1) with a row per k for a stack.

    Requires xi > 0.  Imaginary residues up to IMAG_RESIDUE_TOL (relative
    to the coefficient scale) are dropped; larger residues indicate a
    transcription or conditioning problem and raise, naming the first
    such k of a stack.
    """
    xi = pencil.xi
    if xi == 0.0:
        raise NotRescalable("rescaling requires xi > 0")
    g = np.linalg.solve(pencil.i_matrix, pencil.b_matrix) / (-1j * xi)
    p = np.expand_dims(np.linalg.det(pencil.i_matrix), -1) * _charpoly_monic(g)
    scale = np.max(np.abs(p), axis=-1)
    scale = np.where(scale == 0.0, 1.0, scale)
    residue = np.ravel(np.max(np.abs(p.imag), axis=-1))
    too_big = residue > IMAG_RESIDUE_TOL * np.ravel(scale)
    if np.any(too_big):
        first = np.argmax(too_big)
        raise NotRescalable(
            f"imaginary residue {residue[first]:.3e} exceeds "
            f"{IMAG_RESIDUE_TOL:.0e} * scale at k={np.ravel(pencil.k)[first]}"
        )
    return p.real.copy()


def _coefficients(p, degree: int) -> list[np.ndarray]:
    """The coefficient columns of p (a polynomial per row of its last axis,
    highest degree first) as float arrays.  One polynomial gives 0-d
    arrays, so it takes the same ufunc loops as a row of a stack."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != degree + 1:
        raise InvalidArgument(f"expected degree {degree}, got {p.shape[-1] - 1}")
    return [p[..., i] for i in range(degree + 1)]


def disc_cubic(p):
    """Discriminant of p3 L^3 + p2 L^2 + p1 L + p0 (elementwise);
    negative means a complex pair, i.e. modulational instability."""
    p3, p2, p1, p0 = _coefficients(p, 3)
    return unbox(
        18.0 * p3 * p2 * p1 * p0
        + p2 * p2 * p1 * p1
        - 4.0 * p2**3 * p0
        - 4.0 * p3 * p1**3
        - 27.0 * p3 * p3 * p0 * p0
    )


def quartic_disc(p):
    """Discriminant of p4 x^4 + p3 x^3 + p2 x^2 + p1 x + p0 (elementwise).
    Every power is a product of lower powers, not libm pow, which costs
    more than the rest of the sum over a stack; the terms keep their
    order.  Only the signs of the discriminants reach any output."""
    p4, p3, p2, p1, p0 = _coefficients(p, 4)
    p4_2, p3_2, p2_2, p1_2, p0_2 = p4 * p4, p3 * p3, p2 * p2, p1 * p1, p0 * p0
    p3_3, p2_3, p1_3 = p3_2 * p3, p2_2 * p2, p1_2 * p1
    return unbox(
        256 * (p4_2 * p4) * (p0_2 * p0)
        - 192 * p4_2 * p3 * p1 * p0_2
        - 128 * p4_2 * p2_2 * p0_2
        + 144 * p4_2 * p2 * p1_2 * p0
        - 27 * p4_2 * (p1_2 * p1_2)
        + 144 * p4 * p3_2 * p2 * p0_2
        - 6 * p4 * p3_2 * p1_2 * p0
        - 80 * p4 * p3 * p2_2 * p1 * p0
        + 18 * p4 * p3 * p2 * p1_3
        + 16 * p4 * (p2_2 * p2_2) * p0
        - 4 * p4 * p2_3 * p1_2
        - 27 * (p3_2 * p3_2) * p0_2
        + 18 * p3_3 * p2 * p1 * p0
        - 4 * p3_3 * p1_3
        - 4 * p3_2 * p2_3 * p0
        + p3_2 * p2_2 * p1_2
    )


def quartic_disc1(p):
    """8 p4 p2 - 3 p3^2."""
    p4, p3, p2, _, _ = _coefficients(p, 4)
    return unbox(8.0 * p4 * p2 - 3.0 * p3 * p3)


def quartic_disc2(p):
    """64 p4^3 p0 - 16 p4^2 p2^2 + 16 p4 p3^2 p2 - 16 p4^2 p3 p1 - 3 p3^4,
    its powers taken as products like quartic_disc's."""
    p4, p3, p2, p1, p0 = _coefficients(p, 4)
    p4_2, p3_2 = p4 * p4, p3 * p3
    return unbox(
        64.0 * (p4_2 * p4) * p0
        - 16.0 * p4_2 * (p2 * p2)
        + 16.0 * p4 * p3_2 * p2
        - 16.0 * p4_2 * p3 * p1
        - 3.0 * (p3_2 * p3_2)
    )


class QuarticClass(enum.Enum):
    TWO_REAL_ONE_PAIR = "TwoRealOnePair"
    FOUR_REAL = "FourReal"
    TWO_PAIRS = "TwoPairs"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class QuarticClassification:
    """One classification, or elementwise arrays of them (``category``
    then holds QuarticClass members in an object array)."""

    category: QuarticClass | np.ndarray
    disc: float | np.ndarray
    disc1: float | np.ndarray
    disc2: float | np.ndarray


def default_disc_tolerance(p):
    """1e-12 times the fourth power of the coefficient scale, for each
    polynomial (row of the last axis) of p.  np.power, not **, so that one
    polynomial's scalar scale takes the array loop of a stack."""
    scale = np.fmax(1e-300, np.max(np.abs(np.asarray(p, dtype=float)), axis=-1))
    return unbox(1e-12 * np.power(scale, 4))


#: QuarticClass by the codes classify_quartic computes
_CATEGORY_BY_CODE = np.array(
    [QuarticClass.DEGENERATE, QuarticClass.TWO_REAL_ONE_PAIR,
     QuarticClass.FOUR_REAL, QuarticClass.TWO_PAIRS],
    dtype=object,
)


def classify_quartic(p, tol=None) -> QuarticClassification:
    """Root-type classification of real quartics p (a polynomial per row of
    the last axis, highest degree first) by discriminant signs.

    disc<0: two real roots and one conjugate pair; disc>0 with disc1<0 and
    disc2<0: four real roots; disc>0 with disc1>0 or disc2>0: two
    conjugate pairs.  |disc|<=tol (or a boundary sign pattern) returns
    Degenerate rather than guessing, and so does a discriminant that
    overflows: the discriminants and the tolerance are evaluated with
    numpy's overflow and invalid-value warnings off, and a non-finite
    disc, disc1 or disc2 is Degenerate.
    """
    if np.any(_coefficients(p, 4)[0] == 0.0):
        raise InvalidArgument("quartic leading coefficient is zero")
    with np.errstate(over="ignore", invalid="ignore"):
        if tol is None:
            tol = default_disc_tolerance(p)
        d, d1, d2 = quartic_disc(p), quartic_disc1(p), quartic_disc2(p)
    finite = np.isfinite(d) & np.isfinite(d1) & np.isfinite(d2)
    code = np.select(
        [~finite | (np.abs(d) <= tol), d < 0.0, (d1 < 0.0) & (d2 < 0.0),
         (d1 > 0.0) | (d2 > 0.0)],
        [0, 1, 2, 3],
        default=0,
    )
    return QuarticClassification(category=_CATEGORY_BY_CODE[code], disc=d, disc1=d1, disc2=d2)


def bnesq_leading_quartic(sym: DispersionSymbol, k: float) -> np.ndarray:
    """Standard coefficients of the bidirectional rescaled polynomial in
    the joint limit xi -> 0, a = 0.

    The four limiting roots are the group speed (double) and -m(k) -/+ 1,
    so the polynomial is (L - k m')^2 ((L + m)^2 - 1); expanding it in
    closed form avoids any small-parameter cancellation.
    """
    m, mp, _ = jet_m(sym, k)
    gs = k * mp
    left = np.array([1.0, -2.0 * gs, gs * gs])  # (L - km')^2
    right = np.array([1.0, 2.0 * m, m * m - 1.0])  # (L + m)^2 - 1
    return np.convolve(left, right)


def bnesq_leading_discs(sym: DispersionSymbol, k: float) -> tuple[float, float]:
    """Leading-order (disc1, disc2) of the bidirectional pencil quartic."""
    p = bnesq_leading_quartic(sym, k)
    return quartic_disc1(p), quartic_disc2(p)


def pencil_verdicts(kind: EquationKind, sym: DispersionSymbol,
                    report: IndexReport) -> list[Verdict]:
    """pencil_verdict at every k of an index report over a k-array.

    The k whose index is not degenerate go through one stacked pencil
    build, rescaled charpoly and classification; the degree of the
    polynomial, not the kind, picks the rule.
    """
    live = report.verdict != Verdict.DEGENERATE
    verdicts = np.full(live.shape, Verdict.DEGENERATE, dtype=object)
    if np.any(live):
        p = rescaled_charpoly(build_pencil(kind, sym, report.k[live], VERDICT_XI, VERDICT_A))
        if p.shape[-1] == 4:  # a cubic, from the 3x3 pencil
            disc = disc_cubic(p)
            degenerate = np.abs(disc) <= default_disc_tolerance(p)
            unstable = disc < 0
        else:
            category = classify_quartic(p).category
            degenerate = category == QuarticClass.DEGENERATE
            unstable = category != QuarticClass.FOUR_REAL
        verdicts[live] = np.select([degenerate, unstable],
                                   [Verdict.DEGENERATE, Verdict.MODULATIONALLY_UNSTABLE],
                                   Verdict.STABLE_NEAR_ORIGIN)
    return verdicts.tolist()


def pencil_verdict(kind: EquationKind, sym: DispersionSymbol, k: float) -> Verdict:
    """Stability verdict from the reduced pencil discriminants.

    A cubic (3x3 pencil): sign of its discriminant.  A quartic (4x4):
    negative discriminant means unstable; positive goes through
    the root classification (four real roots: stable; two conjugate
    pairs: unstable).  A degenerate index (threshold wave number) is
    reported as Degenerate without consulting the discriminant.
    """
    return pencil_verdicts(kind, sym, ind(kind, sym, np.array([k])))[0]
