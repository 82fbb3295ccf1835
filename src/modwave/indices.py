"""Modulational instability indices and resonance location.

The resonance quantities i1, i2-, i2+, i3-, i3+ combine with an
equation-specific factor into a single index whose sign decides spectral
stability or instability near the origin of the spectral plane for
small-amplitude waves.  Every quantity is computed elementwise over a
k-array in one pass; a scalar k is a 0-d (or one-element) call of the
same code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

from .dispersion import DispersionSymbol, eval_m, jet_m
from .errors import InvalidArgument
from .numerics import scan_roots, unbox
from .stokes import EquationKind

#: |value| below this counts as a degenerate zero of an index
DEGENERACY_TOL = 1e-12
#: k samples of a resonance scan, and of a threshold scan by default
SCAN_SAMPLES = 400


class Verdict(enum.Enum):
    MODULATIONALLY_UNSTABLE = "ModulationallyUnstable"
    STABLE_NEAR_ORIGIN = "ModulationallyStableNearOrigin"
    INCONCLUSIVE = "Inconclusive"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class IndexReport:
    """The index at one k (floats, a Verdict and a frozenset of flags), or
    columns over a k-grid (arrays; verdicts and flags in object arrays).
    Indexing a column report gives the report at those grid positions."""

    k: float | np.ndarray
    i1: float | np.ndarray
    i2m: float | np.ndarray
    i2p: float | np.ndarray
    i3m: float | np.ndarray
    i3p: float | np.ndarray
    i_eq: float | np.ndarray
    ind: float | np.ndarray
    verdict: Verdict | np.ndarray
    resonance_flags: frozenset[str] | np.ndarray

    def __getitem__(self, rows) -> "IndexReport":
        def pick(column):
            x = column[rows]
            return float(x) if isinstance(x, np.floating) else x

        return IndexReport(*(pick(getattr(self, f.name)) for f in fields(self)))


#: Verdict by the codes ind computes
_VERDICTS = np.array(
    [Verdict.DEGENERATE, Verdict.MODULATIONALLY_UNSTABLE, Verdict.INCONCLUSIVE,
     Verdict.STABLE_NEAR_ORIGIN],
    dtype=object,
)
#: resonance flag sets by bit code (R1 = 1, R2 = 2, R3 = 4, R4 = 8)
_FLAG_SETS = np.empty(16, dtype=object)
_FLAG_SETS[:] = [frozenset(f"R{b + 1}" for b in range(4) if code >> b & 1) for code in range(16)]


def _base(sym: DispersionSymbol, k) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """base_indices together with the m(2k) they were computed from,
    elementwise over k."""
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0):
        raise InvalidArgument("k must be positive")
    m, mp, mpp = jet_m(sym, k)
    with np.errstate(over="ignore"):  # an overflow is an inf of the sign an index reads
        m2 = eval_m(sym, 2 * k)
        i1 = 2.0 * mp + k * mpp
        gs = m + k * mp
    return (i1, gs - 1.0, gs + 1.0, m - m2, m + m2), m2


def base_indices(sym: DispersionSymbol, k):
    """(i1, i2-, i2+, i3-, i3+) from exact derivative formulas, elementwise.

    i1 = (k m)'' = 2m' + k m'';  i2∓ = (k m)' ∓ 1;  i3∓ = m(k) ∓ m(2k).
    """
    return tuple(unbox(x) for x in _base(sym, k)[0])


def _columns(kind: EquationKind, sym: DispersionSymbol, k):
    """(i1, i2-, i2+, i3-, i3+, i_eq, ind, denominator of ind), elementwise.

    i_eq is 2 i3- + i2- (KdV), 2 i3- + m(2k) i2- (BBM) or
    2 i3- i3+ + m(2k)^2 i2- i2+ (bidirectional).  ind is nan where the
    denominator is degenerate.
    """
    base, m2 = _base(sym, k)
    i1, i2m, i2p, i3m, i3p = base
    with np.errstate(over="ignore"):  # an overflow is an inf of the sign the verdict reads
        if kind.bidirectional:
            i_eq = 2.0 * i3m * i3p + np.float_power(m2, 2) * i2m * i2p
            denom = i3m * i3p
            numer = i1 * i2m * i2p * i_eq
        else:
            i_eq = 2.0 * i3m + (m2 * i2m if kind is EquationKind.BBM else i2m)
            denom = i3m
            numer = i1 * i2m * i_eq
    with np.errstate(all="ignore"):
        value = np.where(np.abs(denom) <= DEGENERACY_TOL, np.nan, numer / denom)
    return (*base, i_eq, value, denom)


def ind(kind: EquationKind, sym: DispersionSymbol, k) -> IndexReport:
    """Full index evaluation with verdict and active resonance flags.

    The instability index is the quotient i1*i2-*i_eq/i3- (unidirectional)
    or i1*i2-*i2+*i_eq/(i3-*i3+) (bidirectional); a negative value means
    modulational instability, a positive one stability near the spectral
    origin -- except for the bidirectional system, where positivity is
    inconclusive and the quartic classification of the reduced pencil
    settles the verdict.  A k-array gives one report of columns over the
    grid; a scalar k is a one-element call of the same code.
    """
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    i1, i2m, i2p, i3m, i3p, i_eq, value, denom = _columns(kind, sym, ks)

    def small(x: np.ndarray) -> np.ndarray:
        return np.abs(x) <= DEGENERACY_TOL

    flags = (small(i1) * 1 + (small(i2m) | (kind.bidirectional & small(i2p))) * 2
             + (small(i3m) | (kind.bidirectional & small(i3p))) * 4 + small(i_eq) * 8)
    code = np.where(small(denom) | small(value), 0,
                    np.where(value < 0.0, 1, 2 if kind.bidirectional else 3))
    report = IndexReport(ks, i1, i2m, i2p, i3m, i3p, i_eq, value, _VERDICTS[code],
                         _FLAG_SETS[flags])
    return report[0] if np.ndim(k) == 0 else report


@dataclass(frozen=True)
class ResonancePoint:
    k: float
    kind: str  # R1..R4


@dataclass(frozen=True)
class ResonanceScan:
    points: tuple[ResonancePoint, ...]
    degenerate_everywhere: frozenset[str]  # indices that vanish on the whole grid


def find_resonances(
    sym: DispersionSymbol,
    kind: EquationKind,
    k_range: tuple[float, float],
) -> ResonanceScan:
    """Locate sign changes of the resonance quantities.

    R1: i1; R2: i2- (and i2+ for the bidirectional system); R3: i3-
    (and i3+); R4: the equation index.  A quantity that vanishes
    identically on the grid is reported as degenerate everywhere; the
    others are one table, a row per quantity, scanned at once.
    """
    k_lo, k_hi = k_range
    if not (0 < k_lo < k_hi):
        raise InvalidArgument("need 0 < k_lo < k_hi")
    grid = np.linspace(k_lo, k_hi, SCAN_SAMPLES)
    # columns of _columns: i1, i2-, [i2+], i3-, [i3+], i_eq
    cols = np.array([0, 1, 2, 3, 4, 5] if kind.bidirectional else [0, 1, 3, 5])
    label = ("R1", "R2", "R2", "R3", "R3", "R4")  # by column
    table = np.array(_columns(kind, sym, grid))[cols]
    flat = np.max(np.abs(table), axis=1) <= DEGENERACY_TOL
    live = cols[~flat]
    # row r of f's argument holds the points of column live[r]
    roots = scan_roots(lambda k: np.array(_columns(kind, sym, k))[live, np.arange(live.size)],
                       grid, table[~flat], tol=1e-10, zero_tol=0.0)
    points = [ResonancePoint(root, label[c]) for c, hits in zip(live.tolist(), roots) for root in hits]
    points.sort(key=lambda p: (p.k, p.kind))
    degenerate = {label[c] for c in cols[flat].tolist()}
    return ResonanceScan(points=tuple(points), degenerate_everywhere=frozenset(degenerate))


def critical_wavenumber(
    kind: EquationKind,
    sym: DispersionSymbol,
    k_range: tuple[float, float],
    samples: int = SCAN_SAMPLES,
) -> float | None | list[float | None]:
    """Smallest sign change of the instability index in the range, if any.

    A sign change across which the index denominator (i3-, or i3- i3+)
    changes sign too is a pole of the quotient, not a threshold, and is
    skipped.  A symbol with a parameter per row, such as
    ``fractional_symbol(alphas[:, None])``, gives a list with the
    threshold of each row; one scan refines the brackets of all rows.
    """
    k_lo, k_hi = k_range
    if not (0 < k_lo < k_hi):
        raise InvalidArgument("need 0 < k_lo < k_hi")
    grid = np.linspace(k_lo, k_hi, samples)
    *_, value, denom = _columns(kind, sym, grid)
    first = [hits[0] if hits else None for hits in scan_roots(
        lambda k: _columns(kind, sym, k)[6], grid, np.atleast_2d(value), tol=1e-12, zero_tol=0.0,
        poles=denom)]
    return first if value.ndim == 2 else first[0]
