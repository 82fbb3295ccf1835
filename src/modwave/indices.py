"""Modulational instability indices and resonance location.

The resonance quantities i1, i2-, i2+, i3-, i3+ combine with an
equation-specific factor into a single index whose sign decides spectral
stability or instability near the origin of the spectral plane for
small-amplitude waves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionSymbol, eval_m, jet_m
from .errors import UnsupportedKind
from .numerics import Bracket, find_root
from .stokes import EquationKind

#: |value| below this counts as a degenerate zero of an index
DEGENERACY_TOL = 1e-12


class Verdict(enum.Enum):
    MODULATIONALLY_UNSTABLE = "ModulationallyUnstable"
    STABLE_NEAR_ORIGIN = "ModulationallyStableNearOrigin"
    INCONCLUSIVE = "Inconclusive"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class IndexReport:
    k: float
    i1: float
    i2m: float
    i2p: float
    i3m: float
    i3p: float
    i_eq: float
    ind: float
    verdict: Verdict
    resonance_flags: frozenset[str]


def _base(sym: DispersionSymbol, k: float) -> tuple[tuple[float, ...], float]:
    """base_indices together with the m(2k) they were computed from."""
    if k <= 0:
        raise ValueError("k must be positive")
    m, mp, mpp = jet_m(sym, k)
    m2 = eval_m(sym, 2 * k)
    i1 = 2.0 * mp + k * mpp
    gs = m + k * mp
    return (i1, gs - 1.0, gs + 1.0, m - m2, m + m2), m2


def base_indices(sym: DispersionSymbol, k: float) -> tuple[float, float, float, float, float]:
    """(i1, i2-, i2+, i3-, i3+) from exact derivative formulas.

    i1 = (k m)'' = 2m' + k m'';  i2∓ = (k m)' ∓ 1;  i3∓ = m(k) ∓ m(2k).
    """
    return _base(sym, k)[0]


def _combine(kind: EquationKind, base: tuple[float, ...], m2: float) -> float:
    """Equation index from the base indices and m(2k)."""
    _, i2m, i2p, i3m, i3p = base
    if kind is EquationKind.KDV:
        return 2.0 * i3m + i2m
    if kind is EquationKind.BBM:
        return 2.0 * i3m + m2 * i2m
    if kind is EquationKind.BOUSSINESQ:
        return 2.0 * i3m * i3p + m2**2 * i2m * i2p
    raise UnsupportedKind(str(kind))


def i_kdv(sym: DispersionSymbol, k: float) -> float:
    """2 i3- + i2-."""
    return _combine(EquationKind.KDV, *_base(sym, k))


def i_bbm(sym: DispersionSymbol, k: float) -> float:
    """2 i3- + m(2k) i2-."""
    return _combine(EquationKind.BBM, *_base(sym, k))


def i_bnesq(sym: DispersionSymbol, k: float) -> float:
    """2 i3- i3+ + m^2(2k) i2- i2+."""
    return _combine(EquationKind.BOUSSINESQ, *_base(sym, k))


def equation_index(kind: EquationKind, sym: DispersionSymbol, k: float) -> float:
    return _combine(kind, *_base(sym, k))


def ind(kind: EquationKind, sym: DispersionSymbol, k: float) -> IndexReport:
    """Full index evaluation with verdict and active resonance flags.

    The instability index is the quotient i1*i2-*i_eq/i3- (unidirectional)
    or i1*i2-*i2+*i_eq/(i3-*i3+) (bidirectional); a negative value means
    modulational instability, a positive one stability near the spectral
    origin -- except for the bidirectional system, where positivity is
    inconclusive and the quartic classification of the reduced pencil
    settles the verdict.
    """
    base, m2 = _base(sym, k)
    i1, i2m, i2p, i3m, i3p = base
    i_eq = _combine(kind, base, m2)

    flags = set()
    if abs(i1) <= DEGENERACY_TOL:
        flags.add("R1")
    if abs(i2m) <= DEGENERACY_TOL or (
        kind is EquationKind.BOUSSINESQ and abs(i2p) <= DEGENERACY_TOL
    ):
        flags.add("R2")
    if abs(i3m) <= DEGENERACY_TOL or (
        kind is EquationKind.BOUSSINESQ and abs(i3p) <= DEGENERACY_TOL
    ):
        flags.add("R3")
    if abs(i_eq) <= DEGENERACY_TOL:
        flags.add("R4")

    if kind is EquationKind.BOUSSINESQ:
        denom = i3m * i3p
        numer = i1 * i2m * i2p * i_eq
    else:
        denom = i3m
        numer = i1 * i2m * i_eq

    if abs(denom) <= DEGENERACY_TOL:
        value = math.nan
        verdict = Verdict.DEGENERATE
    else:
        value = numer / denom
        if abs(value) <= DEGENERACY_TOL:
            verdict = Verdict.DEGENERATE
        elif value < 0:
            verdict = Verdict.MODULATIONALLY_UNSTABLE
        elif kind is EquationKind.BOUSSINESQ:
            verdict = Verdict.INCONCLUSIVE
        else:
            verdict = Verdict.STABLE_NEAR_ORIGIN

    return IndexReport(
        k=k, i1=i1, i2m=i2m, i2p=i2p, i3m=i3m, i3p=i3p, i_eq=i_eq,
        ind=value, verdict=verdict, resonance_flags=frozenset(flags),
    )


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
    samples: int = 400,
) -> ResonanceScan:
    """Locate sign changes of the resonance quantities by bisection.

    R1: i1; R2: i2- (and i2+ for the bidirectional system); R3: i3-
    (and i3+); R4: the equation index.  A quantity that vanishes
    identically on the grid is reported as degenerate everywhere.
    """
    k_lo, k_hi = k_range
    if not (0 < k_lo < k_hi):
        raise ValueError("need 0 < k_lo < k_hi")
    grid = np.linspace(k_lo, k_hi, samples)

    def fns():
        yield "R1", lambda k: base_indices(sym, k)[0]
        yield "R2", lambda k: base_indices(sym, k)[1]
        if kind is EquationKind.BOUSSINESQ:
            yield "R2", lambda k: base_indices(sym, k)[2]
        yield "R3", lambda k: base_indices(sym, k)[3]
        if kind is EquationKind.BOUSSINESQ:
            yield "R3", lambda k: base_indices(sym, k)[4]
        yield "R4", lambda k: equation_index(kind, sym, k)

    points: list[ResonancePoint] = []
    degenerate: set[str] = set()
    for label, f in fns():
        vals = np.array([f(float(kk)) for kk in grid])
        if np.max(np.abs(vals)) <= DEGENERACY_TOL:
            degenerate.add(label)
            continue
        for i in range(grid.size - 1):
            if vals[i] == 0.0:
                points.append(ResonancePoint(float(grid[i]), label))
            elif vals[i] * vals[i + 1] < 0.0:
                root = find_root(
                    f, Bracket(float(grid[i]), float(grid[i + 1]), vals[i], vals[i + 1]),
                    tol=1e-10,
                )
                points.append(ResonancePoint(root, label))
    points.sort(key=lambda p: (p.k, p.kind))
    return ResonanceScan(points=tuple(points), degenerate_everywhere=frozenset(degenerate))


def critical_wavenumber(
    kind: EquationKind,
    sym: DispersionSymbol,
    k_range: tuple[float, float],
    samples: int = 400,
) -> float | None:
    """Smallest sign change of the instability index in the range, if any."""
    k_lo, k_hi = k_range
    if not (0 < k_lo < k_hi):
        raise ValueError("need 0 < k_lo < k_hi")
    grid = np.linspace(k_lo, k_hi, samples)

    def f(k: float) -> float:
        return ind(kind, sym, float(k)).ind

    vals = np.array([f(float(kk)) for kk in grid])
    for i in range(grid.size - 1):
        if vals[i] == 0.0:
            return float(grid[i])
        if vals[i] * vals[i + 1] < 0.0:
            return find_root(
                f, Bracket(float(grid[i]), float(grid[i + 1]), vals[i], vals[i + 1]),
                tol=1e-12,
            )
    return None
