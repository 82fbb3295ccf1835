"""Truncated Floquet-Bloch operators and their spectra.

The linearization about a periodic wave decomposes into a family of
operators indexed by the Floquet exponent xi in [0, 1/2]; each is
discretized in the Fourier basis over a symmetric mode window -N..N
(Hill's method; Deconinck & Kutz, J. Comput. Phys. 219, 2006) and handed
to a dense eigensolver.  One assembly serves all three equation kinds:
each kind supplies a real core matrix (one entry per mode pair for the
scalar kinds, a 2 x 2 block per mode pair for the bidirectional system,
whose unknowns are ordered u_n, q_n per mode) that is scaled row by row
by n+xi.  The Bloch matrix is i times that real matrix R, so every
eigensolve, which goes through `spectrum`, is a real one of R, taken in
graded row order (largest |n+xi| first).  A bidirectional slice is also
taken to the flat-state basis, mode by mode: the similarity
V_n = diag(d_n, 1) [[1, 1], [1, -1]], d_n = m(k(n+xi)), diagonalises the
a = 0 operator, and a mode with |m| <= RESONANCE_TOL keeps d_n = 1.
The module also tracks eigenvalue collisions of the flat-state
frequencies of every kind, sampled as one (branch x xi) table per wave
number, and cross-validates the reduced pencils against the discrete
spectra.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionSymbol, eval_m, group_speed
from .errors import EigenFailure, InvalidArgument, MatchFailure
from .numerics import cos_to_full, opposite_signs, scan_roots
from .pencil import build_pencil
from .stokes import RESONANCE_TOL, EquationKind, WaveSolution, newton_wave

#: eigenvalues below this modulus are snapped to zero for multiplicity counts
ZERO_SNAP = 1e-12
#: eigenvalues within this modulus of the origin count towards its multiplicity
ZERO_RADIUS = 1e-8
#: xi samples over (0, 1/2] of a collision scan
COLLISION_XI_STEPS = 512
#: width of the k bracket at which min_collision_k stops bisecting
COLLISION_K_TOL = 1e-9


@dataclass(frozen=True)
class BlochOperator:
    """One Floquet-Bloch slice; the kind, k and amplitude are the wave's."""

    xi: float
    n_modes: int
    real: np.ndarray  # R = M/i
    wave: WaveSolution

    @property
    def matrix(self) -> np.ndarray:
        """The complex Bloch matrix M = i R."""
        return 1j * self.real


@dataclass(frozen=True)
class SpectrumSlice:
    xi: float
    eigenvalues: np.ndarray
    max_re: float
    near_origin: np.ndarray


def assemble(
    kind: EquationKind,
    sym: DispersionSymbol,
    wave: WaveSolution,
    xi: float,
    n_modes: int,
) -> BlochOperator:
    """Bloch matrix of the linearization about the wave at Floquet exponent xi.

    Every kind is i(n+xi) times a real core, row by row; the operator
    stores the real matrix R = M/i.  Row n, column m (n, m in -N..N,
    w = full wave coefficients, s = n+xi):
    BBM:  c d_nm - m(ks) (d_nm + 2 w_{n-m}),
    KdV:  (m(ks) - c) d_nm + 2 w_{n-m},
    bidirectional, unknowns (u_n, q_n) interleaved per mode, a 2 x 2
    block per mode pair:  [[c d_nm, m^2(ks) d_nm], [d_nm + 2 w_{n-m}, c d_nm]],
    both rows of the block scaled by n+xi.

    ``sym`` must be the symbol object the wave was solved with, since
    ``spectrum`` reads ``wave.sym``; another one raises InvalidArgument.
    """
    if wave.kind is not kind:
        raise InvalidArgument(f"wave solves {wave.kind}, requested {kind}")
    if sym is not wave.sym:
        raise InvalidArgument("sym is not the symbol the wave was solved with")
    if n_modes < wave.n_modes:
        raise InvalidArgument(f"operator truncation {n_modes} below the wave's {wave.n_modes}")
    k, c = wave.k, wave.c
    dim = 2 * n_modes + 1
    eye = np.eye(dim)
    modes = np.arange(-n_modes, n_modes + 1)
    shifted = modes + xi
    mvals = eval_m(sym, k * shifted)
    # coefficients over the doubled window so every difference n-m resolves;
    # entries beyond the wave's truncation are zero (no aliasing wrap)
    w = cos_to_full(wave.u_hat, 2 * n_modes)
    conv = 2.0 * w[np.subtract.outer(modes, modes) + 2 * n_modes]
    if kind is EquationKind.BBM:
        real = shifted[:, None] * (c * eye - mvals[:, None] * (eye + conv))
    elif kind is EquationKind.KDV:
        real = shifted[:, None] * ((mvals - c)[:, None] * eye + conv)
    else:
        real = np.zeros((2 * dim, 2 * dim))  # filled in place: no permuted copy
        blocks = real.reshape(dim, 2, dim, 2)  # [n, u/q row, m, u/q column]
        blocks[:, 1, :, 0] = shifted[:, None] * (eye + conv)
        diag = np.arange(dim)
        blocks[diag, 0, diag, 0] = blocks[diag, 1, diag, 1] = shifted * c
        # float_power rounds like the scalar m(ks)**2; numpy's x**2 is x*x
        blocks[diag, 0, diag, 1] = shifted * np.float_power(mvals, 2)
    return BlochOperator(xi, n_modes, real, wave)


def _graded_flat(op: BlochOperator) -> np.ndarray:
    """The matrix `spectrum` solves for a slice: R in graded order, and
    for the bidirectional kind in the flat-state basis, V^-1 R V.

    The order is a stable sort of each mode's |n+xi| repeated per unknown,
    so a mode's (u, q) pair stays adjacent, and the blocks of V act in
    place on the graded copy.  At a = 0 the result is
    diag(s(c + m), s(c - m)) per mode.
    """
    shifted = np.arange(-op.n_modes, op.n_modes + 1) + op.xi
    rows = np.argsort(-np.repeat(np.abs(shifted), op.real.shape[0] // shifted.size), kind="stable")
    graded = op.real[np.ix_(rows, rows)]
    if op.wave.kind.bidirectional:
        d = eval_m(op.wave.sym, op.wave.k * shifted)[rows[::2] // 2]
        d = np.where(np.abs(d) <= RESONANCE_TOL, 1.0, d)  # V_n singular at m = 0: rotate only
        blocks = graded.reshape(d.size, 2, d.size, 2)  # [n, u/q row, m, u/q column]
        u, q = blocks[..., 0], blocks[..., 1]
        u *= d  # right factor: columns (u d_m + q, u d_m - q)
        u += q
        q *= -2.0
        q += u
        u, q = blocks[:, 0], blocks[:, 1]
        u /= 2.0 * d[:, None, None]  # left factor: rows (u / d_n + q, u / d_n - q) / 2
        q *= 0.5
        u += q
        q *= -2.0
        q += u
    return graded


def spectrum(op: BlochOperator) -> SpectrumSlice:
    """Full spectrum of the truncated operator, sorted by (Re, Im).

    The eigenvalues mu of the real matrix R map to lambda = i mu.  A real
    mu, the neutrally stable case, gives Re lambda = +0.0 exactly, so a
    stable slice is ordered by Im alone.  R is solved in a graded row
    order, largest |n+xi| first (a similarity by permutation), and a
    bidirectional slice also in the flat-state basis, where the a = 0
    operator is diagonal (see `_graded_flat`; a mode with m(k(n+xi))
    within RESONANCE_TOL of 0 is only rotated): LAPACK's nonsymmetric QR
    iteration finishes sooner on both.  The near-origin cluster is
    measured with the symbol the wave was solved with.
    """
    try:
        mu = np.linalg.eigvals(_graded_flat(op))
    except np.linalg.LinAlgError as exc:  # non-finite entries or a LAPACK failure
        raise EigenFailure(str(exc)) from exc
    vals = (0.0 - mu.imag) + 1j * mu.real
    vals = vals[np.lexsort((vals.imag, vals.real))]
    vals = np.where(np.abs(vals) <= ZERO_SNAP, 0.0, vals)
    # matching radius 10 xi (1 + max group speed over the first modes)
    gmax = np.max(np.abs(group_speed(op.wave.sym, op.wave.k * (np.array([-1, 0, 1]) + op.xi))))
    near = vals[np.abs(vals) <= 10.0 * op.xi * (1.0 + gmax)]
    return SpectrumSlice(
        xi=op.xi,
        eigenvalues=vals,
        max_re=float(vals.real.max()),
        near_origin=near,
    )


def zero_multiplicity(sl: SpectrumSlice) -> int:
    """Number of eigenvalues of a spectrum within ZERO_RADIUS of the origin."""
    return int(np.sum(np.abs(sl.eigenvalues) <= ZERO_RADIUS))


# ---------------------------------------------------------------------------
# Flat-state eigenvalue collisions
# ---------------------------------------------------------------------------


def omega(sym: DispersionSymbol, k: float, n, xi, branch=-1):
    """Flat-state frequency (xi+n)(m(k) + branch m(k(xi+n))), elementwise
    over arrays of n, xi and branch: branch -1 is the scalar kinds'
    frequency (BBM's; KdV's is its negative, with the same collisions),
    +1 and -1 the two branches of the bidirectional system."""
    return (xi + n) * (eval_m(sym, k) + branch * eval_m(sym, k * (xi + n)))


@dataclass(frozen=True)
class CollisionPoint:
    xi: float
    n1: int
    n2: int
    branch1: int = -1  # +1/-1 for the bidirectional branches; -1 for scalar
    branch2: int = -1


@dataclass(frozen=True)
class _CollisionLayout:
    """The layout of a collision scan: the (mode, branch) combinations it
    compares, the sorted (mode, branch) rows they draw on (as columns
    n_col, s_col), the two rows of each combination, and the xi grid.
    It depends on the pairs only, not on k."""

    combos: list
    n_col: np.ndarray
    s_col: np.ndarray
    first: np.ndarray
    second: np.ndarray
    xi_grid: np.ndarray

    def sample(self, sym: DispersionSymbol, k: float) -> np.ndarray:
        """Frequency differences at k, a row per combination: the
        frequencies of every row sampled once, as one (branch x xi) table."""
        table = omega(sym, k, self.n_col, self.xi_grid, self.s_col)
        return table[self.first] - table[self.second]


def _collision_layout(kind: EquationKind, n_range, pairs) -> _CollisionLayout:
    ns = sorted(set(int(n) for n in n_range))
    if pairs is not None:
        pairs = [(int(n1), int(n2)) for n1, n2 in pairs]
    if kind.bidirectional:
        branches = [(n, s) for n in ns for s in (+1, -1)]
        # combinations of the sorted branches keep n1 <= n2
        wanted = None if pairs is None else {tuple(sorted(p)) for p in pairs}
        combos = [(b1, b2) for b1, b2 in itertools.combinations(branches, 2)
                  if wanted is None or (b1[0], b2[0]) in wanted]
    else:
        if pairs is None:
            pairs = list(itertools.combinations(ns, 2))
        selfs = [p for p in pairs if p[0] == p[1]]
        if selfs:
            raise InvalidArgument(f"mode pairs {selfs} pair a mode with itself")
        combos = [((n1, -1), (n2, -1)) for n1, n2 in pairs]
    rows, pick = np.unique(np.array(combos, dtype=int).reshape(-1, 2), axis=0,
                           return_inverse=True)
    first, second = pick.reshape(-1, 2).T
    n_col, s_col = rows.T[:, :, None]
    return _CollisionLayout(combos, n_col, s_col, first, second,
                           np.linspace(1e-6, 0.5, COLLISION_XI_STEPS))


def _end_zeros(vals: np.ndarray) -> np.ndarray:
    """Rows whose last sample (xi = 1/2) is zero to round-off."""
    return np.abs(vals[:, -1]) <= 1e-12 * np.maximum(1.0, np.max(np.abs(vals), axis=1))


def _collides(vals: np.ndarray) -> bool:
    """Whether collision_scan finds anything in these samples: a strict
    sign change (each is refined to a root) or a zero at xi = 1/2."""
    return bool(np.any(opposite_signs(vals[:, :-1], vals[:, 1:])) or np.any(_end_zeros(vals)))


def collision_scan(
    kind: EquationKind,
    sym: DispersionSymbol,
    k: float,
    n_range,
    pairs=None,
) -> tuple[CollisionPoint, ...]:
    """All xi in (0, 1/2] where two flat-state frequencies coincide.

    Scans every pair of mode indices from n_range (and both frequency
    branches for the bidirectional system) for sign changes of the
    difference.  The frequencies of every (mode, branch) that takes part
    are sampled once, as one (branch x xi) table; a pair's samples are
    the difference of two rows, and one scan refines the sign changes of
    all pairs.  Every kind is scanned: the scalar scan (BBM and KdV, whose
    frequencies differ only in sign) or the bidirectional one.  ``pairs``
    holds (n1, n2) as tuples or lists.  The scalar scan takes them in the
    order and orientation given and rejects a mode paired with itself,
    whose frequency difference vanishes identically; the bidirectional
    one keeps the branch combinations whose modes form one of ``pairs``
    in either order.  An exact zero counts as a collision only at the
    right endpoint xi = 1/2: the grid starts strictly inside the
    interval, and interior samples sit on the trivial common zero tail
    of all branches as xi -> 0.
    """
    layout = _collision_layout(kind, n_range, pairs)
    if not layout.combos:
        return ()
    first, second, n_col, s_col = layout.first, layout.second, layout.n_col, layout.s_col
    vals = layout.sample(sym, k)
    hits = scan_roots(lambda x: (omega(sym, k, n_col[first], x, s_col[first])
                                 - omega(sym, k, n_col[second], x, s_col[second])),
                      layout.xi_grid, vals, tol=1e-12)
    found: list[CollisionPoint] = []
    for ((n1, s1), (n2, s2)), xs, end in zip(layout.combos, hits, _end_zeros(vals).tolist()):
        merged: list[float] = []
        for x in sorted(xs + [float(layout.xi_grid[-1])] * end):
            if not merged or x - merged[-1] > 1e-9:
                merged.append(x)
        found += [CollisionPoint(x, n1, n2, s1, s2) for x in merged]
    found.sort(key=lambda p: (p.xi, p.n1, p.n2))
    return tuple(found)


def min_collision_k(
    sym: DispersionSymbol,
    pairs,
    k_range: tuple[float, float],
    kind: EquationKind = EquationKind.BBM,
) -> float | None:
    """Smallest k in k_range at which any of the given mode pairs collide.

    Bisection on the collision indicator; assumes the collision set of
    each pair is an up-set in k (true for monotone symbol families).
    The (mode, branch) rows, the pair indices and the xi grid are laid
    out once; each probe samples the frequency-difference table at its
    k and tests it for a strict sign change or a zero at xi = 1/2, which
    is exactly when ``collision_scan`` reports a collision there, so no
    root is refined.
    """
    lo, hi = k_range
    if not (0 < lo < hi):
        raise InvalidArgument("need 0 < k_lo < k_hi")
    layout = _collision_layout(kind, {n for p in pairs for n in p}, pairs)

    def has(k_val: float) -> bool:
        return bool(layout.combos) and _collides(layout.sample(sym, k_val))

    if has(lo):
        return lo
    if not has(hi):
        return None
    while hi - lo > COLLISION_K_TOL:
        mid = 0.5 * (lo + hi)
        if has(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Pencil cross-validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PencilMatchRow:
    xi: float
    a: float
    mismatch: float
    mismatch_over_xi: float
    max_re: float  # of the whole Bloch slice the pencil was matched against
    cluster_gap: float  # modulus gap between the matched cluster and the rest


@dataclass(frozen=True)
class PencilValidation:
    rows: tuple[PencilMatchRow, ...]
    decay_factors: tuple[float, ...]


def _best_assignment(hill_vals: np.ndarray, pencil_vals: np.ndarray) -> float:
    best = math.inf
    for perm in itertools.permutations(range(pencil_vals.size)):
        worst = max(
            abs(hill_vals[i] - pencil_vals[j]) for i, j in enumerate(perm)
        )
        best = min(best, worst)
    return best


def match_pencil_once(
    kind: EquationKind,
    sym: DispersionSymbol,
    k: float,
    xi: float,
    a: float,
    n_modes: int = 32,
) -> PencilMatchRow:
    """Match the reduced pencil's roots to the Bloch eigenvalues nearest
    the origin at one (xi, a).

    The row records the max distance of the best assignment, the same
    over xi, the slice's largest real part (the whole spectrum's, so a
    caller needs no second eigensolve for the stability sign) and the
    cluster gap: how far the first eigenvalue outside the matched cluster
    lies beyond it in modulus (inf when the cluster is the whole
    spectrum).  MatchFailure is raised when the mismatch exceeds half
    that gap, because the assignment is then not trustworthy.
    """
    wave = newton_wave(kind, sym, k, a, n_modes)
    sl = spectrum(assemble(kind, sym, wave, xi, n_modes))
    vals = sl.eigenvalues
    proots = build_pencil(kind, sym, k, xi, a).eigenvalues()
    count = proots.size
    order = np.argsort(np.abs(vals))
    near = vals[order[:count]]
    mismatch = _best_assignment(near, proots)
    # near-double roots inside the cluster are harmless: swapping them
    # does not change the metric
    gap = math.inf
    if vals.size > count:
        gap = float(np.abs(vals[order[count]]) - np.max(np.abs(near)))
        if mismatch > 0.5 * max(gap, 0.0):
            raise MatchFailure(
                f"assignment residual {mismatch:.3e} exceeds half the cluster "
                f"gap {gap:.3e} at (k={k}, xi={xi}, a={a})"
            )
    return PencilMatchRow(xi, a, mismatch, mismatch / xi, sl.max_re, gap)


def validate_pencil(
    kind: EquationKind,
    sym: DispersionSymbol,
    k: float,
    a_list,
    xi_list,
    n_modes: int = 32,
) -> PencilValidation:
    """Match pencil roots to Bloch eigenvalues along a shrinking sequence.

    Reports mismatch/xi per point and the successive decay factors; the
    pencil is validated when the relative mismatch decays superlinearly
    along (xi, a) -> 0.
    """
    rows = [match_pencil_once(kind, sym, k, float(xi), float(a), n_modes)
            for xi, a in zip(xi_list, a_list)]
    factors = tuple(
        rows[i].mismatch_over_xi / rows[i + 1].mismatch_over_xi
        for i in range(len(rows) - 1)
        if rows[i + 1].mismatch_over_xi > 0
    )
    return PencilValidation(rows=tuple(rows), decay_factors=factors)
