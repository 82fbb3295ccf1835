"""Small-amplitude periodic traveling waves.

Closed-form Stokes expansions for the unidirectional (BBM/KdV-type) and
bidirectional (regularized-Boussinesq-type) equations, and a
Newton-Galerkin solver of the exact traveling-wave equations in even
cosine space that serves as an independent oracle for the expansions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionSymbol, eval_m
from .errors import DegenerateResonance, NoConvergence
from .numerics import cos_product_matrix, cos_square

#: resonant denominators smaller than this are refused
RESONANCE_TOL = 1e-10


class EquationKind(enum.Enum):
    KDV = "kdv"
    BBM = "bbm"
    BOUSSINESQ = "boussinesq"


@dataclass(frozen=True)
class StokesExpansion:
    """Expansion coefficients of the wave profile and speed in amplitude.

    The u-profile is  mean + cos1*a*cos(z) + a^2*(u2_mean + u2_cos2*cos(2z))
    with mean = mean0 + mean_b*(b1-b2); the q-channel fields are populated
    only for the bidirectional system (the scalar equations use b1 as
    their single mean parameter and b2 = 0).  The speed is
    c0 + c_b*(b1-b2) + c2*a^2.  Remainder O(a(a^2+b)) dropped.
    """

    kind: EquationKind
    k: float
    a: float
    b1: float
    b2: float
    mean0: float
    mean_b: float
    cos1: float
    cos1_b: float
    u2_mean: float
    u2_cos2: float
    c0: float
    c_b: float
    c2: float
    q0_b1: float | None = None
    q0_b2: float | None = None
    q1: float | None = None
    q1_b: float | None = None
    q2_mean: float | None = None
    q2_cos2: float | None = None

    @property
    def b(self) -> float:
        return self.b1 - self.b2

    def speed(self) -> float:
        return self.c0 + self.c_b * self.b + self.c2 * self.a**2

    def u_cosines(self, n_modes: int) -> np.ndarray:
        """Cosine coefficients 0..n_modes of the truncated expansion."""
        a, b = self.a, self.b
        out = np.zeros(n_modes + 1)
        out[0] = self.mean0 + self.mean_b * b + a * a * self.u2_mean
        if n_modes >= 1:
            out[1] = a * (self.cos1 + self.cos1_b * b)
        if n_modes >= 2:
            out[2] = a * a * self.u2_cos2
        return out

    def q_cosines(self, n_modes: int) -> np.ndarray:
        if self.q1 is None:
            raise ValueError("q-channel only exists for the bidirectional system")
        a = self.a
        out = np.zeros(n_modes + 1)
        out[0] = self.q0_b1 * self.b1 + self.q0_b2 * self.b2 + a * a * self.q2_mean
        if n_modes >= 1:
            out[1] = a * (self.q1 + self.q1_b * self.b)
        if n_modes >= 2:
            out[2] = a * a * self.q2_cos2
        return out


def _check_unidirectional_denominators(mk: float, m2k: float) -> None:
    if abs(mk - 1.0) <= RESONANCE_TOL:
        raise DegenerateResonance(f"m(k)={mk} too close to 1 (mean-flow resonance)")
    if abs(mk - m2k) <= RESONANCE_TOL:
        raise DegenerateResonance(
            f"m(k)={mk} too close to m(2k)={m2k} (second harmonic resonance)"
        )


def bbm_expansion(sym: DispersionSymbol, k: float, a: float, b: float = 0.0) -> StokesExpansion:
    """Stokes coefficients for the unidirectional equation with nonlinearity
    inside the multiplier."""
    mk, m2k = eval_m(sym, k), eval_m(sym, 2 * k)
    _check_unidirectional_denominators(mk, m2k)
    r2 = m2k / (mk - m2k)
    return StokesExpansion(
        kind=EquationKind.BBM,
        k=k, a=a, b1=b, b2=0.0,
        mean0=0.0,
        mean_b=mk - 1.0,
        cos1=1.0,
        cos1_b=0.0,
        u2_mean=0.5 / (mk - 1.0),
        u2_cos2=0.5 * r2,
        c0=mk,
        c_b=2.0 * mk * (mk - 1.0),
        c2=mk * (1.0 / (mk - 1.0) + 0.5 * r2),
    )


def kdv_expansion(sym: DispersionSymbol, k: float, a: float) -> StokesExpansion:
    """Stokes coefficients for the KdV-type equation (nonlinearity outside
    the multiplier), at zero mean parameter; used as the Newton initial
    guess."""
    mk, m2k = eval_m(sym, k), eval_m(sym, 2 * k)
    _check_unidirectional_denominators(mk, m2k)
    return StokesExpansion(
        kind=EquationKind.KDV,
        k=k, a=a, b1=0.0, b2=0.0,
        mean0=0.0,
        mean_b=0.0,
        cos1=1.0,
        cos1_b=0.0,
        u2_mean=0.5 / (mk - 1.0),
        u2_cos2=0.5 / (mk - m2k),
        c0=mk,
        c_b=0.0,
        c2=1.0 / (mk - 1.0) + 0.5 / (mk - m2k),
    )


def bnesq_expansion(
    sym: DispersionSymbol, k: float, a: float, b1: float = 0.0, b2: float = 0.0
) -> StokesExpansion:
    """Stokes coefficients for the bidirectional system (u, q channels)."""
    mk, m2k = eval_m(sym, k), eval_m(sym, 2 * k)
    mk2, m2k2 = mk * mk, m2k * m2k
    # the coefficients divide by m(k) and m(2k)^2, and Newton's step by c ~ m(k)
    for name, value in (("m(k)", mk), ("m(2k)", m2k)):
        if abs(value) <= RESONANCE_TOL:
            raise DegenerateResonance(f"{name}={value} too close to 0 at k={k}")
    if abs(mk2 - 1.0) <= RESONANCE_TOL:
        raise DegenerateResonance(f"m^2(k)={mk2} too close to 1")
    if abs(mk2 - m2k2) <= RESONANCE_TOL:
        raise DegenerateResonance(
            f"m^2(k)={mk2} too close to m^2(2k)={m2k2} (second harmonic resonance)"
        )
    u0_coeff = mk2 - 1.0
    cap_u0 = 0.5 * mk2 / (mk2 - 1.0)
    cap_u2 = 0.5 * mk2 * m2k2 / (mk2 - m2k2)
    return StokesExpansion(
        kind=EquationKind.BOUSSINESQ,
        k=k, a=a, b1=b1, b2=b2,
        mean0=0.0,
        mean_b=u0_coeff,
        cos1=mk,
        cos1_b=mk * (mk2 - 1.0),
        u2_mean=cap_u0,
        u2_cos2=cap_u2,
        c0=mk,
        c_b=mk * (mk2 - 1.0),
        c2=mk * (cap_u0 + 0.5 * cap_u2),
        q0_b1=-(mk2 - 1.0) / mk,
        q0_b2=mk * (mk2 - 1.0),
        q1=-1.0,
        q1_b=-2.0 * (mk2 - 1.0),
        q2_mean=-mk * cap_u0,
        q2_cos2=-mk * cap_u2 / m2k2,
    )


def expansion_for(kind: EquationKind, sym: DispersionSymbol, k: float, a: float) -> StokesExpansion:
    if kind is EquationKind.BBM:
        return bbm_expansion(sym, k, a)
    if kind is EquationKind.KDV:
        return kdv_expansion(sym, k, a)
    return bnesq_expansion(sym, k, a)


@dataclass(frozen=True)
class WaveSolution:
    """Galerkin-truncated traveling wave in even cosine space."""

    kind: EquationKind
    sym: DispersionSymbol
    k: float
    a: float
    n_modes: int
    u_hat: np.ndarray
    c: float
    residual: float
    q_hat: np.ndarray | None = None
    iterations: int = 0


def _pin_value(kind: EquationKind, sym: DispersionSymbol, k: float, a: float) -> float:
    # first cosine coefficient of u fixed to its Stokes value
    return a * eval_m(sym, k) if kind is EquationKind.BOUSSINESQ else a


def _newton_system(kind: EquationKind, mvals: np.ndarray, k: float, pin: float):
    """The residual and the Newton step of one kind, for the multiplier
    values m(kn), n = 0..n_modes, and the pinned value of u_hat[1].

    Every step refills one (n_modes+2)-square bordered system allocated
    here, dense from the Toeplitz-plus-Hankel multiplication table and the
    diagonal multiplier, and solves it.
    """
    n = mvals.size
    n_modes = n - 1
    ident = np.eye(n)
    # n rows, then the pin row; each step writes every entry that depends on
    # the state, the rest are set here
    jac = np.zeros((n + 1, n + 1))
    rhs = np.empty(n + 1)

    def solve():
        try:
            return np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateResonance(f"singular Newton system at k={k}: {exc}") from exc

    if kind is EquationKind.BOUSSINESQ:
        m2vals = mvals**2
        jac[-1, 1] = -m2vals[1]

        def residual(u, q, c):
            return np.concatenate([c * u + m2vals * q, c * q + u + cos_square(u, n_modes)])

        # Jacobian [[cI, M^2, u], [A, cI, q]] with A = I + 2 conv(u), M^2 = diag(m^2),
        # bordered by the pin row.  Eliminating du = (-r1 - M^2 dq - u dc)/c through
        # c, not through M^2 (whose entries decay and may vanish), leaves
        # [[c^2 I - A M^2, c q - A u], [-m(k)^2 e1, -u1]] [dq; dc] = [A r1 - c r2; r1[1] - c r3]
        def step(u, q, c, res):
            if not (math.isfinite(c) and c != 0.0):
                raise DegenerateResonance(
                    f"Newton speed c={c} at k={k}: the bidirectional step divides by c")
            r1, r2 = res[:n], res[n:]
            amat = ident + 2.0 * cos_product_matrix(u, n_modes)
            jac[:-1, :-1] = c * c * ident - amat * m2vals
            jac[:-1, -1] = c * q - amat @ u
            jac[-1, -1] = -u[1]
            rhs[:-1] = amat @ r1 - c * r2
            rhs[-1] = r1[1] - c * (u[1] - pin)
            reduced = solve()
            du = (-r1 - m2vals * reduced[:-1] - u * reduced[-1]) / c
            return np.concatenate([du, reduced])

        return residual, step

    jac[-1, 1] = 1.0
    if kind is EquationKind.BBM:  # nonlinearity inside the multiplier

        def residual(u, q, c):
            return mvals * (u + cos_square(u, n_modes)) - c * u

        def refill(u, c):
            conv = cos_product_matrix(u, n_modes)
            jac[:n, :n] = mvals[:, None] * (ident + 2.0 * conv) - c * ident
    else:  # KdV: nonlinearity outside the multiplier
        diag_m = np.diag(mvals)

        def residual(u, q, c):
            return mvals * u + cos_square(u, n_modes) - c * u

        def refill(u, c):
            conv = cos_product_matrix(u, n_modes)
            jac[:n, :n] = diag_m + 2.0 * conv - c * ident

    def step(u, q, c, res):
        refill(u, c)
        jac[:n, -1] = -u
        rhs[:-1] = -res
        rhs[-1] = -(u[1] - pin)
        return solve()

    return residual, step


def newton_wave(
    kind: EquationKind,
    sym: DispersionSymbol,
    k: float,
    a: float,
    n_modes: int = 32,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> WaveSolution:
    """Solve the exact traveling-wave equations by Newton iteration.

    The state is (u, [q,] c): the cosine coefficients of each channel
    (modes 0..n_modes; the q channel only for the bidirectional system)
    followed by the speed c.  The amplitude and phase are pinned by fixing
    the first cosine coefficient of u to its Stokes value.  Each kind
    supplies its residual and its step (`_newton_system`); the iteration
    itself is shared.  A step that is not finite is refused.
    """
    if n_modes < 8:
        raise ValueError("n_modes must be >= 8")
    if k <= 0:
        raise ValueError("k must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    exp = expansion_for(kind, sym, k, a)
    n = n_modes + 1
    bidirectional = kind is EquationKind.BOUSSINESQ
    residual, step = _newton_system(kind, eval_m(sym, k * np.arange(n)), k,
                                    _pin_value(kind, sym, k, a))
    channels = [exp.u_cosines(n_modes)] + ([exp.q_cosines(n_modes)] if bidirectional else [])
    state = np.concatenate([*channels, [exp.speed()]])
    for it in range(max_iter + 1):
        u, q, c = state[:n], state[n:-1], state[-1]
        res = residual(u, q, c)
        rnorm = float(np.linalg.norm(res))
        if rnorm <= tol:
            return WaveSolution(kind, sym, k, a, n_modes, u, float(c), rnorm,
                                q_hat=q if bidirectional else None, iterations=it)
        if it == max_iter:
            raise NoConvergence(it, rnorm)
        # an overflow or a division by a vanishing speed is refused below, not warned of
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            delta = step(u, q, c, res)
        if not np.isfinite(delta).all():
            raise DegenerateResonance(f"non-finite Newton step at k={k}")
        state = state + delta


def wave_l2_norm(u_hat: np.ndarray) -> float:
    """L2 norm (normalized by the period) of a cosine series."""
    return math.sqrt(u_hat[0] ** 2 + 0.5 * float(np.sum(u_hat[1:] ** 2)))


@dataclass(frozen=True)
class ExpansionErrorRow:
    a: float
    error: float
    wave: WaveSolution  # the Newton wave the error was measured on


@dataclass(frozen=True)
class ExpansionErrorTable:
    kind: EquationKind
    k: float
    rows: tuple[ExpansionErrorRow, ...]
    slope: float


def expansion_error(
    kind: EquationKind,
    sym: DispersionSymbol,
    k: float,
    a_list,
    n_modes: int = 32,
) -> ExpansionErrorTable:
    """Distance between the Newton wave and its Stokes truncation.

    The fitted log-log slope of error versus amplitude exposes the cubic
    remainder of the expansions.
    """
    rows = []
    for a in a_list:
        sol = newton_wave(kind, sym, k, float(a), n_modes)
        exp = expansion_for(kind, sym, k, float(a))
        diff = sol.u_hat - exp.u_cosines(n_modes)
        rows.append(ExpansionErrorRow(float(a), wave_l2_norm(diff), sol))
    positive = [(r.a, r.error) for r in rows if r.a > 0 and r.error > 0]
    if len(positive) >= 2:
        la = np.log([p[0] for p in positive])
        le = np.log([p[1] for p in positive])
        slope = float(np.polyfit(la, le, 1)[0])
    else:
        slope = math.nan
    return ExpansionErrorTable(kind=kind, k=k, rows=tuple(rows), slope=slope)
