"""Correctness oracles for the benchmark's CLI outputs.

Every reference here is computed without modwave's own numerics: symbols
and their derivatives come from mpmath at 30 digits, the wave residual
from a numpy FFT on a fine grid.  Each check returns a list of failure
messages; an empty list means the output is correct.

Tolerances admit the round-off that later algorithmic changes are
expected to introduce (exact symbol jets, a real Hill eigensolver), and
the finite-difference derivatives that expression symbols use today.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

#: relative tolerance on i1, i2-/+, i3-/+, i_eq and ind for built-in symbols
INDEX_RTOL_EXACT = 1e-9
#: same for expression symbols, whose derivatives are finite differences
INDEX_RTOL_FD = 1e-5
#: index values this close to zero (relative) count as a threshold
THRESHOLD_RTOL = 1e-6
#: spectrum symmetry and stability tolerances, relative to max |lambda|
SYMMETRY_RTOL = 1e-11
STABLE_RTOL = 1e-12
#: wave checks
WAVE_RESIDUAL_TOL = 1e-11  # ten times the CLI's default Newton tolerance
PIN_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Symbols in mpmath
# ---------------------------------------------------------------------------


def mp_symbol(name: str, alpha: float | None = None):
    """m(k) in mpmath for the symbols the workloads use."""
    if name == "bbm":
        return lambda k: 1 / (1 + k * k)
    if name == "boussinesq":
        return lambda k: 1 / mp.sqrt(1 + k * k)
    if name == "whitham":
        return lambda k: mp.sqrt(mp.tanh(k) / k) if k != 0 else mp.mpf(1)
    if name == "fractional":
        a = mp.mpf(alpha)
        return lambda k: 1 + abs(k) ** a
    raise KeyError(name)


def mp_indices(m, equation: str, k: float) -> dict[str, float]:
    """i1, i2-/+, i3-/+, the equation index and ind from mpmath derivatives."""
    with mp.workdps(30):
        kk = mp.mpf(k)
        m0, m1, m2 = m(kk), mp.diff(m, kk, 1), mp.diff(m, kk, 2)
        mk2 = m(2 * kk)
        i1 = 2 * m1 + kk * m2
        gs = m0 + kk * m1
        i2m, i2p = gs - 1, gs + 1
        i3m, i3p = m0 - mk2, m0 + mk2
        if equation == "kdv":
            i_eq = 2 * i3m + i2m
        elif equation == "bbm":
            i_eq = 2 * i3m + mk2 * i2m
        else:
            i_eq = 2 * i3m * i3p + mk2**2 * i2m * i2p
        if equation == "boussinesq":
            ind = i1 * i2m * i2p * i_eq / (i3m * i3p)
        else:
            ind = i1 * i2m * i_eq / i3m
        values = dict(i1=i1, i2m=i2m, i2p=i2p, i3m=i3m, i3p=i3p, i_eq=i_eq, ind=ind)
        return {key: float(v) for key, v in values.items()}


def _sign(x: float, scale: float) -> int:
    if abs(x) <= THRESHOLD_RTOL * scale:
        return 0
    return 1 if x > 0 else -1


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------


def parse_csv(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    """(preamble lines without '# ', header, rows) of a modwave CSV."""
    lines = text.splitlines()
    preamble = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return preamble, body[0].split(","), [ln.split(",") for ln in body[1:]]


def _preamble_fields(preamble: list[str]) -> dict[str, str]:
    return dict(tok.split("=", 1) for line in preamble for tok in line.split() if "=" in tok)


# ---------------------------------------------------------------------------
# sweep: index and diagram
# ---------------------------------------------------------------------------

_UNSTABLE = "ModulationallyUnstable"
_STABLE = "ModulationallyStableNearOrigin"
_DEGENERATE = "Degenerate"
_INDEX_KEYS = ("i1", "i2m", "i2p", "i3m", "i3p", "i_eq", "ind")


def check_index(text: str, equation: str, m, rtol: float, subsample: int = 100) -> list[str]:
    """Verdicts agree with the sign of ind on every row; the index
    quantities match mpmath on every ``subsample``-th row."""
    _, header, rows = parse_csv(text)
    col = {name: i for i, name in enumerate(header)}
    failures = []
    for row in rows:
        ind = float(row[col["ind"]])
        verdict = row[col["verdict"]]
        if math.isnan(ind) or abs(ind) <= 1e-12:
            ok = verdict == _DEGENERATE
        elif ind < 0:
            ok = verdict == _UNSTABLE
        elif equation == "boussinesq":
            ok = verdict in (_STABLE, _UNSTABLE, _DEGENERATE)  # settled by the pencil
        else:
            ok = verdict == _STABLE
        if not ok:
            failures.append(f"k={row[col['k']]}: verdict {verdict} with ind {ind!r}")
    for row in rows[::subsample]:
        k = float(row[col["k"]])
        ref = mp_indices(m, equation, k)
        for key in _INDEX_KEYS:
            got = float(row[col[key]])
            if not abs(got - ref[key]) <= rtol * max(1.0, abs(ref[key])):
                failures.append(f"k={k!r}: {key} = {got!r}, mpmath {ref[key]!r}")
    if not rows:
        failures.append("no rows")
    return failures


def check_diagram(text: str, subsample: int = 50) -> list[str]:
    """Index signs of the fractional family match mpmath on a subsample of
    (alpha, k); every reported critical wave number is a sign change."""
    preamble, header, rows = parse_csv(text)
    col = {name: i for i, name in enumerate(header)}
    failures = []
    columns = (("kdv", "sign_ind_kdv"), ("bbm", "sign_ind_bbm"), ("boussinesq", "sign_ind_bnesq"))
    for row in rows[::subsample]:
        alpha, k = float(row[col["alpha"]]), float(row[col["k"]])
        m = mp_symbol("fractional", alpha)
        for equation, name in columns:
            ref = mp_indices(m, equation, k)
            want = _sign(ref["ind"], max(1.0, abs(ref["i1"] * ref["i2m"] * ref["i_eq"])))
            got = int(row[col[name]])
            if want != 0 and got != want:
                failures.append(f"alpha={alpha!r} k={k!r}: {name} {got}, mpmath {want}")
    curves = preamble[0].split(": ", 1)[1]
    for entry in curves.split("; "):
        alpha_text, pair = entry.split(":")
        m = mp_symbol("fractional", float(alpha_text))
        for equation, text_k in zip(("bbm", "boussinesq"), pair.split(",")):
            if text_k == "None":
                continue
            k_star = float(text_k)
            below = mp_indices(m, equation, k_star * (1 - 1e-6))["ind"]
            above = mp_indices(m, equation, k_star * (1 + 1e-6))["ind"]
            if not below * above < 0:
                failures.append(f"alpha={alpha_text}: k*_{equation} = {k_star!r} is no sign change")
    if not rows:
        failures.append("no rows")
    return failures


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def check_spectrum(text: str, equation: str, m, k: float, n_modes: int, xi_steps: int) -> list[str]:
    """Eigenvalue count, lambda -> -conj(lambda) symmetry, and the sign of
    the largest real part against the mpmath index verdict.

    A positive index leaves the bidirectional system to the pencil, whose
    class is FourReal (stable) for the Boussinesq symbol, so stability is
    expected there too.
    """
    _, _, rows = parse_csv(text)
    dim = (2 if equation == "boussinesq" else 1) * (2 * n_modes + 1)
    by_xi: dict[str, list[complex]] = {}
    for xi, re, im in rows:
        by_xi.setdefault(xi, []).append(complex(float(re), float(im)))
    failures = []
    if len(by_xi) != xi_steps:
        failures.append(f"{len(by_xi)} xi slices, expected {xi_steps}")
    max_re = -math.inf
    scale = 1.0
    for xi, vals in by_xi.items():
        lam = np.array(vals)
        if lam.size != dim:
            failures.append(f"xi={xi}: {lam.size} eigenvalues, expected {dim}")
            continue
        top = max(1.0, float(np.max(np.abs(lam))))
        scale = max(scale, top)
        mirror = -lam.conj()
        gap = float(np.max(np.min(np.abs(lam[:, None] - mirror[None, :]), axis=1)))
        if gap > SYMMETRY_RTOL * top:
            failures.append(f"xi={xi}: lambda -> -conj(lambda) broken by {gap:.3e}")
        max_re = max(max_re, float(lam.real.max()))
    ref = mp_indices(m, equation, k)
    unstable = max_re > STABLE_RTOL * scale
    if (ref["ind"] < 0) != unstable:
        failures.append(f"max Re {max_re:.3e} disagrees with ind {ref['ind']:.3e} at k={k!r}")
    return failures


# ---------------------------------------------------------------------------
# wave
# ---------------------------------------------------------------------------


def check_wave(text: str, equation: str, m, k: float, a: float) -> list[str]:
    """Residual of the exact traveling-wave equations, evaluated
    pseudo-spectrally on a grid four times finer than the wave's modes,
    and the amplitude pin u_hat[1]."""
    preamble, header, rows = parse_csv(text)
    fields = _preamble_fields(preamble)
    c = float(fields["c"])
    n_modes = len(rows) - 1
    u_hat = np.array([float(r[1]) for r in rows])
    q_hat = np.array([float(r[2]) for r in rows]) if "q_hat" in header else None
    grid = 8 * (n_modes + 1)
    half = grid // 2
    z = 2.0 * np.pi * np.arange(grid) / grid
    u = np.cos(np.outer(z, np.arange(n_modes + 1))) @ u_hat

    def cosines(values: np.ndarray) -> np.ndarray:
        f = np.fft.rfft(values).real[:half] / grid
        f[1:] *= 2.0
        return f

    def padded(coeffs: np.ndarray) -> np.ndarray:
        out = np.zeros(half)
        out[: coeffs.size] = coeffs
        return out

    with mp.workdps(30):
        mult = np.array([1.0] + [float(m(mp.mpf(k) * n)) for n in range(1, half)])
    uu, uc = cosines(u * u), padded(u_hat)
    if equation == "bbm":
        res = mult * (uc + uu) - c * uc
    elif equation == "kdv":
        res = mult * uc + uu - c * uc
    else:
        qc = padded(q_hat)
        res = np.concatenate([c * uc + mult**2 * qc, c * qc + uc + uu])
    failures = []
    norm = float(np.linalg.norm(res))
    if not norm <= WAVE_RESIDUAL_TOL:
        failures.append(f"FFT residual {norm:.3e} exceeds {WAVE_RESIDUAL_TOL:.0e}")
    with mp.workdps(30):
        pin = a * (float(m(mp.mpf(k))) if equation == "boussinesq" else 1.0)
    if not abs(u_hat[1] - pin) <= PIN_RTOL * abs(pin):
        failures.append(f"u_hat[1] = {u_hat[1]!r}, pinned {pin!r}")
    return failures


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

#: the acceptance checks, in the order `modwave validate` runs them
CHECKS = (
    "bbm-threshold", "bbm-collision-floor", "boussinesq-stability", "fractional-threshold",
    "cubic-disc-identity", "hill-cross-validation", "stokes-vs-newton", "quartic-classifier",
    "zero-state-spectra",
)
#: checks whose pinned references the computation contradicts by design
EXPECTED_FAILS = frozenset({"bbm-collision-floor", "cubic-disc-identity"})


def validate_statuses(stdout: str) -> dict[str, str]:
    statuses = {}
    for line in stdout.splitlines():
        for status in ("PASS", "FAIL"):
            prefix = f"[{status}] "
            if line.startswith(prefix):
                statuses[line[len(prefix):].split(":", 1)[0]] = status
    return statuses


def check_validate(rc: int, stdout: str) -> list[str]:
    """Exit 1 with exactly the two documented FAILs and the other checks
    PASS."""
    statuses = validate_statuses(stdout)
    failures = []
    if rc != 1:
        failures.append(f"exit code {rc}, expected 1")
    if sorted(statuses) != sorted(CHECKS):
        failures.append(f"checks reported {sorted(statuses)}, expected {sorted(CHECKS)}")
    failed = {name for name, s in statuses.items() if s == "FAIL"}
    if failed != EXPECTED_FAILS:
        failures.append(f"FAIL set {sorted(failed)}, expected {sorted(EXPECTED_FAILS)}")
    return failures
