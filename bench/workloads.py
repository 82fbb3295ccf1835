"""The benchmark's workloads: seeded cycles of modwave CLI operations.

A workload is a list of ops drawn once from the run's seed.  The timed
loop repeats that list, so the op mix is fixed and medians stay steady.
Each op carries its argv (without ``-o``), how many units of work it
completes, and the oracle that checks its output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracle

#: Bloch truncation and Floquet grid of the spectrum workload
SPECTRUM_N = 64
SPECTRUM_XI = (0.001, 0.05)
SPECTRUM_XI_STEPS = 21
#: Galerkin truncation of the wave workload
WAVE_N = 128
INDEX_STEPS = 2001
DIAGRAM_ALPHA_STEPS = 17  # the CLI default alpha grid (2, 6)
DIAGRAM_K_STEPS = 101
SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    items: int
    expect_rc: int
    writes_csv: bool
    #: oracle(rc, stdout, csv_text) -> failure messages
    check: Callable[[int, str, str | None], list[str]]
    #: index-grid points classified (index and diagram ops)
    k_points: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    rate_name: str  # what items_per_s is called on this workload
    ops: tuple[Op, ...]
    note: str = ""


def _csv_check(fn):
    return lambda rc, stdout, text: fn(text)


def _fmt(x: float) -> str:
    return repr(float(x))


def sweep(rng: random.Random) -> Workload:
    """2001-point index sweeps over five (equation, symbol) pairs, and two
    17 x 101 stability diagrams; k-range endpoints and alpha are jittered."""

    def k_range() -> tuple[str, ...]:
        lo, hi = round(rng.uniform(0.05, 0.15), 4), round(rng.uniform(2.8, 3.2), 4)
        return ("--k-range", _fmt(lo), _fmt(hi))

    alpha = round(rng.uniform(2.2, 3.8), 3)
    index_specs = (
        ("boussinesq", ("--symbol", "boussinesq"), oracle.mp_symbol("boussinesq"), False),
        ("boussinesq", ("--expr", "(1+k^2)^(-0.5)"), oracle.mp_symbol("boussinesq"), True),
        ("bbm", ("--symbol", "bbm"), oracle.mp_symbol("bbm"), False),
        ("bbm", ("--expr", "1+abs(k)^alpha", "--param", f"alpha={alpha!r}"),
         oracle.mp_symbol("fractional", alpha), True),
        ("kdv", ("--symbol", "whitham"), oracle.mp_symbol("whitham"), False),
    )
    ops = []
    for equation, sym_args, m, fd in index_specs:
        rtol = oracle.INDEX_RTOL_FD if fd else oracle.INDEX_RTOL_EXACT
        ops.append(Op(
            label=f"index-{equation}-{'expr' if fd else 'builtin'}",
            argv=("index", "--equation", equation, *sym_args, *k_range(),
                  "--k-steps", str(INDEX_STEPS)),
            items=INDEX_STEPS, expect_rc=0, writes_csv=True,
            check=_csv_check(partial(oracle.check_index, equation=equation, m=m, rtol=rtol)),
            k_points=INDEX_STEPS,
        ))
    for _ in range(2):
        ops.append(Op(
            label="diagram",
            argv=("diagram", *k_range(), "--k-steps", str(DIAGRAM_K_STEPS)),
            items=DIAGRAM_ALPHA_STEPS * DIAGRAM_K_STEPS, expect_rc=0, writes_csv=True,
            check=_csv_check(oracle.check_diagram),
            k_points=DIAGRAM_ALPHA_STEPS * DIAGRAM_K_STEPS,
        ))
    return Workload("sweep", "k_per_s", tuple(ops))


def _k_off_threshold(rng: random.Random) -> float:
    """k on either side of sqrt(3), at least 0.15 away from it."""
    if rng.random() < 0.5:
        return round(rng.uniform(1.2, SQRT3 - 0.15), 4)
    return round(rng.uniform(SQRT3 + 0.15, 2.4), 4)


def spectrum(rng: random.Random) -> Workload:
    """Floquet-Bloch spectra at N = 64 over 21 xi for the three equation
    types; k on both sides of sqrt(3), a in [0.005, 0.02]."""
    specs = (
        ("boussinesq", ("--symbol", "boussinesq"), oracle.mp_symbol("boussinesq")),
        ("bbm", ("--symbol", "bbm"), oracle.mp_symbol("bbm")),
        ("kdv", ("--symbol", "fractional", "--alpha", "2"), oracle.mp_symbol("fractional", 2.0)),
    )
    ops = []
    for equation, sym_args, m in specs:
        k, a = _k_off_threshold(rng), round(rng.uniform(0.005, 0.02), 5)
        ops.append(Op(
            label=f"spectrum-{equation}",
            argv=("spectrum", "--equation", equation, *sym_args, "--k", _fmt(k), "--a", _fmt(a),
                  "--xi-range", *map(_fmt, SPECTRUM_XI), "--xi-steps", str(SPECTRUM_XI_STEPS),
                  "--n-modes", str(SPECTRUM_N)),
            items=SPECTRUM_XI_STEPS, expect_rc=0, writes_csv=True,
            check=_csv_check(partial(oracle.check_spectrum, equation=equation, m=m, k=k,
                                     n_modes=SPECTRUM_N, xi_steps=SPECTRUM_XI_STEPS)),
        ))
    return Workload("spectrum", "slices_per_s", tuple(ops))


def wave(rng: random.Random, per_equation: int = 8) -> Workload:
    """Newton-Galerkin waves at N = 128, eight (k, a) draws per equation."""
    specs = (
        ("bbm", "bbm"),
        ("kdv", "whitham"),
        ("boussinesq", "boussinesq"),
    )
    ops = []
    for _ in range(per_equation):
        for equation, symbol in specs:
            k, a = round(rng.uniform(1.0, 2.4), 4), round(rng.uniform(0.01, 0.02), 5)
            ops.append(Op(
                label=f"wave-{equation}",
                argv=("wave", "--equation", equation, "--symbol", symbol, "--k", _fmt(k),
                      "--a", _fmt(a), "--n-modes", str(WAVE_N)),
                items=1, expect_rc=0, writes_csv=True,
                check=_csv_check(partial(oracle.check_wave, equation=equation,
                                         m=oracle.mp_symbol(symbol), k=k, a=a)),
            ))
    return Workload("wave", "waves_per_s", tuple(ops))


def validate(rng: random.Random) -> Workload:
    """Full `modwave validate` runs; their inputs are pinned inside the program."""
    op = Op(
        label="validate", argv=("validate",), items=len(oracle.CHECKS),
        expect_rc=1, writes_csv=False,
        check=lambda rc, stdout, text: oracle.check_validate(rc, stdout),
    )
    return Workload("validate", "checks_per_s", (op,),
                    note="inputs are pinned inside the program; the seed does not reach them")


WORKLOADS: dict[str, Callable[[random.Random], Workload]] = {
    "sweep": sweep,
    "spectrum": spectrum,
    "wave": wave,
    "validate": validate,
}
