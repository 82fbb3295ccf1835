"""Per-layer metrics: what the traced run wraps, and how it reports it.

The layers are modwave's modules.  ``COUNTED`` functions get call counts
only; ``SPANNED`` functions get spans, and some a hook that reads a value
from their arguments or result.  Every per-layer figure is reported per
op cycle (one pass over the workload's op list), so counts repeat
exactly for a given seed however many cycles the traced pass ran.

``baseline_rows`` re-measures the layer rows of ROADMAP's hand-measured
baseline table from outside the program, untraced.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from oracle import CHECKS as VALIDATION_CHECKS
from tracer import Tracer, busy_time, self_times

COUNTED = ("dispersion.eval_m", "dispersion.d1_m", "dispersion.d2_m")


def _newton(tr, args, kwargs, sol):
    tr.values["newton"].append((sol.iterations, sol.residual))


def _eig(tr, args, kwargs, vals):
    tr.values["eig_dim"].append(len(vals))


def _spectrum(tr, args, kwargs, sl):
    tr.values["near_origin"].append((sl.near_origin.size, sl.eigenvalues.size))


def _csv(tr, args, kwargs, _):
    tr.values["csv_bytes"].append(os.path.getsize(args[0]))


def _checks(tr, args, kwargs, results):
    tr.values["checks"].extend((r.name, r.passed, r.runtime) for r in results)


SPANNED = {
    "indices.ind": None,
    "indices.base_indices": None,
    "indices.critical_wavenumber": None,
    "pencil.pencil_verdict": None,
    "pencil.build_pencil": None,
    "pencil.rescaled_charpoly": None,
    "pencil.classify_quartic": None,
    "stokes.newton_wave": _newton,
    "numerics.cos_product_matrix": None,
    "numerics.eig_dense": _eig,
    "numerics.poly_roots": None,
    "numerics.find_root": None,
    "hill.assemble": None,
    "hill.spectrum": _spectrum,
    "hill.match_pencil_once": None,
    "hill.collision_scan": None,
    "output.write_csv": _csv,
    "validation.run_checks": _checks,
}

#: hand-measured layer rows of ROADMAP's baseline table, in ms
ROADMAP_MS = {
    "indices.ind.ms_one_k": 0.01,
    "pencil.pencil_verdict.ms_one_k": 0.11,
    "stokes.newton_wave.ms_n32": 1.5,
    "stokes.newton_wave.ms_n64": 8.5,
    "stokes.newton_wave.ms_n128": 23.0,
    "numerics.eig_dense.ms_dim130": 16.5,
    "numerics.eig_dense.ms_dim258": 88.0,
    "numerics.eig_dense.ms_dim514": 577.0,
}

#: every per-layer metric: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "dispersion.eval_m.calls": ("calls/cycle", "lower"),
    "dispersion.d1_m.calls": ("calls/cycle", "lower"),
    "dispersion.d2_m.calls": ("calls/cycle", "lower"),
    "dispersion.eval_m.calls_per_k": ("calls/k", "lower"),
    "indices.ind.calls": ("calls/cycle", "lower"),
    "indices.ind.self_s": ("s/cycle", "lower"),
    "indices.ind.calls_per_k": ("calls/k", "lower"),
    "indices.base_indices.calls": ("calls/cycle", "lower"),
    "indices.base_indices.self_s": ("s/cycle", "lower"),
    "indices.critical_wavenumber.calls": ("calls/cycle", "lower"),
    "indices.critical_wavenumber.self_s": ("s/cycle", "lower"),
    "pencil.pencil_verdict.calls": ("calls/cycle", "lower"),
    "pencil.pencil_verdict.total_s": ("s/cycle", "lower"),
    "pencil.pencil_verdict.share_of_k": ("ratio", "lower"),
    "pencil.build_pencil.self_s": ("s/cycle", "lower"),
    "pencil.rescaled_charpoly.calls": ("calls/cycle", "lower"),
    "pencil.rescaled_charpoly.self_s": ("s/cycle", "lower"),
    "pencil.classify_quartic.calls": ("calls/cycle", "lower"),
    "pencil.classify_quartic.self_s": ("s/cycle", "lower"),
    "stokes.newton_wave.calls": ("calls/cycle", "lower"),
    "stokes.newton_wave.self_s": ("s/cycle", "lower"),
    "stokes.newton_wave.total_s": ("s/cycle", "lower"),
    "stokes.newton_wave.iterations_per_call": ("iter/call", "lower"),
    "stokes.newton_wave.max_residual": ("norm", "lower"),
    "numerics.cos_product_matrix.calls": ("calls/cycle", "lower"),
    "numerics.cos_product_matrix.self_s": ("s/cycle", "lower"),
    "numerics.eig_dense.calls": ("calls/cycle", "lower"),
    "numerics.eig_dense.self_s": ("s/cycle", "lower"),
    "numerics.eig_dense.mean_dim": ("dim", "lower"),
    "numerics.eig_dense.gflop_computed": ("GFLOP/cycle", "lower"),
    "numerics.poly_roots.calls": ("calls/cycle", "lower"),
    "numerics.poly_roots.self_s": ("s/cycle", "lower"),
    "numerics.find_root.calls": ("calls/cycle", "lower"),
    "numerics.find_root.self_s": ("s/cycle", "lower"),
    "hill.assemble.calls": ("calls/cycle", "lower"),
    "hill.assemble.self_s": ("s/cycle", "lower"),
    "hill.spectrum.calls": ("calls/cycle", "lower"),
    "hill.spectrum.self_s": ("s/cycle", "lower"),
    "hill.spectrum.near_origin_frac": ("ratio", "higher"),
    "hill.match_pencil_once.calls": ("calls/cycle", "lower"),
    "hill.match_pencil_once.self_s": ("s/cycle", "lower"),
    "hill.collision_scan.calls": ("calls/cycle", "lower"),
    "hill.collision_scan.self_s": ("s/cycle", "lower"),
    "output.write_csv.self_s": ("s/cycle", "lower"),
    "output.bytes": ("B/cycle", "lower"),
    **{f"validation.{name}.s": ("s/cycle", "lower") for name in VALIDATION_CHECKS},
    "cli.workers": ("count", "lower"),
    "cli.busy_over_wall": ("ratio", "lower"),
    "cli.single_worker_op_ms_p50": ("ms", "lower"),
    **{name: ("ms", "lower") for name in ROADMAP_MS},
    "bench.trace_overhead_s": ("s/cycle", "lower"),
    "bench.trace_overhead_frac": ("ratio", "lower"),
}


def make_tracer() -> Tracer:
    return Tracer(COUNTED, SPANNED,
                  value_keys=("newton", "eig_dim", "near_origin", "csv_bytes", "checks"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace_metrics(tr: Tracer, cycles: int, k_points: int) -> dict[str, float]:
    """Per-cycle layer figures from a traced pass of ``cycles`` cycles that
    classified ``k_points`` index-grid points per cycle."""
    sp = tr.spans()
    own = self_times(sp)
    dur = sp["end"] - sp["start"]
    out: dict[str, float] = {}
    for name, n in tr.counts().items():
        out[f"{name}.calls"] = n / cycles
    for i, name in enumerate(tr.names[1:], start=1):
        mask = sp["name"] == i
        out[f"{name}.calls"] = int(mask.sum()) / cycles
        out[f"{name}.self_s"] = float(own[mask].sum()) / cycles
        out[f"{name}.total_s"] = float(dur[mask].sum()) / cycles
    out["dispersion.eval_m.calls_per_k"] = _ratio(out.get("dispersion.eval_m.calls", 0), k_points)
    out["indices.ind.calls_per_k"] = _ratio(out.get("indices.ind.calls", 0), k_points)
    out["pencil.pencil_verdict.share_of_k"] = _ratio(out.get("pencil.pencil_verdict.calls", 0), k_points)

    newton = tr.values["newton"]
    out["stokes.newton_wave.iterations_per_call"] = _ratio(sum(i for i, _ in newton), len(newton))
    out["stokes.newton_wave.max_residual"] = max((r for _, r in newton), default=0.0)
    dims = np.array(tr.values["eig_dim"], dtype=float)
    out["numerics.eig_dense.mean_dim"] = float(dims.mean()) if dims.size else 0.0
    # eigenvalues only of a dense complex matrix: about 10 n^3 complex
    # operations of 4 real flops each; computed from the dims, not counted
    out["numerics.eig_dense.gflop_computed"] = float(np.sum(40.0 * dims**3)) / 1e9 / cycles
    near = tr.values["near_origin"]
    out["hill.spectrum.near_origin_frac"] = _ratio(sum(n for n, _ in near), sum(t for _, t in near))
    out["output.bytes"] = sum(tr.values["csv_bytes"]) / cycles
    for name in VALIDATION_CHECKS:
        runtimes = [t for n, _, t in tr.values["checks"] if n == name]
        out[f"validation.{name}.s"] = sum(runtimes) / cycles

    roots = sp["name"] == 0
    out["cli.busy_over_wall"] = _ratio(busy_time(sp), float(dur[roots].sum()))
    out["cli.workers"] = float(_max_workers(sp))
    return out


def _max_workers(sp) -> int:
    """Most threads other than the op's own that ran layer spans in one op."""
    root_thread = dict(zip(sp["op"][sp["name"] == 0].tolist(), sp["thread"][sp["name"] == 0].tolist()))
    threads: dict[int, set[int]] = {}
    pairs = np.unique(np.stack([sp["op"], sp["thread"]], axis=1)[sp["name"] != 0], axis=0)
    for op, th in pairs.tolist():
        if th != root_thread.get(op):
            threads.setdefault(op, set()).add(th)
    return max((len(t) for t in threads.values()), default=1)


def _per_call_ms(fn, calls: int, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) / calls * 1e3)
    return statistics.median(times)


def baseline_rows() -> dict[str, float]:
    """ROADMAP's layer rows, timed through modwave's public functions."""
    from modwave import dispersion, hill, indices, numerics, pencil, stokes

    kind = stokes.EquationKind
    bbm, bq = dispersion.bbm_symbol(), dispersion.boussinesq_symbol()
    ks = [0.1 + 2.9 * i / 499 for i in range(500)]
    rows = {
        "indices.ind.ms_one_k": _per_call_ms(
            lambda: [indices.ind(kind.BBM, bbm, k) for k in ks], len(ks), reps=5),
        "pencil.pencil_verdict.ms_one_k": _per_call_ms(
            lambda: [pencil.pencil_verdict(kind.BOUSSINESQ, bq, k) for k in ks[::5]],
            len(ks[::5]), reps=5),
    }
    for n in (32, 64, 128):
        rows[f"stokes.newton_wave.ms_n{n}"] = _per_call_ms(
            lambda: stokes.newton_wave(kind.BBM, bbm, 1.0, 0.01, n), 1, reps=7)
    for n, reps in ((32, 7), (64, 5), (128, 3)):
        wave = stokes.newton_wave(kind.BOUSSINESQ, bq, 1.0, 0.01, n)
        matrix = hill.assemble(kind.BOUSSINESQ, bq, wave, 0.01, n).matrix
        rows[f"numerics.eig_dense.ms_dim{matrix.shape[0]}"] = _per_call_ms(
            lambda: numerics.eig_dense(matrix), 1, reps=reps)
    return rows
