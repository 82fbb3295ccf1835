#!/usr/bin/env python3
"""Seeded benchmark of the modwave command line.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Ops are issued in-process through ``modwave.cli.main(argv)`` by one client
in a closed loop: the next op starts when the previous one has returned.
Every output is checked for correctness outside the timed region.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones from a separate traced run.  A fuller record, with the environment
block, goes to ``bench/results/``.
"""

from __future__ import annotations

import os

# Fixed conditions: one BLAS thread, set before numpy is imported, and the
# CLI's default worker pool (MODWAVE_THREADS unset).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
MODWAVE_THREADS_GIVEN = os.environ.pop("MODWAVE_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
RESULTS_DIR = HERE / "results"

#: the timed loop runs at least this many ops, so the tail percentile
#: (ten samples beyond it) is at least the median
MIN_TIMED_OPS = 20
TAIL_BEYOND = 10
#: fresh interpreters started per run to time `import modwave.cli`
SETUP_REPS = 7


def load_cli():
    """Import modwave.cli from this checkout's src/, never from elsewhere."""
    package = SRC / "modwave"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no modwave package at {package}")
    sys.path.insert(0, str(SRC))
    import modwave.cli

    if Path(modwave.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported modwave from {modwave.cli.__file__}")
    return modwave.cli


@dataclass
class Execution:
    slot: int
    phase: str
    latency: float
    problems: list[str]


class Runner:
    """Issues a workload's ops through cli.main and verifies each output.

    The first output of each op is kept for the full oracle; every later
    run of the same op must reproduce it byte for byte.
    """

    def __init__(self, cli, workload: workloads.Workload):
        self.cli = cli
        self.ops = workload.ops
        self.runs: list[Execution] = []
        self._ref_hash: dict[int, str] = {}
        self._ref_text: dict[int, str] = {}
        OUT_DIR.mkdir(exist_ok=True)

    def run(self, slot: int, phase: str, call=None) -> float:
        op = self.ops[slot]
        path = OUT_DIR / f"{slot}.csv"
        path.unlink(missing_ok=True)
        argv = [*op.argv, "-o", str(path)] if op.writes_csv else list(op.argv)
        call = call or self.cli.main
        out, err = io.StringIO(), io.StringIO()
        exc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = call(argv)
        except Exception as e:  # an op that raises is a failed op; the loop goes on
            rc, exc = None, e
        latency = time.perf_counter() - t0
        problems = self._verify(slot, op, path, rc, out.getvalue(), exc)
        self.runs.append(Execution(slot, phase, latency, problems))
        return latency

    def _verify(self, slot, op, path, rc, stdout, exc) -> list[str]:
        if exc is not None:
            return [f"{op.label}: raised {exc!r}"]
        if not op.writes_csv:
            return [f"{op.label}: {p}" for p in op.check(rc, stdout, None)]
        if rc != op.expect_rc or not path.is_file():
            return [f"{op.label}: exit code {rc}"]
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if slot not in self._ref_hash:
            self._ref_hash[slot], self._ref_text[slot] = digest, data.decode()
        elif digest != self._ref_hash[slot]:
            return [f"{op.label}: output differs from its first run"]
        return []

    def cycle(self, phase: str, call_for=None) -> float:
        """One pass over the op list; returns the summed op latency."""
        return sum(self.run(slot, phase, call_for(slot) if call_for else None)
                   for slot in range(len(self.ops)))

    def check_outputs(self) -> None:
        """Full oracle on each op's first output; a failure there fails
        every run of that op."""
        for slot, text in self._ref_text.items():
            op = self.ops[slot]
            try:
                problems = op.check(op.expect_rc, "", text)
            except Exception as e:  # malformed output the oracle cannot parse
                problems = [f"oracle raised {e!r}"]
            for r in self.runs:
                if r.slot == slot:
                    r.problems.extend(f"{op.label}: {p}" for p in problems)

    def latencies_ms(self, phase: str) -> list[float]:
        return [r.latency * 1e3 for r in self.runs if r.phase == phase and not r.problems]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r.problems)


def measure_setup(reps: int = SETUP_REPS) -> list[float]:
    """Wall time of fresh interpreters that import modwave.cli; the first
    of reps + 1 starts is discarded as a cold start.  No timeout: with one,
    subprocess polls for the exit in steps of up to 50 ms."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(reps + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import modwave.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times[1:]


def tail(sorted_ms: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile)."""
    i = max(0, len(sorted_ms) - TAIL_BEYOND - 1)
    return sorted_ms[i], 100.0 * (i + 1) / len(sorted_ms)


def timed(runner: Runner, workload: workloads.Workload, seconds: float):
    setup = measure_setup()
    runner.cycle("warmup")
    start = time.perf_counter()
    n = 0
    while n < max(MIN_TIMED_OPS, len(runner.ops)) or time.perf_counter() - start < seconds:
        runner.run(n % len(runner.ops), "timed")
        n += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.check_outputs()

    timed_runs = [r for r in runner.runs if r.phase == "timed"]
    lat = sorted(runner.latencies_ms("timed") or [r.latency * 1e3 for r in timed_runs])
    tail_ms, tail_pct = tail(lat)
    # A shared host alternates between a fast and a ~1.4x slower state for
    # seconds to a minute at a time.  A run's median flips with the share of
    # time spent in each, most for short ops that sit wholly in one state;
    # the mean moves smoothly with that share.  The rate uses each op's
    # 90th-percentile latency, which tracks the slow state every run reaches.
    by_slot: dict[int, list[Execution]] = {}
    for r in timed_runs:
        by_slot.setdefault(r.slot, []).append(r)
    cycle_items = sum(runner.ops[slot].items * sum(not r.problems for r in rs) / len(rs)
                      for slot, rs in by_slot.items())
    cycle_s = sum(float(np.percentile([r.latency for r in rs], 90)) for rs in by_slot.values())
    rate = cycle_items / cycle_s
    done = sum(runner.ops[r.slot].items for r in timed_runs if not r.problems)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms_mean": (statistics.fmean(lat), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "items_per_s": (rate, "1/s"),
    }
    by_label: dict[str, list[float]] = {}
    for r in timed_runs:
        by_label.setdefault(runner.ops[r.slot].label, []).append(r.latency * 1e3)
    details = {
        "samples": len(lat),
        "op_ms_p50": statistics.median(lat),
        "op_ms_tail_percentile": tail_pct,
        "ops_failed_frac": sum(1 for r in timed_runs if r.problems) / len(timed_runs),
        workload.rate_name: rate,
        "items_per_s_achieved": done / sum(r.latency for r in timed_runs),
        "setup_s_samples": setup,
        "op_ms_p50_by_op": {k: statistics.median(v) for k, v in sorted(by_label.items())},
        "timed_ops": [(r.slot, r.latency * 1e3) for r in timed_runs],
    }
    return metrics, details


def traced(runner: Runner, workload: workloads.Workload, seconds: float, seed: int):
    """Traced pass for ``seconds`` (whole cycles), then the same number of
    cycles untraced and with one worker, then ROADMAP's layer rows."""
    runner.cycle("warmup")
    tr = layers.make_tracer()
    tr.install()
    try:
        cycles, traced_wall, start = 0, 0.0, time.perf_counter()
        while cycles == 0 or time.perf_counter() - start < seconds:
            first = cycles * len(runner.ops)
            traced_wall += runner.cycle(
                "traced", lambda slot: partial(tr.run_op, first + slot, runner.cli.main))
            cycles += 1
    finally:
        tr.uninstall()
    untraced_wall = sum(runner.cycle("untraced") for _ in range(cycles))
    os.environ["MODWAVE_THREADS"] = "1"
    try:
        for _ in range(cycles):
            runner.cycle("single_worker")
    finally:
        del os.environ["MODWAVE_THREADS"]
    baseline = layers.baseline_rows()
    runner.check_outputs()

    k_points = sum(op.k_points for op in workload.ops)
    found = layers.trace_metrics(tr, cycles, k_points)
    single = runner.latencies_ms("single_worker")
    found["cli.single_worker_op_ms_p50"] = statistics.median(single) if single else 0.0
    found.update(baseline)
    found["bench.trace_overhead_s"] = (traced_wall - untraced_wall) / cycles
    found["bench.trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics = {name: (found.get(name, 0.0), unit) for name, (unit, _) in layers.PER_LAYER.items()}

    RESULTS_DIR.mkdir(exist_ok=True)
    spans = tr.spans()
    np.savez_compressed(RESULTS_DIR / f"spans_{workload.name}_seed{seed}.npz",
                        names=np.array(tr.names), **spans)
    details = {
        "cycles": cycles,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "spans": int(spans["sid"].size),
        "missing_targets": tr.missing,
        "all_layer_figures": found,
        "roadmap_rows": {name: {"measured_ms": baseline.get(name), "roadmap_ms": ms,
                                "ratio": baseline[name] / ms if name in baseline else None}
                         for name, ms in layers.ROADMAP_MS.items()},
        "validation_checks": tr.values["checks"][: len(layers.VALIDATION_CHECKS)],
    }
    return metrics, details


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own
    return lines[1]


def environment(cli, seed: int) -> dict:
    worker_count = getattr(cli, "_worker_count", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_config": np.show_config(mode="dicts"),
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "MODWAVE_THREADS_cleared": MODWAVE_THREADS_GIVEN,
        "workers_resolved": worker_count() if worker_count else None,
        "git_commit": git_commit(),
        "seed": seed,
    }


def json_default(obj):
    """numpy scalars and arrays (a check may report numpy.bool_) as Python values."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    workload = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    runner = Runner(cli, workload)
    if args.trace:
        metrics, details = traced(runner, workload, args.seconds, args.seed)
    else:
        metrics, details = timed(runner, workload, args.seconds)
    result = {
        "correct": runner.failed == 0,
        "attempted": len(runner.runs),
        "failed": runner.failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    record = {
        "workload": {"name": workload.name, "note": workload.note,
                     "ops": [op.label for op in workload.ops]},
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(cli, args.seed),
        "result": result,
        "details": details,
        "failures": sorted({p for r in runner.runs for p in r.problems})[:50],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=json_default) + "\n")
    print(f"record: {path}", file=sys.stderr)
    for problem in record["failures"][:10]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps(result, default=json_default))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
