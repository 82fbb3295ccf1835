"""Command-line front end.

Subcommands: index, diagram, spectrum, wave, resonances, validate.
Options come from an optional JSON config file plus flags; flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import keyword
import sys
from typing import Sequence

import numpy as np

from . import hill, indices, output, pencil, validation
from .config import RunConfig, load_config, merge_overrides
from .dispersion import DispersionSymbol, check_assumptions, fractional_symbol, symbol_from_config
from .errors import ConfigError, ModwaveError
from .indices import Verdict
from .stokes import EquationKind, newton_wave


def _param_values(pairs) -> dict[str, float]:
    """The --param name=value pairs as a dict; a later name wins."""
    try:
        return {name: float(value) for name, value in (p.split("=", 1) for p in pairs or [])}
    except ValueError:  # a pair without "=", or a value that is not a number
        raise ConfigError("param", f"expected name=number pairs, got {pairs}") from None


def _resolve_symbol(cfg: RunConfig, args) -> DispersionSymbol:
    if getattr(args, "expr", None):
        spec = {"expr": args.expr, "params": _param_values(getattr(args, "param", None))}
    elif getattr(args, "symbol", None):
        alpha = getattr(args, "alpha", None)
        spec = {"builtin": args.symbol, "params": {} if alpha is None else {"alpha": alpha}}
    elif cfg.symbol:
        spec = cfg.symbol
    else:
        raise ConfigError("symbol", "need --symbol, --expr, or a config entry")
    params = spec.get("params", {})
    # numbers, under names an expression can spell: Python keywords are not names
    if not isinstance(params, dict) or not all(
            type(value) in (int, float) and not keyword.iskeyword(name)
            for name, value in params.items()):
        raise ConfigError("symbol", f"expected numbers named by non-keywords, got {params!r}")
    try:
        sym = symbol_from_config(spec)
    except (KeyError, TypeError) as exc:  # an unknown builtin, or its parameters wrong
        raise ConfigError("symbol", exc.args[0]) from None
    for warning in sym.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return sym


def _emit_csv(cfg: RunConfig, header, rows, preamble=()) -> None:
    if cfg.output:
        output.write_csv(cfg.output, header, rows, preamble)
    else:
        for line in preamble:
            print(f"# {line}")
        sys.stdout.write(output.csv_text(header, rows))


def _warn_regime(cfg: RunConfig) -> None:
    for message in cfg.warnings():
        print(f"warning: {message}", file=sys.stderr)


def cmd_index(cfg: RunConfig, args) -> int:
    sym = _resolve_symbol(cfg, args)
    kind = cfg.equation_kind()
    report = indices.ind(kind, sym, cfg.k_values())
    verdicts = report.verdict.copy()
    # only the bidirectional index leaves rows Inconclusive
    open_rows = verdicts == Verdict.INCONCLUSIVE
    verdicts[open_rows] = pencil.pencil_verdicts(kind, sym, report[open_rows])
    rows = zip(
        report.k.tolist(), report.i1.tolist(), report.i2m.tolist(), report.i2p.tolist(),
        report.i3m.tolist(), report.i3p.tolist(), report.i_eq.tolist(), report.ind.tolist(),
        [v.value for v in verdicts], ["|".join(sorted(f)) for f in report.resonance_flags],
    )
    header = ["k", "i1", "i2m", "i2p", "i3m", "i3p", "i_eq", "ind", "verdict", "resonances"]
    _emit_csv(cfg, header, rows)
    return 0


def cmd_diagram(cfg: RunConfig, args) -> int:
    """Index signs over the (alpha x k) grid and the curves ind = 0, from one
    fractional symbol with an exponent per row: one call per index and curve."""
    lo, hi = cfg.alpha_range
    if not (lo < hi) or cfg.alpha_steps < 2:
        raise ConfigError("alpha_range", "need lo < hi and alpha_steps >= 2")
    if cfg.k_range is None:
        cfg = dataclasses.replace(cfg, k_range=(0.05, 3.0))
    ks = cfg.k_values()
    alphas = np.linspace(lo, hi, cfg.alpha_steps)
    sym = fractional_symbol(alphas[:, None])
    kinds = (EquationKind.KDV, EquationKind.BBM, EquationKind.BOUSSINESQ)
    # sign of each index: 0 for |ind| <= 1e-12, -1 for the nan of a degenerate one
    signs = [np.where(np.abs(v) <= 1e-12, 0, np.where(v > 0, 1, -1)).ravel().tolist()
             for v in (indices.ind(kind, sym, ks).ind for kind in kinds)]
    rows = zip(np.repeat(alphas, ks.size).tolist(), np.tile(ks, alphas.size).tolist(), *signs)
    curve_rows = list(zip(alphas.tolist(), *(indices.critical_wavenumber(kind, sym, (ks[0], ks[-1]))
                                             for kind in kinds[1:])))
    header = ["alpha", "k", "sign_ind_kdv", "sign_ind_bbm", "sign_ind_bnesq"]
    preamble = [
        "critical wave numbers per alpha (bbm, bnesq): "
        + "; ".join(f"{a:g}:{kb!r},{kq!r}" for a, kb, kq in curve_rows)
    ]
    _emit_csv(cfg, header, rows, preamble)
    if cfg.svg:
        curves = [
            ("ind_bbm = 0", [(a, kb) for a, kb, _ in curve_rows if kb is not None]),
            ("ind_bnesq = 0", [(a, kq) for a, _, kq in curve_rows if kq is not None]),
        ]
        output.write_svg(cfg.svg, output.svg_level_curves(curves, "alpha", "k"))
    return 0


def cmd_spectrum(cfg: RunConfig, args) -> int:
    sym = _resolve_symbol(cfg, args)
    kind = cfg.equation_kind()
    xis = cfg.xi_values().tolist()  # a refused grid neither warns nor solves
    _warn_regime(cfg)
    ks = cfg.k_values().tolist()
    if len(ks) != 1:
        raise ConfigError("k", "spectrum needs a single --k")
    k = ks[0]
    wave = newton_wave(kind, sym, k, cfg.a, cfg.n_modes)
    slices = [hill.spectrum(hill.assemble(kind, sym, wave, xi, cfg.n_modes)) for xi in xis]
    rows = []
    for sl in slices:
        vals = sl.eigenvalues
        rows += zip([sl.xi] * vals.size, vals.real.tolist(), vals.imag.tolist())
    preamble = [
        f"equation={kind.value} symbol={sym.name} k={k!r} a={cfg.a!r} "
        f"n_modes={cfg.n_modes} c={wave.c!r} residual={wave.residual!r}"
    ]
    _emit_csv(cfg, ["xi", "re", "im"], rows, preamble)
    if cfg.summary:
        payload = {
            "equation": kind.value,
            "symbol": sym.name,
            "k": k,
            "a": cfg.a,
            "n_modes": cfg.n_modes,
            "max_re": {repr(sl.xi): sl.max_re for sl in slices},
        }
        output.write_json(cfg.summary, payload)
    return 0


def cmd_wave(cfg: RunConfig, args) -> int:
    sym = _resolve_symbol(cfg, args)
    kind = cfg.equation_kind()
    _warn_regime(cfg)
    ks = cfg.k_values().tolist()
    if len(ks) != 1:
        raise ConfigError("k", "wave needs a single --k")
    sol = newton_wave(kind, sym, ks[0], cfg.a, cfg.n_modes, tol=cfg.tol)
    preamble = [
        f"equation={kind.value} symbol={sym.name}",
        f"k={sol.k!r} a={sol.a!r} c={sol.c!r} residual={sol.residual!r}",
    ]
    if sol.q_hat is not None:
        header = ["n", "u_hat", "q_hat"]
        rows = zip(range(sol.n_modes + 1), sol.u_hat.tolist(), sol.q_hat.tolist())
    else:
        header = ["n", "u_hat"]
        rows = enumerate(sol.u_hat.tolist())
    _emit_csv(cfg, header, rows, preamble)
    return 0


def cmd_resonances(cfg: RunConfig, args) -> int:
    sym = _resolve_symbol(cfg, args)
    kind = cfg.equation_kind()
    if cfg.k_range is None:
        raise ConfigError("k_range", "resonances needs --k-range")
    scan = indices.find_resonances(sym, kind, cfg.k_range)
    rows = [(p.k, p.kind) for p in scan.points]
    preamble = []
    if scan.degenerate_everywhere:
        preamble.append(
            "identically degenerate on this range: "
            + ",".join(sorted(scan.degenerate_everywhere))
        )
    report = check_assumptions(sym, np.linspace(*cfg.k_range, 200), cfg.n_max)
    for k_hit, n in report.m4_violations:
        if n > 2:  # n = 2 is already reported as R3
            preamble.append(f"harmonic resonance m(k)=m({n}k) near k={k_hit!r}")
    _emit_csv(cfg, ["k", "type"], rows, preamble)
    return 0


def cmd_validate(cfg: RunConfig, args) -> int:
    results = validation.run_checks(only=cfg.only)
    if not results:
        print(f"no checks match --only {cfg.only!r}")
        return 2
    for res in results:
        print(res.line())
        print(f"       ({res.runtime:.2f} s)")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call:
    parse_args keeps no state on it, so one process builds it once."""
    parser = argparse.ArgumentParser(
        prog="modwave",
        description=(
            "Modulational stability of small periodic traveling waves for "
            "nonlocal dispersive equations: closed-form indices, reduced "
            "spectral pencils, and Floquet-Bloch spectra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_symbol=True):
        p.add_argument("--config", help="JSON config file; flags override it")
        if with_symbol:
            p.add_argument("--equation", choices=["kdv", "bbm", "boussinesq"])
            p.add_argument("--symbol", help="builtin symbol name")
            p.add_argument("--alpha", type=float, help="parameter of the fractional family")
            p.add_argument("--expr", help="symbol expression in k, e.g. '1/(1+k^2)'")
            p.add_argument("--param", action="append", help="name=value for --expr")
        p.add_argument("-o", "--output", help="output CSV path (default: stdout)")

    p_index = sub.add_parser("index", help="instability index sweep")
    add_common(p_index)
    p_index.add_argument("--k", type=float)
    p_index.add_argument("--k-range", nargs=2, type=float, metavar=("LO", "HI"))
    p_index.add_argument("--k-steps", type=int)
    p_index.set_defaults(fn=cmd_index)

    p_diag = sub.add_parser("diagram", help="stability diagram for the fractional family")
    add_common(p_diag, with_symbol=False)
    p_diag.add_argument("--alpha-range", nargs=2, type=float, metavar=("LO", "HI"))
    p_diag.add_argument("--alpha-steps", type=int)
    p_diag.add_argument("--k-range", nargs=2, type=float, metavar=("LO", "HI"))
    p_diag.add_argument("--k-steps", type=int)
    p_diag.add_argument("--svg", help="write level curves to this SVG file")
    p_diag.set_defaults(fn=cmd_diagram)

    p_spec = sub.add_parser("spectrum", help="Floquet-Bloch spectra of the linearization")
    add_common(p_spec)
    p_spec.add_argument("--k", type=float)
    p_spec.add_argument("--a", type=float)
    p_spec.add_argument("--xi", type=float)
    p_spec.add_argument("--xi-range", nargs=2, type=float, metavar=("LO", "HI"))
    p_spec.add_argument("--xi-steps", type=int)
    p_spec.add_argument("--n-modes", type=int)
    p_spec.add_argument("--summary", help="write a JSON summary (max Re per xi)")
    p_spec.set_defaults(fn=cmd_spectrum)

    p_wave = sub.add_parser("wave", help="Newton-Galerkin traveling wave")
    add_common(p_wave)
    p_wave.add_argument("--k", type=float)
    p_wave.add_argument("--a", type=float)
    p_wave.add_argument("--n-modes", type=int)
    p_wave.add_argument("--tol", type=float)
    p_wave.set_defaults(fn=cmd_wave)

    p_res = sub.add_parser("resonances", help="locate resonance wave numbers")
    add_common(p_res)
    p_res.add_argument("--k-range", nargs=2, type=float, metavar=("LO", "HI"))
    p_res.add_argument("--n-max", type=int,
                       help="scan harmonic resonances m(k)=m(nk) up to this n")
    p_res.set_defaults(fn=cmd_resonances)

    p_val = sub.add_parser("validate", help="run the acceptance checks")
    p_val.add_argument("--config", help="JSON config file; flags override it")
    p_val.add_argument("--only", help="run only checks whose name contains this")
    p_val.set_defaults(fn=cmd_validate)

    return parser


#: every config field a flag can set: all but the symbol, which _resolve_symbol reads
_OVERRIDE_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig) if f.name != "symbol")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
        overrides = {key: getattr(args, key) for key in _OVERRIDE_KEYS if hasattr(args, key)}
        cfg = merge_overrides(cfg, overrides)
        return args.fn(cfg, args)
    except ModwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
