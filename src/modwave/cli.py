"""Command-line front end.

Subcommands: index, diagram, spectrum, wave, resonances, validate.
Options come from an optional JSON config file plus flags; flags win.
Every flag is a RunConfig field, except --config and the symbol flags
(--symbol, --alpha, --expr, --param), which become the ``symbol`` field.
File and flags reach a command through one RunConfig.parse, and every
refused argument ends the run as one ``error:`` line with exit status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from typing import Sequence

import numpy as np

from . import hill, indices, output, pencil, validation
from .config import HARMONIC_SAMPLES, RunConfig, field_type, load_config
from .dispersion import DispersionSymbol, check_assumptions, fractional_symbol, symbol_from_config
from .errors import ConfigError, ModwaveError
from .indices import Verdict
from .stokes import EquationKind, newton_wave


def _resolve_symbol(cfg: RunConfig) -> DispersionSymbol:
    if not cfg.symbol:
        raise ConfigError("symbol", "need --symbol, --expr, or a config entry")
    try:
        sym = symbol_from_config(cfg.symbol)
    except (KeyError, TypeError) as exc:  # an unknown builtin, or its parameters wrong
        raise ConfigError("symbol", exc.args[0]) from None
    for warning in sym.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return sym


def _emit_csv(cfg: RunConfig, header, rows, preamble=()) -> None:
    if cfg.output:
        output.write_csv(cfg.output, header, rows, preamble)
    else:
        sys.stdout.write(output.csv_text(header, rows, preamble))


def _warn_regime(cfg: RunConfig) -> None:
    for message in cfg.warnings():
        print(f"warning: {message}", file=sys.stderr)


def cmd_index(cfg: RunConfig) -> int:
    sym = _resolve_symbol(cfg)
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


def cmd_diagram(cfg: RunConfig) -> int:
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
    kinds = tuple(EquationKind)  # kdv, bbm, bnesq: the column order
    # sign of each index: 0 for |ind| <= DEGENERACY_TOL, -1 for the nan of a degenerate one
    signs = [np.where(np.abs(v) <= indices.DEGENERACY_TOL, 0, np.where(v > 0, 1, -1))
             .ravel().tolist() for v in (indices.ind(kind, sym, ks).ind for kind in kinds)]
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
        output.write_text(cfg.svg, output.svg_level_curves(curves, "alpha", "k"))
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    sym = _resolve_symbol(cfg)
    kind = cfg.equation_kind()
    xis = cfg.xi_values().tolist()  # a refused grid neither warns nor solves
    _warn_regime(cfg)
    k = cfg.single_k("spectrum")
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


def cmd_wave(cfg: RunConfig) -> int:
    sym = _resolve_symbol(cfg)
    kind = cfg.equation_kind()
    _warn_regime(cfg)
    sol = newton_wave(kind, sym, cfg.single_k("wave"), cfg.a, cfg.n_modes, tol=cfg.tol)
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


def cmd_resonances(cfg: RunConfig) -> int:
    sym = _resolve_symbol(cfg)
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
    report = check_assumptions(sym, np.linspace(*cfg.k_range, HARMONIC_SAMPLES),
                               cfg.n_max)
    for k_hit, n in report.m4_violations:
        if n > 2:  # n = 2 is already reported as R3
            preamble.append(f"harmonic resonance m(k)=m({n}k) near k={k_hit!r}")
    _emit_csv(cfg, ["k", "type"], rows, preamble)
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    results = validation.run_checks(only=cfg.only)
    if not results:
        raise ConfigError("only", f"no checks match {cfg.only!r}")
    for res in results:
        print(res.line())
        print(f"       ({res.runtime:.2f} s)")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


#: each subcommand: its function, its help line, and the RunConfig fields
#: it takes as flags, in the order --help lists them
COMMANDS = {
    "index": (cmd_index, "instability index sweep",
              ("equation", "symbol", "output", "k", "k_range", "k_steps")),
    "diagram": (cmd_diagram, "stability diagram for the fractional family",
                ("output", "alpha_range", "alpha_steps", "k_range", "k_steps", "svg")),
    "spectrum": (cmd_spectrum, "Floquet-Bloch spectra of the linearization",
                 ("equation", "symbol", "output", "k", "a", "xi", "xi_range", "xi_steps",
                  "n_modes", "summary")),
    "wave": (cmd_wave, "Newton-Galerkin traveling wave",
             ("equation", "symbol", "output", "k", "a", "n_modes", "tol")),
    "resonances": (cmd_resonances, "locate resonance wave numbers",
                   ("equation", "symbol", "output", "k_range", "n_max")),
    "validate": (cmd_validate, "run the acceptance checks", ("only",)),
}

#: the help line of each field flag that has one
_FIELD_HELP = {
    "n_max": "scan harmonic resonances m(k)=m(nk) up to this n",
    "summary": "write a JSON summary (max Re per xi)",
    "svg": "write level curves to this SVG file",
    "only": "run only checks whose name contains this",
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, subcommand parsers included, that refuses an
    argument as every other refusal ends: one ``error:`` line, exit 2,
    with no usage block before it."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call:
    parse_args keeps no state on it, so one process builds it once."""
    parser = _Parser(
        prog="modwave",
        description=(
            "Modulational stability of small periodic traveling waves for "
            "nonlocal dispersive equations: closed-form indices, reduced "
            "spectral pencils, and Floquet-Bloch spectra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    annotations = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    for command, (fn, help_line, names) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", help="JSON config file; flags override it")
        for name in names:
            if name == "equation":
                p.add_argument("--equation", choices=[kind.value for kind in EquationKind])
            elif name == "symbol":
                p.add_argument("--symbol", help="builtin symbol name")
                p.add_argument("--alpha", type=float, help="parameter of the fractional family")
                p.add_argument("--expr", help="symbol expression in k, e.g. '1/(1+k^2)'")
                p.add_argument("--param", action="append", help="name=value for --expr")
            elif name == "output":
                p.add_argument("-o", "--output", help="output CSV path (default: stdout)")
            else:
                kind = field_type(annotations[name])
                typed = ({"nargs": 2, "type": float, "metavar": ("LO", "HI")} if kind is tuple
                         else {"type": kind})
                p.add_argument("--" + name.replace("_", "-"), help=_FIELD_HELP.get(name), **typed)
        p.set_defaults(fn=fn)
    return parser


#: every config field a flag can set: all but the symbol, which the symbol flags declare
_FLAG_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig) if f.name != "symbol")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the file is checked on its own first, so a bad value in it is refused
        # even where a flag overrides it
        file_values = load_config(args.config) if args.config else {}
        flags = {key: getattr(args, key) for key in _FLAG_KEYS
                 if getattr(args, key, None) is not None}
        # the symbol flags declare the symbol field: --expr with its --param
        # name=value pairs (a later name wins), else --symbol with --alpha
        if getattr(args, "expr", None):
            try:
                params = {name: float(value)
                          for name, value in (p.split("=", 1) for p in args.param or [])}
            except ValueError:  # a pair without "=", or a value that is not a number
                raise ConfigError("param",
                                  f"expected name=number pairs, got {args.param}") from None
            flags["symbol"] = {"expr": args.expr, "params": params}
        elif getattr(args, "symbol", None):
            flags["symbol"] = {"builtin": args.symbol,
                               "params": {} if args.alpha is None else {"alpha": args.alpha}}
        return args.fn(RunConfig.parse({**file_values, **flags}))
    except ModwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
