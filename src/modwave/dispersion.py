"""Fourier-multiplier dispersion symbols m(k).

Built-in families, a small expression parser for user-defined symbols,
exact derivatives through second-order jets (m, m', m'') evaluated
elementwise over scalars and k-arrays by one code path (a value-only
call stops after m), and empirical
verification of the structural assumptions (smoothness, evenness with
m(0)=1, power-law tails, absence of harmonic resonances m(k)=m(nk)).
"""

from __future__ import annotations

import ast
import itertools
import math
import re
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from .errors import InvalidArgument, NonFinite, ParseError
from .numerics import scan_roots, unbox

#: second-order Taylor jet (f, f', f'') of a function, elementwise over k;
#: (f,) alone when only the value was asked for (order 0)
Jet = tuple[np.ndarray, ...]


@dataclass(frozen=True)
class DispersionSymbol:
    """Evaluable dispersion symbol m(k) with its exact derivative jet.

    ``jet(k)`` returns (m, m', m'') elementwise over a scalar or an array
    of k; a scalar is a 0-d call of the same code.  ``jet(k, 0)`` stops
    after the value and returns (m,).  A symbol is its jet: no formula
    is written twice.
    Public evaluation goes through :func:`eval_m` and :func:`jet_m`, which
    symmetrize to |k|.
    """

    name: str
    jet: Callable[..., Jet]
    warnings: tuple[str, ...] = ()

    def raw(self, k: ArrayLike) -> np.ndarray:
        """The value as supplied, at any sign of k (used for evenness checks)."""
        return self.jet(k, 0)[0]


def _require_finite(k: np.ndarray, ok: np.ndarray, message: Callable[[float], str]) -> None:
    """Raise NonFinite naming the first k, in grid order, where ok is False;
    ok may hold a row per parameter row, k broadcasts to it."""
    if not np.all(ok):
        k, ok = np.broadcast_arrays(k, ok)
        raise NonFinite(message(float(k[~ok].flat[0])))


def eval_m(sym: DispersionSymbol, k: ArrayLike):
    """m(k) over a scalar or an array of k, at |k| since every admissible
    symbol is even; a float for a scalar k."""
    k = np.asarray(k, dtype=float)
    with np.errstate(all="ignore"):  # a value that is not finite is refused below, not warned of
        m = sym.raw(np.abs(k))
    _require_finite(k, np.isfinite(m), lambda bad: f"{sym.name}({bad}) is not finite")
    return unbox(m)


def jet_m(sym: DispersionSymbol, k: ArrayLike) -> Jet:
    """(m(k), m'(k), m''(k)), exact; m' is odd in k and m'' even.  Floats
    for a scalar k, arrays for an array."""
    k = np.asarray(k, dtype=float)
    # a jet that is not finite is refused below, not warned of; the message
    # evaluates it again
    with np.errstate(all="ignore"):
        m, m1, m2 = sym.jet(np.abs(k))
        _require_finite(
            k, np.isfinite(m) & np.isfinite(m1) & np.isfinite(m2),
            lambda bad: f"jet of {sym.name} at k={bad} is not finite: "
                        f"{tuple(np.asarray(c).tolist() for c in sym.jet(abs(bad)))}",
        )
    return unbox(m), unbox(np.where(k < 0, -m1, m1)), unbox(m2)


def group_speed(sym: DispersionSymbol, k: ArrayLike):
    """Group speed (k m(k))' = m(k) + k m'(k)."""
    m, m1, _ = jet_m(sym, k)
    return unbox(m + np.asarray(k, dtype=float) * m1)


# ---------------------------------------------------------------------------
# Jet arithmetic: forward-mode second-order rules (Griewank & Walther,
# "Evaluating Derivatives", ch. 13), elementwise in numpy.  Every ** is
# np.float_power, which rounds like Python's float **.  A value or a
# derivative that does not exist comes out inf or nan; callers evaluate
# under np.errstate(all="ignore").  A value-only jet (f,) gives a
# value-only result, computed by the same operations as the full jet's f.
# ---------------------------------------------------------------------------


def _chain(x: Jet, g, derivs: Callable[[], tuple]) -> Jet:
    """Jet of g(a(k)) from the jet x of a, the value g at a and derivs(),
    which gives g' and g'' at a and is called only for a full jet."""
    if len(x) == 1:
        return (g,)
    g1, g2 = derivs()
    return g, g1 * x[1], g2 * x[1] * x[1] + g1 * x[2]


def _pow_jet(x: Jet, y: Jet) -> Jet:
    v = np.float_power(x[0], y[0])  # nan where a < 0 and b is not an integer
    if len(x) == 1:
        return (v,)
    a, a1, a2 = x
    b, b1, b2 = y
    # constant exponent: the power rule
    power = _chain(x, v, lambda: (b * np.float_power(a, b - 1.0),
                                  b * (b - 1.0) * np.float_power(a, b - 2.0)))
    # variable exponent: a**b = exp(u) with u = b log a, for a > 0 only
    lg, r1 = np.log(a), a1 / a
    u1 = b1 * lg + b * r1
    u2 = b2 * lg + 2.0 * b1 * r1 + b * (a2 / a - r1 * r1)
    constant, positive = (b1 == 0.0) & (b2 == 0.0), a > 0.0
    return (
        v,
        np.where(constant, power[1], np.where(positive, v * u1, np.nan)),
        np.where(constant, power[2], np.where(positive, v * (u2 + u1 * u1), np.nan)),
    )


def _sqrt_jet(x: Jet) -> Jet:
    v = np.sqrt(x[0])

    def derivs():
        g1 = 0.5 / v  # inf at v = 0
        return g1, -2.0 * g1 * g1 * g1

    return _chain(x, v, derivs)


def _tanh_jet(x: Jet) -> Jet:
    t = np.tanh(x[0])

    def derivs():
        e = np.exp(-2.0 * np.abs(x[0]))
        s = 4.0 * e / np.float_power(1.0 + e, 2)  # sech^2 without the cancellation in 1 - t^2
        return s, -2.0 * t * s

    return _chain(x, t, derivs)


def _exp_jet(x: Jet) -> Jet:
    e = np.exp(x[0])
    return _chain(x, e, lambda: (e, e))


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def bbm_symbol() -> DispersionSymbol:
    """m(k) = 1/(1+k^2)."""

    def jet(k: ArrayLike, order: int = 2) -> Jet:
        k = np.asarray(k, dtype=float)
        q = 1.0 + k * k
        m = 1.0 / q
        if not order:
            return (m,)
        return m, -2.0 * k / np.float_power(q, 2), (6.0 * k * k - 2.0) / np.float_power(q, 3)

    return DispersionSymbol("bbm", jet)


def boussinesq_symbol() -> DispersionSymbol:
    """m(k) = (1+k^2)^(-1/2)."""

    def jet(k: ArrayLike, order: int = 2) -> Jet:
        k = np.asarray(k, dtype=float)
        q = 1.0 + k * k
        m = np.float_power(q, -0.5)
        if not order:
            return (m,)
        return m, -k * np.float_power(q, -1.5), (2.0 * k * k - 1.0) * np.float_power(q, -2.5)

    return DispersionSymbol("boussinesq", jet)


def fractional_symbol(alpha) -> DispersionSymbol:
    """m(k) = 1 + |k|^alpha.

    Twice continuously differentiable at 0 only for alpha >= 2; where a
    derivative is unbounded at k = 0 the jet is not finite there.  alpha
    may be an array that broadcasts against k: a column of exponents gives
    one row of values per exponent.
    """

    def jet(k: ArrayLike, order: int = 2) -> Jet:
        k = np.asarray(k, dtype=float)
        a = np.abs(k)
        with np.errstate(all="ignore"):
            m = np.where(a == 0.0, np.where(alpha > 0.0, 1.0, math.inf),
                         1.0 + np.float_power(a, alpha))
            if not order:
                return (m,)
            p1, p2 = np.float_power(a, alpha - 1.0), np.float_power(a, alpha - 2.0)
            return m, np.where(k < 0.0, -alpha * p1, alpha * p1), alpha * (alpha - 1.0) * p2

    name = f"fractional(alpha={alpha:g})" if np.ndim(alpha) == 0 else "fractional(alpha per row)"
    return DispersionSymbol(name, jet)


def _whitham_jet(k: ArrayLike, order: int = 2) -> Jet:
    # g = tanh(k)/k and its derivatives, each with the removable singularity
    # at 0 filled by its Taylor series; m = sqrt(g)
    k = np.asarray(k, dtype=float)
    with np.errstate(all="ignore"):
        a, k2 = np.abs(k), k * k
        t = np.tanh(k)
        g = np.where(a < 1e-6, 1.0 - k2 / 3.0 + 2.0 * k2 * k2 / 15.0, t / k)
        if not order:
            return _sqrt_jet((g,))
        s2 = 1.0 - t * t  # sech^2
        g1 = np.where(a < 1e-4, -2.0 * k / 3.0 + 8.0 * np.float_power(k, 3) / 15.0,
                      s2 / k - t / (k * k))
        g2 = np.where(a < 1e-3, -2.0 / 3.0 + 24.0 * k * k / 15.0,
                      -2.0 * s2 * t / k - 2.0 * s2 / (k * k) + 2.0 * t / np.float_power(k, 3))
        return _sqrt_jet((g, g1, g2))


def whitham_symbol() -> DispersionSymbol:
    """m(k) = sqrt(tanh(k)/k), with m(0) = 1 by the Taylor limit."""
    return DispersionSymbol("whitham", _whitham_jet)


_BUILTINS: dict[str, Callable[..., DispersionSymbol]] = {
    "bbm": bbm_symbol,
    "boussinesq": boussinesq_symbol,
    "whitham": whitham_symbol,
    "fractional": fractional_symbol,
}


def builtin_symbol(name: str, **params: float) -> DispersionSymbol:
    """Look up a built-in family by name (fractional requires alpha=...)."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown builtin symbol '{name}'; have {sorted(_BUILTINS)}") from None
    return factory(**params)


# ---------------------------------------------------------------------------
# Expression parser: Python's own, on the text with '^' read as '**'; a
# whitelist turns its syntax tree into the nodes _jet_node evaluates.
# Grammar: decimal literals, k, named parameters, + - * /, unary minus, a
# right-associative '^', and the functions below.
# ---------------------------------------------------------------------------

_FUNCTIONS: dict[str, tuple[int, Callable[..., Jet]]] = {
    "sqrt": (1, _sqrt_jet),
    "tanh": (1, _tanh_jet),
    "abs": (1, lambda x: _chain(x, np.abs(x[0]), lambda: (np.copysign(1.0, x[0]), 0.0))),
    "exp": (1, _exp_jet),
    "cos": (1, lambda x: _chain(x, np.cos(x[0]), lambda: (-np.sin(x[0]), -np.cos(x[0])))),
    "pow": (2, _pow_jet),
}
_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div", ast.Pow: "pow"}
#: Python's '**', or a character outside the grammar
_FOREIGN = re.compile(r"\*\*|[^\w\s.+\-*/^(),]")
#: the most operator characters a text may hold: Python 3.10's parser crashes
#: the interpreter on a 200 000-term sum, and any chain of a few thousand
#: terms overflows the evaluator's recursion anyway
MAX_OPERATORS = 10_000
_OPERATOR = re.compile(r"[-+*/^]")
_DECIMAL = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_ANY_TOKEN = ("number", "identifier", "operator")


def _parse(text: str, params: dict[str, float]):
    """The (op, ...) tree of an expression; ParseError at a position in text."""
    foreign = _FOREIGN.search(text)
    if foreign:
        raise ParseError("powers are written '^', not '**'" if foreign[0] == "**"
                         else f"unexpected character {foreign[0]!r}", foreign.start(), _ANY_TOKEN)
    excess = next(itertools.islice(_OPERATOR.finditer(text), MAX_OPERATORS, None), None)
    if excess:
        raise ParseError(f"more than {MAX_OPERATORS} operators", excess.start())
    # one Python line without indent, every unclosed '(' closed at its end;
    # where[i] is the position in text of the i-th character parsed
    pieces = ["**" if ch == "^" else " " if ch.isspace() else ch for ch in text]
    where = [i for i, piece in enumerate(pieces) for _ in piece]
    src = "".join(pieces)
    lead = len(src) - len(src.lstrip())
    closers = ")" * max(0, text.count("(") - text.count(")"))
    src, where = src[lead:] + closers, where[lead:] + [len(text)] * (len(closers) + 1)
    raw = src.encode()  # ast offsets count UTF-8 bytes

    def at(node) -> int:
        return where[len(raw[:node.col_offset].decode())]

    def segment(node) -> str:  # as written: Python folds Unicode identifiers
        return raw[node.col_offset:node.end_col_offset].decode()

    def walk(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return (_BINARY[type(node.op)], walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return ("neg", walk(node.operand))
        if isinstance(node, ast.Constant) and _DECIMAL.fullmatch(segment(node)):
            return ("num", float(segment(node)))
        if isinstance(node, ast.Name):
            name = segment(node)
            if name == "k":
                return ("var",)
            if name in params:
                return ("num", float(params[name]))
            raise ParseError(f"unknown identifier {name!r}", at(node), ("k",) + tuple(sorted(params)))
        # a bare function name and positional arguments, without Python's f(x,)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords
                and node.func.col_offset == node.col_offset
                and not re.search(r", *\)$", segment(node))):
            name = segment(node.func)
            if name not in _FUNCTIONS:
                raise ParseError(f"unknown function {name!r}", at(node), tuple(sorted(_FUNCTIONS)))
            args, arity = [walk(arg) for arg in node.args], _FUNCTIONS[name][0]
            if len(args) != arity:
                raise ParseError(f"function {name!r} takes {arity} argument(s), got {len(args)}",
                                 at(node), (f"{arity} argument(s)",))
            return ("call", name, args)
        what = "not a decimal literal" if isinstance(node, ast.Constant) else "unsupported syntax"
        raise ParseError(f"{what}: {segment(node)!r}", at(node), _ANY_TOKEN)

    try:
        tree = walk(ast.parse(src, mode="eval").body)
    except SyntaxError as exc:
        pos = where[min(exc.offset - 1, len(src))] if exc.offset else len(text)
        near = re.match(r"[\w.]+|\S", text[pos:])
        raise ParseError(f"invalid syntax near {near[0]!r}" if near else "unexpected end of input",
                         pos, _ANY_TOKEN) from None
    if closers:
        raise ParseError("unclosed '('", len(text), (")",))
    return tree


def _jet_node(node, k: np.ndarray, order: int = 2) -> Jet:
    """(f, f', f'') of an expression node, elementwise over k; (f,) for
    order 0."""
    op = node[0]
    if op == "num":  # numpy scalars, so a constant 0/0 is nan, not an exception
        return (np.float64(node[1]), np.float64(0.0), np.float64(0.0))[: 3 if order else 1]
    if op == "var":
        return (k, np.float64(1.0), np.float64(0.0))[: 3 if order else 1]
    if op == "neg":
        return tuple(-c for c in _jet_node(node[1], k, order))
    if op == "call":
        return _FUNCTIONS[node[1]][1](*(_jet_node(arg, k, order) for arg in node[2]))
    x, y = _jet_node(node[1], k, order), _jet_node(node[2], k, order)
    if op == "pow":
        return _pow_jet(x, y)
    if op == "add":
        return tuple(p + q for p, q in zip(x, y))
    if op == "sub":
        return tuple(p - q for p, q in zip(x, y))
    if op not in ("mul", "div"):
        raise AssertionError(f"unknown node {op}")
    a, b = x[0], y[0]
    q = a * b if op == "mul" else a / b
    if len(x) == 1:
        return (q,)
    (_, a1, a2), (_, b1, b2) = x, y
    if op == "mul":
        return q, a1 * b + a * b1, a2 * b + 2.0 * a1 * b1 + a * b2
    q1 = (a1 - q * b1) / b
    return q, q1, (a2 - 2.0 * q1 * b1 - q * b2) / b


_PROBE_GRID = (0.3781, 0.9132, 1.7, 2.64, 4.41, 7.9)
#: offsets of the two-sided limit probe, in units of h
_PROBE_STEPS = np.array([-2.0, -1.0, 1.0, 2.0])[:, None]


def parse_symbol(expr: str, params: dict[str, float] | None = None) -> DispersionSymbol:
    """Compile a textual expression in k into a DispersionSymbol.

    Removable singularities (0/0 at isolated points) are filled by a
    numerical limit of the whole jet.  The result carries warnings when
    the expression violates m(0)=1 or evenness on a probe grid.
    """
    params = dict(params or {})

    def at(k: np.ndarray, order: int) -> list[np.ndarray]:
        with np.errstate(all="ignore"):
            return [np.array(np.broadcast_to(c, k.shape), dtype=float)
                    for c in _jet_node(tree, k, order)]

    def filled(k: ArrayLike, order: int = 2) -> list[np.ndarray]:
        """The jet with removable singularities filled; nan where none is."""
        k = np.asarray(k, dtype=float)
        j = at(k, order)
        bad = ~np.isfinite(j[0])
        if np.any(bad):
            # probe the two-sided limit of the value at every non-finite k
            kb = k[bad]
            samples = at(kb + _PROBE_STEPS * (1e-6 * np.maximum(1.0, np.abs(kb))), order)
            ok = np.isfinite(samples[0])
            count = ok.sum(axis=0)
            first = samples[0][ok.argmax(axis=0), np.arange(kb.size)]
            spread = (np.where(ok, samples[0], -np.inf).max(axis=0)
                      - np.where(ok, samples[0], np.inf).min(axis=0))
            limit = (count >= 2) & (spread <= 1e-6 * np.maximum(1.0, np.abs(first)))
            with np.errstate(all="ignore"):
                for c, s in zip(j, samples):
                    c[bad] = np.where(limit, np.where(ok, s, 0.0).sum(axis=0) / count, np.nan)
        return j

    def jet(k: ArrayLike, order: int = 2) -> Jet:
        j = filled(k, order)
        _require_finite(np.asarray(k, dtype=float), np.isfinite(j[0]),
                        lambda bad: f"expression {expr!r} is not finite at k={bad}")
        return tuple(j)

    try:  # the first evaluation recurses as deep as the parse
        tree = _parse(expr, params)
        m0 = float(filled(0.0, 0)[0])
    except (MemoryError, RecursionError):  # the parser's or the interpreter's stack overflowed
        raise ParseError("expression nested too deeply", 0) from None
    warnings = []
    if not math.isfinite(m0):
        warnings.append("normalization violated: m(0) is not finite")
    elif abs(m0 - 1.0) > 1e-12:
        warnings.append(f"normalization violated: m(0) = {m0!r}, expected 1")
    probe = np.array(_PROBE_GRID)
    left, right = filled(-probe, 0)[0], filled(probe, 0)[0]
    finite = np.isfinite(left) & np.isfinite(right)
    odd = np.flatnonzero(finite & (np.abs(left - right) > 1e-9 * np.maximum(1.0, np.abs(right))))
    stop = int(odd[0]) if odd.size else len(_PROBE_GRID)  # the first odd point ends the scan
    warnings += [f"evaluation failed on probe point k={kk}"
                 for kk, ok in zip(_PROBE_GRID[:stop], finite[:stop]) if not ok]
    if odd.size:
        warnings.append(f"evenness violated: m({-_PROBE_GRID[stop]}) != m({_PROBE_GRID[stop]})")

    return DispersionSymbol(f"expr[{expr}]", jet, warnings=tuple(warnings))


def symbol_from_config(spec: dict) -> DispersionSymbol:
    """Build a symbol from a JSON-style declaration.

    Accepted forms: {"builtin": name, "params": {...}} and
    {"expr": text, "params": {...}}; an optional "name" overrides the label.
    """
    if "builtin" in spec:
        sym = builtin_symbol(spec["builtin"], **spec.get("params", {}))
    elif "expr" in spec:
        sym = parse_symbol(spec["expr"], spec.get("params", {}))
    else:
        raise KeyError("symbol declaration needs 'builtin' or 'expr'")
    if "name" in spec:
        sym = replace(sym, name=spec["name"])
    return sym


# ---------------------------------------------------------------------------
# Assumption verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the empirical structural checks on a symbol."""

    m1_ok: bool
    m2_ok: bool
    m3_ok: bool
    m4_ok: bool
    m3_bounds: tuple[float, float, float]  # (C1, C2, alpha_hat)
    m4_violations: tuple[tuple[float, int], ...]
    grid: tuple[float, ...]

    def all_ok(self) -> bool:
        return self.m1_ok and self.m2_ok and self.m3_ok and self.m4_ok


def check_assumptions(
    sym: DispersionSymbol, k_grid, n_max: int = 8
) -> AssumptionReport:
    """Verify smoothness, symmetry, tail growth and harmonic non-resonance.

    The tail exponent is fitted by log-log regression over the top decade
    of the grid; the power-law envelope (C1, C2, alpha_hat) is reported.
    Resonances m(k) = m(nk) are located by one scan of a table with a row
    per n = 2..n_max; any hit is a violation of the non-resonance
    assumption and downstream expansions refuse those wave numbers.
    """
    grid = np.asarray(sorted(k_grid), dtype=float)
    if grid.size == 0:
        raise InvalidArgument("k_grid is empty")
    if n_max < 2:
        raise InvalidArgument("n_max must be >= 2")

    # (M1): the jet is finite and consistent with central differences; an
    # overflowing h2 * h2 is inf, and the difference quotient over it 0
    try:
        _, d1, d2 = jet_m(sym, grid)
        h1, h2 = 1e-5 * np.maximum(1.0, np.abs(grid)), 1e-4 * np.maximum(1.0, np.abs(grid))
        fd1 = (eval_m(sym, grid + h1) - eval_m(sym, grid - h1)) / (2 * h1)
        with np.errstate(over="ignore"):
            fd2 = ((eval_m(sym, grid + h2) - 2.0 * eval_m(sym, grid) + eval_m(sym, grid - h2))
                   / (h2 * h2))
        m1_ok = bool(np.all(np.maximum(np.abs(d1 - fd1) / np.maximum(1.0, np.abs(d1)),
                                       np.abs(d2 - fd2) / np.maximum(1.0, np.abs(d2))) <= 1e-3))
    except NonFinite:
        m1_ok = False

    # (M2): normalization and evenness of the raw expression
    try:
        probe = grid[:: max(1, grid.size // 16)]
        m2_ok = bool(abs(sym.raw(0.0) - 1.0) <= 1e-12) and bool(
            np.all(np.abs(sym.raw(-probe) - sym.raw(probe)) <= 1e-12))
    except NonFinite:
        m2_ok = False

    # (M3): power-law envelope over the top decade of the grid
    tail = grid[grid >= grid[-1] / 10.0]
    if tail.size < 3:
        tail = grid[-3:]
    vals = eval_m(sym, tail)
    if np.any(vals <= 0.0):
        m3_ok = False
        bounds = (math.nan, math.nan, math.nan)
    else:
        logk, logm = np.log(tail), np.log(vals)
        alpha_hat, intercept = np.polyfit(logk, logm, 1)
        resid = logm - (alpha_hat * logk + intercept)
        ratios = vals / tail**alpha_hat
        bounds = (float(ratios.min()), float(ratios.max()), float(alpha_hat))
        # report-only quality gate: the tail must actually look like a power law
        m3_ok = bool(np.max(np.abs(resid)) <= 0.15)

    # (M4): second and higher harmonic resonances, one table row per n; a
    # sample is a zero within 1e-14 of the values it compares, not absolutely
    n = np.arange(2, n_max + 1)[:, None]
    with np.errstate(over="ignore"):  # an n k beyond the floats is inf
        mk, mnk = eval_m(sym, grid), eval_m(sym, n * grid)
        roots = scan_roots(lambda k: eval_m(sym, k) - eval_m(sym, n * k), grid, mk - mnk,
                           tol=1e-12, zero_tol=1e-14 * np.maximum(np.abs(mk), np.abs(mnk)))
    violations = [(root, order) for order, hits in zip(range(2, n_max + 1), roots) for root in hits]
    m4_ok = not violations

    return AssumptionReport(
        m1_ok=m1_ok,
        m2_ok=m2_ok,
        m3_ok=m3_ok,
        m4_ok=m4_ok,
        m3_bounds=bounds,
        m4_violations=tuple(violations),
        grid=tuple(grid.tolist()),
    )
