"""Fourier-multiplier dispersion symbols m(k).

Built-in families, a small expression parser for user-defined symbols,
exact derivatives through second-order jets (m, m', m''), and empirical
verification of the structural assumptions (smoothness, evenness with
m(0)=1, power-law tails, absence of harmonic resonances m(k)=m(nk)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import EmptyGrid, NonFinite, ParseError
from .numerics import Bracket, find_root

#: second-order Taylor jet (f, f', f'') of a function at one point
Jet = tuple[float, float, float]


@dataclass(frozen=True)
class DispersionSymbol:
    """Evaluable dispersion symbol m(k) with its exact derivative jet.

    ``raw`` is the symbol as supplied (used for evenness checks); public
    evaluation goes through :func:`eval_m`, which symmetrizes to |k|.
    ``jet`` returns (m, m', m'') for k >= 0; :func:`jet_m` extends it to
    every k.  ``alpha`` is the nominal growth exponent of the large-k tail
    when known, ``params`` any named parameters of the family.
    """

    name: str
    raw: Callable[[float], float]
    jet: Callable[[float], Jet]
    alpha: float | None = None
    params: dict[str, float] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()


def eval_m(sym: DispersionSymbol, k: float) -> float:
    """m(k); evaluates at |k| since every admissible symbol is even."""
    val = sym.raw(abs(k))
    if not math.isfinite(val):
        raise NonFinite(f"{sym.name}({k}) is not finite")
    return val


def jet_m(sym: DispersionSymbol, k: float) -> Jet:
    """(m(k), m'(k), m''(k)), exact; m' is odd in k and m'' even."""
    m, m1, m2 = sym.jet(abs(k))
    if not (math.isfinite(m) and math.isfinite(m1) and math.isfinite(m2)):
        raise NonFinite(f"jet of {sym.name} at k={k} is not finite: {(m, m1, m2)}")
    return m, (-m1 if k < 0 else m1), m2


def phase_speed(sym: DispersionSymbol, k: float) -> float:
    """Phase speed of the plane wave with wave number k; equals m(k)."""
    return eval_m(sym, k)


def group_speed(sym: DispersionSymbol, k: float) -> float:
    """Group speed (k m(k))' = m(k) + k m'(k)."""
    m, m1, _ = jet_m(sym, k)
    return m + k * m1


# ---------------------------------------------------------------------------
# Jet arithmetic: forward-mode second-order rules (Griewank & Walther,
# "Evaluating Derivatives", ch. 13).  The value is the same float operation
# as plain evaluation and alone raises; a derivative that does not exist
# where the value does comes out inf or nan.
# ---------------------------------------------------------------------------


def _power(a: float, p: float) -> float:
    """a**p in a derivative term: inf where it has no finite value."""
    try:
        return a**p
    except (ZeroDivisionError, OverflowError):
        return math.inf


def _chain(x: Jet, g: float, g1: float, g2: float) -> Jet:
    """Jet of g(a(k)) from the jet x of a and g, g', g'' at a."""
    return g, g1 * x[1], g2 * x[1] * x[1] + g1 * x[2]


def _pow_jet(x: Jet, y: Jet) -> Jet:
    a, a1, a2 = x
    b, b1, b2 = y
    v = a**b
    if isinstance(v, complex):  # a < 0 with a non-integer exponent
        return math.nan, math.nan, math.nan
    if b1 == 0.0 and b2 == 0.0:  # constant exponent: the power rule
        return _chain(x, v, b * _power(a, b - 1.0), b * (b - 1.0) * _power(a, b - 2.0))
    if not a > 0.0:
        return v, math.nan, math.nan
    # a**b = exp(u) with u = b log a
    lg, r1 = math.log(a), a1 / a
    u1 = b1 * lg + b * r1
    u2 = b2 * lg + 2.0 * b1 * r1 + b * (a2 / a - r1 * r1)
    return v, v * u1, v * (u2 + u1 * u1)


def _sqrt_jet(x: Jet) -> Jet:
    v = math.sqrt(x[0])
    g1 = 0.5 / v if v else math.inf
    return _chain(x, v, g1, -2.0 * g1 * g1 * g1)


def _tanh_jet(x: Jet) -> Jet:
    t = math.tanh(x[0])
    e = math.exp(-2.0 * abs(x[0]))
    s = 4.0 * e / (1.0 + e) ** 2  # sech^2 without the cancellation in 1 - t^2
    return _chain(x, t, s, -2.0 * t * s)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def _whitham_g(k: float) -> float:
    # tanh(k)/k with the removable singularity filled by its Taylor series
    if abs(k) < 1e-6:
        k2 = k * k
        return 1.0 - k2 / 3.0 + 2.0 * k2 * k2 / 15.0
    return math.tanh(k) / k


def _whitham_g1(k: float) -> float:
    if abs(k) < 1e-4:
        return -2.0 * k / 3.0 + 8.0 * k**3 / 15.0
    t = math.tanh(k)
    return (1.0 - t * t) / k - t / (k * k)


def _whitham_g2(k: float) -> float:
    if abs(k) < 1e-3:
        return -2.0 / 3.0 + 24.0 * k * k / 15.0
    t = math.tanh(k)
    s2 = 1.0 - t * t  # sech^2
    return -2.0 * s2 * t / k - 2.0 * s2 / (k * k) + 2.0 * t / (k**3)


def bbm_symbol() -> DispersionSymbol:
    """m(k) = 1/(1+k^2)."""

    def jet(k: float) -> Jet:
        q = 1.0 + k * k
        return 1.0 / q, -2.0 * k / q**2, (6.0 * k * k - 2.0) / q**3

    return DispersionSymbol(name="bbm", raw=lambda k: 1.0 / (1.0 + k * k), jet=jet, alpha=-2.0)


def boussinesq_symbol() -> DispersionSymbol:
    """m(k) = (1+k^2)^(-1/2)."""

    def jet(k: float) -> Jet:
        q = 1.0 + k * k
        return q**-0.5, -k * q**-1.5, (2.0 * k * k - 1.0) * q**-2.5

    return DispersionSymbol(
        name="boussinesq", raw=lambda k: (1.0 + k * k) ** -0.5, jet=jet, alpha=-1.0
    )


def fractional_symbol(alpha: float) -> DispersionSymbol:
    """m(k) = 1 + |k|^alpha.

    Twice continuously differentiable at 0 only for alpha >= 2; where a
    derivative is unbounded at k = 0 the jet is not finite there.
    """

    def raw(k: float) -> float:
        if k == 0.0:
            return 1.0 if alpha > 0.0 else math.inf
        return 1.0 + abs(k) ** alpha

    def jet(k: float) -> Jet:
        p1, p2 = _power(k, alpha - 1.0), _power(k, alpha - 2.0)
        return raw(k), alpha * p1, alpha * (alpha - 1.0) * p2

    return DispersionSymbol(name=f"fractional(alpha={alpha:g})", raw=raw, jet=jet, alpha=alpha,
                            params={"alpha": alpha})


def whitham_symbol() -> DispersionSymbol:
    """m(k) = sqrt(tanh(k)/k), with m(0) = 1 by the Taylor limit."""
    return DispersionSymbol(
        name="whitham", raw=lambda k: math.sqrt(_whitham_g(k)), alpha=-0.5,
        jet=lambda k: _sqrt_jet((_whitham_g(k), _whitham_g1(k), _whitham_g2(k))),
    )


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
# Expression parser
#
# Grammar: reals, identifier k, named parameters, + - * / ^, unary minus,
# functions sqrt, tanh, abs, exp, cos, pow; standard precedence with a
# right-associative '^'.
# ---------------------------------------------------------------------------

_FUNCTIONS: dict[str, tuple[int, Callable[..., Jet]]] = {
    "sqrt": (1, _sqrt_jet),
    "tanh": (1, _tanh_jet),
    "abs": (1, lambda x: _chain(x, abs(x[0]), math.copysign(1.0, x[0]), 0.0)),
    "exp": (1, lambda x: _chain(x, *[math.exp(x[0])] * 3)),
    "cos": (1, lambda x: _chain(x, math.cos(x[0]), -math.sin(x[0]), -math.cos(x[0]))),
    "pow": (2, _pow_jet),
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(("number", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        elif ch in "+-*/^(),":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i,
                             ("number", "identifier", "operator"))
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, params: dict[str, float]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.params = params

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], (kind,))
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], ("end of input",))
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return ("pow", base, self.unary())
        return base

    def atom(self):
        tok = self.peek()
        if tok[0] == "number":
            self.advance()
            return ("num", float(tok[1]))
        if tok[0] == "ident":
            self.advance()
            name = tok[1]
            if self.peek()[0] == "(":
                if name not in _FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", tok[2],
                                     tuple(sorted(_FUNCTIONS)))
                self.advance()
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                arity = _FUNCTIONS[name][0]
                if len(args) != arity:
                    raise ParseError(
                        f"function {name!r} takes {arity} argument(s), got {len(args)}",
                        tok[2], (f"{arity} argument(s)",))
                return ("call", name, args)
            if name == "k":
                return ("var",)
            if name in self.params:
                return ("num", float(self.params[name]))
            raise ParseError(f"unknown identifier {name!r}", tok[2],
                             ("k",) + tuple(sorted(self.params)))
        if tok[0] == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2],
                         ("number", "identifier", "("))


def _jet_node(node, k: float) -> Jet:
    """(f, f', f'') of an expression node at k."""
    op = node[0]
    if op == "num":
        return node[1], 0.0, 0.0
    if op == "var":
        return k, 1.0, 0.0
    if op == "neg":
        a, a1, a2 = _jet_node(node[1], k)
        return -a, -a1, -a2
    if op == "call":
        return _FUNCTIONS[node[1]][1](*(_jet_node(arg, k) for arg in node[2]))
    x, y = _jet_node(node[1], k), _jet_node(node[2], k)
    if op == "pow":
        return _pow_jet(x, y)
    (a, a1, a2), (b, b1, b2) = x, y
    if op == "add":
        return a + b, a1 + b1, a2 + b2
    if op == "sub":
        return a - b, a1 - b1, a2 - b2
    if op == "mul":
        return a * b, a1 * b + a * b1, a2 * b + 2.0 * a1 * b1 + a * b2
    if op == "div":
        q = a / b
        q1 = (a1 - q * b1) / b
        return q, q1, (a2 - 2.0 * q1 * b1 - q * b2) / b
    raise AssertionError(f"unknown node {op}")


_PROBE_GRID = (0.3781, 0.9132, 1.7, 2.64, 4.41, 7.9)


def parse_symbol(expr: str, params: dict[str, float] | None = None) -> DispersionSymbol:
    """Compile a textual expression in k into a DispersionSymbol.

    Removable singularities (0/0 at isolated points) are filled by a
    numerical limit of the whole jet.  The result carries warnings when
    the expression violates m(0)=1 or evenness on a probe grid.
    """
    params = dict(params or {})
    ast = _Parser(expr, params).parse()

    def at(k: float) -> Jet:
        try:
            return _jet_node(ast, k)
        except (ZeroDivisionError, ValueError, OverflowError):
            return math.nan, math.nan, math.nan

    def jet(k: float) -> Jet:
        j = at(k)
        if math.isfinite(j[0]):
            return j
        # probe the two-sided limit of the value's removable singularity
        h = 1e-6 * max(1.0, abs(k))
        samples = [s for s in map(at, (k - 2 * h, k - h, k + h, k + 2 * h)) if math.isfinite(s[0])]
        values = [s[0] for s in samples]
        if len(samples) >= 2 and max(values) - min(values) <= 1e-6 * max(1.0, abs(values[0])):
            return tuple(float(np.mean(c)) for c in zip(*samples))
        raise NonFinite(f"expression {expr!r} is not finite at k={k}")

    def raw(k: float) -> float:
        return jet(k)[0]

    warnings = []
    try:
        m0 = raw(0.0)
        if abs(m0 - 1.0) > 1e-12:
            warnings.append(f"normalization violated: m(0) = {m0!r}, expected 1")
    except NonFinite:
        warnings.append("normalization violated: m(0) is not finite")
    for kk in _PROBE_GRID:
        try:
            left, right = raw(-kk), raw(kk)
        except NonFinite:
            warnings.append(f"evaluation failed on probe point k={kk}")
            continue
        if abs(left - right) > 1e-9 * max(1.0, abs(right)):
            warnings.append(f"evenness violated: m({-kk}) != m({kk})")
            break

    return DispersionSymbol(
        name=f"expr[{expr}]", raw=raw, jet=jet, params=params, warnings=tuple(warnings)
    )


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
    Resonances m(k) = m(nk) are located by sign-change bisection for
    n = 2..n_max; any hit is a violation of the non-resonance assumption
    and downstream expansions refuse those wave numbers.
    """
    grid = np.asarray(sorted(k_grid), dtype=float)
    if grid.size == 0:
        raise EmptyGrid("k_grid is empty")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")

    # (M1): the jet is finite and consistent with central differences
    def jet_ok(k: float) -> bool:
        try:
            _, d1, d2 = jet_m(sym, k)
            h1, h2 = 1e-5 * max(1.0, abs(k)), 1e-4 * max(1.0, abs(k))
            fd1 = (eval_m(sym, k + h1) - eval_m(sym, k - h1)) / (2 * h1)
            fd2 = (eval_m(sym, k + h2) - 2.0 * eval_m(sym, k) + eval_m(sym, k - h2)) / (h2 * h2)
        except NonFinite:
            return False
        return max(abs(d1 - fd1) / max(1.0, abs(d1)), abs(d2 - fd2) / max(1.0, abs(d2))) <= 1e-3

    m1_ok = all(jet_ok(k) for k in grid.tolist())

    # (M2): normalization and evenness of the raw expression
    try:
        probe = grid[:: max(1, grid.size // 16)].tolist()
        m2_ok = abs(sym.raw(0.0) - 1.0) <= 1e-12 and all(
            abs(sym.raw(-k) - sym.raw(k)) <= 1e-12 for k in probe)
    except NonFinite:
        m2_ok = False

    # (M3): power-law envelope over the top decade of the grid
    tail = grid[grid >= grid[-1] / 10.0]
    if tail.size < 3:
        tail = grid[-3:]
    vals = np.array([eval_m(sym, float(k)) for k in tail])
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

    # (M4): second and higher harmonic resonances
    violations: list[tuple[float, int]] = []
    for n in range(2, n_max + 1):
        def g(k: float, n=n) -> float:
            return eval_m(sym, k) - eval_m(sym, n * k)

        prev_k = float(grid[0])
        prev_g = g(prev_k)
        if abs(prev_g) < 1e-14:
            violations.append((prev_k, n))
        for k in grid[1:]:
            cur_g = g(float(k))
            if abs(cur_g) < 1e-14:
                violations.append((float(k), n))
            elif prev_g * cur_g < 0.0:
                root = find_root(g, Bracket(prev_k, float(k), prev_g, cur_g), 1e-12)
                violations.append((root, n))
            prev_k, prev_g = float(k), cur_g
    m4_ok = not violations

    return AssumptionReport(
        m1_ok=m1_ok,
        m2_ok=m2_ok,
        m3_ok=m3_ok,
        m4_ok=m4_ok,
        m3_bounds=bounds,
        m4_violations=tuple(violations),
        grid=tuple(float(k) for k in grid),
    )
