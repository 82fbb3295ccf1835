import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modwave.dispersion import (
    MAX_OPERATORS,
    DispersionSymbol,
    _parse,
    builtin_symbol,
    check_assumptions,
    eval_m,
    fractional_symbol,
    group_speed,
    jet_m,
    parse_symbol,
    symbol_from_config,
)
from modwave.errors import InvalidArgument, NonFinite, ParseError
from modwave.numerics import property_rng

BUILTIN_TEXT = {
    "bbm": "1/(1+k^2)",
    "boussinesq": "(1+k^2)^(-0.5)",
    "whitham": "sqrt(tanh(abs(k))/abs(k))",
}


def test_eval_examples(bbm, frac2):
    assert eval_m(bbm, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert eval_m(bbm, 2.0) == pytest.approx(0.2, abs=1e-15)
    assert eval_m(frac2, 3.0) == pytest.approx(10.0, abs=1e-12)


def test_evenness(bbm, boussinesq, whitham, frac3):
    for sym in (bbm, boussinesq, whitham, frac3):
        for k in np.geomspace(1e-3, 50, 40):
            assert abs(eval_m(sym, k) - eval_m(sym, -k)) <= 1e-12


def test_phase_and_group_speed(bbm, frac2):
    assert eval_m(bbm, 2.0) == pytest.approx(0.2)
    # (k m)' for m = 1/(1+k^2) is (1-k^2)/(1+k^2)^2
    for k in (0.3, 1.0, 2.5):
        expected = (1.0 - k * k) / (1.0 + k * k) ** 2
        assert group_speed(bbm, k) == pytest.approx(expected, rel=1e-12)
    assert group_speed(bbm, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert group_speed(frac2, 1.0) == pytest.approx(4.0, rel=1e-12)
    for sym in (bbm, frac2):
        assert group_speed(sym, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_group_speed_matches_finite_difference(bbm, boussinesq, whitham):
    rng = property_rng()
    h = 1e-6
    for sym in (bbm, boussinesq, whitham):
        for k in rng.uniform(0.1, 10.0, 25):
            fd = ((k + h) * eval_m(sym, k + h) - (k - h) * eval_m(sym, k - h)) / (2 * h)
            assert group_speed(sym, float(k)) == pytest.approx(fd, rel=1e-6)


def test_derivatives(bbm, frac3):
    assert jet_m(bbm, 1.0)[1] == pytest.approx(-0.5, rel=1e-12)
    assert jet_m(bbm, 0.0)[1] == pytest.approx(0.0, abs=1e-14)
    assert jet_m(frac3, 2.0)[2] == pytest.approx(12.0, rel=1e-12)


def test_jet_evenness(bbm, whitham, frac3):
    # m' is odd and m'' even; the value is eval_m's float
    for sym in (bbm, whitham, frac3, parse_symbol("(1+k^2)^(-0.5)")):
        for k in (0.3, 1.7, 6.0):
            m, m1, m2 = jet_m(sym, k)
            assert jet_m(sym, -k) == (m, -m1, m2)
            assert m == eval_m(sym, k)


def test_analytic_derivatives_match_finite_differences(bbm, boussinesq, whitham, frac3):
    for sym in (bbm, boussinesq, whitham, frac3):
        for k in np.geomspace(0.05, 20, 25):
            k = float(k)
            h1 = 1e-5 * max(1.0, k)
            fd1 = (eval_m(sym, k + h1) - eval_m(sym, k - h1)) / (2 * h1)
            assert jet_m(sym, k)[1] == pytest.approx(fd1, rel=1e-6, abs=1e-9)
            h2 = 1e-4 * max(1.0, k)
            fd2 = (eval_m(sym, k + h2) - 2 * eval_m(sym, k) + eval_m(sym, k - h2)) / h2**2
            assert jet_m(sym, k)[2] == pytest.approx(fd2, rel=1e-5, abs=1e-7)


def test_fractional_derivative_singularities(frac2, frac3):
    rough = builtin_symbol("fractional", alpha=1.0)
    with pytest.raises(NonFinite):
        jet_m(rough, 0.0)
    # m'(0) = 0 exists for alpha = 1.5, m''(0) does not, so the jet is refused
    mid = builtin_symbol("fractional", alpha=1.5)
    assert mid.jet(0.0)[:2] == (1.0, 0.0)
    assert math.isinf(mid.jet(0.0)[2])
    with pytest.raises(NonFinite):
        jet_m(mid, 0.0)
    with pytest.raises(NonFinite):  # the same expression agrees
        jet_m(parse_symbol("1+abs(k)^1.5"), 0.0)
    assert jet_m(frac2, 0.0) == (1.0, 0.0, 2.0)
    assert jet_m(frac3, 0.0) == (1.0, 0.0, 0.0)


def test_builtin_jets_round_like_python_floats(bbm, boussinesq, frac3):
    # every ** of a built-in is np.float_power, which rounds like Python's **
    ks = property_rng().uniform(0.01, 30.0, 200)
    for sym, scalar in (
        (bbm, lambda k: (1 / (1 + k * k), -2 * k / (1 + k * k) ** 2,
                         (6 * k * k - 2) / (1 + k * k) ** 3)),
        (boussinesq, lambda k: ((1 + k * k) ** -0.5, -k * (1 + k * k) ** -1.5,
                                (2 * k * k - 1) * (1 + k * k) ** -2.5)),
        (frac3, lambda k: (1 + k**3.0, 3.0 * k**2.0, 6.0 * k**1.0)),
    ):
        got = np.array(jet_m(sym, ks))
        assert np.array_equal(got, np.array([scalar(k) for k in ks.tolist()]).T), sym.name


def test_array_calls_match_zero_d_calls(bbm, boussinesq, whitham, frac3):
    # a scalar is a 0-d call of the same code, so an array call agrees with
    # it bit for bit, at both signs of k and inside the small-k branches
    ks = np.concatenate([np.geomspace(1e-7, 25.0, 60), [0.5, 3.0]])
    texts = ["(1+k^2)^(-0.5)", "sqrt(tanh(abs(k))/abs(k))", "1+abs(k)^2.7", "pow(2 + cos(k), k)",
             "k * exp(k) + 1", "(1 + k) / (2 + k^2)"]
    for sym in [bbm, boussinesq, whitham, frac3, fractional_symbol(2.5)] + list(map(parse_symbol, texts)):
        cols = jet_m(sym, ks)
        rows = np.array([jet_m(sym, k) for k in ks.tolist()]).T
        assert all(np.array_equal(c, r) for c, r in zip(cols, rows)), sym.name
        for k in (ks, -ks):
            assert np.array_equal(eval_m(sym, k), [eval_m(sym, x) for x in k.tolist()]), sym.name
        assert isinstance(eval_m(sym, 1.0), float) and isinstance(jet_m(sym, 1.0)[1], float)


def test_array_calls_name_the_first_bad_k():
    shifted = parse_symbol("1+(k-1)^1.5")
    with pytest.raises(NonFinite, match=r"not finite at k=0\.5$"):
        eval_m(shifted, np.array([2.0, 0.5, 0.25]))
    rough = builtin_symbol("fractional", alpha=1.0)
    with pytest.raises(NonFinite, match=r"^jet of fractional\(alpha=1\) at k=-0\.0 "):
        jet_m(rough, np.array([1.0, -0.0, 0.0]))
    # the removable singularity of an expression is filled inside an array too
    parsed = parse_symbol("sqrt(tanh(abs(k))/abs(k))")
    m, m1, m2 = jet_m(parsed, np.array([1.0, 0.0, 2.0]))
    assert m[1] == jet_m(parsed, 0.0)[0] and m[0] == eval_m(parsed, 1.0)



def test_row_parameter_symbols_name_the_first_bad_k():
    rows = fractional_symbol(np.array([[-1.0], [2.0]]))
    assert rows.name == "fractional(alpha per row)"
    assert eval_m(rows, np.array([1.0, 2.0])).tolist() == [[2.0, 1.5], [2.0, 5.0]]
    with pytest.raises(NonFinite, match=r"^fractional\(alpha per row\)\(0\.0\) is not finite$"):
        eval_m(rows, 0.0)
    with pytest.raises(NonFinite, match=r" at k=0\.0 is not finite: \(\[\[inf\], \[1\.0\]\], "):
        jet_m(rows, np.array([1.0, 0.0]))

def test_fractional_raw_is_even():
    for alpha in (2.5, 3.0):
        sym = fractional_symbol(alpha)
        assert sym.raw(-1.3) == sym.raw(1.3)
        assert check_assumptions(sym, np.linspace(0.1, 10, 200)).m2_ok


# (expression, the same function in mpmath) for every operator and function
# of the grammar, including '^' with a variable exponent
MP_EXPRESSIONS = [
    ("2.5 + k", lambda k: 2.5 + k),
    ("3 - k^2", lambda k: 3 - k**2),
    ("-k^3 + 1", lambda k: -(k**3) + 1),
    ("k * exp(k)", lambda k: k * mp.exp(k)),
    ("(1 + k) / (2 + k^2)", lambda k: (1 + k) / (2 + k**2)),
    ("sqrt(1 + k^2)", lambda k: mp.sqrt(1 + k**2)),
    ("tanh(k)", mp.tanh),
    ("tanh(abs(k))/abs(k)", lambda k: mp.tanh(k) / k),
    ("abs(k - 3) * k", lambda k: abs(k - 3) * k),
    ("cos(k) + 2", lambda k: mp.cos(k) + 2),
    ("pow(1 + k^2, -1.5)", lambda k: (1 + k**2) ** mp.mpf(-1.5)),
    ("(1+k^2)^(-0.5)", lambda k: (1 + k**2) ** mp.mpf(-0.5)),
    ("1+abs(k)^2.7", lambda k: 1 + k ** mp.mpf(2.7)),
    ("abs(k)^k", lambda k: k**k),
    ("(1 + k^2)^(k/2)", lambda k: (1 + k**2) ** (k / 2)),
    ("2^(-k)", lambda k: mp.mpf(2) ** (-k)),
    ("pow(2 + cos(k), k)", lambda k: (2 + mp.cos(k)) ** k),
]


@pytest.mark.parametrize("text,f", MP_EXPRESSIONS, ids=[t for t, _ in MP_EXPRESSIONS])
def test_expression_jet_matches_mpmath(text, f):
    sym = parse_symbol(text)
    with mp.workdps(40):
        for k in (0.3, 1.1, 2.7, 7.5, 19.0):
            ref = [f(mp.mpf(k)), mp.diff(f, mp.mpf(k)), mp.diff(f, mp.mpf(k), 2)]
            for got, want in zip(sym.jet(k), ref):
                assert abs(got - want) <= 1e-12 * abs(want), (k, got, want)


def test_jet_at_removable_singularity():
    # the two-sided probe fills the whole jet: m ~ 1 - k^2/6, m'' -> -1/3
    parsed = parse_symbol("sqrt(tanh(abs(k))/abs(k))")
    m, m1, m2 = jet_m(parsed, 0.0)
    assert m == pytest.approx(1.0, abs=1e-12)
    assert m1 == pytest.approx(0.0, abs=1e-9)
    assert m2 == pytest.approx(-1.0 / 3.0, abs=1e-3)


# both signs of zero, the Whitham series branch (|k| < 1e-6), negative k
K_VALUE_ONLY = np.array([-3.0, -0.7, -1e-7, -0.0, 0.0, 5e-7, 1e-6, 2e-4, 0.5, 1.0, 1.7, 40.0])


@pytest.mark.parametrize("name", ["bbm", "boussinesq", "whitham", "fractional"])
def test_value_only_jet_is_the_jets_value_bit_for_bit(name):
    if name == "fractional":  # a column of exponents, m(0) = inf at alpha <= 0
        sym = fractional_symbol(np.array([[-1.0], [0.0], [0.5], [2.0], [3.7]]))
    else:
        sym = builtin_symbol(name)
    k = np.concatenate([K_VALUE_ONLY, [np.inf, -np.inf, np.nan]])
    with np.errstate(all="ignore"):
        full = sym.jet(k)[0]
        value = sym.jet(k, 0)
        raw = sym.raw(k)
    assert len(value) == 1
    assert np.shape(value[0]) == np.shape(full) == np.shape(raw)
    assert np.asarray(value[0]).tobytes() == np.asarray(full).tobytes()
    assert np.asarray(raw).tobytes() == np.asarray(full).tobytes()


@pytest.mark.parametrize("text", [
    *BUILTIN_TEXT.values(),
    "tanh(k)/k",  # removable singularity at 0, filled by the probe
    "1+abs(k)^2.7", "abs(k)^k", "pow(2 + cos(k), k)", "exp(-k^2)*cos(k) - k/(2+k^2)",
    "-(k*0)",  # -0.0 at k >= 0, 0.0 at k < 0
])
def test_value_only_expression_is_the_jets_value_bit_for_bit(text):
    sym = parse_symbol(text)
    full, (value,), raw = sym.jet(K_VALUE_ONLY)[0], sym.jet(K_VALUE_ONLY, 0), sym.raw(K_VALUE_ONLY)
    assert value.tobytes() == full.tobytes()
    assert raw.tobytes() == full.tobytes()
    for k in (0.0, -0.0):  # a scalar is a 0-d call, filled alike
        assert np.asarray(sym.raw(k)).tobytes() == np.asarray(sym.jet(k)[0]).tobytes()


def test_parse_builtin_equivalence(bbm, boussinesq, whitham):
    rng = property_rng()
    by_name = {"bbm": bbm, "boussinesq": boussinesq, "whitham": whitham}
    for name, text in BUILTIN_TEXT.items():
        parsed = parse_symbol(text)
        assert parsed.warnings == ()
        for k in rng.uniform(1e-3, 20.0, 100):
            got, want = jet_m(parsed, float(k)), jet_m(by_name[name], float(k))
            for c in range(3):
                assert abs(got[c] - want[c]) <= 1e-12 * max(1.0, abs(want[c]))
            assert got[0] == eval_m(parsed, float(k))


def test_parse_fractional_text(frac3):
    parsed = parse_symbol("1+abs(k)^alpha", {"alpha": 3.0})
    for k in (0.2, 1.0, 4.0):
        assert eval_m(parsed, k) == pytest.approx(eval_m(frac3, k), rel=1e-14)


def test_parse_whitham_limit_at_zero():
    parsed = parse_symbol("sqrt(tanh(abs(k))/abs(k))")
    assert eval_m(parsed, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_parse_pow_function():
    parsed = parse_symbol("pow(1+k^2, -1)")
    assert eval_m(parsed, 2.0) == pytest.approx(0.2, rel=1e-14)


def test_complex_power_is_not_finite():
    # a negative base with a non-integer exponent has no real value
    parsed = parse_symbol("k^k")
    assert "evaluation failed on probe point k=0.3781" in parsed.warnings
    with pytest.raises(NonFinite):
        parsed.raw(-0.5)
    assert eval_m(parsed, -0.5) == 0.5**0.5  # eval_m reads the symbol at |k|
    shifted = parse_symbol("1+(k-1)^1.5")
    with pytest.raises(NonFinite):
        eval_m(shifted, 0.5)
    with pytest.raises(NonFinite):
        jet_m(shifted, 0.5)


def test_parse_warns_on_odd_expression():
    parsed = parse_symbol("1+k")
    assert any("evenness" in w for w in parsed.warnings)


def test_parse_warns_on_bad_normalization():
    parsed = parse_symbol("2/(1+k^2)")
    assert any("normalization" in w for w in parsed.warnings)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_symbol("1/(1+k")
    assert err.value.position == len("1/(1+k")
    assert ")" in err.value.expected
    with pytest.raises(ParseError):
        parse_symbol("sin(k)")  # unknown function
    with pytest.raises(ParseError):
        parse_symbol("pow(k)")  # wrong arity
    with pytest.raises(ParseError):
        parse_symbol("1 + q")  # unknown identifier


# each is outside the grammar, and none may escape as anything but ParseError
REJECTED = [
    "k**2", "k//2", "k%2", "k@k", "+k", "0x10", "0o7", "0b1", "1_000+k", "1j+k", "k.real",
    "k[0]", "k<2", "k,k", "(k,)", "pow(k, b=2)", "pow(k, 2,)", "(sqrt)(k)", "k(2)", "1+k # c",
    "1.2.3", "1e", "", "  ", "1+", "k)", "'k'", "True", "...", "1\\\nk", "k\x00",
    "-" * 6000 + "k", "+".join(["k"] * 3000), "(" * 250 + "k" + ")" * 250,
]


@pytest.mark.parametrize("text", REJECTED, ids=range(len(REJECTED)))
def test_parse_rejects_what_the_grammar_lacks(text):
    with pytest.raises(ParseError) as err:
        parse_symbol(text)
    assert 0 <= err.value.position <= len(text)


@pytest.mark.parametrize("text,position", [
    ("1 + q", 4),  # unknown identifier
    ("k^2\t^ 2 *\n q", 11),  # after '^', a tab and a newline
    ("α^2 + q", 6),  # after a non-ASCII parameter name
    ("k^2 + sin(k)", 6),  # unknown function
    ("2*pow(k)", 2),  # wrong arity: the function's position
    ("pow(q, 2)", 4),  # the arguments are read before the arity is checked
    ("(1+k)^(2", 8),  # unclosed '(' at the end
])
def test_parse_error_positions_index_the_original_text(text, position):
    with pytest.raises(ParseError) as err:
        parse_symbol(text, {"α": 1.0})
    assert err.value.position == position


def test_operator_count_is_bounded_before_parsing():
    # short chains inside parentheses: exactly the bound parses and evaluates
    group = "(" + "+".join(["k"] * 100) + ")"
    text = "+".join([group] * 100) + "+k"
    assert text.count("+") == MAX_OPERATORS
    assert eval_m(parse_symbol(text), 1.0) == 10_001.0
    # one more is refused at that operator, before Python's parser runs
    for longer, position in ((text + "-k", len(text)),
                             ("+".join(["k"] * 200_000), 2 * MAX_OPERATORS + 1)):
        with pytest.raises(ParseError) as err:
            parse_symbol(longer)
        assert str(err.value) == f"more than {MAX_OPERATORS} operators at position {position}"
        assert err.value.position == position


def test_rejected_inputs_the_grammar_once_took():
    # integer literals with leading zeros, as in Python; a float may have them
    with pytest.raises(ParseError) as err:
        parse_symbol("1+010*k^2")
    assert err.value.position == 2
    assert _parse("00.5+0*k", {}) == ("add", ("num", 0.5), ("mul", ("num", 0.0), ("var",)))
    # a parameter named by a Python keyword cannot be spelled in the text
    with pytest.raises(ParseError):
        parse_symbol("1+lambda*k^2", {"lambda": 2.0})


PARAMS = {"alpha": 3.0, "b_2": 0.5}
LITERALS = st.one_of(
    st.sampled_from(["1.", ".5", "1e-3", "2.5E+2", "0", "10"]),
    st.integers(0, 10**6).map(str),
    st.floats(0.0, 1e6, allow_nan=False).map(repr),
)
# trees of the grammar with literals and parameters as spelled
SPELLED = st.recursive(
    st.one_of(LITERALS.map(lambda s: ("num", s)), st.just(("var",)),
              st.sampled_from(sorted(PARAMS)).map(lambda name: ("param", name))),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul", "div", "pow"]), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("call"), st.sampled_from(["sqrt", "tanh", "abs", "exp", "cos"]),
                  st.lists(sub, min_size=1, max_size=1)),
        st.tuples(st.just("call"), st.just("pow"), st.lists(sub, min_size=2, max_size=2)),
    ),
    max_leaves=12,
)
# (operator, precedence, least precedence of the left and the right operand); an atom is 5
BINARY = {"add": ("+", 1, 1, 2), "sub": ("-", 1, 1, 2), "mul": ("*", 2, 2, 3),
          "div": ("/", 2, 2, 3), "pow": ("^", 4, 5, 3)}


def expected_tree(node):
    if node[0] == "num":
        return ("num", float(node[1]))
    if node[0] == "param":
        return ("num", PARAMS[node[1]])
    if node[0] == "call":
        return ("call", node[1], [expected_tree(arg) for arg in node[2]])
    return (node[0], *map(expected_tree, node[1:]))


@st.composite
def rendered(draw):
    """A spelled tree and its text, with random blanks between the tokens and
    redundant parentheses around random subexpressions."""

    def blank():
        return draw(st.sampled_from(["", "", " ", "\t", "\n", "  \t"]))

    def grouped(text, prec, least):
        if prec < least or draw(st.integers(0, 4)) == 0:
            return f"({blank()}{text}{blank()})", 5
        return text, prec

    def render(node, least):
        if node[0] in ("num", "param"):
            return grouped(node[1], 5, least)
        if node[0] == "var":
            return grouped("k", 5, least)
        if node[0] == "neg":
            return grouped(f"-{blank()}{render(node[1], 3)[0]}", 3, least)
        if node[0] == "call":
            args = f"{blank()},{blank()}".join(render(arg, 0)[0] for arg in node[2])
            return grouped(f"{node[1]}{blank()}({blank()}{args}{blank()})", 5, least)
        op, prec, left, right = BINARY[node[0]]
        text = f"{render(node[1], left)[0]}{blank()}{op}{blank()}{render(node[2], right)[0]}"
        return grouped(text, prec, least)

    tree = draw(SPELLED)
    return tree, blank() + render(tree, 0)[0] + blank()


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(rendered())
@example((("neg", ("neg", ("neg", ("var",)))), "- --k"))
@example((("pow", ("num", "2.5E+2"), ("pow", ("var",), ("neg", ("num", "1e-3")))),
          "2.5E+2^k ^-1e-3"))
@example((("div", ("num", "1."), ("mul", ("num", ".5"), ("param", "b_2"))), "((1.))/\n(.5*b_2)"))
def test_parse_round_trips_rendered_trees(case):
    tree, text = case
    assert _parse(text, PARAMS) == expected_tree(tree)


def test_symbol_from_config(bbm):
    sym = symbol_from_config({"builtin": "bbm"})
    assert eval_m(sym, 2.0) == eval_m(bbm, 2.0)
    sym = symbol_from_config({"name": "mine", "expr": "1/(1+k^2)"})
    assert sym.name == "mine"
    sym = symbol_from_config({"builtin": "fractional", "params": {"alpha": 2.0}})
    assert eval_m(sym, 3.0) == pytest.approx(10.0)
    with pytest.raises(KeyError):
        symbol_from_config({"nope": 1})


def test_check_assumptions_bbm(bbm):
    report = check_assumptions(bbm, np.geomspace(0.01, 100, 80), 8)
    assert report.all_ok()
    assert report.m3_bounds[2] == pytest.approx(-2.0, abs=0.1)
    assert report.m4_violations == ()


def test_check_assumptions_boussinesq(boussinesq):
    report = check_assumptions(boussinesq, np.geomspace(0.01, 100, 80), 8)
    assert report.all_ok()
    assert report.m3_bounds[2] == pytest.approx(-1.0, abs=0.1)


def test_check_assumptions_whitham(whitham):
    report = check_assumptions(whitham, np.geomspace(0.01, 100, 80), 8)
    assert report.m4_ok
    assert report.m3_bounds[2] == pytest.approx(-0.5, abs=0.1)


def test_harmonic_zero_test_scales_with_the_symbol(whitham):
    # m is about 1e-99 here, so an absolute 1e-14 made every sample a root
    report = check_assumptions(whitham, np.linspace(1.0, 1e200, 200), 8)
    assert report.m4_violations == ()


def test_check_assumptions_detects_harmonic_resonance():
    # cos(k) has m(k) = m(2k) at k = 2*pi/3 and normalization m(0) = 1
    sym = parse_symbol("cos(k)")
    report = check_assumptions(sym, np.linspace(0.5, 3.0, 60), 2)
    assert not report.m4_ok
    assert any(abs(k - 2.0 * math.pi / 3.0) < 1e-8 for k, n in report.m4_violations if n == 2)


def test_check_assumptions_catches_a_wrong_jet(bbm):
    grid = np.geomspace(0.01, 100, 80)

    def off(c, scale):
        def jet(k, order=2):
            return tuple(v * scale if i == c else v for i, v in enumerate(bbm.jet(k, order)))
        return DispersionSymbol(name="bbm-wrong-jet", jet=jet)

    assert check_assumptions(off(1, 1.0), grid).m1_ok
    assert not check_assumptions(off(1, 1.01), grid).m1_ok
    assert not check_assumptions(off(2, 1.01), grid).m1_ok
    assert check_assumptions(parse_symbol("1/(1+k^2)"), grid).all_ok()


def test_check_assumptions_empty_grid(bbm):
    with pytest.raises(InvalidArgument, match="^k_grid is empty$"):
        check_assumptions(bbm, [], 8)


def test_builtin_lookup_error():
    with pytest.raises(KeyError):
        builtin_symbol("nope")
