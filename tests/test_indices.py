import math
from dataclasses import replace

import numpy as np
import pytest

from modwave.dispersion import builtin_symbol, fractional_symbol, parse_symbol
from modwave.indices import (
    Verdict,
    base_indices,
    critical_wavenumber,
    find_resonances,
    ind,
)
from modwave.numerics import property_rng
from modwave.stokes import EquationKind


def test_bbm_closed_forms(bbm):
    for k in np.linspace(0.05, 10.0, 200):
        k = float(k)
        i1, i2m, i2p, i3m, i3p = base_indices(bbm, k)
        q = 1.0 + k * k
        assert i1 == pytest.approx(2.0 * k * (k * k - 3.0) / q**3, rel=1e-10)
        assert i2m == pytest.approx(-k * k * (3.0 + k * k) / q**2, rel=1e-10)
        assert i3m == pytest.approx(3.0 * k * k / (1.0 + 5.0 * k * k + 4.0 * k**4), rel=1e-10)
        assert ind(EquationKind.BBM, bbm, k).i_eq == pytest.approx(
            k * k * (3.0 + 5.0 * k * k) / (q**2 * (1.0 + 4.0 * k * k)), rel=1e-10
        )


def test_boussinesq_closed_forms(boussinesq):
    for k in np.linspace(0.1, 8.0, 100):
        k = float(k)
        i1 = base_indices(boussinesq, k)[0]
        q = 1.0 + k * k
        assert i1 == pytest.approx(-3.0 * k / q**2.5, rel=1e-10)
        # numerator constant is 3, not 2: plug m^2 = 1/(1+k^2) into the
        # index definition and clear denominators
        expected = k * k * (5.0 * k**6 + 14.0 * k**4 + 12.0 * k * k + 3.0) / (
            q**4 * (1.0 + 4.0 * k * k)
        )
        got = ind(EquationKind.BOUSSINESQ, boussinesq, k).i_eq
        assert got == pytest.approx(expected, rel=1e-10)


def test_fractional_kdv_index(frac2, frac3):
    for sym, alpha in ((frac2, 2.0), (frac3, 3.0)):
        for k in (0.3, 1.0, 2.0):
            expected = (3.0 - 2.0 ** (1.0 + alpha) + alpha) * k**alpha
            assert ind(EquationKind.KDV, sym, k).i_eq == pytest.approx(expected, rel=1e-10)
    unit = fractional_symbol(1.0)
    for k in (0.2, 1.0, 5.0):
        assert abs(ind(EquationKind.KDV, unit, k).i_eq) <= 1e-12 * max(1.0, k)


def test_i2m_vanishes_at_origin(bbm, boussinesq):
    for sym in (bbm, boussinesq):
        assert base_indices(sym, 1e-7)[1] == pytest.approx(0.0, abs=1e-8)


def test_ind_verdicts(bbm, boussinesq):
    assert ind(EquationKind.BBM, bbm, 2.0).verdict is Verdict.MODULATIONALLY_UNSTABLE
    assert ind(EquationKind.BBM, bbm, 1.0).verdict is Verdict.STABLE_NEAR_ORIGIN
    for k in (0.25, 1.0, 4.0):
        report = ind(EquationKind.BOUSSINESQ, boussinesq, k)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.ind > 0


def test_degenerate_kdv_alpha_one():
    sym = fractional_symbol(1.0)
    report = ind(EquationKind.KDV, sym, 1.5)
    assert report.verdict is Verdict.DEGENERATE
    assert "R4" in report.resonance_flags


def test_quotient_product_sign_identity(bbm, boussinesq, frac3):
    rng = property_rng()
    symbols = (bbm, boussinesq, frac3)
    count = 0
    for _ in range(1000):
        sym = symbols[int(rng.integers(0, len(symbols)))]
        k = float(rng.uniform(0.1, 10.0))
        for kind in (EquationKind.KDV, EquationKind.BBM, EquationKind.BOUSSINESQ):
            report = ind(kind, sym, k)
            if report.verdict is Verdict.DEGENERATE:
                continue
            if kind is EquationKind.BOUSSINESQ:
                product = (report.i1 * report.i2m * report.i2p * report.i_eq
                           * report.i3m * report.i3p)
            else:
                product = report.i1 * report.i2m * report.i_eq * report.i3m
            assert math.copysign(1.0, report.ind) == math.copysign(1.0, product)
            count += 1
    assert count > 2000


def test_ind_parsed_symbol_matches_builtin():
    # expression symbols carry exact jets, so i1 = 2m' + k m'' agrees with
    # the built-in closed forms to round-off
    texts = {"bbm": "1/(1+k^2)", "boussinesq": "(1+k^2)^(-0.5)",
             "whitham": "sqrt(tanh(abs(k))/abs(k))"}
    for name, text in texts.items():
        builtin, parsed = builtin_symbol(name), parse_symbol(text)
        for k in np.geomspace(0.05, 20.0, 200).tolist():
            want = base_indices(builtin, k)[0]
            assert base_indices(parsed, k)[0] == pytest.approx(want, rel=1e-12)


def test_parsed_bbm_threshold_is_sqrt3():
    k_star = critical_wavenumber(EquationKind.BBM, parse_symbol("1/(1+k^2)"), (0.5, 3.0))
    assert abs(k_star - math.sqrt(3.0)) <= 1e-12


def test_find_resonances_bbm(bbm):
    scan = find_resonances(bbm, EquationKind.BBM, (0.1, 10.0))
    kinds = [p.kind for p in scan.points]
    assert kinds == ["R1"]
    assert scan.points[0].k == pytest.approx(math.sqrt(3.0), abs=1e-9)
    assert not scan.degenerate_everywhere


def test_find_resonances_boussinesq(boussinesq):
    scan = find_resonances(boussinesq, EquationKind.BOUSSINESQ, (0.1, 10.0))
    assert scan.points == ()


def test_find_resonances_degenerate_kdv():
    sym = fractional_symbol(1.0)
    scan = find_resonances(sym, EquationKind.KDV, (0.5, 5.0))
    assert "R4" in scan.degenerate_everywhere


def test_critical_wavenumber_bbm(bbm):
    k_star = critical_wavenumber(EquationKind.BBM, bbm, (0.5, 5.0))
    assert k_star == pytest.approx(math.sqrt(3.0), abs=1e-9)


def test_critical_wavenumber_fractional(frac3):
    k_bbm = critical_wavenumber(EquationKind.BBM, frac3, (0.1, 3.0))
    k_bq = critical_wavenumber(EquationKind.BOUSSINESQ, frac3, (0.1, 3.0))
    assert k_bbm is not None and k_bq is not None
    assert k_bbm > k_bq
    # closed form for the unidirectional threshold of m = 1 + k^alpha
    expected = ((2.0**4 - 3.0 - 3.0) / (2.0**3 * 4.0)) ** (1.0 / 3.0)
    assert k_bbm == pytest.approx(expected, abs=1e-9)


def test_critical_wavenumber_whitham_kdv(whitham):
    # Hur & Johnson (Stud. Appl. Math. 134, 2015): small Whitham waves are
    # modulationally unstable above kh = 1.145
    k_star = critical_wavenumber(EquationKind.KDV, whitham, (0.2, 3.0), 600)
    assert k_star == pytest.approx(1.1460366, abs=5e-8)
    assert abs(k_star - 1.145) <= 2e-3
    assert ind(EquationKind.KDV, whitham, 1.1).ind > 0 > ind(EquationKind.KDV, whitham, 1.2).ind


def test_critical_wavenumber_none(boussinesq):
    assert critical_wavenumber(EquationKind.BOUSSINESQ, boussinesq, (0.1, 10.0)) is None


@pytest.mark.parametrize("kind", list(EquationKind), ids=lambda kind: kind.value)
def test_critical_wavenumber_skips_poles(kind):
    # m(k) = m(2k) near k = 0.4429, so i3- changes sign there and the index
    # quotient jumps from -inf to +inf: a pole, not a stability threshold
    sym = parse_symbol("1+k^2*(k^2-1)*(k^2-9)")
    below, above = (ind(kind, sym, k) for k in (0.44, 0.45))
    assert below.ind * above.ind < 0 and below.i3m * above.i3m < 0
    assert critical_wavenumber(kind, sym, (0.40, 0.50)) is None


@pytest.mark.parametrize("kind", list(EquationKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("k_range", [(0.05, 3.0), (0.1234, 2.9876)])
def test_critical_wavenumber_rows_match_one_alpha_calls(kind, k_range):
    alphas = np.linspace(2.0, 6.0, 17)
    rows = critical_wavenumber(kind, fractional_symbol(alphas[:, None]), k_range)
    alone = [critical_wavenumber(kind, fractional_symbol(a), k_range) for a in alphas.tolist()]
    assert rows == alone
    assert all(r is None or type(r) is float for r in rows)


@pytest.mark.parametrize("kind", list(EquationKind), ids=lambda kind: kind.value)
def test_ind_columns_match_one_k_reports(kind, bbm, frac3):
    ks = np.append(np.linspace(0.05, 3.0, 120), math.sqrt(3.0))
    for sym in (bbm, frac3, fractional_symbol(1.0)):
        report = ind(kind, sym, ks)
        assert report.verdict.shape == report.resonance_flags.shape == ks.shape
        for i, k in enumerate(ks.tolist()):
            one = ind(kind, sym, k)
            assert report[i] == one
            assert isinstance(one.ind, float) and isinstance(one.verdict, Verdict)
        assert base_indices(sym, ks)[0].tolist() == [base_indices(sym, k)[0] for k in ks.tolist()]


@pytest.mark.parametrize("kind", list(EquationKind), ids=lambda kind: kind.value)
def test_ind_evaluates_symbol_once_per_k(kind, bbm):
    calls = {"jet": 0, "raw": 0}

    def jet(k, order=2):  # order 0 is the value-only call behind raw
        calls["jet" if order else "raw"] += 1
        return bbm.jet(k, order)

    counting = replace(bbm, jet=jet)
    report = ind(kind, counting, 1.3)
    assert calls == {"jet": 1, "raw": 1}
    assert report == ind(kind, bbm, 1.3)
