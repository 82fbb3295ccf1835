import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modwave import stokes
from modwave.dispersion import builtin_symbol, eval_m, parse_symbol
from modwave.errors import DegenerateResonance, NoConvergence
from modwave.numerics import cos_product_matrix, cos_square
from modwave.stokes import (
    EquationKind,
    _newton_system,
    bbm_expansion,
    bnesq_expansion,
    expansion_error,
    kdv_expansion,
    newton_wave,
    wave_l2_norm,
)


# --- expansions ------------------------------------------------------------


def test_bbm_expansion_closed_form(bbm):
    # second-order profile a^2 (1+k^2)/(6k^2) (cos 2z - 3) and speed
    # m(k) - a^2 5/(6k^2) for m = 1/(1+k^2)
    for k in (0.5, 1.0, 2.0):
        exp = bbm_expansion(bbm, k, 0.01)
        factor = (1.0 + k * k) / (6.0 * k * k)
        assert exp.u2_cos2 == pytest.approx(factor, rel=1e-12)
        assert exp.u2_mean == pytest.approx(-3.0 * factor, rel=1e-12)
        assert exp.c2 == pytest.approx(-5.0 / (6.0 * k * k), rel=1e-12)
        assert exp.speed() == pytest.approx(eval_m(bbm, k) + 1e-4 * exp.c2, rel=1e-12)


def test_bbm_expansion_zero_amplitude(bbm):
    exp = bbm_expansion(bbm, 1.3, 0.0)
    assert_allclose(exp.u_cosines(8), 0.0, atol=0.0)
    assert exp.speed() == pytest.approx(eval_m(bbm, 1.3), rel=1e-15)


def test_bbm_expansion_fractional(frac3):
    exp = bbm_expansion(frac3, 1.0, 0.05)
    assert exp.u2_cos2 == pytest.approx(0.5 * 9.0 / (2.0 - 9.0), rel=1e-12)


def test_bbm_expansion_mean_term_in_b(bbm):
    exp = bbm_expansion(bbm, 1.0, 0.0, b=1e-3)
    m = eval_m(bbm, 1.0)
    assert exp.u_cosines(2)[0] == pytest.approx(1e-3 * (m - 1.0), rel=1e-12)
    assert exp.speed() == pytest.approx(m + 2e-3 * m * (m - 1.0), rel=1e-12)


def test_degenerate_resonance_raises():
    sym = parse_symbol("cos(k)")  # m(k) = m(2k) at k = 2*pi/3
    with pytest.raises(DegenerateResonance):
        bbm_expansion(sym, 2.0 * math.pi / 3.0, 0.01)


def test_bnesq_expansion_closed_form(boussinesq):
    # at k=1: m^2 = 1/2, m^2(2k) = 1/5
    exp = bnesq_expansion(boussinesq, 1.0, 0.01)
    assert exp.u2_mean == pytest.approx(-0.5, rel=1e-12)
    assert exp.u2_cos2 == pytest.approx(1.0 / 6.0, rel=1e-12)
    m = eval_m(boussinesq, 1.0)
    assert exp.cos1 == pytest.approx(m, rel=1e-15)
    assert exp.q1 == pytest.approx(-1.0)
    assert exp.q2_mean == pytest.approx(0.5 * m, rel=1e-12)
    assert exp.q2_cos2 == pytest.approx(-m * (1.0 / 6.0) / 0.2, rel=1e-12)
    # speed: m (1 - 5 a^2 / (12 k^2))
    assert exp.speed() == pytest.approx(m * (1.0 - 5e-4 / 12.0), rel=1e-12)
    # profile matches a/sqrt(1+k^2) cos z + a^2/(6k^2) (cos 2z - 3)
    coeffs = exp.u_cosines(2)
    assert coeffs[1] == pytest.approx(0.01 * m, rel=1e-12)
    assert coeffs[2] == pytest.approx(1e-4 / 6.0, rel=1e-12)
    assert coeffs[0] == pytest.approx(-3e-4 / 6.0, rel=1e-12)


def test_bnesq_zero_amplitude(boussinesq):
    exp = bnesq_expansion(boussinesq, 2.0, 0.0)
    assert_allclose(exp.u_cosines(4), 0.0, atol=0.0)
    assert_allclose(exp.q_cosines(4), 0.0, atol=0.0)
    assert exp.speed() == pytest.approx(eval_m(boussinesq, 2.0))


@pytest.mark.parametrize("k,name", [(1.0, "m(k)"), (0.5, "m(2k)")])
def test_bnesq_expansion_refuses_zero_symbol_values(k, name):
    sym = parse_symbol("1-k^2")  # m(1) = 0
    with pytest.raises(DegenerateResonance, match=rf"^{re.escape(name)}=0.0 too close to 0 at k={k}$"):
        bnesq_expansion(sym, k, 0.01)
    with pytest.raises(DegenerateResonance, match=re.escape(name)):
        newton_wave(EquationKind.BOUSSINESQ, sym, k, 0.01, 16)


def test_bnesq_constant_state_speed_squared(boussinesq):
    for k in (0.5, 1.0, 3.0):
        exp = bnesq_expansion(boussinesq, k, 0.0)
        assert exp.c0**2 == pytest.approx(eval_m(boussinesq, k) ** 2, rel=1e-14)


def test_bnesq_mean_terms_in_b(boussinesq):
    b1, b2 = 2e-3, -1e-3
    exp = bnesq_expansion(boussinesq, 1.0, 0.0, b1, b2)
    m = eval_m(boussinesq, 1.0)
    msq = m * m
    u0 = exp.u_cosines(1)[0]
    assert u0 == pytest.approx((b1 - b2) * (msq - 1.0), rel=1e-12)
    q0 = exp.q_cosines(1)[0]
    assert q0 == pytest.approx((-b1 / m + b2 * m) * (msq - 1.0), rel=1e-12)
    assert exp.speed() == pytest.approx(m + (b1 - b2) * m * (msq - 1.0), rel=1e-12)


# --- Newton-Galerkin solver --------------------------------------------------


def test_newton_bbm_second_harmonic(bbm):
    sol = newton_wave(EquationKind.BBM, bbm, 1.0, 0.01, 32)
    assert sol.residual <= 1e-12
    assert sol.u_hat[2] / 0.01**2 == pytest.approx(1.0 / 3.0, rel=2e-3)
    assert sol.u_hat[1] == pytest.approx(0.01, abs=0.0)


def test_newton_zero_amplitude(bbm):
    sol = newton_wave(EquationKind.BBM, bbm, 0.7, 0.0, 16)
    assert_allclose(sol.u_hat, 0.0, atol=0.0)
    assert sol.c == pytest.approx(eval_m(bbm, 0.7))
    assert sol.residual == 0.0


def test_newton_bnesq_speed(boussinesq):
    sol = newton_wave(EquationKind.BOUSSINESQ, boussinesq, 1.0, 0.01, 32)
    assert sol.residual <= 1e-12
    m = eval_m(boussinesq, 1.0)
    assert sol.c == pytest.approx(m * (1.0 - 5e-4 / 12.0), abs=1e-7)
    assert sol.u_hat[1] == pytest.approx(0.01 * m, abs=0.0)
    assert sol.q_hat is not None


def test_newton_kdv(bbm):
    sol = newton_wave(EquationKind.KDV, bbm, 1.0, 0.01, 32)
    assert sol.residual <= 1e-12
    exp = kdv_expansion(bbm, 1.0, 0.01)
    assert sol.u_hat[2] / 0.01**2 == pytest.approx(exp.u2_cos2, rel=2e-3)
    assert sol.c == pytest.approx(exp.speed(), abs=1e-6)


# iterations at a = 0.05, 0.1, 0.2 (k = 1, N = 32): a Jacobian entry left
# stale from an earlier iteration slows the convergence and moves them
@pytest.mark.parametrize("kind,name,counts", [
    (EquationKind.BBM, "bbm", (2, 2, 3)),
    (EquationKind.KDV, "whitham", (3, 3, 25)),
    (EquationKind.BOUSSINESQ, "boussinesq", (2, 2, 2)),
], ids=["bbm", "whitham", "boussinesq"])
def test_newton_iteration_counts(kind, name, counts):
    sym = builtin_symbol(name)
    for a, count in zip((0.05, 0.1, 0.2), counts):
        sol = newton_wave(kind, sym, 1.0, a, 32)
        assert sol.iterations == count, a
        assert sol.residual <= 1e-12


def _full_bidirectional_step(u, q, c, m2vals, pin, n_modes):
    """Newton step of the whole bordered system: the Jacobian
    [[cI, M^2, u], [A, cI, q]] with A = I + 2 conv(u), then the pin row."""
    n = u.size
    ident = np.eye(n)
    jac = np.zeros((2 * n + 1, 2 * n + 1))
    jac[:n, :n] = c * ident
    jac[:n, n:-1] = np.diag(m2vals)
    jac[:n, -1] = u
    jac[n:-1, :n] = ident + 2.0 * cos_product_matrix(u, n_modes)
    jac[n:-1, n:-1] = c * ident
    jac[n:-1, -1] = q
    jac[-1, 1] = 1.0
    res = np.concatenate([c * u + m2vals * q, c * q + u + cos_square(u, n_modes), [u[1] - pin]])
    return np.linalg.solve(jac, -res)


@pytest.mark.parametrize("k,a,n_modes", [
    (1.0, 0.01, 32), (1.7, 0.05, 64), (0.6, 0.2, 32), (1.0, 0.2, 128), (2.3, 0.1, 128),
])
def test_reduced_bidirectional_step_solves_the_full_system(boussinesq, k, a, n_modes):
    n = n_modes + 1
    mvals = eval_m(boussinesq, k * np.arange(n))
    pin = a * mvals[1]
    residual, step = _newton_system(EquationKind.BOUSSINESQ, mvals, k, pin)
    exp = bnesq_expansion(boussinesq, k, a)
    start = (exp.u_cosines(n_modes), exp.q_cosines(n_modes), exp.speed())
    rng = np.random.default_rng(7)
    # the Stokes start meets the pin exactly; a perturbed state does not
    perturbed = tuple(x + 1e-3 * a * rng.standard_normal(np.shape(x)) for x in start)
    for u, q, c in (start, perturbed):
        reduced = step(u, q, c, residual(u, q, c))
        full = _full_bidirectional_step(u, q, c, mvals**2, pin, n_modes)
        assert np.linalg.norm(reduced - full) <= 1e-13 * np.linalg.norm(full)


def test_newton_bidirectional_refuses_zero_speed(boussinesq, monkeypatch):
    start = stokes.expansion_for(EquationKind.BOUSSINESQ, boussinesq, 1.0, 0.01)
    monkeypatch.setattr(stokes, "expansion_for",
                        lambda *args: dataclasses.replace(start, c0=0.0, c2=0.0))
    with pytest.raises(DegenerateResonance, match=r"c=0\.0 at k=1\.0"):
        newton_wave(EquationKind.BOUSSINESQ, boussinesq, 1.0, 0.01, 16)


def test_newton_refuses_a_non_finite_step(boussinesq, monkeypatch):
    # a subnormal speed: dividing by it overflows du
    start = stokes.expansion_for(EquationKind.BOUSSINESQ, boussinesq, 1.0, 0.01)
    monkeypatch.setattr(stokes, "expansion_for",
                        lambda *args: dataclasses.replace(start, c0=5e-324, c2=0.0))
    with pytest.raises(DegenerateResonance, match=r"^non-finite Newton step at k=1\.0$"):
        newton_wave(EquationKind.BOUSSINESQ, boussinesq, 1.0, 0.01, 16)


def test_newton_requires_enough_modes(bbm):
    with pytest.raises(ValueError):
        newton_wave(EquationKind.BBM, bbm, 1.0, 0.01, 4)


def test_newton_rejects_negative_max_iter(bbm):
    for kind in EquationKind:
        with pytest.raises(ValueError, match="max_iter"):
            newton_wave(kind, bbm, 1.0, 0.01, 16, max_iter=-1)


def test_newton_no_convergence(bbm):
    with pytest.raises((NoConvergence, DegenerateResonance)):
        newton_wave(EquationKind.BBM, bbm, 1.0, 30.0, 8, max_iter=8)


def test_newton_close_to_stokes(bbm, boussinesq):
    for kind, sym in ((EquationKind.BBM, bbm), (EquationKind.BOUSSINESQ, boussinesq)):
        for k in (0.5, 1.0, 2.0, 4.0):
            for a in (0.01, 0.02):
                sol = newton_wave(kind, sym, k, a, 32)
                if kind is EquationKind.BBM:
                    from modwave.stokes import bbm_expansion as expand
                else:
                    from modwave.stokes import bnesq_expansion as expand
                exp = expand(sym, k, a)
                err = wave_l2_norm(sol.u_hat - exp.u_cosines(32))
                assert err <= 10.0 * a**3


def test_expansion_error_slopes(bbm, boussinesq):
    for kind, sym in ((EquationKind.BBM, bbm), (EquationKind.BOUSSINESQ, boussinesq)):
        table = expansion_error(kind, sym, 1.0, (0.02, 0.01, 0.005), 32)
        assert 2.5 <= table.slope <= 3.5


def test_expansion_error_rows_carry_their_waves(bbm):
    table = expansion_error(EquationKind.BBM, bbm, 1.0, (0.02, 0.01), 32)
    for row in table.rows:
        fresh = newton_wave(EquationKind.BBM, bbm, 1.0, row.a, 32)
        assert row.wave.a == row.a
        assert np.array_equal(row.wave.u_hat, fresh.u_hat)


def test_expansion_error_zero(bbm):
    table = expansion_error(EquationKind.BBM, bbm, 1.0, (0.0,), 16)
    assert table.rows[0].error == 0.0
    assert math.isnan(table.slope)
