import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modwave.dispersion import eval_m, jet_m
from modwave.errors import DegenerateResonance, InvalidArgument, NotRescalable
from modwave.indices import Verdict, base_indices, ind
from modwave.numerics import property_rng
from modwave.pencil import (
    PENCILS,
    QuarticClass,
    ReducedPencil,
    bnesq_leading_discs,
    bnesq_leading_quartic,
    build_bbm_pencil,
    build_bnesq_pencil,
    build_pencil,
    classify_quartic,
    default_disc_tolerance,
    disc_cubic,
    pencil_verdict,
    pencil_verdicts,
    quartic_disc,
    quartic_disc1,
    quartic_disc2,
    rescaled_charpoly,
)
from modwave.stokes import EquationKind


def test_pencils_vanish_at_origin(bbm, boussinesq):
    p = build_bbm_pencil(bbm, 1.0, 0.0, 0.0)
    assert_allclose(p.b_matrix, 0.0, atol=0.0)
    assert_allclose(p.i_matrix, np.eye(3), atol=0.0)
    q = build_bnesq_pencil(boussinesq, 1.0, 0.0, 0.0)
    assert_allclose(q.b_matrix, 0.0, atol=0.0)
    assert_allclose(q.i_matrix, np.eye(4), atol=0.0)


def test_zero_xi_eigenvalues_stay_at_origin(bbm, boussinesq):
    # at xi = 0 the pencil spectrum is exactly {0} for small a
    p = build_bbm_pencil(bbm, 1.0, 0.0, 0.02)
    assert_allclose(np.abs(p.eigenvalues()), 0.0, atol=1e-14)
    q = build_bnesq_pencil(boussinesq, 1.0, 0.0, 0.02)
    assert_allclose(np.abs(q.eigenvalues()), 0.0, atol=1e-14)


def test_bbm_flat_state_roots(bbm):
    # rescaled roots at a=0 are {km' +/- xi*e, 1-m} with e = km' + k^2 m''/2
    for k in (0.7, 1.0, 2.0):
        for xi in (1e-3, 1e-2):
            m, mp, mpp = jet_m(bbm, k)
            e = k * mp + 0.5 * k * k * mpp
            expected = sorted([k * mp + xi * e, k * mp - xi * e, 1.0 - m])
            poly = rescaled_charpoly(build_bbm_pencil(bbm, k, xi, 0.0))
            got = sorted(np.roots(poly).real)
            assert_allclose(got, expected, atol=1e-12)


def test_bnesq_flat_state_quartic_coefficients(boussinesq):
    # a=0 rescaled polynomial equals ((L-km')^2 - xi^2 e^2)((L+m)^2 - 1)
    for k in (0.5, 1.0, 2.0):
        for xi in (1e-3, 1e-2):
            m, mp, mpp = jet_m(boussinesq, k)
            e = k * mp + 0.5 * k * k * mpp
            gs = k * mp
            left = np.array([1.0, -2.0 * gs, gs * gs - xi * xi * e * e])
            right = np.array([1.0, 2.0 * m, m * m - 1.0])
            expected = np.convolve(left, right)
            poly = rescaled_charpoly(build_bnesq_pencil(boussinesq, k, xi, 0.0))
            assert_allclose(poly, expected, atol=1e-13)


def test_rescaled_coefficients_are_real(bbm, boussinesq):
    # exercised through the IMAG_RESIDUE_TOL gate inside rescaled_charpoly
    for k in (0.5, 1.0, 2.0, 4.0):
        for xi in (1e-3, 1e-2):
            for a in (0.0, 1e-2):
                rescaled_charpoly(build_bbm_pencil(bbm, k, xi, a))
                rescaled_charpoly(build_bnesq_pencil(boussinesq, k, xi, a))


def test_cubic_disc_closed_form_corrected(bbm):
    # disc = (1/16) xi^2 (k i1 (k i1 xi - 2 i2m)(k i1 xi + 2 i2m))^2; the
    # same expression with coefficient 4 instead of 2 misses by a factor
    # of about 16 and is therefore not the computed discriminant
    for k in (0.5, 1.0, 2.0, 4.0):
        i1, i2m, _, _, _ = base_indices(bbm, k)
        ki1 = k * i1
        for xi in (1e-3, 1e-2):
            disc = disc_cubic(rescaled_charpoly(build_bbm_pencil(bbm, k, xi, 0.0)))
            ref2 = xi**2 / 16.0 * (ki1 * (ki1 * xi - 2 * i2m) * (ki1 * xi + 2 * i2m)) ** 2
            ref4 = xi**2 / 16.0 * (ki1 * (ki1 * xi - 4 * i2m) * (ki1 * xi + 4 * i2m)) ** 2
            assert disc == pytest.approx(ref2, rel=1e-10)
            assert not math.isclose(disc, ref4, rel_tol=1e-2)
            assert ref4 / disc == pytest.approx(16.0, rel=0.05)


def test_disc_cubic_signs(bbm):
    neg = disc_cubic(rescaled_charpoly(build_bbm_pencil(bbm, 2.0, 0.01, 0.005)))
    pos = disc_cubic(rescaled_charpoly(build_bbm_pencil(bbm, 1.0, 0.01, 0.005)))
    assert neg < 0 < pos


def test_bnesq_leading_discs_closed_form(boussinesq):
    for k in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        gs = eval_m(boussinesq, k) + k * jet_m(boussinesq, k)[1]
        d1v, d2v = bnesq_leading_discs(boussinesq, k)
        assert d1v == pytest.approx(-4.0 * (2.0 + gs * gs), rel=1e-12)
        assert d2v == pytest.approx(-16.0 * (1.0 + 2.0 * gs * gs), rel=1e-12)
        assert d1v < 0 and d2v < 0


def test_leading_quartic_roots_are_flat_state_limits(boussinesq):
    k = 1.0
    p = bnesq_leading_quartic(boussinesq, k)
    roots = sorted(np.roots(p).real)
    m = eval_m(boussinesq, k)
    gs = k * jet_m(boussinesq, k)[1]
    assert_allclose(roots, sorted([gs, gs, -m - 1.0, -m + 1.0]), atol=1e-8)


def test_classify_examples():
    assert classify_quartic([1, 0, -5, 0, 4]).category is QuarticClass.FOUR_REAL
    assert classify_quartic([1, 0, 2, 0, 0.99]).category is QuarticClass.TWO_PAIRS
    assert classify_quartic([1, 0, -1, 0, -1]).category is QuarticClass.TWO_REAL_ONE_PAIR
    # double pair (x^2+1)^2 has disc = 0
    assert classify_quartic([1, 0, 2, 0, 1]).category is QuarticClass.DEGENERATE
    with pytest.raises(InvalidArgument, match="^quartic leading coefficient is zero$"):
        classify_quartic([0, 1, 2, 3, 4])


def test_overflowing_discriminants_are_degenerate():
    # degree-6 discriminant terms of coefficients near 1e80 overflow; the
    # row is Degenerate, without a numpy warning, and a finite row of the
    # same stack keeps its class
    p = np.array([[1.0, 0.0, -5.0, 0.0, 4.0], [1e80, 0.0, -5e80, 0.0, 4e80]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = classify_quartic(p)
        one = classify_quartic(p[1])
    assert got.category.tolist() == [QuarticClass.FOUR_REAL, QuarticClass.DEGENERATE]
    assert not np.isfinite(got.disc[1])
    assert one.category is QuarticClass.DEGENERATE


def test_classifier_agrees_with_root_oracle():
    rng = property_rng()
    checked = 0
    for _ in range(2000):
        coeffs = rng.normal(0.0, 1.0, size=5)
        if abs(coeffs[0]) < 1e-3:
            coeffs[0] = 1.0
        disc = quartic_disc(coeffs)
        if abs(disc) <= 1e-8 * np.max(np.abs(coeffs)):
            continue
        cls = classify_quartic(coeffs, tol=0.0)
        roots = np.roots(coeffs)
        n_real = int(np.sum(np.abs(roots.imag) <= 1e-7 * (1.0 + np.abs(roots))))
        expected = {4: QuarticClass.FOUR_REAL, 2: QuarticClass.TWO_REAL_ONE_PAIR,
                    0: QuarticClass.TWO_PAIRS}[n_real]
        assert cls.category is expected, f"{coeffs} -> {cls} vs {n_real} real roots"
        checked += 1
    assert checked > 1500


def test_stacked_root_oracle_matches_one_at_a_time():
    from modwave.validation import _root_classification

    coeffs = property_rng().normal(0.0, 1.0, size=(2000, 5))
    coeffs[np.abs(coeffs[:, 0]) < 1e-3, 0] = 1.0
    expected = []
    for row in coeffs:
        roots = np.roots(row)
        n_real = int(np.sum(np.abs(roots.imag) <= 1e-7 * (1.0 + np.abs(roots))))
        expected.append(QuarticClass.FOUR_REAL if n_real == 4 else
                        QuarticClass.TWO_REAL_ONE_PAIR if n_real == 2 else QuarticClass.TWO_PAIRS)
    assert _root_classification(coeffs).tolist() == expected


def _exact_disc_terms(p4, p3, p2, p1, p0):
    """The terms of quartic_disc, quartic_disc1 and quartic_disc2, in exact
    arithmetic on Fraction coefficients."""
    disc = [
        256 * p4**3 * p0**3, -192 * p4**2 * p3 * p1 * p0**2, -128 * p4**2 * p2**2 * p0**2,
        144 * p4**2 * p2 * p1**2 * p0, -27 * p4**2 * p1**4, 144 * p4 * p3**2 * p2 * p0**2,
        -6 * p4 * p3**2 * p1**2 * p0, -80 * p4 * p3 * p2**2 * p1 * p0,
        18 * p4 * p3 * p2 * p1**3, 16 * p4 * p2**4 * p0, -4 * p4 * p2**3 * p1**2,
        -27 * p3**4 * p0**2, 18 * p3**3 * p2 * p1 * p0, -4 * p3**3 * p1**3,
        -4 * p3**2 * p2**3 * p0, p3**2 * p2**2 * p1**2,
    ]
    disc1 = [8 * p4 * p2, -3 * p3**2]
    disc2 = [64 * p4**3 * p0, -16 * p4**2 * p2**2, 16 * p4 * p3**2 * p2,
             -16 * p4**2 * p3 * p1, -3 * p3**4]
    return disc, disc1, disc2


def test_quartic_discs_have_the_exact_sign_where_it_is_decisive():
    # the first rows of the quartic-classifier check's draw
    coeffs = property_rng().normal(0.0, 1.0, size=(10_000, 5))[:1000]
    coeffs[np.abs(coeffs[:, 0]) < 1e-3, 0] = 1.0
    floats = (quartic_disc(coeffs), quartic_disc1(coeffs), quartic_disc2(coeffs))
    decisive = 0
    for i, row in enumerate(coeffs.tolist()):
        exact = _exact_disc_terms(*map(Fraction, row))
        for name, value, terms in zip(("disc", "disc1", "disc2"), floats, exact):
            total = sum(terms)
            if abs(total) > Fraction(1, 10**9) * sum(map(abs, terms)):
                decisive += 1
                assert np.sign(value[i]) == np.sign(total), (name, row)
    assert decisive > 2900


def test_rescaled_requires_positive_xi(bbm):
    with pytest.raises(NotRescalable):
        rescaled_charpoly(build_bbm_pencil(bbm, 1.0, 0.0, 0.01))


def test_not_rescalable_names_first_k():
    # B = diag(1, 0, 0) gives G = B/(-i xi) the imaginary eigenvalue i/xi,
    # so det(L - G) has an imaginary coefficient; B = 0 is real
    b = np.zeros((2, 3, 3), dtype=complex)
    b[1, 0, 0] = 1.0
    i_mat = np.tile(np.eye(3, dtype=complex), (2, 1, 1))
    stack = ReducedPencil(np.array([1.0, 2.0]), 0.01, 0.0, b, i_mat)
    with pytest.raises(NotRescalable, match=r"at k=2\.0$"):
        rescaled_charpoly(stack)
    assert np.array_equal(rescaled_charpoly(ReducedPencil(1.0, 0.01, 0.0, b[0], i_mat[0])),
                          [1.0, 0.0, 0.0, 0.0])


def test_degree_mismatch(bbm, boussinesq):
    cubic = rescaled_charpoly(build_bbm_pencil(bbm, 1.0, 0.01, 0.0))
    with pytest.raises(InvalidArgument, match="^expected degree 4, got 3$"):
        quartic_disc(cubic)
    with pytest.raises(InvalidArgument, match="^expected degree 4, got 3$"):
        classify_quartic(cubic)
    quartic = rescaled_charpoly(build_bnesq_pencil(boussinesq, 1.0, 0.01, 0.0))
    with pytest.raises(InvalidArgument, match="^expected degree 3, got 4$"):
        disc_cubic(quartic)
    assert quartic_disc1(quartic) < 0 and quartic_disc2(quartic) < 0


def test_resonant_denominators_raise():
    from modwave.dispersion import parse_symbol

    sym = parse_symbol("cos(k)")
    with pytest.raises(DegenerateResonance):
        build_bbm_pencil(sym, 2.0 * math.pi / 3.0, 0.01, 0.01)


def test_kdv_pencil_unsupported(bbm):
    with pytest.raises(InvalidArgument, match="^no reduced pencil for the KdV-type nonlinearity"):
        build_pencil(EquationKind.KDV, bbm, 1.0, 0.01, 0.01)


def test_pencil_table_holds_the_kinds_build_pencil_accepts(bbm):
    accepted = []
    for kind in EquationKind:
        try:
            build_pencil(kind, bbm, 1.0, 0.01, 0.01)
        except InvalidArgument:
            continue
        accepted.append(kind)
    assert set(PENCILS) == set(accepted) == {EquationKind.BBM, EquationKind.BOUSSINESQ}


def test_sign_agreement_bbm(bbm):
    rng = property_rng()
    hits = 0
    for _ in range(500):
        k = float(rng.uniform(0.1, 10.0))
        report = ind(EquationKind.BBM, bbm, k)
        if abs(report.ind) <= 1e-10:
            continue
        disc = disc_cubic(rescaled_charpoly(build_bbm_pencil(bbm, k, 1e-2, 1e-2)))
        assert math.copysign(1.0, disc) == math.copysign(1.0, report.ind), k
        hits += 1
    assert hits >= 490


def test_four_real_agreement_bnesq(boussinesq, whitham):
    rng = property_rng()
    for sym in (boussinesq, whitham):
        for _ in range(250):
            k = float(rng.uniform(0.1, 10.0))
            report = ind(EquationKind.BOUSSINESQ, sym, k)
            d1v, d2v = bnesq_leading_discs(sym, k)
            if not (report.ind > 0 and d1v < 0 and d2v < 0):
                continue
            poly = rescaled_charpoly(build_bnesq_pencil(sym, k, 1e-2, 1e-2))
            assert quartic_disc(poly) > 0
            assert classify_quartic(poly).category is QuarticClass.FOUR_REAL


def test_pencil_verdicts(bbm, boussinesq):
    assert pencil_verdict(EquationKind.BBM, bbm, 2.0) is Verdict.MODULATIONALLY_UNSTABLE
    assert pencil_verdict(EquationKind.BBM, bbm, 1.0) is Verdict.STABLE_NEAR_ORIGIN
    for k in (0.5, 1.0, 2.0, 5.0):
        assert pencil_verdict(EquationKind.BOUSSINESQ, boussinesq, k) is Verdict.STABLE_NEAR_ORIGIN
    assert pencil_verdict(EquationKind.BBM, bbm, math.sqrt(3.0)) is Verdict.DEGENERATE


def test_bbm_fractional_disc_threshold_matches_index(frac3):
    # at small xi << a the discriminant changes sign where the index does
    from modwave.indices import critical_wavenumber

    k_star = critical_wavenumber(EquationKind.BBM, frac3, (0.3, 1.2))
    assert k_star is not None
    below = disc_cubic(rescaled_charpoly(build_bbm_pencil(frac3, k_star - 0.05, 1e-4, 1e-2)))
    above = disc_cubic(rescaled_charpoly(build_bbm_pencil(frac3, k_star + 0.05, 1e-4, 1e-2)))
    assert below > 0 > above


def test_pencil_verdict_fractional_far_from_origin(frac3):
    # disc = -1.6e21 with roots 77 +/- 13i, -43, -28: clearly a complex pair
    assert pencil_verdict(EquationKind.BOUSSINESQ, frac3, 3.0) is Verdict.MODULATIONALLY_UNSTABLE


def test_classify_elementwise_matches_scalar():
    rng = property_rng()
    coeffs = rng.normal(0.0, 1.0, size=(300, 5))
    coeffs[:, 0] += np.sign(coeffs[:, 0])
    batch = classify_quartic(coeffs)
    for i, row in enumerate(coeffs):
        one = classify_quartic(row)
        assert batch.category[i] is one.category
        assert (batch.disc[i], batch.disc1[i], batch.disc2[i]) == (one.disc, one.disc1, one.disc2)


def test_stacked_pencils_match_one_k(bbm, boussinesq, frac3):
    ks = np.linspace(0.1, 3.0, 57)
    for kind, sym in (
        (EquationKind.BBM, bbm),
        (EquationKind.BOUSSINESQ, boussinesq),
        (EquationKind.BOUSSINESQ, frac3),
    ):
        size = 3 if kind is EquationKind.BBM else 4
        stack = build_pencil(kind, sym, ks, 1e-2, 1e-2)
        assert stack.b_matrix.shape == stack.i_matrix.shape == (ks.size, size, size)
        rows = rescaled_charpoly(stack)
        assert rows.shape == (ks.size, size + 1)
        if kind is EquationKind.BBM:
            discs, tols = disc_cubic(rows), default_disc_tolerance(rows)
        else:
            batch = classify_quartic(rows)
        for i, k in enumerate(ks.tolist()):
            one = build_pencil(kind, sym, k, 1e-2, 1e-2)
            assert one.b_matrix.shape == (size, size)
            assert np.array_equal(stack.b_matrix[i], one.b_matrix)
            assert np.array_equal(stack.i_matrix[i], one.i_matrix)
            p = rescaled_charpoly(one)
            assert np.array_equal(rows[i], p), (kind, k)
            if kind is EquationKind.BBM:
                assert (discs[i], tols[i]) == (disc_cubic(p), default_disc_tolerance(p)), k
            else:
                cls = classify_quartic(p)
                assert batch.category[i] is cls.category, (sym.name, k)
                assert (batch.disc[i], batch.disc1[i], batch.disc2[i]) == (
                    cls.disc, cls.disc1, cls.disc2), (sym.name, k)
        with pytest.raises(ValueError, match="single pencil"):
            stack.eigenvalues()


def test_pencil_verdicts_grid(bbm):
    report = ind(EquationKind.BBM, bbm, np.array([1.0, math.sqrt(3.0), 2.0]))
    assert pencil_verdicts(EquationKind.BBM, bbm, report) == [
        Verdict.STABLE_NEAR_ORIGIN, Verdict.DEGENERATE, Verdict.MODULATIONALLY_UNSTABLE,
    ]


def test_pencil_verdicts_names_first_resonant_k():
    from modwave.dispersion import parse_symbol

    # m(k) = 1 at k = 1 and k = 3, where the 4x4 pencil is resonant while
    # the index stays finite
    sym = parse_symbol("1 + k^2*(k^2-1)*(k^2-9)")
    report = ind(EquationKind.BOUSSINESQ, sym, np.array([0.5, 3.0, 2.0, 1.0]))
    assert not np.any(report.verdict == Verdict.DEGENERATE)
    with pytest.raises(DegenerateResonance, match=r"^resonant denominators at k=3\.0$"):
        pencil_verdicts(EquationKind.BOUSSINESQ, sym, report)
