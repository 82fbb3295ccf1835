import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modwave import hill
from modwave.dispersion import eval_m, parse_symbol
from modwave.errors import InvalidArgument
from modwave.hill import (
    assemble,
    collision_scan,
    min_collision_k,
    omega,
    spectrum,
    validate_pencil,
    zero_multiplicity,
)
from modwave.numerics import cos_to_full
from modwave.stokes import EquationKind, newton_wave


def _flat(kind, sym, k, n=32):
    return newton_wave(kind, sym, k, 0.0, n)


def test_bbm_flat_state_diagonal(bbm):
    k, xi, n = 1.0, 0.3, 16
    op = assemble(EquationKind.BBM, bbm, _flat(EquationKind.BBM, bbm, k, n), xi, n)
    diag = np.diag(op.matrix)
    expected = np.array([1j * omega(bbm, k, m, xi) for m in range(-n, n + 1)])
    assert_allclose(diag, expected, atol=1e-14)
    off = op.matrix - np.diag(diag)
    assert_allclose(off, 0.0, atol=1e-15)


def test_kdv_flat_state_diagonal(frac2):
    k, xi, n = 1.0, 0.2, 12
    op = assemble(EquationKind.KDV, frac2, _flat(EquationKind.KDV, frac2, k, n), xi, n)
    diag = np.diag(op.matrix)
    expected = np.array(
        [1j * (m + xi) * (eval_m(frac2, k * (m + xi)) - eval_m(frac2, k))
         for m in range(-n, n + 1)]
    )
    assert_allclose(diag, expected, atol=1e-13)


def test_kdv_kernel_at_zero_floquet(frac2):
    op = assemble(EquationKind.KDV, frac2, _flat(EquationKind.KDV, frac2, 1.0, 16), 0.0, 16)
    assert zero_multiplicity(spectrum(op)) == 3


def test_bnesq_flat_state_eigenvalues(boussinesq):
    k, xi, n = 1.0, 0.2, 12
    wave = _flat(EquationKind.BOUSSINESQ, boussinesq, k, n)
    op = assemble(EquationKind.BOUSSINESQ, boussinesq, wave, xi, n)
    got = np.linalg.eigvals(op.matrix)
    assert np.max(np.abs(got.real)) <= 1e-12
    expected = []
    for m in range(-n, n + 1):
        expected.append(omega(boussinesq, k, m, xi, +1))
        expected.append(omega(boussinesq, k, m, xi, -1))
    assert_allclose(np.sort(got.imag), np.sort(np.array(expected)), atol=1e-10)


def _hausdorff(a, b):
    """Largest distance from an eigenvalue of either set to the other set."""
    gaps = np.abs(a[:, None] - b[None, :])
    return max(gaps.min(axis=1).max(), gaps.min(axis=0).max())


@pytest.mark.parametrize("n", [32, 64, 128])
def test_bnesq_flat_basis_spectrum_matches_a_plain_eigensolve(n, boussinesq):
    wave = newton_wave(EquationKind.BOUSSINESQ, boussinesq, 1.0, 0.01, n)
    for xi in (0.001, 0.3):
        op = assemble(EquationKind.BOUSSINESQ, boussinesq, wave, xi, n)
        mu = np.linalg.eigvals(op.real)  # natural order, no change of basis
        reference = (0.0 - mu.imag) + 1j * mu.real
        got = spectrum(op).eigenvalues
        assert got.size == reference.size
        assert _hausdorff(got, reference) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("name, expr", [("boussinesq", None), ("fast", "1/sqrt(1+k^2+k^4)")])
def test_bnesq_flat_basis_is_diagonal_at_zero_amplitude(name, expr, boussinesq):
    sym = boussinesq if expr is None else parse_symbol(expr)
    k, xi, n = 1.0, 0.2, 32
    wave = _flat(EquationKind.BOUSSINESQ, sym, k, n)
    op = assemble(EquationKind.BOUSSINESQ, sym, wave, xi, n)
    s = np.arange(-n, n + 1) + xi
    m = eval_m(sym, k * s)
    closed = np.sort(np.concatenate([s * (wave.c + m), s * (wave.c - m)]))
    radius = np.max(np.abs(closed))
    ulp = np.finfo(float).eps * radius
    flat = hill._graded_flat(op)
    assert np.max(np.abs(flat - np.diag(np.diag(flat)))) <= 4 * ulp
    got = spectrum(op).eigenvalues
    assert np.all(got.real == 0.0)
    assert np.max(np.abs(np.sort(got.imag) - closed)) <= 4 * ulp


def test_zero_multiplicities(bbm, boussinesq):
    op = assemble(EquationKind.BBM, bbm, _flat(EquationKind.BBM, bbm, 1.0), 0.0, 32)
    assert zero_multiplicity(spectrum(op)) == 3
    wave = _flat(EquationKind.BOUSSINESQ, boussinesq, 1.0)
    op = assemble(EquationKind.BOUSSINESQ, boussinesq, wave, 0.0, 32)
    assert zero_multiplicity(spectrum(op)) == 4


def test_flat_state_spectra_purely_imaginary(bbm, boussinesq, whitham, frac3):
    cases = (
        (EquationKind.BBM, bbm), (EquationKind.BBM, whitham),
        (EquationKind.BBM, frac3), (EquationKind.BOUSSINESQ, boussinesq),
    )
    for kind, sym in cases:
        wave = _flat(kind, sym, 1.0)
        for xi in (0.0, 0.1, 0.25, 0.5):
            op = assemble(kind, sym, wave, xi, 32)
            vals = np.linalg.eigvals(op.matrix)
            assert np.max(np.abs(vals.real)) <= 1e-10


def test_spectrum_stability_examples(bbm, boussinesq):
    wave = newton_wave(EquationKind.BBM, bbm, 1.0, 0.01, 32)
    sl = spectrum(assemble(EquationKind.BBM, bbm, wave, 0.01, 32))
    assert sl.max_re <= 1e-8
    wave = newton_wave(EquationKind.BBM, bbm, 2.0, 0.01, 32)
    sl = spectrum(assemble(EquationKind.BBM, bbm, wave, 0.005, 32))
    assert sl.max_re > 1e-8
    # the growth rate rises away from xi = 0 before it peaks
    growth = [spectrum(assemble(EquationKind.BBM, bbm, wave, xi, 32)).max_re
              for xi in (0.002, 0.01, 0.03, 0.06)]
    assert growth[0] < max(growth) and max(growth) > 1e-7
    wave = newton_wave(EquationKind.BOUSSINESQ, boussinesq, 1.0, 0.01, 32)
    sl = spectrum(assemble(EquationKind.BOUSSINESQ, boussinesq, wave, 0.01, 32))
    assert sl.max_re <= 1e-8


def test_near_origin_cluster(bbm):
    wave = newton_wave(EquationKind.BBM, bbm, 2.0, 0.01, 32)
    sl = spectrum(assemble(EquationKind.BBM, bbm, wave, 0.01, 32))
    assert len(sl.near_origin) == 3


def test_conjugation_symmetry(bbm, boussinesq):
    for kind, sym, k in (
        (EquationKind.BBM, bbm, 2.0),
        (EquationKind.BOUSSINESQ, boussinesq, 1.0),
    ):
        wave = newton_wave(kind, sym, k, 0.01, 32)
        plus = np.linalg.eigvals(assemble(kind, sym, wave, 0.07, 32).matrix)
        minus_conj = np.linalg.eigvals(assemble(kind, sym, wave, -0.07, 32).matrix).conj()

        def ordered(vals):
            return vals[np.lexsort((vals.real, vals.imag))]

        assert_allclose(ordered(plus), ordered(minus_conj), atol=1e-8)


@pytest.mark.parametrize("kind", list(EquationKind), ids=lambda kind: kind.value)
def test_truncation_too_small(kind, bbm):
    wave = newton_wave(kind, bbm, 1.0, 0.01, 16)
    with pytest.raises(InvalidArgument, match="^operator truncation 8 below the wave's 16$"):
        assemble(kind, bbm, wave, 0.1, 8)


@pytest.mark.parametrize("kind", list(EquationKind), ids=lambda kind: kind.value)
def test_wave_kind_mismatch(kind, bbm):
    other = next(o for o in EquationKind if o is not kind)
    wave = newton_wave(other, bbm, 1.0, 0.01, 16)
    with pytest.raises(ValueError, match="wave solves"):
        assemble(kind, bbm, wave, 0.1, 16)


def test_assemble_rejects_a_symbol_other_than_the_waves(bbm, frac2):
    wave = newton_wave(EquationKind.BBM, bbm, 1.0, 0.01, 16)
    with pytest.raises(ValueError, match="symbol"):
        assemble(EquationKind.BBM, frac2, wave, 0.1, 16)


def test_truncation_robustness(bbm, boussinesq):
    for kind, sym, k in (
        (EquationKind.BBM, bbm, 1.0),
        (EquationKind.BBM, bbm, 2.0),
        (EquationKind.BOUSSINESQ, boussinesq, 1.0),
    ):
        w32 = newton_wave(kind, sym, k, 0.01, 32)
        w48 = newton_wave(kind, sym, k, 0.01, 48)
        r32 = spectrum(assemble(kind, sym, w32, 0.01, 32)).max_re
        r48 = spectrum(assemble(kind, sym, w48, 0.01, 48)).max_re
        assert abs(r32 - r48) <= 1e-7


def test_collision_curves_match_closed_forms(bbm):
    # omega_{-1} meets omega_1 at k = sqrt(3/(1-xi^2))
    xi_target = 0.4
    k = math.sqrt(3.0 / (1.0 - xi_target**2))
    pts = collision_scan(EquationKind.BBM, bbm, k, range(-3, 2))
    ours = [p for p in pts if (p.n1, p.n2) == (-1, 1)]
    assert ours and abs(ours[0].xi - xi_target) <= 1e-8
    # omega_0 meets omega_{-2} at k = sqrt(3/(xi(2-xi)))
    k = 2.5
    xi_expected = 1.0 - math.sqrt(1.0 - 3.0 / (k * k))
    pts = collision_scan(EquationKind.BBM, bbm, k, range(-3, 2))
    ours = [p for p in pts if (p.n1, p.n2) == (-2, 0)]
    assert ours and abs(ours[0].xi - xi_expected) <= 1e-8


def test_no_collisions_at_small_k(bbm):
    assert collision_scan(EquationKind.BBM, bbm, 1.0, range(-8, 2)) == ()


def test_min_collision_k(bbm, boussinesq):
    pairs = [(0, n) for n in range(-8, -1)]
    measured = min_collision_k(bbm, pairs, (1.0, 3.0))
    assert measured == 2.0
    assert min_collision_k(bbm, pairs, (1.0, 3.0), kind=EquationKind.KDV) == 2.0
    # every collision in the family sits above the analytic floor
    assert measured >= 2.0 * math.sqrt(3.0 / 5.0)
    # the float a bisection on bool(collision_scan(...)) returns
    assert min_collision_k(boussinesq, [(-3, -1)], (0.01, 3.0),
                           kind=EquationKind.BOUSSINESQ) == 0.8521985621168278


@pytest.mark.parametrize("kind, pairs, k_range", [
    (EquationKind.BBM, [(0, n) for n in range(-8, -1)], (1.0, 3.0)),
    (EquationKind.BOUSSINESQ, [(-3, -1)], (0.01, 3.0)),
    (EquationKind.KDV, [(0, n) for n in range(-8, -1)], (1.0, 3.0)),
], ids=lambda v: getattr(v, "value", None))
def test_collision_indicator_is_a_nonempty_scan(kind, pairs, k_range, bbm, boussinesq):
    sym = boussinesq if kind.bidirectional else bbm
    modes = sorted({n for p in pairs for n in p})
    layout = hill._collision_layout(kind, modes, pairs)
    indicator = [hill._collides(layout.sample(sym, k)) for k in np.linspace(*k_range, 401)]
    scanned = [bool(collision_scan(kind, sym, k, modes, pairs=pairs))
               for k in np.linspace(*k_range, 401)]
    assert indicator == scanned
    assert any(scanned) and not all(scanned)


@pytest.mark.parametrize("k, xi, modes", [
    (0.5, 0.2864, (0, 2, +1, -1)),
    (1.0, 0.4482, (-3, -1, -1, +1)),
    (2.0, 0.3196, (-3, -1, -1, +1)),
    (3.0, 0.2915, (-3, -1, -1, +1)),
])
def test_boussinesq_first_flat_state_collision(boussinesq, k, xi, modes):
    first = collision_scan(EquationKind.BOUSSINESQ, boussinesq, k, range(-4, 4))[0]
    assert first.xi == pytest.approx(xi, abs=1e-4)
    assert (first.n1, first.n2, first.branch1, first.branch2) == modes


@pytest.mark.parametrize("kind, k, modes", [
    (EquationKind.BBM, 2.0, range(-8, 1)),
    (EquationKind.BBM, 6.0, range(-6, 7)),
    (EquationKind.BOUSSINESQ, 1.0, range(-4, 5)),
    (EquationKind.KDV, 2.0, range(-8, 1)),
])
def test_collision_scan_is_the_union_of_one_pair_scans(kind, k, modes, bbm, boussinesq):
    sym = boussinesq if kind.bidirectional else bbm
    # a bidirectional mode also pairs with itself, across the two branches
    pairs = (itertools.combinations_with_replacement(modes, 2) if kind.bidirectional
             else itertools.combinations(modes, 2))
    union = [p for pair in pairs for p in collision_scan(kind, sym, k, modes, pairs=[pair])]
    union.sort(key=lambda p: (p.xi, p.n1, p.n2))
    assert collision_scan(kind, sym, k, modes) == tuple(union)


def test_collision_scan_bbm_pairs_keep_their_orientation(bbm):
    given = collision_scan(EquationKind.BBM, bbm, 2.5, range(-4, 3), pairs=[(0, -2)])
    assert [(p.n1, p.n2) for p in given] == [(0, -2)]
    default = collision_scan(EquationKind.BBM, bbm, 2.5, range(-4, 3))
    assert [(p.xi, p.n2, p.n1) for p in default] == [(p.xi, p.n1, p.n2) for p in given]


def test_collision_scan_boussinesq_pairs_in_either_order(boussinesq):
    scan = collision_scan(EquationKind.BOUSSINESQ, boussinesq, 0.5, range(-4, 4), pairs=[(2, 0)])
    assert scan == collision_scan(EquationKind.BOUSSINESQ, boussinesq, 0.5, range(-4, 4),
                                  pairs=[(0, 2)])
    assert [(p.n1, p.n2, p.branch1, p.branch2) for p in scan] == [(0, 2, +1, -1)]


@pytest.mark.parametrize("kind", [EquationKind.BBM, EquationKind.BOUSSINESQ, EquationKind.KDV],
                         ids=lambda kind: kind.value)
def test_collision_scan_one_mode(kind, boussinesq):
    assert collision_scan(kind, boussinesq, 1.0, [0]) == ()


def test_collision_scan_kdv_is_bbms(bbm):
    # KdV's flat-state frequencies are BBM's negated, so they collide at the same xi
    scan = collision_scan(EquationKind.KDV, bbm, 2.5, range(-3, 2))
    assert scan == collision_scan(EquationKind.BBM, bbm, 2.5, range(-3, 2))
    assert [(p.n1, p.n2) for p in scan] == [(-2, 0)]
    assert scan[0].xi == pytest.approx(1.0 - math.sqrt(1.0 - 3.0 / 2.5**2), abs=1e-8)
    # there the a = 0 KdV Bloch diagonal entries of the two modes agree to the
    # scan's root tolerance 1e-12 (they read 1.9e-16 apart)
    n = 16
    diag = np.diag(assemble(EquationKind.KDV, bbm, _flat(EquationKind.KDV, bbm, 2.5, n),
                            scan[0].xi, n).real)
    assert abs(diag[n - 2] - diag[n]) <= 1e-12


def test_validate_pencil_decay(bbm):
    val = validate_pencil(EquationKind.BBM, bbm, 2.0, (4e-2, 2e-2, 1e-2), (4e-2, 2e-2, 1e-2))
    assert all(f >= 3.0 for f in val.decay_factors)
    assert val.rows[-1].mismatch_over_xi < val.rows[0].mismatch_over_xi


@pytest.mark.parametrize("kind, name, k", [
    (EquationKind.BBM, "bbm", 1.0), (EquationKind.BBM, "bbm", 2.0),
    (EquationKind.BOUSSINESQ, "boussinesq", 1.0),
], ids=lambda v: getattr(v, "value", v))
def test_cross_validation_rows(kind, name, k, request):
    """The rows of validate's hill-cross-validation scenarios: each match
    stays within half its cluster gap, and each row's max_re is that of
    a fresh eigensolve of the same slice, bit for bit."""
    sym = request.getfixturevalue(name)
    steps = (4e-2, 2e-2, 1e-2)
    for row in validate_pencil(kind, sym, k, steps, steps, n_modes=32).rows:
        assert row.mismatch <= 0.5 * row.cluster_gap
        wave = newton_wave(kind, sym, k, row.a, 32)
        assert row.max_re == spectrum(assemble(kind, sym, wave, row.xi, 32)).max_re


def test_validate_pencil_flat_state(bbm):
    val = validate_pencil(EquationKind.BBM, bbm, 1.0, (0.0, 0.0), (2e-2, 1e-2))
    for row in val.rows:
        assert row.mismatch <= 1e-10 + 10.0 * row.xi**3


def test_collision_scan_boussinesq_pairs_as_lists(boussinesq):
    # pairs as JSON gives them
    listed = collision_scan(EquationKind.BOUSSINESQ, boussinesq, 0.5, range(-4, 4),
                            pairs=[[0, 2]])
    assert listed == collision_scan(EquationKind.BOUSSINESQ, boussinesq, 0.5, range(-4, 4),
                                    pairs=[(0, 2)])
    assert [p.xi for p in listed] == pytest.approx([0.2864], abs=1e-4)


@pytest.mark.parametrize("k_range", [(3.0, 1.0), (0.0, 3.0), (1.0, 1.0)],
                         ids=["reversed", "from-zero", "one-point"])
def test_min_collision_k_refuses_a_bad_range(k_range, bbm, boussinesq):
    # at k = 0 every flat-state frequency vanishes, so a scan there would report 0.0
    for kind, sym in ((EquationKind.BBM, bbm), (EquationKind.BOUSSINESQ, boussinesq),
                      (EquationKind.KDV, bbm)):
        with pytest.raises(InvalidArgument, match="^need 0 < k_lo < k_hi$"):
            min_collision_k(sym, [(0, -2)], k_range, kind=kind)


def test_bbm_self_pair_rejected(bbm):
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        min_collision_k(bbm, [(0, 0)], (0.5, 3.0))


def _hamiltonian_factors(op, sym):
    """K and L, both real symmetric, with R = K L in assemble's layout.

    With s = n + xi: KdV K = diag(s), L = diag(m(ks) - c) + conv; BBM
    K = diag(s m(ks)), L = diag(c/m(ks)) - I - conv; bidirectional, per
    mode pair in (u, q) order, K = s [[0, 1], [1, 0]] and
    L = [[I + conv, c I], [c I, diag(m^2(ks))]].
    """
    wave, n = op.wave, op.n_modes
    modes = np.arange(-n, n + 1)
    s = modes + op.xi
    m = eval_m(sym, wave.k * s)
    conv = 2.0 * cos_to_full(wave.u_hat, 2 * n)[np.subtract.outer(modes, modes) + 2 * n]
    eye = np.eye(modes.size)
    if op.wave.kind is EquationKind.KDV:
        return np.diag(s), np.diag(m - wave.c) + conv
    if op.wave.kind is EquationKind.BBM:
        return np.diag(s * m), np.diag(wave.c / m) - eye - conv
    u_only, q_only = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    l_mat = (np.kron(eye + conv, u_only) + np.kron(wave.c * eye, swap)
             + np.kron(np.diag(m**2), q_only))
    return np.kron(np.diag(s), swap), l_mat


@pytest.mark.parametrize("kind, name", [
    (EquationKind.KDV, "whitham"), (EquationKind.BBM, "bbm"),
    (EquationKind.BOUSSINESQ, "boussinesq"),
], ids=lambda v: getattr(v, "value", v))
def test_real_form_is_hamiltonian(kind, name, request):
    sym = request.getfixturevalue(name)
    op = assemble(kind, sym, newton_wave(kind, sym, 1.3, 0.05, 16), 0.2, 16)
    k_mat, l_mat = _hamiltonian_factors(op, sym)
    assert np.array_equal(l_mat, l_mat.T)
    assert np.max(np.abs(op.real - k_mat @ l_mat)) <= 1e-13 * np.max(np.abs(op.real))


def test_krein_count(bbm, boussinesq, whitham):
    """n(L) = #{Re lambda > 0} + #{imaginary lambda with v* L v < 0}
    (Kapitula, Kevrekidis & Sandstede, Physica D 195, 2004); needs K
    invertible, so xi != 0 and, for BBM, m > 0."""
    unstable = 0
    for kind in EquationKind:
        for sym in (bbm, boussinesq, whitham):
            for k in (0.8, 2.0):
                wave = newton_wave(kind, sym, k, 0.05, 16)
                for xi in (0.1, 0.25):
                    op = assemble(kind, sym, wave, xi, 16)
                    m = eval_m(sym, k * (np.arange(-16, 17) + xi))
                    if kind is EquationKind.BBM and np.any(m <= 0):
                        continue
                    k_mat, l_mat = _hamiltonian_factors(op, sym)
                    mu, vecs = np.linalg.eig(op.real)  # lambda = i mu
                    neutral = vecs[:, mu.imag == 0.0].real
                    signature = np.einsum("ij,ik,kj->j", neutral, l_mat, neutral)
                    krein_negative = int(np.sum(signature < 0))
                    growing = int(np.sum(mu.imag < 0.0))
                    unstable += growing > 0
                    assert int(np.sum(np.linalg.eigvalsh(l_mat) < 0)) == growing + krein_negative
    assert unstable > 0
