"""Acceptance suite: one test per pinned criterion, at its stated tolerance.

Each test prints its pass/fail line (visible with -s or in captured
output); the same checks drive the `modwave validate` subcommand.

Two criteria encode reference values that the computation itself
contradicts, and they are marked as strict expected failures rather than
weakened:

* collision-floor: the pinned constant 2*sqrt(3/5) is a valid lower
  bound for the scanned collision family but is attained nowhere; the
  measured minimum is exactly 2.0 (modes 0 and -2 colliding at xi=1/2,
  on the curve k = sqrt(3/(xi(2-xi)))).  The bound itself is asserted
  in test_hill.py::test_min_collision_k.
* cubic-disc-identity: the pinned closed form carries coefficient 4 on
  the linear index term where the computed discriminant has 2; the
  corrected identity holds to 1e-10 relative and is asserted in
  test_pencil.py::test_cubic_disc_closed_form_corrected.
"""

import pytest

from modwave import validation


def _run(name: str, budget: float):
    result = validation._timed(name, validation.ALL_CHECKS[name])
    print()
    print(result.line())
    assert result.runtime < budget, f"runtime {result.runtime:.1f}s exceeds {budget}s"
    return result


def test_criterion_1_bbm_threshold():
    result = _run("bbm-threshold", 1.0)
    assert result.passed


@pytest.mark.xfail(
    strict=True,
    reason="pinned constant 2*sqrt(3/5) is an unattained lower bound; the "
    "measured minimum collision wave number is 2.0",
)
def test_criterion_2_collision_floor():
    result = _run("bbm-collision-floor", 5.0)
    assert result.passed


def test_criterion_3_boussinesq_stability():
    result = _run("boussinesq-stability", 1.0)
    assert result.passed


def test_criterion_4_fractional_threshold():
    result = _run("fractional-threshold", 10.0)
    assert result.passed


@pytest.mark.xfail(
    strict=True,
    reason="pinned closed form has coefficient 4 on the linear index term; "
    "the computed discriminant satisfies the identity with coefficient 2",
)
def test_criterion_5_cubic_disc_identity():
    result = _run("cubic-disc-identity", 1.0)
    assert result.passed


def test_criterion_6_hill_cross_validation():
    result = _run("hill-cross-validation", 60.0)
    assert result.passed


def test_criterion_7_stokes_vs_newton():
    result = _run("stokes-vs-newton", 10.0)
    assert result.passed


def test_criterion_8_quartic_classifier():
    result = _run("quartic-classifier", 5.0)
    assert result.passed
    # every sample is decisive: the count moves if the discriminants' last bits do
    assert result.measured == "0 disagreements over 10000 decisive samples of 10000"


def test_criterion_9_zero_state_spectra():
    result = _run("zero-state-spectra", 5.0)
    assert result.passed
