"""Modulational stability of small periodic traveling waves for nonlocal
dispersive equations of KdV, BBM and regularized Boussinesq type."""

from .dispersion import (
    AssumptionReport,
    DispersionSymbol,
    bbm_symbol,
    boussinesq_symbol,
    builtin_symbol,
    check_assumptions,
    eval_m,
    fractional_symbol,
    group_speed,
    jet_m,
    parse_symbol,
    symbol_from_config,
    whitham_symbol,
)
from .hill import (
    BlochOperator,
    SpectrumSlice,
    assemble,
    collision_scan,
    min_collision_k,
    spectrum,
    validate_pencil,
)
from .indices import (
    IndexReport,
    Verdict,
    base_indices,
    critical_wavenumber,
    find_resonances,
    ind,
)
from .pencil import (
    QuarticClass,
    QuarticClassification,
    ReducedPencil,
    bnesq_leading_discs,
    build_bbm_pencil,
    build_bnesq_pencil,
    classify_quartic,
    disc_cubic,
    pencil_verdict,
    pencil_verdicts,
    rescaled_charpoly,
)
from .stokes import (
    EquationKind,
    StokesExpansion,
    WaveSolution,
    expansion_error,
    expansion_for,
    newton_wave,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
