"""Run configuration: the JSON file's values and the flags, parsed and validated as one."""

from __future__ import annotations

import json
import keyword
import math
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .errors import ConfigError
from .stokes import EquationKind

#: asymptotic-regime caps; values above these draw a warning, not an error
XI_WARN = 0.1
A_WARN = 0.05
#: the most float64 values (128 MiB) that one dense array of a run may hold;
#: a size that would need more is refused before anything is allocated
MAX_DENSE_VALUES = 2**24
#: k samples of the harmonic-resonance scan of the resonances command
HARMONIC_SAMPLES = 200


@dataclass
class RunConfig:
    """All knobs a command can take; commands validate what they need."""

    equation: str | None = None
    symbol: dict = field(default_factory=dict)
    k: float | None = None
    k_range: tuple[float, float] | None = None
    k_steps: int = 101
    a: float = 0.01
    xi: float | None = None
    xi_range: tuple[float, float] | None = None
    xi_steps: int = 21
    n_modes: int = 32
    n_max: int = 8
    tol: float = 1e-12
    alpha_range: tuple[float, float] = (2.0, 6.0)
    alpha_steps: int = 17
    output: str | None = None
    summary: str | None = None
    svg: str | None = None
    only: str | None = None

    def equation_kind(self) -> EquationKind:
        if self.equation is None:
            raise ConfigError("equation", "missing (one of kdv, bbm, boussinesq)")
        try:
            return EquationKind(self.equation.lower())
        except ValueError:
            raise ConfigError(
                "equation", f"unknown value {self.equation!r}; use kdv, bbm or boussinesq"
            ) from None

    def _values(self, name: str, point, span, steps: int, valid, need: str) -> np.ndarray:
        """The single point, or the evenly spaced grid over the range."""
        if point is not None:
            return np.array([float(point)])
        if span is None:
            raise ConfigError(name, f"need --{name} or --{name}-range")
        if not valid(*span):
            raise ConfigError(f"{name}_range", f"need {need}, got {span}")
        if steps < 1:
            raise ConfigError(f"{name}_steps", "must be >= 1")
        return np.linspace(*span, steps)

    def k_values(self) -> np.ndarray:
        if self.k is not None and not self.k > 0:
            raise ConfigError("k", f"need k > 0, got {self.k}")
        return self._values("k", self.k, self.k_range, self.k_steps,
                            lambda lo, hi: 0 < lo <= hi, "0 < lo <= hi")

    def single_k(self, command: str) -> float:
        """The one wave number a command that solves a wave needs."""
        ks = self.k_values().tolist()
        if len(ks) != 1:
            raise ConfigError("k", f"{command} needs a single --k")
        return ks[0]

    def xi_values(self) -> np.ndarray:
        if self.xi is not None and not 0 <= self.xi <= 0.5:
            raise ConfigError("xi", f"need 0 <= xi <= 0.5, got {self.xi}")
        return self._values("xi", self.xi, self.xi_range, self.xi_steps,
                            lambda lo, hi: 0 <= lo <= hi <= 0.5, "0 <= lo <= hi <= 0.5")

    def warnings(self) -> list[str]:
        out = []
        if self.xi is not None and self.xi > XI_WARN:
            out.append(f"xi={self.xi} is above the asymptotic cap {XI_WARN}")
        if self.xi_range is not None and self.xi_range[1] > XI_WARN:
            out.append(f"xi range exceeds the asymptotic cap {XI_WARN}")
        if abs(self.a) > A_WARN:
            out.append(f"|a|={abs(self.a)} is above the asymptotic cap {A_WARN}")
        return out

    @classmethod
    def parse(cls, data: dict[str, Any]) -> "RunConfig":
        annotations = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for key, val in data.items():
            if key not in annotations:
                raise ConfigError(key, "unknown config field")
            if not _fits(val, annotations[key]):
                raise ConfigError(key, f"expected {annotations[key]}, got {val!r}")
            kwargs[key] = (float(val[0]), float(val[1])) if isinstance(val, (list, tuple)) else val
        cfg = cls(**kwargs)
        # a negative tolerance is never met; 0 is, by a residual of exactly 0
        if cfg.tol < 0:
            raise ConfigError("tol", f"need tol >= 0, got {cfg.tol}")
        params = cfg.symbol.get("params", {})
        # finite numbers, under names an expression can spell: Python keywords are not names
        if not isinstance(params, dict) or not all(
                type(value) in (int, float) and math.isfinite(value) and not keyword.iskeyword(name)
                for name, value in params.items()):
            raise ConfigError("symbol",
                              f"expected finite numbers named by non-keywords, got {params!r}")
        # the largest dense array each size sets; a negative size is refused later
        side = 4 * max(cfg.n_modes, 0) + 2  # the real Bloch matrix of a bidirectional wave
        k_steps = max(cfg.k_steps, 0)
        for name, values in (
                ("n_modes", side * side),
                ("xi_steps", 2 * max(cfg.xi_steps, 0) * side),  # a spectrum's complex eigenvalues
                ("k_steps", 32 * k_steps),  # an index sweep's complex (k_steps, 4, 4) pencils
                ("alpha_steps", max(cfg.alpha_steps, 0) * k_steps),  # a diagram's alpha x k grid
                ("n_max", max(cfg.n_max - 1, 0) * HARMONIC_SAMPLES)):  # the m(n k) table
            if values > MAX_DENSE_VALUES:
                raise ConfigError(name, f"{getattr(cfg, name)} needs an array of {values} float64 "
                                        f"values, above the budget of {MAX_DENSE_VALUES}")
        return cfg


def field_type(annotation: str) -> type:
    """The type a field annotated e.g. 'float | None' or
    'tuple[float, float] | None' holds when it is set."""
    return {"str": str, "dict": dict, "float": float, "int": int,
            "tuple": tuple}[annotation.split(" ")[0].split("[")[0]]


def _fits(val, annotation: str) -> bool:
    """Whether a JSON value has the type of a field annotated e.g.
    'float | None'; a tuple field takes a [lo, hi] pair of numbers.
    Every float must be finite: an inf or a nan is refused here, not
    passed on to the numerics."""
    if val is None:
        return annotation.endswith("None")
    kind = field_type(annotation)
    if kind is tuple:
        return (isinstance(val, (list, tuple)) and len(val) == 2
                and all(_fits(v, "float") for v in val))
    wanted = (int, float) if kind is float else kind
    return (isinstance(val, wanted) and not isinstance(val, bool)
            and (not isinstance(val, float) or math.isfinite(val)))


def load_config(path: str) -> dict[str, Any]:
    """The JSON object in the file, once RunConfig.parse has checked it on its own."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("<file>", "top-level JSON value must be an object")
    RunConfig.parse(data)
    return data
