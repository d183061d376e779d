"""Scalar model parameters with validation, overrides and config file I/O.

All epidemiological and behavioural inputs of the model live in a single
immutable :class:`ModelParams`. Three of the fields (``a_base``, ``a_ct``,
``a_app``) are composites of other fields; they are stored at full precision
(e.g. ``a_ct = 0.675``, not the display-rounded 0.67) because the downstream
attack-fraction constants are sensitive at the third decimal.

The external config format is a flat text file with one ``key = value`` pair
per line, ``#`` comments, and all keys optional. Unknown keys are rejected.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping

__all__ = [
    "ModelParams",
    "ValidationReport",
    "default_params",
    "apply_overrides",
    "validate",
    "load_config",
    "params_from_config",
    "dump_config",
]

_DELAY_FIELDS = ("t_sym", "t_plan", "t_ct", "t_app", "t_pers")

#: composite field -> the constituent fields it is derived from
_COMPOSITES: Mapping[str, tuple[str, ...]] = {
    "a_base": ("a_sym", "f_sym"),
    "a_ct": ("f_sym", "a_ct_plus", "a_ct_minus"),
    "a_app": ("f_sym", "a_app_plus", "a_app_minus"),
}

#: how close a composite must sit to the value derived from its constituents
_COMPOSITE_TOL = 0.005


@dataclass(frozen=True)
class ModelParams:
    """All scalar model parameters.

    Parameters
    ----------
    ihr, iir, ifr
        Infection hospitalization / ICU / fatality rates.
    f_sym
        Fraction of infected people who develop symptoms.
    a_sym
        Quarantine-and-test adherence once symptoms appear.
    a_base
        Effective base adherence, composite ``a_sym * f_sym``.
    a_ct_plus, a_ct_minus, a_ct
        Adherence to a manual-tracing warning with / without symptoms, and
        the symptom-weighted composite.
    a_app_plus, a_app_minus, a_app
        The same three values for an app warning.
    e_ct
        Fraction of manually traced contacts already informed personally by
        their index case before the tracing call.
    e_app
        Fraction of app-warned positives that manual tracing would not have
        reached.
    f_ct, f_app
        Fraction of infected contacts actually found per channel.
    u_app
        Population fraction actively using the notification app.
    t_sym, t_plan, t_ct, t_app, t_pers
        Delays in days: infection to symptoms, symptoms to test+isolation,
        warning latency of manual tracing, of the app, and of a personal
        heads-up from the index.
    presym_fraction
        Share of symptomless app-warned positives counted as genuinely
        pre-symptomatic rather than never-symptomatic.
    """

    ihr: float = 0.0132
    iir: float = 0.0025
    ifr: float = 0.0060
    f_sym: float = 0.70
    a_sym: float = 0.50
    a_base: float = 0.35
    a_ct_plus: float = 0.75
    a_ct_minus: float = 0.50
    a_ct: float = 0.675
    a_app_plus: float = 0.75
    a_app_minus: float = 0.50
    a_app: float = 0.675
    e_ct: float = 0.60
    e_app: float = 0.58
    f_ct: float = 0.50
    f_app: float = 0.50
    u_app: float = 0.16
    t_sym: int = 5
    t_plan: int = 2
    t_ct: int = 3
    t_app: int = 2
    t_pers: int = 1
    presym_fraction: float = 0.20


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an invariant check: empty ``violations`` means valid."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


_FIELD_NAMES = frozenset(f.name for f in fields(ModelParams))


def _derived_composites(p: ModelParams) -> dict[str, float]:
    return {
        "a_base": p.a_sym * p.f_sym,
        "a_ct": p.f_sym * p.a_ct_plus + (1.0 - p.f_sym) * p.a_ct_minus,
        "a_app": p.f_sym * p.a_app_plus + (1.0 - p.f_sym) * p.a_app_minus,
    }


def default_params() -> ModelParams:
    """Return the default parameter set, composites derived at full precision."""
    base = ModelParams()
    return dataclasses.replace(base, **_derived_composites(base))


def _coerce(name: str, value: object) -> float | int:
    """Coerce a raw override value to the field's declared type."""
    try:
        if name in _DELAY_FIELDS:
            as_float = float(value)  # type: ignore[arg-type]
            if not as_float.is_integer():
                raise ValueError
            return int(as_float)
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValueError(f"invalid value for parameter {name!r}: {value!r}") from None


def apply_overrides(base: ModelParams, overrides: Mapping[str, object]) -> ModelParams:
    """Apply field-wise overrides on top of ``base``.

    A composite field (``a_base``, ``a_ct``, ``a_app``) is recomputed from its
    constituents when any constituent is overridden, unless the composite
    itself is also overridden explicitly.

    Raises
    ------
    ValueError
        For unknown parameter names or values of the wrong type.
    """
    unknown = sorted(set(overrides) - _FIELD_NAMES)
    if unknown:
        raise ValueError(f"unknown parameter(s): {', '.join(unknown)}")

    updates = {name: _coerce(name, value) for name, value in overrides.items()}
    merged = dataclasses.replace(base, **updates)
    derived = _derived_composites(merged)
    for composite, constituents in _COMPOSITES.items():
        if composite in updates:
            continue
        if any(name in updates for name in constituents):
            merged = dataclasses.replace(merged, **{composite: derived[composite]})
    return merged


def validate(p: ModelParams) -> ValidationReport:
    """Check every parameter invariant; the report lists all violations."""
    violations: list[str] = []
    for f in fields(ModelParams):
        value = getattr(p, f.name)
        if f.name in _DELAY_FIELDS:
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                violations.append(
                    f"{f.name} must be an integer number of days >= 0, got {value!r}"
                )
        else:
            if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
                violations.append(f"{f.name} must lie in [0, 1], got {value!r}")
    for composite, derived in _derived_composites(p).items():
        actual = getattr(p, composite)
        if isinstance(actual, (int, float)) and abs(actual - derived) > _COMPOSITE_TOL:
            violations.append(
                f"{composite}={actual!r} deviates from its constituent-derived "
                f"value {derived!r} by more than {_COMPOSITE_TOL}"
            )
    return ValidationReport(tuple(violations))


# ----------------------------------------------------------------------------
# config file I/O: flat "key = value" lines, '#' comments, unknown keys rejected


def _parse_config_lines(lines: Iterable[str], source: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if not key or not value:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        if key not in _FIELD_NAMES:
            raise ValueError(f"{source}:{lineno}: unknown parameter {key!r}")
        if key in raw:
            raise ValueError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def load_config(path: str | Path) -> dict[str, str]:
    """Read a config file into a raw override mapping (values still strings)."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        return _parse_config_lines(handle, str(path))


def params_from_config(
    path: str | Path | None,
    cli_overrides: Mapping[str, object] | None = None,
) -> ModelParams:
    """Build params from defaults, an optional config file, then CLI overrides."""
    p = default_params()
    if path is not None:
        p = apply_overrides(p, load_config(path))
    if cli_overrides:
        p = apply_overrides(p, cli_overrides)
    return p


def dump_config(p: ModelParams, path: str | Path) -> None:
    """Write every field as ``key = value`` at full precision (exact round-trip)."""
    lines = [f"{f.name} = {getattr(p, f.name)!r}" for f in fields(ModelParams)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
