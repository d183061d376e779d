"""Scalar model parameters with validation, overrides and config files.

All epidemiological and behavioural inputs of the model live in a single
immutable :class:`ModelParams`. The composite adherences ``a_base``, ``a_ct``
and ``a_app`` are read-only properties, derived from their constituents at
full precision (``a_ct`` is 0.675, not the printed 0.67) because the
downstream attack-fraction constants are sensitive at the third decimal.

The external config format is a flat text file with one ``key = value`` pair
per line, ``#`` comments, and all keys optional. Unknown keys are rejected.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping

__all__ = [
    "ModelParams",
    "ValidationReport",
    "default_params",
    "apply_overrides",
    "validate",
    "check",
    "params_from_config",
]

_DELAY_FIELDS = ("t_sym", "t_plan", "t_ct", "t_app", "t_pers")


@dataclass(frozen=True)
class ModelParams:
    """All scalar model parameters; ``ModelParams()`` is the default set.

    Parameters
    ----------
    ihr, iir, ifr
        Infection hospitalization / ICU / fatality rates.
    f_sym
        Fraction of infected people who develop symptoms.
    a_sym
        Quarantine-and-test adherence once symptoms appear.
    a_ct_plus, a_ct_minus
        Adherence to a manual-tracing warning with / without symptoms.
    a_app_plus, a_app_minus
        The same two values for an app warning.
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
    a_ct_plus: float = 0.75
    a_ct_minus: float = 0.50
    a_app_plus: float = 0.75
    a_app_minus: float = 0.50
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

    @property
    def a_base(self) -> float:
        """Effective base adherence: ``a_sym * f_sym``."""
        return self.a_sym * self.f_sym

    @property
    def a_ct(self) -> float:
        """Symptom-weighted adherence to a manual-tracing warning."""
        return self.f_sym * self.a_ct_plus + (1.0 - self.f_sym) * self.a_ct_minus

    @property
    def a_app(self) -> float:
        """Symptom-weighted adherence to an app warning."""
        return self.f_sym * self.a_app_plus + (1.0 - self.f_sym) * self.a_app_minus


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an invariant check: empty ``violations`` means valid."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


_FIELD_NAMES = frozenset(f.name for f in fields(ModelParams))


def default_params() -> ModelParams:
    """Return the default parameter set."""
    return ModelParams()


def _is_integer(value: object) -> bool:
    """An integer of any integral type, numpy's included, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _coerce(name: str, value: object) -> float | int:
    """Convert text or a number, but not a bool, to the field's declared type:
    a delay to an exact ``int``, a fraction to a ``float``."""
    try:
        if isinstance(value, bool) or not isinstance(value, (str, numbers.Number)):
            raise TypeError
        if name in _DELAY_FIELDS:
            if _is_integer(value) or isinstance(value, str):
                try:  # an integer or integer text keeps every digit at any size
                    return int(value)
                except ValueError:  # "5.0", or text past the int digit limit
                    pass
            as_float = float(value)  # type: ignore[arg-type]
            if not as_float.is_integer():
                raise ValueError
            return int(as_float)
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValueError(f"invalid value for parameter {name!r}: {value!r}") from None


def apply_overrides(base: ModelParams, overrides: Mapping[str, object]) -> ModelParams:
    """Apply field-wise overrides on top of ``base``.

    Raises
    ------
    ValueError
        For unknown parameter names, the derived composites included, or
        values of the wrong type.
    """
    unknown = sorted(set(overrides) - _FIELD_NAMES)
    if unknown:
        raise ValueError(f"unknown parameter(s): {', '.join(unknown)}")
    return dataclasses.replace(
        base, **{name: _coerce(name, value) for name, value in overrides.items()})


def validate(p: ModelParams) -> ValidationReport:
    """Check every parameter invariant; the report lists all violations. No value is a
    bool, and a fraction is an ``int`` or ``float``: NEP 50 keeps float32 arithmetic."""
    violations: list[str] = []
    for name, value in vars(p).items():
        if name in _DELAY_FIELDS:
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                violations.append(f"{name} must be an integer number of days >= 0, got {value!r}")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            violations.append(f"{name} must be an int or float, got {type(value).__name__}")
        elif not 0.0 <= value <= 1.0:
            violations.append(f"{name} must lie in [0, 1], got {value!r}")
    return ValidationReport(tuple(violations))


def check(p: ModelParams, i_w: Iterable[float]) -> None:
    """Raise one ``ValueError`` naming every field of ``p`` at fault: the
    ``validate`` violations if any (the bounds below compare delays, which need
    not be integers then), else each delay out of the domain that the
    infectivity weights ``i_w`` of profile days 1, 2, ... give the model."""
    violations = validate(p).violations
    if not violations:
        # Exact because the published i_w is nonzero on every day from its first
        # nonzero day (3) to its last (13): app_minus weighs days t_sym + 1 ..
        # t_sym + t_plan, pers and ct days 1 .. t_sym + t_plan, and app_plus
        # isolates on day t_sym. A warning comes a day or more after isolation.
        infectious = [day for day, weight in enumerate(i_w, start=1) if weight]
        bounds = {"t_sym": (p.t_sym, 1, infectious[-1] - 1), "t_plan": (p.t_plan, 1, math.inf),
                  "t_sym + t_plan": (p.t_sym + p.t_plan, infectious[0], math.inf),
                  "t_ct": (p.t_ct, 1, math.inf), "t_app": (p.t_app, 1, math.inf)}
        violations = tuple(
            f"{name} must be {f'>= {low}' if value < low else f'<= {high}'}, got {value}"
            for name, (value, low, high) in bounds.items() if not low <= value <= high)
    if violations:
        raise ValueError("; ".join(violations))


# ----------------------------------------------------------------------------
# config files: flat "key = value" lines, '#' comments, unknown keys rejected


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


def params_from_config(
    path: str | Path | None,
    cli_overrides: Mapping[str, object] | None = None,
) -> ModelParams:
    """Build params from defaults, an optional config file, then CLI overrides."""
    p = default_params()
    if path is not None:
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            p = apply_overrides(p, _parse_config_lines(handle, str(path)))
    if cli_overrides:
        p = apply_overrides(p, cli_overrides)
    return p
