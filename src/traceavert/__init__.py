"""Counterfactual effectiveness estimation for contact tracing.

Estimates how many cases, hospitalizations, ICU admissions, and deaths were
averted by manual contact tracing and by app-based exposure notification
during an epidemic wave, from weekly surveillance counts.  The model assigns
every case a tertiary attack fraction — how much of its onward transmission
chain survives the warning it received — and reconstructs the counterfactual
epidemic without each channel.
"""
from .cases import (
    CaseSeries,
    WeeklyRawRecord,
    build_series_from_raw,
    derive_case_types,
    estimate_total_cases,
    load_fixture,
    load_hospitalizations_csv,
    load_presplit_csv,
    load_raw_csv,
    validate_series,
)
from .counterfactual import (
    CounterfactualResult,
    SeverityOutcomes,
    averted_app,
    averted_ct,
    rt_reduction,
    rt_series,
    severity_outcomes,
)
from .infectivity import WEIBULL_PROFILE, InfectivityProfile
from .oracle import SimConfig, SimOutcome, empirical_case_type_taf, simulate_trees
from .params import (
    ModelParams,
    ValidationReport,
    apply_overrides,
    default_params,
    dump_config,
    load_config,
    params_from_config,
    validate,
)
from .taf import (
    CASE_TYPES,
    LambdaTable,
    WarningChannel,
    app_channel,
    calibrate_variant,
    capital_lambda,
    case_type_lambdas,
    ct_channel,
    delta_mix,
    lambda_alpha,
    lambda_pair,
)

__version__ = "0.1.0"

__all__ = [
    "CASE_TYPES",
    "CaseSeries",
    "CounterfactualResult",
    "InfectivityProfile",
    "LambdaTable",
    "ModelParams",
    "SeverityOutcomes",
    "SimConfig",
    "SimOutcome",
    "ValidationReport",
    "WEIBULL_PROFILE",
    "WarningChannel",
    "WeeklyRawRecord",
    "app_channel",
    "apply_overrides",
    "averted_app",
    "averted_ct",
    "build_series_from_raw",
    "calibrate_variant",
    "capital_lambda",
    "case_type_lambdas",
    "ct_channel",
    "default_params",
    "delta_mix",
    "derive_case_types",
    "dump_config",
    "empirical_case_type_taf",
    "estimate_total_cases",
    "lambda_alpha",
    "lambda_pair",
    "load_config",
    "load_fixture",
    "load_hospitalizations_csv",
    "load_presplit_csv",
    "load_raw_csv",
    "params_from_config",
    "rt_reduction",
    "rt_series",
    "severity_outcomes",
    "simulate_trees",
    "validate",
    "validate_series",
    "__version__",
]
