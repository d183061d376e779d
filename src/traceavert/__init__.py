"""Counterfactual effectiveness estimation for contact tracing.

Estimates how many cases, hospitalizations, ICU admissions, and deaths were
averted by manual contact tracing and by app-based exposure notification
during an epidemic wave, from weekly surveillance counts.  The model assigns
every case a tertiary attack fraction — how much of its onward transmission
chain survives the warning it received — and reconstructs the counterfactual
epidemic without each channel.
"""
from .cases import CaseSeries, load_fixture
from .counterfactual import CounterfactualResult, averted_app, averted_ct
from .infectivity import InfectivityProfile
from .params import ModelParams, default_params
from .taf import CASE_TYPES, LambdaTable

__version__ = "0.1.0"

__all__ = [
    "CASE_TYPES",
    "CaseSeries",
    "CounterfactualResult",
    "InfectivityProfile",
    "LambdaTable",
    "ModelParams",
    "averted_app",
    "averted_ct",
    "default_params",
    "load_fixture",
    "__version__",
]
