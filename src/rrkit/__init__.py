"""Randomized-response survey toolkit: device design, estimation, privacy
measures, and seeded Monte Carlo replication for discrete sensitive variables.

The names below, and the submodules, load on first use (PEP 562), so that a
program touching only ``rrkit.design`` never imports numpy or the simulation
and verification stack.
"""

from __future__ import annotations

import importlib

# each exported name, by the submodule that defines it
_EXPORTS = {
    "design": (
        "DesignCertificate",
        "DesignTable",
        "design_device",
        "p0_all_stigmatizing",
        "p0_nonstigmatizing",
        "p0_table",
    ),
    "device": ("draw_responses", "response_distribution"),
    "estimation": (
        "estimate_mean",
        "estimate_proportions",
        "estimate_report",
        "total_variance_proportions_theoretical",
        "variance_mean_plugin",
        "variance_mean_theoretical",
    ),
    "model": (
        "Device",
        "EstimateReport",
        "PolicyMode",
        "PopulationModel",
        "PrivacyPolicy",
        "ResponseSample",
        "SupportSpec",
        "SurveyDefinition",
        "ValidationError",
        "load_survey",
        "parse_survey_document",
        "validate_policy",
    ),
    "privacy": (
        "AlphaResult",
        "BetaResult",
        "PrivacyReport",
        "alpha_measure",
        "beta_measure",
        "guaranteed_alpha_bound",
        "guaranteed_beta_bound",
        "privacy_report",
        "report_for_policy",
        "revealing_probabilities",
    ),
    "simulation": (
        "ReplicateRecord",
        "SimulationConfig",
        "SimulationSummary",
        "replicate_stream",
        "run_replicates",
        "sample_true_indices",
        "simulate_survey",
    ),
    "verification": ("CheckResult", "VerificationReport", "run_verification"),
}
_SUBMODULES = frozenset((*_EXPORTS, "oracle"))
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule also binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
