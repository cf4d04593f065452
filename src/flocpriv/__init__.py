"""Cohort-assignment pipeline (hash bitvectors + prefix clustering) with
sequence-unicity and demographic t-closeness analyses.

The names of ``__all__`` resolve on first use (PEP 562): ``import flocpriv``
imports no submodule and no NumPy, and ``flocpriv.<name>`` imports only the
module that defines it.
"""

from __future__ import annotations

import importlib
import sys
import types

__version__ = "0.1.0"

#: The names each submodule exports through the package.
_EXPORTS = {
    "cohorts": ("WeeklyCohorts", "compute_weekly_cohorts"),
    "ingest": (
        "FormatConfig",
        "MachineWeekTable",
        "SessionColumns",
        "WeekConfig",
        "build_machine_weeks",
        "parse_sessions",
        "representativeness",
    ),
    "panels": ("JointDistribution", "Panel", "cluster_panel", "stratified_panels"),
    "prefixlsh": ("CohortError", "CohortMap", "build_cohort_map"),
    "psl": ("SuffixSet", "registrable_domain", "registrable_domains"),
    "sensitivity": (
        "anomalous_category",
        "binomial_baseline",
        "chi_square_test",
        "ot_scale_control",
        "shuffle_baseline",
        "t_closeness_curve",
    ),
    "simhash": ("SimHashConfig", "simhash"),
    "synth": ("SynthConfig", "generate_population"),
    "unicity": (
        "UnicityReport",
        "assign_sequence_cohorts",
        "build_sequences",
        "sweep_k",
        "sweep_population",
        "unicity_fractions",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package, whose ``simhash`` is the function that ``simhash.py``
    defines. Importing a submodule binds it on the package under its own
    name, so importing ``flocpriv.simhash`` binds the function instead."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, types.ModuleType) and _MODULE_OF.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
