"""Cohort-assignment pipeline (hash bitvectors + prefix clustering) with
sequence-unicity and demographic t-closeness analyses."""

from __future__ import annotations

__version__ = "0.1.0"

from .cohorts import WeeklyCohorts, compute_weekly_cohorts
from .ingest import (
    FormatConfig,
    MachineWeekTable,
    SessionColumns,
    WeekConfig,
    build_machine_weeks,
    parse_sessions,
    representativeness,
)
from .panels import JointDistribution, Panel, cluster_panel, stratified_panels
from .prefixlsh import CohortError, CohortMap, build_cohort_map
from .psl import SuffixSet, registrable_domain
from .sensitivity import (
    anomalous_category,
    binomial_baseline,
    chi_square_test,
    ot_scale_control,
    shuffle_baseline,
    t_closeness_curve,
)
from .simhash import SimHashConfig, gaussian_feature, simhash
from .synth import SynthConfig, generate_population
from .unicity import (
    UnicityReport,
    assign_sequence_cohorts,
    build_sequences,
    sweep_k,
    sweep_population,
    unicity_fractions,
)

__all__ = [
    "__version__",
    "CohortError",
    "CohortMap",
    "FormatConfig",
    "JointDistribution",
    "MachineWeekTable",
    "Panel",
    "SessionColumns",
    "SimHashConfig",
    "SuffixSet",
    "SynthConfig",
    "UnicityReport",
    "WeekConfig",
    "WeeklyCohorts",
    "anomalous_category",
    "assign_sequence_cohorts",
    "binomial_baseline",
    "build_cohort_map",
    "build_machine_weeks",
    "build_sequences",
    "chi_square_test",
    "cluster_panel",
    "compute_weekly_cohorts",
    "gaussian_feature",
    "generate_population",
    "ot_scale_control",
    "parse_sessions",
    "registrable_domain",
    "representativeness",
    "shuffle_baseline",
    "simhash",
    "stratified_panels",
    "sweep_k",
    "sweep_population",
    "t_closeness_curve",
    "unicity_fractions",
]
