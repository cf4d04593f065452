"""Batch command-line interface.

Wires ingestion/synthesis through cohort computation into the unicity
and demographic-leakage reports. Every subcommand writes its outputs
plus a ``manifest.json`` echoing the resolved configuration; identical
manifests produce byte-identical outputs. A run that fails writes
nothing: ``--out`` is created and filled only once the handler returns.
A JSON config file may supply any flag (keys = flag dest names);
explicit flags override the file.

Exit codes: 0 success, 1 pipeline failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import math
import os
import sys
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .cohorts import compute_weekly_cohorts
from .hashing import check_seed, derive_seed
from .ingest import (
    INCOME_GROUPS,
    RACE_GROUPS,
    FormatConfig,
    MachineWeekTable,
    SchemaError,
    WeekConfig,
    build_machine_weeks,
    parse_sessions,
    representativeness,
)
from .manifest import csv_text, dump_json, read_json, utf8_error, write_manifest, write_text
from .panels import JointDistribution, PanelError, _is_number, cluster_panel, stratified_panels
from .prefixlsh import CohortError
from .psl import SuffixSet
from .sensitivity import (
    ATTRIBUTES,
    DEFAULT_T_GRID,
    OTWorkerError,
    chi_square_by_group,
    ot_scale_control,
    random_subsample_pvalue,
    shuffle_baseline,
    t_closeness_curve,
)
from .simhash import DEFAULT_BIT_LENGTH, DEFAULT_SEED, SimHashConfig
from .special import ConstantInputError
from .synth import SynthConfig, _session_blocks, generate_population
from .unicity import assign_sequence_cohorts, build_sequences, sweep_k, sweep_population, unicity_fractions


class PipelineError(RuntimeError):
    pass


#: Flags naming input files; a run digests each one it was given.
_INPUT_FLAGS = ("sessions", "psl", "reference", "table", "target")


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise PipelineError(f"bad integer list {text!r}") from exc
    if not values:
        raise PipelineError(f"integer list {text!r} has no values")
    return values


def _parse_t_grid(text: str) -> list[float]:
    """Either "start:stop:step" or a comma-separated list.

    The range holds start + i * step (rounded to 10 places) for every i
    that keeps it at most stop, up to a 1e-9 step tolerance, so the stop is
    an inclusive bound that float rounding does not drop. Every value must
    be finite.
    """
    try:
        if ":" in text:
            start, stop, step = (float(x) for x in text.split(":"))
            if step <= 0:
                raise PipelineError("t-grid step must be positive")
            n = math.floor((stop - start) / step + 1e-9)
            values = [round(start + i * step, 10) for i in range(n + 1)]
        else:
            values = [float(x) for x in text.split(",") if x.strip()]
    except (ValueError, OverflowError) as exc:  # OverflowError: an infinite range
        raise PipelineError(f"bad t-grid {text!r}") from exc
    if not values:
        raise PipelineError(f"t-grid {text!r} has no values")
    if not all(map(math.isfinite, values)):
        raise PipelineError(f"bad t-grid {text!r}")
    return values


def _non_negative(value: int, flag: str) -> int:
    if value < 0:
        raise PipelineError(f"{flag} must be non-negative, got {value}")
    return value


def _machine_demographics(table: MachineWeekTable) -> tuple[np.ndarray, np.ndarray]:
    """Race and income index of each machine (by ascending ID), from its first row."""
    _, first = np.unique(table.machine_ids, return_index=True)
    return table.race_idx[first], table.income_idx[first]


def _load_joint(path: str | None, table: MachineWeekTable | None = None) -> JointDistribution:
    if path is None:
        return JointDistribution.default()
    if path == "empirical":
        if table is None:
            raise PipelineError("empirical target needs a table")
        race, income = _machine_demographics(table)
        cells = race.astype(np.int64) * len(INCOME_GROUPS) + income
        counts = np.bincount(cells, minlength=len(RACE_GROUPS) * len(INCOME_GROUPS))
        probs = counts / counts.sum()
        grid = probs.reshape(len(RACE_GROUPS), len(INCOME_GROUPS))
        return JointDistribution(tuple(tuple(float(p) for p in row) for row in grid))
    return JointDistribution.from_json_dict(read_json(path))


def _attributes(selection: str) -> tuple[str, ...]:
    # argparse and _apply_config_file both hold selection to the flag's choices.
    return ATTRIBUTES if selection == "both" else (selection,)


def _config_echo(args: argparse.Namespace) -> dict[str, Any]:
    # "out" is where the run lands, not a semantic parameter: excluding it
    # keeps reruns into different directories byte-identical.
    skip = {"func", "config", "out"}
    return {k: v for k, v in vars(args).items() if k not in skip and not callable(v)}


def _inputs(args: argparse.Namespace) -> dict[str, str]:
    given = {flag: getattr(args, flag, None) for flag in _INPUT_FLAGS}
    if given["target"] == "empirical":  # derived from --table, not read from a file
        del given["target"]
    return {flag: path for flag, path in given.items() if path is not None}


def _sim_config(args: argparse.Namespace) -> SimHashConfig:
    # The hash seed is a protocol parameter (all cooperating runs must
    # share it), so it is independent of --seed, which only drives
    # sampling randomness within one run.
    return SimHashConfig(bit_length=args.bit_length, seed=args.hash_seed)


def _report_files(stem: str, payload: dict[str, Any], rows: str) -> dict[str, str]:
    """``<stem>.json`` of a report's payload and ``<stem>.csv`` of its ``rows`` list."""
    return {f"{stem}.json": dump_json(payload), f"{stem}.csv": csv_text(payload[rows])}


# ---------------------------------------------------------------------------
# Subcommand handlers: each maps the parsed flags to {output file name: text},
# where a text may be an iterable of text pieces, and writes nothing; main
# writes the files and the manifest.


def _cmd_preprocess(args: argparse.Namespace) -> dict[str, str]:
    fmt = FormatConfig(delimiter=args.delimiter, date_format=args.date_format)
    suffixes = SuffixSet.from_file(args.psl) if args.psl else None
    try:
        with open(args.sessions, encoding="utf-8") as fh:
            parsed = parse_sessions(fh, fmt)
    except SchemaError as exc:
        raise PipelineError(str(exc)) from exc
    except UnicodeDecodeError:
        raise utf8_error(args.sessions) from None
    week_cfg = WeekConfig(
        epoch=dt.date.fromisoformat(args.epoch),
        n_weeks=args.weeks,
        min_domains=args.min_domains,
    )
    built = build_machine_weeks(
        parsed.records, week_cfg, suffixes, implicit_star=args.implicit_star
    )
    report = dict(built.report)
    if args.reference:
        reference = read_json(args.reference)
        race, income = _machine_demographics(built.table)
        report["representativeness"] = {}
        for attribute, idx, groups in (("race", race, RACE_GROUPS), ("income", income, INCOME_GROUPS)):
            shares = reference.get(attribute) if isinstance(reference, dict) else None
            if not (isinstance(shares, dict) and all(map(_is_number, shares.values()))):
                raise PipelineError(
                    f"reference {args.reference}: {attribute!r} must map to an object of "
                    "finite shares"
                )
            if not len(idx):
                fit = {"r": None, "p_value": None, "reason": "no machines"}
            else:
                observed = {g: float((idx == i).mean()) for i, g in enumerate(groups)}
                try:
                    r, p = representativeness(observed, shares)
                    fit = {"r": r, "p_value": p}
                except ConstantInputError:
                    fit = {"r": None, "p_value": None, "reason": "constant shares"}
            report["representativeness"][attribute] = fit
    return {
        "machine_weeks.tsv": built.table.save_text(),
        "rejects.json": dump_json(parsed.rejects.to_json_dict()),
        "ingest_report.json": dump_json(report),
    }


def _cmd_synth(args: argparse.Namespace) -> dict[str, str | Iterable[str]]:
    joint = _load_joint(args.target)
    cfg = SynthConfig(
        n_machines=args.machines,
        n_weeks=args.weeks,
        vocab_size=args.vocab,
        min_domains=args.min_domains,
        max_domains=args.max_domains,
        zipf_exponent=args.zipf_exponent,
        top_stratum=args.top_stratum,
        skew=args.skew,
        joint=joint,
        seed=args.seed,
    )
    pop = generate_population(cfg)
    files: dict[str, str | Iterable[str]] = {
        "demographics.json": dump_json(pop.demographics_json())
    }
    # Handed over in blocks, which main writes as they are formatted.
    if args.emit in ("table", "both"):
        files["machine_weeks.tsv"] = pop.table._text_blocks()
    if args.emit in ("sessions", "both"):
        files["sessions.tsv"] = _session_blocks(pop)
    return files


def _cmd_cohorts(args: argparse.Namespace) -> dict[str, str]:
    table = MachineWeekTable.load(args.table)
    weekly = compute_weekly_cohorts(table, args.k, _sim_config(args))
    rows = zip(table.machine_ids.tolist(), table.week_indices.tolist(), weekly.cohort_ids.tolist())
    return {
        "cohort_maps.json": dump_json(
            {str(week): cmap.to_json_dict() for week, cmap in weekly.maps.items()}
        ),
        "assignments.tsv": "machine_id\tweek_index\tcohort_id\n"
        + "".join(f"{m}\t{w}\t{c}\n" for m, w, c in rows),
    }


def _cmd_unicity(args: argparse.Namespace) -> dict[str, str]:
    table = MachineWeekTable.load(args.table)
    seqs = build_sequences(table, args.window)
    cohorts = assign_sequence_cohorts(seqs, args.k, _sim_config(args))
    report = unicity_fractions(seqs, cohorts)
    return _report_files("unicity", report.to_json_dict(), "horizons")


def _cmd_sweep_n(args: argparse.Namespace) -> dict[str, str]:
    grid = _parse_int_list(args.grid)
    table = MachineWeekTable.load(args.table)
    seqs = build_sequences(table, args.window)
    result = sweep_population(seqs, args.k, grid, derive_seed(args.seed, "sweep-n"), _sim_config(args))
    return _report_files("sweep_n", result.to_json_dict(), "points")


def _cmd_sweep_k(args: argparse.Namespace) -> dict[str, str]:
    grid = _parse_int_list(args.grid)
    table = MachineWeekTable.load(args.table)
    seqs = build_sequences(table, args.window)
    result = sweep_k(seqs, grid, _sim_config(args))
    return _report_files("sweep_k", result.to_json_dict(), "points")


def _cmd_t_closeness(args: argparse.Namespace) -> dict[str, str]:
    shuffles = _non_negative(args.shuffles, "--shuffles")
    t_grid = _parse_t_grid(args.t_grid) if args.t_grid else list(DEFAULT_T_GRID)
    table = MachineWeekTable.load(args.table)
    target = _load_joint(args.target, table)
    sim = _sim_config(args)
    panels = stratified_panels(
        table,
        target,
        args.panels,
        derive_seed(args.seed, "panels"),
        bit_length=args.bit_length,
        sim_seed=sim.seed,
    )
    for panel in panels:
        cluster_panel(panel, args.k, args.bit_length)
    shuffled = [
        shuffle_baseline(panel, derive_seed(args.seed, "shuffle", i * len(panels) + panel.panel_id))
        for i in range(shuffles)
        for panel in panels
    ]
    files = {}
    for attribute in _attributes(args.attribute):
        report = t_closeness_curve(panels, t_grid, attribute, shuffled=shuffled or None)
        files.update(_report_files(f"tcloseness_{attribute}", report.to_json_dict(), "points"))
    return files


def _cmd_chisq(args: argparse.Namespace) -> dict[str, str]:
    control_runs = _non_negative(args.control_runs, "--control-runs")
    d_grid = _parse_int_list(args.d_grid)
    table = MachineWeekTable.load(args.table)
    rows = []
    for attribute in _attributes(args.attribute):
        rows.extend(chi_square_by_group(table, attribute, d_grid))
    payload: dict[str, Any] = {"rows": [r.to_json_dict() for r in rows]}
    if control_runs:
        d = max(d_grid)
        pvals = [
            random_subsample_pvalue(
                table, d, args.control_fraction, derive_seed(args.seed, "chisq-control", i)
            )
            for i in range(control_runs)
        ]
        payload["control"] = {
            "D": d,
            "fraction": args.control_fraction,
            "runs": control_runs,
            "p_values": pvals,
            "share_above_0.05": float(np.mean([p > 0.05 for p in pvals])),
        }
    return _report_files("chisq", payload, "rows")


def _cmd_ot_control(args: argparse.Namespace) -> dict[str, str]:
    target = _load_joint(args.target)
    result = ot_scale_control(
        num_cohorts=args.cohorts,
        k=args.k,
        cohort_size_ratio=args.ratio,
        target=target,
        t=args.t,
        seed=args.seed,
    )
    return {"ot_control.json": dump_json(result.to_json_dict())}


def _cmd_report(args: argparse.Namespace) -> dict[str, str]:
    summary: dict[str, Any] = {}
    for run_dir in sorted(args.runs):
        manifest_path = os.path.join(run_dir, "manifest.json")
        if not os.path.exists(manifest_path):
            raise PipelineError(f"{run_dir}: no manifest.json (not a run directory?)")
        manifest = read_json(manifest_path)
        run_name = os.path.basename(os.path.normpath(run_dir))
        if run_name in summary:
            raise PipelineError(f"{run_dir}: another run directory is also named {run_name!r}")
        summary[run_name] = {
            "manifest": manifest,
            "files": sorted(
                name for name in os.listdir(run_dir) if name != "manifest.json"
            ),
        }
    return {"report.json": dump_json(summary)}


# ---------------------------------------------------------------------------
# Parser assembly


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", help="output directory (created if missing)")
    sp.add_argument("--config", help="JSON file supplying flag defaults")


def _add_seed(sp: argparse.ArgumentParser) -> None:
    """The sampling seed, for the subcommands that sample."""
    sp.add_argument("--seed", type=int, default=0, help="root seed for sampling randomness")


def _add_analysis_flags(sp: argparse.ArgumentParser, k: bool = True, window: bool = True) -> None:
    sp.add_argument("--table", help="machine-week TSV from preprocess/synth (required)")
    if k:
        sp.add_argument("--k", type=int, default=30)
    if window:
        sp.add_argument("--window", type=int, default=4)
    sp.add_argument("--bit-length", type=int, default=DEFAULT_BIT_LENGTH)
    sp.add_argument("--hash-seed", type=int, default=DEFAULT_SEED)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="flocpriv",
        description="Cohort-assignment pipeline with unicity and demographic leakage analyses",
    )
    parser.add_argument("--version", action="version", version=f"flocpriv {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    def sub(
        name: str,
        func: Callable[[argparse.Namespace], dict[str, str | Iterable[str]]],
        help_text: str,
    ):
        sp = subs.add_parser(name, help=help_text)
        _add_common(sp)
        sp.set_defaults(func=func)
        registry[name] = sp
        return sp

    sp = sub("preprocess", _cmd_preprocess, "parse sessions into a machine-week table")
    sp.add_argument("--sessions", help="raw session TSV (required)")
    sp.add_argument("--psl", help="public suffix list file (default: bundled snapshot)")
    sp.add_argument(
        "--implicit-star",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="treat unknown TLDs as suffixes instead of rejecting them",
    )
    sp.add_argument("--delimiter", default="\t")
    sp.add_argument("--date-format", default="%Y%m%d")
    sp.add_argument("--epoch", default="2017-01-01")
    sp.add_argument("--weeks", type=int, default=None, help="drop weeks >= this index")
    sp.add_argument("--min-domains", type=int, default=7)
    sp.add_argument("--reference", help="JSON {race: {...}, income: {...}} reference shares")

    sp = sub("synth", _cmd_synth, "generate a synthetic population")
    _add_seed(sp)
    sp.add_argument("--machines", type=int, default=1000)
    sp.add_argument("--weeks", type=int, default=4)
    sp.add_argument("--vocab", type=int, default=20000)
    sp.add_argument("--min-domains", type=int, default=7)
    sp.add_argument("--max-domains", type=int, default=20)
    sp.add_argument("--zipf-exponent", type=float, default=1.0)
    sp.add_argument("--top-stratum", type=int, default=100)
    sp.add_argument("--skew", type=float, default=0.25)
    sp.add_argument("--target", help="joint distribution JSON (default: bundled)")
    sp.add_argument("--emit", choices=("table", "sessions", "both"), default="table")

    _add_analysis_flags(sub("cohorts", _cmd_cohorts, "weekly cohort maps and assignments"), window=False)
    _add_analysis_flags(sub("unicity", _cmd_unicity, "sequence unicity report"))

    sp = sub("sweep-n", _cmd_sweep_n, "unicity vs population size")
    _add_analysis_flags(sp)
    _add_seed(sp)
    sp.add_argument("--grid", help="comma-separated machine counts (required)")

    sp = sub("sweep-k", _cmd_sweep_k, "unicity vs anonymity level")
    _add_analysis_flags(sp, k=False)
    sp.add_argument("--grid", help="comma-separated k values (required)")

    sp = sub("t-closeness", _cmd_t_closeness, "violation curves with baselines")
    _add_analysis_flags(sp, window=False)
    _add_seed(sp)
    sp.add_argument("--panels", type=int, default=10, help="panels per week")
    sp.add_argument("--attribute", choices=("race", "income", "both"), default="both")
    sp.add_argument("--t-grid", help='"start:stop:step" or comma list (default 0:0.5:0.01)')
    sp.add_argument("--shuffles", type=int, default=1, help="shuffled copies per panel")
    sp.add_argument("--target", help='joint JSON, or "empirical" (default: bundled)')

    sp = sub("chisq", _cmd_chisq, "browsing-difference chi-square tests")
    sp.add_argument("--table")
    _add_seed(sp)
    sp.add_argument("--d-grid", default="10,20,30,40,50,60,70,80,90,100")
    sp.add_argument("--attribute", choices=("race", "income", "both"), default="both")
    sp.add_argument("--control-runs", type=int, default=0)
    sp.add_argument("--control-fraction", type=float, default=0.25)

    sp = sub("ot-control", _cmd_ot_control, "deployment-scale streamed control")
    _add_seed(sp)
    sp.add_argument("--cohorts", type=int, default=33872)
    sp.add_argument("--k", type=int, default=2000)
    sp.add_argument("--ratio", type=float, default=1.5)
    sp.add_argument("--t", type=float, default=0.1)
    sp.add_argument("--target", help="joint distribution JSON (default: bundled)")

    sp = sub("report", _cmd_report, "aggregate run manifests")
    sp.add_argument("runs", nargs="*", help="run directories to summarize")

    return parser, registry


#: Flags every subcommand that has them requires. They are checked after
#: parsing, not by argparse, because a config file may supply them.
_REQUIRED = ("out", "sessions", "table", "grid")


def _apply_config_file(path: str, sp: argparse.ArgumentParser) -> None:
    """Make config-file values the parser defaults for the subcommand."""
    values = read_json(path)
    if not isinstance(values, dict):
        sp.error(f"config file must hold a JSON object, not {type(values).__name__}")
    known = {a.dest for a in sp._actions}
    unknown = set(values) - known
    if unknown:
        sp.error(f"unknown config keys: {sorted(unknown)}")
    # set_defaults bypasses argparse's choices check, so do it here.
    invalid = {
        a.dest: values[a.dest]
        for a in sp._actions
        if a.choices is not None and a.dest in values and values[a.dest] not in a.choices
    }
    if invalid:
        sp.error(f"config values not among the flag's choices: {invalid}")
    # argparse converts string defaults only, so check that every other
    # value would convert as the flag's text does (2.5 and true are no int).
    for a in sp._actions:
        if a.type is None or a.dest not in values:
            continue
        value = values[a.dest]
        if value is None and a.default is None:  # the flag's own "unset"
            continue
        try:
            a.type(str(value))
        except ValueError:
            sp.error(f"config value {a.dest}={value!r} is not a valid {a.type.__name__}")
    sp.set_defaults(**values)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        try:
            _apply_config_file(args.config, registry[args.subcommand])
        except (OSError, ValueError) as exc:  # not JSON, or a byte not UTF-8
            print(f"flocpriv: cannot read config file: {exc}", file=sys.stderr)
            return 2
        args = parser.parse_args(argv)  # explicit flags still beat the file
    missing = [f"--{name}" for name in _REQUIRED if name in args and getattr(args, name) is None]
    if missing:
        registry[args.subcommand].print_usage(sys.stderr)
        print(f"flocpriv {args.subcommand}: missing required: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        if "seed" in args:  # every subcommand that samples, flag or config file
            check_seed(args.seed)
        files = args.func(args)
        os.makedirs(args.out, exist_ok=True)
        for name, text in files.items():
            write_text(os.path.join(args.out, name), text)
        write_manifest(
            args.out, args.subcommand, __version__, _config_echo(args), _inputs(args), list(files)
        )
    except (
        PipelineError, CohortError, PanelError, OTWorkerError, ValueError, OSError, MemoryError
    ) as exc:
        # NumPy raises a private MemoryError subclass for a failed allocation
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
