"""Batch command-line interface.

Wires ingestion/synthesis through cohort computation into the unicity
and demographic-leakage reports. Every subcommand writes its outputs
plus a ``manifest.json`` echoing the resolved configuration; identical
manifests produce byte-identical outputs. A JSON config file may supply
any flag (keys = flag dest names); explicit flags override the file.

Exit codes: 0 success, 1 pipeline failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import sys
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .cohorts import compute_weekly_cohorts
from .hashing import derive_seed
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
from .manifest import write_json, write_manifest, write_text
from .panels import JointDistribution, PanelError, cluster_panel, stratified_panels
from .prefixlsh import CohortError
from .psl import SuffixSet
from .sensitivity import (
    ATTRIBUTES,
    DEFAULT_T_GRID,
    chi_square_by_group,
    chi_square_csv,
    ot_scale_control,
    random_subsample_pvalue,
    shuffle_baseline,
    t_closeness_curve,
)
from .simhash import DEFAULT_BIT_LENGTH, DEFAULT_SEED, SimHashConfig
from .synth import SynthConfig, generate_population, write_sessions
from .unicity import assign_sequence_cohorts, build_sequences, sweep_k, sweep_population, unicity_fractions


class PipelineError(RuntimeError):
    pass


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise PipelineError(f"bad integer list {text!r}") from exc


def _parse_t_grid(text: str) -> list[float]:
    """Either "start:stop:step" (inclusive, rounded to 10 places) or a
    comma-separated list."""
    if ":" in text:
        try:
            start_s, stop_s, step_s = text.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
        except ValueError as exc:
            raise PipelineError(f"bad t-grid {text!r}") from exc
        if step <= 0:
            raise PipelineError("t-grid step must be positive")
        n = int(round((stop - start) / step))
        return [round(start + i * step, 10) for i in range(n + 1)]
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise PipelineError(f"bad t-grid {text!r}") from exc


def _load_joint(path: str | None, table: MachineWeekTable | None = None) -> JointDistribution:
    if path is None:
        return JointDistribution.default()
    if path == "empirical":
        if table is None:
            raise PipelineError("empirical target needs a table")
        ids, first = np.unique(table.machine_ids, return_index=True)
        del ids
        cells = (
            table.race_idx[first].astype(np.int64) * len(INCOME_GROUPS)
            + table.income_idx[first]
        )
        counts = np.bincount(cells, minlength=len(RACE_GROUPS) * len(INCOME_GROUPS))
        probs = counts / counts.sum()
        grid = probs.reshape(len(RACE_GROUPS), len(INCOME_GROUPS))
        return JointDistribution(tuple(tuple(float(p) for p in row) for row in grid))
    with open(path, encoding="utf-8") as fh:
        return JointDistribution.from_json_dict(json.load(fh))


def _attributes(selection: str) -> tuple[str, ...]:
    if selection == "both":
        return ATTRIBUTES
    if selection in ATTRIBUTES:
        return (selection,)
    raise PipelineError(f"attribute must be race, income or both, got {selection!r}")


def _config_echo(args: argparse.Namespace) -> dict[str, Any]:
    # "out" is where the run lands, not a semantic parameter: excluding it
    # keeps reruns into different directories byte-identical.
    skip = {"func", "config", "out"}
    return {k: v for k, v in vars(args).items() if k not in skip and not callable(v)}


def _ensure_out(args: argparse.Namespace) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _sim_config(args: argparse.Namespace) -> SimHashConfig:
    # The hash seed is a protocol parameter (all cooperating runs must
    # share it), so it is independent of --seed, which only drives
    # sampling randomness within one run.
    return SimHashConfig(bit_length=args.bit_length, seed=args.hash_seed)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_preprocess(args: argparse.Namespace) -> None:
    out = _ensure_out(args)
    fmt = FormatConfig(delimiter=args.delimiter, date_format=args.date_format)
    suffixes = SuffixSet.from_file(args.psl) if args.psl else None
    try:
        with open(args.sessions, encoding="utf-8") as fh:
            parsed = parse_sessions(fh, fmt)
    except SchemaError as exc:
        raise PipelineError(str(exc)) from exc
    week_cfg = WeekConfig(
        epoch=dt.date.fromisoformat(args.epoch),
        n_weeks=args.weeks,
        min_domains=args.min_domains,
    )
    built = build_machine_weeks(
        parsed.records, week_cfg, suffixes, implicit_star=args.implicit_star
    )
    built.table.save(os.path.join(out, "machine_weeks.tsv"))
    write_json(os.path.join(out, "rejects.json"), parsed.rejects.to_json_dict())
    report = dict(built.report)
    if args.reference:
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh)
        ids, first = np.unique(built.table.machine_ids, return_index=True)
        del ids
        obs_race = {
            g: float((built.table.race_idx[first] == i).mean())
            for i, g in enumerate(RACE_GROUPS)
        }
        obs_income = {
            g: float((built.table.income_idx[first] == i).mean())
            for i, g in enumerate(INCOME_GROUPS)
        }
        report["representativeness"] = {
            "race": dict(
                zip(("r", "p_value"), representativeness(obs_race, reference["race"]))
            ),
            "income": dict(
                zip(("r", "p_value"), representativeness(obs_income, reference["income"]))
            ),
        }
    write_json(os.path.join(out, "ingest_report.json"), report)
    inputs = {"sessions": args.sessions}
    if args.psl:
        inputs["psl"] = args.psl
    if args.reference:
        inputs["reference"] = args.reference
    write_manifest(
        out,
        "preprocess",
        __version__,
        _config_echo(args),
        inputs,
        ["machine_weeks.tsv", "rejects.json", "ingest_report.json"],
    )


def _cmd_synth(args: argparse.Namespace) -> None:
    out = _ensure_out(args)
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
    outputs = ["demographics.json"]
    if args.emit in ("table", "both"):
        pop.table.save(os.path.join(out, "machine_weeks.tsv"))
        outputs.append("machine_weeks.tsv")
    if args.emit in ("sessions", "both"):
        with open(os.path.join(out, "sessions.tsv"), "w", encoding="utf-8", newline="\n") as fh:
            write_sessions(pop, fh)
        outputs.append("sessions.tsv")
    write_json(os.path.join(out, "demographics.json"), pop.demographics_json())
    inputs = {} if args.target in (None, "empirical") else {"target": args.target}
    write_manifest(out, "synth", __version__, _config_echo(args), inputs, outputs)


def _cmd_cohorts(args: argparse.Namespace) -> None:
    out = _ensure_out(args)
    table = MachineWeekTable.load(args.table)
    weekly = compute_weekly_cohorts(table, args.k, _sim_config(args))
    write_json(
        os.path.join(out, "cohort_maps.json"),
        {str(week): cmap.to_json_dict() for week, cmap in sorted(weekly.maps.items())},
    )
    lines = ["machine_id\tweek_index\tcohort_id"]
    for i in range(len(table)):
        lines.append(
            f"{table.machine_ids[i]}\t{table.week_indices[i]}\t{weekly.cohort_ids[i]}"
        )
    write_text(os.path.join(out, "assignments.tsv"), "\n".join(lines) + "\n")
    write_manifest(
        out,
        "cohorts",
        __version__,
        _config_echo(args),
        {"table": args.table},
        ["cohort_maps.json", "assignments.tsv"],
    )


def _cmd_unicity(args: argparse.Namespace) -> None:
    out = _ensure_out(args)
    table = MachineWeekTable.load(args.table)
    seqs = build_sequences(table, args.window)
    cohorts = assign_sequence_cohorts(seqs, args.k, _sim_config(args))
    report = unicity_fractions(seqs, cohorts)
    write_json(os.path.join(out, "unicity.json"), report.to_json_dict())
    write_text(os.path.join(out, "unicity.csv"), report.to_csv_text())
    write_manifest(
        out,
        "unicity",
        __version__,
        _config_echo(args),
        {"table": args.table},
        ["unicity.json", "unicity.csv"],
    )


def _cmd_sweep_n(args: argparse.Namespace) -> None:
    out = _ensure_out(args)
    table = MachineWeekTable.load(args.table)
    seqs = build_sequences(table, args.window)
    result = sweep_population(
        seqs, args.k, _parse_int_list(args.grid), derive_seed(args.seed, "sweep-n"), _sim_config(args)
    )
    write_json(os.path.join(out, "sweep_n.json"), result.to_json_dict())
    write_text(os.path.join(out, "sweep_n.csv"), result.to_csv_text())
    write_manifest(
        out,
        "sweep-n",
        __version__,
        _config_echo(args),
        {"table": args.table},
        ["sweep_n.json", "sweep_n.csv"],
    )


def _cmd_sweep_k(args: argparse.Namespace) -> None:
    out = _ensure_out(args)
    table = MachineWeekTable.load(args.table)
    seqs = build_sequences(table, args.window)
    result = sweep_k(seqs, _parse_int_list(args.grid), _sim_config(args))
    write_json(os.path.join(out, "sweep_k.json"), result.to_json_dict())
    write_text(os.path.join(out, "sweep_k.csv"), result.to_csv_text())
    write_manifest(
        out,
        "sweep-k",
        __version__,
        _config_echo(args),
        {"table": args.table},
        ["sweep_k.json", "sweep_k.csv"],
    )


def _cmd_t_closeness(args: argparse.Namespace) -> None:
    out = _ensure_out(args)
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
        for i in range(args.shuffles)
        for panel in panels
    ]
    t_grid = _parse_t_grid(args.t_grid) if args.t_grid else list(DEFAULT_T_GRID)
    outputs = []
    for attribute in _attributes(args.attribute):
        report = t_closeness_curve(panels, t_grid, attribute, shuffled=shuffled or None)
        write_json(os.path.join(out, f"tcloseness_{attribute}.json"), report.to_json_dict())
        write_text(os.path.join(out, f"tcloseness_{attribute}.csv"), report.to_csv_text())
        outputs += [f"tcloseness_{attribute}.json", f"tcloseness_{attribute}.csv"]
    inputs = {"table": args.table}
    if args.target not in (None, "empirical"):
        inputs["target"] = args.target
    write_manifest(out, "t-closeness", __version__, _config_echo(args), inputs, outputs)


def _cmd_chisq(args: argparse.Namespace) -> None:
    out = _ensure_out(args)
    table = MachineWeekTable.load(args.table)
    d_grid = _parse_int_list(args.d_grid)
    rows = []
    for attribute in _attributes(args.attribute):
        rows.extend(chi_square_by_group(table, attribute, d_grid))
    write_text(os.path.join(out, "chisq.csv"), chi_square_csv(rows))
    payload: dict[str, Any] = {
        "rows": [
            {
                "attribute": r.attribute,
                "group": r.group,
                "D": r.d,
                "statistic": r.statistic,
                "p_value": r.p_value,
            }
            for r in rows
        ]
    }
    if args.control_runs:
        d = max(d_grid)
        pvals = [
            random_subsample_pvalue(
                table, d, args.control_fraction, derive_seed(args.seed, "chisq-control", i)
            )
            for i in range(args.control_runs)
        ]
        payload["control"] = {
            "D": d,
            "fraction": args.control_fraction,
            "runs": args.control_runs,
            "p_values": pvals,
            "share_above_0.05": float(np.mean([p > 0.05 for p in pvals])),
        }
    write_json(os.path.join(out, "chisq.json"), payload)
    write_manifest(
        out,
        "chisq",
        __version__,
        _config_echo(args),
        {"table": args.table},
        ["chisq.csv", "chisq.json"],
    )


def _cmd_ot_control(args: argparse.Namespace) -> None:
    out = _ensure_out(args)
    target = _load_joint(args.target)
    result = ot_scale_control(
        num_cohorts=args.cohorts,
        k=args.k,
        cohort_size_ratio=args.ratio,
        target=target,
        t=args.t,
        seed=args.seed,
        chunk_size=args.chunk_size,
    )
    write_json(os.path.join(out, "ot_control.json"), result.to_json_dict())
    inputs = {} if args.target in (None, "empirical") else {"target": args.target}
    write_manifest(
        out, "ot-control", __version__, _config_echo(args), inputs, ["ot_control.json"]
    )


def _cmd_report(args: argparse.Namespace) -> None:
    out = _ensure_out(args)
    summary: dict[str, Any] = {}
    for run_dir in sorted(args.runs):
        manifest_path = os.path.join(run_dir, "manifest.json")
        if not os.path.exists(manifest_path):
            raise PipelineError(f"{run_dir}: no manifest.json (not a run directory?)")
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        run_name = os.path.basename(os.path.normpath(run_dir))
        if run_name in summary:
            raise PipelineError(f"{run_dir}: another run directory is also named {run_name!r}")
        summary[run_name] = {
            "manifest": manifest,
            "files": sorted(
                name for name in os.listdir(run_dir) if name != "manifest.json"
            ),
        }
    write_json(os.path.join(out, "report.json"), summary)
    write_manifest(out, "report", __version__, _config_echo(args), {}, ["report.json"])


# ---------------------------------------------------------------------------
# Parser assembly


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", help="output directory (created if missing)")
    sp.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
    sp.add_argument("--config", help="JSON file supplying flag defaults")


def _add_hash_flags(sp: argparse.ArgumentParser) -> None:
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

    def sub(name: str, func: Callable[[argparse.Namespace], None], help_text: str):
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

    sp = sub("cohorts", _cmd_cohorts, "weekly cohort maps and assignments")
    sp.add_argument("--table", help="machine-week TSV from preprocess/synth (required)")
    sp.add_argument("--k", type=int, default=30)
    _add_hash_flags(sp)

    sp = sub("unicity", _cmd_unicity, "sequence unicity report")
    sp.add_argument("--table")
    sp.add_argument("--k", type=int, default=30)
    sp.add_argument("--window", type=int, default=4)
    _add_hash_flags(sp)

    sp = sub("sweep-n", _cmd_sweep_n, "unicity vs population size")
    sp.add_argument("--table")
    sp.add_argument("--k", type=int, default=30)
    sp.add_argument("--window", type=int, default=4)
    sp.add_argument("--grid", help="comma-separated machine counts (required)")
    _add_hash_flags(sp)

    sp = sub("sweep-k", _cmd_sweep_k, "unicity vs anonymity level")
    sp.add_argument("--table")
    sp.add_argument("--window", type=int, default=4)
    sp.add_argument("--grid", help="comma-separated k values (required)")
    _add_hash_flags(sp)

    sp = sub("t-closeness", _cmd_t_closeness, "violation curves with baselines")
    sp.add_argument("--table")
    sp.add_argument("--k", type=int, default=30)
    sp.add_argument("--panels", type=int, default=10, help="panels per week")
    sp.add_argument("--attribute", choices=("race", "income", "both"), default="both")
    sp.add_argument("--t-grid", help='"start:stop:step" or comma list (default 0:0.5:0.01)')
    sp.add_argument("--shuffles", type=int, default=1, help="shuffled copies per panel")
    sp.add_argument("--target", help='joint JSON, or "empirical" (default: bundled)')
    _add_hash_flags(sp)

    sp = sub("chisq", _cmd_chisq, "browsing-difference chi-square tests")
    sp.add_argument("--table")
    sp.add_argument("--d-grid", default="10,20,30,40,50,60,70,80,90,100")
    sp.add_argument("--attribute", choices=("race", "income", "both"), default="both")
    sp.add_argument("--control-runs", type=int, default=0)
    sp.add_argument("--control-fraction", type=float, default=0.25)

    sp = sub("ot-control", _cmd_ot_control, "deployment-scale streamed control")
    sp.add_argument("--cohorts", type=int, default=33872)
    sp.add_argument("--k", type=int, default=2000)
    sp.add_argument("--ratio", type=float, default=1.5)
    sp.add_argument("--t", type=float, default=0.1)
    sp.add_argument("--target", help="joint distribution JSON (default: bundled)")
    sp.add_argument("--chunk-size", type=int, default=4_000_000)

    sp = sub("report", _cmd_report, "aggregate run manifests")
    sp.add_argument("runs", nargs="*", help="run directories to summarize")

    return parser, registry


_REQUIRED: dict[str, tuple[str, ...]] = {
    "preprocess": ("out", "sessions"),
    "synth": ("out",),
    "cohorts": ("out", "table"),
    "unicity": ("out", "table"),
    "sweep-n": ("out", "table", "grid"),
    "sweep-k": ("out", "table", "grid"),
    "t-closeness": ("out", "table"),
    "chisq": ("out", "table"),
    "ot-control": ("out",),
    "report": ("out",),
}


def _apply_config_file(argv: Sequence[str], registry: dict[str, argparse.ArgumentParser]) -> None:
    """Make config-file values the parser defaults for the subcommand."""
    if not argv:
        return
    name = argv[0]
    if name not in registry:
        return
    config_path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif token.startswith("--config="):
            config_path = token.split("=", 1)[1]
    if config_path is None:
        return
    with open(config_path, encoding="utf-8") as fh:
        values = json.load(fh)
    sp = registry[name]
    known = {a.dest for a in sp._actions}
    unknown = set(values) - known
    if unknown:
        sp.error(f"unknown config keys: {sorted(unknown)}")
    sp.set_defaults(**values)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        _apply_config_file(argv, registry)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"flocpriv: cannot read config file: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    missing = [
        f"--{name.replace('_', '-')}"
        for name in _REQUIRED[args.subcommand]
        if getattr(args, name, None) in (None, [])
    ]
    if missing:
        registry[args.subcommand].print_usage(sys.stderr)
        print(f"flocpriv {args.subcommand}: missing required: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        args.func(args)
    except (PipelineError, CohortError, PanelError, ValueError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
