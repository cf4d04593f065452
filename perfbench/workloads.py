"""The three benchmark workloads: inputs, timed steps, output checks.

Each workload builds its inputs with ``flocpriv.synth`` from the seed in
``setup``, runs its timed steps in ``run`` and afterwards checks and
digests what the steps produced. Library functions are looked up on
their modules at call time, so a traced run sees the wrapped versions.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flocpriv import cli, panels, sensitivity, synth, unicity
from flocpriv.hashing import derive_seed
from flocpriv.manifest import dump_json
from flocpriv.simhash import SimHashConfig

WEEKS = 4
HASH = SimHashConfig()

#: Workload sizes. "full" is what the benchmark measures; "tiny" is for
#: the smoke self-test. Full sizes keep one repetition at 1-2.5 s, so that
#: a run holds many repetitions, each normalised to the host's speed while
#: it ran (reference.py), and reports their median.
SCALES = {
    "full": {
        "ingest_machines": 600,
        "ingest_vocab": 60_000,
        "study_machines": 500,
        "sweep_machines": 8000,
        "k": 30,
        "study_k_grid": "10,20,30,50,100",
        "sweep_k_grid": (10, 15, 20, 30, 50, 75, 100, 150, 200, 300, 500),
        "panels": 4,
        "study_shuffles": 5,
        "sweep_shuffles": 20,
        "control_runs": 20,
        "ot_flags": ("--cohorts", "3387"),
    },
    "tiny": {
        "ingest_machines": 150,
        "ingest_vocab": 5000,
        "study_machines": 300,
        "sweep_machines": 600,
        "k": 10,
        "study_k_grid": "5,10,20",
        "sweep_k_grid": (5, 10, 20),
        "panels": 2,
        "study_shuffles": 2,
        "sweep_shuffles": 2,
        "control_runs": 3,
        "ot_flags": ("--cohorts", "50", "--k", "100"),
    },
}


class StepFailed(RuntimeError):
    """A timed call failed; the rest of the repetition is skipped."""


class Ops:
    """Operations attempted and failed: calls into flocpriv and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


class Steps:
    """Times the named steps of one repetition. Each call into flocpriv is
    one operation; CLI steps get a ``cli.<subcommand>`` span when traced."""

    def __init__(self, ops: Ops, tracer=None) -> None:
        self.ops = ops
        self.tracer = tracer
        self.times: dict[str, float] = defaultdict(float)

    def _timed(self, step: str, func, args, kwargs):
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs), None
        except (Exception, SystemExit) as exc:  # counted as a failed operation
            return None, f"{type(exc).__name__}: {exc}"
        finally:
            self.times[step] += time.perf_counter() - t0

    def call(self, step: str, func, *args, **kwargs):
        result, error = self._timed(step, func, args, kwargs)
        if not self.ops.check(error is None, f"{step}: {error}"):
            raise StepFailed(step)
        return result

    def cli(self, step: str, *argv) -> None:
        argv = [str(a) for a in argv]
        span = self.tracer.begin(f"cli.{argv[0]}") if self.tracer else None
        rc, error = self._timed(step, cli.main, (argv,), {})
        if span is not None:
            self.tracer.end(span)
        if not self.ops.check(rc == 0, f"flocpriv {argv[0]}: exit code {rc} {error or ''}"):
            raise StepFailed(step)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table_properties(table) -> dict:
    nnz = len(table.dom_indices)
    distinct = int(np.count_nonzero(np.bincount(table.dom_indices, minlength=len(table.vocab))))
    return {
        "machine_weeks": len(table),
        "nnz": nnz,
        "distinct_domains": distinct,
        "reuse": nnz / distinct,
    }


def week_populations(table) -> dict[int, int]:
    weeks, counts = np.unique(table.week_indices, return_counts=True)
    return {int(w): int(c) for w, c in zip(weeks, counts)}


def check_cohort_maps(path: Path, k: int, week_pop: dict[int, int], ops: Ops) -> None:
    maps = json.loads(path.read_text())
    ops.check(sorted(int(w) for w in maps) == sorted(week_pop), f"{path.name}: weeks")
    for week, cmap in maps.items():
        counts = [e["count"] for e in cmap["entries"]]
        ops.check(min(counts) >= k, f"{path.name}: week {week} has a cohort below k={k}")
        ops.check(
            sum(counts) == week_pop.get(int(week)),
            f"{path.name}: week {week} counts sum to {sum(counts)}, not its population",
        )


def check_unicity(blob: dict, ops: Ops) -> None:
    for column in ("frac_sequence", "frac_fingerprint", "frac_sequence_known"):
        values = [h[column] for h in blob["horizons"]]
        ops.check(all(0.0 <= v <= 1.0 for v in values), f"unicity {column} outside [0, 1]")
        ops.check(
            all(a <= b for a, b in zip(values, values[1:])),
            f"unicity {column} decreases with horizon",
        )


def check_sweep(blob: dict, ops: Ops) -> None:
    ok = all(
        p["n_samples"] > 0 and 0.0 <= p["frac_sequence"] <= 1.0 and 0.0 <= p["frac_fingerprint"] <= 1.0
        for p in blob["points"]
    )
    ops.check(ok and bool(blob["points"]), f"sweep over {blob['param']}: fraction outside [0, 1]")


@dataclass
class Inputs:
    """What ``setup`` hands to the timed steps and to the checks."""

    machine_weeks: int
    week_pop: dict[int, int]
    properties: dict
    path: Path | None = None  # session log or table file
    table: object = None  # in-memory table (library workload)
    ref_digest: str = ""  # synth's machine_weeks.tsv
    malformed: int = 0


# ---------------------------------------------------------------------------
# ingest: CLI preprocess then cohorts on a long-tail session log


def _drop_last_field(f):
    return f[:-1]


def _replace(i, value):
    def mutate(f):
        g = list(f)
        g[i] = value(g[i])
        return g

    return mutate


#: One mutation per parse reject reason; each makes a copy of a real line
#: that ``parse_sessions`` must reject.
MALFORMED = (
    _drop_last_field,  # field_count
    _replace(0, lambda v: "x" + v),  # bad_integer_field
    _replace(5, lambda v: "-1"),  # negative_count
    _replace(2, lambda v: ""),  # empty_domain
    _replace(3, lambda v: v[:6] + "32"),  # bad_date
    _replace(7, lambda v: "99"),  # bad_income_code
    _replace(8, lambda v: "99"),  # bad_race_code
)
HOST_PREFIXES = ("", "www.", "m.", "a.b.")
MALFORMED_RATE = 0.01
#: Domains per machine-week: the synth default's mean, fixed so that every
#: seed gives the same number of session lines and the same hashing blocks.
INGEST_DOMAINS = 14


class Ingest:
    """Synth session log with subdomain hostnames (same registrable domain)
    and about 1% malformed copies of real lines, which parsing must reject."""

    name = "ingest"

    def __init__(self, scale: dict) -> None:
        self.scale = scale

    def setup(self, seed: int, work: Path) -> Inputs:
        cfg = synth.SynthConfig(
            n_machines=self.scale["ingest_machines"],
            n_weeks=WEEKS,
            vocab_size=self.scale["ingest_vocab"],
            min_domains=INGEST_DOMAINS,
            max_domains=INGEST_DOMAINS,
            zipf_exponent=0.5,
            seed=seed,
        )
        pop = synth.generate_population(cfg)
        buf = io.StringIO()
        synth.write_sessions(pop, buf)
        lines = buf.getvalue().splitlines()
        rng = np.random.default_rng(derive_seed(seed, "perfbench-ingest"))
        prefix = rng.integers(0, len(HOST_PREFIXES), size=len(lines))
        bad = rng.random(len(lines)) < MALFORMED_RATE
        kind = rng.integers(0, len(MALFORMED), size=len(lines))
        out = [lines[0]]
        hosts = set()
        for i in range(1, len(lines)):
            fields = lines[i].split("\t")
            fields[2] = HOST_PREFIXES[prefix[i]] + fields[2]
            hosts.add(fields[2])
            out.append("\t".join(fields))
            if bad[i]:
                out.append("\t".join(MALFORMED[kind[i]](fields)))
        path = work / "sessions.tsv"
        path.write_text("\n".join(out) + "\n", encoding="utf-8")
        malformed = int(bad[1:].sum())
        props = table_properties(pop.table)
        props.update(
            session_lines=len(out) - 1, malformed_lines=malformed, distinct_hostnames=len(hosts)
        )
        return Inputs(
            machine_weeks=len(pop.table),
            week_pop=week_populations(pop.table),
            properties=props,
            path=path,
            ref_digest=sha256_text(pop.table.save_text()),
            malformed=malformed,
        )

    def run(self, inputs: Inputs, out: Path, steps: Steps) -> None:
        steps.cli("preprocess", "preprocess", "--sessions", inputs.path, "--out", out / "preprocess")
        steps.cli(
            "cohorts",
            "cohorts",
            "--table",
            out / "preprocess" / "machine_weeks.tsv",
            "--out",
            out / "cohorts",
            "--k",
            self.scale["k"],
        )

    def check(self, inputs: Inputs, out: Path, result, ops: Ops) -> None:
        ops.check(
            sha256_file(out / "preprocess" / "machine_weeks.tsv") == inputs.ref_digest,
            "ingest round trip differs from synth's machine_weeks.tsv",
        )
        rejects = json.loads((out / "preprocess" / "rejects.json").read_text())
        ops.check(
            rejects["total"] == inputs.malformed,
            f"rejects.json counts {rejects['total']}, {inputs.malformed} were injected",
        )
        check_cohort_maps(out / "cohorts" / "cohort_maps.json", self.scale["k"], inputs.week_pop, ops)

    def digests(self, inputs: Inputs, out: Path, result) -> dict[str, str]:
        return {
            "machine_weeks.tsv": sha256_file(out / "preprocess" / "machine_weeks.tsv"),
            "cohort_maps.json": sha256_file(out / "cohorts" / "cohort_maps.json"),
            "assignments.tsv": sha256_file(out / "cohorts" / "assignments.tsv"),
        }


# ---------------------------------------------------------------------------
# study: the CLI product workflow on a default synth table


class Study:
    """The CLI subcommands in order, in-process, each reloading the table."""

    name = "study"
    steps = ("cohorts", "unicity", "sweep_k", "sweep_n", "t_closeness", "chisq", "ot_control", "report")

    def __init__(self, scale: dict) -> None:
        self.scale = scale

    def setup(self, seed: int, work: Path) -> Inputs:
        cfg = synth.SynthConfig(n_machines=self.scale["study_machines"], n_weeks=WEEKS, seed=seed)
        pop = synth.generate_population(cfg)
        path = work / "machine_weeks.tsv"
        pop.table.save(str(path))
        return Inputs(
            machine_weeks=len(pop.table),
            week_pop=week_populations(pop.table),
            properties=table_properties(pop.table),
            path=path,
        )

    def run(self, inputs: Inputs, out: Path, steps: Steps) -> None:
        s = self.scale
        table = ("--table", inputs.path)
        k = ("--k", s["k"])
        n = s["study_machines"]
        n_grid = ",".join(str(n * i // 5) for i in range(1, 6))
        steps.cli("cohorts", "cohorts", *table, *k, "--out", out / "cohorts")
        steps.cli("unicity", "unicity", *table, *k, "--out", out / "unicity")
        steps.cli("sweep_k", "sweep-k", *table, "--grid", s["study_k_grid"], "--out", out / "sweep_k")
        steps.cli("sweep_n", "sweep-n", *table, *k, "--grid", n_grid, "--out", out / "sweep_n")
        steps.cli(
            "t_closeness",
            "t-closeness",
            *table,
            *k,
            "--target",
            "empirical",
            "--panels",
            s["panels"],
            "--shuffles",
            s["study_shuffles"],
            "--out",
            out / "t_closeness",
        )
        steps.cli(
            "chisq", "chisq", *table, "--control-runs", s["control_runs"], "--out", out / "chisq"
        )
        steps.cli("ot_control", "ot-control", *s["ot_flags"], "--out", out / "ot_control")
        runs = [out / name for name in self.steps[:-1]]
        steps.cli("report", "report", *runs, "--out", out / "report")

    def check(self, inputs: Inputs, out: Path, result, ops: Ops) -> None:
        check_cohort_maps(out / "cohorts" / "cohort_maps.json", self.scale["k"], inputs.week_pop, ops)
        check_unicity(json.loads((out / "unicity" / "unicity.json").read_text()), ops)
        for name in ("sweep_k", "sweep_n"):
            check_sweep(json.loads((out / name / f"{name}.json").read_text()), ops)

    def digests(self, inputs: Inputs, out: Path, result) -> dict[str, str]:
        files = {
            "machine_weeks.tsv": inputs.path,
            "cohort_maps.json": out / "cohorts" / "cohort_maps.json",
            "assignments.tsv": out / "cohorts" / "assignments.tsv",
            "unicity.json": out / "unicity" / "unicity.json",
            "sweep_k.json": out / "sweep_k" / "sweep_k.json",
            "sweep_n.json": out / "sweep_n" / "sweep_n.json",
        }
        return {name: sha256_file(path) for name, path in files.items()}


# ---------------------------------------------------------------------------
# sweep: the library workflow on a hashed in-memory table


class Sweep:
    """Library sweeps, panels, shuffles and curves on a table whose hashes
    set-up already computed, as a notebook user would run them."""

    name = "sweep"

    def __init__(self, scale: dict) -> None:
        self.scale = scale

    def setup(self, seed: int, work: Path) -> Inputs:
        cfg = synth.SynthConfig(
            n_machines=self.scale["sweep_machines"],
            n_weeks=WEEKS,
            min_domains=7,
            max_domains=7,
            seed=seed,
        )
        pop = synth.generate_population(cfg)
        pop.table.hashes(HASH.bit_length, HASH.seed)
        return Inputs(
            machine_weeks=len(pop.table),
            week_pop=week_populations(pop.table),
            properties=table_properties(pop.table),
            table=pop.table,
        )

    def run(self, inputs: Inputs, out: Path, steps: Steps) -> dict:
        """Returns the drawn panels and the result payloads."""
        s = self.scale
        k = s["k"]
        n = s["sweep_machines"]
        seqs = steps.call("sweep_k", unicity.build_sequences, inputs.table, WEEKS)
        by_k = steps.call("sweep_k", unicity.sweep_k, seqs, s["sweep_k_grid"], HASH)
        n_grid = [n * i // 5 for i in range(1, 6)]
        by_n = steps.call(
            "sweep_n", unicity.sweep_population, seqs, k, n_grid, derive_seed(0, "sweep-n"), HASH
        )
        drawn = steps.call(
            "t_closeness",
            panels.stratified_panels,
            inputs.table,
            panels.JointDistribution.default(),
            s["panels"],
            derive_seed(0, "panels"),
            bit_length=HASH.bit_length,
            sim_seed=HASH.seed,
        )
        for panel in drawn:
            steps.call("t_closeness", panels.cluster_panel, panel, k, HASH.bit_length)
        shuffled = [
            steps.call(
                "t_closeness",
                sensitivity.shuffle_baseline,
                panel,
                derive_seed(0, "shuffle", i * len(drawn) + panel.panel_id),
            )
            for i in range(s["sweep_shuffles"])
            for panel in drawn
        ]
        curves = {
            attribute: steps.call(
                "t_closeness",
                sensitivity.t_closeness_curve,
                drawn,
                sensitivity.DEFAULT_T_GRID,
                attribute,
                shuffled=shuffled,
            )
            for attribute in sensitivity.ATTRIBUTES
        }
        payloads = {"sweep_k.json": by_k.to_json_dict(), "sweep_n.json": by_n.to_json_dict()}
        for attribute, report in curves.items():
            payloads[f"tcloseness_{attribute}.json"] = report.to_json_dict()
        return {"panels": drawn, "payloads": payloads}

    def check(self, inputs: Inputs, out: Path, result, ops: Ops) -> None:
        payloads = result["payloads"]
        check_sweep(payloads["sweep_k.json"], ops)
        check_sweep(payloads["sweep_n.json"], ops)
        k = self.scale["k"]
        for panel in result["panels"]:
            counts = [b.count for b in panel.cohort_map]
            ops.check(
                min(counts) >= k and sum(counts) == panel.size,
                f"panel {panel.panel_id}: cohorts below k or not covering the panel",
            )
        for attribute in sensitivity.ATTRIBUTES:
            means = [p["mean"] for p in payloads[f"tcloseness_{attribute}.json"]["points"]]
            ops.check(all(0.0 <= m <= 1.0 for m in means), f"t-closeness {attribute} outside [0, 1]")

    def digests(self, inputs: Inputs, out: Path, result) -> dict[str, str]:
        return {name: sha256_text(dump_json(blob)) for name, blob in result["payloads"].items()}


WORKLOADS = {w.name: w for w in (Ingest, Study, Sweep)}
STEP_NAMES = ("preprocess", "cohorts", "unicity", "sweep_k", "sweep_n", "t_closeness", "chisq", "ot_control", "report")
