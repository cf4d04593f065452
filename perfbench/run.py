"""flocpriv benchmark: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see workloads.py):

* ``ingest``: CLI ``preprocess`` then ``cohorts`` on a long-tail session
  log with subdomain hostnames and injected malformed lines.
* ``study``: the CLI product workflow (cohorts, unicity, sweep-k, sweep-n,
  t-closeness, chisq, ot-control, report) run in-process on a synth table.
* ``sweep``: the library sweeps, panels, shuffles and t-closeness curves
  on a table whose hashes set-up already computed.

A run imports flocpriv from ``src/`` of the checkout and sets the inputs
up several times. It then repeats the timed region until ``--seconds``
have passed, and at least three times; the first repetition is a
warm-up. The fixed reference computation of reference.py runs after the
import, after each set-up and after each repetition, and every set-up
and repetition is normalised to the host's speed while it ran:
``wall_norm_s`` is the median normalised wall time of the timed region,
``mw_per_norm_s`` the machine-weeks per normalised second and ``setup_s``
the normalised import time plus the median normalised set-up. The raw
times are kept in the results file. Every call into flocpriv and every
output check is an operation; ``failed`` counts those that failed. With
``--trace 1`` a further set-up and repetition run with spans around
flocpriv's public calls (spans.py) and the per-layer metrics come from
them. Results, the environment, the input properties and the spans are
written to ``.perfbench/results/``. The last line of standard output is
the JSON result. ``python3 perfbench/smoke.py`` is the self-test.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUPS = 3
MIN_REPS = 3  # a warm-up and at least two timed repetitions
DEFAULT_SEED = 0


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("ingest", "study", "sweep", "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def _import_flocpriv():
    """Import flocpriv from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "flocpriv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no flocpriv sources under {src}")
    sys.path.insert(0, str(src))
    import flocpriv

    if Path(flocpriv.__file__).resolve().parent != (src / "flocpriv").resolve():
        raise SystemExit(f"perfbench: imported flocpriv from {flocpriv.__file__}, not {src}")
    import workloads  # imports the flocpriv modules it drives

    return workloads


@dataclass
class Rep:
    """One repetition: whether every call succeeded, its wall time, the
    time of each step, the output digests and, when traced, its root span."""

    ok: bool
    wall: float
    times: dict[str, float]
    digests: dict[str, str]
    root: int | None = None


def fresh_state() -> None:
    """Empty flocpriv's memoised lookups and collect the previous garbage,
    as a CLI user's fresh process would start each set-up or workflow."""
    from flocpriv import hashing, psl

    hashing.domain_hash64.cache_clear()
    psl.default_suffixes.cache_clear()
    gc.collect()


def run_rep(wl, inputs, out: Path, ops, tracer=None) -> Rep:
    """One repetition of the timed region, then its checks and digests."""
    import workloads

    fresh_state()
    out.mkdir(parents=True)
    steps = workloads.Steps(ops, tracer)
    root = tracer.begin("bench.region") if tracer else None
    t0 = time.perf_counter()
    try:
        result = wl.run(inputs, out, steps)
        ok = True
    except workloads.StepFailed:
        ok = False
    wall = time.perf_counter() - t0
    if tracer:
        tracer.end(root)
    digests = {}
    if ok:
        try:
            wl.check(inputs, out, result, ops)
            digests = wl.digests(inputs, out, result)
        except (OSError, KeyError, TypeError, ValueError) as exc:  # malformed outputs
            ops.check(False, f"{wl.name} outputs: {type(exc).__name__}: {exc}")
    return Rep(ok, wall, dict(steps.times), digests, root)


def check_worked_example(ops) -> None:
    """The bundled 6-device example must give its pinned fractions."""
    import io

    from flocpriv import fixtures, ingest, unicity

    try:
        parsed = ingest.parse_sessions(io.StringIO(fixtures.bundled_table1_sessions()))
        table = ingest.build_machine_weeks(parsed.records).table
        seqs = unicity.build_sequences(table, 3)
        rows = unicity.unicity_fractions(seqs, unicity.assign_sequence_cohorts(seqs, 3)).rows
    except Exception as exc:  # a broken pipeline is a failed check
        ops.check(False, f"worked example: {type(exc).__name__}: {exc}")
        return
    ops.check(
        tuple(r.frac_sequence for r in rows) == fixtures.EXPECTED_SEQUENCE_FRACTIONS,
        "worked example: sequence fractions",
    )
    ops.check(
        tuple(r.frac_fingerprint for r in rows) == fixtures.EXPECTED_FINGERPRINT_FRACTIONS,
        "worked example: fingerprint fractions",
    )


def check_digests(name, got, want, ops) -> None:
    for file, digest in sorted(want.items()):
        ops.check(got.get(file) == digest, f"{name}: {file} digest differs")


def environment() -> dict:
    import numpy as np

    from flocpriv import kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": kernels.KERNEL_NAME,
        "FLOCPRIV_PURE_PYTHON": "FLOCPRIV_PURE_PYTHON" in os.environ,
    }


def run_workload(args) -> int:
    t0 = time.perf_counter()
    workloads = _import_flocpriv()
    import_s = time.perf_counter() - t0
    from reference import Reference, speed_scale
    from spans import Tracer, instrument, layer_metrics

    wl = workloads.WORKLOADS[args.workload](workloads.SCALES[args.scale])
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reference = Reference()
        setup_ref_s = [reference.time()]
        setups = []
        for _ in range(SETUPS):
            fresh_state()
            t = time.perf_counter()
            inputs = wl.setup(args.seed, work)
            setups.append(time.perf_counter() - t)
            setup_ref_s.append(reference.time())
        # The import ran just before reference run 0, set-up i between
        # reference runs i and i + 1.
        setup_s = import_s * speed_scale(setup_ref_s[0]) + statistics.median(
            t * speed_scale(setup_ref_s[i], setup_ref_s[i + 1]) for i, t in enumerate(setups)
        )

        ops = workloads.Ops()
        reps: list[Rep] = []
        ref_s = [setup_ref_s[-1]]
        start = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - start < args.seconds:
            reps.append(run_rep(wl, inputs, work / f"rep{len(reps)}", ops))
            shutil.rmtree(work / f"rep{len(reps) - 1}")
            ref_s.append(reference.time())
            if len(reps) == 1:
                # Later repetitions only add allocator fragmentation.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_worked_example(ops)
        for i, rep in enumerate(reps[1:], 1):
            check_digests(f"rerun {i}", rep.digests, reps[0].digests, ops)
        pinned = json.loads((HERE / "pinned.json").read_text())
        if args.scale == "full" and args.seed == pinned["seed"]:
            check_digests("pinned", reps[0].digests, pinned["digests"][wl.name], ops)

        # Repetition i ran between reference runs i and i + 1; the first
        # repetition is the warm-up.
        scale = [speed_scale(ref_s[i], ref_s[i + 1]) for i in range(len(reps))]
        timed = [i for i in range(1, len(reps)) if reps[i].ok] or range(len(reps))
        wall_norm_s = statistics.median(reps[i].wall * scale[i] for i in timed)
        step_s = {
            s: statistics.median(reps[i].times.get(s, 0.0) * scale[i] for i in timed)
            for s in workloads.STEP_NAMES
        }
        record = {
            "workload": wl.name,
            "seed": args.seed,
            "scale": args.scale,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(),
            "inputs": inputs.properties,
            "import_s": import_s,
            "setups_s": setups,
            "setup_reference_s": setup_ref_s,
            "reference_s": ref_s,
            "reps": [
                {"ok": r.ok, "wall_s": r.wall, "scale": f, "steps_s": r.times}
                for r, f in zip(reps, scale)
            ],
            "digests": reps[0].digests,
        }
        if args.trace:
            tracer = Tracer()
            fresh_state()
            with instrument(tracer):
                traced_inputs = wl.setup(args.seed, work)
                before = reference.time()
                traced = run_rep(wl, traced_inputs, work / "traced", ops, tracer)
                traced_scale = speed_scale(before, reference.time())
            check_digests("traced run", traced.digests, reps[0].digests, ops)
            metrics = layer_metrics(tracer, traced.root)
            metrics.update({f"step.{s}_s": (v, "s") for s, v in step_s.items()})
            metrics["bench.wall_s"] = (statistics.median(reps[i].wall for i in timed), "s")
            metrics["bench.reference_s"] = (statistics.median(ref_s), "s")
            metrics["tracing.wall_s"] = (traced.wall, "s")
            metrics["tracing.overhead_s"] = (traced.wall * traced_scale - wall_norm_s, "s")
            spans_path = results_dir / f"{wl.name}-{args.scale}-seed{args.seed}.spans.json"
            spans_path.write_text(json.dumps(tracer.to_json_dict()))
        else:
            metrics = {
                "wall_norm_s": (wall_norm_s, "s"),
                "mw_per_norm_s": (inputs.machine_weeks / wall_norm_s, "1/s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["ops"] = {"attempted": ops.attempted, "failed": ops.failed}
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    out = results_dir / f"{wl.name}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {wl.name}  seed {args.seed}  reps {len(reps)}  ({out.relative_to(ROOT)})")
    for key, value in inputs.properties.items():
        print(f"  input {key} = {value}")
    for step, value in step_s.items():
        if value:
            print(f"  step {step}_s = {value:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  operations attempted {ops.attempted}, failed {ops.failed}, "
          f"failed_frac {ops.failed / ops.attempted:.6g}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in ("ingest", "study", "sweep"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    if status:
        return status
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
