"""Smoke self-test of the benchmark at tiny scale.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload, with tracing off and on, it checks that the last
output line is the result object, that every metric BENCHMARK.json names
is emitted with its unit, and that no operation failed. It also checks
the per-layer expectations (span coverage, no hashing or session parsing
where a workload should do none) and that the benchmark refuses to run
without the flocpriv sources. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "3", "--seconds", "0", "--scale", "tiny"]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *RUN, "--workload", workload, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            errors.append(what)

    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(name, trace)
            tag = f"{name} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{tag}: keys")
            expect(result["correct"] is True and result["failed"] == 0, f"{tag}: failed ops")
            expect(result["attempted"] >= 1, f"{tag}: nothing attempted")
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in listed}
            expect(sorted(metrics) == sorted(want), f"{tag}: metric names differ")
            for metric, unit in want.items():
                expect(metrics.get(metric, {}).get("unit") == unit, f"{tag}: {metric} unit")
            if trace:
                value = {m: v["value"] for m, v in metrics.items()}
                expect(value["tracing.coverage"] >= 0.9, f"{tag}: spans cover under 90%")
                if name != "ingest":
                    expect(value["ingest.parse_s"] == 0, f"{tag}: parsed sessions")
                if name == "sweep":
                    expect(value["simhash.calls"] == 0, f"{tag}: hashed in the timed region")
            else:
                expect(all(v["value"] > 0 for v in metrics.values()), f"{tag}: a zero metric")

    # Without src/ the benchmark must fail without printing a result.
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout, "ran without flocpriv sources")

    for error in errors:
        print(f"smoke: FAILED {error}", file=sys.stderr)
    print(f"smoke: {'FAILED' if errors else 'ok'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
