"""In-memory spans and counters recorded around flocpriv's public calls.

``instrument`` wraps the functions that flocpriv's modules call into each
other (``registrable_domain`` as ingest calls it, ``build_cohort_map`` as
cohorts, unicity and panels call it, ...) in every module namespace that
holds a reference to them, so no code under ``src/`` changes. Each call
records a span (name, start, end, parent) and, when the span ends, the
counters of its layer. ``layer_metrics`` derives the per-layer metrics
from the spans: a layer's time is the self time of its spans, that is
their duration minus the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

import numpy as np


class Tracer:
    """Spans as ``[name, start, end, parent]`` lists, plus counters, each
    recorded as ``[span, name, value]`` against the span that did the work."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def count(self, span: int, name: str, value=1) -> None:
        self.counters.append([span, name, value])

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def to_json_dict(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counters": self.counters,
        }


# Counter hooks: (tracer, span, args, result) -> None, run after the span ends.


def _count_parse(tr, idx, args, res):
    tr.count(idx, "ingest.lines", len(res.records) + res.rejects.total)
    tr.count(idx, "ingest.rejected", res.rejects.total)


def _count_load(tr, idx, args, res):
    tr.count(idx, "ingest.loads")
    tr.count(idx, "ingest.nnz", len(res.dom_indices))


def _count_psl(tr, idx, args, res):
    tr.count(idx, "psl.calls")
    tr.count(idx, "psl.host", args[0])


def _count_kernel(tr, idx, args, res):
    values = args[0]
    tr.count(idx, "simhash.calls")
    tr.count(idx, "simhash.rows", len(res))
    tr.count(idx, "simhash.nnz", len(values))
    tr.count(idx, "simhash.distinct_domains", len(np.unique(values)))


def _count_cohort_map(tr, idx, args, res):
    tr.count(idx, "prefixlsh.calls")
    tr.count(idx, "prefixlsh.points", len(args[0]))
    tr.count(idx, "prefixlsh.cohorts", res.num_cohorts)


def _count_samples(tr, idx, args, res):
    tr.count(idx, "unicity.samples", args[0].n_samples)


def _count_points(tr, idx, args, res):
    tr.count(idx, "unicity.points", len(res.points))


def _count_panels(tr, idx, args, res):
    tr.count(idx, "panels.panels", len(res))


def _count_shuffle(tr, idx, args, res):
    tr.count(idx, "sensitivity.shuffles")


def _count_chisq(tr, idx, args, res):
    tr.count(idx, "sensitivity.chisq_tests")


def _count_ot(tr, idx, args, res):
    tr.count(idx, "sensitivity.ot_members", res.n_members)


def _count_written(tr, idx, args, res):
    tr.count(idx, "manifest.bytes_written", os.path.getsize(args[0]))


def _count_digested(tr, idx, args, res):
    tr.count(idx, "manifest.bytes_digested", os.path.getsize(args[0]))


#: (module, attribute, span name, counter hook). "Class.method" attributes
#: are wrapped on the class; plain functions wherever a flocpriv module
#: holds them.
TARGETS = [
    ("ingest", "parse_sessions", "ingest.parse", _count_parse),
    ("ingest", "build_machine_weeks", "ingest.build", None),
    ("ingest", "MachineWeekTable.save", "ingest.save", None),
    ("ingest", "MachineWeekTable.load", "ingest.load", _count_load),
    ("psl", "registrable_domain", "psl.registrable_domain", _count_psl),
    ("ingest", "MachineWeekTable.hashes", "simhash.table_hashes", None),
    ("kernels", "simhash_rows", "simhash.kernel", _count_kernel),
    ("prefixlsh", "build_cohort_map", "prefixlsh.build", _count_cohort_map),
    ("prefixlsh", "CohortMap.assign", "prefixlsh.assign", None),
    ("cohorts", "compute_weekly_cohorts", "cohorts.compute", None),
    ("unicity", "build_sequences", "unicity.sequences", None),
    ("unicity", "assign_sequence_cohorts", "unicity.assign", _count_samples),
    ("unicity", "unicity_fractions", "unicity.fractions", None),
    ("unicity", "sweep_k", "unicity.sweep", _count_points),
    ("unicity", "sweep_population", "unicity.sweep", _count_points),
    ("panels", "stratified_panels", "panels.draw", _count_panels),
    ("panels", "cluster_panel", "panels.cluster", None),
    ("sensitivity", "shuffle_baseline", "sensitivity.shuffle", _count_shuffle),
    ("sensitivity", "t_closeness_curve", "sensitivity.curve", None),
    ("sensitivity", "chi_square_by_group", "sensitivity.chisq", None),
    ("sensitivity", "random_subsample_pvalue", "sensitivity.chisq", None),
    ("sensitivity", "chi_square_test", "sensitivity.chisq", _count_chisq),
    ("sensitivity", "ot_scale_control", "sensitivity.ot", _count_ot),
    ("manifest", "write_json", "manifest.write", _count_written),
    ("manifest", "write_text", "manifest.write", _count_written),
    ("manifest", "write_manifest", "manifest.write", None),
    ("manifest", "file_sha256", "manifest.write", _count_digested),
    ("synth", "generate_population", "synth.generate", None),
    ("synth", "write_sessions", "synth.write_sessions", None),
]


def _wrap(func, tracer: Tracer, name: str, hook):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(idx)
        if hook is not None:
            hook(tracer, idx, args, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every target while the block runs; restore the originals after."""
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("flocpriv") and m]
    undo: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, span_name, hook in TARGETS:
            module = sys.modules[f"flocpriv.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(raw.__func__, tracer, span_name, hook))
                else:
                    new = _wrap(raw, tracer, span_name, hook)
                undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, attr)
            wrapped = _wrap(original, tracer, span_name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        yield tracer
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)


#: Per-layer time metrics: metric name -> span names whose self time it
#: sums (a name ending in "." matches every span with that prefix).
SELF_TIME_METRICS = {
    "ingest.parse_s": ("ingest.parse",),
    "ingest.build_s": ("ingest.build",),
    "ingest.save_s": ("ingest.save",),
    "ingest.load_s": ("ingest.load",),
    "psl.s": ("psl.registrable_domain",),
    "simhash.s": ("simhash.table_hashes", "simhash.kernel"),
    "prefixlsh.s": ("prefixlsh.build", "prefixlsh.assign"),
    "cohorts.self_s": ("cohorts.compute",),
    "unicity.sequences_s": ("unicity.sequences",),
    "unicity.assign_s": ("unicity.assign",),
    "unicity.fractions_s": ("unicity.fractions",),
    "unicity.sweep_s": ("unicity.sweep",),
    "panels.draw_s": ("panels.draw",),
    "panels.cluster_s": ("panels.cluster",),
    "sensitivity.shuffle_s": ("sensitivity.shuffle",),
    "sensitivity.curve_s": ("sensitivity.curve",),
    "sensitivity.chisq_s": ("sensitivity.chisq",),
    "sensitivity.ot_s": ("sensitivity.ot",),
    "manifest.write_s": ("manifest.write",),
    "cli.self_s": ("cli.",),
    "synth.generate_s": ("synth.generate",),
    "synth.write_sessions_s": ("synth.write_sessions",),
}

COUNT_METRICS = (
    "ingest.lines",
    "ingest.rejected",
    "ingest.loads",
    "ingest.nnz",
    "psl.calls",
    "simhash.calls",
    "simhash.rows",
    "simhash.nnz",
    "simhash.distinct_domains",
    "prefixlsh.calls",
    "prefixlsh.points",
    "prefixlsh.cohorts",
    "unicity.samples",
    "unicity.points",
    "panels.panels",
    "sensitivity.shuffles",
    "sensitivity.chisq_tests",
    "manifest.bytes_written",
    "manifest.bytes_digested",
)


def _matches(name: str, patterns: tuple[str, ...]) -> bool:
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in patterns)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, root: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the spans under ``root`` (the timed region),
    plus the synth spans of set-up, and how much of the region they cover."""
    own = tracer.self_times()
    keep = [False] * len(tracer.spans)
    in_region = [False] * len(tracer.spans)
    for i, (name, _, _, parent) in enumerate(tracer.spans):
        in_region[i] = i == root or (parent >= 0 and in_region[parent])
        keep[i] = (in_region[i] and i != root) or name.startswith("synth.")
    kept = [(span[0], own[i]) for i, span in enumerate(tracer.spans) if keep[i]]
    out: dict[str, tuple[float, str]] = {}
    for metric, patterns in SELF_TIME_METRICS.items():
        out[metric] = (sum(t for name, t in kept if _matches(name, patterns)), "s")

    counts: dict[str, float] = dict.fromkeys(COUNT_METRICS, 0)
    hosts = set()
    for span, name, value in tracer.counters:
        if not keep[span]:
            continue
        if name == "psl.host":
            hosts.add(value)
        else:
            counts[name] = counts.get(name, 0) + value
    for metric in COUNT_METRICS:
        out[metric] = (counts[metric], "count")
    out["psl.distinct_hosts"] = (len(hosts), "count")
    kernel_s = sum(t for name, t in kept if name == "simhash.kernel")
    out["simhash.reuse"] = (_ratio(counts["simhash.nnz"], counts["simhash.distinct_domains"]), "ratio")
    out["simhash.nnz_per_s"] = (_ratio(counts["simhash.nnz"], kernel_s), "1/s")
    out["sensitivity.ot_members_per_s"] = (
        _ratio(counts.get("sensitivity.ot_members", 0), out["sensitivity.ot_s"][0]),
        "1/s",
    )
    _, start, end, _ = tracer.spans[root]
    covered = sum(own[i] for i in range(len(own)) if in_region[i] and i != root)
    out["tracing.coverage"] = (_ratio(covered, end - start), "ratio")
    return out
