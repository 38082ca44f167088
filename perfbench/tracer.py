"""Spans and counters around the public functions of each mrsfuse layer.

Nothing in the package is edited. ``Tracer.install`` replaces each traced
function in every ``mrsfuse`` module namespace that binds it, because
callers import names directly (``from .fusion import search_threshold``)
and a patch of the defining module alone would miss them.

A span is ``[name, start_ns, end_ns, parent_index, run_id]``. Spans are
kept in memory and written out after the run. A layer's self time is its
span minus the part of that span its child spans cover. Counter
bookkeeping that inspects arguments runs outside the traced span and is
recorded as a ``trace.hook`` child span, so it is never charged to a layer.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# (defining module, function) -> (span name, self-time metric, call-count metric)
SPANS = {
    ("mrsfuse.cli", "main"): ("cli.main", "cli.self_s", None),
    ("mrsfuse.cohort", "read_cohort_csv"): ("cohort.read_cohort_csv", "cohort.read_s", None),
    ("mrsfuse.cohort", "validate_cohort"): ("cohort.validate_cohort", "cohort.validate_s", None),
    ("mrsfuse.cohort", "write_cohort_csv"): ("cohort.write_cohort_csv", "cohort.write_s", None),
    ("mrsfuse.synth", "generate_cohort"): ("synth.generate_cohort", "synth.generate_s", None),
    ("mrsfuse.crossval", "evaluate_model"): (
        "crossval.evaluate_model", "crossval.evaluate_self_s", None),
    ("mrsfuse.crossval", "make_folds"): (
        "crossval.make_folds", "crossval.make_folds_s", "crossval.make_folds_calls"),
    ("mrsfuse.crossval", "resolve_fold_config"): (
        "crossval.resolve_fold_config", "crossval.resolve_self_s", "crossval.resolve_calls"),
    ("mrsfuse.fusion", "search_threshold"): (
        "fusion.search_threshold", "fusion.search_s", "fusion.search_calls"),
    ("mrsfuse.fusion", "fuse_patient"): (
        "fusion.fuse_patient", "fusion.fuse_patient_s", "fusion.fuse_patient_calls"),
    ("mrsfuse.metrics", "report"): ("metrics.report", "metrics.report_s", "metrics.report_calls"),
    ("mrsfuse.significance", "wilcoxon_signed_rank"): (
        "significance.wilcoxon_signed_rank", "significance.wilcoxon_s", "significance.wilcoxon_calls"),
}

# Called too often for a span each; only their calls are counted, and their
# time stays in the caller's span (resolve_fold_config or fuse_patient).
COUNTED = (
    ("mrsfuse.fusion", "derive_labels"),
    ("mrsfuse.fusion", "compute_weights"),
    ("mrsfuse.fusion", "fuse"),
)

HOOK_SPAN = "trace.hook"

# Per-layer metrics that are counts rather than span times.
COUNT_METRICS = (
    "cohort.read_rows",
    "cohort.write_rows",
    "crossval.runs_attempted",
    "crossval.failed_runs",
    "fusion.search_scores",
    "fusion.search_cells",
    "fusion.helper_calls",
    "cli.output_bytes",
)


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def search_work(scores, truths, strategy: str) -> tuple[int, int, str]:
    """(scores, computed cells, input digest) of one ``search_threshold`` call.

    Cells are ``len(scores) * (distinct + 1)``: the candidate grid is 0, 1
    and the midpoints between distinct scores, and the seed implementation
    scans every score once per candidate.
    """
    values = array("d", (float(s) for s in scores))
    digest = hashlib.sha256(values.tobytes())
    digest.update(bytes(int(t) for t in truths))
    digest.update(strategy.encode())
    n = len(values)
    return n, n * (len(set(values)) + 1), digest.hexdigest()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._fold_key = ""
        self._seen_searches: set[tuple[str, str]] = set()
        self.search_repeats = 0

    # -- recording -----------------------------------------------------------

    def begin_command(self, run_id: str) -> None:
        """Start a new CLI command: new span group, fresh repeat-detection scope."""
        self.run_id = run_id
        self._seen_searches.clear()
        self._fold_key = ""

    def _open(self, name: str) -> list:
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter_ns()
        self._stack.pop()

    def _hook(self, fn, *args) -> None:
        record = self._open(HOOK_SPAN)
        record[1] = perf_counter_ns()
        try:
            fn(*args)
        finally:
            self._close(record)

    def wrap_span(self, name: str, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                self._hook(before, args, kwargs)
            record = self._open(name)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if after is not None:
                self._hook(after, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- counters at layer boundaries ------------------------------------------

    def _before_resolve(self, args, kwargs) -> None:
        train = _arg(args, kwargs, 0, "train")
        ids = "\0".join(p.patient_id for p in train).encode()
        self._fold_key = hashlib.sha256(ids).hexdigest()

    def _before_search(self, args, kwargs) -> None:
        scores = _arg(args, kwargs, 0, "scores")
        truths = _arg(args, kwargs, 1, "truths")
        strategy = args[2] if len(args) > 2 else kwargs.get("strategy", "youden")
        n, cells, digest = search_work(scores, truths, strategy)
        self.counts["fusion.search_scores"] += n
        self.counts["fusion.search_cells"] += cells
        key = (self._fold_key, digest)
        if key in self._seen_searches:
            self.search_repeats += 1
        self._seen_searches.add(key)

    def _after_read(self, args, kwargs, cohort) -> None:
        self.counts["cohort.read_rows"] += len(cohort.patients)

    def _before_write(self, args, kwargs) -> None:
        self.counts["cohort.write_rows"] += len(_arg(args, kwargs, 0, "cohort").patients)

    def _after_evaluate(self, args, kwargs, summary) -> None:
        self.counts["crossval.runs_attempted"] += len(summary.runs) + len(summary.failures)
        self.counts["crossval.failed_runs"] += len(summary.failures)

    def _hooks(self, span_name: str) -> tuple:
        return {
            "crossval.resolve_fold_config": (self._before_resolve, None),
            "fusion.search_threshold": (self._before_search, None),
            "cohort.read_cohort_csv": (None, self._after_read),
            "cohort.write_cohort_csv": (self._before_write, None),
            "crossval.evaluate_model": (None, self._after_evaluate),
        }.get(span_name, (None, None))

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each traced function in the loaded mrsfuse modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mrsfuse" or name.startswith("mrsfuse."))]
        replacements = {}
        for (module_name, attr), (span_name, _, _) in SPANS.items():
            original = getattr(sys.modules[module_name], attr)
            before, after = self._hooks(span_name)
            replacements[id(original)] = (original, self.wrap_span(span_name, original, before, after))
        for module_name, attr in COUNTED:
            original = getattr(sys.modules[module_name], attr)
            replacements[id(original)] = (original, self.wrap_count(f"{module_name[8:]}.{attr}", original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        return layer_metrics(self.spans, self.counts, self.search_repeats)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the union of its children's intervals, in ns."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def layer_metrics(spans: list[list], counts: Counter, search_repeats: int) -> dict[str, float]:
    """Per-layer metrics: self seconds and call counts per span name, plus counters."""
    by_name = {span_name: (time_metric, calls_metric)
               for span_name, time_metric, calls_metric in SPANS.values()}
    metrics: dict[str, float] = {}
    for time_metric, calls_metric in by_name.values():
        metrics[time_metric] = 0.0
        if calls_metric:
            metrics[calls_metric] = 0
    for record, self_ns in zip(spans, self_times(spans)):
        entry = by_name.get(record[0])
        if entry is None:
            continue
        time_metric, calls_metric = entry
        metrics[time_metric] += self_ns / 1e9
        if calls_metric:
            metrics[calls_metric] += 1
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0)
    metrics["fusion.helper_calls"] = sum(counts.get(f"{m[8:]}.{a}", 0) for m, a in COUNTED)
    calls = metrics["fusion.search_calls"]
    metrics["fusion.search_repeat_ratio"] = search_repeats / calls if calls else 0.0
    return metrics
