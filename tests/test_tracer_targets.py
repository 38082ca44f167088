"""The benchmark tracer's reach into the package: every function it wraps, and what its hooks read.

``perfbench/tracer.py`` is loaded from its file and only read; nothing is installed. Its own tests
run outside this suite, so a change here that breaks ``perfbench/run.py --trace 1`` fails here first.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from mrsfuse import Cohort, FusionConfig, PatientRecord

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_and_counted_target_resolves(tracer):
    targets = [*tracer.SPANS, *tracer.COUNTED]
    assert targets
    missing = [f"{module}.{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


@pytest.mark.parametrize("module, function, position, name", [
    ("mrsfuse.crossval", "resolve_fold_config", 0, "train"),
    ("mrsfuse.fusion", "search_threshold", 0, "scores"),
    ("mrsfuse.fusion", "search_threshold", 1, "truths"),
    ("mrsfuse.fusion", "search_threshold", 2, "strategy"),
    ("mrsfuse.cohort", "write_cohort_csv", 0, "cohort"),
])
def test_hooked_arguments_sit_where_the_hooks_read_them(module, function, position, name):
    # the hooks read an argument by position, or by name when it was passed by keyword
    parameters = list(inspect.signature(getattr(importlib.import_module(module), function)).parameters)
    assert parameters[position] == name


def test_cohort_offers_what_the_hooks_read(tracer):
    assert callable(Cohort.__iter__) and isinstance(Cohort.patients, property)
    cohort = Cohort(("ADC",), (PatientRecord("a", 60.0, 5, (0.3,), 1), PatientRecord("b", 70.0, 9, (0.7,), 4)))
    hooks = tracer.Tracer()
    hooks._before_resolve((cohort, FusionConfig("none")), {})
    hooks._after_read((), {}, cohort)
    hooks._before_write((), {"cohort": cohort})
    assert hooks._fold_key
    assert hooks.counts["cohort.read_rows"] == hooks.counts["cohort.write_rows"] == 2
