"""Parsing of ``python -X importtime`` output into the init metrics."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pytest  # noqa: E402

from importtime import init_metrics, parse  # noqa: E402

SAMPLE = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   _io
import time:        50 |         50 |       mrsfuse.errors
import time:       200 |        250 |     mrsfuse.cohort
import time:       400 |        400 |         numpy.core
import time:       100 |        500 |       numpy
import time:        10 |         10 |         numpy.linalg
import time:        20 |         20 |         inspect
import time:       300 |        330 |       scipy.special
import time:        30 |        860 |     mrsfuse.fusion
import time:        40 |       1150 |   mrsfuse
"""


def test_parse_builds_the_nesting_from_indentation():
    roots = parse(SAMPLE)
    assert [r.name for r in roots] == ["_io", "mrsfuse"]
    mrsfuse = roots[1]
    assert [c.name for c in mrsfuse.children] == ["mrsfuse.cohort", "mrsfuse.fusion"]
    fusion = mrsfuse.children[1]
    assert [c.name for c in fusion.children] == ["numpy", "scipy.special"]


def test_each_module_counts_toward_its_outermost_package():
    m = init_metrics(SAMPLE)
    assert m["init.numpy_s"] == pytest.approx(500e-6)
    assert m["init.scipy_s"] == pytest.approx(330e-6)
    assert m["init.self_s"] == pytest.approx((1150 - 500 - 330) * 1e-6)


def test_missing_package_entry_is_an_error():
    with pytest.raises(ValueError):
        init_metrics("import time: self [us] | cumulative | imported package\n")
