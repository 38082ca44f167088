"""The CPU-speed reference: scale arithmetic and process lifecycle."""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pytest  # noqa: E402

from speedref import NOMINAL_STEPS_PER_S, SpeedReference  # noqa: E402


def test_scale_is_speed_over_nominal():
    start, end = (100.0, 2.0), (100.0 + NOMINAL_STEPS_PER_S * 0.5, 3.0)
    assert SpeedReference.scale(start, end) == pytest.approx(0.5)


def test_no_progress_is_an_error():
    with pytest.raises(RuntimeError):
        SpeedReference.scale((5.0, 1.0), (5.0, 1.0))


def test_reference_runs_pinned_and_stops_on_exit(tmp_path):
    affinity = os.sched_getaffinity(0)
    with SpeedReference(tmp_path) as reference:
        assert os.sched_getaffinity(0) == {min(affinity)}
        start = reference.mark()
        time.sleep(0.3)
        assert reference.scale(start, reference.mark()) > 0
        process = reference._process
    assert process.poll() is not None
    assert os.sched_getaffinity(0) == affinity
