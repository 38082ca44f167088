"""Traced and untraced runs of one session must produce identical outputs."""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from run import ROOT, in_process, run_session  # noqa: E402
from runner import child_env  # noqa: E402
from workloads import Command, Workload, cv, paper_session, synth, validate  # noqa: E402


def small_session(seed: int) -> Workload:
    compare = paper_session(seed).session[-1]
    fuse = Command(
        "fuse",
        ("fuse", "--cohort", "cohort.csv", "--variable", "age", "--strategy", "youden",
         "--out", "fused.csv"),
        ("fused.csv",),
    )
    return Workload("small", "", (), (synth(60, seed), validate(), fuse, cv("nihss", seed),
                                      cv("age", seed), compare))


def test_subprocess_untraced_and_traced_runs_give_identical_digests(tmp_path):
    workload = small_session(seed=4)
    env = child_env(ROOT)
    deadline = time.monotonic() + 150
    _, runs, records = run_session(workload, tmp_path, env, deadline)
    assert [r.exit_code for r in runs] == [0] * len(workload.session)
    assert all(all(records[i]["files"].values()) for i in range(len(records)))

    plain = in_process(workload, tmp_path, env, deadline, trace=False, run_id="small/4")
    traced = in_process(workload, tmp_path, env, deadline, trace=True, run_id="small/4")
    assert plain["records"] == records
    assert traced["records"] == records
    assert traced["metrics"]["fusion.search_calls"] > 0
    assert traced["metrics"]["cli.output_bytes"] > 0
