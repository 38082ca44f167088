"""Record golden digests of every workload command for every workload seed.

Usage, from the root of a checkout whose sources are the reference:

    python3 perfbench/record_golden.py

Runs each workload's setup and one session untraced and writes exit codes
and SHA-256 digests of stdout and output files to ``perfbench/golden.json``.
Only re-record when a change is meant to alter the outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import GOLDEN, OUT_DIR, ROOT, run_session, run_setup, warm_import
from runner import child_env
from workloads import N_WORKLOAD_SEEDS, WORKLOADS


def main() -> int:
    env = child_env(ROOT)
    golden: dict = {}
    for name, make in WORKLOADS.items():
        for seed in range(N_WORKLOAD_SEEDS):
            workload = make(seed)
            workdir = OUT_DIR / f"record-{name}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            deadline = time.monotonic() + 600
            warm_import(workdir, env, deadline)
            setup = run_setup(workload, workdir, env, deadline)
            wall, _, session = run_session(workload, workdir, env, deadline)
            golden.setdefault(name, {})[str(seed)] = {"setup": setup, "session": session}
            codes = [r["exit"] for r in setup + session]
            print(f"{name} seed {seed}: exits {codes} in {wall:.1f} s", flush=True)
            shutil.rmtree(workdir)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
