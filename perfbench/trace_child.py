"""Run a workload's command sequence in one interpreter through ``mrsfuse.cli.main``.

Usage: python trace_child.py PLAN_JSON

The plan names the source directory, the work directory, the commands, the
run id and whether to trace. The child writes a result JSON (wall time of
the command sequence, one record per command, and per-layer metrics when
traced) and, when traced, the spans as JSON lines. Package import happens
before the timed region, so traced and untraced walls compare like for like.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path


def run(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    import mrsfuse.cli

    from runner import command_record, sha256_bytes
    from tracer import Tracer
    from workloads import Command

    workdir = Path(plan["workdir"])
    os.chdir(workdir)
    commands = [Command.from_dict(c) for c in plan["commands"]]
    tracer = Tracer() if plan["trace"] else None
    if tracer:
        tracer.install()

    outputs = []
    start = time.perf_counter()
    try:
        for index, command in enumerate(commands):
            if tracer:
                tracer.begin_command(f"{plan['run_id']}/{index}:{command.name}")
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                try:
                    code = mrsfuse.cli.main(list(command.argv))
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code if isinstance(exc.code, int) else 2
            outputs.append((command, code, buffer.getvalue().encode("utf-8")))
        wall = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()

    records = []
    for command, code, stdout in outputs:
        records.append(command_record(command, code, sha256_bytes(stdout), workdir))
        if tracer:
            tracer.counts["cli.output_bytes"] += len(stdout) + sum(
                (workdir / name).stat().st_size
                for name in command.outputs if (workdir / name).is_file())
    result = {"wall_s": wall, "records": records}
    if tracer:
        result["metrics"] = tracer.layer_metrics()
        result["spans"] = len(tracer.spans)
        tracer.write_spans(Path(plan["spans_out"]))
    return result


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(plan)
    Path(plan["result_out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
