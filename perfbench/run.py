"""End-to-end and per-layer benchmark of the mrsfuse CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_session --seed 0 --seconds 32 --trace 0

One client runs the workload's CLI commands in a closed loop: each
``mrsfuse`` child starts after the previous one has exited, one at a time.
With ``--trace 0`` the end-to-end metrics are untraced subprocess walls:
whole sessions are repeated for about ``--seconds`` seconds and
each metric is the median over the run's samples. With ``--trace 1`` the
same commands run in one interpreter through ``mrsfuse.cli.main``, once
untraced and once with spans and counters around each layer, and the
per-layer metrics come from the traced pass.

Every command's exit code, stdout and output files are checked against
golden SHA-256 digests recorded from the seed code (``golden.json``, made
by ``record_golden.py``). The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; full details go to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import importtime
from runner import (
    DeadlineExceeded,
    child_env,
    command_record,
    remove_outputs,
    run_child,
    run_cli,
    sha256_file,
    stdout_file,
)
from speedref import SpeedReference
from workloads import WORKLOADS, Workload, workload_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".perfbench"

BUDGET_S = 170.0  # hard cap on one run, which must end within 180 s
SETUP_SAMPLES = 3
IMPORT_ARGS = ["-c", "import mrsfuse"]

END_TO_END_UNITS = {"session_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ProgramMissing(Exception):
    pass


class ChildFailed(Exception):
    pass


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def check_records(records: list[dict], golden: list[dict]) -> list[bool]:
    """Per command: did it match its golden record exactly?"""
    ok = [record == expected for record, expected in zip(records, golden)]
    return ok + [False] * (len(golden) - len(ok))


def records_of(commands, runs, workdir: Path, first: int = 0) -> list[dict]:
    return [
        command_record(c, r.exit_code, sha256_file(stdout_file(workdir, first + i)), workdir)
        for i, (c, r) in enumerate(zip(commands, runs))
    ]


def run_session(workload: Workload, workdir: Path, env: dict, deadline: float):
    """One closed-loop pass over the session commands; digests are taken afterwards."""
    remove_outputs(workload.session, workdir)
    start = time.perf_counter()
    runs = [run_cli(c, i, workdir, env, deadline) for i, c in enumerate(workload.session)]
    wall = time.perf_counter() - start
    return wall, runs, records_of(workload.session, runs, workdir)


def run_setup(workload: Workload, workdir: Path, env: dict, deadline: float) -> list[dict]:
    first = len(workload.session)  # stdout files must not collide with the session's
    runs = [run_cli(c, first + i, workdir, env, deadline) for i, c in enumerate(workload.setup)]
    return records_of(workload.setup, runs, workdir, first)


def warm_import(workdir: Path, env: dict, deadline: float) -> None:
    """First import compiles bytecode; users pay that once, so it is not timed."""
    if run_child(IMPORT_ARGS, workdir, env, deadline).exit_code != 0:
        raise ProgramMissing("`import mrsfuse` fails in this checkout")


def median(values: list[float]) -> float:
    return float(statistics.median(values))


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, oks: list[bool]) -> None:
        self.attempted += len(oks)
        self.failed += oks.count(False)


def untraced(workload: Workload, golden: dict, seconds: float, workdir: Path, deadline: float) -> dict:
    env = child_env(ROOT)
    tally = Tally()
    with SpeedReference(workdir) as reference:
        warm_import(workdir, env, deadline)
        mark = reference.mark()
        setup = [run_child(IMPORT_ARGS, workdir, env, deadline).wall_s for _ in range(SETUP_SAMPLES)]
        setup_scale = reference.scale(mark, reference.mark())
        tally.add(check_records(run_setup(workload, workdir, env, deadline), golden["setup"]))

        sessions = []
        measure_start = time.monotonic()
        while True:
            mark = reference.mark()
            try:
                wall, runs, records = run_session(workload, workdir, env, deadline)
            except DeadlineExceeded:
                tally.add([False])
                break
            scale = reference.scale(mark, reference.mark())
            tally.add(check_records(records, golden["session"]))
            sessions.append((wall, scale, runs))
            # Stop where the next session would end nearer past ``seconds`` than short of it.
            elapsed = time.monotonic() - measure_start
            if elapsed + wall / 2 >= seconds or time.monotonic() + 1.5 * wall > deadline:
                break

    if not sessions:
        raise ChildFailed("no session finished within the run budget")
    commands: dict[str, list[float]] = {}
    for _, scale, runs in sessions:
        for command, run in zip(workload.session, runs):
            commands.setdefault(f"{command.name}_s", []).append(run.wall_s * scale)
    samples = {
        "setup_s": [wall * setup_scale for wall in setup],
        "session_s": [wall * scale for wall, scale, _ in sessions],
        "peak_rss_mb": [max(r.maxrss_mb for r in runs) for _, _, runs in sessions],
        **commands,
        "setup_wall_s": setup,
        "session_wall_s": [wall for wall, _, _ in sessions],
        "session_cpu_s": [sum(r.cpu_s for r in runs) for _, _, runs in sessions],
        "speed_scale": [setup_scale] + [scale for _, scale, _ in sessions],
    }
    return {"samples": samples, "tally": tally}


def in_process(workload: Workload, workdir: Path, env: dict, deadline: float, trace: bool,
               run_id: str) -> dict:
    """Run the session in one child interpreter through ``mrsfuse.cli.main``."""
    remove_outputs(workload.session, workdir)
    tag = "traced" if trace else "untraced"
    plan = {
        "src": str(ROOT / "src"),
        "workdir": str(workdir),
        "commands": [c.as_dict() for c in workload.session],
        "trace": trace,
        "run_id": run_id,
        "spans_out": str(workdir / "spans.jsonl"),
        "result_out": str(workdir / f"{tag}.json"),
    }
    plan_path = workdir / f"{tag}_plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    run = run_child([str(HERE / "trace_child.py"), str(plan_path)], workdir, env, deadline)
    if run.exit_code != 0:
        return {"wall_s": None, "records": []}
    return json.loads(Path(plan["result_out"]).read_text(encoding="utf-8"))


def traced(workload: Workload, golden: dict, workdir: Path, deadline: float, spans_out: Path,
           run_id: str) -> dict:
    env = child_env(ROOT)
    tally = Tally()
    warm_import(workdir, env, deadline)
    stderr_path = workdir / "importtime.txt"
    run_child(["-X", "importtime", *IMPORT_ARGS], workdir, env, deadline, stderr_path=stderr_path)
    metrics = importtime.init_metrics(stderr_path.read_text(encoding="utf-8"))
    tally.add(check_records(run_setup(workload, workdir, env, deadline), golden["setup"]))

    plain = in_process(workload, workdir, env, deadline, False, run_id)
    tally.add(check_records(plain["records"], golden["session"]))
    layered = in_process(workload, workdir, env, deadline, True, run_id)
    tally.add(check_records(layered["records"], golden["session"]))
    if layered["wall_s"] is None or plain["wall_s"] is None:
        raise ChildFailed("the in-process child failed, so no per-layer metrics exist")
    metrics.update(layered["metrics"])
    metrics["trace_overhead"] = layered["wall_s"] / plain["wall_s"]
    shutil.copyfile(workdir / "spans.jsonl", spans_out)
    return {"metrics": metrics, "tally": tally, "walls": [plain["wall_s"], layered["wall_s"]],
            "spans": layered["spans"]}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_ratio", "_scale")) or metric == "trace_overhead":
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark the mrsfuse CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mrsfuse" / "__init__.py").is_file():
        print(f"error: no mrsfuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wseed = workload_seed(args.seed)
    workload = WORKLOADS[args.workload](wseed)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload.name, {}).get(str(wseed))
    if golden is None:
        print(f"error: no golden digests for {workload.name} seed {wseed}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env_record = environment()
    env_record["load1_before"] = os.getloadavg()[0]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            outcome = traced(workload, golden, workdir, deadline,
                             results_dir / f"{stem}-spans.jsonl", f"{workload.name}/{wseed}")
        else:
            outcome = untraced(workload, golden, args.seconds, workdir, deadline)
    except (ProgramMissing, ChildFailed, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env_record["load1_after"] = os.getloadavg()[0]
    tally = outcome["tally"]

    print(f"perfbench workload={workload.name} seed={args.seed} workload_seed={wseed} "
          f"trace={args.trace} client=1 closed-loop")
    print("env " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in outcome["metrics"].items()}
        for name, m in metrics.items():
            print(f"{name:32s} {m['value']:>14.6g} {m['unit']}")
    else:
        samples = outcome["samples"]
        for name, values in samples.items():
            print(f"{name:16s} {median(values):>12.4f} {unit_of(name):3s} "
                  f"median of {len(values)}  min {min(values):.4f}  max {max(values):.4f}")
        print(f"{'failed_ops':16s} {tally.failed / tally.attempted:>12.4f} share "
              f"({tally.failed} of {tally.attempted} commands)")
        metrics = {name: {"value": median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    details = {"args": vars(args), "workload_seed": wseed, "env": env_record,
               **{k: v for k, v in outcome.items() if k != "tally"},
               "attempted": tally.attempted, "failed": tally.failed}
    (results_dir / f"{stem}.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
