"""Closed-loop execution of mrsfuse CLI children, one at a time.

Each child is started only after the previous one has been reaped. Its
wall time spans process start to reaping, and its CPU time and peak RSS
come from its own rusage (``os.wait4``). A timer kills a child that would
run past the run's deadline, so a run always ends in bounded time.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Command

# What the installed ``mrsfuse`` console script does.
CLI_BOOT = "import sys; from mrsfuse.cli import main; sys.exit(main(sys.argv[1:]))"


class DeadlineExceeded(Exception):
    pass


@dataclass(frozen=True)
class ChildRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def child_env(root: Path) -> dict:
    """Environment for a child that imports mrsfuse from the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONIOENCODING"] = "utf-8"
    env.pop("MRSFUSE_CONFIG", None)
    return env


def run_child(
    args: list[str],
    cwd: Path,
    env: dict,
    deadline: float,
    stdout_path: Path | None = None,
    stderr_path: Path | None = None,
) -> ChildRun:
    """Run ``python <args>`` to completion in ``cwd``.

    Stdout goes to ``stdout_path`` or is discarded; stderr is appended to
    ``stderr_path``, by default ``stderr.txt`` in ``cwd``.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise DeadlineExceeded("run budget spent before starting a child")
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    err = open(stderr_path or cwd / "stderr.txt", "ab")
    try:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout_path:
            out.close()
        err.close()
    if proc.returncode < 0 and time.monotonic() >= deadline:
        raise DeadlineExceeded(f"child {args[:2]} killed at the run deadline")
    return ChildRun(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )


def run_cli(command: Command, index: int, cwd: Path, env: dict, deadline: float) -> ChildRun:
    return run_child(["-c", CLI_BOOT, *command.argv], cwd, env, deadline, stdout_file(cwd, index))


def stdout_file(cwd: Path, index: int) -> Path:
    return cwd / f"stdout_{index}.txt"


def sha256_file(path: Path) -> str | None:
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_record(command: Command, exit_code: int, stdout_sha: str | None, cwd: Path) -> dict:
    """What a command produced: the record compared against the golden one."""
    return {
        "name": command.name,
        "exit": exit_code,
        "stdout": stdout_sha,
        "files": {name: sha256_file(cwd / name) for name in command.outputs},
    }


def remove_outputs(commands: tuple[Command, ...], cwd: Path) -> None:
    """Delete earlier outputs so a command that writes nothing cannot match its golden."""
    for command in commands:
        for name in command.outputs:
            (cwd / name).unlink(missing_ok=True)
