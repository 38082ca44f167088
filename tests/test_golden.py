"""Byte-identity gate: benchmark workloads reproduce their recorded golden digests.

The benchmark (``perfbench/``) records, for every workload seed, the exit
code and the SHA-256 of stdout and of every output file of each CLI
command. This test replays the ``paper_session`` seeds, three ``cv_large``
seeds and one ``bulk_fixed`` seed (50 000 rows through the CSV writer and
reader) in-process through ``mrsfuse.cli.main``, in a fresh work directory
so the relative paths written into the outputs match, and compares the
same digests. It only reads ``perfbench/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import mrsfuse.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


def _load_workloads():
    name = "_perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up while decorating
        spec.loader.exec_module(module)
    return sys.modules[name]


WORKLOADS = _load_workloads().WORKLOADS

CASES = (
    [("paper_session", seed) for seed in range(10)]
    + [("cv_large", seed) for seed in range(3)]
    + [("bulk_fixed", 0)]
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _record(command, workdir: Path) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = mrsfuse.cli.main(list(command.argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    files = {}
    for name in command.outputs:
        path = workdir / name
        files[name] = _sha256(path.read_bytes()) if path.is_file() else None
    return {
        "name": command.name,
        "exit": code,
        "stdout": _sha256(buffer.getvalue().encode("utf-8")),
        "files": files,
    }


@pytest.mark.parametrize(("workload", "seed"), CASES, ids=[f"{w}-{s}" for w, s in CASES])
def test_workload_matches_golden_digests(workload, seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
    plan = WORKLOADS[workload](seed)
    expected = GOLDEN[workload][str(seed)]
    setup = [_record(command, tmp_path) for command in plan.setup]
    session = [_record(command, tmp_path) for command in plan.session]
    assert setup == expected["setup"]
    assert session == expected["session"]
