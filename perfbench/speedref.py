"""CPU-speed reference that scales measured walls to a nominal CPU speed.

On a shared host the speed of one vCPU drifts by about ±20 % over seconds
and minutes, because other tenants compete for the physical cores. A run
of 30-40 s cannot average that drift out: raw session walls spread by
12-19 % (interquartile range over median) between runs.

``SpeedReference`` pins the benchmark to one CPU, so every child it starts
runs there too. On the same CPU it runs a fixed Python loop at nice 19.
The scheduler gives that loop about 1.5 % of the CPU while a child runs,
in short slices spread over the child's whole run. The loop publishes how
many fixed steps it has done and its own CPU time. Steps per CPU-second
over an interval is the CPU's speed during that interval, as the child
saw it. A wall multiplied by ``speed / NOMINAL_STEPS_PER_S`` is the time
the same work would take at the nominal speed. A slower program still
reads slower; a slower host does not.
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

# Steps per CPU-second of the reference loop that count as nominal speed,
# about the median seen on a 2-vCPU Intel Xeon KVM guest with Python 3.11.
NOMINAL_STEPS_PER_S = 10000.0

# Progress file layout: the last complete step count, then two slots of
# (steps, CPU seconds) written alternately, so a reader that sees step k
# finds slot k intact until the loop has done two more steps.
LAYOUT = struct.Struct("5d")


def _slot_offset(steps: int) -> int:
    return 8 * (1 + 2 * (steps % 2))


def _make_step():
    """One step of reference work: interpreter arithmetic plus numpy vector compares.

    Contention slows vector code more than interpreter code. A pure-Python
    loop tracked the slowdown of ``cv`` runs only partly: their spread fell
    from 26 % to 6 %. This mix brought it to 2.4 %, and import and
    ``validate`` spreads fell from 27-30 % to 4-5 %.
    """
    import numpy as np

    values = np.random.default_rng(0).random(4000)

    def step() -> int:
        total = 0
        for i in range(1000):
            total += i * i % 7
        for cut in (0.1, 0.3, 0.5, 0.7):
            total += int(np.count_nonzero((values > cut) & (values < 0.9)))
        return total

    return step


def reference_loop(path: Path) -> None:
    """Runs until killed, publishing progress in the file at ``path``."""
    os.nice(19)
    step = _make_step()
    with path.open("r+b") as handle, mmap.mmap(handle.fileno(), LAYOUT.size) as progress:
        steps = 0
        while True:
            step()
            steps += 1
            struct.pack_into("2d", progress, _slot_offset(steps), steps, time.process_time())
            struct.pack_into("d", progress, 0, steps)


class SpeedReference:
    """Context manager: pin to one CPU and run the reference loop beside the children."""

    def __init__(self, workdir: Path) -> None:
        self._path = workdir / "speedref.bin"

    def __enter__(self) -> "SpeedReference":
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        self._path.write_bytes(bytes(LAYOUT.size))
        self._handle = self._path.open("rb")
        self._progress = mmap.mmap(self._handle.fileno(), LAYOUT.size, access=mmap.ACCESS_READ)
        self._process = subprocess.Popen([sys.executable, __file__, str(self._path)])
        deadline = time.monotonic() + 30
        while self.mark()[0] < 2:
            if time.monotonic() > deadline or self._process.poll() is not None:
                self.__exit__(None, None, None)
                raise RuntimeError("the speed reference loop did not start")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self._process.kill()
        self._process.wait()
        self._progress.close()
        self._handle.close()
        os.sched_setaffinity(0, self._affinity)

    def mark(self) -> tuple[float, float]:
        """A consistent (steps, reference CPU seconds) pair."""
        while True:
            steps = struct.unpack_from("d", self._progress, 0)[0]
            offset = _slot_offset(int(steps))
            seen, cpu = struct.unpack_from("2d", self._progress, offset)
            if seen == steps == struct.unpack_from("d", self._progress, offset)[0]:
                return steps, cpu

    @staticmethod
    def scale(start: tuple[float, float], end: tuple[float, float]) -> float:
        """Speed between two marks relative to nominal; multiply a wall by it."""
        steps, cpu = end[0] - start[0], end[1] - start[1]
        if steps < 1 or cpu <= 0:
            raise RuntimeError("the speed reference made no progress in the interval")
        return steps / cpu / NOMINAL_STEPS_PER_S


if __name__ == "__main__":
    reference_loop(Path(sys.argv[1]))
