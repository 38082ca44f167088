"""Workload definitions: each is a fixed sequence of mrsfuse CLI commands.

A command is a name (the CLI subcommand, used for per-command walls), its
argv after ``mrsfuse``, and the files it writes. All paths are relative to
a per-run work directory, so the paths embedded in cv and compare outputs
are the same on every run and output digests can be compared across runs.

The ``--seed`` argument picks one of ``N_WORKLOAD_SEEDS`` workload seeds, each of
which has recorded golden digests, so every run is checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

N_WORKLOAD_SEEDS = 10


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {"name": self.name, "argv": list(self.argv), "outputs": list(self.outputs)}

    @classmethod
    def from_dict(cls, d: dict) -> "Command":
        return cls(d["name"], tuple(d["argv"]), tuple(d["outputs"]))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: tuple[Command, ...]
    session: tuple[Command, ...]


def synth(n: int, seed: int) -> Command:
    return Command(
        "synth",
        ("synth", "--n-patients", str(n), "--seed", str(seed), "--out", "cohort.csv"),
        ("cohort.csv",),
    )


def validate() -> Command:
    return Command("validate", ("validate", "--cohort", "cohort.csv"))


def cv(variable: str, seed: int) -> Command:
    out = f"cv_{variable}.json"
    return Command(
        "cv",
        ("cv", "--cohort", "cohort.csv", "--variable", variable,
         "--k", "5", "--runs", "10", "--seed", str(seed), "--out", out),
        (out,),
    )


def paper_session(seed: int) -> Workload:
    return Workload(
        "paper_session",
        "the paper's protocol at n=119: six short CLI calls, each paying interpreter "
        "start and the scipy import, so package import dominates",
        setup=(),
        session=(
            synth(119, seed),
            validate(),
            Command(
                "fuse",
                ("fuse", "--cohort", "cohort.csv", "--variable", "nihss",
                 "--strategy", "youden", "--out", "fused.csv"),
                ("fused.csv",),
            ),
            cv("nihss", seed),
            cv("age", seed),
            Command(
                "compare",
                ("compare", "cv_nihss.json", "cv_age.json", "--measure", "auc",
                 "--out", "compare.json"),
                ("compare.json",),
            ),
        ),
    )


def cv_large(seed: int) -> Workload:
    return Workload(
        "cv_large",
        "one cv at n=1000 with searched youden thresholds: 700 threshold searches "
        "dominate and import is a small share",
        setup=(synth(1000, seed),),
        session=(cv("nihss", seed),),
    )


def bulk_fixed(seed: int) -> Workload:
    return Workload(
        "bulk_fixed",
        "synth, validate and fixed-threshold fuse at n=50000: CSV write, read and "
        "per-patient fusion dominate, with no threshold search",
        setup=(),
        session=(
            synth(50_000, seed),
            validate(),
            Command(
                "fuse",
                ("fuse", "--cohort", "cohort.csv", "--variable", "age",
                 "--norm-min", "20", "--norm-max", "95", "--tau", "0.5",
                 "--tau-star", "0.5", "--strategy", "fixed", "--out", "fused.csv"),
                ("fused.csv",),
            ),
        ),
    )


WORKLOADS = {f.__name__: f for f in (paper_session, cv_large, bulk_fixed)}


def workload_seed(seed: int) -> int:
    return seed % N_WORKLOAD_SEEDS
