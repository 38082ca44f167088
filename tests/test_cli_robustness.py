"""The CLI on fuzzed input: it exits 0, 2 or 3, lets no exception escape, and
writes nothing to stderr but ``error: ...`` lines.

Each case is an argument list plus the files it reads, written into a fresh
directory; ``{d}`` in an argument stands for that directory. Cohort CSVs,
JSON configs, synthetic specs and cv summaries are all fuzzed. Counts that
size the work (cohort rows, ``runs``, ``n_patients``) are drawn small, so
every case runs in milliseconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import mrsfuse.cli

OVERSIZED = "x" * 131_073  # one past the csv module's default field size limit
MEASURE_NAMES = ("accuracy", "auc", "f1", "mae", "sensitivity", "specificity", "bogus")

_JUNK_CELLS = [
    "", " ", "x", "nan", "-inf", "inf", "-1", "1e400", "99999999999999999999", "0x10", "1_0",
    '"a, quoted cell"', 'half"quote', '"', "\x00", "a\x00b", "é", "\n", OVERSIZED,
]
_MODULE_COLUMNS = ["p_adc", "p_ADC", "p_dwi", "p_Tmax", "p_", "p_x y"]


def _valid_cell(draw, column: str, row: int) -> str:
    if column == "patient_id":
        return f"id{row}"
    if column == "age":
        return draw(st.sampled_from(["45", "60.5", "82", "71.25", "-0.0"]))
    if column == "nihss":
        return str(draw(st.integers(0, 42)))
    if column == "mrs":
        return str(draw(st.integers(0, 6)))
    return draw(st.sampled_from(["0", "1", "0.5", "0.12", "0.87", "0.4", "1e-9"]))


@st.composite
def cohort_bytes(draw, clean: bool) -> bytes:
    header = ["patient_id", "age", "nihss", "mrs"]
    header += draw(st.lists(st.sampled_from(_MODULE_COLUMNS[2:]), min_size=1, max_size=3, unique=True))
    junk = 0.0
    if not clean:
        if draw(st.integers(0, 7)) == 0:
            header.remove(draw(st.sampled_from(header)))
        header += draw(st.lists(st.sampled_from(_MODULE_COLUMNS[:2] + ["note", "age", ""]), max_size=2))
        junk = draw(st.sampled_from([0.0, 0.02, 0.2]))  # the share of cells replaced by junk
    header = draw(st.permutations(header))
    rows = [header]
    for index in range(draw(st.integers(8 if clean else 0, 24))):
        width = len(header) if clean else draw(st.sampled_from(
            [len(header)] * 6 + [0, max(0, len(header) - 2), len(header) + 1]))
        rows.append([
            draw(st.sampled_from(_JUNK_CELLS)) if junk and draw(st.floats(0, 1)) < junk
            else _valid_cell(draw, header[j] if j < len(header) else "", index)
            for j in range(width)
        ])

    def field(text: str) -> str:
        if any(ch in text for ch in ',"\n') and draw(st.booleans()):
            return '"' + text.replace('"', '""') + '"'
        return text

    data = "".join(",".join(map(field, row)) + "\n" for row in rows).encode("utf-8")
    damage = b"" if clean else draw(st.sampled_from([b"", b"\xef\xbb\xbf", b"\xff"]))
    return damage + data if damage == b"\xef\xbb\xbf" else data + damage


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.sampled_from([10**30, -(10**30), 2**63, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4), st.just([]), st.just({}),
)
# per key, values that are accepted and values of the right JSON type that are not
_CONFIG_VALUES = {
    "variable": (["age", "nihss", "none"], ["NIHSS", ""]),
    "norm_min": ([0, 0.0, 10], [26, -1e308]),
    "norm_max": ([26, 42.0, 30], [10, 1e308]),
    "tau": ([0.4, 0.5, 0.999], [0.0, 1.0]),
    "tau_star": ([0.4, 0.45, 1e-300], [1.5]),
    "strategy": (["youden", "max_accuracy", "fixed"], ["best"]),
    "k": ([2, 3], [-1, 0, 1, 10**30]),
    "runs": ([1, 2], [-1, 0]),  # a loop count: large values are valid and only slow
    "seed": ([0, 5, 2**70], [-2]),
    "stratified": ([True, False], []),
    "format": (["csv", "json"], ["xml"]),
    "cohort": (["{d}/cohort.csv"], ["{d}/missing.csv", "{d}"]),
    "out": (["{d}/out.txt"], ["{d}", "{d}/no/such/dir.txt"]),
}
_SPEC_VALUES = {
    # sizes numpy refuses at once (256 TiB and more); between these and the good ones,
    # generation runs and may exhaust the machine's memory
    "n_patients": ([12, 30], [0, -1, 5.5, 2**45, 2**62, 10**30]),
    "prevalence_poor": ([0.3, 0.5], [0.0, 1.5, float("nan")]),
    "module_aucs": ([[0.7], [0.7, 0.9]], [[], [0.5], [1.0], ["x"], [float("inf")]]),
    "module_names": ([["ADC"], ["adc", "dwi"]], [["adc", "ADC"], [""], ["x,y"], [3]]),
    "rho_age": ([0.0, 0.6, 1.0], [-0.5, 2.0]),
    "rho_nihss": ([0.3], [float("-inf")]),
    "seed": ([0, 3], [-1]),
}


@st.composite
def json_document(draw, values: dict, clean: bool) -> bytes:
    """A JSON object over the given keys, or (when not clean) bad keys, bad values or no object at all."""
    if not clean and draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([b"", b"{", b"[1, 2]", b"null", b"\xff{}", b'{"k": 1e999}', b"1" * 5000]))
    keys = draw(st.lists(st.sampled_from(sorted(values) + ([] if clean else ["bogus"])), unique=True, max_size=5))
    document = {}
    for key in keys:
        good, bad = values.get(key, ([], []))
        kind = 0 if clean else draw(st.integers(0, 5))
        document[key] = draw(st.sampled_from(good) if kind < 3 and good else
                             st.sampled_from(bad) if kind < 5 and bad else _JSON_VALUES)
    return json.dumps(document).encode("utf-8")


def _run_document(draw, index: int, clean: bool) -> object:
    value = st.floats(0, 1) if clean else st.one_of(st.floats(0, 1), _JSON_VALUES)
    metrics = {name: draw(value) for name in MEASURE_NAMES[:-1]}
    if clean:
        return {"run_index": index, "metrics": metrics}
    return draw(st.sampled_from([{"run_index": index, "metrics": metrics}] * 6 + [
        {"run_index": str(index), "metrics": metrics}, {"metrics": metrics}, {"run_index": index},
        [index], None, {"run_index": index, "metrics": [0.5]},
    ]))


@st.composite
def summary_bytes(draw, n_runs: int, clean: bool) -> bytes:
    if not clean and draw(st.integers(0, 9)) == 0:
        return draw(json_document({}, clean=False))
    schedule = {"base_seed": 0, "run_indices": list(range(n_runs))}
    variant = {
        "model": draw(st.sampled_from(["ensemble", "ensemble_w_nihss", None])),
        "seed_schedule": schedule if clean else draw(st.sampled_from([schedule] * 4 + [None, {"base_seed": 1}])),
        "runs": [_run_document(draw, i, clean) for i in range(n_runs)],
    }
    if not clean:
        for key in draw(st.lists(st.sampled_from(["seed_schedule", "runs", "model"]), max_size=1)):
            del variant[key]
    if draw(st.booleans()):
        return json.dumps(variant).encode("utf-8")
    name = draw(st.sampled_from(["ensemble", "ensemble_w_nihss", "ADC"]))
    document = {"primary": name, "variants": {name: variant}}
    if not clean:
        document["primary"] = draw(st.sampled_from([name, name, "other", None, 3]))
        document["variants"] = draw(st.sampled_from([{name: variant}] * 4 + [[], {name: 1}]))
    return json.dumps(document, allow_nan=True).encode("utf-8")


_GOOD_FLAGS = [
    ("--variable", "none"), ("--variable", "age"), ("--strategy", "max_accuracy"), ("--tau", "0.4"),
    ("--tau-star", "0.45"), ("--k", "3"), ("--runs", "2"), ("--seed", "7"), ("--format", "csv"),
    ("--format", "json"), ("--out", "{d}/out.txt"), ("--cohort", "{d}/cohort.csv"),
]
_BAD_FLAGS = [
    ("--strategy", "fixed"), ("--tau", "1.2"), ("--norm-min", "0"), ("--norm-max", "30"), ("--k", "40"),
    ("--out", "{d}"), ("--cohort", "{d}/none.csv"), ("--k", "x"), ("--variable", "height"),
]
_SYNTH_FLAGS = [
    ("--n-patients", "15"), ("--module-names", "adc,ADC"), ("--module-aucs", "0.7,0.7"),
    ("--module-names", "a,b,c"), ("--module-aucs", "0.8"), ("--seed", "2"), ("--prevalence", "0.4"),
]


def _flat(flags: list[tuple[str, str]]) -> list[str]:
    return [part for flag in flags for part in flag]


@st.composite
def cases(draw) -> tuple[tuple[str, ...], tuple[tuple[str, bytes], ...]]:
    command = draw(st.sampled_from(["validate", "fuse", "cv", "compare", "synth"]))
    clean = draw(st.booleans())
    if command == "compare":
        measure = draw(st.sampled_from(MEASURE_NAMES[:-1] if clean else MEASURE_NAMES))
        n_runs = draw(st.integers(1 if clean else 0, 5))
        files = tuple((name, draw(summary_bytes(n_runs, clean))) for name in ("a.json", "b.json"))
        return ("compare", "{d}/a.json", "{d}/b.json", "--measure", measure), files
    if command == "synth":
        flags = draw(st.lists(st.sampled_from(_SYNTH_FLAGS), max_size=3))
        out = "{d}/c.csv" if clean else draw(st.sampled_from(["{d}/c.csv", "{d}"]))
        size = ["--n-patients", "20"] if clean else []  # a spec may leave out the required n_patients
        argv = ["synth", "--spec", "{d}/spec.json", "--out", out, *size, *_flat(flags)]
        return tuple(argv), (("spec.json", draw(json_document(_SPEC_VALUES, clean))),)
    files = [("cohort.csv", draw(cohort_bytes(clean)))]
    argv = [command]
    if draw(st.booleans()):
        files.append(("config.json", draw(json_document(_CONFIG_VALUES, clean))))
        argv += ["--config", "{d}/config.json", "--cohort", "{d}/cohort.csv"]
    else:
        argv += ["--cohort", "{d}/cohort.csv", "--k", "2", "--runs", "1"]
    flags = draw(st.lists(st.sampled_from(_GOOD_FLAGS if clean else _GOOD_FLAGS + _BAD_FLAGS), max_size=4))
    return tuple(argv + _flat(flags)), tuple(files)


def _header_and_rows(*rows: str) -> bytes:
    return ("\n".join(["patient_id,age,nihss,mrs,p_adc", *rows]) + "\n").encode("utf-8")


class TestCliRobustness:
    @settings(max_examples=300, deadline=None)
    @given(cases())
    @example((("validate", "--cohort", "{d}/cohort.csv"), (("cohort.csv", _header_and_rows(f"a,60,5,1,{OVERSIZED}")),)))
    @example((("cv", "--cohort", "{d}/cohort.csv"), (("cohort.csv", _header_and_rows("a,60,5,1,0.3", OVERSIZED)),)))
    @example((("fuse", "--cohort", "{d}/cohort.csv", "--variable", "none"),
              (("cohort.csv", f"patient_id,age,nihss,mrs,{OVERSIZED}\n".encode()),)))
    @example((("synth", "--n-patients", "12", "--module-names", "adc,ADC", "--module-aucs", "0.7,0.7",
               "--out", "{d}/c.csv"), ()))
    @example((("validate", "--cohort", "{d}/cohort.csv"),
              (("cohort.csv", b"patient_id,age,nihss,mrs,p_adc,p_ADC\na,60,5,1,0.3,0.4\n"),)))
    @example((("validate", "--cohort", "{d}/cohort.csv"), (("cohort.csv", _header_and_rows("a\x00,6\x000,5,1,0.3")),)))
    @example((("compare", "{d}/a.json", "{d}/a.json", "--measure", "auc"),
              (("a.json", b'{"seed_schedule": {}, "runs": [{"run_index": 0, "metrics": {"auc": NaN}}]}'),)))
    @example((("synth", "--spec", "{d}/spec.json", "--out", "{d}/c.csv"),
              (("spec.json", json.dumps({"n_patients": 2**62}).encode()),)))
    @example((("compare", "{d}/a.json", "{d}/a.json", "--measure", "mae"),
              (("a.json", json.dumps({"seed_schedule": {}, "runs": [
                  {"run_index": 0, "metrics": {"mae": 10**400}}]}).encode()),)))
    def test_exit_code_and_stderr(self, case):
        argv, files = case
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in files:
                (Path(tmp) / name).write_bytes(data)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = mrsfuse.cli.main([arg.replace("{d}", tmp) for arg in argv])
        assert code in (0, 2, 3)
        lines = stderr.getvalue().splitlines()
        assert all(line.startswith("error: ") for line in lines), lines
        assert (code == 0) == (not lines), (code, lines)
