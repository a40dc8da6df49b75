import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprblab import __version__, cli, errors, stats
from eprblab.cli import main
from conftest import read_manifest, read_sweep_csv, stream
from eprblab.ioformats import read_events, read_pairs, sha256_file, write_events

ROOT = Path(__file__).resolve().parents[1]

SMALL_CONFIG = {
    "kind": "singlet",
    "settings": [
        {"label": "a", "angle_deg": 0.0},
        {"label": "b", "angle_deg": 120.0},
        {"label": "c", "angle_deg": 60.0},
    ],
    "seed": 31,
    "emission_period_ns": 1000,
    "jitter_ns": 40,
    "pairs_per_combination": 300,
    "convention": "anti",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(out[-1]) if out else None
    return code, payload


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def test_pipeline_end_to_end(tmp_path, capsys, config_path):
    out = str(tmp_path / "run")
    code, sim = run(capsys, "simulate", "--config", config_path, "--out", out)
    assert code == 0
    assert sim["t_events"] == sim["l_events"] == 9 * 300
    assert Path(sim["t_file"]).exists() and Path(sim["l_file"]).exists()
    manifest = read_manifest(f"{out}.manifest.json")
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 31
    assert set(manifest["outputs"]) == {sim["t_file"], sim["l_file"]}

    pairs_path = str(tmp_path / "pairs.jsonl")
    code, paired = run(
        capsys, "pair", "--left", sim["t_file"], "--right", sim["l_file"],
        "--window-ns", "100", "--out", pairs_path,
    )
    assert code == 0
    assert paired["pairs"] == 2700  # jitter 40 < window, every emission pairs
    assert paired["unmatched_left"] == paired["unmatched_right"] == 0
    assert len(read_pairs(pairs_path)[2]) == 2700

    tally_path = str(tmp_path / "tally.json")
    code, tallied = run(capsys, "tally", "--pairs", pairs_path, "--out", tally_path)
    assert code == 0
    assert tallied == {"pairs": 2700, "setting_pairs": 9}

    code, verdict = run(
        capsys, "inequalities", "--tally", tally_path,
        "--kind", "bell-wigner", "--ordering", "a,b,c", "--convention", "anti",
    )
    assert code == 0
    assert verdict["kind"] == "bell-wigner"
    assert verdict["violated"] is True
    assert verdict["lhs"] > verdict["rhs"]
    assert verdict["pair_counts"] == {"a;b": 300, "a;c": 300, "c;b": 300}

    for ordering in ("a,b,x", "A,B,C"):  # not setting labels: a usage error, not an empty cell
        code = main(["inequalities", "--tally", tally_path, "--kind", "bell-wigner", "--ordering", ordering, "--convention", "anti"])
        assert code == 2
        assert "--ordering labels must be from" in capsys.readouterr().err


def test_simulate_matches_pinned_digests(tmp_path, capsys):
    golden = json.loads((ROOT / "tests/golden/simulate_digests.json").read_text())
    out = str(tmp_path / "run")
    code, _ = run(capsys, "simulate", "--config", str(ROOT / golden["config"]), "--out", out)
    assert code == 0
    assert sha256_file(f"{out}.T.jsonl") == golden["files"]["T"]
    assert sha256_file(f"{out}.L.jsonl") == golden["files"]["L"]


def test_simulate_seed_override(tmp_path, capsys, config_path):
    code, _ = run(capsys, "simulate", "--config", config_path, "--out", str(tmp_path / "x"))
    assert code == 0
    code, _ = run(capsys, "simulate", "--config", config_path, "--seed", "32", "--out", str(tmp_path / "y"))
    assert code == 0
    assert sha256_file(str(tmp_path / "x.T.jsonl")) != sha256_file(str(tmp_path / "y.T.jsonl"))
    assert read_manifest(str(tmp_path / "y.manifest.json"))["seed"] == 32


def test_sweep_writes_csv(tmp_path, capsys, config_path):
    out = str(tmp_path / "run")
    run(capsys, "simulate", "--config", config_path, "--out", out)
    csv_path = str(tmp_path / "sweep.csv")
    code, summary = run(
        capsys, "sweep", "--left", f"{out}.T.jsonl", "--right", f"{out}.L.jsonl",
        "--windows", "0,50,200", "--kind", "bell-wigner", "--out", csv_path,
    )
    assert code == 0
    assert summary["rows"] == 3
    text = Path(csv_path).read_text().splitlines()
    assert text[0] == "window_ns,pairs,statistic,stderr,violated"
    rows = read_sweep_csv(csv_path)
    assert [r.window_ns for r in rows] == [0, 50, 200]
    assert rows[2].pairs == 2700


def test_enumerate_classes(capsys):
    code, payload = run(capsys, "enumerate", "--M", "3")
    assert code == 0
    assert payload["count"] == 4
    assert len(payload["classes"]) == 4


def test_enumerate_model(capsys):
    code, payload = run(capsys, "enumerate", "--M", "2", "--model", "shared-identified")
    assert code == 0
    assert payload == {
        "M": 2,
        "model": "shared-identified",
        "enumerated_count": 10,
        "closed_form": 9,
        "agrees": False,
    }


ZERO = {"pp": 0, "pm": 0, "mp": 0, "mm": 0}


@pytest.mark.parametrize(
    "kind, ordering, tables, printed",
    [
        # S = 3/7 + 1 + 1 - 3/7 = 2 exactly
        ("chsh", "a,b,c,d",
         {"a;b": {**ZERO, "pp": 5, "pm": 2}, "a;d": {**ZERO, "pm": 7}, "c;b": {**ZERO, "pp": 7},
          "c;d": {**ZERO, "pp": 2, "pm": 5}},
         {"s_value": 2.0000000000000004}),
        # q(a,b) = 2/5 = 1/3 + 1/15 = q(a,c) + q(c,b) exactly, under anti
        ("bell-wigner", "a,b,c",
         {"a;b": {**ZERO, "pp": 2, "pm": 3}, "a;c": {**ZERO, "pp": 1, "pm": 2}, "c;b": {**ZERO, "pp": 1, "pm": 14}},
         {"lhs": 0.4, "rhs": 0.39999999999999997}),
    ],
    ids=["chsh", "bell-wigner"],
)
def test_inequalities_reads_an_exact_tie_as_no_violation(tmp_path, capsys, kind, ordering, tables, printed):
    """A tally that meets the bound exactly is not a violation, although its
    float sums, which are printed as before, land one ulp past the bound."""
    path = tmp_path / "tally.json"
    path.write_text(json.dumps(tables))
    code, payload = run(capsys, "inequalities", "--tally", str(path), "--kind", kind, "--ordering", ordering,
                        "--convention", "anti")
    assert code == 0
    assert payload["violated"] is False
    assert {key: payload[key] for key in printed} == printed


@pytest.mark.parametrize(
    "kind, ordering, tables",
    [
        ("chsh", "a,b,c,d",
         {"a;b": {**ZERO, "pp": 10**309, "pm": 2}, "a;d": {**ZERO, "pm": 7}, "c;b": {**ZERO, "pp": 7},
          "c;d": {**ZERO, "pp": 2, "pm": 5}}),
        ("bell-wigner", "a,b,c",
         {"a;b": {**ZERO, "pp": 10**4298, "pm": 3 * 10**4298}, "a;c": {**ZERO, "pp": 1, "pm": 2},
          "c;b": {**ZERO, "pp": 1, "pm": 14}}),
        ("chsh", "a,b,c,d",
         {"a;b": {**ZERO, "pp": 2**63, "pm": 2}, "a;d": {**ZERO, "pm": 7}, "c;b": {**ZERO, "pp": 7},
          "c;d": {**ZERO, "pp": 2, "pm": 5}}),
    ],
    ids=["chsh-10^309", "bell-wigner-4299-digits", "chsh-2^63"],
)
def test_inequalities_refuses_a_count_of_2_to_the_63_naming_it(tmp_path, capsys, kind, ordering, tables):
    """A count is a number of pairs, and no pairs file holds 2^63 rows.  A
    count past the float range would end in an OverflowError in stats."""
    path = tmp_path / "tally.json"
    path.write_text(json.dumps(tables))
    err = _assert_clean_exit(capsys, ["inequalities", "--tally", str(path), "--kind", kind, "--ordering", ordering,
                                      "--convention", "anti"], 3)
    assert f"{path}: table 'a;b' cell 'pp': must be a nonnegative integer below 2^63, got " in err


def test_inequalities_reads_a_count_of_2_to_the_63_minus_1(tmp_path, capsys):
    path = tmp_path / "tally.json"
    path.write_text(json.dumps({"a;b": {**ZERO, "pp": 2**63 - 1, "pm": 2}, "a;d": {**ZERO, "pm": 7},
                                "c;b": {**ZERO, "pp": 7}, "c;d": {**ZERO, "pp": 2, "pm": 5}}))
    code, payload = run(capsys, "inequalities", "--tally", str(path), "--kind", "chsh", "--ordering", "a,b,c,d",
                        "--convention", "anti")
    assert code == 0
    assert payload["pair_counts"]["a;b"] == 2**63 + 1


def test_feasibility_counts_file(tmp_path, capsys):
    path = tmp_path / "tables.json"
    flat = {"pp": 5, "pm": 5, "mp": 5, "mm": 5}
    path.write_text(json.dumps({"a;b": flat, "a;c": flat, "c;b": flat}))
    code, payload = run(capsys, "feasibility", "--tables", str(path), "--identify-equal-settings")
    assert code == 0
    assert payload["status"] == "feasible"
    assert payload["identify_equal_settings"] is True
    assert payload["convention"] == "equal"
    assert sum(Fraction(w) for w in payload["witness"].values()) == 1


def test_feasibility_counts_file_with_an_all_zero_table_exits_3(tmp_path, capsys):
    """Every table a counts file lists is required: an all-zero one is an
    empty cell, as it is when written as probabilities, not a table to drop."""
    path = tmp_path / "tables.json"
    ones, zeros = {"pp": 1, "pm": 1, "mp": 1, "mm": 1}, {"pp": 0, "pm": 0, "mp": 0, "mm": 0}
    path.write_text(json.dumps({"a;b": ones, "c;d": zeros}))
    err = _assert_clean_exit(capsys, ["feasibility", "--tables", str(path)], 3)
    assert "no counts for measured pair c;d" in err
    assert err == f"error: {path}: no counts for measured pair c;d\n"


def test_a_count_that_is_not_an_integer_is_named_by_both_exact_commands(tmp_path, capsys):
    """One count of 1.5 makes ``feasibility`` read the file as probability
    tables, so its message names that cell before the sum it then fails;
    ``inequalities`` reads every file as counts and names the count rule."""
    path = tmp_path / "tally.json"
    path.write_text(json.dumps({"a;b": {"pp": 1.5, "pm": 1, "mp": 3, "mm": 3}}))
    err = _assert_clean_exit(capsys, ["feasibility", "--tables", str(path)], 3)
    assert err == (
        f"error: {path}: table 'a;b' cell 'pp' is not an integer count, so the file holds probabilities: "
        "table 'a;b' sums to 17/2, expected exactly 1\n"
    )
    argv = ["inequalities", "--tally", str(path), "--kind", "chsh", "--ordering", "a,b,c,d", "--convention", "anti"]
    err = _assert_clean_exit(capsys, argv, 3)
    assert err == f"error: {path}: table 'a;b' cell 'pp': must be a nonnegative integer below 2^63, got 1.5\n"


def test_feasibility_wrapped_probability_file(tmp_path, capsys):
    path = tmp_path / "tables.json"
    eq = {"pp": "3/8", "pm": "1/8", "mp": "1/8", "mm": "3/8"}
    ne = {"pp": "1/8", "pm": "3/8", "mp": "3/8", "mm": "1/8"}
    path.write_text(json.dumps({"convention": "anti", "tables": {"a;b": eq, "a;c": ne, "c;b": ne}}))
    code, payload = run(capsys, "feasibility", "--tables", str(path), "--identify-equal-settings")
    assert code == 0
    assert payload["status"] == "infeasible"
    assert payload["convention"] == "anti"
    assert "certificate" in payload and "witness" not in payload
    # no zero cell, so the presolve drops one implied cell row per table and no column
    assert payload["lp"] == {"rows": 13, "cols": 8, "solved_rows": 10, "solved_cols": 8, "exact_pivots": 6}
    code, payload = run(capsys, "feasibility", "--tables", str(path))
    assert code == 0
    assert payload["status"] == "feasible"


def test_ingest_round_trip(tmp_path, capsys):
    raw = tmp_path / "station.log"
    raw.write_text("# station T\n10 a +1\n25 b -1\n\n40 a 1\n")
    out = str(tmp_path / "events.jsonl")
    code, payload = run(capsys, "ingest", "--raw", str(raw), "--island", "T", "--out", out)
    assert code == 0
    assert payload == {"events": 3, "island": "T", "out": out}
    stream = read_events(out)
    assert stream.t_ns.tolist() == [10, 25, 40]
    assert stream.outcome.tolist() == [1, -1, 1]


def test_ingest_reports_bad_line(tmp_path, capsys):
    raw = tmp_path / "station.log"
    raw.write_text("10 a +1\n25 b maybe\n")
    code = main(["ingest", "--raw", str(raw), "--island", "T", "--out", str(tmp_path / "x.jsonl")])
    err = capsys.readouterr().err
    assert code == 3
    assert "station.log:2:" in err


def test_usage_errors_exit_2(tmp_path, capsys, config_path):
    assert main(["simulate", "--config"]) == 2  # missing value
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SMALL_CONFIG, "mystery": 1}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    out = str(tmp_path / "run")
    run(capsys, "simulate", "--config", config_path, "--out", out)
    args = ["--left", f"{out}.T.jsonl", "--right", f"{out}.L.jsonl"]
    assert main(["pair", *args, "--window-ns", "-5", "--out", str(tmp_path / "p.jsonl")]) == 2
    assert main(["sweep", *args, "--windows", "50,10", "--kind", "chsh", "--out", str(tmp_path / "s.csv")]) == 2
    assert main(["sweep", *args, "--windows", "ten", "--kind", "chsh", "--out", str(tmp_path / "s.csv")]) == 2
    # islands swapped is a usage problem, not a data problem
    assert main(["pair", "--left", f"{out}.L.jsonl", "--right", f"{out}.T.jsonl",
                 "--window-ns", "5", "--out", str(tmp_path / "p.jsonl")]) == 2


def test_data_errors_exit_3(tmp_path, capsys, config_path):
    out = str(tmp_path / "run")
    run(capsys, "simulate", "--config", config_path, "--out", out)
    broken = tmp_path / "broken.jsonl"
    lines = Path(f"{out}.T.jsonl").read_text().splitlines()
    broken.write_text("\n".join([lines[1], lines[0]]) + "\n")  # times out of order
    code = main(["pair", "--left", str(broken), "--right", f"{out}.L.jsonl",
                 "--window-ns", "5", "--out", str(tmp_path / "p.jsonl")])
    assert code == 3
    assert main(["tally", "--pairs", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "t.json")]) == 3


INT64_MAX = 2**63 - 1


def test_pair_window_at_int64_max_matches_every_emission(tmp_path, capsys, config_path):
    out = str(tmp_path / "run")
    run(capsys, "simulate", "--config", config_path, "--out", out)
    for window in (str(INT64_MAX), str(10**30)):
        code, paired = run(
            capsys, "pair", "--left", f"{out}.T.jsonl", "--right", f"{out}.L.jsonl",
            "--window-ns", window, "--out", str(tmp_path / "p.jsonl"),
        )
        assert code == 0
        assert paired == {"pairs": 2700, "unmatched_left": 0, "unmatched_right": 0}


def test_sweep_last_window_int64_max_leaves_smaller_rows_alone(tmp_path, capsys, config_path):
    out = str(tmp_path / "run")
    run(capsys, "simulate", "--config", config_path, "--out", out)
    args = ["--left", f"{out}.T.jsonl", "--right", f"{out}.L.jsonl", "--kind", "bell-wigner"]
    wide, narrow = str(tmp_path / "wide.csv"), str(tmp_path / "narrow.csv")
    assert main(["sweep", *args, "--windows", f"0,20,{INT64_MAX}", "--out", wide]) == 0
    assert main(["sweep", *args, "--windows", "0,20", "--out", narrow]) == 0
    rows = read_sweep_csv(wide)
    assert rows[:2] == read_sweep_csv(narrow)
    assert rows[1].pairs < rows[2].pairs == 2700


def test_sweep_reads_an_equal_convention_run_with_its_convention(tmp_path, capsys):
    """A local wigner-domain run reported in the equal convention sweeps as
    the library sweeps it under that convention; the default (anti) reading
    of the same files shows a violation that is not there."""
    doc = json.loads((ROOT / "configs/wigner_uniform.json").read_text())
    doc.update(total_pairs=600, domain_weights={"++-;++-": "1/2", "+-+;+-+": "1/4", "-++;-++": "1/4"})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", str(config), "--out", out]) == 0
    left, right = read_events(f"{out}.T.jsonl"), read_events(f"{out}.L.jsonl")
    args = ["sweep", "--left", f"{out}.T.jsonl", "--right", f"{out}.L.jsonl", "--windows", "0,1000", "--kind", "bell-wigner"]
    csv_path = str(tmp_path / "sweep.csv")
    for extra, convention in [([], "anti"), (["--convention", "equal"], "equal")]:
        assert main([*args, *extra, "--out", csv_path]) == 0
        rows = read_sweep_csv(csv_path)
        assert rows == stats.sweep_window(left, right, [0, 1000], "bell-wigner", convention=convention)
        assert [row.violated for row in rows] == [convention == "anti"] * 2
        assert read_manifest(csv_path + ".manifest.json")["parameters"]["convention"] == convention
    capsys.readouterr()
    assert main([*args, "--convention", "same", "--out", csv_path]) == 2


def test_commands_do_not_import_numpy_ma(tmp_path, capsys, config_path):
    """ingest, pair, tally and sweep run in a fresh interpreter without
    importing numpy.ma, which costs about 20 ms of start-up."""
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", config_path, "--out", out]) == 0
    stream = read_events(f"{out}.T.jsonl")
    labels = [stream.labels[s] for s in stream.setting_idx.tolist()]
    raw = "".join(f"{t} {s} {o}\n" for t, s, o in zip(stream.t_ns.tolist(), labels, stream.outcome.tolist()))
    (tmp_path / "raw.log").write_text(raw)
    script = f"""
import json, sys
from eprblab.cli import main
streams = ["--left", {out + ".T.jsonl"!r}, "--right", {out + ".L.jsonl"!r}]
codes = [
    main(["ingest", "--raw", "raw.log", "--island", "T", "--out", "ingest.jsonl"]),
    main(["pair", *streams, "--window-ns", "100", "--out", "pairs.jsonl"]),
    main(["tally", "--pairs", "pairs.jsonl", "--out", "tally.json"]),
    main(["sweep", *streams, "--windows", "0,100", "--kind", "chsh", "--out", "sweep.csv"]),
]
print(json.dumps({{"codes": codes, "numpy.ma": "numpy.ma" in sys.modules}}))
"""
    assert _fresh_interpreter(tmp_path, script) == {"codes": [0, 0, 0, 0], "numpy.ma": False}


def _fresh_interpreter(tmp_path, script: str):
    """The last stdout line of script, run by a new interpreter in tmp_path, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_exact_commands_do_not_load_numpy(tmp_path):
    """feasibility on each tables layout (tally counts, probabilities, and
    either wrapped with a convention), enumerate, inequalities and a usage
    error run in a fresh interpreter without loading numpy, which is about
    half of a command's start-up, dataclasses and the inspect module it
    imports, or hashlib and the OpenSSL module behind it, which only the
    commands that write or digest a file use."""
    ones = {"pp": 3, "pm": 1, "mp": 1, "mm": 3}
    (tmp_path / "tally.json").write_text(json.dumps({"a;b": ones, "a;c": ones, "c;b": ones}))
    (tmp_path / "probs.json").write_text(json.dumps({"a;b": {"pp": "1/2", "pm": 0, "mp": 0, "mm": "1/2"}}))
    wrapped = {"convention": "anti", "tables": {"a;b": ones, "c;d": ones}}
    (tmp_path / "wrapped.json").write_text(json.dumps(wrapped))
    script = """
import json, sys
from eprblab.cli import main
codes = [
    main(["feasibility", "--tables", "tally.json", "--identify-equal-settings"]),
    main(["feasibility", "--tables", "probs.json"]),
    main(["feasibility", "--tables", "wrapped.json"]),
    main(["enumerate", "--M", "9", "--model", "shared-identified"]),
    main(["enumerate", "--M", "9"]),
    main(["inequalities", "--tally", "tally.json", "--kind", "bell-wigner", "--ordering", "a,b,c",
          "--convention", "anti"]),
    main(["enumerate", "--M", "0", "--model", "shared"]),
]
loaded = sorted(m for m in ("numpy._core", "dataclasses", "inspect", "hashlib", "_hashlib") if m in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""
    assert _fresh_interpreter(tmp_path, script) == {"codes": [0, 0, 0, 0, 0, 0, 2], "loaded": []}


def test_exact_commands_run_without_numpy(tmp_path, config_path):
    """Where numpy is not installed (``find_spec`` returns None for it, as
    with ``sys.modules["numpy"] = None``), the exact commands still run, and
    an array command exits 2 with one line that names numpy."""
    ones = {"pp": 3, "pm": 1, "mp": 1, "mm": 3}
    (tmp_path / "tally.json").write_text(json.dumps({"a;b": ones, "a;c": ones, "c;b": ones}))
    script = f"""
import contextlib, io, json, sys
sys.modules["numpy"] = None
from eprblab.cli import main
codes = [
    main(["feasibility", "--tables", "tally.json"]),
    main(["enumerate", "--M", "9", "--model", "shared-identified"]),
    main(["inequalities", "--tally", "tally.json", "--kind", "bell-wigner", "--ordering", "a,b,c",
          "--convention", "anti"]),
]
err = io.StringIO()
with contextlib.redirect_stderr(err):
    codes.append(main(["simulate", "--config", {config_path!r}, "--out", "run"]))
print(json.dumps({{"codes": codes, "err": err.getvalue()}}))
"""
    assert _fresh_interpreter(tmp_path, script) == {
        "codes": [0, 0, 0, 2], "err": "error: numpy is required for array commands but is not installed\n"}


def test_numpy_loads_on_first_array_use(tmp_path):
    """Importing eprblab leaves numpy unloaded; reading an event file loads it."""
    write_events(str(tmp_path / "events.jsonl"), stream("T", [(5, "a", 1), (9, "b", -1)]))
    script = """
import json, sys
import eprblab
from eprblab.ioformats import read_events
before = "numpy._core" in sys.modules
events = len(read_events("events.jsonl"))
print(json.dumps({"before": before, "after": "numpy._core" in sys.modules, "events": events}))
"""
    assert _fresh_interpreter(tmp_path, script) == {"before": False, "after": True, "events": 2}


def test_lazy_numpy_is_the_proxy_once_numpy_is_imported(tmp_path):
    """Where numpy is already loaded, the package's np is still the proxy, and
    every attribute it hands out is numpy's own, so isinstance checks hold."""
    script = """
import json
import numpy
from eprblab._lazy import np
same = [np.ndarray is numpy.ndarray, np.int64 is numpy.int64, np.random is numpy.random]
kept = "ndarray" in vars(np)
held = isinstance(np.zeros(2), numpy.ndarray) and isinstance(numpy.ones(2), np.ndarray)
print(json.dumps({"type": type(np).__name__, "same": same, "kept": kept, "isinstance": held}))
"""
    assert _fresh_interpreter(tmp_path, script) == {
        "type": "_Numpy", "same": [True, True, True], "kept": True, "isinstance": True}


def test_lazy_numpy_registers_nothing_until_used(tmp_path):
    """Importing the CLI leaves numpy out of sys.modules; once numpy is
    imported, the package's np gives numpy's own attributes."""
    script = """
import json, sys
import eprblab.cli
from eprblab import _lazy
before = "numpy" in sys.modules
import numpy
print(json.dumps({"before": before, "same": _lazy.np.ndarray is numpy.ndarray}))
"""
    assert _fresh_interpreter(tmp_path, script) == {"before": False, "same": True}


# the package's import layers, lowest first: a module imports only from layers below its own
IMPORT_LAYERS = (("errors", "_lazy"), ("model",), ("pairing", "sources", "counting", "feasibility"), ("stats",),
                 ("ioformats",), ("cli",))
CORE = {"errors", "_lazy", "model"}  # what importing model loads


def _loaded_by(tmp_path, module: str):
    """The eprblab modules a fresh interpreter holds after importing module,
    and whether numpy was loaded."""
    script = f"""
import json, sys
import {module}
print(json.dumps([sorted(m[8:] for m in sys.modules if m.startswith("eprblab.")), "numpy._core" in sys.modules]))
"""
    modules, numpy = _fresh_interpreter(tmp_path, script)
    return set(modules), numpy


@pytest.mark.parametrize(
    "module, want",
    [
        ("eprblab", set()),
        ("eprblab.feasibility", CORE | {"feasibility"}),
        ("eprblab.counting", CORE | {"counting"}),
        ("eprblab.stats", CORE | {"pairing", "stats"}),
        ("eprblab.ioformats", CORE | {"ioformats"}),
    ],
    ids=["eprblab", "feasibility", "counting", "stats", "ioformats"],
)
def test_an_import_loads_only_the_modules_it_uses(tmp_path, module, want):
    """The package loads no module until a name is used; the exact decision
    and the class count need no matcher, sampler or file format, and the
    file formats need no statistics."""
    assert _loaded_by(tmp_path, module) == (want, False)


@pytest.mark.parametrize(
    "argv, want",
    [
        (None, set()),
        (["enumerate", "--M", "9", "--model", "shared-identified"], {"counting"}),
        (["feasibility", "--tables", "tally.json"], {"feasibility"}),
        (["inequalities", "--tally", "tally.json", "--kind", "bell-wigner", "--ordering", "a,b,c",
          "--convention", "anti"], {"feasibility", "stats", "pairing"}),
        (["ingest", "--raw", "raw.log", "--island", "T", "--out", "events.jsonl"], {"ioformats"}),
    ],
    ids=["import", "enumerate", "feasibility", "inequalities", "ingest"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, want):
    """Importing the CLI loads only errors, _lazy and model; a command then
    loads only the modules it calls into.  The exact commands read their
    tally and table files in feasibility, so they never load ioformats."""
    ones = {"pp": 3, "pm": 1, "mp": 1, "mm": 3}
    (tmp_path / "tally.json").write_text(json.dumps({"a;b": ones, "a;c": ones, "c;b": ones}))
    (tmp_path / "raw.log").write_text("5 a 1\n9 b -1\n")
    script = f"""
import json, sys
from eprblab.cli import main
code = None if {argv!r} is None else main({argv!r})
print(json.dumps([code, sorted(m[8:] for m in sys.modules if m.startswith("eprblab."))]))
"""
    code, loaded = _fresh_interpreter(tmp_path, script)
    assert (code, set(loaded)) == (None if argv is None else 0, CORE | {"cli"} | want)


@pytest.mark.parametrize("level, module", [pytest.param(i, m, id=m) for i, layer in enumerate(IMPORT_LAYERS) for m in layer])
def test_each_module_imports_only_layers_below_its_own(tmp_path, level, module):
    below = {m for layer in IMPORT_LAYERS[:level] for m in layer}
    loaded, numpy = _loaded_by(tmp_path, f"eprblab.{module}")
    assert module in loaded and loaded - {module} <= below
    assert not numpy


def test_package_exports_resolve_to_their_defining_modules():
    """Every public name comes from the module that defines it, is listed
    by dir(), and a submodule of the same package stays importable by name."""
    import eprblab

    names = [name for name in eprblab.__all__ if name != "__version__"]
    assert len(set(names)) == len(names) == 59
    for name in names:
        obj = getattr(eprblab, name)
        assert obj is getattr(sys.modules[obj.__module__], name)
        assert obj.__module__.startswith("eprblab.")
    assert set(eprblab.__all__) <= set(dir(eprblab))
    from eprblab import feasibility, joint_feasibility

    assert feasibility is sys.modules["eprblab.feasibility"]
    assert joint_feasibility is feasibility.joint_feasibility
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        eprblab.nothing


# every package error, and one added later
ERRORS = [
    *(obj for obj in vars(errors).values() if isinstance(obj, type) and issubclass(obj, errors.EprbLabError)),
    type("LaterError", (errors.EprbLabError,), {}),
]
EXIT_BY_ERROR = {"InternalInvariantError": 4, "ConfigParseError": 2, "ConfigMismatchError": 2, "TooLargeError": 2}


@pytest.mark.parametrize("error", ERRORS, ids=lambda cls: cls.__name__)
def test_every_package_error_exits_with_its_code_and_no_traceback(monkeypatch, capsys, error):
    """Exit codes follow the error hierarchy, so the base class and any
    error added later exit cleanly with 3, the data-error code."""
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_enumerate", fail)
    code = EXIT_BY_ERROR.get(error.__name__, 3)
    err = _assert_clean_exit(capsys, ["enumerate", "--M", "1"], code)
    assert err == ("internal error: " if code == 4 else "error: ") + f"{error('boom')}\n"


def _assert_clean_exit(capsys, argv, want):
    assert main(argv) == want
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def test_event_time_beyond_int64_exits_3_with_line(tmp_path, capsys):
    events = tmp_path / "t.jsonl"
    events.write_text(
        '{"island":"T","t_ns":5,"setting":"a","outcome":1}\n'
        '{"island":"T","t_ns":9223372036854775808,"setting":"a","outcome":1}\n'
    )
    right = tmp_path / "l.jsonl"
    right.write_text('{"island":"L","t_ns":5,"setting":"b","outcome":1}\n')
    err = _assert_clean_exit(capsys, ["pair", "--left", str(events), "--right", str(right),
                                      "--window-ns", "5", "--out", str(tmp_path / "p.jsonl")], 3)
    assert "t.jsonl:2:" in err
    raw = tmp_path / "station.log"
    raw.write_text("5 a 1\n9223372036854775808 a 1\n")
    err = _assert_clean_exit(capsys, ["ingest", "--raw", str(raw), "--island", "T",
                                      "--out", str(tmp_path / "e.jsonl")], 3)
    assert "station.log:2:" in err


def test_pairs_file_with_bool_or_float_outcomes_exits_3(tmp_path, capsys):
    doc = {"t_left_ns": 5, "t_right_ns": 6, "setting_left": "a", "setting_right": "b",
           "outcome_left": True, "outcome_right": 1.0, "window_ns": 3}
    pairs = tmp_path / "p.jsonl"
    pairs.write_text(json.dumps(doc) + "\n")
    err = _assert_clean_exit(capsys, ["tally", "--pairs", str(pairs), "--out", str(tmp_path / "t.json")], 3)
    assert "p.jsonl:1:" in err


def test_json_integer_too_long_to_convert_exits_3(tmp_path, capsys):
    """An integer past the interpreter's digit limit is bad data, not a usage
    error, and the event-file case names its line."""
    huge = "9" * 5001
    events = tmp_path / "t.jsonl"
    events.write_text(f'{{"island":"T","t_ns":{huge},"setting":"a","outcome":1}}\n')
    right = tmp_path / "l.jsonl"
    right.write_text('{"island":"L","t_ns":5,"setting":"b","outcome":1}\n')
    err = _assert_clean_exit(capsys, ["pair", "--left", str(events), "--right", str(right),
                                      "--window-ns", "5", "--out", str(tmp_path / "p.jsonl")], 3)
    assert "t.jsonl:1:" in err
    tables = tmp_path / "tables.json"
    tables.write_text(f'{{"a;b": {{"pp": {huge}, "pm": 0, "mp": 0, "mm": 0}}}}')
    _assert_clean_exit(capsys, ["feasibility", "--tables", str(tables)], 3)


def test_non_utf8_line_exits_3_with_line(tmp_path, capsys):
    good = '{"island":"T","t_ns":5,"setting":"a","outcome":1}\n'.encode()
    events = tmp_path / "t.jsonl"
    events.write_bytes(good + b'{"island":"T","t_ns":\xff}\n')
    right = tmp_path / "l.jsonl"
    right.write_text('{"island":"L","t_ns":5,"setting":"b","outcome":1}\n')
    err = _assert_clean_exit(capsys, ["pair", "--left", str(events), "--right", str(right),
                                      "--window-ns", "5", "--out", str(tmp_path / "p.jsonl")], 3)
    assert "t.jsonl:2:" in err
    pairs = tmp_path / "p.jsonl"
    pairs.write_bytes(b'{"t_left_ns":5,"t_right_ns":6,"setting_left":"a","setting_right":"b",'
                      b'"outcome_left":1,"outcome_right":1,"window_ns":3}\n\xff\n')
    err = _assert_clean_exit(capsys, ["tally", "--pairs", str(pairs), "--out", str(tmp_path / "t.json")], 3)
    assert "p.jsonl:2:" in err
    raw = tmp_path / "station.log"
    raw.write_bytes(b"5 a 1\n9 \xe9 1\n")
    err = _assert_clean_exit(capsys, ["ingest", "--raw", str(raw), "--island", "T",
                                      "--out", str(tmp_path / "e.jsonl")], 3)
    assert "station.log:2:" in err
    tables = tmp_path / "tables.json"
    tables.write_bytes(b'{"a;b": "\xff"}')
    _assert_clean_exit(capsys, ["feasibility", "--tables", str(tables)], 3)


@pytest.mark.parametrize("window", ["true", "2.5"])
def test_pairs_file_with_non_integer_window_exits_3(tmp_path, capsys, window):
    pairs = tmp_path / "p.jsonl"
    pairs.write_text(
        '{"t_left_ns":5,"t_right_ns":6,"setting_left":"a","setting_right":"b",'
        f'"outcome_left":1,"outcome_right":1,"window_ns":{window}}}\n'
    )
    err = _assert_clean_exit(capsys, ["tally", "--pairs", str(pairs), "--out", str(tmp_path / "t.json")], 3)
    assert "p.jsonl:1:" in err
    assert "window_ns must be an integer" in err


@pytest.mark.parametrize("repeat", ["T", "L"])
def test_pairs_file_repeating_a_detection_exits_3(tmp_path, capsys, repeat):
    """A detection is paired at most once: a row that names an earlier
    row's T (or L) event again is bad data, not a second count."""
    rows = [(5, 6), (20, 21), (5, 31) if repeat == "T" else (30, 6)]
    pairs = tmp_path / "p.jsonl"
    pairs.write_text("".join(
        f'{{"t_left_ns":{tl},"t_right_ns":{tr},"setting_left":"a","setting_right":"b",'
        f'"outcome_left":1,"outcome_right":1,"window_ns":30}}\n'
        for tl, tr in rows
    ))
    err = _assert_clean_exit(capsys, ["tally", "--pairs", str(pairs), "--out", str(tmp_path / "t.json")], 3)
    assert "p.jsonl:3:" in err
    assert f"{repeat} detection at t_ns {5 if repeat == 'T' else 6} is already paired on line 1" in err
    assert not (tmp_path / "t.json").exists()


def test_empty_pairs_file_tallies_to_nothing(tmp_path, capsys):
    pairs = tmp_path / "p.jsonl"
    pairs.write_text("")
    out = tmp_path / "t.json"
    code, payload = run(capsys, "tally", "--pairs", str(pairs), "--out", str(out))
    assert code == 0
    assert payload == {"pairs": 0, "setting_pairs": 0}
    assert out.read_text() == "{}\n"


def test_traced_entry_points_are_the_library_functions(monkeypatch):
    """The CLI and the matcher call the library functions under their own
    names, which is what per-function tracing keys on.  Every function cli
    binds from another module names a function its owner defines, and
    calling cli's name calls whatever the owner holds under that name (cli
    binds forwarders, which import the owner on their first call)."""
    import importlib
    import inspect

    from eprblab import model, pairing

    bound = {name: fn for name, fn in vars(cli).items() if inspect.isfunction(fn) and fn.__module__ != cli.__name__}
    # among them, every name that a per-layer benchmark metric is read from
    assert set(bound) >= {
        "read_events", "read_raw_station", "write_events", "write_pairs_indexed", "read_pairs", "sha256_file",
        "write_manifest", "tally", "sweep_window", "match_pairs_indexed", "generate", "joint_feasibility",
        "count_triple_classes",
    }
    for name, fn in bound.items():
        owner = importlib.import_module(fn.__module__)
        real = getattr(owner, fn.__name__)
        assert inspect.isfunction(real) and real.__module__ == owner.__name__
        assert fn.__name__ == name and fn.__qualname__ == real.__qualname__
        if fn is real:
            continue
        sentinel = object()
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: (sentinel, args, kwargs))
        assert fn(1, key=2) == (sentinel, (1,), {"key": 2}), name
    fn = pairing.require_valid_stream
    assert fn is model.require_valid_stream
    assert fn.__name__ == "require_valid_stream" and fn.__module__ == model.__name__


MANIFEST_GOLDEN = ROOT / "tests/golden/manifest_digests.json"


def _manifest_pipeline(golden: dict) -> dict:
    """Run simulate, ingest (T through the per-line reader, L through the
    strict one), pair, tally and sweep in the working directory with
    relative paths; return each manifest's inputs and outputs by file name."""
    doc = json.loads((ROOT / golden["config"]).read_text())
    Path("config.json").write_text(json.dumps(dict(doc, total_pairs=golden["total_pairs"])))
    assert main(["simulate", "--config", "config.json", "--out", "run"]) == 0
    for island in "TL":
        stream = read_events(f"run.{island}.jsonl")
        labels = [stream.labels[s] for s in stream.setting_idx.tolist()]
        lines = [f"{t} {s} {o:+d}\n" for t, s, o in zip(stream.t_ns.tolist(), labels, stream.outcome.tolist())]
        header = "# station T\n" if island == "T" else ""
        Path(f"raw.{island}.log").write_text(header + "".join(lines))
        argv = ["ingest", "--raw", f"raw.{island}.log", "--island", island, "--out", f"ingest.{island}.jsonl"]
        assert main(argv) == 0
    streams = ["--left", "ingest.T.jsonl", "--right", "ingest.L.jsonl"]
    assert main(["pair", *streams, "--window-ns", "1000", "--out", "pairs.jsonl"]) == 0
    assert main(["tally", "--pairs", "pairs.jsonl", "--out", "tally.json"]) == 0
    assert main(["sweep", *streams, "--windows", "100,1000,10000", "--kind", "chsh", "--out", "sweep.csv"]) == 0
    names = ["run", "ingest.T.jsonl", "ingest.L.jsonl", "pairs.jsonl", "tally.json", "sweep.csv"]
    return {
        f"{name}.manifest.json": {key: read_manifest(f"{name}.manifest.json")[key] for key in ("inputs", "outputs")}
        for name in names
    }


def test_manifest_digests_match_golden(tmp_path, capsys, monkeypatch):
    """Every manifest names the digests of exactly the bytes its command read
    and wrote, and those digests are pinned."""
    golden = json.loads(MANIFEST_GOLDEN.read_text())
    monkeypatch.chdir(tmp_path)
    manifests = _manifest_pipeline(golden)
    assert manifests == golden["manifests"]
    for manifest in manifests.values():
        for path, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
            assert sha256_file(path) == digest, path


def test_manifest_keys_are_in_order_and_mappings_sorted(tmp_path, capsys, config_path):
    """A manifest holds its keys in one order and each of its three mappings
    sorted by key, whatever order the command gave them in."""
    out = str(tmp_path / "run")
    assert run(capsys, "simulate", "--config", config_path, "--out", out)[0] == 0
    left, right = f"{out}.T.jsonl", f"{out}.L.jsonl"
    pairs_path = str(tmp_path / "pairs.jsonl")
    argv = ["pair", "--left", left, "--right", right, "--window-ns", "100", "--out", pairs_path]
    assert run(capsys, *argv)[0] == 0
    keys = ["command", "seed", "config_digest", "inputs", "outputs", "parameters", "tool_version", "wall_time_s"]
    simulated, paired = read_manifest(f"{out}.manifest.json"), read_manifest(f"{pairs_path}.manifest.json")
    for manifest in (simulated, paired):
        assert list(manifest) == keys
        assert manifest["tool_version"] == __version__
    assert list(simulated["inputs"]) == [config_path]
    assert simulated["config_digest"] == simulated["inputs"][config_path] == sha256_file(config_path)
    assert list(simulated["outputs"]) == [right, left]
    assert list(simulated["parameters"]) == ["emissions", "kind"]
    assert (paired["seed"], paired["config_digest"]) == (None, None)
    assert list(paired["inputs"]) == [right, left]
    assert list(paired["parameters"]) == ["unmatched_left", "unmatched_right", "window_ns"]
    assert Path(f"{pairs_path}.manifest.json").read_text() == json.dumps(paired, indent=2) + "\n"


def test_config_integer_too_long_to_convert_exits_2_naming_config(tmp_path, capsys):
    doc = json.loads((ROOT / "configs/singlet_bell.json").read_text())
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace(f'"seed": {doc["seed"]}', '"seed": ' + "7" * 5001))
    err = _assert_clean_exit(capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "run")], 2)
    assert f"config {path}: invalid JSON" in err


def test_config_not_utf8_exits_2_naming_config(tmp_path, capsys):
    raw = (ROOT / "configs/singlet_bell.json").read_bytes()
    path = tmp_path / "config.json"
    path.write_bytes(raw.replace(b'"singlet"', b'"singl\xe9t"'))
    err = _assert_clean_exit(capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "run")], 2)
    assert f"config {path}: not valid UTF-8" in err


def test_feasibility_zero_denominator_exits_3(tmp_path, capsys):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps({"a;b": {"pp": "1/0", "pm": "0", "mp": "0", "mm": "0"}}))
    err = _assert_clean_exit(capsys, ["feasibility", "--tables", str(path)], 3)
    assert "zero denominator" in err


def test_simulate_zero_denominator_weight_exits_2(tmp_path, capsys):
    doc = json.loads((ROOT / "configs/wigner_uniform.json").read_text())
    doc["domain_weights"]["+++;+++"] = "1/0"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    err = _assert_clean_exit(capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "x")], 2)
    assert "zero denominator" in err


def test_feasibility_huge_decimal_exponent_exits_3_at_once(tmp_path):
    """Fraction would build 10^99999999 for this 59-byte file; the exponent
    is refused first, naming its table and cell."""
    path = tmp_path / "tables.json"
    path.write_text('{"a;b": {"pp": "1e-99999999", "pm": "1", "mp": 0, "mm": 0}}')
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "eprblab.cli", "feasibility", "--tables", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == (f"error: {path}: table 'a;b' cell 'pp': not a probability: '1e-99999999' "
                           "has a decimal exponent over 4300 in magnitude\n")


def _long_int(digits: str) -> int:
    """int(digits) for any number of digits; int() refuses text of over 4300."""
    value = 0
    for k in range(0, len(digits), 1000):
        value = value * 10 ** len(digits[k : k + 1000]) + int(digits[k : k + 1000])
    return value


NEAR_ONE = {"pp": "1e-4300", "pm": "0." + "9" * 4300, "mp": 0, "mm": 0}
P, Q = 10**3000 + 19, 10**3000 + 41  # each table's entries are within the bounds; their product is not


@pytest.mark.parametrize(
    "tables",
    [
        {"a;b": NEAR_ONE},
        {
            "a;b": {"pp": f"1/{P}", "pm": f"{P - 1}/{P}", "mp": 0, "mm": 0},
            "a;c": {"pp": f"1/{Q}", "pm": f"{Q - 1}/{Q}", "mp": 0, "mm": 0},
        },
    ],
    ids=["one-table-4301-digit-denominator", "two-tables-6001-digit-denominator"],
)
def test_feasibility_prints_a_witness_of_any_length(tmp_path, capsys, tables):
    """A feasible answer whose weights have more digits than Python prints
    from an int prints in full, and the printed weights reproduce the tables."""
    from eprblab.feasibility import marginalize, read_tables
    from eprblab.model import WignerDomainDistribution, domain_key_from_string

    path = tmp_path / "tables.json"
    path.write_text(json.dumps(tables))
    code, payload = run(capsys, "feasibility", "--tables", str(path))
    assert code == 0 and payload["status"] == "feasible"
    weights = {}
    for key, text in payload["witness"].items():
        p, _, q = text.partition("/")
        weights[domain_key_from_string(key)] = Fraction(_long_int(p), _long_int(q or "1"))
    assert max(len(text) for text in payload["witness"].values()) > 4300
    expected, _ = read_tables(str(path))
    witness = WignerDomainDistribution.from_partial(weights, settings=tuple(payload["settings"]))
    assert marginalize(witness, expected.measured_pairs(), False, "equal").tables == expected.tables


def test_feasibility_table_off_by_a_4300_digit_sum_exits_3_naming_it(tmp_path, capsys):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps({"a;b": dict(NEAR_ONE, pm="1")}))
    err = _assert_clean_exit(capsys, ["feasibility", "--tables", str(path)], 3)
    total = "1" + "0" * 4299 + "1/1" + "0" * 4300  # 1 + 10^-4300
    assert err == (
        f"error: {path}: table 'a;b' cell 'pp' is not an integer count, so the file holds probabilities: "
        f"table 'a;b' sums to {total}, expected exactly 1\n"
    )


def test_simulate_huge_decimal_exponent_weight_exits_2(tmp_path, capsys):
    doc = json.loads((ROOT / "configs/wigner_uniform.json").read_text())
    doc["domain_weights"]["+++;+++"] = "1e-3000000"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    err = _assert_clean_exit(capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "x")], 2)
    assert "domain_weights: not a probability: '1e-3000000' has a decimal exponent over 4300" in err


ALLOCATION_FAILURE = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type int64"


@pytest.mark.parametrize("message", [ALLOCATION_FAILURE, ""], ids=["numpy", "bare"])
def test_simulate_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch, message):
    """A config whose arrays do not fit in memory passes the config checks;
    the MemoryError is a usage error, reported without a traceback.
    ``generate`` is replaced by one that raises, so nothing is allocated."""
    doc = json.loads((ROOT / "configs/local_delay_chsh.json").read_text()) | {"total_pairs": 10**12}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))

    def generate(config):
        assert config.n_emissions() == 10**12
        raise MemoryError(message)

    monkeypatch.setattr(cli, "generate", generate)
    err = _assert_clean_exit(capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "x")], 2)
    assert err == "error: out of memory" + (f": {message}" if message else "") + "\n"


# ---------------------------------------------------------------------------
# bounded structured fuzz: every input exits 0, 2 or 3 without a traceback

ODD_VALUES = st.one_of(
    st.sampled_from([INT64_MAX, 2**63, 2**64, -(2**63), 10**30, -1, 0, True, False, None,
                     "1/0", "-3/0", "0/0", "1/2", "a", "T", "", [], {}]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _maybe(valid):
    """Mostly well-formed values, sometimes an odd one."""
    return st.one_of(valid, valid, ODD_VALUES)


def _event_lines(island):
    row = st.fixed_dictionaries({
        "island": _maybe(st.just(island)),
        "t_ns": _maybe(st.integers(0, 50)),
        "setting": _maybe(st.sampled_from("abcd")),
        "outcome": _maybe(st.sampled_from((1, -1))),
    })
    return st.lists(row, max_size=6)


def _fuzz_main(argv_for, codes=(0, 2, 3)):
    """Write the drawn files to a fresh directory, run the command, and check
    that it exits with one of ``codes`` and prints no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = argv_for(Path(tmp))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in codes, err.getvalue()
    assert "Traceback" not in err.getvalue()


def _jsonl(rows):
    return "".join(json.dumps(r) + "\n" for r in rows)


@settings(deadline=None, max_examples=25)
@given(t_rows=_event_lines("T"), l_rows=_event_lines("L"),
       window=st.one_of(st.integers(-1, 100), st.sampled_from([INT64_MAX, 2**64, 10**30])))
def test_fuzz_pair(t_rows, l_rows, window):
    def argv_for(tmp):
        (tmp / "t.jsonl").write_text(_jsonl(t_rows))
        (tmp / "l.jsonl").write_text(_jsonl(l_rows))
        return ["pair", "--left", str(tmp / "t.jsonl"), "--right", str(tmp / "l.jsonl"),
                "--window-ns", str(window), "--out", str(tmp / "p.jsonl")]

    _fuzz_main(argv_for)


@settings(deadline=None, max_examples=25)
@given(rows=st.lists(st.tuples(_maybe(st.integers(0, 50)), _maybe(st.sampled_from("abcd")),
                               _maybe(st.sampled_from(("1", "+1", "-1")))), max_size=6))
def test_fuzz_ingest(rows):
    def argv_for(tmp):
        (tmp / "raw.log").write_text("".join(f"{t} {s} {o}\n" for t, s, o in rows))
        return ["ingest", "--raw", str(tmp / "raw.log"), "--island", "L", "--out", str(tmp / "e.jsonl")]

    _fuzz_main(argv_for)


@settings(deadline=None, max_examples=25)
@given(rows=st.lists(st.fixed_dictionaries({
    "t_left_ns": _maybe(st.integers(0, 50)),
    "t_right_ns": _maybe(st.integers(0, 50)),
    "setting_left": _maybe(st.sampled_from("abcd")),
    "setting_right": _maybe(st.sampled_from("abcd")),
    "outcome_left": _maybe(st.sampled_from((1, -1))),
    "outcome_right": _maybe(st.sampled_from((1, -1))),
    "window_ns": _maybe(st.just(100)),
}), max_size=6))
def test_fuzz_tally(rows):
    def argv_for(tmp):
        (tmp / "p.jsonl").write_text(_jsonl(rows))
        return ["tally", "--pairs", str(tmp / "p.jsonl"), "--out", str(tmp / "t.json")]

    _fuzz_main(argv_for)


@settings(deadline=None, max_examples=25)
@given(
    tables=st.dictionaries(
        st.sampled_from(["a;b", "a;c", "c;b", "b;b"]),
        st.fixed_dictionaries({c: _maybe(st.sampled_from(["1/4", "1/2", "0", 0, 1, 3]))
                               for c in ("pp", "pm", "mp", "mm")}),
        max_size=3,
    ),
    convention=st.sampled_from([None, "anti", "equal", "sideways"]),
    identify=st.booleans(),
)
def test_fuzz_feasibility(tables, convention, identify):
    def argv_for(tmp):
        doc = tables if convention is None else {"convention": convention, "tables": tables}
        (tmp / "tables.json").write_text(json.dumps(doc))
        return ["feasibility", "--tables", str(tmp / "tables.json")] + (["--identify-equal-settings"] if identify else [])

    _fuzz_main(argv_for)


@settings(deadline=None, max_examples=25)
@given(M=st.one_of(st.integers(1, 40), st.sampled_from([0, -1, 215, 10**30])),
       model=st.sampled_from([None, "independent", "shared", "shared-identified"]))
def test_fuzz_enumerate(M, model):
    _fuzz_main(lambda tmp: ["enumerate", "--M", str(M)] + ([] if model is None else ["--model", model]))


@settings(deadline=None, max_examples=25)
@given(
    tables=st.dictionaries(
        st.sampled_from(["a;b", "a;c", "c;b", "b;c", "b;a", "d;a", "c;d", "b;b", "x;y", "a;b;c", "ab", ""]),
        st.fixed_dictionaries({c: _maybe(st.one_of(st.integers(0, 20), st.sampled_from([2**63 - 1, 2**63, 10**309])))
                               for c in ("pp", "pm", "mp", "mm")}),
        max_size=5,
    ),
    wrap=st.sampled_from([None, "equal", "anti"]),
    kind=st.sampled_from(["bell-wigner", "chsh"]),
    ordering=st.one_of(st.lists(st.sampled_from(["a", "b", "c", "d", "x", " a", ""]), max_size=5).map(",".join),
                       st.sampled_from(["a,b,c", "c,b,a", "a,b,c,d", "d,c,b,a", "a,a,b", ",,,"])),
    convention=st.sampled_from(["equal", "anti", "sideways"]),
)
def test_fuzz_inequalities(tables, wrap, kind, ordering, convention):
    def argv_for(tmp):
        doc = tables if wrap is None else {"convention": wrap, "tables": tables}
        (tmp / "tally.json").write_text(json.dumps(doc))
        return ["inequalities", "--tally", str(tmp / "tally.json"), "--kind", kind,
                "--ordering", ordering, "--convention", convention]

    _fuzz_main(argv_for)


@settings(deadline=None, max_examples=25)
@given(t_rows=_event_lines("T"), l_rows=_event_lines("L"),
       windows=st.lists(st.one_of(st.integers(-5, 100), st.sampled_from([INT64_MAX, 2**64, 10**30, -(2**64)])),
                        max_size=5),
       kind=st.sampled_from(["bell-wigner", "chsh"]))
def test_fuzz_sweep(t_rows, l_rows, windows, kind):
    def argv_for(tmp):
        (tmp / "t.jsonl").write_text(_jsonl(t_rows))
        (tmp / "l.jsonl").write_text(_jsonl(l_rows))
        return ["sweep", "--left", str(tmp / "t.jsonl"), "--right", str(tmp / "l.jsonl"),
                "--windows", ",".join(map(str, windows)), "--kind", kind, "--out", str(tmp / "sweep.csv")]

    _fuzz_main(argv_for)


CONFIGS = {name: json.loads((ROOT / f"configs/{name}.json").read_text())
           for name in ("singlet_bell", "wigner_uniform", "local_delay_chsh")}
# a run accepted here has at most 2000 emissions; larger sizes are ones the
# overflow guard refuses
SMALL_CONFIGS = {name: dict({k: v for k, v in doc.items() if k != "pairs_per_combination"}, total_pairs=500)
                 for name, doc in CONFIGS.items()}


def _number_field(valid):
    """A valid value, a size the overflow guard refuses, or a value of the
    wrong type (a JSON null leaves the field unset)."""
    return st.one_of(valid, valid, st.sampled_from([2**62, INT64_MAX, 2**64, 10**30]),
                     st.booleans(), st.floats(allow_nan=True, allow_infinity=True), ODD_VALUES)


SIMULATE_FIELDS = {
    "kind": _maybe(st.sampled_from(["singlet", "wigner-domain", "local-delay"])),
    "seed": _number_field(st.integers(0, 2**64 - 1)),
    "emission_period_ns": _number_field(st.integers(-1, 10**6)),
    "jitter_ns": _number_field(st.integers(-1, 100)),
    "total_pairs": _number_field(st.integers(-1, 2000)),
    "pairs_per_combination": _number_field(st.integers(-1, 100)),
    "max_delay_ns": _number_field(st.integers(-1, 10**4)),
    "delay_exponent": _number_field(st.floats(0, 8)),
    "convention": _maybe(st.sampled_from(["anti", "equal", "sideways"])),
}


@settings(deadline=None, max_examples=100)
@given(base=st.sampled_from(sorted(SMALL_CONFIGS)),
       fields=st.lists(st.sampled_from(sorted(SIMULATE_FIELDS)).flatmap(
           lambda k: st.tuples(st.just(k), SIMULATE_FIELDS[k])), max_size=3))
def test_fuzz_simulate(base, fields):
    doc = dict(SMALL_CONFIGS[base], **dict(fields))

    def argv_for(tmp):
        (tmp / "config.json").write_text(json.dumps(doc))
        return ["simulate", "--config", str(tmp / "config.json"), "--out", str(tmp / "run")]

    _fuzz_main(argv_for, codes=(0, 2))


@pytest.mark.parametrize(
    "field, value",
    [("total_pairs", 1.5), ("total_pairs", True), ("jitter_ns", 0.5), ("seed", True),
     ("emission_period_ns", 1000.0), ("delay_exponent", float("nan")), ("delay_exponent", float("inf"))],
)
def test_simulate_rejects_mistyped_config_fields(tmp_path, capsys, field, value):
    doc = dict(CONFIGS["local_delay_chsh"], **{field: value})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    err = _assert_clean_exit(capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "x")], 2)
    assert f"{field} must be" in err


# each file-reading command, with the file it reads as f and scratch outputs in tmp
FILE_COMMANDS = {
    "simulate": lambda f, tmp: ["simulate", "--config", f, "--out", str(tmp / "sim")],
    "pair": lambda f, tmp: ["pair", "--left", f, "--right", f, "--window-ns", "10", "--out", str(tmp / "p.jsonl")],
    "tally": lambda f, tmp: ["tally", "--pairs", f, "--out", str(tmp / "t.json")],
    "inequalities": lambda f, tmp: ["inequalities", "--tally", f, "--kind", "chsh", "--ordering", "a,b,c,d",
                                    "--convention", "equal"],
    "sweep": lambda f, tmp: ["sweep", "--left", f, "--right", f, "--windows", "0,10", "--kind", "chsh",
                             "--out", str(tmp / "s.csv")],
    "feasibility": lambda f, tmp: ["feasibility", "--tables", f],
    "ingest": lambda f, tmp: ["ingest", "--raw", f, "--island", "T", "--out", str(tmp / "e.jsonl")],
}


@pytest.mark.parametrize(
    "command, code", [("tally", 3), ("feasibility", 3), ("simulate", 2), ("pair", 3), ("inequalities", 3)]
)
def test_json_nested_past_the_recursion_limit_exits_cleanly(tmp_path, capsys, command, code):
    """The JSON parser recurses once per level, so a document nested past the
    recursion limit is a format (or configuration) error, not a crash."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    err = _assert_clean_exit(capsys, FILE_COMMANDS[command](str(path), tmp_path), code)
    assert "invalid JSON: nested too deeply" in err


# a tally whose a;b table holds 12 pairs, or 7 if read with pp's last value
DUPLICATE_PP_TALLY = ('{"a;b": {"pp": 5, "pm": 2, "mp": 1, "mm": 4, "pp": 0}, "a;d": {"pp": 1, "pm": 7, "mp": 2, "mm": 1}, '
                      '"c;b": {"pp": 7, "pm": 1, "mp": 2, "mm": 3}, "c;d": {"pp": 2, "pm": 5, "mp": 3, "mm": 2}}')
DUPLICATE_SETTING_EVENT = '{"island":"T","t_ns":5,"setting":"a","setting":"a","outcome":1}\n'
# per JSON-reading command, a document whose one fault is a repeated key, and the key
REPEATED_KEY = {
    "simulate": ((ROOT / "configs/singlet_bell.json").read_text().replace("{", '{"seed": 1,', 1), "seed"),
    "pair": (DUPLICATE_SETTING_EVENT, "setting"),
    "sweep": (DUPLICATE_SETTING_EVENT, "setting"),
    "tally": ('{"t_left_ns":5,"t_right_ns":6,"setting_left":"a","setting_right":"b",'
              '"outcome_left":1,"outcome_right":1,"window_ns":3,"window_ns":3}\n', "window_ns"),
    "inequalities": (DUPLICATE_PP_TALLY, "pp"),
    "feasibility": (DUPLICATE_PP_TALLY, "pp"),
}


@pytest.mark.parametrize("command", sorted(REPEATED_KEY))
def test_a_repeated_json_key_exits_cleanly_naming_it(tmp_path, capsys, command):
    """RFC 8259 leaves the meaning of a repeated key open, so every JSON
    document is refused for one, naming its file, rather than read with the
    key's last value."""
    text, key = REPEATED_KEY[command]
    path = tmp_path / "doc.json"
    path.write_text(text)
    err = _assert_clean_exit(capsys, FILE_COMMANDS[command](str(path), tmp_path), 2 if command == "simulate" else 3)
    assert str(path) in err
    assert f"invalid JSON: duplicate key '{key}'" in err


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
@settings(deadline=None, max_examples=25)
@given(data=st.binary(max_size=200))
def test_fuzz_binary_input_file(command, data):
    def argv_for(tmp):
        (tmp / "input").write_bytes(data)
        return FILE_COMMANDS[command](str(tmp / "input"), tmp)

    _fuzz_main(argv_for)
