import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprblab.cli import main
from eprblab.ioformats import (
    read_events,
    read_manifest,
    read_pairs,
    read_sweep_csv,
    sha256_file,
)

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


def test_traced_entry_points_are_the_library_functions():
    """The CLI and the matcher call the library functions under their own
    names, which is what per-function tracing keys on."""
    from eprblab import cli, ioformats, model, pairing, stats

    for module, name, owner in [
        (cli, "tally", stats),
        (cli, "read_pairs", ioformats),
        (cli, "write_pairs_indexed", ioformats),
        (cli, "match_pairs_indexed", pairing),
        (pairing, "require_valid_stream", model),
    ]:
        fn = getattr(module, name)
        assert fn is getattr(owner, name)
        assert fn.__name__ == name
        assert fn.__module__ == owner.__name__


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


def _fuzz_main(argv_for):
    """Write the drawn files to a fresh directory, run the command, and check
    that it exits 0, 2 or 3 and prints no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = argv_for(Path(tmp))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
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
        st.fixed_dictionaries({c: _maybe(st.integers(0, 20)) for c in ("pp", "pm", "mp", "mm")}),
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


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
@settings(deadline=None, max_examples=25)
@given(data=st.binary(max_size=200))
def test_fuzz_binary_input_file(command, data):
    def argv_for(tmp):
        (tmp / "input").write_bytes(data)
        return FILE_COMMANDS[command](str(tmp / "input"), tmp)

    _fuzz_main(argv_for)
