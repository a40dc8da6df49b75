import hashlib
import json
import os
import stat
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_line_reader as reference
import per_line_writer
from conftest import config_to_dict, pair, read_manifest, read_sweep_csv, stream
from eprblab import ioformats
from eprblab.errors import ConfigParseError, FormatError
from eprblab.feasibility import read_tables, read_tally
from eprblab.ioformats import (
    EMPTY_CELL_MARKER,
    EVENT_KEYS,
    RunManifest,
    atomic_write,
    load_config,
    read_events,
    read_pairs,
    read_raw_station,
    sha256_file,
    write_events,
    write_manifest,
    write_pairs_indexed,
    write_sweep_csv,
    write_tally,
)
from eprblab.model import ISLANDS, OUTCOMES, SETTING_LABELS, EventStream, Setting, TallyTable, WignerDomainDistribution
from eprblab.pairing import PairingConfig, match_pairs_indexed
from eprblab.sources import SourceConfig, config_from_dict
from eprblab.stats import SweepRow, tally


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    assert atomic_write(str(path), [b"hel", b"lo\n"]) == "sha256:" + hashlib.sha256(b"hello\n").hexdigest()
    assert path.read_text() == "hello\n"
    atomic_write(str(path), [b"replaced\n"])
    assert path.read_text() == "replaced\n"
    assert os.listdir(tmp_path) == ["out.txt"]

    def failing():
        yield b"half a file\n"
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        atomic_write(str(path), failing())
    assert path.read_text() == "replaced\n"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask):
    saved = os.umask(umask)
    try:
        atomic_write(str(tmp_path / "atomic.txt"), [b"x\n"])
        with open(tmp_path / "plain.txt", "w") as handle:
            handle.write("x\n")
    finally:
        os.umask(saved)
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("atomic.txt", "plain.txt")]
    assert modes[0] == modes[1]


def test_sha256_file_known_value(tmp_path):
    path = tmp_path / "x"
    path.write_bytes(b"abc")
    assert sha256_file(str(path)) == (
        "sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


# ---------------------------------------------------------------------------
# events


def test_events_round_trip_and_byte_format(tmp_path):
    s = stream("T", [(5, "a", 1), (9, "b", -1)])
    path = str(tmp_path / "ev.jsonl")
    write_events(path, s)
    lines = open(path).read().splitlines()
    assert lines[0] == '{"island":"T","t_ns":5,"setting":"a","outcome":1}'
    back = read_events(path)
    assert back.island == "T"
    assert back.labels == s.labels
    assert back.t_ns.tolist() == [5, 9]
    assert back.outcome.tolist() == [1, -1]


@pytest.mark.parametrize(
    "line,complaint",
    [
        ('{"island":"T","t_ns":5,"setting":"a"}', "exactly the keys"),
        ('{"island":"T","t_ns":5,"setting":"a","outcome":1,"x":0}', "exactly the keys"),
        ('{"island":"Q","t_ns":5,"setting":"a","outcome":1}', "island"),
        ('{"island":"T","t_ns":-1,"setting":"a","outcome":1}', "nonnegative"),
        ('{"island":"T","t_ns":5,"setting":"e","outcome":1}', "setting"),
        ('{"island":"T","t_ns":5,"setting":"a","outcome":0}', "outcome"),
        ("not json", "invalid JSON"),
        ('{"island":"T","t_ns":9223372036854775808,"setting":"a","outcome":1}', "below 2^63"),
        ('{"island":"T","t_ns":5.0,"setting":"a","outcome":1}', "nonnegative integer"),
        ('{"island":"T","t_ns":5,"setting":"a","outcome":true}', "outcome"),
        ('{"island":"T","t_ns":5,"setting":"a","outcome":1.0}', "outcome"),
    ],
)
def test_read_events_rejects_bad_lines(tmp_path, line, complaint):
    path = tmp_path / "ev.jsonl"
    path.write_text('{"island":"T","t_ns":1,"setting":"a","outcome":1}\n' + line + "\n")
    with pytest.raises(FormatError) as info:
        read_events(str(path))
    assert complaint in str(info.value)
    assert ":2:" in str(info.value)


def test_read_events_rejects_order_island_and_empty(tmp_path):
    path = tmp_path / "ev.jsonl"
    path.write_text(
        '{"island":"T","t_ns":5,"setting":"a","outcome":1}\n'
        '{"island":"T","t_ns":5,"setting":"b","outcome":1}\n'
    )
    with pytest.raises(FormatError, match="strictly increasing"):
        read_events(str(path))
    path.write_text(
        '{"island":"T","t_ns":5,"setting":"a","outcome":1}\n'
        '{"island":"L","t_ns":6,"setting":"b","outcome":1}\n'
    )
    with pytest.raises(FormatError, match="mixed islands"):
        read_events(str(path))
    path.write_text("")
    with pytest.raises(FormatError, match="empty"):
        read_events(str(path))


def test_raw_station_log_round_trip_and_rejections(tmp_path):
    path = tmp_path / "raw.log"
    path.write_text("# comment\n5 a +1\n9 b -1\n\n12 a 1\n")
    s = read_raw_station(str(path), "L")
    assert (s.island, s.labels) == ("L", ("a", "b"))
    assert s.t_ns.tolist() == [5, 9, 12]
    assert s.outcome.tolist() == [1, -1, 1]
    for line, complaint in [
        ("3 a 1", "strictly increasing"),
        ("9223372036854775808 a 1", r"below 2\^63"),
        ("-7 a 1", "nonnegative"),
        ("7 e 1", "setting"),
        ("7 a 2", "outcome"),
        ("7 a", "t_ns setting outcome"),
        ("x a 1", "integer"),
    ]:
        path.write_text("5 a 1\n" + line + "\n")
        with pytest.raises(FormatError, match=complaint) as info:
            read_raw_station(str(path), "T")
        assert ":2:" in str(info.value)
    path.write_text("# nothing\n")
    with pytest.raises(FormatError, match="empty"):
        read_raw_station(str(path), "T")


# ---------------------------------------------------------------------------
# template writers against json.dumps, the reader against the per-line
# reference


@st.composite
def valid_streams(draw, min_size=1):
    """Streams of any island and menu, nonempty by default, times anywhere
    in int64 with 0 and 2^63 - 1 among the likely ones."""
    times = st.integers(0, 2000) | st.integers(0, 2**63 - 1) | st.sampled_from([0, 2**63 - 1])
    times = sorted(draw(st.sets(times, min_size=min_size, max_size=40)))
    labels = draw(st.lists(st.sampled_from(SETTING_LABELS), min_size=len(times), max_size=len(times)))
    outcomes = draw(st.lists(st.sampled_from(OUTCOMES), min_size=len(times), max_size=len(times)))
    menu = tuple(sorted(set(labels))) or SETTING_LABELS[:1]
    return EventStream(
        island=draw(st.sampled_from(ISLANDS)),
        labels=menu,
        t_ns=np.array(times, dtype=np.int64),
        setting_idx=np.array([menu.index(label) for label in labels], dtype=np.int16),
        outcome=np.array(outcomes, dtype=np.int8),
    )


def _same_stream(a: EventStream, b: EventStream) -> bool:
    return (
        (a.island, a.labels) == (b.island, b.labels)
        and a.t_ns.tolist() == b.t_ns.tolist()
        and a.setting_idx.tolist() == b.setting_idx.tolist()
        and a.outcome.tolist() == b.outcome.tolist()
    )


def _canonical(path: str, fmt) -> bool:
    """Whether every line of the file is in the writer's layout fmt, so that
    the reader builds all its columns with numpy."""
    return fmt.lines.fullmatch(Path(path).read_bytes()) is not None


def _event_objects(s: EventStream) -> list[dict]:
    return [{"island": e.island, "t_ns": e.time_ns, "setting": e.setting_label, "outcome": e.outcome} for e in s]


@settings(deadline=None, max_examples=60)
@given(valid_streams(), st.sampled_from([ioformats._STRICT_RUN_BYTES, 64]))
def test_written_events_read_the_same_through_both_readers(tmp_path_factory, s, run_bytes):
    path = str(tmp_path_factory.mktemp("ev") / "ev.jsonl")
    write_events(path, s)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines == [json.dumps(obj, separators=(",", ":")) for obj in _event_objects(s)]
    assert _canonical(path, ioformats._EVENT_LINE)
    with mock.patch.object(ioformats, "_STRICT_RUN_BYTES", run_bytes):
        assert _same_stream(read_events(path), s)
    assert _same_stream(reference.read_events(path), s)


@settings(deadline=None, max_examples=40)
@given(valid_streams(), valid_streams(), st.integers(0, 2**63 - 1))
def test_pair_writer_matches_json_dumps(tmp_path_factory, left, right, window):
    n = min(len(left), len(right))
    left_idx, right_idx = np.arange(n), np.arange(len(right))[::-1][:n]
    path = str(tmp_path_factory.mktemp("pairs") / "pairs.jsonl")
    write_pairs_indexed(path, left, right, left_idx, right_idx, window)
    expected = [
        json.dumps(
            {
                "t_left_ns": left.event(i).time_ns,
                "t_right_ns": right.event(j).time_ns,
                "setting_left": left.event(i).setting_label,
                "setting_right": right.event(j).setting_label,
                "outcome_left": left.event(i).outcome,
                "outcome_right": right.event(j).outcome,
                "window_ns": window,
            },
            separators=(",", ":"),
        )
        + "\n"
        for i, j in zip(left_idx.tolist(), right_idx.tolist())
    ]
    assert open(path, encoding="utf-8").read() == "".join(expected)


@settings(deadline=None, max_examples=80)
@given(valid_streams(min_size=0), valid_streams(min_size=0), st.integers(0, 3000) | st.integers(0, 10**23), st.data(),
       st.sampled_from([1, 3, ioformats._WRITE_RUN_ROWS]))
def test_writers_match_the_per_line_writers(tmp_path_factory, left, right, window, data, run_rows):
    """Both writers give the per-line writers' bytes and their digest, for
    any chunk length, and any rows of the two streams."""
    n = data.draw(st.integers(0, 40)) if len(left) and len(right) else 0

    def rows(s: EventStream) -> np.ndarray:
        return np.array(data.draw(st.lists(st.integers(0, max(len(s) - 1, 0)), min_size=n, max_size=n)), dtype=np.int64)

    left_idx, right_idx = rows(left), rows(right)
    directory = tmp_path_factory.mktemp("writers")
    events, pairs = str(directory / "ev.jsonl"), str(directory / "pairs.jsonl")
    with mock.patch.object(ioformats, "_WRITE_RUN_ROWS", run_rows):
        written = {
            events: write_events(events, left),
            pairs: write_pairs_indexed(pairs, left, right, left_idx, right_idx, window),
        }
    expected = {
        events: per_line_writer.event_bytes(left),
        pairs: per_line_writer.pair_bytes(left, right, left_idx, right_idx, window),
    }
    for path, data_bytes in expected.items():
        assert Path(path).read_bytes() == data_bytes, path
        assert written[path] == "sha256:" + hashlib.sha256(data_bytes).hexdigest(), path


def test_write_events_holds_one_chunk_at_a_time(tmp_path):
    """300k events of a 100 us emission period: the whole file's lines would
    take about 70 MB."""
    n = 300_000
    s = EventStream(
        "T",
        ("a", "c"),
        np.arange(n, dtype=np.int64) * 100_000 + 7,
        np.arange(n) % 2,
        np.where(np.arange(n) % 3, 1, -1).astype(np.int8),
    )
    tracemalloc.start()
    try:
        write_events(str(tmp_path / "ev.jsonl"), s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def _event_variants(objects: list[dict], order: list[str], blank_at: int) -> dict[str, str]:
    plain = [json.dumps(obj, separators=(",", ":")) for obj in objects]
    with_blank = plain[:blank_at] + [""] + plain[blank_at:]
    return {
        "default separators": "".join(json.dumps(obj) + "\n" for obj in objects),
        "shuffled keys": "".join(json.dumps({k: obj[k] for k in order}, separators=(",", ":")) + "\n" for obj in objects),
        "crlf": "".join(line + "\r\n" for line in plain),
        "blank line": "".join(line + "\n" for line in with_blank),
        "no final newline": "\n".join(plain),
    }


@settings(deadline=None, max_examples=40)
@given(
    valid_streams(),
    st.permutations(EVENT_KEYS).filter(lambda order: tuple(order) != EVENT_KEYS),
    st.integers(0, 40),
)
def test_other_valid_event_layouts_read_to_the_same_stream(tmp_path_factory, s, order, blank_at):
    directory = tmp_path_factory.mktemp("ev")
    for name, text in _event_variants(_event_objects(s), order, min(blank_at, len(s))).items():
        path = str(directory / "ev.jsonl")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        assert not _canonical(path, ioformats._EVENT_LINE), name
        assert _same_stream(read_events(path), s), name


def _raw_lines(s: EventStream, plus: str) -> list[str]:
    return [f"{e.time_ns} {e.setting_label} {plus if e.outcome > 0 else '-1'}" for e in s]


@settings(deadline=None, max_examples=60)
@given(valid_streams(), st.sampled_from(["1", "+1"]), st.sampled_from([ioformats._STRICT_RUN_BYTES, 64]))
def test_strict_raw_logs_read_the_same_through_both_readers(tmp_path_factory, s, plus, run_bytes):
    path = str(tmp_path_factory.mktemp("raw") / "raw.log")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in _raw_lines(s, plus)))
    assert _canonical(path, ioformats._RAW_LINE)
    with mock.patch.object(ioformats, "_STRICT_RUN_BYTES", run_bytes):
        assert _same_stream(read_raw_station(path, s.island), s)
    assert _same_stream(reference.read_raw_station(path, s.island), s)


@settings(deadline=None, max_examples=40)
@given(valid_streams(), st.integers(0, 40))
def test_other_valid_raw_layouts_read_to_the_same_stream(tmp_path_factory, s, blank_at):
    plain = _raw_lines(s, "+1")
    at = min(blank_at, len(plain))
    variants = {
        "crlf": "".join(line + "\r\n" for line in plain),
        "blank line": "".join(line + "\n" for line in plain[:at] + [""] + plain[at:]),
        "comment line": "".join(line + "\n" for line in plain[:at] + ["# station L, run 7"] + plain[at:]),
        "no final newline": "\n".join(plain),
        "tabs and runs of spaces": "".join(line.replace(" ", "\t", 1).replace(" ", "   ") + "\n" for line in plain),
        "leading zeros": "".join("00" + line + "\n" for line in plain),
        "leading and trailing spaces": "".join(f"  {line} \n" for line in plain),
    }
    directory = tmp_path_factory.mktemp("raw")
    for name, text in variants.items():
        path = str(directory / "raw.log")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        assert not _canonical(path, ioformats._RAW_LINE), name
        assert _same_stream(read_raw_station(path, s.island), s), name


# Each case is a bad line and the message the readers give for it.  T_NS
# stands for a time past every earlier line, LAST for the time of the line
# before.
_BAD_EVENT_LINES = [
    ('{"island":"T","t_ns":T_NS,"setting":"a"}', "event must have exactly the keys ['island', 't_ns', 'setting', 'outcome']"),
    ('{"island":"T","t_ns":T_NS,"setting":"a","outcome":1,"x":0}',
     "event must have exactly the keys ['island', 't_ns', 'setting', 'outcome']"),
    ('{"island":"Q","t_ns":T_NS,"setting":"a","outcome":1}', "island must be 'T' or 'L', got 'Q'"),
    ('{"island":"L","t_ns":T_NS,"setting":"a","outcome":1}', "mixed islands: file started with 'T', line has 'L'"),
    ('{"island":"T","t_ns":-1,"setting":"a","outcome":1}', "t_ns must be a nonnegative integer below 2^63, got -1"),
    ('{"island":"T","t_ns":9223372036854775808,"setting":"a","outcome":1}',
     "t_ns must be a nonnegative integer below 2^63, got 9223372036854775808"),
    ('{"island":"T","t_ns":9223372036854775809,"setting":"a","outcome":1}',
     "t_ns must be a nonnegative integer below 2^63, got 9223372036854775809"),
    ('{"island":"T","t_ns":9999999999999999999,"setting":"a","outcome":1}',
     "t_ns must be a nonnegative integer below 2^63, got 9999999999999999999"),
    ('{"island":"T","t_ns":5.0,"setting":"a","outcome":1}', "t_ns must be a nonnegative integer below 2^63, got 5.0"),
    ('{"island":"T","t_ns":LAST,"setting":"a","outcome":1}', "timestamps must be strictly increasing, got LAST after LAST"),
    ('{"island":"T","t_ns":T_NS,"setting":"e","outcome":1}', "setting must be one of ['a', 'b', 'c', 'd'], got 'e'"),
    ('{"island":"T","t_ns":T_NS,"setting":"a","outcome":0}', "outcome must be +1 or -1, got 0"),
    ('{"island":"T","t_ns":T_NS,"setting":"a","outcome":2}', "outcome must be +1 or -1, got 2"),
    ('{"island":"T","t_ns":T_NS,"setting":"a","outcome":true}', "outcome must be +1 or -1, got True"),
    ('{"island":"T","t_ns":T_NS,"setting":"a","outcome":1.0}', "outcome must be +1 or -1, got 1.0"),
    ("not json", "invalid JSON: Expecting value"),
    ('{"island":"T","t_ns":5,"t_ns":T_NS,"setting":"a","outcome":1}', "invalid JSON: duplicate key 't_ns'"),
]
_BAD_RAW_LINES = [
    ("LAST a 1", "timestamps must be strictly increasing, got LAST after LAST"),
    ("0 a 1", "timestamps must be strictly increasing, got 0 after LAST"),
    ("9223372036854775808 a 1", "t_ns must be a nonnegative integer below 2^63, got 9223372036854775808"),
    ("9223372036854775809 a 1", "t_ns must be a nonnegative integer below 2^63, got 9223372036854775809"),
    ("-7 a 1", "t_ns must be a nonnegative integer below 2^63, got -7"),
    ("T_NS e 1", "setting must be one of ['a', 'b', 'c', 'd'], got 'e'"),
    ("T_NS a 2", "outcome must be +1 or -1, got '2'"),
    ("T_NS a true", "outcome must be +1 or -1, got 'true'"),
    ("T_NS a", "expected 't_ns setting outcome', got 2 field(s)"),
    ("x a 1", "t_ns must be an integer, got 'x'"),
    ("1_0 a 1", "t_ns must be an integer, got '1_0'"),
    ("\u0661\u0662 b -1", "t_ns must be an integer, got '\u0661\u0662'"),
]


def _fill(template: str, last: int) -> str:
    return template.replace("T_NS", str(10**6)).replace("LAST", str(last))


@pytest.mark.parametrize("good_lines", [1, 1000])
@pytest.mark.parametrize("line,message", _BAD_EVENT_LINES)
def test_bad_event_line_message_and_number_after_good_lines(tmp_path, good_lines, line, message):
    path = tmp_path / "ev.jsonl"
    good = "".join(f'{{"island":"T","t_ns":{t},"setting":"a","outcome":1}}\n' for t in range(1, good_lines + 1))
    path.write_text(good + _fill(line, good_lines) + "\n")
    with pytest.raises(FormatError) as info:
        read_events(str(path))
    assert str(info.value) == f"{path}:{good_lines + 1}: {_fill(message, good_lines)}"


@pytest.mark.parametrize("good_lines", [1, 1000])
@pytest.mark.parametrize("line,message", _BAD_RAW_LINES)
def test_bad_raw_line_message_and_number_after_good_lines(tmp_path, good_lines, line, message):
    path = tmp_path / "raw.log"
    lines = "".join(f"{t} a -1\n" for t in range(1, good_lines + 1)) + _fill(line, good_lines) + "\n"
    path.write_text(lines, encoding="utf-8")
    with pytest.raises(FormatError) as info:
        read_raw_station(str(path), "T")
    assert str(info.value) == f"{path}:{good_lines + 1}: {_fill(message, good_lines)}"


# Line re-layouts that keep a line's row: for JSON lines, key order,
# white space, a CRLF line end and a blank line before; for raw logs, runs
# of tabs and spaces, a leading zero, CRLF, a blank line and a comment line.
_JSON_LAYOUTS = {
    "reversed keys": lambda line: json.dumps(dict(reversed(json.loads(line).items())), separators=(",", ":")) + "\n",
    "spaces": lambda line: json.dumps(json.loads(line)) + "\n",
    "crlf": lambda line: line + "\r\n",
    "blank line before": lambda line: "\n" + line + "\n",
    "surrounding white space": lambda line: " " + line + "\t\n",
}
_RAW_LAYOUTS = {
    "tabs and spaces": lambda line: line.replace(" ", "\t  ") + "\n",
    "leading zero": lambda line: "0" + line + "\n",
    "crlf": lambda line: line + "\r\n",
    "blank line before": lambda line: "\n" + line + "\n",
    "comment line before": lambda line: "# station log\n" + line + "\n",
}
_RUN_BYTES = st.sampled_from([64, ioformats._STRICT_RUN_BYTES])


def _relay(path: str, layouts: dict, data) -> None:
    """Rewrite a random subset of the file's lines in a random layout each,
    so that lines in the writer's layout and others interleave."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    names = data.draw(st.lists(st.sampled_from([None, *layouts]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + "\n" if name is None else layouts[name](line) for line, name in zip(lines, names))
    Path(path).write_text(text, encoding="utf-8", newline="")


@settings(deadline=None, max_examples=60)
@given(valid_streams(), st.data(), _RUN_BYTES)
def test_events_with_some_lines_relaid_read_to_the_same_stream(tmp_path_factory, s, data, run_bytes):
    path = str(tmp_path_factory.mktemp("ev") / "ev.jsonl")
    write_events(path, s)
    _relay(path, _JSON_LAYOUTS, data)
    with mock.patch.object(ioformats, "_STRICT_RUN_BYTES", run_bytes):
        assert _same_stream(read_events(path), s)


@settings(deadline=None, max_examples=60)
@given(valid_streams(), st.sampled_from(["1", "+1"]), st.data(), _RUN_BYTES)
def test_raw_logs_with_some_lines_relaid_read_to_the_same_stream(tmp_path_factory, s, plus, data, run_bytes):
    path = str(tmp_path_factory.mktemp("raw") / "raw.log")
    Path(path).write_text("".join(line + "\n" for line in _raw_lines(s, plus)))
    _relay(path, _RAW_LAYOUTS, data)
    with mock.patch.object(ioformats, "_STRICT_RUN_BYTES", run_bytes):
        assert _same_stream(read_raw_station(path, s.island), s)


def _plain(value):
    """Streams and index arrays as lists, for comparing reader results."""
    if isinstance(value, EventStream):
        return value.island, value.labels, value.t_ns.tolist(), value.setting_idx.tolist(), value.outcome.tolist()
    if isinstance(value, tuple):
        return tuple(_plain(part) for part in value)
    return value.tolist()


def _outcome(read, *args):
    """What a reader makes of a file: its FormatError text or its result."""
    try:
        return _plain(read(*args))
    except FormatError as exc:
        return str(exc)


@settings(deadline=None, max_examples=80)
@given(st.sets(st.integers(1, 5000), min_size=1, max_size=30), st.data(), _RUN_BYTES)
def test_one_bad_event_or_raw_line_anywhere_reads_as_the_reference_reads_it(tmp_path_factory, times, data, run_bytes):
    times = sorted(times)
    at = data.draw(st.integers(0, len(times)))
    last = times[at - 1] if at else 0
    directory = tmp_path_factory.mktemp("bad")
    event_lines = [f'{{"island":"T","t_ns":{t},"setting":"a","outcome":1}}' for t in times]
    raw_lines = [f"{t} b -1" for t in times]
    for lines, bad_lines, read, ref in [
        (event_lines, _BAD_EVENT_LINES, read_events, reference.read_events),
        (raw_lines, _BAD_RAW_LINES, partial(read_raw_station, island="T"), partial(reference.read_raw_station, island="T")),
    ]:
        line, _ = data.draw(st.sampled_from(bad_lines))
        path = str(directory / "station")
        Path(path).write_text("".join(text + "\n" for text in lines[:at] + [_fill(line, last)] + lines[at:]),
                              encoding="utf-8")
        with mock.patch.object(ioformats, "_STRICT_RUN_BYTES", run_bytes):
            assert _outcome(read, path) == _outcome(ref, path)


# ---------------------------------------------------------------------------
# pairs


def test_pairs_writers_agree(tmp_path):
    """The pair writer emits the pinned pair-line bytes, and the reader
    gives back the same pairs."""
    left = stream("T", [(5, "a", 1), (20, "b", -1)])
    right = stream("L", [(6, "c", -1), (21, "a", 1)])
    a = str(tmp_path / "a.jsonl")
    write_pairs_indexed(a, left, right, np.array([0, 1]), np.array([0, 1]), 3)
    assert open(a).read() == (
        '{"t_left_ns":5,"t_right_ns":6,"setting_left":"a","setting_right":"c",'
        '"outcome_left":1,"outcome_right":-1,"window_ns":3}\n'
        '{"t_left_ns":20,"t_right_ns":21,"setting_left":"b","setting_right":"a",'
        '"outcome_left":-1,"outcome_right":1,"window_ns":3}\n'
    )
    records = [pair(5, 6, "a", "c", 1, -1, window=3), pair(20, 21, "b", "a", -1, 1, window=3)]
    assert _pair_events(*read_pairs(a)) == [(p.left, p.right) for p in records]


def test_pair_writer_takes_any_integer_window(tmp_path):
    """A numpy integer window, which PairingConfig accepts, writes the bytes
    a plain int window writes; a bool or float window is refused."""
    left = stream("T", [(5, "a", 1)])
    right = stream("L", [(6, "c", -1)])
    idx = np.array([0])
    plain, numpy_int = str(tmp_path / "plain.jsonl"), str(tmp_path / "numpy.jsonl")
    assert write_pairs_indexed(plain, left, right, idx, idx, 1000) == write_pairs_indexed(
        numpy_int, left, right, idx, idx, np.int64(1000)
    )
    assert open(numpy_int, "rb").read() == open(plain, "rb").read()
    for window in (True, 1000.0):
        with pytest.raises(ValueError, match="window_ns must be an integer"):
            write_pairs_indexed(str(tmp_path / "bad.jsonl"), left, right, idx, idx, window)


def _pair_events(left, right, left_idx, right_idx):
    return [(left.event(i), right.event(j)) for i, j in zip(left_idx.tolist(), right_idx.tolist())]


def _station(island: str, s: EventStream) -> EventStream:
    return EventStream(island, s.labels, s.t_ns, s.setting_idx, s.outcome)


@settings(deadline=None, max_examples=60)
@given(valid_streams(), valid_streams(), st.integers(0, 3000) | st.integers(0, 2**63 - 1))
def test_matched_pairs_round_trip_through_a_pair_file(tmp_path_factory, left, right, window):
    left, right = _station("T", left), _station("L", right)
    mi, mj, _, _ = match_pairs_indexed(left, right, PairingConfig(window))
    path = str(tmp_path_factory.mktemp("pairs") / "pairs.jsonl")
    write_pairs_indexed(path, left, right, mi, mj, window)
    back = read_pairs(path)
    assert _pair_events(*back) == _pair_events(left, right, mi, mj)
    assert tally(*back) == tally(left, right, mi, mj)


def _same_pairs(a, b) -> bool:
    """Whether two (left, right, left_idx, right_idx) are the same pairs in
    the same streams."""
    return (
        _same_stream(a[0], b[0])
        and _same_stream(a[1], b[1])
        and a[2].tolist() == b[2].tolist()
        and a[3].tolist() == b[3].tolist()
    )


@settings(deadline=None, max_examples=60)
@given(
    valid_streams(),
    valid_streams(),
    st.integers(0, 3000) | st.integers(0, 2**63 - 1),
    st.randoms(use_true_random=False),
    st.sampled_from([ioformats._STRICT_RUN_BYTES, 64]),
)
def test_written_pairs_read_the_same_through_both_readers(tmp_path_factory, left, right, window, rnd, run_bytes):
    """Pair files as the writer gives them, rows in any order, read to the
    same pairs through read_pairs and the per-line reference."""
    left, right = _station("T", left), _station("L", right)
    mi, mj, _, _ = match_pairs_indexed(left, right, PairingConfig(window))
    rows = np.array(rnd.sample(range(len(mi)), len(mi)), dtype=np.int64)
    path = str(tmp_path_factory.mktemp("pairs") / "pairs.jsonl")
    write_pairs_indexed(path, left, right, mi[rows], mj[rows], window)
    per_line = reference.read_pairs(path)
    assert _pair_events(*per_line) == _pair_events(left, right, mi[rows], mj[rows])
    assert _canonical(path, ioformats._PAIR_LINE)
    with mock.patch.object(ioformats, "_STRICT_RUN_BYTES", run_bytes):
        assert _same_pairs(read_pairs(path), per_line)


@settings(deadline=None, max_examples=30)
@given(valid_streams(), valid_streams(), st.integers(0, 40))
def test_other_valid_pair_layouts_read_to_the_same_pairs(tmp_path_factory, left, right, blank_at):
    left, right = _station("T", left), _station("L", right)
    mi, mj, _, _ = match_pairs_indexed(left, right, PairingConfig(2**63 - 1))
    directory = tmp_path_factory.mktemp("pairs")
    path = str(directory / "pairs.jsonl")
    write_pairs_indexed(path, left, right, mi, mj, 2**63 - 1)
    expected = read_pairs(path)
    objects = [json.loads(line) for line in open(path, encoding="utf-8")]
    at = min(blank_at, len(objects))
    plain = [json.dumps(obj, separators=(",", ":")) for obj in objects]
    variants = {
        "default separators": "".join(json.dumps(obj) + "\n" for obj in objects),
        "shuffled keys": "".join(json.dumps(dict(reversed(obj.items())), separators=(",", ":")) + "\n" for obj in objects),
        "crlf": "".join(line + "\r\n" for line in plain),
        "blank line": "".join(line + "\n" for line in plain[:at] + [""] + plain[at:]),
        "no final newline": "\n".join(plain),
        "window past 2^63": "".join(line.replace(f":{2**63 - 1}}}", f":{10**19 - 1}}}") + "\n" for line in plain),
        "window past 2^64": "".join(line.replace(f":{2**63 - 1}}}", f":{10**20}}}") + "\n" for line in plain),
    }
    for name, text in variants.items():
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        assert _canonical(path, ioformats._PAIR_LINE) == (name == "window past 2^63"), name
        assert _same_pairs(read_pairs(path), expected), name


# Each case is a bad pair line and the message read_pairs gives for it.
# T_NS stands for a time past every earlier line.  Six cases (a time of
# 2^63 on either side, a window below |t - t'|, a repeated T or L time) are
# in the writer's exact line format: the strict reader's pattern takes them,
# and only its checks send them to the per-line reader.
_BAD_PAIR_LINES = [
    (b'{"t_left_ns":T_NS,"t_right_ns":T_NS,"setting_left":"a","setting_right":"b",'
     b'"outcome_left":true,"outcome_right":1,"window_ns":3}', "outcome must be +1 or -1, got True"),
    (b'{"t_left_ns":T_NS,"t_right_ns":T_NS,"setting_left":"a","setting_right":"b",'
     b'"outcome_left":1,"outcome_right":1.0,"window_ns":3}', "outcome must be +1 or -1, got 1.0"),
    (b'{"t_left_ns":T_NS,"t_right_ns":T_NS,"setting_left":"a","setting_right":"b",'
     b'"outcome_left":1,"outcome_right":1,"window_ns":true}', "window_ns must be an integer, got True"),
    (b'{"t_left_ns":T_NS,"t_right_ns":T_NS,"setting_left":"a","setting_right":"b",'
     b'"outcome_left":1,"outcome_right":1,"window_ns":2.5}', "window_ns must be an integer, got 2.5"),
    (b'{"t_left_ns":T_NS,"t_right_ns":T_NS,"setting_left":"a","setting_right":"b",'
     b'"outcome_left":1,"outcome_right":1,"window_ns":-1}', "window_ns must be nonnegative"),
    (b'{"t_left_ns":2000000,"t_right_ns":2000900,"setting_left":"a","setting_right":"b",'
     b'"outcome_left":1,"outcome_right":1,"window_ns":10}', "|t - t'| = 900 exceeds window 10"),
    (b'{"t_left_ns":T_NS,"t_right_ns":T_NS,"setting_left":"e","setting_right":"b",'
     b'"outcome_left":1,"outcome_right":1,"window_ns":3}', "setting must be one of ['a', 'b', 'c', 'd'], got 'e'"),
    (b'{"t_left_ns":T_NS,"t_right_ns":-1,"setting_left":"a","setting_right":"b",'
     b'"outcome_left":1,"outcome_right":1,"window_ns":3}', "t_ns must be a nonnegative integer below 2^63, got -1"),
    (b'{"t_left_ns":1,"t_right_ns":T_NS,"setting_left":"a","setting_right":"b",'
     b'"outcome_left":1,"outcome_right":1,"window_ns":2000000}', "T detection at t_ns 1 is already paired on line 1"),
    (b'{"t_left_ns":T_NS,"t_right_ns":1,"setting_left":"a","setting_right":"b",'
     b'"outcome_left":1,"outcome_right":1,"window_ns":2000000}', "L detection at t_ns 1 is already paired on line 1"),
    (b'{"t_left_ns":9223372036854775808,"t_right_ns":T_NS,"setting_left":"a","setting_right":"b",'
     b'"outcome_left":1,"outcome_right":1,"window_ns":9223372036854775807}',
     "t_ns must be a nonnegative integer below 2^63, got 9223372036854775808"),
    (b'{"t_left_ns":T_NS,"t_right_ns":9223372036854775808,"setting_left":"a","setting_right":"b",'
     b'"outcome_left":1,"outcome_right":1,"window_ns":9223372036854775807}',
     "t_ns must be a nonnegative integer below 2^63, got 9223372036854775808"),
    (b'{"t_left_ns":9223372036854775807,"t_right_ns":0,"setting_left":"a","setting_right":"b",'
     b'"outcome_left":1,"outcome_right":1,"window_ns":9223372036854775806}',
     "|t - t'| = 9223372036854775807 exceeds window 9223372036854775806"),
    (b'{"t_left_ns":2000000,"t_right_ns":2000900,"setting_left":"a","setting_right":"b",'
     b'"outcome_left":1,"outcome_right":1,"window_ns":10}\r', "|t - t'| = 900 exceeds window 10"),
    (b'{"t_left_ns":0T_NS,"t_right_ns":T_NS,"setting_left":"a","setting_right":"b",'
     b'"outcome_left":1,"outcome_right":1,"window_ns":3}', "invalid JSON: Expecting ',' delimiter"),
    (b'{"t_left_ns":T_NS,"setting_left":"a"}', "pair must have exactly the keys " + str(list(ioformats.PAIR_KEYS))),
    (b'\xff', "line is not valid UTF-8"),
    (b'{"t_left_ns":2000000,"t_right_ns":2000003,"setting_left":"a","setting_right":"b",'
     b'"outcome_left":1,"outcome_right":1,"window_ns":0,"window_ns":3}', "invalid JSON: duplicate key 'window_ns'"),
]


@pytest.mark.parametrize("good_lines", [1, 1000])
@pytest.mark.parametrize("line,message", _BAD_PAIR_LINES)
def test_bad_pair_line_message_and_number_after_good_lines(tmp_path, good_lines, line, message):
    path = tmp_path / "p.jsonl"
    good = "".join(
        f'{{"t_left_ns":{t},"t_right_ns":{t},"setting_left":"a","setting_right":"b",'
        f'"outcome_left":1,"outcome_right":-1,"window_ns":3}}\n'
        for t in range(1, good_lines + 1)
    )
    path.write_bytes(good.encode() + line.replace(b"T_NS", str(10**6).encode()) + b"\n")
    with pytest.raises(FormatError) as info:
        read_pairs(str(path))
    assert str(info.value) == f"{path}:{good_lines + 1}: {message}"


@settings(deadline=None, max_examples=60)
@given(st.sets(st.integers(1, 5000), max_size=30), st.data(), _RUN_BYTES)
def test_one_bad_pair_line_anywhere_reads_as_the_reference_reads_it(tmp_path_factory, times, data, run_bytes):
    times = sorted(times)
    lines = [_pair_text(t, t, 3) for t in times]
    at = data.draw(st.integers(0, len(lines)))
    line, _ = data.draw(st.sampled_from(_BAD_PAIR_LINES))
    path = tmp_path_factory.mktemp("pairs") / "pairs.jsonl"
    path.write_bytes(b"".join(text + b"\n" for text in lines[:at] + [line.replace(b"T_NS", b"1000000")] + lines[at:]))
    with mock.patch.object(ioformats, "_STRICT_RUN_BYTES", run_bytes):
        assert _outcome(read_pairs, str(path)) == _outcome(reference.read_pairs, str(path))


def _pair_text(t_left: int, t_right: int, window: int) -> bytes:
    return (
        f'{{"t_left_ns":{t_left},"t_right_ns":{t_right},"setting_left":"a","setting_right":"b",'
        f'"outcome_left":1,"outcome_right":-1,"window_ns":{window}}}'
    ).encode()


def test_the_first_bad_line_is_reported(tmp_path):
    """A T time reused on line 3 is reported before the window fault on line
    5, though the per-line reference reports a reuse only on a file whose
    lines are otherwise good; a time out of order on line 2 is reported
    before the line 3 that does not parse, and the rows end there."""
    pairs = [_pair_text(1, 1, 3), _pair_text(2, 2, 3), _pair_text(2, 3, 3), _pair_text(4, 4, 3), _pair_text(5, 900, 3)]
    events = [b'{"island":"T","t_ns":7,"setting":"a","outcome":1}', b'{"island":"T","t_ns":6,"setting":"a","outcome":1}',
              b"not json", b'{"island":"T","t_ns":1,"setting":"a","outcome":1}']
    pair_path, event_path = str(tmp_path / "pairs.jsonl"), str(tmp_path / "ev.jsonl")
    Path(pair_path).write_bytes(b"".join(line + b"\n" for line in pairs))
    Path(event_path).write_bytes(b"".join(line + b"\n" for line in events))
    for run_bytes in (64, ioformats._STRICT_RUN_BYTES):
        with mock.patch.object(ioformats, "_STRICT_RUN_BYTES", run_bytes):
            assert _outcome(read_pairs, pair_path) == f"{pair_path}:3: T detection at t_ns 2 is already paired on line 2"
            assert _outcome(read_events, event_path) == f"{event_path}:2: timestamps must be strictly increasing, got 6 after 7"
    assert _outcome(reference.read_pairs, pair_path) == f"{pair_path}:5: |t - t'| = 895 exceeds window 3"


@settings(deadline=None, max_examples=40)
@given(valid_streams(), valid_streams(), st.integers(0, 3000) | st.integers(0, 2**63 - 1), st.data(), _RUN_BYTES)
def test_pair_files_with_some_lines_relaid_read_to_the_same_pairs(tmp_path_factory, left, right, window, data, run_bytes):
    left, right = _station("T", left), _station("L", right)
    mi, mj, _, _ = match_pairs_indexed(left, right, PairingConfig(window))
    path = str(tmp_path_factory.mktemp("pairs") / "pairs.jsonl")
    write_pairs_indexed(path, left, right, mi, mj, window)
    expected = read_pairs(path)
    _relay(path, _JSON_LAYOUTS, data)
    with mock.patch.object(ioformats, "_STRICT_RUN_BYTES", run_bytes):
        assert _same_pairs(read_pairs(path), expected)


def test_six_bad_pair_lines_pass_the_strict_pattern():
    lines = [line.replace(b"T_NS", str(10**6).encode()) + b"\n" for line, _ in _BAD_PAIR_LINES]
    assert sum(ioformats._PAIR_LINE.lines.fullmatch(line) is not None for line in lines) == 6


def test_read_pairs_wraps_record_errors(tmp_path):
    path = tmp_path / "p.jsonl"
    doc = {
        "t_left_ns": 5,
        "t_right_ns": 900,
        "setting_left": "a",
        "setting_right": "b",
        "outcome_left": 1,
        "outcome_right": 1,
        "window_ns": 10,
    }
    path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(FormatError) as info:
        read_pairs(str(path))
    assert ":1:" in str(info.value)


# ---------------------------------------------------------------------------
# tallies and sweep CSVs


def test_tally_round_trip(tmp_path):
    t = TallyTable({("a", "b"): {(1, 1): 3, (1, -1): 0, (-1, 1): 2, (-1, -1): 1}})
    path = str(tmp_path / "t.json")
    write_tally(path, t)
    doc = json.loads(open(path).read())
    assert doc == {"a;b": {"pp": 3, "pm": 0, "mp": 2, "mm": 1}}
    assert read_tally(path).counts == t.counts


def test_read_tally_rejects_bad_cells(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"a;b": {"pp": 1, "pm": 0, "mp": 0}}))
    with pytest.raises(FormatError, match="cells"):
        read_tally(str(path))
    path.write_text(json.dumps({"ab": {"pp": 1, "pm": 0, "mp": 0, "mm": 0}}))
    with pytest.raises(FormatError, match="pair key"):
        read_tally(str(path))
    path.write_text(json.dumps({"a;b": {"pp": 1.5, "pm": 0, "mp": 0, "mm": 0}}))
    with pytest.raises(FormatError, match="nonnegative integer"):
        read_tally(str(path))


def test_sweep_csv_round_trip(tmp_path):
    rows = [
        SweepRow(0, 0, None, None, None),
        SweepRow(10, 123, -2.0062099999999999, 0.010943, True),
        SweepRow(30, 456, 1.25, 0.5, False),
    ]
    path = str(tmp_path / "s.csv")
    write_sweep_csv(path, rows)
    text = open(path).read().splitlines()
    assert text[1] == f"0,0,{EMPTY_CELL_MARKER},{EMPTY_CELL_MARKER},{EMPTY_CELL_MARKER}"
    assert read_sweep_csv(path) == rows  # repr round-trips floats exactly


# ---------------------------------------------------------------------------
# configs


BASE = {
    "kind": "singlet",
    "settings": [
        {"label": "a", "angle_deg": 0.0},
        {"label": "b", "angle_deg": 120.0},
        {"label": "c", "angle_deg": 60.0},
    ],
    "seed": 5,
    "emission_period_ns": 1000,
    "jitter_ns": 10,
    "total_pairs": 50,
    "convention": "anti",
}


def test_config_round_trip(tmp_path):
    cfg = config_from_dict(BASE)
    path = str(tmp_path / "c.json")
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")
    assert load_config(path) == cfg
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_seed_override():
    assert config_from_dict(BASE, seed_override=99).seed == 99


def test_config_rejections():
    with pytest.raises(ConfigParseError, match="unknown"):
        config_from_dict({**BASE, "speed": 3})
    with pytest.raises(ConfigParseError, match="missing"):
        config_from_dict({k: v for k, v in BASE.items() if k != "kind"})
    with pytest.raises(ConfigParseError, match="settings"):
        config_from_dict({**BASE, "settings": [{"label": "a"}]})
    with pytest.raises(ConfigParseError):
        config_from_dict({**BASE, "kind": "wigner-domain"})  # needs domain_weights


LOCAL_DELAY = {"kind": "local-delay", "max_delay_ns": 40, "delay_exponent": 2.0}

# per SourceConfig field: an edit of BASE that sets the field to a valid
# value other than BASE's (a None value drops a key), and that value
FIELD_EDITS = {
    "kind": (LOCAL_DELAY, "local-delay"),
    "settings": ({"settings": [{"label": "a", "angle_deg": 30.0}]}, (Setting("a", 30.0),)),
    "seed": ({"seed": 12}, 12),
    "emission_period_ns": ({"emission_period_ns": 700}, 700),
    "jitter_ns": ({"jitter_ns": 3}, 3),
    "total_pairs": ({"total_pairs": 7}, 7),
    "pairs_per_combination": ({"total_pairs": None, "pairs_per_combination": 2}, 2),
    "convention": ({"convention": "equal"}, "equal"),
    "max_delay_ns": (LOCAL_DELAY, 40),
    "delay_exponent": (LOCAL_DELAY, 2.0),
    "domain_weights": (
        {"kind": "wigner-domain", "domain_weights": {"+++;+++": "1"}},
        WignerDomainDistribution.from_partial({(1,) * 6: 1}),
    ),
    "station_t_labels": ({"station_t_labels": ["a", "b"]}, ("a", "b")),
    "station_l_labels": ({"station_l_labels": ["c"]}, ("c",)),
}


@pytest.mark.parametrize("field", SourceConfig._fields)
def test_every_config_field_reaches_the_config(field):
    edit, value = FIELD_EDITS[field]
    doc = {k: v for k, v in {**BASE, **edit}.items() if v is not None}
    assert getattr(config_from_dict(BASE), field) != value
    assert getattr(config_from_dict(doc), field) == value


@pytest.mark.parametrize("field", SourceConfig._defaults)
def test_an_omitted_config_field_takes_its_default(field):
    doc = {k: v for k, v in BASE.items() if k != field}
    if field == "total_pairs":
        doc["pairs_per_combination"] = 2
    assert getattr(config_from_dict(doc), field) == SourceConfig._defaults[field]


@pytest.mark.parametrize(
    "doc, missing",
    [({}, ["kind", "settings", "seed", "emission_period_ns"]), ({"seed": 1, "settings": []}, ["kind", "emission_period_ns"])],
)
def test_missing_config_fields_are_listed_in_schema_order(doc, missing):
    with pytest.raises(ConfigParseError) as err:
        config_from_dict(doc)
    assert str(err.value) == f"missing required config field(s): {missing}"


def test_config_domain_weights():
    doc = {
        "kind": "wigner-domain",
        "settings": BASE["settings"],
        "seed": 1,
        "emission_period_ns": 10,
        "total_pairs": 5,
        "convention": "equal",
        "domain_weights": {"+++;+++": "1/2", "---;---": "1/2"},
    }
    cfg = config_from_dict(doc)
    assert cfg.domain_weights.weights[(1, 1, 1, 1, 1, 1)] == Fraction(1, 2)
    bad = {**doc, "domain_weights": {"++;+++": "1"}}
    with pytest.raises(ConfigParseError):
        config_from_dict(bad)


# ---------------------------------------------------------------------------
# feasibility table files


def test_read_tables_counts_and_fractions(tmp_path):
    path = tmp_path / "tab.json"
    path.write_text(json.dumps({"a;b": {"pp": 1, "pm": 1, "mp": 1, "mm": 1}}))
    tables, convention = read_tables(str(path))
    assert convention is None
    assert tables.tables[("a", "b")][(1, 1)] == Fraction(1, 4)
    path.write_text(json.dumps({"a;b": {"pp": "1/3", "pm": "2/3", "mp": 0, "mm": 0}}))
    tables, _ = read_tables(str(path))
    assert tables.tables[("a", "b")][(1, -1)] == Fraction(2, 3)


def test_read_tables_wrapper_validation(tmp_path):
    path = tmp_path / "tab.json"
    inner = {"a;b": {"pp": 1, "pm": 0, "mp": 0, "mm": 0}}
    path.write_text(json.dumps({"convention": "anti", "tables": inner}))
    _, convention = read_tables(str(path))
    assert convention == "anti"
    path.write_text(json.dumps({"convention": "other", "tables": inner}))
    with pytest.raises(FormatError, match="convention"):
        read_tables(str(path))
    path.write_text(json.dumps({"tables": inner, "extra": 1}))
    with pytest.raises(FormatError, match="unknown top-level"):
        read_tables(str(path))
    path.write_text("[]")
    with pytest.raises(FormatError):
        read_tables(str(path))


# ---------------------------------------------------------------------------
# manifests


def test_manifest_round_trip(tmp_path):
    m = RunManifest(
        command="pair",
        inputs={"a": "sha256:00"},
        outputs={"b": "sha256:11"},
        parameters={"window_ns": 5},
        wall_time_s=0.125,
    )
    path = str(tmp_path / "m.json")
    write_manifest(path, m)
    doc = read_manifest(path)
    assert doc["command"] == "pair"
    assert doc["inputs"] == {"a": "sha256:00"}
    assert doc["parameters"] == {"window_ns": 5}
    assert "tool_version" in doc
