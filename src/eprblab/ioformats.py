"""File formats: event streams (JSON Lines), pair files, tally files
(written here), sweep CSVs, source config files, raw station logs, and run
manifests.  The config schema lives in ``sources``: ``load_config`` reads
the JSON and ``sources.config_from_dict`` checks it.

Writers are atomic (temp file in the same directory, then rename) and
deterministic: the same data produces the same bytes.  Each writer returns
"sha256:<hex>" of the bytes it wrote, so a caller records an output's
digest without reading the file back.  Readers read a file once, validate
eagerly and raise FormatError with a 1-based line number wherever a line
is attributable.

Event and pair files are written one line per row, with no whitespace and
keys in a fixed order, each line ending in a newline:

    {"island":"T","t_ns":5,"setting":"a","outcome":-1}
    {"t_left_ns":5,"t_right_ns":6,"setting_left":"a","setting_right":"c","outcome_left":1,"outcome_right":-1,"window_ns":3}

These are the bytes ``json.dumps(row, separators=(",", ":"))`` gives.
The line format of event files, pair files and raw station logs
(``t_ns setting outcome``; single spaces, outcome 1, +1 or -1) is stated
once per format as a field spec: a separator, and per field a literal
prefix, a kind (decimal, island letter, setting letter, sign) and a
literal suffix.  The spec gives the writers' ``%`` template and the
readers' compiled pattern.  A writer formats 64k rows at a time with one
``%`` of the repeated template and streams each chunk into the temp file
and the digest, so it holds a few MB however long the file.  Each format
has one reader: ``_rows`` takes the bytes in runs of whole lines (about
1 MB), and numpy builds the columns of a run the pattern takes, from each
line's separators.  Any other run (other key order or whitespace, CRLF
line ends, blank or comment lines, escapes, a missing final newline,
leading zeros, or a bad line) is parsed line by line into the same
columns, so one odd line costs only its own run.  A JSON line may not
repeat a key.  Line numbers count newlines only.

The checks that span rows run once over the columns: for event files and
raw logs one island and t_ns strictly increasing and below 2^63; for pair
files t_ns below 2^63 on both sides, a window that holds |t - t'| and no
T or L time on two rows (a detection is paired at most once; the error
names the line that paired it first).  The error reported is the one on
the first bad line of the file; within a line, a value that does not
parse comes first, then the checks in the order above.  Every station
stream is built by one stream builder, ``_station``.

``read_pairs`` gives the matcher's form (left, right, left_idx,
right_idx), the one form ``write_pairs_indexed`` and ``stats.tally``
take.

Tally files and feasibility table files are read in ``feasibility``
(``read_tally``, ``read_tables``), with the tables they hold, so the exact
commands (``inequalities``, ``feasibility``) never compile the line
formats above.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from . import __version__ as _version
from ._lazy import np
from .errors import JSON_TOO_DEEP, ConfigParseError, FormatError
from .model import (
    CELL_NAMES,
    CELLS,
    ISLANDS,
    MAX_T_NS,
    OUTCOMES,
    SETTING_LABELS,
    EventStream,
    Record,
    TallyTable,
    check_window,
)

if TYPE_CHECKING:  # imported where used: only simulate reads a config
    from .sources import SourceConfig

EVENT_KEYS = ("island", "t_ns", "setting", "outcome")
PAIR_KEYS = (
    "t_left_ns",
    "t_right_ns",
    "setting_left",
    "setting_right",
    "outcome_left",
    "outcome_right",
    "window_ns",
)
SWEEP_HEADER = "window_ns,pairs,statistic,stderr,violated"
EMPTY_CELL_MARKER = "EmptyCell"


def atomic_write(path: str, chunks: Iterable[bytes]) -> str:
    """Write the byte chunks to path via a same-directory temp file and
    rename, and return "sha256:<hex>" of the bytes written.  The old file, if
    any, stays whole until the rename.  The file gets the mode open() would
    give it under the current umask, not the owner-only mode of the temp
    file."""
    import hashlib  # here, so the commands that write no file never load OpenSSL

    umask = os.umask(0)  # setting the umask is the only way to read it
    os.umask(umask)
    digest = hashlib.sha256()
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            for chunk in chunks:
                handle.write(chunk)
                digest.update(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return "sha256:" + digest.hexdigest()


def sha256_file(path: str) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


# ---------------------------------------------------------------------------
# event streams


def write_events(path: str, stream: EventStream) -> str:
    def run(rows: slice) -> list[list]:
        return [[stream.island] * (rows.stop - rows.start), *_event_columns(stream, rows)]

    return atomic_write(path, _chunks(_EVENT_LINE, len(stream), run))


def read_events(path: str) -> EventStream:
    """Parse one station's event file.

    Every line must be a JSON object with exactly the keys island, t_ns,
    setting, outcome; one island per file; t_ns a nonnegative integer below
    2^63, strictly increasing down the file.
    """
    return _read_station(path, _EVENT_LINE, _event_line, None, "event file")


# ---------------------------------------------------------------------------
# line formats and the one reader

# The value pattern of each field kind and the column it is read into.  A
# letter is one byte; a decimal has no leading zeros and at most 19 digits,
# so it fits uint64.  A sign is its outcome's "1" or "-1"; "sign+" also takes
# the "+1" of raw logs.  A letter column holds byte codes and a sign column
# whether the sign is minus.
_KINDS = {
    "decimal": (rb"(?:0|[1-9][0-9]{0,18})", "u8"),
    "island": (b"[" + "".join(ISLANDS).encode() + b"]", "u1"),
    "setting": (b"[" + "".join(SETTING_LABELS).encode() + b"]", "u1"),
    "sign": (rb"-?1", "?"),
    "sign+": (rb"[+-]?1", "?"),
}


# Any number of whole lines.  A possessive repeat (Python 3.11 on) keeps no
# backtracking state per line, which makes the pattern check about a quarter
# faster; no line could be matched another way anyway.
_REPEAT = b"*+" if sys.version_info >= (3, 11) else b"*"


class _LineFormat(NamedTuple):
    """A line format: fields joined by a one-byte separator, then a newline.
    Each field is a literal prefix, a value of a kind in _KINDS and a literal
    suffix; no literal or value holds the separator, so a line's separators
    split it into its fields."""

    sep: int
    fields: tuple[tuple[bytes, str, bytes], ...]
    lines: re.Pattern  # any run of whole lines in this format
    template: str  # one line, with %s for each field's value


def _line_format(sep: bytes, *fields: tuple[bytes, str, bytes]) -> _LineFormat:
    assert not any(sep in prefix + suffix or b"%" in prefix + suffix for prefix, _, suffix in fields)
    line = sep.join(re.escape(prefix) + _KINDS[kind][0] + re.escape(suffix) for prefix, kind, suffix in fields)
    template = sep.join(prefix + b"%s" + suffix for prefix, _, suffix in fields) + b"\n"
    return _LineFormat(sep[0], fields, re.compile(b"(?:" + line + rb"\n)" + _REPEAT), template.decode())


def _json_format(keys: tuple[str, ...], kinds: tuple[str, ...]) -> _LineFormat:
    """The lines json.dumps(row, separators=(",", ":")) gives rows with these
    keys in this order; island and setting values are strings."""
    fields = []
    for key, kind in zip(keys, kinds):
        quote = b'"' if kind in ("island", "setting") else b""
        fields.append([f'"{key}":'.encode() + quote, kind, quote])
    fields[0][0] = b"{" + fields[0][0]
    fields[-1][2] += b"}"
    return _line_format(b",", *map(tuple, fields))


_EVENT_LINE = _json_format(EVENT_KEYS, ("island", "decimal", "setting", "sign"))
_PAIR_LINE = _json_format(PAIR_KEYS, ("decimal", "decimal", "setting", "setting", "sign", "sign", "decimal"))
_RAW_LINE = _line_format(b" ", (b"", "decimal", b""), (b"", "setting", b""), (b"", "sign+", b""))
# Whole lines per fullmatch call and per column build.  With the plain
# repeat, a single call over the file would grow the pattern engine's
# backtracking stack by a few hundred bytes per line; field offsets take
# eight bytes per field.
_STRICT_RUN_BYTES = 1 << 20
_MINUS, _NEWLINE, _ZERO = ord("-"), ord("\n"), ord("0")
# Rows per chunk a writer formats: it holds one chunk's values and text, a
# few MB, however long the file.
_WRITE_RUN_ROWS = 1 << 16


def _chunks(fmt: _LineFormat, n: int, run):
    """The lines of n rows in fmt, as byte chunks of up to _WRITE_RUN_ROWS
    rows; run(rows) gives the values of the rows in the slice rows, one list
    per field."""
    for start in range(0, n, _WRITE_RUN_ROWS):
        rows = slice(start, min(n, start + _WRITE_RUN_ROWS))
        values = [None] * (len(fmt.fields) * (rows.stop - start))
        for k, column in enumerate(run(rows)):
            values[k :: len(fmt.fields)] = column
        yield ((fmt.template * (rows.stop - start)) % tuple(values)).encode()


def _event_columns(stream: EventStream, rows) -> tuple[list, list, list]:
    """The times, setting labels and outcomes of the stream's events at rows
    (a slice or an index array), as lists."""
    labels = np.array(stream.labels)[stream.setting_idx[rows]]
    return stream.t_ns[rows].tolist(), labels.tolist(), stream.outcome[rows].tolist()


def _decimals(buf: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The decimal numbers buf[start:stop] row by row, as uint64; each has at
    most 19 digits, so none overflows."""
    width = stop - start
    value = np.zeros(len(start), dtype=np.uint64)
    for k in range(int(width.max())):
        has = width > k
        digit = buf[np.where(has, start + k, 0)] - _ZERO
        value = np.where(has, value * np.uint64(10) + digit, value)
    return value


def _run_columns(buf: np.ndarray, fmt: _LineFormat) -> list[np.ndarray]:
    """Each field's column over buf, whole lines in fmt.  A field ends at its
    separator or, for the last field, at the newline, and the next field
    starts one byte later."""
    ends = np.flatnonzero((buf == fmt.sep) | (buf == _NEWLINE))
    starts = np.concatenate(([0], ends[:-1] + 1))
    starts, ends = (offsets.reshape(-1, len(fmt.fields)).T for offsets in (starts, ends))
    columns = []
    for (prefix, kind, suffix), start, stop in zip(fmt.fields, starts, ends):
        start = start + len(prefix)
        if kind == "decimal":
            columns.append(_decimals(buf, start, stop - len(suffix)))
        elif kind.startswith("sign"):
            columns.append(buf[start] == _MINUS)
        else:
            columns.append(buf[start])
    return columns


def _rows(data: bytes, fmt: _LineFormat, parse_line):
    """The rows of a file's bytes as (columns, lines, fault).

    The bytes are taken in runs of whole lines of about _STRICT_RUN_BYTES.
    numpy builds the columns of a run that is all in fmt; any other run is
    parsed line by line: parse_line takes a line's stripped text and gives
    its row in fmt's column form, None for a line with no row, or raises
    ValueError with the message for the line.  lines holds each run's line
    numbers, one per row; a line ends at each newline and nowhere else.
    fault is the (line, message) of the line that stopped parsing, or None;
    the rows end before it.
    """
    runs = [[np.empty(0, _KINDS[kind][1]) for _, kind, _ in fmt.fields]]
    lines: list = []
    fault = None
    line, start = 1, 0
    while start < len(data) and fault is None:
        stop = data.find(b"\n", start + _STRICT_RUN_BYTES) + 1 or len(data)
        if fmt.lines.fullmatch(data, start, stop):
            runs.append(_run_columns(np.frombuffer(data, np.uint8, stop - start, start), fmt))
            lines.append(range(line, line + len(runs[-1][0])))
            line = lines[-1].stop
        else:
            rows, numbers = [], []
            # The last piece follows the run's last newline, so the loop
            # leaves line at the next run's first line.
            for line, raw in enumerate(data[start:stop].split(b"\n"), line):
                try:
                    row = parse_line(raw.decode("utf-8").strip())
                except UnicodeDecodeError:
                    fault = line, "line is not valid UTF-8"
                except ValueError as exc:
                    fault = line, str(exc)
                if fault is not None:
                    break
                if row is not None:
                    rows.append(row)
                    numbers.append(line)
            if rows:
                runs.append([np.array(column, _KINDS[kind][1]) for column, (_, kind, _) in zip(zip(*rows), fmt.fields)])
            lines.append(numbers)
        start = stop
    return [np.concatenate(column) for column in zip(*runs)], lines, fault


def _raise_first_fault(path: str, lines: list, fault, checks) -> None:
    """Raise the FormatError of the file's first bad line, if it has one.
    checks are (bad, message) in the order they rank within one line: bad
    flags the rows that fail the check, and message(k, line) words row k's
    fault, given the line number of every row.  fault is the line that
    stopped parsing (see _rows); it comes after every row."""
    found = [(int(np.argmax(bad)), rank) for rank, (bad, _) in enumerate(checks) if bad.any()]
    if found:
        k, rank = min(found)
        line = [number for run in lines for number in run]
        raise FormatError(checks[rank][1](k, line), line=line[k], path=path)
    if fault is not None:
        raise FormatError(fault[1], line=fault[0], path=path)


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object's (key, value) pairs as a dict; a key may not repeat."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _json_line(text: str, keys: tuple[str, ...], what: str) -> dict:
    """The JSON object on one line, having each of the given keys once."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise ValueError(f"invalid JSON: {getattr(exc, 'msg', exc)}") from None
    except RecursionError:
        raise ValueError(JSON_TOO_DEEP) from None
    if not isinstance(obj, dict) or obj.keys() != set(keys):
        raise ValueError(f"{what} must have exactly the keys {list(keys)}")
    return obj


def _time_fault(t_ns) -> str:
    return f"t_ns must be a nonnegative integer below 2^63, got {t_ns!r}"


def _values(t_ns, setting, outcome) -> tuple[int, int, bool]:
    """One event's fields in column form: t_ns an integer that fits uint64
    (the column checks bound it by 2^63), the byte code of a known setting,
    and whether the outcome, +1 or -1, is -1."""
    if type(t_ns) is not int or not 0 <= t_ns < 1 << 64:
        raise ValueError(_time_fault(t_ns))
    if setting not in SETTING_LABELS:
        raise ValueError(f"setting must be one of {list(SETTING_LABELS)}, got {setting!r}")
    if type(outcome) is not int or outcome not in OUTCOMES:
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
    return t_ns, ord(setting), outcome < 0


def _event_line(text: str):
    if not text:
        return None
    obj = _json_line(text, EVENT_KEYS, "event")
    if obj["island"] not in ISLANDS:
        raise ValueError(f"island must be 'T' or 'L', got {obj['island']!r}")
    return ord(obj["island"]), *_values(obj["t_ns"], obj["setting"], obj["outcome"])


def _station(island: str, t: np.ndarray, codes: np.ndarray, negative: np.ndarray) -> EventStream:
    """The stream of one station's columns: the times, the byte code of each
    event's setting letter and whether each outcome is -1.  Its label menu
    is the labels present, or the first label when there is no event."""
    menu = np.flatnonzero(np.bincount(codes, minlength=256))  # np.unique would import numpy.ma
    return EventStream(
        island=island,
        labels=tuple(chr(c) for c in menu.tolist()) or SETTING_LABELS[:1],
        t_ns=t.astype(np.int64, copy=False),
        setting_idx=np.searchsorted(menu, codes).astype(np.int16),
        outcome=np.where(negative, -1, 1).astype(np.int8),
    )


def _read_station(path: str, fmt: _LineFormat, parse_line, island: str | None, what: str) -> EventStream:
    """One station's stream from an event file (island None: each row names
    it) or a raw log of the given island.  Raises FormatError naming the
    first bad line, or naming the file (``what``) when it holds no row."""
    columns, lines, fault = _rows(Path(path).read_bytes(), fmt, parse_line)
    t, codes, negative = columns[-3:]
    checks = []
    if island is None and len(t):
        islands = columns[0]
        island = chr(islands[0])
        checks.append((islands != islands[0], lambda k, line: f"mixed islands: file started with {island!r}, line has {chr(islands[k])!r}"))
    checks += [
        (t > MAX_T_NS, lambda k, line: _time_fault(int(t[k]))),
        (np.concatenate(([False], t[1:] <= t[:-1])),
         lambda k, line: f"timestamps must be strictly increasing, got {t[k]} after {t[k - 1]}"),
    ]
    _raise_first_fault(path, lines, fault, checks)
    if not len(t):
        raise FormatError(f"{what} is empty", path=path)
    return _station(island, t, codes, negative)


# ---------------------------------------------------------------------------
# pair files


def write_pairs_indexed(
    path: str, left: EventStream, right: EventStream, left_idx: np.ndarray, right_idx: np.ndarray, window_ns: int
) -> str:
    check_window(window_ns)
    window = int(window_ns)  # a plain JSON number, whatever integer type the window has

    def run(rows: slice) -> list[list]:
        t_left, s_left, o_left = _event_columns(left, left_idx[rows])
        t_right, s_right, o_right = _event_columns(right, right_idx[rows])
        return [t_left, t_right, s_left, s_right, o_left, o_right, [window] * len(t_left)]

    return atomic_write(path, _chunks(_PAIR_LINE, len(left_idx), run))


def _pair_line(text: str):
    """A pair line's row.  A window past 2^63 - 1, which only a line not in
    the writer's layout can hold, is stored as 2^63 - 1: no |t - t'| exceeds
    either."""
    if not text:
        return None
    obj = _json_line(text, PAIR_KEYS, "pair")
    t_left, s_left, n_left = _values(obj["t_left_ns"], obj["setting_left"], obj["outcome_left"])
    t_right, s_right, n_right = _values(obj["t_right_ns"], obj["setting_right"], obj["outcome_right"])
    check_window(obj["window_ns"])
    return t_left, t_right, s_left, s_right, n_left, n_right, min(obj["window_ns"], MAX_T_NS)


def _pair_side(island: str, t: np.ndarray, codes: np.ndarray, negative: np.ndarray):
    """One side of a pair file's rows as (columns, at, reuse): the side's
    ``_station`` arguments sorted stably by time, at[k] the place of row k
    in that order, and reuse the check that no time is on two rows, which
    names the first row that has it."""
    order = np.argsort(t, kind="stable")
    at = np.empty_like(order)
    at[order] = np.arange(len(order))
    t = t[order]
    reused = np.zeros(len(t), dtype=bool)
    reused[order[1:]] = t[1:] == t[:-1]

    def message(k: int, line: list[int]) -> str:
        return f"{island} detection at t_ns {t[at[k]]} is already paired on line {line[order[at[k] - 1]]}"

    return (island, t, codes[order], negative[order]), at, (reused, message)


def read_pairs(path: str) -> tuple[EventStream, EventStream, np.ndarray, np.ndarray]:
    """Parse a pair file into the matcher's form (left, right, left_idx,
    right_idx): the file's T and L events as streams sorted by time, and
    row k pairing left event left_idx[k] with right event right_idx[k].
    Raises FormatError naming the first bad line: besides a bad side, a
    time of 2^63 or more on either side, a window below |t - t'|, or a T or
    L time that an earlier line already paired.
    """
    columns, lines, fault = _rows(Path(path).read_bytes(), _PAIR_LINE, _pair_line)
    t_left, t_right, s_left, s_right, n_left, n_right, window = columns
    late = np.maximum(t_left, t_right)
    dt = late - np.minimum(t_left, t_right)
    (left, left_idx, left_reuse), (right, right_idx, right_reuse) = (
        _pair_side("T", t_left, s_left, n_left),
        _pair_side("L", t_right, s_right, n_right),
    )
    checks = [
        (late > MAX_T_NS, lambda k, line: _time_fault(int(late[k] if t_left[k] <= MAX_T_NS else t_left[k]))),
        (dt > window, lambda k, line: f"|t - t'| = {dt[k]} exceeds window {window[k]}"),
        left_reuse,
        right_reuse,
    ]
    _raise_first_fault(path, lines, fault, checks)
    return _station(*left), _station(*right), left_idx, right_idx


# ---------------------------------------------------------------------------
# tally files


def write_tally(path: str, tally: TallyTable) -> str:
    doc = {
        ";".join(pair): {CELL_NAMES[c]: tally.counts[pair][c] for c in CELLS}
        for pair in sorted(tally.counts)
    }
    return atomic_write(path, [(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()])


# ---------------------------------------------------------------------------
# sweep CSV


def write_sweep_csv(path: str, rows: Iterable) -> str:
    """Write ``stats.sweep_window`` rows, one CSV line per window."""
    lines = [SWEEP_HEADER]
    for row in rows:
        if row.statistic is None:
            lines.append(f"{row.window_ns},{row.pairs},{EMPTY_CELL_MARKER},{EMPTY_CELL_MARKER},{EMPTY_CELL_MARKER}")
        else:
            flag = "true" if row.violated else "false"
            lines.append(f"{row.window_ns},{row.pairs},{row.statistic!r},{row.stderr!r},{flag}")
    return atomic_write(path, [("\n".join(lines) + "\n").encode()])


# ---------------------------------------------------------------------------
# source configs


def load_config(path: str, seed_override: int | None = None) -> SourceConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config {path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except UnicodeDecodeError:
        raise ConfigParseError(f"config {path}: not valid UTF-8")
    except ValueError as exc:  # e.g. an integer too long for the parser to convert
        raise ConfigParseError(f"config {path}: invalid JSON: {exc}")
    except RecursionError:
        raise ConfigParseError(f"config {path}: {JSON_TOO_DEEP}") from None
    from .sources import config_from_dict

    return config_from_dict(doc, seed_override)


# ---------------------------------------------------------------------------
# raw station logs


_RAW_OUTCOMES = {"1": 1, "+1": 1, "-1": -1}
# int() alone would also read '1_0' and non-ASCII digits
_RAW_TIME = re.compile(r"[+-]?[0-9]+")


def _raw_line(text: str):
    if not text or text.startswith("#"):
        return None
    parts = text.split()
    if len(parts) != 3:
        raise ValueError(f"expected 't_ns setting outcome', got {len(parts)} field(s)")
    t_text, setting, o_text = parts
    if not _RAW_TIME.fullmatch(t_text):
        raise ValueError(f"t_ns must be an integer, got {t_text!r}")
    return _values(int(t_text), setting, _RAW_OUTCOMES.get(o_text, o_text))


def read_raw_station(path: str, island: str) -> EventStream:
    """Parse a whitespace-separated raw log with lines 't_ns setting outcome'
    (outcome +1, 1 or -1; '#' starts a comment line)."""
    if island not in ISLANDS:
        raise ValueError(f"island must be 'T' or 'L', got {island!r}")
    return _read_station(path, _RAW_LINE, _raw_line, island, "raw station log")


# ---------------------------------------------------------------------------
# run manifests


class RunManifest(Record):
    """Provenance record written next to every file a command produces."""

    command: str
    seed: int | None = None
    config_digest: str | None = None
    inputs: Mapping[str, str] = MappingProxyType({})
    outputs: Mapping[str, str] = MappingProxyType({})
    parameters: Mapping[str, object] = MappingProxyType({})
    tool_version: str = _version
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        """The fields in order, with the three mappings sorted by key."""
        doc = {name: getattr(self, name) for name in self._fields}
        return doc | {key: dict(sorted(doc[key].items())) for key in ("inputs", "outputs", "parameters")}


def write_manifest(path: str, manifest: RunManifest) -> str:
    return atomic_write(path, [(json.dumps(manifest.to_dict(), indent=2) + "\n").encode()])
