"""File formats: event streams (JSON Lines), pair files, tally tables,
sweep CSVs, source configs, feasibility table files, raw station logs,
and run manifests.

Writers are atomic (temp file in the same directory, then rename) and
deterministic: the same data produces the same bytes.  Each writer returns
"sha256:<hex>" of the bytes it wrote, so a caller records an output's
digest without reading the file back.  Readers read a file once, validate
eagerly and raise FormatError with a 1-based line number wherever a line
is attributable.

Event and pair files are written one line per row from a fixed template
over the columns, with no whitespace and keys in a fixed order, each line
ending in a newline:

    {"island":"T","t_ns":5,"setting":"a","outcome":-1}
    {"t_left_ns":5,"t_right_ns":6,"setting_left":"a","setting_right":"c","outcome_left":1,"outcome_right":-1,"window_ns":3}

These are the bytes ``json.dumps(row, separators=(",", ":"))`` gives.
Event files, pair files and raw station logs (``t_ns setting outcome``
with single spaces and outcome 1, +1 or -1) are first read whole by one
strict reader.  Each of the three line formats is stated once, as a
field spec: a separator, and per field a literal prefix, a kind
(decimal, island letter, setting letter, sign) and a literal suffix.
The spec gives the compiled pattern that checks every line of the file
and the position of every field, from each line's separators; numpy
builds the columns one run of whole lines (about 1 MB) at a time.
Decimals have no leading zeros.  The strict reader also checks, in
vectorized form, what the per-line reader checks: for event files and
raw logs one island and t_ns strictly increasing and below 2^63; for
pair files t_ns below 2^63 on both sides, a window that holds |t - t'|
and no T or L time on two rows.  Any other file (other key order or
whitespace, CRLF line ends, blank or comment lines, escapes, a missing
final newline, leading zeros, or a bad line) goes to the per-line
reader, which parses each line of the bytes already read on its own and
either accepts the file or raises the line-numbered FormatError.  Both
readers give the same result for every file the strict one accepts.
Every station stream is built by one stream builder, ``_station``.

``read_pairs`` gives the matcher's form (left, right, left_idx,
right_idx), the one form ``write_pairs_indexed`` and ``stats.tally``
take.  Since a detection is paired at most once, the per-line reader
reports a T or L time that appears on two rows as a FormatError naming
both lines.

Tally files and the count layout of feasibility table files share one
key and cell parse; probability tables go through it with exact fractions
for cells.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import __version__ as _version
from .errors import ConfigParseError, FormatError
from .feasibility import PairwiseTables, _as_fraction
from .model import (
    CELL_FROM_NAME,
    CELL_NAMES,
    CELLS,
    ISLANDS,
    MAX_T_NS,
    OUTCOMES,
    SETTING_LABELS,
    EventStream,
    Setting,
    TallyTable,
    WignerDomainDistribution,
    check_window,
    domain_key_from_string,
    domain_key_to_string,
    l_sign,
)
from .sources import SourceConfig
from .stats import SweepRow

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


def atomic_write_text(path: str, text: str) -> str:
    """Write text to path as UTF-8 via a same-directory temp file and rename,
    and return "sha256:<hex>" of the bytes written.  The file gets the mode
    open() would give it under the current umask, not the owner-only mode of
    the temp file."""
    data = text.encode("utf-8")
    umask = os.umask(0)  # setting the umask is the only way to read it
    os.umask(umask)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return "sha256:" + hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


# ---------------------------------------------------------------------------
# event streams


def write_events(path: str, stream: EventStream) -> str:
    island, labels = stream.island, stream.labels
    lines = [
        f'{{"island":"{island}","t_ns":{t},"setting":"{labels[s]}","outcome":{o}}}\n'
        for t, s, o in zip(stream.t_ns.tolist(), stream.setting_idx.tolist(), stream.outcome.tolist())
    ]
    return atomic_write_text(path, "".join(lines))


def _format_error(path: str, line: int, message: str) -> FormatError:
    return FormatError(message, line=line, path=path)


def _read_json(path: str):
    """Parse a whole-file JSON document.  Any ValueError from the parser,
    including an integer too long to convert, becomes a FormatError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc.msg}", line=exc.lineno, path=path)
        except ValueError as exc:
            raise FormatError(f"invalid JSON: {exc}", path=path)


def _check_row(path: str, lineno: int, t_ns, setting, outcome, after: int = -1) -> None:
    """Check one event's fields: t_ns an integer that fits the stream's int64
    column and lies past ``after``, a known setting, outcome +1 or -1.
    Raises FormatError naming the line."""
    if type(t_ns) is not int or not 0 <= t_ns <= MAX_T_NS:
        raise _format_error(path, lineno, f"t_ns must be a nonnegative integer below 2^63, got {t_ns!r}")
    if t_ns <= after:
        raise _format_error(path, lineno, f"timestamps must be strictly increasing, got {t_ns} after {after}")
    if setting not in SETTING_LABELS:
        raise _format_error(path, lineno, f"setting must be one of {list(SETTING_LABELS)}, got {setting!r}")
    if type(outcome) is not int or outcome not in OUTCOMES:
        raise _format_error(path, lineno, f"outcome must be +1 or -1, got {outcome!r}")


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


def _columns(rows: list[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``_station`` columns of checked (t_ns, setting, outcome) rows."""
    t, settings, outcomes = zip(*rows) if rows else ((), (), ())
    codes = np.frombuffer("".join(settings).encode(), np.uint8)
    return np.array(t, dtype=np.int64), codes, np.array(outcomes, dtype=np.int8) < 0


def _stream_from_rows(path: str, rows: Iterable[tuple], what: str) -> EventStream:
    """Check one station's (lineno, island, t_ns, setting, outcome) rows in
    file order and build its stream.

    Raises FormatError naming the line of the first bad row, or naming the
    file (``what``) when it holds no row.
    """
    island = None
    events: list[tuple] = []
    prev = -1
    for lineno, isl, t_ns, setting, outcome in rows:
        if isl not in ISLANDS:
            raise _format_error(path, lineno, f"island must be 'T' or 'L', got {isl!r}")
        if island is None:
            island = isl
        elif isl != island:
            raise _format_error(path, lineno, f"mixed islands: file started with {island!r}, line has {isl!r}")
        _check_row(path, lineno, t_ns, setting, outcome, after=prev)
        prev = t_ns
        events.append((t_ns, setting, outcome))
    if island is None:
        raise FormatError(f"{what} is empty", path=path)
    return _station(island, *_columns(events))


def _lines(path: str, handle):
    """Yield (lineno, stripped text) for each line of a binary file object
    holding path's UTF-8 bytes; a line that does not decode is a FormatError
    naming it."""
    for lineno, raw in enumerate(handle, start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise _format_error(path, lineno, "line is not valid UTF-8")
        yield lineno, text.strip()


def _json_rows(path: str, handle, keys: tuple[str, ...], what: str):
    """Yield (lineno, object) for each nonblank line of a JSON-lines file,
    each object having exactly the given keys."""
    key_set = frozenset(keys)
    for lineno, text in _lines(path, handle):
        if not text:
            continue
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise _format_error(path, lineno, f"invalid JSON: {getattr(exc, 'msg', exc)}")
        if not isinstance(obj, dict) or obj.keys() != key_set:
            raise _format_error(path, lineno, f"{what} must have exactly the keys {list(keys)}")
        yield lineno, obj


def _event_rows(path: str, handle):
    for lineno, obj in _json_rows(path, handle, EVENT_KEYS, "event"):
        yield lineno, obj["island"], obj["t_ns"], obj["setting"], obj["outcome"]


def read_events(path: str) -> EventStream:
    """Parse one station's event file.

    Every line must be a JSON object with exactly the keys island, t_ns,
    setting, outcome; one island per file; t_ns a nonnegative integer below
    2^63, strictly increasing down the file.
    """
    data = Path(path).read_bytes()
    stream = _read_strict(data, _EVENT_LINE)
    if stream is None:
        stream = _stream_from_rows(path, _event_rows(path, io.BytesIO(data)), "event file")
    return stream


# ---------------------------------------------------------------------------
# strict whole-file reading of the writers' exact line formats

# The value pattern of each field kind.  A letter is one byte; a decimal has
# no leading zeros and at most 19 digits, so it fits uint64.  A sign is its
# outcome's "1" or "-1"; "sign+" also takes the "+1" of raw logs.
_KINDS = {
    "decimal": rb"(?:0|[1-9][0-9]{0,18})",
    "island": b"[" + "".join(ISLANDS).encode() + b"]",
    "setting": b"[" + "".join(SETTING_LABELS).encode() + b"]",
    "sign": rb"-?1",
    "sign+": rb"[+-]?1",
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


def _line_format(sep: bytes, *fields: tuple[bytes, str, bytes]) -> _LineFormat:
    assert not any(sep in prefix + suffix for prefix, _, suffix in fields)
    line = sep.join(re.escape(prefix) + _KINDS[kind] + re.escape(suffix) for prefix, kind, suffix in fields)
    return _LineFormat(sep[0], fields, re.compile(b"(?:" + line + rb"\n)" + _REPEAT))


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


def _strict_columns(data: bytes, fmt: _LineFormat) -> list[np.ndarray] | None:
    """Each field's column over the lines of data if data is nonempty and
    every line of it, newline included, is in fmt; else None.  A decimal
    column is uint64, a letter column holds each letter's byte code and a
    sign column whether each sign is minus.  Columns are built one run of
    whole lines at a time, so no field offset outlives its run."""
    runs = []
    start = 0
    while start < len(data):
        stop = data.find(b"\n", start + _STRICT_RUN_BYTES) + 1 or len(data)
        if fmt.lines.fullmatch(data, start, stop) is None:
            return None
        runs.append(_run_columns(np.frombuffer(data, np.uint8, stop - start, start), fmt))
        start = stop
    return [np.concatenate(column) for column in zip(*runs)] if runs else None


def _read_strict(data: bytes, fmt: _LineFormat, island: str | None = None) -> EventStream | None:
    """The stream of a file's bytes whose lines are all in fmt: the event
    format, or a raw format of (t_ns, setting, outcome) with the island
    given.  None when any line is not in fmt, or when a check the per-line
    reader makes fails: one island, t_ns strictly increasing and below
    2^63."""
    columns = _strict_columns(data, fmt)
    if columns is None:
        return None
    if island is None:
        islands, *columns = columns
        if not (islands == islands[0]).all():
            return None
        island = chr(islands[0])
    t, codes, negative = columns
    if t.max() > MAX_T_NS or not (t[1:] > t[:-1]).all():
        return None
    return _station(island, t, codes, negative)


# ---------------------------------------------------------------------------
# pair files


def write_pairs_indexed(
    path: str,
    left: EventStream,
    right: EventStream,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
    window_ns: int,
) -> str:
    window = json.dumps(window_ns)
    ll, rl = left.labels, right.labels
    lines = [
        f'{{"t_left_ns":{tl},"t_right_ns":{tr},"setting_left":"{ll[sl]}","setting_right":"{rl[sr]}",'
        f'"outcome_left":{ol},"outcome_right":{orr},"window_ns":{window}}}\n'
        for tl, tr, sl, sr, ol, orr in zip(
            left.t_ns[left_idx].tolist(),
            right.t_ns[right_idx].tolist(),
            left.setting_idx[left_idx].tolist(),
            right.setting_idx[right_idx].tolist(),
            left.outcome[left_idx].tolist(),
            right.outcome[right_idx].tolist(),
        )
    ]
    return atomic_write_text(path, "".join(lines))


def read_pairs(path: str) -> tuple[EventStream, EventStream, np.ndarray, np.ndarray]:
    """Parse a pair file into the matcher's form (left, right, left_idx,
    right_idx): the file's T and L events as streams sorted by time, and
    row k pairing left event left_idx[k] with right event right_idx[k].
    """
    data = Path(path).read_bytes()
    (left, left_idx), (right, right_idx) = _strict_pair_sides(data) or _pair_sides(path, data)
    return left, right, left_idx, right_idx


def _pair_side(island: str, t: np.ndarray, codes: np.ndarray, negative: np.ndarray):
    """One side of a pair file's rows as (stream, at): the side's events
    sorted by time, and at[k] the index in it of row k's event.  None when a
    time repeats."""
    order = np.argsort(t, kind="stable")
    t = t[order]
    if (t[1:] == t[:-1]).any():
        return None
    at = np.empty_like(order)
    at[order] = np.arange(len(order))
    return _station(island, t, codes[order], negative[order]), at


def _strict_pair_sides(data: bytes):
    """The two sides of a pair file's bytes whose lines are all in the
    writer's format, or None when any line is not, or when a check the
    per-line reader makes fails: t_ns below 2^63, the window holding
    |t - t'|, no detection paired twice."""
    columns = _strict_columns(data, _PAIR_LINE)
    if columns is None:
        return None
    t_left, t_right, s_left, s_right, n_left, n_right, window = columns
    if max(t_left.max(), t_right.max()) > MAX_T_NS:
        return None
    if not (np.maximum(t_left, t_right) - np.minimum(t_left, t_right) <= window).all():
        return None
    sides = [_pair_side("T", t_left, s_left, n_left), _pair_side("L", t_right, s_right, n_right)]
    return None if None in sides else sides


def _pair_sides(path: str, data: bytes):
    """The two sides of a pair file's bytes, read line by line.  Raises
    FormatError naming the first bad line, or, when every line is good, the
    first line that pairs a detection an earlier line paired."""
    lines: list[int] = []
    rows: tuple[list[tuple], list[tuple]] = ([], [])
    for lineno, obj in _json_rows(path, io.BytesIO(data), PAIR_KEYS, "pair"):
        left = (obj["t_left_ns"], obj["setting_left"], obj["outcome_left"])
        right = (obj["t_right_ns"], obj["setting_right"], obj["outcome_right"])
        _check_row(path, lineno, *left)
        _check_row(path, lineno, *right)
        try:
            check_window(obj["window_ns"], abs(left[0] - right[0]))
        except ValueError as exc:
            raise _format_error(path, lineno, str(exc))
        lines.append(lineno)
        rows[0].append(left)
        rows[1].append(right)
    sides = [_pair_side(island, *_columns(side)) for island, side in zip(ISLANDS, rows)]
    if None in sides:
        first: tuple[dict[int, int], dict[int, int]] = ({}, {})
        for lineno, *row in zip(lines, *rows):
            for island, (t_ns, _, _), seen in zip(ISLANDS, row, first):
                earlier = seen.setdefault(t_ns, lineno)
                if earlier != lineno:
                    raise _format_error(path, lineno, f"{island} detection at t_ns {t_ns} is already paired on line {earlier}")
    return sides


# ---------------------------------------------------------------------------
# tally files


def write_tally(path: str, tally: TallyTable) -> str:
    doc = {
        ";".join(pair): {CELL_NAMES[c]: tally.counts[pair][c] for c in CELLS}
        for pair in sorted(tally.counts)
    }
    return atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _count(value) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"must be a nonnegative integer, got {value!r}")
    return value


def _parse_tables(doc, path: str, cell) -> dict[tuple[str, str], dict[tuple[int, int], object]]:
    """The tables of a JSON object keyed by 'x;y', each holding exactly the
    four named cells, every value converted by ``cell``; a ValueError from
    it becomes a FormatError naming the table and cell."""
    if not isinstance(doc, dict):
        raise FormatError("tally file must be a JSON object keyed by 'x;y'", path=path)
    tables = {}
    for key, cells in doc.items():
        pair = tuple(key.split(";"))
        if len(pair) != 2 or any(label not in SETTING_LABELS for label in pair):
            raise FormatError(f"bad setting-pair key {key!r}, expected 'x;y' with labels from {list(SETTING_LABELS)}", path=path)
        if not isinstance(cells, dict) or set(cells) != set(CELL_FROM_NAME):
            raise FormatError(f"table {key!r} must have exactly the cells {sorted(CELL_FROM_NAME)}", path=path)
        table = tables[pair] = {}
        for name, value in cells.items():
            try:
                table[CELL_FROM_NAME[name]] = cell(value)
            except ValueError as exc:
                raise FormatError(f"table {key!r} cell {name!r}: {exc}", path=path) from None
    return tables


def read_tally(path: str) -> TallyTable:
    return TallyTable(_parse_tables(_read_json(path), path, _count))


# ---------------------------------------------------------------------------
# sweep CSV


def write_sweep_csv(path: str, rows: Iterable[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    for row in rows:
        if row.statistic is None:
            lines.append(f"{row.window_ns},{row.pairs},{EMPTY_CELL_MARKER},{EMPTY_CELL_MARKER},{EMPTY_CELL_MARKER}")
        else:
            flag = "true" if row.violated else "false"
            lines.append(f"{row.window_ns},{row.pairs},{row.statistic!r},{row.stderr!r},{flag}")
    return atomic_write_text(path, "\n".join(lines) + "\n")


def read_sweep_csv(path: str) -> list[SweepRow]:
    rows: list[SweepRow] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = [ln.rstrip("\n") for ln in handle]
    if not lines or lines[0] != SWEEP_HEADER:
        raise FormatError(f"sweep file must start with the header {SWEEP_HEADER!r}", line=1, path=path)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise _format_error(path, lineno, f"expected 5 comma-separated fields, got {len(parts)}")
        try:
            window = int(parts[0])
            pairs = int(parts[1])
            if parts[2] == EMPTY_CELL_MARKER:
                rows.append(SweepRow(window, pairs, None, None, None))
            else:
                rows.append(SweepRow(window, pairs, float(parts[2]), float(parts[3]), parts[4] == "true"))
        except ValueError as exc:
            raise _format_error(path, lineno, str(exc))
    return rows


# ---------------------------------------------------------------------------
# source configs

_CONFIG_KEYS = (
    "kind",
    "settings",
    "seed",
    "emission_period_ns",
    "jitter_ns",
    "total_pairs",
    "pairs_per_combination",
    "convention",
    "max_delay_ns",
    "delay_exponent",
    "domain_weights",
    "station_t_labels",
    "station_l_labels",
)


def _parse_domain_weights(obj, labels: list[str]) -> WignerDomainDistribution:
    if not isinstance(obj, dict) or not obj:
        raise ConfigParseError("domain_weights must be a nonempty object of 'sss;ttt' keys")
    try:
        keys = [domain_key_from_string(k) for k in obj]
    except ValueError as exc:
        raise ConfigParseError(f"domain_weights: {exc}")
    n = len(keys[0]) // 2
    if any(len(k) != 2 * n for k in keys):
        raise ConfigParseError("domain_weights keys must all describe the same number of settings")
    settings = SETTING_LABELS[:n]
    try:
        weights = {k: _as_fraction(v) for k, v in zip(keys, obj.values())}
        return WignerDomainDistribution.from_partial(weights, settings=settings)
    except ValueError as exc:
        raise ConfigParseError(f"domain_weights: {exc}")


def config_from_dict(doc: Mapping, seed_override: int | None = None) -> SourceConfig:
    if not isinstance(doc, Mapping):
        raise ConfigParseError("config must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigParseError(f"unknown config field(s): {unknown}")
    missing = [k for k in ("kind", "settings", "seed", "emission_period_ns") if k not in doc]
    if missing:
        raise ConfigParseError(f"missing required config field(s): {missing}")
    raw_settings = doc["settings"]
    if not isinstance(raw_settings, list) or not raw_settings:
        raise ConfigParseError("settings must be a nonempty list of {label, angle_deg} objects")
    settings = []
    for i, s in enumerate(raw_settings):
        if not isinstance(s, dict) or set(s) != {"label", "angle_deg"}:
            raise ConfigParseError(f"settings[{i}] must be an object with exactly label and angle_deg")
        try:
            settings.append(Setting(s["label"], float(s["angle_deg"])))
        except (ValueError, TypeError) as exc:
            raise ConfigParseError(f"settings[{i}]: {exc}")
    labels = [s.label for s in settings]

    weights = None
    if doc.get("domain_weights") is not None:
        weights = _parse_domain_weights(doc["domain_weights"], labels)

    def menu(key):
        v = doc.get(key)
        if v is None:
            return None
        if not isinstance(v, list) or not all(isinstance(x, str) for x in v):
            raise ConfigParseError(f"{key} must be a list of setting labels")
        return tuple(v)

    seed = doc["seed"] if seed_override is None else seed_override
    try:
        return SourceConfig(
            kind=doc["kind"],
            settings=tuple(settings),
            seed=seed,
            emission_period_ns=doc["emission_period_ns"],
            jitter_ns=doc.get("jitter_ns", 0),
            total_pairs=doc.get("total_pairs"),
            pairs_per_combination=doc.get("pairs_per_combination"),
            convention=doc.get("convention", "anti"),
            max_delay_ns=doc.get("max_delay_ns"),
            delay_exponent=doc.get("delay_exponent"),
            domain_weights=weights,
            station_t_labels=menu("station_t_labels"),
            station_l_labels=menu("station_l_labels"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigParseError(str(exc))


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
    return config_from_dict(doc, seed_override)


def config_to_dict(config: SourceConfig) -> dict:
    doc: dict = {
        "kind": config.kind,
        "settings": [{"label": s.label, "angle_deg": s.angle_deg} for s in config.settings],
        "seed": int(config.seed),
        "emission_period_ns": config.emission_period_ns,
        "jitter_ns": config.jitter_ns,
        "convention": config.convention,
    }
    if config.total_pairs is not None:
        doc["total_pairs"] = config.total_pairs
    if config.pairs_per_combination is not None:
        doc["pairs_per_combination"] = config.pairs_per_combination
    if config.max_delay_ns is not None:
        doc["max_delay_ns"] = config.max_delay_ns
    if config.delay_exponent is not None:
        doc["delay_exponent"] = config.delay_exponent
    if config.domain_weights is not None:
        doc["domain_weights"] = {
            domain_key_to_string(k): str(w) for k, w in config.domain_weights.weights.items() if w != 0
        }
    if config.station_t_labels is not None:
        doc["station_t_labels"] = list(config.station_t_labels)
    if config.station_l_labels is not None:
        doc["station_l_labels"] = list(config.station_l_labels)
    return doc


def save_config(path: str, config: SourceConfig) -> str:
    return atomic_write_text(path, json.dumps(config_to_dict(config), indent=2) + "\n")


# ---------------------------------------------------------------------------
# feasibility table files


def read_tables(path: str) -> tuple[PairwiseTables, str | None]:
    """Read pairwise tables for the feasibility decision.

    Two layouts are accepted: a tally file (integer counts, normalized
    here; a listed table with no count is an EmptyCellError, as an all-zero
    probability table is an error), or exact probabilities given as 'p/q' strings, integers, or
    decimal numbers.  Either layout may be wrapped in an object
    {"convention": ..., "tables": {...}} to pin the reporting convention;
    the returned convention is None when the file does not state one.
    """
    doc = _read_json(path)
    convention = None
    if isinstance(doc, dict) and "tables" in doc:
        extra = set(doc) - {"tables", "convention"}
        if extra:
            raise FormatError(f"unknown top-level key(s) {sorted(extra)}", path=path)
        if "convention" in doc:
            convention = doc["convention"]
            try:
                l_sign(convention)
            except ValueError as exc:
                raise FormatError(str(exc), path=path) from None
        doc = doc["tables"]
    if not isinstance(doc, dict) or not doc:
        raise FormatError("tables must be a nonempty JSON object keyed by 'x;y'", path=path)
    counts = all(type(v) is int for cells in doc.values() if isinstance(cells, dict) for v in cells.values())
    try:
        if counts:
            tally = TallyTable(_parse_tables(doc, path, _count))
            tables = PairwiseTables.from_tally(tally, pairs=sorted(tally.counts))
        else:
            tables = PairwiseTables(_parse_tables(doc, path, _as_fraction))
    except ValueError as exc:
        raise FormatError(str(exc), path=path)
    return tables, convention


# ---------------------------------------------------------------------------
# raw station logs


_RAW_OUTCOMES = {"1": 1, "+1": 1, "-1": -1}


def _raw_rows(path: str, handle, island: str):
    for lineno, text in _lines(path, handle):
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise _format_error(path, lineno, f"expected 't_ns setting outcome', got {len(parts)} field(s)")
        t_text, setting, o_text = parts
        try:
            t_ns = int(t_text)
        except ValueError:
            raise _format_error(path, lineno, f"t_ns must be an integer, got {t_text!r}")
        yield lineno, island, t_ns, setting, _RAW_OUTCOMES.get(o_text, o_text)


def read_raw_station(path: str, island: str) -> EventStream:
    """Parse a whitespace-separated raw log with lines 't_ns setting outcome'
    (outcome +1, 1 or -1; '#' starts a comment line)."""
    if island not in ISLANDS:
        raise ValueError(f"island must be 'T' or 'L', got {island!r}")
    data = Path(path).read_bytes()
    stream = _read_strict(data, _RAW_LINE, island)
    if stream is None:
        stream = _stream_from_rows(path, _raw_rows(path, io.BytesIO(data), island), "raw station log")
    return stream


# ---------------------------------------------------------------------------
# run manifests


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every file a command produces."""

    command: str
    seed: int | None = None
    config_digest: str | None = None
    inputs: Mapping[str, str] = field(default_factory=dict)
    outputs: Mapping[str, str] = field(default_factory=dict)
    parameters: Mapping[str, object] = field(default_factory=dict)
    tool_version: str = _version
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": dict(sorted(self.outputs.items())),
            "parameters": dict(sorted(self.parameters.items())),
            "tool_version": self.tool_version,
            "wall_time_s": self.wall_time_s,
        }


def write_manifest(path: str, manifest: RunManifest) -> str:
    return atomic_write_text(path, json.dumps(manifest.to_dict(), indent=2) + "\n")


def read_manifest(path: str) -> dict:
    return _read_json(path)
