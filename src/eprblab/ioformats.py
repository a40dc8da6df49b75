"""File formats: event streams (JSON Lines), pair files, tally tables,
sweep CSVs, source configs, feasibility table files, raw station logs,
and run manifests.

Writers are atomic (temp file in the same directory, then rename) and
deterministic: the same data produces the same bytes.  Readers validate
eagerly and raise FormatError with a 1-based line number wherever a line
is attributable.

Event and pair files are written one line per row from a fixed template
over the columns, with no whitespace and keys in a fixed order, each line
ending in a newline:

    {"island":"T","t_ns":5,"setting":"a","outcome":-1}
    {"t_left_ns":5,"t_right_ns":6,"setting_left":"a","setting_right":"c","outcome_left":1,"outcome_right":-1,"window_ns":3}

These are the bytes ``json.dumps(row, separators=(",", ":"))`` gives.
``read_events`` and ``read_raw_station`` first try a strict whole-file
reader: one compiled pattern checks that every line of the file is in
that exact form (for raw logs, ``t_ns setting outcome`` with single
spaces, t_ns without leading zeros and outcome 1, +1 or -1), and numpy
builds the columns from the byte positions of each line.  It also checks,
in vectorized form, what the per-line reader checks: one island, t_ns
strictly increasing and below 2^63.  Any other file (other key order or
whitespace, CRLF line ends, blank or comment lines, escapes, a missing
final newline, leading zeros, or a bad line) goes to the per-line reader,
which parses each line on its own and either accepts the file or raises
the line-numbered FormatError.  Both readers give the same stream for
every file the strict one accepts.

``read_pairs`` reads a pair file line by line into the matcher's form
(left, right, left_idx, right_idx), the one form ``write_pairs_indexed``
and ``stats.tally`` take: each side of a row gets the event files' row
check, and since a detection is paired at most once, a T or L time that
appears on two rows is a FormatError naming both lines.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from . import __version__ as _version
from .errors import ConfigParseError, FormatError, InvalidStreamError
from .feasibility import PairwiseTables, _as_fraction
from .model import (
    CELL_FROM_NAME,
    CELL_NAMES,
    CELLS,
    CONVENTIONS,
    ISLANDS,
    MAX_T_NS,
    OUTCOMES,
    SETTING_LABELS,
    EventStream,
    Setting,
    TallyTable,
    WignerDomainDistribution,
    all_domain_keys,
    check_window,
    domain_key_from_string,
    domain_key_to_string,
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


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and rename.  The
    file gets the mode open() would give it under the current umask, not
    the owner-only mode of the temp file."""
    umask = os.umask(0)  # setting the umask is the only way to read it
    os.umask(umask)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


# ---------------------------------------------------------------------------
# event streams


def write_events(path: str, stream: EventStream) -> None:
    island, labels = stream.island, stream.labels
    lines = [
        f'{{"island":"{island}","t_ns":{t},"setting":"{labels[s]}","outcome":{o}}}\n'
        for t, s, o in zip(stream.t_ns.tolist(), stream.setting_idx.tolist(), stream.outcome.tolist())
    ]
    atomic_write_text(path, "".join(lines))


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


def _sorted_stream(island: str, rows: list[tuple]) -> tuple[EventStream, np.ndarray]:
    """The stream of checked (t_ns, setting, outcome) rows with distinct
    times, sorted by time, its label menu the labels present; and the
    index of each row's event in it."""
    t = np.asarray([row[0] for row in rows], dtype=np.int64)
    order = np.argsort(t, kind="stable")
    at = np.empty_like(order)
    at[order] = np.arange(len(order))
    menu = tuple(sorted({row[1] for row in rows})) or SETTING_LABELS[:1]
    index = {lab: i for i, lab in enumerate(menu)}
    stream = EventStream(
        island=island,
        labels=menu,
        t_ns=t[order],
        setting_idx=np.asarray([index[row[1]] for row in rows], dtype=np.int16)[order],
        outcome=np.asarray([row[2] for row in rows], dtype=np.int8)[order],
    )
    return stream, at


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
    return _sorted_stream(island, events)[0]


def _lines(path: str):
    """Yield (lineno, stripped text) for each line of a UTF-8 file; a line
    that does not decode is a FormatError naming it."""
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise _format_error(path, lineno, "line is not valid UTF-8")
            yield lineno, text.strip()


def _json_rows(path: str, keys: tuple[str, ...], what: str):
    """Yield (lineno, object) for each nonblank line of a JSON-lines file,
    each object having exactly the given keys."""
    key_set = frozenset(keys)
    for lineno, text in _lines(path):
        if not text:
            continue
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise _format_error(path, lineno, f"invalid JSON: {getattr(exc, 'msg', exc)}")
        if not isinstance(obj, dict) or obj.keys() != key_set:
            raise _format_error(path, lineno, f"{what} must have exactly the keys {list(keys)}")
        yield lineno, obj


def _event_rows(path: str):
    for lineno, obj in _json_rows(path, EVENT_KEYS, "event"):
        yield lineno, obj["island"], obj["t_ns"], obj["setting"], obj["outcome"]


def read_events(path: str) -> EventStream:
    """Parse one station's event file.

    Every line must be a JSON object with exactly the keys island, t_ns,
    setting, outcome; one island per file; t_ns a nonnegative integer below
    2^63, strictly increasing down the file.
    """
    stream = _read_strict(path, _EVENT_FILE, _event_layout)
    if stream is None:
        stream = _stream_from_rows(path, _event_rows(path), "event file")
    return stream


# ---------------------------------------------------------------------------
# strict whole-file reading of the writers' exact line formats

_T_NS = rb"(?:0|[1-9][0-9]{0,18})"  # no leading zeros; at most 19 digits fit uint64
_LABEL = b"[" + "".join(SETTING_LABELS).encode() + b"]"  # the labels are single letters
_EVENT_FILE = re.compile(
    rb'(?:\{"island":"[TL]","t_ns":' + _T_NS + rb',"setting":"' + _LABEL + rb'","outcome":-?1\}\n)*'
)
_RAW_FILE = re.compile(rb"(?:" + _T_NS + rb" " + _LABEL + rb" [+-]?1\n)*")
# Whole lines per fullmatch call.  A single call over the file would grow
# the pattern engine's backtracking stack by a few hundred bytes per line.
_STRICT_RUN_BYTES = 1 << 20
_MINUS, _SPACE, _ZERO = ord("-"), ord(" "), ord("0")


def _line_ends(data: bytes, whole: re.Pattern):
    """The offsets of the newlines of data if it is nonempty and every line
    of it, newline included, matches whole's line pattern; else None."""
    ends = []
    start = 0
    while start < len(data):
        stop = data.find(b"\n", start + _STRICT_RUN_BYTES) + 1 or len(data)
        if whole.fullmatch(data, start, stop) is None:
            return None
        run = np.frombuffer(data, np.uint8, stop - start, start)
        ends.append(np.flatnonzero(run == ord("\n")) + start)
        start = stop
    return np.concatenate(ends) if ends else None


def _event_layout(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Field positions in lines '{"island":"T","t_ns":5,"setting":"a","outcome":-1}'.
    A field that ends k bytes before a newline starts at the newline's offset
    minus k."""
    islands = buf[starts + len('{"island":"')]
    negative = buf[ends - len("-1}")] == _MINUS
    setting_at = ends - len('a","outcome":1}') - negative
    t_from = starts + len('{"island":"T","t_ns":')
    t_to = setting_at - len(',"setting":"')
    island = chr(islands[0]) if (islands == islands[0]).all() else None
    return island, t_from, t_to, setting_at, negative


def _raw_layout(island: str):
    """Field positions in lines '5 a 1', '5 a +1' and '5 a -1'."""

    def layout(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
        sign = buf[ends - len("+1")]
        setting_at = ends - len("a +1") + (sign == _SPACE)
        return island, starts, setting_at - len(" "), setting_at, sign == _MINUS

    return layout


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


def _read_strict(path: str, whole: re.Pattern, layout) -> EventStream | None:
    """The stream of a file in the exact line format whole matches, or None
    when any line is not, or when a check the per-line reader makes fails.
    layout maps (bytes, line starts, line ends) to the island (None when
    lines disagree), the start and stop of each t_ns, the offset of each
    setting letter and whether each outcome is negative."""
    with open(path, "rb") as handle:
        data = handle.read()
    ends = _line_ends(data, whole)
    if ends is None:
        return None
    buf = np.frombuffer(data, np.uint8)
    starts = np.concatenate(([0], ends[:-1] + 1))
    island, t_from, t_to, setting_at, negative = layout(buf, starts, ends)
    t = _decimals(buf, t_from, t_to)
    if island is None or t.max() > MAX_T_NS or not (t[1:] > t[:-1]).all():
        return None
    codes = buf[setting_at]
    menu = np.unique(codes)
    return EventStream(
        island=island,
        labels=tuple(chr(c) for c in menu.tolist()),
        t_ns=t.astype(np.int64),
        setting_idx=np.searchsorted(menu, codes).astype(np.int16),
        outcome=np.where(negative, -1, 1).astype(np.int8),
    )


# ---------------------------------------------------------------------------
# pair files


def write_pairs_indexed(
    path: str,
    left: EventStream,
    right: EventStream,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
    window_ns: int,
) -> None:
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
    atomic_write_text(path, "".join(lines))


def read_pairs(path: str) -> tuple[EventStream, EventStream, np.ndarray, np.ndarray]:
    """Parse a pair file into the matcher's form (left, right, left_idx,
    right_idx): the file's T and L events as streams sorted by time, and
    row k pairing left event left_idx[k] with right event right_idx[k].
    """
    lines: list[int] = []
    left_rows: list[tuple] = []
    right_rows: list[tuple] = []
    for lineno, obj in _json_rows(path, PAIR_KEYS, "pair"):
        left = (obj["t_left_ns"], obj["setting_left"], obj["outcome_left"])
        right = (obj["t_right_ns"], obj["setting_right"], obj["outcome_right"])
        _check_row(path, lineno, *left)
        _check_row(path, lineno, *right)
        try:
            check_window(obj["window_ns"], abs(left[0] - right[0]))
        except ValueError as exc:
            raise _format_error(path, lineno, str(exc))
        lines.append(lineno)
        left_rows.append(left)
        right_rows.append(right)
    try:
        left, left_idx = _sorted_stream("T", left_rows)
        right, right_idx = _sorted_stream("L", right_rows)
    except InvalidStreamError:  # every row passed its checks, so a time repeats
        first: tuple[dict[int, int], dict[int, int]] = ({}, {})
        for lineno, *row in zip(lines, left_rows, right_rows):
            for island, (t_ns, _, _), seen in zip(ISLANDS, row, first):
                earlier = seen.setdefault(t_ns, lineno)
                if earlier != lineno:
                    raise _format_error(path, lineno, f"{island} detection at t_ns {t_ns} is already paired on line {earlier}")
        raise
    return left, right, left_idx, right_idx


# ---------------------------------------------------------------------------
# tally files


def _pair_key_string(pair: tuple[str, str]) -> str:
    return f"{pair[0]};{pair[1]}"


def _parse_pair_key(text: str, path: str) -> tuple[str, str]:
    parts = text.split(";")
    if len(parts) != 2 or any(p not in SETTING_LABELS for p in parts):
        raise FormatError(f"bad setting-pair key {text!r}, expected 'x;y' with labels from {list(SETTING_LABELS)}", path=path)
    return (parts[0], parts[1])


def write_tally(path: str, tally: TallyTable) -> None:
    doc = {
        _pair_key_string(pair): {CELL_NAMES[c]: tally.counts[pair][c] for c in CELLS}
        for pair in sorted(tally.counts)
    }
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_tally(path: str) -> TallyTable:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise FormatError("tally file must be a JSON object keyed by 'x;y'", path=path)
    counts: dict[tuple[str, str], dict[tuple[int, int], int]] = {}
    for key, cells in doc.items():
        pair = _parse_pair_key(key, path)
        if not isinstance(cells, dict) or set(cells) != set(CELL_FROM_NAME):
            raise FormatError(f"table {key!r} must have exactly the cells {sorted(CELL_FROM_NAME)}", path=path)
        table = {}
        for name, value in cells.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise FormatError(f"table {key!r} cell {name!r} must be a nonnegative integer, got {value!r}", path=path)
            table[CELL_FROM_NAME[name]] = value
        counts[pair] = table
    return TallyTable(counts)


# ---------------------------------------------------------------------------
# sweep CSV


def write_sweep_csv(path: str, rows: Iterable[SweepRow]) -> None:
    lines = [SWEEP_HEADER]
    for row in rows:
        if row.statistic is None:
            lines.append(f"{row.window_ns},{row.pairs},{EMPTY_CELL_MARKER},{EMPTY_CELL_MARKER},{EMPTY_CELL_MARKER}")
        else:
            flag = "true" if row.violated else "false"
            lines.append(f"{row.window_ns},{row.pairs},{row.statistic!r},{row.stderr!r},{flag}")
    atomic_write_text(path, "\n".join(lines) + "\n")


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


def save_config(path: str, config: SourceConfig) -> None:
    atomic_write_text(path, json.dumps(config_to_dict(config), indent=2) + "\n")


# ---------------------------------------------------------------------------
# feasibility table files


def read_tables(path: str) -> tuple[PairwiseTables, str | None]:
    """Read pairwise tables for the feasibility decision.

    Two layouts are accepted: a tally file (integer counts, normalized
    here), or exact probabilities given as 'p/q' strings, integers, or
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
            if convention not in CONVENTIONS:
                raise FormatError(f"convention must be 'equal' or 'anti', got {convention!r}", path=path)
        doc = doc["tables"]
    if not isinstance(doc, dict) or not doc:
        raise FormatError("tables must be a nonempty JSON object keyed by 'x;y'", path=path)

    parsed: dict[tuple[str, str], dict] = {}
    all_int = True
    for key, cells in doc.items():
        pair = _parse_pair_key(key, path)
        if not isinstance(cells, dict) or set(cells) != set(CELL_FROM_NAME):
            raise FormatError(f"table {key!r} must have exactly the cells {sorted(CELL_FROM_NAME)}", path=path)
        table = {}
        for name, value in cells.items():
            if not isinstance(value, int) or isinstance(value, bool):
                all_int = False
            table[CELL_FROM_NAME[name]] = value
        parsed[pair] = table

    try:
        if all_int:
            counts = {}
            for pair, cells in parsed.items():
                for c, v in cells.items():
                    if v < 0:
                        raise ValueError(f"cell count {v} is negative")
                counts[pair] = cells
            tables = PairwiseTables.from_tally(TallyTable(counts))
        else:
            tables = PairwiseTables(
                {pair: {c: _as_fraction(v) for c, v in cells.items()} for pair, cells in parsed.items()}
            )
    except ValueError as exc:
        raise FormatError(str(exc), path=path)
    return tables, convention


# ---------------------------------------------------------------------------
# raw station logs


_RAW_OUTCOMES = {"1": 1, "+1": 1, "-1": -1}


def _raw_rows(path: str, island: str):
    for lineno, text in _lines(path):
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
    stream = _read_strict(path, _RAW_FILE, _raw_layout(island))
    if stream is None:
        stream = _stream_from_rows(path, _raw_rows(path, island), "raw station log")
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


def write_manifest(path: str, manifest: RunManifest) -> None:
    atomic_write_text(path, json.dumps(manifest.to_dict(), indent=2) + "\n")


def read_manifest(path: str) -> dict:
    return _read_json(path)
