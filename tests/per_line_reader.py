"""The per-line reference reader for event files, raw station logs and pair
files, which the tests hold ``eprblab.ioformats`` to.

Each line is decoded, parsed and checked on its own, in file order, and
the first line that fails a check is reported.  A T or L time on two rows
of a pair file is reported only when every line passes the other checks,
so on a file with one bad line this reader and ``ioformats`` agree.
"""

import io
import json

import numpy as np

from eprblab.errors import FormatError
from eprblab.ioformats import EVENT_KEYS, PAIR_KEYS
from eprblab.model import ISLANDS, MAX_T_NS, OUTCOMES, SETTING_LABELS, EventStream, check_window

_RAW_OUTCOMES = {"1": 1, "+1": 1, "-1": -1}


def _fault(path: str, lineno: int, message: str) -> FormatError:
    return FormatError(message, line=lineno, path=path)


def _stream(island: str, rows: list[tuple]) -> EventStream:
    """The stream of (t_ns, setting, outcome) rows in time order."""
    labels = tuple(sorted({setting for _, setting, _ in rows})) or SETTING_LABELS[:1]
    return EventStream(
        island,
        labels,
        np.array([t for t, _, _ in rows], dtype=np.int64),
        np.array([labels.index(setting) for _, setting, _ in rows], dtype=np.int16),
        np.array([outcome for _, _, outcome in rows], dtype=np.int8),
    )


def _lines(path: str, data: bytes):
    """(lineno, stripped text) for each line of the bytes; a line ends at a
    newline, and one that does not decode as UTF-8 is bad."""
    for lineno, raw in enumerate(io.BytesIO(data), start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise _fault(path, lineno, "line is not valid UTF-8")
        yield lineno, text.strip()


def _unique_keys(pairs: list[tuple]) -> dict:
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise ValueError(f"duplicate key {key!r}")
    return dict(pairs)


def _json_rows(path: str, data: bytes, keys: tuple[str, ...], what: str):
    """(lineno, object) for each nonblank line, each object having exactly
    the given keys, each once."""
    for lineno, text in _lines(path, data):
        if not text:
            continue
        try:
            obj = json.loads(text, object_pairs_hook=_unique_keys)
        except ValueError as exc:
            raise _fault(path, lineno, f"invalid JSON: {getattr(exc, 'msg', exc)}")
        if not isinstance(obj, dict) or obj.keys() != set(keys):
            raise _fault(path, lineno, f"{what} must have exactly the keys {list(keys)}")
        yield lineno, obj


def _check_row(path: str, lineno: int, t_ns, setting, outcome, after: int = -1) -> None:
    if type(t_ns) is not int or not 0 <= t_ns <= MAX_T_NS:
        raise _fault(path, lineno, f"t_ns must be a nonnegative integer below 2^63, got {t_ns!r}")
    if t_ns <= after:
        raise _fault(path, lineno, f"timestamps must be strictly increasing, got {t_ns} after {after}")
    if setting not in SETTING_LABELS:
        raise _fault(path, lineno, f"setting must be one of {list(SETTING_LABELS)}, got {setting!r}")
    if type(outcome) is not int or outcome not in OUTCOMES:
        raise _fault(path, lineno, f"outcome must be +1 or -1, got {outcome!r}")


def _station(path: str, rows, what: str) -> EventStream:
    """The stream of one station's (lineno, island, t_ns, setting, outcome)
    rows, checked in file order."""
    island = None
    events: list[tuple] = []
    prev = -1
    for lineno, isl, t_ns, setting, outcome in rows:
        if isl not in ISLANDS:
            raise _fault(path, lineno, f"island must be 'T' or 'L', got {isl!r}")
        if island is None:
            island = isl
        elif isl != island:
            raise _fault(path, lineno, f"mixed islands: file started with {island!r}, line has {isl!r}")
        _check_row(path, lineno, t_ns, setting, outcome, after=prev)
        prev = t_ns
        events.append((t_ns, setting, outcome))
    if island is None:
        raise FormatError(f"{what} is empty", path=path)
    return _stream(island, events)


def read_events(path: str) -> EventStream:
    with open(path, "rb") as handle:
        data = handle.read()
    rows = (
        (lineno, obj["island"], obj["t_ns"], obj["setting"], obj["outcome"])
        for lineno, obj in _json_rows(path, data, EVENT_KEYS, "event")
    )
    return _station(path, rows, "event file")


def _raw_rows(path: str, data: bytes, island: str):
    for lineno, text in _lines(path, data):
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise _fault(path, lineno, f"expected 't_ns setting outcome', got {len(parts)} field(s)")
        t_text, setting, o_text = parts
        digits = t_text[1:] if t_text[:1] in ("+", "-") else t_text
        if not (digits.isascii() and digits.isdigit()):
            raise _fault(path, lineno, f"t_ns must be an integer, got {t_text!r}")
        yield lineno, island, int(t_text), setting, _RAW_OUTCOMES.get(o_text, o_text)


def read_raw_station(path: str, island: str) -> EventStream:
    with open(path, "rb") as handle:
        data = handle.read()
    return _station(path, _raw_rows(path, data, island), "raw station log")


def read_pairs(path: str):
    """(left, right, left_idx, right_idx) as ``ioformats.read_pairs`` gives."""
    with open(path, "rb") as handle:
        data = handle.read()
    lines: list[int] = []
    sides: tuple[list[tuple], list[tuple]] = ([], [])
    for lineno, obj in _json_rows(path, data, PAIR_KEYS, "pair"):
        left = (obj["t_left_ns"], obj["setting_left"], obj["outcome_left"])
        right = (obj["t_right_ns"], obj["setting_right"], obj["outcome_right"])
        _check_row(path, lineno, *left)
        _check_row(path, lineno, *right)
        try:
            check_window(obj["window_ns"], abs(left[0] - right[0]))
        except ValueError as exc:
            raise _fault(path, lineno, str(exc))
        lines.append(lineno)
        sides[0].append(left)
        sides[1].append(right)
    first: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for lineno, *row in zip(lines, *sides):
        for island, (t_ns, _, _), seen in zip(ISLANDS, row, first):
            earlier = seen.setdefault(t_ns, lineno)
            if earlier != lineno:
                raise _fault(path, lineno, f"{island} detection at t_ns {t_ns} is already paired on line {earlier}")
    built = []
    for island, rows in zip(ISLANDS, sides):
        order = sorted(range(len(rows)), key=lambda k: rows[k][0])
        at = np.empty(len(rows), dtype=np.intp)
        at[order] = np.arange(len(rows))
        built.append((_stream(island, [rows[k] for k in order]), at))
    (left, left_idx), (right, right_idx) = built
    return left, right, left_idx, right_idx
