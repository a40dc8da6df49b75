"""Shared data vocabulary: settings, detection events, pairs, triples,
domain distributions, and tally tables.

All types validate their invariants at construction time and are immutable
afterwards, so any instance reachable from user code is internally
consistent and safe to share between threads.  Every value type of the
package, here and in the other modules, is a ``Record`` subclass: it
behaves as a frozen dataclass, without the per-class code generation that
every CLI command would pay for at start-up.

Conventions fixed here and relied on everywhere else:

* Time is an integer nanosecond counter per run, from 0 to MAX_T_NS so
  that it fits an int64 column and no difference of two times wraps.
  Only ordering and differences matter, and integers keep coincidence
  matching exactly deterministic.
* Outcomes are the integers +1 and -1 so that products and correlations
  are plain arithmetic.
* The two stations are named by their islands, "T" and "L".  Within a
  stream all events share one island and times are strictly increasing.
* A hidden domain gives T a sigma and L a tau per setting; T reports
  sigma, L reports l_sign(convention) * tau.
* Domain weights are exact rationals (``fractions.Fraction``); samplers
  convert to floats only at their own boundary.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from enum import Enum
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from ._lazy import np
from .errors import EmptyCellError, InvalidStreamError

SETTING_LABELS = ("a", "b", "c", "d")
ISLANDS = ("T", "L")
OUTCOMES = (1, -1)
CONVENTIONS = ("equal", "anti")
# the largest event time; stream times are stored as int64
MAX_T_NS = 2**63 - 1


class Record:
    """Base of the package's immutable value types.

    A direct subclass's annotations, in order, are its fields
    (``_fields``), and a class attribute with a field's name is that
    field's default.  Instances take the fields by position or keyword,
    then run ``__post_init__``, which may store a normalized value with
    ``object.__setattr__``.  Equality and hashing follow the class and the
    field values, and assignment or deletion raises AttributeError.  This
    is what ``@dataclass(frozen=True)`` would give, built once here instead
    of compiled for every class when the package is imported.
    """

    _fields: tuple[str, ...] = ()
    _defaults: Mapping[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        positional = fields[: len(args)]
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in positional:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing required argument(s): {', '.join(map(repr, missing))}")
        self.__dict__.update((f, values[f]) for f in fields)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(self.__dict__[f] for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def l_sign(convention) -> int:
    """The sign an L detector puts on the hidden tau at its setting: +1
    under "equal" (L reports tau), -1 under "anti" (L reports -tau).  The
    one statement of the reporting convention; other values raise
    ValueError."""
    if convention == "equal":
        return 1
    if convention == "anti":
        return -1
    raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


def _cells_for(tables: Mapping, x: str, y: str) -> tuple[Mapping, bool]:
    """The nonempty table for settings {x on T, y on L} or its transpose,
    from tally counts or exact probability tables.

    Returns (cells, transposed).  Raises EmptyCellError when neither
    orientation has any pairs.
    """
    for key, transposed in (((x, y), False), ((y, x), True)):
        cells = tables.get(key)
        if cells and any(cells.values()):
            return cells, transposed
    raise EmptyCellError(f"no measured pairs for settings ({x};{y}) in either orientation")


def _q(tables: Mapping, x: str, y: str, convention: str) -> tuple:
    """(q(x, y) as an exact Fraction, the table's total, the measured pair
    it was read from), from tally counts or exact probability tables.  q is
    the share of the observed cell holding the hidden-level event (x -> +,
    y -> -): with s = l_sign(convention), the cell (+, -s) of the table for
    (x, y), or (-, s) of its transpose.  ``stats`` derives the Bell-Wigner
    bound on q."""
    s = l_sign(convention)
    cells, transposed = _cells_for(tables, x, y)
    cell = (-1, s) if transposed else (1, -s)
    n = sum(cells.values())
    return Fraction(cells[cell], n), n, ((y, x) if transposed else (x, y))


def _as_fraction(value) -> Fraction:
    """An exact probability from a Fraction, an int (not a bool), a 'p/q'
    or decimal string, or a float read as its shortest decimal."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a probability: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"not a probability: {value!r} has a zero denominator")
    if isinstance(value, float):
        return Fraction(str(value))
    raise ValueError(f"cannot interpret {value!r} as an exact probability")


# ---------------------------------------------------------------------------
# elementary records


class Setting(Record):
    """A measurement direction: a label and its polar angle on the
    measurement plane, in degrees within [0, 360)."""

    label: str
    angle_deg: float

    def __post_init__(self) -> None:
        if self.label not in SETTING_LABELS:
            raise ValueError(f"setting label must be one of {SETTING_LABELS}, got {self.label!r}")
        if not (0.0 <= float(self.angle_deg) < 360.0):
            raise ValueError(f"angle_deg must lie in [0, 360), got {self.angle_deg!r}")

    @property
    def angle_rad(self) -> float:
        return math.radians(self.angle_deg)


class DetectionEvent(Record):
    """One station's time-tagged measurement."""

    island: str
    time_ns: int
    setting_label: str
    outcome: int

    def __post_init__(self) -> None:
        if self.island not in ISLANDS:
            raise ValueError(f"island must be 'T' or 'L', got {self.island!r}")
        if not isinstance(self.time_ns, numbers.Integral) or isinstance(self.time_ns, bool):
            raise ValueError(f"time_ns must be an integer, got {self.time_ns!r}")
        if self.setting_label not in SETTING_LABELS:
            raise ValueError(f"setting_label must be one of {SETTING_LABELS}, got {self.setting_label!r}")
        if (
            not isinstance(self.outcome, numbers.Integral)
            or isinstance(self.outcome, bool)
            or self.outcome not in OUTCOMES
        ):
            raise ValueError(f"outcome must be +1 or -1, got {self.outcome!r}")


def check_window(window_ns, dt: int = 0) -> None:
    """Raise ValueError unless window_ns is a nonnegative integer (not a
    bool) and the pair's time difference dt = |t - t'| lies within it."""
    if not isinstance(window_ns, numbers.Integral) or isinstance(window_ns, bool):
        raise ValueError(f"window_ns must be an integer, got {window_ns!r}")
    if window_ns < 0:
        raise ValueError("window_ns must be nonnegative")
    if dt > window_ns:
        raise ValueError(f"|t - t'| = {dt} exceeds window {window_ns}")


class PairRecord(Record):
    """A time-matched pair of detections, one per island, under window W."""

    left: DetectionEvent
    right: DetectionEvent
    window_ns: int

    def __post_init__(self) -> None:
        if self.left.island != "T":
            raise ValueError("left event of a pair must come from island T")
        if self.right.island != "L":
            raise ValueError("right event of a pair must come from island L")
        check_window(self.window_ns, abs(self.left.time_ns - self.right.time_ns))

    @property
    def setting_pair(self) -> tuple[str, str]:
        return (self.left.setting_label, self.right.setting_label)


class BellTriple(Record):
    """Three pair measurements with settings (a,b), (a,c), (b,c) drawn from
    disjoint trial ranges of a run of 3M pair measurements.

    ``k``, ``l``, ``m`` are the trial indices of the three pairs and must
    respect k <= M < l <= 2M < m <= 3M.
    """

    ab: PairRecord
    ac: PairRecord
    bc: PairRecord
    k: int
    l: int
    m: int
    M: int

    def __post_init__(self) -> None:
        expect = {"ab": ("a", "b"), "ac": ("a", "c"), "bc": ("b", "c")}
        for name, want in expect.items():
            got = getattr(self, name).setting_pair
            if got != want:
                raise ValueError(f"pair {name} must have settings {want}, got {got}")
        keys = set()
        for pair in (self.ab, self.ac, self.bc):
            for ev in (pair.left, pair.right):
                keys.add((ev.island, ev.time_ns))
        if len(keys) != 6:
            raise ValueError("the six events of a triple must be pairwise distinct")
        if self.M < 1:
            raise ValueError("M must be positive")
        if not (1 <= self.k <= self.M < self.l <= 2 * self.M < self.m <= 3 * self.M):
            raise ValueError(
                f"indices must satisfy 1 <= k <= M < l <= 2M < m <= 3M, got k={self.k}, l={self.l}, m={self.m}, M={self.M}"
            )

    def entries(self) -> list[tuple[int, str, int, str]]:
        """The six (outcome, setting, time, island) entries, grouped so that
        consecutive entries (0,1), (2,3), (4,5) are the claimed pairs."""
        out = []
        for pair in (self.ab, self.ac, self.bc):
            for ev in (pair.left, pair.right):
                out.append((ev.outcome, ev.setting_label, ev.time_ns, ev.island))
        return out


class CorrelationClass(Record):
    """Counts of equal and unequal outcome pairs in a run of M trials."""

    equal_count: int
    unequal_count: int

    def __post_init__(self) -> None:
        if self.equal_count < 0 or self.unequal_count < 0:
            raise ValueError("counts must be nonnegative")
        if self.equal_count + self.unequal_count < 1:
            raise ValueError("a correlation class needs at least one trial")

    @property
    def M(self) -> int:
        return self.equal_count + self.unequal_count

    def __str__(self) -> str:
        return f"{self.equal_count}/{self.unequal_count}"


# ---------------------------------------------------------------------------
# domain distributions

DomainKey = tuple[int, ...]


def domain_key_from_string(text: str) -> DomainKey:
    """Parse a key like ``"+-+;-++"`` into a tuple of +1/-1 values."""
    parts = text.split(";")
    if len(parts) != 2 or len(parts[0]) != len(parts[1]) or not parts[0]:
        raise ValueError(f"domain key must look like '+-+;-++', got {text!r}")
    out = []
    for ch in parts[0] + parts[1]:
        if ch == "+":
            out.append(1)
        elif ch == "-":
            out.append(-1)
        else:
            raise ValueError(f"domain key may contain only '+' and '-', got {text!r}")
    return tuple(out)


def domain_key_to_string(key: DomainKey) -> str:
    n = len(key) // 2
    sym = {1: "+", -1: "-"}
    return "".join(sym[v] for v in key[:n]) + ";" + "".join(sym[v] for v in key[n:])


@functools.lru_cache(maxsize=len(SETTING_LABELS))
def _domain_keys(n_settings: int) -> tuple[DomainKey, ...]:
    """All 2^(2n) joint assignments (sigma_1..sigma_n; tau_1..tau_n), built
    once per setting count: key i holds -1 where bit p of i is set, at
    position p."""
    return tuple(key[::-1] for key in itertools.product((1, -1), repeat=2 * n_settings))


def all_domain_keys(n_settings: int) -> list[DomainKey]:
    """All 2^(2n) joint assignments (sigma_1..sigma_n; tau_1..tau_n), as a new list."""
    return list(_domain_keys(n_settings))


class WignerDomainDistribution(Record):
    """Nonnegative rational weights on the 2^(2n) domains
    (sigma_1..sigma_n; tau_1..tau_n), summing to exactly 1.

    The canonical form has n = 3 settings (a, b, c) and 64 domains; the
    four-setting extension used by the CHSH feasibility variant has 256.
    Every key must be present (zero weights are stored explicitly).
    """

    weights: Mapping[DomainKey, Fraction]
    settings: tuple[str, ...] = ("a", "b", "c")

    def __post_init__(self) -> None:
        n = len(self.settings)
        if not 1 <= n <= 4 or tuple(self.settings) != SETTING_LABELS[:n]:
            raise ValueError(f"settings must be a prefix of {SETTING_LABELS}, got {self.settings!r}")
        keys = _domain_keys(n)
        got = {k: Fraction(v) for k, v in self.weights.items()}
        if len(got) != len(keys) or not all(map(got.__contains__, keys)):
            raise ValueError(f"distribution must carry exactly the {len(keys)} domain keys, got {len(got)}")
        if any(v < 0 for v in got.values()):
            raise ValueError("domain weights must be nonnegative")
        total = sum(filter(None, got.values()))
        if total != 1:
            raise ValueError(f"domain weights must sum to exactly 1, got {total}")
        object.__setattr__(self, "weights", dict(sorted(got.items())))
        object.__setattr__(self, "settings", tuple(self.settings))

    @classmethod
    def from_partial(
        cls, weights: Mapping[DomainKey, Fraction | int], settings: tuple[str, ...] = ("a", "b", "c")
    ) -> "WignerDomainDistribution":
        """Build a distribution from a sparse weight map; missing keys get 0."""
        full: dict[DomainKey, Fraction | int] = dict.fromkeys(_domain_keys(len(settings)), 0)
        for k, v in weights.items():
            if k not in full:
                raise ValueError(f"unknown domain key {k!r} for settings {settings}")
            full[k] = v
        return cls(full, settings)

    @classmethod
    def uniform(cls, settings: tuple[str, ...] = ("a", "b", "c")) -> "WignerDomainDistribution":
        keys = _domain_keys(len(settings))
        w = Fraction(1, len(keys))
        return cls({k: w for k in keys}, settings)

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    def sigma(self, key: DomainKey, label: str) -> int:
        return key[self.settings.index(label)]

    def tau(self, key: DomainKey, label: str) -> int:
        return key[self.n_settings + self.settings.index(label)]

    def is_identified(self, key: DomainKey) -> bool:
        n = self.n_settings
        return key[:n] == key[n:]


# ---------------------------------------------------------------------------
# tally tables

Cell = tuple[int, int]
CELLS: tuple[Cell, ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))
CELL_NAMES: dict[Cell, str] = {(1, 1): "pp", (1, -1): "pm", (-1, 1): "mp", (-1, -1): "mm"}
CELL_FROM_NAME: dict[str, Cell] = {v: k for k, v in CELL_NAMES.items()}


class TallyTable(Record):
    """Outcome counts N(s, s') per measured setting pair, with the counts of
    events that the matcher left unpaired."""

    counts: Mapping[tuple[str, str], Mapping[Cell, int]]
    unmatched_left: int = 0
    unmatched_right: int = 0

    def __post_init__(self) -> None:
        if self.unmatched_left < 0 or self.unmatched_right < 0:
            raise ValueError("unmatched counts must be nonnegative")
        norm: dict[tuple[str, str], dict[Cell, int]] = {}
        for pair, cells in self.counts.items():
            x, y = pair
            if x not in SETTING_LABELS or y not in SETTING_LABELS:
                raise ValueError(f"bad setting pair {pair!r}")
            full = {c: 0 for c in CELLS}
            for cell, count in cells.items():
                if cell not in full:
                    raise ValueError(f"bad outcome cell {cell!r} for pair {pair!r}")
                if not isinstance(count, numbers.Integral) or count < 0:
                    raise ValueError(f"cell counts must be nonnegative integers, got {count!r}")
                full[cell] = int(count)
            norm[(x, y)] = full
        object.__setattr__(self, "counts", norm)

    def count(self, x: str, y: str, s: int, s2: int) -> int:
        return self.counts.get((x, y), {}).get((s, s2), 0)

    def total(self, x: str, y: str) -> int:
        return sum(self.counts.get((x, y), {}).values())


# ---------------------------------------------------------------------------
# event streams and their validation


class EventStream(Record):
    """A station's full run, stored columnar for speed.

    ``labels`` is the setting menu; ``setting_idx`` indexes into it.
    Construction enforces the stream invariants (single island, strictly
    increasing times in [0, MAX_T_NS], two-valued outcomes), so an
    EventStream in hand is always valid.  Each column is checked as given
    and only then stored narrowed (int64, int16, int8): a value that is not
    an integer raises ValueError naming its column, and an integer outside
    its range is a violation, never wrapped.  Iteration yields
    DetectionEvent records.  ``from_events`` builds the same columns from
    records, with one island per event, and ``validate_stream`` reports
    what it raises.
    """

    island: str
    labels: tuple[str, ...]
    t_ns: np.ndarray
    setting_idx: np.ndarray
    outcome: np.ndarray

    def __post_init__(self) -> None:
        if self.island not in ISLANDS:
            raise ValueError(f"island must be 'T' or 'L', got {self.island!r}")
        if not self.labels or any(l not in SETTING_LABELS for l in self.labels):
            raise ValueError(f"labels must be drawn from {SETTING_LABELS}, got {self.labels!r}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("setting labels must be distinct")
        columns = [_integer_column(getattr(self, name), name) for name in _COLUMNS]
        if len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
            raise ValueError("t_ns, setting_idx and outcome must be 1-d arrays of equal length")
        violations = _validate_columns(self.island, *columns, len(self.labels))
        if violations:
            raise InvalidStreamError(violations)
        for (name, dtype), column in zip(_COLUMNS.items(), columns):
            column = column.astype(dtype, copy=False)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        object.__setattr__(self, "labels", tuple(self.labels))

    @classmethod
    def from_events(
        cls,
        events: Sequence[DetectionEvent],
        labels: tuple[str, ...] | None = None,
        island: str | None = None,
    ) -> "EventStream":
        """Build a stream from records.  ``island`` names the station; it
        defaults to the first event's island, or "T" when there is none."""
        if labels is None:
            labels = tuple(l for l in SETTING_LABELS if any(e.setting_label == l for e in events))
            if not labels:
                labels = ("a",)
        index = {l: i for i, l in enumerate(labels)}
        if island is None:
            island = events[0].island if events else "T"
        elif events and events[0].island != island:
            raise ValueError(f"events are from island {events[0].island!r}, not {island!r}")
        missing = [e.setting_label for e in events if e.setting_label not in index]
        if missing:
            raise ValueError(f"event setting {missing[0]!r} is not in the label menu {labels}")
        t = _integer_column([e.time_ns for e in events], "t_ns")
        si = np.array([index[e.setting_label] for e in events], dtype=np.int16)
        oc = np.array([e.outcome for e in events], dtype=np.int8)
        violations = _validate_columns([e.island for e in events], t, si, oc, len(labels))
        if violations:
            raise InvalidStreamError(violations)
        return cls(island, labels, t, si, oc)

    def __len__(self) -> int:
        return int(self.t_ns.shape[0])

    def event(self, i: int) -> DetectionEvent:
        return DetectionEvent(
            island=self.island,
            time_ns=int(self.t_ns[i]),
            setting_label=self.labels[int(self.setting_idx[i])],
            outcome=int(self.outcome[i]),
        )

    def __iter__(self) -> Iterator[DetectionEvent]:
        for i in range(len(self)):
            yield self.event(i)


class ViolationKind(Enum):
    NON_MONOTONIC_TIME = "NonMonotonicTime"
    TIME_OUT_OF_RANGE = "TimeOutOfRange"
    MIXED_ISLAND = "MixedIsland"
    BAD_OUTCOME = "BadOutcome"
    BAD_SETTING = "BadSetting"


class StreamViolation(Record):
    kind: ViolationKind
    index: int
    message: str

    def __str__(self) -> str:
        return f"{self.kind.value} at index {self.index}: {self.message}"


# each column of a stream and the dtype it is stored as
_COLUMNS = {"t_ns": "int64", "setting_idx": "int16", "outcome": "int8"}


def _integer_column(values, name: str) -> np.ndarray:
    """A column as given, before any narrowing: an integer array as it is,
    anything else as Python integers (object dtype), so that
    _validate_columns reports a value outside its column's range where a
    narrowing would wrap it.  Raises ValueError naming the column at a value
    that is not an integer."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values
    column = np.array(values, dtype=object)
    for i, v in enumerate(column.flat):
        if isinstance(v, bool) or not (isinstance(v, numbers.Integral) or isinstance(v, float) and v.is_integer()):
            raise ValueError(f"{name} must hold integers, got {v!r}")
        column.flat[i] = int(v)
    return column


def _validate_columns(islands, t: np.ndarray, si: np.ndarray, oc: np.ndarray, n_labels: int) -> list[StreamViolation]:
    """Every violation in a stream's columns, ordered by (index, kind).
    ``islands`` is the island of each event, or one island for all of them."""
    if len(t) == 0:
        return []
    islands = np.asarray(islands)
    ref = str(islands.flat[0])
    checks = (  # kind, the rows that break the rule, the message for row i
        (ViolationKind.MIXED_ISLAND, np.flatnonzero(islands != ref),
         lambda i: f"island {str(islands[i])!r} differs from {ref!r}"),
        (ViolationKind.BAD_OUTCOME, np.flatnonzero(np.abs(oc) != 1), lambda i: f"outcome {int(oc[i])} is not +1/-1"),
        (ViolationKind.BAD_SETTING, np.flatnonzero((si < 0) | (si >= n_labels)),
         lambda i: f"setting index {int(si[i])} is outside the {n_labels}-label menu"),
        (ViolationKind.TIME_OUT_OF_RANGE, np.flatnonzero((t < 0) | (t > MAX_T_NS)),
         lambda i: f"time {t[i]} lies outside [0, 2^63 - 1]"),
        (ViolationKind.NON_MONOTONIC_TIME, np.flatnonzero(t[1:] <= t[:-1]) + 1,
         lambda i: f"time {t[i]} does not increase past {t[i - 1]}"),
    )
    out = [StreamViolation(kind, int(i), message(i)) for kind, rows, message in checks for i in rows]
    return sorted(out, key=lambda v: (v.index, v.kind.value))


def validate_stream(events: EventStream | Sequence[DetectionEvent]) -> list[StreamViolation]:
    """Check one station's stream and return the complete violation list.

    An empty list means the stream is valid.  Accepts an EventStream
    (always valid by construction) or a DetectionEvent sequence, whose
    violations are the ones ``EventStream.from_events`` raises.
    """
    if isinstance(events, EventStream):
        return []
    try:
        EventStream.from_events(list(events))
    except InvalidStreamError as exc:
        return exc.violations
    return []


def require_valid_stream(events) -> EventStream:
    """Return the stream as an EventStream, raising InvalidStreamError with the
    full violation list if any invariant fails."""
    if isinstance(events, EventStream):
        return events
    return EventStream.from_events(list(events))
