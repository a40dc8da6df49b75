"""Shared data vocabulary: settings, detection events, pairs, triples,
domain distributions, and tally tables.

All types validate their invariants at construction time and are immutable
afterwards, so any instance reachable from user code is internally
consistent and safe to share between threads.

Conventions fixed here and relied on everywhere else:

* Time is an integer nanosecond counter per run, from 0 to MAX_T_NS so
  that it fits an int64 column and no difference of two times wraps.
  Only ordering and differences matter, and integers keep coincidence
  matching exactly deterministic.
* Outcomes are the integers +1 and -1 so that products and correlations
  are plain arithmetic.
* The two stations are named by their islands, "T" and "L".  Within a
  stream all events share one island and times are strictly increasing.
* Domain weights are exact rationals (``fractions.Fraction``); samplers
  convert to floats only at their own boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidStreamError

SETTING_LABELS = ("a", "b", "c", "d")
ISLANDS = ("T", "L")
OUTCOMES = (1, -1)
# How the L outcome relates to the hidden tau: "equal" reports tau, "anti" -tau.
CONVENTIONS = ("equal", "anti")
# the largest event time; stream times are stored as int64
MAX_T_NS = 2**63 - 1

# ---------------------------------------------------------------------------
# elementary records


@dataclass(frozen=True)
class Setting:
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


@dataclass(frozen=True)
class DetectionEvent:
    """One station's time-tagged measurement."""

    island: str
    time_ns: int
    setting_label: str
    outcome: int

    def __post_init__(self) -> None:
        if self.island not in ISLANDS:
            raise ValueError(f"island must be 'T' or 'L', got {self.island!r}")
        if not isinstance(self.time_ns, (int, np.integer)) or isinstance(self.time_ns, bool):
            raise ValueError(f"time_ns must be an integer, got {self.time_ns!r}")
        if self.setting_label not in SETTING_LABELS:
            raise ValueError(f"setting_label must be one of {SETTING_LABELS}, got {self.setting_label!r}")
        if (
            not isinstance(self.outcome, (int, np.integer))
            or isinstance(self.outcome, bool)
            or self.outcome not in OUTCOMES
        ):
            raise ValueError(f"outcome must be +1 or -1, got {self.outcome!r}")


def check_window(window_ns, dt: int = 0) -> None:
    """Raise ValueError unless window_ns is a nonnegative integer (not a
    bool) and the pair's time difference dt = |t - t'| lies within it."""
    if not isinstance(window_ns, (int, np.integer)) or isinstance(window_ns, bool):
        raise ValueError(f"window_ns must be an integer, got {window_ns!r}")
    if window_ns < 0:
        raise ValueError("window_ns must be nonnegative")
    if dt > window_ns:
        raise ValueError(f"|t - t'| = {dt} exceeds window {window_ns}")


@dataclass(frozen=True)
class PairRecord:
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


@dataclass(frozen=True)
class BellTriple:
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


@dataclass(frozen=True)
class CorrelationClass:
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


def all_domain_keys(n_settings: int) -> list[DomainKey]:
    """All 2^(2n) joint assignments (sigma_1..sigma_n; tau_1..tau_n)."""
    keys = []
    for bits in range(4**n_settings):
        key = []
        for pos in range(2 * n_settings):
            key.append(1 if (bits >> pos) & 1 == 0 else -1)
        keys.append(tuple(key))
    return keys


@dataclass(frozen=True)
class WignerDomainDistribution:
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
        expected = set(all_domain_keys(n))
        got = {k: Fraction(v) for k, v in self.weights.items()}
        if set(got) != expected:
            raise ValueError(
                f"distribution must carry exactly the {len(expected)} domain keys, got {len(got)}"
            )
        if any(v < 0 for v in got.values()):
            raise ValueError("domain weights must be nonnegative")
        total = sum(got.values())
        if total != 1:
            raise ValueError(f"domain weights must sum to exactly 1, got {total}")
        object.__setattr__(self, "weights", dict(sorted(got.items())))
        object.__setattr__(self, "settings", tuple(self.settings))

    @classmethod
    def from_partial(
        cls, weights: Mapping[DomainKey, Fraction | int], settings: tuple[str, ...] = ("a", "b", "c")
    ) -> "WignerDomainDistribution":
        """Build a distribution from a sparse weight map; missing keys get 0."""
        full: dict[DomainKey, Fraction] = {k: Fraction(0) for k in all_domain_keys(len(settings))}
        for k, v in weights.items():
            if k not in full:
                raise ValueError(f"unknown domain key {k!r} for settings {settings}")
            full[k] = Fraction(v)
        return cls(full, settings)

    @classmethod
    def uniform(cls, settings: tuple[str, ...] = ("a", "b", "c")) -> "WignerDomainDistribution":
        keys = all_domain_keys(len(settings))
        w = Fraction(1, len(keys))
        return cls({k: w for k in keys}, settings)

    @classmethod
    def uniform_identified(cls, settings: tuple[str, ...] = ("a", "b", "c")) -> "WignerDomainDistribution":
        """Uniform over the domains with tau_i = sigma_i for all i."""
        n = len(settings)
        keys = [k for k in all_domain_keys(n) if k[:n] == k[n:]]
        w = Fraction(1, len(keys))
        return cls.from_partial({k: w for k in keys}, settings)

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

    def support(self) -> list[DomainKey]:
        return [k for k, v in self.weights.items() if v > 0]


# ---------------------------------------------------------------------------
# tally tables

Cell = tuple[int, int]
CELLS: tuple[Cell, ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))
CELL_NAMES: dict[Cell, str] = {(1, 1): "pp", (1, -1): "pm", (-1, 1): "mp", (-1, -1): "mm"}
CELL_FROM_NAME: dict[str, Cell] = {v: k for k, v in CELL_NAMES.items()}


@dataclass(frozen=True)
class TallyTable:
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
                if not isinstance(count, (int, np.integer)) or count < 0:
                    raise ValueError(f"cell counts must be nonnegative integers, got {count!r}")
                full[cell] = int(count)
            norm[(x, y)] = full
        object.__setattr__(self, "counts", norm)

    def setting_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.counts)

    def count(self, x: str, y: str, s: int, s2: int) -> int:
        return self.counts.get((x, y), {}).get((s, s2), 0)

    def total(self, x: str, y: str) -> int:
        return sum(self.counts.get((x, y), {}).values())


# ---------------------------------------------------------------------------
# event streams and their validation


@dataclass(frozen=True)
class EventStream:
    """A station's full run, stored columnar for speed.

    ``labels`` is the setting menu; ``setting_idx`` indexes into it.
    Construction enforces the stream invariants (single island, strictly
    increasing times in [0, MAX_T_NS], two-valued outcomes), so an
    EventStream in hand is always valid.  Iteration yields DetectionEvent records.
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
        t = _time_column(self.t_ns)
        si = np.asarray(self.setting_idx, dtype=np.int16)
        oc = np.asarray(self.outcome, dtype=np.int8)
        if not (t.shape == si.shape == oc.shape) or t.ndim != 1:
            raise ValueError("t_ns, setting_idx and outcome must be 1-d arrays of equal length")
        violations = _validate_columns(self.island, t, si, oc, len(self.labels))
        if violations:
            raise InvalidStreamError(violations)
        for arr in (t, si, oc):
            arr.setflags(write=False)
        object.__setattr__(self, "t_ns", t)
        object.__setattr__(self, "setting_idx", si)
        object.__setattr__(self, "outcome", oc)
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
        if any(e.island != island for e in events):
            raise InvalidStreamError(validate_stream(events))
        missing = [e.setting_label for e in events if e.setting_label not in index]
        if missing:
            raise ValueError(f"event setting {missing[0]!r} is not in the label menu {labels}")
        t = _time_column([e.time_ns for e in events])
        si = np.array([index[e.setting_label] for e in events], dtype=np.int16)
        oc = np.array([e.outcome for e in events], dtype=np.int8)
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

    def to_events(self) -> list[DetectionEvent]:
        return list(self)


class ViolationKind(Enum):
    NON_MONOTONIC_TIME = "NonMonotonicTime"
    TIME_OUT_OF_RANGE = "TimeOutOfRange"
    MIXED_ISLAND = "MixedIsland"
    BAD_OUTCOME = "BadOutcome"
    BAD_SETTING = "BadSetting"


@dataclass(frozen=True)
class StreamViolation:
    kind: ViolationKind
    index: int
    message: str

    def __str__(self) -> str:
        return f"{self.kind.value} at index {self.index}: {self.message}"


def _time_column(times) -> np.ndarray:
    """Times as an int64 column.  Times that are not yet a signed integer
    array are checked as Python integers first: if one lies outside
    [0, MAX_T_NS] they all stay Python integers (object dtype), so that
    _validate_columns reports it where the conversion would wrap, round or
    raise OverflowError."""
    if isinstance(times, np.ndarray) and times.dtype.kind == "i":
        return times.astype(np.int64, copy=False)
    values = np.asarray(times, dtype=object)
    if any(isinstance(v, (int, np.integer)) and not 0 <= v <= MAX_T_NS for v in values.flat):
        return values
    return values.astype(np.int64)


def _validate_columns(
    islands, t: np.ndarray, si: np.ndarray, oc: np.ndarray, n_labels: int
) -> list[StreamViolation]:
    """Every violation in a stream's columns.  ``islands`` is the island of
    each event, or one island for all of them."""
    out: list[StreamViolation] = []
    if len(t) == 0:
        return out
    islands = np.asarray(islands)
    ref = str(islands.flat[0])
    for i in np.flatnonzero(islands != ref):
        out.append(
            StreamViolation(ViolationKind.MIXED_ISLAND, int(i), f"island {str(islands[i])!r} differs from {ref!r}")
        )
    bad_oc = np.nonzero(np.abs(oc) != 1)[0]
    for i in bad_oc:
        out.append(StreamViolation(ViolationKind.BAD_OUTCOME, int(i), f"outcome {int(oc[i])} is not +1/-1"))
    bad_si = np.nonzero((si < 0) | (si >= n_labels))[0]
    for i in bad_si:
        out.append(
            StreamViolation(
                ViolationKind.BAD_SETTING, int(i), f"setting index {int(si[i])} is outside the {n_labels}-label menu"
            )
        )
    for i in np.flatnonzero((t < 0) | (t > MAX_T_NS)):
        out.append(
            StreamViolation(ViolationKind.TIME_OUT_OF_RANGE, int(i), f"time {t[i]} lies outside [0, 2^63 - 1]")
        )
    non_incr = np.nonzero(t[1:] <= t[:-1])[0]
    for i in non_incr:
        out.append(
            StreamViolation(
                ViolationKind.NON_MONOTONIC_TIME,
                int(i) + 1,
                f"time {t[i + 1]} does not increase past {t[i]}",
            )
        )
    return sorted(out, key=lambda v: (v.index, v.kind.value))


def validate_stream(events: EventStream | Sequence[DetectionEvent]) -> list[StreamViolation]:
    """Check one station's stream and return the complete violation list.

    An empty list means the stream is valid.  Accepts an EventStream
    (always valid by construction) or a DetectionEvent sequence.
    """
    if isinstance(events, EventStream):
        return []
    events = list(events)
    islands = np.array([e.island for e in events])
    times = _time_column([e.time_ns for e in events])
    outcomes = np.array([e.outcome for e in events])
    # each DetectionEvent has checked its own setting label and outcome
    return _validate_columns(islands, times, np.zeros(len(times), dtype=np.int16), outcomes, 1)


def require_valid_stream(events) -> EventStream:
    """Return the stream as an EventStream, raising InvalidStreamError with the
    full violation list if any invariant fails."""
    if isinstance(events, EventStream):
        return events
    return EventStream.from_events(list(events))
