"""Exact enumeration of correlation classes, outcome domains, pairings,
and the time-topology checks that separate measured six-tuples from
regrouped ones.

The central question these routines make precise: when three setting pairs
(a,b), (a,c), (b,c) are each measured M times, how many distinct triples of
equal/unequal-count classes can arise, depending on how much structure the
per-trial outcomes are forced to share?  Three constraint models are
implemented:

* ``independent``   - each pair's equal/unequal pattern is free per trial.
* ``shared``        - per trial, the patterns must be realizable by four
                      two-valued symbols (s1, s2, t2, t3) with the ab pair
                      comparing s1 to t2, the ac pair s1 to t3, and the bc
                      pair s2 to t3 (one side's symbol reused across pairs).
* ``shared-identified`` - additionally t2 = s2, i.e. both sides'
                      hypothetical b-outcomes coincide.

The walk over the (M+1)^3 grid of class triples is checked against exact
counts, which follow from the per-trial patterns:

* ``shared`` shows all 8 patterns, the same as ``independent``.  Take
  s1 = +1; then t2 sets the ab comparison, t3 the ac comparison and s2 the
  bc comparison, each freely.  So every triple (x, y, z) in [0, M]^3 is
  reachable (trial i is ab-equal iff i <= x, ac-equal iff i <= y, bc-equal
  iff i <= z), and both models reach (M+1)^3 triples.
* ``shared-identified`` shows 4 patterns.  With t2 = s2 the three
  comparisons multiply to s1^2 s2^2 t3^2 = +1, so an even number of them
  are unequal, which leaves (1,1,1), (1,0,0), (0,1,0) and (0,0,1) (1 for
  equal).  If n0 trials show (1,1,1) and n1, n2, n3 the others, then
  x + y + z = M + 2 n0, and x, y, z give back n0, n1, n2, n3.  Distinct
  multisets of M patterns thus give distinct triples, and there are
  C(M+3, 3) of them (220 at M = 9).

Reports also carry the count claimed by the coarse counting argument
((M+1)^3, 2(M+1)^2, (M+1)^2 respectively), and the ``agrees`` flag records
whether the exact count matches it.  Beyond M = 1 it matches only for
``independent``: the reduction the argument claims depends on how the
outcomes are assumed to be shared.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from enum import Enum

from .errors import InternalInvariantError, MalformedTupleError, SettingCollisionError, TooLargeError
from .model import BellTriple, DetectionEvent, PairRecord, SETTING_LABELS, CorrelationClass, Record, check_window

ENUMERATION_GUARD = 10_000_000

CONSTRAINT_MODEL_KINDS = ("independent", "shared", "shared-identified")


class ConstraintModel(Record):
    """Which per-trial sharing structure constrains the three pairs."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in CONSTRAINT_MODEL_KINDS:
            raise ValueError(f"kind must be one of {CONSTRAINT_MODEL_KINDS}, got {self.kind!r}")


class ClassCountReport(Record):
    """Enumerated number of reachable class triples, next to the closed-form
    count the coarse argument would give for the same model."""

    M: int
    model: ConstraintModel
    enumerated_count: int
    closed_form: int | None
    agrees: bool | None

    def __post_init__(self) -> None:
        if self.enumerated_count < 1:
            raise ValueError("enumerated_count must be at least 1")


def enumerate_eu_classes(M: int) -> list[CorrelationClass]:
    """All correlation classes of M trials of one pair, most-equal first: a
    string of M equal/unequal trials with u unequal is class (M-u)/u, so
    there are M+1.  M with 2^M strings past the guard is refused."""
    if M < 1:
        raise ValueError("M must be at least 1")
    if M >= ENUMERATION_GUARD.bit_length():  # 2^M > guard, without computing 2^M
        raise TooLargeError(f"2^{M} equal/unequal strings exceed the guard of {ENUMERATION_GUARD}")
    return [CorrelationClass(M - u, u) for u in range(M + 1)]


Pattern = tuple[bool, bool, bool]


def per_trial_patterns(model: ConstraintModel | str) -> frozenset[Pattern]:
    """The (ab-equal, ac-equal, bc-equal) patterns a single trial can show
    under the given constraint model."""
    kind = model.kind if isinstance(model, ConstraintModel) else ConstraintModel(model).kind
    if kind == "independent":
        return frozenset(itertools.product((False, True), repeat=3))
    pats = set()
    for s1, s2, t2, t3 in itertools.product((1, -1), repeat=4):
        if kind == "shared-identified":
            t2 = s2
        pats.add((s1 == t2, s1 == t3, s2 == t3))
    return frozenset(pats)


def _class_grid(M: int, patterns: frozenset[Pattern]) -> int:
    """The class triples reachable in M trials, as the bits of one int: bit
    x (M+1)^2 + y (M+1) + z is set iff (x, y, z) is reachable.  An M-step
    sumset walk, since only the multiset of per-trial patterns matters: each
    step ORs together the reachable set shifted by each pattern's offset.
    After k steps no coordinate exceeds k <= M, so no shift carries one
    coordinate into the next and no mask is needed."""
    shifts = {(M + 1) ** 2 * dx + (M + 1) * dy + dz for dx, dy, dz in patterns}
    reach = 1
    for _ in range(M):
        reach = functools.reduce(operator.or_, (reach << k for k in shifts))
    return reach


def _exact_count(M: int, kind: str) -> int:
    """The proven number of reachable class triples (module docstring)."""
    if kind == "shared-identified":
        return math.comb(M + 3, 3)
    return (M + 1) ** 3


def _closed_form(M: int, kind: str) -> int:
    if kind == "independent":
        return (M + 1) ** 3
    if kind == "shared":
        return 2 * (M + 1) ** 2
    return (M + 1) ** 2


def count_triple_classes(M: int, model: ConstraintModel | str) -> ClassCountReport:
    """Count the distinct (ab, ac, bc) class triples reachable in M trials
    per pair under the given constraint model.

    M may be any integer type.  The grid walk's count must equal the
    model's exact count; a mismatch raises InternalInvariantError.
    """
    if isinstance(model, str):
        model = ConstraintModel(model)
    M = operator.index(M)
    if M < 1:
        raise ValueError("M must be at least 1")
    if (M + 1) ** 3 > ENUMERATION_GUARD:
        raise TooLargeError(f"M={M}: the (M+1)^3 class grid exceeds the guard of {ENUMERATION_GUARD}")
    count = _class_grid(M, per_trial_patterns(model)).bit_count()
    exact = _exact_count(M, model.kind)
    if count != exact:
        raise InternalInvariantError(f"M={M} {model.kind}: the grid walk reached {count} class triples, not {exact}")
    closed = _closed_form(M, model.kind)
    return ClassCountReport(M, model, count, closed, count == closed)


def count_domains(settings_per_side: int) -> int:
    """Joint outcome assignments for both sides' full setting menus:
    2^(2n) ordered domains for n settings per side."""
    if settings_per_side < 1:
        raise ValueError("settings_per_side must be at least 1")
    return 2 ** (2 * settings_per_side)


def count_nonlocal_domains(pairings: int = 9) -> int:
    """Domain count when every ordered pairing carries four unconstrained
    joint outcomes: 4^pairings (262144 for the nine pairings of a
    three-setting experiment)."""
    if pairings < 1:
        raise ValueError("pairings must be at least 1")
    return 4**pairings


class Pairing(Record):
    left: str
    right: str
    time_correlated: bool

    def __str__(self) -> str:
        mark = "[{};{}]" if self.time_correlated else "({};{})"
        return mark.format(self.left, self.right)


def enumerate_pairings(settings_per_side: int = 3) -> list[Pairing]:
    """All ordered setting pairings (x; y) of an n-setting experiment.

    For n = 3, the fixed setting-grouped regrouping of a measured triple
    leaves exactly the pairings (a;c), (b;a), (c;b) as originally
    time-correlated pairs, and those three are flagged.  The regrouping
    construction is specific to the three-setting case, so for other n the
    flags are all False.
    """
    if not 1 <= settings_per_side <= len(SETTING_LABELS):
        raise ValueError(f"settings_per_side must be between 1 and {len(SETTING_LABELS)}")
    labels = SETTING_LABELS[:settings_per_side]
    out = []
    for i, x in enumerate(labels):
        for j, y in enumerate(labels):
            flagged = settings_per_side == 3 and (j - i) % 3 == 2
            out.append(Pairing(x, y, flagged))
    return out


class TopologyViolationKind(Enum):
    DUPLICATE_STATION_TIME = "DuplicateStationTime"
    REUSED_EVENT = "ReusedEvent"
    WINDOW_EXCEEDED = "WindowExceeded"


class TopologyViolation(Record):
    kind: TopologyViolationKind
    entries: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        return f"{self.kind.value} (entries {list(self.entries)}): {self.message}"


Entry = tuple[int, str, int, str]  # (outcome, setting, time_ns, island)


def _check_entry(i: int, entry) -> Entry:
    try:
        outcome, setting, time_ns, island = entry
    except (TypeError, ValueError):
        raise MalformedTupleError(f"entry {i} must be (outcome, setting, time_ns, island), got {entry!r}")
    try:
        DetectionEvent(island, time_ns, setting, outcome)
    except ValueError as exc:
        raise MalformedTupleError(f"entry {i}: {exc}") from None
    return (int(outcome), setting, int(time_ns), island)


def validate_time_topology(six_tuple, window_ns: int) -> list[TopologyViolation]:
    """Check whether six entries, grouped into three claimed pairs
    (entries 0-1, 2-3, 4-5), could have been measured as three genuine
    coincidence pairs under window ``window_ns``.

    Returns the empty list iff (i) no station shows two entries at one
    time, (ii) no (island, setting, time) event is claimed by two pairs,
    and (iii) each claimed pair's times differ by at most the window.
    Setting-grouped regroupings of genuinely matched data necessarily
    reuse events and are flagged.  Malformed input (wrong arity, bad
    fields, a window that is not a nonnegative integer, islands not split
    3/3, a claimed pair not spanning both islands) raises
    MalformedTupleError instead.
    """
    entries = [_check_entry(i, e) for i, e in enumerate(six_tuple)]
    if len(entries) != 6:
        raise MalformedTupleError(f"expected exactly 6 entries, got {len(entries)}")
    try:
        check_window(window_ns)
    except ValueError as exc:
        raise MalformedTupleError(str(exc)) from None
    per_island = {"T": [i for i, e in enumerate(entries) if e[3] == "T"]}
    per_island["L"] = [i for i, e in enumerate(entries) if e[3] == "L"]
    if len(per_island["T"]) != 3 or len(per_island["L"]) != 3:
        raise MalformedTupleError(
            f"expected 3 entries per island, got {len(per_island['T'])} on T and {len(per_island['L'])} on L"
        )
    pairs = [(0, 1), (2, 3), (4, 5)]
    for p, (i, j) in enumerate(pairs):
        if {entries[i][3], entries[j][3]} != {"T", "L"}:
            raise MalformedTupleError(f"claimed pair {p} must have one entry per island")

    violations: list[TopologyViolation] = []
    by_station_time: dict[tuple[str, int], list[int]] = {}
    for i, (_o, _s, t, isl) in enumerate(entries):
        by_station_time.setdefault((isl, t), []).append(i)
    for (isl, t), idxs in sorted(by_station_time.items()):
        if len(idxs) > 1:
            violations.append(
                TopologyViolation(
                    TopologyViolationKind.DUPLICATE_STATION_TIME,
                    tuple(idxs),
                    f"station {isl} shows {len(idxs)} entries at time {t}",
                )
            )
    claimed: dict[tuple[str, str, int], list[int]] = {}
    for p, (i, j) in enumerate(pairs):
        for k in (i, j):
            o, s, t, isl = entries[k]
            claimed.setdefault((isl, s, t), []).append(p)
    for (isl, s, t), ps in sorted(claimed.items()):
        if len(set(ps)) > 1:
            violations.append(
                TopologyViolation(
                    TopologyViolationKind.REUSED_EVENT,
                    tuple(sorted(set(ps))),
                    f"event ({isl}, {s}, {t}) is claimed by pairs {sorted(set(ps))}",
                )
            )
    for p, (i, j) in enumerate(pairs):
        dt = abs(entries[i][2] - entries[j][2])
        if dt > window_ns:
            violations.append(
                TopologyViolation(
                    TopologyViolationKind.WINDOW_EXCEEDED,
                    (i, j),
                    f"claimed pair {p} spans {dt} ns, over the window of {window_ns} ns",
                )
            )
    return violations


def setting_grouped_entries(triple: BellTriple) -> list[Entry]:
    """The six-entry regrouping that files outcomes by setting instead of by
    measured pair: the a-outcome of the ab pair is reused for the claimed
    (a,c) pair, and the c-outcome of the ac pair is reused for the claimed
    (b,c) pair.  The result presents three claimed pairs built from only
    four distinct events, which ``validate_time_topology`` must flag.
    """

    def entry(ev: DetectionEvent) -> Entry:
        return (ev.outcome, ev.setting_label, ev.time_ns, ev.island)

    return [
        entry(triple.ab.left),
        entry(triple.ab.right),
        entry(triple.ab.left),
        entry(triple.ac.right),
        entry(triple.bc.left),
        entry(triple.ac.right),
    ]


class CounterfactualTriple(Record):
    """A measured pair annotated with a third, never-measured setting.

    The third slot has no outcome and no time; it marks what a triple-based
    bookkeeping would have needed but the experiment never produced.  The
    type is deliberately distinct from PairRecord so that tallies and every
    statistic built on them refuse it.
    """

    left: DetectionEvent
    right: DetectionEvent
    extra_setting: str
    extra_outcome: None = None
    extra_time_ns: None = None

    def __str__(self) -> str:
        return (
            f"({self.left.outcome:+d}, {self.left.setting_label}, {self.left.time_ns}; "
            f"{self.right.outcome:+d}, {self.right.setting_label}, {self.right.time_ns} / "
            f"?, {self.extra_setting}, ?)"
        )


def augment_triple(pair: PairRecord, extra_setting: str) -> CounterfactualTriple:
    """Annotate a measured pair with a counterfactual third setting."""
    if extra_setting not in SETTING_LABELS:
        raise ValueError(f"extra_setting must be one of {SETTING_LABELS}, got {extra_setting!r}")
    used = {pair.left.setting_label, pair.right.setting_label}
    if extra_setting in used:
        raise SettingCollisionError(
            f"extra setting {extra_setting!r} is already measured by the pair (settings {sorted(used)})"
        )
    return CounterfactualTriple(pair.left, pair.right, extra_setting)
