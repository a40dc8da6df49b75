"""Estimators over matched pairs: tallies, correlations, the Bell-Wigner
and CHSH inequalities, window sweeps, and cross-trial re-pairing.

Inequality conventions.  The Bell-Wigner bound is used in its
single-probability form

    q(a, b) <= q(a, c) + q(c, b)

where q(x, y) is the probability, among pairs measured with setting x on
one island and y on the other, of the event "the x measurement would show
+ while the hidden value at y is -".  For data in convention "anti"
(equal settings anticorrelate, the singlet case) and a table tallied as
(x; y), that event is the observed cell (+, +); tallied the other way
round, (y; x), it is the cell (-, -).  In convention "equal" the L
outcome carries the opposite sign, so the cells are (+, -) and (-, +)
respectively.  Any distribution over identified outcome domains obeys the
bound in either convention; sampled singlet data violates it.  Reading
all three terms naively from the (+, +) cell regardless of table
orientation looks simpler but is not a valid bound (a deterministic
identified assignment already breaks it), which is why the lookup is
orientation- and convention-aware.

Statistical errors are binomial standard errors on fractions, propagated
in quadrature; adequate at desk scale and reported next to every point
estimate.  The violation flags use the point estimates alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyCellError
from .model import CELLS, CONVENTIONS, EventStream, PairRecord, TallyTable
from .pairing import PairingConfig, match_pairs_indexed

# ---------------------------------------------------------------------------
# tallies


def tally(pairs: Sequence[PairRecord], unmatched_left: int = 0, unmatched_right: int = 0) -> TallyTable:
    """Count outcomes per measured setting pair.

    Accepts only real PairRecord measurements; counterfactually augmented
    triples (and anything else) are refused, keeping imagined entries out
    of every statistic by construction.
    """
    counts: dict[tuple[str, str], dict[tuple[int, int], int]] = {}
    for p in pairs:
        if not isinstance(p, PairRecord):
            raise TypeError(
                f"tally counts measured pairs only, got {type(p).__name__}; "
                "counterfactually augmented records cannot be tallied"
            )
        cells = counts.setdefault(p.setting_pair, {c: 0 for c in CELLS})
        cells[(p.left.outcome, p.right.outcome)] += 1
    return TallyTable(counts, unmatched_left, unmatched_right)


def tally_indexed(
    left: EventStream,
    right: EventStream,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
    unmatched_left: int = 0,
    unmatched_right: int = 0,
) -> TallyTable:
    """Vectorized tally over matched index arrays (the large-run path)."""
    xi = left.setting_idx[left_idx].astype(np.int64)
    yi = right.setting_idx[right_idx].astype(np.int64)
    so = (left.outcome[left_idx] > 0).astype(np.int64)
    so2 = (right.outcome[right_idx] > 0).astype(np.int64)
    n_l, n_r = len(left.labels), len(right.labels)
    code = ((xi * n_r + yi) * 2 + so) * 2 + so2
    hist = np.bincount(code, minlength=n_l * n_r * 4)
    counts: dict[tuple[str, str], dict[tuple[int, int], int]] = {}
    for xi_ in range(n_l):
        for yi_ in range(n_r):
            base = (xi_ * n_r + yi_) * 4
            cells = {
                (1, 1): int(hist[base + 3]),
                (1, -1): int(hist[base + 2]),
                (-1, 1): int(hist[base + 1]),
                (-1, -1): int(hist[base + 0]),
            }
            if any(cells.values()):
                counts[(left.labels[xi_], right.labels[yi_])] = cells
    return TallyTable(counts, unmatched_left, unmatched_right)


def _cells_for(t: TallyTable, x: str, y: str) -> tuple[Mapping[tuple[int, int], int], bool]:
    """The tallied table for settings {x on T, y on L} or its transpose.

    Returns (cells, transposed).  Raises EmptyCellError when neither
    orientation has any pairs.
    """
    if t.total(x, y) > 0:
        return t.counts[(x, y)], False
    if t.total(y, x) > 0:
        return t.counts[(y, x)], True
    raise EmptyCellError(f"no tallied pairs for settings ({x};{y}) in either orientation")


def correlation(t: TallyTable, x: str, y: str) -> float:
    """E = (N++ + N-- - N+- - N-+)/N for the setting pair; transpose-safe."""
    cells, _ = _cells_for(t, x, y)
    n = sum(cells.values())
    return (cells[(1, 1)] + cells[(-1, -1)] - cells[(1, -1)] - cells[(-1, 1)]) / n


def equal_fraction(t: TallyTable, x: str, y: str) -> float:
    """(N++ + N--)/N for the setting pair; equals (1 + E)/2 identically."""
    cells, _ = _cells_for(t, x, y)
    n = sum(cells.values())
    return (cells[(1, 1)] + cells[(-1, -1)]) / n


def _q_cell(convention: str, transposed: bool) -> tuple[int, int]:
    """Observed cell holding the hidden-level event (x -> +, y -> -); see the
    module docstring for the derivation."""
    if convention == "anti":
        return (-1, -1) if transposed else (1, 1)
    return (-1, 1) if transposed else (1, -1)


def _q(t: TallyTable, x: str, y: str, convention: str) -> tuple[float, int, tuple[str, str]]:
    cells, transposed = _cells_for(t, x, y)
    n = sum(cells.values())
    cell = _q_cell(convention, transposed)
    key = (y, x) if transposed else (x, y)
    return cells[cell] / n, n, key


# ---------------------------------------------------------------------------
# inequality reports


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality evaluation.

    For bell-wigner, ``lhs``/``rhs`` hold the two sides of
    q(a,b) <= q(a,c) + q(c,b); for chsh, ``s_value`` holds S and the bound
    is 2.  ``violated`` uses the point estimate; ``standard_error`` is the
    binomial error of the decisive quantity (lhs - rhs, or S).
    """

    name: str
    violated: bool
    standard_error: float
    pair_counts: Mapping[tuple[str, str], int]
    lhs: float | None = None
    rhs: float | None = None
    s_value: float | None = None

    @property
    def statistic(self) -> float:
        return self.s_value if self.s_value is not None else self.lhs - self.rhs


def bell_wigner(t: TallyTable, ordering: tuple[str, str, str] = ("a", "b", "c"), convention: str = "anti") -> InequalityReport:
    """Evaluate q(a,b) <= q(a,c) + q(c,b) on tallied data."""
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be 'equal' or 'anti', got {convention!r}")
    a, b, c = ordering
    q_ab, n_ab, k_ab = _q(t, a, b, convention)
    q_ac, n_ac, k_ac = _q(t, a, c, convention)
    q_cb, n_cb, k_cb = _q(t, c, b, convention)
    stderr = math.sqrt(
        q_ab * (1 - q_ab) / n_ab + q_ac * (1 - q_ac) / n_ac + q_cb * (1 - q_cb) / n_cb
    )
    return InequalityReport(
        name="bell-wigner",
        violated=q_ab > q_ac + q_cb,
        standard_error=stderr,
        pair_counts={k_ab: n_ab, k_ac: n_ac, k_cb: n_cb},
        lhs=q_ab,
        rhs=q_ac + q_cb,
    )


def chsh(t: TallyTable, ordering: tuple[str, str, str, str] = ("a", "b", "c", "d")) -> InequalityReport:
    """S = E(a,b) - E(a,d) + E(c,b) + E(c,d); violated iff |S| > 2."""
    a, b, c, d = ordering
    terms = [((a, b), +1), ((a, d), -1), ((c, b), +1), ((c, d), +1)]
    s = 0.0
    var = 0.0
    pair_counts: dict[tuple[str, str], int] = {}
    for (x, y), sign in terms:
        cells, transposed = _cells_for(t, x, y)
        n = sum(cells.values())
        e = (cells[(1, 1)] + cells[(-1, -1)] - cells[(1, -1)] - cells[(-1, 1)]) / n
        s += sign * e
        var += (1 - e * e) / n
        pair_counts[(y, x) if transposed else (x, y)] = n
    return InequalityReport(
        name="chsh",
        violated=abs(s) > 2.0,
        standard_error=math.sqrt(var),
        pair_counts=pair_counts,
        s_value=s,
    )


# ---------------------------------------------------------------------------
# window sweeps


@dataclass(frozen=True)
class SweepRow:
    """One window's worth of sweep output.  ``statistic`` is S for chsh and
    lhs - rhs for bell-wigner; all three result fields are None when some
    required setting pair tallied zero pairs at this window."""

    window_ns: int
    pairs: int
    statistic: float | None
    stderr: float | None
    violated: bool | None


def sweep_window(
    left,
    right,
    windows: Sequence[int],
    kind: str,
    ordering: tuple[str, ...] | None = None,
    convention: str = "anti",
) -> list[SweepRow]:
    """Evaluate the named inequality at every window of a sorted sweep.

    The streams are matched once, at the largest window; each row keeps the
    pairs with |dt| <= W, which is exactly the matching at W (see the prefix
    property in ``pairing``).
    """
    windows = [int(w) for w in windows]
    if not windows:
        raise ValueError("windows must be nonempty")
    if any(b < a for a, b in zip(windows, windows[1:])):
        raise ValueError("windows must be sorted ascending")
    if kind not in ("bell-wigner", "chsh"):
        raise ValueError(f"kind must be 'bell-wigner' or 'chsh', got {kind!r}")
    if ordering is None:
        ordering = ("a", "b", "c") if kind == "bell-wigner" else ("a", "b", "c", "d")
    if windows[0] < 0:
        raise ValueError("window_ns must be nonnegative")

    all_i, all_j, _, _ = match_pairs_indexed(left, right, PairingConfig(windows[-1]))
    dt = np.abs(left.t_ns[all_i] - right.t_ns[all_j])
    rows: list[SweepRow] = []
    for w in windows:
        keep = dt <= w
        mi, mj = all_i[keep], all_j[keep]
        t = tally_indexed(left, right, mi, mj, len(left) - len(mi), len(right) - len(mj))
        try:
            if kind == "chsh":
                rep = chsh(t, ordering)  # type: ignore[arg-type]
            else:
                rep = bell_wigner(t, ordering, convention)  # type: ignore[arg-type]
            rows.append(SweepRow(w, len(mi), rep.statistic, rep.standard_error, rep.violated))
        except EmptyCellError:
            rows.append(SweepRow(w, len(mi), None, None, None))
    return rows


# ---------------------------------------------------------------------------
# cross-trial re-pairing


def repair_across_trials(pairs: Sequence[PairRecord], seed: int) -> TallyTable:
    """Destroy time pairing: within each setting-pair class, re-permute the
    right-hand outcomes uniformly at random, then tally.

    If the original equal-setting pairs were perfectly correlated, the
    scrambled table's equal fraction drops to p^2 + (1-p)^2, which is 1/2
    for balanced marginals: time-agnostic bookkeeping keeps only half of
    the perfect correlation.  Deterministic given ``seed``.
    """
    if not pairs:
        raise ValueError("repair_across_trials needs at least one pair")
    for p in pairs:
        if not isinstance(p, PairRecord):
            raise TypeError(f"expected PairRecord, got {type(p).__name__}")
    rng = np.random.default_rng(seed)
    groups: dict[tuple[str, str], list[int]] = {}
    for i, p in enumerate(pairs):
        groups.setdefault(p.setting_pair, []).append(i)
    counts: dict[tuple[str, str], dict[tuple[int, int], int]] = {}
    for key in sorted(groups):
        idx = groups[key]
        rights = [pairs[i].right.outcome for i in idx]
        perm = rng.permutation(len(idx))
        cells = {c: 0 for c in CELLS}
        for pos, i in enumerate(idx):
            cells[(pairs[i].left.outcome, rights[perm[pos]])] += 1
        counts[key] = cells
    return TallyTable(counts)
