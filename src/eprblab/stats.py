"""Estimators over matched pairs: tallies, correlations, the Bell-Wigner
and CHSH inequalities, window sweeps, and cross-trial re-pairing.

Pairs come in the matcher's form (left, right, left_idx, right_idx): two
EventStreams and the indices of the paired events.  A tally reads only
stream events, so an imagined entry (a setting never measured, with no
time and no outcome) has no way into any statistic here.

Inequality conventions.  The Bell-Wigner bound is used in its
single-probability form

    q(a, b) <= q(a, c) + q(c, b)

where q(x, y) is the probability, among pairs measured with setting x on
one island and y on the other, of the event "the x measurement would show
+ while the hidden value at y is -".  L reports s * tau with
s = ``model.l_sign(convention)``, so in a table tallied as (x; y) that
event is the observed cell (+, -s); tallied the other way round, (y; x),
it is the cell (-, s).  Under "anti" (s = -1, equal settings
anticorrelate, the singlet case) these are (+, +) and (-, -).  Any
distribution over identified outcome domains obeys the bound in either
convention; sampled singlet data violates it.  Reading
all three terms naively from the (+, +) cell regardless of table
orientation looks simpler but is not a valid bound (a deterministic
identified assignment already breaks it), which is why the lookup
(``model._q``) is orientation- and convention-aware.

Statistical errors are binomial standard errors on fractions, propagated
in quadrature; adequate at desk scale and reported next to every point
estimate.  The violation flags use the point estimates alone, compared
exactly: in Fractions of the integer counts, so a tie with the bound is
never a violation.  The reported values are the float estimates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from ._lazy import np
from .errors import EmptyCellError
from .model import CELLS, EventStream, Record, TallyTable, _cells_for, _q, check_window, require_valid_stream
from .pairing import PairingConfig, match_pairs_indexed

# ---------------------------------------------------------------------------
# tallies


def tally(
    left: EventStream,
    right: EventStream,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
    unmatched_left: int = 0,
    unmatched_right: int = 0,
) -> TallyTable:
    """Count outcomes per measured setting pair over the pairs
    (left.event(i), right.event(j)) for i, j in zip(left_idx, right_idx).

    Every counted outcome is a detection in an EventStream, so a tally
    holds measured outcomes only: an imagined entry, such as the third
    slot of a counterfactually augmented triple, has no time and no
    outcome and cannot become a stream event.
    """
    xi = left.setting_idx[left_idx].astype(np.int64)
    yi = right.setting_idx[right_idx].astype(np.int64)
    so = (left.outcome[left_idx] > 0).astype(np.int64)
    so2 = (right.outcome[right_idx] > 0).astype(np.int64)
    n_l, n_r = len(left.labels), len(right.labels)
    code = ((xi * n_r + yi) * 2 + so) * 2 + so2
    hist = np.bincount(code, minlength=n_l * n_r * 4).reshape(n_l, n_r, 2, 2)
    counts: dict[tuple[str, str], dict[tuple[int, int], int]] = {}
    for xi_, x in enumerate(left.labels):
        for yi_, y in enumerate(right.labels):
            if hist[xi_, yi_].any():
                counts[(x, y)] = {(s, s2): int(hist[xi_, yi_, int(s > 0), int(s2 > 0)]) for s, s2 in CELLS}
    return TallyTable(counts, unmatched_left, unmatched_right)


def correlation(t: TallyTable, x: str, y: str) -> float:
    """E = (N++ + N-- - N+- - N-+)/N for the setting pair; transpose-safe."""
    cells, _ = _cells_for(t.counts, x, y)
    n = sum(cells.values())
    return (cells[(1, 1)] + cells[(-1, -1)] - cells[(1, -1)] - cells[(-1, 1)]) / n


def equal_fraction(t: TallyTable, x: str, y: str) -> float:
    """(N++ + N--)/N for the setting pair; equals (1 + E)/2 identically."""
    cells, _ = _cells_for(t.counts, x, y)
    n = sum(cells.values())
    return (cells[(1, 1)] + cells[(-1, -1)]) / n


# ---------------------------------------------------------------------------
# inequality reports


class InequalityReport(Record):
    """Outcome of one inequality evaluation.

    For bell-wigner, ``lhs``/``rhs`` hold the two sides of
    q(a,b) <= q(a,c) + q(c,b); for chsh, ``s_value`` holds S and the bound
    is 2.  ``violated`` compares the exact point estimate with the bound;
    ``standard_error`` is the binomial error of the decisive quantity
    (lhs - rhs, or S).
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
    a, b, c = ordering
    exact_ab, n_ab, k_ab = _q(t.counts, a, b, convention)
    exact_ac, n_ac, k_ac = _q(t.counts, a, c, convention)
    exact_cb, n_cb, k_cb = _q(t.counts, c, b, convention)
    q_ab, q_ac, q_cb = float(exact_ab), float(exact_ac), float(exact_cb)
    stderr = math.sqrt(
        q_ab * (1 - q_ab) / n_ab + q_ac * (1 - q_ac) / n_ac + q_cb * (1 - q_cb) / n_cb
    )
    return InequalityReport(
        name="bell-wigner",
        violated=exact_ab > exact_ac + exact_cb,
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
    exact = Fraction(0)
    var = 0.0
    pair_counts: dict[tuple[str, str], int] = {}
    for (x, y), sign in terms:
        cells, transposed = _cells_for(t.counts, x, y)
        n = sum(cells.values())
        agree = cells[(1, 1)] + cells[(-1, -1)] - cells[(1, -1)] - cells[(-1, 1)]
        e = agree / n
        s += sign * e
        exact += sign * Fraction(agree, n)
        var += (1 - e * e) / n
        pair_counts[(y, x) if transposed else (x, y)] = n
    return InequalityReport(
        name="chsh",
        violated=abs(exact) > 2,
        standard_error=math.sqrt(var),
        pair_counts=pair_counts,
        s_value=s,
    )


# ---------------------------------------------------------------------------
# window sweeps


class SweepRow(Record):
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
    property in ``pairing``).  Either side may be an EventStream or a
    DetectionEvent sequence, as for the matcher.
    """
    windows = list(windows)
    if not windows:
        raise ValueError("windows must be nonempty")
    for w in windows:
        check_window(w)
    windows = [int(w) for w in windows]
    if any(b < a for a, b in zip(windows, windows[1:])):
        raise ValueError("windows must be sorted ascending")
    if kind not in ("bell-wigner", "chsh"):
        raise ValueError(f"kind must be 'bell-wigner' or 'chsh', got {kind!r}")
    if ordering is None:
        ordering = ("a", "b", "c") if kind == "bell-wigner" else ("a", "b", "c", "d")

    left, right = require_valid_stream(left), require_valid_stream(right)
    all_i, all_j, _, _ = match_pairs_indexed(left, right, PairingConfig(windows[-1]))
    dt = np.abs(left.t_ns[all_i] - right.t_ns[all_j])
    rows: list[SweepRow] = []
    for w in windows:
        keep = dt <= w
        mi, mj = all_i[keep], all_j[keep]
        t = tally(left, right, mi, mj, len(left) - len(mi), len(right) - len(mj))
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


def repair_across_trials(
    left: EventStream, right: EventStream, left_idx: np.ndarray, right_idx: np.ndarray, seed: int
) -> TallyTable:
    """Destroy time pairing: within each setting-pair class, re-permute the
    right-hand outcomes uniformly at random, then tally.

    If the original equal-setting pairs were perfectly correlated, the
    scrambled table's equal fraction drops to p^2 + (1-p)^2, which is 1/2
    for balanced marginals: time-agnostic bookkeeping keeps only half of
    the perfect correlation.  Deterministic given ``seed``: one permutation
    of the class's right events per class, drawn in sorted class order.
    """
    if len(left_idx) == 0:
        raise ValueError("repair_across_trials needs at least one pair")
    xs = np.asarray(left.labels)[left.setting_idx[left_idx]]
    ys = np.asarray(right.labels)[right.setting_idx[right_idx]]
    rng = np.random.default_rng(seed)
    repaired = np.array(right_idx)
    for x, y in sorted(set(zip(xs.tolist(), ys.tolist()))):
        members = np.flatnonzero((xs == x) & (ys == y))
        repaired[members] = repaired[members][rng.permutation(len(members))]
    return tally(left, right, left_idx, repaired)
