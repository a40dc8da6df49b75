"""Exact decision of whether pairwise outcome tables admit a joint
probability distribution over outcome domains.

The question posed by ``joint_feasibility`` is: given 2x2 probability tables
for a set of measured setting pairs, does there exist a probability weight
on the full domain space (one hidden outcome per setting per side) whose
marginals reproduce every table exactly?  Feasibility comes with a witness
distribution that is re-marginalized and compared exactly; infeasibility
comes with a separating functional y such that y . b > 0 while y . A_d <= 0
for every domain column d, verified before it is returned.

Floats only choose where the exact solver starts.  A ``float64`` phase-1
simplex (Dantzig's rule) picks a basis, and one exact revised simplex
(Bland's rule, in integers) starts from it, or from the all-artificial basis
if it is singular or negative, and pivots until it can decide.  Usually the
float basis is already optimal and takes no exact pivot.  Every answer is
exact and passes the checks above before it is returned; no tolerance ever
decides one.

A domain assigns sigma outcomes to the T island and tau outcomes to the L
island; T reports sigma and L reports ``model.l_sign(convention) * tau``.
Identification (``identify_equal_settings=True``) restricts the domain
space to tau = sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyCellError, InternalInvariantError, SupportViolationError
from .model import (
    CELLS,
    CELL_NAMES,
    SETTING_LABELS,
    DomainKey,
    TallyTable,
    WignerDomainDistribution,
    all_domain_keys,
    domain_key_to_string,
    l_sign,
)
from .stats import _q


def _as_fraction(value) -> Fraction:
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


@dataclass(frozen=True)
class PairwiseTables:
    """Exact 2x2 outcome tables keyed by ordered measured setting pair.

    The key (x, y) means the T station measured x and the L station
    measured y; the cell (s, s') holds the probability of T reporting s
    and L reporting s'.  Every table must sum to exactly 1.
    """

    tables: Mapping[tuple[str, str], Mapping[tuple[int, int], Fraction]]

    def __post_init__(self) -> None:
        if not self.tables:
            raise ValueError("tables must not be empty")
        norm: dict[tuple[str, str], dict[tuple[int, int], Fraction]] = {}
        for key, cells in self.tables.items():
            if (
                not isinstance(key, tuple)
                or len(key) != 2
                or key[0] not in SETTING_LABELS
                or key[1] not in SETTING_LABELS
            ):
                raise ValueError(f"table key must be an ordered pair of setting labels, got {key!r}")
            if set(cells) != set(CELLS):
                raise ValueError(f"table {key} must carry exactly the four cells {list(CELL_NAMES.values())}")
            exact = {c: _as_fraction(cells[c]) for c in CELLS}
            for c, p in exact.items():
                if p < 0:
                    raise ValueError(f"table {key} cell {CELL_NAMES[c]} is negative: {p}")
            total = sum(exact.values())
            if total != 1:
                raise ValueError(f"table {key} sums to {total}, expected exactly 1")
            norm[key] = exact
        object.__setattr__(self, "tables", norm)

    @classmethod
    def from_tally(cls, tally: TallyTable, pairs: Sequence[tuple[str, str]] | None = None) -> "PairwiseTables":
        """Normalize tally counts into exact per-pair probability tables.

        By default every nonempty pair in the tally is included; passing
        ``pairs`` selects (and requires) specific ones.
        """
        wanted = list(pairs) if pairs is not None else sorted(k for k in tally.counts if tally.total(*k) > 0)
        out = {}
        for key in wanted:
            n = tally.total(*key)
            if n == 0:
                raise EmptyCellError(f"no counts for measured pair {key[0]};{key[1]}")
            out[key] = {c: Fraction(tally.counts[key][c], n) for c in CELLS}
        return cls(out)

    @property
    def setting_labels(self) -> tuple[str, ...]:
        used = {lab for key in self.tables for lab in key}
        last = max(SETTING_LABELS.index(lab) for lab in used)
        return SETTING_LABELS[: last + 1]

    def measured_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.tables)


def marginalize(
    dist: WignerDomainDistribution,
    measured_pairs: Sequence[tuple[str, str]],
    identify_equal_settings: bool = False,
    convention: str = "equal",
) -> PairwiseTables:
    """Exact per-pair outcome tables induced by a domain distribution.

    For measured pair (x, y) the T station reports sigma_x and the L
    station reports l_sign(convention) * tau_y.  With
    ``identify_equal_settings`` the distribution must already be supported
    on identified domains (tau = sigma); any weight elsewhere raises
    SupportViolationError rather than being silently projected.
    """
    flip = l_sign(convention)
    if not measured_pairs:
        raise ValueError("measured_pairs must not be empty")
    if identify_equal_settings:
        bad = [k for k, w in dist.weights.items() if w > 0 and not dist.is_identified(k)]
        if bad:
            shown = domain_key_to_string(sorted(bad)[0])
            raise SupportViolationError(
                f"{len(bad)} domain(s) with positive weight are not identified, e.g. {shown!r}"
            )
    labels = dist.settings
    n = dist.n_settings
    out: dict[tuple[str, str], dict[tuple[int, int], Fraction]] = {}
    for x, y in measured_pairs:
        if x not in labels or y not in labels:
            raise ValueError(f"measured pair ({x}, {y}) uses settings outside the distribution's {labels}")
        ix, iy = labels.index(x), labels.index(y)
        cells = {c: Fraction(0) for c in CELLS}
        for key, w in dist.weights.items():
            if w == 0:
                continue
            cells[(key[ix], flip * key[n + iy])] += w
        out[(x, y)] = cells
    return PairwiseTables(out)


@dataclass(frozen=True)
class FeasibilityResult:
    """The answer with its witness or certificate, and the LP's path: its
    size, the float phase's pivot count, the basis the exact simplex started
    from (``path``: "float-basis", or "artificial-basis" when the float basis
    was singular or negative) and its pivot count (``exact_pivots``; 0 when
    the float basis was certified as it was)."""

    feasible: bool
    identify_equal_settings: bool
    convention: str
    setting_labels: tuple[str, ...]
    witness: WignerDomainDistribution | None
    certificate: dict[str, Fraction] | None
    row_labels: tuple[str, ...]
    lp_rows: int
    lp_cols: int
    float_pivots: int
    exact_pivots: int
    path: str

    @property
    def status(self) -> str:
        return "feasible" if self.feasible else "infeasible"


def _row_label(key: tuple[str, str], cell: tuple[int, int]) -> str:
    return f"{key[0]};{key[1]}:{CELL_NAMES[cell]}"


# The float phase only proposes the starting basis; the exact simplex goes on
# from it and the gates check the answer, so a tolerance or cap that misjudges
# some table costs exact pivots, never a wrong answer.  4-setting menus take 11
# to about 100 float pivots.
_FLOAT_TOL = 1e-9
_FLOAT_PIVOT_CAP = 1000


def _float_basis(a: np.ndarray, b: np.ndarray) -> tuple[list[int], int]:
    """Phase-1 simplex for {A x = b, x >= 0} in float64, Dantzig's rule.

    Starts from the all-artificial basis (artificial i is column n + i) and
    stops once the artificial sum is zero, no reduced cost is negative, no
    row can leave or the pivot cap is hit.  Returns (basis, pivots), where
    basis lists the m basic columns of the last basis.
    """
    m, n = a.shape
    tab = np.hstack([a, np.eye(m), b[:, None]])
    rc = np.concatenate([np.zeros(n), np.ones(m), [0.0]]) - tab.sum(axis=0)
    basis = list(range(n, n + m))
    pivots = 0
    while -rc[-1] > _FLOAT_TOL and pivots < _FLOAT_PIVOT_CAP:
        enter = int(np.argmin(rc[:-1]))
        if rc[enter] >= -_FLOAT_TOL:
            break
        col = tab[:, enter]
        rows = np.flatnonzero(col > _FLOAT_TOL)
        if rows.size == 0:
            break
        ratio = np.maximum(tab[rows, -1], 0.0) / col[rows]
        tied = rows[ratio <= ratio.min() + _FLOAT_TOL]
        leave = int(tied[np.argmax(col[tied])])
        tab[leave] /= tab[leave, enter]
        factors = tab[:, enter].copy()
        factors[leave] = 0.0
        tab -= np.outer(factors, tab[leave])
        rc -= rc[enter] * tab[leave]
        basis[leave] = enter
        pivots += 1
    return basis, pivots


def _inverse(matrix: list[list[int]]) -> tuple[int, np.ndarray] | None:
    """(d, N) with d > 0 and N / d the inverse of the square integer matrix,
    by fraction-free (Bareiss) Gauss-Jordan elimination, in which every
    division is exact; None if the matrix is singular."""
    k = len(matrix)
    rows = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(matrix)]
    prev = 1
    for c in range(k):
        p = next((i for i in range(c, k) if rows[i][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        d = pivot[c]
        for i in range(k):
            if i != c:
                f = rows[i][c]
                rows[i] = [(d * v - f * u) // prev for v, u in zip(rows[i], pivot)]
        prev = d
    sign = 1 if prev > 0 else -1
    return sign * prev, np.array([[sign * v for v in row[k:]] for row in rows], dtype=object).reshape(k, k)


def _over_common_denominator(values: list[Fraction]) -> tuple[int, np.ndarray]:
    """(d, d * values) for d the values' least common denominator: integers of the same signs and ratios."""
    d = math.lcm(*(v.denominator for v in values))
    return d, np.array([v.numerator * (d // v.denominator) for v in values], dtype=object)


def _exact_simplex(
    a: np.ndarray, support: np.ndarray, rhs: list[Fraction], basis: list[int]
) -> tuple[list[Fraction] | None, list[Fraction] | None, str, int]:
    """Exact phase-1 revised simplex for {A x = b, x >= 0} with b >= 0.

    Column n + i of [A | I] is the artificial of row i.  The simplex starts
    from ``basis`` ("float-basis") unless that is singular or has a negative
    basic value; then it starts from the all-artificial basis
    ("artificial-basis").  Bland's rule picks the entering column (the
    lowest-numbered domain column of negative reduced cost; artificials never
    re-enter) and the leaving one (the lowest-numbered of the ratio test's
    ties), so it terminates from any primal-feasible start (Bland 1977).

    Each pivot re-solves the basis.  An artificial column is a unit column,
    so each basic artificial fixes its own row: only the free rows and the
    basic domain columns form the square block that is inverted, in
    integers.  Pricing sums the duals, scaled to integers, over each domain
    column's ``support`` (the rows where it holds a 1).

    Returns (x, None, path, pivots) once no artificial carries weight, or
    (None, y, path, pivots) once no column can enter, with y a separating
    functional: y . b > 0, and y . A_j <= 0 for every domain column j.
    """
    m, n = a.shape
    a = a.astype(object)  # Python ints, which cannot overflow
    scale, b = _over_common_denominator(rhs)
    artificial = set(range(n, n + m))
    basis = set(basis)
    path = "artificial-basis" if basis == artificial else "float-basis"
    pivots = 0
    while True:
        cols = sorted(j for j in basis if j < n)
        fixed = [i for i in range(m) if n + i in basis]
        free = [i for i in range(m) if n + i not in basis]
        inverse = _inverse(a[np.ix_(free, cols)].tolist())
        if inverse is not None:
            det, adj = inverse
            rest = a[np.ix_(fixed, cols)]

            def solve(col: np.ndarray) -> dict[int, int]:
                """det * B^-1 col, keyed by basic column."""
                w = adj @ col[free]
                return dict(zip(cols + [n + i for i in fixed], [*w, *(det * col[fixed] - rest @ w)]))

            x = solve(b)  # the basic values times det * scale
        if inverse is None or min(x.values()) < 0:
            if pivots:
                raise InternalInvariantError("the ratio test left a singular or negative basis")
            basis, path = artificial, "artificial-basis"
            continue
        if not any(x[n + i] for i in fixed):
            return [Fraction(x.get(j, 0), det * scale) for j in range(n)], None, path, pivots
        # c_B is 1 on the artificials and 0 on domain columns, so y is 1 on the
        # fixed rows and A_j^T y = 0 on each basic domain column j; times det
        y = np.full(m, det, dtype=object)
        y[free] = adj.T @ -rest.sum(axis=0)
        entering = np.flatnonzero(y[support].sum(axis=1) > 0)
        if entering.size == 0:
            return None, [Fraction(v, det) for v in y], path, pivots
        enter = int(entering[0])
        w = solve(a[:, enter])
        ratios = [(Fraction(x[v], w[v]), v) for v in w if w[v] > 0]
        if not ratios:
            raise InternalInvariantError("phase-1 objective is bounded below by 0 and cannot be unbounded")
        basis = basis - {min(ratios)[1]} | {enter}
        pivots += 1


def _domain_columns(setting_labels: tuple[str, ...], identify_equal_settings: bool) -> list[DomainKey]:
    n = len(setting_labels)
    keys = all_domain_keys(n)
    if identify_equal_settings:
        keys = [k for k in keys if k[:n] == k[n:]]
    return keys


def _cell_hits(columns: list[DomainKey], labels: tuple[str, ...], pairs, flip: int) -> list[tuple[int, ...]]:
    """For each domain column, the index in CELLS of the cell it lands in
    for each measured pair: (sigma_x, flip * tau_y) for pair (x, y)."""
    n = len(labels)
    where = [(labels.index(x), n + labels.index(y)) for x, y in pairs]
    return [tuple(CELLS.index((col[ix], flip * col[iy])) for ix, iy in where) for col in columns]


def joint_feasibility(
    tables: PairwiseTables | TallyTable,
    identify_equal_settings: bool = False,
    convention: str = "equal",
) -> FeasibilityResult:
    """Decide exactly whether a domain distribution reproduces the tables.

    Feasible outcomes carry a witness distribution (verified here by exact
    re-marginalization); infeasible ones carry a separating functional
    keyed by constraint row, verified against every domain column before
    being returned.  The exact simplex starts from the float phase's basis
    and pivots on until it can decide.  Verification failure of its answer
    raises InternalInvariantError, since it would mean the solver lied.
    """
    if isinstance(tables, TallyTable):
        tables = PairwiseTables.from_tally(tables)
    flip = l_sign(convention)
    labels = tables.setting_labels
    pairs = tables.measured_pairs()
    columns = _domain_columns(labels, identify_equal_settings)
    hits = _cell_hits(columns, labels, pairs, flip)

    # row 4p + c holds cell CELLS[c] of pair p; the last row is normalization
    row_labels = [_row_label(key, cell) for key in pairs for cell in CELLS] + ["normalization"]
    rhs = [tables.tables[key][cell] for key in pairs for cell in CELLS] + [Fraction(1)]
    # support[j] lists the rows where domain column j holds a 1
    support = np.hstack([4 * np.arange(len(pairs)) + np.array(hits), np.full((len(columns), 1), len(rhs) - 1)])
    a = np.zeros((len(rhs), len(columns)), dtype=np.int64)
    a[support, np.arange(len(columns))[:, None]] = 1

    basis, float_pivots = _float_basis(a.astype(np.float64), np.array([float(v) for v in rhs]))
    x, y, path, exact_pivots = _exact_simplex(a, support, rhs, basis)

    witness = certificate = None
    if x is not None:
        witness = WignerDomainDistribution.from_partial(
            {col: w for col, w in zip(columns, x) if w != 0}, settings=labels
        )
        if marginalize(witness, pairs, identify_equal_settings, convention).tables != tables.tables:
            raise InternalInvariantError("witness distribution does not reproduce the tables")
    else:
        # the checks on y and b scaled to integers by positive factors
        (_, y_int), (_, b_int) = _over_common_denominator(y), _over_common_denominator(rhs)
        if y_int @ b_int <= 0:
            raise InternalInvariantError("separating functional does not separate the right-hand side")
        failing = np.flatnonzero(y_int[support].sum(axis=1) > 0)
        if failing.size:
            raise InternalInvariantError(f"separating functional fails on domain column {columns[failing[0]]!r}")
        certificate = dict(zip(row_labels, y))
    return FeasibilityResult(
        witness is not None, identify_equal_settings, convention, labels, witness, certificate,
        tuple(row_labels), len(rhs), len(columns), float_pivots, exact_pivots, path,
    )


def wigner_residual(
    tables: PairwiseTables | TallyTable,
    ordering: Sequence[str] = ("a", "b", "c"),
    convention: str = "equal",
) -> Fraction:
    """Exact q(x1,x2) - q(x1,x3) - q(x3,x2) for ordering (x1, x2, x3).

    Positive residual certifies that no identified domain distribution
    reproduces the tables; nonpositive residual is necessary (and, for
    three settings, the single-probability form of the criterion) for one
    to exist.
    """
    if isinstance(tables, TallyTable):
        tables = PairwiseTables.from_tally(tables)
    ordering = tuple(ordering)
    if len(ordering) != 3 or len(set(ordering)) != 3 or any(o not in SETTING_LABELS for o in ordering):
        raise ValueError(f"ordering must be three distinct setting labels, got {ordering!r}")
    x1, x2, x3 = ordering
    # each table sums to exactly 1, so every q is an exact Fraction
    return (
        _q(tables.tables, x1, x2, convention)[0]
        - _q(tables.tables, x1, x3, convention)[0]
        - _q(tables.tables, x3, x2, convention)[0]
    )
