"""Exact decision of whether pairwise outcome tables admit a joint
probability distribution over outcome domains.

The question posed by ``joint_feasibility`` is: given 2x2 probability tables
for a set of measured setting pairs, does there exist a probability weight
on the full domain space (one hidden outcome per setting per side) whose
marginals reproduce every table exactly?  Feasibility comes with a witness
distribution that is re-marginalized and compared exactly; infeasibility
comes with a separating functional y such that y . b > 0 while y . A_d <= 0
for every domain column d, verified before it is returned.

Floats only choose the basis.  A ``float64`` phase-1 simplex (Dantzig's
rule) picks a basis; the basic solution, and for an infeasible answer the
dual y, are then solved from that basis in rational arithmetic
(`fractions.Fraction`) and must pass the exact checks above.  If any step
fails, the exact Bland's-rule simplex decides from scratch.  Every answer
is exact and certified; no tolerance ever decides one.

A domain assigns sigma outcomes to the T island and tau outcomes to the L
island; T reports sigma and L reports ``model.l_sign(convention) * tau``.
Identification (``identify_equal_settings=True``) restricts the domain
space to tau = sigma.
"""

from __future__ import annotations

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
    """The answer with its witness or certificate, and the LP's path:
    its size, the float phase's pivot count, and ``path`` ("float-basis"
    when the float basis was certified, "exact-fallback" when the exact
    simplex decided)."""

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
    path: str

    @property
    def status(self) -> str:
        return "feasible" if self.feasible else "infeasible"


def _row_label(key: tuple[str, str], cell: tuple[int, int]) -> str:
    return f"{key[0]};{key[1]}:{CELL_NAMES[cell]}"


def _simplex_phase1(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Exact phase-1 simplex for {A x = b, x >= 0} with b >= 0.

    Returns (x, None) on feasibility or (None, y) with y a separating
    functional (y . b > 0, y . A_j <= 0 for every column j).  Bland's rule
    on both the entering and leaving choices guarantees termination.
    """
    m, n = len(rows), len(rows[0])
    zero, one = Fraction(0), Fraction(1)
    if any(b < 0 for b in rhs):
        raise InternalInvariantError("phase-1 requires a nonnegative right-hand side")
    tab = [list(rows[i]) + [one if k == i else zero for k in range(m)] + [rhs[i]] for i in range(m)]
    basis = list(range(n, n + m))
    width = n + m + 1
    rc = [zero] * width
    for j in range(width):
        col_sum = sum(tab[i][j] for i in range(m))
        cost = one if n <= j < n + m else zero
        rc[j] = cost - col_sum

    while True:
        enter = next((j for j in range(n + m) if rc[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width - 1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise InternalInvariantError("phase-1 objective is bounded below by 0 and cannot be unbounded")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                row = tab[leave]
                tab[i] = [vi - f * vr for vi, vr in zip(tab[i], row)]
        if rc[enter] != 0:
            f = rc[enter]
            row = tab[leave]
            rc = [vi - f * vr for vi, vr in zip(rc, row)]
        basis[leave] = enter

    residual = -rc[width - 1]
    if residual == 0:
        x = [zero] * n
        for i, bv in enumerate(basis):
            if bv < n:
                x[bv] = tab[i][width - 1]
        return x, None
    y = [one - rc[n + i] for i in range(m)]
    return None, y


# The float phase only proposes a basis; the exact solve and the gates decide,
# so a tolerance or cap that misjudges some table costs the exact fallback,
# never a wrong answer.  4-setting menus take 11 to about 100 pivots.
_FLOAT_TOL = 1e-9
_FLOAT_PIVOT_CAP = 1000


def _float_basis(a: np.ndarray, b: np.ndarray) -> tuple[list[int] | None, int]:
    """Phase-1 simplex for {A x = b, x >= 0} in float64, Dantzig's rule.

    Starts from the all-artificial basis (artificial i is column n + i) and
    stops once the artificial sum is zero or no reduced cost is negative.
    Returns (basis, pivots), where basis lists the m basic columns, or
    (None, pivots) when the pivot cap is hit or no row can leave.
    """
    m, n = a.shape
    tab = np.hstack([a, np.eye(m), b[:, None]])
    rc = np.concatenate([np.zeros(n), np.ones(m), [0.0]]) - tab.sum(axis=0)
    basis = list(range(n, n + m))
    pivots = 0
    while -rc[-1] > _FLOAT_TOL:
        enter = int(np.argmin(rc[:-1]))
        if rc[enter] >= -_FLOAT_TOL:
            break
        col = tab[:, enter]
        rows = np.flatnonzero(col > _FLOAT_TOL)
        if pivots == _FLOAT_PIVOT_CAP or rows.size == 0:
            return None, pivots
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


def _solve_exact(matrix: list[list[int]], rhs: Sequence[Fraction | int]) -> list[Fraction] | None:
    """Solve the square system exactly by Gauss-Jordan elimination in
    Fractions; None if it is singular."""
    aug = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(matrix, rhs)]
    k = len(aug)
    for c in range(k):
        p = next((i for i in range(c, k) if aug[i][c] != 0), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [v / piv for v in aug[c]]
        for i in range(k):
            f = aug[i][c]
            if i != c and f != 0:
                aug[i] = [vi - f * vc for vi, vc in zip(aug[i], aug[c])]
    return [row[-1] for row in aug]


def _basis_answer(
    a: np.ndarray, rhs: list[Fraction], basis: list[int]
) -> tuple[list[Fraction] | None, list[Fraction] | None] | None:
    """The basic solution of ``basis`` in exact arithmetic, in the form
    ``_simplex_phase1`` returns: (x, None) when no artificial carries weight,
    (None, y) with y solving B^T y = c_B otherwise.  None when B is singular
    or the basic solution is negative.

    An artificial column is a unit column, so each basic artificial fixes
    its own row: only the rows it leaves free and the basic domain columns
    form the square system that is solved (at most rank(A) in size).
    """
    m, n = a.shape
    cols = [j for j in basis if j < n]
    fixed = sorted(j - n for j in basis if j >= n)
    free = sorted(set(range(m)) - set(fixed))
    block = a[np.ix_(free, cols)]
    x_cols = _solve_exact(block.tolist(), [rhs[i] for i in free])
    if x_cols is None:
        return None
    rest = a[np.ix_(fixed, cols)]
    artificial = [rhs[i] - sum(e * v for e, v in zip(row, x_cols) if e) for i, row in zip(fixed, rest.tolist())]
    if any(v < 0 for v in x_cols + artificial):
        return None
    if not any(artificial):
        x = [Fraction(0)] * n
        for j, v in zip(cols, x_cols):
            x[j] = v
        return x, None
    # c_B is 1 on the artificials and 0 on domain columns, so y is 1 on the
    # fixed rows and A_j^T y = 0 on each basic domain column j
    y_free = _solve_exact(block.T.tolist(), (-rest.sum(axis=0)).tolist())
    if y_free is None:
        return None
    y = [Fraction(1)] * m
    for i, v in zip(free, y_free):
        y[i] = v
    return None, y


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
    being returned.  The answer is first read off the float phase's basis;
    if that basis is singular, negative or fails verification, the exact
    simplex decides from scratch.  Verification failure of its answer
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
    a = np.zeros((len(rhs), len(columns)), dtype=np.int64)
    a[4 * np.arange(len(pairs)) + np.array(hits), np.arange(len(columns))[:, None]] = 1
    a[-1] = 1

    basis, pivots = _float_basis(a.astype(np.float64), np.array([float(v) for v in rhs]))

    def check(x, y) -> tuple[WignerDomainDistribution | None, dict[str, Fraction] | None] | str:
        """The answer's witness or certificate once it checks out exactly;
        otherwise the reason it does not."""
        if x is not None:
            witness = WignerDomainDistribution.from_partial(
                {col: w for col, w in zip(columns, x) if w != 0}, settings=labels
            )
            if marginalize(witness, pairs, identify_equal_settings, convention).tables != tables.tables:
                return "witness distribution does not reproduce the tables"
            return witness, None
        if sum(yi * bi for yi, bi in zip(y, rhs)) <= 0:
            return "separating functional does not separate the right-hand side"
        for col, h in zip(columns, hits):
            # column col has a 1 in row 4p + h[p] of each pair p and in the normalization row
            if sum(y[4 * p + c] for p, c in enumerate(h)) + y[-1] > 0:
                return f"separating functional fails on domain column {col!r}"
        return None, dict(zip(row_labels, y))

    path = "float-basis"
    answer = _basis_answer(a, rhs, basis) if basis is not None else None
    checked = check(*answer) if answer is not None else "no float basis"
    if isinstance(checked, str):
        path = "exact-fallback"
        zero, one = Fraction(0), Fraction(1)
        checked = check(*_simplex_phase1([[one if v else zero for v in row] for row in a.tolist()], rhs))
        if isinstance(checked, str):
            raise InternalInvariantError(checked)
    witness, certificate = checked
    return FeasibilityResult(
        witness is not None, identify_equal_settings, convention, labels, witness, certificate,
        tuple(row_labels), len(rhs), len(columns), pivots, path,
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
