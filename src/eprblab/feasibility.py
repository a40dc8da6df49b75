"""Exact decision of whether pairwise outcome tables admit a joint
probability distribution over outcome domains.

The question posed by ``joint_feasibility`` is: given 2x2 probability tables
for a set of measured setting pairs, does there exist a probability weight
on the full domain space (one hidden outcome per setting per side) whose
marginals reproduce every table exactly?  Feasibility comes with a witness
distribution that is re-marginalized and compared exactly; infeasibility
comes with a separating functional y such that y . b > 0 while y . A_d <= 0
for every domain column d, verified before it is returned.

An exact presolve (``_presolved_simplex``) first drops the domains that
land in a zero cell, with the zero cells' rows, and one implied cell row
per table.  One exact phase-1 simplex then decides the smaller system, in
Python integers from the all-artificial basis: Dantzig's rule prices, and
Bland's rule takes over on a run of degenerate pivots, so it terminates
(``_exact_simplex``).  Its answer is mapped back to the full system, where
the checks above run on every row and every domain column.  Every answer
is exact; no tolerance ever decides one, and no array library is loaded.

Tally files and feasibility table files (counts, or exact probabilities)
are read here, by ``read_tally`` and ``read_tables``, so the exact commands
load no line format; ``ioformats.write_tally`` writes tally files.

A domain assigns sigma outcomes to the T island and tau outcomes to the L
island; T reports sigma and L reports ``model.l_sign(convention) * tau``.
Identification (``identify_equal_settings=True``) restricts the domain
space to tau = sigma.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import JSON_TOO_DEEP, EmptyCellError, FormatError, InternalInvariantError, SupportViolationError
from .model import (
    CELL_FROM_NAME,
    CELLS,
    CELL_NAMES,
    SETTING_LABELS,
    DomainKey,
    Record,
    TallyTable,
    WignerDomainDistribution,
    _as_fraction,
    _domain_keys,
    _q,
    domain_key_to_string,
    l_sign,
)


class PairwiseTables(Record):
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
    support = [(key, w) for key, w in dist.weights.items() if w]  # the weights are nonnegative
    if identify_equal_settings:
        bad = [k for k, _ in support if not dist.is_identified(k)]
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
        for key, w in support:
            cells[(key[ix], flip * key[n + iy])] += w
        out[(x, y)] = cells
    return PairwiseTables(out)


class FeasibilityResult(Record):
    """The answer with its witness or certificate, the full LP's size
    (``lp_rows`` x ``lp_cols``), the size of the presolved LP the simplex
    solved (``solved_rows`` x ``solved_cols``) and its pivot count
    (``exact_pivots``)."""

    feasible: bool
    identify_equal_settings: bool
    convention: str
    setting_labels: tuple[str, ...]
    witness: WignerDomainDistribution | None
    certificate: dict[str, Fraction] | None
    row_labels: tuple[str, ...]
    lp_rows: int
    lp_cols: int
    solved_rows: int
    solved_cols: int
    exact_pivots: int

    @property
    def status(self) -> str:
        return "feasible" if self.feasible else "infeasible"


def _row_label(key: tuple[str, str], cell: tuple[int, int]) -> str:
    return f"{key[0]};{key[1]}:{CELL_NAMES[cell]}"


def _over_common_denominator(values: list[Fraction]) -> tuple[int, list[int]]:
    """(d, d * values) for d the values' least common denominator: integers of the same signs and ratios."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


# Consecutive degenerate pivots after which Dantzig's rule gives way to Bland's
_DEGENERATE_RUN = 3


def _fraction_free_pivot(rows: list[list[int]], w: list[int], r: int, det: int) -> int:
    """Edmonds's (1967) fraction-free pivot, in place: for p = w[r] != 0,
    every row i != r becomes (p * row_i - w[i] * row_r) / det, and p, the
    next det, is returned.  When the rows are det * B^-1 (with any columns
    it maps) and w is det * B^-1 times the entering column, every entry
    after it is a minor of the integer system, so each division is exact."""
    p, pivot_row = w[r], rows[r]
    for i, f in enumerate(w):
        if i == r:
            continue
        if f:
            rows[i] = [(p * v - f * u) // det for v, u in zip(rows[i], pivot_row)]
        elif p != det:  # a row the entering column misses only rescales
            rows[i] = [p * v // det for v in rows[i]]
    return p


def _exact_simplex(
    support: list[tuple[int, ...]], rhs: list[Fraction]
) -> tuple[list[Fraction] | None, list[Fraction] | None, int]:
    """Exact phase-1 revised simplex for {A x = b, x >= 0} with b >= 0.

    ``joint_feasibility`` hands it the presolved system of
    ``_presolved_simplex``, in which every b_i > 0.  Domain column j of A
    holds a 1 on the rows in ``support[j]`` and 0 elsewhere; b is ``rhs``.
    Column n + i of [A | I] is the artificial of row i, and the simplex
    starts from the all-artificial basis, with nothing but Python integers.
    It keeps one table, with det = det B > 0: row i is det * B^-1 row i
    followed by the basic value det * (B^-1 b)_i (b scaled to integers),
    and the last row is the duals det * c_B B^-1 followed by det times the
    phase-1 objective.  Each pivot updates it by ``_fraction_free_pivot``.

    Pricing (the entering column has y . A_j > 0, y the phase-1 duals;
    artificials never re-enter) follows Dantzig's rule, the largest
    y . A_j with ties to the lowest index, until _DEGENERATE_RUN
    consecutive pivots leave the basic values unchanged.  Then Bland's rule
    (the lowest-numbered column that can enter) prices until the next pivot
    that changes them.  The leaving row is always, among the ratio test's
    ties, the one whose basic column has the lowest number.

    Termination: each pivot that changes the basic values strictly lowers
    the phase-1 objective, which is a function of the basis, so no earlier
    basis comes back after it, and there are finitely many such pivots.
    Between two of them (and after the last), at most _DEGENERATE_RUN
    pivots follow Dantzig's rule and the rest follow Bland's rule at one
    fixed point, where Bland (1977) shows no basis can repeat.  An
    artificial that leaves and never comes back lies on no cycle, so
    keeping artificials out does not touch that argument.

    Returns (x, None, pivots) once no artificial carries weight, or
    (None, y, pivots) once no column can enter, with y a separating
    functional: y . b > 0, and y . A_j <= 0 for every domain column j.
    """
    m, n = len(rhs), len(support)
    scale, xb = _over_common_denominator(rhs)
    basis = list(range(n, n + m))  # the column basic in each row
    table = [[int(i == k) for k in range(m)] + [xb[i]] for i in range(m)] + [[1] * m + [sum(xb)]]
    rows_b, y = table[:m], table[m]
    det, pivots, degenerate = 1, 0, 0
    while any(row[m] for row, j in zip(rows_b, basis) if j >= n):
        prices = [sum(map(y.__getitem__, rows)) for rows in support]  # y . A_j
        entering = [j for j in range(n) if prices[j] > 0]
        if not entering:
            return None, [Fraction(v, det) for v in y[:m]], pivots
        enter = max(entering, key=prices.__getitem__) if degenerate < _DEGENERATE_RUN else entering[0]
        w = [sum(map(row.__getitem__, support[enter])) for row in rows_b]
        ratios = [(Fraction(rows_b[i][m], w[i]), basis[i], i) for i in range(m) if w[i] > 0]
        if not ratios:
            raise InternalInvariantError("phase-1 objective is bounded below by 0 and cannot be unbounded")
        r = min(ratios)[2]
        degenerate = degenerate + 1 if rows_b[r][m] == 0 else 0
        det = _fraction_free_pivot(table, w + [prices[enter]], r, det)
        rows_b, y = table[:m], table[m]
        basis[r] = enter
        pivots += 1
    x = [Fraction(0)] * n
    for row, j in zip(rows_b, basis):
        if j < n:
            x[j] = Fraction(row[m], det * scale)
    return x, None, pivots


def _presolved_simplex(
    support: list[tuple[int, ...]], rhs: list[Fraction]
) -> tuple[list[Fraction] | None, list[Fraction] | None, int, int, int]:
    """``_exact_simplex`` on the domain LP after an exact presolve, with its
    answer mapped back to the full system: (x, y, rows solved, columns
    solved, pivots).

    Rows 4p to 4p + 3 hold the cells of table p and the last row is
    normalization, as ``joint_feasibility`` lays them out.  Two reductions
    (Andersen & Andersen, Math. Programming 71, 221 (1995)) drop rows and
    columns without changing the answer:

    - A row with b_i = 0 forces x_j = 0 on every column j that meets it, so
      those columns and rows go.
    - Every column meets one cell of each table, and each table sums to 1,
      so a table's cell rows add up to the normalization row.  Its first
      row with b_i > 0 (every table has one) is implied by the rest and
      goes.

    x gets 0 on every dropped column.  y gets 0 on each implied row, and
    -K on each zero row, for K = max(0, y . A_j over the dropped columns
    j): each of those meets a zero row, so y . A_j <= 0 holds for it too,
    and y . b does not change.  K is found in integers over y's common
    denominator.
    """
    m, n = len(rhs), len(support)
    zero = {i for i, b in enumerate(rhs) if b == 0}
    implied = {min(i for i in range(t, t + 4) if i not in zero) for t in range(0, m - 1, 4)}
    rows = [i for i in range(m) if i not in zero and i not in implied]
    cols = [j for j, hit in enumerate(support) if zero.isdisjoint(hit)]
    index = {i: k for k, i in enumerate(rows)}
    kept, y_kept, pivots = _exact_simplex(
        [tuple(index[i] for i in support[j] if i in index) for j in cols], [rhs[i] for i in rows]
    )
    x = y = None
    if kept is not None:
        x = [Fraction(0)] * n
        for j, w in zip(cols, kept):
            x[j] = w
    else:
        d, y_int = _over_common_denominator(y_kept)
        full = [0] * m
        for i, v in zip(rows, y_int):
            full[i] = v
        lift = max([0] + [sum(map(full.__getitem__, hit)) for hit in support if not zero.isdisjoint(hit)])
        for i in zero:
            full[i] = -lift
        y = [Fraction(v, d) for v in full]
    return x, y, len(rows), len(cols), pivots


def _domain_columns(setting_labels: tuple[str, ...], identify_equal_settings: bool) -> Sequence[DomainKey]:
    n = len(setting_labels)
    keys = _domain_keys(n)
    if identify_equal_settings:
        keys = [k for k in keys if k[:n] == k[n:]]
    return keys


def _domain_lp(
    tables: PairwiseTables, identify_equal_settings: bool, convention: str
) -> tuple[Sequence[DomainKey], list[tuple[int, ...]], list[Fraction]]:
    """The full LP {A x = b, x >= 0}: (domain columns, support, b).

    Row 4p + c holds cell CELLS[c] of measured pair p and the last row is
    normalization; ``support[j]`` lists the rows where domain column j
    holds a 1, that is, for each pair (x, y) the cell (sigma_x, flip *
    tau_y) it lands in, and normalization."""
    labels, pairs = tables.setting_labels, tables.measured_pairs()
    columns = _domain_columns(labels, identify_equal_settings)
    n, flip = len(labels), l_sign(convention)
    where = [(4 * p, labels.index(x), n + labels.index(y)) for p, (x, y) in enumerate(pairs)]
    rhs = [tables.tables[key][cell] for key in pairs for cell in CELLS] + [Fraction(1)]
    support = [
        tuple(row + CELLS.index((col[ix], flip * col[iy])) for row, ix, iy in where) + (len(rhs) - 1,)
        for col in columns
    ]
    return columns, support, rhs


def joint_feasibility(
    tables: PairwiseTables | TallyTable,
    identify_equal_settings: bool = False,
    convention: str = "equal",
) -> FeasibilityResult:
    """Decide exactly whether a domain distribution reproduces the tables.

    Feasible outcomes carry a witness distribution (verified here by exact
    re-marginalization); infeasible ones carry a separating functional
    keyed by constraint row, verified against every domain column before
    being returned.  Verification failure of its answer raises
    InternalInvariantError, since it would mean the solver lied.
    """
    if isinstance(tables, TallyTable):
        tables = PairwiseTables.from_tally(tables)
    labels, pairs = tables.setting_labels, tables.measured_pairs()
    columns, support, rhs = _domain_lp(tables, identify_equal_settings, convention)
    row_labels = [_row_label(key, cell) for key in pairs for cell in CELLS] + ["normalization"]
    x, y, solved_rows, solved_cols, exact_pivots = _presolved_simplex(support, rhs)

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
        if sum(map(operator.mul, y_int, b_int)) <= 0:
            raise InternalInvariantError("separating functional does not separate the right-hand side")
        failing = [j for j, rows in enumerate(support) if sum(y_int[i] for i in rows) > 0]
        if failing:
            raise InternalInvariantError(f"separating functional fails on domain column {columns[failing[0]]!r}")
        certificate = dict(zip(row_labels, y))
    return FeasibilityResult(
        witness is not None, identify_equal_settings, convention, labels, witness, certificate,
        tuple(row_labels), len(rhs), len(columns), solved_rows, solved_cols, exact_pivots,
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


# ---------------------------------------------------------------------------
# tally and table files


def _read_json(path: str):
    """Parse a whole-file JSON document.  Any ValueError from the parser,
    including an integer too long to convert, and nesting deeper than the
    recursion limit become a FormatError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc.msg}", line=exc.lineno, path=path)
        except ValueError as exc:
            raise FormatError(f"invalid JSON: {exc}", path=path)
        except RecursionError:
            raise FormatError(JSON_TOO_DEEP, path=path) from None


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
    """Read a tally file, as ``ioformats.write_tally`` writes it."""
    return TallyTable(_parse_tables(_read_json(path), path, _count))


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
