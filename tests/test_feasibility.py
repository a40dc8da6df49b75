import json
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import uniform_identified
from eprblab import feasibility
from eprblab.cli import main
from eprblab.errors import EmptyCellError, FormatError, InternalInvariantError, SupportViolationError
from eprblab.feasibility import (
    FeasibilityResult,
    PairwiseTables,
    joint_feasibility,
    marginalize,
    read_tables,
    read_tally,
    wigner_residual,
)
from eprblab.model import CELL_NAMES, CELLS, TallyTable, WignerDomainDistribution, all_domain_keys

F = Fraction

BELL_PAIRS = [("a", "b"), ("a", "c"), ("c", "b")]


def cells(pp, pm, mp, mm):
    return {(1, 1): F(pp), (1, -1): F(pm), (-1, 1): F(mp), (-1, -1): F(mm)}


def singlet_tables(convention):
    """Exact hidden-level tables for the 0/120/60 degree singlet menu.

    The equal fraction at separation theta is sin^2(theta/2) on the anti
    convention, so ab (120 deg) splits 3/8 per equal cell and ac, cb
    (60 deg) split 1/8.  The equal-convention version flips the L outcome,
    swapping equal and unequal cells.
    """
    if convention == "anti":
        return PairwiseTables(
            {
                ("a", "b"): cells("3/8", "1/8", "1/8", "3/8"),
                ("a", "c"): cells("1/8", "3/8", "3/8", "1/8"),
                ("c", "b"): cells("1/8", "3/8", "3/8", "1/8"),
            }
        )
    return PairwiseTables(
        {
            ("a", "b"): cells("1/8", "3/8", "3/8", "1/8"),
            ("a", "c"): cells("3/8", "1/8", "1/8", "3/8"),
            ("c", "b"): cells("3/8", "1/8", "1/8", "3/8"),
        }
    )


def chsh_tables(e_ab, e_ad, e_cb, e_cd):
    """Equal-convention tables with prescribed correlations on the four
    CHSH pairs."""

    def from_e(e):
        eq = (1 + F(e)) / 4
        ne = (1 - F(e)) / 4
        return cells(eq, ne, ne, eq)

    return PairwiseTables(
        {
            ("a", "b"): from_e(e_ab),
            ("a", "d"): from_e(e_ad),
            ("c", "b"): from_e(e_cb),
            ("c", "d"): from_e(e_cd),
        }
    )


def verify_certificate(tables: PairwiseTables, res: FeasibilityResult):
    """Re-check the separating functional against every domain column,
    independently of the solver's own verification."""
    labels = res.setting_labels
    n = len(labels)
    flip = -1 if res.convention == "anti" else 1
    keys = all_domain_keys(n)
    if res.identify_equal_settings:
        keys = [k for k in keys if k[:n] == k[n:]]
    y = [res.certificate[lab] for lab in res.row_labels]
    pairs = tables.measured_pairs()
    rhs = [tables.tables[k][c] for k in pairs for c in CELLS] + [F(1)]
    assert sum(yi * bi for yi, bi in zip(y, rhs)) > 0
    row_keys = [(p, c) for p in pairs for c in CELLS]
    for key in keys:
        total = y[-1]
        for yi, ((x, yy), cell) in zip(y, row_keys):
            ix, iy = labels.index(x), labels.index(yy)
            if (key[ix], flip * key[n + iy]) == cell:
                total += yi
        assert total <= 0, f"functional fails on {key}"


def assert_exact_answer(support, rhs, x, y, det):
    """In integers over det > 0: x >= 0 with A x = det * b, or y . b > 0
    with y . A_j <= 0 on every column."""
    assert det > 0
    if x is not None:
        assert y is None and all(v > 0 for v in x.values())
        assert [sum(v for j, v in x.items() if i in support[j]) for i in range(len(rhs))] == [det * b for b in rhs]
    else:
        assert sum(yi * bi for yi, bi in zip(y, rhs)) > 0
        assert all(sum(y[i] for i in rows) <= 0 for rows in support)


def verify_witness(tables: PairwiseTables, res: FeasibilityResult):
    back = marginalize(res.witness, tables.measured_pairs(), res.identify_equal_settings, res.convention)
    assert back.tables == tables.tables


# ---------------------------------------------------------------------------
# table construction


def test_pairwise_tables_validation():
    good = {("a", "b"): cells("1/4", "1/4", "1/4", "1/4")}
    assert PairwiseTables(good).tables[("a", "b")][(1, 1)] == F(1, 4)
    with pytest.raises(ValueError, match="empty"):
        PairwiseTables({})
    with pytest.raises(ValueError, match="setting labels"):
        PairwiseTables({("a", "z"): cells("1/4", "1/4", "1/4", "1/4")})
    with pytest.raises(ValueError, match="four cells"):
        PairwiseTables({("a", "b"): {(1, 1): F(1)}})
    with pytest.raises(ValueError, match="negative"):
        PairwiseTables({("a", "b"): cells("1/2", "3/4", "-1/4", 0)})
    with pytest.raises(ValueError, match="sums to"):
        PairwiseTables({("a", "b"): cells("1/4", "1/4", "1/4", "1/2")})
    with pytest.raises(ValueError, match="probability"):
        PairwiseTables({("a", "b"): {(1, 1): True, (1, -1): 0, (-1, 1): 0, (-1, -1): 0}})


def test_pairwise_tables_accepts_floats_exactly():
    t = PairwiseTables({("a", "b"): cells(0.25, 0.25, 0.25, 0.25)})
    assert t.tables[("a", "b")][(1, -1)] == F(1, 4)


@pytest.mark.parametrize("value", ["1e-99999999", "1E+4301", "2.5e-4_301", "1e" + "9" * 5000], ids=len)
def test_pairwise_tables_refuse_a_decimal_exponent_over_4300(value):
    """Fraction would build 10^|e|, which for the first value takes longer
    than any run; the exponent is refused before any integer is built."""
    table = {(1, 1): value, (1, -1): "1", (-1, 1): 0, (-1, -1): 0}
    with pytest.raises(ValueError, match="has a decimal exponent over 4300 in magnitude$"):
        PairwiseTables({("a", "b"): table})


def test_pairwise_tables_read_a_decimal_exponent_of_4300():
    t = PairwiseTables({("a", "b"): {(1, 1): "1e-4_300", (1, -1): "0." + "9" * 4300, (-1, 1): 0, (-1, -1): "0e-0004300"}})
    assert t.tables[("a", "b")][(1, 1)] == F(1, 10**4300)


@pytest.mark.parametrize(
    "pp, pm, message",
    [
        ("-1e-4300", "1", "cell pp is negative: -1/1" + "0" * 4300),
        ("1e-4300", "1", "sums to 1" + "0" * 4299 + "1/1" + "0" * 4300 + ", expected exactly 1"),
    ],
    ids=["negative", "sum"],
)
def test_pairwise_tables_name_a_4301_digit_value_in_full(pp, pm, message):
    """str() refuses an int of over 4300 digits; the message prints it anyway."""
    with pytest.raises(ValueError) as caught:
        PairwiseTables({("a", "b"): {(1, 1): pp, (1, -1): pm, (-1, 1): 0, (-1, -1): 0}})
    assert str(caught.value) == f"table 'a;b' {message}"


def test_setting_labels_cover_prefix():
    t = PairwiseTables({("a", "c"): cells(1, 0, 0, 0)})
    assert t.setting_labels == ("a", "b", "c")
    t = PairwiseTables({("a", "d"): cells(1, 0, 0, 0)})
    assert t.setting_labels == ("a", "b", "c", "d")


def test_from_tally():
    tal = TallyTable({("a", "b"): {(1, 1): 3, (1, -1): 1, (-1, 1): 1, (-1, -1): 3}})
    t = PairwiseTables.from_tally(tal)
    assert t.tables[("a", "b")][(1, 1)] == F(3, 8)
    with pytest.raises(EmptyCellError, match="no counts for measured pair a;c$"):
        PairwiseTables.from_tally(TallyTable({**tal.counts, ("a", "c"): {}}))


# ---------------------------------------------------------------------------
# marginalization


def test_marginalize_uniform_is_flat():
    dist = WignerDomainDistribution.uniform()
    for convention in ("equal", "anti"):
        t = marginalize(dist, BELL_PAIRS, False, convention)
        for key in BELL_PAIRS:
            assert all(v == F(1, 4) for v in t.tables[key].values())


def test_marginalize_against_accessor_oracle():
    """Cross-check the index arithmetic against the named accessors."""
    dist = WignerDomainDistribution.from_partial(
        {
            (1, -1, 1, -1, 1, -1): F(1, 2),
            (1, 1, 1, 1, 1, 1): F(1, 3),
            (-1, 1, -1, 1, -1, 1): F(1, 6),
        }
    )
    for convention, flip in (("equal", 1), ("anti", -1)):
        t = marginalize(dist, BELL_PAIRS, False, convention)
        for x, y in BELL_PAIRS:
            for cell in CELLS:
                want = sum(
                    w
                    for k, w in dist.weights.items()
                    if (dist.sigma(k, x), flip * dist.tau(k, y)) == cell
                )
                assert t.tables[(x, y)][cell] == want


def test_marginalize_point_mass():
    key = (1, -1, 1, -1, 1, -1)
    dist = WignerDomainDistribution.from_partial({key: 1})
    t = marginalize(dist, [("a", "b")], False, "equal")
    assert t.tables[("a", "b")][(1, 1)] == 1
    t = marginalize(dist, [("a", "b")], False, "anti")
    assert t.tables[("a", "b")][(1, -1)] == 1


def test_marginalize_guards():
    dist = WignerDomainDistribution.uniform()
    with pytest.raises(ValueError):
        marginalize(dist, BELL_PAIRS, False, "sideways")
    with pytest.raises(ValueError):
        marginalize(dist, [], False, "equal")
    with pytest.raises(ValueError):
        marginalize(dist, [("a", "d")], False, "equal")
    with pytest.raises(SupportViolationError):
        marginalize(dist, BELL_PAIRS, True, "equal")
    ok = uniform_identified()
    t = marginalize(ok, BELL_PAIRS, True, "equal")
    assert sum(t.tables[("a", "b")].values()) == 1


# ---------------------------------------------------------------------------
# joint feasibility, three settings


@pytest.mark.parametrize("convention", ["anti", "equal"])
def test_singlet_tables_are_identified_infeasible(convention):
    tables = singlet_tables(convention)
    res = joint_feasibility(tables, identify_equal_settings=True, convention=convention)
    assert not res.feasible
    assert res.status == "infeasible"
    assert res.witness is None
    assert set(res.certificate) == set(res.row_labels)
    assert "normalization" in res.certificate
    verify_certificate(tables, res)


@pytest.mark.parametrize("convention", ["anti", "equal"])
def test_singlet_tables_are_unidentified_feasible(convention):
    tables = singlet_tables(convention)
    res = joint_feasibility(tables, identify_equal_settings=False, convention=convention)
    assert res.feasible
    assert res.certificate is None
    verify_witness(tables, res)


def test_uniform_tables_are_feasible_both_ways():
    flat = PairwiseTables({k: cells("1/4", "1/4", "1/4", "1/4") for k in BELL_PAIRS})
    for identified in (False, True):
        res = joint_feasibility(flat, identify_equal_settings=identified, convention="equal")
        assert res.feasible
        verify_witness(flat, res)


def test_tree_shaped_menus_always_feasible_when_marginals_agree(rng):
    """The three measured pairs touch four station-setting nodes without a
    cycle, so any tables arising from one underlying joint on those four
    nodes must be feasible (the solver has to find some witness)."""
    for _ in range(6):
        w = [F(int(v)) for v in rng.integers(0, 9, 16)]
        total = sum(w)
        if total == 0:
            continue
        w = [v / total for v in w]
        joint = {}
        i = 0
        for sa in (1, -1):
            for sc in (1, -1):
                for tb in (1, -1):
                    for tc in (1, -1):
                        joint[(sa, sc, tb, tc)] = w[i]
                        i += 1

        def table_for(pick):
            out = {c: F(0) for c in CELLS}
            for k, v in joint.items():
                out[pick(k)] += v
            return out

        tables = PairwiseTables(
            {
                ("a", "b"): table_for(lambda k: (k[0], k[2])),
                ("a", "c"): table_for(lambda k: (k[0], k[3])),
                ("c", "b"): table_for(lambda k: (k[1], k[2])),
            }
        )
        res = joint_feasibility(tables, convention="equal")
        assert res.feasible
        verify_witness(tables, res)


def test_disagreeing_station_marginals_are_infeasible():
    # the a-station marginal is all + in the ab table and all - in the ac
    # table; no joint can do both
    tables = PairwiseTables(
        {
            ("a", "b"): cells("1/2", "1/2", 0, 0),
            ("a", "c"): cells(0, 0, "1/2", "1/2"),
            ("c", "b"): cells("1/4", "1/4", "1/4", "1/4"),
        }
    )
    res = joint_feasibility(tables, convention="equal")
    assert not res.feasible
    verify_certificate(tables, res)


def test_joint_feasibility_accepts_tally_input():
    tal = TallyTable({k: {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1} for k in BELL_PAIRS})
    res = joint_feasibility(tal, identify_equal_settings=True, convention="equal")
    assert res.feasible
    with pytest.raises(ValueError):
        joint_feasibility(tal, convention="upside-down")


def test_a_tally_that_lists_an_empty_table_is_refused(tmp_path):
    """Every table a tally lists is required, in the library as in the
    ``feasibility`` command: an all-zero a;c is an error, not a table the
    LP drops."""
    ones, zeros = {"pp": 1, "pm": 1, "mp": 1, "mm": 1}, {"pp": 0, "pm": 0, "mp": 0, "mm": 0}
    path = tmp_path / "tally.json"
    path.write_text(json.dumps({"a;b": ones, "a;c": zeros, "c;b": ones}))
    for identified in (False, True):
        with pytest.raises(EmptyCellError, match="^no counts for measured pair a;c$"):
            joint_feasibility(read_tally(str(path)), identified, convention="equal")
    with pytest.raises(EmptyCellError, match="a;c"):
        wigner_residual(read_tally(str(path)), convention="equal")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: no counts for measured pair a;c$"):
        read_tables(str(path))


# ---------------------------------------------------------------------------
# joint feasibility, four settings (the cyclic menu)


def test_chsh_cycle_infeasible_even_unidentified():
    tables = chsh_tables("-7/10", "7/10", "-7/10", "-7/10")  # S = -2.8
    res = joint_feasibility(tables, identify_equal_settings=False, convention="equal")
    assert not res.feasible
    assert res.setting_labels == ("a", "b", "c", "d")
    verify_certificate(tables, res)


def test_chsh_within_bound_feasible():
    tables = chsh_tables("-2/5", "2/5", "-2/5", "-2/5")  # S = -1.6
    for identified in (False, True):
        res = joint_feasibility(tables, identify_equal_settings=identified, convention="equal")
        assert res.feasible
        verify_witness(tables, res)


def verify_answer(tables: PairwiseTables, res: FeasibilityResult):
    if res.feasible:
        verify_witness(tables, res)
    else:
        verify_certificate(tables, res)


# ---------------------------------------------------------------------------
# the gates, each given an answer that misses it by the least amount: one
# integer unit of the simplex's answer, which is x or y times det


def _breaks_a_column(support, rhs, x, y):
    """Raise one cell row's weight so that the column nearest to failing
    sums to 1; y . b only grows."""
    sums = [sum(y[i] for i in rows) for rows in support]
    j = max(range(len(sums)), key=sums.__getitem__)
    y = list(y)
    y[support[j][0]] += 1 - sums[j]
    return x, y


def _does_not_separate(support, rhs, x, y):
    """Scale y by one row's b_r > 0, then lower that row's weight until
    y . b is exactly 0; no column sum grows."""
    r = next(i for i, b in enumerate(rhs) if b > 0)
    separation = sum(yi * bi for yi, bi in zip(y, rhs))
    y = [rhs[r] * v for v in y]
    y[r] -= separation
    return x, y


def _misses_a_cell(support, rhs, x, y):
    """Move one unit of the lowest weighted domain column onto the next one."""
    j = min(x)
    k = (j + 1) % len(support)
    x = dict(x)
    x[j] -= 1
    x[k] = x.get(k, 0) + 1
    return x, y


# each break, the menu it is made on, and the gate's message
GATE_BREAKS = {
    "column": (_breaks_a_column, True, "fails on domain column"),
    "separation": (_does_not_separate, True, "does not separate the right-hand side"),
    "witness": (_misses_a_cell, False, "does not reproduce the tables"),
}


@pytest.mark.parametrize("name", sorted(GATE_BREAKS))
def test_each_gate_refuses_an_answer_that_misses_it(tmp_path, capsys, name):
    """An answer from the exact simplex that misses a gate by one integer
    unit raises InternalInvariantError, and ``feasibility`` exits 4."""
    breaks, identified, message = GATE_BREAKS[name]
    solve = feasibility._exact_simplex

    def broken(support, rhs):
        x, y, det, pivots = solve(support, rhs)
        return (*breaks(support, rhs, x, y), det, pivots)

    tables = singlet_tables("anti")
    path = tmp_path / "tables.json"
    doc = {f"{x};{y}": {CELL_NAMES[c]: str(p) for c, p in table.items()} for (x, y), table in tables.tables.items()}
    path.write_text(json.dumps({"convention": "anti", "tables": doc}))
    argv = ["feasibility", "--tables", str(path)] + (["--identify-equal-settings"] if identified else [])
    with mock.patch.object(feasibility, "_exact_simplex", broken):
        with pytest.raises(InternalInvariantError, match=message):
            joint_feasibility(tables, identify_equal_settings=identified, convention="anti")
        assert main(argv) == 4
    assert message in capsys.readouterr().err


def _point_mass_tables(sigma, tau, pairs) -> PairwiseTables:
    """The deterministic tables of one domain: T reports sigma, L tau (equal
    convention); every table has three zero cells."""
    key = tuple(sigma) + tuple(tau)
    labels = "abcd"[: len(sigma)]
    return marginalize(WignerDomainDistribution.from_partial({key: 1}, settings=labels), pairs, False, "equal")


ALL_PAIRS = [(x, y) for x in "abcd" for y in "abcd"]


@pytest.mark.parametrize("identified", [False, True])
def test_degenerate_menus_terminate_from_the_artificial_basis(monkeypatch, identified):
    """Deterministic tables make most basic values zero, the case in which a
    simplex without an anti-cycling rule can loop.  Bland's rule after a run
    of degenerate pivots (or, with a run of 0, throughout) still ends, with
    an exact answer: the tables of one domain are feasible, and mixing two
    tables that disagree on a station's outcome is not.  The presolve drops
    almost every column of these menus (all of them for the clash), so the
    simplex runs on the full formulation here, and ``joint_feasibility``
    must give the same status with a checked answer."""
    sigma, tau = (1, -1, 1, 1), ((1, -1, 1, 1) if identified else (-1, 1, 1, -1))
    feasible = _point_mass_tables(sigma, tau, ALL_PAIRS)
    flipped = _point_mass_tables((-1, -1, 1, 1), tau, ALL_PAIRS)
    clash = PairwiseTables({**feasible.tables, ("a", "b"): flipped.tables[("a", "b")]})
    cases = [(run, tables, status) for run in (0, feasibility._DEGENERATE_RUN)
             for tables, status in ((feasible, "feasible"), (clash, "infeasible"))]
    for run, tables, status in cases:
        monkeypatch.setattr(feasibility, "_DEGENERATE_RUN", run)
        _, support, rhs = feasibility._domain_lp(tables, identified, "equal")
        x, y, det, pivots = feasibility._exact_simplex(support, rhs)
        assert pivots >= 1
        assert (x is not None) == (status == "feasible")
        assert_exact_answer(support, rhs, x, y, det)
        res = joint_feasibility(tables, identify_equal_settings=identified, convention="equal")
        assert res.status == status
        verify_answer(tables, res)


def test_a_certificate_is_lifted_onto_the_columns_through_zero_cells():
    """All of a;b's weight is on sigma_a = + and none of a;c's, so every
    domain column meets a zero cell and the presolved system keeps two rows
    and no column.  Its duals alone are positive on the columns through
    a;c:mm; the printed certificate puts -K on each zero cell's row, which
    separates, and keeps a key for every row."""
    tables = PairwiseTables({("a", "b"): cells(1, 0, 0, 0), ("a", "c"): cells(0, 0, "1/2", "1/2")})
    res = joint_feasibility(tables, convention="equal")
    assert (res.status, res.lp_rows, res.lp_cols, res.solved_rows, res.solved_cols, res.exact_pivots) == (
        "infeasible", 9, 64, 2, 0, 0)
    assert list(res.certificate) == list(res.row_labels)
    _, support, rhs = feasibility._domain_lp(tables, False, "equal")
    y = [res.certificate[label] for label in res.row_labels]
    unlifted = [v if b else 0 for v, b in zip(y, rhs)]
    assert max(sum(unlifted[i] for i in rows) for rows in support) > 0
    assert min(v for v, b in zip(y, rhs) if b == 0) < 0
    verify_certificate(tables, res)


@st.composite
def sparse_menus(draw):
    """Tables on up to six of the 16 pairs of a, b, c, d with most cells
    zero: the marginals of a distribution on one to three domains
    (identified or not), with one table replaced, half the time, by one
    with halves or a whole in its cells."""
    identified = draw(st.booleans())
    keys = [k for k in all_domain_keys(4) if not identified or k[:4] == k[4:]]
    domains = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(domains), max_size=len(domains)))
    dist = WignerDomainDistribution.from_partial(
        {k: F(w, sum(weights)) for k, w in zip(domains, weights)}, settings="abcd")
    pairs = draw(st.lists(st.sampled_from(ALL_PAIRS), min_size=1, max_size=6, unique=True))
    convention = draw(st.sampled_from(["equal", "anti"]))
    tables = marginalize(dist, pairs, identified, convention).tables
    if draw(st.booleans()):
        cuts = sorted(draw(st.integers(0, 2)) for _ in range(3))
        sparse = cells(*(F(hi - lo, 2) for lo, hi in zip([0, *cuts], [*cuts, 2])))
        tables = {**tables, draw(st.sampled_from(pairs)): sparse}
    return PairwiseTables(tables), convention


@settings(max_examples=80, deadline=None)
@given(menu=sparse_menus(), identified=st.booleans())
def test_presolve_keeps_the_status_of_the_full_lp(menu, identified):
    """With zero cells common, the presolved LP and the full formulation
    (the simplex run on it directly) always agree on the status, and the
    answer mapped back passes the checks on the full formulation."""
    tables, convention = menu
    res = joint_feasibility(tables, identify_equal_settings=identified, convention=convention)
    _, support, rhs = feasibility._domain_lp(tables, identified, convention)
    x = feasibility._exact_simplex(support, rhs)[0]
    assert res.status == ("feasible" if x is not None else "infeasible")
    assert (res.lp_rows, res.lp_cols) == (len(rhs), len(support))
    assert res.solved_rows < res.lp_rows and res.solved_cols <= res.lp_cols
    verify_answer(tables, res)


CH_PAIRS = [("a", "b"), ("a", "d"), ("c", "b"), ("c", "d")]


@st.composite
def ch_menu_tables(draw):
    """Tables on the {a,c} x {b,d} menu with a denominator of at most 6:
    either with station marginals that agree (four marginals, then each
    pair's P(++) between its Frechet bounds) or with free cells."""
    d = draw(st.integers(1, 6))
    out = {}
    if draw(st.booleans()):
        plus = {s: draw(st.integers(0, d)) for s in "abcd"}
        for x, y in CH_PAIRS:
            pp = draw(st.integers(max(0, plus[x] + plus[y] - d), min(plus[x], plus[y])))
            out[(x, y)] = cells(F(pp, d), F(plus[x] - pp, d), F(plus[y] - pp, d), F(d - plus[x] - plus[y] + pp, d))
    else:
        for key in CH_PAIRS:
            cuts = sorted(draw(st.integers(0, d)) for _ in range(3))
            out[key] = cells(*(F(hi - lo, d) for lo, hi in zip([0, *cuts], [*cuts, d])))
    return PairwiseTables(out)


def fine_feasible(tables: PairwiseTables) -> bool:
    """Fine (1982): the {a,c} x {b,d} tables have a joint distribution iff
    the station marginals agree and the eight CH inequalities
    -1 <= P(x y) + P(x y') + P(x' y) - P(x' y') - P(x) - P(y) <= 0
    hold, P being the probability that both (or the one) report +1."""
    t = tables.tables
    t_plus = {k: t[k][(1, 1)] + t[k][(1, -1)] for k in CH_PAIRS}
    l_plus = {k: t[k][(1, 1)] + t[k][(-1, 1)] for k in CH_PAIRS}
    if t_plus[("a", "b")] != t_plus[("a", "d")] or t_plus[("c", "b")] != t_plus[("c", "d")]:
        return False
    if l_plus[("a", "b")] != l_plus[("c", "b")] or l_plus[("a", "d")] != l_plus[("c", "d")]:
        return False
    p_t = {"a": t_plus[("a", "b")], "c": t_plus[("c", "b")]}
    p_l = {"b": l_plus[("a", "b")], "d": l_plus[("a", "d")]}
    other = {"a": "c", "c": "a", "b": "d", "d": "b"}
    for x2, y2 in CH_PAIRS:  # the pair that enters with a minus sign
        ch = sum(t[k][(1, 1)] * (-1 if k == (x2, y2) else 1) for k in CH_PAIRS)
        ch -= p_t[other[x2]] + p_l[other[y2]]
        if not -1 <= ch <= 0:
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(tables=ch_menu_tables(), identified=st.booleans())
def test_lp_status_matches_fines_theorem(tables, identified):
    """An oracle independent of the LP: on the CHSH menu, each setting is
    measured on one station only, so identification changes nothing, and
    the L sign of either convention is a relabelling of L's outcomes."""
    want = "feasible" if fine_feasible(tables) else "infeasible"
    for convention in ("equal", "anti"):
        res = joint_feasibility(tables, identify_equal_settings=identified, convention=convention)
        assert res.status == want
        verify_answer(tables, res)


@settings(max_examples=60, deadline=None)
@given(tables=ch_menu_tables(), identified=st.booleans())
def test_exact_simplex_alone_matches_fines_theorem(tables, identified):
    """The same oracle with a degenerate run of 0, so Bland's rule alone
    prices every pivot: the rule whose termination Bland (1977) proves."""
    want = "feasible" if fine_feasible(tables) else "infeasible"
    for convention in ("equal", "anti"):
        with mock.patch.object(feasibility, "_DEGENERATE_RUN", 0):
            res = joint_feasibility(tables, identify_equal_settings=identified, convention=convention)
        assert res.status == want
        verify_answer(tables, res)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda k: st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=k, max_size=k)))
def test_fraction_free_inverse(matrix):
    """Gauss-Jordan elimination of M by ``_fraction_free_pivot``, each
    column into the first free row it meets, ends with N M = d P for P the
    permutation it pivoted along and |d| = |det M|, so every division was
    exact; it runs out of rows exactly when M is singular."""
    k = len(matrix)
    det = round(np.linalg.det(np.array(matrix, dtype=float).reshape(k, k)))
    inv, d, row_of = [[int(i == j) for j in range(k)] for i in range(k)], 1, {}
    for s in range(k):
        w = [sum(v * matrix[t][s] for t, v in enumerate(row)) for row in inv]
        free = [i for i in range(k) if w[i] and i not in row_of.values()]
        if not free:
            assert det == 0
            return
        row_of[s] = free[0]
        d = feasibility._fraction_free_pivot(inv, w, free[0], d)
    assert abs(d) == abs(det) != 0
    product = [[sum(row[t] * matrix[t][s] for t in range(k)) for s in range(k)] for row in inv]
    assert product == [[d * (row_of[s] == i) for s in range(k)] for i in range(k)]


@pytest.mark.parametrize("support, rhs, want", [
    ([(0,), (0, 1)], [0, 0], ({}, None, 1, 0)),
    ([(0, 1)], [3, 3], ({0: 3}, None, 1, 1)),
    ([(0, 1), (1,)], [2, 3], ({0: 2, 1: 1}, None, 1, 2)),
    ([(0,)], [1, 1], (None, [0, 1], 1, 1)),
], ids=["zero-rhs", "one-column", "two-columns", "uncovered-row"])
def test_exact_simplex_small_systems(support, rhs, want):
    """(x, y, det, pivots), x and y in integers over det: b = 0 is solved
    by the all-artificial basis with no pivot; one column meeting both rows
    carries b in one pivot; a second column carries what the first leaves
    of its row; a row that no column meets is separated by its own dual
    once the column has entered."""
    assert feasibility._exact_simplex(support, rhs) == want


@st.composite
def zero_one_systems(draw):
    """{A x = b, x >= 0} with A a 0/1 matrix of nonempty columns and b >= 0
    in integers: unlike the domain LPs, its bases can have any determinant."""
    m = draw(st.integers(1, 6))
    rows = st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True).map(lambda r: tuple(sorted(r)))
    support = draw(st.lists(rows, min_size=1, max_size=10))
    rhs = draw(st.lists(st.integers(0, 20), min_size=m, max_size=m))
    return support, rhs


@settings(max_examples=100, deadline=None)
@given(zero_one_systems())
def test_exact_simplex_answers_any_zero_one_system(system):
    """Every answer is exact: x >= 0 with A x = b, or y . b > 0 with
    y . A_j <= 0 on every column, so each fraction-free division was exact."""
    support, rhs = system
    assert_exact_answer(support, rhs, *feasibility._exact_simplex(support, rhs)[:3])


# ---------------------------------------------------------------------------
# the domain keys, built once per setting count, and recorded answers

RECORDED_ANSWERS = json.loads((Path(__file__).parent / "golden" / "feasibility_answers.json").read_text())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_all_domain_keys_hands_out_a_new_list_in_the_bit_order(n):
    """Key i holds -1 at position p where bit p of i is set; a caller that
    changes the list it got changes no later call's keys."""
    want = [tuple(-1 if (i >> p) & 1 else 1 for p in range(2 * n)) for i in range(4**n)]
    keys = all_domain_keys(n)
    assert keys == want
    keys.reverse()
    keys[0] = (0,)
    keys.append((1,) * 2 * n)
    assert all_domain_keys(n) == want
    assert all_domain_keys(n) is not all_domain_keys(n)


def test_a_distribution_refuses_a_missing_or_an_extra_key():
    keys = all_domain_keys(3)
    full = {k: F(1, 64) for k in keys}
    missing = {k: w for k, w in full.items() if k != keys[5]}
    missing[keys[0]] += F(1, 64)  # still sums to 1
    extra = {**full, (1,) * 8: F(0)}
    swapped = {**missing, (1,) * 8: F(0)}  # 64 keys, one of them foreign
    for weights, got in ((missing, 63), (extra, 65), (swapped, 64)):
        with pytest.raises(ValueError, match=f"exactly the 64 domain keys, got {got}$"):
            WignerDomainDistribution(weights)
    with pytest.raises(ValueError, match="unknown domain key"):
        WignerDomainDistribution.from_partial({(1,) * 8: 1})
    with pytest.raises(ValueError, match="exactly the 256 domain keys, got 64$"):
        WignerDomainDistribution(full, ("a", "b", "c", "d"))
    # the weights are kept in ascending key order, whatever order they came in
    dist = WignerDomainDistribution(dict(reversed(full.items())))
    assert list(dist.weights) == sorted(keys)


@pytest.mark.parametrize("name", sorted(RECORDED_ANSWERS))
def test_feasibility_prints_the_recorded_answer(tmp_path, capsys, name):
    """The exact-menu tables of seeds 1 to 3 (4 settings, 16 pairs:
    feasible, singlet infeasible, identified) and the wrapped probability
    file of the CLI tests give, byte for byte, the stdout recorded before
    the domain keys were built once per setting count (seed 1) or before
    the LP was kept in integers (seeds 2 and 3): status, LP sizes, witness
    and certificate."""
    case = RECORDED_ANSWERS[name]
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(case["tables"]))
    flags = ["--identify-equal-settings"] if case["identify_equal_settings"] else []
    assert main(["feasibility", "--tables", str(path), *flags]) == 0
    assert capsys.readouterr().out == case["stdout"] + "\n"


# ---------------------------------------------------------------------------
# residual


def test_wigner_residual_exact_values():
    assert wigner_residual(singlet_tables("anti"), ("a", "b", "c"), convention="anti") == F(1, 8)
    assert wigner_residual(singlet_tables("equal"), ("a", "b", "c"), convention="equal") == F(1, 8)
    flat = marginalize(uniform_identified(), BELL_PAIRS, True, "equal")
    assert wigner_residual(flat, ("a", "b", "c"), convention="equal") == F(-1, 4)
    # a tally is normalized to its probability tables first
    counts = {(1, 1): 1, (1, -1): 3, (-1, 1): 3, (-1, -1): 1}
    tally = TallyTable({pair: counts for pair in (("a", "b"), ("a", "c"), ("c", "b"))})
    assert wigner_residual(tally, ("a", "b", "c"), convention="anti") == F(1, 8) - F(1, 8) - F(1, 8)


def test_wigner_residual_transposed_lookup():
    t = singlet_tables("anti")
    # q(b,a) falls back to the (a,b) table's transposed cell
    assert wigner_residual(t, ("b", "a", "c"), convention="anti") == F(3, 8) - F(1, 8) - F(1, 8)


def test_wigner_residual_guards():
    t = singlet_tables("anti")
    with pytest.raises(ValueError):
        wigner_residual(t, ("a", "b"), convention="anti")
    with pytest.raises(ValueError):
        wigner_residual(t, ("a", "a", "b"), convention="anti")
    with pytest.raises(ValueError):
        wigner_residual(t, ("a", "b", "z"), convention="anti")
    with pytest.raises(ValueError):
        wigner_residual(t, ("a", "b", "c"), convention="diagonal")
    with pytest.raises(EmptyCellError):
        wigner_residual(t, ("a", "b", "d"), convention="anti")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=8, max_size=8).filter(lambda w: sum(w) > 0))
def test_identified_distributions_never_show_positive_residual(weights):
    n = 3
    keys = [k for k in all_domain_keys(n) if k[:n] == k[n:]]
    total = sum(weights)
    dist = WignerDomainDistribution.from_partial(
        {k: F(w, total) for k, w in zip(keys, weights) if w}
    )
    for convention in ("equal", "anti"):
        tables = marginalize(dist, BELL_PAIRS, identify_equal_settings=True, convention=convention)
        for ordering in (
            ("a", "b", "c"),
            ("a", "c", "b"),
            ("b", "a", "c"),
            ("b", "c", "a"),
            ("c", "a", "b"),
            ("c", "b", "a"),
        ):
            assert wigner_residual(tables, ordering, convention=convention) <= 0
