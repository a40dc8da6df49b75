import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import pair, pair_columns, stream, uniform_identified
from eprblab.counting import augment_triple
from eprblab.errors import EmptyCellError
from eprblab.model import CELLS, DetectionEvent, Setting, TallyTable, l_sign
from eprblab.pairing import PairingConfig, match_pairs_indexed
from eprblab.sources import SourceConfig, generate
from eprblab.stats import (
    SweepRow,
    bell_wigner,
    chsh,
    correlation,
    equal_fraction,
    repair_across_trials,
    sweep_window,
    tally,
)


def table(**pairs_cells):
    """table(ab={'pp': 3, ...}, cb=...) -> TallyTable"""
    name = {"pp": (1, 1), "pm": (1, -1), "mp": (-1, 1), "mm": (-1, -1)}
    return TallyTable(
        {(k[0], k[1]): {name[c]: v for c, v in cells.items()} for k, cells in pairs_cells.items()}
    )


def test_tally_counts_cells():
    pairs = [
        pair(0, 0, "a", "b", 1, 1),
        pair(10, 10, "a", "b", 1, -1),
        pair(20, 20, "a", "b", 1, 1),
        pair(30, 30, "c", "b", -1, -1),
    ]
    t = tally(*pair_columns(pairs), unmatched_left=2, unmatched_right=0)
    assert t.count("a", "b", 1, 1) == 2
    assert t.count("a", "b", 1, -1) == 1
    assert t.total("c", "b") == 1
    assert t.unmatched_left == 2


def _assert_slot_is_no_event(fake):
    """The never-measured slot of an augmented triple has no time and no
    outcome, so it cannot become a DetectionEvent, the only way into a
    stream and so into a tally."""
    for island in ("T", "L"):
        with pytest.raises(ValueError):
            DetectionEvent(island, fake.extra_time_ns, fake.extra_setting, fake.extra_outcome)


def test_tally_refuses_counterfactual_records():
    p = pair(0, 0, "a", "b", 1, 1)
    _assert_slot_is_no_event(augment_triple(p, "c"))


def test_tally_agrees_with_event_counter(rng):
    cfg = SourceConfig(
        kind="singlet",
        settings=(Setting("a", 0.0), Setting("b", 120.0), Setting("c", 60.0)),
        seed=17,
        emission_period_ns=1000,
        jitter_ns=100,
        total_pairs=3000,
    )
    left, right = generate(cfg)
    mi, mj, ul, ur = match_pairs_indexed(left, right, PairingConfig(150))
    fast = tally(left, right, mi, mj, ul, ur)
    slow = Counter()
    for i, j in zip(mi.tolist(), mj.tolist()):
        a, b = left.event(i), right.event(j)
        slow[(a.setting_label, b.setting_label), (a.outcome, b.outcome)] += 1
    assert {(key, cell): n for key, cells in fast.counts.items() for cell, n in cells.items() if n} == dict(slow)
    assert (fast.unmatched_left, fast.unmatched_right) == (len(left) - len(mi), len(right) - len(mj))


def test_correlation_and_equal_fraction():
    t = table(ab={"pp": 4})
    assert correlation(t, "a", "b") == 1.0
    assert equal_fraction(t, "a", "b") == 1.0
    t = table(ab={"pm": 2, "mp": 2})
    assert correlation(t, "a", "b") == -1.0
    assert equal_fraction(t, "a", "b") == 0.0
    t = table(ab={"pp": 1, "pm": 1, "mp": 1, "mm": 1})
    assert correlation(t, "a", "b") == 0.0
    with pytest.raises(EmptyCellError):
        correlation(t, "a", "c")


def test_correlation_uses_transposed_table_when_needed():
    t = table(ba={"pm": 3, "pp": 1})
    assert correlation(t, "a", "b") == correlation(t, "b", "a") == (1 - 3) / 4


@given(
    st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)).filter(
        lambda c: sum(c) > 0
    )
)
def test_equal_fraction_identity(cells):
    pp, pm, mp, mm = cells
    t = table(ab={"pp": pp, "pm": pm, "mp": mp, "mm": mm})
    assert equal_fraction(t, "a", "b") == pytest.approx((1 + correlation(t, "a", "b")) / 2)


# ---------------------------------------------------------------------------
# bell-wigner


def test_bell_wigner_exact_singlet_counts():
    t = table(
        ab={"pp": 3, "pm": 1, "mp": 1, "mm": 3},
        ac={"pp": 1, "pm": 3, "mp": 3, "mm": 1},
        cb={"pp": 1, "pm": 3, "mp": 3, "mm": 1},
    )
    rep = bell_wigner(t, ("a", "b", "c"), convention="anti")
    assert rep.lhs == pytest.approx(3 / 8)
    assert rep.rhs == pytest.approx(2 / 8)
    assert rep.violated
    assert rep.statistic == pytest.approx(1 / 8)
    # each of the three terms contributes q(1-q)/n to the variance
    q = [3 / 8, 1 / 8, 1 / 8]
    want = math.sqrt(sum(v * (1 - v) / 8 for v in q))
    assert rep.standard_error == pytest.approx(want)


def test_bell_wigner_reads_the_convention_cell():
    """The same hidden-level distribution reported under the two conventions
    must give the same q values once the right cell is read."""
    anti = table(
        ab={"pp": 3, "mm": 5},
        ac={"pp": 1, "mm": 7},
        cb={"pp": 2, "mm": 6},
    )
    equal = table(
        ab={"pm": 3, "mp": 5},
        ac={"pm": 1, "mp": 7},
        cb={"pm": 2, "mp": 6},
    )
    rep_a = bell_wigner(anti, ("a", "b", "c"), convention="anti")
    rep_e = bell_wigner(equal, ("a", "b", "c"), convention="equal")
    assert rep_a.lhs == rep_e.lhs == pytest.approx(3 / 8)
    assert rep_a.rhs == rep_e.rhs


def test_bell_wigner_transposed_orientation():
    # only (b,a) measured; under identification its mm cell is the (a,b) q-event
    t = table(
        ba={"mm": 3, "pp": 1, "pm": 2, "mp": 2},
        ac={"pp": 1, "pm": 3, "mp": 3, "mm": 1},
        cb={"pp": 1, "pm": 3, "mp": 3, "mm": 1},
    )
    rep = bell_wigner(t, ("a", "b", "c"), convention="anti")
    assert rep.lhs == pytest.approx(3 / 8)
    assert ("b", "a") in rep.pair_counts


def test_bell_wigner_identified_source_not_violated():
    cfg = SourceConfig(
        kind="wigner-domain",
        settings=(Setting("a", 0.0), Setting("b", 120.0), Setting("c", 60.0)),
        seed=23,
        emission_period_ns=100,
        jitter_ns=0,
        total_pairs=60_000,
        convention="equal",
        domain_weights=uniform_identified(),
    )
    left, right = generate(cfg)
    mi, mj, ul, ur = match_pairs_indexed(left, right, PairingConfig(0))
    rep = bell_wigner(tally(left, right, mi, mj, ul, ur), ("a", "b", "c"), "equal")
    assert rep.lhs <= rep.rhs + 4 * rep.standard_error


def test_bell_wigner_missing_pair_is_empty_cell():
    t = table(ab={"pp": 1, "pm": 1, "mp": 1, "mm": 1})
    with pytest.raises(EmptyCellError):
        bell_wigner(t, ("a", "b", "c"))


# ---------------------------------------------------------------------------
# chsh


def test_chsh_exact_counts():
    t = table(
        ab={"pm": 2, "mp": 2},
        ad={"pp": 2, "mm": 2},
        cb={"pm": 2, "mp": 2},
        cd={"pm": 2, "mp": 2},
    )
    rep = chsh(t, ("a", "b", "c", "d"))
    assert rep.s_value == pytest.approx(-4.0)
    assert rep.violated
    assert rep.standard_error == 0.0
    assert rep.statistic == rep.s_value


def test_chsh_no_correlation_is_not_violated():
    flat = {"pp": 5, "pm": 5, "mp": 5, "mm": 5}
    t = table(ab=dict(flat), ad=dict(flat), cb=dict(flat), cd=dict(flat))
    rep = chsh(t)
    assert rep.s_value == 0.0
    assert not rep.violated


def test_chsh_transposed_tables():
    t = table(
        ba={"pm": 2, "mp": 2},
        ad={"pp": 2, "mm": 2},
        bc={"pm": 2, "mp": 2},
        dc={"pm": 2, "mp": 2},
    )
    rep = chsh(t, ("a", "b", "c", "d"))
    assert rep.s_value == pytest.approx(-4.0)
    assert set(rep.pair_counts) == {("b", "a"), ("a", "d"), ("b", "c"), ("d", "c")}


# ---------------------------------------------------------------------------
# exact verdicts

# Exact ties whose float sums land one ulp past the bound: S = 3/7 + 1 + 1 - 3/7 = 2, and
# q(a,b) = 2/5 = 1/3 + 1/15 = q(a,c) + q(c,b) under anti
CHSH_TIE = table(ab={"pp": 5, "pm": 2}, ad={"pm": 7}, cb={"pp": 7}, cd={"pp": 2, "pm": 5})
BELL_WIGNER_TIE = table(ab={"pp": 2, "pm": 3}, ac={"pp": 1, "pm": 2}, cb={"pp": 1, "pm": 14})
CHSH_TERMS = ((("a", "b"), 1), (("a", "d"), -1), (("c", "b"), 1), (("c", "d"), 1))


def _cells(draw, n: int, counts: dict) -> dict:
    """counts, with the pairs of n not yet placed spread over the cells it leaves out."""
    rest = [c for c in ("pp", "pm", "mp", "mm") if c not in counts]
    left = n - sum(counts.values())
    for c in rest[:-1]:
        counts[c] = draw(st.integers(0, left))
        left -= counts[c]
    counts[rest[-1]] = left
    return counts


@st.composite
def chsh_tallies(draw):
    """Tables a;b, a;d, c;b and c;d of 1 to 8 pairs.  Half the draws are
    ties: every table holds n pairs and the c;d correlator makes S exactly
    +2 or -2."""
    tie = draw(st.booleans())
    sizes = [draw(st.integers(1, 8))] * 4 if tie else [draw(st.integers(1, 8)) for _ in range(4)]
    agree = [2 * draw(st.integers(0, n)) - n for n in sizes]  # pp + mm - pm - mp
    if tie:
        n = sizes[0]
        agree[3] = draw(st.sampled_from([2 * n, -2 * n])) - (agree[0] - agree[1] + agree[2])
        assume(-n <= agree[3] <= n)
    tables = {}
    for key, n, a in zip(("ab", "ad", "cb", "cd"), sizes, agree):
        same = draw(st.integers(0, (n + a) // 2))
        pm = draw(st.integers(0, (n - a) // 2))
        tables[key] = {"pp": same, "mm": (n + a) // 2 - same, "pm": pm, "mp": (n - a) // 2 - pm}
    return table(**tables)


@settings(max_examples=200, deadline=None)
@given(chsh_tallies())
@example(CHSH_TIE)
@example(table(ab={"pm": 7}, ad={"pp": 5, "pm": 2}, cb={"mp": 7}, cd={"pp": 5, "mp": 2}))  # S = -2, summed as -2.0000000000000004
def test_chsh_verdict_is_the_exact_comparison(t):
    exact = Fraction(0)
    for key, sign in CHSH_TERMS:
        c = t.counts[key]
        exact += sign * Fraction(c[(1, 1)] + c[(-1, -1)] - c[(1, -1)] - c[(-1, 1)], sum(c.values()))
    assert chsh(t).violated == (abs(exact) > 2)


@st.composite
def bell_wigner_tallies(draw):
    """(tally, convention) with tables a;b, a;c and c;b of 1 to 64 pairs.
    Half the draws are ties: a;b holds n(a;c) * n(c;b) pairs and
    q(a,b) = q(a,c) + q(c,b) exactly."""
    convention = draw(st.sampled_from(["anti", "equal"]))
    event = "pp" if convention == "anti" else "pm"  # the cell (+, -s) of q
    n_ac, n_cb = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    k_ac, k_cb = draw(st.integers(0, n_ac)), draw(st.integers(0, n_cb))
    if draw(st.booleans()):
        n_ab, k_ab = n_ac * n_cb, k_ac * n_cb + k_cb * n_ac
        assume(k_ab <= n_ab)
    else:
        n_ab = draw(st.integers(1, 8))
        k_ab = draw(st.integers(0, n_ab))
    tables = {key: _cells(draw, n, {event: k}) for key, n, k in (("ab", n_ab, k_ab), ("ac", n_ac, k_ac), ("cb", n_cb, k_cb))}
    return table(**tables), convention


@settings(max_examples=200, deadline=None)
@given(bell_wigner_tallies())
@example((BELL_WIGNER_TIE, "anti"))
def test_bell_wigner_verdict_is_the_exact_comparison(case):
    t, convention = case
    cell = (1, -l_sign(convention))
    q = {key: Fraction(c[cell], sum(c.values())) for key, c in t.counts.items()}
    want = q[("a", "b")] > q[("a", "c")] + q[("c", "b")]
    assert bell_wigner(t, ("a", "b", "c"), convention).violated == want


# ---------------------------------------------------------------------------
# sweeps


def _singlet_streams(jitter=0, n=400, seed=19):
    cfg = SourceConfig(
        kind="singlet",
        settings=(Setting("a", 0.0), Setting("b", 120.0), Setting("c", 60.0)),
        seed=seed,
        emission_period_ns=1000,
        jitter_ns=jitter,
        total_pairs=n,
    )
    return generate(cfg)


def test_sweep_zero_jitter_statistic_is_window_independent():
    left, right = _singlet_streams(jitter=0, n=2000)
    rows = sweep_window(left, right, [0, 10, 400], kind="bell-wigner")
    assert rows[0].pairs == rows[1].pairs == rows[2].pairs == 2000
    assert rows[0].statistic == rows[1].statistic == rows[2].statistic
    assert all(r.violated is not None for r in rows)


def test_sweep_reports_empty_cells_as_none():
    left, right = stream("T", [(5, "a", 1)]), stream("L", [(6, "b", 1)])
    rows = sweep_window(left, right, [0, 10], kind="bell-wigner")
    assert rows[0].pairs == 0
    assert rows[0].statistic is None and rows[0].stderr is None and rows[0].violated is None
    assert rows[1].pairs == 1
    assert rows[1].statistic is None  # still missing the other setting pairs


def test_sweep_validates_inputs():
    left, right = _singlet_streams(n=10)
    with pytest.raises(ValueError):
        sweep_window(left, right, [10, 5], kind="chsh")
    with pytest.raises(ValueError):
        sweep_window(left, right, [], kind="chsh")
    with pytest.raises(ValueError):
        sweep_window(left, right, [5], kind="steering")
    with pytest.raises(ValueError, match="got 2.9"):
        sweep_window(left, right, [1, 2.9, 3], kind="chsh")
    for windows in ([3, "5"], [3, None]):
        with pytest.raises(ValueError, match="window_ns must be an integer"):
            sweep_window(left, right, windows, kind="chsh")


def test_sweep_accepts_detection_event_sequences():
    """Like the matcher, a sweep takes DetectionEvent sequences as well as
    EventStreams, with the same rows."""
    left, right = _singlet_streams(n=200)
    want = sweep_window(left, right, [0, 20, 400], kind="bell-wigner")
    assert want[-1].pairs == 200
    assert sweep_window(list(left), list(right), [0, 20, 400], kind="bell-wigner") == want


def per_window_sweep(left, right, windows, kind, ordering, convention):
    """Reference sweep: a fresh matching and tally at every window."""
    rows = []
    for w in windows:
        mi, mj, ul, ur = match_pairs_indexed(left, right, PairingConfig(w))
        t = tally(left, right, mi, mj, ul, ur)
        try:
            rep = chsh(t, ordering) if kind == "chsh" else bell_wigner(t, ordering, convention)
            rows.append(SweepRow(w, len(mi), rep.statistic, rep.standard_error, rep.violated))
        except EmptyCellError:
            rows.append(SweepRow(w, len(mi), None, None, None))
    return rows


def event_rows(labels):
    """Strictly increasing (t, setting, outcome) rows over the given labels."""
    return st.lists(
        st.tuples(st.integers(1, 60), st.sampled_from(labels), st.sampled_from((1, -1))), min_size=8, max_size=40
    ).map(lambda rows: [(t, s, o) for t, (_, s, o) in zip(itertools.accumulate(r[0] for r in rows), rows)])


# CHSH reads T in {a, c} against L in {b, d}; Bell-Wigner needs a, b, c on both sides
SWEEP_MENUS = {"chsh": ("ac", "bd", ("a", "b", "c", "d")), "bell-wigner": ("abc", "abc", ("a", "b", "c"))}


@settings(deadline=None, max_examples=150)
@given(
    data=st.data(),
    inner=st.lists(st.integers(0, 200), max_size=5),
    kind=st.sampled_from(sorted(SWEEP_MENUS)),
    convention=st.sampled_from(("anti", "equal")),
)
def test_sweep_rows_equal_per_window_rematch(data, inner, kind, convention):
    """One matching at the largest window, cut to |dt| <= W, gives the same
    rows as matching afresh at every window, including window 0 and
    windows beyond the streams' span."""
    t_labels, l_labels, ordering = SWEEP_MENUS[kind]
    left = stream("T", data.draw(event_rows(t_labels), label="tl"))
    right = stream("L", data.draw(event_rows(l_labels), label="tr"))
    windows = sorted({0, *inner, 10**6, 2**63 - 1})
    got = sweep_window(left, right, windows, kind, ordering, convention)
    assert got == per_window_sweep(left, right, windows, kind, ordering, convention)


def test_sweep_rejects_negative_window():
    left, right = _singlet_streams(n=10)
    with pytest.raises(ValueError, match="nonnegative"):
        sweep_window(left, right, [-5, 10], kind="chsh")


@pytest.mark.parametrize(
    "window, message",
    [(2.9, "must be an integer, got 2.9"), (True, "must be an integer, got True"),
     ("5", "must be an integer, got '5'"), (-1, "must be nonnegative")],
)
def test_sweep_windows_are_checked_like_the_matchers(window, message):
    """A window the matcher would refuse is refused with the matcher's
    message, never truncated to an integer."""
    left, right = _singlet_streams(n=10)
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep_window(left, right, [window], kind="chsh")
    with pytest.raises(ValueError, match=re.escape(message)):
        PairingConfig(window)


def test_sweep_takes_any_integer_window():
    left, right = _singlet_streams(n=50)
    (row,) = sweep_window(left, right, [np.int64(5)], kind="chsh")
    assert row == sweep_window(left, right, [5], kind="chsh")[0]
    assert type(row.window_ns) is int


# ---------------------------------------------------------------------------
# cross-trial re-pairing


def test_repair_across_trials_halves_perfect_correlation(rng):
    n = 40_000
    outcomes = rng.choice([-1, 1], n)
    pairs = [pair(10 * i, 10 * i, "a", "a", int(o), int(o), window=0) for i, o in enumerate(outcomes)]
    t = tally(*pair_columns(pairs))
    assert equal_fraction(t, "a", "a") == 1.0
    scrambled = repair_across_trials(*pair_columns(pairs), seed=99)
    ef = equal_fraction(scrambled, "a", "a")
    assert abs(ef - 0.5) <= 4 * math.sqrt(0.25 / n)


def test_repair_is_deterministic_and_preserves_marginals():
    pairs = [pair(10 * i, 10 * i, "a", "b", 1 if i % 3 else -1, -1 if i % 2 else 1) for i in range(60)]
    t1 = repair_across_trials(*pair_columns(pairs), seed=4)
    t2 = repair_across_trials(*pair_columns(pairs), seed=4)
    assert t1.counts == t2.counts
    orig = tally(*pair_columns(pairs))
    # scrambling permutes right outcomes within the class: totals and the
    # one-sided marginals cannot move
    key = ("a", "b")
    assert t1.total(*key) == orig.total(*key)
    left_plus = t1.count(*key, 1, 1) + t1.count(*key, 1, -1)
    assert left_plus == orig.count(*key, 1, 1) + orig.count(*key, 1, -1)
    right_plus = t1.count(*key, 1, 1) + t1.count(*key, -1, 1)
    assert right_plus == orig.count(*key, 1, 1) + orig.count(*key, -1, 1)


def _repair_by_records(pairs, seed):
    """Reference re-pairing, record by record: one permutation of the right
    outcomes per setting pair, drawn in sorted setting-pair order."""
    rng = np.random.default_rng(seed)
    groups: dict = {}
    for i, p in enumerate(pairs):
        groups.setdefault(p.setting_pair, []).append(i)
    counts = {}
    for key in sorted(groups):
        idx = groups[key]
        rights = [pairs[i].right.outcome for i in idx]
        perm = rng.permutation(len(idx))
        cells = dict.fromkeys(CELLS, 0)
        for pos, i in enumerate(idx):
            cells[(pairs[i].left.outcome, rights[perm[pos]])] += 1
        counts[key] = cells
    return counts


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd"), st.sampled_from([1, -1]), st.sampled_from([1, -1])),
        min_size=1,
        max_size=60,
    ),
    st.integers(0, 2**32),
)
def test_repair_matches_record_reference(rows, seed):
    pairs = [pair(10 * i, 10 * i, x, y, sl, sr) for i, (x, y, sl, sr) in enumerate(rows)]
    assert repair_across_trials(*pair_columns(pairs), seed=seed).counts == _repair_by_records(pairs, seed)


def test_repair_single_pair_is_unchanged():
    p = [pair(0, 0, "a", "b", 1, -1)]
    t = repair_across_trials(*pair_columns(p), seed=1)
    assert t.count("a", "b", 1, -1) == 1


def test_repair_rejects_bad_input():
    with pytest.raises(ValueError):
        repair_across_trials(*pair_columns([]), seed=1)
    _assert_slot_is_no_event(augment_triple(pair(0, 0, "a", "b", 1, 1), "c"))
