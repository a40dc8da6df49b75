import contextlib
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import pair, scan_class_grid
from eprblab import counting
from eprblab.cli import main
from eprblab.counting import (
    ConstraintModel,
    Pairing,
    TopologyViolationKind,
    _class_grid,
    augment_triple,
    count_domains,
    count_nonlocal_domains,
    count_triple_classes,
    enumerate_eu_classes,
    enumerate_pairings,
    per_trial_patterns,
    setting_grouped_entries,
    validate_time_topology,
)
from eprblab.errors import InternalInvariantError, MalformedTupleError, SettingCollisionError, TooLargeError
from eprblab.model import BellTriple, CorrelationClass


def test_enumerate_eu_classes_small():
    assert enumerate_eu_classes(1) == [CorrelationClass(1, 0), CorrelationClass(0, 1)]
    got = enumerate_eu_classes(3)
    assert got == [CorrelationClass(3 - u, u) for u in range(4)]
    assert len(enumerate_eu_classes(10)) == 11


def test_enumerate_eu_classes_guards():
    with pytest.raises(ValueError):
        enumerate_eu_classes(0)
    with pytest.raises(TooLargeError):
        enumerate_eu_classes(24)
    with pytest.raises(TooLargeError):
        enumerate_eu_classes(10**30)  # refused without computing 2^M
    assert len(enumerate_eu_classes(23)) == 24


def test_constraint_model_kind_is_checked():
    with pytest.raises(ValueError):
        ConstraintModel("telepathic")


def test_per_trial_patterns():
    assert per_trial_patterns("independent") == frozenset(itertools.product((False, True), repeat=3))
    assert per_trial_patterns("shared") == frozenset(itertools.product((False, True), repeat=3))
    # with t2 = s2 the three comparisons multiply out, so only even-parity
    # patterns survive
    assert per_trial_patterns("shared-identified") == frozenset(
        {(True, True, True), (True, False, False), (False, True, False), (False, False, True)}
    )
    assert per_trial_patterns(ConstraintModel("shared")) == per_trial_patterns("shared")


@pytest.mark.parametrize("kind", ["independent", "shared", "shared-identified"])
@pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 6])
def test_enumeration_strategies_agree(kind, M):
    patterns = per_trial_patterns(kind)
    assert np.array_equal(scan_class_grid(M, patterns), _class_grid(M, patterns))


@pytest.mark.parametrize("kind", ["independent", "shared", "shared-identified"])
def test_walk_meets_the_exact_counts(kind):
    # the counts proven in the counting module docstring
    for M in range(1, 41):
        want = math.comb(M + 3, 3) if kind == "shared-identified" else (M + 1) ** 3
        assert int(_class_grid(M, per_trial_patterns(kind)).sum()) == want


def test_miscounting_walk_is_an_internal_error(monkeypatch):
    real = counting._class_grid

    def off_by_one(M, patterns):
        grid = real(M, patterns).copy()
        grid[0, 0, 0] = not grid[0, 0, 0]
        return grid

    monkeypatch.setattr(counting, "_class_grid", off_by_one)
    for kind in ("independent", "shared", "shared-identified"):
        with pytest.raises(InternalInvariantError):
            count_triple_classes(3, kind)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
        code = main(["enumerate", "--M", "3", "--model", "shared"])
    assert code == 4
    assert out.getvalue() == ""
    assert err.getvalue().startswith("internal error:")
    assert "Traceback" not in err.getvalue()


def test_count_triple_classes_M1_matches_closed_forms():
    for kind, want in [("independent", 8), ("shared", 8), ("shared-identified", 4)]:
        rep = count_triple_classes(1, kind)
        assert rep.enumerated_count == want
        assert rep.closed_form == want
        assert rep.agrees


def test_count_triple_classes_M2_frozen():
    rep = count_triple_classes(2, "independent")
    assert (rep.enumerated_count, rep.closed_form, rep.agrees) == (27, 27, True)
    rep = count_triple_classes(2, "shared")
    assert (rep.enumerated_count, rep.closed_form, rep.agrees) == (27, 18, False)
    rep = count_triple_classes(2, "shared-identified")
    assert (rep.enumerated_count, rep.closed_form, rep.agrees) == (10, 9, False)


def test_count_triple_classes_multiset_only_range():
    # 8^30 pattern tuples are out of any scan's reach; the grid walk has 31^3 cells
    rep = count_triple_classes(30, "independent")
    assert rep.enumerated_count == 31**3
    assert rep.agrees


def test_count_triple_classes_guards():
    with pytest.raises(ValueError):
        count_triple_classes(0, "shared")
    for M in (215, 216, 10**30):
        with pytest.raises(TooLargeError, match=r"^M=\d+: the \(M\+1\)\^3 class grid exceeds the guard of 10000000$"):
            count_triple_classes(M, "shared-identified")
    # 214 is the largest M whose grid fits the guard
    assert (214 + 1) ** 3 <= counting.ENUMERATION_GUARD < (215 + 1) ** 3


@given(st.integers(1, 12))
def test_shared_identified_counts_are_even_parity_reachable(M):
    got = np.argwhere(_class_grid(M, per_trial_patterns("shared-identified")))
    for x, y, z in got.tolist():
        assert 0 <= x <= M and 0 <= y <= M and 0 <= z <= M
        # every even-parity pattern contributes an odd number of equalities
        # (3 or 1), so after M trials x+y+z always has the parity of M
        assert (x + y + z) % 2 == M % 2


def test_count_domains():
    assert count_domains(1) == 4
    assert count_domains(3) == 64
    with pytest.raises(ValueError):
        count_domains(0)


def test_count_nonlocal_domains():
    assert count_nonlocal_domains() == 262144
    assert count_nonlocal_domains(1) == 4
    with pytest.raises(ValueError):
        count_nonlocal_domains(0)


def test_enumerate_pairings_default_flags():
    got = enumerate_pairings()
    assert len(got) == 9
    flagged = {(p.left, p.right) for p in got if p.time_correlated}
    assert flagged == {("a", "c"), ("b", "a"), ("c", "b")}
    assert str(Pairing("a", "c", True)) == "[a;c]"
    assert str(Pairing("a", "b", False)) == "(a;b)"


def test_enumerate_pairings_other_sizes():
    got = enumerate_pairings(2)
    assert len(got) == 4
    assert not any(p.time_correlated for p in got)
    with pytest.raises(ValueError):
        enumerate_pairings(0)
    with pytest.raises(ValueError):
        enumerate_pairings(5)


# ---------------------------------------------------------------------------
# time topology


def triple(M=2):
    return BellTriple(
        ab=pair(100, 105, "a", "b", 1, -1),
        ac=pair(200, 204, "a", "c", -1, -1),
        bc=pair(300, 303, "b", "c", 1, 1),
        k=1,
        l=M + 1,
        m=2 * M + 1,
        M=M,
    )


def test_genuine_triple_has_clean_topology():
    assert validate_time_topology(triple().entries(), window_ns=10) == []


def test_setting_grouped_regrouping_is_flagged():
    entries = setting_grouped_entries(triple())
    assert len(entries) == 6
    violations = validate_time_topology(entries, window_ns=500)
    kinds = {v.kind for v in violations}
    assert TopologyViolationKind.REUSED_EVENT in kinds
    assert TopologyViolationKind.DUPLICATE_STATION_TIME in kinds
    reused = [v for v in violations if v.kind is TopologyViolationKind.REUSED_EVENT]
    # the ab left event serves claimed pairs 0 and 1; the ac right event
    # serves claimed pairs 1 and 2
    assert sorted(v.entries for v in reused) == [(0, 1), (1, 2)]
    assert "ReusedEvent" in str(reused[0])


def test_window_exceeded_is_reported_per_pair():
    entries = triple().entries()
    violations = validate_time_topology(entries, window_ns=4)
    assert [v.kind for v in violations] == [TopologyViolationKind.WINDOW_EXCEEDED]
    assert violations[0].entries == (0, 1)  # the ab pair spans 5 ns


def test_topology_rejects_malformed_input():
    good = triple().entries()
    with pytest.raises(MalformedTupleError):
        validate_time_topology(good[:5], window_ns=10)
    with pytest.raises(MalformedTupleError):
        validate_time_topology(good, window_ns=-1)
    bad = list(good)
    bad[0] = (2, "a", 100, "T")
    with pytest.raises(MalformedTupleError):
        validate_time_topology(bad, window_ns=10)
    bad = list(good)
    bad[0] = (1, "z", 100, "T")
    with pytest.raises(MalformedTupleError):
        validate_time_topology(bad, window_ns=10)
    bad = list(good)
    bad[0] = (1, "a", 100.5, "T")
    with pytest.raises(MalformedTupleError):
        validate_time_topology(bad, window_ns=10)
    #  all six on one island
    flat = [(1, "a", 10 * i, "T") for i in range(6)]
    with pytest.raises(MalformedTupleError):
        validate_time_topology(flat, window_ns=10)
    # right island split but a claimed pair that stays on one island
    twisted = [good[0], good[2], good[1], good[3], good[4], good[5]]
    with pytest.raises(MalformedTupleError):
        validate_time_topology(twisted, window_ns=10)


# ---------------------------------------------------------------------------
# counterfactual augmentation


def test_augment_triple():
    p = pair(0, 2, "a", "b", 1, -1)
    aug = augment_triple(p, "c")
    assert aug.extra_setting == "c"
    assert aug.extra_outcome is None and aug.extra_time_ns is None
    assert "?" in str(aug)


def test_augment_triple_rejects_measured_or_unknown_settings():
    p = pair(0, 2, "a", "b", 1, -1)
    with pytest.raises(SettingCollisionError):
        augment_triple(p, "a")
    with pytest.raises(ValueError):
        augment_triple(p, "q")
