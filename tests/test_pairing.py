import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ev, stream
from eprblab import pairing
from eprblab.errors import InvalidStreamError
from eprblab.model import EventStream
from eprblab.pairing import PairingConfig, match_pairs_indexed
from eprblab.stats import sweep_window


def naive_greedy(tl, tr, window):
    """Reference implementation of the matching rule, written the slow way:
    list every candidate within the window, order by (|dt|, t, t'), then
    accept greedily one-to-one."""
    cands = []
    for i, t in enumerate(tl):
        for j, t2 in enumerate(tr):
            if abs(t - t2) <= window:
                cands.append((abs(t - t2), t, t2, i, j))
    cands.sort()
    used_l, used_r, out = set(), set(), []
    for _, _, _, i, j in cands:
        if i not in used_l and j not in used_r:
            used_l.add(i)
            used_r.add(j)
            out.append((i, j))
    return sorted(out)


def t_stream(times):
    return stream("T", [(t, "a", 1) for t in times])


def l_stream(times):
    return stream("L", [(t, "b", -1) for t in times])


def matched_times(left, right, window):
    """(t, t') of every matched pair in T-time order, plus the unmatched counts."""
    mi, mj, ul, ur = match_pairs_indexed(left, right, PairingConfig(window))
    return list(zip(left.t_ns[mi].tolist(), right.t_ns[mj].tolist())), ul, ur


def test_no_pairs_outside_window():
    pairs, ul, ur = matched_times(t_stream([0, 100]), l_stream([50]), 10)
    assert pairs == []
    assert (ul, ur) == (2, 1)


def test_two_pair_example_and_brute_force_uniqueness():
    """Left {10, 30}, right {12, 29}, window 20: nearest-first picks
    (10,12) then (30,29).  Brute force over all one-to-one matchings
    confirms this is a maximum matching and the unique greedy outcome."""
    left, right = t_stream([10, 30]), l_stream([12, 29])
    pairs, ul, ur = matched_times(left, right, 20)
    assert pairs == [(10, 12), (30, 29)]
    assert ul == ur == 0

    tl, tr = [10, 30], [12, 29]
    best = 0
    for size in (2, 1, 0):
        for li in itertools.permutations(range(2), size):
            for rj in itertools.permutations(range(2), size):
                if all(abs(tl[i] - tr[j]) <= 20 for i, j in zip(li, rj)):
                    best = max(best, size)
    assert best == 2 == len(pairs)
    assert naive_greedy(tl, tr, 20) == [(0, 0), (1, 1)]


def test_tie_breaks_prefer_earlier_left_then_earlier_right():
    # two lefts equidistant from one right: earlier left wins
    pairs, _, _ = matched_times(t_stream([10, 14]), l_stream([12]), 5)
    assert pairs == [(10, 12)]
    # one left equidistant from two rights: earlier right wins
    pairs, _, _ = matched_times(t_stream([10]), l_stream([8, 12]), 5)
    assert pairs == [(10, 8)]


def test_window_zero_requires_exact_equality():
    pairs, ul, ur = matched_times(t_stream([5, 9]), l_stream([5, 8]), 0)
    assert pairs == [(5, 5)]
    assert (ul, ur) == (1, 1)


def test_empty_streams():
    left, right = t_stream([1]), l_stream([1])
    mi, mj, ul, ur = match_pairs_indexed(left, right, PairingConfig(10))
    assert len(mi) == 1
    for a, b in [(t_stream([]), l_stream([5])), (t_stream([5]), l_stream([]))]:
        mi, mj, ul, ur = match_pairs_indexed(a, b, PairingConfig(10))
        assert len(mi) == len(mj) == 0
        assert ul == len(a) and ur == len(b)


def test_invalid_stream_rejected():
    with pytest.raises(InvalidStreamError):
        match_pairs_indexed([ev("T", 5, "a", 1), ev("T", 4, "a", 1)], l_stream([5]), PairingConfig(1))
    # the int64 difference of these two times would wrap to within the window
    with pytest.raises(InvalidStreamError, match="TimeOutOfRange"):
        match_pairs_indexed([ev("T", -(2**63) + 1, "a", 1)], [ev("L", 2**63 - 1, "a", 1)], PairingConfig(10))
    with pytest.raises(InvalidStreamError, match="TimeOutOfRange"):
        match_pairs_indexed([ev("T", 5, "a", 1)], [ev("L", 2**64, "a", 1)], PairingConfig(10))


def test_negative_window_rejected():
    with pytest.raises(ValueError):
        PairingConfig(-1)


@pytest.mark.parametrize("window", [True, 2.5, 3.0])
def test_non_integer_window_rejected(window):
    with pytest.raises(ValueError, match="window_ns must be an integer"):
        PairingConfig(window)


def test_numpy_integer_window_accepted():
    assert PairingConfig(np.int64(7)).window_ns == 7


times_lists = st.lists(st.integers(1, 60), min_size=0, max_size=25).map(
    lambda deltas: list(itertools.accumulate(deltas))
)


@settings(deadline=None, max_examples=200)
@given(tl=times_lists, tr=times_lists, window=st.integers(0, 120))
def test_matches_naive_reference(tl, tr, window):
    left, right = t_stream(tl) if tl else t_stream([]), l_stream(tr) if tr else l_stream([])
    if not tl:
        left = stream("T", [])
    if not tr:
        right = stream("L", [])
    mi, mj, ul, ur = match_pairs_indexed(left, right, PairingConfig(window))
    got = sorted(zip(mi.tolist(), mj.tolist()))
    assert got == naive_greedy(tl, tr, window)
    assert ul == len(tl) - len(got)
    assert ur == len(tr) - len(got)


@st.composite
def competing_streams(draw):
    """T and L times built from runs of three kinds: dense clusters, sparse
    stretches, and alternating T/L runs whose gaps grow (with ties), which
    stall the mutual-nearest rounds.  Any event may land on both islands at
    once, giving equal T/L times."""
    t, tl, tr = 0, [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["cluster", "sparse", "growing"]))
        for k in range(draw(st.integers(1, 12))):
            if kind == "growing":
                t += k + 1 + draw(st.integers(0, 1))
                side = draw(st.sampled_from([("T", "L")[k % 2], "both"]))
            else:
                t += draw(st.integers(1, 3) if kind == "cluster" else st.integers(1, 60))
                side = draw(st.sampled_from(["T", "L", "both"]))
            if side != "L":
                tl.append(t)
            if side != "T":
                tr.append(t)
    window = draw(st.one_of(st.integers(0, 150), st.just(2**63 - 1)))
    return tl, tr, window


def _pairs(mi, mj):
    return sorted(zip(mi.tolist(), mj.tolist()))


@settings(deadline=None, max_examples=300)
@given(case=competing_streams())
def test_both_phases_match_naive_reference(case):
    """The matcher gives the naive matching at its own hand-off share, with
    rounds only (share 0), with one round and then the walk (share 1), and
    with the merged-order walk alone."""
    tl, tr, window = case
    if not tl or not tr:
        return
    want = naive_greedy(tl, tr, window)
    a = np.asarray(tl, dtype=np.int64)
    b = np.asarray(tr, dtype=np.int64)
    for share in (pairing._MIN_ROUND_SHARE, 0, 1):
        with mock.patch.object(pairing, "_MIN_ROUND_SHARE", share):
            assert _pairs(*pairing._match_arrays(a, b, window)) == want
    assert _pairs(*pairing._walk(a, b, np.arange(len(a)), np.arange(len(b)), window)) == want


def test_growing_gaps_pair_kth_with_kth():
    """Alternating T/L times whose every gap is one larger than the last: the
    only mutually nearest pair is always the first, so the rounds stall and
    the walk does the work.  Greedy pairs the k-th T event with the k-th L
    event, whose gap is 2k + 1; a window W keeps the pairs with 2k + 1 <= W."""
    n = 10_000
    x = np.arange(2 * n, dtype=np.int64)
    x = x * (x + 1) // 2
    left = EventStream("T", ("a",), x[0::2], np.zeros(n, dtype=np.int16), np.ones(n, dtype=np.int8))
    right = EventStream("L", ("b",), x[1::2], np.zeros(n, dtype=np.int16), np.ones(n, dtype=np.int8))
    for window, count in ((2**63 - 1, n), (9_999, 5_000)):
        mi, mj, ul, ur = match_pairs_indexed(left, right, PairingConfig(window))
        assert np.array_equal(mi, np.arange(count)) and np.array_equal(mj, np.arange(count))
        assert ul == ur == n - count


@settings(deadline=None, max_examples=120)
@given(tl=times_lists, tr=times_lists, w1=st.integers(0, 60), w2=st.integers(0, 60))
def test_monotone_nesting_in_window(tl, tr, w1, w2):
    """Every pair matched at the smaller window is matched identically at
    the larger one, so counts are nondecreasing in W."""
    if not tl or not tr:
        return
    small, large = min(w1, w2), max(w1, w2)
    left, right = t_stream(tl), l_stream(tr)
    at_small = set(zip(*(x.tolist() for x in match_pairs_indexed(left, right, PairingConfig(small))[:2])))
    at_large = set(zip(*(x.tolist() for x in match_pairs_indexed(left, right, PairingConfig(large))[:2])))
    assert at_small <= at_large


@settings(deadline=None, max_examples=100)
@given(tl=times_lists, tr=times_lists, window=st.integers(0, 100))
def test_matching_is_one_to_one_and_sound(tl, tr, window):
    if not tl or not tr:
        return
    left, right = t_stream(tl), l_stream(tr)
    pairs, ul, ur = matched_times(left, right, window)
    lefts = [t for t, _ in pairs]
    rights = [t2 for _, t2 in pairs]
    assert len(set(lefts)) == len(lefts)
    assert len(set(rights)) == len(rights)
    for t, t2 in pairs:
        assert abs(t - t2) <= window
    assert ul + len(pairs) == len(tl)
    assert ur + len(pairs) == len(tr)
    # output is sorted by T time
    assert lefts == sorted(lefts)


def test_determinism_on_repeated_calls(rng):
    tl = np.unique(rng.integers(0, 10_000, 800))
    tr = np.unique(rng.integers(0, 10_000, 800))
    left = stream("T", [(int(t), "a", 1) for t in tl])
    right = stream("L", [(int(t), "b", 1) for t in tr])
    first = match_pairs_indexed(left, right, PairingConfig(37))
    second = match_pairs_indexed(left, right, PairingConfig(37))
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_pair_count_curve():
    """A sweep's rows carry the pair count at each window."""
    left, right = t_stream([0, 100, 200]), l_stream([3, 101, 290])
    rows = sweep_window(left, right, [0, 5, 50, 100], kind="chsh")
    curve = [(row.window_ns, row.pairs) for row in rows]
    assert curve == [(0, 0), (5, 2), (50, 2), (100, 3)]
    counts = [c for _, c in curve]
    assert counts == sorted(counts)
    with pytest.raises(ValueError):
        sweep_window(left, right, [10, 5], kind="chsh")
    with pytest.raises(ValueError):
        sweep_window(left, right, [], kind="chsh")


@pytest.mark.parametrize("window", [2**63 - 1, 10**30])
def test_window_wider_than_int64_matches_everything_nearest_first(window):
    """Windows beyond the streams' span match as the span itself does; t + W
    must not wrap around int64."""
    left, right = t_stream([0, 100, 200]), l_stream([3, 101, 290])
    assert matched_times(left, right, window) == matched_times(left, right, 290)
    assert matched_times(left, right, window)[0] == [(0, 3), (100, 101), (200, 290)]


def test_times_near_int64_limit():
    top = 2**63 - 1
    tl, tr = [0, top - 5], [top - 7, top]
    for window in (0, 7, top, 10**30):
        mi, mj, _, _ = match_pairs_indexed(t_stream(tl), l_stream(tr), PairingConfig(window))
        assert sorted(zip(mi.tolist(), mj.tolist())) == naive_greedy(tl, tr, window)
