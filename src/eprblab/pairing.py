"""Coincidence matching: turns the two islands' streams into pairs using a
time window W.

The rule is nearest-first greedy: scan candidate pairs (every T/L event
combination with |t - t'| <= W) in order of increasing |t - t'|, breaking
ties by the smaller T time and then the smaller L time, and accept a
candidate when both of its events are still unused.  That is what hardware
coincidence counters effectively do, it is deterministic, and it needs no
global optimization.  Greedy matching can be non-maximal; unmatched events
are therefore counted and reported, never dropped.

"Within the window" means |t - t'| <= W with integer nanoseconds (a strict
reading of "smaller than W" is the same rule with W-1).

Prefix property: the candidates at a window W are exactly those of any
larger window W' with |dt| <= W, and they come first in its scan order.
Greedy at W' therefore processes the scan at W as a prefix, so the
matching at W is the matching at W' cut to |dt| <= W.  A window sweep
(``stats.sweep_window``) relies on this to match once, at its largest
window.

One matcher computes the greedy matching without listing candidates, in
two phases, each exact:

* Vectorized rounds.  Each live event finds its nearest live partner under
  the scan order, with one ``searchsorted`` per island.  A mutually nearest
  pair is a locally dominant edge: it precedes every other candidate at
  its two events, so greedy accepts it whatever else happens (Preis, STACS
  1999).  Accepted events leave, and so do events whose nearest partner
  lies outside the window: removals only take candidates away.
* Merged-order walk.  Rounds on adversarial input (gaps that grow along
  the streams) accept one pair each, so once a round accepts too small a
  share of the events, the residue is finished by a heap walk over the
  live events in one merged time order.  Between the two events of the
  smallest remaining candidate no other live event can lie (it would form
  a smaller candidate), so a min-heap of adjacent opposite-island pairs
  always holds it; accepting it unlinks two events and creates one new
  adjacency.

Time is O(n log n) and memory O(n) in the number of events n, whatever the
window: no phase ever holds more than a few arrays of length n.
"""

from __future__ import annotations

import heapq

from ._lazy import np
from .model import EventStream, Record, check_window, require_valid_stream

# A round that accepts fewer than this share of the live events that still
# have a candidate hands the rest to the merged-order walk.  Every other
# round shrinks the live set by at least this share, so all rounds together
# cost at most 1 / share times the first one.
_MIN_ROUND_SHARE = 0.1


class PairingConfig(Record):
    window_ns: int

    def __post_init__(self) -> None:
        check_window(self.window_ns)


def _nearest(x: np.ndarray, y: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """For each time in x, the index of its nearest time in the nonempty y
    under (|dt|, y), and whether that one lies within the window.  Times are
    nonnegative, so no difference wraps int64."""
    hi = np.searchsorted(y, x)
    below = np.maximum(hi - 1, 0)
    above = np.minimum(hi, len(y) - 1)
    d_below = x - y[below]
    d_above = y[above] - x
    take_below = (hi > 0) & ((hi == len(y)) | (d_below <= d_above))
    return np.where(take_below, below, above), np.where(take_below, d_below, d_above) <= window


def _walk(tl: np.ndarray, tr: np.ndarray, ti: np.ndarray, ri: np.ndarray, window: int):
    """Greedy matching of the live T events ti and L events ri by a heap
    walk over their merged time order (T before L at equal times)."""
    times = np.concatenate([tl[ti], tr[ri]])
    is_l = np.concatenate([np.zeros(len(ti), dtype=bool), np.ones(len(ri), dtype=bool)])
    order = np.lexsort((is_l, times))
    times, is_l, orig = times[order], is_l[order], np.concatenate([ti, ri])[order]
    edges = np.flatnonzero((is_l[1:] != is_l[:-1]) & (times[1:] - times[:-1] <= window))
    times, is_l, orig = times.tolist(), is_l.tolist(), orig.tolist()

    def entry(x: int, y: int) -> tuple[int, int, int, int, int]:
        # the candidate of adjacent events x < y, keyed by (|dt|, t, t')
        t, t2 = (times[y], times[x]) if is_l[x] else (times[x], times[y])
        return times[y] - times[x], t, t2, x, y

    heap = [entry(k, k + 1) for k in edges.tolist()]
    heapq.heapify(heap)
    n = len(times)
    prev = list(range(-1, n - 1))
    nxt = list(range(1, n + 1))
    alive = bytearray(b"\x01") * n
    out_i: list[int] = []
    out_j: list[int] = []
    while heap:
        _d, _t, _t2, x, y = heapq.heappop(heap)
        if not (alive[x] and alive[y]):
            continue
        alive[x] = alive[y] = 0
        out_i.append(orig[y] if is_l[x] else orig[x])
        out_j.append(orig[x] if is_l[x] else orig[y])
        u, v = prev[x], nxt[y]
        if u >= 0:
            nxt[u] = v
        if v < n:
            prev[v] = u
            if u >= 0 and is_l[u] != is_l[v] and times[v] - times[u] <= window:
                heapq.heappush(heap, entry(u, v))
    return np.array(out_i, dtype=np.int64), np.array(out_j, dtype=np.int64)


def _match_arrays(tl: np.ndarray, tr: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    if len(tl) == 0 or len(tr) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # no |dt| exceeds the span of the two streams, so a wider window matches
    # the same pairs; the clamp keeps every window in int64 arithmetic
    window = min(window, int(max(tl[-1], tr[-1])) - int(min(tl[0], tr[0])))
    ti = np.arange(len(tl), dtype=np.int64)
    ri = np.arange(len(tr), dtype=np.int64)
    found_i: list[np.ndarray] = []
    found_j: list[np.ndarray] = []
    while len(ti) and len(ri):
        a, b = tl[ti], tr[ri]
        to_l, ok_t = _nearest(a, b, window)
        to_t, ok_l = _nearest(b, a, window)
        mutual = ok_t & ok_l[to_l] & (to_t[to_l] == np.arange(len(ti)))
        found_i.append(ti[mutual])
        found_j.append(ri[to_l[mutual]])
        keep_l = ok_l.copy()
        keep_l[to_l[mutual]] = False
        ti, ri = ti[ok_t & ~mutual], ri[keep_l]
        if 2 * int(mutual.sum()) < _MIN_ROUND_SHARE * (int(ok_t.sum()) + int(ok_l.sum())):
            wi, wj = _walk(tl, tr, ti, ri, window)
            found_i.append(wi)
            found_j.append(wj)
            break
    mi, mj = np.concatenate(found_i), np.concatenate(found_j)
    order = np.argsort(mi, kind="stable")
    return mi[order], mj[order]


def match_pairs_indexed(
    left: EventStream, right: EventStream, config: PairingConfig
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Match the two streams under ``config.window_ns``.

    Returns (left_indices, right_indices, unmatched_left, unmatched_right):
    index arrays into the two streams, with the matches sorted by T event
    time.  Both sides must be EventStreams (TypeError otherwise).
    """
    left = require_valid_stream(left)
    right = require_valid_stream(right)
    mi, mj = _match_arrays(left.t_ns, right.t_ns, config.window_ns)
    return mi, mj, len(left) - len(mi), len(right) - len(mj)
