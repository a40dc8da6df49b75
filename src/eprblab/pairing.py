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

``match_pairs_indexed`` has two implementations behind it.  A vectorized
one materializes all candidates and is several times faster while their
number is moderate; a lazy heap walk enumerates each T event's candidates
outward and is the only one whose memory stays bounded when the window is
wide.  Both produce bit-identical matchings; the property tests assert it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .model import require_valid_stream

# Largest number of candidate pairs the vectorized path may materialize
# before the matcher switches to the lazy heap walk.
MAX_MATERIALIZED_CANDIDATES = 10_000_000


@dataclass(frozen=True)
class PairingConfig:
    window_ns: int

    def __post_init__(self) -> None:
        if self.window_ns < 0:
            raise ValueError("window_ns must be nonnegative")


def _candidate_bounds(tl: np.ndarray, tr: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Per T event, the index range [lo, hi) of the L events within the
    window.  Times are nonnegative int64, so t - W cannot wrap for
    W < 2^63; the upper end is capped at the last L time, so t + W cannot."""
    lo = np.searchsorted(tr, tl - window, side="left")
    hi = np.searchsorted(tr, tl + np.minimum(window, tr[-1] - tl), side="right")
    return lo, hi


def _match_materialized(tl: np.ndarray, tr: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = _candidate_bounds(tl, tr, window)
    counts = (hi - lo).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    i = np.repeat(np.arange(len(tl), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    j = np.arange(total, dtype=np.int64) - np.repeat(starts, counts) + np.repeat(lo, counts)
    dt = np.abs(tl[i] - tr[j])
    order = np.lexsort((tr[j], tl[i], dt))
    ii = i[order].tolist()
    jj = j[order].tolist()

    used_l = bytearray(len(tl))
    used_r = bytearray(len(tr))
    out_i: list[int] = []
    out_j: list[int] = []
    for a, b in zip(ii, jj):
        if used_l[a] or used_r[b]:
            continue
        used_l[a] = 1
        used_r[b] = 1
        out_i.append(a)
        out_j.append(b)
    return np.array(out_i, dtype=np.int64), np.array(out_j, dtype=np.int64)


def _match_heap(tl: np.ndarray, tr: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    nl, nr = len(tl), len(tr)
    tl_list = tl.tolist()
    tr_list = tr.tolist()
    used_l = bytearray(nl)
    used_r = bytearray(nr)
    # per-left cursors walking outward from the insertion point, so each
    # left event enumerates its candidates in increasing |dt| (ties: the
    # earlier right event first, matching the global tie rule on t')
    left_cursor = np.searchsorted(tr, tl).tolist()
    lo = [c - 1 for c in left_cursor]
    hi = left_cursor

    def next_candidate(i: int):
        t = tl_list[i]
        while True:
            l, h = lo[i], hi[i]
            dl = t - tr_list[l] if l >= 0 else None
            dr = tr_list[h] - t if h < nr else None
            if dl is not None and dl > window:
                dl = None
            if dr is not None and dr > window:
                dr = None
            if dl is None and dr is None:
                return None
            if dr is None or (dl is not None and dl <= dr):
                j, d = l, dl
                lo[i] = l - 1
            else:
                j, d = h, dr
                hi[i] = h + 1
            if not used_r[j]:
                return d, j

    heap: list[tuple[int, int, int, int, int]] = []
    for i in range(nl):
        cand = next_candidate(i)
        if cand is not None:
            heap.append((cand[0], tl_list[i], tr_list[cand[1]], i, cand[1]))
    heapq.heapify(heap)

    out_i: list[int] = []
    out_j: list[int] = []
    while heap:
        _d, _t, _t2, i, j = heapq.heappop(heap)
        if used_l[i]:
            continue
        if used_r[j]:
            cand = next_candidate(i)
            if cand is not None:
                heapq.heappush(heap, (cand[0], tl_list[i], tr_list[cand[1]], i, cand[1]))
            continue
        used_l[i] = 1
        used_r[j] = 1
        out_i.append(i)
        out_j.append(j)
    return np.array(out_i, dtype=np.int64), np.array(out_j, dtype=np.int64)


def _candidate_count(tl: np.ndarray, tr: np.ndarray, window: int) -> int:
    lo, hi = _candidate_bounds(tl, tr, window)
    return int((hi - lo).sum())


def _match_arrays(tl: np.ndarray, tr: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    if len(tl) == 0 or len(tr) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # no |dt| exceeds the span of the two streams, so a wider window matches
    # the same pairs; the clamp keeps every window in int64 arithmetic
    window = min(window, int(max(tl[-1], tr[-1])) - int(min(tl[0], tr[0])))
    if _candidate_count(tl, tr, window) <= MAX_MATERIALIZED_CANDIDATES:
        mi, mj = _match_materialized(tl, tr, window)
    else:
        mi, mj = _match_heap(tl, tr, window)
    order = np.argsort(mi, kind="stable")
    return mi[order], mj[order]


def match_pairs_indexed(
    left, right, config: PairingConfig
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Match the two streams under ``config.window_ns``.

    Returns (left_indices, right_indices, unmatched_left, unmatched_right):
    index arrays into the two streams, with the matches sorted by T event
    time.  Raises InvalidStreamError when either stream fails validation.
    """
    left = require_valid_stream(left)
    right = require_valid_stream(right)
    mi, mj = _match_arrays(left.t_ns, right.t_ns, config.window_ns)
    return mi, mj, len(left) - len(mi), len(right) - len(mj)
