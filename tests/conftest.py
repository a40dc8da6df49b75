import itertools
import re

import numpy as np
import pytest

from eprblab.model import DetectionEvent, EventStream, PairRecord


def pytest_runtest_logreport(report):
    """Print a visible verdict line for each acceptance criterion."""
    if report.when != "call":
        return
    match = re.search(r"test_criterion_(\d+)", report.nodeid)
    if match:
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\n[criterion {int(match.group(1))}] {verdict}", flush=True)


def ev(island: str, t: int, setting: str, outcome: int) -> DetectionEvent:
    return DetectionEvent(island, t, setting, outcome)


def stream(island: str, rows) -> EventStream:
    """Build an EventStream from (t, setting, outcome) rows."""
    return EventStream.from_events([DetectionEvent(island, t, s, o) for t, s, o in rows], island=island)


def pair_columns(records):
    """The matcher's pair form (left, right, left_idx, right_idx) of
    PairRecords listed in increasing T and L time."""
    left = EventStream.from_events([p.left for p in records], island="T")
    right = EventStream.from_events([p.right for p in records], island="L")
    idx = np.arange(len(records))
    return left, right, idx, idx


def scan_class_grid(M: int, patterns) -> np.ndarray:
    """Naive reference for ``counting._class_grid``: scan all |patterns|^M
    tuples of per-trial patterns and mark the class triple of each."""
    grid = np.zeros((M + 1, M + 1, M + 1), dtype=bool)
    for combo in itertools.product(sorted(patterns), repeat=M):
        grid[tuple(sum(p[k] for p in combo) for k in range(3))] = True
    return grid


def pair(tl: int, tr: int, x: str, y: str, sl: int, sr: int, window: int | None = None) -> PairRecord:
    if window is None:
        window = abs(tl - tr)
    return PairRecord(ev("T", tl, x, sl), ev("L", tr, y, sr), window)


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
