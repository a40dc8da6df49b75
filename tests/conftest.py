import itertools
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from eprblab.ioformats import EMPTY_CELL_MARKER, SWEEP_HEADER
from eprblab.model import (
    SETTING_LABELS,
    CorrelationClass,
    DetectionEvent,
    EventStream,
    PairRecord,
    WignerDomainDistribution,
    all_domain_keys,
    domain_key_to_string,
)
from eprblab.sources import SourceConfig
from eprblab.stats import SweepRow


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
    """Build an EventStream from (t, setting, outcome) rows.  Its menu is
    the labels present, in menu order, or ("a",) when there are none."""
    labels = tuple(label for label in SETTING_LABELS if any(s == label for _, s, _ in rows)) or ("a",)
    return EventStream(
        island,
        labels,
        [t for t, _, _ in rows],
        [labels.index(s) for _, s, _ in rows],
        [o for _, _, o in rows],
    )


def _rows(events) -> list[tuple]:
    return [(e.time_ns, e.setting_label, e.outcome) for e in events]


def pair_columns(records):
    """The matcher's pair form (left, right, left_idx, right_idx) of
    PairRecords listed in increasing T and L time."""
    left = stream("T", _rows(p.left for p in records))
    right = stream("L", _rows(p.right for p in records))
    idx = np.arange(len(records))
    return left, right, idx, idx


def scan_class_grid(M: int, patterns) -> np.ndarray:
    """Naive reference for ``counting._class_grid`` (read through
    ``class_grid_cells``): scan all |patterns|^M tuples of per-trial
    patterns and mark the class triple of each."""
    grid = np.zeros((M + 1, M + 1, M + 1), dtype=bool)
    for combo in itertools.product(sorted(patterns), repeat=M):
        grid[tuple(sum(p[k] for p in combo) for k in range(3))] = True
    return grid


def class_grid_cells(bits: int, M: int) -> np.ndarray:
    """The (M+1)^3 boolean grid that ``counting._class_grid`` encodes: cell
    (x, y, z) is bit x (M+1)^2 + y (M+1) + z.  No bit may lie past the grid."""
    size = (M + 1) ** 3
    assert bits >> size == 0
    return np.array([bits >> k & 1 for k in range(size)], dtype=bool).reshape(M + 1, M + 1, M + 1)


def scan_eu_classes(M: int) -> list[CorrelationClass]:
    """Naive reference for ``counting.enumerate_eu_classes``: scan all 2^M
    equal/unequal strings and list the classes seen, most-equal first."""
    seen = {bits.bit_count() for bits in range(2**M)}
    return [CorrelationClass(M - u, u) for u in sorted(seen)]


def pair(tl: int, tr: int, x: str, y: str, sl: int, sr: int, window: int | None = None) -> PairRecord:
    if window is None:
        window = abs(tl - tr)
    return PairRecord(ev("T", tl, x, sl), ev("L", tr, y, sr), window)


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


def uniform_identified() -> WignerDomainDistribution:
    """Uniform over the domains of settings a, b, c with tau_i = sigma_i."""
    keys = [k for k in all_domain_keys(3) if k[:3] == k[3:]]
    return WignerDomainDistribution.from_partial({k: Fraction(1, len(keys)) for k in keys})


def read_manifest(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_sweep_csv(path: str) -> list[SweepRow]:
    """The rows of a sweep CSV as ``ioformats.write_sweep_csv`` writes it."""
    header, *lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert header == SWEEP_HEADER
    rows = []
    for line in lines:
        window, pairs, statistic, stderr, violated = line.split(",")
        if statistic == EMPTY_CELL_MARKER:
            rows.append(SweepRow(int(window), int(pairs), None, None, None))
        else:
            rows.append(SweepRow(int(window), int(pairs), float(statistic), float(stderr), violated == "true"))
    return rows


def config_to_dict(config: SourceConfig) -> dict:
    """The config file document that ``sources.config_from_dict`` reads
    back to config."""
    doc = {
        "kind": config.kind,
        "settings": [{"label": s.label, "angle_deg": s.angle_deg} for s in config.settings],
        "seed": int(config.seed),
        "emission_period_ns": config.emission_period_ns,
        "jitter_ns": config.jitter_ns,
        "convention": config.convention,
    }
    for key in ("total_pairs", "pairs_per_combination", "max_delay_ns", "delay_exponent"):
        if getattr(config, key) is not None:
            doc[key] = getattr(config, key)
    if config.domain_weights is not None:
        doc["domain_weights"] = {
            domain_key_to_string(k): str(w) for k, w in config.domain_weights.weights.items() if w != 0
        }
    for key in ("station_t_labels", "station_l_labels"):
        if getattr(config, key) is not None:
            doc[key] = list(getattr(config, key))
    return doc
