from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ev, pair, stream
from eprblab.errors import InvalidStreamError
from eprblab.model import (
    BellTriple,
    CorrelationClass,
    DetectionEvent,
    EventStream,
    PairRecord,
    Setting,
    StreamViolation,
    TallyTable,
    ViolationKind,
    WignerDomainDistribution,
    all_domain_keys,
    domain_key_from_string,
    domain_key_to_string,
    require_valid_stream,
    validate_stream,
)


def test_setting_validation():
    s = Setting("a", 45.0)
    assert s.angle_rad == pytest.approx(np.pi / 4)
    with pytest.raises(ValueError):
        Setting("e", 0.0)
    with pytest.raises(ValueError):
        Setting("a", 360.0)
    with pytest.raises(ValueError):
        Setting("a", -1.0)


def test_detection_event_validation():
    ev("T", 10, "a", 1)
    with pytest.raises(ValueError):
        DetectionEvent("X", 10, "a", 1)
    with pytest.raises(ValueError):
        DetectionEvent("T", 10.5, "a", 1)
    with pytest.raises(ValueError):
        DetectionEvent("T", True, "a", 1)
    with pytest.raises(ValueError):
        DetectionEvent("T", 10, "z", 1)
    with pytest.raises(ValueError):
        DetectionEvent("T", 10, "a", 0)


@pytest.mark.parametrize("outcome", [True, 1.0, -1.0, np.float64(1.0), np.bool_(True)])
def test_detection_event_rejects_non_integer_outcomes(outcome):
    with pytest.raises(ValueError, match="outcome"):
        DetectionEvent("T", 10, "a", outcome)


def test_detection_event_accepts_numpy_integer_outcomes():
    assert DetectionEvent("T", 10, "a", np.int8(-1)).outcome == -1


def test_pair_record_window():
    pair(100, 130, "a", "b", 1, -1, window=30)
    with pytest.raises(ValueError):
        pair(100, 131, "a", "b", 1, -1, window=30)
    with pytest.raises(ValueError):
        PairRecord(ev("L", 0, "a", 1), ev("L", 0, "b", 1), 10)
    with pytest.raises(ValueError):
        pair(0, 0, "a", "b", 1, 1, window=-1)


def _triple(M=1, k=1, l=2, m=3):
    return BellTriple(
        ab=pair(10, 12, "a", "b", 1, -1, window=5),
        ac=pair(1000, 1003, "a", "c", 1, 1, window=5),
        bc=pair(2000, 2004, "b", "c", -1, -1, window=5),
        k=k,
        l=l,
        m=m,
        M=M,
    )


def test_bell_triple_valid():
    t = _triple()
    entries = t.entries()
    assert len(entries) == 6
    assert entries[0] == (1, "a", 10, "T")
    assert entries[5] == (-1, "c", 2004, "L")


def test_bell_triple_rejects_wrong_settings():
    with pytest.raises(ValueError):
        BellTriple(
            ab=pair(10, 12, "a", "c", 1, -1, window=5),
            ac=pair(1000, 1003, "a", "c", 1, 1, window=5),
            bc=pair(2000, 2004, "b", "c", -1, -1, window=5),
            k=1,
            l=2,
            m=3,
            M=1,
        )


def test_bell_triple_rejects_reused_events():
    shared = pair(10, 12, "a", "b", 1, -1, window=5)
    with pytest.raises(ValueError):
        BellTriple(
            ab=shared,
            ac=PairRecord(shared.left, ev("L", 14, "c", 1), 5),
            bc=pair(2000, 2004, "b", "c", -1, -1, window=5),
            k=1,
            l=2,
            m=3,
            M=1,
        )


def test_bell_triple_index_ranges():
    # k <= M < l <= 2M < m <= 3M
    _triple(M=2, k=2, l=3, m=5)
    for bad in [dict(k=2, l=2, m=3), dict(k=1, l=4, m=5), dict(k=1, l=2, m=2)]:
        with pytest.raises(ValueError):
            _triple(M=1, **bad)


def test_correlation_class():
    c = CorrelationClass(3, 0)
    assert str(c) == "3/0"
    assert c.M == 3
    with pytest.raises(ValueError):
        CorrelationClass(-1, 2)
    with pytest.raises(ValueError):
        CorrelationClass(0, 0)


def test_domain_key_round_trip():
    keys = all_domain_keys(3)
    assert len(keys) == 64
    assert len(set(keys)) == 64
    for k in keys:
        assert domain_key_from_string(domain_key_to_string(k)) == k
    assert domain_key_from_string("+-+;-++") == (1, -1, 1, -1, 1, 1)
    for bad in ["+-+", "+-;+-+", "+x+;+-+", ";"]:
        with pytest.raises(ValueError):
            domain_key_from_string(bad)


def test_domain_distribution_validation():
    u = WignerDomainDistribution.uniform()
    assert sum(u.weights.values()) == 1
    assert len(u.weights) == 64

    ui = WignerDomainDistribution.uniform_identified()
    assert all(ui.is_identified(k) for k in ui.support())
    assert len(ui.support()) == 8

    key = domain_key_from_string("+++;+++")
    point = WignerDomainDistribution.from_partial({key: 1})
    assert point.weights[key] == 1

    with pytest.raises(ValueError):
        WignerDomainDistribution.from_partial({key: Fraction(1, 2)})
    with pytest.raises(ValueError):
        WignerDomainDistribution.from_partial({key: Fraction(-1), domain_key_from_string("---;---"): Fraction(2)})
    with pytest.raises(ValueError):
        WignerDomainDistribution({key: Fraction(1)})  # missing the other 63 keys
    with pytest.raises(ValueError):
        WignerDomainDistribution.from_partial({(1, 1): 1}, settings=("a", "b", "c"))


def test_domain_distribution_accessors():
    key = domain_key_from_string("+-+;-++")
    d = WignerDomainDistribution.from_partial({key: 1})
    assert d.sigma(key, "a") == 1
    assert d.sigma(key, "b") == -1
    assert d.tau(key, "a") == -1
    assert d.tau(key, "c") == 1
    assert not d.is_identified(key)


def test_tally_table():
    t = TallyTable({("a", "b"): {(1, 1): 3}})
    assert t.counts[("a", "b")][(1, -1)] == 0
    assert t.total("a", "b") == 3
    assert t.count("a", "b", 1, 1) == 3
    assert t.count("b", "a", 1, 1) == 0
    with pytest.raises(ValueError):
        TallyTable({("a", "z"): {(1, 1): 1}})
    with pytest.raises(ValueError):
        TallyTable({("a", "b"): {(1, 1): -1}})
    with pytest.raises(ValueError):
        TallyTable({("a", "b"): {(2, 1): 1}})
    with pytest.raises(ValueError):
        TallyTable({}, unmatched_left=-1)


def test_validate_stream_catches_each_violation():
    assert validate_stream([]) == []
    good = [ev("T", 1, "a", 1), ev("T", 5, "b", -1)]
    assert validate_stream(good) == []

    v = validate_stream([ev("T", 5, "a", 1), ev("T", 5, "a", 1)])
    assert [x.kind for x in v] == [ViolationKind.NON_MONOTONIC_TIME]
    assert v[0].index == 1
    assert v[0].message == "time 5 does not increase past 5"

    v = validate_stream([ev("T", 1, "a", 1), ev("L", 2, "a", 1), ev("T", 3, "a", 1)])
    assert [x.kind for x in v] == [ViolationKind.MIXED_ISLAND]
    assert v[0].index == 1
    assert v[0].message == "island 'L' differs from 'T'"

    v = validate_stream([ev("L", 1, "a", 1), ev("T", 2, "a", 1), ev("T", 3, "a", 1)])
    assert [x.kind for x in v] == [ViolationKind.MIXED_ISLAND, ViolationKind.MIXED_ISLAND]

    # an outcome other than +1/-1 cannot be a DetectionEvent; the stream
    # constructor reports it
    with pytest.raises(InvalidStreamError) as err:
        EventStream("T", ("a",), np.array([1, 2]), np.array([0, 0]), np.array([0, 2]))
    v = err.value.violations
    assert [x.kind for x in v] == [ViolationKind.BAD_OUTCOME, ViolationKind.BAD_OUTCOME]

    # one pass reports everything at once
    v = validate_stream([ev("T", 3, "a", 1), ev("L", 2, "a", 1)])
    assert [(x.kind, x.index) for x in v] == [(ViolationKind.MIXED_ISLAND, 1), (ViolationKind.NON_MONOTONIC_TIME, 1)]
    with pytest.raises(InvalidStreamError) as err:
        EventStream("T", ("a",), np.array([3, 2]), np.array([0, 0]), np.array([0, 1]))
    kinds = {x.kind for x in err.value.violations}
    assert kinds == {ViolationKind.BAD_OUTCOME, ViolationKind.NON_MONOTONIC_TIME}


def test_require_valid_stream():
    s = require_valid_stream([ev("L", 3, "c", -1), ev("L", 9, "a", 1)])
    assert isinstance(s, EventStream)
    assert s.island == "L"
    with pytest.raises(InvalidStreamError) as err:
        require_valid_stream([ev("T", 5, "a", 1), ev("T", 4, "a", 1)])
    assert "NonMonotonicTime" in str(err.value)


INT64_MAX = 2**63 - 1


@pytest.mark.parametrize("bad", [-1, -(2**63), 2**63, 2**64, -(2**64), 10**30])
def test_time_outside_int64_range_is_a_violation(bad):
    events = [ev("T", 1, "a", 1), ev("T", bad, "a", 1)]
    v = validate_stream(events)
    # a negative time also fails to increase past 1
    assert [x for x in v if x.kind is ViolationKind.TIME_OUT_OF_RANGE] == [
        StreamViolation(ViolationKind.TIME_OUT_OF_RANGE, 1, f"time {bad} lies outside [0, 2^63 - 1]")
    ]
    for build in (require_valid_stream, EventStream.from_events):
        with pytest.raises(InvalidStreamError) as err:
            build(events)
        assert err.value.violations == v


def test_event_stream_rejects_times_outside_int64_range():
    # signed arrays are checked as they are; others before their conversion
    for times in (np.array([-5, 3]), np.array([3, 2**63], dtype=np.uint64), [3, 2**63], [-1, 2**63]):
        with pytest.raises(InvalidStreamError) as err:
            EventStream("T", ("a",), times, np.zeros(2), np.ones(2))
        assert ViolationKind.TIME_OUT_OF_RANGE in {v.kind for v in err.value.violations}
    s = EventStream("T", ("a",), np.array([0, INT64_MAX], dtype=np.uint64), np.zeros(2), np.ones(2))
    assert s.t_ns.dtype == np.int64 and s.t_ns.tolist() == [0, INT64_MAX]
    assert validate_stream([ev("T", 0, "a", 1), ev("T", INT64_MAX, "a", 1)]) == []


def test_event_stream_round_trip():
    rows = [(1, "a", 1), (4, "b", -1), (9, "a", -1)]
    s = stream("T", rows)
    assert len(s) == 3
    back = [(e.time_ns, e.setting_label, e.outcome) for e in s]
    assert back == rows
    assert s.event(1).setting_label == "b"


def test_event_stream_arrays_are_frozen():
    s = stream("T", [(1, "a", 1)])
    with pytest.raises(ValueError):
        s.t_ns[0] = 5


def test_event_stream_rejects_mixed_islands():
    with pytest.raises(InvalidStreamError):
        EventStream.from_events([ev("T", 1, "a", 1), ev("L", 2, "a", 1)])


def test_event_stream_rejects_label_outside_menu():
    with pytest.raises(ValueError):
        EventStream.from_events([ev("T", 1, "c", 1)], labels=("a", "b"))


def test_event_stream_reports_setting_index_outside_menu():
    with pytest.raises(InvalidStreamError) as err:
        EventStream("T", ("a", "b"), np.array([1, 2, 3]), np.array([0, 2, -1]), np.array([1, 1, -1]))
    violations = err.value.violations
    assert [(v.kind, v.index) for v in violations] == [(ViolationKind.BAD_SETTING, 1), (ViolationKind.BAD_SETTING, 2)]
    assert "BadSetting at index 1: setting index 2" in str(err.value)


def test_empty_stream_keeps_its_island():
    assert stream("L", []).island == "L"
    assert stream("T", []).island == "T"
    assert EventStream.from_events([]).island == "T"
    with pytest.raises(ValueError, match="island"):
        EventStream.from_events([ev("T", 1, "a", 1)], island="L")


@given(
    st.lists(
        st.tuples(st.integers(1, 50), st.sampled_from("abcd"), st.sampled_from([-1, 1])),
        min_size=1,
        max_size=30,
    )
)
def test_streams_round_trip_any_valid_run(rows):
    t = 0
    events = []
    for dt, setting, outcome in rows:
        t += dt
        events.append(ev("T", t, setting, outcome))
    s = require_valid_stream(events)
    assert validate_stream(s) == []
    assert s.to_events() == events
