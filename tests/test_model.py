import ast
import importlib
import inspect
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import eprblab
from conftest import ev, pair, stream, uniform_identified
from eprblab.errors import ConfigParseError, FormatError, InvalidStreamError
from eprblab.feasibility import PairwiseTables, joint_feasibility, marginalize, read_tables, wigner_residual
from eprblab.model import (
    CELLS,
    BellTriple,
    CorrelationClass,
    DetectionEvent,
    EventStream,
    PairRecord,
    Record,
    Setting,
    StreamViolation,
    TallyTable,
    ViolationKind,
    WignerDomainDistribution,
    _exact_text,
    all_domain_keys,
    domain_key_from_string,
    domain_key_to_string,
    l_sign,
)
from eprblab.sources import SourceConfig
from eprblab.stats import bell_wigner, chsh, tally


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
    with pytest.raises(ValueError, match="^right event of a pair must come from island L$"):
        PairRecord(ev("T", 0, "a", 1), ev("T", 0, "b", 1), 10)
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
    with pytest.raises(ValueError, match="^M must be positive$"):
        _triple(M=0)


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

    ui = uniform_identified()
    support = [k for k, w in ui.weights.items() if w > 0]
    assert all(ui.is_identified(k) for k in support)
    assert len(support) == 8

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
    with pytest.raises(ValueError, match=r"^settings must be a prefix of .*, got \('a', 'c'\)$"):
        WignerDomainDistribution.from_partial({(1, 1, 1, 1): 1}, settings=("a", "c"))
    # str() refuses an int of over 4300 digits; the message prints the sum in full
    with pytest.raises(ValueError) as err:
        WignerDomainDistribution.from_partial({key: 1 + Fraction(1, 10**4300)})
    assert str(err.value) == "domain weights must sum to exactly 1, got 1" + "0" * 4299 + "1/1" + "0" * 4300


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(0), "0"),
        (Fraction(-7, 3), "-7/3"),
        (Fraction(10**600 - 1), "9" * 600),
        (Fraction(10**600), "1" + "0" * 600),
        (Fraction(-(2 * 10**1300 + 1), 10**4400), "-2" + "0" * 1299 + "1/1" + "0" * 4400),
    ],
    ids=["zero", "small", "one-chunk", "two-chunks", "over-the-limit"],
)
def test_exact_text_is_str_of_any_length(value, text):
    assert _exact_text(value) == text
    if len(text) < 4300:
        assert str(value) == text


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


INT64_MAX = 2**63 - 1
CHSH_PAIRS = [("a", "b"), ("a", "d"), ("c", "b"), ("c", "d")]


@pytest.mark.parametrize(
    "count",
    [10**309, 10**5000, 2**63, -1, True, False, 3.0, "3", None],
    ids=["1e309", "1e5000", "2^63", "-1", "true", "false", "3.0", "str", "none"],
)
def test_tally_table_refuses_a_count_outside_the_count_rule(count):
    """A count is a nonnegative integer below 2^63, never a bool, so every
    statistic of a table is a finite float: a CHSH tally whose a;b pp is
    10^309 is refused when it is built, not by an OverflowError in chsh."""
    tables = {pair: {(1, 1): 5, (1, -1): 2, (-1, 1): 1, (-1, -1): 4} for pair in CHSH_PAIRS}
    tables[("a", "b")] = {(1, 1): count, (1, -1): 2, (-1, 1): 1, (-1, -1): 4}
    with pytest.raises(ValueError) as err:
        TallyTable(tables)
    got = _exact_text(Fraction(count)) if type(count) is int else repr(count)
    assert str(err.value) == f"table 'a;b' cell 'pp': must be a nonnegative integer below 2^63, got {got}"
    with pytest.raises(ValueError, match="table 'a;b' cell 'pp'"):
        TallyTable({("a", "b"): {(1, 1): count}})


def test_a_tally_table_holds_only_counts():
    """The matcher returns the unmatched counts and ``pair`` prints them; a
    tally holds no unchecked copy that no file stores and no code reads."""
    assert TallyTable._fields == ("counts",)
    with pytest.raises(TypeError, match="unexpected keyword argument 'unmatched_left'"):
        TallyTable({}, unmatched_left=True, unmatched_right=2.5)
    assert list(inspect.signature(tally).parameters) == ["left", "right", "left_idx", "right_idx"]
    assert list(inspect.signature(PairwiseTables.from_tally).parameters) == ["tally"]


def test_tally_table_holds_a_count_of_2_to_the_63_minus_1():
    tables = {pair: {(1, 1): INT64_MAX, (1, -1): 1} for pair in CHSH_PAIRS}
    tables[("a", "b")][(-1, -1)] = np.int64(2)
    t = TallyTable(tables)
    assert t.count("a", "b", 1, 1) == INT64_MAX and type(t.count("a", "b", -1, -1)) is int
    report = chsh(t)
    assert report.s_value == pytest.approx(2.0) and math.isfinite(report.standard_error)


def test_event_stream_reports_each_violation():
    with pytest.raises(InvalidStreamError) as err:
        stream("T", [(5, "a", 1), (5, "a", 1)])
    v = err.value.violations
    assert [x.kind for x in v] == [ViolationKind.NON_MONOTONIC_TIME]
    assert v[0].index == 1
    assert v[0].message == "time 5 does not increase past 5"

    with pytest.raises(InvalidStreamError) as err:
        EventStream("T", ("a",), np.array([1, 2]), np.array([0, 0]), np.array([0, 2]))
    v = err.value.violations
    assert [x.kind for x in v] == [ViolationKind.BAD_OUTCOME, ViolationKind.BAD_OUTCOME]

    # one pass reports everything at once
    with pytest.raises(InvalidStreamError) as err:
        EventStream("T", ("a",), np.array([3, 2]), np.array([0, 0]), np.array([0, 1]))
    kinds = {x.kind for x in err.value.violations}
    assert kinds == {ViolationKind.BAD_OUTCOME, ViolationKind.NON_MONOTONIC_TIME}


@pytest.mark.parametrize("bad", [-1, -(2**63), 2**63, 2**64, -(2**64), 10**30])
def test_time_outside_int64_range_is_a_violation(bad):
    with pytest.raises(InvalidStreamError) as err:
        EventStream("T", ("a",), [1, bad], [0, 0], [1, 1])
    # a negative time also fails to increase past 1
    assert [x for x in err.value.violations if x.kind is ViolationKind.TIME_OUT_OF_RANGE] == [
        StreamViolation(ViolationKind.TIME_OUT_OF_RANGE, 1, f"time {bad} lies outside [0, 2^63 - 1]")
    ]


def test_event_stream_rejects_times_outside_int64_range():
    # signed arrays are checked as they are; others before their conversion
    for times in (np.array([-5, 3]), np.array([3, 2**63], dtype=np.uint64), [3, 2**63], [-1, 2**63]):
        with pytest.raises(InvalidStreamError) as err:
            EventStream("T", ("a",), times, np.zeros(2), np.ones(2))
        assert ViolationKind.TIME_OUT_OF_RANGE in {v.kind for v in err.value.violations}
    s = EventStream("T", ("a",), np.array([0, INT64_MAX], dtype=np.uint64), np.zeros(2), np.ones(2))
    assert s.t_ns.dtype == np.int64 and s.t_ns.tolist() == [0, INT64_MAX]
    assert EventStream("T", ("a",), [0, INT64_MAX], [0, 0], [1, 1]).t_ns.tolist() == [0, INT64_MAX]


@pytest.mark.parametrize(
    "column, values, error",
    [
        ("t_ns", [1.5], "t_ns must hold integers, got 1.5"),
        ("setting_idx", [0.9], "setting_idx must hold integers, got 0.9"),
        ("setting_idx", np.array([65536], dtype=np.int64), ViolationKind.BAD_SETTING),
        ("setting_idx", [65536], ViolationKind.BAD_SETTING),
        ("outcome", [257], ViolationKind.BAD_OUTCOME),
        ("outcome", [-255], ViolationKind.BAD_OUTCOME),
        ("outcome", [1.5], "outcome must hold integers, got 1.5"),
    ],
    ids=["time-1.5", "setting-0.9", "setting-65536-int64", "setting-65536-int", "outcome-257", "outcome--255",
         "outcome-1.5"],
)
def test_event_stream_checks_columns_before_narrowing_them(column, values, error):
    """A value that is not an integer, or an integer outside its column's
    range, is refused rather than truncated or wrapped by the narrowing."""
    columns = {"t_ns": [1], "setting_idx": [0], "outcome": [1], column: values}
    if isinstance(error, str):
        with pytest.raises(ValueError) as err:
            EventStream("T", ("a",), **columns)
        assert str(err.value) == error
    else:
        with pytest.raises(InvalidStreamError) as err:
            EventStream("T", ("a",), **columns)
        assert [(v.kind, v.index) for v in err.value.violations] == [(error, 0)]
        assert f" {int(values[0])} " in str(err.value)


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


def test_event_stream_reports_setting_index_outside_menu():
    with pytest.raises(InvalidStreamError) as err:
        EventStream("T", ("a", "b"), np.array([1, 2, 3]), np.array([0, 2, -1]), np.array([1, 1, -1]))
    violations = err.value.violations
    assert [(v.kind, v.index) for v in violations] == [(ViolationKind.BAD_SETTING, 1), (ViolationKind.BAD_SETTING, 2)]
    assert "BadSetting at index 1: setting index 2" in str(err.value)


@pytest.mark.parametrize(
    "island, labels, columns, message",
    [
        ("X", ("a",), ([1], [0], [1]), "island must be 'T' or 'L', got 'X'"),
        ("T", ("a", "e"), ([1], [0], [1]), "labels must be drawn from ('a', 'b', 'c', 'd'), got ('a', 'e')"),
        ("T", (), ([1], [0], [1]), "labels must be drawn from ('a', 'b', 'c', 'd'), got ()"),
        ("T", ("a", "a"), ([1], [0], [1]), "setting labels must be distinct"),
        ("T", ("a",), ([1, 2], [0], [1, 1]), "t_ns, setting_idx and outcome must be 1-d arrays of equal length"),
        ("T", ("a",), ([[1]], [[0]], [[1]]), "t_ns, setting_idx and outcome must be 1-d arrays of equal length"),
    ],
    ids=["island", "label-off-menu", "no-labels", "duplicate-labels", "unequal-columns", "2-d-columns"],
)
def test_event_stream_refuses_a_bad_island_menu_or_shape(island, labels, columns, message):
    with pytest.raises(ValueError) as err:
        EventStream(island, labels, *map(np.array, columns))
    assert str(err.value) == message


def test_empty_stream_keeps_its_island():
    assert stream("L", []).island == "L"
    assert stream("T", []).island == "T"


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
    s = stream("T", [(e.time_ns, e.setting_label, e.outcome) for e in events])
    assert list(s) == events


# ---------------------------------------------------------------------------
# the reporting convention


SRC = Path(__file__).resolve().parents[1] / "src" / "eprblab"
SIDEWAYS = "convention must be one of ('equal', 'anti'), got 'sideways'"


def test_l_sign():
    assert l_sign("equal") == 1
    assert l_sign("anti") == -1
    for bad in ("sideways", "Anti", "", None, 1, ("anti",)):
        with pytest.raises(ValueError, match=r"^convention must be one of \('equal', 'anti'\), got "):
            l_sign(bad)


def _convention_comparisons(tree: ast.AST) -> list[ast.AST]:
    """Comparisons and match cases that test against "anti" or "equal"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        if any(
            isinstance(sub, ast.Constant) and sub.value in ("anti", "equal")
            for operand in operands
            for sub in ast.walk(operand)
        ):
            found.append(node)
    return found


def test_convention_is_compared_only_in_l_sign():
    outside = []
    in_l_sign = 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "model.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "l_sign":
                    allowed.update(map(id, ast.walk(node)))
        for node in _convention_comparisons(tree):
            if id(node) in allowed:
                in_l_sign += 1
            else:
                outside.append(f"{path.name}:{node.lineno}")
    assert outside == []
    assert in_l_sign == 2  # the check itself sees the two comparisons it allows


# scipy: numpy is the only numeric dependency (scipy may be installed).
# dataclasses: it loads inspect, ast, dis and tokenize, 10-12 ms of every
# command's start-up; the value types are model.Record subclasses instead.
FORBIDDEN_IMPORTS = {"scipy", "dataclasses"}


def test_package_imports_no_forbidden_module():
    """No module of the package imports a FORBIDDEN_IMPORTS module, not even
    inside a function."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] in FORBIDDEN_IMPORTS]
    assert found == []


def test_every_definition_in_the_package_is_used_or_exported():
    """Each function, class and method the package defines is named in its
    code outside its own definition, or listed in eprblab.__all__: one
    that only tests call is dead code.  Dunder methods are named by the
    language."""
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{path.name}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    dead = [
        f"{where} {name}"
        for where, name in defined
        if name not in named and name not in eprblab.__all__ and not (name.startswith("__") and name.endswith("__"))
    ]
    assert dead == []


def _bell_tables() -> PairwiseTables:
    quarter = {c: Fraction(1, 4) for c in CELLS}
    return PairwiseTables({("a", "b"): quarter, ("a", "c"): quarter, ("c", "b"): quarter})


@pytest.mark.parametrize(
    "call",
    [
        lambda: bell_wigner(TallyTable({k: {c: 1 for c in CELLS} for k in _bell_tables().tables}), convention="sideways"),
        lambda: bell_wigner(TallyTable({}), convention="sideways"),
        lambda: marginalize(WignerDomainDistribution.uniform(), [("a", "b")], False, "sideways"),
        lambda: joint_feasibility(_bell_tables(), convention="sideways"),
        lambda: wigner_residual(_bell_tables(), convention="sideways"),
    ],
    ids=["bell_wigner", "bell_wigner_empty", "marginalize", "joint_feasibility", "wigner_residual"],
)
def test_unknown_convention_is_rejected_with_one_message(call):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == SIDEWAYS


@pytest.mark.parametrize(
    "call",
    [
        lambda: bell_wigner(TallyTable({k: {c: 1 for c in CELLS} for k in _bell_tables().tables})),
        lambda: bell_wigner(TallyTable({k: {c: 1 for c in CELLS} for k in _bell_tables().tables}), ("a", "b", "c")),
        lambda: marginalize(WignerDomainDistribution.uniform(), [("a", "b")], False),
        lambda: marginalize(WignerDomainDistribution.uniform(), [("a", "b")]),
        lambda: joint_feasibility(_bell_tables(), True),
        lambda: wigner_residual(_bell_tables(), ("a", "b", "c")),
    ],
    ids=["bell_wigner", "bell_wigner_ordering", "marginalize", "marginalize_two", "joint_feasibility", "wigner_residual"],
)
def test_a_missing_convention_is_refused(call):
    """No library function picks a convention for its caller (the old
    defaults were anti in ``stats`` and equal in ``feasibility``)."""
    with pytest.raises(TypeError, match="'convention'"):
        call()


def test_config_and_table_files_reuse_the_convention_message(tmp_path):
    with pytest.raises(ConfigParseError) as err:
        SourceConfig("singlet", (Setting("a", 0.0),), 1, 10, total_pairs=1, convention="sideways")
    assert str(err.value) == SIDEWAYS
    path = tmp_path / "tables.json"
    path.write_text('{"convention": "sideways", "tables": {"a;b": {"pp": 1, "pm": 0, "mp": 0, "mm": 0}}}')
    with pytest.raises(FormatError, match=re.escape(SIDEWAYS)):
        read_tables(str(path))


# ---------------------------------------------------------------------------
# the value-type base


def _record_fields_in_source() -> dict[tuple[str, str], tuple[str, ...]]:
    """{(module, class): its annotated names in source order} for every
    class in the package that subclasses Record."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(getattr(base, "id", None) == "Record" for base in node.bases):
                names = tuple(item.target.id for item in node.body if isinstance(item, ast.AnnAssign))
                found[(f"eprblab.{path.stem}", node.name)] = names
    return found


def test_every_record_has_its_annotations_as_fields_in_source_order():
    want = _record_fields_in_source()
    for module, name in want:
        importlib.import_module(module)
    loaded = {(cls.__module__, cls.__name__): cls for cls in Record.__subclasses__() if cls.__module__.startswith("eprblab.")}
    assert set(loaded) == set(want)
    for key, fields in want.items():
        assert loaded[key]._fields == loaded[key].__match_args__ == fields, key


class Point(Record):
    x: int
    y: int = 0


class OtherPoint(Record):
    x: int
    y: int = 0


def test_record_equality_and_hash_follow_class_and_values():
    assert Point(1, 2) == Point(y=2, x=1)
    assert hash(Point(1, 2)) == hash(Point(1, 2)) == hash((1, 2))
    assert Point(1, 2) != Point(1, 3)
    assert Point(1, 2) != OtherPoint(1, 2)
    assert Point(1, 2) != (1, 2)
    assert len({Point(1, 2), Point(1, 2), OtherPoint(1, 2)}) == 2


def test_record_repr_names_every_field():
    assert repr(Point(1, "a")) == "Point(x=1, y='a')"
    assert repr(Setting("b", 45.0)) == "Setting(label='b', angle_deg=45.0)"


def test_record_fields_cannot_be_assigned_or_deleted():
    p = Point(1)
    for change in (lambda: setattr(p, "x", 2), lambda: delattr(p, "x"), lambda: setattr(p, "z", 3)):
        with pytest.raises(AttributeError):
            change()
    assert p == Point(1, 0)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((), {}, "missing required argument"),
        ((), {"y": 1}, "missing required argument"),
        ((1, 2, 3), {}, "takes 2 arguments but 3 were given"),
        ((1,), {"z": 3}, "unexpected keyword argument 'z'"),
        ((1,), {"x": 1}, "multiple values for argument 'x'"),
    ],
)
def test_record_rejects_missing_unknown_and_repeated_arguments(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Point(*args, **kwargs)


def test_record_defaults_apply_before_post_init():
    seen = []

    class Checked(Record):
        a: int
        b: str = "b"
        c: tuple = ()

        def __post_init__(self):
            seen.append((self.a, self.b, self.c))

    assert Checked._fields == ("a", "b", "c")
    Checked(1)
    Checked(2, c=(3,))
    assert seen == [(1, "b", ()), (2, "b", (3,))]
    match Checked(4, "x"):
        case Checked(a, b):
            assert (a, b) == (4, "x")
