import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import uniform_identified
from eprblab.errors import ConfigParseError
from eprblab.feasibility import marginalize
from eprblab.ioformats import sha256_file, write_events
from eprblab.model import Setting, WignerDomainDistribution, domain_key_from_string, validate_stream
from eprblab.pairing import PairingConfig, match_pairs_indexed
from eprblab.sources import SourceConfig, config_from_dict, generate
from eprblab.stats import chsh, equal_fraction, tally

ROOT = Path(__file__).resolve().parents[1]
ABC = (Setting("a", 0.0), Setting("b", 120.0), Setting("c", 60.0))


def singlet_config(**kw):
    base = dict(kind="singlet", settings=ABC, seed=3, emission_period_ns=1000, total_pairs=100)
    base.update(kw)
    return SourceConfig(**base)


# ---------------------------------------------------------------------------
# config validation


def test_config_requires_exactly_one_count():
    with pytest.raises(ConfigParseError):
        singlet_config(total_pairs=None)
    with pytest.raises(ConfigParseError):
        singlet_config(pairs_per_combination=10)
    singlet_config(total_pairs=None, pairs_per_combination=10)


def test_config_field_validation():
    with pytest.raises(ConfigParseError):
        singlet_config(kind="laser")
    with pytest.raises(ConfigParseError):
        singlet_config(settings=())
    with pytest.raises(ConfigParseError):
        singlet_config(settings=(Setting("a", 0.0), Setting("a", 10.0)))
    with pytest.raises(ConfigParseError):
        singlet_config(seed=-1)
    with pytest.raises(ConfigParseError):
        singlet_config(emission_period_ns=0)
    with pytest.raises(ConfigParseError):
        singlet_config(jitter_ns=-1)
    # the period must clear twice the jitter so emissions stay ordered
    with pytest.raises(ConfigParseError):
        singlet_config(emission_period_ns=100, jitter_ns=50)
    with pytest.raises(ConfigParseError):
        singlet_config(convention="mirror")
    with pytest.raises(ConfigParseError):
        singlet_config(station_t_labels=("a", "z"))
    with pytest.raises(ConfigParseError):
        singlet_config(station_t_labels=())


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", True),
        ("seed", 1.0),
        ("seed", None),
        ("emission_period_ns", 1000.0),
        ("emission_period_ns", "1000"),
        ("jitter_ns", 0.5),
        ("jitter_ns", False),
        ("total_pairs", 1.5),
        ("total_pairs", True),
        ("pairs_per_combination", 2.0),
    ],
)
def test_config_integer_fields_are_type_checked(field, value):
    kw = {field: value}
    if field == "pairs_per_combination":
        kw["total_pairs"] = None
    with pytest.raises(ConfigParseError, match=f"^{field} must be an integer"):
        singlet_config(**kw)


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_delay_ns", 100.0),
        ("max_delay_ns", True),
        ("delay_exponent", float("nan")),
        ("delay_exponent", float("inf")),
        pytest.param("delay_exponent", 10**400, id="delay_exponent-10**400"),
        ("delay_exponent", True),
        ("delay_exponent", "2"),
    ],
)
def test_config_delay_fields_are_type_checked(field, value):
    with pytest.raises(ConfigParseError, match=f"^{field} must be"):
        _delay_config(**{field: value})


def test_config_accepts_numpy_integers_as_python_ints():
    cfg = _delay_config(seed=np.uint64(5), total_pairs=np.int32(10), max_delay_ns=np.int64(7), delay_exponent=2)
    assert type(cfg.seed) is type(cfg.total_pairs) is type(cfg.max_delay_ns) is int
    assert cfg.delay_exponent == 2


def test_config_kind_parameter_coupling():
    with pytest.raises(ConfigParseError):
        singlet_config(max_delay_ns=10)
    with pytest.raises(ConfigParseError):
        singlet_config(domain_weights=WignerDomainDistribution.uniform())
    with pytest.raises(ConfigParseError):
        SourceConfig(
            kind="local-delay",
            settings=ABC,
            seed=1,
            emission_period_ns=1000,
            total_pairs=10,
        )
    with pytest.raises(ConfigParseError):
        SourceConfig(
            kind="wigner-domain",
            settings=ABC,
            seed=1,
            emission_period_ns=1000,
            total_pairs=10,
        )


def test_config_overflow_guard():
    with pytest.raises(ConfigParseError):
        singlet_config(total_pairs=2**53, emission_period_ns=2**12)


@pytest.mark.parametrize("angle", [True, "45", "1e2", None], ids=repr)
def test_config_angles_are_type_checked(angle):
    """A setting's angle is a JSON number: a bool is not read as 1 degree,
    nor a string as the number it spells."""
    doc = json.loads((ROOT / "configs/singlet_bell.json").read_text())
    doc["settings"][1]["angle_deg"] = angle
    with pytest.raises(ConfigParseError, match=r"^settings\[1\]: angle_deg must be a finite number"):
        config_from_dict(doc)


# ---------------------------------------------------------------------------
# determinism and stream validity


def test_same_seed_same_streams():
    a1, b1 = generate(singlet_config(seed=11, total_pairs=500, jitter_ns=50))
    a2, b2 = generate(singlet_config(seed=11, total_pairs=500, jitter_ns=50))
    assert np.array_equal(a1.t_ns, a2.t_ns)
    assert np.array_equal(a1.outcome, a2.outcome)
    assert np.array_equal(b1.setting_idx, b2.setting_idx)

    a3, _ = generate(singlet_config(seed=12, total_pairs=500, jitter_ns=50))
    assert not np.array_equal(a1.outcome, a3.outcome)


def test_streams_are_valid_and_sized():
    cfg = singlet_config(total_pairs=None, pairs_per_combination=7, jitter_ns=100)
    left, right = generate(cfg)
    assert len(left) == len(right) == cfg.n_emissions() == 7 * 9
    assert validate_stream(left) == []
    assert validate_stream(right) == []


def test_jitter_stays_in_range():
    cfg = singlet_config(total_pairs=200, jitter_ns=30, emission_period_ns=100)
    left, _ = generate(cfg)
    base = np.arange(200, dtype=np.int64) * 100
    off = left.t_ns - base
    assert off.min() >= 0
    assert off.max() <= 30


SOURCE_GOLDENS = json.loads((ROOT / "tests/golden/source_digests.json").read_text())["cases"]


@pytest.mark.parametrize(
    "case", SOURCE_GOLDENS, ids=[f"{Path(c['config']).stem}-{c['convention']}" for c in SOURCE_GOLDENS]
)
def test_generated_streams_match_golden_digests(case, tmp_path):
    """Each kind under each convention writes byte-identical event files."""
    doc = json.loads((ROOT / case["config"]).read_text())
    doc.pop("pairs_per_combination", None)
    config = config_from_dict(doc | {"total_pairs": case["total_pairs"], "convention": case["convention"]})
    for s in generate(config):
        path = str(tmp_path / f"{s.island}.jsonl")
        write_events(path, s)
        assert sha256_file(path) == case["files"][s.island], s.island


# ---------------------------------------------------------------------------
# singlet closed form


def test_singlet_anti_same_setting_is_perfectly_anticorrelated():
    cfg = singlet_config(total_pairs=2000, station_t_labels=("a",), station_l_labels=("a",))
    left, right = generate(cfg)
    assert np.array_equal(left.outcome, -right.outcome)


def test_singlet_equal_same_setting_is_perfectly_correlated():
    cfg = singlet_config(
        total_pairs=2000, convention="equal", station_t_labels=("b",), station_l_labels=("b",)
    )
    left, right = generate(cfg)
    assert np.array_equal(left.outcome, right.outcome)


def _paired_equal_fraction(cfg, x, y):
    left, right = generate(cfg)
    mi, mj, ul, ur = match_pairs_indexed(left, right, PairingConfig(cfg.emission_period_ns // 2))
    t = tally(left, right, mi, mj, ul, ur)
    return equal_fraction(t, x, y), t.total(x, y)


def test_singlet_matches_independent_sampler_oracle(rng):
    """The generator's equal fraction must agree with the closed form
    P(s = s') = sin^2(theta/2) and with an independent multinomial sampler
    of the same four-cell distribution, across eight angle differences."""
    n = 1_000_000
    for k, theta_deg in enumerate([0.0, 30.0, 60.0, 90.0, 120.0, 150.0, 180.0 - 1e-9, 45.0]):
        cfg = SourceConfig(
            kind="singlet",
            settings=(Setting("a", 0.0), Setting("b", theta_deg)),
            seed=1000 + k,
            emission_period_ns=10,
            total_pairs=n,
            station_t_labels=("a",),
            station_l_labels=("b",),
        )
        left, right = generate(cfg)
        ef_sim = float(np.mean(left.outcome == right.outcome))

        p_eq = math.sin(math.radians(theta_deg) / 2.0) ** 2
        # independent oracle: sample the closed-form cell distribution directly
        cells = rng.multinomial(n, [p_eq / 2, p_eq / 2, (1 - p_eq) / 2, (1 - p_eq) / 2])
        ef_oracle = (cells[0] + cells[1]) / n

        sigma = math.sqrt(max(p_eq * (1 - p_eq), 1e-12) / n)
        assert abs(ef_sim - p_eq) <= 4 * sigma + 1e-9, f"theta={theta_deg}"
        assert abs(ef_oracle - p_eq) <= 4 * sigma + 1e-9, f"theta={theta_deg} (oracle drifted)"


def test_singlet_equal_convention_flips_correlation():
    cfg = singlet_config(
        total_pairs=100_000,
        seed=5,
        jitter_ns=0,
        station_t_labels=("a",),
        station_l_labels=("b",),
        convention="equal",
    )
    ef, n = _paired_equal_fraction(cfg, "a", "b")
    # anti gives sin^2(60 deg) = 3/4 at 120 degrees; equal gives the complement
    assert n == 100_000
    assert abs(ef - 0.25) <= 4 * math.sqrt(0.25 * 0.75 / n)


# ---------------------------------------------------------------------------
# wigner-domain source


def test_wigner_point_mass_is_deterministic():
    key = domain_key_from_string("+-+;--+")
    dist = WignerDomainDistribution.from_partial({key: 1})
    for convention, flip in (("equal", 1), ("anti", -1)):
        cfg = SourceConfig(
            kind="wigner-domain",
            settings=ABC,
            seed=2,
            emission_period_ns=1000,
            pairs_per_combination=5,
            convention=convention,
            domain_weights=dist,
        )
        left, right = generate(cfg)
        sig = {"a": 1, "b": -1, "c": 1}
        tau = {"a": -1, "b": -1, "c": 1}
        for e in left:
            assert e.outcome == sig[e.setting_label]
        for e in right:
            assert e.outcome == flip * tau[e.setting_label]


def test_wigner_identified_equal_settings_agree():
    cfg = SourceConfig(
        kind="wigner-domain",
        settings=ABC,
        seed=9,
        emission_period_ns=1000,
        jitter_ns=0,
        pairs_per_combination=300,
        convention="equal",
        domain_weights=uniform_identified(),
    )
    left, right = generate(cfg)
    mi, mj, ul, ur = match_pairs_indexed(left, right, PairingConfig(0))
    t = tally(left, right, mi, mj, ul, ur)
    for x in "abc":
        assert t.count(x, x, 1, -1) == 0
        assert t.count(x, x, -1, 1) == 0
        assert t.total(x, x) == 300


def test_wigner_uniform_matches_exact_marginals():
    """Sampled cell frequencies sit within 4 sigma of the exactly
    marginalized cell probabilities (1/4 each for the uniform mixture)."""
    cfg = SourceConfig(
        kind="wigner-domain",
        settings=ABC,
        seed=31,
        emission_period_ns=1000,
        jitter_ns=0,
        total_pairs=90_000,
        convention="equal",
        domain_weights=WignerDomainDistribution.uniform(),
    )
    left, right = generate(cfg)
    mi, mj, ul, ur = match_pairs_indexed(left, right, PairingConfig(0))
    t = tally(left, right, mi, mj, ul, ur)
    exact = marginalize(
        WignerDomainDistribution.uniform(), [("a", "b"), ("a", "c"), ("c", "b")], convention="equal"
    )
    for key, cells in exact.tables.items():
        n = t.total(*key)
        assert n > 8000
        for cell, p in cells.items():
            assert p == Fraction(1, 4)
            phat = t.counts[key][cell] / n
            assert abs(phat - float(p)) <= 4 * math.sqrt(float(p) * (1 - float(p)) / n)


# ---------------------------------------------------------------------------
# local-delay source


def _delay_config(**kw):
    base = dict(
        kind="local-delay",
        settings=(Setting("a", 0.0), Setting("b", 45.0), Setting("c", 90.0), Setting("d", 135.0)),
        seed=21,
        emission_period_ns=100_000,
        jitter_ns=50,
        total_pairs=20_000,
        max_delay_ns=10_000,
        delay_exponent=4.0,
        station_t_labels=("a", "c"),
        station_l_labels=("b", "d"),
    )
    base.update(kw)
    return SourceConfig(**base)


def test_local_delay_t_island_ignores_l_island():
    """Locality, executable: scrambling the far island's menu or angles
    leaves this island's stream bit-identical."""
    base_l, _ = generate(_delay_config())
    scrambled_menu_l, _ = generate(_delay_config(station_l_labels=("d", "b")))
    assert np.array_equal(base_l.t_ns, scrambled_menu_l.t_ns)
    assert np.array_equal(base_l.outcome, scrambled_menu_l.outcome)
    assert np.array_equal(base_l.setting_idx, scrambled_menu_l.setting_idx)

    moved_l_angles, _ = generate(
        _delay_config(
            settings=(
                Setting("a", 0.0),
                Setting("b", 77.0),
                Setting("c", 90.0),
                Setting("d", 31.0),
            )
        )
    )
    assert np.array_equal(base_l.t_ns, moved_l_angles.t_ns)
    assert np.array_equal(base_l.outcome, moved_l_angles.outcome)


def test_local_delay_without_delays_respects_chsh():
    """With max_delay 0 the model is a plain deterministic local theory:
    every emission pairs up and |S| stays within the classical bound."""
    cfg = _delay_config(max_delay_ns=0, delay_exponent=0.0, total_pairs=100_000, seed=77)
    left, right = generate(cfg)
    mi, mj, ul, ur = match_pairs_indexed(left, right, PairingConfig(cfg.emission_period_ns // 2))
    assert len(mi) == 100_000
    rep = chsh(tally(left, right, mi, mj, ul, ur))
    assert abs(rep.s_value) <= 2.0 + 4 * rep.standard_error


def test_local_delay_delays_bounded():
    cfg = _delay_config(jitter_ns=0, total_pairs=5000)
    left, right = generate(cfg)
    for s in (left, right):
        base = np.arange(5000, dtype=np.int64) * cfg.emission_period_ns
        off = s.t_ns - base
        assert off.min() >= 0
        assert off.max() <= cfg.max_delay_ns


# ---------------------------------------------------------------------------
# property fuzz over configs


@settings(deadline=None, max_examples=30)
@given(
    kind=st.sampled_from(["singlet", "wigner-domain", "local-delay"]),
    seed=st.integers(0, 2**32),
    n=st.integers(1, 40),
    period=st.integers(200, 2000),
    jitter=st.integers(0, 80),
    convention=st.sampled_from(["equal", "anti"]),
)
def test_every_generated_stream_is_valid(kind, seed, n, period, jitter, convention):
    kw = {}
    if kind == "local-delay":
        kw = dict(max_delay_ns=100, delay_exponent=2.0)
    elif kind == "wigner-domain":
        kw = dict(domain_weights=WignerDomainDistribution.uniform())
    cfg = SourceConfig(
        kind=kind,
        settings=ABC,
        seed=seed,
        emission_period_ns=period,
        jitter_ns=jitter,
        total_pairs=n,
        convention=convention,
        **kw,
    )
    left, right = generate(cfg)
    assert len(left) == len(right) == n
    assert validate_stream(left) == []
    assert validate_stream(right) == []
    assert left.island == "T" and right.island == "L"
