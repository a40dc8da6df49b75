"""Event-stream generators: a singlet sampler, a domain-distribution sampler,
and a local hidden-variable model with setting-dependent time delays.

All three share the same emission machinery: emissions happen every
``emission_period_ns``, each island adds independent integer jitter drawn
uniformly from [0, jitter_ns], and every random draw flows from one 64-bit
seed through five named child generators (settings_t, settings_l, jitter_t,
jitter_l, source).  Splitting the streams per island keeps the locality
structure explicit: nothing computed for island T ever reads island L's
setting draws, and vice versa.

Sign conventions.  "anti" means equal settings yield opposite outcomes
(the singlet's behaviour) and is what the closed forms below are stated
in; "equal" flips the L outcome relative to "anti".  For the domain
sampler the natural reading is the opposite: a domain prescribes sigma
for T and tau for L, "equal" emits tau as is, "anti" emits -tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigMismatchError, ConfigParseError
from .model import CONVENTIONS, SETTING_LABELS, EventStream, Setting, WignerDomainDistribution

KINDS = ("singlet", "wigner-domain", "local-delay")

_STREAM_NAMES = ("settings_t", "settings_l", "jitter_t", "jitter_l", "source")


@dataclass(frozen=True)
class SourceConfig:
    """Full description of one simulated run.

    Exactly one of ``total_pairs`` (emissions with per-island uniform random
    settings) and ``pairs_per_combination`` (a fixed block of emissions for
    every ordered combination of the two station menus) must be given.

    ``station_t_labels`` / ``station_l_labels`` restrict each island's menu
    to a subset of ``settings``; by default both islands draw from the full
    list.  Restricting the menus is how a CHSH run measures only the four
    counted setting pairs.
    """

    kind: str
    settings: tuple[Setting, ...]
    seed: int
    emission_period_ns: int
    jitter_ns: int = 0
    total_pairs: int | None = None
    pairs_per_combination: int | None = None
    convention: str = "anti"
    max_delay_ns: int | None = None
    delay_exponent: float | None = None
    domain_weights: WignerDomainDistribution | None = None
    station_t_labels: tuple[str, ...] | None = None
    station_l_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigParseError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not self.settings:
            raise ConfigParseError("settings must be a nonempty list")
        labels = [s.label for s in self.settings]
        if len(set(labels)) != len(labels):
            raise ConfigParseError(f"setting labels must be distinct, got {labels}")
        if not isinstance(self.seed, (int, np.integer)) or not (0 <= int(self.seed) < 2**64):
            raise ConfigParseError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.emission_period_ns < 1:
            raise ConfigParseError("emission_period_ns must be positive")
        if self.jitter_ns < 0:
            raise ConfigParseError("jitter_ns must be nonnegative")
        if self.emission_period_ns <= 2 * self.jitter_ns:
            raise ConfigParseError(
                f"emission_period_ns must exceed 2*jitter_ns to keep emissions time-ordered "
                f"(got period {self.emission_period_ns}, jitter {self.jitter_ns})"
            )
        given = [p for p in (self.total_pairs, self.pairs_per_combination) if p is not None]
        if len(given) != 1:
            raise ConfigParseError("exactly one of total_pairs and pairs_per_combination must be set")
        if given[0] < 1:
            raise ConfigParseError("the pair count must be positive")
        if self.convention not in CONVENTIONS:
            raise ConfigParseError(f"convention must be one of {CONVENTIONS}, got {self.convention!r}")

        needs_delay = self.kind == "local-delay"
        if needs_delay:
            if self.max_delay_ns is None or self.delay_exponent is None:
                raise ConfigParseError("local-delay configs require max_delay_ns and delay_exponent")
            if self.max_delay_ns < 0:
                raise ConfigParseError("max_delay_ns must be nonnegative")
            if self.delay_exponent < 0:
                raise ConfigParseError("delay_exponent must be nonnegative")
        elif self.max_delay_ns is not None or self.delay_exponent is not None:
            raise ConfigParseError(f"delay parameters are only valid for local-delay configs, not {self.kind!r}")

        if self.kind == "wigner-domain":
            if self.domain_weights is None:
                raise ConfigParseError("wigner-domain configs require domain_weights")
            missing = [l for l in labels if l not in self.domain_weights.settings]
            if missing:
                raise ConfigParseError(
                    f"settings {missing} have no column in the domain distribution over {self.domain_weights.settings}"
                )
        elif self.domain_weights is not None:
            raise ConfigParseError(f"domain_weights is only valid for wigner-domain configs, not {self.kind!r}")

        for name, menu in (("station_t_labels", self.station_t_labels), ("station_l_labels", self.station_l_labels)):
            if menu is None:
                continue
            if not menu or len(set(menu)) != len(menu) or any(l not in labels for l in menu):
                raise ConfigParseError(f"{name} must be a nonempty subset of the setting labels, got {menu!r}")

        n = self.n_emissions()
        reach = n * (self.emission_period_ns + (self.max_delay_ns or 0) + self.jitter_ns + 1)
        if reach >= 2**62:
            raise ConfigParseError("run too long: emission times would overflow the nanosecond counter")

        object.__setattr__(self, "settings", tuple(self.settings))
        if self.station_t_labels is not None:
            object.__setattr__(self, "station_t_labels", tuple(self.station_t_labels))
        if self.station_l_labels is not None:
            object.__setattr__(self, "station_l_labels", tuple(self.station_l_labels))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.settings)

    def menu(self, island: str) -> tuple[str, ...]:
        chosen = self.station_t_labels if island == "T" else self.station_l_labels
        return tuple(chosen) if chosen is not None else self.labels

    def n_emissions(self) -> int:
        if self.total_pairs is not None:
            return self.total_pairs
        return self.pairs_per_combination * len(self.menu("T")) * len(self.menu("L"))


def _rngs(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(int(seed)).spawn(len(_STREAM_NAMES))
    return {name: np.random.default_rng(child) for name, child in zip(_STREAM_NAMES, children)}


def _setting_plan(config: SourceConfig, rngs) -> tuple[int, np.ndarray, np.ndarray]:
    """Per-emission setting indices (into config.settings) for both islands.

    With total_pairs, each island draws i.i.d. uniformly from its menu using
    its own generator.  With pairs_per_combination, the schedule is the fixed
    block order (x0,y0), (x0,y1), ..., a pre-agreed public protocol, and the
    setting generators are left untouched.
    """
    label_index = {l: i for i, l in enumerate(config.labels)}
    menu_t = np.array([label_index[l] for l in config.menu("T")], dtype=np.int16)
    menu_l = np.array([label_index[l] for l in config.menu("L")], dtype=np.int16)
    if config.total_pairs is not None:
        n = config.total_pairs
        it = menu_t[rngs["settings_t"].integers(0, len(menu_t), n)]
        il = menu_l[rngs["settings_l"].integers(0, len(menu_l), n)]
        return n, it, il
    ppc = config.pairs_per_combination
    n = ppc * len(menu_t) * len(menu_l)
    it = np.repeat(menu_t, len(menu_l) * ppc)
    il = np.tile(np.repeat(menu_l, ppc), len(menu_t))
    return n, it, il


def _jitter(rng: np.random.Generator, jitter_ns: int, n: int) -> np.ndarray:
    if jitter_ns == 0:
        return np.zeros(n, dtype=np.int64)
    return rng.integers(0, jitter_ns + 1, n, dtype=np.int64)


def _strictly_increasing(t: np.ndarray) -> np.ndarray:
    """Minimally bump equal timestamps so the sequence increases strictly.

    Models a one-tick detector dead time; leaves already-strict sequences
    untouched.
    """
    n = len(t)
    if n == 0:
        return t
    steps = np.arange(n, dtype=np.int64)
    return np.maximum.accumulate(t - steps) + steps


def _station_stream(
    island: str, config: SourceConfig, t_raw: np.ndarray, setting_idx: np.ndarray, outcome: np.ndarray
) -> EventStream:
    order = np.argsort(t_raw, kind="stable")
    t = _strictly_increasing(t_raw[order])
    return EventStream(island, config.labels, t, setting_idx[order], outcome[order])


def _require_kind(config: SourceConfig, kind: str) -> None:
    if config.kind != kind:
        raise ConfigMismatchError(f"expected a {kind!r} config, got {config.kind!r}")


def generate_singlet(config: SourceConfig) -> tuple[EventStream, EventStream]:
    """Sample pair outcomes from the singlet closed form.

    For settings at angle difference theta the outcomes satisfy, in
    convention "anti", P(s = s') = sin^2(theta/2) and E[s s'] = -cos(theta);
    convention "equal" flips the L outcome.  This closed form is the
    standard two-spin prediction, adopted as the package's quantum
    reference source.
    """
    _require_kind(config, "singlet")
    rngs = _rngs(config.seed)
    n, it, il = _setting_plan(config, rngs)
    angles = np.array([s.angle_rad for s in config.settings])
    theta = angles[it] - angles[il]

    src = rngs["source"]
    s_left = (2 * src.integers(0, 2, n) - 1).astype(np.int8)
    same = src.random(n) < np.sin(theta / 2.0) ** 2
    s_right = np.where(same, s_left, -s_left).astype(np.int8)
    if config.convention == "equal":
        s_right = (-s_right).astype(np.int8)

    base = np.arange(n, dtype=np.int64) * config.emission_period_ns
    t_left = base + _jitter(rngs["jitter_t"], config.jitter_ns, n)
    t_right = base + _jitter(rngs["jitter_l"], config.jitter_ns, n)
    return (
        _station_stream("T", config, t_left, it, s_left),
        _station_stream("L", config, t_right, il, s_right),
    )


def generate_wigner_domain(config: SourceConfig) -> tuple[EventStream, EventStream]:
    """Sample from an explicit distribution over joint outcome domains.

    Each emission draws one domain (sigma_1..sigma_n; tau_1..tau_n); island T
    reports sigma at its drawn setting, island L reports tau (convention
    "equal") or -tau (convention "anti").
    """
    _require_kind(config, "wigner-domain")
    rngs = _rngs(config.seed)
    n, it, il = _setting_plan(config, rngs)
    dist = config.domain_weights
    nset = dist.n_settings

    keys = list(dist.weights)
    probs = np.array([float(dist.weights[k]) for k in keys])
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    draw = rngs["source"].random(n)
    domain_idx = np.searchsorted(cum, draw, side="right")

    sigma = np.array([k[:nset] for k in keys], dtype=np.int8)
    tau = np.array([k[nset:] for k in keys], dtype=np.int8)
    to_dist_col = np.array([dist.settings.index(l) for l in config.labels], dtype=np.int16)

    s_left = sigma[domain_idx, to_dist_col[it]]
    s_right = tau[domain_idx, to_dist_col[il]]
    if config.convention == "anti":
        s_right = (-s_right).astype(np.int8)

    base = np.arange(n, dtype=np.int64) * config.emission_period_ns
    t_left = base + _jitter(rngs["jitter_t"], config.jitter_ns, n)
    t_right = base + _jitter(rngs["jitter_l"], config.jitter_ns, n)
    return (
        _station_stream("T", config, t_left, it, s_left),
        _station_stream("L", config, t_right, il, s_right),
    )


def _local_delay_station(
    angles_rad: np.ndarray,
    lam: np.ndarray,
    base_t: np.ndarray,
    jitter: np.ndarray,
    max_delay_ns: int,
    delay_exponent: float,
    outcome_sign: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One station's raw detection times and outcomes.

    Everything here is local: the per-emission setting angle of THIS island,
    the source angle lam fixed at emission, and this island's jitter.  The
    other island's settings are not an input, which is the locality claim in
    executable form.
    """
    rel = angles_rad - lam
    outcome = (outcome_sign * np.where(np.cos(rel) >= 0.0, 1, -1)).astype(np.int8)
    delay = np.rint(max_delay_ns * np.abs(np.sin(rel)) ** delay_exponent).astype(np.int64)
    return base_t + delay + jitter, outcome


def generate_local_delay(config: SourceConfig) -> tuple[EventStream, EventStream]:
    """Local deterministic model whose detection delays depend on the local
    setting and a per-emission hidden angle lam, uniform on [0, 2*pi).

    Outcomes are sign(cos(angle - lam)) on T and, in convention "anti",
    -sign(cos(angle - lam)) on L.  The delay law
    max_delay_ns * |sin(angle - lam)|^delay_exponent moves detections whose
    outcome is near the sign boundary by up to max_delay_ns, so window-based
    pairing post-selects emissions and can push |S| past the fixed-pairing
    bound at small windows.  No information crosses between islands after
    emission.
    """
    _require_kind(config, "local-delay")
    rngs = _rngs(config.seed)
    n, it, il = _setting_plan(config, rngs)
    angles = np.array([s.angle_rad for s in config.settings])
    lam = rngs["source"].uniform(0.0, 2.0 * np.pi, n)
    base = np.arange(n, dtype=np.int64) * config.emission_period_ns

    t_left, s_left = _local_delay_station(
        angles[it], lam, base, _jitter(rngs["jitter_t"], config.jitter_ns, n),
        config.max_delay_ns, config.delay_exponent, +1,
    )
    l_sign = -1 if config.convention == "anti" else +1
    t_right, s_right = _local_delay_station(
        angles[il], lam, base, _jitter(rngs["jitter_l"], config.jitter_ns, n),
        config.max_delay_ns, config.delay_exponent, l_sign,
    )
    return (
        _station_stream("T", config, t_left, it, s_left),
        _station_stream("L", config, t_right, il, s_right),
    )


_GENERATORS: dict[str, Callable[[SourceConfig], tuple[EventStream, EventStream]]] = {
    "singlet": generate_singlet,
    "wigner-domain": generate_wigner_domain,
    "local-delay": generate_local_delay,
}


def generate(config: SourceConfig) -> tuple[EventStream, EventStream]:
    """Dispatch to the generator named by ``config.kind``."""
    return _GENERATORS[config.kind](config)
