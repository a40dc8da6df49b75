"""Event-stream generators: a singlet sampler, a domain-distribution sampler,
and a local hidden-variable model with setting-dependent time delays.

All three run one emission path (``generate``).  Emissions happen every
``emission_period_ns``, each island adds independent integer jitter drawn
uniformly from [0, jitter_ns], and every random draw flows from one 64-bit
seed through five named child generators (settings_t, settings_l, jitter_t,
jitter_l, source).  Splitting the streams per island keeps the locality
structure explicit: nothing computed for island T ever reads island L's
setting draws, and vice versa.

A kind is one law: from the source generator and both islands' settings it
draws, per emission, T's outcome sigma, the hidden tau at L's setting, and
each station's detection delay.  L reports ``model.l_sign(convention) * tau``.

The config schema is stated once, in ``SourceConfig``: its fields, their
defaults and the check of every field.  ``config_from_dict`` builds one from
a parsed JSON document, converting only the nested shapes (the reader of
config files is ``ioformats.load_config``).
"""

from __future__ import annotations

import math
from typing import Mapping

from ._lazy import np
from .errors import ConfigParseError
from .model import SETTING_LABELS, EventStream, Record, Setting, WignerDomainDistribution, _as_fraction, domain_key_from_string, l_sign

KINDS = ("singlet", "wigner-domain", "local-delay")

_STREAM_NAMES = ("settings_t", "settings_l", "jitter_t", "jitter_l", "source")

_INT_FIELDS = ("seed", "emission_period_ns", "jitter_ns", "total_pairs", "pairs_per_combination", "max_delay_ns")
_OPTIONAL_FIELDS = ("total_pairs", "pairs_per_combination", "max_delay_ns")


def _finite_real(value) -> bool:
    """True for an int or float (not a bool) that is a finite float."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


class SourceConfig(Record):
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
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_FIELDS:
                continue
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ConfigParseError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.delay_exponent is not None and not _finite_real(self.delay_exponent):
            raise ConfigParseError(f"delay_exponent must be a finite number, got {self.delay_exponent!r}")
        if not 0 <= self.seed < 2**64:
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
        try:
            l_sign(self.convention)
        except ValueError as exc:
            raise ConfigParseError(str(exc)) from None

        if self.kind == "local-delay":
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


def _parse_domain_weights(obj) -> WignerDomainDistribution:
    if not isinstance(obj, dict) or not obj:
        raise ConfigParseError("domain_weights must be a nonempty object of 'sss;ttt' keys")
    try:
        keys = [domain_key_from_string(k) for k in obj]
    except ValueError as exc:
        raise ConfigParseError(f"domain_weights: {exc}")
    n = len(keys[0]) // 2
    if any(len(k) != 2 * n for k in keys):
        raise ConfigParseError("domain_weights keys must all describe the same number of settings")
    settings = SETTING_LABELS[:n]
    try:
        weights = {k: _as_fraction(v) for k, v in zip(keys, obj.values())}
        return WignerDomainDistribution.from_partial(weights, settings=settings)
    except ValueError as exc:
        raise ConfigParseError(f"domain_weights: {exc}")


def config_from_dict(doc: Mapping, seed_override: int | None = None) -> SourceConfig:
    """The config a parsed JSON document describes.  The fields, their
    defaults and which are required are ``SourceConfig``'s; this converts
    only the nested JSON shapes and applies the seed override."""
    if not isinstance(doc, Mapping):
        raise ConfigParseError("config must be a JSON object")
    unknown = sorted(set(doc) - set(SourceConfig._fields))
    if unknown:
        raise ConfigParseError(f"unknown config field(s): {unknown}")
    missing = [k for k in SourceConfig._fields if k not in SourceConfig._defaults and k not in doc]
    if missing:
        raise ConfigParseError(f"missing required config field(s): {missing}")
    if not isinstance(doc["settings"], list) or not doc["settings"]:
        raise ConfigParseError("settings must be a nonempty list of {label, angle_deg} objects")
    settings = []
    for i, s in enumerate(doc["settings"]):
        if not isinstance(s, dict) or set(s) != {"label", "angle_deg"}:
            raise ConfigParseError(f"settings[{i}] must be an object with exactly label and angle_deg")
        if not _finite_real(s["angle_deg"]):
            raise ConfigParseError(f"settings[{i}]: angle_deg must be a finite number, got {s['angle_deg']!r}")
        try:
            settings.append(Setting(s["label"], float(s["angle_deg"])))
        except (ValueError, TypeError) as exc:
            raise ConfigParseError(f"settings[{i}]: {exc}")
    fields = dict(doc, settings=tuple(settings))
    if doc.get("domain_weights") is not None:
        fields["domain_weights"] = _parse_domain_weights(doc["domain_weights"])
    for key in ("station_t_labels", "station_l_labels"):
        menu = doc.get(key)  # SourceConfig stores a menu as a tuple
        if menu is not None and (not isinstance(menu, list) or not all(isinstance(x, str) for x in menu)):
            raise ConfigParseError(f"{key} must be a list of setting labels")
    if seed_override is not None:
        fields["seed"] = seed_override
    try:
        return SourceConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigParseError(str(exc))


def _rngs(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(len(_STREAM_NAMES))
    return {name: np.random.default_rng(child) for name, child in zip(_STREAM_NAMES, children)}


def _setting_plan(config: SourceConfig, rngs) -> tuple[np.ndarray, np.ndarray]:
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
        return it, il
    ppc = config.pairs_per_combination
    return np.repeat(menu_t, len(menu_l) * ppc), np.tile(np.repeat(menu_l, ppc), len(menu_t))


def _strictly_increasing(t: np.ndarray) -> np.ndarray:
    """Minimally bump equal timestamps so the sequence increases strictly.

    Models a one-tick detector dead time; leaves already-strict sequences
    untouched.
    """
    steps = np.arange(len(t), dtype=np.int64)
    return np.maximum.accumulate(t - steps) + steps


def _singlet(config: SourceConfig, rng: np.random.Generator, it: np.ndarray, il: np.ndarray):
    """The singlet closed form, the package's quantum reference source: at
    angle difference theta the outcomes agree with probability
    sin^2(theta/2) under "anti", so E[s s'] = -cos(theta) there."""
    angles = np.array([s.angle_rad for s in config.settings])
    theta = angles[it] - angles[il]
    n = len(it)
    s_left = (2 * rng.integers(0, 2, n) - 1).astype(np.int8)
    same = rng.random(n) < np.sin(theta / 2.0) ** 2
    # L reports -tau under "anti", so tau = -s_left where the outcomes agree
    return s_left, np.where(same, -s_left, s_left), 0, 0


def _wigner_domain(config: SourceConfig, rng: np.random.Generator, it: np.ndarray, il: np.ndarray):
    """One domain (sigma_1..sigma_n; tau_1..tau_n) per emission, drawn from
    the config's explicit distribution over joint outcome domains."""
    dist = config.domain_weights
    nset = dist.n_settings
    keys = list(dist.weights)
    cum = np.cumsum([float(dist.weights[k]) for k in keys])
    cum[-1] = 1.0
    domain_idx = np.searchsorted(cum, rng.random(len(it)), side="right")
    sigma = np.array([k[:nset] for k in keys], dtype=np.int8)
    tau = np.array([k[nset:] for k in keys], dtype=np.int8)
    to_dist_col = np.array([dist.settings.index(l) for l in config.labels], dtype=np.int16)
    return sigma[domain_idx, to_dist_col[it]], tau[domain_idx, to_dist_col[il]], 0, 0


def _local_delay(config: SourceConfig, rng: np.random.Generator, it: np.ndarray, il: np.ndarray):
    """A local deterministic model: a hidden angle lam, uniform on [0, 2*pi)
    per emission, gives each station the value sign(cos(angle - lam)) and
    the delay max_delay_ns * |sin(angle - lam)|^delay_exponent.

    The delay moves detections whose value is near the sign boundary by up
    to max_delay_ns, so window-based pairing post-selects emissions and can
    push |S| past the fixed-pairing bound at small windows.  Each station
    reads only its own setting and lam, which is the locality claim in
    executable form.
    """
    angles = np.array([s.angle_rad for s in config.settings])
    lam = rng.uniform(0.0, 2.0 * np.pi, len(it))

    def station(setting_idx: np.ndarray):
        rel = angles[setting_idx] - lam
        value = np.where(np.cos(rel) >= 0.0, 1, -1).astype(np.int8)
        delay = np.rint(config.max_delay_ns * np.abs(np.sin(rel)) ** config.delay_exponent).astype(np.int64)
        return value, delay

    (s_left, delay_t), (tau, delay_l) = station(it), station(il)
    return s_left, tau, delay_t, delay_l


# kind -> law(config, source rng, T settings, L settings)
#      -> (T outcome, tau at L's setting, T delay, L delay)
_LAWS = {"singlet": _singlet, "wigner-domain": _wigner_domain, "local-delay": _local_delay}


def generate(config: SourceConfig) -> tuple[EventStream, EventStream]:
    """The T and L streams of one run of ``config.kind``."""
    rngs = _rngs(config.seed)
    it, il = _setting_plan(config, rngs)
    s_left, tau, delay_t, delay_l = _LAWS[config.kind](config, rngs["source"], it, il)
    s_right = (l_sign(config.convention) * tau).astype(np.int8)
    base = np.arange(len(it), dtype=np.int64) * config.emission_period_ns
    t_left = base + delay_t + rngs["jitter_t"].integers(0, config.jitter_ns + 1, len(it), dtype=np.int64)
    t_right = base + delay_l + rngs["jitter_l"].integers(0, config.jitter_ns + 1, len(it), dtype=np.int64)
    del base, delay_t, delay_l  # free them before the sorts, the peak of a large run
    streams = []
    for island, t_raw, setting_idx, outcome in (("T", t_left, it, s_left), ("L", t_right, il, s_right)):
        order = np.argsort(t_raw, kind="stable")
        t = _strictly_increasing(t_raw[order])
        streams.append(EventStream(island, config.labels, t, setting_idx[order], outcome[order]))
    return streams[0], streams[1]
