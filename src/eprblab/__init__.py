"""eprblab: a laboratory for two-station coincidence experiments.

Simulate time-tagged detection streams for two measurement stations,
match them into coincidence pairs by a greedy nearest-first policy,
tally and test the resulting correlations against Bell-Wigner and CHSH
bounds, enumerate the combinatorics of correlation classes and outcome
domains exactly, and decide by exact rational programming whether a set
of pairwise tables admits a joint probability distribution.

Importing the package loads none of its modules: each public name is
imported from the module that defines it on first use (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, under the module that defines it
_EXPORTS = {
    "counting": (
        "ClassCountReport", "ConstraintModel", "CounterfactualTriple", "Pairing", "TopologyViolation",
        "TopologyViolationKind", "augment_triple", "count_domains", "count_nonlocal_domains",
        "count_triple_classes", "enumerate_eu_classes", "enumerate_pairings", "per_trial_patterns",
        "setting_grouped_entries", "validate_time_topology",
    ),
    "errors": (
        "ConfigMismatchError", "ConfigParseError", "EmptyCellError", "EprbLabError", "FormatError",
        "InternalInvariantError", "InvalidStreamError", "MalformedTupleError", "SettingCollisionError",
        "SupportViolationError", "TooLargeError",
    ),
    "feasibility": ("FeasibilityResult", "PairwiseTables", "joint_feasibility", "marginalize", "wigner_residual"),
    "model": (
        "BellTriple", "CorrelationClass", "DetectionEvent", "EventStream", "PairRecord", "Setting",
        "StreamViolation", "TallyTable", "ViolationKind", "WignerDomainDistribution", "all_domain_keys",
        "domain_key_from_string", "domain_key_to_string", "l_sign", "require_valid_stream",
    ),
    "pairing": ("PairingConfig", "match_pairs_indexed"),
    "sources": ("SourceConfig", "generate"),
    "stats": (
        "InequalityReport", "SweepRow", "bell_wigner", "chsh", "correlation", "equal_fraction",
        "repair_across_trials", "sweep_window", "tally",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
