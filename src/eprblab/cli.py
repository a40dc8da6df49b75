"""Command line interface.

Exit codes: 0 success, 2 configuration or usage problems (numpy missing
for an array command, or a run that does not fit in memory, among them),
3 malformed or inconsistent input data, 4 violated internal invariants.
Every command that writes a file also writes ``<file>.manifest.json``
(for simulate, ``<out>.manifest.json`` covering both event files), the
document ``_manifest`` builds.  Results and summaries go to stdout as
single JSON objects; diagnostics go to stderr.

At start-up this module imports only ``errors``, ``_lazy`` and ``model``,
so a command compiles and imports only the modules it runs: ``enumerate``
loads ``counting``; ``feasibility`` loads ``feasibility``, which reads the
tally and table files; ``inequalities`` loads ``feasibility`` for its
tally and ``stats`` (with ``pairing``) for the inequality.  Neither exact
command loads the line formats of ``ioformats``.  Each function a command
takes from another module is bound here as a ``_lazy.function``
forwarder, which imports the owning module on its first call.  A
forwarder carries the owner function's ``__module__``, ``__name__`` and
``__qualname__``: per-function tracing, such as the benchmark's, finds
the functions ``cli`` calls by those names, and reads each one as a call
into the owning layer.  The one class ``cli`` uses, ``PairingConfig``, is
imported in the function that uses it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__, _lazy
from .errors import ConfigMismatchError, ConfigParseError, EprbLabError, InternalInvariantError, TooLargeError
from .model import CONVENTIONS, SETTING_LABELS, _exact_text, domain_key_to_string

count_triple_classes = _lazy.function("counting", "count_triple_classes")
enumerate_eu_classes = _lazy.function("counting", "enumerate_eu_classes")
joint_feasibility = _lazy.function("feasibility", "joint_feasibility")
read_tables = _lazy.function("feasibility", "read_tables")
read_tally = _lazy.function("feasibility", "read_tally")
load_config = _lazy.function("ioformats", "load_config")
read_events = _lazy.function("ioformats", "read_events")
read_pairs = _lazy.function("ioformats", "read_pairs")
read_raw_station = _lazy.function("ioformats", "read_raw_station")
sha256_file = _lazy.function("ioformats", "sha256_file")
write_events = _lazy.function("ioformats", "write_events")
write_manifest = _lazy.function("ioformats", "write_manifest")
write_pairs_indexed = _lazy.function("ioformats", "write_pairs_indexed")
write_sweep_csv = _lazy.function("ioformats", "write_sweep_csv")
write_tally = _lazy.function("ioformats", "write_tally")
match_pairs_indexed = _lazy.function("pairing", "match_pairs_indexed")
generate = _lazy.function("sources", "generate")
bell_wigner = _lazy.function("stats", "bell_wigner")
chsh = _lazy.function("stats", "chsh")
sweep_window = _lazy.function("stats", "sweep_window")
tally = _lazy.function("stats", "tally")

USAGE_EXIT = 2
DATA_EXIT = 3
INTERNAL_EXIT = 4


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _require_islands(left, right) -> None:
    if left.island != "T" or right.island != "L":
        raise ConfigMismatchError(
            f"--left must be a T-island file and --right an L-island file, "
            f"got islands {left.island!r} and {right.island!r}"
        )


def _manifest(
    t0: float, command: str, out: str, inputs: list[str], outputs: dict[str, str], parameters: dict,
    seed: int | None = None, config: str | None = None,
) -> None:
    """Write ``<out>.manifest.json`` for a command started at t0: the digest
    of each input file (the config's is also the config digest), the output
    digests the writers returned for the bytes they wrote, and the wall
    time.  No command reads back a file it wrote.  This is the one
    statement of the manifest's keys and their order; each mapping in it
    is sorted by key."""
    digests = {path: sha256_file(path) for path in inputs}
    manifest = {
        "command": command,
        "seed": seed,
        "config_digest": digests.get(config),
        "inputs": dict(sorted(digests.items())),
        "outputs": dict(sorted(outputs.items())),
        "parameters": dict(sorted(parameters.items())),
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - t0, 6),
    }
    write_manifest(f"{out}.manifest.json", manifest)


def _parse_ordering(text: str, kind: str) -> tuple[str, ...]:
    ordering = tuple(part.strip() for part in text.split(","))
    want = 3 if kind == "bell-wigner" else 4
    if len(ordering) != want or len(set(ordering)) != want:
        raise ValueError(f"--ordering for {kind} needs {want} distinct labels, got {text!r}")
    unknown = [label for label in ordering if label not in SETTING_LABELS]
    if unknown:
        raise ValueError(f"--ordering labels must be from {list(SETTING_LABELS)}, got {unknown}")
    return ordering


def _cmd_simulate(args) -> int:
    t0 = time.monotonic()
    config = load_config(args.config, seed_override=args.seed)
    left, right = generate(config)
    t_path, l_path = f"{args.out}.T.jsonl", f"{args.out}.L.jsonl"
    outputs = {t_path: write_events(t_path, left), l_path: write_events(l_path, right)}
    parameters = {"kind": config.kind, "emissions": config.n_emissions()}
    _manifest(t0, "simulate", args.out, [args.config], outputs, parameters, seed=int(config.seed), config=args.config)
    _emit({"t_events": len(left), "l_events": len(right), "t_file": t_path, "l_file": l_path})
    return 0


def _cmd_pair(args) -> int:
    from .pairing import PairingConfig

    t0 = time.monotonic()
    if args.window_ns < 0:
        raise ValueError("--window-ns must be nonnegative")
    left = read_events(args.left)
    right = read_events(args.right)
    _require_islands(left, right)
    mi, mj, unmatched_l, unmatched_r = match_pairs_indexed(left, right, PairingConfig(args.window_ns))
    outputs = {args.out: write_pairs_indexed(args.out, left, right, mi, mj, args.window_ns)}
    parameters = {"window_ns": args.window_ns, "unmatched_left": unmatched_l, "unmatched_right": unmatched_r}
    _manifest(t0, "pair", args.out, [args.left, args.right], outputs, parameters)
    _emit({"pairs": len(mi), "unmatched_left": unmatched_l, "unmatched_right": unmatched_r})
    return 0


def _cmd_tally(args) -> int:
    t0 = time.monotonic()
    pairs = read_pairs(args.pairs)
    table = tally(*pairs)
    n_pairs = len(pairs[2])
    outputs = {args.out: write_tally(args.out, table)}
    _manifest(t0, "tally", args.out, [args.pairs], outputs, {"pairs": n_pairs})
    _emit({"pairs": n_pairs, "setting_pairs": len(table.counts)})
    return 0


def _cmd_inequalities(args) -> int:
    table = read_tally(args.tally)
    ordering = _parse_ordering(args.ordering, args.kind)
    if args.kind == "bell-wigner":
        report = bell_wigner(table, ordering, convention=args.convention)  # type: ignore[arg-type]
    else:
        report = chsh(table, ordering)  # type: ignore[arg-type]
    payload = {
        "kind": report.name,
        "violated": report.violated,
        "statistic": report.statistic,
        "standard_error": report.standard_error,
        "pair_counts": {f"{x};{y}": n for (x, y), n in sorted(report.pair_counts.items())},
        "ordering": list(ordering),
    }
    if args.kind == "bell-wigner":
        payload["lhs"] = report.lhs
        payload["rhs"] = report.rhs
        payload["convention"] = args.convention
    else:
        payload["s_value"] = report.s_value
        payload["bound"] = 2.0
    _emit(payload)
    return 0


def _cmd_sweep(args) -> int:
    t0 = time.monotonic()
    try:
        windows = [int(w) for w in args.windows.split(",") if w.strip()]
    except ValueError:
        raise ValueError(f"--windows must be comma-separated integers, got {args.windows!r}")
    left = read_events(args.left)
    right = read_events(args.right)
    _require_islands(left, right)
    rows = sweep_window(left, right, windows, args.kind, convention=args.convention)
    outputs = {args.out: write_sweep_csv(args.out, rows)}
    parameters = {"kind": args.kind, "windows": windows, "convention": args.convention}
    _manifest(t0, "sweep", args.out, [args.left, args.right], outputs, parameters)
    _emit({"rows": len(rows), "out": args.out})
    return 0


def _cmd_enumerate(args) -> int:
    if args.model is None:
        classes = enumerate_eu_classes(args.M)
        _emit({"M": args.M, "classes": [str(c) for c in classes], "count": len(classes)})
        return 0
    report = count_triple_classes(args.M, args.model)
    _emit(
        {
            "M": report.M,
            "model": report.model.kind,
            "enumerated_count": report.enumerated_count,
            "closed_form": report.closed_form,
            "agrees": report.agrees,
        }
    )
    return 0


def _cmd_feasibility(args) -> int:
    tables, convention = read_tables(args.tables)
    convention = convention or "equal"
    result = joint_feasibility(tables, identify_equal_settings=args.identify_equal_settings, convention=convention)
    payload = {
        "status": result.status,
        "identify_equal_settings": result.identify_equal_settings,
        "convention": result.convention,
        "settings": list(result.setting_labels),
        "lp": {
            "rows": result.lp_rows, "cols": result.lp_cols, "solved_rows": result.solved_rows,
            "solved_cols": result.solved_cols, "exact_pivots": result.exact_pivots,
        },
    }
    if result.witness is not None:
        payload["witness"] = {
            domain_key_to_string(k): _exact_text(w) for k, w in result.witness.weights.items() if w != 0
        }
    if result.certificate is not None:
        payload["certificate"] = {label: _exact_text(v) for label, v in result.certificate.items()}
    _emit(payload)
    return 0


def _cmd_ingest(args) -> int:
    t0 = time.monotonic()
    stream = read_raw_station(args.raw, args.island)
    outputs = {args.out: write_events(args.out, stream)}
    _manifest(t0, "ingest", args.out, [args.raw], outputs, {"island": args.island})
    _emit({"events": len(stream), "island": stream.island, "out": args.out})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprblab",
        description="Simulate, pair, and analyze time-tagged two-station detection experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate two station event files from a config")
    p.add_argument("--config", required=True, help="source config JSON")
    p.add_argument("--out", required=True, help="output prefix; writes <out>.T.jsonl and <out>.L.jsonl")
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pair", help="match two event files into coincidence pairs")
    p.add_argument("--left", required=True, help="T-island event file")
    p.add_argument("--right", required=True, help="L-island event file")
    p.add_argument("--window-ns", type=int, required=True)
    p.add_argument("--out", required=True, help="output pairs JSONL")
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("tally", help="count outcomes per setting pair")
    p.add_argument("--pairs", required=True, help="pairs JSONL")
    p.add_argument("--out", required=True, help="output tally JSON")
    p.set_defaults(func=_cmd_tally)

    p = sub.add_parser("inequalities", help="evaluate an inequality on a tally")
    p.add_argument("--tally", required=True, help="tally JSON")
    p.add_argument("--kind", required=True, choices=["bell-wigner", "chsh"])
    p.add_argument("--ordering", required=True, help="comma-separated setting labels, e.g. a,b,c")
    p.add_argument("--convention", required=True, choices=CONVENTIONS)
    p.set_defaults(func=_cmd_inequalities)

    p = sub.add_parser("sweep", help="evaluate an inequality across coincidence windows")
    p.add_argument("--left", required=True, help="T-island event file")
    p.add_argument("--right", required=True, help="L-island event file")
    p.add_argument("--windows", required=True, help="comma-separated windows in ns, ascending")
    p.add_argument("--kind", required=True, choices=["bell-wigner", "chsh"])
    p.add_argument("--convention", default="anti", choices=CONVENTIONS, help="bell-wigner reporting convention")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("enumerate", help="count correlation classes")
    p.add_argument("--M", type=int, required=True, help="trials per setting pair")
    p.add_argument(
        "--model",
        choices=["independent", "shared", "shared-identified"],
        default=None,
        help="count reachable class triples under this constraint model "
        "(omit to list the single-pair classes)",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("feasibility", help="decide whether tables admit a joint distribution")
    p.add_argument("--tables", required=True, help="tables JSON (counts or exact probabilities)")
    p.add_argument("--identify-equal-settings", action="store_true")
    p.set_defaults(func=_cmd_feasibility)

    p = sub.add_parser("ingest", help="convert a raw station log to the event format")
    p.add_argument("--raw", required=True, help="whitespace-separated 't_ns setting outcome' log")
    p.add_argument("--island", required=True, choices=["T", "L"])
    p.add_argument("--out", required=True, help="output events JSONL")
    p.set_defaults(func=_cmd_ingest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    except MemoryError as exc:  # a run too large for this machine, like one over a guard
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return USAGE_EXIT
    except (ConfigParseError, ConfigMismatchError, TooLargeError, ValueError, ModuleNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (EprbLabError, OSError) as exc:  # every other package error is about the input data
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
