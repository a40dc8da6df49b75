"""The eprblab benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed (several times, to time set-up),
runs passes of the workload until S seconds of passes have been measured,
checks every output, and prints every metric by name with its unit.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured with tracing off, with times given at a
fixed machine speed (see ``REFERENCE_NOMINAL_S``).  With ``--trace 1``
untraced and traced passes alternate, and the metrics are the per-layer
ones from the traced passes, plus ``trace.overhead_s``.  A per-layer metric
the workload does not exercise reads 0; one that the workload lists in its
``layer_metrics`` but that no traced pass produced makes ``correct`` false.

Exits 2 without a result when the checkout holds no eprblab source.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/eprblab/cli.py", "configs/local_delay_chsh.json", "configs/singlet_bell.json")
SETUP_REPEATS = 7

E2E_UNITS = {"wall_norm_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# The speed of a shared machine drifts by half over minutes, and a whole run
# can fall in a slow or a fast minute.  End-to-end times are therefore given
# at a fixed speed: measured seconds times REFERENCE_NOMINAL_S over the
# median time of reference_loop in the same run.
REFERENCE_NOMINAL_S = 0.4

CLI_COMMANDS = ("simulate", "pair", "tally", "inequalities", "sweep", "enumerate", "feasibility", "ingest")
# per-layer metric name -> key in tracing.pass_metrics ("span.X" is the summed duration of spans named X)
LAYER_KEYS = {
    "ioformats.write_events_s": "span.ioformats.write_events",
    "ioformats.read_events_s": "span.ioformats.read_events",
    "ioformats.read_raw_station_s": "span.ioformats.read_raw_station",
    "ioformats.write_pairs_s": "span.ioformats.write_pairs_indexed",
    "ioformats.read_pairs_s": "span.ioformats.read_pairs",
    "ioformats.sha256_s": "span.ioformats.sha256_file",
    "ioformats.manifest_s": "span.ioformats.write_manifest",
    "ioformats.bytes_written": "ioformats.bytes_written",
    "ioformats.bytes_read": "ioformats.bytes_read",
    "stats.tally_s": "span.stats.tally",
    "stats.sweep_self_s": "stats.sweep_self_s",
    "pairing.match_s": "span.pairing.match_pairs_indexed",
    "pairing.match_calls": "pairing.match_calls",
    "pairing.candidates": "pairing.candidates",
    "pairing.pairs_out": "pairing.pairs",
    "model.require_valid_stream_s": "span.model.require_valid_stream",
    "feasibility.joint_feasibility_feasible_s": "feasibility.joint_feasibility_feasible_s",
    "feasibility.joint_feasibility_infeasible_s": "feasibility.joint_feasibility_infeasible_s",
    "feasibility.joint_feasibility_identified_s": "feasibility.joint_feasibility_identified_s",
    "feasibility.lp_rows": "feasibility.lp_rows",
    "feasibility.lp_cols": "feasibility.lp_cols",
    "counting.count_triple_classes_s": "span.counting.count_triple_classes",
    "counting.classes": "counting.classes",
    **{f"cli.{c}_s": f"span.cli.{c}" for c in CLI_COMMANDS},
    "cli.startup_s": "span.cli.startup",
    **{f"{layer}.self_s": f"{layer}.self_s" for layer in tracing.LAYERS},
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("ioformats.bytes"):
        return "bytes"
    return "ratio" if name == "pairing.yield" else "count"


def reference_loop(work: Path) -> float:
    """Seconds taken by one run of ``reference.py`` in a fresh process."""
    path = work / "reference.jsonl"
    start = time.monotonic()
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "reference.py"), str(path)], check=True, timeout=60)
    elapsed = time.monotonic() - start
    path.unlink()
    return elapsed


def measure_setup(env, workload, generate) -> float:
    """Interpreter start and package import in a fresh process, then building
    the workload's inputs."""
    shutil.rmtree(env.inputs, ignore_errors=True)
    env.inputs.mkdir(parents=True)
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import eprblab.cli"], env=env.child_env, check=True, timeout=60)
    workload.setup(env, generate)
    return time.monotonic() - start


def run_workload(args) -> tuple[dict, list[tuple[str, float, str]], int, int, list[str]]:
    import checks
    import selftest
    import workloads
    from eprblab import sources

    problems = [f"self-test {p}" for p in selftest.run()]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    env = workloads.Env(ROOT, work, args.seed)
    workload = workloads.WORKLOADS[args.workload]()
    setup_spans: list[list[dict]] = []
    try:
        setup_times, reference_times = [], []
        for _ in range(SETUP_REPEATS):
            generate = sources.generate
            if args.trace:
                rec = tracing.Recorder("setup")
                setup_spans.append(rec.spans)
                generate = tracing.wrap(rec, generate, "sources.generate")
            setup_times.append(measure_setup(env, workload, generate))
            reference_times.append(reference_loop(work))

        passes: list[workloads.Pass] = []
        measured = 0.0
        while measured < args.seconds or (args.trace and len(passes) < 2):
            traced = bool(args.trace) and len(passes) % 2 == 1
            p = workloads.Pass(f"p{len(passes)}", traced, work / f"p{len(passes)}")
            p.directory.mkdir()
            start = time.monotonic()
            workload.run_pass(env, p)
            p.wall_s = time.monotonic() - start
            measured += p.wall_s
            passes.append(p)
            reference_times.append(reference_loop(work))
        self_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        attempted = failed = 0
        reference = None
        for p in passes:
            errors = {op.name: op.error for op in p.ops if op.error is not None}
            digests = {op.name: op.digest() for op in p.ops if op.error is None}
            if reference is None:
                errors.update(workload.check(env, p))
                reference = digests
            else:
                for name, digest in digests.items():
                    err = checks.check_same("output digest vs the first pass", digest, reference.get(name))
                    if err is not None:
                        errors.setdefault(name, err)
            for name, err in errors.items():
                problems.append(f"{p.pass_id} {name}: {err}")
            attempted += len(p.ops)
            failed += len(errors)
            shutil.rmtree(p.directory)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    wall = [p.wall_s for p in untraced]
    if workload.in_process:
        peak_mb = self_rss_kb / 1024
    else:
        peak_mb = statistics.median(max(op.maxrss_kb for op in p.ops) for p in untraced) / 1024
    reference = statistics.median(reference_times)
    scale = REFERENCE_NOMINAL_S / reference
    rows = [
        ("wall_s", statistics.median(wall), f"s  median of {len(wall)} passes, {min(wall):.3f} to {max(wall):.3f}"),
        ("reference_s", reference, f"s  median of {len(reference_times)} reference loops"),
        ("wall_norm_s", statistics.median(wall) * scale, f"s  wall_s at a reference loop of {REFERENCE_NOMINAL_S} s"),
        ("peak_rss_mb", peak_mb, "MB"),
        ("setup_raw_s", statistics.median(setup_times), f"s  median of {len(setup_times)} set-ups"),
        ("setup_s", statistics.median(setup_times) * scale, f"s  setup_raw_s at a reference loop of {REFERENCE_NOMINAL_S} s"),
        ("fail_ratio", failed / attempted, f"  {failed} of {attempted} operations failed"),
    ]
    metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value, _ in rows if name in E2E_UNITS}
    if args.trace:
        traced_passes = [p for p in passes if p.traced]
        per_pass = [tracing.pass_metrics(p.spans) for p in traced_passes]
        # None: some traced pass lacks the span the metric is taken from
        layer = {
            name: statistics.median(m[key] for m in per_pass) if all(key in m for m in per_pass) else None
            for name, key in LAYER_KEYS.items()
        }
        pairs, candidates = layer["pairing.pairs_out"], layer["pairing.candidates"]
        layer["pairing.yield"] = pairs / candidates if candidates else None
        generate_spans = setup_spans + [s for p in traced_passes for s in p.spans]
        layer["sources.generate_s"] = tracing.median_per_call(generate_spans, "sources.generate")
        layer["sources.events_out"] = tracing.median_per_call(generate_spans, "sources.generate", "events")
        layer["trace.overhead_s"] = statistics.median(p.wall_s for p in traced_passes) - statistics.median(wall)
        for name in sorted(layer):
            note = ""
            if layer[name] is None:
                note = "  not exercised by this workload"
                if any(fnmatch.fnmatchcase(name, pattern) for pattern in workload.layer_metrics):
                    problems.append(f"traced passes produced no {name}: a span it is taken from never occurred")
                    note = "  MISSING"
                layer[name] = 0.0
            rows.append((name, layer[name], layer_unit(name) + note))
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layer.items()}
    return metrics, rows, attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["localdelay-cli", "singlet-sweep", "exact-menu"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: no eprblab checkout at {ROOT} (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    metrics, rows, attempted, failed, problems = run_workload(args)
    for line in problems:
        print(f"problem: {line}")
    for name, value, unit in rows:
        print(f"{name:45s} {value:14.6g} {unit}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
