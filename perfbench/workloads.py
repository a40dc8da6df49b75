"""The three workloads: inputs built from the seed, one pass of work, and the
checks on a pass's outputs.

Every workload is closed-loop with one client: steps run one after another
and at most one child process is alive at a time.  The program sees only the
generated inputs (config files, raw station logs, tables files).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
import tracing
from eprblab import feasibility, pairing, stats
from eprblab.ioformats import load_config

STEP_TIMEOUT_S = 120
PATH_KEYS = ("t_file", "l_file", "out")


@dataclass
class Op:
    """One attempted operation: a CLI command or a library call."""

    name: str
    error: str | None = None
    result: object = None
    outputs: tuple[Path, ...] = ()
    maxrss_kb: int = 0

    def digest(self) -> str:
        h = hashlib.sha256(json.dumps(self.result, sort_keys=True, default=repr).encode())
        for path in self.outputs:
            h.update(path.read_bytes() if path.is_file() else b"<missing>")
        return h.hexdigest()


@dataclass
class Pass:
    pass_id: str
    traced: bool
    directory: Path
    wall_s: float = 0.0
    ops: list[Op] = field(default_factory=list)
    spans: list[list[dict]] = field(default_factory=list)


class Env:
    """Where a run lives: the checkout, its work directory and the seed."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.inputs = work / "inputs"
        self.child_env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run_cli(self, p: Pass, name: str, argv: list[str], outputs=()) -> Op:
        """Run one ``eprblab`` command in a child process, traced through the
        launcher when the pass is traced."""
        op = Op(name, outputs=tuple(outputs))
        out_path, err_path = p.directory / f"{name}.stdout", p.directory / f"{name}.stderr"
        spans_path = p.directory / f"{name}.spans.json"
        timed_out = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawn = time.monotonic()
            if p.traced:
                launcher = str(self.root / "perfbench" / "launcher.py")
                cmd = [sys.executable, launcher, str(spans_path), p.pass_id, repr(spawn), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "eprblab.cli", *argv]
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.child_env, cwd=self.root)

            def kill() -> None:
                timed_out.set()
                os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(STEP_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        op.maxrss_kb = usage.ru_maxrss
        if timed_out.is_set():
            op.error = f"timed out after {STEP_TIMEOUT_S} s"
        elif "Traceback" in stderr:
            op.error = "traceback on stderr: " + stderr.strip().splitlines()[-1]
        elif proc.returncode != 0:
            op.error = f"exit {proc.returncode}: {stderr.strip()[-300:]}"
        else:
            try:
                doc = json.loads(stdout.strip().splitlines()[-1])
                op.result = {k: v for k, v in doc.items() if k not in PATH_KEYS}
            except (json.JSONDecodeError, IndexError, AttributeError):
                op.error = f"stdout is not one JSON object: {stdout[:200]!r}"
        if p.traced and spans_path.is_file():
            p.spans.append(json.loads(spans_path.read_text()))
        return op


def matched_columns(left, right, mi, mj):
    """(T setting, L setting, T outcome, L outcome) of the matched pairs."""
    return (
        np.asarray(left.labels)[left.setting_idx[mi]],
        np.asarray(right.labels)[right.setting_idx[mj]],
        left.outcome[mi],
        right.outcome[mj],
    )


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# localdelay-cli


class LocalDelayCli:
    """The file-bound user pipeline, one CLI command per step."""

    name = "localdelay-cli"
    emissions = 100_000
    pair_window = 1000
    sweep_windows = (100, 300, 1000, 3000, 10000, 30000)
    in_process = False
    # per-layer metrics a traced pass must produce (fnmatch patterns)
    layer_metrics = (
        "cli.simulate_s", "cli.ingest_s", "cli.pair_s", "cli.tally_s", "cli.inequalities_s", "cli.sweep_s",
        "cli.startup_s", "cli.self_s", "ioformats.*", "stats.*", "pairing.*", "model.*", "sources.*",
        "trace.overhead_s",
    )

    def setup(self, env: Env, generate) -> None:
        doc = json.loads((env.root / "configs" / "local_delay_chsh.json").read_text())
        doc.update(total_pairs=self.emissions, seed=env.seed)
        self.config = env.inputs / "local_delay.json"
        _write_json(self.config, doc)
        self.left, self.right = generate(load_config(str(self.config)))
        for stream in (self.left, self.right):
            labels = np.asarray(stream.labels)[stream.setting_idx]
            signs = np.where(stream.outcome > 0, "+1", "-1")
            lines = [f"{t} {s} {o}" for t, s, o in zip(stream.t_ns.tolist(), labels.tolist(), signs.tolist())]
            (env.inputs / f"raw.{stream.island}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    def run_pass(self, env: Env, p: Pass) -> None:
        d = p.directory
        ing = {isl: d / f"ingest.{isl}.jsonl" for isl in "TL"}
        pairs, tally, sweep = d / "pairs.jsonl", d / "tally.json", d / "sweep.csv"
        windows = ",".join(map(str, self.sweep_windows))
        steps = [
            ("simulate", ["simulate", "--config", str(self.config), "--out", str(d / "sim")],
             [d / "sim.T.jsonl", d / "sim.L.jsonl"]),
            ("ingest-T", ["ingest", "--raw", str(env.inputs / "raw.T.txt"), "--island", "T", "--out", str(ing["T"])],
             [ing["T"]]),
            ("ingest-L", ["ingest", "--raw", str(env.inputs / "raw.L.txt"), "--island", "L", "--out", str(ing["L"])],
             [ing["L"]]),
            ("pair", ["pair", "--left", str(ing["T"]), "--right", str(ing["L"]),
                      "--window-ns", str(self.pair_window), "--out", str(pairs)], [pairs]),
            ("tally", ["tally", "--pairs", str(pairs), "--out", str(tally)], [tally]),
            ("inequalities", ["inequalities", "--tally", str(tally), "--kind", "chsh",
                              "--ordering", "a,b,c,d", "--convention", "anti"], []),
            ("sweep", ["sweep", "--left", str(ing["T"]), "--right", str(ing["L"]),
                       "--windows", windows, "--kind", "chsh", "--out", str(sweep)], [sweep]),
        ]
        for name, argv, outputs in steps:
            p.ops.append(env.run_cli(p, name, argv, outputs))

    def check(self, env: Env, p: Pass) -> dict[str, str]:
        ops = {op.name: op for op in p.ops if op.error is None}
        d = p.directory
        errors: dict[str, str | None] = {}
        for isl in "TL":
            if f"ingest-{isl}" in ops and "simulate" in ops:
                same = (d / f"ingest.{isl}.jsonl").read_bytes() == (d / f"sim.{isl}.jsonl").read_bytes()
                errors[f"ingest-{isl}"] = None if same else "ingest output differs from the simulate output"

        pair_count = None
        if "pair" in ops:
            errors["pair"], cols = self._check_pairs(d / "pairs.jsonl", ops["pair"].result)
            if errors["pair"] is None:
                pair_count = len(cols[0])
                table = checks.pair_tally(*cols[2:])
                if "tally" in ops:
                    doc = json.loads((d / "tally.json").read_text())
                    errors["tally"] = checks.check_tally(doc, table)
                if "inequalities" in ops:
                    s = checks.chsh_s(table)
                    res = ops["inequalities"].result
                    ok = checks.close(res.get("s_value"), s) and res.get("violated") == (abs(s) > 2)
                    errors["inequalities"] = None if ok else f"s_value {res.get('s_value')!r}, recomputed {s!r}"

        if "sweep" in ops:
            errors["sweep"] = self._check_sweep(d / "sweep.csv", pair_count)
        return {k: v for k, v in errors.items() if v is not None}

    def _check_pairs(self, path: Path, stdout: dict):
        rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        col = {k: np.array([r[k] for r in rows]) for k in
               ("t_left_ns", "t_right_ns", "setting_left", "setting_right", "outcome_left", "outcome_right", "window_ns")}
        tl, tr = self.left.t_ns, self.right.t_ns
        mi = np.searchsorted(tl, col["t_left_ns"]).astype(np.int64)
        mj = np.searchsorted(tr, col["t_right_ns"]).astype(np.int64)
        if len(rows) and (mi.max() >= len(tl) or mj.max() >= len(tr)
                          or (tl[mi] != col["t_left_ns"]).any() or (tr[mj] != col["t_right_ns"]).any()):
            return "pair times are not event times", None
        want = matched_columns(self.left, self.right, mi, mj)
        got = (col["setting_left"], col["setting_right"], col["outcome_left"], col["outcome_right"])
        if len(rows) and (any((g != w).any() for g, w in zip(got, want)) or (col["window_ns"] != self.pair_window).any()):
            return "pair settings, outcomes or window do not match the events", None
        summary = {"pairs": len(rows), "unmatched_left": len(tl) - len(rows), "unmatched_right": len(tr) - len(rows)}
        if stdout != summary:
            return f"pair summary {stdout} != {summary}", None
        return checks.certify_matching(tl, tr, mi, mj, self.pair_window), (mi, mj, *got)

    def _check_sweep(self, path: Path, pair_count) -> str | None:
        lines = path.read_text().splitlines()[1:]
        if [int(line.split(",")[0]) for line in lines] != list(self.sweep_windows):
            return "sweep windows differ from the requested ones"
        for line in lines:
            w, n, stat = line.split(",")[:3]
            w, n = int(w), int(n)
            mi, mj, _, _ = pairing.match_pairs_indexed(self.left, self.right, pairing.PairingConfig(w))
            err = checks.certify_matching(self.left.t_ns, self.right.t_ns, mi, mj, w)
            if err is None:
                s = checks.chsh_s(checks.pair_tally(*matched_columns(self.left, self.right, mi, mj)))
                statistic = None if stat == "EmptyCell" else float(stat)
                err = checks.check_sweep_row(w, n, statistic, len(mi), s)
            if err is None and w == self.pair_window and pair_count is not None and n != pair_count:
                err = f"window {w}: sweep has {n} pairs, pair has {pair_count}"
            if err is not None:
                return err
        return None


# ---------------------------------------------------------------------------
# singlet-sweep


class SingletSweep:
    """Library-API window scan over a dense singlet run."""

    name = "singlet-sweep"
    emissions = 100_000
    windows = (100, 300, 1000, 3000, 10000, 30000, 100000)
    in_process = True
    layer_metrics = (
        "pairing.*", "model.*", "stats.sweep_self_s", "stats.self_s", "sources.generate_s", "sources.events_out",
        "trace.overhead_s",
    )

    def setup(self, env: Env, generate) -> None:
        doc = json.loads((env.root / "configs" / "singlet_bell.json").read_text())
        doc.pop("pairs_per_combination")
        doc.update(total_pairs=self.emissions, emission_period_ns=1000, seed=env.seed)
        path = env.inputs / "singlet.json"
        _write_json(path, doc)
        self.left, self.right = generate(load_config(str(path)))

    def run_pass(self, env: Env, p: Pass) -> None:
        sweep = stats.sweep_window
        restore = None
        if p.traced:
            rec = tracing.Recorder(p.pass_id)
            p.spans.append(rec.spans)
            restore = tracing.install(rec)
            sweep = tracing.wrap(rec, sweep, "stats.sweep_window")
        op = Op("sweep_window")
        try:
            rows = sweep(self.left, self.right, self.windows, "bell-wigner", ("a", "b", "c"), "anti")
            op.result = [[r.window_ns, r.pairs, r.statistic, r.stderr, r.violated] for r in rows]
        except Exception as exc:  # any exception is a failed operation, reported by name
            op.error = f"{type(exc).__name__}: {exc}"
        finally:
            if restore is not None:
                restore()
        p.ops.append(op)

    def check(self, env: Env, p: Pass) -> dict[str, str]:
        op = p.ops[0]
        if op.error is not None:
            return {}
        if [r[0] for r in op.result] != list(self.windows):
            return {op.name: "sweep windows differ from the requested ones"}
        left, right = self.left, self.right
        for w, n, statistic, _stderr, _violated in op.result:
            mi, mj, _, _ = pairing.match_pairs_indexed(left, right, pairing.PairingConfig(w))
            err = checks.certify_matching(left.t_ns, right.t_ns, mi, mj, w)
            if err is None:
                table = checks.pair_tally(*matched_columns(left, right, mi, mj))
                err = checks.check_sweep_row(w, n, statistic, len(mi), checks.wigner_statistic(table))
            if err is not None:
                return {op.name: err}
        return {}


# ---------------------------------------------------------------------------
# exact-menu


def _domain_weights(keys, support: int, rng) -> dict:
    """Weights on a fixed random set of ``support`` keys: fixed base weights
    plus a seeded perturbation about 1e-9 of each weight, with a fixed total.
    The base is drawn from a wide range, so no two sums of base weights tie:
    every table entry changes with the seed while the simplex takes the same
    pivots, and the LP does the same work each seed."""
    base_rng = np.random.default_rng(161203606)
    chosen = np.sort(base_rng.choice(len(keys), support, replace=False))
    base = base_rng.integers(10**6, 2 * 10**6, support)
    counts = base * 1000 + rng.multinomial(1280, np.full(support, 1 / support))
    total = int(counts.sum())
    return {keys[i]: Fraction(int(c), total) for i, c in zip(chosen, counts)}


class ExactMenu:
    """Exact rational feasibility on the full 4-setting menu, and counting."""

    name = "exact-menu"
    # domain points the feasible distribution puts weight on: with 8 of the
    # 256 the simplex makes 94 pivots (about 3 s), so a run holds several
    # passes; with all 256 it makes 306 (12 to 20 s)
    feasible_support = 8
    enumerate_M = 9
    in_process = False
    layer_metrics = (
        "cli.feasibility_s", "cli.enumerate_s", "cli.startup_s", "cli.self_s", "feasibility.*", "counting.*",
        "trace.overhead_s",
    )

    def setup(self, env: Env, generate) -> None:
        rng = np.random.default_rng([env.seed, 3])
        keys = checks.domain_keys(4)
        feasible = checks.marginals(_domain_weights(keys, self.feasible_support, rng), 4, "equal")
        identified_keys = [k for k in keys if k[:4] == k[4:]]
        identified = checks.marginals(_domain_weights(identified_keys, len(identified_keys), rng), 4, "equal")

        denominator = int(rng.integers(900, 1100))
        angles = (0, 45, 90, 135)
        singlet = {}
        for ix, x in enumerate(checks.LABELS):
            for iy, y in enumerate(checks.LABELS):
                e = Fraction(-round(float(np.cos(np.radians(angles[ix] - angles[iy]))) * denominator), denominator)
                singlet[f"{x};{y}"] = {name: (1 + s * s2 * e) / 4 for (s, s2), name in checks.CELL_NAMES.items()}

        # (name, tables, convention, identify, known status)
        self.cases = [
            ("feasible", feasible, "equal", False, "feasible"),
            ("infeasible", singlet, "anti", False, "infeasible"),
            ("identified", identified, "equal", True, "feasible"),
        ]
        for name, tables, convention, _identify, _status in self.cases:
            doc = {"convention": convention,
                   "tables": {k: {c: str(v) for c, v in cells.items()} for k, cells in tables.items()}}
            _write_json(env.inputs / f"{name}.json", doc)

    def run_pass(self, env: Env, p: Pass) -> None:
        for name, _tables, _convention, identify, _status in self.cases:
            argv = ["feasibility", "--tables", str(env.inputs / f"{name}.json")]
            if identify:
                argv.append("--identify-equal-settings")
            p.ops.append(env.run_cli(p, f"feasibility-{name}", argv))
        argv = ["enumerate", "--M", str(self.enumerate_M), "--model", "shared-identified"]
        p.ops.append(env.run_cli(p, "enumerate", argv))

    def check(self, env: Env, p: Pass) -> dict[str, str]:
        ops = {op.name: op for op in p.ops if op.error is None}
        errors: dict[str, str | None] = {}
        for name, tables, convention, identify, status in self.cases:
            op = ops.get(f"feasibility-{name}")
            if op is None:
                continue
            res = op.result
            err = checks.check_status(res.get("status"), status)
            if err is None and status == "feasible":
                err = checks.check_witness(res, tables, identify, convention, feasibility.marginalize)
            elif err is None:
                err = checks.check_certificate(res, tables, identify, convention)
            errors[op.name] = err
        if "enumerate" in ops:
            errors["enumerate"] = checks.check_enumerate(ops["enumerate"].result, self.enumerate_M)
        return {k: v for k, v in errors.items() if v is not None}


WORKLOADS = {w.name: w for w in (LocalDelayCli, SingletSweep, ExactMenu)}
