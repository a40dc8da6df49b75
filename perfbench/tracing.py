"""Spans recorded from outside the program.

``install`` replaces, in the namespaces of ``eprblab.cli``, ``eprblab.stats``
and ``eprblab.pairing``, every function those modules import from another
``eprblab`` module, plus the CLI's own ``_cmd_*`` command functions, with a
wrapper that records one span per call: name, start, end, parent span and
pass identifier.  Spans stay in memory; the caller writes them out when it is
done.  Counts are taken from outside the program as well (stream lengths,
file sizes, a window count by ``searchsorted``, the LP's row labels), inside
a separate ``trace.count`` span so that they are charged to the tracing
overhead and never to the layer that was called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time

import numpy as np

TRACED_MODULES = ("eprblab.cli", "eprblab.stats", "eprblab.pairing")
LAYERS = ("cli", "sources", "ioformats", "model", "pairing", "stats", "feasibility", "counting")


class Recorder:
    """In-memory span list for one process and one pass."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        sid = len(self.spans)
        self.spans.append(
            {
                "id": sid,
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "pass": self.pass_id,
                "start": time.monotonic() if start is None else start,
                "end": None,
                "attrs": {},
            }
        )
        self._open.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid]["end"] = time.monotonic()
        self._open.pop()


def _size(path) -> int:
    return os.path.getsize(path) if isinstance(path, str) and os.path.isfile(path) else 0


def _window_candidates(left, right, window: int) -> int:
    lo = np.searchsorted(right.t_ns, left.t_ns - window, side="left")
    hi = np.searchsorted(right.t_ns, left.t_ns + window, side="right")
    return int((hi - lo).sum())


def _count(name: str, args, kwargs, result) -> dict:
    """Counts for one call, taken from its arguments and result only."""
    layer, func = name.split(".", 1)
    if name == "sources.generate":
        return {"events": len(result[0]) + len(result[1])}
    if name == "pairing.match_pairs_indexed":
        config = args[2] if len(args) > 2 else kwargs["config"]
        return {
            "candidates": _window_candidates(args[0], args[1], config.window_ns),
            "pairs": len(result[0]),
        }
    if name == "feasibility.joint_feasibility":
        n = len(result.setting_labels)
        identified = result.identify_equal_settings
        return {
            "label": "identified" if identified else result.status,
            "lp_rows": len(result.row_labels),
            # the formulation's domain column count, fixed by the setting count
            "lp_cols": 2**n if identified else 4**n,
        }
    if name == "counting.count_triple_classes":
        return {"classes": result.enumerated_count}
    if layer == "ioformats" and args:
        key = "bytes_written" if func.startswith("write_") else "bytes_read"
        return {key: _size(args[0])}
    return {}


def wrap(rec: Recorder, fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        cid = rec.open("trace.count")
        try:
            rec.spans[sid]["attrs"] = _count(name, args, kwargs, result)
        finally:
            rec.close(cid)
        return result

    return traced


def install(rec: Recorder):
    """Wrap the cross-module imports of cli, stats and pairing; return a
    function that puts the original names back."""
    saved = []
    for modname in TRACED_MODULES:
        mod = importlib.import_module(modname)
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj):
                continue
            if obj.__module__ != modname and obj.__module__.startswith("eprblab."):
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
            elif modname == "eprblab.cli" and attr.startswith("_cmd_"):
                name = "cli." + attr[len("_cmd_"):]
            else:
                continue
            saved.append((mod, attr, obj))
            setattr(mod, attr, wrap(rec, obj, name))

    def restore() -> None:
        for mod, attr, obj in saved:
            setattr(mod, attr, obj)

    return restore


# ---------------------------------------------------------------------------
# aggregation


def _durations(spans: list[dict]) -> tuple[dict[int, float], dict[int, float]]:
    """Duration and self time (duration minus direct children) per span id."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child = dict.fromkeys(dur, 0.0)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["id"]]
    return dur, {k: dur[k] - child[k] for k in dur}


def pass_metrics(span_lists: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``span_lists`` holds one span list per process that ran in the pass
    (span ids are only unique within a process).  Times are seconds summed
    over the pass; LP sizes are the largest LP of the pass.
    """
    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0.0) + value

    for spans in span_lists:
        dur, self_t = _durations(spans)
        for s in spans:
            sid, name, attrs = s["id"], s["name"], s["attrs"]
            layer, func = name.split(".", 1)
            if layer in LAYERS and name != "cli.startup":
                add(f"{layer}.self_s", self_t[sid])
            add(f"span.{name}", dur[sid])
            if name == "stats.sweep_window":
                add("stats.sweep_self_s", self_t[sid])
            if name == "pairing.match_pairs_indexed":
                add("pairing.match_calls", 1)
            if name == "feasibility.joint_feasibility":
                add(f"feasibility.joint_feasibility_{attrs['label']}_s", dur[sid])
                for key in ("lp_rows", "lp_cols"):
                    m[f"feasibility.{key}"] = max(m.get(f"feasibility.{key}", 0), attrs[key])
                continue
            for key, value in attrs.items():
                add(f"{layer}.{key}", value)
    return m


def median_per_call(span_lists: list[list[dict]], name: str, attr: str | None = None) -> float | None:
    """Median duration (or attribute) over every call named ``name``; None
    when there is no such call."""
    values = [
        (s["attrs"][attr] if attr else s["end"] - s["start"])
        for spans in span_lists
        for s in spans
        if s["name"] == name
    ]
    return statistics.median(values) if values else None
