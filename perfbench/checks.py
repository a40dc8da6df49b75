"""Correctness checks that do not depend on how the program computes its
answers.  Each check returns ``None`` when the output is right and a short
message naming the first defect otherwise.  They run outside the timed
region.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import numpy as np

CELL_NAMES = {(1, 1): "pp", (1, -1): "pm", (-1, 1): "mp", (-1, -1): "mm"}
LABELS = ("a", "b", "c", "d")
# relative tolerance when a float statistic is compared with its recomputation
TOL = 1e-9


def _lex_less(a, b):
    """Elementwise (a0, a1, a2) < (b0, b1, b2) in lexicographic order."""
    return (a[0] < b[0]) | ((a[0] == b[0]) & ((a[1] < b[1]) | ((a[1] == b[1]) & (a[2] < b[2]))))


def certify_matching(tl, tr, mi, mj, window: int, chunk_edges: int = 1 << 20) -> str | None:
    """Certify that (mi, mj) is the nearest-first greedy matching.

    The matching must be one-to-one with |dt| <= window, and every candidate
    edge it left out must be blocked at one endpoint by an accepted edge with
    a smaller (|dt|, t, t') key.  Keys are distinct, so this holds exactly
    when the matching equals greedy in key order, whatever produced it.
    Candidates are enumerated in chunks of about ``chunk_edges`` edges (at
    least one left event per chunk), so memory stays bounded on dense runs;
    the self-tests certify with ``chunk_edges=1`` to cover chunk boundaries.
    """
    tl = np.asarray(tl, dtype=np.int64)
    tr = np.asarray(tr, dtype=np.int64)
    mi = np.asarray(mi, dtype=np.int64)
    mj = np.asarray(mj, dtype=np.int64)
    if mi.shape != mj.shape:
        return f"{len(mi)} left indices but {len(mj)} right indices"
    if len(mi) and (mi.min() < 0 or mi.max() >= len(tl) or mj.min() < 0 or mj.max() >= len(tr)):
        return "matched index out of range"
    if len(np.unique(mi)) != len(mi) or len(np.unique(mj)) != len(mj):
        return "matching is not one-to-one"
    d = np.abs(tl[mi] - tr[mj])
    if len(d) and d.max() > window:
        return f"matched pair with |dt| = {int(d.max())} > window {window}"

    never = np.iinfo(np.int64).max
    key_l = np.full((3, len(tl)), never, dtype=np.int64)
    key_r = np.full((3, len(tr)), never, dtype=np.int64)
    for key, idx in ((key_l, mi), (key_r, mj)):
        key[0, idx], key[1, idx], key[2, idx] = d, tl[mi], tr[mj]
    partner = np.full(len(tl), -1, dtype=np.int64)
    partner[mi] = mj

    lo = np.searchsorted(tr, tl - window, side="left")
    counts = np.searchsorted(tr, tl + window, side="right") - lo
    ends = np.cumsum(counts)
    start = 0
    while start < len(tl):
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + chunk_edges, side="right")), start + 1)
        c = counts[start:stop]
        i = np.repeat(np.arange(start, stop, dtype=np.int64), c)
        j = np.arange(int(c.sum()), dtype=np.int64) - np.repeat(np.cumsum(c) - c, c) + np.repeat(lo[start:stop], c)
        edge = (np.abs(tl[i] - tr[j]), tl[i], tr[j])
        open_edge = (partner[i] != j) & ~_lex_less(key_l[:, i], edge) & ~_lex_less(key_r[:, j], edge)
        if open_edge.any():
            k = int(np.argmax(open_edge))
            return f"candidate edge t={int(tl[i[k]])}, t'={int(tr[j[k]])} is left out but not blocked"
        start = stop
    return None


def pair_tally(set_l, set_r, out_l, out_r) -> dict[str, dict[str, int]]:
    """Tally-file layout of the given pair columns: {"x;y": {"pp": n, ...}}."""
    table: dict[str, dict[str, int]] = {}
    keys = np.char.add(np.char.add(np.asarray(set_l, dtype=str), ";"), np.asarray(set_r, dtype=str))
    out_l = np.asarray(out_l)
    out_r = np.asarray(out_r)
    for key in np.unique(keys):
        sel = keys == key
        table[str(key)] = {
            name: int(np.count_nonzero(sel & (out_l == s) & (out_r == s2))) for (s, s2), name in CELL_NAMES.items()
        }
    return table


def chsh_s(table: dict[str, dict[str, int]]) -> float | None:
    """S = E(a,b) - E(a,d) + E(c,b) + E(c,d) from a tally layout; None when a
    needed setting pair has no pairs."""
    s = 0.0
    for key, sign in (("a;b", 1), ("a;d", -1), ("c;b", 1), ("c;d", 1)):
        cells = table.get(key)
        n = sum(cells.values()) if cells else 0
        if n == 0:
            return None
        s += sign * (cells["pp"] + cells["mm"] - cells["pm"] - cells["mp"]) / n
    return s


def wigner_statistic(table: dict[str, dict[str, int]]) -> float | None:
    """q(a,b) - (q(a,c) + q(c,b)) on anti-convention data tallied with every
    setting on both sides, q(x,y) being the (+,+) share of the (x;y) pairs."""
    q = []
    for key in ("a;b", "a;c", "c;b"):
        cells = table.get(key)
        n = sum(cells.values()) if cells else 0
        if n == 0:
            return None
        q.append(cells["pp"] / n)
    return q[0] - (q[1] + q[2])


def close(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= TOL * max(1.0, abs(b))


def check_tally(tally_doc: dict, expected: dict) -> str | None:
    if tally_doc != expected:
        return f"tally {json.dumps(tally_doc, sort_keys=True)} != recount {json.dumps(expected, sort_keys=True)}"
    return None


def check_sweep_row(window: int, pairs: int, statistic, certified_pairs: int, expected_statistic) -> str | None:
    if pairs != certified_pairs:
        return f"window {window}: sweep reports {pairs} pairs, certified matching has {certified_pairs}"
    if not close(statistic, expected_statistic):
        return f"window {window}: statistic {statistic!r}, recomputed {expected_statistic!r}"
    return None


def check_same(label: str, got, want) -> str | None:
    return None if got == want else f"{label}: {got!r} differs from {want!r}"


# ---------------------------------------------------------------------------
# exact feasibility and counting


def domain_keys(n: int) -> list[tuple[int, ...]]:
    return list(itertools.product((1, -1), repeat=2 * n))


def marginals(weights: dict[tuple[int, ...], Fraction], n: int, convention: str) -> dict[str, dict[str, Fraction]]:
    """Exact tables of every ordered setting pair (x on T, y on L) induced by
    weights on domains (sigma_1..sigma_n; tau_1..tau_n)."""
    flip = -1 if convention == "anti" else 1
    out = {}
    for ix, x in enumerate(LABELS[:n]):
        for iy, y in enumerate(LABELS[:n]):
            cells = dict.fromkeys(CELL_NAMES.values(), Fraction(0))
            for key, w in weights.items():
                cells[CELL_NAMES[(key[ix], flip * key[n + iy])]] += w
            out[f"{x};{y}"] = cells
    return out


def check_status(got: str, want: str) -> str | None:
    return None if got == want else f"status {got!r}, known answer {want!r}"


def check_witness(result: dict, tables: dict, identify: bool, convention: str, marginalize) -> str | None:
    """The witness must be a distribution and re-marginalize, through the
    program's ``marginalize``, to exactly the input tables."""
    from eprblab.errors import EprbLabError
    from eprblab.model import WignerDomainDistribution, domain_key_from_string

    witness = result.get("witness")
    if not witness:
        return "feasible answer without a witness"
    labels = tuple(result["settings"])
    try:
        dist = WignerDomainDistribution.from_partial(
            {domain_key_from_string(k): Fraction(v) for k, v in witness.items()}, settings=labels
        )
    except ValueError as exc:
        return f"witness is not a distribution: {exc}"
    pairs = [tuple(k.split(";")) for k in tables]
    try:
        got = marginalize(dist, pairs, identify, convention).tables
    except (ValueError, EprbLabError) as exc:
        return f"witness does not re-marginalize: {exc}"
    want = {tuple(k.split(";")): {c: tables[k][name] for c, name in CELL_NAMES.items()} for k in tables}
    return None if got == want else "witness does not re-marginalize to the tables"


def check_certificate(result: dict, tables: dict, identify: bool, convention: str) -> str | None:
    """y . b > 0 and y . A_d <= 0 for every domain column d, recomputed here."""
    cert = result.get("certificate")
    if not cert:
        return "infeasible answer without a certificate"
    y = {label: Fraction(v) for label, v in cert.items()}
    rows = {f"{k}:{name}": p for k, cells in tables.items() for name, p in cells.items()}
    if set(y) != set(rows) | {"normalization"}:
        return "certificate rows do not match the LP rows"
    if sum(y[r] * b for r, b in rows.items()) + y["normalization"] <= 0:
        return "certificate does not separate the tables"
    n = len(result["settings"])
    flip = -1 if convention == "anti" else 1
    for key in domain_keys(n):
        if identify and key[:n] != key[n:]:
            continue
        total = y["normalization"]
        for pair in tables:
            x, yy = pair.split(";")
            cell = CELL_NAMES[(key[LABELS.index(x)], flip * key[n + LABELS.index(yy)])]
            total += y[f"{pair}:{cell}"]
        if total > 0:
            return f"certificate fails on domain column {key}"
    return None


def shared_identified_classes(M: int) -> int:
    """Distinct (ab, ac, bc) equal-count triples over M trials when each trial
    draws symbols s1, s2, t3 and pair ab compares s1 to s2, ac s1 to t3, bc
    s2 to t3 (the shared-identified model)."""
    patterns = {(s1 == s2, s1 == t3, s2 == t3) for s1, s2, t3 in itertools.product((1, -1), repeat=3)}
    reach = {(0, 0, 0)}
    for _ in range(M):
        reach = {(a + p[0], b + p[1], c + p[2]) for a, b, c in reach for p in patterns}
    return len(reach)


def check_enumerate(result: dict, M: int) -> str | None:
    want = shared_identified_classes(M)
    if result.get("enumerated_count") != want:
        return f"enumerated_count {result.get('enumerated_count')!r}, independent count {want}"
    if result.get("closed_form") != (M + 1) ** 2 or result.get("agrees") != (want == (M + 1) ** 2):
        return "closed_form or agrees flag inconsistent with the count"
    return None
