"""The per-line reference writers for event and pair files, which the tests
hold ``eprblab.ioformats`` to.

Each row is formatted on its own from an f-string that states the line
layout by hand, and the whole file's bytes are returned at once.
"""

import json


def event_bytes(stream) -> bytes:
    island, labels = stream.island, stream.labels
    lines = [
        f'{{"island":"{island}","t_ns":{t},"setting":"{labels[s]}","outcome":{o}}}\n'
        for t, s, o in zip(stream.t_ns.tolist(), stream.setting_idx.tolist(), stream.outcome.tolist())
    ]
    return "".join(lines).encode("utf-8")


def pair_bytes(left, right, left_idx, right_idx, window_ns: int) -> bytes:
    window = json.dumps(window_ns)
    ll, rl = left.labels, right.labels
    lines = [
        f'{{"t_left_ns":{tl},"t_right_ns":{tr},"setting_left":"{ll[sl]}","setting_right":"{rl[sr]}",'
        f'"outcome_left":{ol},"outcome_right":{orr},"window_ns":{window}}}\n'
        for tl, tr, sl, sr, ol, orr in zip(
            left.t_ns[left_idx].tolist(),
            right.t_ns[right_idx].tolist(),
            left.setting_idx[left_idx].tolist(),
            right.setting_idx[right_idx].tolist(),
            left.outcome[left_idx].tolist(),
            right.outcome[right_idx].tolist(),
        )
    ]
    return "".join(lines).encode("utf-8")
