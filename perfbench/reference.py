"""Reference loop: a fixed mix of the kinds of work the workloads do, timed
by ``run.py`` as a whole process to measure how fast the machine runs at the
moment.  It runs no eprblab code, so a change to the program does not move it.

Usage: python3 perfbench/reference.py SCRATCH_FILE
"""

import json
import sys
from fractions import Fraction

import numpy  # noqa: F401  (import time is part of the reference, as in every CLI step)

a = [Fraction(i * 7919 + 1, 10**9 + i) for i in range(200)]
for _ in range(10):
    a = [x - Fraction(3, 7) * y for x, y in zip(a, a[1:] + a[:1])]
with open(sys.argv[1], "w", encoding="utf-8") as f:
    for i in range(20000):
        f.write(json.dumps({"t_ns": i * 1000, "setting": "abcd"[i % 4], "outcome": 1 - 2 * (i % 2)}) + "\n")
with open(sys.argv[1], encoding="utf-8") as f:
    rows = [json.loads(line) for line in f]
if len(rows) != 20000:
    sys.exit("reference loop read back the wrong number of rows")
