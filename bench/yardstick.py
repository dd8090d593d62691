"""Fixed reference work, independent of the program, to gauge the host's speed.

    python bench/yardstick.py

A fresh interpreter imports numpy, does exact rational arithmetic in pure
Python, visits a table of some tens of MB of small Python objects in a
scattered order, and does a few dense symmetric eigensolves: the kinds of work
the CLI requests do.  The table is there because the order-3 `compute`
request's speed seems to follow the host's memory and cache contention, which
a small working set does not feel.  It prints a checksum so the work cannot be
skipped.
"""

from fractions import Fraction

import numpy as np

total = Fraction(0)
for i in range(1, 4000):
    total += Fraction((-1) ** i * (i % 97 + 1), i * (i % 13 + 1))

table = {}
for i in range(40000):
    table[(i % 7, i % 11, i)] = Fraction(i + 1, i % 13 + 1)
keys = list(table)
visited = Fraction(0)
for j in range(50000):
    visited += table[keys[(j * 7919) % len(keys)]]

rng = np.random.default_rng(0)
m = rng.standard_normal((256, 256))
h = m + m.T
trace = 0.0
for _ in range(4):
    w, _v = np.linalg.eigh(h)
    trace += float(w[0])
    h = h + np.diag(np.full(256, 0.01))
print(float(total), float(visited), round(trace, 6))
