"""Exhaustive 2^n reference for naive and preferred extensions.

Tabulates every subset of a framework with numpy and keeps the
inclusion-maximal conflict-free (naive) and admissible (preferred) ones.
It shares no code with akgraph.  The benchmark runs it in a child process,
so that its arrays (tens of MB at n = 20) stay out of the benchmark's own
peak memory:

    python3 perfbench/oracle.py < frameworks.json > families.json

Input: a JSON list of {"n": int, "atts": [[i, j], ...]} over indices
0..n-1.  Output: a JSON list of {"naive": [mask, ...], "preferred": [...]},
each mask a subset as a bit set over the same indices.
"""

import json
import sys

import numpy as np

MAX_ARGS = 20


def _maximal(flags, n):
    """flags restricted to subsets with no strict superset in flags."""
    count = flags.astype(np.int32)
    for j in range(n):
        view = count.reshape(-1, 2, 1 << j)
        view[:, 0, :] += view[:, 1, :]
    return flags & (count == 1)


def families(n, atts):
    if n > MAX_ARGS:
        raise ValueError("oracle handles at most %d arguments" % MAX_ARGS)
    attacks = np.zeros(n, dtype=np.int64)      # bit j set: i attacks j
    attackers = np.zeros(n, dtype=np.int64)    # bit j set: j attacks i
    for i, j in atts:
        attacks[i] |= 1 << j
        attackers[j] |= 1 << i
    conflict = attacks | attackers
    idx = np.arange(1 << n, dtype=np.int64)

    cf = np.ones(1, dtype=bool)
    struck = np.zeros(1, dtype=np.int64)
    need = np.zeros(1, dtype=np.int64)
    for i in range(n):
        fits = (idx[:1 << i] & conflict[i]) == 0
        if (attacks[i] >> i) & 1:
            fits[:] = False
        cf = np.concatenate([cf, cf & fits])
        struck = np.concatenate([struck, struck | attacks[i]])
        need = np.concatenate([need, need | attackers[i]])
    admissible = cf & ((need & ~struck) == 0)
    return {"naive": np.nonzero(_maximal(cf, n))[0].tolist(),
            "preferred": np.nonzero(_maximal(admissible, n))[0].tolist()}


def main():
    frameworks = json.load(sys.stdin)
    json.dump([families(f["n"], f["atts"]) for f in frameworks], sys.stdout)


if __name__ == "__main__":
    main()
