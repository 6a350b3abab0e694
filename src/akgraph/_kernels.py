"""Low-level subset-enumeration kernels for the exhaustive semantics oracle.

All kernels work over the 2^n subset lattice encoded as bitmask indices,
vectorized with numpy.  Only the oracle and the tests load this module, so
numpy is needed for them alone.
"""

import numpy as np


def conflict_free_flags(n, src, dst):
    """ok[S] iff subset S contains no attack pair."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    idx = np.arange(1 << n, dtype=np.int64)
    ok = np.ones(1 << n, dtype=np.bool_)
    for a, b in zip(src, dst):
        ok &= ((idx >> np.int64(a)) & (idx >> np.int64(b)) & 1) == 0
    return ok


def or_over_members(n, masks):
    """f[S] = OR of masks[i] for every i in S."""
    masks = np.asarray(masks, dtype=np.int64)
    f = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        lo, hi = 1 << i, 1 << (i + 1)
        f[lo:hi] = f[0:lo] | np.int64(masks[i])
    return f


def maximal_flags(flags, n):
    """keep[S] iff flags[S] and no strict superset of S is flagged."""
    flags = np.asarray(flags, dtype=np.bool_)
    idx = np.arange(1 << n, dtype=np.int64)
    covered = flags.copy()
    for i in range(n):
        unset = np.nonzero(((idx >> i) & 1) == 0)[0]
        covered[unset] |= covered[unset | (1 << i)]
    strict = np.zeros(1 << n, dtype=np.bool_)
    for i in range(n):
        unset = np.nonzero(((idx >> i) & 1) == 0)[0]
        strict[unset] |= covered[unset | (1 << i)]
    return flags & ~strict


def admissible_flags(n, src, dst):
    """adm[S] iff S is conflict-free and defends each of its members.

    need[S] collects the attackers of S's members; struck[S] the arguments S
    attacks; S is admissible when every needed counter-attack is present.
    """
    cf = conflict_free_flags(n, src, dst)
    out_mask = np.zeros(n, dtype=np.int64)
    in_mask = np.zeros(n, dtype=np.int64)
    for a, b in zip(src, dst):
        out_mask[a] |= np.int64(1) << np.int64(b)
        in_mask[b] |= np.int64(1) << np.int64(a)
    struck = or_over_members(n, out_mask)
    need = or_over_members(n, in_mask)
    return cf & ((need & ~struck) == 0)
