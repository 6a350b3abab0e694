"""Low-level subset-enumeration kernels for the exhaustive semantics oracle.

All kernels work over the 2^n subset lattice encoded as bitmask indices,
vectorized with numpy.  Only the oracle and the tests load this module, so
numpy is needed for them alone.
"""

import numpy as np


def _masks(n, keys, bits):
    """m[k] with bit b set for each (k, b) pair of keys and bits."""
    m = np.zeros(n, dtype=np.int64)
    for k, b in zip(keys, bits):
        m[k] |= np.int64(1) << np.int64(b)
    return m


def conflict_free_flags(n, src, dst):
    """ok[S] iff subset S contains no attack pair: S attacks none of its
    own members."""
    struck = or_over_members(n, _masks(n, src, dst))
    return (struck & np.arange(1 << n, dtype=np.int64)) == 0


def or_over_members(n, masks):
    """f[S] = OR of masks[i] for every i in S."""
    masks = np.asarray(masks, dtype=np.int64)
    f = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        lo, hi = 1 << i, 1 << (i + 1)
        f[lo:hi] = f[0:lo] | np.int64(masks[i])
    return f


def maximal_flags(flags, n):
    """keep[S] iff flags[S] and no strict superset of S is flagged.

    Viewed as shape (-1, 2, 2^i), the middle axis of a subset table is bit
    i of S: [:, 0] holds the subsets without member i, [:, 1] the same
    subsets with it.
    """
    flags = np.asarray(flags, dtype=np.bool_)
    covered = flags.copy()   # covered[S]: S or a superset of S is flagged
    for i in range(n):
        c = covered.reshape(-1, 2, 1 << i)
        c[:, 0] |= c[:, 1]
    strict = np.zeros_like(flags)
    for i in range(n):
        strict.reshape(-1, 2, 1 << i)[:, 0] |= covered.reshape(-1, 2, 1 << i)[:, 1]
    return flags & ~strict


def admissible_flags(n, src, dst):
    """adm[S] iff S is conflict-free and defends each of its members.

    need[S] collects the attackers of S's members; struck[S] the arguments S
    attacks; S is admissible when every needed counter-attack is present.
    """
    struck = or_over_members(n, _masks(n, src, dst))
    need = or_over_members(n, _masks(n, dst, src))
    return conflict_free_flags(n, src, dst) & ((need & ~struck) == 0)
