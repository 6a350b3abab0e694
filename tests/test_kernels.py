import itertools

import numpy as np
import pytest

from akgraph import _kernels as K


def subsets_where(flags):
    return {int(s) for s in np.nonzero(flags)[0]}


def slow_cf(n, atts):
    out = set()
    for s in range(1 << n):
        if not any((s >> a) & 1 and (s >> b) & 1 for a, b in atts):
            out.add(s)
    return out


def slow_adm(n, atts):
    out = set()
    for s in range(1 << n):
        members = [i for i in range(n) if (s >> i) & 1]
        if any((s >> a) & 1 and (s >> b) & 1 for a, b in atts):
            continue
        ok = True
        for m in members:
            for a, b in atts:
                if b == m and not any((x, a) in atts and (s >> x) & 1
                                      for x in members):
                    ok = False
        if ok:
            out.add(s)
    return out


CASES = [
    (0, []),
    (1, []),
    (1, [(0, 0)]),
    (2, [(0, 1)]),
    (2, [(0, 1), (1, 0)]),
    (3, [(0, 1), (1, 2)]),
    (4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]),
    (5, [(0, 0), (0, 1), (2, 3), (4, 2), (3, 4)]),
]


@pytest.mark.parametrize("n,atts", CASES)
def test_cf_flags_against_slow(n, atts):
    src = [a for a, _ in atts]
    dst = [b for _, b in atts]
    assert subsets_where(K.conflict_free_flags(n, src, dst)) == slow_cf(n, atts)


@pytest.mark.parametrize("n,atts", CASES)
def test_admissible_flags_against_slow(n, atts):
    src = [a for a, _ in atts]
    dst = [b for _, b in atts]
    assert subsets_where(K.admissible_flags(n, src, dst)) == slow_adm(n, atts)


def test_or_over_members():
    masks = [0b001, 0b110, 0b100]
    f = K.or_over_members(3, masks)
    for s in range(8):
        want = 0
        for i in range(3):
            if (s >> i) & 1:
                want |= masks[i]
        assert f[s] == want


def test_maximal_flags():
    # family {0b00, 0b01, 0b11}: only 0b11 is maximal
    flags = np.array([True, True, False, True], dtype=np.bool_)
    keep = K.maximal_flags(flags, 2)
    assert subsets_where(keep) == {0b11}
    # family of two incomparable sets
    flags = np.array([False, True, True, False], dtype=np.bool_)
    assert subsets_where(K.maximal_flags(flags, 2)) == {0b01, 0b10}


def test_random_agreement_with_itertools():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        pairs = list(itertools.product(range(n), repeat=2))
        take = rng.random(len(pairs)) < 0.25
        atts = [p for p, t in zip(pairs, take) if t]
        src = [a for a, _ in atts]
        dst = [b for _, b in atts]
        assert subsets_where(K.conflict_free_flags(n, src, dst)) == slow_cf(n, atts)
        assert subsets_where(K.admissible_flags(n, src, dst)) == slow_adm(n, atts)
