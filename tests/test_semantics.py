import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akgraph import semantics as sem


def af(n, atts):
    args = tuple("a%d" % i for i in range(1, n + 1))
    return sem.AFProjection(args, tuple(("a%d" % s, "a%d" % t) for s, t in atts))


# ---------------------------------------------------------------- predicates

def test_conflict_free_basic():
    f = af(3, [(1, 2)])
    assert sem.is_conflict_free(f, {"a1", "a3"})
    assert sem.is_conflict_free(f, set())
    assert not sem.is_conflict_free(f, {"a1", "a2"})


def test_set_attacks():
    f = af(3, [(1, 2), (2, 3)])
    assert sem.set_attacks(f, {"a1"}, "a2")
    assert not sem.set_attacks(f, {"a1"}, "a3")
    assert sem.set_attacks(f, {"a1", "a2"}, "a3")


def test_acceptable_and_admissible():
    # a1 -> a2 -> a3: a1 strikes a3's only attacker, so {a1, a3} defends a3
    f = af(3, [(1, 2), (2, 3)])
    assert sem.is_acceptable(f, "a3", {"a1"})
    assert not sem.is_acceptable(f, "a3", {"a3"})
    assert sem.is_admissible(f, {"a1", "a3"})
    assert not sem.is_admissible(f, {"a3"})
    assert sem.is_admissible(f, set())


def test_member_outside_af():
    f = af(2, [])
    for fn in (sem.is_conflict_free, sem.is_admissible):
        with pytest.raises(sem.MemberOutsideAF):
            fn(f, {"a9"})
    with pytest.raises(sem.UnknownArgument):
        sem.set_attacks(f, {"a1"}, "zz")
    with pytest.raises(sem.UnknownArgument):
        sem.is_acceptable(f, "zz", {"a1"})


def test_attack_endpoints_validated():
    with pytest.raises(sem.MemberOutsideAF):
        sem.AFProjection(("a1",), (("a1", "a2"),))
    with pytest.raises(sem.MemberOutsideAF):
        af(1, [])._replace(atts=(("a1", "a2"),))


# ---------------------------------------------------------------- enumeration

def members(exts):
    return [set(e.members) for e in exts]


def test_empty_af():
    f = af(0, [])
    assert members(sem.naive_extensions(f)) == [set()]
    assert members(sem.preferred_extensions(f)) == [set()]


def test_attack_free_af():
    f = af(4, [])
    assert members(sem.naive_extensions(f)) == [{"a1", "a2", "a3", "a4"}]
    assert members(sem.preferred_extensions(f)) == [{"a1", "a2", "a3", "a4"}]


def test_two_cycle():
    f = af(2, [(1, 2), (2, 1)])
    assert members(sem.naive_extensions(f)) == [{"a1"}, {"a2"}]
    assert members(sem.preferred_extensions(f)) == [{"a1"}, {"a2"}]


def test_simple_attack():
    f = af(2, [(1, 2)])
    assert members(sem.naive_extensions(f)) == [{"a1"}, {"a2"}]
    # a2 has no defence, so only {a1} is admissible and maximal
    assert members(sem.preferred_extensions(f)) == [{"a1"}]


def test_self_attacker_excluded():
    f = af(2, [(1, 1)])
    assert members(sem.naive_extensions(f)) == [{"a2"}]
    assert members(sem.preferred_extensions(f)) == [{"a2"}]


def test_free_arguments_always_join():
    f = af(4, [(1, 2), (2, 1)])
    for exts in (sem.naive_extensions(f), sem.preferred_extensions(f)):
        for e in exts:
            assert {"a3", "a4"} <= e.members


def test_cap_enforced():
    # the cap bounds the largest connected attack piece, not the framework
    chain = af(7, [(1, 2), (2, 3), (3, 4), (4, 5), (6, 7)])
    with pytest.raises(sem.TooLarge):
        sem.naive_extensions(chain, cap=4)
    with pytest.raises(sem.TooLarge):
        sem.preferred_extensions(chain, cap=4)
    assert members(sem.preferred_extensions(chain, cap=5)) == [{"a1", "a3", "a5", "a6"}]


def test_cap_ignores_free_arguments():
    f = af(100, [(1, 2), (3, 4)])
    assert len(f.args) > sem.DEFAULT_CAP
    assert len(sem.naive_extensions(f)) == 4
    assert members(sem.preferred_extensions(f)) == [set(f.args) - {"a2", "a4"}]


def test_extension_count_limited():
    # 17 disjoint 2-cycles: every piece is small, the product has 2^17 members
    f = af(34, [(i, i + 1) for i in range(1, 34, 2)] + [(i + 1, i) for i in range(1, 34, 2)])
    with pytest.raises(sem.TooLarge):
        sem.naive_extensions(f)
    with pytest.raises(sem.TooLarge):
        sem.preferred_extensions(f)


def test_piece_over_extension_limit_refused_early(monkeypatch):
    # a 40-argument attack chain has 73,396 naive extensions; the search
    # stops at the first one past the limit instead of building them all
    chain = af(40, [(i, i + 1) for i in range(1, 40)])
    built = []
    keep = sem._keep
    monkeypatch.setattr(sem, "_keep", lambda found, mask, which:
                        (built.append(mask), keep(found, mask, which)))
    with pytest.raises(sem.TooLarge, match="naive extensions of one connected piece"):
        sem.semantics_report(chain, cap=64)
    assert len(built) == sem.MAX_EXTENSIONS + 1


def test_large_stars_under_default_cap():
    # a1 attacks the 59 others, then the 59 others attack a1 (2^59 admissible
    # sets); a search that lists every conflict-free or admissible subset
    # does not finish, so run it apart with a time limit
    code = ("from akgraph import semantics as sem\n"
            "args = tuple('a%d' % i for i in range(1, 61))\n"
            "rest = list(args[1:])\n"
            "out = sem.semantics_report(sem.AFProjection(args, tuple(('a1', a) for a in rest)))\n"
            "into = sem.semantics_report(sem.AFProjection(args, tuple((a, 'a1') for a in rest)))\n"
            "print(out['naive'] == [['a1'], rest], out['preferred'] == [['a1']],\n"
            "      into['naive'] == [['a1'], rest], into['preferred'] == [rest])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(sem.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=30, env=env)
    assert done.stdout.split() == ["True"] * 4, done.stderr


def test_oracle_cap():
    f = af(sem.ORACLE_CAP + 1, [])
    with pytest.raises(sem.TooLarge):
        sem.oracle_extensions(f, sem.NAIVE)


def test_oracle_rejects_unknown_label():
    with pytest.raises(sem.SemanticsError):
        sem.oracle_extensions(af(1, []), "Stable")


def test_extension_ordering_deterministic():
    f = af(11, [(1, 2), (2, 1), (10, 11), (11, 10)])
    exts = sem.naive_extensions(f)
    assert exts == sem.naive_extensions(f)
    rendered = [list(e.sorted_members) for e in exts]
    assert rendered == sorted(rendered,
                              key=lambda ms: [sem.natural_key(m) for m in ms])
    # natural id order inside each extension: a2 before a10
    for ms in rendered:
        if "a2" in ms and "a10" in ms:
            assert ms.index("a2") < ms.index("a10")


# ---------------------------------------------------------------- brute force

def brute(f, which):
    args = list(f.args)
    found = []
    for r in range(len(args) + 1):
        for combo in itertools.combinations(args, r):
            S = set(combo)
            if which == sem.NAIVE:
                ok = sem.is_conflict_free(f, S)
            else:
                ok = sem.is_admissible(f, S)
            if ok:
                found.append(S)
    return [S for S in found
            if not any(S < T for T in found)]


def norm(list_of_sets):
    return sorted(map(sorted, list_of_sets))


@st.composite
def random_af(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    atts = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)
                if pairs else st.just([]))
    return af(n, atts)


@settings(max_examples=80, deadline=None)
@given(random_af())
def test_main_path_matches_brute_force(f):
    assert norm(members(sem.naive_extensions(f))) == norm(brute(f, sem.NAIVE))
    assert norm(members(sem.preferred_extensions(f))) == norm(brute(f, sem.PREFERRED))


@settings(max_examples=80, deadline=None)
@given(random_af())
def test_oracle_matches_main_path(f):
    for which, main in ((sem.NAIVE, sem.naive_extensions),
                        (sem.PREFERRED, sem.preferred_extensions)):
        assert members(sem.oracle_extensions(f, which)) == members(main(f))


def connected_af(rng, n):
    """A weakly connected framework of n arguments: a random spanning tree of
    attacks in random directions, extra attacks, and some self-attacks."""
    atts = set()
    for i in range(2, n + 1):
        j = rng.randint(1, i - 1)
        atts.add((i, j) if rng.random() < 0.5 else (j, i))
    density = rng.choice([0.05, 0.1, 0.2, 0.3])
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rng.random() < (density / 4 if i == j else density):
                atts.add((i, j))
    return af(n, sorted(atts))


def test_pruned_search_matches_oracle_on_connected_frameworks():
    rng = random.Random(20140207)
    for n in range(13, 21):
        for _ in range(2):
            f = connected_af(rng, n)
            for which, main in ((sem.NAIVE, sem.naive_extensions),
                                (sem.PREFERRED, sem.preferred_extensions)):
                assert members(main(f)) == members(sem.oracle_extensions(f, which))


def disjoint_union(f, g):
    """f plus a copy of g with its arguments renamed a<i> -> b<i>."""
    rename = {a: "b" + a[1:] for a in g.args}
    return sem.AFProjection(f.args + tuple(rename[a] for a in g.args),
                            f.atts + tuple((rename[a], rename[b]) for a, b in g.atts)), rename


@settings(max_examples=60, deadline=None)
@given(random_af(), random_af())
def test_disjoint_union_is_product(f, g):
    union, rename = disjoint_union(f, g)
    for main in (sem.naive_extensions, sem.preferred_extensions):
        left = members(main(f))
        right = [{rename[a] for a in S} for S in members(main(g))]
        assert norm(members(main(union))) == norm(A | B for A in left for B in right)


@settings(max_examples=60, deadline=None)
@given(random_af())
def test_family_properties(f):
    naive = members(sem.naive_extensions(f))
    preferred = members(sem.preferred_extensions(f))
    assert naive and preferred     # both families are non-empty
    for P in preferred:
        assert sem.is_admissible(f, P)
        # every preferred extension is conflict-free, hence inside some naive one
        assert any(P <= N for N in naive)
    for N in naive:
        assert sem.is_conflict_free(f, N)


# ---------------------------------------------------------------- report

def test_report_lists_extensions_as_enumerated():
    f = af(11, [(1, 2), (2, 1), (10, 11), (11, 10), (3, 4)])
    rep = sem.semantics_report(f)
    assert rep["args"] == ["a%d" % i for i in range(1, 12)]
    for which, exts in (("naive", sem.naive_extensions(f)),
                        ("preferred", sem.preferred_extensions(f))):
        assert rep[which] == [list(e.sorted_members) for e in exts]


def test_report_shape():
    f = af(2, [(1, 2)])
    rep = sem.semantics_report(f, check_sets=[{"a2"}, {"a1"}])
    assert rep["args"] == ["a1", "a2"]
    assert rep["atts"] == [["a1", "a2"]]
    assert rep["naive"] == [["a1"], ["a2"]]
    assert rep["preferred"] == [["a1"]]
    assert rep["checked_sets"] == [
        {"set": ["a2"], "conflict_free": True, "admissible": False},
        {"set": ["a1"], "conflict_free": True, "admissible": True},
    ]


def test_report_on_essay(essay):
    rep = sem.semantics_report(essay["af"])
    big = ["A%d" % i for i in range(1, 17)] + ["A18"]
    other = ["A%d" % i for i in range(1, 16)] + ["A17"]
    assert rep["naive"] == [big, other]
    assert rep["preferred"] == [big]


def test_pollock_extensions(pollock):
    rep = pollock["semantics"]
    assert rep["naive"] == [["A1", "A2", "A4"], ["A1", "A3", "A4"]]
    assert rep["preferred"] == [["A1", "A3", "A4"]]
