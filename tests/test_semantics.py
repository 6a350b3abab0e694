import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from akgraph import semantics as sem

from conftest import oracle_families, perfbench_inputs


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


def literal_verdicts(f, S, a):
    """Conflict-freeness, attack on a, acceptability of a and admissibility
    of S, straight from the definitions."""
    atts = set(f.atts)

    def attacks(T, b):
        return any((x, b) in atts for x in T)

    def acceptable(b):
        return all(attacks(S, x) for x in f.args if (x, b) in atts)

    free = not any((x, y) in atts for x in S for y in S)
    return free, attacks(S, a), acceptable(a), free and all(map(acceptable, S))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_predicates_match_definitions(data):
    f = data.draw(random_af())
    if not f.args:
        f = af(1, [])
    S = data.draw(st.sets(st.sampled_from(f.args)))
    a = data.draw(st.sampled_from(f.args))
    assert (sem.is_conflict_free(f, S), sem.set_attacks(f, S, a), sem.is_acceptable(f, a, S),
            sem.is_admissible(f, S)) == literal_verdicts(f, S, a)
    rep = sem.semantics_report(f, check_sets=[tuple(S)])
    assert rep["checked_sets"] == [{"set": sorted(S, key=sem.natural_key),
                                    "conflict_free": sem.is_conflict_free(f, S),
                                    "admissible": sem.is_admissible(f, S)}]
    # an outside member is refused by every predicate, an unknown argument first
    outside = S | {"zz"}
    for check in (lambda: sem.is_conflict_free(f, outside), lambda: sem.is_admissible(f, outside),
                  lambda: sem.set_attacks(f, outside, a), lambda: sem.is_acceptable(f, a, outside),
                  lambda: sem.semantics_report(f, check_sets=[outside])):
        with pytest.raises(sem.MemberOutsideAF, match=r"not in the framework: \['zz'\]"):
            check()
    for check in (lambda: sem.set_attacks(f, outside, "zz"), lambda: sem.is_acceptable(f, "zz", outside)):
        with pytest.raises(sem.UnknownArgument, match="no argument 'zz'"):
            check()


def test_predicates_linear_on_large_frameworks():
    # 40,000 arguments, 400 attacks in 2-cycles, and a 20,000-member set:
    # one pass over the arguments and attacks per call, not one per member
    code = ("from akgraph import semantics as sem\n"
            "args = tuple('a%d' % i for i in range(1, 40001))\n"
            "atts = [p for i in range(0, 400, 2) for p in ((args[i], args[i + 1]),"
            " (args[i + 1], args[i]))]\n"
            "f = sem.AFProjection(args, tuple(atts))\n"
            "odd, pair = set(args[::2]), {'a1', 'a2'}\n"
            "print(sem.is_admissible(f, odd), sem.is_conflict_free(f, odd),\n"
            "      sem.is_acceptable(f, 'a1', odd), sem.set_attacks(f, odd, 'a2'),\n"
            "      not sem.is_admissible(f, pair), not sem.is_conflict_free(f, pair),\n"
            "      not sem.is_acceptable(f, 'a1', args[1000::2]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(sem.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=30, env=env)
    assert done.stdout.split() == ["True"] * 7, done.stderr


def test_attack_endpoints_validated():
    with pytest.raises(sem.MemberOutsideAF):
        sem.AFProjection(("a1",), (("a1", "a2"),))
    with pytest.raises(sem.MemberOutsideAF):
        af(1, [])._replace(atts=(("a1", "a2"),))


# ---------------------------------------------------------------- enumeration

def members(exts):
    return [set(e.members) for e in exts]


def pieces_of(f, cap=sem.DEFAULT_CAP):
    """The attack pieces of f, from its attacks as pairs of natural positions."""
    rank = sem._natural_order(f.args)[1]
    return sem._pieces([(rank[a], rank[b]) for a, b in f.atts], cap)


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


def test_cap_refusal_names_the_largest_piece_before_any_search(monkeypatch):
    # pieces of 3, 5, 4 and 2 arguments under a cap of 2
    f = af(14, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 8), (9, 10), (10, 11), (11, 12),
                (13, 14)])

    def searched(piece):
        raise AssertionError("a piece was searched before the cap was checked")

    monkeypatch.setattr(sem, "_naive_masks", searched)
    monkeypatch.setattr(sem, "_preferred_masks", searched)
    for call in (sem.semantics_report, sem.naive_extensions, sem.preferred_extensions):
        with pytest.raises(sem.TooLarge,
                           match=r"^a connected piece of 5 arguments exceeds the cap of 2$"):
            call(f, 2)


def test_cap_refuses_only_pieces_that_exist():
    # without attacks there is no piece, so even a negative cap refuses nothing
    assert pieces_of(af(3, []), cap=-5) == []
    assert members(sem.naive_extensions(af(3, []), cap=-5)) == [{"a1", "a2", "a3"}]
    assert sem.semantics_report(af(3, []), cap=0)["preferred"] == [["a1", "a2", "a3"]]
    with pytest.raises(sem.TooLarge, match="a connected piece of 2 arguments exceeds the cap of 0"):
        sem.semantics_report(af(3, [(1, 2)]), cap=0)


def test_cap_ignores_free_arguments():
    f = af(100, [(1, 2), (3, 4)])
    assert len(f.args) > sem.DEFAULT_CAP
    assert len(sem.naive_extensions(f)) == 4
    assert members(sem.preferred_extensions(f)) == [set(f.args) - {"a2", "a4"}]


def test_piece_searched_over_its_own_bits():
    # a 3-argument piece among 5,000 arguments: its tables and extensions are
    # 3-bit masks, so its search costs the same whatever the framework's size
    f = af(5000, [(7, 4000), (4000, 2500), (2500, 4000)])
    piece, = pieces_of(f)
    assert piece[0] == [6, 2499, 3999]
    assert all(0 < x < 8 and 0 <= m < 8 for t in piece[1:] for x, m in t.items())
    assert all(0 < e < 8 for e in sem._naive_masks(piece) + sem._preferred_masks(piece))
    rep = sem.semantics_report(f)
    without = lambda *out: [a for a in f.args if a not in out]
    assert rep["naive"] == [without("a4000"), without("a7", "a2500")]
    assert rep["preferred"] == [without("a4000")]


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


def test_stars_deeper_than_the_recursion_limit():
    # more leaves than Python's recursion limit, under a cap raised to fit:
    # the preferred search goes one leaf deeper per step, on a stack of its own
    code = ("import sys\n"
            "from akgraph import semantics as sem\n"
            "n = sys.getrecursionlimit() + 100\n"
            "args = tuple('a%d' % i for i in range(n + 1))\n"
            "rest = list(args[1:])\n"
            "into = sem.AFProjection(args, tuple((a, 'a0') for a in rest))\n"
            "both = sem.AFProjection(args, tuple((a, b) for x in rest\n"
            "                                    for a, b in [(x, 'a0'), ('a0', x)]))\n"
            "into, both = (sem.semantics_report(f, cap=n + 1) for f in (into, both))\n"
            "print(into['naive'] == [['a0'], rest], into['preferred'] == [rest],\n"
            "      both['naive'] == [['a0'], rest], both['preferred'] == [['a0'], rest])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(sem.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=30, env=env)
    assert done.stdout.split() == ["True"] * 4, done.stderr


def test_naive_star_settled_at_once():
    # 4,000 leaves that all attack one centre: the leaves are pairwise
    # compatible, so the search settles them in one child; a search that
    # goes one leaf deeper per node, scanning every leaf at each, takes
    # seconds
    leaves = tuple("a%d" % i for i in range(1, 4001))
    f = sem.AFProjection(("a0",) + leaves, tuple((a, "a0") for a in leaves))
    start = time.perf_counter()
    exts = sem.naive_extensions(f, cap=len(f.args))
    assert time.perf_counter() - start < 1
    assert exts == (sem.Extension(frozenset({"a0"})), sem.Extension(frozenset(leaves)))


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
    for main, want in zip((sem.naive_extensions, sem.preferred_extensions),
                          oracle_families(f)):
        assert want == members(main(f))


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
            for main, want in zip((sem.naive_extensions, sem.preferred_extensions),
                                  oracle_families(f)):
                assert members(main(f)) == want


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


def reference_lists(f, which):
    """A family listed without bitmasks: brute force over natural positions,
    each extension as its sorted positions, the list of lists sorted, then
    positions mapped to ids."""
    order = sorted(f.args, key=sem.natural_key)
    pos = {a: i for i, a in enumerate(order)}
    atts = {(pos[a], pos[b]) for a, b in f.atts}
    n = len(order)

    def ok(S):
        if any((x, y) in atts for x in S for y in S):
            return False
        struck = {y for x, y in atts if x in S}
        return which == sem.NAIVE or all(x in struck for x, y in atts if y in S)

    found = [set(c) for r in range(n + 1) for c in itertools.combinations(range(n), r)
             if ok(c)]
    family = sorted(sorted(S) for S in found if not any(S < T for T in found))
    return [[order[i] for i in positions] for positions in family]


IDS = ["A1", "A01", "A2", "A002", "A10", "a3", "B1", "B", "x"]


@st.composite
def named_af(draw):
    """Up to 8 distinct ids, some with equal natural keys, in any order, and
    attacks among them, self-attacks included."""
    args = draw(st.lists(st.sampled_from(IDS), unique=True, max_size=8))
    pairs = [(a, b) for a in args for b in args]
    atts = draw(st.lists(st.sampled_from(pairs), max_size=10) if pairs else st.just([]))
    return sem.AFProjection(tuple(args), tuple(atts))


@settings(max_examples=150, deadline=None)
@given(named_af())
@example(sem.AFProjection(("A01", "B", "A1", "x", "A2", "A10", "a3"),
                          (("A1", "A01"), ("A01", "A1"), ("A2", "A2"), ("A2", "A10"),
                           ("B", "a3"), ("a3", "B"))))
def test_report_lists_match_position_reference(f):
    rep = sem.semantics_report(f)
    assert rep["args"] == sorted(f.args, key=sem.natural_key)
    assert rep["naive"] == reference_lists(f, sem.NAIVE)
    assert rep["preferred"] == reference_lists(f, sem.PREFERRED)


def single_mask_family(which, pieces, order):
    """The family as it was listed before blocks: every extension the free
    arguments OR-ed with one extension of each piece as one natural-order
    mask of n bits, the masks sorted descending, each decoded through its
    binary string."""
    search = sem._naive_masks if which == sem.NAIVE else sem._preferred_masks
    families = [search(p) for p in pieces]
    decode = lambda items, m: itertools.compress(
        items, bin(m)[3:].encode().translate(sem._SELECTOR))
    n = len(order)
    digits = bytearray(b"1" * (n + 1))  # bit n, and the free arguments
    for p in itertools.chain.from_iterable(positions for positions, _, _ in pieces):
        digits[p + 1] = ord("0")
    masks = [int(digits, 2)]
    for (positions, _, _), family in zip(pieces, families):     # OR product
        first, last, k = positions[0], positions[-1], len(positions)
        if last - first < k:    # lift to natural-order bits: a shift if consecutive
            family = [e << n - 1 - last for e in family]
        else:
            bits = [1 << n - 1 - p for p in positions]
            family = [sum(decode(bits, e | 1 << k)) for e in family]
        masks = [m | e for m in masks for e in family]
    masks.sort(reverse=True)
    return [list(decode(order, m)) for m in masks]


@st.composite
def laid_out_af(draw):
    """Weakly connected attack pieces of 1-4 arguments and up to 4 free
    arguments, laid out in natural order either piece after piece (disjoint
    intervals, free arguments anywhere between) or in any interleaving.  Ids
    are zero-padded numbers in layout order, and a padded id may share the
    natural key of the one before it."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    slots = [k for k, size in enumerate(sizes) for _ in range(size)]
    free = draw(st.integers(0, 4))
    if draw(st.booleans()):
        for _ in range(free):
            slots.insert(draw(st.integers(0, len(slots))), None)
    else:
        slots = draw(st.permutations(slots + [None] * free))
    names, number, ties = [], 0, 0
    for _ in slots:
        if names and ties < 2 and draw(st.booleans()):
            ties += 1
        else:
            number, ties = number + 1, 0
        names.append("A%s%d" % ("0" * ties, number))
    atts = []
    for k in range(len(sizes)):
        members = [a for a, slot in zip(names, slots) if slot == k]
        for j in range(1, len(members)):    # a spanning tree, random directions
            pair = (members[draw(st.integers(0, j - 1))], members[j])
            atts.append(pair if draw(st.booleans()) else pair[::-1])
        # a lone member is in a piece only if it attacks itself
        pairs = [(a, b) for a in members for b in members]
        atts += draw(st.lists(st.sampled_from(pairs), min_size=1 if len(members) == 1 else 0,
                              max_size=3))
    return sem.AFProjection(tuple(names), tuple(draw(st.permutations(atts))))


@settings(max_examples=200, deadline=None)
@given(laid_out_af())
@example(af(9, [(2, 3), (3, 2), (5, 8), (8, 5), (7, 7)]))  # free before, between, inside, after
@example(af(6, [(1, 3), (3, 1), (2, 4), (4, 2), (5, 6), (6, 5)]))  # interleaved, then disjoint
@example(sem.AFProjection(("A1", "A01", "A2", "A02", "A3"),
                          (("A01", "A1"), ("A1", "A01"), ("A02", "A3"), ("A3", "A3"))))
def test_report_families_match_single_mask_reference(f):
    order = sem._natural_order(f.args)[0]
    pieces = pieces_of(f)
    rep = sem.semantics_report(f)
    assert rep["naive"] == single_mask_family(sem.NAIVE, pieces, order)
    assert rep["preferred"] == single_mask_family(sem.PREFERRED, pieces, order)


@st.composite
def one_piece_af(draw):
    """One weakly connected attack piece of 1-6 arguments, self-attacks
    included, holding every argument or with a free argument before and/or
    after it in natural order."""
    k, before, after = draw(st.integers(1, 6)), draw(st.integers(0, 1)), draw(st.integers(0, 1))
    names = ["A%d" % i for i in range(1, before + k + after + 1)]
    members = names[before:before + k]
    atts = []
    for j in range(1, k):   # a spanning tree, random directions
        pair = (members[draw(st.integers(0, j - 1))], members[j])
        atts.append(pair if draw(st.booleans()) else pair[::-1])
    # a lone member is in a piece only if it attacks itself
    pairs = [(a, b) for a in members for b in members]
    atts += draw(st.lists(st.sampled_from(pairs), min_size=1 if k == 1 else 0, max_size=4))
    return sem.AFProjection(tuple(draw(st.permutations(names))),
                            tuple(draw(st.permutations(atts))))


@settings(max_examples=100, deadline=None)
@given(one_piece_af())
@example(af(3, [(1, 2), (2, 3), (3, 3)]))           # the piece fills its slice
@example(af(5, [(2, 3), (3, 4), (4, 2), (3, 3)]))   # free before and after
@example(af(1, [(1, 1)]))                           # every member attacks itself
def test_one_piece_block_matches_references(f):
    order = sem._natural_order(f.args)[0]
    pieces = pieces_of(f)
    rep = sem.semantics_report(f)
    for which in (sem.NAIVE, sem.PREFERRED):
        assert rep[which.lower()] == reference_lists(f, which)
        assert rep[which.lower()] == single_mask_family(which, pieces, order)


INPUTS = perfbench_inputs()


@st.composite
def label_structure(draw):
    """One framework as perfbench.inputs.label takes it: (size, attacks over
    local indices) for each of 1-3 parts, which need not be connected."""
    parts = []
    for size in draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)):
        pairs = [(i, j) for i in range(size) for j in range(size)]
        parts.append((size, draw(st.lists(st.sampled_from(pairs), unique=True,
                                          max_size=6))))
    return [parts]


def renamed(obj, rename):
    """A report with every id renamed; keys and verdicts stay."""
    if isinstance(obj, dict):
        return {k: renamed(v, rename) for k, v in obj.items()}
    if isinstance(obj, list):
        return [renamed(x, rename) for x in obj]
    return rename[obj] if isinstance(obj, str) else obj


@settings(max_examples=100, deadline=None)
@given(label_structure(), st.integers(0, 2 ** 32), st.integers(0, 2 ** 32), st.data())
def test_order_preserving_relabelling_renames_the_report(structure, seed, other, data):
    # the benchmark's labelling names arguments in structure order under a
    # seed, and shuffles the attack list; two seeds give the same framework
    # under an order-preserving renaming, so the reports differ only by it
    (args, atts, _), = INPUTS.label(structure, seed)
    (new_args, new_atts, _), = INPUTS.label(structure, other)
    rename = dict(zip(args, new_args))
    check = data.draw(st.lists(st.sets(st.sampled_from(args)), max_size=2))
    rep = sem.semantics_report(sem.AFProjection(args, atts), check_sets=check)
    new = sem.semantics_report(sem.AFProjection(new_args, new_atts),
                               check_sets=[{rename[a] for a in S} for S in check])
    assert new == renamed(rep, rename)


def test_report_on_large_framework_decodes_in_linear_time():
    # 5,000 arguments with 12 disjoint 2-cycles: 4,096 extensions per family,
    # each a list of about 5,000 ids joined from 12 blocks of about 400; a
    # loop over the bits of 5,000-bit masks would not finish in time
    code = ("from akgraph import semantics as sem\n"
            "args = tuple('a%d' % i for i in range(1, 5001))\n"
            "pairs = [(args[400 * k + 7], args[400 * k + 300]) for k in range(12)]\n"
            "atts = tuple(p for x, y in pairs for p in ((x, y), (y, x)))\n"
            "rep = sem.semantics_report(sem.AFProjection(args, atts))\n"
            "first = [a for a in args if a not in {y for x, y in pairs}]\n"
            "last = [a for a in args if a not in {x for x, y in pairs}]\n"
            "for family in (rep['naive'], rep['preferred']):\n"
            "    print(len(family) == 4096, family[0] == first, family[-1] == last)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(sem.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=30, env=env)
    assert done.stdout.split() == ["True"] * 6, done.stderr


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
