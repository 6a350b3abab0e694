"""Dung semantics over the AKG's attack projection.

The AKG projects onto an abstract argumentation framework (arguments plus
attack pairs); conflict-freeness, acceptability and admissibility are direct
set predicates, and the naive / preferred families are the inclusion-maximal
conflict-free / admissible sets.

Enumeration strategy: arguments not involved in any attack belong to every
maximal extension.  Naive and preferred extensions of a disjoint union are
the products of the parts' extensions, so the search runs separately over
each weakly connected piece of the attack graph and the answer is the free
arguments joined to every combination of piece extensions.  A raw 2^n
oracle (vectorized, independently coded) serves as the reference
implementation for cross-checking.
"""

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

from .akg import ATTACK
from .kbgraph import natural_key

DEFAULT_CAP = 64           # largest weakly connected attack piece enumerated
MAX_EXTENSIONS = 1 << 16   # largest extension family materialised
ORACLE_CAP = 20

NAIVE = "Naive"
PREFERRED = "Preferred"


class SemanticsError(Exception):
    pass


class MemberOutsideAF(SemanticsError):
    pass


class UnknownArgument(SemanticsError):
    pass


class TooLarge(SemanticsError):
    pass


@dataclass(frozen=True)
class AFProjection:
    args: tuple
    atts: tuple   # (attacker, attacked) pairs

    def __post_init__(self):
        known = set(self.args)
        for a, b in self.atts:
            if a not in known or b not in known:
                raise MemberOutsideAF("attack (%s, %s) cites unknown argument" % (a, b))


@dataclass(frozen=True)
class Extension:
    members: frozenset
    label: str

    @property
    def sorted_members(self):
        return tuple(sorted(self.members, key=natural_key))


def project_af(akg):
    """Arguments plus attack edges only; supports and modus ponens vanish."""
    args = tuple(n.arg_id for n in akg.nodes)
    atts = tuple((e.source, e.target) for e in akg.edges if e.kind == ATTACK)
    return AFProjection(args, atts)


def _check_subset(af, S):
    extra = set(S) - set(af.args)
    if extra:
        raise MemberOutsideAF("not in the framework: %s" % sorted(extra))
    return set(S)


def is_conflict_free(af, S):
    """No attack pair inside S."""
    S = _check_subset(af, S)
    return not any(a in S and b in S for a, b in af.atts)


def set_attacks(af, S, b):
    """Does some member of S attack b?"""
    if b not in af.args:
        raise UnknownArgument("no argument %r" % b)
    S = _check_subset(af, S)
    return any(x == b and a in S for a, x in af.atts)


def is_acceptable(af, a, S):
    """Every attacker of a is attacked by S."""
    if a not in af.args:
        raise UnknownArgument("no argument %r" % a)
    S = _check_subset(af, S)
    attackers = [x for x, y in af.atts if y == a]
    return all(set_attacks(af, S, x) for x in attackers)


def is_admissible(af, S):
    """Conflict-free and every member is acceptable with respect to S."""
    S = _check_subset(af, S)
    return is_conflict_free(af, S) and all(is_acceptable(af, a, S) for a in S)


# -- enumeration --

def _pieces(atts):
    """Weakly connected pieces of the attack graph as (members, attacks)."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in atts:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        parent[find(a)] = find(b)
    members, piece_atts = {}, {}
    for x in parent:
        members.setdefault(find(x), []).append(x)
    for a, b in atts:
        piece_atts.setdefault(find(a), []).append((a, b))
    return [(members[root], piece_atts[root]) for root in members]


def _natural_order(args):
    """The arguments sorted by natural_key (equal keys keep their order),
    and each argument's position in that list."""
    order = sorted(args, key=natural_key)
    return order, {a: i for i, a in enumerate(order)}


def _conflict_masks(core, atts):
    index = {a: i for i, a in enumerate(core)}
    k = len(core)
    conflict = [0] * k
    out_mask = [0] * k
    in_mask = [0] * k
    self_attack = [False] * k
    for a, b in atts:
        i, j = index[a], index[b]
        if i == j:
            self_attack[i] = True
            conflict[i] |= 1 << i
            continue
        conflict[i] |= 1 << j
        conflict[j] |= 1 << i
        out_mask[i] |= 1 << j
        in_mask[j] |= 1 << i
    return conflict, out_mask, in_mask, self_attack


def _cf_masks(k, conflict, self_attack):
    """All conflict-free subsets of the core, by include/exclude recursion."""
    results = []

    def rec(i, chosen):
        if i == k:
            results.append(chosen)
            return
        rec(i + 1, chosen)
        if not self_attack[i] and not (conflict[i] & chosen):
            rec(i + 1, chosen | (1 << i))

    rec(0, 0)
    return results

def _maximal_masks(masks, universe_conflict, self_attack):
    """Filter masks to those where no further argument can join (naive case)
    or no strict super-mask is present (general case handled pairwise)."""
    out = []
    k = len(universe_conflict)
    for m in masks:
        expandable = False
        for j in range(k):
            if m & (1 << j) or self_attack[j]:
                continue
            if not (universe_conflict[j] & m):
                expandable = True
                break
        if not expandable:
            out.append(m)
    return out


def _pairwise_maximal(masks):
    out = []
    for m in masks:
        if not any(other != m and (other & m) == m for other in masks):
            out.append(m)
    return out


def _mask_admissible(m, k, out_mask, in_mask):
    struck = 0
    need = 0
    for i in range(k):
        if m & (1 << i):
            struck |= out_mask[i]
            need |= in_mask[i]
    return (need & ~struck) == 0


def _piece_family(core, atts, which):
    """Naive or preferred extensions of one connected piece, as frozensets."""
    k = len(core)
    conflict, out_mask, in_mask, self_attack = _conflict_masks(core, atts)
    cf = _cf_masks(k, conflict, self_attack)
    if which == NAIVE:
        chosen = _maximal_masks(cf, conflict, self_attack)
    else:
        adm = [m for m in cf if _mask_admissible(m, k, out_mask, in_mask)]
        chosen = _pairwise_maximal(adm)
    return [frozenset(core[i] for i in range(k) if m >> i & 1) for m in chosen]


def _family(af, which, cap, rank):
    """(member positions ascending, members) for every extension, sorted by
    those positions; rank maps each argument to its natural-order position."""
    pieces = _pieces(af.atts)
    largest = max((len(core) for core, _ in pieces), default=0)
    if largest > cap:
        raise TooLarge("a connected piece of %d arguments exceeds the cap of %d"
                       % (largest, cap))
    families = [_piece_family(core, atts, which) for core, atts in pieces]
    total = math.prod(len(f) for f in families)
    if total > MAX_EXTENSIONS:
        raise TooLarge("%d %s extensions exceed the limit of %d"
                       % (total, which.lower(), MAX_EXTENSIONS))
    touched = {a for core, _ in pieces for a in core}
    free = frozenset(a for a in af.args if a not in touched)
    family = []
    for combo in itertools.product(*families):
        members = free.union(*combo)
        family.append((sorted(map(rank.__getitem__, members)), members))
    family.sort(key=itemgetter(0))
    return family


def _enumerate(af, which, cap):
    _, rank = _natural_order(af.args)
    return tuple(Extension(members, which)
                 for _, members in _family(af, which, cap, rank))


def naive_extensions(af, cap=DEFAULT_CAP):
    """All inclusion-maximal conflict-free sets."""
    return _enumerate(af, NAIVE, cap)


def preferred_extensions(af, cap=DEFAULT_CAP):
    """All inclusion-maximal admissible sets."""
    return _enumerate(af, PREFERRED, cap)


def oracle_extensions(af, which):
    """Reference enumeration: raw 2^n subset tables, vectorized.

    Independent of the branch-and-bound path; limited to 20 arguments.
    """
    import numpy as np

    from . import _kernels

    n = len(af.args)
    if n > ORACLE_CAP:
        raise TooLarge("oracle handles at most %d arguments" % ORACLE_CAP)
    order = list(af.args)
    index = {a: i for i, a in enumerate(order)}
    src = [index[a] for a, b in af.atts]
    dst = [index[b] for a, b in af.atts]
    if which == NAIVE:
        flags = _kernels.conflict_free_flags(n, src, dst)
    elif which == PREFERRED:
        flags = _kernels.admissible_flags(n, src, dst)
    else:
        raise SemanticsError("unknown semantics %r" % which)
    keep = _kernels.maximal_flags(flags, n)
    exts = []
    for s in np.nonzero(keep)[0]:
        members = frozenset(order[i] for i in range(n) if s >> i & 1)
        exts.append(Extension(members, which))
    exts.sort(key=lambda e: [natural_key(x) for x in e.sorted_members])
    return tuple(exts)


def semantics_report(af, cap=DEFAULT_CAP, check_sets=()):
    """JSON-ready summary: framework, naive / preferred families, and
    conflict-free/admissible verdicts for any requested sets."""
    order, rank = _natural_order(af.args)

    def listed(which):
        return [[order[i] for i in positions]
                for positions, _ in _family(af, which, cap, rank)]

    report = {
        "args": order,
        "atts": [list(p) for p in sorted(af.atts,
                                         key=lambda p: (rank[p[0]], rank[p[1]]))],
        "naive": listed(NAIVE),
        "preferred": listed(PREFERRED),
        "checked_sets": [],
    }
    for S in check_sets:
        report["checked_sets"].append({
            "set": sorted(S, key=natural_key),
            "conflict_free": is_conflict_free(af, S),
            "admissible": is_admissible(af, S),
        })
    return report
