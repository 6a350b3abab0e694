"""Dung semantics over the AKG's attack projection.

The AKG projects onto an abstract argumentation framework (arguments plus
attack pairs); conflict-freeness, acceptability and admissibility are direct
set predicates, and the naive / preferred families are the inclusion-maximal
conflict-free / admissible sets.

Enumeration strategy: arguments not involved in any attack belong to every
maximal extension.  Naive and preferred extensions of a disjoint union are
the products of the parts' extensions, so the search runs separately over
each weakly connected piece of the attack graph and the answer is the free
arguments joined to every combination of piece extensions.  Inside a piece,
over int bitmasks of its members: naive extensions are the maximal
independent sets of the symmetric conflict graph over the members that do
not attack themselves, listed by Bron-Kerbosch with pivoting; preferred
extensions come from an include/exclude search that starts at the grounded
extension and cuts a branch once the chosen set can no longer be defended
or can only reach subsets of an extension already found.  Neither search
visits a non-maximal set at a leaf.  A raw 2^n oracle (vectorized,
independently coded) serves as the reference implementation for
cross-checking.
"""

import itertools
import math
from functools import reduce
from operator import or_
from dataclasses import dataclass
from typing import NamedTuple

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

def _natural_order(args):
    """The arguments sorted by natural_key (equal keys keep their order),
    and each argument's position in that list."""
    order = sorted(args, key=natural_key)
    return order, {a: i for i, a in enumerate(order)}


class _Piece(NamedTuple):
    """One weakly connected piece of the attack graph.  Bit i of a mask
    stands for positions[i], the i-th smallest natural-order position of
    the piece's arguments."""
    positions: list
    conflict: list    # per member: every member it attacks or is attacked by
    attacks: list     # per member: the members it attacks
    attackers: list   # per member: the members attacking it
    allowed: int      # the members that do not attack themselves


def _piece_masks(positions, edges):
    index = {p: i for i, p in enumerate(positions)}
    k = len(positions)
    conflict, attacks, attackers = [0] * k, [0] * k, [0] * k
    for a, b in edges:
        i, j = index[a], index[b]
        conflict[i] |= 1 << j
        conflict[j] |= 1 << i
        attacks[i] |= 1 << j
        attackers[j] |= 1 << i
    allowed = sum(1 << i for i in range(k) if not conflict[i] >> i & 1)
    return _Piece(positions, conflict, attacks, attackers, allowed)


def _pieces(af, cap, rank):
    """The weakly connected pieces of the attack graph over the arguments'
    natural-order positions (rank); raises TooLarge when the largest has more
    than cap members."""
    edges = [(rank[a], rank[b]) for a, b in af.atts]
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        parent[find(a)] = find(b)
    members, piece_edges = {}, {}
    for x in parent:
        members.setdefault(find(x), []).append(x)
    largest = max(map(len, members.values()), default=0)
    if largest > cap:
        raise TooLarge("a connected piece of %d arguments exceeds the cap of %d"
                       % (largest, cap))
    for a, b in edges:
        piece_edges.setdefault(find(a), []).append((a, b))
    return [_piece_masks(sorted(members[root]), piece_edges[root]) for root in members]


def _select(items, mask):
    """items[i] for each bit i of mask, in ascending i."""
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1])
        mask ^= low
    return out


def _keep(found, mask, which):
    found.append(mask)
    if len(found) > MAX_EXTENSIONS:
        raise TooLarge("%s extensions of one connected piece exceed the limit of %d"
                       % (which.lower(), MAX_EXTENSIONS))


def _naive_masks(piece):
    """The maximal conflict-free sets of one piece.

    They are the maximal independent sets of the symmetric conflict graph over
    the allowed members, i.e. the maximal cliques of its complement.
    Bron-Kerbosch with pivoting lists those without reaching a non-maximal
    set: it extends chosen by candidates compatible with all of it, and
    excluded holds the compatible members already tried, so a set that could
    still take one of them is not reported.
    """
    compatible = [piece.allowed & ~(c | 1 << i) for i, c in enumerate(piece.conflict)]
    found = []

    def expand(chosen, cand, excluded):
        if not (cand | excluded):
            _keep(found, chosen, NAIVE)
            return
        # pivot: the member compatible with the most candidates; branching
        # only on candidates outside its compatible set misses no maximal set
        best, pivot, rest = -1, 0, cand | excluded
        while rest:
            low = rest & -rest
            near = compatible[low.bit_length() - 1]
            count = (cand & near).bit_count()
            if count > best:
                best, pivot = count, near
            rest ^= low
        rest = cand & ~pivot
        while rest:
            low = rest & -rest
            near = compatible[low.bit_length() - 1]
            expand(chosen | low, cand & near, excluded & near)
            cand ^= low
            excluded |= low
            rest ^= low

    expand(0, piece.allowed, 0)
    return found


def _preferred_masks(piece):
    """The maximal admissible sets of one piece.

    Every preferred extension holds the grounded extension, so the search
    starts from it.  It then decides one candidate at a time, the candidates
    being the undecided members that conflict with none of the chosen set,
    and tries inclusion before exclusion.  A branch is cut when some attacker
    of the chosen set is attacked neither by it nor by any candidate, or when
    chosen and candidates together lie inside a set already found.  Every
    leaf is therefore admissible, and no later leaf contains an earlier one
    (it excludes a member the earlier one includes), so the leaves are
    exactly the maximal admissible sets.  The member decided next is a
    candidate able to answer the attacker with the fewest such candidates,
    or the first candidate when every attacker is answered.
    """
    conflict, attacks, attackers = piece.conflict, piece.attacks, piece.attackers
    found = []

    def search(chosen, cand, need, struck):
        unmet = need & ~struck
        fewest = cand
        while unmet:
            low = unmet & -unmet
            defenders = attackers[low.bit_length() - 1] & cand
            if not defenders:
                return
            if defenders.bit_count() < fewest.bit_count():
                fewest = defenders
            unmet ^= low
        span = chosen | cand
        for f in found:
            if not span & ~f:
                return
        if not cand:
            _keep(found, chosen, PREFERRED)
            return
        low = fewest & -fewest
        i = low.bit_length() - 1
        search(chosen | low, cand & ~(low | conflict[i]),
               need | attackers[i], struck | attacks[i])
        search(chosen, cand ^ low, need, struck)

    # the grounded extension: the least set holding every member it defends
    grounded = struck = 0
    while True:
        defended = sum(1 << i for i, a in enumerate(attackers) if not a & ~struck)
        if defended == grounded:
            break
        grounded, struck = defended, reduce(or_, _select(attacks, defended), 0)
    clash = reduce(or_, _select(conflict, grounded), 0)
    search(grounded, piece.allowed & ~(grounded | clash), 0, struck)
    return found


def _family(which, pieces, n):
    """Every extension of a framework of n arguments with these attack pieces,
    as the ascending natural-order positions of its members, in list order."""
    search = _naive_masks if which == NAIVE else _preferred_masks
    families = [[_select(p.positions, m) for m in search(p)] for p in pieces]
    total = math.prod(len(f) for f in families)
    if total > MAX_EXTENSIONS:
        raise TooLarge("%d %s extensions exceed the limit of %d"
                       % (total, which.lower(), MAX_EXTENSIONS))
    touched = {i for p in pieces for i in p.positions}
    free = [i for i in range(n) if i not in touched]
    family = [sorted(itertools.chain(free, *combo))
              for combo in itertools.product(*families)]
    family.sort()
    return family


def _enumerate(af, which, cap):
    order, rank = _natural_order(af.args)
    return tuple(Extension(frozenset(map(order.__getitem__, positions)), which)
                 for positions in _family(which, _pieces(af, cap, rank), len(order)))


def naive_extensions(af, cap=DEFAULT_CAP):
    """All inclusion-maximal conflict-free sets."""
    return _enumerate(af, NAIVE, cap)


def preferred_extensions(af, cap=DEFAULT_CAP):
    """All inclusion-maximal admissible sets."""
    return _enumerate(af, PREFERRED, cap)


def oracle_extensions(af, which):
    """Reference enumeration: raw 2^n subset tables, vectorized.

    Independent of the pruned searches behind naive_extensions and
    preferred_extensions; limited to 20 arguments.
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
    pieces = _pieces(af, cap, rank)

    def listed(which):
        return [[order[i] for i in positions]
                for positions in _family(which, pieces, len(order))]

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
