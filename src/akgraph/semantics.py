"""Dung semantics over the AKG's attack projection.

The AKG projects onto an abstract argumentation framework (arguments plus
attack pairs); conflict-freeness, acceptability and admissibility are direct
set predicates, and the naive / preferred families are the inclusion-maximal
conflict-free / admissible sets.

Enumeration strategy: arguments not involved in any attack belong to every
maximal extension.  Naive and preferred extensions of a disjoint union are
the products of the parts' extensions, so the search runs separately over
each weakly connected piece of the attack graph, over int bitmasks of its
members.  A report maps the attacks to pairs of natural positions once; a
flood fill over those pairs finds the pieces, each piece's tables from
member bits to masks are made as its fill ends, and one pass over the pairs
fills them.  Naive extensions are the maximal independent sets of the
symmetric conflict graph over the members that do not attack themselves,
listed by Bron-Kerbosch with pivoting; preferred extensions come from an
include/exclude search that starts at the grounded extension and cuts a
branch once the chosen set can no longer be defended or can only reach
subsets of an extension already found.  Neither search visits a non-maximal
set at a leaf.  Pieces whose spans of natural positions overlap form a
block, and each block owns a slice of the natural order that also holds the
free arguments before it (the last block, those after it too).  This block
layout depends on the pieces alone, so a report works it out once for both
families.  A block's extensions are its pieces' extensions OR-ed together
with its free arguments as natural-order bitmasks, sorted and decoded to
lists once each; a block that is one piece filling its slice takes that
piece's masks as they are, with no OR product.  An extension of the
framework is one list of every block, concatenated, and the blocks are
joined halves first, so that each list of the result is copied once.  A
raw 2^n oracle (vectorized, independently coded) serves as the reference
implementation for cross-checking.  Natural order is ingest.natural_key's,
a total order, so no hash seed moves a position or an extension.
"""

import math
from collections import defaultdict, namedtuple
from itertools import compress

from .akg import ATTACK
from .ingest import natural_key

DEFAULT_CAP = 64           # largest weakly connected attack piece enumerated
MAX_EXTENSIONS = 1 << 16   # largest extension family materialised
ORACLE_CAP = 20
_SELECTOR = bytes.maketrans(b"01", b"\0\1")   # binary digits as compress selectors

NAIVE = "Naive"
PREFERRED = "Preferred"


class SemanticsError(ValueError):
    pass


class MemberOutsideAF(SemanticsError):
    pass


class UnknownArgument(SemanticsError):
    pass


class TooLarge(SemanticsError):
    pass


class AFProjection(namedtuple("AFProjection", "args atts")):
    """Argument ids and (attacker, attacked) pairs over them."""
    __slots__ = ()

    def __new__(cls, args, atts):
        known = set(args)
        for a, b in atts:
            if a not in known or b not in known:
                raise MemberOutsideAF("attack (%s, %s) cites unknown argument" % (a, b))
        return super().__new__(cls, args, atts)

    # _replace builds through _make, which would skip the check above
    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Extension(namedtuple("Extension", "members")):
    """An extension: members is a frozenset of argument ids."""
    __slots__ = ()

    @property
    def sorted_members(self):
        return tuple(sorted(self.members, key=natural_key))


def project_af(akg):
    """Arguments plus attack edges only; supports and modus ponens vanish."""
    args = tuple(n.arg_id for n in akg.nodes)
    atts = tuple((e.source, e.target) for e in akg.edges if e.kind == ATTACK)
    return AFProjection(args, atts)


def _check_subset(known, S):
    extra = set(S).difference(known)
    if extra:
        raise MemberOutsideAF("not in the framework: %s" % sorted(extra))
    return set(S)


def _conflict_free(atts, S):
    return not any(a in S and b in S for a, b in atts)


def _admissible(atts, S):
    """Conflict-free, and every attacker of a member is struck by S."""
    struck = {b for a, b in atts if a in S}
    return _conflict_free(atts, S) and all(a in struck for a, b in atts if b in S)


def is_conflict_free(af, S):
    """No attack pair inside S."""
    return _conflict_free(af.atts, _check_subset(af.args, S))


def set_attacks(af, S, b):
    """Does some member of S attack b?"""
    if b not in af.args:
        raise UnknownArgument("no argument %r" % b)
    S = _check_subset(af.args, S)
    return any(x == b and a in S for a, x in af.atts)


def is_acceptable(af, a, S):
    """Every attacker of a is attacked by S."""
    if a not in af.args:
        raise UnknownArgument("no argument %r" % a)
    S = _check_subset(af.args, S)
    struck = {y for x, y in af.atts if x in S}
    return all(x in struck for x, y in af.atts if y == a)


def is_admissible(af, S):
    """Conflict-free and every member is acceptable with respect to S."""
    return _admissible(af.atts, _check_subset(af.args, S))


# -- enumeration --

def _natural_order(args):
    """The arguments sorted by natural_key, and each argument's position in
    that list."""
    order = sorted(args, key=natural_key)
    return order, {a: i for i, a in enumerate(order)}


def _pieces(pairs, cap):
    """The weakly connected pieces of an attack graph given as (attacker,
    attacked) pairs of natural positions, as (positions, attacks, attackers):
    the members' positions, ascending, and tables from member bits to masks,
    where the member at the i-th highest position is bit i.  A piece's tables
    are made, keyed by its bits, as soon as its flood fill ends, and one pass
    over the pairs fills them through each position's seat: its bit and its
    piece's tables.  Raises TooLarge, before any table is filled or any
    search runs, if some piece has over cap members, naming the largest."""
    near = defaultdict(set)
    for p, q in pairs:
        near[p].add(q)
        near[q].add(p)
    pieces, seat, largest = [], {}, 0   # seat: position -> its bit, its piece's tables
    for p in sorted(near):      # flood fill, so pieces come in natural order
        if p in near:   # not yet in a piece
            members, frontier = {p}, [p]
            while frontier:
                new = near.pop(frontier.pop()) - members
                members |= new
                frontier += new
            k = len(members)
            if k > cap:     # refused below, so it gets no tables
                largest = max(largest, k)
                continue
            positions = sorted(members)
            bits = [1 << i for i in range(k - 1, -1, -1)]
            attacks, attackers = dict.fromkeys(bits, 0), dict.fromkeys(bits, 0)
            for p, b in zip(positions, bits):
                seat[p] = b, attacks, attackers
            pieces.append((positions, attacks, attackers))
    if largest:
        raise TooLarge("a connected piece of %d arguments exceeds the cap of %d"
                       % (largest, cap))
    for p, q in pairs:
        b, attacks, _ = seat[p]
        c, _, attackers = seat[q]
        attacks[b] |= c
        attackers[c] |= b
    return pieces


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
    still take one of them is not reported.  The children wait on a stack,
    so a deep piece cannot reach Python's recursion limit.  A child left with
    at most two candidates is settled without being pushed: its maximal
    extensions take both candidates if they are compatible, else each one
    alone, and each is reported if no excluded member could still join it.
    """
    _, attacks, attackers = piece
    allowed = 0
    for b, a in attacks.items():
        if not a & b:   # no self-attack
            allowed |= b
    compatible = {b: allowed & ~(a | attackers[b] | b) for b, a in attacks.items()}
    if not allowed:     # every member attacks itself
        return [0]
    found, stack = [], [(0, allowed, 0)]
    while stack:
        chosen, cand, excluded = stack.pop()
        # pivot: the member compatible with the most candidates; branching
        # only on candidates outside its compatible set misses no maximal set
        best, pivot, rest = -1, 0, cand | excluded
        while rest:
            low = rest & -rest
            near = compatible[low]
            count = (cand & near).bit_count()
            if count > best:
                best, pivot = count, near
            rest ^= low
        rest = cand & ~pivot
        while rest:
            low = rest & -rest
            near = compatible[low]
            sub, out = cand & near, excluded & near
            high = sub & (sub - 1)
            if not sub:
                if not out:
                    _keep(found, chosen | low, NAIVE)
            elif not high:
                if not out & compatible[sub]:
                    _keep(found, chosen | low | sub, NAIVE)
            elif high & (high - 1):
                stack.append((chosen | low, sub, out))
            else:   # two candidates
                one, other = compatible[sub ^ high], compatible[high]
                if one & high:
                    if not out & one & other:
                        _keep(found, chosen | low | sub, NAIVE)
                else:
                    if not out & one:
                        _keep(found, chosen | low | sub ^ high, NAIVE)
                    if not out & other:
                        _keep(found, chosen | low | high, NAIVE)
            cand ^= low
            excluded |= low
            rest ^= low
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
    or the first candidate when every attacker is answered.  The search
    follows each inclusion at once and pushes the exclusion onto a stack,
    so the leaves come in depth-first order, which the cut by sets found
    relies on, and a deep piece cannot reach Python's recursion limit.
    """
    _, attacks, attackers = piece
    allowed, conflict = 0, {}
    for b, a in attacks.items():
        if not a & b:   # no self-attack
            allowed |= b
        conflict[b] = a | attackers[b]

    # the grounded extension: the least set holding every member it defends
    grounded = struck = 0
    while True:
        defended = 0
        for b, a in attackers.items():
            if not a & ~struck:
                defended |= b
        if defended == grounded:
            break
        grounded, struck = defended, 0
        for b, a in attacks.items():
            if b & defended:
                struck |= a
    clash = 0
    for b, c in conflict.items():
        if b & grounded:
            clash |= c
    found, stack = [], [(grounded, allowed & ~(grounded | clash), 0, struck)]
    while stack:
        chosen, cand, need, struck = stack.pop()
        while True:     # down the inclusion branches; each exclusion waits
            unmet = need & ~struck
            fewest = cand
            while unmet:
                low = unmet & -unmet
                defenders = attackers[low] & cand
                if not defenders:
                    break
                if defenders.bit_count() < fewest.bit_count():
                    fewest = defenders
                unmet ^= low
            if unmet:   # an attacker that nothing left can answer
                break
            span = chosen | cand
            for f in found:
                if not span & ~f:   # only subsets of a set found are left
                    break
            else:
                if not cand:
                    _keep(found, chosen, PREFERRED)
                    break
                low = fewest & -fewest
                stack.append((chosen, cand ^ low, need, struck))
                chosen, cand = chosen | low, cand & ~(low | conflict[low])
                need, struck = need | attackers[low], struck | attacks[low]
                continue
            break
    return found


def _block(families, items, top, base, lifts):
    """Every extension of one block, as a list of items, its slice of the
    order, in descending order of their masks over the slice.

    families holds the masks of the block's pieces; top is 1 << len(items),
    the bit above the slice.  A block of one piece that fills its slice
    (lifts is None) takes that piece's masks as they are, since the piece's
    bit i is then the slice's bit i.  Otherwise each piece's masks are
    lifted to the slice by its bits, the slice bits of its members from the
    highest down, which a mask's binary digits select.  Each lifted mask is
    OR-ed with one of every other piece's and with base, the top bit and the
    slice's free arguments, which are constant one bits.  The family is
    sorted only if it has more than one mask, and each mask is decoded once:
    with the top bit set, its binary digits select items in one C pass; a
    loop over the bits of long masks would be quadratic."""
    if lifts is None:
        masks, = families
    else:
        masks = [base]
        for family, bits in zip(families, lifts):    # OR product
            k = 1 << len(bits)
            family = [sum(compress(bits, bin(e | k)[3:].encode().translate(_SELECTOR)))
                      for e in family]
            masks = [m | e for m in masks for e in family]
    if len(masks) > 1:
        masks.sort(reverse=True)
    return [list(compress(items, bin(m | top)[3:].encode().translate(_SELECTOR)))
            for m in masks]


def _join(families):
    """Every concatenation of one list of each family, in left-major order.
    The halves are joined first, so each list of the result is made by one
    concatenation and its elements are copied once."""
    if len(families) == 1:
        return families[0]
    mid = len(families) // 2
    left, right = _join(families[:mid]), _join(families[mid:])
    return [x + y for x in left for y in right]


def _family(kinds, pieces, order):
    """For each semantics of kinds in turn, every extension of a framework
    with these attack pieces, as a list of its arguments in natural order,
    in the report's order: that of their position lists.

    Pieces whose [first, last] position intervals overlap form one block.
    Block i owns the slice of the order from the end of block i-1 (or 0)
    through its last member (through the end, for the last block), so the
    slices of free arguments before, between, inside and after the pieces
    fall to the block that follows them.  The layout depends on the pieces
    alone, so it is worked out once, on the first family, and serves every
    family: each block's slice, its pieces, their members' bits in the
    slice, and whether it is one piece that fills its slice.  _block lists
    each block's extensions over its slice; _join concatenates one from
    every block.  A family is an antichain, so the lowest position where two
    of its sets differ decides their order: as masks of natural-order bits,
    their highest differing bit.  Each block's list is in descending mask
    order and the first block holds the highest bits, so the left-major
    product is in that order too, and the whole family needs no sort.  Every
    search of a family runs, and its size is checked against MAX_EXTENSIONS,
    before any of its lists is built."""
    spans = []  # [first piece, end piece, last position] per block
    for i, (positions, _, _) in enumerate(pieces):
        if spans and positions[0] <= spans[-1][2]:
            spans[-1][1:] = i + 1, max(spans[-1][2], positions[-1])
        else:
            spans.append([i, i + 1, positions[-1]])
    spans = spans or [[0, 0, 0]]    # no attacks: one block of free arguments
    spans[-1][2] = len(order) - 1
    layout, start = [], 0   # (first piece, end piece, items, top, base, lifts)
    for first, stop, last in spans:
        items, end = order[start:last + 1], last + 1
        top = 1 << len(items)
        if stop - first == 1 and len(pieces[first][0]) == len(items):
            lifts, base = None, top     # one piece that fills its slice
        else:
            lifts = [[1 << end - 1 - p for p in positions]
                     for positions, _, _ in pieces[first:stop]]
            base = (top << 1) - 1 - sum(map(sum, lifts))    # top bit and free items
        layout.append((first, stop, items, top, base, lifts))
        start = end
    for which in kinds:
        search = _naive_masks if which == NAIVE else _preferred_masks
        families = [search(p) for p in pieces]
        total = math.prod(map(len, families))
        if total > MAX_EXTENSIONS:
            raise TooLarge("%d %s extensions exceed the limit of %d"
                           % (total, which.lower(), MAX_EXTENSIONS))
        yield _join([_block(families[first:stop], items, top, base, lifts)
                     for first, stop, items, top, base, lifts in layout])


def _enumerate(af, which, cap):
    order, rank = _natural_order(af.args)
    family, = _family((which,), _pieces([(rank[a], rank[b]) for a, b in af.atts], cap),
                      order)
    return tuple(Extension(frozenset(members)) for members in family)


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
        exts.append(Extension(members))
    exts.sort(key=lambda e: [natural_key(x) for x in e.sorted_members])
    return tuple(exts)


def semantics_report(af, cap=DEFAULT_CAP, check_sets=()):
    """JSON-ready summary: framework, naive / preferred families, and
    conflict-free/admissible verdicts for any requested sets."""
    order, rank = _natural_order(af.args)
    pairs = sorted([(rank[a], rank[b]) for a, b in af.atts])
    naive, preferred = _family((NAIVE, PREFERRED), _pieces(pairs, cap), order)
    report = {
        "args": order,
        "atts": [[order[i], order[j]] for i, j in pairs],
        "naive": naive,
        "preferred": preferred,
        "checked_sets": [],
    }
    for S in check_sets:
        members = _check_subset(rank, S)
        report["checked_sets"].append({
            "set": sorted(S, key=natural_key),
            "conflict_free": _conflict_free(af.atts, members),
            "admissible": _admissible(af.atts, members),
        })
    return report
