"""Deterministic inputs for the benchmark workloads.

Nothing here imports akgraph: the inputs, like the checks, are made
independently of the code under test.

- The bundled essay056 (a copy of the test fixture, kept here so that the
  benchmark's input cannot change under it) and its preference chain.
- essay056 replicated into one long document, offsets and ids shifted.
- Seeded abstract argumentation frameworks: disjoint unions of small pieces,
  and single dense frameworks.
"""

import random
import re
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
ESSAY = "essay056"

# Facts of the single essay that the replication shifts.  The essay yields
# 18 arguments; the merged major claim is the last of them (A18), so each copy
# contributes the 17 others as one contiguous block of argument ids.
ARGS_PER_COPY = 17
COMPONENTS_PER_COPY = 15
RULES_PER_COPY = 4

_ENT = re.compile(r"^T(\d+)\t(\S+) (\d+) (\d+)\t(.*)$")
_REL = re.compile(r"^R(\d+)\t(\S+) Arg1:T(\d+) Arg2:T(\d+)$")
_ATTR = re.compile(r"^A(\d+)\tStance T(\d+) (For|Against)$")
_PREF_ID = re.compile(r"A(\d+)")


def read_essay():
    """(text, ann, prefs) of the bundled essay."""
    return tuple((DATA / ("%s.%s" % (ESSAY, ext))).read_text(encoding="utf-8")
                 for ext in ("txt", "ann", "prefs"))


def _ann_lines(ann):
    return [line for line in ann.split("\n") if line.strip()]


def replicate(text, ann, prefs, copies):
    """essay056 repeated `copies` times as one document.

    Each copy shifts offsets by the text length and T/R ids by the copy's
    block; it keeps its own support relations, `For` stances and preference
    chain (over its own argument ids).  Attack relations and `Against`
    stances stay in the first copy only, so the attack graph keeps the single
    essay's two attacks however long the document gets.
    """
    lines = _ann_lines(ann)
    n_t = max(int(m.group(1)) for m in map(_ENT.match, lines) if m)
    n_r = max(int(m.group(1)) for m in map(_REL.match, lines) if m)
    chains = [line.split("#")[0].strip() for line in prefs.split("\n")]
    chains = [c for c in chains if c]
    out_ann, out_prefs = [], []
    n_attr = 0
    for k in range(copies):
        shift = k * len(text)
        for line in lines:
            m = _ENT.match(line)
            if m:
                tid, kind, s, e, surface = m.groups()
                out_ann.append("T%d\t%s %d %d\t%s" % (int(tid) + k * n_t, kind,
                                                      int(s) + shift,
                                                      int(e) + shift, surface))
                continue
            m = _REL.match(line)
            if m:
                rid, kind, src, tgt = m.groups()
                if kind == "Attacks" and k > 0:
                    continue
                out_ann.append("R%d\t%s Arg1:T%d Arg2:T%d" % (
                    int(rid) + k * n_r, kind, int(src) + k * n_t, int(tgt) + k * n_t))
                continue
            m = _ATTR.match(line)
            if m is None:
                raise ValueError("unexpected annotation line %r" % line)
            _, tid, stance = m.groups()
            if stance == "Against" and k > 0:
                continue
            n_attr += 1
            out_ann.append("A%d\tStance T%d %s" % (n_attr, int(tid) + k * n_t, stance))
        for chain in chains:
            out_prefs.append(_PREF_ID.sub(
                lambda m: "A%d" % (int(m.group(1)) + k * ARGS_PER_COPY), chain))
    return text * copies, "\n".join(out_ann) + "\n", "\n".join(out_prefs) + "\n"


def shuffle_ann(ann, seed):
    """The same annotations with their lines in a seeded order."""
    lines = _ann_lines(ann)
    random.Random(seed).shuffle(lines)
    return "\n".join(lines) + "\n"


# -- abstract argumentation frameworks --
#
# A framework is (args, atts): a tuple of argument names and a tuple of
# (attacker, attacked) pairs.  The structure of a batch comes from a fixed
# structure seed, so that every run times the same frameworks.  The run's
# --seed picks the argument names and the order of the attack list.  Names
# keep the structure's order under akgraph's natural sort (a2 < a10), so the
# enumeration visits the same candidate sets in the same order whatever the
# seed; renaming in a random order moved the batch's time by up to 5 %.

def _connected_piece(rng, size, density):
    """Attack pairs over range(size) whose graph is weakly connected."""
    while True:
        atts = {(i, j) for i in range(size) for j in range(size)
                if i != j and rng.random() < density}
        if rng.random() < 0.15:
            atts.add((rng.randrange(size),) * 2)
        if _is_connected(size, atts):
            return sorted(atts)


def _is_connected(size, atts):
    seen, stack = {0}, [0]
    adj = {i: set() for i in range(size)}
    for a, b in atts:
        adj[a].add(b)
        adj[b].add(a)
    while stack:
        for j in adj[stack.pop()] - seen:
            seen.add(j)
            stack.append(j)
    return len(seen) == size


def pieces_structures(structure_seed, frameworks, pieces, sizes=(3, 4)):
    """Frameworks made of `pieces` disjoint connected pieces each.

    Returns, per framework, the list of pieces as (size, atts) over local
    indices.
    """
    rng = random.Random(structure_seed)
    out = []
    for _ in range(frameworks):
        out.append([(size, _connected_piece(rng, size, 0.45))
                    for size in (rng.choice(sizes) for _ in range(pieces))])
    return out


def dense_structures(structure_seed, frameworks, size, density):
    """Single weakly connected frameworks of `size` arguments."""
    rng = random.Random(structure_seed)
    return [[(size, _connected_piece(rng, size, density))] for _ in range(frameworks)]


def label(structures, seed):
    """Name the arguments of each framework from the seed, in structure order.

    Returns a list of (args, atts, pieces) where pieces lists each piece's
    (args, atts) under the same names.
    """
    rng = random.Random(seed)
    out = []
    for pieces in structures:
        total = sum(size for size, _ in pieces)
        names = ["a%d" % k for k in sorted(rng.sample(range(1, 100 * total), total))]
        named, base = [], 0
        for size, atts in pieces:
            p_args = tuple(names[base:base + size])
            p_atts = tuple((p_args[i], p_args[j]) for i, j in atts)
            named.append((p_args, p_atts))
            base += size
        args = tuple(a for p_args, _ in named for a in p_args)
        atts = [pair for _, p_atts in named for pair in p_atts]
        rng.shuffle(atts)
        out.append((args, tuple(atts), named))
    return out
