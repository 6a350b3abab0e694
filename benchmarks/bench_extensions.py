"""Time naive and preferred enumeration on connected attack frameworks.

Prints a ladder over single weakly connected frameworks of growing size, so
decomposition into pieces does nothing and only the searches inside one
piece are timed.  For each size it reports the median time of
naive_extensions, preferred_extensions and semantics_report over a batch of
frameworks, the family sizes, and, up to ORACLE_CAP arguments, the time of
the 2^n subset-table oracle and whether its families agree.

Sizes above DEFAULT_CAP run with the cap raised to the size, to show what
the cap guards: a family larger than MAX_EXTENSIONS is refused with
TooLarge, and its count reads "over".

Two pieces rows time frameworks made of --pieces small disjoint pieces, whose
families multiply: laid out consecutively, each piece is a block of its own
and the report joins the blocks' lists; interleaved (the same frameworks,
the pieces taking ids in turn), all pieces form one block, whose extensions
are OR-ed and decoded whole.  A last row times a large document: --large
arguments, almost all free, with LARGE_PIECES small attack pieces among
them.  Each extension there is a list of about n ids, so building those
lists, not the searches, is what it times.

Usage: python3 benchmarks/bench_extensions.py [--sizes 12,16,20,24,32,64,96]
       [--frameworks 4] [--density 0.15] [--repeats 5] [--seed 1]
       [--pieces 5] [--large 5000]
"""

import argparse
import random
import statistics
import time

from akgraph import semantics as sem

LARGE_PIECES = 4
PIECE_DENSITY = 0.45


def connected_atts(rng, n, density):
    """A random spanning tree of attacks over 1..n in random directions,
    extra attacks with the given density, and self-attacks at a quarter of
    it."""
    atts = set()
    for i in range(2, n + 1):
        j = rng.randint(1, i - 1)
        atts.add((i, j) if rng.random() < 0.5 else (j, i))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rng.random() < (density / 4 if i == j else density):
                atts.add((i, j))
    return sorted(atts)


def connected_af(rng, n, density):
    args = tuple("a%d" % i for i in range(1, n + 1))
    return sem.AFProjection(args, tuple(("a%d" % s, "a%d" % t)
                                        for s, t in connected_atts(rng, n, density)))


def large_af(rng, n, pieces, density):
    """n arguments, and pieces connected 3- or 4-argument attack pieces over
    arguments drawn at random from all n."""
    args = tuple("a%d" % i for i in range(1, n + 1))
    chosen = rng.sample(args, 4 * pieces)
    atts = []
    for k in range(pieces):
        members = chosen[4 * k:4 * k + rng.choice((3, 4))]
        atts += [(members[s - 1], members[t - 1])
                 for s, t in connected_atts(rng, len(members), density)]
    return sem.AFProjection(args, tuple(atts))


def pieces_structure(rng, pieces):
    """(size, attacks over 1..size) of connected 3- or 4-argument pieces."""
    return [(size, connected_atts(rng, size, PIECE_DENSITY))
            for size in (rng.choice((3, 4)) for _ in range(pieces))]


def pieces_af(structure, interleaved):
    """The pieces as one framework: each piece a run of adjacent ids, or,
    interleaved, the pieces taking ids in turn, so that the position
    intervals of all pieces overlap."""
    slots = [(k, i) for k, (size, _) in enumerate(structure) for i in range(size)]
    if interleaved:
        slots.sort(key=lambda slot: slot[::-1])
    name = {slot: "a%d" % j for j, slot in enumerate(slots, 1)}
    return sem.AFProjection(tuple(name.values()), tuple(
        (name[k, s - 1], name[k, t - 1])
        for k, (_, atts) in enumerate(structure) for s, t in atts))


def median_ms(fn, batch, repeats, cap):
    """Median over repeats of the time to run fn on the whole batch, and the
    last results, None for a framework refused with TooLarge."""
    def run(f):
        try:
            return fn(f, cap)
        except sem.TooLarge:
            return None

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = [run(f) for f in batch]
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times), out


def count(families):
    return "over" if None in families else str(sum(map(len, families)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="12,16,20,24,32,64,96",
                    help="comma-separated framework sizes")
    ap.add_argument("--frameworks", type=int, default=4, help="frameworks per size")
    ap.add_argument("--density", type=float, default=0.15)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pieces", type=int, default=5,
                    help="pieces per framework of the two pieces rows (0: no such rows)")
    ap.add_argument("--large", type=int, default=5000,
                    help="arguments of the large-document row (0: no such row)")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    rows = [("connected", max(n, sem.DEFAULT_CAP),
             [connected_af(rng, n, args.density) for _ in range(args.frameworks)])
            for n in (int(s) for s in args.sizes.split(",") if s)]
    if args.pieces:
        structures = [pieces_structure(rng, args.pieces) for _ in range(args.frameworks)]
        rows += [(layout, sem.DEFAULT_CAP,
                  [pieces_af(s, layout == "interleaved") for s in structures])
                 for layout in ("pieces", "interleaved")]
    if args.large:
        rows.append(("large", sem.DEFAULT_CAP,
                     [large_af(rng, args.large, LARGE_PIECES, args.density)
                      for _ in range(args.frameworks)]))
    header = "%-11s  %5s  %10s  %10s  %10s  %7s  %7s  %10s  %5s" % (
        "row", "n", "naive ms", "pref ms", "report ms", "#naive", "#pref", "oracle ms",
        "agree")
    print(header)
    print("-" * len(header))
    for kind, cap, batch in rows:
        n = max(len(f.args) for f in batch)
        t_naive, naive = median_ms(sem.naive_extensions, batch, args.repeats, cap)
        t_pref, pref = median_ms(sem.preferred_extensions, batch, args.repeats, cap)
        t_report, _ = median_ms(sem.semantics_report, batch, args.repeats, cap)
        row = "%-11s  %5d  %10.2f  %10.2f  %10.2f  %7s  %7s" % (
            kind, n, t_naive, t_pref, t_report, count(naive), count(pref))
        if n <= sem.ORACLE_CAP:
            t0 = time.perf_counter()
            oracle = [(sem.oracle_extensions(f, sem.NAIVE),
                       sem.oracle_extensions(f, sem.PREFERRED)) for f in batch]
            t_oracle = (time.perf_counter() - t0) * 1e3
            agree = oracle == list(zip(naive, pref))
            row += "  %10.2f  %5s" % (t_oracle, "yes" if agree else "NO")
        else:
            row += "  %10s  %5s" % ("-", "-")
        print(row)


if __name__ == "__main__":
    main()
