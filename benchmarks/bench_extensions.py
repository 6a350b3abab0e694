"""Time naive and preferred enumeration on connected attack frameworks.

Prints a ladder over single weakly connected frameworks of growing size, so
decomposition into pieces does nothing and only the searches inside one
piece are timed.  For each size it reports the median time of
naive_extensions and preferred_extensions over a batch of frameworks, the
family sizes, and, up to ORACLE_CAP arguments, the time of the 2^n
subset-table oracle and whether its families agree.

Usage: python3 benchmarks/bench_extensions.py [--sizes 12,14,16,18,20,22,24]
       [--frameworks 4] [--density 0.15] [--repeats 5] [--seed 1]
"""

import argparse
import random
import statistics
import time

from akgraph import semantics as sem


def connected_af(rng, n, density):
    """A random spanning tree of attacks in random directions, extra attacks
    with the given density, and self-attacks at a quarter of it."""
    atts = set()
    for i in range(2, n + 1):
        j = rng.randint(1, i - 1)
        atts.add((i, j) if rng.random() < 0.5 else (j, i))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rng.random() < (density / 4 if i == j else density):
                atts.add((i, j))
    args = tuple("a%d" % i for i in range(1, n + 1))
    return sem.AFProjection(args, tuple(("a%d" % s, "a%d" % t) for s, t in sorted(atts)))


def median_ms(fn, batch, repeats):
    """Median over repeats of the time to run fn on the whole batch, and the
    last results."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = [fn(f) for f in batch]
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times), out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="12,14,16,18,20,22,24",
                    help="comma-separated framework sizes")
    ap.add_argument("--frameworks", type=int, default=4, help="frameworks per size")
    ap.add_argument("--density", type=float, default=0.15)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    header = "%4s  %10s  %10s  %7s  %7s  %10s  %5s" % (
        "n", "naive ms", "pref ms", "#naive", "#pref", "oracle ms", "agree")
    print(header)
    print("-" * len(header))
    for n in (int(s) for s in args.sizes.split(",") if s):
        batch = [connected_af(rng, n, args.density) for _ in range(args.frameworks)]
        t_naive, naive = median_ms(sem.naive_extensions, batch, args.repeats)
        t_pref, pref = median_ms(sem.preferred_extensions, batch, args.repeats)
        row = "%4d  %10.2f  %10.2f  %7d  %7d" % (
            n, t_naive, t_pref, sum(map(len, naive)), sum(map(len, pref)))
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
