"""Output checks for the benchmark workloads.

Every expected value is derived here, independently of akgraph: from the
figures the paper gives for essay056, from how the long document is built,
and from exhaustive enumeration.  No check compares against a saved copy of
the program's output.  Each check returns a list of problems; empty means
the output is right.
"""

import itertools
import json
from pathlib import Path

from inputs import ARGS_PER_COPY, COMPONENTS_PER_COPY, RULES_PER_COPY

# akgraph run writes these seven files per document.
SUFFIXES = ("kb.dot", "akg.dot", "kb.json", "akg.json", "args.json", "apx",
            "semantics.json")

# The essay's attacks, from the paper: the premise A16 attacks the claim A17,
# and A17, whose stance is Against, attacks the merged major claim, which is
# the last argument of the document.
ATTACKER, ATTACKED = "A16", "A17"

# Appended to a backward-causal marker span ("due to [the fact that]").
BRIDGE = " the fact that"


def family(members_lists):
    """A family of extensions as a set of frozensets."""
    return {frozenset(m) for m in members_lists}


def brute_families(args, atts):
    """(naive, preferred) of a small framework, by trying every subset."""
    args = list(args)
    cf, adm = [], []
    for r in range(len(args) + 1):
        for subset in itertools.combinations(args, r):
            s = set(subset)
            if any(a in s and b in s for a, b in atts):
                continue
            cf.append(s)
            struck = {b for a, b in atts if a in s}
            if all(x in struck for x, y in atts if y in s):
                adm.append(s)
    return _maximal(cf), _maximal(adm)


def _maximal(sets):
    return {frozenset(s) for s in sets if not any(s < t for t in sets)}


def product(piece_families):
    """Extensions of a disjoint union: one extension from each piece."""
    return {frozenset().union(*combo) for combo in itertools.product(*piece_families)}


def check_family(label, got, expected):
    problems = []
    for ext in sorted(expected - got, key=sorted):
        problems.append("%s: missing extension %s" % (label, sorted(ext)))
    for ext in sorted(got - expected, key=sorted):
        problems.append("%s: extra extension %s" % (label, sorted(ext)))
    return problems


def essay_framework(copies):
    """The arguments and attacks the paper fixes for `copies` copies."""
    last = "A%d" % (ARGS_PER_COPY * copies + 1)
    args = ["A%d" % i for i in range(1, ARGS_PER_COPY * copies + 2)]
    return args, {(ATTACKER, ATTACKED), (ATTACKED, last)}


def check_essay_semantics(report, copies):
    """A semantics report (as in the .semantics.json export) for essay056
    replicated `copies` times."""
    args, atts = essay_framework(copies)
    problems = []
    if report["args"] != args:
        problems.append("args: %d, expected A1..A%d"
                        % (len(report["args"]), len(args)))
    got_atts = {tuple(p) for p in report["atts"]}
    if got_atts != atts or len(report["atts"]) != len(atts):
        problems.append("attacks %s, expected %s" % (sorted(got_atts), sorted(atts)))
    naive, preferred = brute_families(
        sorted({x for pair in atts for x in pair}), atts)
    free = frozenset(args) - {x for pair in atts for x in pair}
    problems += check_family("naive", family(report["naive"]),
                             {e | free for e in naive})
    problems += check_family("preferred", family(report["preferred"]),
                             {e | free for e in preferred})
    return problems


def check_counts(counts, copies):
    """Summary counts of a pipeline run on `copies` copies of essay056."""
    expected = {
        "components": COMPONENTS_PER_COPY * copies,
        "rules": RULES_PER_COPY * copies,
        "arguments": ARGS_PER_COPY * copies + 1,
        "attacks": 2,
        "preferred extensions": 1,
    }
    return ["%s: %s, expected %d" % (k, counts.get(k), v)
            for k, v in expected.items() if counts.get(k) != v]


def lexicon_surfaces(path):
    """Casefolded surfaces of a lexicon file, parsed here, not by akgraph."""
    out = set()
    for line in Path(path).read_text(encoding="utf-8").split("\n"):
        line = line.strip()
        if line and not line.startswith("#"):
            out.add(line.split("\t")[0].strip().casefold())
    return out


def check_ims(text, ims, surfaces, copy_len, copies):
    """Every marker span slices the text to a lexicon surface (plus an
    absorbed bridge phrase), and every copy has the first copy's markers at
    the same offsets within the copy."""
    problems = []
    for im in ims:
        s, e = im.span
        sliced = text[s:s + len(im.surface)]
        if sliced != im.surface or sliced.casefold() not in surfaces:
            problems.append("IM %r at %s slices to %r" % (im.surface, im.span, sliced))
        elif text[s:e].casefold() not in (sliced.casefold(),
                                          sliced.casefold() + BRIDGE):
            problems.append("IM %r span %s covers %r" % (im.surface, im.span, text[s:e]))
    per_copy = {}
    for im in ims:
        k = im.span[0] // copy_len
        per_copy.setdefault(k, set()).add(
            (im.span[0] - k * copy_len, im.span[1] - k * copy_len, im.surface))
    for k in range(1, copies):
        if per_copy.get(k) != per_copy.get(0):
            problems.append("copy %d markers differ from copy 1" % (k + 1))
    return problems


def check_cli_output(out_dir, returncode, stderr, doc_id):
    """An `akgraph run` on essay056: exit 0, seven files, the paper's
    arguments, attacks and extensions."""
    if returncode != 0:
        return ["exit status %d: %s" % (returncode, stderr.strip()[-300:])]
    problems = []
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    names = sorted(p.name for p in Path(out_dir).iterdir())
    expected = sorted("%s.%s" % (doc_id, s) for s in SUFFIXES)
    if names != expected:
        return problems + ["files %s, expected %s" % (names, expected)]
    if any((Path(out_dir) / n).stat().st_size == 0 for n in names):
        problems.append("empty export file")
    report = json.loads((Path(out_dir) / ("%s.semantics.json" % doc_id))
                        .read_text(encoding="utf-8"))
    return problems + check_essay_semantics(report, 1)


def check_af_report(report, naive, preferred):
    """A semantics report of one framework against expected families."""
    return (check_family("naive", family(report["naive"]), naive)
            + check_family("preferred", family(report["preferred"]), preferred))
