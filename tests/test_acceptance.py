"""End-to-end acceptance checks for the whole pipeline.

Each criterion prints one PASS/FAIL line (visible with pytest -s) and fails
the run if any of its checks fail.  Golden values are frozen here on purpose:
a change in behaviour must show up as a diff in this file.
"""

import itertools

import numpy as np

from akgraph import markers
from akgraph import semantics as sem
from akgraph.cli import FORMATS, PipelineConfig, render_format, run_pipeline
from akgraph.ekb import rule_preference_sets
from akgraph.ingest import make_text_document

from conftest import DATA, oracle_families


def norm(s):
    return " ".join(s.split())


class Checker:
    def __init__(self, criterion):
        self.criterion = criterion
        self.failures = []

    def check(self, ok, label):
        if not ok:
            self.failures.append(label)

    def equal(self, got, want, label):
        if got != want:
            self.failures.append("%s: got %r, want %r" % (label, got, want))

    def finish(self, summary):
        status = "PASS" if not self.failures else "FAIL"
        print("[criterion %d] %s — %s" % (self.criterion, status, summary))
        assert not self.failures, "; ".join(self.failures)


EXPECTED_ARGUMENTS = {
    "A1": ("P", "In my country, English is a required course from elementary"
                " school"),
    "A2": ("IRP", "In my country, English is a required course from elementary"
                  " school ⇒ studying abroad is easy and becomes hot among"
                  " youngsters"),
    "A3": ("P", "studying abroad is easy and becomes hot among youngsters"),
    "A4": ("P", "language obstacle is no longer a problem, which results in"
                " mutual understanding and trust between their mother land and"
                " the host country"),
    "A5": ("IRP", "language obstacle is no longer a problem, which results in"
                  " mutual understanding and trust between their mother land"
                  " and the host country ⇒ enhances relationship and promotes"
                  " international business"),
    "A6": ("P", "enhances relationship and promotes international business"),
    "A7": ("P", "communication between countries and cultures become"
                " convenient"),
    "A8": ("P", "Taking IT industry for an example, top technical science is"
                " published in English"),
    "A9": ("P", "It's neither to get a translated version of these articles,"
                " nor to always have a translator besides"),
    "A10": ("IRP", "It's neither to get a translated version of these"
                   " articles, nor to always have a translator besides ⇒ they"
                   " have no choice but choosing English as a second language"),
    "A11": ("P", "they have no choice but choosing English as a second"
                 " language"),
    "A12": ("P", "researchers, especially those who work on high-tech, would"
                 " have wider range of references if they are good at English"),
    "A13": ("C", "No one can deny the huge benefits of the trend that English"
                 " is being accepted universally"),
    "A14": ("P", "English is making lesser-known languages disappear ever"
                 " year"),
    "A15": ("IRP", "English is making lesser-known languages disappear ever"
                   " year ⇒ the culture heritage and nation identity vanish"),
    "A16": ("P", "this is really short-sighted, ignoring the rapid development"
                 " of native economy and society"),
    "A17": ("C", "the culture heritage and nation identity vanish"),
    "A18": ("C", "It's a reasonable loss in globalization; I'm totally"
                 " convinced that the prevalent usage of English brings"
                 " benefits to people and countries all around"),
}


def test_criterion_1_essay_argument_set(essay):
    c = Checker(1)
    aset, ekb = essay["aset"], essay["ekb"]
    c.equal(len(aset.arguments), 18, "argument count")
    ids = {kind: {a.arg_id for a in aset.arguments if a.kind == kind}
           for kind in ("IRP", "C")}
    c.equal(ids["IRP"], {"A2", "A5", "A10", "A15"}, "IRP ids")
    c.equal(ids["C"], {"A13", "A17", "A18"}, "C ids")
    c.equal(sum(a.kind == "P" for a in aset.arguments), 11, "P count")
    for arg in aset.arguments:
        want_kind, want_text = EXPECTED_ARGUMENTS[arg.arg_id]
        c.equal(arg.kind, want_kind, "%s kind" % arg.arg_id)
        c.equal(norm(ekb.member_text(arg.content)), norm(want_text),
                "%s content" % arg.arg_id)
    c.finish("18 arguments, kinds and contents match the golden listing")


def test_criterion_2_essay_interactions(essay):
    c = Checker(2)
    akg = essay["akg"]
    kept = sorted((e.source, e.target) for e in akg.edges if e.kind == "Support")
    pruned = sorted(akg.pruned_supports)
    c.equal(len(kept) + len(pruned), 10, "supports before pruning")
    c.equal(pruned, [("A1", "A3"), ("A14", "A17"), ("A4", "A6"), ("A9", "A11")],
            "pruned supports")
    c.equal(kept, [("A11", "A12"), ("A12", "A13"), ("A13", "A18"),
                   ("A3", "A7"), ("A6", "A7"), ("A8", "A12")],
            "kept supports")
    attacks = sorted((e.source, e.target) for e in akg.edges if e.kind == "Attack")
    c.equal(attacks, [("A16", "A17"), ("A17", "A18")], "attacks")
    groups = set()
    for app in akg.mp_applications:
        groups.add((frozenset(app.antecedent_args) | {app.rule_arg},
                    app.result_arg))
    c.equal(groups, {(frozenset({"A1", "A2"}), "A3"),
                     (frozenset({"A4", "A5"}), "A6"),
                     (frozenset({"A9", "A10"}), "A11"),
                     (frozenset({"A14", "A15"}), "A17")}, "modus ponens groups")
    c.finish("10 supports (4 pruned), 2 attacks, 4 modus-ponens groups")


def test_criterion_3_essay_semantics(essay):
    c = Checker(3)
    af = essay["af"]
    s_para2 = {"A%d" % i for i in range(1, 14)}
    s_para3 = {"A14", "A15", "A16", "A17"}
    s_essay = {"A%d" % i for i in range(1, 19)}
    s_ns = frozenset({"A%d" % i for i in range(1, 17)} | {"A18"})
    c.equal(sem.is_conflict_free(af, s_para2), True, "cf(paragraph-2 set)")
    c.equal(sem.is_admissible(af, s_para2), True, "adm(paragraph-2 set)")
    c.equal(sem.is_conflict_free(af, s_para3), False, "cf(paragraph-3 set)")
    c.equal(sem.is_conflict_free(af, s_essay), False, "cf(whole essay)")
    c.equal(sem.is_conflict_free(af, s_para2 | {"A18"}), True,
            "cf(paragraph-2 + A18)")
    c.equal(sem.is_admissible(af, s_para2 | {"A18"}), False,
            "adm(paragraph-2 + A18)")
    naive = [e.members for e in sem.naive_extensions(af)]
    c.check(s_ns in naive, "S_NS is a naive extension")
    preferred = [e.members for e in sem.preferred_extensions(af)]
    c.equal(preferred, [s_ns], "preferred extensions")
    c.finish("conflict-freeness/admissibility verdicts and extension families"
             " match")


def test_criterion_4_undercut(pollock):
    c = Checker(4)
    akg = pollock["akg"]
    attacks = [e for e in akg.edges if e.kind == "Attack"]
    c.equal(len(attacks), 1, "attack count")
    if attacks:
        edge = attacks[0]
        c.equal(edge.attack_type, "UC", "attack type")
        target = next(n for n in akg.nodes if n.arg_id == edge.target)
        c.equal(target.kind, "InferenceRulePremise", "target node kind")
    c.finish("exactly one undercut, aimed at the inference-rule premise")


def test_criterion_5_marker_heuristics():
    c = Checker(5)

    def ims_of(text):
        return markers.detect_ims(make_text_document("d", text))

    text = ("She was the most experienced candidate. Therefore, she was"
            " selected for the position.\n")
    ms = ims_of(text)
    c.equal(len(ms), 1, "forward-initial match count")
    if ms:
        m = ms[0]
        c.equal(m.heuristic, markers.FORWARD_INITIAL, "forward-initial kind")
        c.equal(text[slice(*m.antecedent_span)],
                "She was the most experienced candidate.",
                "forward-initial antecedent")
        c.equal(text[slice(*m.consequent_span)],
                "she was selected for the position.",
                "forward-initial consequent")

    text = "The evidence was overwhelming; thus, the jury returned a guilty verdict.\n"
    ms = ims_of(text)
    c.equal(len(ms), 1, "forward-medial match count")
    if ms:
        m = ms[0]
        c.equal(m.heuristic, markers.FORWARD_MEDIAL, "forward-medial kind")
        c.equal(text[slice(*m.antecedent_span)],
                "The evidence was overwhelming;", "forward-medial antecedent")
        c.equal(text[slice(*m.consequent_span)],
                "the jury returned a guilty verdict.",
                "forward-medial consequent")

    text = "The event was canceled due to the fact that there was a storm.\n"
    ms = ims_of(text)
    c.equal(len(ms), 1, "backward-causal match count")
    if ms:
        m = ms[0]
        c.equal(m.heuristic, markers.BACKWARD_CAUSAL, "backward-causal kind")
        c.equal(text[slice(*m.consequent_span)], "The event was canceled",
                "backward-causal consequent")
        c.equal(text[slice(*m.antecedent_span)], "there was a storm.",
                "backward-causal antecedent")
        c.check(m.consequent_span[0] < m.antecedent_span[0],
                "backward direction")

    lex = markers.load_lexicon()
    c.equal(len(lex.entries), 28, "lexicon size")
    c.equal(len(lex.surfaces(markers.PREMISE_INDICATOR)), 12,
            "premise indicators")
    c.equal(len(lex.surfaces(markers.CLAIM_INDICATOR)), 16, "claim indicators")
    c.finish("three marker heuristics and the 28-entry default lexicon behave"
             " as documented")


def test_criterion_6_oracle_equivalence():
    c = Checker(6)
    rng = np.random.default_rng(20260823)
    trials = 500
    mismatches = 0
    for _ in range(trials):
        n = int(rng.integers(3, 13))
        density = float(rng.uniform(0.0, 0.5))
        pairs = [(i, j) for i in range(n) for j in range(n)]
        take = rng.random(len(pairs)) < density
        atts = [p for p, t in zip(pairs, take) if t]
        args = tuple("a%d" % (i + 1) for i in range(n))
        af = sem.AFProjection(
            args, tuple(("a%d" % (i + 1), "a%d" % (j + 1)) for i, j in atts))

        for which, main, want in zip((sem.NAIVE, sem.PREFERRED),
                                     (sem.naive_extensions, sem.preferred_extensions),
                                     oracle_families(af)):
            got = [e.members for e in main(af)]
            if got != want:
                mismatches += 1
                continue
            for ext in got:
                if which == sem.NAIVE:
                    c.check(sem.is_conflict_free(af, ext),
                            "naive extension conflict-free")
                    # downward-closed family: maximal iff nothing can be added
                    c.check(all(not sem.is_conflict_free(af, ext | {a})
                                for a in args if a not in ext),
                            "naive extension maximal")
                else:
                    c.check(sem.is_admissible(af, ext),
                            "preferred extension admissible")
            if which == sem.PREFERRED:
                # no strict superset may be admissible
                for ext in got:
                    rest = [a for a in args if a not in ext]
                    c.check(not any(sem.is_admissible(af, ext.union(more))
                                    for k in range(1, len(rest) + 1)
                                    for more in itertools.combinations(rest, k)),
                            "preferred extension maximal")
    c.equal(mismatches, 0, "oracle mismatches over %d random frameworks" % trials)
    c.finish("%d random frameworks: enumeration matches the exhaustive oracle,"
             " predicates and maximality hold" % trials)


def test_criterion_7_structural_invariants(essay, pollock):
    c = Checker(7)

    # knowledge-base partition is disjoint and covers K
    for name, art in (("essay", essay), ("pollock", pollock)):
        ekb = art["ekb"]
        parts = [{f.formula_id for f in ekb.K if f.premise_kind == k}
                 for k in ("n", "p", "a")]
        for x, y in itertools.combinations(parts, 2):
            c.check(not (x & y), "%s: K partition overlaps" % name)
        c.equal(set().union(*parts), {f.formula_id for f in ekb.K},
                "%s: K partition covers K" % name)

    # preference closure of the chain A5 > A2 > A10 > A15 (rules R2 R1 R3 R4)
    ekb = essay["ekb"]
    chain = ["R2", "R1", "R3", "R4"]   # most to least preferred
    want_lt = {(chain[j], chain[i])
               for i in range(len(chain)) for j in range(i + 1, len(chain))}
    c.equal(set(ekb.rule_pref), want_lt, "preference closure")
    for pos, rid in enumerate(chain):
        l1, l2 = rule_preference_sets(ekb, rid)
        c.equal(l1, frozenset(chain[pos + 1:]), "%s inferiors" % rid)
        c.equal(l2, frozenset(chain[:pos]), "%s superiors" % rid)

    # attribute boxes keep their positional layout
    akg = essay["akg"]
    for node in akg.nodes:
        vals = node.attributes.values
        c.equal(vals[0], node.arg_id, "box slot 0 is the argument id")
        if node.kind == "InferenceRulePremise":
            c.equal(len(vals), 5, "rule box arity")
            c.check(vals[1] in ("S", "D"), "rule box slot 1 is the rule kind")
        elif node.kind.endswith("Conclusion"):
            c.check(len(vals) in (2, 3), "conclusion box arity")
        else:
            c.equal(len(vals), 3, "premise box arity")
            c.check(vals[2] in ("n", "p", "a"), "premise box slot 2 is n/p/a")

    # Prem / Conc / Sub recompute from the applications
    for art in (essay, pollock):
        ekb, aset = art["ekb"], art["aset"]
        derived = {a.arg_id for a in aset.arguments if a.top_rule is not None}
        c.equal({app.result_arg for app in aset.mp_applications}, derived,
                "every derived argument has an application")
        for app in aset.mp_applications:
            result = aset.argument(app.result_arg)
            rule = ekb.rule(aset.argument(app.rule_arg).content)
            prem = frozenset().union(*(aset.argument(x).premises
                                       for x in app.antecedent_args))
            c.equal(result.premises, prem, "%s Prem" % result.arg_id)
            c.equal(result.conclusion, rule.consequent, "%s Conc" % result.arg_id)
            want_sub = set()
            for x in app.antecedent_args:
                want_sub |= set(aset.argument(x).subargs)
            want_sub |= {app.rule_arg, result.arg_id}
            c.equal(set(result.subargs), want_sub, "%s Sub" % result.arg_id)
        for a in aset.arguments:
            if a.top_rule is None:
                c.equal(a.premises, frozenset({a.content}),
                        "%s atomic Prem" % a.arg_id)
                c.equal(a.subargs, (a.arg_id,), "%s atomic Sub" % a.arg_id)

    # two fresh pipeline runs serialize byte-identically
    def fresh():
        return run_pipeline(PipelineConfig(
            input_path=DATA / "essay056.txt",
            ann_path=DATA / "essay056.ann",
            prefs_path=DATA / "essay056.prefs")).artifacts

    one, two = fresh(), fresh()
    for fmt in FORMATS:
        c.check(render_format(fmt, one) == render_format(fmt, two),
                "%s export not byte-stable" % fmt)
    c.finish("partitions, preference closure, box layout, Prem/Conc/Sub and"
             " export stability all hold")
