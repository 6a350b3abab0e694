import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akgraph import arguments as A
from akgraph import ekb as E
from akgraph import markers
from akgraph.cli import PipelineConfig, run_pipeline
from akgraph.ingest import parse_brat_ann, parse_canonical_json

from conftest import DATA, canonical_docs


def kb_from(txt, ann):
    doc = parse_brat_ann(txt, ann)
    return E.build_ekb(doc, markers.detect_ims(doc.document)), doc


@pytest.fixture
def chain_kb():
    # two chained rules: T1 => T2 (premise), T2 => T3 (claim)
    txt = "Ice melted. Therefore, roads got wet. Hence, driving was risky.\n"
    ann = "\n".join([
        "T1\tPremise 0 10\tIce melted",
        "T2\tPremise 23 36\troads got wet",
        "T3\tClaim 45 62\tdriving was risky",
        "R1\tSupports Arg1:T1 Arg2:T2",
        "R2\tSupports Arg1:T2 Arg2:T3",
    ]) + "\n"
    return kb_from(txt, ann)


def test_chain_derivation(chain_kb):
    kb, _ = chain_kb
    aset = A.derive_argument_set(kb)
    # members: T1, rule1, T2, rule2, T3 -> five arguments
    assert [a.arg_id for a in aset.arguments] == ["A1", "A2", "A3", "A4", "A5"]
    kinds = {a.arg_id: a.kind for a in aset.arguments}
    assert kinds == {"A1": "P", "A2": "IRP", "A3": "P", "A4": "IRP", "A5": "C"}

    a3 = aset.argument("A3")     # intermediate conclusion, kept as premise
    assert a3.derived and a3.top_rule == "R1"
    assert a3.premises == frozenset({"T1"})
    assert a3.conclusion == "T2"
    assert a3.subargs == ("A1", "A2", "A3")

    a5 = aset.argument("A5")
    assert a5.kind == "C"
    assert a5.premises == frozenset({"T1"})
    assert set(a5.subargs) == {"A1", "A2", "A3", "A4", "A5"}

    assert [app.result_arg for app in aset.mp_applications] == ["A3", "A5"]


def test_prem_conc_recomputation(essay):
    kb, aset = essay["ekb"], essay["aset"]
    for app in aset.mp_applications:
        rule = kb.rule(aset.argument(app.rule_arg).content)
        ants = sorted(aset.argument(x).content for x in app.antecedent_args)
        assert ants == sorted(rule.antecedents)
        result = aset.argument(app.result_arg)
        assert result.conclusion == rule.consequent
        want = frozenset().union(*(aset.argument(x).premises
                                   for x in app.antecedent_args))
        assert result.premises == want


def test_sub_closure_acyclic(essay):
    aset = essay["aset"]
    for arg in aset.arguments:
        # transitive closure of Sub, self-inclusive
        ids, stack = set(), [arg.arg_id]
        while stack:
            sid = stack.pop()
            if sid not in ids:
                ids.add(sid)
                stack.extend(aset.argument(sid).subargs)
        assert arg.arg_id in ids
        assert set(arg.subargs) == ids   # Sub is already closed
        for sid in arg.subargs:
            if sid != arg.arg_id:
                assert arg.arg_id not in aset.argument(sid).subargs


def doc_of(txt, spans, relations):
    """kb_from over (id, kind, surface) spans located in txt."""
    lines = ["%s\t%s %d %d\t%s" % (tid, kind, txt.index(s), txt.index(s) + len(s), s)
             for tid, kind, s in spans]
    lines += ["R%d\tSupports Arg1:%s Arg2:%s" % (i + 1, a, b)
              for i, (a, b) in enumerate(relations)]
    return kb_from(txt, "\n".join(lines) + "\n")


def assert_structure_closed(aset):
    """Each derived argument's Sub is closed under Sub, and its Prem is the
    union of the premises of the atomic non-rule arguments in its Sub."""
    for arg in (a for a in aset.arguments if a.derived):
        subs = [aset.argument(s) for s in arg.subargs]
        for sub in subs:
            assert set(sub.subargs) <= set(arg.subargs), (arg.arg_id, sub.arg_id)
        atomic = [s.premises for s in subs if not s.derived and s.kind != A.IRP]
        assert arg.premises == frozenset().union(*atomic), arg.arg_id


def test_rule_fires_after_the_rules_deriving_its_antecedents(essay, pollock):
    # R1 (T1+T4 => T2) comes first in document order, but its antecedent is
    # the consequent of R2 (T3 => T1+T4)
    kb, _ = doc_of("Pets are nice. Hence, get a pet. Dogs wag tails. "
                   "Therefore, pets are nice indeed.",
                   [("T1", "MajorClaim", "Pets are nice"), ("T2", "Claim", "get a pet"),
                    ("T3", "Premise", "Dogs wag tails"),
                    ("T4", "MajorClaim", "pets are nice indeed")],
                   [("T1", "T2"), ("T3", "T4")])
    assert [(r.rule_id, r.antecedents, r.consequent) for r in kb.rules] == \
        [("R1", ("T1+T4",), "T2"), ("R2", ("T3",), "T1+T4")]
    aset = A.derive_argument_set(kb)
    a4, a5 = aset.argument("A4"), aset.argument("A5")
    assert (a5.content, a5.top_rule, a5.premises) == ("T1+T4", "R2", {"T3"})
    assert (a4.content, a4.top_rule, a4.premises) == ("T2", "R1", {"T3"})
    assert a4.subargs == ("A2", "A3", "A5", "A1", "A4")
    assert [(m.rule_arg, m.result_arg) for m in aset.mp_applications] == \
        [("A3", "A5"), ("A1", "A4")]
    for s in (aset, essay["aset"], pollock["aset"]):
        assert_structure_closed(s)


def rule_cycle_kb():
    # R1: T1+T3 => T2 and R2: T2 => T1+T3 wait on each other
    kb, _ = doc_of("Ice melted. Therefore, roads got wet. Hence, ice melted indeed.",
                   [("T1", "MajorClaim", "Ice melted"), ("T2", "Premise", "roads got wet"),
                    ("T3", "MajorClaim", "ice melted indeed")],
                   [("T1", "T2"), ("T2", "T3")])
    return kb


def test_rule_cycle_fires_in_document_order():
    aset = A.derive_argument_set(rule_cycle_kb())
    # R1 takes the atomic T1+T3 (A4), so R2's derivation of T1+T3 does not
    # replace A4 but follows it as A5
    assert [(m.rule_arg, m.antecedent_args, m.result_arg)
            for m in aset.mp_applications] == [("A1", ("A4",), "A2"),
                                               ("A3", ("A2",), "A5")]
    a4, a5 = aset.argument("A4"), aset.argument("A5")
    assert not a4.derived and a4.subargs == ("A4",)
    assert a5.top_rule == "R2" and a5.content == a4.content
    assert a5.subargs == ("A4", "A1", "A2", "A3", "A5")
    # every Sub names each argument once and ends with the argument itself
    for a in aset.arguments:
        assert len(set(a.subargs)) == len(a.subargs)
        assert a.subargs[-1] == a.arg_id
    # no two arguments lie in each other's Sub
    for a in aset.arguments:
        for s in a.subargs[:-1]:
            assert a.arg_id not in aset.argument(s).subargs, (a.arg_id, s)
    assert_structure_closed(aset)


def shared_consequent_doc():
    # both rules conclude the merged major-claim formula
    txt = ("Cats purr a lot. Therefore, pets are nice. "
           "Dogs wag tails. Hence, pets are nice indeed.\n")
    ann = "\n".join([
        "T1\tPremise 0 15\tCats purr a lot",
        "T2\tMajorClaim 28 41\tpets are nice",
        "T3\tPremise 43 57\tDogs wag tails",
        "T4\tMajorClaim 66 86\tpets are nice indeed",
        "R1\tSupports Arg1:T1 Arg2:T2",
        "R2\tSupports Arg1:T3 Arg2:T4",
    ]) + "\n"
    return parse_brat_ann(txt, ann)


def test_two_rules_same_consequent():
    doc = shared_consequent_doc()
    kb = E.build_ekb(doc, markers.detect_ims(doc.document))
    assert len(kb.rules) == 2
    assert {r.consequent for r in kb.rules} == {"T2+T4"}
    aset = A.derive_argument_set(kb)
    both = [a for a in aset.arguments if a.content == "T2+T4"]
    assert [a.arg_id for a in both] == ["A5", "A6"]
    first, second = both
    assert first.top_rule == "R1" and second.top_rule == "R2"
    assert first.derived and second.derived
    assert len(aset.mp_applications) == 2


def reference_step(kb, aset, app):
    """The argument that one modus-ponens step builds from the rule and
    antecedent arguments an application names, built without the firing
    loop."""
    rule_arg = aset.argument(app.rule_arg)
    assert rule_arg.kind == A.IRP
    rule = kb.rule(rule_arg.content)
    ants = [aset.argument(x) for x in app.antecedent_args]
    assert tuple(a.content for a in ants) == rule.antecedents
    sub = []
    for s in [s for a in ants for s in a.subargs] + [app.rule_arg, app.result_arg]:
        if s not in sub:
            sub.append(s)
    feeds = any(rule.consequent in r.antecedents for r in kb.rules
                if r.rule_id != rule.rule_id)
    premise = feeds or kb.formula(rule.consequent).premise_kind is not None
    return A.Argument(arg_id=app.result_arg,
                      kind=A.P if premise else A.C,
                      content=rule.consequent,
                      premises=frozenset().union(*(a.premises for a in ants)),
                      conclusion=rule.consequent,
                      subargs=tuple(sub),
                      top_rule=rule.rule_id)


def assert_one_step_each(kb, aset):
    """Every application is one modus-ponens step, and every derived
    argument is the result of exactly one application."""
    for app in aset.mp_applications:
        assert aset.argument(app.result_arg) == reference_step(kb, aset, app), app
    assert sorted(app.result_arg for app in aset.mp_applications) == \
        sorted(a.arg_id for a in aset.arguments if a.derived)


def test_each_application_is_one_step(essay, pollock, chain_kb):
    shared = shared_consequent_doc()
    kbs = [essay["ekb"], pollock["ekb"], chain_kb[0], rule_cycle_kb(),
           E.build_ekb(shared, markers.detect_ims(shared.document))]
    for kb in kbs:
        aset = A.derive_argument_set(kb)
        assert aset.mp_applications
        assert_one_step_each(kb, aset)


@settings(max_examples=100, deadline=None)
@given(canonical_docs())
def test_each_application_is_one_step_on_parsed_documents(content):
    doc = parse_canonical_json(content)
    kb = E.build_ekb(doc, markers.detect_ims(doc.document))
    assert_one_step_each(kb, A.derive_argument_set(kb))


@settings(max_examples=100, deadline=None)
@given(canonical_docs(), st.booleans())
def test_firing_pass_gives_the_derivation_ids(tmp_path_factory, content, implicit):
    path = tmp_path_factory.getbasetemp() / "firing-fuzz.json"
    path.write_text(content, encoding="utf-8")
    kb = run_pipeline(PipelineConfig(input_path=str(path), implicit_ims=implicit)
                      ).artifacts["ekb"]
    aset = A.derive_argument_set(kb)
    assert A.argument_ids(kb) == [(a.arg_id, a.content) for a in aset.arguments]
    # the firing pass also places each result: an atomic argument stays
    # beside a derivation of its formula only when a firing took it
    took = {x for app in aset.mp_applications for x in app.antecedent_args}
    first = {}
    for a in aset.arguments:
        first.setdefault(a.content, a)
        if a.derived and not first[a.content].derived:
            assert first[a.content].arg_id in took


@pytest.mark.parametrize("implicit, passes", [(False, 1), (True, 2)])
def test_one_firing_pass_per_run(monkeypatch, implicit, passes):
    # build_ekb fires to read the preference ids; without an implicit rule it
    # fires the EKB that derive_argument_set derives from, which reuses that
    # pass, and with one it fires the EKB without them
    calls = []
    fire = A._fire
    monkeypatch.setattr(A, "_fire", lambda ekb: calls.append(ekb) or fire(ekb))
    art = run_pipeline(PipelineConfig(
        input_path=str(DATA / "essay056.txt"), ann_path=str(DATA / "essay056.ann"),
        prefs_path=str(DATA / "essay056.prefs"), implicit_ims=implicit)).artifacts
    implicit_rules = [r for r in art["ekb"].rules if r.heuristic == markers.IMPLICIT]
    assert len(implicit_rules) == (2 if implicit else 0)
    assert len(calls) == passes
    assert art["ekb"].rule_pref


def test_determinism(essay):
    kb = essay["ekb"]
    assert A.derive_argument_set(kb) == A.derive_argument_set(kb)


def test_no_rules_all_atomic():
    txt = "Cats purr. Dogs bark.\n"
    ann = "\n".join([
        "T1\tPremise 0 9\tCats purr",
        "T2\tPremise 11 20\tDogs bark",
    ]) + "\n"
    kb, _ = kb_from(txt, ann)
    aset = A.derive_argument_set(kb)
    assert all(not a.derived for a in aset.arguments)
    assert aset.mp_applications == ()
    assert all(a.premises == frozenset({a.content}) for a in aset.arguments)


def test_unknown_argument_lookup(essay):
    with pytest.raises(A.UnknownArgument):
        essay["aset"].argument("A99")


def test_lookups_match_scans_and_take_first_of_duplicate_ids(essay):
    aset = essay["aset"]
    for a in aset.arguments:
        assert aset.argument(a.arg_id) is a
    first = aset.arguments[0]
    twin = first._replace(kind=A.C)
    dup = A.ArgumentSet((first, twin))
    assert dup.argument(first.arg_id) is first
