import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from akgraph import ekb as E
from akgraph import markers
from akgraph.arguments import derive_argument_set
from akgraph.cli import PipelineConfig, run_pipeline
from akgraph.ingest import (
    AnnotatedDocument,
    ComponentAnnotation,
    RelationAnnotation,
    make_text_document,
    parse_brat_ann,
    parse_canonical_json,
)

from conftest import DATA, canonical_docs

TXT = "Cats purr when happy. Therefore, cats can be happy. Dogs disagree.\n"
ANN = "\n".join([
    "T1\tPremise 0 20\tCats purr when happy",
    "T2\tClaim 33 50\tcats can be happy",
    "T3\tPremise 52 65\tDogs disagree",
    "R1\tSupports Arg1:T1 Arg2:T2",
    "R2\tAttacks Arg1:T3 Arg2:T1",
]) + "\n"


@pytest.fixture
def small():
    doc = parse_brat_ann(TXT, ANN, doc_id="cats")
    ims = markers.detect_ims(doc.document)
    return doc, ims


def test_rule_anchored_at_paragraph_end_sorts_in_its_paragraph():
    # the implicit anchor of R1 is the offset right after "lot.", the end of
    # the second paragraph, which no paragraph contains
    txt = "Intro text here.\nDogs bark a lot.\nSo pets are nice.\n"
    doc = parse_brat_ann(txt, "\n".join([
        "T1\tPremise 0 15\tIntro text here",
        "T2\tPremise 17 32\tDogs bark a lot",
        "T3\tClaim 37 50\tpets are nice",
        "R1\tSupports Arg1:T2 Arg2:T3",
    ]) + "\n")
    ims = markers.resolve_implicit_ims(doc.document, [((17, 32), (37, 50))])
    assert [m.span for m in ims] == [(33, 33)]
    assert E.build_ekb(doc, ims).member_order == ("T1", "T2", "R1", "T3")


def test_small_kb_shape(small):
    doc, ims = small
    kb = E.build_ekb(doc, ims)
    assert [f.formula_id for f in kb.K] == ["T1", "T3"]
    assert [r.rule_id for r in kb.rules] == ["R1"]
    rule = kb.rule("R1")
    assert rule.antecedents == ("T1",)
    assert rule.consequent == "T2"
    assert rule.kind == E.DEFEASIBLE
    assert rule.im == "therefore"
    # claim formula exists but sits outside K
    assert kb.formula("T2").premise_kind is None
    assert kb.member_order == ("T1", "R1", "T3", "T2")
    assert kb.kb_members == ("T1", "R1", "T3")


def test_contraries_stay_in_kb(small):
    doc, ims = small
    kb = E.build_ekb(doc, ims)
    # attack T3 -> T1 joins two K members; support T1 -> T2 leaves the KB
    assert kb.contraries == frozenset({("T3", "T1")})
    assert kb.agreements == frozenset()


def test_kind_override(small):
    doc, ims = small
    kb = E.build_ekb(doc, ims, kind_overrides={"T1": E.AXIOM, "T3": E.ASSUMPTION})
    assert kb.formula("T1").premise_kind == E.AXIOM
    assert kb.formula("T3").premise_kind == E.ASSUMPTION
    assert [f.formula_id for f in kb.K if f.premise_kind == E.AXIOM] == ["T1"]


def test_kind_override_ignored_for_claims(caplog):
    # T1 is a major claim, T2 a claim: each override is warned about, in
    # document order, whatever the order of the overrides
    txt = "Cats are best. Cats purr when happy. Therefore, cats can be happy.\n"
    ann = "\n".join([
        "T1\tMajorClaim 0 13\tCats are best",
        "T2\tClaim 48 65\tcats can be happy",
        "T3\tPremise 15 35\tCats purr when happy",
    ]) + "\n"
    doc = parse_brat_ann(txt, ann)
    kb = E.build_ekb(doc, markers.detect_ims(doc.document),
                     kind_overrides={"T2": E.AXIOM, "T1": E.AXIOM})
    assert kb.formula("T1").premise_kind is None
    assert kb.formula("T2").premise_kind is None
    assert caplog.messages == ["kind override for non-premise T1 ignored",
                               "kind override for non-premise T2 ignored"]


def test_parse_kind_override_file():
    parsed = E.parse_kind_override_file("# c\nT1\tn\nT3\ta\n")
    assert parsed == {"T1": "n", "T3": "a"}
    with pytest.raises(E.EKBError):
        E.parse_kind_override_file("T1\tq\n")


def test_kind_override_for_unknown_id_refused(small):
    doc, ims = small
    with pytest.raises(E.UnknownKindTarget, match="T99"):
        E.build_ekb(doc, ims, kind_overrides={"T1": E.AXIOM, "T99": E.AXIOM})


def test_kind_override_file_refuses_repeated_id():
    with pytest.raises(E.EKBError, match="line 4: id T1 already given on line 2"):
        E.parse_kind_override_file("# c\nT1\tn\nT3\ta\nT1\tp\n")


def test_parse_preference_file():
    prefs = E.parse_preference_file("# chain\nR1 > R2 > R3\nR9 > R4\n")
    assert prefs.chains == (("R1", "R2", "R3"), ("R9", "R4"))
    with pytest.raises(E.EKBError):
        E.parse_preference_file("R1\n")
    with pytest.raises(E.EKBError):
        E.parse_preference_file("R1 > \n")


def test_preferences_by_rule_or_argument_id(essay):
    kb = essay["ekb"]
    expected = {("R1", "R2"), ("R3", "R2"), ("R4", "R2"),
                ("R3", "R1"), ("R4", "R1"), ("R4", "R3")}
    assert kb.rule_pref == frozenset(expected)
    # same chain expressed with rule ids
    doc, ims = essay["doc"], essay["ims"]
    again = E.build_ekb(doc, ims, prefs=E.parse_preference_file("R2 > R1 > R3 > R4\n"))
    assert again.rule_pref == kb.rule_pref


@pytest.fixture(scope="module")
def essay_implicit():
    """essay056 with the implicit markers that --implicit-ims adds."""
    return run_pipeline(PipelineConfig(
        input_path=str(DATA / "essay056.txt"), ann_path=str(DATA / "essay056.ann"),
        implicit_ims=True)).artifacts


def _pref_spans(kb):
    """rule_pref with each rule named by its marker span, which implicit
    rules do not renumber."""
    span = {r.rule_id: r.im_span for r in kb.rules}
    return {(span[a], span[b]) for a, b in kb.rule_pref}


# A2, A5, A10 and A15 are essay056's four explicit rules
@settings(max_examples=30, deadline=None)
@given(st.permutations(["A2", "A5", "A10", "A15"]), st.integers(2, 4))
def test_preferences_unchanged_by_implicit_rules(essay, essay_implicit, order, length):
    prefs = E.PreferenceConfig((tuple(order[:length]),))
    plain = E.build_ekb(essay["doc"], essay["ims"], prefs=prefs)
    extra = E.build_ekb(essay_implicit["doc"], essay_implicit["ims"], prefs=prefs)
    assert len(extra.rules) > len(plain.rules)
    assert _pref_spans(extra) == _pref_spans(plain)
    assert len(plain.rule_pref) == length * (length - 1) // 2


# Two rules derive paragraph 1's merged major claim, so an extra argument
# (A6) follows its first derivation and moves every later argument id.
PETS_TWICE = ("Dogs are loyal. Therefore, get a pet. Cats are calm. Therefore, get a pet."
              "\n\nFish are quiet. Therefore, fish are fine. Birds sing. Therefore, "
              "birds are fine.")


def _components(text, parts):
    """Canonical components for (id, kind, surface) parts, found left to right."""
    comps, start = [], 0
    for comp_id, kind, surface in parts:
        start = text.index(surface, start)
        comps.append({"id": comp_id, "kind": kind, "start": start,
                      "end": start + len(surface)})
    return comps


def test_preference_ids_count_extra_derived_arguments():
    doc = parse_canonical_json(json.dumps({
        "doc_id": "pets", "text": PETS_TWICE, "components": _components(PETS_TWICE, [
            ("T1", "Premise", "Dogs are loyal"), ("T2", "MajorClaim", "get a pet"),
            ("T3", "Premise", "Cats are calm"), ("T4", "MajorClaim", "get a pet"),
            ("T5", "Premise", "Fish are quiet"), ("T6", "Claim", "fish are fine"),
            ("T7", "Premise", "Birds sing"), ("T8", "Claim", "birds are fine")])}))
    ims = markers.detect_ims(doc.document)
    aset = derive_argument_set(E.build_ekb(doc, ims))
    assert [(a.arg_id, a.content) for a in aset.arguments if a.kind == "IRP"] == [
        ("A2", "R1"), ("A4", "R2"), ("A8", "R3"), ("A10", "R4")]
    assert aset.argument("A6").top_rule == "R2"
    # the ids the run prints name the rules; member positions do not
    kb = E.build_ekb(doc, ims, prefs=E.parse_preference_file("A8 > A10\n"))
    assert kb.rule_pref == {("R4", "R3")}
    with pytest.raises(E.UnknownPreferenceTarget, match="'A7'"):
        E.build_ekb(doc, ims, prefs=E.parse_preference_file("A7 > A9\n"))


@settings(max_examples=100, deadline=None)
@given(canonical_docs(), st.data())
def test_preference_ids_are_the_printed_argument_ids(tmp_path_factory, content, data):
    # a chain over the rule-argument ids of a run without --implicit-ims
    # orders those arguments' rules, with and without the flag
    path = tmp_path_factory.getbasetemp() / "prefs-fuzz.json"
    path.write_text(content, encoding="utf-8")
    plain, extra = (run_pipeline(PipelineConfig(input_path=str(path), implicit_ims=flag))
                    .artifacts for flag in (False, True))
    rule_args = [a for a in plain["aset"].arguments if a.kind == "IRP"]
    assume(len(rule_args) >= 2)
    length = data.draw(st.integers(2, len(rule_args)))
    chain = data.draw(st.permutations(rule_args))[:length]
    prefs = E.PreferenceConfig((tuple(a.arg_id for a in chain),))
    span = {r.rule_id: r.im_span for r in plain["ekb"].rules}
    want = {(span[lo.content], span[hi.content])
            for i, hi in enumerate(chain) for lo in chain[i + 1:]}
    for art in (plain, extra):
        assert _pref_spans(E.build_ekb(art["doc"], art["ims"], prefs=prefs)) == want


def test_preference_sets(essay):
    kb = essay["ekb"]
    assert E.rule_preference_sets(kb, "R1") == (frozenset({"R3", "R4"}),
                                                frozenset({"R2"}))
    assert E.rule_preference_sets(kb, "R2") == (frozenset({"R1", "R3", "R4"}),
                                                frozenset())
    assert E.rule_preference_sets(kb, "R4") == (frozenset(),
                                                frozenset({"R1", "R2", "R3"}))


def test_preference_cycle_rejected(small):
    doc, ims = small
    with pytest.raises(E.PreferenceCycle):
        E.build_ekb(doc, ims,
                    prefs=E.PreferenceConfig((("R1", "A2"),)))   # R1 > R1


def test_preference_cycle_through_chains_rejected(essay):
    # R1 > R2 > R3 and R3 > R1 close into a cycle of three rules
    with pytest.raises(E.PreferenceCycle):
        E.build_ekb(essay["doc"], essay["ims"],
                    prefs=E.PreferenceConfig((("R1", "R2", "R3"), ("R3", "R1"))))


def test_transitive_closure_of_long_chain():
    rules = ["R%d" % i for i in range(1, 49)]
    lesser_than = {(lo, hi) for hi, lo in zip(rules, rules[1:])}
    closed = E._transitive_closure(lesser_than)
    assert closed == {(rules[j], rules[i]) for i in range(48) for j in range(i + 1, 48)}
    assert len(closed) == 48 * 47 // 2


def test_preference_unknown_target(small):
    doc, ims = small
    with pytest.raises(E.UnknownPreferenceTarget):
        E.build_ekb(doc, ims, prefs=E.PreferenceConfig((("R1", "R7"),)))
    with pytest.raises(E.UnknownPreferenceTarget):
        # A1 is a formula slot, not a rule
        E.build_ekb(doc, ims, prefs=E.PreferenceConfig((("R1", "A1"),)))


def test_provisional_argument_ids(small):
    # preference chains may name a rule by the argument id it will receive,
    # which is its position in member order
    doc, ims = small
    kb = E.build_ekb(doc, ims)
    aset = derive_argument_set(kb)
    assert {a.content: a.arg_id for a in aset.arguments} == {
        "T1": "A1", "R1": "A2", "T3": "A3", "T2": "A4"}


def test_member_text_and_rule_text(small):
    doc, ims = small
    kb = E.build_ekb(doc, ims)
    assert kb.member_text("T1") == "Cats purr when happy"
    assert kb.member_text("R1") == "Cats purr when happy ⇒ cats can be happy"


def test_lookups_raise_on_unknown_ids(small):
    doc, ims = small
    kb = E.build_ekb(doc, ims)
    with pytest.raises(E.UnknownId):
        kb.formula("R1")
    with pytest.raises(E.UnknownRule):
        kb.rule("T1")
    with pytest.raises(E.UnknownId):
        kb.member_text("Zed")


def test_lookup_takes_first_of_duplicate_ids():
    first, second = E.Formula("F1", "a"), E.Formula("F1", "b")
    kb = E.EKB(formulas=(first, second), rules=(), contraries=frozenset(),
               agreements=frozenset(), rule_pref=frozenset())
    assert kb.formula("F1") is first
    assert kb.member_text("F1") == "a"


def _linear_contained(components, span):
    out = [c for c in components if c.start >= span[0] and c.end <= span[1]]
    out.sort(key=lambda c: c.start)
    return out


def test_containment_matches_linear_scan():
    # same-start components keep document order; zero-width ones count
    comps = tuple(ComponentAnnotation(cid, "Premise", s, e, "")
                  for cid, s, e in [("T1", 4, 9), ("T2", 0, 9), ("T3", 0, 3),
                                    ("T4", 4, 6), ("T5", 9, 9), ("T6", 12, 20)])
    contained = E._containment(comps)
    for lo in range(-1, 22):
        for hi in range(lo - 1, 22):
            assert contained((lo, hi)) == _linear_contained(comps, (lo, hi))
    assert [c.comp_id for c in contained((0, 9))] == ["T2", "T3", "T1", "T4", "T5"]


def test_unaligned_im_dropped():
    txt = "Nothing was annotated here. Therefore, nothing aligns.\n"
    doc = parse_brat_ann(txt, "T1\tPremise 0 7\tNothing\n")
    ims = markers.detect_ims(doc.document)
    assert len(ims) == 1
    kb = E.build_ekb(doc, ims)
    assert kb.rules == ()
    assert len(kb.dropped_ims) == 1


def test_reversed_relation_contradicts_im(caplog):
    # annotation says T2 supports T1, the marker reads T1 => T2: annotation wins
    txt = "Cats purr when happy. Therefore, cats can be happy.\n"
    ann = "\n".join([
        "T1\tPremise 0 20\tCats purr when happy",
        "T2\tClaim 33 50\tcats can be happy",
        "R1\tSupports Arg1:T2 Arg2:T1",
    ]) + "\n"
    doc = parse_brat_ann(txt, ann)
    kb = E.build_ekb(doc, markers.detect_ims(doc.document))
    assert kb.rules == ()
    assert len(kb.dropped_ims) == 1
    assert caplog.messages == [
        "IM 'Therefore' at (22, 31) contradicts an annotated relation; dropped"]


def test_major_claims_merge(essay):
    kb = essay["ekb"]
    assert kb.major_claim == "T1+T15"
    mc = kb.formula(kb.major_claim)
    assert mc.premise_kind is None
    assert mc.components == ("T1", "T15")
    assert mc.text.startswith("It's a reasonable loss in globalization; ")
    assert len(mc.spans) == 2


@settings(max_examples=100, deadline=None)
@given(canonical_docs())
def test_major_claim_is_every_major_claim_components_member(content):
    doc = parse_canonical_json(content)
    kb = E.build_ekb(doc, markers.detect_ims(doc.document))
    member_of = dict(kb.member_of)
    mc_members = {member_of[c.comp_id] for c in doc.components if c.kind == "MajorClaim"}
    assert mc_members == ({kb.major_claim} if kb.major_claim is not None else set())
    if kb.major_claim is not None:
        assert kb.formula(kb.major_claim).premise_kind is None


def test_validate_ekb_flags_problems():
    f1 = E.Formula("F1", "a")
    f2 = E.Formula("F2", "b", premise_kind=None)
    bad_rule = E.InferenceRule("R1", ("F1", "F2"), "F2", kind="X")
    kb = E.EKB(formulas=(f1, f2), rules=(bad_rule,),
               contraries=frozenset({("F1", "F1"), ("F1", "Zed")}),
               agreements=frozenset(),
               rule_pref=frozenset({("R1", "R1")}),
               member_order=("F1", "R1", "F2"))
    codes = {v.code for v in E.validate_ekb(kb)}
    assert codes >= {"SelfConsequent", "UnknownRuleKind", "ReflexivePair",
                     "DanglingReference", "PreferenceCycle"}


_DANGLING_CONTRARIES = """
from akgraph import ekb as E
kb = E.EKB(formulas=(E.Formula("F1", "a"), E.Formula("F2", "b", premise_kind=None)),
           rules=(E.InferenceRule("R1", ("F1",), "F2"),),
           contraries=frozenset({("F1", "X1"), ("F1", "X2"), ("Y", "F2")}),
           agreements=frozenset(), rule_pref=frozenset(), member_order=("F1", "R1", "F2"))
"""


def test_kb_graph_refusal_same_under_every_hash_seed():
    # the contraries are a set: violations listed as met would follow the seed
    code = _DANGLING_CONTRARIES + """
from akgraph.kbgraph import build_kb_graph
try:
    build_kb_graph(kb)
except E.EKBError as e:
    print(e)
"""
    refusals = set()
    for seed in (0, 1, 2):
        env = dict(os.environ, PYTHONPATH=str(Path(E.__file__).parents[1]),
                   PYTHONHASHSEED=str(seed))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, env=env)
        refusals.add(done.stdout)
    assert refusals == {"refusing to build from an invalid EKB: "
                        "DanglingReference(contraries) X1; DanglingReference(contraries) X2; "
                        "DanglingReference(contraries) Y\n"}


def test_validate_ekb_clean(essay):
    assert E.validate_ekb(essay["ekb"]) == []


def test_k_partition_disjoint(essay):
    kb = essay["ekb"]
    parts = [[f for f in kb.K if f.premise_kind == k] for k in E.PREMISE_KINDS]
    ids = [f.formula_id for part in parts for f in part]
    assert len(ids) == len(set(ids))
    assert sorted(ids) == sorted(f.formula_id for f in kb.K)


def test_rule_preference_sets_match_scan(essay):
    kb = essay["ekb"]
    assert kb.rule_pref
    for r in kb.rules:
        got = E.rule_preference_sets(kb, r.rule_id)
        if r.kind == E.STRICT:
            assert got is None
        else:
            assert got == (frozenset(a for a, b in kb.rule_pref if b == r.rule_id),
                           frozenset(b for a, b in kb.rule_pref if a == r.rule_id))


# ids the EKB makes up (rule ids, merged major claims) never clash with the
# document's own, and no IM becomes a rule with its consequent among its
# antecedents
@settings(max_examples=150, deadline=None)
@given(canonical_docs())
def test_built_ekb_is_valid(content):
    doc = parse_canonical_json(content)
    assert E.validate_ekb(E.build_ekb(doc, markers.detect_ims(doc.document))) == []


def test_rule_ids_skip_component_ids():
    doc = parse_canonical_json(json.dumps({
        "doc_id": "d", "text": "Pets are nice. Therefore, get a pet.",
        "components": [{"id": "R1", "kind": "Premise", "start": 0, "end": 13},
                       {"id": "T2", "kind": "Claim", "start": 26, "end": 35}],
        "relations": [{"id": "R1", "kind": "Supports", "source": "R1", "target": "T2"}]}))
    kb = E.build_ekb(doc, markers.detect_ims(doc.document))
    # relation ids are no members, so they do not renumber rules
    assert [(r.rule_id, r.antecedents, r.consequent)
            for r in kb.rules] == [("R2", ("R1",), "T2")]


def test_merged_claim_is_one_antecedent():
    doc = parse_canonical_json(json.dumps({
        "doc_id": "d", "text": "Pets are nice and dogs bark. Therefore, get a pet.",
        "components": [{"id": "T1", "kind": "MajorClaim", "start": 0, "end": 13},
                       {"id": "T3", "kind": "MajorClaim", "start": 18, "end": 27},
                       {"id": "T2", "kind": "Claim", "start": 40, "end": 49}]}))
    kb = E.build_ekb(doc, markers.detect_ims(doc.document))
    assert [(r.antecedents, r.consequent) for r in kb.rules] == [(("T1+T3",), "T2")]
