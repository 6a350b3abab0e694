import pytest

from akgraph import ekb as E
from akgraph import markers
from akgraph.arguments import derive_argument_set
from akgraph.ingest import (
    AnnotatedDocument,
    ComponentAnnotation,
    RelationAnnotation,
    make_text_document,
    parse_brat_ann,
)

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
    assert [f.formula_id for f in kb.K_part(E.AXIOM)] == ["T1"]


def test_kind_override_ignored_for_claims(small, caplog):
    doc, ims = small
    kb = E.build_ekb(doc, ims, kind_overrides={"T2": E.AXIOM})
    assert kb.formula("T2").premise_kind is None


def test_parse_kind_override_file():
    parsed = E.parse_kind_override_file("# c\nT1\tn\nT3\ta\n")
    assert parsed == {"T1": "n", "T3": "a"}
    with pytest.raises(E.EKBError):
        E.parse_kind_override_file("T1\tq\n")


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
    assert kb.has_member("T1") and kb.has_member("R1")
    assert not kb.has_member("R9")
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


def test_major_claims_merge(essay):
    kb = essay["ekb"]
    mc = kb.formula("T1+T15")
    assert mc.premise_kind is None
    assert mc.components == ("T1", "T15")
    assert mc.text.startswith("It's a reasonable loss in globalization; ")
    assert len(mc.spans) == 2


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


def test_validate_ekb_clean(essay):
    assert E.validate_ekb(essay["ekb"]) == []


def test_k_partition_disjoint(essay):
    kb = essay["ekb"]
    parts = [kb.K_part(k) for k in E.PREMISE_KINDS]
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
