import pytest

from akgraph import ekb as E
from akgraph import kbgraph as KG
from akgraph import markers
from akgraph.ingest import parse_brat_ann


def test_natural_key_ordering():
    ids = ["A10", "A2", "A1", "R2", "R10", "A18"]
    assert sorted(ids, key=KG.natural_key) == ["A1", "A2", "A10", "A18", "R2", "R10"]


def test_render_value_conventions():
    assert KG._render_value(None) == "N"
    assert KG._render_value(frozenset()) == "φ"
    assert KG._render_value(frozenset({"A10", "A2"})) == "{A2, A10}"
    assert KG._render_value("D") == "D"


def test_attribute_box_render_is_positional():
    box = KG.AttributeBox(("R1", "D", '"therefore"', frozenset(), None))
    assert box.render() == '{R1, D, "therefore", φ, N}'


def test_kb_graph_counts(essay):
    kb, kbg = essay["ekb"], essay["kb_graph"]
    assert len(kbg.nodes) == len(kb.K) + len(kb.rules)   # 11 + 4
    assert [n.node_id for n in kbg.nodes] == list(kb.kb_members)
    kinds = {n.node_id: n.kind for n in kbg.nodes}
    assert kinds["R1"] == KG.RULE_PREMISE
    assert kinds["T3"] == KG.PREMISE


def test_kb_graph_edges_scoped_and_sorted(essay):
    kbg = essay["kb_graph"]
    # the essay KB has 7 agreement pairs and no contrary pairs
    kinds = [e.kind for e in kbg.edges]
    assert kinds.count(KG.AGREEMENT) == 7
    assert kinds.count(KG.CONTRARY) == 0
    assert kinds == sorted(kinds)
    agreements = {(e.source, e.target) for e in kbg.edges}
    assert ("T3", "T4") in agreements      # first support pair stays in the KB
    assert all("T2" not in pair and "T13" not in pair for pair in agreements)


def test_premise_box_marker_and_kind():
    f = E.Formula("F1", "However, cats purr", premise_kind="a",
                  marker=markers.attribute_marker("However, cats purr"))
    assert KG.premise_attribute_box(f).render() == '{"however", a}'
    bare = E.Formula("F2", "cats purr")
    assert KG.premise_attribute_box(bare).render() == "{N, p}"


def test_rule_box_strict_vs_defeasible(small_kb):
    kb = small_kb
    r = kb.rule("R1")
    assert KG.rule_attribute_box(kb, r).render() == '{R1, D, "therefore", φ, φ}'
    strict = E.InferenceRule("R9", ("T1",), "T2", kind=E.STRICT, im="so")
    kb2 = E.EKB(formulas=kb.formulas, rules=kb.rules + (strict,),
                contraries=kb.contraries, agreements=kb.agreements,
                rule_pref=kb.rule_pref, member_order=kb.member_order + ("R9",))
    assert KG.rule_attribute_box(kb2, strict).render() == '{R9, S, "so", N, N}'


@pytest.fixture
def small_kb():
    txt = "Cats purr when happy. Therefore, cats can be happy.\n"
    ann = "\n".join([
        "T1\tPremise 0 20\tCats purr when happy",
        "T2\tClaim 33 50\tcats can be happy",
        "R1\tSupports Arg1:T1 Arg2:T2",
    ]) + "\n"
    doc = parse_brat_ann(txt, ann)
    return E.build_ekb(doc, markers.detect_ims(doc.document))


def test_build_rejects_invalid_ekb():
    f = E.Formula("F1", "a")
    broken = E.EKB(formulas=(f,), rules=(),
                   contraries=frozenset({("F1", "F1")}),
                   agreements=frozenset(), rule_pref=frozenset(),
                   member_order=("F1",))
    with pytest.raises(ValueError):
        KG.build_kb_graph(broken)


def test_graph_carries_ekb(essay):
    assert essay["kb_graph"].ekb is essay["ekb"]
