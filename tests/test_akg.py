import pytest

from akgraph import akg as G
from akgraph import arguments as A
from akgraph import ekb as E
from akgraph import markers
from akgraph.ingest import StanceAnnotation, parse_brat_ann
from akgraph.kbgraph import AttributeBox, build_kb_graph


def node(kind, arg_id="A1", premise_kind="p"):
    return G.AKGNode(arg_id, kind, AttributeBox((arg_id,)),
                     premise_kind=premise_kind if kind == G.PREMISE else None)


# ---------------------------------------------------------------- classification

def test_classify_by_target_kind():
    assert G.classify_attack(node(G.RULE_PREMISE)) == G.UNDERCUT
    assert G.classify_attack(node(G.CONCLUSION)) == G.REBUT
    assert G.classify_attack(node(G.PREMISE)) == G.UNDERMINE


def test_axiom_target_refused():
    with pytest.raises(G.AxiomAttacked):
        G.classify_attack(node(G.PREMISE, premise_kind="n"))


def _mini(kind_overrides=None):
    txt = "Cats purr when happy. Dogs disagree.\n"
    ann = "\n".join([
        "T1\tPremise 0 20\tCats purr when happy",
        "T2\tPremise 22 35\tDogs disagree",
        "R1\tAttacks Arg1:T2 Arg2:T1",
    ]) + "\n"
    doc = parse_brat_ann(txt, ann)
    kb = E.build_ekb(doc, markers.detect_ims(doc.document),
                     kind_overrides=kind_overrides)
    return build_kb_graph(kb), A.derive_argument_set(kb), doc


def test_attack_on_axiom_raises():
    kbg, aset, doc = _mini({"T1": "n"})
    with pytest.raises(G.AxiomAttacked):
        G.build_akg(kbg, aset, doc)


def test_attack_on_assumption_flagged():
    kbg, aset, doc = _mini({"T1": "a"})
    akg = G.build_akg(kbg, aset, doc)
    (edge,) = akg.edges_of_kind(G.ATTACK)
    assert edge.attack_type == G.UNDERMINE
    assert edge.contrary_undermine


def test_attack_on_ordinary_premise():
    kbg, aset, doc = _mini()
    (edge,) = G.build_akg(kbg, aset, doc).edges_of_kind(G.ATTACK)
    assert (edge.source, edge.target) == ("A2", "A1")
    assert edge.attack_type == G.UNDERMINE and not edge.contrary_undermine


# ---------------------------------------------------------------- stances

def test_convert_stances():
    mc = node(G.CONCLUSION, "A9")
    claim_to_arg = {"T2": "A5", "T7": "A6"}
    edges = G.convert_stances(
        [StanceAnnotation("A1", "T2", "For"),
         StanceAnnotation("A2", "T7", "Against")],
        claim_to_arg, mc)
    assert edges[0] == G.AKGEdge("A5", "A9", G.SUPPORT)
    assert edges[1].kind == G.ATTACK and edges[1].attack_type == G.REBUT
    assert (edges[1].source, edges[1].target) == ("A6", "A9")


def test_convert_stances_unknown_claim():
    with pytest.raises(G.UnknownClaim):
        G.convert_stances([StanceAnnotation("A1", "T9", "For")],
                          {}, node(G.CONCLUSION, "A9"))


# ---------------------------------------------------------------- essay goldens

def test_essay_attacks(essay):
    attacks = [(e.source, e.target, e.attack_type)
               for e in essay["akg"].edges_of_kind(G.ATTACK)]
    assert attacks == [("A16", "A17", "Reb"), ("A17", "A18", "Reb")]


def test_essay_supports_pruned(essay):
    akg = essay["akg"]
    supports = sorted((e.source, e.target) for e in akg.edges_of_kind(G.SUPPORT))
    assert supports == [("A11", "A12"), ("A12", "A13"), ("A13", "A18"),
                        ("A3", "A7"), ("A6", "A7"), ("A8", "A12")]
    assert sorted(akg.pruned_supports) == [
        ("A1", "A3"), ("A14", "A17"), ("A4", "A6"), ("A9", "A11")]


def test_essay_mp_groups(essay):
    akg = essay["akg"]
    by_group = {}
    for e in akg.edges_of_kind(G.MODUS_PONENS):
        by_group.setdefault(e.mp_group, []).append((e.source, e.target))
    assert by_group == {
        0: [("A1", "A3"), ("A2", "A3")],
        1: [("A4", "A6"), ("A5", "A6")],
        2: [("A9", "A11"), ("A10", "A11")],
        3: [("A14", "A17"), ("A15", "A17")],
    }


def test_essay_node_boxes(essay):
    akg = essay["akg"]
    assert akg.node("A2").attributes.render() == '{A2, D, "therefore", {A10, A15}, {A5}}'
    assert akg.node("A5").attributes.render() == '{A5, D, "thus", {A2, A10, A15}, φ}'
    assert akg.node("A13").attributes.render() == "{A13, N, Claim}"
    assert akg.node("A18").attributes.render() == "{A18, N, MajorClaim}"
    assert akg.node("A18").dataset_tag == "MajorClaim"
    assert akg.node("A1").attributes.render() == "{A1, N, p}"


def test_essay_node_text(essay):
    akg, kb = essay["akg"], essay["ekb"]
    assert akg.node("A2").text == kb.rule_text("R1")
    assert "⇒" in akg.node("A2").text
    assert akg.node("A1").text == kb.formula(akg.node("A1").content).text


# ---------------------------------------------------------------- invariants

def test_edge_attribute_discipline(essay, pollock):
    for akg in (essay["akg"], pollock["akg"]):
        for e in akg.edges:
            assert (e.attack_type is not None) == (e.kind == G.ATTACK)
            assert (e.mp_group is not None) == (e.kind == G.MODUS_PONENS)


def test_prune_noop_without_mp():
    kbg, aset, doc = _mini()
    akg = G.build_akg(kbg, aset, doc)
    assert akg.pruned_supports == ()
    assert G.prune_redundant_support(akg) is akg


def test_content_merge_two_rules_same_consequent():
    from test_arguments import shared_consequent_doc

    doc = shared_consequent_doc()
    kb = E.build_ekb(doc, markers.detect_ims(doc.document))
    aset = A.derive_argument_set(kb)
    akg = G.build_akg(build_kb_graph(kb), aset, doc)
    # two derivations of the merged claim collapse into one node
    mc_nodes = [n for n in akg.nodes if n.content == "T2+T4"]
    assert len(mc_nodes) == 1
    assert mc_nodes[0].dataset_tag == "MajorClaim"
    assert len(akg.nodes) == len(aset.arguments) - 1
    # both applications still produce edge groups into the shared node
    groups = {e.mp_group for e in akg.edges_of_kind(G.MODUS_PONENS)}
    assert groups == {0, 1}
    targets = {e.target for e in akg.edges_of_kind(G.MODUS_PONENS)}
    assert targets == {mc_nodes[0].arg_id}
    assert sorted(akg.pruned_supports) == [("A1", "A5"), ("A3", "A5")]


def test_pollock_undercut(pollock):
    (edge,) = pollock["akg"].edges_of_kind(G.ATTACK)
    assert (edge.source, edge.target, edge.attack_type) == ("A3", "A2", "UC")


def test_node_lookup_takes_first_of_duplicate_ids(essay):
    akg = essay["akg"]
    for n in akg.nodes:
        assert akg.node(n.arg_id) is n
    assert akg.node("A99") is None
    first = akg.nodes[0]
    dup = G.AKG((first, first._replace(text="other")), ())
    assert dup.node(first.arg_id) is first
