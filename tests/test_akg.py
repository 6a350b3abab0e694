import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akgraph import akg as G
from akgraph import arguments as A
from akgraph import ekb as E
from akgraph import markers
from akgraph.ingest import StanceAnnotation, parse_brat_ann, parse_canonical_json
from akgraph.kbgraph import AttributeBox, _quote, build_kb_graph, natural_key
from akgraph.semantics import project_af
from akgraph.trace import Trace

from conftest import canonical_docs


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

def _stance_doc():
    txt = "Cats are best. Cats purr. Cats scratch.\n"
    ann = "\n".join([
        "T1\tMajorClaim 0 13\tCats are best",
        "T2\tClaim 15 24\tCats purr",
        "T3\tClaim 26 38\tCats scratch",
        "A1\tStance T2 For",
        "A2\tStance T3 Against",
    ]) + "\n"
    return parse_brat_ann(txt, ann)


def _akg_of(doc):
    kb = E.build_ekb(doc, markers.detect_ims(doc.document))
    return G.build_akg(build_kb_graph(kb), A.derive_argument_set(kb), doc)


def test_convert_stances():
    # A1, A2, A3 are the nodes of T1 (the major claim), T2 and T3
    akg = _akg_of(_stance_doc())
    support, attack = akg.edges
    assert support == G.AKGEdge("A2", "A1", G.SUPPORT)
    assert attack.kind == G.ATTACK and attack.attack_type == G.REBUT
    assert (attack.source, attack.target) == ("A3", "A1")


def test_convert_stances_unknown_claim():
    # the parser refuses such a stance; a document built in code reaches here
    doc = _stance_doc()._replace(stances=(StanceAnnotation("A1", "T9", "For"),))
    with pytest.raises(G.UnknownClaim, match="stance A1 cites unknown claim T9"):
        _akg_of(doc)


def test_for_stance_covered_by_mp_group_pruned():
    txt = "Cats purr. Therefore, cats are the best pets.\n"
    ann = "\n".join([
        "T1\tClaim 0 9\tCats purr",
        "T2\tMajorClaim 22 44\tcats are the best pets",
        "A1\tStance T1 For",
    ]) + "\n"
    with Trace() as t:
        akg = _akg_of(parse_brat_ann(txt, ann))
    # A2 (T1) and the rule A1 derive A3 (T2): the stance's support is covered
    assert akg.pruned_supports == (("A2", "A3"),)
    assert ("akgraph.akg", "pruned redundant support A2 -> A3") in t.records
    assert akg.edges_of_kind(G.SUPPORT) == []
    assert sorted((e.source, e.target) for e in akg.edges) == [("A1", "A3"), ("A2", "A3")]


def test_stances_need_the_ekbs_major_claim():
    # a hand-built EKB that names no major claim: the stances give no edge,
    # and the major claim's node is tagged as a plain claim
    doc = _stance_doc()
    kb = E.build_ekb(doc, markers.detect_ims(doc.document))._replace(major_claim=None)
    with Trace() as t:
        akg = G.build_akg(build_kb_graph(kb), A.derive_argument_set(kb), doc)
    assert t.records == [("akgraph.akg", "stances present but no major claim; skipped")]
    assert akg.edges == ()
    assert akg.node("A1").attributes.values[-1] == "Claim"


def _repeated_doc():
    txt = "Cats are best. Cats purr. Dogs bark.\n"
    ann = "\n".join([
        "T1\tMajorClaim 0 13\tCats are best",
        "T2\tClaim 15 24\tCats purr",
        "T3\tPremise 26 35\tDogs bark",
        "R1\tSupports Arg1:T2 Arg2:T1",
        "R2\tAttacks Arg1:T3 Arg2:T2",
        "R3\tAttacks Arg1:T3 Arg2:T2",
        "A1\tStance T2 For",
    ]) + "\n"
    return parse_brat_ann(txt, ann)


def test_one_edge_per_source_target_kind():
    # R1 and the stance A1 give the same support, R2 and R3 the same attack
    akg = _akg_of(_repeated_doc())
    assert akg.edges == (G.AKGEdge("A3", "A2", G.SUPPORT),
                         G.AKGEdge("A1", "A3", G.ATTACK, attack_type=G.REBUT))
    assert project_af(akg).atts == (("A1", "A3"),)


def test_one_pruned_support_per_pair():
    # the relation and the stance give the same support, which a group covers
    txt = "Cats purr. Therefore, cats are the best pets.\n"
    ann = "\n".join([
        "T1\tClaim 0 9\tCats purr",
        "T2\tMajorClaim 22 44\tcats are the best pets",
        "R1\tSupports Arg1:T1 Arg2:T2",
        "A1\tStance T1 For",
    ]) + "\n"
    with Trace() as t:
        akg = _akg_of(parse_brat_ann(txt, ann))
    assert akg.pruned_supports == (("A2", "A3"),)
    assert t.records.count(("akgraph.akg", "pruned redundant support A2 -> A3")) == 1


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
    akg = _akg_of(_stance_doc())
    assert akg.mp_applications == ()
    assert akg.edges_of_kind(G.SUPPORT) == [G.AKGEdge("A2", "A1", G.SUPPORT)]
    assert akg.pruned_supports == ()


def test_content_merge_two_rules_same_consequent():
    from test_arguments import shared_consequent_doc

    doc = shared_consequent_doc()
    kb = E.build_ekb(doc, markers.detect_ims(doc.document))
    aset = A.derive_argument_set(kb)
    akg = G.build_akg(build_kb_graph(kb), aset, doc)
    # two derivations of the merged claim collapse into one node
    mc_nodes = [n for n in akg.nodes if n.content == "T2+T4"]
    assert len(mc_nodes) == 1
    assert mc_nodes[0].attributes.values[-1] == "MajorClaim"
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


# ---------------------------------------------------------------- reference build

def _reference_node(ekb, arg, primary, comp_kinds):
    """Each node built from the EKB, its rule boxes from
    rule_preference_sets: the build that reusing KB nodes replaced."""
    if arg.kind == A.IRP:
        rule = ekb.rule(arg.content)
        ls = E.rule_preference_sets(ekb, rule.rule_id)
        if ls is None:
            l1 = l2 = None
        else:
            l1 = frozenset(primary[x] for x in ls[0])
            l2 = frozenset(primary[x] for x in ls[1])
        box = AttributeBox((arg.arg_id, rule.kind, _quote(rule.im), l1, l2))
        return G.AKGNode(arg.arg_id, G.RULE_PREMISE, box, content=arg.content,
                         text=ekb.rule_text(rule.rule_id))
    f = ekb.formula(arg.content)
    if arg.kind == A.C:
        values = (arg.arg_id, _quote(f.marker))
        if f.components:
            kinds = {comp_kinds.get(cid) for cid in f.components}
            values = values + ("MajorClaim" if "MajorClaim" in kinds else "Claim",)
        return G.AKGNode(arg.arg_id, G.CONCLUSION, AttributeBox(values),
                         content=arg.content, text=f.text)
    box = AttributeBox((arg.arg_id, _quote(f.marker), f.premise_kind))
    return G.AKGNode(arg.arg_id, G.PREMISE, box, content=arg.content, text=f.text,
                     premise_kind=f.premise_kind)


def _reference_prune(edges):
    """edges without each support that parallels a modus-ponens edge, and
    the pairs so dropped, in natural-key order."""
    mp_pairs = {(e.source, e.target) for e in edges if e.kind == G.MODUS_PONENS}
    kept, pruned = [], []
    for e in edges:
        if e.kind == G.SUPPORT and (e.source, e.target) in mp_pairs:
            pruned.append((e.source, e.target))
        else:
            kept.append(e)
    pruned.sort(key=lambda st: (natural_key(st[0]), natural_key(st[1])))
    return tuple(kept), tuple(pruned)


def _reference_akg(ekb, aset, doc):
    """The AKG with each annotation mapped to its member from the formulas'
    components and the rule spans' marker overlaps, not from ekb.member_of,
    built in two passes: every edge first, then the redundant supports
    pruned."""
    comp_kinds = {c.comp_id: c.kind for c in doc.components}
    primary = {}
    for arg in aset.arguments:
        primary.setdefault(arg.content, arg.arg_id)
    nodes = [_reference_node(ekb, arg, primary, comp_kinds)
             for arg in aset.arguments if primary[arg.content] == arg.arg_id]
    node_by_id = {n.arg_id: n for n in nodes}

    member_of = {cid: f.formula_id for f in ekb.formulas for cid in f.components}
    for rs in doc.rule_spans:
        for r in ekb.rules:
            if r.im_span and r.im_span[0] < rs.end and rs.start < r.im_span[1]:
                member_of[rs.span_id] = r.rule_id
                break

    edges = []
    for rel in doc.relations:
        src, tgt = primary.get(member_of.get(rel.source)), primary.get(member_of.get(rel.target))
        if src is None or tgt is None or src == tgt:
            continue
        if rel.kind == "Supports":
            edges.append(G.AKGEdge(src, tgt, G.SUPPORT))
        else:
            edges.append(G._attack_edge(src, node_by_id[tgt]))
    if doc.stances:
        mc_members = {m for cid, m in member_of.items()
                      if comp_kinds.get(cid) == "MajorClaim"}
        mc_nodes = sorted(primary[m] for m in mc_members if m in primary)
        if mc_nodes:
            claim_to_arg = {cid: primary[m] for cid, m in member_of.items()
                            if m in primary}
            mc = node_by_id[mc_nodes[0]]
            for stance in doc.stances:
                src = claim_to_arg[stance.claim]
                if stance.stance == "For":
                    edges.append(G.AKGEdge(src, mc.arg_id, G.SUPPORT))
                else:
                    edges.append(G._attack_edge(src, mc))
    # one support and one attack edge per (source, target): the first made
    edges = list(dict.fromkeys(edges))
    for g, app in enumerate(aset.mp_applications):
        result = primary[aset.argument(app.result_arg).content]
        for src in list(app.antecedent_args) + [app.rule_arg]:
            edges.append(G.AKGEdge(primary[aset.argument(src).content], result,
                                   G.MODUS_PONENS, mp_group=g))
    kept, pruned = _reference_prune(edges)
    return G.AKG(tuple(nodes), kept, aset.mp_applications, pruned)


def _assert_matches_reference(ekb, aset, doc):
    akg = G.build_akg(build_kb_graph(ekb), aset, doc)
    want = _reference_akg(ekb, aset, doc)
    # AKGNode equality covers kind, box values, text, premise_kind and tag
    assert akg.nodes == want.nodes
    assert akg.edges == want.edges
    assert akg.pruned_supports == want.pruned_supports


def _major_claim_tags(akg):
    return [n.arg_id for n in akg.nodes if n.attributes.values[-1] == "MajorClaim"]


@settings(max_examples=60, deadline=None)
@given(canonical_docs())
def test_major_claim_tag_only_on_the_major_claims_node(content):
    doc = parse_canonical_json(content)
    kb = E.build_ekb(doc, markers.detect_ims(doc.document))
    aset = A.derive_argument_set(kb)
    akg = G.build_akg(build_kb_graph(kb), aset, doc)
    if kb.major_claim is None:
        assert _major_claim_tags(akg) == []
        return
    mc = next(a.arg_id for a in aset.arguments if a.content == kb.major_claim)
    # a major claim derived and feeding a rule is a premise of no kind
    want = [mc] if akg.node(mc).kind == G.CONCLUSION else []
    assert _major_claim_tags(akg) == want


def test_nodes_match_reference_on_fixtures(essay, pollock):
    # essay056 carries preferences, so its rule boxes hold non-empty L-sets
    for art in (essay, pollock):
        _assert_matches_reference(art["ekb"], art["aset"], art["doc"])


@settings(max_examples=100, deadline=None)
@given(canonical_docs(), st.data())
def test_nodes_match_reference_on_parsed_documents(content, data):
    doc = parse_canonical_json(content)
    ims = markers.detect_ims(doc.document)
    ekb = E.build_ekb(doc, ims)
    # one chain over some of the rules, so that L-sets are not all empty
    order = data.draw(st.permutations([r.rule_id for r in ekb.rules]))
    if len(order) > 1:
        chain = order[:data.draw(st.integers(2, len(order)))]
        ekb = E.build_ekb(doc, ims, prefs=E.PreferenceConfig((tuple(chain),)))
    _assert_matches_reference(ekb, A.derive_argument_set(ekb), doc)
