"""Argument knowledge graph construction.

Argument nodes carry attribute boxes; edges are Support, typed Attack
(Reb / UM / UC) and ModusPonens.  Annotated relations and claim stances
supply the support/attack edges; modus-ponens applications are expanded to
edge groups; support edges made redundant by a modus-ponens group are pruned.
"""

import logging
from collections import namedtuple
from functools import cached_property
from typing import NamedTuple

from .arguments import C, IRP
from .ekb import AXIOM, ASSUMPTION, rule_preference_sets
from .kbgraph import PREMISE, RULE_PREMISE, AttributeBox, _quote

logger = logging.getLogger(__name__)

CONCLUSION = "Conclusion"

SUPPORT = "Support"
ATTACK = "Attack"
MODUS_PONENS = "ModusPonens"

REBUT = "Reb"
UNDERMINE = "UM"
UNDERCUT = "UC"


class AKGError(Exception):
    pass


class AxiomAttacked(AKGError):
    """A contrary pair targets an axiom premise, which is immune to attacks."""


class UnknownClaim(AKGError):
    pass


class AKGNode(NamedTuple):
    arg_id: str
    kind: str
    attributes: AttributeBox
    content: str = None       # formula or rule id behind the node
    text: str = None          # rendered member text
    premise_kind: str = None  # n/p/a for premise nodes
    dataset_tag: str = None   # Claim | MajorClaim for annotated conclusions


class AKGEdge(NamedTuple):
    source: str
    target: str
    kind: str                 # Support | Attack | ModusPonens
    attack_type: str = None   # Reb | UM | UC, iff kind == Attack
    mp_group: int = None      # application index, iff kind == ModusPonens
    contrary_undermine: bool = False


class AKG(namedtuple("AKG", "nodes edges mp_applications pruned_supports",
                     defaults=((), ()))):
    """AKGNode and AKGEdge tuples, the MPApplications behind the
    modus-ponens groups, and the (source, target) support edges pruned."""

    # reversed, so that of duplicate ids the first wins, as in a scan
    @cached_property
    def _index(self):
        return {n.arg_id: n for n in reversed(self.nodes)}

    def node(self, arg_id):
        return self._index.get(arg_id)

    def edges_of_kind(self, kind):
        return [e for e in self.edges if e.kind == kind]


def classify_attack(target_node):
    """Attack type from the target's node kind: rules are undercut,
    conclusions rebutted, ordinary premises undermined."""
    if target_node.premise_kind == AXIOM:
        raise AxiomAttacked("%s is an axiom premise" % target_node.arg_id)
    if target_node.kind == RULE_PREMISE:
        return UNDERCUT
    if target_node.kind == CONCLUSION:
        return REBUT
    return UNDERMINE


def _attack_edge(source_id, target_node):
    atype = classify_attack(target_node)
    return AKGEdge(source_id, target_node.arg_id, ATTACK, attack_type=atype,
                   contrary_undermine=(target_node.premise_kind == ASSUMPTION))


def convert_stances(stances, claim_to_arg, major_claim_node):
    """For stances become support edges into the major claim, against stances
    attack edges (typed against the major-claim node)."""
    edges = []
    for st in stances:
        if st.claim not in claim_to_arg:
            raise UnknownClaim("stance %s cites unknown claim %s"
                               % (st.attr_id, st.claim))
        src = claim_to_arg[st.claim]
        if st.stance == "For":
            edges.append(AKGEdge(src, major_claim_node.arg_id, SUPPORT))
        else:
            edges.append(_attack_edge(src, major_claim_node))
    return edges


def _node_for(ekb, arg, rule_arg_ids, comp_kinds):
    if arg.kind == IRP:
        rule = ekb.rule(arg.content)
        ls = rule_preference_sets(ekb, rule.rule_id)
        if ls is None:
            l1 = l2 = None
        else:
            l1 = frozenset(rule_arg_ids[x] for x in ls[0])
            l2 = frozenset(rule_arg_ids[x] for x in ls[1])
        box = AttributeBox((arg.arg_id, rule.kind, _quote(rule.im), l1, l2))
        return AKGNode(arg.arg_id, RULE_PREMISE, box, content=arg.content,
                       text=ekb.rule_text(rule.rule_id))
    f = ekb.formula(arg.content)
    if arg.kind == C:
        tag = None
        if f.components:
            kinds = {comp_kinds.get(cid) for cid in f.components}
            tag = "MajorClaim" if "MajorClaim" in kinds else "Claim"
        values = (arg.arg_id, _quote(f.marker))
        if tag:
            values = values + (tag,)
        return AKGNode(arg.arg_id, CONCLUSION, AttributeBox(values),
                       content=arg.content, text=f.text, dataset_tag=tag)
    box = AttributeBox((arg.arg_id, _quote(f.marker), f.premise_kind))
    return AKGNode(arg.arg_id, PREMISE, box, content=arg.content, text=f.text,
                   premise_kind=f.premise_kind)


def build_akg(kbg, aset, doc):
    """Assemble the AKG from the knowledge-base graph, argument set and document.

    Arguments sharing content merge into one node (the earliest argument's
    id).  Support/attack edges come from annotated relations and stances;
    modus-ponens applications expand to one edge per antecedent plus one for
    the rule; redundant supports are pruned last.
    """
    ekb = kbg.ekb
    comp_kinds = {c.comp_id: c.kind for c in doc.components}
    rule_arg_ids = {}
    for a in aset.arguments:
        if a.kind == IRP and a.content not in rule_arg_ids:
            rule_arg_ids[a.content] = a.arg_id

    # content-merged nodes: the first argument for a content owns the node
    primary = {}
    nodes = []
    for arg in aset.arguments:
        if arg.content in primary:
            logger.debug("merging %s into node %s", arg.arg_id, primary[arg.content])
            continue
        primary[arg.content] = arg.arg_id
        nodes.append(_node_for(ekb, arg, rule_arg_ids, comp_kinds))
    node_by_id = {n.arg_id: n for n in nodes}

    member_of = dict(ekb.component_to_formula)
    member_of.update(ekb.span_to_rule)

    def arg_of(ann_id):
        member = member_of.get(ann_id)
        return primary.get(member)

    edges = []
    for rel in doc.relations:
        src, tgt = arg_of(rel.source), arg_of(rel.target)
        if src is None or tgt is None:
            logger.warning("relation %s endpoints missing from the graph; skipped",
                           rel.rel_id)
            continue
        if src == tgt:
            continue
        if rel.kind == "Supports":
            edges.append(AKGEdge(src, tgt, SUPPORT))
        else:
            edges.append(_attack_edge(src, node_by_id[tgt]))

    if doc.stances:
        mc_members = {m for cid, m in member_of.items()
                      if comp_kinds.get(cid) == "MajorClaim"}
        mc_nodes = sorted(primary[m] for m in mc_members if m in primary)
        if not mc_nodes:
            logger.warning("stances present but no major claim; skipped")
        else:
            claim_to_arg = {cid: primary[m] for cid, m in member_of.items()
                            if m in primary}
            edges.extend(convert_stances(doc.stances, claim_to_arg,
                                         node_by_id[mc_nodes[0]]))

    for g, app in enumerate(aset.mp_applications):
        result = primary[aset.argument(app.result_arg).content]
        for src in list(app.antecedent_args) + [app.rule_arg]:
            edges.append(AKGEdge(primary[aset.argument(src).content], result,
                                 MODUS_PONENS, mp_group=g))

    akg = AKG(tuple(nodes), tuple(edges), aset.mp_applications)
    return prune_redundant_support(akg)


def prune_redundant_support(akg):
    """Drop each support edge that parallels a modus-ponens group: a support
    s -> t is redundant when some application into t already includes s."""
    mp_pairs = {(e.source, e.target) for e in akg.edges if e.kind == MODUS_PONENS}
    kept, pruned = [], []
    for e in akg.edges:
        if e.kind == SUPPORT and (e.source, e.target) in mp_pairs:
            pruned.append((e.source, e.target))
            logger.info("pruned redundant support %s -> %s", e.source, e.target)
            continue
        kept.append(e)
    if not pruned:
        return akg
    return akg._replace(edges=tuple(kept),
                        pruned_supports=akg.pruned_supports + tuple(pruned))
