"""Argument knowledge graph construction.

Argument nodes carry attribute boxes; edges are Support, typed Attack
(Reb / UM / UC) and ModusPonens.  Annotated relations and claim stances
supply the support/attack edges; modus-ponens applications are expanded to
edge groups.  No edge is made twice, and a support edge that a modus-ponens
group already covers is never made: its pair is listed as pruned instead.
"""

from collections import namedtuple

from .arguments import C
from .ekb import AXIOM, ASSUMPTION
from .ingest import natural_key
from .kbgraph import PREMISE, RULE_PREMISE, AttributeBox, _quote
from .trace import warn

CONCLUSION = "Conclusion"

SUPPORT = "Support"
ATTACK = "Attack"
MODUS_PONENS = "ModusPonens"

REBUT = "Reb"
UNDERMINE = "UM"
UNDERCUT = "UC"


class AKGError(ValueError):
    pass


class AxiomAttacked(AKGError):
    """A contrary pair targets an axiom premise, which is immune to attacks."""


class UnknownClaim(AKGError):
    pass


class AKGNode(namedtuple("AKGNode", "arg_id kind attributes content text premise_kind",
                          defaults=(None, None, None))):
    """One argument node with its AttributeBox.  content is the formula or
    rule id behind the node, text its member rendered, and premise_kind
    n/p/a for premise nodes."""
    __slots__ = ()


class AKGEdge(namedtuple("AKGEdge",
                          "source target kind attack_type mp_group contrary_undermine",
                          defaults=(None, None, False))):
    """A Support, Attack or ModusPonens edge between two argument ids.
    attack_type (Reb, UM or UC) is set iff kind is Attack, mp_group (the
    application index) iff kind is ModusPonens."""
    __slots__ = ()


class AKG(namedtuple("AKG", "nodes edges mp_applications pruned_supports",
                     defaults=((), ()))):
    """AKGNode and AKGEdge tuples, the MPApplications behind the
    modus-ponens groups, and the (source, target) support edges pruned.
    Nodes are in natural id order, which the exports keep (see build_akg)."""
    __slots__ = ()


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


def _member_node(arg_id, kb_node, primary):
    """kb_node under argument id arg_id: same kind and text, arg_id followed
    by the KB box values, a rule's L-sets renamed through primary, which maps
    each content to the id of the node that holds it."""
    values = kb_node.attributes.values
    if kb_node.kind == PREMISE:   # marker, premise kind
        return AKGNode(arg_id, PREMISE, AttributeBox((arg_id,) + values),
                       kb_node.node_id, kb_node.text, values[1])
    _, rule_kind, im, l1, l2 = values   # arg_id takes the rule id's place
    l1, l2 = (ls if ls is None else frozenset(primary[x] for x in ls)
              for ls in (l1, l2))
    return AKGNode(arg_id, RULE_PREMISE, AttributeBox((arg_id, rule_kind, im, l1, l2)),
                   kb_node.node_id, kb_node.text)


def _claim_node(ekb, arg):
    """The node of an argument for a claim text, which has no KB node."""
    f = ekb.formula(arg.content)
    values = (arg.arg_id, _quote(f.marker))
    if arg.kind != C:   # derived, and feeding a rule: a premise of no kind
        return AKGNode(arg.arg_id, PREMISE, AttributeBox(values + (None,)),
                       content=arg.content, text=f.text)
    if f.components:    # the dataset tag: Claim | MajorClaim
        values += ("MajorClaim" if arg.content == ekb.major_claim else "Claim",)
    return AKGNode(arg.arg_id, CONCLUSION, AttributeBox(values),
                   content=arg.content, text=f.text)


def build_akg(kbg, aset, doc):
    """Assemble the AKG from the knowledge-base graph, argument set and document.

    Arguments sharing content merge into one node (the earliest argument's
    id).  The node of an argument for a K formula or a rule is that
    member's KB node under the argument id; only claim texts get a box of
    their own; the node of ekb.major_claim is tagged MajorClaim.  Of doc,
    only the relations and the stances are read; they give the support and
    attack edges, a stance's into ekb.major_claim, and the first annotation
    of a (source, target, kind) makes its edge.  Modus-ponens applications
    expand to one edge per antecedent plus one for the rule.  A support
    s -> t is redundant when some application into t already includes s: it
    goes to pruned_supports, with a warning, instead of the edges.  Edges
    are in that order: relations, stances, modus-ponens groups.  Nodes are
    in natural id order by construction: they follow aset.arguments, which
    derive_argument_set numbers A1...An in order.
    """
    ekb = kbg.ekb
    kb_nodes = {n.node_id: n for n in kbg.nodes}

    # content-merged nodes: the first argument for a content owns the node
    primary = {}
    for arg in aset.arguments:
        primary.setdefault(arg.content, arg.arg_id)
    nodes = {}
    for arg in aset.arguments:
        if primary[arg.content] != arg.arg_id:
            continue
        if arg.content in kb_nodes:
            nodes[arg.arg_id] = _member_node(arg.arg_id, kb_nodes[arg.content], primary)
        else:
            nodes[arg.arg_id] = _claim_node(ekb, arg)
    # annotation id -> node id; every member has an argument
    node_of = {ann_id: primary[m] for ann_id, m in ekb.member_of}

    # the modus-ponens edges are made first, though listed last, so that a
    # support edge one of them covers is never made
    mp_edges = []
    for g, app in enumerate(aset.mp_applications):
        result = primary[aset.argument(app.result_arg).content]
        for src in (*app.antecedent_args, app.rule_arg):
            mp_edges.append(AKGEdge(primary[aset.argument(src).content], result,
                                    MODUS_PONENS, mp_group=g))
    mp_pairs = {(e.source, e.target) for e in mp_edges}
    edges, pruned, made = [], [], set()

    def add(src, tgt, kind):   # a support that a group covers is pruned
        if (src, tgt, kind) in made:
            return
        made.add((src, tgt, kind))
        if kind == ATTACK:
            edges.append(_attack_edge(src, nodes[tgt]))
        elif (src, tgt) in mp_pairs:
            pruned.append((src, tgt))
        else:
            edges.append(AKGEdge(src, tgt, SUPPORT))

    skipped = []
    for rel in doc.relations:
        src, tgt = node_of.get(rel.source), node_of.get(rel.target)
        if src is None or tgt is None:
            skipped.append(rel.rel_id)
            continue
        if src != tgt:
            add(src, tgt, SUPPORT if rel.kind == "Supports" else ATTACK)
    # in id order, so that the warnings do not follow the input's order
    for rel_id in sorted(skipped, key=natural_key):
        warn(__name__, "relation %s endpoints missing from the graph; skipped" % rel_id)

    if doc.stances:
        mc = primary.get(ekb.major_claim)
        if mc is None:
            warn(__name__, "stances present but no major claim; skipped")
        else:   # For: a support into the major claim; Against: an attack on it
            for st in doc.stances:
                if st.claim not in node_of:
                    raise UnknownClaim("stance %s cites unknown claim %s"
                                       % (st.attr_id, st.claim))
                add(node_of[st.claim], mc, SUPPORT if st.stance == "For" else ATTACK)

    # listed, and warned about, in natural-key order, whatever the order of
    # the relation lines they came from
    pruned.sort(key=lambda st: (natural_key(st[0]), natural_key(st[1])))
    for st in pruned:
        warn(__name__, "pruned redundant support %s -> %s" % st)
    return AKG(tuple(nodes.values()), tuple(edges + mp_edges),
               aset.mp_applications, tuple(pruned))
