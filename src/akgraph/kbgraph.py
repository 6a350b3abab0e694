"""Attributed knowledge-base graph.

Nodes are premises and inference-rule premises; edges are agreement and
contrary relations.  Each node carries an ordered attribute box whose
rendering is stable across rebuilds; ids sort by ingest.natural_key.
Node-kind constants defined here are shared with the argument knowledge graph.
"""

from collections import namedtuple
from functools import cached_property

from .ekb import EKBError, rule_preference_sets, validate_ekb
from .ingest import natural_key

PREMISE = "Premise"
RULE_PREMISE = "InferenceRulePremise"

AGREEMENT = "Agreement"
CONTRARY = "Contrary"


def _render_value(v):
    if v is None:
        return "N"
    if isinstance(v, frozenset):
        if not v:
            return "φ"   # empty-but-defined sets render as phi
        return "{%s}" % ", ".join(sorted(v, key=natural_key))
    return v


class AttributeBox(namedtuple("AttributeBox", "values")):
    """Positionally fixed attribute values for one node.

    values is a tuple of strings, frozensets of ids, or None; None renders
    as N, an empty set as phi.  Marker values are stored pre-quoted.
    rendered holds each value rendered as a string, worked out on first
    use; a box made by _replace or _make renders its own.
    """

    @cached_property
    def rendered(self):
        return tuple(map(_render_value, self.values))

    def render(self):
        return "{%s}" % ", ".join(self.rendered)


def _quote(marker):
    return None if marker is None else '"%s"' % marker


def premise_attribute_box(f):
    """[marker|N, premise kind letter] for a K formula."""
    return AttributeBox((_quote(f.marker), f.premise_kind))


def rule_attribute_box(ekb, r):
    """[rule id, S|D, IM, L1|N, L2|N]; strict rules take N for both L-sets."""
    ls = rule_preference_sets(ekb, r.rule_id)
    l1, l2 = (None, None) if ls is None else ls
    return AttributeBox((r.rule_id, r.kind, _quote(r.im), l1, l2))


class KBNode(namedtuple("KBNode", "node_id kind text attributes")):
    """A Premise or InferenceRulePremise node: text is its member rendered,
    attributes its AttributeBox."""
    __slots__ = ()


class KBEdge(namedtuple("KBEdge", "source target kind")):
    """An Agreement or Contrary edge between two node ids."""
    __slots__ = ()


class KBGraph(namedtuple("KBGraph", "nodes edges ekb")):
    """KBNode and KBEdge tuples, in the order the exports write them (see
    build_kb_graph); ekb is the source EKB, read by build_akg."""
    __slots__ = ()


def build_kb_graph(ekb):
    """One node per K formula and per rule, one edge per agreement/contrary
    pair.  Each node carries its member's rendered text and attribute box;
    build_akg reuses the text and the box values for the arguments that
    rest on the member.  Nodes are in natural id order, edges in (kind,
    source, target) order; the exports keep both.

    An invalid EKB is refused.  build_ekb's output always passes that check
    (test_ekb.py::test_built_ekb_is_valid), so in a pipeline run it is a
    second look at valid input; it stays to guard EKBs built or edited in
    code, which reach this function without build_ekb.
    """
    violations = validate_ekb(ekb)
    if violations:
        raise EKBError("refusing to build from an invalid EKB: %s"
                       % "; ".join(str(v) for v in violations))

    nodes = []
    for member_id in ekb.kb_members:
        if member_id in ekb._rule_index:
            kind, box = RULE_PREMISE, rule_attribute_box(ekb, ekb.rule(member_id))
        else:
            kind, box = PREMISE, premise_attribute_box(ekb.formula(member_id))
        nodes.append(KBNode(member_id, kind, ekb.member_text(member_id), box))
    nodes.sort(key=lambda n: natural_key(n.node_id))

    edges = [KBEdge(a, b, AGREEMENT) for a, b in ekb.agreements]
    edges += [KBEdge(a, b, CONTRARY) for a, b in ekb.contraries]
    edges.sort(key=lambda e: (e.kind, natural_key(e.source), natural_key(e.target)))
    return KBGraph(tuple(nodes), tuple(edges), ekb)
