"""Attributed knowledge-base graph.

Nodes are premises and inference-rule premises; edges are agreement and
contrary relations.  Each node carries an ordered attribute box whose
rendering is stable across rebuilds.  The node-kind constants defined here
are shared with the argument knowledge graph.
"""

import re
from collections import namedtuple
from functools import cached_property, lru_cache
from typing import NamedTuple

from .ekb import validate_ekb

PREMISE = "Premise"
RULE_PREMISE = "InferenceRulePremise"

AGREEMENT = "Agreement"
CONTRARY = "Contrary"

_ID_PATT = re.compile(r"([A-Za-z]+)(\d+)$")


# Ids repeat across a run's graphs and exports, so each is parsed once;
# bounded, because a long-lived process may see many documents.
@lru_cache(maxsize=1 << 16)
def natural_key(any_id):
    """Sort key ordering A2 before A10."""
    m = _ID_PATT.match(any_id)
    if m:
        return (m.group(1), int(m.group(2)))
    return (any_id, -1)


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
    """

    @cached_property
    def rendered(self):
        """Each value rendered as a string, computed once per box."""
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
    from .ekb import rule_preference_sets
    ls = rule_preference_sets(ekb, r.rule_id)
    l1, l2 = (None, None) if ls is None else ls
    return AttributeBox((r.rule_id, r.kind, _quote(r.im), l1, l2))


class KBNode(NamedTuple):
    node_id: str
    kind: str       # Premise | InferenceRulePremise
    payload: str    # formula or rule id
    attributes: AttributeBox


class KBEdge(NamedTuple):
    source: str
    target: str
    kind: str       # Agreement | Contrary


class KBGraph(namedtuple("KBGraph", "nodes edges ekb", defaults=(None,))):
    """KBNode and KBEdge tuples; ekb is the source EKB, read by build_akg
    and the exports."""

    # reversed, so that of duplicate ids the first wins, as in a scan
    @cached_property
    def _index(self):
        return {n.node_id: n for n in reversed(self.nodes)}

    def node(self, node_id):
        return self._index.get(node_id)


def build_kb_graph(ekb):
    """One node per K formula and per rule, one edge per agreement/contrary
    pair.  Node order follows the member order; edges are sorted."""
    violations = validate_ekb(ekb)
    if violations:
        raise ValueError("refusing to build from an invalid EKB: %s"
                         % "; ".join(str(v) for v in violations))

    rules = {r.rule_id: r for r in ekb.rules}
    k_formulas = {f.formula_id: f for f in ekb.K}
    nodes = []
    for member_id in ekb.kb_members:
        if member_id in rules:
            r = rules[member_id]
            nodes.append(KBNode(member_id, RULE_PREMISE, member_id,
                                rule_attribute_box(ekb, r)))
        else:
            f = k_formulas[member_id]
            nodes.append(KBNode(member_id, PREMISE, member_id, premise_attribute_box(f)))

    edges = [KBEdge(a, b, AGREEMENT) for a, b in ekb.agreements]
    edges += [KBEdge(a, b, CONTRARY) for a, b in ekb.contraries]
    edges.sort(key=lambda e: (e.kind, natural_key(e.source), natural_key(e.target)))
    return KBGraph(tuple(nodes), tuple(edges), ekb)
