"""Deterministic serializers: DOT, JSON and apx.

Emission order is sorted by id everywhere, so identical inputs produce
byte-identical outputs.  Attribute boxes become secondary label nodes in DOT,
joined to their owners by undecorated linker edges.
"""

import json

from . import akg as akgmod
from . import kbgraph
from .kbgraph import natural_key

# DOT shape per node kind
_NODE_SHAPE = {
    kbgraph.PREMISE: "box",
    kbgraph.RULE_PREMISE: "hexagon",
    akgmod.CONCLUSION: "ellipse",
}

_EDGE_STYLE = {
    kbgraph.AGREEMENT: 'dir=none, style=dashed, label="Ag"',
    kbgraph.CONTRARY: 'style=dashed, arrowhead=diamond, label="Con"',
    akgmod.SUPPORT: "",
    akgmod.ATTACK: "",          # label carries the attack type
    akgmod.MODUS_PONENS: "style=bold",
}


def _esc(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _dot_node(node_id, label, shape, extra=""):
    attrs = ['label="%s"' % _esc(label), "shape=%s" % shape]
    if extra:
        attrs.append(extra)
    return '  "%s" [%s];' % (node_id, ", ".join(attrs))


def _attr_box_lines(owner_id, box):
    """Secondary node holding the rendered attribute tuple, plus its linker."""
    box_id = owner_id + "#attrs"
    lines = [_dot_node(box_id, box.render(), "note", "fontsize=10")]
    lines.append('  "%s" -> "%s" [dir=none];' % (owner_id, box_id))
    return lines


def export_dot(graph):
    """Render a KBGraph or an AKG as a DOT digraph."""
    is_akg = isinstance(graph, akgmod.AKG)
    name = "akg" if is_akg else "kb"
    lines = ["digraph %s {" % name, '  rankdir="LR";']

    nodes = sorted(graph.nodes,
                   key=lambda n: natural_key(n.arg_id if is_akg else n.node_id))
    for n in nodes:
        node_id = n.arg_id if is_akg else n.node_id
        label = (n.text or n.content) if is_akg else _member_label(graph, n)
        lines.append(_dot_node(node_id, label, _NODE_SHAPE[n.kind]))
        lines.extend(_attr_box_lines(node_id, n.attributes))

    edges = sorted(graph.edges,
                   key=lambda e: (natural_key(e.source), natural_key(e.target), e.kind))
    for e in edges:
        attrs = _EDGE_STYLE[e.kind]
        if is_akg and e.kind == akgmod.ATTACK:
            attrs = 'label="%s"' % e.attack_type
        elif is_akg and e.kind == akgmod.MODUS_PONENS:
            attrs = '%s, label="MP%d"' % (attrs, e.mp_group)
        tail = " [%s]" % attrs if attrs else ""
        lines.append('  "%s" -> "%s"%s;' % (e.source, e.target, tail))

    lines.append("}")
    return "\n".join(lines) + "\n"


def _member_label(kbg, node):
    if kbg.ekb is not None and kbg.ekb.has_member(node.node_id):
        return kbg.ekb.member_text(node.node_id)
    return node.payload


# -- JSON --

def _dump(obj):
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _rendered_box(box):
    return [kbgraph._render_value(v) for v in box.values]


def export_json_kb(kbg):
    nodes = sorted(kbg.nodes, key=lambda n: natural_key(n.node_id))
    edges = sorted(kbg.edges,
                   key=lambda e: (e.kind, natural_key(e.source), natural_key(e.target)))
    return _dump({
        "nodes": [{"id": n.node_id, "kind": n.kind,
                   "text": _member_label(kbg, n),
                   "attributes": _rendered_box(n.attributes)} for n in nodes],
        "edges": [{"source": e.source, "target": e.target, "kind": e.kind}
                  for e in edges],
    })


def export_json_akg(akg):
    nodes = sorted(akg.nodes, key=lambda n: natural_key(n.arg_id))
    edges = sorted(akg.edges,
                   key=lambda e: (e.kind, natural_key(e.source),
                                  natural_key(e.target),
                                  e.mp_group if e.mp_group is not None else -1))
    out_edges = []
    for e in edges:
        rec = {"source": e.source, "target": e.target, "kind": e.kind}
        if e.attack_type is not None:
            rec["attack_type"] = e.attack_type
        if e.contrary_undermine:
            rec["contrary_undermine"] = True
        if e.mp_group is not None:
            rec["mp_group"] = e.mp_group
        out_edges.append(rec)
    return _dump({
        "nodes": [{"id": n.arg_id, "kind": n.kind, "member": n.content,
                   "text": n.text, "attributes": _rendered_box(n.attributes)}
                  for n in nodes],
        "edges": out_edges,
        "mp_applications": _mp_records(akg.mp_applications),
        "pruned_supports": [[s, t] for s, t in akg.pruned_supports],
    })


def _mp_records(apps):
    return [{"rule": app.rule_arg,
             "antecedents": sorted(app.antecedent_args, key=natural_key),
             "result": app.result_arg} for app in apps]


def export_json_args(aset):
    args = sorted(aset.arguments, key=lambda a: natural_key(a.arg_id))
    return _dump({
        "arguments": [{
            "id": a.arg_id,
            "kind": a.kind,
            "content": a.content,
            "premises": sorted(a.premises, key=natural_key),
            "conclusion": a.conclusion,
            "subargs": list(a.subargs),
            "top_rule": a.top_rule,
        } for a in args],
        "mp_applications": _mp_records(aset.mp_applications),
    })


def export_semantics_json(report):
    return _dump(report)


# -- apx --

def export_apx(af):
    """ICCMA-style apx text: arg()/att() facts, lowercase ids, sorted."""
    lines = ["arg(%s)." % a.lower() for a in sorted(af.args, key=natural_key)]
    lines += ["att(%s,%s)." % (a.lower(), b.lower())
              for a, b in sorted(af.atts, key=lambda p: (natural_key(p[0]),
                                                         natural_key(p[1])))]
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
