"""Deterministic serializers: DOT, JSON and apx.

Emission order is sorted by id everywhere, so identical inputs produce
byte-identical outputs.  Attribute boxes become secondary label nodes in DOT,
joined to their owners by undecorated linker edges.

Every JSON export is laid out as json.dumps(obj, indent=2,
ensure_ascii=False) lays out the same object, byte for byte.  With an indent
json.dumps runs its pure-Python encoder, so the three graph exports fill one
row template per set of keys (_row) instead, and every string goes through
the C string encoder; the semantics report is walked by _json_text.  Only
_row, _array, _strings and _json_text know the layout.
"""

from functools import lru_cache
from json.encoder import encode_basestring as _enc

from . import akg as akgmod
from . import kbgraph
from .kbgraph import natural_key

# DOT shape per node kind
_NODE_SHAPE = {
    kbgraph.PREMISE: "box",
    kbgraph.RULE_PREMISE: "hexagon",
    akgmod.CONCLUSION: "ellipse",
}

# DOT attribute list per edge kind; attack and modus-ponens edges add a label
_EDGE_TAIL = {
    kbgraph.AGREEMENT: ' [dir=none, style=dashed, label="Ag"]',
    kbgraph.CONTRARY: ' [style=dashed, arrowhead=diamond, label="Con"]',
    akgmod.SUPPORT: "",
    akgmod.ATTACK: ' [label="%s"]',
    akgmod.MODUS_PONENS: ' [style=bold, label="MP%d"]',
}

# a node, its attribute box and the linker between them; the node id fills
# the first, fourth, sixth and seventh slots
_DOT_NODE = ('  "%s" [label="%s", shape=%s];\n'
             '  "%s#attrs" [label="%s", shape=note, fontsize=10];\n'
             '  "%s" -> "%s#attrs" [dir=none];')
_DOT_EDGE = '  "%s" -> "%s"%s;'


def _esc(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(graph):
    """Render a KBGraph or an AKG as a DOT digraph."""
    is_akg = isinstance(graph, akgmod.AKG)
    lines = ["digraph %s {" % ("akg" if is_akg else "kb"), '  rankdir="LR";']

    nodes = sorted(graph.nodes,
                   key=lambda n: natural_key(n.arg_id if is_akg else n.node_id))
    for n in nodes:
        if is_akg:
            node_id, label = _esc(n.arg_id), n.text or n.content
        else:
            node_id, label = _esc(n.node_id), n.text
        lines.append(_DOT_NODE % (node_id, _esc(label), _NODE_SHAPE[n.kind],
                                  node_id, _esc(n.attributes.render()),
                                  node_id, node_id))

    edges = sorted(graph.edges,
                   key=lambda e: (natural_key(e.source), natural_key(e.target), e.kind))
    for e in edges:
        tail = _EDGE_TAIL[e.kind]
        if e.kind == akgmod.ATTACK:
            tail %= e.attack_type
        elif e.kind == akgmod.MODUS_PONENS:
            tail %= e.mp_group
        lines.append(_DOT_EDGE % (_esc(e.source), _esc(e.target), tail))

    lines.append("}\n")
    return "\n".join(lines)


# -- JSON --
#
# The graph exports are three levels deep: the top object, its lists at two
# spaces, their rows at four and the rows' fields at six.  Each row fills the
# template that _row builds once for its keys; the keys are the literal
# tuples below and the AKG edge shapes, so the cache stays small.

@lru_cache(maxsize=None)
def _row(keys, pad="    "):
    """Template of a JSON object with these keys, its braces at pad and its
    fields two deeper: one %s per field, for a value rendered at that depth."""
    inner = pad + "  "
    return "%s{\n%s\n%s}" % (pad, ",\n".join(
        "%s%s: %%s" % (inner, _enc(k)) for k in keys), pad)


def _rows(keys, values):
    """A JSON array, at two spaces, of one row per tuple of rendered values."""
    return _array(list(map(_row(keys).__mod__, values)))


def _document(keys, values):
    """A whole export: the top-level object and its closing newline, added
    to the template rather than to the export, which would copy it."""
    return (_row(keys, "") + "\n") % values


def _array(rows, pad="  "):
    """A JSON array of rows already rendered at the indentation below pad."""
    if not rows:
        return "[]"
    return "[\n%s\n%s]" % (",\n".join(rows), pad)


def _strings(items, pad="      "):
    """A JSON array of strings, encoded in one call, closing at pad."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join(map(_enc, items)), pad)


def _json_text(obj, pad=""):
    """obj as json.dumps(obj, indent=2, ensure_ascii=False) writes it, for a
    value nested at indentation pad.  Takes dicts with string keys, lists,
    tuples, strings, ints, bools and None."""
    if isinstance(obj, str):
        return _enc(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{\n%s%s\n%s}" % (inner, (",\n" + inner).join(
            "%s: %s" % (_enc(k), _json_text(v, inner)) for k, v in obj.items()), pad)
    if isinstance(obj, (list, tuple)):
        if all(isinstance(x, str) for x in obj):
            return _strings(obj, pad)
        return _array([inner + _json_text(x, inner) for x in obj], pad)
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(obj).__name__)


def export_json_kb(kbg):
    nodes = sorted(kbg.nodes, key=lambda n: natural_key(n.node_id))
    edges = sorted(kbg.edges,
                   key=lambda e: (e.kind, natural_key(e.source), natural_key(e.target)))
    return _document(("nodes", "edges"), (
        _rows(("id", "kind", "text", "attributes"),
              ((_enc(n.node_id), _enc(n.kind), _enc(n.text),
                _strings(n.attributes.rendered)) for n in nodes)),
        _rows(("source", "target", "kind"),
              ((_enc(e.source), _enc(e.target), _enc(e.kind)) for e in edges))))


def _akg_edge(e):
    """An AKG edge row; each optional field appears only when set."""
    row = {"source": _enc(e.source), "target": _enc(e.target), "kind": _enc(e.kind)}
    if e.attack_type is not None:
        row["attack_type"] = _enc(e.attack_type)
    if e.contrary_undermine:
        row["contrary_undermine"] = "true"
    if e.mp_group is not None:
        row["mp_group"] = int.__repr__(e.mp_group)
    return _row(tuple(row)) % tuple(row.values())


def export_json_akg(akg):
    nodes = sorted(akg.nodes, key=lambda n: natural_key(n.arg_id))
    edges = sorted(akg.edges,
                   key=lambda e: (e.kind, natural_key(e.source),
                                  natural_key(e.target),
                                  e.mp_group if e.mp_group is not None else -1))
    return _document(("nodes", "edges", "mp_applications", "pruned_supports"), (
        _rows(("id", "kind", "member", "text", "attributes"),
              ((_enc(n.arg_id), _enc(n.kind), _json_text(n.content),
                _json_text(n.text), _strings(n.attributes.rendered)) for n in nodes)),
        _array(list(map(_akg_edge, edges))),
        _mp_rows(akg.mp_applications),
        _array(["    " + _strings(pair, "    ") for pair in akg.pruned_supports])))


def _mp_rows(apps):
    return _rows(("rule", "antecedents", "result"),
                 ((_enc(app.rule_arg),
                   _strings(sorted(app.antecedent_args, key=natural_key)),
                   _enc(app.result_arg)) for app in apps))


def export_json_args(aset):
    args = sorted(aset.arguments, key=lambda a: natural_key(a.arg_id))
    return _document(("arguments", "mp_applications"), (
        _rows(("id", "kind", "content", "premises", "conclusion", "subargs",
               "top_rule"),
              ((_enc(a.arg_id), _enc(a.kind), _enc(a.content),
                _strings(sorted(a.premises, key=natural_key)), _enc(a.conclusion),
                _strings(a.subargs), _json_text(a.top_rule)) for a in args)),
        _mp_rows(aset.mp_applications)))


def export_semantics_json(report):
    return _json_text(report) + "\n"


# -- apx --

def export_apx(af):
    """ICCMA-style apx text: arg()/att() facts, lowercase ids, sorted."""
    lines = ["arg(%s).\n" % a.lower() for a in sorted(af.args, key=natural_key)]
    lines += ["att(%s,%s).\n" % (a.lower(), b.lower())
              for a, b in sorted(af.atts, key=lambda p: (natural_key(p[0]),
                                                         natural_key(p[1])))]
    return "".join(lines)
