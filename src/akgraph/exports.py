"""Deterministic serializers: DOT, JSON and apx.

Identical inputs produce byte-identical outputs.  The builders own the
natural id order: nodes and arguments are written in the order their record
holds them, KB edges too in json-kb.  Only what a format orders by its own
key is sorted here: the edges of DOT and json-akg, premise and antecedent
sets, and apx facts.  Attribute boxes become secondary label nodes in DOT,
joined to their owners by undecorated linker edges.

Every JSON export is laid out as json.dumps(obj, indent=2,
ensure_ascii=False) lays out the same object, byte for byte.  With an indent
json.dumps runs its pure-Python encoder, so the four JSON exports fill one
row template per set of keys (_row) instead, and every string goes through
the C string encoder.  Only _row, _array and _strings know the layout.
"""

from functools import lru_cache
from json.encoder import encode_basestring as _enc

from . import akg as akgmod
from . import kbgraph
from .ingest import natural_key

# DOT shape per node kind
_NODE_SHAPE = {
    kbgraph.PREMISE: "box",
    kbgraph.RULE_PREMISE: "hexagon",
    akgmod.CONCLUSION: "ellipse",
}

# a node, its attribute box and the linker between them, per node kind: the
# node id fills the first, third, fifth and sixth slots, the label the
# second and the rendered box the fourth
_DOT_NODE = {kind: ('  "%%s" [label="%%s", shape=%s];\n'
                    '  "%%s#attrs" [label="%%s", shape=note, fontsize=10];\n'
                    '  "%%s" -> "%%s#attrs" [dir=none];') % shape
             for kind, shape in _NODE_SHAPE.items()}

# an edge per edge kind; attack and modus-ponens edges take a third value
_DOT_EDGE = {
    kbgraph.AGREEMENT: '  "%s" -> "%s" [dir=none, style=dashed, label="Ag"];',
    kbgraph.CONTRARY: '  "%s" -> "%s" [style=dashed, arrowhead=diamond, label="Con"];',
    akgmod.SUPPORT: '  "%s" -> "%s";',
    akgmod.ATTACK: '  "%s" -> "%s" [label="%s"];',
    akgmod.MODUS_PONENS: '  "%s" -> "%s" [style=bold, label="MP%d"];',
}


def _esc(s):
    """s as the inside of a DOT string; one without " or \\ is s itself."""
    if '"' in s or "\\" in s:
        return s.replace("\\", "\\\\").replace('"', '\\"')
    return s


def export_dot(graph):
    """Render a KBGraph or an AKG as a DOT digraph."""
    is_akg = isinstance(graph, akgmod.AKG)
    lines = ["digraph %s {" % ("akg" if is_akg else "kb"), '  rankdir="LR";']

    for n in graph.nodes:
        node_id = _esc(n[0])
        label = (n.text or n.content) if is_akg else n.text
        lines.append(_DOT_NODE[n.kind] % (
            node_id, _esc(label), node_id, _esc(n.attributes.render()), node_id, node_id))

    edges = sorted(graph.edges,
                   key=lambda e: (natural_key(e.source), natural_key(e.target), e.kind))
    for e in edges:
        kind = e.kind
        if kind == akgmod.ATTACK:
            row = (_esc(e.source), _esc(e.target), e.attack_type)
        elif kind == akgmod.MODUS_PONENS:
            row = (_esc(e.source), _esc(e.target), e.mp_group)
        else:
            row = (_esc(e.source), _esc(e.target))
        lines.append(_DOT_EDGE[kind] % row)

    lines.append("}\n")
    return "\n".join(lines)


# -- JSON --
#
# The JSON exports are three levels deep: the top object, its lists at two
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
    row = _row(keys)
    return _array([row % v for v in values])


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
    """A JSON array of strings, closing at pad: items is a sequence, or a set
    of one string."""
    if len(items) == 1:
        [item] = items
        return "[\n%s  %s\n%s]" % (pad, _enc(item), pad)
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join([_enc(x) for x in items]), pad)


def _string_lists(lists):
    """A JSON array, at two spaces, of arrays of strings."""
    return _array(["    " + _strings(x, "    ") for x in lists])


def export_json_kb(kbg):
    return _document(("nodes", "edges"), (
        _rows(("id", "kind", "text", "attributes"),
              ((_enc(n.node_id), _enc(n.kind), _enc(n.text),
                _strings(n.attributes.rendered)) for n in kbg.nodes)),
        _rows(("source", "target", "kind"),
              ((_enc(e.source), _enc(e.target), _enc(e.kind)) for e in kbg.edges))))


def _akg_edge(e):
    """An AKG edge row; each optional field appears only when set."""
    keys = ("source", "target", "kind")
    values = (_enc(e.source), _enc(e.target), _enc(e.kind))
    if e.attack_type is not None:
        keys += ("attack_type",)
        values += (_enc(e.attack_type),)
    if e.contrary_undermine:
        keys += ("contrary_undermine",)
        values += ("true",)
    if e.mp_group is not None:
        keys += ("mp_group",)
        values += (int.__repr__(e.mp_group),)
    return _row(keys) % values


def export_json_akg(akg):
    edges = sorted(akg.edges,
                   key=lambda e: (e.kind, natural_key(e.source),
                                  natural_key(e.target),
                                  e.mp_group if e.mp_group is not None else -1))
    return _document(("nodes", "edges", "mp_applications", "pruned_supports"), (
        _rows(("id", "kind", "member", "text", "attributes"),
              ((_enc(n.arg_id), _enc(n.kind),
                "null" if n.content is None else _enc(n.content),
                "null" if n.text is None else _enc(n.text),
                _strings(n.attributes.rendered)) for n in akg.nodes)),
        _array(list(map(_akg_edge, edges))),
        _mp_rows(akg.mp_applications),
        _string_lists(akg.pruned_supports)))


def _mp_rows(apps):
    return _rows(("rule", "antecedents", "result"),
                 ((_enc(app.rule_arg),
                   _strings(sorted(app.antecedent_args, key=natural_key)),
                   _enc(app.result_arg)) for app in apps))


def export_json_args(aset):
    return _document(("arguments", "mp_applications"), (
        _rows(("id", "kind", "content", "premises", "conclusion", "subargs",
               "top_rule"),
              ((_enc(a.arg_id), _enc(a.kind), _enc(a.content),
                _strings(a.premises if len(a.premises) == 1
                         else sorted(a.premises, key=natural_key)), _enc(a.conclusion),
                _strings(a.subargs), "null" if a.top_rule is None else _enc(a.top_rule))
               for a in aset.arguments)),
        _mp_rows(aset.mp_applications)))


_BOOL = {False: "false", True: "true"}


def export_semantics_json(report):
    return _document(("args", "atts", "naive", "preferred", "checked_sets"), (
        _strings(report["args"], "  "),
        _string_lists(report["atts"]),
        _string_lists(report["naive"]),
        _string_lists(report["preferred"]),
        _rows(("set", "conflict_free", "admissible"),
              ((_strings(c["set"]), _BOOL[c["conflict_free"]], _BOOL[c["admissible"]])
               for c in report["checked_sets"]))))


# -- apx --

def export_apx(af):
    """ICCMA-style apx text: arg()/att() facts, lowercase ids, sorted."""
    lines = ["arg(%s).\n" % a.lower() for a in sorted(af.args, key=natural_key)]
    lines += ["att(%s,%s).\n" % (a.lower(), b.lower())
              for a, b in sorted(af.atts, key=lambda p: (natural_key(p[0]),
                                                         natural_key(p[1])))]
    return "".join(lines)
