import contextlib
import hashlib
import io
import json
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from akgraph import exports as X
from akgraph import semantics as sem
from akgraph.akg import AKG, AKGEdge, AKGNode
from akgraph.arguments import Argument, ArgumentSet, MPApplication
from akgraph.cli import (_SUFFIX, FORMATS, PipelineConfig, main, render_format,
                         run_pipeline)
from akgraph.kbgraph import (AttributeBox, KBEdge, KBGraph, KBNode, _render_value,
                             build_kb_graph, natural_key)

from conftest import DATA, canonical_docs, perfbench_inputs

NODE_RE = re.compile(r'^  "[^"]+" \[[^\]]*\];$')
EDGE_RE = re.compile(r'^  "[^"]+" -> "[^"]+"( \[[^\]]*\])?;$')


def assert_dot_well_formed(text):
    lines = text.splitlines()
    assert re.fullmatch(r"digraph \w+ \{", lines[0])
    assert lines[-1] == "}"
    assert lines[1] == '  rankdir="LR";'
    for line in lines[2:-1]:
        assert NODE_RE.match(line) or EDGE_RE.match(line), line


# ---------------------------------------------------------------- DOT

def test_dot_kb_well_formed(essay):
    assert_dot_well_formed(X.export_dot(essay["kb_graph"]))


def test_dot_akg_well_formed(essay, pollock):
    assert_dot_well_formed(X.export_dot(essay["akg"]))
    assert_dot_well_formed(X.export_dot(pollock["akg"]))


def test_dot_attribute_boxes(essay):
    dot = X.export_dot(essay["akg"])
    assert '"A2#attrs"' in dot
    assert '\\"therefore\\"' in dot          # quoted marker inside the box label
    assert '"A2" -> "A2#attrs" [dir=none];' in dot


def test_dot_attack_labels(essay, pollock):
    assert '"A16" -> "A17" [label="Reb"];' in X.export_dot(essay["akg"])
    assert '"A3" -> "A2" [label="UC"];' in X.export_dot(pollock["akg"])


def test_dot_mp_edges(essay):
    dot = X.export_dot(essay["akg"])
    assert '"A2" -> "A3" [style=bold, label="MP0"];' in dot
    assert '"A15" -> "A17" [style=bold, label="MP3"];' in dot


def test_dot_shapes(essay):
    dot = X.export_dot(essay["akg"])
    a2 = next(l for l in dot.splitlines() if l.startswith('  "A2" ['))
    assert "shape=hexagon" in a2
    a18 = next(l for l in dot.splitlines() if l.startswith('  "A18" ['))
    assert "shape=ellipse" in a18
    a1 = next(l for l in dot.splitlines() if l.startswith('  "A1" ['))
    assert "shape=box" in a1 and "style=" not in a1


def test_dot_kb_agreement_edges(essay):
    dot = X.export_dot(essay["kb_graph"])
    assert '"T3" -> "T4" [dir=none, style=dashed, label="Ag"];' in dot


def test_dot_escaping():
    node = AKGNode("A1", "Premise", AttributeBox(("A1",)), text='say "hi" \\ bye')
    dot = X.export_dot(AKG((node,), ()))
    assert 'label="say \\"hi\\" \\\\ bye"' in dot
    assert_dot_well_formed(dot)


DOT_STRING = r'"(?:[^"\\]|\\.)*"'
DOT_LINE = re.compile(r'  (%s)(?: -> (%s))?(?: \[[^"\]]*(?:%s[^"\]]*)*\])?;'
                      % (DOT_STRING, DOT_STRING, DOT_STRING))


def test_dot_ids_escaped(tmp_path):
    """An id holding a quote or a backslash stays one DOT string token."""
    doc = json.loads((DATA / "pollock.json").read_text(encoding="utf-8"))
    text = json.dumps(doc).replace('"T1"', '"T\\"1"').replace('"T3"', '"T\\\\3"')
    (tmp_path / "odd.json").write_text(text, encoding="utf-8")
    art = run_pipeline(PipelineConfig(input_path=str(tmp_path / "odd.json"))).artifacts
    dot = X.export_dot(art["kb_graph"])
    ids = set()
    for line in dot.splitlines()[2:-1]:
        m = DOT_LINE.fullmatch(line)
        assert m, line
        ids.update(g for g in m.groups() if g)
    assert {'"T\\"1"', '"T\\"1#attrs"', '"T\\\\3"', '"T\\\\3#attrs"', '"R1"'} <= ids
    assert '"T\\\\3" -> "R1"' in dot


# Reference DOT renderer, one statement at a time: every string escaped, each
# box label rendered from the box's values.
_REF_SHAPE = {"Premise": "box", "InferenceRulePremise": "hexagon", "Conclusion": "ellipse"}
_REF_TAIL = {"Agreement": ' [dir=none, style=dashed, label="Ag"]',
             "Contrary": ' [style=dashed, arrowhead=diamond, label="Con"]',
             "Support": "", "Attack": ' [label="%s"]',
             "ModusPonens": ' [style=bold, label="MP%d"]'}


def _ref_esc(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _ref_dot(graph):
    is_akg = isinstance(graph, AKG)
    lines = ["digraph %s {" % ("akg" if is_akg else "kb"), '  rankdir="LR";']
    for n in sorted(graph.nodes,
                    key=lambda n: natural_key(n.arg_id if is_akg else n.node_id)):
        node_id = _ref_esc(n.arg_id if is_akg else n.node_id)
        label = (n.text or n.content) if is_akg else n.text
        box = "{%s}" % ", ".join(_render_value(v) for v in n.attributes.values)
        lines.append('  "%s" [label="%s", shape=%s];' % (node_id, _ref_esc(label),
                                                         _REF_SHAPE[n.kind]))
        lines.append('  "%s#attrs" [label="%s", shape=note, fontsize=10];'
                     % (node_id, _ref_esc(box)))
        lines.append('  "%s" -> "%s#attrs" [dir=none];' % (node_id, node_id))
    for e in sorted(graph.edges,
                    key=lambda e: (natural_key(e.source), natural_key(e.target), e.kind)):
        tail = _REF_TAIL[e.kind]
        if e.kind == "Attack":
            tail %= e.attack_type
        elif e.kind == "ModusPonens":
            tail %= e.mp_group
        lines.append('  "%s" -> "%s"%s;' % (_ref_esc(e.source), _ref_esc(e.target), tail))
    lines.append("}\n")
    return "\n".join(lines)


# strings made of the characters DOT escapes and the ones rule texts and
# boxes hold besides plain text
_DOT_TEXT = st.lists(st.sampled_from(['"', "\\", "\n", "⇒", "φ", " ", "a", "T1"]),
                     max_size=6).map("".join)
_DOT_ID = st.sampled_from(["A1", "A2", "A10", "T3", "R1"]) | _DOT_TEXT
_MARKER = st.none() | _DOT_TEXT.map('"{}"'.format)
_LSET = st.none() | st.frozensets(_DOT_ID, max_size=3)


# lists of graph nodes or arguments, which hold their id first, in natural id
# order: the builders emit that order and the exporters keep it
def _natural(records, max_size):
    return st.lists(records, max_size=max_size).map(
        lambda rs: sorted(rs, key=lambda r: natural_key(r[0])))


_DOT_BOX = st.builds(AttributeBox, st.one_of(
    st.tuples(_MARKER, st.sampled_from("npa")),
    st.tuples(_DOT_ID, st.sampled_from("SD"), _MARKER, _LSET, _LSET),
    st.tuples(_DOT_ID, _MARKER, st.sampled_from(["Claim", "MajorClaim"]))))
_KB_GRAPH = st.builds(
    lambda nodes, edges: KBGraph(tuple(nodes), tuple(edges), None),
    _natural(st.builds(KBNode, _DOT_ID, st.sampled_from(["Premise", "InferenceRulePremise"]),
                       _DOT_TEXT, _DOT_BOX), 5),
    st.lists(st.builds(KBEdge, _DOT_ID, _DOT_ID, st.sampled_from(["Agreement", "Contrary"])),
             max_size=5))
_AKG_DOT_EDGE = st.one_of(
    st.builds(AKGEdge, _DOT_ID, _DOT_ID, st.just("Support")),
    st.builds(AKGEdge, _DOT_ID, _DOT_ID, st.just("Attack"),
              attack_type=st.sampled_from(["Reb", "UM", "UC"]),
              contrary_undermine=st.booleans()),
    st.builds(AKGEdge, _DOT_ID, _DOT_ID, st.just("ModusPonens"),
              mp_group=st.integers(0, 20)))
_AKG = st.builds(
    lambda nodes, edges: AKG(tuple(nodes), tuple(edges)),
    _natural(st.builds(AKGNode, _DOT_ID, st.sampled_from(list(_REF_SHAPE)), _DOT_BOX,
                       content=_DOT_TEXT, text=st.none() | _DOT_TEXT), 5),
    st.lists(_AKG_DOT_EDGE, max_size=6))


@settings(max_examples=150, deadline=None)
@given(_KB_GRAPH | _AKG)
def test_dot_matches_line_by_line_reference(graph):
    assert X.export_dot(graph) == _ref_dot(graph)


# ---------------------------------------------------------------- JSON

def test_json_kb_roundtrip(essay):
    data = json.loads(X.export_json_kb(essay["kb_graph"]))
    assert len(data["nodes"]) == 15
    kinds = {n["kind"] for n in data["nodes"]}
    assert kinds == {"Premise", "InferenceRulePremise"}
    assert all(n["attributes"] for n in data["nodes"])
    assert len(data["edges"]) == 7
    assert all(e["kind"] == "Agreement" for e in data["edges"])


def test_json_akg_roundtrip(essay):
    data = json.loads(X.export_json_akg(essay["akg"]))
    assert [n["id"] for n in data["nodes"]] == ["A%d" % i for i in range(1, 19)]
    by_id = {n["id"]: n for n in data["nodes"]}
    assert by_id["A2"]["member"] == "R1"
    assert "⇒" in by_id["A2"]["text"]
    assert by_id["A18"]["attributes"] == ["A18", "N", "MajorClaim"]
    for e in data["edges"]:
        assert ("attack_type" in e) == (e["kind"] == "Attack")
        assert ("mp_group" in e) == (e["kind"] == "ModusPonens")
    assert len(data["mp_applications"]) == 4
    assert data["pruned_supports"] == [["A1", "A3"], ["A4", "A6"],
                                       ["A9", "A11"], ["A14", "A17"]]


def test_json_args_roundtrip(essay):
    data = json.loads(X.export_json_args(essay["aset"]))
    args = data["arguments"]
    assert len(args) == 18
    a3 = next(a for a in args if a["id"] == "A3")
    assert a3["top_rule"] == "R1"
    assert a3["subargs"] == ["A1", "A2", "A3"]
    a1 = next(a for a in args if a["id"] == "A1")
    assert a1["top_rule"] is None
    assert a1["premises"] == [a1["content"]]


def test_semantics_json_matches_report(essay):
    rep = essay["semantics"]
    assert json.loads(X.export_semantics_json(rep)) == rep


# Strings json escapes, or passes through only because ensure_ascii is off:
# quotes, backslashes, control characters, line separators, non-BMP
# characters and lone surrogates.
_SPECIAL = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028",
                            "φ", "⇒", "\U0001F600", "\ud800", "\udfff"])
_TEXT = st.lists(st.one_of(st.characters(exclude_categories=()),
                           st.characters(categories=["Cs"]),
                           st.characters(min_codepoint=0x10000),
                           _SPECIAL), max_size=8).map("".join)


@st.composite
def _reports(draw):
    """A semantics report of a framework of 0-12 arguments, some of them
    free or attacking themselves, and of 0-2 checked sets."""
    args = draw(st.lists(st.integers(1, 30).map("a%d".__mod__) | _TEXT,
                         max_size=12, unique=True))
    if not args:
        return sem.semantics_report(sem.AFProjection((), ()),
                                    check_sets=draw(st.lists(st.just([]), max_size=2)))
    member = st.sampled_from(args)
    atts = draw(st.lists(st.tuples(member, member), max_size=20, unique=True))
    sets = draw(st.lists(st.lists(member, unique=True), max_size=2))
    return sem.semantics_report(sem.AFProjection(tuple(args), tuple(atts)),
                                check_sets=sets)


@settings(max_examples=100, deadline=None)
@given(_reports())
@example(sem.semantics_report(sem.AFProjection(("a1",), (("a1", "a1"),)),
                              check_sets=[[], ["a1"]]))
def test_semantics_json_matches_json_dumps(report):
    assert X.export_semantics_json(report) == \
        json.dumps(report, indent=2, ensure_ascii=False) + "\n"


# Reference objects for the fixed-shape JSON exports: each export must be
# json.dumps(indent=2, ensure_ascii=False) of its object, byte for byte.

def _box(box):
    return [_render_value(v) for v in box.values]


def _mp_dicts(apps):
    return [{"rule": app.rule_arg,
             "antecedents": sorted(app.antecedent_args, key=natural_key),
             "result": app.result_arg} for app in apps]


def _kb_dict(kbg):
    nodes = sorted(kbg.nodes, key=lambda n: natural_key(n.node_id))
    edges = sorted(kbg.edges,
                   key=lambda e: (e.kind, natural_key(e.source), natural_key(e.target)))
    return {
        "nodes": [{"id": n.node_id, "kind": n.kind,
                   "text": kbg.ekb.member_text(n.node_id),
                   "attributes": _box(n.attributes)} for n in nodes],
        "edges": [{"source": e.source, "target": e.target, "kind": e.kind}
                  for e in edges],
    }


def _akg_dict(akg):
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
    return {
        "nodes": [{"id": n.arg_id, "kind": n.kind, "member": n.content,
                   "text": n.text, "attributes": _box(n.attributes)}
                  for n in nodes],
        "edges": out_edges,
        "mp_applications": _mp_dicts(akg.mp_applications),
        "pruned_supports": [[s, t] for s, t in akg.pruned_supports],
    }


def _args_dict(aset):
    args = sorted(aset.arguments, key=lambda a: natural_key(a.arg_id))
    return {
        "arguments": [{
            "id": a.arg_id,
            "kind": a.kind,
            "content": a.content,
            "premises": sorted(a.premises, key=natural_key),
            "conclusion": a.conclusion,
            "subargs": list(a.subargs),
            "top_rule": a.top_rule,
        } for a in args],
        "mp_applications": _mp_dicts(aset.mp_applications),
    }


def _replicated_essay(tmp_path, copies):
    """essay056 repeated as one document, by the benchmark's input builder."""
    inputs = perfbench_inputs()
    paths = {}
    for ext, body in zip(("txt", "ann", "prefs"),
                         inputs.replicate(*inputs.read_essay(), copies)):
        paths[ext] = tmp_path / ("essay056x%d.%s" % (copies, ext))
        paths[ext].write_text(body, encoding="utf-8")
    return run_pipeline(PipelineConfig(
        input_path=str(paths["txt"]), ann_path=str(paths["ann"]),
        prefs_path=str(paths["prefs"]), cap=18 * copies)).artifacts


def test_fixed_shape_exports_match_json_dumps(tmp_path, essay, pollock):
    def dumped(obj):
        return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"

    for art in (_replicated_essay(tmp_path, 4), essay, pollock):
        assert X.export_json_kb(art["kb_graph"]) == dumped(_kb_dict(art["kb_graph"]))
        assert X.export_json_akg(art["akg"]) == dumped(_akg_dict(art["akg"]))
        assert X.export_json_args(art["aset"]) == dumped(_args_dict(art["aset"]))
        assert X.export_semantics_json(art["semantics"]) == dumped(art["semantics"])


def test_json_akg_optional_fields_and_empty_lists():
    box = AttributeBox(())
    akg = AKG((AKGNode("A1", "Premise", box), AKGNode("A2", "Premise", box)),
              (AKGEdge("A1", "A2", "Attack", attack_type="UM", contrary_undermine=True),
               AKGEdge("A2", "A1", "ModusPonens", mp_group=0)),
              (MPApplication("A3", ("A10", "A2"), "A11"), MPApplication("A4", (), "A5")))
    assert X.export_json_akg(akg) == \
        json.dumps(_akg_dict(akg), indent=2, ensure_ascii=False) + "\n"


# AKG rows of every shape: each combination of the optional edge fields, and
# node members and texts that are missing or need escaping
_ID = st.sampled_from(["A1", "A2", "A10", 'A"3', "A\\φ"])
_AKG_NODE = st.builds(
    AKGNode, _ID, st.sampled_from(["Premise", "Conclusion"]),
    st.builds(AttributeBox, st.tuples(st.none() | _TEXT, st.frozensets(_ID, max_size=2))),
    content=st.none() | _TEXT, text=st.none() | _TEXT)
_AKG_EDGE = st.builds(
    AKGEdge, _ID, _ID, st.sampled_from(["Support", "Attack", "ModusPonens"]),
    attack_type=st.none() | st.sampled_from(["Reb", "UM", "UC"]),
    mp_group=st.none() | st.integers(0, 20), contrary_undermine=st.booleans())


@settings(max_examples=200, deadline=None)
@given(_natural(_AKG_NODE, 4), st.lists(_AKG_EDGE, max_size=8),
       st.lists(st.tuples(_ID, _ID), max_size=3))
def test_json_akg_rows_match_json_dumps(nodes, edges, pruned):
    akg = AKG(tuple(nodes), tuple(edges), (), tuple(pruned))
    assert X.export_json_akg(akg) == \
        json.dumps(_akg_dict(akg), indent=2, ensure_ascii=False) + "\n"


# args.json rows of every shape: one to three premises, one to four
# subarguments, atomic and derived
_ARGUMENT = st.builds(
    Argument, _ID, st.sampled_from(["P", "IRP", "C"]), _TEXT,
    st.frozensets(_ID | _TEXT, min_size=1, max_size=3), _TEXT,
    st.lists(_ID, min_size=1, max_size=4).map(tuple), st.none() | _ID)
_APP = st.builds(MPApplication, _ID, st.lists(_ID, max_size=3).map(tuple), _ID)


@settings(max_examples=100, deadline=None)
@given(_natural(_ARGUMENT, 4), st.lists(_APP, max_size=2))
def test_json_args_rows_match_json_dumps(arguments, apps):
    aset = ArgumentSet(tuple(arguments), tuple(apps))
    assert X.export_json_args(aset) == \
        json.dumps(_args_dict(aset), indent=2, ensure_ascii=False) + "\n"


@settings(max_examples=100, deadline=None)
@given(canonical_docs())
def test_builders_emit_natural_order(tmp_path_factory, content):
    # the exports write nodes, arguments and KB edges in the order the
    # builders give them, with and without implicit markers
    path = tmp_path_factory.getbasetemp() / "order-fuzz.json"
    path.write_text(content, encoding="utf-8")
    for implicit in (False, True):
        art = run_pipeline(PipelineConfig(input_path=str(path),
                                          implicit_ims=implicit)).artifacts
        kbg = art["kb_graph"]
        for ids in ([n.node_id for n in kbg.nodes],
                    [a.arg_id for a in art["aset"].arguments],
                    [n.arg_id for n in art["akg"].nodes]):
            assert ids == sorted(ids, key=natural_key)
        edges = [(e.kind, natural_key(e.source), natural_key(e.target))
                 for e in kbg.edges]
        assert edges == sorted(edges)


# ---------------------------------------------------------------- apx

def test_apx_essay(essay):
    apx = X.export_apx(essay["af"])
    lines = apx.splitlines()
    assert lines[:3] == ["arg(a1).", "arg(a2).", "arg(a3)."]
    assert lines[-2:] == ["att(a16,a17).", "att(a17,a18)."]
    assert apx.endswith(".\n")
    assert len([l for l in lines if l.startswith("arg(")]) == 18
    assert len([l for l in lines if l.startswith("att(")]) == 2


def test_apx_empty():
    assert X.export_apx(sem.AFProjection((), ())) == ""


def test_apx_agrees_with_semantics(essay):
    apx = X.export_apx(essay["af"])
    rep = essay["semantics"]
    assert len(re.findall(r"^arg\(", apx, re.M)) == len(rep["args"])
    assert len(re.findall(r"^att\(", apx, re.M)) == len(rep["atts"])


def test_apx_natural_order():
    af = sem.AFProjection(("a2", "a10", "a1"), ())
    assert X.export_apx(af) == "arg(a1).\narg(a2).\narg(a10).\n"


# ---------------------------------------------------------------- stability

def fresh_essay_report():
    return run_pipeline(PipelineConfig(
        input_path=DATA / "essay056.txt",
        ann_path=DATA / "essay056.ann",
        prefs_path=DATA / "essay056.prefs"))


def test_exports_byte_identical_across_runs(essay_report):
    again = fresh_essay_report()
    for fmt in FORMATS:
        assert render_format(fmt, essay_report.artifacts) == \
            render_format(fmt, again.artifacts), fmt


def test_ann_line_order_changes_nothing(tmp_path, monkeypatch, capsys):
    # same seven files, same stdout and stderr, whatever the order of the
    # .ann lines and with a brat note line added; each run writes to ./out,
    # so the printed paths agree too
    ann = (DATA / "essay056.ann").read_text(encoding="utf-8")
    anns = {"plain": DATA / "essay056.ann", "notes": tmp_path / "essay056-notes.ann"}
    anns["notes"].write_text(ann + "#1\tAnnotatorNotes T1\tthesis restated\n",
                             encoding="utf-8")
    for seed in (1, 2, 3):
        anns["seed%d" % seed] = tmp_path / ("essay056-%d.ann" % seed)
        anns["seed%d" % seed].write_text(perfbench_inputs().shuffle_ann(ann, seed),
                                         encoding="utf-8")
    runs = {}
    for name, ann_path in anns.items():
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(["run", "--input", str(DATA / "essay056.txt"), "--ann", str(ann_path),
                     "--prefs", str(DATA / "essay056.prefs"), "--out", "out"]) == 0
        files = {p.name: p.read_bytes() for p in (tmp_path / name / "out").iterdir()}
        runs[name] = (files, capsys.readouterr())
    assert len(runs["plain"][0]) == 7
    for name, run in runs.items():
        assert run == runs["plain"], name


def _cli_run(out, doc_json, flags):
    """The exit status, the seven files and the stdout of `akgraph run` on a
    canonical JSON document, its output paths relative to out."""
    out.mkdir()
    (out / "fuzz.json").write_text(doc_json, encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = main(["run", "--input", str(out / "fuzz.json"), "--out", str(out / "out"),
                       *flags])
    files = {p.name: p.read_bytes() for p in (out / "out").iterdir()}
    return status, files, stdout.getvalue().replace(str(out), "")


@settings(max_examples=100, deadline=None)
@given(canonical_docs(), st.randoms(use_true_random=False),
       st.sampled_from([(), ("--implicit-ims",)]))
def test_annotation_list_order_changes_nothing(tmp_path_factory, content, rng, flags):
    # the order of the components, rule spans, relations and stances in the
    # input changes none of the seven files and nothing on stdout
    doc = json.loads(content)
    for key in ("components", "rule_spans", "relations", "stances"):
        rng.shuffle(doc[key])
    d = tmp_path_factory.mktemp("order")
    base = _cli_run(d / "base", content, flags)
    assert base[0] == 0 and len(base[1]) == 7
    assert _cli_run(d / "shuffled", json.dumps(doc), flags) == base


# words with no inference marker in them; the İ, ß and ﬁ each change length
# when casefolded, so an offset taken from casefolded text shows
_PREFIX_WORDS = ("Lorem", "ipsum", "dolor", "Die", "Straße", "ist", "naß", "İİİ", "ß", "ﬁ")
_SPAN = re.compile(r"\((\d+), (\d+)\)")
_ANN_SPAN = re.compile(r"^(T\d+\t\S+) (\d+) (\d+)\t", re.M)


def _run_files(tmp_path_factory, name, text, ann, implicit):
    """The seven renders and the warnings of a run on the document."""
    d = tmp_path_factory.mktemp("doc")
    if ann is None:
        (d / "doc.json").write_text(text, encoding="utf-8")
        config = PipelineConfig(input_path=str(d / "doc.json"), implicit_ims=implicit)
    else:
        for ext, body in (("txt", text), ("ann", ann)):
            (d / ("%s.%s" % (name, ext))).write_text(body, encoding="utf-8")
        prefs = DATA / "essay056.prefs" if name == "essay056" else None
        config = PipelineConfig(input_path=str(d / (name + ".txt")),
                                ann_path=str(d / (name + ".ann")),
                                prefs_path=prefs and str(prefs), implicit_ims=implicit)
    report = run_pipeline(config)
    return {fmt: render_format(fmt, report.artifacts) for fmt in FORMATS}, report.warnings


def _prepend(name, content, prefix):
    """(text, ann) of a fixture (name) or canonical JSON document (content)
    with prefix before its text and every annotation offset moved by its
    length; ann is None for canonical JSON."""
    n = len(prefix)
    if name is None:
        doc = json.loads(content)
        for entry in doc["components"] + doc["rule_spans"]:
            entry["start"] += n
            entry["end"] += n
        return json.dumps(dict(doc, text=prefix + doc["text"])), None
    text, ann = ((DATA / ("%s.%s" % (name, ext))).read_text(encoding="utf-8")
                 for ext in ("txt", "ann"))
    return prefix + text, _ANN_SPAN.sub(
        lambda m: "%s %d %d\t" % (m[1], int(m[2]) + n, int(m[3]) + n), ann)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from([("essay056", None), ("pollock", None)]),
                 canonical_docs().map(lambda doc: (None, doc))),
       st.lists(st.sampled_from(_PREFIX_WORDS), min_size=1, max_size=6), st.booleans())
@example(("essay056", None), ["Lorem", "ipsum", "dolor"], False)
@example(("essay056", None), ["Die", "Straße", "ist", "naß"], False)
@example(("essay056", None), ["İİİ", "ß", "ﬁ"], True)
@example(("pollock", None), ["İİİ", "ß", "ﬁ"], False)
def test_prepended_paragraph_moves_only_offsets(tmp_path_factory, document, words,
                                                implicit):
    # the same seven files, and each warning's spans move by the prefix length
    name, content = document
    prefix = " ".join(words) + ".\n\n"
    base = _run_files(tmp_path_factory, name, *_prepend(name, content, ""), implicit)
    files, warnings = _run_files(tmp_path_factory, name, *_prepend(name, content, prefix),
                                 implicit)
    assert files == base[0]
    n = len(prefix)
    assert warnings == tuple(
        _SPAN.sub(lambda m: "(%d, %d)" % (int(m[1]) + n, int(m[2]) + n), w)
        for w in base[1])


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 16))
def test_replicated_essay_grows_linearly(tmp_path_factory, essay_report, copies, seed):
    # every copy adds the per-copy counts; the attacks stay in copy 1, so
    # the extension families are the single essay's plus the new arguments
    inputs = perfbench_inputs()
    text, ann, prefs = inputs.replicate(*inputs.read_essay(), copies)
    d = tmp_path_factory.mktemp("replicated")
    ann = inputs.shuffle_ann(ann, seed)
    for ext, body in (("txt", text), ("ann", ann), ("prefs", prefs)):
        (d / ("essay056." + ext)).write_text(body, encoding="utf-8")
    report = run_pipeline(PipelineConfig(
        input_path=str(d / "essay056.txt"), ann_path=str(d / "essay056.ann"),
        prefs_path=str(d / "essay056.prefs"), cap=18 * copies))
    one, doc, more = essay_report.counts, essay_report.artifacts["doc"], copies - 1
    assert report.counts == dict(
        one,
        components=inputs.COMPONENTS_PER_COPY * copies,
        rules=inputs.RULES_PER_COPY * copies,
        arguments=inputs.ARGS_PER_COPY * copies + 1,
        relations=one["relations"]
        + more * sum(r.kind == "Supports" for r in doc.relations),
        stances=one["stances"] + more * sum(s.stance == "For" for s in doc.stances),
        **{"inference markers": one["inference markers"] * copies,
           "formulas": one["formulas"] * copies,
           "mp groups": inputs.RULES_PER_COPY * copies})
    # the merged major claim is the single essay's last argument and the new one's
    per_copy = inputs.ARGS_PER_COPY
    claim = {"A%d" % (per_copy + 1): "A%d" % (per_copy * copies + 1)}
    added = {"A%d" % i for i in range(per_copy + 1, per_copy * copies + 1)}
    single = essay_report.artifacts["semantics"]
    for family in ("naive", "preferred"):
        want = {frozenset(claim.get(a, a) for a in ext) | added for ext in single[family]}
        assert {frozenset(ext) for ext in report.artifacts["semantics"][family]} == want
        assert len(report.artifacts["semantics"][family]) == len(want)


# sha256 of every format's bytes for fixed runs: any change to the
# bytes of an export fails here.
GOLDEN = {
    "essay056": {
        "dot-kb": "f932e54c6f4540522e17dff8e42d7fd7d93f1885cbfd1104eff8e96a1ba2f0e2",
        "dot-akg": "531e80b5ea8402846ded578d5aebdf1e71b04109ceb18ebafe89bae86e52229b",
        "json-kb": "78b125e4638d0d7a04e46d0c1e31c3719cab38161965f92785927c87bba6f393",
        "json-akg": "0d128c1cd137c958f7640416a136bff9a1e0cc39eec76d0f4ba2e0e945944c32",
        "json-args": "f7eb21d09249a340923b8188376e721da9586c85df5ed8319dc1324c76264694",
        "apx": "27692125ed0aceb900d0f35b034d2c66471bf796174cbc88571f07d8c37b5cf1",
        "semantics": "258cde3eb91593124e1e20b4a5e94329a8ec27042e13e9e9c787a97f8516bb2b",
    },
    "pollock-ann": {
        "dot-kb": "9e5e635e1ff9ff536a406a02d95e195f01056b32b1e6e81073b361b4d30c2af7",
        "dot-akg": "0cfcabadd7f07fcad5ca91be8afdd935ebc8acfb0c80e8fd0588dfbb5db246c2",
        "json-kb": "ce1b538833843ec7559ecc55b3803820d340656314515e4a9dc228d23fa987df",
        "json-akg": "f2661c11daaa44a152e84ef9c87722ad755f01cc5c994c0656c9788d50464278",
        "json-args": "3ea0140953b1699feca615f1b647e222192ef132d5c377603982cbac9bdb1bbe",
        "apx": "bc5a886f4aa2b022d3bd3e32ac583d91b6793d77e6dbd849d6f116742f202be2",
        "semantics": "ff57d08eddf37a629e736984806cf8e99196bd3b34a737bca7b2cab5a1e93fc4",
    },
}
GOLDEN["essay056-implicit"] = {
    "dot-kb": "75a751e02a6acc17ef6f8fdc25038e35e9f7e323d29e4b31c47c9bf9aa243bc1",
    "dot-akg": "1d321a52dbbd721d9b81db4fb8461261524d983b29d6f294f20897d4bb23db7e",
    "json-kb": "efa87d0c32dcdf5439e2e36db222079baa2364f54967b4ab992091a013ebfa2f",
    "json-akg": "6cfb254a772ed8c8623bc3ad95a58fd7887b532e325e1dbe58ff5e724eadbdbb",
    "json-args": "ac8f9ae7e19a29bcc5b5f803858dd4b6a4776d9212735323f15aa78584401940",
    "apx": "2946e655fd20e9cb4fe4681258cfa7e9186c5d82b623be99b6a7ba8e52b0a26d",
    "semantics": "9170491665986116f35a3243e88e1ce63539c59e88136ac3f738e67eb2898c72",
}
# without prefs only the attribute boxes' L-sets differ
GOLDEN["essay056-implicit-noprefs"] = dict(
    GOLDEN["essay056-implicit"],
    **{"dot-kb": "07f5c6c060a14b7205fe6b4487c55a01a49a9dbdfdac4372138aea0c23d7b771",
       "dot-akg": "d5666a759bf9188abf5f23c0fdbba1c0e92cadbf00806b9077efb7fdd949bfd7",
       "json-kb": "77a0faaacc640b4f25d954e61b1f0c0734d775f903a298cd54bdb6aa705a7091",
       "json-akg": "f6a546b984703e91e4c8eb08dadfdfcb048a062a65f0442d625828e44463eb32"})
GOLDEN["pollock-json"] = dict(
    GOLDEN["pollock-ann"],
    semantics="674b9d302b27210dbf8406c1214f82c7e8a952ca7511f50c3cd424390d5054b6")

GOLDEN_ARGS = {
    "essay056": ["--input", str(DATA / "essay056.txt"), "--ann", str(DATA / "essay056.ann"),
                 "--prefs", str(DATA / "essay056.prefs")],
    "pollock-ann": ["--input", str(DATA / "pollock.txt"), "--ann", str(DATA / "pollock.ann")],
    "pollock-json": ["--input", str(DATA / "pollock.json"), "--check-set", "A1,A2"],
}
GOLDEN_ARGS["essay056-implicit"] = GOLDEN_ARGS["essay056"] + ["--implicit-ims"]
GOLDEN_ARGS["essay056-implicit-noprefs"] = GOLDEN_ARGS["essay056"][:4] + ["--implicit-ims"]


def test_golden_digests(tmp_path, capsys):
    for name, args in GOLDEN_ARGS.items():
        out = tmp_path / name
        assert main(["run", "--out", str(out)] + args) == 0
        doc_id = name.split("-")[0]
        got = {fmt: hashlib.sha256((out / ("%s.%s" % (doc_id, suffix))).read_bytes())
               .hexdigest() for fmt, suffix in _SUFFIX.items()}
        assert got == GOLDEN[name], name


def test_kb_graph_dot_unaffected_by_ekb_identity(essay):
    rebuilt = build_kb_graph(essay["ekb"])
    assert X.export_dot(rebuilt) == X.export_dot(essay["kb_graph"])
