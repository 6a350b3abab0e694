import json
import re

import pytest

from akgraph import exports as X
from akgraph import semantics as sem
from akgraph.akg import AKG, AKGEdge, AKGNode
from akgraph.cli import FORMATS, PipelineConfig, render_format, run_pipeline
from akgraph.kbgraph import AttributeBox, build_kb_graph

from conftest import DATA

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


def test_kb_graph_dot_unaffected_by_ekb_identity(essay):
    rebuilt = build_kb_graph(essay["ekb"])
    assert X.export_dot(rebuilt) == X.export_dot(essay["kb_graph"])
