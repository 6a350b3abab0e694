import ast
import gc
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings

import akgraph
from akgraph import cli, ekb, ingest, markers
from akgraph import semantics as sem
from akgraph.trace import Trace

from conftest import DATA, canonical_docs

ESSAY = [
    "--input", str(DATA / "essay056.txt"),
    "--ann", str(DATA / "essay056.ann"),
    "--prefs", str(DATA / "essay056.prefs"),
]
ESSAY_DOC = ESSAY[:4]      # the document alone, as ingest takes it
POLLOCK_JSON = ["--input", str(DATA / "pollock.json")]


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------- ingest

def test_ingest_stdout(capsys):
    assert run(["ingest"] + POLLOCK_JSON) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["components"]) == 3
    assert data["rule_spans"][0]["id"] == "T4"


def test_ingest_writes_file(tmp_path, capsys):
    assert run(["ingest", "--out", str(tmp_path)] + ESSAY_DOC) == 0
    out = capsys.readouterr().out
    target = tmp_path / "essay056.json"
    assert target.exists()
    assert ("wrote %s" % target) in out
    assert len(json.loads(target.read_text())["components"]) == 15


def test_ingest_violations_exit_1(tmp_path, capsys):
    txt = tmp_path / "bad.txt"
    ann = tmp_path / "bad.ann"
    txt.write_text("Cats purr.\n")
    ann.write_text("T1\tPremise 0 9\tCats purr\n"
                   "A1\tStance T1 For\n")           # stance must cite a Claim
    assert run(["ingest", "--input", str(txt), "--ann", str(ann)]) == 1
    out, err = capsys.readouterr()
    # the parser refuses it in one typed line; no JSON is printed
    assert out == ""
    assert err.splitlines() == [
        "akgraph.ingest.MalformedLine: A1 sets a stance on T1, which is not a Claim"]


@pytest.mark.parametrize("values", [("For", "Against"), ("Against", "For")])
def test_repeated_stance_id_refused_in_either_line_order(tmp_path, capsys, values):
    # two stances named A1: no line order may decide the attack graph
    txt, ann = tmp_path / "cats.txt", tmp_path / "cats.ann"
    txt.write_text("Cats are best. Cats purr. Dogs bark.\n")
    ann.write_text("T1\tMajorClaim 0 14\tCats are best.\nT2\tClaim 15 24\tCats purr\n"
                   + "".join("A1\tStance T2 %s\n" % v for v in values))
    out_dir = tmp_path / "out"
    assert run(["run", "--input", str(txt), "--ann", str(ann), "--out", str(out_dir)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "akgraph.ingest.MalformedLine: duplicate id 'A1'\n")
    assert not out_dir.exists()


CATS = {"id": "T1", "kind": "Premise", "start": 0, "end": 4}
PURR = {"id": "T1", "kind": "Premise", "start": 5, "end": 9}


@pytest.mark.parametrize("fields, path", [
    ({"components": [dict(CATS, start=True)]}, "$.components[0].start"),
    ({"components": [5]}, "$.components[0]"),
    ({"components": 5}, "$.components"),
    ({"rule_spans": ["T2"]}, "$.rule_spans[0]"),
    ({"rule_spans": {"id": "T2"}}, "$.rule_spans"),
    ({"relations": [None]}, "$.relations[0]"),
    ({"relations": "R1"}, "$.relations"),
    ({"stances": [[]]}, "$.stances[0]"),
    ({"stances": None}, "$.stances"),
    ({"components": [CATS, PURR]}, "$.components[1].id"),
    ({"components": [CATS], "rule_spans": [{"id": "T1", "start": 5, "end": 9}]},
     "$.rule_spans[0].id"),
], ids=["bool-offset", "component-not-object", "components-not-list",
        "rule-span-not-object", "rule-spans-not-list", "relation-not-object",
        "relations-not-list", "stance-not-object", "stances-not-list",
        "duplicate-component-id", "rule-span-reuses-component-id"])
def test_malformed_json_exit_1(tmp_path, capsys, fields, path):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({"doc_id": "bad", "text": "Cats purr.", **fields}))
    assert run(["ingest", "--input", str(doc)]) == 1
    err = capsys.readouterr().err
    assert "SchemaViolation: %s:" % path in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["ingest", "build"])
@pytest.mark.parametrize("doc_id", ["../escaped", "sub/dir", "..", ".", "", "a\\b", "nul\0"],
                         ids=["parent-path", "sub-path", "dot-dot", "dot", "empty",
                              "backslash", "nul"])
def test_doc_id_that_is_no_file_name_refused(tmp_path, capsys, verb, doc_id):
    # the doc id names the files written, so it must not reach outside --out
    doc = tmp_path / "evil.json"
    data = json.loads((DATA / "pollock.json").read_text(encoding="utf-8"))
    doc.write_text(json.dumps(dict(data, doc_id=doc_id)))
    assert run([verb, "--input", str(doc), "--out", str(tmp_path / "out" / "x")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "akgraph.ingest.SchemaViolation: $.doc_id: %r is not a plain file name\n" % doc_id
    assert [p.name for p in tmp_path.iterdir()] == ["evil.json"]


@pytest.mark.parametrize("name, doc_id", [
    ("essay.", "essay."), (".hidden", ".hidden"), ("essay.v2.txt", "essay.v2"), (".json", ".json"),
])
def test_text_input_doc_id_is_its_stem(tmp_path, capsys, name, doc_id):
    # the name up to its last dot, unless that dot starts or ends the name;
    # so `.json` is a text input too
    txt = tmp_path / name
    txt.write_text((DATA / "pollock.txt").read_text(encoding="utf-8"), encoding="utf-8")
    assert run(["ingest", "--input", str(txt), "--ann", str(DATA / "pollock.ann")]) == 0
    assert json.loads(capsys.readouterr().out)["doc_id"] == doc_id


def test_missing_ann_exit_1(capsys):
    assert run(["ingest", "--input", str(DATA / "essay056.txt")]) == 1
    assert "PipelineError" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "ingest"])
def test_ann_with_json_input_is_refused(tmp_path, capsys, verb):
    # the JSON document holds its annotations, so --ann would be ignored
    argv = POLLOCK_JSON + ["--ann", str(DATA / "pollock.ann"), "--out", str(tmp_path)]
    assert run([verb] + argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["akgraph.cli.PipelineError: --ann applies to a text "
                                "input, not to the JSON document %s" % POLLOCK_JSON[1]]
    assert list(tmp_path.iterdir()) == []


def test_missing_input_exit_1(capsys):
    assert run(["ingest", "--input", "/nonexistent/file.txt"]) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize("option", ["--input", "--ann", "--prefs"])
def test_input_not_utf8_names_its_file(tmp_path, capsys, option):
    # the offset counts a leading BOM, which --prefs (read as utf-8-sig) skips
    bad = tmp_path / ("bad" + Path(ESSAY[ESSAY.index(option) + 1]).suffix)
    bad.write_bytes(b"\xef\xbb\xbfT1\tCat\xe9\n")
    argv = list(ESSAY)
    argv[argv.index(option) + 1] = str(bad)
    assert run(["run", "--out", str(tmp_path / "out")] + argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "akgraph.cli.PipelineError: %s: not UTF-8 text (byte 0xe9 at offset 9)" % bad]


@pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_line_ends_read_as_text_mode_reads_them(tmp_path, capsys, end):
    # every input's line ends are translated as text mode translates them
    argv = list(ESSAY)
    for i in range(1, len(argv), 2):
        other = tmp_path / Path(argv[i]).name
        other.write_bytes(Path(argv[i]).read_bytes().replace(b"\n", end))
        argv[i] = str(other)
    assert run(["run", "--out", str(tmp_path / "lf")] + ESSAY) == 0
    assert run(["run", "--out", str(tmp_path / "other")] + argv) == 0
    for lf in (tmp_path / "lf").iterdir():
        assert (tmp_path / "other" / lf.name).read_bytes() == lf.read_bytes()


@pytest.mark.parametrize("option", [
    ["--prefs", "/nonexistent"], ["--check-set", "A9"], ["--format", "apx"],
    ["--lexicon", "lex.tsv"], ["--kinds", "kinds.tsv"], ["--cap", "3"], ["--implicit-ims"],
], ids=lambda option: option[0])
def test_ingest_refuses_pipeline_options(capsys, option):
    # ingest only parses the document; an option it would ignore is a usage error
    with pytest.raises(SystemExit) as exc:
        run(["ingest"] + ESSAY_DOC + option)
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % option[0] in capsys.readouterr().err


# ---------------------------------------------------------------- build / export

def test_build_default_format_stdout(capsys):
    assert run(["build"] + POLLOCK_JSON) == 0
    data = json.loads(capsys.readouterr().out)
    assert [n["id"] for n in data["nodes"]] == ["A1", "A2", "A3", "A4"]


def test_build_writes_out_dir(tmp_path, capsys):
    assert run(["build", "--out", str(tmp_path), "--format", "json-akg,apx"]
               + ESSAY) == 0
    assert (tmp_path / "essay056.akg.json").exists()
    assert (tmp_path / "essay056.apx").exists()
    # pruned supports are warnings, which main prints on stderr
    assert "akgraph.akg: pruned redundant support A1 -> A3" in capsys.readouterr().err


def test_export_requires_format(capsys):
    assert run(["export"] + POLLOCK_JSON) == 1
    assert "PipelineError" in capsys.readouterr().err


def test_export_apx_stdout(capsys):
    assert run(["export", "--format", "apx"] + POLLOCK_JSON) == 0
    out = capsys.readouterr().out
    assert out == "arg(a1).\narg(a2).\narg(a3).\narg(a4).\natt(a3,a2).\n"


def test_unknown_format_exit_1(capsys):
    assert run(["export", "--format", "yaml"] + POLLOCK_JSON) == 1
    assert "unknown format" in capsys.readouterr().err


def test_run_writes_everything(tmp_path, capsys):
    assert run(["run", "--out", str(tmp_path)] + ESSAY) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "essay056.akg.dot", "essay056.akg.json", "essay056.apx",
        "essay056.args.json", "essay056.kb.dot", "essay056.kb.json",
        "essay056.semantics.json",
    ]
    out = capsys.readouterr().out
    assert "arguments: 18" in out
    assert "attacks: 2" in out
    assert "naive extensions: 2" in out
    assert "preferred extensions: 1" in out
    assert out.count("wrote ") == 7


def test_semantics_out_matches_run(tmp_path, capsys):
    assert run(["semantics", "--out", str(tmp_path / "s")] + ESSAY) == 0
    target = tmp_path / "s" / "essay056.semantics.json"
    assert capsys.readouterr().out == "wrote %s\n" % target
    assert run(["run", "--out", str(tmp_path / "r")] + ESSAY) == 0
    assert [p.name for p in (tmp_path / "s").iterdir()] == [target.name]
    assert target.read_bytes() == \
        (tmp_path / "r" / "essay056.semantics.json").read_bytes()


@pytest.mark.parametrize("verbs, formats", [
    (["build"], ["json-akg"]),
    (["build", "--format", "apx,json-args"], ["apx", "json-args"]),
    (["semantics", "--format", "apx"], ["apx"]),
    (["export", "--format", "dot-kb"], ["dot-kb"]),
], ids=["build", "build-format", "semantics-format", "export"])
def test_each_verb_writes_its_formats_and_says_so(tmp_path, capsys, verbs, formats):
    assert run(verbs + ["--out", str(tmp_path)] + ESSAY) == 0
    written = [str(tmp_path / ("essay056." + cli._SUFFIX[f])) for f in formats]
    assert sorted(str(p) for p in tmp_path.iterdir()) == sorted(written)
    assert capsys.readouterr().out == "".join("wrote %s\n" % p for p in written)


@pytest.mark.parametrize("verb", [["ingest"], ["build"], ["semantics"],
                                  ["export", "--format", "apx,json-args"], ["run"]],
                         ids=lambda verb: verb[0])
def test_empty_out_prints_to_stdout(tmp_path, monkeypatch, capsys, verb):
    monkeypatch.chdir(tmp_path)
    args = ESSAY_DOC if verb == ["ingest"] else ESSAY
    assert run(verb + ["--out", ""] + args) == 0
    printed = capsys.readouterr().out
    assert run(verb + args) == 0
    assert printed == capsys.readouterr().out
    assert printed and "wrote " not in printed
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out, target", [
    (".", "./pollock.semantics.json"),
    ("./sub", "./sub/pollock.semantics.json"),
    ("sub//deep/", "sub//deep/pollock.semantics.json"),
])
def test_wrote_line_joins_out_as_given(tmp_path, monkeypatch, capsys, out, target):
    monkeypatch.chdir(tmp_path)
    assert run(["semantics", "--out", out] + POLLOCK_JSON) == 0
    assert capsys.readouterr().out == "wrote %s\n" % target
    assert (tmp_path / target).is_file()


# ---------------------------------------------------------------- options

def test_check_set_flag(capsys):
    assert run(["semantics", "--check-set", "A1,A3,A4", "--check-set", "A2,A3"]
               + POLLOCK_JSON) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["checked_sets"] == [
        {"set": ["A1", "A3", "A4"], "conflict_free": True, "admissible": True},
        {"set": ["A2", "A3"], "conflict_free": False, "admissible": False},
    ]


def test_check_set_lists_each_member_once(capsys):
    assert run(["semantics", "--check-set", "A1,A1", "--check-set", "A3,A1,A3,"]
               + POLLOCK_JSON) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [c["set"] for c in rep["checked_sets"]] == [["A1"], ["A1", "A3"]]


def test_list_options_strip_spaces_around_items(tmp_path, capsys):
    assert run(["semantics", "--check-set", " A1, A3 ,A4", "--check-set", "A2 ,A3,"]
               + POLLOCK_JSON) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [c["set"] for c in rep["checked_sets"]] == [["A1", "A3", "A4"], ["A2", "A3"]]
    assert run(["export", "--format", "apx, json-args", "--out", str(tmp_path)]
               + POLLOCK_JSON) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pollock.apx", "pollock.args.json"]


@pytest.mark.parametrize("value", ["", " ", ", ,"])
def test_empty_check_set_refused(capsys, value):
    assert run(["semantics", "--check-set", "A1", "--check-set", value]
               + POLLOCK_JSON) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("akgraph.cli.PipelineError: --check-set needs at least one "
                   "argument id\n")


def test_prefs_with_implicit_ims(tmp_path, capsys):
    # the preference file names explicit rules by the argument ids they get
    # without implicit rules, whether or not the flag adds some
    assert run(["run", "--implicit-ims", "--out", str(tmp_path)] + ESSAY) == 0
    assert "rules: 6" in capsys.readouterr().out


def test_cap_exceeded_exit_1(capsys):
    # pollock's one attack joins A3 and A2: a piece of two arguments
    assert run(["semantics", "--cap", "1"] + POLLOCK_JSON) == 1
    assert "TooLarge" in capsys.readouterr().err
    assert run(["semantics", "--cap", "2"] + POLLOCK_JSON) == 0


def test_negative_cap_refused(tmp_path, capsys):
    # the document has no attacks, so no piece can exceed any cap; a
    # negative cap is refused as an option value, and 0 is a valid cap
    text = tmp_path / "pets.txt"
    text.write_text("Pets are nice. Therefore, get a pet.", encoding="utf-8")
    ann = tmp_path / "pets.ann"
    ann.write_text("T1\tMajorClaim 26 35\tget a pet\nT2\tPremise 0 13\tPets are nice\n"
                   "R1\tSupports Arg1:T2 Arg2:T1\n", encoding="utf-8")
    doc = ["--input", str(text), "--ann", str(ann)]
    assert run(["run", "--cap", "-5"] + doc) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "akgraph.cli.PipelineError: --cap must be 0 or more, not -5\n")
    assert run(["semantics", "--cap", "0"] + doc) == 0
    assert json.loads(capsys.readouterr().out)["naive"] == [["A1", "A2", "A3"]]


@pytest.mark.parametrize("content, error", [
    ("T99\tn\n", "UnknownKindTarget: kind override id 'T99' names no component"),
    # T4 is pollock's InferenceRule span, not a component
    ("T4\tn\n", "UnknownKindTarget: kind override id 'T4' names no component"),
    ("T1\tn\nT1\tp\n", "line 2: id T1 already given on line 1"),
])
def test_kinds_file_refuses_what_it_cannot_apply(tmp_path, capsys, content, error):
    kinds = tmp_path / "kinds.tsv"
    kinds.write_text(content, encoding="utf-8")
    assert run(["run", "--kinds", str(kinds)] + POLLOCK_JSON) == 1
    assert error in capsys.readouterr().err


def test_custom_lexicon_changes_rules(tmp_path, capsys):
    lex = tmp_path / "lex.tsv"
    lex.write_text("because\tPremise\n")
    assert run(["export", "--format", "json-args", "--lexicon", str(lex)]
               + POLLOCK_JSON) == 0
    data = json.loads(capsys.readouterr().out)
    # no claim indicators -> no rules -> all arguments atomic
    assert all(a["top_rule"] is None for a in data["arguments"])
    assert data["mp_applications"] == []


def test_custom_lexicon_drives_node_markers(tmp_path, capsys):
    txt = tmp_path / "doc.txt"
    ann = tmp_path / "doc.ann"
    txt.write_text("Ergo cats purr.\nBecause dogs bark, we listen.\n")
    ann.write_text("T1\tPremise 0 14\tErgo cats purr\n"
                   "T2\tPremise 16 33\tBecause dogs bark\n")
    lex = tmp_path / "lex.tsv"
    lex.write_text("ergo\tClaim\n")
    base = ["export", "--format", "json-kb", "--input", str(txt), "--ann", str(ann)]

    def node_markers(argv):
        assert run(argv) == 0
        nodes = json.loads(capsys.readouterr().out)["nodes"]
        return {n["id"]: n["attributes"][0] for n in nodes}

    # "because" is a default-lexicon surface and not an attribute marker
    assert "because" not in markers.ATTRIBUTE_MARKERS
    assert node_markers(base) == {"T1": "N", "T2": '"because"'}
    assert node_markers(base + ["--lexicon", str(lex)]) == {"T1": '"ergo"', "T2": "N"}


def test_bom_in_config_files_ignored(tmp_path):
    # a BOM is never content in a lexicon, preference or kinds file
    kinds = tmp_path / "kinds.tsv"
    kinds.write_text("T3\tn\n", encoding="utf-8")
    plain = {"--lexicon": markers._DEFAULT_LEXICON,
             "--prefs": str(DATA / "essay056.prefs"), "--kinds": str(kinds)}

    def files(name, options):
        argv = ["run", "--out", str(tmp_path / name)] + ESSAY_DOC
        for option, path in options.items():
            argv += [option, path]
        assert run(argv) == 0
        return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

    bommed = {}
    for option, path in plain.items():
        target = tmp_path / ("bom" + option)
        with open(path, "rb") as f:
            target.write_bytes(b"\xef\xbb\xbf" + f.read())
        bommed[option] = str(target)
    want = files("plain", plain)
    assert len(want) == 7
    assert files("bom", bommed) == want


def test_bom_in_ann_and_json_inputs_ignored(tmp_path):
    # offsets index the .txt and the JSON text string, never these files
    bom = tmp_path / "bom"
    bom.mkdir()
    for name in ("pollock.ann", "pollock.json"):
        (bom / name).write_bytes(b"\xef\xbb\xbf" + (DATA / name).read_bytes())

    def files(name, inputs):
        assert run(["run", "--out", str(tmp_path / name)] + inputs) == 0
        return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

    txt = ["--input", str(DATA / "pollock.txt")]
    want = files("ann", txt + ["--ann", str(DATA / "pollock.ann")])
    assert len(want) == 7
    assert files("bom-ann", txt + ["--ann", str(bom / "pollock.ann")]) == want
    want = files("json", POLLOCK_JSON)
    assert files("bom-json", ["--input", str(bom / "pollock.json")]) == want


def test_pipeline_parses_lexicon_once(monkeypatch):
    calls = []
    parse = markers._parse_lexicon_lines

    def counting(content):
        calls.append(1)
        return parse(content)

    monkeypatch.setattr(markers, "_parse_lexicon_lines", counting)
    report = cli.run_pipeline(cli.PipelineConfig(
        input_path=str(DATA / "essay056.txt"), ann_path=str(DATA / "essay056.ann"),
        prefs_path=str(DATA / "essay056.prefs")))
    assert report.counts["rules"] > 0
    assert len(calls) == 1


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_config_splits_formats():
    ns = cli.build_parser().parse_args(
        ["run", "--input", "x.json", "--format", "apx,json-akg",
         "--format", "apx"])
    config = cli._config_from(ns)
    assert config.formats == ("apx", "json-akg")


def test_exit_report_defaults_are_not_shared():
    first, second = cli.ExitReport(0), cli.ExitReport(0)
    first.counts["arguments"] = 1
    first.artifacts["doc"] = None
    assert second.counts == {} and second.artifacts == {}


# ---------------------------------------------------------------- warnings

ESSAY_CONFIG = cli.PipelineConfig(
    input_path=str(DATA / "essay056.txt"), ann_path=str(DATA / "essay056.ann"),
    prefs_path=str(DATA / "essay056.prefs"))
POLLOCK_CONFIG = cli.PipelineConfig(input_path=str(DATA / "pollock.json"))
ESSAY_STDERR = [
    "akgraph.ekb: IM 'as' at (1014, 1016) aligns with no component pair; dropped",
    "akgraph.akg: pruned redundant support A1 -> A3",
    "akgraph.akg: pruned redundant support A4 -> A6",
    "akgraph.akg: pruned redundant support A9 -> A11",
    "akgraph.akg: pruned redundant support A14 -> A17"]
ESSAY_RECORDS = [tuple(line.split(": ", 1)) for line in ESSAY_STDERR]
ESSAY_WARNINGS = tuple(message for _, message in ESSAY_RECORDS)


def test_run_reports_only_its_own_warnings():
    with Trace() as trace:
        cli.run_pipeline(POLLOCK_CONFIG)
        report = cli.run_pipeline(ESSAY_CONFIG)
    assert report.warnings == ESSAY_WARNINGS
    assert trace.records == [("akgraph.akg", "pruned redundant support A1 -> A4")
                             ] + ESSAY_RECORDS


def test_run_without_a_trace_logs_nothing(caplog):
    # a run with no current trace records into one of its own
    assert cli.run_pipeline(ESSAY_CONFIG).warnings == ESSAY_WARNINGS
    assert caplog.records == []


def test_concurrent_runs_keep_their_own_warnings(monkeypatch):
    alone = [cli.run_pipeline(c).warnings for c in (ESSAY_CONFIG, POLLOCK_CONFIG)]
    # both runs build their EKBs between the same two barrier crossings
    gate = threading.Barrier(2, timeout=30)
    build_ekb = cli.build_ekb

    def gated(*args, **kwargs):
        gate.wait()
        try:
            return build_ekb(*args, **kwargs)
        finally:
            gate.wait()

    monkeypatch.setattr(cli, "build_ekb", gated)
    with ThreadPoolExecutor(2) as pool:
        runs = [pool.submit(cli.run_pipeline, c) for c in (ESSAY_CONFIG, POLLOCK_CONFIG)]
        together = [run.result().warnings for run in runs]
    assert together == alone
    assert alone == [ESSAY_WARNINGS, ("pruned redundant support A1 -> A4",)]


def test_in_process_main_leaves_gc_unfrozen(tmp_path, capsys):
    # only the process entries freeze the heap, just before the interpreter exits
    assert run(["run", "--out", str(tmp_path)] + POLLOCK_JSON) == 0
    assert gc.get_freeze_count() == 0


# ---------------------------------------------------------------- records

def test_records_are_frozen(essay):
    doc, kbg, aset, akg = essay["doc"], essay["kb_graph"], essay["aset"], essay["akg"]
    records = [
        doc, doc.document, doc.components[0], doc.relations[0], doc.stances[0],
        ingest.RuleSpanAnnotation("T9", 0, 1, "x"), ingest.Violation("SelfRelation", "R1"),
        essay["ims"][0], markers.load_lexicon(),
        essay["ekb"], essay["ekb"].formulas[0], essay["ekb"].rules[0],
        ekb.parse_preference_file("R1 > R2"),
        kbg, kbg.nodes[0], kbg.nodes[0].attributes, kbg.edges[0],
        aset, aset.arguments[0], aset.mp_applications[0],
        akg, akg.nodes[0], akg.edges[0],
        essay["af"], sem.naive_extensions(essay["af"])[0],
        cli.PipelineConfig("doc.json"), cli.ExitReport(0),
    ]
    for rec in records:
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
    # only the containers that cache an index or a rendering carry a __dict__
    assert {type(rec).__name__ for rec in records if hasattr(rec, "__dict__")} == {
        "AnnotatedDocument", "MarkerLexicon", "EKB", "AttributeBox", "ArgumentSet"}
    assert len({type(rec) for rec in records}) == 27


# container, its field holding the members, and a value cached from them
CONTAINERS = {
    "AnnotatedDocument": (lambda a: a["doc"], "components", "_component_index"),
    "EKB.formulas": (lambda a: a["ekb"], "formulas", "_formula_index"),
    "EKB.rules": (lambda a: a["ekb"], "rules", "_rule_index"),
    "AttributeBox": (lambda a: a["kb_graph"].nodes[0].attributes, "values", "rendered"),
    "ArgumentSet": (lambda a: a["aset"], "arguments", "_index"),
    "MarkerLexicon": (lambda a: markers.load_lexicon(), "entries", "match_tables"),
}


@pytest.mark.parametrize("container, field, cached", CONTAINERS.values(),
                         ids=CONTAINERS.keys())
def test_replace_keeps_type_and_rebuilds_cache(essay, container, field, cached):
    rec = container(essay)
    before = getattr(rec, cached)
    twin = rec._replace(**{field: getattr(rec, field)[1:]})
    assert type(twin) is type(rec)
    assert getattr(twin, field) == getattr(rec, field)[1:]
    assert getattr(twin, cached) != before
    assert getattr(rec, cached) is before


def test_no_module_imports_numpy():
    # numpy serves only the tests' and benchmarks' oracle, perfbench/oracle.py
    found = []
    for path in sorted(Path(akgraph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.split(".")[0] == "numpy"]
    assert found == []


def test_cli_import_skips_numpy(tmp_path):
    # no akgraph module imports numpy (above), nor may an import it makes;
    # dataclasses (and the inspect module it imports) would cost start-up
    # time on every run
    code = ("import sys, akgraph.cli; "
            "print([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert done.stdout.strip() == "[]"
    # without site, whose hooks may load them first, a whole run loads no
    # typing, pathlib or importlib.resources (which brings tempfile)
    code = ("import sys, akgraph.cli; status = akgraph.cli.main(sys.argv[1:]); "
            "print(status, [m for m in ('importlib.resources', 'pathlib', 'tempfile', "
            "'typing') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-S", "-c", code, "run", *ESSAY,
                           "--out", str(tmp_path)],
                          capture_output=True, text=True, check=True, env=env)
    assert done.stdout.splitlines()[-1] == "0 []"
    assert len(list(tmp_path.iterdir())) == 7


def test_script_entry_loads_no_logging_and_freezes_the_heap(tmp_path):
    # main writes warnings itself, since `logging` costs start-up time on
    # every run (whether the host's site set-up loaded it first is asked
    # first); entry() freezes the heap so that exit does not collect it
    code = ("import gc, sys; before = 'logging' in sys.modules; "
            "from akgraph.cli import entry; status = entry(); "
            "print('logging loaded:', 'logging' in sys.modules and not before); "
            "print('frozen:', gc.get_freeze_count() > 0); "
            "sys.exit(status)")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, "run", *ESSAY,
                           "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["logging loaded: False", "frozen: True"]
    assert done.stderr.splitlines() == ESSAY_STDERR


def test_run_without_numpy(tmp_path):
    # every stage of a run, exports included, works with numpy unimportable
    code = ("import sys; sys.modules['numpy'] = None; "
            "from akgraph.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, "run", *ESSAY,
                           "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        "essay056.%s" % ext for ext in ("kb.dot", "akg.dot", "kb.json", "akg.json",
                                        "args.json", "apx", "semantics.json"))



# ---------------------------------------------------------------- refusals

def test_every_error_is_a_value_error():
    # main refuses (ValueError, OSError), so that no akgraph error escapes it
    errors = []
    for info in pkgutil.iter_modules(akgraph.__path__):
        module = importlib.import_module("akgraph." + info.name)
        errors += [obj for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj.__module__ == module.__name__]
    assert {e.__name__ for e in errors} >= {
        "IngestError", "MalformedLexiconLine", "EKBError", "DerivationError",
        "AKGError", "SemanticsError", "PipelineError"}
    assert [e for e in errors if not issubclass(e, ValueError)] == []


def _akgraph(*argv, stdout=subprocess.PIPE, cwd=None, seed=None):
    """The CLI in a fresh interpreter, as the installed script runs it; under
    the hash seed given, if any."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    if seed is not None:
        env["PYTHONHASHSEED"] = str(seed)
    return subprocess.run([sys.executable, "-m", "akgraph.cli", *argv], cwd=cwd,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


def test_malformed_lexicon_refused_in_one_line(tmp_path):
    lex = tmp_path / "bad.tsv"
    lex.write_text("therefore Claim\n")     # no tab
    done = _akgraph("run", *POLLOCK_JSON, "--lexicon", str(lex))
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "akgraph.markers.MalformedLexiconLine: line 1: expected surface<TAB>indicator"]


def test_cli_errors_named_after_their_module():
    # under `python -m` the CLI module runs as __main__, yet its own errors
    # carry the name the installed script prints
    done = _akgraph("export", *POLLOCK_JSON)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "akgraph.cli.PipelineError: export needs at least one --format"]


def test_build_prints_each_warning_once(tmp_path):
    done = _akgraph("build", *ESSAY, "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    # each line names the warning's module before its message
    messages = [line.split(": ", 1)[1] for line in done.stderr.splitlines()]
    assert len(messages) == len(set(messages))
    assert "IM 'as' at (1014, 1016) aligns with no component pair; dropped" in messages
    assert "pruned redundant support A1 -> A3" in messages


def test_build_warns_before_refusing():
    done = _akgraph("build", *ESSAY, "--check-set", "A99")
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "akgraph.ekb: IM 'as' at (1014, 1016) aligns with no component pair; dropped",
        "akgraph.akg: pruned redundant support A1 -> A3",
        "akgraph.akg: pruned redundant support A4 -> A6",
        "akgraph.akg: pruned redundant support A9 -> A11",
        "akgraph.akg: pruned redundant support A14 -> A17",
        "akgraph.semantics.MemberOutsideAF: not in the framework: ['A99']"]


def test_stance_star_deeper_than_the_recursion_limit(tmp_path):
    # one major claim and more claims against it than Python's recursion
    # limit: one attack piece, refused under the default cap, and decided
    # without a traceback under a cap raised to fit
    n = sys.getrecursionlimit() + 100
    text, components, stances = "We should act.\n", [], []
    for i in range(2, n + 2):
        components.append({"id": "T%d" % i, "kind": "Claim", "start": len(text),
                           "end": len(text) + len("Point %d holds." % i)})
        stances.append({"id": "A%d" % i, "claim": "T%d" % i, "stance": "Against"})
        text += "Point %d holds. " % i
    star = tmp_path / "star.json"
    star.write_text(json.dumps({
        "doc_id": "star", "text": text + "\n", "relations": [], "stances": stances,
        "components": [{"id": "T1", "kind": "MajorClaim", "start": 0, "end": 14}]
        + components}), encoding="utf-8")
    done = _akgraph("semantics", "--input", str(star))
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "akgraph.semantics.TooLarge: a connected piece of %d arguments exceeds the cap of %d"
        % (n + 1, sem.DEFAULT_CAP)]
    done = _akgraph("semantics", "--input", str(star), "--cap", str(n + 1))
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    report = json.loads(done.stdout)
    assert len(report["naive"]) == 2
    assert len(report["preferred"]) == 1 and len(report["preferred"][0]) == n


@pytest.mark.parametrize("verb", [["build"], ["semantics"], ["export", "--format", "apx"],
                                  ["run"]], ids=lambda verb: verb[0])
def test_every_verb_shows_every_warning_on_stderr(tmp_path, verb):
    done = _akgraph(*verb, *ESSAY, "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines() == [
        "akgraph.ekb: IM 'as' at (1014, 1016) aligns with no component pair; dropped",
        "akgraph.akg: pruned redundant support A1 -> A3",
        "akgraph.akg: pruned redundant support A4 -> A6",
        "akgraph.akg: pruned redundant support A9 -> A11",
        "akgraph.akg: pruned redundant support A14 -> A17"]


@pytest.mark.parametrize("canonical", [False, True], ids=["ann", "json"])
def test_duplicate_stance_kept_by_id_whatever_the_line_order(tmp_path, canonical):
    # a second stance on T2, A9, before or after A1: A9 sorts last and wins
    # either way, so the files, stdout and stderr are the same
    text = (DATA / "essay056.txt").read_text(encoding="utf-8")
    ann = (DATA / "essay056.ann").read_text(encoding="utf-8")
    lines = ann.splitlines()
    at = lines.index("A1\tStance T2 For")
    stances = json.loads(ingest.serialize_canonical_json(
        ingest.parse_brat_ann(text, ann, doc_id="essay056")))
    runs = []
    for where in (at, at + 1):
        case = tmp_path / str(where)
        case.mkdir()
        if canonical:
            doc = json.loads(json.dumps(stances))
            doc["stances"].insert(where - at, {"id": "A9", "claim": "T2",
                                               "stance": "Against"})
            (case / "essay056.json").write_text(json.dumps(doc), encoding="utf-8")
            inputs = ["--input", "essay056.json"]
        else:
            (case / "essay056.txt").write_text(text, encoding="utf-8")
            (case / "essay056.ann").write_text(
                "\n".join(lines[:where] + ["A9\tStance T2 Against"] + lines[where:]) + "\n",
                encoding="utf-8")
            inputs = ["--input", "essay056.txt", "--ann", "essay056.ann"]
        done = _akgraph("run", *inputs, "--prefs", str(DATA / "essay056.prefs"),
                        "--out", "out", cwd=case)
        assert done.returncode == 0, done.stderr
        files = {p.name: p.read_bytes() for p in (case / "out").iterdir()}
        runs.append((files, done.stdout, done.stderr))
    assert len(runs[0][0]) == 7
    assert runs[0] == runs[1]
    files, _, stderr = runs[0]
    assert "akgraph.ingest: duplicate stance for T2: keeping A9 over A1" in stderr.splitlines()
    assert b"att(a13,a18)." in files["essay056.apx"]


PETS = "Pets are nice. Therefore, get a pet."


@pytest.mark.parametrize("text, components, rules", [
    (PETS, [("R1", "Premise", 0, 13), ("T2", "Claim", 26, 35)], 1),
    (PETS, [("T1", "MajorClaim", 0, 13), ("T2", "MajorClaim", 26, 35)], 0),
    (PETS + " Dogs bark.", [("T1", "MajorClaim", 0, 13), ("T2", "MajorClaim", 26, 35),
                            ("T1+T2", "Premise", 37, 46)], 0),
], ids=["premise-named-like-a-rule", "marker-inside-merged-claim",
        "premise-named-like-the-merge"])
def test_generated_ids_refuse_no_valid_input(tmp_path, capsys, text, components, rules):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"doc_id": "doc", "text": text, "components": [
        dict(zip(("id", "kind", "start", "end"), c)) for c in components]}))
    assert run(["run", "--input", str(doc), "--out", str(tmp_path)]) == 0
    assert "rules: %d" % rules in capsys.readouterr().out.splitlines()


def test_im_inside_merged_claim_dropped_with_a_warning(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"doc_id": "doc", "text": PETS, "components": [
        {"id": "T1", "kind": "MajorClaim", "start": 0, "end": 13},
        {"id": "T2", "kind": "MajorClaim", "start": 26, "end": 35}]}))
    done = _akgraph("run", "--input", str(doc), "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    warning = ("IM 'Therefore' at (15, 24) has no antecedent outside its "
               "consequent's formula; dropped")
    assert done.stderr.splitlines() == ["akgraph.ekb: " + warning]
    assert done.stdout.splitlines().count("warning: " + warning) == 1


@pytest.mark.parametrize("argv", [
    ["run", *ESSAY, "--format", "json-args"],       # fails while writing
    ["run", *POLLOCK_JSON, "--format", "apx"],      # fails at the last flush
], ids=["long-output", "short-output"])
def test_closed_stdout_pipe_ends_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)       # closed before the child writes: every write fails
    try:
        done = _akgraph(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    for noise in ("BrokenPipeError", "Traceback", "Exception ignored"):
        assert noise not in done.stderr


@settings(max_examples=100, deadline=None)
@given(canonical_docs())
def test_parsed_documents_run_to_a_report(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(content, encoding="utf-8")
    report = cli.run_pipeline(cli.PipelineConfig(input_path=str(path)))
    assert report.status == 0 and report.artifacts["semantics"]["preferred"]


def test_tied_ids_write_the_same_files_under_every_hash_seed(tmp_path):
    # T1 and T01 are equal as numbers, so only the ids themselves order them;
    # a sort of a set holding both that left them tied would follow the seed
    runs = set()
    for seed in range(4):
        out = tmp_path / str(seed)
        done = _akgraph("run", "--input", str(DATA / "ties.json"), "--out", str(out),
                        seed=seed)
        assert done.returncode == 0, done.stderr
        files = tuple((p.name, p.read_bytes()) for p in sorted(out.iterdir()))
        assert len(files) == 7
        runs.add((files, done.stderr))
    assert len(runs) == 1


def test_preference_cycle_names_its_least_rule_under_every_hash_seed(tmp_path):
    prefs = tmp_path / "cycle.prefs"
    prefs.write_text("A2 > A5 > A10\nA10 > A2\n")
    refusals = set()
    for seed in (0, 4, 5):
        done = _akgraph("run", *ESSAY_DOC, "--prefs", str(prefs), "--out", str(tmp_path),
                        seed=seed)
        assert done.returncode == 1
        refusals.add(done.stderr.splitlines()[-1])
    assert refusals == {"akgraph.ekb.PreferenceCycle: preference chains form a cycle at 'R1'"}


def test_id_of_5000_digits_runs(tmp_path, capsys):
    doc = json.loads((DATA / "pollock.json").read_text(encoding="utf-8"))
    long_id = "T" + "7" * 5000      # past int()'s 4300-digit limit
    for entry in doc["components"] + doc["relations"]:
        for key in ("id", "source", "target"):
            if entry.get(key) == "T1":
                entry[key] = long_id
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["run", "--input", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(list((tmp_path / "out").iterdir())) == 7
