import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from akgraph import cli, ekb, ingest, markers
from akgraph import semantics as sem

from conftest import DATA

ESSAY = [
    "--input", str(DATA / "essay056.txt"),
    "--ann", str(DATA / "essay056.ann"),
    "--prefs", str(DATA / "essay056.prefs"),
]
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
    assert run(["ingest", "--out", str(tmp_path)] + ESSAY) == 0
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
    err = capsys.readouterr().err
    assert "violation:" in err and "StanceOnNonClaim" in err


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


def test_missing_ann_exit_1(capsys):
    assert run(["ingest", "--input", str(DATA / "essay056.txt")]) == 1
    assert "PipelineError" in capsys.readouterr().err


def test_missing_input_exit_1(capsys):
    assert run(["ingest", "--input", "/nonexistent/file.txt"]) == 1
    assert capsys.readouterr().err


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
    # pruned supports surface as warnings on stderr
    assert "pruned redundant support" in capsys.readouterr().err


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


# ---------------------------------------------------------------- options

def test_check_set_flag(capsys):
    assert run(["semantics", "--check-set", "A1,A3,A4", "--check-set", "A2,A3"]
               + POLLOCK_JSON) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["checked_sets"] == [
        {"set": ["A1", "A3", "A4"], "conflict_free": True, "admissible": True},
        {"set": ["A2", "A3"], "conflict_free": False, "admissible": False},
    ]


def test_cap_exceeded_exit_1(capsys):
    # pollock's one attack joins A3 and A2: a piece of two arguments
    assert run(["semantics", "--cap", "1"] + POLLOCK_JSON) == 1
    assert "TooLarge" in capsys.readouterr().err
    assert run(["semantics", "--cap", "2"] + POLLOCK_JSON) == 0


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
    ]
    for rec in records:
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)


# container, its field holding the members, and a value cached from them
CONTAINERS = {
    "AnnotatedDocument": (lambda a: a["doc"], "components", "_component_index"),
    "EKB.formulas": (lambda a: a["ekb"], "formulas", "_formula_index"),
    "EKB.rules": (lambda a: a["ekb"], "rules", "_rule_index"),
    "KBGraph": (lambda a: a["kb_graph"], "nodes", "_index"),
    "AttributeBox": (lambda a: a["kb_graph"].nodes[0].attributes, "values", "rendered"),
    "ArgumentSet": (lambda a: a["aset"], "arguments", "_index"),
    "AKG": (lambda a: a["akg"], "nodes", "_index"),
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


def test_cli_import_skips_numpy():
    # numpy serves only the oracle; dataclasses (and the inspect module it
    # imports) would cost start-up time on every run
    code = ("import sys, akgraph.cli; "
            "print([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert done.stdout.strip() == "[]"


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
