"""Command-line pipeline: ingest -> markers -> EKB -> graphs -> semantics -> exports.

Verbs: ingest, build, semantics, export, run.  Inputs are either a text file
plus a brat-style .ann file, or a single canonical JSON document.
"""

import argparse
import logging
import sys
from collections import namedtuple
from pathlib import Path
from typing import NamedTuple

from . import exports
from . import semantics as sem
from .akg import AKGError, build_akg
from .arguments import DerivationError, derive_argument_set
from .ekb import EKBError, build_ekb, parse_kind_override_file, parse_preference_file
from .ingest import (
    IngestError,
    parse_brat_ann,
    parse_canonical_json,
    serialize_canonical_json,
    validate_document,
)
from .kbgraph import build_kb_graph
from .markers import detect_ims, load_lexicon, resolve_implicit_ims

logger = logging.getLogger(__name__)

FORMATS = ("dot-kb", "dot-akg", "json-kb", "json-akg", "json-args", "apx",
           "semantics")

_SUFFIX = {
    "dot-kb": "kb.dot",
    "dot-akg": "akg.dot",
    "json-kb": "kb.json",
    "json-akg": "akg.json",
    "json-args": "args.json",
    "apx": "apx",
    "semantics": "semantics.json",
}


class PipelineError(Exception):
    pass


class PipelineConfig(NamedTuple):
    input_path: str
    ann_path: str = None
    lexicon_path: str = None
    prefs_path: str = None
    kinds_path: str = None
    out_dir: str = None
    formats: tuple = ()
    cap: int = sem.DEFAULT_CAP
    check_sets: tuple = ()       # tuples of arg ids
    implicit_ims: bool = False


class ExitReport(namedtuple("ExitReport",
                            "status counts warnings written artifacts")):
    """Exit status, summary counts, warnings, written paths and the built
    artifacts by name.  counts and artifacts default to a new dict each."""
    __slots__ = ()

    def __new__(cls, status, counts=None, warnings=(), written=(), artifacts=None):
        return super().__new__(cls, status, {} if counts is None else counts,
                               warnings, written, {} if artifacts is None else artifacts)

    def summary_lines(self):
        lines = ["%s: %s" % (k, v) for k, v in self.counts.items()]
        lines += ["warning: %s" % w for w in self.warnings]
        lines += ["wrote %s" % p for p in self.written]
        return lines


class _WarningTap(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record.getMessage())


def load_document(config):
    """Read the input document: canonical JSON, or text + brat annotations."""
    path = Path(config.input_path)
    raw = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return parse_canonical_json(raw)
    if not config.ann_path:
        raise PipelineError("text input %s needs an annotation file (--ann)" % path)
    ann = Path(config.ann_path).read_text(encoding="utf-8")
    return parse_brat_ann(raw, ann, doc_id=path.stem)


def _related_spans(adoc):
    pairs = []
    for rel in adoc.relations:
        if rel.kind != "Supports":
            continue
        s = adoc.component(rel.source)
        t = adoc.component(rel.target)
        if s is not None and t is not None:
            pairs.append(((s.start, s.end), (t.start, t.end)))
    return pairs


def run_pipeline(config):
    """Execute the full chain and return an ExitReport with summary counts,
    collected warnings, and every built artifact."""
    tap = _WarningTap()
    root = logging.getLogger("akgraph")
    root.addHandler(tap)
    try:
        adoc = load_document(config)
        violations = validate_document(adoc)
        if violations:
            raise PipelineError("invalid document: "
                                + "; ".join(str(v) for v in violations))

        lexicon = load_lexicon(
            Path(config.lexicon_path).read_text(encoding="utf-8")
            if config.lexicon_path else None)
        ims = detect_ims(adoc.document, lexicon)
        if config.implicit_ims:
            ims = list(ims) + list(resolve_implicit_ims(
                adoc.document, _related_spans(adoc), ims, lexicon))
            ims.sort(key=lambda m: m.span)

        prefs = (parse_preference_file(
            Path(config.prefs_path).read_text(encoding="utf-8"))
            if config.prefs_path else None)
        kinds = (parse_kind_override_file(
            Path(config.kinds_path).read_text(encoding="utf-8"))
            if config.kinds_path else None)

        ekb = build_ekb(adoc, ims, prefs=prefs, kind_overrides=kinds,
                        lexicon=lexicon)
        kbg = build_kb_graph(ekb)
        aset = derive_argument_set(ekb)
        akg = build_akg(kbg, aset, adoc)
        af = sem.project_af(akg)
        report = sem.semantics_report(af, cap=config.cap,
                                      check_sets=config.check_sets)
    finally:
        root.removeHandler(tap)

    warnings = list(tap.records)
    for s, t in akg.pruned_supports:
        warnings.append("pruned redundant support %s -> %s" % (s, t))

    counts = {
        "components": len(adoc.components),
        "relations": len(adoc.relations),
        "stances": len(adoc.stances),
        "inference markers": len(ims),
        "formulas": len(ekb.K),
        "rules": len(ekb.rules),
        "arguments": len(aset.arguments),
        "mp groups": len(aset.mp_applications),
        "attacks": len(af.atts),
        "naive extensions": len(report["naive"]),
        "preferred extensions": len(report["preferred"]),
    }
    artifacts = {"doc": adoc, "ims": tuple(ims), "ekb": ekb, "kb_graph": kbg,
                 "aset": aset, "akg": akg, "af": af, "semantics": report}
    return ExitReport(0, counts, tuple(dict.fromkeys(warnings)), (), artifacts)


def render_format(fmt, artifacts):
    if fmt == "dot-kb":
        return exports.export_dot(artifacts["kb_graph"])
    if fmt == "dot-akg":
        return exports.export_dot(artifacts["akg"])
    if fmt == "json-kb":
        return exports.export_json_kb(artifacts["kb_graph"])
    if fmt == "json-akg":
        return exports.export_json_akg(artifacts["akg"])
    if fmt == "json-args":
        return exports.export_json_args(artifacts["aset"])
    if fmt == "apx":
        return exports.export_apx(artifacts["af"])
    if fmt == "semantics":
        return exports.export_semantics_json(artifacts["semantics"])
    raise PipelineError("unknown format %r" % fmt)


def write_formats(config, report):
    written = []
    doc_id = report.artifacts["doc"].document.doc_id
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
    for fmt in config.formats:
        payload = render_format(fmt, report.artifacts)
        if config.out_dir is None:
            sys.stdout.write(payload)
            continue
        target = out / ("%s.%s" % (doc_id, _SUFFIX[fmt]))
        target.write_text(payload, encoding="utf-8")
        written.append(str(target))
    return report._replace(written=tuple(written))


def _config_from(ns):
    formats = []
    for chunk in ns.format or []:
        formats.extend(p for p in chunk.split(",") if p)
    bad = [f for f in formats if f not in FORMATS]
    if bad:
        raise PipelineError("unknown format(s): %s (choose from %s)"
                            % (", ".join(bad), ", ".join(FORMATS)))
    check_sets = tuple(tuple(p for p in chunk.split(",") if p)
                       for chunk in (ns.check_set or []))
    return PipelineConfig(
        input_path=ns.input,
        ann_path=ns.ann,
        lexicon_path=ns.lexicon,
        prefs_path=ns.prefs,
        kinds_path=ns.kinds,
        out_dir=ns.out,
        formats=tuple(dict.fromkeys(formats)),
        cap=ns.cap,
        check_sets=check_sets,
        implicit_ims=ns.implicit_ims,
    )


def _cmd_ingest(config):
    adoc = load_document(config)
    violations = validate_document(adoc)
    for v in violations:
        print("violation: %s" % (v,), file=sys.stderr)
    payload = serialize_canonical_json(adoc)
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        target = out / ("%s.json" % adoc.document.doc_id)
        target.write_text(payload, encoding="utf-8")
        print("wrote %s" % target)
    else:
        sys.stdout.write(payload)
    return 1 if violations else 0


def _cmd_semantics(config):
    report = run_pipeline(config)
    payload = exports.export_semantics_json(report.artifacts["semantics"])
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        doc_id = report.artifacts["doc"].document.doc_id
        target = out / ("%s.semantics.json" % doc_id)
        target.write_text(payload, encoding="utf-8")
        print("wrote %s" % target)
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_build(config):
    if not config.formats:
        config = config._replace(formats=("json-akg",))
    report = write_formats(config, run_pipeline(config))
    for w in report.warnings:
        print("warning: %s" % w, file=sys.stderr)
    return report.status


def _cmd_export(config):
    if not config.formats:
        raise PipelineError("export needs at least one --format")
    return write_formats(config, run_pipeline(config)).status


def _cmd_run(config):
    if not config.formats:
        config = config._replace(formats=FORMATS)
    report = write_formats(config, run_pipeline(config))
    for line in report.summary_lines():
        print(line)
    return report.status


_COMMANDS = {
    "ingest": _cmd_ingest,
    "build": _cmd_build,
    "semantics": _cmd_semantics,
    "export": _cmd_export,
    "run": _cmd_run,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="akgraph",
        description="Build attributed knowledge-base and argument graphs "
                    "from annotated argumentative text.")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, help_text in [
        ("ingest", "parse and validate annotations, emit canonical JSON"),
        ("build", "run the pipeline and export the argument graph"),
        ("semantics", "compute naive/preferred extensions and set checks"),
        ("export", "run the pipeline and write the chosen formats"),
        ("run", "full pipeline: all exports plus a summary report"),
    ]:
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--input", required=True,
                       help="input text file, or canonical JSON document")
        p.add_argument("--ann", help="brat-style annotation file (with --input text)")
        p.add_argument("--lexicon", help="marker lexicon file (tab-separated)")
        p.add_argument("--prefs", help="preference chain file")
        p.add_argument("--kinds", help="premise kind override file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", action="append",
                       help="export format(s), comma-separable; one of: "
                            + ", ".join(FORMATS))
        p.add_argument("--cap", type=int, default=sem.DEFAULT_CAP,
                       help="largest weakly connected piece of the attack graph, "
                            "in arguments, that extension enumeration accepts "
                            "(default %(default)s)")
        p.add_argument("--check-set", action="append", metavar="ID,ID,...",
                       help="argument set to test for conflict-freeness and "
                            "admissibility (repeatable)")
        p.add_argument("--implicit-ims", action="store_true",
                       help="also derive implicit punctuation markers from "
                            "support relations")
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.WARNING, format="%(name)s: %(message)s")
    ns = build_parser().parse_args(argv)
    try:
        config = _config_from(ns)
        return _COMMANDS[ns.command](config)
    except (PipelineError, IngestError, EKBError, DerivationError, AKGError,
            sem.SemanticsError, OSError, ValueError) as exc:
        print("%s.%s: %s" % (exc.__class__.__module__,
                             exc.__class__.__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
