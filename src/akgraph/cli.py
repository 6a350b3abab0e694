"""Command-line pipeline: ingest -> markers -> EKB -> graphs -> semantics -> exports.

Verbs: ingest, then four that run the same pipeline and differ only in the
formats they write by default (_VERBS).  Inputs are either a text file plus a
brat-style .ann file, or a single canonical JSON document.  Every verb writes
its outputs into --out, announcing each file written, or to stdout when --out
is absent or empty.
"""

import argparse
import gc
import os
import sys
from collections import namedtuple

from . import exports
from . import semantics as sem
from .akg import build_akg
from .arguments import derive_argument_set
from .ekb import build_ekb, parse_kind_override_file, parse_preference_file
from .ingest import parse_brat_ann, parse_canonical_json, serialize_canonical_json
from .kbgraph import build_kb_graph
from .markers import detect_ims, load_lexicon, resolve_implicit_ims
from .trace import Trace, current

# format -> (file suffix, artifact it renders, exporter)
_EXPORTS = {
    "dot-kb": ("kb.dot", "kb_graph", exports.export_dot),
    "dot-akg": ("akg.dot", "akg", exports.export_dot),
    "json-kb": ("kb.json", "kb_graph", exports.export_json_kb),
    "json-akg": ("akg.json", "akg", exports.export_json_akg),
    "json-args": ("args.json", "aset", exports.export_json_args),
    "apx": ("apx", "af", exports.export_apx),
    "semantics": ("semantics.json", "semantics", exports.export_semantics_json),
}
FORMATS = tuple(_EXPORTS)
_SUFFIX = {fmt: suffix for fmt, (suffix, _, _) in _EXPORTS.items()}

# pipeline verb -> (help, formats written without --format, prints the summary)
_VERBS = {
    "build": ("run the pipeline and export the argument graph", ("json-akg",), False),
    "semantics": ("compute naive/preferred extensions and set checks",
                  ("semantics",), False),
    "export": ("run the pipeline and write the chosen formats", (), False),
    "run": ("full pipeline: all exports plus a summary report", FORMATS, True),
}


class PipelineError(ValueError):
    pass


class PipelineConfig(namedtuple("PipelineConfig",
                                 "input_path ann_path lexicon_path prefs_path kinds_path "
                                 "out_dir formats cap check_sets implicit_ims",
                                 defaults=(None, None, None, None, None, (),
                                           sem.DEFAULT_CAP, (), False))):
    """One run's input paths and options, as the CLI flags give them;
    check_sets holds tuples of argument ids."""
    __slots__ = ()


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


def _read(path, encoding="utf-8"):
    """The text at path, line ends translated as text mode translates them;
    a file that is not UTF-8 is refused, naming it and its first bad byte."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode(encoding)
    except UnicodeDecodeError as exc:   # utf-8-sig decodes what follows a BOM
        at = exc.start + len(data) - len(exc.object)
        raise PipelineError("%s: not UTF-8 text (byte 0x%02x at offset %d)"
                            % (path, data[at], at)) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _split_name(path):
    """(stem, suffix) of the file name that ends path, split as pathlib does:
    at the last dot, unless that dot starts or ends the name."""
    name = os.path.basename(path)
    dot = name.rfind(".")
    if 0 < dot < len(name) - 1:
        return name[:dot], name[dot:]
    return name, ""


def load_document(config):
    """Read the input document: canonical JSON, or text + brat annotations.
    A text input's file name without its suffix is the document id; an
    annotation file with a JSON input is refused, not ignored."""
    path = config.input_path
    stem, suffix = _split_name(path)
    if suffix == ".json":
        if config.ann_path:
            raise PipelineError("--ann applies to a text input, not to the "
                                "JSON document %s" % path)
        return parse_canonical_json(_read(path, "utf-8-sig"))
    raw = _read(path, "utf-8")
    if not config.ann_path:
        raise PipelineError("text input %s needs an annotation file (--ann)" % path)
    return parse_brat_ann(raw, _read(config.ann_path, "utf-8-sig"), doc_id=stem)


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
    this run's warnings, and every built artifact.  Warnings go to the
    current Trace, or to one of the run's own when none is current."""
    trace = current()
    if trace is None:
        with Trace():
            return run_pipeline(config)
    start = len(trace.records)
    adoc = load_document(config)
    # a BOM is never content in the line-based lexicon, preference and kinds
    # files, so they drop one, as the .ann and .json inputs do
    lexicon = load_lexicon(_read(config.lexicon_path, "utf-8-sig")
                           if config.lexicon_path else None)
    ims = detect_ims(adoc.document, lexicon)
    if config.implicit_ims:
        ims = list(ims) + list(resolve_implicit_ims(
            adoc.document, _related_spans(adoc), ims, lexicon))
        ims.sort(key=lambda m: m.span)

    prefs = (parse_preference_file(_read(config.prefs_path, "utf-8-sig"))
             if config.prefs_path else None)
    kinds = (parse_kind_override_file(_read(config.kinds_path, "utf-8-sig"))
             if config.kinds_path else None)

    ekb = build_ekb(adoc, ims, prefs=prefs, kind_overrides=kinds,
                    lexicon=lexicon)
    kbg = build_kb_graph(ekb)
    aset = derive_argument_set(ekb)
    akg = build_akg(kbg, aset, adoc)
    af = sem.project_af(akg)
    report = sem.semantics_report(af, cap=config.cap,
                                  check_sets=config.check_sets)
    warnings = tuple(dict.fromkeys(message for _, message in trace.records[start:]))

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
    return ExitReport(0, counts, warnings, (), artifacts)


def render_format(fmt, artifacts):
    if fmt not in _EXPORTS:
        raise PipelineError("unknown format %r" % fmt)
    _, name, export = _EXPORTS[fmt]
    return export(artifacts[name])


def _emit(out_dir, name, payload):
    """Write payload to out_dir/name and return that path, joined as given;
    with no out_dir (None or empty) print it to stdout and return None."""
    if not out_dir:
        sys.stdout.write(payload)
        return None
    os.makedirs(out_dir, exist_ok=True)
    target = os.path.join(out_dir, name)
    with open(target, "w", encoding="utf-8") as f:
        f.write(payload)
    return target


def write_formats(config, report):
    doc_id = report.artifacts["doc"].document.doc_id
    written = []
    for fmt in config.formats:
        payload = render_format(fmt, report.artifacts)
        written.append(_emit(config.out_dir, "%s.%s" % (doc_id, _SUFFIX[fmt]), payload))
    return report._replace(written=tuple(filter(None, written)))


def _items(chunk):
    """The items of a comma-separated option value, each stripped of the
    spaces around it; empty items are skipped."""
    return [p for p in map(str.strip, chunk.split(",")) if p]


def _config_from(ns):
    formats = [f for chunk in ns.format or [] for f in _items(chunk)]
    bad = [f for f in formats if f not in FORMATS]
    if bad:
        raise PipelineError("unknown format(s): %s (choose from %s)"
                            % (", ".join(bad), ", ".join(FORMATS)))
    if ns.cap < 0:
        raise PipelineError("--cap must be 0 or more, not %d" % ns.cap)
    check_sets = tuple(tuple(dict.fromkeys(_items(chunk))) for chunk in ns.check_set or [])
    if () in check_sets:
        raise PipelineError("--check-set needs at least one argument id")
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
    target = _emit(config.out_dir, "%s.json" % adoc.document.doc_id,
                   serialize_canonical_json(adoc))
    if target:
        print("wrote %s" % target)
    return 0


def _cmd_pipeline(verb, config):
    _, defaults, summary = _VERBS[verb]
    config = config._replace(formats=config.formats or defaults)
    if not config.formats:
        raise PipelineError("%s needs at least one --format" % verb)
    report = write_formats(config, run_pipeline(config))
    lines = (report.summary_lines() if summary
             else ["wrote %s" % p for p in report.written])
    for line in lines:
        print(line)
    return report.status


def build_parser():
    parser = argparse.ArgumentParser(
        prog="akgraph",
        description="Build attributed knowledge-base and argument graphs "
                    "from annotated argumentative text.")
    sub = parser.add_subparsers(dest="command", required=True)
    verbs = [("ingest", "parse and validate annotations, emit canonical JSON")]
    verbs += [(verb, help_text) for verb, (help_text, _, _) in _VERBS.items()]
    for verb, help_text in verbs:
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--input", required=True,
                       help="input text file, or canonical JSON document")
        p.add_argument("--ann", help="brat-style annotation file (with --input text)")
        p.add_argument("--out", help="output directory; without it, or when "
                                     "empty, output goes to stdout")
        if verb == "ingest":
            continue
        p.add_argument("--lexicon", help="marker lexicon file (tab-separated)")
        p.add_argument("--prefs", help="preference chain file")
        p.add_argument("--kinds", help="premise kind override file")
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
    """Run one verb; every warning shows on stderr as `module: message`
    when it is raised."""
    ns = build_parser().parse_args(argv)
    try:
        with Trace(echo=True):
            if ns.command == "ingest":
                status = _cmd_ingest(PipelineConfig(ns.input, ns.ann, out_dir=ns.out))
            else:
                status = _cmd_pipeline(ns.command, _config_from(ns))
        sys.stdout.flush()   # so that a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader closed stdout early: the interpreter's final flush of
        # stdout would fail again, so it goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:   # every akgraph error is a ValueError
        print("%s.%s: %s" % (exc.__class__.__module__,
                             exc.__class__.__name__, exc), file=sys.stderr)
        return 1


def entry():
    """The `akgraph` script and `python -m akgraph.cli`: main on sys.argv,
    then the live heap frozen, so that the collections at interpreter exit
    do not walk what the run left alive."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    # the imported module's entry, so that under `python -m` the CLI's own
    # errors are named akgraph.cli.*, as under the installed script
    from akgraph.cli import entry
    sys.exit(entry())
