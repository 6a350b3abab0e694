"""Parsers for pre-annotated argumentative documents.

Two input formats are supported: brat standoff (.txt + .ann pair) and a
canonical JSON schema.  Both produce the same AnnotatedDocument structure,
which downstream stages treat as ground truth.

Offsets are 0-based, end-exclusive character offsets over the raw text
(CRLF is normalized to LF before offsets are interpreted).
"""

import json
import logging
import re
from bisect import bisect_right
from collections import namedtuple
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

logger = logging.getLogger(__name__)

COMPONENT_KINDS = ("MajorClaim", "Claim", "Premise")
RULE_SPAN_KIND = "InferenceRule"
RELATION_KINDS = ("Supports", "Attacks")
STANCE_VALUES = ("For", "Against")

# brat standoff line shapes
_ENT_PATT = re.compile(r"^(T\d+)\t(\S+) (\d+) (\d+)\t(.*)$")
_REL_PATT = re.compile(r"^(R\d+)\t(\S+) Arg1:(\S+) Arg2:(\S+)\s*$")
_ATTR_PATT = re.compile(r"^(A\d+)\t(\S+) (\S+) (\S+)\s*$")


class IngestError(Exception):
    """Base class for annotation parsing failures."""


class MalformedLine(IngestError):
    pass


class SpanMismatch(IngestError):
    pass


class DanglingReference(IngestError):
    pass


class SchemaViolation(IngestError):
    """Canonical JSON input violates the schema; message carries the field path."""


class TextDocument(NamedTuple):
    """Raw essay text plus derived paragraph structure.

    Paragraphs are the non-empty lines of the text, in order; a component
    belongs to the paragraph containing its start offset.
    """
    doc_id: str
    raw_text: str
    paragraph_spans: tuple = ()

    def paragraph_of(self, offset):
        """Index of the paragraph containing the offset, or None."""
        i = bisect_right(self.paragraph_spans, offset, key=itemgetter(0)) - 1
        if i >= 0 and offset < self.paragraph_spans[i][1]:
            return i
        return None


def _paragraph_spans(text):
    spans = []
    for m in re.finditer(r"[^\n]+", text):
        if m.group().strip():
            spans.append((m.start(), m.end()))
    return tuple(spans)


def make_text_document(doc_id, raw_text):
    raw_text = raw_text.replace("\r\n", "\n")
    return TextDocument(doc_id, raw_text, _paragraph_spans(raw_text))


class ComponentAnnotation(NamedTuple):
    comp_id: str
    kind: str          # MajorClaim | Claim | Premise
    start: int
    end: int
    surface_text: str


class RuleSpanAnnotation(NamedTuple):
    """Annotated inference-rule region (marker span); optional in both formats.

    Relations may target a rule span, which is how an annotated undercut
    reaches the rule rather than a premise or conclusion.
    """
    span_id: str
    start: int
    end: int
    surface_text: str


class RelationAnnotation(NamedTuple):
    rel_id: str
    kind: str          # Supports | Attacks
    source: str        # component id
    target: str        # component or rule-span id


class StanceAnnotation(NamedTuple):
    attr_id: str
    claim: str         # component id of a Claim
    stance: str        # For | Against


class AnnotatedDocument(namedtuple(
        "AnnotatedDocument", "document components relations stances rule_spans",
        defaults=((), (), (), ()))):
    """A TextDocument with its components, relations, stances and rule spans,
    each a tuple of annotation records."""

    # reversed, so that of duplicate ids the first wins, as in a scan
    @cached_property
    def _component_index(self):
        return {c.comp_id: c for c in reversed(self.components)}

    @cached_property
    def _rule_span_index(self):
        return {r.span_id: r for r in reversed(self.rule_spans)}

    def component(self, comp_id):
        return self._component_index.get(comp_id)

    def rule_span(self, span_id):
        return self._rule_span_index.get(span_id)


class Violation(NamedTuple):
    code: str
    subject: str
    detail: str = ""

    def __str__(self):
        return "%s(%s) %s" % (self.code, self.subject, self.detail)


def _check_span(text, start, end, surface, subject):
    if not (0 <= start <= end <= len(text)):
        raise SpanMismatch("%s: span (%d,%d) outside text of length %d"
                           % (subject, start, end, len(text)))
    actual = text[start:end]
    if actual != surface:
        raise SpanMismatch("%s: annotation text %r != document text %r"
                           % (subject, surface, actual))


def _dedupe_stances(stances):
    """Last stance per claim wins; duplicates are tolerated with a warning."""
    by_claim = {}
    for st in stances:
        if st.claim in by_claim:
            logger.warning("duplicate stance for %s: keeping %s", st.claim, st.attr_id)
        by_claim[st.claim] = st
    return tuple(by_claim.values())


def parse_brat_ann(txt_content, ann_content, doc_id="doc"):
    """Parse a brat .txt/.ann pair into an AnnotatedDocument.

    Recognized lines: T (entity: MajorClaim/Claim/Premise components and
    InferenceRule spans), R (supports/attacks relation), A (Stance attribute).
    Anything else is rejected.
    """
    doc = make_text_document(doc_id, txt_content)
    text = doc.raw_text
    ann_content = ann_content.replace("\r\n", "\n")

    components, rule_spans, relations, stances = [], [], [], []
    seen_ids = set()
    for lineno, line in enumerate(ann_content.split("\n"), 1):
        if not line.strip():
            continue
        if line.startswith("T"):
            m = _ENT_PATT.match(line)
            if not m:
                raise MalformedLine("line %d: bad entity line: %r" % (lineno, line))
            tid, etype, start, end, surface = m.groups()
            start, end = int(start), int(end)
            if tid in seen_ids:
                raise MalformedLine("line %d: duplicate id %s" % (lineno, tid))
            seen_ids.add(tid)
            _check_span(text, start, end, surface, tid)
            if etype in COMPONENT_KINDS:
                components.append(ComponentAnnotation(tid, etype, start, end, surface))
            elif etype == RULE_SPAN_KIND:
                rule_spans.append(RuleSpanAnnotation(tid, start, end, surface))
            else:
                raise MalformedLine("line %d: unknown entity type %r" % (lineno, etype))
        elif line.startswith("R"):
            m = _REL_PATT.match(line)
            if not m:
                raise MalformedLine("line %d: bad relation line: %r" % (lineno, line))
            rid, rtype, src, tgt = m.groups()
            rtype = rtype.capitalize()
            if rtype not in RELATION_KINDS:
                raise MalformedLine("line %d: unknown relation type %r" % (lineno, rtype))
            relations.append(RelationAnnotation(rid, rtype, src, tgt))
        elif line.startswith("A"):
            m = _ATTR_PATT.match(line)
            if not m:
                raise MalformedLine("line %d: bad attribute line: %r" % (lineno, line))
            aid, atype, tid, value = m.groups()
            if atype != "Stance" or value not in STANCE_VALUES:
                raise MalformedLine("line %d: unsupported attribute %r" % (lineno, line))
            stances.append(StanceAnnotation(aid, tid, value))
        else:
            raise MalformedLine("line %d: unknown line prefix: %r" % (lineno, line))

    adoc = AnnotatedDocument(doc, tuple(components), tuple(relations),
                             _dedupe_stances(stances), tuple(rule_spans))
    _check_references(adoc)
    return adoc


def _check_references(doc):
    known = {c.comp_id for c in doc.components} | {r.span_id for r in doc.rule_spans}
    for rel in doc.relations:
        for ref in (rel.source, rel.target):
            if ref not in known:
                raise DanglingReference("%s cites missing id %s" % (rel.rel_id, ref))
        if rel.source == rel.target:
            raise MalformedLine("%s relates %s to itself" % (rel.rel_id, rel.source))
    for st in doc.stances:
        if st.claim not in known:
            raise DanglingReference("%s cites missing id %s" % (st.attr_id, st.claim))


def _want(obj, key, kind, path):
    if key not in obj:
        raise SchemaViolation("%s.%s: missing" % (path, key))
    val = obj[key]
    # json.loads gives exact types; an exact test keeps bool (an int
    # subclass) out of offsets
    if type(val) is not kind:
        raise SchemaViolation("%s.%s: expected %s, got %s"
                              % (path, key, kind.__name__, type(val).__name__))
    return val


def _entries(data, key):
    """(JSON path, object) for each entry of the optional list data[key]."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise SchemaViolation("$.%s: expected list, got %s" % (key, type(entries).__name__))
    for i, entry in enumerate(entries):
        path = "$.%s[%d]" % (key, i)
        if not isinstance(entry, dict):
            raise SchemaViolation("%s: expected object, got %s" % (path, type(entry).__name__))
        yield path, entry


def _new_id(seen, entry_id, path):
    """Claim entry_id in the one id space components and rule spans share."""
    if entry_id in seen:
        raise SchemaViolation("%s.id: duplicate id %r" % (path, entry_id))
    seen.add(entry_id)
    return entry_id


def parse_canonical_json(content, doc_id=None):
    """Parse the canonical JSON document schema.

    Shape: {doc_id, text, components:[{id,kind,start,end}],
    relations:[{id,kind,source,target}], stances:[{id,claim,stance}]}
    plus an optional rule_spans:[{id,start,end}] list.
    """
    try:
        data = json.loads(content)
    except json.JSONDecodeError as e:
        raise SchemaViolation("$: not valid JSON: %s" % e)
    if not isinstance(data, dict):
        raise SchemaViolation("$: expected object")

    text = _want(data, "text", str, "$")
    doc = make_text_document(doc_id or _want(data, "doc_id", str, "$"), text)

    seen_ids = set()
    components = []
    for path, c in _entries(data, "components"):
        kind = _want(c, "kind", str, path)
        if kind not in COMPONENT_KINDS:
            raise SchemaViolation("%s.kind: unknown kind %r" % (path, kind))
        start = _want(c, "start", int, path)
        end = _want(c, "end", int, path)
        cid = _new_id(seen_ids, _want(c, "id", str, path), path)
        try:
            _check_span(doc.raw_text, start, end, doc.raw_text[start:end], cid)
        except SpanMismatch as e:
            raise SchemaViolation("%s: %s" % (path, e))
        components.append(ComponentAnnotation(cid, kind, start, end,
                                              doc.raw_text[start:end]))

    rule_spans = []
    for path, r in _entries(data, "rule_spans"):
        start = _want(r, "start", int, path)
        end = _want(r, "end", int, path)
        rid = _new_id(seen_ids, _want(r, "id", str, path), path)
        if not (0 <= start <= end <= len(doc.raw_text)):
            raise SchemaViolation("%s: span out of bounds" % path)
        rule_spans.append(RuleSpanAnnotation(rid, start, end, doc.raw_text[start:end]))

    relations = []
    for path, r in _entries(data, "relations"):
        kind = _want(r, "kind", str, path)
        if kind not in RELATION_KINDS:
            raise SchemaViolation("%s.kind: unknown kind %r" % (path, kind))
        relations.append(RelationAnnotation(_want(r, "id", str, path), kind,
                                            _want(r, "source", str, path),
                                            _want(r, "target", str, path)))

    stances = []
    for path, s in _entries(data, "stances"):
        stance = _want(s, "stance", str, path)
        if stance not in STANCE_VALUES:
            raise SchemaViolation("%s.stance: unknown value %r" % (path, stance))
        stances.append(StanceAnnotation(_want(s, "id", str, path),
                                        _want(s, "claim", str, path), stance))

    adoc = AnnotatedDocument(doc, tuple(components), tuple(relations),
                             _dedupe_stances(tuple(stances)), tuple(rule_spans))
    try:
        _check_references(adoc)
    except (DanglingReference, MalformedLine) as e:
        raise SchemaViolation(str(e))
    return adoc


def serialize_canonical_json(doc):
    """Render an AnnotatedDocument back into the canonical JSON schema."""
    data = {
        "doc_id": doc.document.doc_id,
        "text": doc.document.raw_text,
        "components": [{"id": c.comp_id, "kind": c.kind,
                        "start": c.start, "end": c.end} for c in doc.components],
        "relations": [{"id": r.rel_id, "kind": r.kind,
                       "source": r.source, "target": r.target} for r in doc.relations],
        "stances": [{"id": s.attr_id, "claim": s.claim,
                     "stance": s.stance} for s in doc.stances],
    }
    if doc.rule_spans:
        data["rule_spans"] = [{"id": r.span_id, "start": r.start, "end": r.end}
                              for r in doc.rule_spans]
    return json.dumps(data, ensure_ascii=False, indent=2) + "\n"


def validate_document(doc):
    """Check all document invariants; returns a list of Violation records."""
    out = []
    text = doc.document.raw_text
    seen = set()
    for c in doc.components:
        if c.comp_id in seen:
            out.append(Violation("DuplicateId", c.comp_id))
        seen.add(c.comp_id)
        if not (0 <= c.start <= c.end <= len(text)):
            out.append(Violation("SpanMismatch", c.comp_id, "span outside text"))
        elif text[c.start:c.end] != c.surface_text:
            out.append(Violation("SpanMismatch", c.comp_id, "surface text differs"))
        if c.kind not in COMPONENT_KINDS:
            out.append(Violation("UnknownKind", c.comp_id, c.kind))
    for r in doc.rule_spans:
        if r.span_id in seen:
            out.append(Violation("DuplicateId", r.span_id))
        seen.add(r.span_id)
        if not (0 <= r.start <= r.end <= len(text)):
            out.append(Violation("SpanMismatch", r.span_id, "span outside text"))
    known = seen
    for rel in doc.relations:
        for ref in (rel.source, rel.target):
            if ref not in known:
                out.append(Violation("DanglingReference", rel.rel_id, ref))
        if rel.source == rel.target:
            out.append(Violation("SelfRelation", rel.rel_id))
    claim_kinds = {c.comp_id: c.kind for c in doc.components}
    for st in doc.stances:
        if st.claim not in known:
            out.append(Violation("DanglingReference", st.attr_id, st.claim))
        elif claim_kinds.get(st.claim) != "Claim":
            out.append(Violation("StanceOnNonClaim", st.attr_id, st.claim))
    return out
