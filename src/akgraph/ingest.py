"""Parsers for pre-annotated argumentative documents.

Two input formats are supported: brat standoff (.txt + .ann pair) and a
canonical JSON schema.  Both produce the same AnnotatedDocument structure,
which downstream stages treat as ground truth.

Offsets are 0-based, end-exclusive character offsets over the raw text
(CRLF is normalized to LF before offsets are interpreted).  natural_key,
here where ids are first read, is the one id order every later stage sorts by.
"""

import json
import re
from bisect import bisect_right
from collections import namedtuple
from functools import cached_property, lru_cache
from operator import itemgetter

from .trace import warn

COMPONENT_KINDS = ("MajorClaim", "Claim", "Premise")
RULE_SPAN_KIND = "InferenceRule"
RELATION_KINDS = ("Supports", "Attacks")
STANCE_VALUES = ("For", "Against")

# brat standoff line shapes; offsets are bounded because int() refuses
# strings of over 4300 digits
_ENT_PATT = re.compile(r"^(T\d+)\t(\S+) (\d{1,18}) (\d{1,18})\t(.*)$")
_REL_PATT = re.compile(r"^(R\d+)\t(\S+) Arg1:(\S+) Arg2:(\S+)\s*$")
_ATTR_PATT = re.compile(r"^(A\d+)\t(\S+) (\S+) (\S+)\s*$")
_ID_PATT = re.compile(r"([A-Za-z]+)(\d{1,18})$")


# Ids repeat across a run's graphs and exports, so each is parsed once;
# bounded, because a long-lived process may see many documents.
@lru_cache(maxsize=1 << 16)
def natural_key(any_id):
    """Letters, number, then the id itself: A2 before A10, A01 before A1.
    Other ids, and those of over 18 digits, order by text.  Equal keys
    mean equal ids, so no sort by this key depends on its input's order."""
    m = _ID_PATT.match(any_id)
    if m:
        return (m.group(1), int(m.group(2)), any_id)
    return (any_id, -1, any_id)


class IngestError(ValueError):
    """Base class for annotation parsing failures."""


class MalformedLine(IngestError):
    pass


class SpanMismatch(IngestError):
    pass


class DanglingReference(IngestError):
    pass


class SchemaViolation(IngestError):
    """Canonical JSON input violates the schema; message carries the field path."""


class TextDocument(namedtuple("TextDocument", "doc_id raw_text paragraph_spans",
                               defaults=((),))):
    """Raw essay text plus derived paragraph structure.

    Paragraphs are the non-empty lines of the text, in order; a component
    belongs to the paragraph containing its start offset.
    """
    __slots__ = ()

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


class ComponentAnnotation(namedtuple("ComponentAnnotation",
                                      "comp_id kind start end surface_text")):
    """An argument component: kind is MajorClaim, Claim or Premise."""
    __slots__ = ()


class RuleSpanAnnotation(namedtuple("RuleSpanAnnotation",
                                     "span_id start end surface_text")):
    """Annotated inference-rule region (marker span); optional in both formats.

    Relations may target a rule span, which is how an annotated undercut
    reaches the rule rather than a premise or conclusion.
    """
    __slots__ = ()


class RelationAnnotation(namedtuple("RelationAnnotation", "rel_id kind source target")):
    """A Supports or Attacks relation from a component id (source) to a
    component or rule-span id (target)."""
    __slots__ = ()


class StanceAnnotation(namedtuple("StanceAnnotation", "attr_id claim stance")):
    """A stance, For or Against, on the Claim whose component id is claim."""
    __slots__ = ()


class AnnotatedDocument(namedtuple(
        "AnnotatedDocument", "document components relations stances rule_spans",
        defaults=((), (), (), ()))):
    """A TextDocument with its components, relations, stances and rule spans,
    each a tuple of annotation records."""

    # reversed, so that of duplicate ids the first wins, as in a scan
    @cached_property
    def _component_index(self):
        return {c.comp_id: c for c in reversed(self.components)}

    def component(self, comp_id):
        return self._component_index.get(comp_id)


class Violation(namedtuple("Violation", "code subject detail", defaults=("",))):
    """A broken document invariant: its code, the id it concerns, a detail."""
    __slots__ = ()

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
    """One stance per claim: of several, the one whose id sorts last, so the
    input's order decides nothing.  Each dropped stance gets a warning, in
    claim and id order."""
    by_claim = {}
    for st in stances:
        by_claim.setdefault(st.claim, []).append(st)
    for claim in sorted(by_claim, key=natural_key):
        *dropped, by_claim[claim] = sorted(by_claim[claim],
                                           key=lambda st: natural_key(st.attr_id))
        for st in dropped:
            warn(__name__, "duplicate stance for %s: keeping %s over %s"
                 % (claim, by_claim[claim].attr_id, st.attr_id))
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
    claims = {c.comp_id for c in doc.components if c.kind == "Claim"}
    for st in doc.stances:
        if st.claim not in known:
            raise DanglingReference("%s cites missing id %s" % (st.attr_id, st.claim))
        if st.claim not in claims:
            raise MalformedLine("%s sets a stance on %s, which is not a Claim"
                                % (st.attr_id, st.claim))


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


def _file_name(doc_id):
    """doc_id, which names the output files, if it is one plain file name."""
    if doc_id in ("", ".", "..") or any(c in doc_id for c in "/\\\0"):
        raise SchemaViolation("$.doc_id: %r is not a plain file name" % doc_id)
    return doc_id


def _span_text(text, start, end, path):
    """text[start:end], refused unless the span lies within text."""
    if not (0 <= start <= end <= len(text)):
        raise SchemaViolation("%s: span (%d,%d) outside text of length %d"
                              % (path, start, end, len(text)))
    return text[start:end]


def parse_canonical_json(content):
    """Parse the canonical JSON document schema.

    Shape: {doc_id, text, components:[{id,kind,start,end}],
    relations:[{id,kind,source,target}], stances:[{id,claim,stance}]}
    plus an optional rule_spans:[{id,start,end}] list.  doc_id, which names
    the output files, must be a plain file name.
    """
    try:
        data = json.loads(content)
    except (ValueError, RecursionError) as e:   # JSONDecodeError is a ValueError
        raise SchemaViolation("$: not valid JSON: %s" % e)
    if not isinstance(data, dict):
        raise SchemaViolation("$: expected object")

    text = _want(data, "text", str, "$")
    doc = make_text_document(_file_name(_want(data, "doc_id", str, "$")), text)

    seen_ids = set()
    components = []
    for path, c in _entries(data, "components"):
        kind = _want(c, "kind", str, path)
        if kind not in COMPONENT_KINDS:
            raise SchemaViolation("%s.kind: unknown kind %r" % (path, kind))
        start = _want(c, "start", int, path)
        end = _want(c, "end", int, path)
        cid = _new_id(seen_ids, _want(c, "id", str, path), path)
        components.append(ComponentAnnotation(
            cid, kind, start, end, _span_text(doc.raw_text, start, end, path)))

    rule_spans = []
    for path, r in _entries(data, "rule_spans"):
        start = _want(r, "start", int, path)
        end = _want(r, "end", int, path)
        rid = _new_id(seen_ids, _want(r, "id", str, path), path)
        rule_spans.append(RuleSpanAnnotation(
            rid, start, end, _span_text(doc.raw_text, start, end, path)))

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
