"""Parsers for pre-annotated argumentative documents.

Two input formats are supported: brat standoff (.txt + .ann pair) and a
canonical JSON schema.  Both produce the same AnnotatedDocument structure,
which downstream stages treat as ground truth.

Each parser checks only its format's shapes: line patterns or JSON types,
kind and value vocabularies and doc_id.  The document invariants (unique
ids, spans that slice the text, references that resolve, no self-relation,
stances on claims) are stated once, in _violations: a parser refuses a
document at the first violation validate_document would list.

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


def _violations(text, components, rule_spans, relations, stances):
    """Each broken document invariant as (list name, index, Violation), in a
    fixed order: components, then rule spans, which share one id space; then
    relations; then stances.  A span's detail follows its id; every other
    detail names its subject."""
    n = len(text)
    kind_of = {}
    for key, entries, kinds in (("components", components, COMPONENT_KINDS),
                                ("rule_spans", rule_spans, (RULE_SPAN_KIND,))):
        for i, e in enumerate(entries):
            eid, kind = e[0], getattr(e, "kind", RULE_SPAN_KIND)
            if eid in kind_of:
                yield key, i, Violation("DuplicateId", eid, "duplicate id %r" % eid)
            kind_of.setdefault(eid, kind)      # the first wins, as in component()
            if not 0 <= e.start <= e.end <= n:
                yield key, i, Violation("SpanMismatch", eid,
                                        "span (%d,%d) outside text of length %d"
                                        % (e.start, e.end, n))
            elif text[e.start:e.end] != e.surface_text:
                yield key, i, Violation("SpanMismatch", eid,
                                        "annotation text %r != document text %r"
                                        % (e.surface_text, text[e.start:e.end]))
            if kind not in kinds:
                yield key, i, Violation("UnknownKind", eid, "unknown kind %r" % kind)
    seen = set()
    for i, (rid, _, source, target) in enumerate(relations):
        if rid in seen:
            yield "relations", i, Violation("DuplicateId", rid, "duplicate id %r" % rid)
        seen.add(rid)
        for ref in (source, target):
            if ref not in kind_of:
                yield "relations", i, Violation("DanglingReference", rid,
                                                "%s cites missing id %s" % (rid, ref))
        if source == target:
            yield "relations", i, Violation("SelfRelation", rid,
                                            "%s relates %s to itself" % (rid, source))
    seen = set()
    for i, (aid, claim, _) in enumerate(stances):
        if aid in seen:
            yield "stances", i, Violation("DuplicateId", aid, "duplicate id %r" % aid)
        seen.add(aid)
        if claim not in kind_of:
            yield "stances", i, Violation("DanglingReference", aid,
                                          "%s cites missing id %s" % (aid, claim))
        elif kind_of[claim] != "Claim":
            yield "stances", i, Violation("StanceOnNonClaim", aid,
                                          "%s sets a stance on %s, which is not a Claim"
                                          % (aid, claim))


def _refuse(refusal, text, components, rule_spans, relations, stances):
    """Raise refusal(list name, index, violation) at the first broken invariant."""
    for found in _violations(text, components, rule_spans, relations, stances):
        raise refusal(*found)


def validate_document(doc):
    """Every broken document invariant, as a list of Violation records; the
    parsers refuse a document at the first of them."""
    return [v for _, _, v in _violations(doc.document.raw_text, doc.components,
                                         doc.rule_spans, doc.relations, doc.stances)]


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


def _brat_refusal(key, i, v):
    """The brat parser's exception for v; a span's refusal leads with its id."""
    if v.code == "SpanMismatch":
        return SpanMismatch("%s: %s" % (v.subject, v.detail))
    return (DanglingReference if v.code == "DanglingReference" else MalformedLine)(v.detail)


def parse_brat_ann(txt_content, ann_content, doc_id="doc"):
    """Parse a brat .txt/.ann pair into an AnnotatedDocument.

    Recognized lines: T (entity: MajorClaim/Claim/Premise components and
    InferenceRule spans), R (supports/attacks relation), A (Stance attribute).
    Lines that start with # are brat's notes and are skipped, as brat does;
    anything else is rejected.
    """
    doc = make_text_document(doc_id, txt_content)
    ann_content = ann_content.replace("\r\n", "\n")

    components, rule_spans, relations, stances = [], [], [], []
    for lineno, line in enumerate(ann_content.split("\n"), 1):
        if not line.strip() or line.startswith("#"):
            continue
        if line.startswith("T"):
            m = _ENT_PATT.match(line)
            if not m:
                raise MalformedLine("line %d: bad entity line: %r" % (lineno, line))
            tid, etype, start, end, surface = m.groups()
            if etype in COMPONENT_KINDS:
                components.append(ComponentAnnotation(tid, etype, int(start), int(end), surface))
            elif etype == RULE_SPAN_KIND:
                rule_spans.append(RuleSpanAnnotation(tid, int(start), int(end), surface))
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

    _refuse(_brat_refusal, doc.raw_text, components, rule_spans, relations, stances)
    return AnnotatedDocument(doc, tuple(components), tuple(relations),
                             _dedupe_stances(stances), tuple(rule_spans))


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


def _file_name(doc_id):
    """doc_id, which names the output files, if it is one plain file name."""
    if doc_id in ("", ".", "..") or any(c in doc_id for c in "/\\\0"):
        raise SchemaViolation("$.doc_id: %r is not a plain file name" % doc_id)
    return doc_id


def _json_refusal(key, i, v):
    """The JSON parser's exception for v, led by the entry's path."""
    field = ".id" if v.code == "DuplicateId" else ""
    return SchemaViolation("$.%s[%d]%s: %s" % (key, i, field, v.detail))


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

    components = []
    for path, c in _entries(data, "components"):
        kind = _want(c, "kind", str, path)
        if kind not in COMPONENT_KINDS:
            raise SchemaViolation("%s.kind: unknown kind %r" % (path, kind))
        start = _want(c, "start", int, path)
        end = _want(c, "end", int, path)
        components.append(ComponentAnnotation(_want(c, "id", str, path), kind,
                                              start, end, doc.raw_text[start:end]))

    rule_spans = []
    for path, r in _entries(data, "rule_spans"):
        start = _want(r, "start", int, path)
        end = _want(r, "end", int, path)
        rule_spans.append(RuleSpanAnnotation(_want(r, "id", str, path),
                                             start, end, doc.raw_text[start:end]))

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

    _refuse(_json_refusal, doc.raw_text, components, rule_spans, relations, stances)
    return AnnotatedDocument(doc, tuple(components), tuple(relations),
                             _dedupe_stances(stances), tuple(rule_spans))


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

