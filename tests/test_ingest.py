import json
import re
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akgraph import ingest

TXT = "Cats are great. Therefore, you should get a cat.\n"


def make_ann(lines):
    return "\n".join(lines) + "\n"


def test_paragraph_spans_skip_blank_lines():
    doc = ingest.make_text_document("d", "Title\n\nBody one.\nBody two.\n")
    assert doc.paragraph_spans == ((0, 5), (7, 16), (17, 26))
    assert doc.paragraph_of(0) == 0
    assert doc.paragraph_of(8) == 1
    assert doc.paragraph_of(6) is None   # the blank separator


def _linear_paragraph_of(doc, offset):
    for i, (s, e) in enumerate(doc.paragraph_spans):
        if s <= offset < e:
            return i
    return None


@pytest.mark.parametrize("text, offset, want", [
    ("Title\n\nBody one.\nBody two.\n", 7, 1),      # first offset of a paragraph
    ("Title\n\nBody one.\nBody two.\n", 15, 1),     # its last offset
    ("Title\n\nBody one.\nBody two.\n", 16, None),  # its end: the newline
    ("Title\n\nBody one.\nBody two.\n", 5, None),   # blank separator line
    ("Title\n\nBody one.\nBody two.\n", 26, None),  # past the last paragraph
    ("Title\n\nBody one.\nBody two.\n", 99, None),  # past the end of the text
    ("\n\nLead\n", 0, None),                        # leading newlines
    ("\n\nLead\n", 2, 0),
    ("one\n   \ntwo", 5, None),                      # whitespace-only line
    ("one\n   \ntwo", 10, 1),
    ("", 0, None),                                    # empty text
    ("a", -1, None),
])
def test_paragraph_of_boundaries(text, offset, want):
    doc = ingest.make_text_document("d", text)
    assert doc.paragraph_of(offset) == want
    assert _linear_paragraph_of(doc, offset) == want


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="ab \n", max_size=30))
def test_paragraph_of_matches_linear_scan(text):
    doc = ingest.make_text_document("d", text)
    for offset in range(-1, len(text) + 2):
        assert doc.paragraph_of(offset) == _linear_paragraph_of(doc, offset)


def test_crlf_normalized():
    doc = ingest.make_text_document("d", "a\r\nb\r\n")
    assert doc.raw_text == "a\nb\n"


def test_parse_brat_roundtrip_components():
    ann = make_ann([
        "T1\tPremise 0 14\tCats are great",
        "T2\tClaim 27 47\tyou should get a cat",
        "R1\tSupports Arg1:T1 Arg2:T2",
        "A1\tStance T2 For",
    ])
    doc = ingest.parse_brat_ann(TXT, ann, doc_id="cats")
    assert [c.comp_id for c in doc.components] == ["T1", "T2"]
    assert doc.component("T2").surface_text == "you should get a cat"
    assert doc.relations[0].kind == "Supports"
    assert doc.stances[0].stance == "For"
    assert doc.document.doc_id == "cats"


def test_parse_brat_inference_rule_entity():
    ann = make_ann([
        "T1\tPremise 0 14\tCats are great",
        "T2\tInferenceRule 16 25\tTherefore",
        "R1\tAttacks Arg1:T1 Arg2:T2",
    ])
    doc = ingest.parse_brat_ann(TXT, ann)
    assert doc.rule_spans == (ingest.RuleSpanAnnotation("T2", 16, 25, "Therefore"),)
    assert doc.component("T2") is None
    assert doc.relations[0].target == "T2"


def test_span_mismatch_rejected():
    ann = make_ann(["T1\tPremise 0 14\tCats are awful"])
    with pytest.raises(ingest.SpanMismatch):
        ingest.parse_brat_ann(TXT, ann)


def test_unknown_entity_type_rejected():
    ann = make_ann(["T1\tBanana 0 14\tCats are great"])
    with pytest.raises(ingest.MalformedLine):
        ingest.parse_brat_ann(TXT, ann)


def test_dangling_relation_rejected():
    ann = make_ann([
        "T1\tPremise 0 14\tCats are great",
        "R1\tSupports Arg1:T1 Arg2:T9",
    ])
    with pytest.raises(ingest.DanglingReference):
        ingest.parse_brat_ann(TXT, ann)


def test_self_relation_rejected():
    ann = make_ann([
        "T1\tPremise 0 14\tCats are great",
        "R1\tSupports Arg1:T1 Arg2:T1",
    ])
    with pytest.raises(ingest.MalformedLine):
        ingest.parse_brat_ann(TXT, ann)


def test_duplicate_stance_last_wins():
    ann = make_ann([
        "T1\tClaim 0 14\tCats are great",
        "A1\tStance T1 For",
        "A2\tStance T1 Against",
    ])
    doc = ingest.parse_brat_ann(TXT, ann)
    assert len(doc.stances) == 1
    assert doc.stances[0].stance == "Against"


def test_relation_kind_capitalized():
    ann = make_ann([
        "T1\tPremise 0 14\tCats are great",
        "T2\tClaim 27 47\tyou should get a cat",
        "R1\tsupports Arg1:T1 Arg2:T2",
    ])
    doc = ingest.parse_brat_ann(TXT, ann)
    assert doc.relations[0].kind == "Supports"


def test_canonical_json_roundtrip():
    ann = make_ann([
        "T1\tPremise 0 14\tCats are great",
        "T2\tClaim 27 47\tyou should get a cat",
        "T3\tInferenceRule 16 25\tTherefore",
        "R1\tSupports Arg1:T1 Arg2:T2",
        "A1\tStance T2 Against",
    ])
    doc = ingest.parse_brat_ann(TXT, ann, doc_id="cats")
    payload = ingest.serialize_canonical_json(doc)
    again = ingest.parse_canonical_json(payload)
    assert again == doc
    # a second serialize produces identical bytes
    assert ingest.serialize_canonical_json(again) == payload


def test_canonical_json_schema_errors():
    with pytest.raises(ingest.SchemaViolation):
        ingest.parse_canonical_json("[]")
    with pytest.raises(ingest.SchemaViolation):
        ingest.parse_canonical_json("{not json")
    with pytest.raises(ingest.SchemaViolation):
        ingest.parse_canonical_json(json.dumps({"doc_id": "x"}))
    bad = {"doc_id": "x", "text": "abc",
           "components": [{"id": "T1", "kind": "Premise", "start": "0", "end": 3}]}
    with pytest.raises(ingest.SchemaViolation):
        ingest.parse_canonical_json(json.dumps(bad))


def test_huge_numbers_refused():
    # int() refuses strings of over 4300 digits with a plain ValueError
    with pytest.raises(ingest.MalformedLine):
        ingest.parse_brat_ann(TXT, "T1\tPremise 0 %s\tx\n" % ("1" * 5000))
    with pytest.raises(ingest.SchemaViolation):
        ingest.parse_canonical_json('{"text": 1%s}' % ("0" * 5000))
    # too deep for the decoder: a RecursionError
    with pytest.raises(ingest.SchemaViolation):
        ingest.parse_canonical_json("[" * 100000)


def test_note_lines_skipped_other_prefixes_refused():
    ann = make_ann(["#1\tAnnotatorNotes T1\tthe premise", "T1\tPremise 0 14\tCats are great"])
    assert ingest.parse_brat_ann(TXT, ann).component("T1").kind == "Premise"
    with pytest.raises(ingest.MalformedLine, match="line 1: unknown line prefix"):
        ingest.parse_brat_ann(TXT, make_ann(["E1\tEvent:T1"]))


_CAT = ["T1\tPremise 0 14\tCats are great", "T2\tClaim 27 47\tyou should get a cat"]


@pytest.mark.parametrize("lines, message", [
    (_CAT + ["R1\tSupports Arg1:T1 Arg2:T2", "R1\tAttacks Arg1:T2 Arg2:T1"],
     "duplicate id 'R1'"),
    (_CAT + ["A1\tStance T2 For", "A1\tStance T2 Against"], "duplicate id 'A1'"),
    (_CAT + ["A1\tStance T2 Against", "A1\tStance T2 For"], "duplicate id 'A1'"),
    (_CAT + ["T1\tClaim 27 47\tyou should get a cat"], "duplicate id 'T1'"),
], ids=["relation", "stance", "stance-swapped", "entity"])
def test_brat_refuses_repeated_ids(lines, message):
    with pytest.raises(ingest.MalformedLine) as e:
        ingest.parse_brat_ann(TXT, make_ann(lines))
    assert str(e.value) == message


def test_canonical_json_refuses_repeated_relation_and_stance_ids():
    def doc(relations=(), stances=()):
        return json.dumps({"doc_id": "x", "text": TXT, "components": [
            {"id": "T1", "kind": "Premise", "start": 0, "end": 14},
            {"id": "T2", "kind": "Claim", "start": 27, "end": 47}],
            "relations": list(relations), "stances": list(stances)})

    sup = {"id": "R1", "kind": "Supports", "source": "T1", "target": "T2"}
    pro = {"id": "A1", "claim": "T2", "stance": "For"}
    with pytest.raises(ingest.SchemaViolation,
                       match=r"^\$\.relations\[1\]\.id: duplicate id 'R1'$"):
        ingest.parse_canonical_json(doc([sup, dict(sup, source="T2", target="T1")]))
    with pytest.raises(ingest.SchemaViolation,
                       match=r"^\$\.stances\[1\]\.id: duplicate id 'A1'$"):
        ingest.parse_canonical_json(doc(stances=[pro, dict(pro, stance="Against")]))
    # relation and stance ids are not component ids: they may be equal
    ok = ingest.parse_canonical_json(doc([dict(sup, id="T1")], [dict(pro, id="T2")]))
    assert (ok.relations[0].rel_id, ok.stances[0].attr_id) == ("T1", "T2")


def test_canonical_json_refuses_duplicate_ids():
    def doc(components, rule_spans=()):
        return json.dumps({"doc_id": "x", "text": "Cats purr.",
                           "components": list(components),
                           "rule_spans": list(rule_spans)})

    cats = {"id": "T1", "kind": "Premise", "start": 0, "end": 4}
    purr = {"id": "T1", "kind": "Premise", "start": 5, "end": 9}
    with pytest.raises(ingest.SchemaViolation, match=r"\$\.components\[1\]\.id: duplicate id 'T1'"):
        ingest.parse_canonical_json(doc([cats, purr]))
    # components and rule spans share one id space, as in brat input
    with pytest.raises(ingest.SchemaViolation, match=r"\$\.rule_spans\[0\]\.id: duplicate id 'T1'"):
        ingest.parse_canonical_json(doc([cats], [{"id": "T1", "start": 5, "end": 9}]))
    ok = ingest.parse_canonical_json(doc([cats, dict(purr, id="T2")],
                                         [{"id": "T3", "start": 5, "end": 9}]))
    assert [c.comp_id for c in ok.components] == ["T1", "T2"]


@pytest.mark.parametrize("key, entry", [
    ("components", {"id": "T1", "kind": "Premise", "start": 5, "end": 99}),
    ("rule_spans", {"id": "T1", "start": 5, "end": 99}),
])
def test_canonical_json_span_outside_text_refused(key, entry):
    # components and rule spans share one bounds check and one message
    content = json.dumps({"doc_id": "x", "text": "Cats purr.", key: [entry]})
    with pytest.raises(ingest.SchemaViolation) as e:
        ingest.parse_canonical_json(content)
    assert str(e.value) == "$.%s[0]: span (5,99) outside text of length 10" % key


def test_validate_document_reports_violations():
    # one violation of each kind, listed in the one fixed order: components,
    # rule spans, relations, stances; each detail is the parsers' refusal text
    C, S = ingest.ComponentAnnotation, ingest.StanceAnnotation
    R = ingest.RelationAnnotation
    doc = ingest.AnnotatedDocument(
        ingest.make_text_document("d", TXT),
        components=(C("T1", "Premise", 0, 14, "Cats are great"),
                    C("T1", "Claim", 27, 47, "you should get a cat"),
                    C("T2", "Premise", 5, 99, "x"),
                    C("T3", "Widget", 27, 47, "you should get a cat"),
                    C("T5", "Claim", 27, 47, "you should get a cat")),
        rule_spans=(ingest.RuleSpanAnnotation("T4", 16, 25, "Thereupon"),),
        relations=(R("R1", "Supports", "T1", "T5"), R("R1", "Supports", "T1", "T9"),
                   R("R2", "Attacks", "T5", "T5")),
        stances=(S("A1", "T5", "For"), S("A1", "T5", "Against"), S("A2", "T1", "For")))
    V = ingest.Violation
    assert ingest.validate_document(doc) == [
        V("DuplicateId", "T1", "duplicate id 'T1'"),
        V("SpanMismatch", "T2", "span (5,99) outside text of length 49"),
        V("UnknownKind", "T3", "unknown kind 'Widget'"),
        V("SpanMismatch", "T4", "annotation text 'Thereupon' != document text 'Therefore'"),
        V("DuplicateId", "R1", "duplicate id 'R1'"),
        V("DanglingReference", "R1", "R1 cites missing id T9"),
        V("SelfRelation", "R2", "R2 relates T5 to itself"),
        V("DuplicateId", "A1", "duplicate id 'A1'"),
        V("StanceOnNonClaim", "A2", "A2 sets a stance on T1, which is not a Claim")]


def test_validate_document_clean(essay):
    assert ingest.validate_document(essay["doc"]) == []


def test_lookups_take_first_of_duplicate_ids():
    doc = ingest.AnnotatedDocument(
        ingest.make_text_document("d", TXT),
        components=(ingest.ComponentAnnotation("T1", "Premise", 0, 14, "Cats are great"),
                    ingest.ComponentAnnotation("T1", "Claim", 27, 47, "you should get a cat")),
        rule_spans=(ingest.RuleSpanAnnotation("T2", 16, 25, "Therefore"),))
    assert doc.component("T1").kind == "Premise"
    assert doc.component("T2") is None


# ------------------------------------------------------------ parser fuzz

@settings(max_examples=200, deadline=None)
@given(st.text())
def test_any_string_parses_or_refuses(content):
    for parse in (lambda: ingest.parse_brat_ann(TXT, content),
                  lambda: ingest.parse_canonical_json(content)):
        try:
            assert isinstance(parse(), ingest.AnnotatedDocument)
        except ingest.IngestError:
            pass


# each field is mostly valid, so that a fair share of documents parses
_T = st.integers(1, 3)
_SPAN = st.one_of(*[st.lists(st.integers(0, len(TXT) - 1), min_size=2, max_size=2)
                    .map(sorted)] * 3,
                  st.lists(st.integers(0, len(TXT) + 1), min_size=2, max_size=2))
_ENTITY = st.tuples(st.just("T"), _T, st.sampled_from(ingest.COMPONENT_KINDS * 2 + (
    ingest.RULE_SPAN_KIND, "Widget")), _SPAN)
_RELATION = st.tuples(st.just("R"), st.integers(1, 3), st.sampled_from(
    ingest.RELATION_KINDS * 2 + ("supports", "Rebuts")), _T, _T)
_STANCE = st.tuples(st.just("A"), st.integers(1, 3), st.sampled_from(
    ingest.STANCE_VALUES * 2 + ("Maybe",)), _T)
# entities with distinct ids, then relations, stances and entities that may
# repeat an id
_RECORDS = st.builds(lambda *parts: [rec for part in parts for rec in part],
                     st.lists(_ENTITY, min_size=2, max_size=3, unique_by=itemgetter(1)),
                     st.lists(st.one_of(_RELATION, _STANCE, _RELATION, _STANCE, _ENTITY),
                              max_size=3))


def _as_brat(records):
    lines = []
    for rec in records:
        if rec[0] == "T":
            _, i, kind, (start, end) = rec
            lines.append("T%d\t%s %d %d\t%s" % (i, kind, start, end, TXT[start:end]))
        elif rec[0] == "R":
            lines.append("R%d\t%s Arg1:T%d Arg2:T%d" % rec[1:])
        else:
            lines.append("A%d\tStance T%d %s" % (rec[1], rec[3], rec[2]))
    return make_ann(lines)


def _as_json(records):
    data = {"doc_id": "doc", "text": TXT, "components": [], "rule_spans": [],
            "relations": [], "stances": []}
    for rec in records:
        if rec[0] == "T":
            _, i, kind, (start, end) = rec
            entry = {"id": "T%d" % i, "start": start, "end": end}
            if kind == ingest.RULE_SPAN_KIND:
                data["rule_spans"].append(entry)
            else:
                data["components"].append(dict(entry, kind=kind))
        elif rec[0] == "R":
            _, i, kind, src, tgt = rec
            data["relations"].append({"id": "R%d" % i, "kind": kind,
                                      "source": "T%d" % src, "target": "T%d" % tgt})
        else:
            _, i, value, claim = rec
            data["stances"].append({"id": "A%d" % i, "claim": "T%d" % claim,
                                    "stance": value})
    return json.dumps(data)


# the parsers are a run's only document check: whatever they accept must
# hold every invariant validate_document checks
@settings(max_examples=300, deadline=None)
@given(_RECORDS)
def test_accepted_documents_are_valid(records):
    for parse in (lambda: ingest.parse_brat_ann(TXT, _as_brat(records)),
                  lambda: ingest.parse_canonical_json(_as_json(records))):
        try:
            doc = parse()
        except ingest.IngestError:
            continue
        assert ingest.validate_document(doc) == []
        again = ingest.parse_canonical_json(ingest.serialize_canonical_json(doc))
        assert again == doc


def test_natural_key_orders_ties_by_id():
    long_id = "A" + "9" * 19        # past the 18-digit bound: ordered by text
    ids = ["A10", "A1", "B", long_id, "A01", "A2", "A001"]
    assert sorted(ids, key=ingest.natural_key) == [
        "A001", "A01", "A1", "A2", "A10", long_id, "B"]


_OLD_ID = re.compile(r"([A-Za-z]+)(\d+)$")


def _old_key(any_id):
    """The earlier id key, which ties ids equal as numbers; natural_key keeps
    every order it makes on ids of up to 18 digits."""
    m = _OLD_ID.match(any_id)
    return (m.group(1), int(m.group(2))) if m else (any_id, -1)


_ids = st.one_of(st.text(max_size=4),
                 st.builds(str.__add__, st.sampled_from(["A", "T", "R", "Ab"]),
                           st.text("0123456789", min_size=1, max_size=22)))


@settings(max_examples=500)
@given(_ids, _ids)
def test_natural_key_is_total_and_keeps_the_old_order(a, b):
    assert (ingest.natural_key(a) == ingest.natural_key(b)) == (a == b)
    for i in (a, b):
        m = _OLD_ID.match(i)
        if m and len(m.group(2)) > 18:
            return
    if _old_key(a) < _old_key(b):
        assert ingest.natural_key(a) < ingest.natural_key(b)
