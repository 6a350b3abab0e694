import json

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
    assert doc.rule_span("T2").surface_text == "Therefore"
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


def test_validate_document_reports_violations():
    tdoc = ingest.make_text_document("d", TXT)
    comp = ingest.ComponentAnnotation("T1", "Premise", 0, 14, "Cats are great")
    bad_kind = ingest.ComponentAnnotation("T2", "Widget", 27, 47, "you should get a cat")
    stance = ingest.StanceAnnotation("A1", "T1", "For")   # premise, not claim
    doc = ingest.AnnotatedDocument(tdoc, (comp, bad_kind), (), (stance,))
    codes = {v.code for v in ingest.validate_document(doc)}
    assert "UnknownKind" in codes
    assert "StanceOnNonClaim" in codes


def test_validate_document_clean(essay):
    assert ingest.validate_document(essay["doc"]) == []


def test_lookups_take_first_of_duplicate_ids():
    doc = ingest.AnnotatedDocument(
        ingest.make_text_document("d", TXT),
        components=(ingest.ComponentAnnotation("T1", "Premise", 0, 14, "Cats are great"),
                    ingest.ComponentAnnotation("T1", "Claim", 27, 47, "you should get a cat")),
        rule_spans=(ingest.RuleSpanAnnotation("T2", 16, 25, "Therefore"),
                    ingest.RuleSpanAnnotation("T2", 27, 30, "you")))
    assert doc.component("T1").kind == "Premise"
    assert doc.rule_span("T2").surface_text == "Therefore"
    assert doc.component("T2") is None and doc.rule_span("T1") is None
