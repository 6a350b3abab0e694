import re
from unittest import mock

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from akgraph import markers
from akgraph.ingest import make_text_document


def doc(text):
    return make_text_document("d", text)


def only(matches):
    assert len(matches) == 1, matches
    return matches[0]


# -- the three worked examples --

def test_forward_initial_example():
    text = "She was the most experienced candidate. Therefore, she was selected for the position.\n"
    m = only(markers.detect_ims(doc(text)))
    assert m.heuristic == markers.FORWARD_INITIAL
    assert text[m.span[0]:m.span[1]] == "Therefore"
    a = text[m.antecedent_span[0]:m.antecedent_span[1]]
    c = text[m.consequent_span[0]:m.consequent_span[1]]
    assert a == "She was the most experienced candidate."
    assert c == "she was selected for the position."
    assert text[m.span[1]:m.consequent_span[0]] == ", "


def test_forward_medial_example():
    text = "The evidence was overwhelming; thus, the jury returned a guilty verdict.\n"
    m = only(markers.detect_ims(doc(text)))
    assert m.heuristic == markers.FORWARD_MEDIAL
    assert text[m.span[0]:m.span[1]] == "thus"
    assert text[m.antecedent_span[0]:m.antecedent_span[1]] == "The evidence was overwhelming;"
    assert text[m.consequent_span[0]:m.consequent_span[1]] == "the jury returned a guilty verdict."


def test_backward_causal_example():
    text = "The event was canceled due to the fact that there was a storm.\n"
    m = only(markers.detect_ims(doc(text)))
    assert m.heuristic == markers.BACKWARD_CAUSAL
    assert m.surface == "due to"
    # the bridge phrase is absorbed into the marker span
    assert text[m.span[0]:m.span[1]] == "due to the fact that"
    assert text[m.consequent_span[0]:m.consequent_span[1]] == "The event was canceled"
    assert text[m.antecedent_span[0]:m.antecedent_span[1]] == "there was a storm."
    # backward: consequent precedes antecedent
    assert m.consequent_span[0] < m.antecedent_span[0]


# -- lexicon --

def test_default_lexicon_is_table():
    lex = markers.load_lexicon()
    assert len(lex) == 28
    assert len(lex.surfaces(markers.PREMISE_INDICATOR)) == 12
    assert len(lex.surfaces(markers.CLAIM_INDICATOR)) == 16
    assert "may be inferred" in lex.surfaces(markers.PREMISE_INDICATOR)
    assert "therefore" in lex.surfaces(markers.CLAIM_INDICATOR)


def test_default_lexicon_matches_may_be_inferred():
    text = "The roads are wet, it may be inferred from the rain.\n"
    m = only(markers.detect_ims(doc(text)))
    assert m.heuristic == markers.BACKWARD_CAUSAL
    assert m.surface == "may be inferred"
    assert text[m.consequent_span[0]:m.consequent_span[1]] == "The roads are wet, it"
    assert text[m.antecedent_span[0]:m.antecedent_span[1]] == "from the rain."


def test_lexicon_env_override():
    lex = markers.load_lexicon("ergo\tClaim\n")
    assert lex.surfaces() == ["ergo"]
    text = "Socrates is a man. Ergo, Socrates is mortal.\n"
    m = only(markers.detect_ims(doc(text), lex))
    assert m.surface == "Ergo"


def test_lexicon_rejects_bad_lines():
    with pytest.raises(markers.MalformedLexiconLine):
        markers.load_lexicon("oops\n")
    with pytest.raises(markers.MalformedLexiconLine):
        markers.load_lexicon("x\tMaybe\n")
    with pytest.raises(markers.MalformedLexiconLine):
        markers.load_lexicon("x\tClaim\nX\tPremise\n")   # duplicate surface


# -- heuristic guards --

def test_no_antecedent_sentence_no_match():
    # claim indicator opening a paragraph has nothing to point back at
    assert markers.detect_ims(doc("Therefore, it rained.\n")) == []


def test_single_word_indicator_needs_comma():
    assert markers.detect_ims(doc("It was wet. Therefore it rained.\n")) == []


def test_multiword_indicator_may_skip_comma():
    text = "It was wet. As a result the game was canceled.\n"
    m = only(markers.detect_ims(doc(text)))
    assert m.surface == "As a result"
    assert text[m.span[1]:m.consequent_span[0]] == " "


def test_forward_never_crosses_paragraphs():
    text = "It was wet.\nTherefore, it rained.\n"
    assert markers.detect_ims(doc(text)) == []


def test_marker_inside_word_ignored():
    # "associated" contains "as"; "thustle" is not "thus"
    text = "It was associated with rain. The thustle sang.\n"
    assert markers.detect_ims(doc(text)) == []


def test_longest_overlapping_match_wins():
    # "as a result" and "as" start at the same offset
    text = "It rained hard. As a result, the game was canceled.\n"
    m = only(markers.detect_ims(doc(text)))
    assert m.surface == "As a result"
    assert m.heuristic == markers.FORWARD_INITIAL


def test_backward_causal_needs_leading_clause():
    # segment-initial premise indicator has no consequent clause before it
    assert markers.detect_ims(doc("Because it rained.\n")) == []


def test_backward_causal_plain():
    text = "The game was canceled because it rained.\n"
    m = only(markers.detect_ims(doc(text)))
    assert m.heuristic == markers.BACKWARD_CAUSAL
    assert m.surface == "because"
    assert text[m.consequent_span[0]:m.consequent_span[1]] == "The game was canceled"
    assert text[m.antecedent_span[0]:m.antecedent_span[1]] == "it rained."


def test_bridge_phrase_ends_at_a_word_boundary():
    # "the fact thatched" holds no bridge phrase, as "thustle" holds no "thus"
    text = "Roads are wet due to the fact thatched roofs leak."
    m = only(markers.detect_ims(doc(text)))
    assert m.span == (14, 20)
    assert m.antecedent_span == (21, 50)


def test_bridge_phrase_absorbed_in_any_case():
    text = "Roads are wet due to The Fact That it rained."
    m = only(markers.detect_ims(doc(text)))
    assert text[m.span[0]:m.span[1]] == "due to The Fact That"
    assert text[m.antecedent_span[0]:m.antecedent_span[1]] == "it rained."


@pytest.mark.parametrize("space", ["\xa0", "\t"])
def test_comma_after_any_whitespace_counts(space):
    text = "It was wet. Therefore%s, it rained.\n" % space
    m = only(markers.detect_ims(doc(text)))
    assert text[m.span[1]:m.consequent_span[0]] == space + ", "
    assert text[m.consequent_span[0]:m.consequent_span[1]] == "it rained."


@pytest.mark.parametrize("text", ["Because it rained, roads flooded.\n",
                                  "It was wet. Because it rained, roads flooded.\n"])
def test_segment_initial_premise_indicator_no_candidate(text):
    assert markers._candidates(doc(text), DEFAULT_LEXICON) == []


def test_surface_past_segment_end_gives_no_candidate():
    lex = markers.load_lexicon("Rain. so\tClaim\nwet. so\tPremise\n")
    text = "It was wet. so it is. Rain. so it goes.\n"
    assert markers._candidates(doc(text), lex) == []


@pytest.mark.parametrize("prefix", ["Straße ok. ", "İ ok. "])
@pytest.mark.parametrize("body, marked", [
    ("The road is wet because it rained.\n", "because"),
    ("The event was canceled due to the fact that there was a storm.\n",
     "due to the fact that"),
    ("It rained. Therefore, the road is wet.\n", "Therefore"),
])
def test_spans_survive_length_changing_casefold(prefix, body, marked):
    # casefold turns ß into ss and İ into i + combining dot: one char longer
    text = prefix + body
    m = only(markers.detect_ims(doc(text)))
    assert text[m.span[0]:m.span[1]] == marked


# -- implicit IMs --

def test_implicit_im_at_period():
    text = "It rained all day. The game was canceled.\n"
    pairs = [((0, 17), (19, 40))]
    m = only(markers.resolve_implicit_ims(doc(text), pairs))
    assert m.heuristic == markers.IMPLICIT
    assert m.surface == ""
    assert m.span == (18, 18)           # zero-width, right after the period
    assert m.antecedent_span == (0, 17)
    assert m.consequent_span == (19, 40)


def test_implicit_im_suppressed_by_explicit(caplog):
    text = "It rained all day. Therefore, the game was canceled.\n"
    pairs = [((0, 17), (30, 51))]
    assert markers.resolve_implicit_ims(doc(text), pairs) == []


def test_implicit_im_no_boundary_warns(caplog):
    text = "wet grounds and a canceled game\n"
    out = markers.resolve_implicit_ims(doc(text), [((0, 10), (18, 31))])
    assert out == []
    assert any("no sentence boundary" in r.message for r in caplog.records)


def test_implicit_im_not_inside_a_number(caplog):
    # the "." of "3.5" ends no segment, so it is no sentence boundary
    text = "Prices rose by 3.5 percent and sales fell."
    assert markers.resolve_implicit_ims(doc(text), [((0, 11), (31, 41))]) == []
    assert [r.message for r in caplog.records] == [
        "implicit IM: no sentence boundary between (0, 11) and (31, 41); skipped"]


def test_implicit_im_across_paragraphs_anchors_at_paragraph_end():
    # the earlier span ends its paragraph without punctuation: the paragraph
    # end is the anchor, not the period in the next paragraph
    text = "Dogs bark a lot\nThey are loyal. So get a dog.\n"
    m = only(markers.resolve_implicit_ims(doc(text), [((0, 15), (38, 46))]))
    assert m.span == (15, 15)
    # an earlier span that holds its closing period anchors at its own end
    text = "It rained all day.\nThe game was canceled.\n"
    m = only(markers.resolve_implicit_ims(doc(text), [((0, 18), (19, 41))]))
    assert m.span == (18, 18)


# -- attribute markers --

def test_attribute_marker_prefers_longest():
    lex = markers.load_lexicon()
    assert markers.attribute_marker("However, it failed", lex) == "however"
    assert markers.attribute_marker("on the other hand it worked", lex) == "on the other hand"
    assert markers.attribute_marker("it simply failed", lex) is None
    # lexicon surfaces count too
    assert markers.attribute_marker("therefore it failed", lex) == "therefore"
    # no match inside a longer word
    assert markers.attribute_marker("sofas are comfortable", lex) is None


# -- properties --

@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=" .;,!?\nabcdefghijk therfoubcs", min_size=0, max_size=200))
def test_detected_spans_well_formed(text):
    d = doc(text)
    ims = markers.detect_ims(d)
    n = len(d.raw_text)
    last_start = -1
    for m in ims:
        s, e = m.span
        assert 0 <= s <= e <= n
        assert s >= last_start
        last_start = s
        a0, a1 = m.antecedent_span
        c0, c1 = m.consequent_span
        assert 0 <= a0 <= a1 <= n and 0 <= c0 <= c1 <= n
        if m.heuristic == markers.BACKWARD_CAUSAL:
            assert m.consequent_span[0] < m.antecedent_span[0]
        else:
            assert m.antecedent_span[0] < m.consequent_span[0]
    # survivors never overlap
    for a, b in zip(ims, ims[1:]):
        assert a.span[1] <= b.span[0]


# -- segments against the loop they replaced --

def _reference_segments(d):
    text = d.raw_text
    out = []
    for pstart, pend in d.paragraph_spans:
        para = text[pstart:pend]
        prev_end = 0
        prev_boundary = None
        for m in re.finditer(r"[.!?;]+(?=\s|$)", para):
            seg = para[prev_end:m.end()]
            lead = len(seg) - len(seg.lstrip())
            if seg.strip():
                out.append((pstart + prev_end + lead, pstart + m.end(), prev_boundary))
            prev_boundary = m.group()[-1]
            prev_end = m.end()
        tail = para[prev_end:]
        lead = len(tail) - len(tail.lstrip())
        if tail.strip():
            out.append((pstart + prev_end + lead, pend, prev_boundary))
    return out


# letters, punctuation runs, whitespace that is not " " and newlines
segment_texts = st.lists(st.one_of(
    st.text(alphabet="ab", min_size=1, max_size=3),
    st.text(alphabet=".!?;,", min_size=1, max_size=3),
    st.sampled_from([" ", "\t", "\x0b", "\x1c", "\xa0", "\u2028", "\n"])),
    max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(segment_texts)
def test_segments_agree_with_reference_loop(text):
    d = doc(text)
    assert markers._segments(d) == _reference_segments(d)


# -- compiled matcher against the per-surface scan it replaced --

def _reference_starts_with(text, pos, surface):
    return text[pos:pos + len(surface)].casefold() == surface.casefold()


def _reference_match_at(text, pos, surfaces):
    best = None
    for surface in surfaces:
        if _reference_starts_with(text, pos, surface):
            end = pos + len(surface)
            if end < len(text) and markers._WORD.match(text[end]):
                continue   # inside a longer word
            if best is None or len(surface) > len(best):
                best = surface
    return best


def _reference_attribute_marker(text_span, lexicon):
    low = text_span.casefold().lstrip()
    best = None
    for surface in list(markers.ATTRIBUTE_MARKERS) + lexicon.surfaces():
        s = surface.casefold()
        if low.startswith(s):
            after = low[len(s):]
            if after and markers._WORD.match(after[0]):
                continue
            if best is None or len(s) > len(best):
                best = s
    return best


DEFAULT_LEXICON = markers.load_lexicon()

# marker surfaces in several cases, words holding characters whose casefold
# is longer than themselves (ß -> ss, İ -> i + dot, ﬁ -> fi) or glued to a
# marker, punctuation and newlines
MARKER_TOKENS = sorted({v for s in DEFAULT_LEXICON.surfaces()
                        for v in (s, s.upper(), s.capitalize())} | {"the fact that"})
OTHER_TOKENS = ["rain", "wet", "roads", "ß", "İ", "ﬁ", "Straße", "İs", "ﬁne",
                "becauseß", "ßince", "thusİ", "thustle", "_7", ",", ".", ";",
                "!", "?", ".\n", "\n", "\n\n"]
texts = st.lists(st.one_of(st.sampled_from(MARKER_TOKENS), st.sampled_from(OTHER_TOKENS)),
                 max_size=30).map(" ".join)


@st.composite
def lexicons(draw):
    """Small lexicons over letters, spaces and length-changing casefolds."""
    words = draw(st.lists(st.text(alphabet="abSsßİiﬁf ", min_size=1, max_size=5)
                          .map(str.strip).filter(bool), max_size=8))
    entries, seen = [], set()
    for w in words:
        if w.casefold() not in seen:
            seen.add(w.casefold())
            entries.append((w, draw(st.sampled_from(
                [markers.PREMISE_INDICATOR, markers.CLAIM_INDICATOR]))))
    return markers.MarkerLexicon(tuple(entries))


@settings(max_examples=150, deadline=None)
@given(texts)
def test_compiled_match_at_agrees_with_surface_scan(text):
    for indicator in (markers.PREMISE_INDICATOR, markers.CLAIM_INDICATOR):
        table = DEFAULT_LEXICON.match_tables[indicator]
        surfaces = DEFAULT_LEXICON.surfaces(indicator)
        for pos in range(len(text) + 1):
            assert (markers._match_at(text, pos, table)
                    == _reference_match_at(text, pos, surfaces))


@settings(max_examples=150, deadline=None)
@given(lexicons(), st.text(alphabet="abSsßİiıﬁfFK .\n", max_size=30))
def test_compiled_match_at_agrees_on_any_lexicon(lex, text):
    for indicator in (markers.PREMISE_INDICATOR, markers.CLAIM_INDICATOR):
        table = lex.match_tables[indicator]
        for pos in range(len(text) + 1):
            assert (markers._match_at(text, pos, table)
                    == _reference_match_at(text, pos, lex.surfaces(indicator)))
    for pos in range(len(text) + 1):
        assert (markers.attribute_marker(text[pos:], lex)
                == _reference_attribute_marker(text[pos:], lex))


@settings(max_examples=150, deadline=None)
@given(texts)
def test_attribute_marker_agrees_with_surface_scan(text):
    for pos in range(len(text) + 1):
        assert (markers.attribute_marker(text[pos:], DEFAULT_LEXICON)
                == _reference_attribute_marker(text[pos:], DEFAULT_LEXICON))


def _reference_drop_overlaps(cands):
    cands = sorted(cands, key=lambda m: (-(m.span[1] - m.span[0]), m.span[0]))
    kept = []
    for cand in cands:
        if any(cand.span[0] < k.span[1] and k.span[0] < cand.span[1] for k in kept):
            continue
        kept.append(cand)
    kept.sort(key=lambda m: m.span[0])
    return kept


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 6)), max_size=25))
def test_drop_overlaps_agrees_with_pairwise_scan(spans):
    cands = [markers.IMMatch(surface=str(i), span=(s, s + n), heuristic="",
                             antecedent_span=(0, 0), consequent_span=(0, 0))
             for i, (s, n) in enumerate(spans)]
    assert markers._drop_overlaps(cands) == _reference_drop_overlaps(cands)


@settings(max_examples=150, deadline=None)
@given(texts)
def test_explicit_spans_slice_their_surface(text):
    d = doc(text)
    folded = {s.casefold() for s in DEFAULT_LEXICON.surfaces()}
    for m in markers.detect_ims(d, DEFAULT_LEXICON):
        assert d.raw_text[m.span[0]:m.span[0] + len(m.surface)] == m.surface
        assert m.surface.casefold() in folded


def _shifted(m, k):
    def shift(span):
        return (span[0] + k, span[1] + k)
    return (m.surface, shift(m.span), m.heuristic, shift(m.antecedent_span),
            shift(m.consequent_span))


@settings(max_examples=150, deadline=None)
@given(texts, st.sampled_from(["Straße.\n", "İİ ß ﬁ\n", "ﬁx; ß. İ!\n\n"]))
def test_detection_shifts_under_non_ascii_prefix(text, prefix):
    # the prefix is a paragraph of its own holding no marker, so every match
    # in the body moves by exactly its length and nothing else changes
    alone = markers.detect_ims(doc(text), DEFAULT_LEXICON)
    prefixed = markers.detect_ims(doc(prefix + text), DEFAULT_LEXICON)
    assert ([_shifted(m, len(prefix)) for m in alone]
            == [_shifted(m, 0) for m in prefixed])


# -- implicit IMs against the segments and explicit IMs of their gaps --

@settings(max_examples=200, deadline=None)
@given(texts, st.data())
def test_implicit_ims_anchor_at_segment_ends_in_free_gaps(text, data):
    d = doc(text)
    span = st.lists(st.integers(0, len(text)), min_size=2, max_size=2).map(sorted).map(tuple)
    pairs = data.draw(st.lists(st.tuples(span, span), max_size=6))
    explicit = markers.detect_ims(d, DEFAULT_LEXICON)
    ends = sorted({end for _, end, _ in _reference_segments(d)})

    def gap(pair):
        earlier, later = sorted(pair)
        return earlier[1], later[0]

    made = markers.resolve_implicit_ims(d, pairs, explicit, DEFAULT_LEXICON)
    for m in made:
        start, end = gap((m.antecedent_span, m.consequent_span))
        anchor = m.span[0]
        assert m.span == (anchor, anchor) and m.heuristic == markers.IMPLICIT
        # the first segment end at or after the gap's start, and inside it
        assert anchor in ends and start <= anchor <= end
        assert not any(start <= e < anchor for e in ends)
    # a pair gets an IM iff its gap is open, holds a segment end and no
    # explicit IM starts in it
    want = []
    for pair in pairs:
        start, end = gap(pair)
        if (start < end and any(start <= e <= end for e in ends)
                and not any(start <= m.span[0] < end for m in explicit)):
            want.append(pair)
    assert (sorted((m.antecedent_span, m.consequent_span) for m in made)
            == sorted(want))


# -- compiled ASCII scan against the window scan on every segment --

def _window_scanner(text, lexicon):
    """The scan before ASCII segments got compiled patterns: _match_at at
    the segment start and at every later word start."""
    claims = lexicon.match_tables[markers.CLAIM_INDICATOR]
    premises = lexicon.match_tables[markers.PREMISE_INDICATOR]

    def hits(start, end):
        return (markers._match_at(text, start, claims),
                [(w.start(), markers._match_at(text, w.start(), premises))
                 for w in markers._WORDS.finditer(text, start, end) if w.start() > start])
    return hits


# ASCII words and their casefold partners (ß -> ss, ﬁ -> fi, the Kelvin
# sign -> k), and joins that hold a space or end a segment
_LETTERS = ["a", "b", "ss", "fi", "k", "ß", "ﬁ", "\u212a", "İ"]
_JOINS = [" ", "", ". ", "; "]


@st.composite
def tricky_lexicons(draw):
    """Lexicons whose surfaces casefold to longer strings or to ASCII, or
    hold a space or punctuation, so that one may run past a segment's end.
    Each phrase enters with some of its prefixes, so that surfaces nest."""
    entries, seen = [], set()
    for _ in range(draw(st.integers(1, 3))):
        join = draw(st.sampled_from(_JOINS))
        words = draw(st.lists(st.sampled_from(_LETTERS), min_size=1, max_size=3))
        indicator = draw(st.sampled_from([markers.PREMISE_INDICATOR,
                                          markers.CLAIM_INDICATOR]))
        for k in range(1, len(words) + 1):
            surface = join.join(words[:k])
            if surface.casefold() not in seen and (k == len(words) or draw(st.booleans())):
                seen.add(surface.casefold())
                entries.append((surface, indicator))
    return markers.MarkerLexicon(tuple(entries))


def mixed_texts(lex):
    """Texts of the lexicon's surfaces as they are, in upper case and
    casefolded, loose words and punctuation: ASCII and non-ASCII segments,
    paragraph breaks."""
    tokens = sorted({v for s in lex.surfaces() for v in (s, s.upper(), s.casefold())}
                    | set(_LETTERS) | {".", ";", ",", "x", "A", "SS"})
    ascii_tokens = [t for t in tokens if t.isascii()]
    token = st.one_of(st.sampled_from(ascii_tokens), st.sampled_from(tokens))
    words = st.lists(st.tuples(token, st.sampled_from([" ", " ", "", "\n"])), max_size=20)
    return words.map(lambda ws: "".join(t + s for t, s in ws))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_detection_agrees_with_window_scan(data):
    lex = data.draw(tricky_lexicons())
    d = doc(data.draw(mixed_texts(lex)))
    with mock.patch.object(markers, "_scanner", _window_scanner):
        want = markers.detect_ims(d, lex)
    assert markers.detect_ims(d, lex) == want


def _reference_attribute_loop(text_span, lexicon):
    """attribute_marker as a loop over casefolded surfaces grouped by
    length, longest first."""
    by_length = {}
    for surface in markers.ATTRIBUTE_MARKERS + tuple(lexicon.surfaces()):
        s = surface.casefold()
        by_length.setdefault(len(s), set()).add(s)
    low = text_span.casefold().lstrip()
    for n, group in sorted(by_length.items(), reverse=True):
        if low[:n] in group and not (len(low) > n and markers._WORD.match(low[n])):
            return low[:n]
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_attribute_marker_agrees_with_length_loop(data):
    lex = data.draw(tricky_lexicons())
    text = data.draw(mixed_texts(lex))
    for pos in range(len(text) + 1):
        assert (markers.attribute_marker(text[pos:], lex)
                == _reference_attribute_loop(text[pos:], lex))
