"""Inference-marker (IM) detection.

Markers are lexical cues ("therefore", "because", ...) signalling an
inference rule between text spans.  Three heuristics are implemented:

  1. ForwardInitial  - a claim indicator opening a sentence; the previous
     sentence is the antecedent, the rest of the sentence the consequent.
  2. ForwardMedial   - a claim indicator opening a clause after a semicolon.
  3. BackwardCausal  - a premise indicator inside a sentence; the leading
     clause is the consequent, the trailing clause the antecedent.

Additionally, a segment end can stand in for a marker when an annotated
relation has no explicit IM between its spans (implicit IMs).
"""

import os
import re
from bisect import bisect_left, insort
from collections import namedtuple
from functools import cached_property
from operator import itemgetter

from .trace import warn

PREMISE_INDICATOR = "PremiseIndicator"
CLAIM_INDICATOR = "ClaimIndicator"

FORWARD_INITIAL = "ForwardInitial"
FORWARD_MEDIAL = "ForwardMedial"
BACKWARD_CAUSAL = "BackwardCausal"
IMPLICIT = "Implicit"

# bridge phrase absorbed into backward-causal marker spans ("due to the fact that")
_BRIDGE = "the fact that"

_DEFAULT_LEXICON = os.path.join(os.path.dirname(__file__), "data", "inference_markers.tsv")

_WORD = re.compile(r"\w")
_WORDS = re.compile(r"\w+")
_SPACES = re.compile(" *")
_COMMA = re.compile(r"\s*,")
# unrolled rather than lazy, which is twice as slow; it stays linear, as at
# a space the lookahead fails at once and elsewhere the first path succeeds
_SEGMENT = re.compile(r"(?=\S)[^.!?;]*(?:[.!?;]+(?!\s|$)[^.!?;]*)*(?:[.!?;]+|$)")


class MalformedLexiconLine(ValueError):
    pass


class MarkerLexicon(namedtuple("MarkerLexicon", "entries")):
    """Inference-marker surfaces tagged as premise or claim indicators:
    entries is a tuple of (surface, indicator) pairs."""

    def surfaces(self, indicator=None):
        return [s for s, i in self.entries if indicator is None or i == indicator]

    def __len__(self):
        return len(self.entries)

    # namedtuple's _make, behind _replace, checks its field count with len(),
    # which counts entries here
    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @cached_property
    def match_tables(self):
        """indicator -> its surfaces compiled for _match_at."""
        return {ind: _compile(self.surfaces(ind))
                for ind in (PREMISE_INDICATOR, CLAIM_INDICATOR)}

    @cached_property
    def ascii_scan(self):
        """(claim pattern, {key: surface}, premise pattern, {key: surface})
        for lowercased ASCII text.

        Each pattern is a longest-first alternation of the match_tables keys
        that a window of ASCII text can equal: those that are ASCII and as
        long as their surface.  The claim pattern matches where it is
        applied; the premise pattern finds every word start holding a key,
        each match taking the non-word character before it.
        """
        claim_of, premise_of = (
            {key: surface for groups in self.match_tables[ind].values()
             for n, group in groups for key, surface in group.items()
             if key.isascii() and len(key) == n}
            for ind in (CLAIM_INDICATOR, PREMISE_INDICATOR))
        return (re.compile(r"(?:%s)(?!\w)" % _alternation(claim_of)), claim_of,
                re.compile(r"\W(?=\w)(?=(%s)(?!\w))" % _alternation(premise_of)),
                premise_of)

    @cached_property
    def attribute_pattern(self):
        """ATTRIBUTE_MARKERS and every lexicon surface, casefolded, as one
        longest-first alternation ending at a word boundary."""
        keys = {s.casefold() for s in ATTRIBUTE_MARKERS + tuple(self.surfaces())}
        return re.compile(r"(?:%s)(?!\w)" % _alternation(keys))


def _alternation(keys):
    """Regex alternation of the literal keys, longest first; one that
    matches nothing when there are none."""
    return "|".join(map(re.escape, sorted(keys, key=lambda k: (-len(k), k)))) or "(?!)"


def _compile(surfaces):
    """{first character: ((length, {casefolded surface: surface}), ...)}
    over the casefolded surfaces, lengths longest first."""
    groups = {}
    for s in surfaces:
        key = s.casefold()
        groups.setdefault(key[0], {}).setdefault(len(s), {})[key] = s
    return {head: tuple(sorted(by_length.items(), reverse=True))
            for head, by_length in groups.items()}


_BRIDGE_TABLE = _compile([_BRIDGE])


class IMMatch(namedtuple("IMMatch",
                          "surface span heuristic antecedent_span consequent_span")):
    """One detected inference marker.

    surface is the document text of the lexicon match; span may extend past
    it when a bridge phrase is absorbed (e.g. "due to [the fact that]").
    Implicit matches have an empty surface at a sentence boundary.  The
    heuristic also names the kind of indicator that fired: the forward ones
    match claim indicators, BackwardCausal a premise indicator.
    """
    __slots__ = ()


def _parse_lexicon_lines(content):
    entries = []
    seen = set()
    for lineno, line in enumerate(content.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedLexiconLine("line %d: expected surface<TAB>indicator" % lineno)
        surface, indicator = parts[0].strip(), parts[1].strip()
        if not surface:
            raise MalformedLexiconLine("line %d: empty surface" % lineno)
        if indicator not in ("Premise", "Claim"):
            raise MalformedLexiconLine("line %d: indicator must be Premise or Claim"
                                       % lineno)
        key = surface.casefold()
        if key in seen:
            raise MalformedLexiconLine("line %d: duplicate surface %r" % (lineno, surface))
        seen.add(key)
        entries.append((surface,
                        PREMISE_INDICATOR if indicator == "Premise" else CLAIM_INDICATOR))
    return MarkerLexicon(tuple(entries))


def load_lexicon(source=None):
    """Build the marker lexicon.

    With no source, loads the default table from the package directory.  A
    string source is parsed as lexicon file content and fully replaces the
    defaults.
    """
    if source is None:
        with open(_DEFAULT_LEXICON, encoding="utf-8") as f:
            source = f.read()
    return _parse_lexicon_lines(source)


def _segments(doc):
    """Sentence-ish segments as (start, end, boundary_char_before) triples.

    A segment runs from a non-space character through the first run of .,
    !, ? or ; followed by whitespace or the paragraph end, and never crosses
    a paragraph boundary.  A segment includes its closing punctuation.
    """
    text = doc.raw_text
    out = []
    for pstart, pend in doc.paragraph_spans:
        boundary = None
        for m in _SEGMENT.finditer(text, pstart, pend):
            out.append((m.start(), m.end(), boundary))
            boundary = text[m.end() - 1]
    return out


def _match_at(text, pos, table):
    """Longest lexicon surface matching at pos with a word boundary after it.

    table comes from MarkerLexicon.match_tables.  Only surfaces whose
    casefold opens with the casefold of text[pos] are tried, and each of
    their lengths casefolds one window of the text: casefolding can change
    a string's length, so offsets into a casefolded copy of the whole text
    would not be offsets into the text.
    """
    if pos >= len(text):
        return None
    for n, group in table.get(text[pos].casefold()[0], ()):
        surface = group.get(text[pos:pos + n].casefold())
        if surface is not None:
            end = pos + n
            if end < len(text) and _WORD.match(text[end]):
                continue   # inside a longer word
            return surface
    return None


def _scanner(text, lexicon):
    """hits(start, end) for a segment of text: the claim surface at its
    start, or None, and the premise surfaces at its word starts after the
    first, as (position, surface) pairs.

    Each hit is _match_at's: the longest surface with a word boundary after
    it, read in the whole text, so it may run past the segment's end.
    Where every such read is ASCII, casefold() is lower() and keeps every
    offset, so the compiled patterns of ascii_scan run over the lowercased
    text; elsewhere each position goes through _match_at.
    """
    claim_re, claim_of, premise_re, premise_of = lexicon.ascii_scan
    claims = lexicon.match_tables[CLAIM_INDICATOR]
    premises = lexicon.match_tables[PREMISE_INDICATOR]
    # a match at a position before a segment's end, its word-boundary test
    # included, reads no further past that end than the longest surface
    reach = max(map(len, lexicon.surfaces()), default=0)

    def hits(start, end):
        window = text[start:end + reach]
        if window.isascii():
            low = window.lower()
            claim = claim_re.match(low)
            n = end - start
            return (claim and claim_of[claim.group()],
                    [(start + m.end(), premise_of[m.group(1)])
                     for m in premise_re.finditer(low) if m.end() < n])
        return (_match_at(text, start, claims),
                [(w.start(), _match_at(text, w.start(), premises))
                 for w in _WORDS.finditer(text, start, end) if w.start() > start])
    return hits


def _candidates(doc, lexicon):
    text = doc.raw_text
    hits = _scanner(text, lexicon)
    segs = _segments(doc)
    cands = []

    for i, (start, end, boundary) in enumerate(segs):
        claim, premises = hits(start, end)
        # forward heuristics need an antecedent segment in the same paragraph;
        # _segments restarts at each paragraph, so one with a boundary has one.
        # A surface of a custom lexicon may run past the segment's end.
        surface = boundary and claim
        if surface and start + len(surface) < end:
            mend = start + len(surface)
            comma = _COMMA.match(text, mend, end)
            cstart = _SPACES.match(text, comma.end() if comma else mend, end).end()
            # a one-word indicator needs a comma after it
            if (comma or " " in surface) and cstart < end:
                cands.append(IMMatch(
                    surface=text[start:mend],
                    span=(start, mend),
                    heuristic=FORWARD_MEDIAL if boundary == ";" else FORWARD_INITIAL,
                    antecedent_span=segs[i - 1][:2],
                    consequent_span=(cstart, end)))

        # backward causal: a premise indicator after the segment's first
        # character, a non-space, so the leading clause is never empty
        for pos, surface in premises:
            if surface and pos + len(surface) < end:
                mend = pos + len(surface)
                aspan_start = _SPACES.match(text, mend, end).end()
                # absorb the bridge phrase into the marker span
                if _match_at(text, aspan_start, _BRIDGE_TABLE):
                    mend = aspan_start + len(_BRIDGE)
                    aspan_start = _SPACES.match(text, mend, end).end()
                if text[aspan_start:end].strip():
                    cands.append(IMMatch(
                        surface=text[pos:pos + len(surface)],
                        span=(pos, mend),
                        heuristic=BACKWARD_CAUSAL,
                        antecedent_span=(aspan_start, end),
                        consequent_span=(start, start + len(text[start:pos].rstrip(" ")))))
    return cands


def detect_ims(doc, lexicon=None):
    """Find explicit inference markers in a TextDocument.

    Overlapping candidates are resolved longest-surface-first (earliest
    start breaks ties); the survivors are returned sorted by span start.
    """
    if lexicon is None:
        lexicon = load_lexicon()
    return _drop_overlaps(_candidates(doc, lexicon))


def _drop_overlaps(cands):
    """Keep candidates longest span first, earliest start breaking ties,
    unless they overlap one already kept; return the kept ones by start."""
    cands = sorted(cands, key=lambda m: (-(m.span[1] - m.span[0]), m.span[0]))
    kept = []
    # kept spans never overlap, so sorted by (start, end) their ends never
    # fall: among those starting before a candidate ends, the last one
    # reaches furthest and is the only one to test
    kept_spans = []
    for cand in cands:
        start, end = cand.span
        i = bisect_left(kept_spans, end, key=itemgetter(0))
        if i and kept_spans[i - 1][1] > start:
            continue
        insort(kept_spans, cand.span)
        kept.append(cand)
    kept.sort(key=lambda m: m.span[0])
    return kept


def resolve_implicit_ims(doc, related_pairs, explicit_ims=None, lexicon=None):
    """Derive implicit IMs from annotated relations lacking an explicit marker.

    related_pairs is a list of (source_span, target_span) tuples.  For each
    pair whose gap holds no explicit IM, a zero-width Implicit match is
    emitted at the first segment end at or after the end of the earlier
    span, if it comes no later than the start of the later one.  These are
    the segments explicit IMs are found in, so the "." of "3.5" ends none.
    A paragraph end closes a segment, so a gap that crosses a paragraph
    break anchors at the latest at the end of the earlier span's paragraph.
    Pairs whose gap holds no segment end are skipped with a warning.  Pairs
    are taken in span order, so neither the matches nor the warnings follow
    the order of related_pairs.
    """
    if explicit_ims is None:
        explicit_ims = detect_ims(doc, lexicon)
    ends = [end for _, end, _ in _segments(doc)]
    starts = sorted(m.span[0] for m in explicit_ims)
    out = []
    for source_span, target_span in sorted((tuple(s), tuple(t)) for s, t in related_pairs):
        earlier, later = sorted([source_span, target_span])
        gap = (earlier[1], later[0])
        if gap[0] >= gap[1]:
            warn(__name__, "implicit IM: spans %s / %s overlap or touch; skipped"
                 % (source_span, target_span))
            continue
        j = bisect_left(starts, gap[0])
        if j < len(starts) and starts[j] < gap[1]:
            continue   # explicit marker takes precedence
        i = bisect_left(ends, gap[0])
        if i == len(ends) or ends[i] > gap[1]:
            warn(__name__, "implicit IM: no sentence boundary between %s and %s; skipped"
                 % (source_span, target_span))
            continue
        anchor = ends[i]
        out.append(IMMatch(
            surface="",
            span=(anchor, anchor),
            heuristic=IMPLICIT,
            antecedent_span=source_span,
            consequent_span=target_span))
    out.sort(key=lambda m: m.span[0])
    return out


# Append-only list of discourse markers recognized as node attributes (the
# "marker" slot of attribute boxes).  Broader than the IM lexicon: it also
# holds cues that flag but do not encode inference.
ATTRIBUTE_MARKERS = (
    "however", "for example", "for instance", "furthermore", "moreover",
    "in addition", "clearly", "in short", "in conclusion", "meanwhile",
    "in other words", "on the whole", "on the other hand", "nevertheless",
)


def attribute_marker(text_span, lexicon=None):
    """Marker surface opening a component span, or None.

    Checks the general attribute-marker list first, then the IM lexicon;
    the match must start the span and end at a word boundary.
    """
    if lexicon is None:
        lexicon = load_lexicon()
    m = lexicon.attribute_pattern.match(text_span.casefold().lstrip())
    return m and m.group()
