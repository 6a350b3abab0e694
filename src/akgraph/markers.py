"""Inference-marker (IM) detection.

Markers are lexical cues ("therefore", "because", ...) signalling an
inference rule between text spans.  Three heuristics are implemented:

  1. ForwardInitial  - a claim indicator opening a sentence; the previous
     sentence is the antecedent, the rest of the sentence the consequent.
  2. ForwardMedial   - a claim indicator opening a clause after a semicolon.
  3. BackwardCausal  - a premise indicator inside a sentence; the leading
     clause is the consequent, the trailing clause the antecedent.

Additionally, end-of-sentence punctuation can stand in for a marker when an
annotated relation has no explicit IM between its spans (implicit IMs).
"""

import logging
import re
from bisect import bisect_left, insort
from collections import namedtuple
from functools import cached_property
from importlib import resources
from operator import itemgetter
from typing import NamedTuple

logger = logging.getLogger(__name__)

PREMISE_INDICATOR = "PremiseIndicator"
CLAIM_INDICATOR = "ClaimIndicator"

FORWARD_INITIAL = "ForwardInitial"
FORWARD_MEDIAL = "ForwardMedial"
BACKWARD_CAUSAL = "BackwardCausal"
IMPLICIT = "Implicit"

# bridge phrase absorbed into backward-causal marker spans ("due to the fact that")
_BRIDGE = "the fact that"

_WORD = re.compile(r"\w")
_WORDS = re.compile(r"\w+")


class MalformedLexiconLine(Exception):
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
    def attribute_table(self):
        """ATTRIBUTE_MARKERS and every lexicon surface, casefolded, as
        (length, {surface}) groups, longest first."""
        by_length = {}
        for surface in ATTRIBUTE_MARKERS + tuple(self.surfaces()):
            s = surface.casefold()
            by_length.setdefault(len(s), set()).add(s)
        return tuple(sorted(by_length.items(), reverse=True))


def _compile(surfaces):
    """{first character: ((length, {casefolded surface: surface}), ...)}
    over the casefolded surfaces, lengths longest first."""
    groups = {}
    for s in surfaces:
        key = s.casefold()
        groups.setdefault(key[0], {}).setdefault(len(s), {})[key] = s
    return {head: tuple(sorted(by_length.items(), reverse=True))
            for head, by_length in groups.items()}


class IMMatch(NamedTuple):
    """One detected inference marker.

    surface is the document text of the lexicon match; span may extend past
    it when a bridge phrase is absorbed (e.g. "due to [the fact that]").
    Implicit matches have an empty surface at a sentence boundary.
    """
    surface: str
    span: tuple
    heuristic: str
    antecedent_span: tuple
    consequent_span: tuple
    indicator: str = CLAIM_INDICATOR
    low_confidence: bool = False


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

    With no source, loads the packaged default table.  A string source is
    parsed as lexicon file content and fully replaces the defaults.
    """
    if source is not None:
        return _parse_lexicon_lines(source)
    content = resources.files("akgraph").joinpath("data/inference_markers.tsv")
    return _parse_lexicon_lines(content.read_text(encoding="utf-8"))


def _segments(doc):
    """Sentence-ish segments as (start, end, boundary_char_before) triples.

    Segmentation splits on ., !, ? or ; followed by whitespace, and never
    crosses paragraph boundaries.  A segment includes its closing punctuation.
    """
    text = doc.raw_text
    out = []
    for pstart, pend in doc.paragraph_spans:
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


def _starts_with(text, pos, surface):
    """Does text[pos:] open with surface, ignoring case?

    Only the window of the surface's own length is casefolded: casefolding
    can change a string's length, so offsets into a casefolded copy of the
    whole text would not be offsets into the text.
    """
    return text[pos:pos + len(surface)].casefold() == surface.casefold()


def _match_at(text, pos, table):
    """Longest lexicon surface matching at pos with a word boundary after it.

    table comes from MarkerLexicon.match_tables.  Only surfaces whose
    casefold opens with the casefold of text[pos] are tried, and each of
    their lengths casefolds one window of the text, as _starts_with does.
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


def _candidates(doc, lexicon):
    text = doc.raw_text
    claims = lexicon.match_tables[CLAIM_INDICATOR]
    premises = lexicon.match_tables[PREMISE_INDICATOR]
    segs = _segments(doc)
    cands = []

    for i, (start, end, boundary) in enumerate(segs):
        prev = segs[i - 1] if i > 0 else None
        same_para = (prev is not None
                     and doc.paragraph_of(prev[0]) == doc.paragraph_of(start))

        # forward heuristics need an antecedent segment in the same paragraph
        if same_para and boundary is not None:
            surface = _match_at(text, start, claims)
            if surface is not None:
                mend = start + len(surface)
                rest = text[mend:end]
                has_comma = rest.lstrip().startswith(",")
                multiword = " " in surface
                ok = has_comma or multiword
                if ok:
                    cstart = mend
                    if has_comma:
                        cstart = mend + rest.index(",") + 1
                    while cstart < end and text[cstart] == " ":
                        cstart += 1
                    if cstart < end:
                        heur = FORWARD_MEDIAL if boundary == ";" else FORWARD_INITIAL
                        cands.append(IMMatch(
                            surface=text[start:mend],
                            span=(start, mend),
                            heuristic=heur,
                            antecedent_span=(prev[0], prev[1]),
                            consequent_span=(cstart, end),
                            indicator=CLAIM_INDICATOR,
                            low_confidence=not has_comma))

        # backward causal: premise indicator with a non-empty leading clause
        for word in _WORDS.finditer(text, start, end):
            pos = word.start()
            surface = _match_at(text, pos, premises)
            if surface is not None and pos > start:
                lead = text[start:pos].strip()
                mend = pos + len(surface)
                aspan_start = mend
                while aspan_start < end and text[aspan_start] == " ":
                    aspan_start += 1
                # absorb the bridge phrase into the marker span
                if _starts_with(text, aspan_start, _BRIDGE):
                    mend = aspan_start + len(_BRIDGE)
                    aspan_start = mend
                    while aspan_start < end and text[aspan_start] == " ":
                        aspan_start += 1
                if lead and aspan_start < end and text[aspan_start:end].strip():
                    cstart, cend = start, pos
                    while cend > cstart and text[cend - 1] == " ":
                        cend -= 1
                    cands.append(IMMatch(
                        surface=text[pos:pos + len(surface)],
                        span=(pos, mend),
                        heuristic=BACKWARD_CAUSAL,
                        antecedent_span=(aspan_start, end),
                        consequent_span=(cstart, cend),
                        indicator=PREMISE_INDICATOR))
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
    pair whose spans are separated by sentence-final punctuation and carry no
    explicit IM in the gap, a zero-width Implicit match is emitted at the
    punctuation closing the earlier span.  Pairs without such a boundary are
    skipped with a warning.
    """
    if explicit_ims is None:
        explicit_ims = detect_ims(doc, lexicon)
    text = doc.raw_text
    out = []
    for source_span, target_span in related_pairs:
        earlier, later = sorted([tuple(source_span), tuple(target_span)])
        gap = (earlier[1], later[0])
        if gap[0] >= gap[1]:
            logger.warning("implicit IM: spans %s / %s overlap or touch; skipped",
                           source_span, target_span)
            continue
        if any(gap[0] <= m.span[0] < gap[1] for m in explicit_ims):
            continue   # explicit marker takes precedence
        m = re.search(r"[.!?;]", text[gap[0]:gap[1]])
        if m is None:
            logger.warning("implicit IM: no sentence boundary between %s and %s; skipped",
                           source_span, target_span)
            continue
        anchor = gap[0] + m.end()
        out.append(IMMatch(
            surface="",
            span=(anchor, anchor),
            heuristic=IMPLICIT,
            antecedent_span=tuple(source_span),
            consequent_span=tuple(target_span),
            indicator=CLAIM_INDICATOR))
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
    low = text_span.casefold().lstrip()
    for n, group in lexicon.attribute_table:
        if low[:n] in group and not (len(low) > n and _WORD.match(low[n])):
            return low[:n]
    return None
