"""Extended knowledge base: formulas, inference rules, contraries, agreements
and the rule preference pre-order, assembled from annotations plus detected
inference markers.

K holds the premise formulas (axiom / ordinary / assumption); detected rules
are first-class knowledge-base members next to them, which is what later lets
an attack target a rule.  Claim texts get formulas too, but with no premise
kind: they live outside K and only ever appear as rule consequents.  The
MajorClaim components merge into one formula, the EKB's major_claim.
"""

from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cached_property
from itertools import count

from . import markers as markers_mod
from . import arguments as arguments_mod
from .ingest import Violation, natural_key
from .trace import warn

AXIOM = "n"
ORDINARY = "p"
ASSUMPTION = "a"
PREMISE_KINDS = (AXIOM, ORDINARY, ASSUMPTION)

STRICT = "S"
DEFEASIBLE = "D"

RULE_ARROW = "⇒"   # the consequent arrow used in rendered rule text


class EKBError(ValueError):
    pass


class UnknownId(EKBError):
    pass


class UnknownRule(UnknownId):
    pass


class PreferenceCycle(EKBError):
    pass


class UnknownPreferenceTarget(EKBError):
    pass


class UnknownKindTarget(EKBError):
    pass


class Formula(namedtuple("Formula",
                          "formula_id text premise_kind marker spans components",
                          defaults=(ORDINARY, None, (), ()))):
    """An atomic statement of the logical language.

    premise_kind is one of n/p/a for members of K, or None for claim texts
    that only occur as consequents.  spans/components track the annotation
    backing (merged major claims carry several).
    """
    __slots__ = ()


class InferenceRule(namedtuple("InferenceRule",
                                "rule_id antecedents consequent kind im im_span heuristic",
                                defaults=(DEFEASIBLE, None, None, None))):
    """A rule from antecedents, formula ids in document order, to the
    consequent formula id.  im is the lexicon surface of the triggering
    marker, im_span and heuristic where and how it was detected."""
    __slots__ = ()


class PreferenceConfig(namedtuple("PreferenceConfig", "chains", defaults=((),))):
    """Ordered preference chains over defeasible rules.

    Each chain lists ids from most to least preferred; ids may be rule ids
    or the argument ids the rules receive when no implicit rule is added.
    """
    __slots__ = ()


def parse_preference_file(content):
    """Parse `id (> id)+` chains, one per line; # starts a comment."""
    chains = []
    for lineno, line in enumerate(content.split("\n"), 1):
        line = line.split("#")[0].strip()
        if not line:
            continue
        ids = [tok.strip() for tok in line.split(">")]
        if len(ids) < 2 or not all(ids):
            raise EKBError("preference line %d: expected `id (> id)+`" % lineno)
        chains.append(tuple(ids))
    return PreferenceConfig(tuple(chains))


def parse_kind_override_file(content):
    """Parse `component_id<TAB>n|p|a` lines into an override map; an id
    given twice is refused."""
    out, line_of = {}, {}
    for lineno, line in enumerate(content.split("\n"), 1):
        line = line.split("#")[0].strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or parts[1] not in PREMISE_KINDS:
            raise EKBError("kind override line %d: expected `id<TAB>n|p|a`" % lineno)
        if parts[0] in line_of:
            raise EKBError("kind override line %d: id %s already given on line %d"
                           % (lineno, parts[0], line_of[parts[0]]))
        line_of[parts[0]] = lineno
        out[parts[0]] = parts[1]
    return out


class EKB(namedtuple("EKB", "formulas rules contraries agreements rule_pref "
                            "member_order dropped_ims member_of major_claim",
                     defaults=((), (), (), None))):
    """The extended knowledge base.

    formulas holds every Formula (K members and claim texts), rules every
    InferenceRule.  contraries and agreements are frozensets of (phi, psi)
    pairs: phi is a contrary of psi, or agrees with it.  rule_pref is the
    transitively closed frozenset of (lesser, greater) rule-id pairs.
    member_order lists the formula/rule ids in the order arguments are
    numbered: by paragraph, premises and rules before conclusions (an extra
    derived argument is numbered right after its consequent's member),
    dropped_ims the IMMatches that aligned with no component pair.
    member_of holds sorted (annotation id, member id) pairs: each component
    with its formula, each matched rule span with its rule.  major_claim is
    the merged MajorClaim formula's id, or None.
    """

    # -- lookups --

    # reversed, so that of duplicate ids the first wins, as in a scan
    @cached_property
    def _formula_index(self):
        return {f.formula_id: f for f in reversed(self.formulas)}

    @cached_property
    def _rule_index(self):
        return {r.rule_id: r for r in reversed(self.rules)}

    def formula(self, formula_id):
        try:
            return self._formula_index[formula_id]
        except KeyError:
            raise UnknownId("no formula %r" % formula_id) from None

    def rule(self, rule_id):
        try:
            return self._rule_index[rule_id]
        except KeyError:
            raise UnknownRule("no rule %r" % rule_id) from None

    @cached_property
    def _preference_index(self):
        """rule id -> (rules less preferred, rules more preferred)."""
        index = {}
        for a, b in self.rule_pref:
            index.setdefault(b, (set(), set()))[0].add(a)
            index.setdefault(a, (set(), set()))[1].add(b)
        return {rid: (frozenset(l1), frozenset(l2)) for rid, (l1, l2) in index.items()}

    @cached_property
    def _firing(self):
        """The firing pass of derive_argument_set over this EKB, run once."""
        return arguments_mod._fire(self)

    @property
    def K(self):
        """Premise formulas only, i.e. the K of the knowledge base."""
        return tuple(f for f in self.formulas if f.premise_kind is not None)

    def K_part(self, kind):
        return tuple(f for f in self.K if f.premise_kind == kind)

    @property
    def kb_members(self):
        """K formulas and rules together, in member order."""
        in_kb = {f.formula_id for f in self.K} | {r.rule_id for r in self.rules}
        return tuple(m for m in self.member_order if m in in_kb)

    def rule_text(self, rule_id):
        r = self.rule(rule_id)
        ants = ", ".join(self.formula(a).text for a in r.antecedents)
        return "%s %s %s" % (ants, RULE_ARROW, self.formula(r.consequent).text)

    def member_text(self, any_id):
        if any_id in self._rule_index:
            return self.rule_text(any_id)
        return self.formula(any_id).text


# -- queries --

def rule_preference_sets(ekb, rule_id):
    """(L1, L2) for a defeasible rule: strictly less / more preferred rules.

    Returns None for strict rules, which stand outside the preference order.
    """
    r = ekb.rule(rule_id)
    if r.kind == STRICT:
        return None
    return ekb._preference_index.get(rule_id, (frozenset(), frozenset()))


# -- construction --

def _member_sort_key(doc):
    """Sort key (paragraph, class, anchor): premises and rules of a paragraph
    come before its conclusions; merged formulas anchor at their last part."""
    paragraph_of = doc.document.paragraph_of

    def key(member):
        if isinstance(member, InferenceRule):
            start = member.im_span[0] if member.im_span else 0
            para = paragraph_of(start)
            if para is None:   # an implicit anchor at its paragraph's end
                para = paragraph_of(start - 1)
            return (para or 0, 0, start)
        para, anchor = max((paragraph_of(s) or 0, s) for s, _ in member.spans)
        klass = 0 if member.premise_kind is not None else 1
        return (para, klass, anchor)
    return key


def _transitive_closure(pairs):
    """Every (a, d) with d reachable from a; one graph search per node."""
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closed = set()
    for a in succ:
        seen = set()
        stack = list(succ[a])
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(succ.get(x, ()))
        closed.update((a, x) for x in seen)
    return closed


def _with_preferences(prefs, ekb):
    """ekb with the closed (lesser, greater) rule pairs of prefs as its
    rule_pref.  A token is a rule id, or the argument id a rule gets in a
    run without implicit rules."""
    rule_ids = {r.rule_id for r in ekb.rules}
    implicit = {r.rule_id for r in ekb.rules if r.heuristic == markers_mod.IMPLICIT}
    explicit = ekb
    if implicit:
        explicit = ekb._replace(
            rules=tuple(r for r in ekb.rules if r.rule_id not in implicit),
            member_order=tuple(m for m in ekb.member_order if m not in implicit))
    rule_of = {arg_id: member_id
               for arg_id, member_id in arguments_mod.argument_ids(explicit)
               if member_id in rule_ids}
    lt = set()
    for chain in prefs.chains:
        resolved = []
        for token in chain:
            if token in rule_ids:
                resolved.append(token)
            elif token in rule_of:
                resolved.append(rule_of[token])
            else:
                raise UnknownPreferenceTarget(
                    "preference id %r names no defeasible rule" % token)
        # chain is most-preferred first: later entries are lesser
        for hi, lo in zip(resolved, resolved[1:]):
            lt.add((lo, hi))
    lt = _transitive_closure(lt)
    cyclic = sorted((a for a, b in lt if a == b), key=natural_key)
    if cyclic:
        raise PreferenceCycle("preference chains form a cycle at %r" % cyclic[0])
    out = ekb._replace(rule_pref=frozenset(lt))
    if explicit is ekb:   # rule_pref plays no part in firing: hand the pass on
        out._firing = ekb._firing
    return out


def _containment(components):
    """span -> the components inside it, ordered by start; ties keep document
    order.  The components are sorted once, each query bisects."""
    comps = sorted(components, key=lambda c: c.start)
    starts = [c.start for c in comps]

    def contained(span):
        lo, hi = bisect_left(starts, span[0]), bisect_right(starts, span[1])
        return [c for c in comps[lo:hi] if c.end <= span[1]]
    return contained


def build_ekb(doc, ims, prefs=None, kind_overrides=None, lexicon=None):
    """Assemble the extended knowledge base for an annotated document.

    One formula per annotated component (major claims merge into the one
    formula major_claim names); one defeasible rule per IM whose antecedent/
    consequent regions contain annotated components.  Attack relations between
    knowledge-base members populate the contrary set, support relations the
    agreement set.  Node markers come from lexicon, the packaged one when it
    is None.  A kind override for an id that names no component is refused.
    """
    kind_overrides = kind_overrides or {}
    comp_ids = {c.comp_id for c in doc.components}
    for cid in kind_overrides:
        if cid not in comp_ids:
            raise UnknownKindTarget("kind override id %r names no component" % cid)
    if lexicon is None:
        lexicon = markers_mod.load_lexicon()
    formulas = []
    member_of = {}   # annotation id -> member id; rule spans join below

    ordered_comps = sorted(doc.components, key=lambda c: (c.start, c.end))
    for c in ordered_comps:
        if c.kind != "Premise" and c.comp_id in kind_overrides:
            warn(__name__, "kind override for non-premise %s ignored" % c.comp_id)
    # a group per component, except that the major-claim parts form one, last
    groups = [[c] for c in ordered_comps if c.kind != "MajorClaim"]
    mc_parts = [c for c in ordered_comps if c.kind == "MajorClaim"]
    if mc_parts:
        groups.append(mc_parts)
    major_claim = None
    for parts in groups:
        first = parts[0]
        fid = "+".join(c.comp_id for c in parts)
        if first.kind == "MajorClaim":
            while fid in member_of:   # a component may carry the merged id
                fid += "+"
            major_claim = fid
        kind = kind_overrides.get(fid, ORDINARY) if first.kind == "Premise" else None
        formulas.append(Formula(
            formula_id=fid,
            text="; ".join(c.surface_text for c in parts),
            premise_kind=kind,
            marker=markers_mod.attribute_marker(first.surface_text, lexicon),
            spans=tuple((c.start, c.end) for c in parts),
            components=tuple(c.comp_id for c in parts)))
        for c in parts:
            member_of[c.comp_id] = fid

    # rules from aligned inference markers
    rules = []
    dropped = []
    rel_pairs = {(r.source, r.target): r.kind for r in doc.relations}
    contained = _containment(doc.components)
    # rule ids skip component and rule-span ids; relation ids may repeat them
    taken = comp_ids | {rs.span_id for rs in doc.rule_spans}
    rule_ids = (rid for rid in map("R{}".format, count(1)) if rid not in taken)
    for im in sorted(ims, key=lambda m: m.span[0]):
        cons_comps = contained(im.consequent_span)
        ant_comps = contained(im.antecedent_span)
        reason = None
        if not cons_comps or not ant_comps:
            reason = "aligns with no component pair"
        else:
            consequent = cons_comps[0]
            cons_fid = member_of[consequent.comp_id]
            antecedents = [c for c in ant_comps
                           if member_of[c.comp_id] != cons_fid]
            if not antecedents:
                reason = "has no antecedent outside its consequent's formula"
            # annotation is ground truth: a relation running consequent ->
            # antecedent contradicts the detected direction
            elif any((consequent.comp_id, a.comp_id) in rel_pairs for a in antecedents):
                reason = "contradicts an annotated relation"
        if reason is not None:
            warn(__name__, "IM %r at %s %s; dropped" % (im.surface, im.span, reason))
            dropped.append(im)
            continue
        rules.append(InferenceRule(
            rule_id=next(rule_ids),
            antecedents=tuple(dict.fromkeys(
                member_of[a.comp_id] for a in antecedents)),
            consequent=cons_fid,
            kind=DEFEASIBLE,
            im=im.surface.casefold() if im.surface else None,
            im_span=im.span,
            heuristic=im.heuristic))

    # map annotated rule spans onto detected rules by marker-span overlap;
    # in document order, so that the warnings do not follow the input's order
    for rs in sorted(doc.rule_spans, key=lambda rs: (rs.start, rs.end, rs.span_id)):
        hit = next((r.rule_id for r in rules if r.im_span
                    and r.im_span[0] < rs.end and rs.start < r.im_span[1]), None)
        if hit is None:
            warn(__name__, "annotated rule span %s matches no detected rule" % rs.span_id)
        else:
            member_of[rs.span_id] = hit

    # contrary / agreement pairs live at the knowledge-base level: both
    # endpoints must be K formulas or rules
    in_kb = {f.formula_id for f in formulas if f.premise_kind is not None}
    in_kb |= {r.rule_id for r in rules}
    contraries, agreements = set(), set()
    for rel in doc.relations:
        src = member_of.get(rel.source)
        tgt = member_of.get(rel.target)
        if src is None or tgt is None or src == tgt:
            continue
        if src in in_kb and tgt in in_kb:
            if rel.kind == "Attacks":
                contraries.add((src, tgt))
            else:
                agreements.add((src, tgt))

    member_key = _member_sort_key(doc)
    ordered = sorted(list(formulas) + list(rules), key=member_key)
    member_order = tuple(m.formula_id if isinstance(m, Formula) else m.rule_id
                         for m in ordered)

    ekb = EKB(formulas=tuple(formulas),
              rules=tuple(rules),
              contraries=frozenset(contraries),
              agreements=frozenset(agreements),
              rule_pref=frozenset(),
              member_order=member_order,
              dropped_ims=tuple(dropped),
              member_of=tuple(sorted(member_of.items())),
              major_claim=major_claim)
    if prefs is not None and prefs.chains:
        ekb = _with_preferences(prefs, ekb)
    return ekb


def validate_ekb(ekb):
    """Check knowledge-base invariants; returns a sorted list of violations."""
    out = []
    fids = [f.formula_id for f in ekb.formulas]
    if len(fids) != len(set(fids)):
        out.append(Violation("DuplicateId", "formulas"))
    for f in ekb.formulas:
        if f.premise_kind is not None and f.premise_kind not in PREMISE_KINDS:
            out.append(Violation("UnknownPremiseKind", f.formula_id, f.premise_kind))
    known = set(fids)
    rids = set()
    for r in ekb.rules:
        if r.rule_id in rids or r.rule_id in known:
            out.append(Violation("DuplicateId", r.rule_id))
        rids.add(r.rule_id)
        if not r.antecedents:
            out.append(Violation("EmptyAntecedents", r.rule_id))
        if r.consequent in r.antecedents:
            out.append(Violation("SelfConsequent", r.rule_id))
        for fid in list(r.antecedents) + [r.consequent]:
            if fid not in known:
                out.append(Violation("DanglingReference", r.rule_id, fid))
        if r.kind not in (STRICT, DEFEASIBLE):
            out.append(Violation("UnknownRuleKind", r.rule_id, r.kind))
    defeasible = {r.rule_id for r in ekb.rules if r.kind == DEFEASIBLE}
    for a, b in ekb.rule_pref:
        if a == b:
            out.append(Violation("PreferenceCycle", a))
        for rid in (a, b):
            if rid not in rids:
                out.append(Violation("DanglingReference", "rule_pref", rid))
            elif rid not in defeasible:
                out.append(Violation("StrictRuleInPreference", rid))
    every = known | {r.rule_id for r in ekb.rules}
    for name, pairs in (("contraries", ekb.contraries), ("agreements", ekb.agreements)):
        for a, b in pairs:
            if a == b:
                out.append(Violation("ReflexivePair", name, a))
            for x in (a, b):
                if x not in every:
                    out.append(Violation("DanglingReference", name, x))
    out.sort(key=lambda v: [natural_key(str(x)) for x in v])
    return out
