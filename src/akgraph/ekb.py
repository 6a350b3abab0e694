"""Extended knowledge base: formulas, inference rules, contraries, agreements
and the rule preference pre-order, assembled from annotations plus detected
inference markers.

K holds the premise formulas (axiom / ordinary / assumption); detected rules
are first-class knowledge-base members next to them, which is what later lets
an attack target a rule.  Claim texts get formulas too, but with no premise
kind: they live outside K and only ever appear as rule consequents.
"""

import logging
import re
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cached_property
from typing import NamedTuple

from . import markers as markers_mod

logger = logging.getLogger(__name__)

AXIOM = "n"
ORDINARY = "p"
ASSUMPTION = "a"
PREMISE_KINDS = (AXIOM, ORDINARY, ASSUMPTION)

STRICT = "S"
DEFEASIBLE = "D"

RULE_ARROW = "⇒"   # the consequent arrow used in rendered rule text


class EKBError(Exception):
    pass


class UnknownId(EKBError):
    pass


class UnknownRule(UnknownId):
    pass


class PreferenceCycle(EKBError):
    pass


class UnknownPreferenceTarget(EKBError):
    pass


class Formula(NamedTuple):
    """An atomic statement of the logical language.

    premise_kind is one of n/p/a for members of K, or None for claim texts
    that only occur as consequents.  spans/components track the annotation
    backing (merged major claims carry several).
    """
    formula_id: str
    text: str
    premise_kind: str = ORDINARY
    marker: str = None
    spans: tuple = ()
    components: tuple = ()


class InferenceRule(NamedTuple):
    rule_id: str
    antecedents: tuple     # formula ids, document order
    consequent: str        # formula id
    kind: str = DEFEASIBLE
    im: str = None         # lexicon surface of the triggering marker
    im_span: tuple = None
    heuristic: str = None


class PreferenceConfig(NamedTuple):
    """Ordered preference chains over defeasible rules.

    Each chain lists ids from most to least preferred; ids may be rule ids
    or the argument ids the rules will receive.
    """
    chains: tuple = ()


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
    """Parse `component_id<TAB>n|p|a` lines into an override map."""
    out = {}
    for lineno, line in enumerate(content.split("\n"), 1):
        line = line.split("#")[0].strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or parts[1] not in PREMISE_KINDS:
            raise EKBError("kind override line %d: expected `id<TAB>n|p|a`" % lineno)
        out[parts[0]] = parts[1]
    return out


class EKB(namedtuple("EKB", "formulas rules contraries agreements rule_pref "
                            "member_order dropped_ims span_to_rule component_to_formula",
                     defaults=((), (), (), ()))):
    """The extended knowledge base.

    formulas holds every Formula (K members and claim texts), rules every
    InferenceRule.  contraries and agreements are frozensets of (phi, psi)
    pairs: phi is a contrary of psi, or agrees with it.  rule_pref is the
    transitively closed frozenset of (lesser, greater) rule-id pairs.
    member_order lists the formula/rule ids in derived argument order,
    dropped_ims the IMMatches that aligned with no component pair.
    span_to_rule holds (annotated rule-span id, rule id) pairs and
    component_to_formula (component id, formula id) pairs.
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

    def has_member(self, any_id):
        return any_id in self._formula_index or any_id in self._rule_index

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

def _member_sort_key(doc, formulas, rules):
    """Sort key (paragraph, class, anchor): premises and rules of a paragraph
    come before its conclusions; merged formulas anchor at their last part."""
    def key(member):
        if isinstance(member, InferenceRule):
            start = member.im_span[0] if member.im_span else 0
            return (doc.document.paragraph_of(start) or 0, 0, start)
        para = max((doc.document.paragraph_of(s) or 0) for s, _ in member.spans)
        anchor = max(s for s, _ in member.spans
                     if (doc.document.paragraph_of(s) or 0) == para)
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


def _resolve_preferences(prefs, rules, provisional_ids):
    rule_ids = {r.rule_id for r in rules}
    arg_to_member = {a: m for m, a in provisional_ids.items()}
    lt = set()
    for chain in prefs.chains:
        resolved = []
        for token in chain:
            if token in rule_ids:
                resolved.append(token)
            elif token in arg_to_member and arg_to_member[token] in rule_ids:
                resolved.append(arg_to_member[token])
            else:
                raise UnknownPreferenceTarget(
                    "preference id %r names no defeasible rule" % token)
        # chain is most-preferred first: later entries are lesser
        for hi, lo in zip(resolved, resolved[1:]):
            lt.add((lo, hi))
    lt = _transitive_closure(lt)
    for a, b in lt:
        if a == b:
            raise PreferenceCycle("preference chains form a cycle at %r" % a)
    return frozenset(lt)


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

    One formula per annotated component (major claims merge into a single
    formula); one defeasible rule per IM whose antecedent/consequent regions
    contain annotated components.  Attack relations between knowledge-base
    members populate the contrary set, support relations the agreement set.
    Node markers come from lexicon, the packaged one when it is None.
    """
    kind_overrides = kind_overrides or {}
    if lexicon is None:
        lexicon = markers_mod.load_lexicon()
    formulas = []
    comp_to_formula = {}

    ordered_comps = sorted(doc.components, key=lambda c: (c.start, c.end))
    mc_parts = [c for c in ordered_comps if c.kind == "MajorClaim"]
    for c in ordered_comps:
        if c.kind == "MajorClaim":
            continue
        kind = ORDINARY if c.kind == "Premise" else None
        if c.comp_id in kind_overrides:
            if c.kind == "Premise":
                kind = kind_overrides[c.comp_id]
            else:
                logger.warning("kind override for non-premise %s ignored", c.comp_id)
        formulas.append(Formula(
            formula_id=c.comp_id,
            text=c.surface_text,
            premise_kind=kind,
            marker=markers_mod.attribute_marker(c.surface_text, lexicon),
            spans=((c.start, c.end),),
            components=(c.comp_id,)))
        comp_to_formula[c.comp_id] = c.comp_id
    if mc_parts:
        fid = "+".join(c.comp_id for c in mc_parts)
        formulas.append(Formula(
            formula_id=fid,
            text="; ".join(c.surface_text for c in mc_parts),
            premise_kind=None,
            marker=markers_mod.attribute_marker(mc_parts[0].surface_text, lexicon),
            spans=tuple((c.start, c.end) for c in mc_parts),
            components=tuple(c.comp_id for c in mc_parts)))
        for c in mc_parts:
            comp_to_formula[c.comp_id] = fid

    # rules from aligned inference markers
    rules = []
    dropped = []
    rel_pairs = {(r.source, r.target): r.kind for r in doc.relations}
    contained = _containment(doc.components)
    for im in sorted(ims, key=lambda m: m.span[0]):
        cons_comps = contained(im.consequent_span)
        ant_comps = contained(im.antecedent_span)
        if not cons_comps or not ant_comps:
            logger.warning("IM %r at %s aligns with no component pair; dropped",
                           im.surface, im.span)
            dropped.append(im)
            continue
        if len(cons_comps) > 1:
            logger.debug("IM %r: several consequent candidates, taking first", im.surface)
        consequent = cons_comps[0]
        antecedents = [c for c in ant_comps if c.comp_id != consequent.comp_id]
        if not antecedents:
            dropped.append(im)
            continue
        # annotation is ground truth: a relation running consequent -> antecedent
        # contradicts the detected direction
        if any((consequent.comp_id, a.comp_id) in rel_pairs for a in antecedents):
            logger.warning("IM %r contradicts an annotated relation; dropped", im.surface)
            dropped.append(im)
            continue
        rules.append(InferenceRule(
            rule_id="R%d" % (len(rules) + 1),
            antecedents=tuple(comp_to_formula[a.comp_id] for a in antecedents),
            consequent=comp_to_formula[consequent.comp_id],
            kind=DEFEASIBLE,
            im=im.surface.casefold() if im.surface else None,
            im_span=im.span,
            heuristic=im.heuristic))

    # map annotated rule spans onto detected rules by marker-span overlap
    span_to_rule = []
    for rs in doc.rule_spans:
        hit = None
        for r in rules:
            if r.im_span and r.im_span[0] < rs.end and rs.start < r.im_span[1]:
                hit = r.rule_id
                break
        if hit is None:
            logger.warning("annotated rule span %s matches no detected rule", rs.span_id)
        else:
            span_to_rule.append((rs.span_id, hit))
    member_of = dict(comp_to_formula)
    member_of.update(span_to_rule)

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

    member_key = _member_sort_key(doc, formulas, rules)
    ordered = sorted(list(formulas) + list(rules), key=member_key)
    member_order = tuple(m.formula_id if isinstance(m, Formula) else m.rule_id
                         for m in ordered)

    provisional = {m: "A%d" % (i + 1) for i, m in enumerate(member_order)}
    rule_pref = frozenset()
    if prefs is not None and prefs.chains:
        rule_pref = _resolve_preferences(prefs, rules, provisional)

    return EKB(formulas=tuple(formulas),
               rules=tuple(rules),
               contraries=frozenset(contraries),
               agreements=frozenset(agreements),
               rule_pref=rule_pref,
               member_order=member_order,
               dropped_ims=tuple(dropped),
               span_to_rule=tuple(span_to_rule),
               component_to_formula=tuple(sorted(comp_to_formula.items())))


def validate_ekb(ekb):
    """Check knowledge-base invariants; returns a list of violation records."""
    from .ingest import Violation
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
    return out
