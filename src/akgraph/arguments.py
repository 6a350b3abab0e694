"""Argument derivation: modus ponens over the knowledge base.

Every knowledge-base member (premise formula or rule) is an atomic argument;
claim texts enter as atomic conclusion arguments.  Firing each rule replaces
the atomic argument of its consequent with a derived argument carrying
Prem/Conc/Sub structure.  Argument ids follow document order, with a derived
argument numbered at its consequent's position and each paragraph's
conclusions numbered after its premises and rules.
"""

import logging
from dataclasses import dataclass
from functools import cached_property

logger = logging.getLogger(__name__)

P = "P"
IRP = "IRP"
C = "C"


class DerivationError(Exception):
    pass


class AntecedentMismatch(DerivationError):
    pass


class UnknownArgument(DerivationError):
    pass


@dataclass(frozen=True)
class Argument:
    """One argument: atomic (an annotated formula or rule) or derived.

    premises is Prem, conclusion is Conc, subargs is Sub (self-inclusive, in
    derivation order).  Derived arguments carry their top rule.
    """
    arg_id: str
    kind: str            # P | IRP | C
    content: str         # formula or rule id
    premises: frozenset  # formula/rule ids
    conclusion: str
    subargs: tuple       # arg ids
    top_rule: str = None

    @property
    def derived(self):
        return self.top_rule is not None


@dataclass(frozen=True)
class MPApplication:
    rule_arg: str
    antecedent_args: tuple
    result_arg: str


@dataclass(frozen=True)
class ArgumentSet:
    arguments: tuple
    mp_applications: tuple = ()

    # reversed, so that of duplicate ids the first wins, as in a scan
    @cached_property
    def _index(self):
        return {a.arg_id: a for a in reversed(self.arguments)}

    @cached_property
    def _content_index(self):
        out = {}
        for a in self.arguments:
            out.setdefault(a.content, []).append(a)
        return out

    def argument(self, arg_id):
        try:
            return self._index[arg_id]
        except KeyError:
            raise UnknownArgument("no argument %r" % arg_id) from None

    def by_content(self, member_id):
        return list(self._content_index.get(member_id, ()))

    def ids_of_kind(self, kind):
        return [a.arg_id for a in self.arguments if a.kind == kind]


def classify_consequent_role(ekb, consequent_id, feeds_further_rule):
    """P for consequents annotated as premises or feeding another rule,
    C for annotated claims and for pure terminal inferences."""
    f = ekb.formula(consequent_id)
    if f.premise_kind is not None or feeds_further_rule:
        return P
    return C


def apply_modus_ponens(ekb, rule_arg, antecedent_args, arg_id="A?"):
    """Build the derived argument for one rule application.

    The antecedent arguments' contents must cover the rule's antecedent
    formulas exactly; the result concludes the rule's consequent.
    """
    if rule_arg.kind != IRP:
        raise AntecedentMismatch("%s is not an inference-rule argument" % rule_arg.arg_id)
    rule = ekb.rule(rule_arg.content)
    given = sorted(a.content for a in antecedent_args)
    wanted = sorted(rule.antecedents)
    if given != wanted:
        raise AntecedentMismatch("rule %s wants antecedents %s, got %s"
                                 % (rule.rule_id, wanted, given))
    premises = frozenset().union(*(a.premises for a in antecedent_args))
    sub = []
    for a in antecedent_args:
        for s in a.subargs:
            if s not in sub:
                sub.append(s)
    for extra in (rule_arg.arg_id, arg_id):
        if extra not in sub:
            sub.append(extra)
    feeds = any(rule.consequent in r.antecedents for r in ekb.rules
                if r.rule_id != rule.rule_id)
    return Argument(arg_id=arg_id,
                    kind=classify_consequent_role(ekb, rule.consequent, feeds),
                    content=rule.consequent,
                    premises=premises,
                    conclusion=rule.consequent,
                    subargs=tuple(sub),
                    top_rule=rule.rule_id)


def derive_argument_set(ekb, doc=None):
    """Derive the full argument set for a knowledge base.

    Rules fire once each, in document order; a firing replaces the atomic
    argument of its consequent, so a consequent derived early feeds any later
    rule in derived form.  A consequent derived by a second rule becomes an
    additional argument placed right after the first.
    """
    rule_ids = {r.rule_id for r in ekb.rules}
    feeders = {}
    for r in ekb.rules:
        for a in r.antecedents:
            feeders.setdefault(a, set()).add(r.rule_id)

    # one mutable record per argument; member slots keep document positions
    records = []
    member_records = {}
    current = {}
    for member_id in ekb.member_order:
        if member_id in rule_ids:
            rec = {"kind": IRP, "content": member_id, "premises": {member_id},
                   "sub": None, "top_rule": None, "atomic": True}
        else:
            f = ekb.formula(member_id)
            kind = P if f.premise_kind is not None else C
            rec = {"kind": kind, "content": member_id, "premises": {member_id},
                   "sub": None, "top_rule": None, "atomic": True}
        rec["sub"] = [len(records)]
        records.append(rec)
        member_records[member_id] = [len(records) - 1]
        current[member_id] = len(records) - 1

    applications = []
    fired = set()
    changed = True
    while changed:
        changed = False
        for r in ekb.rules:
            if r.rule_id in fired:
                continue
            if not all(a in current for a in r.antecedents):
                continue
            fired.add(r.rule_id)
            changed = True
            ant_idx = [current[a] for a in r.antecedents]
            rule_idx = current[r.rule_id]
            feeds = any(rid != r.rule_id for rid in feeders.get(r.consequent, ()))
            premises = set()
            for i in ant_idx:
                premises |= records[i]["premises"]
            sub = []
            for i in ant_idx:
                for s in records[i]["sub"]:
                    if s not in sub:
                        sub.append(s)
            if rule_idx not in sub:
                sub.append(rule_idx)
            derived = {"kind": classify_consequent_role(ekb, r.consequent, feeds),
                       "content": r.consequent, "premises": premises,
                       "sub": sub, "top_rule": r.rule_id, "atomic": False}
            target = current[r.consequent]
            if records[target]["atomic"]:
                # upgrade the atomic placeholder in place, keeping its position
                derived["sub"] = sub + [target]
                records[target] = derived
                result_idx = target
            else:
                derived["sub"] = sub + [len(records)]
                records.append(derived)
                member_records[r.consequent].append(len(records) - 1)
                current[r.consequent] = len(records) - 1
                result_idx = len(records) - 1
            applications.append((rule_idx, ant_idx, result_idx))

    # flatten to document order and hand out argument ids
    ordered = []
    for member_id in ekb.member_order:
        ordered.extend(member_records[member_id])
    arg_id = {idx: "A%d" % (pos + 1) for pos, idx in enumerate(ordered)}

    arguments = []
    for idx in ordered:
        rec = records[idx]
        arguments.append(Argument(
            arg_id=arg_id[idx],
            kind=rec["kind"],
            content=rec["content"],
            premises=frozenset(rec["premises"]),
            conclusion=rec["content"],
            subargs=tuple(arg_id[i] for i in rec["sub"]),
            top_rule=rec["top_rule"]))
    apps = tuple(MPApplication(arg_id[r], tuple(arg_id[a] for a in ants), arg_id[res])
                 for r, ants, res in applications)
    return ArgumentSet(tuple(arguments), apps)


def subarguments(aset, arg_id):
    """Transitive closure of Sub, self-inclusive, in derivation order."""
    start = aset.argument(arg_id)
    seen = []
    stack = [start]
    while stack:
        arg = stack.pop(0)
        for sid in arg.subargs:
            if sid not in seen:
                seen.append(sid)
                if sid != arg.arg_id:
                    stack.append(aset.argument(sid))
    return [aset.argument(s) for s in seen]
