"""Argument derivation: modus ponens over the knowledge base.

Every knowledge-base member (premise formula or rule) is an atomic argument;
claim texts enter as atomic conclusion arguments.  Firing each rule replaces
the atomic argument of its consequent with a derived argument carrying
Prem/Conc/Sub structure.  Argument ids follow document order, with a derived
argument numbered at its consequent's position and each paragraph's
conclusions numbered after its premises and rules.
"""

import heapq
import logging
from collections import namedtuple
from functools import cached_property
from typing import NamedTuple

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


class Argument(NamedTuple):
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


class MPApplication(NamedTuple):
    rule_arg: str
    antecedent_args: tuple
    result_arg: str


class ArgumentSet(namedtuple("ArgumentSet", "arguments mp_applications",
                             defaults=((),))):
    """Argument and MPApplication tuples."""

    # reversed, so that of duplicate ids the first wins, as in a scan
    @cached_property
    def _index(self):
        return {a.arg_id: a for a in reversed(self.arguments)}

    def argument(self, arg_id):
        try:
            return self._index[arg_id]
        except KeyError:
            raise UnknownArgument("no argument %r" % arg_id) from None

    def ids_of_kind(self, kind):
        return [a.arg_id for a in self.arguments if a.kind == kind]


def classify_consequent_role(ekb, consequent_id, feeds_further_rule):
    """P for consequents annotated as premises or feeding another rule,
    C for annotated claims and for pure terminal inferences."""
    f = ekb.formula(consequent_id)
    if f.premise_kind is not None or feeds_further_rule:
        return P
    return C


def _feeders(rules):
    """formula id -> ids of the rules taking it as an antecedent."""
    feeders = {}
    for r in rules:
        for a in r.antecedents:
            feeders.setdefault(a, set()).add(r.rule_id)
    return feeders


def _modus_ponens(ekb, rule, feeders, antecedents, rule_ref, result_ref):
    """Role, Prem and Sub of the argument one firing of rule derives.

    antecedents holds the (premises, sub) pair of each antecedent argument;
    the refs are whatever the caller uses to name arguments.  Prem is the
    union of the antecedents' premises; Sub lists their subarguments in
    order, then the rule argument, then the derived argument itself.  On a
    rule cycle an antecedent's Sub already names the derived argument; it
    is still listed once, last.
    """
    premises = set()
    sub = []
    for ant_premises, ant_sub in antecedents:
        premises |= ant_premises
        for s in ant_sub:
            if s != result_ref and s not in sub:
                sub.append(s)
    if rule_ref not in sub:
        sub.append(rule_ref)
    sub.append(result_ref)
    feeds = any(rid != rule.rule_id for rid in feeders.get(rule.consequent, ()))
    return classify_consequent_role(ekb, rule.consequent, feeds), premises, sub


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
    kind, premises, sub = _modus_ponens(
        ekb, rule, _feeders(ekb.rules),
        [(a.premises, a.subargs) for a in antecedent_args], rule_arg.arg_id, arg_id)
    return Argument(arg_id=arg_id,
                    kind=kind,
                    content=rule.consequent,
                    premises=frozenset(premises),
                    conclusion=rule.consequent,
                    subargs=tuple(sub),
                    top_rule=rule.rule_id)


def derive_argument_set(ekb):
    """Derive the full argument set for a knowledge base.

    Rules fire once each.  A rule fires only after every rule deriving one
    of its antecedents has fired, and among the rules ready to fire the
    earliest in document order goes first; when none is ready, which only a
    cycle of rules causes, the earliest unfired rule fires.  A firing
    replaces the atomic argument of its consequent, so every later rule
    takes that consequent in derived form.  A consequent derived by a second
    rule becomes an additional argument placed right after the first.
    """
    rules = ekb.rules
    position = {r.rule_id: j for j, r in enumerate(rules)}
    feeders = _feeders(rules)

    # one mutable record per argument; member slots keep document positions
    records = []
    member_records = {}
    current = {}
    for member_id in ekb.member_order:
        if member_id in position:
            kind = IRP
        else:
            kind = P if ekb.formula(member_id).premise_kind is not None else C
        member_records[member_id] = [len(records)]
        current[member_id] = len(records)
        records.append({"kind": kind, "content": member_id, "premises": {member_id},
                        "sub": [len(records)], "top_rule": None, "atomic": True})

    # waits[j]: unfired rules deriving an antecedent of rule j
    waits = [0] * len(rules)
    for r in rules:
        for rid in feeders.get(r.consequent, ()):
            waits[position[rid]] += 1
    ready = [j for j, w in enumerate(waits) if w == 0]
    fired = [False] * len(rules)
    earliest = 0
    applications = []
    for _ in rules:
        if ready:
            j = heapq.heappop(ready)
        else:
            while fired[earliest]:
                earliest += 1
            j = earliest
        fired[j] = True
        r = rules[j]
        for rid in feeders.get(r.consequent, ()):
            k = position[rid]
            waits[k] -= 1
            if waits[k] == 0 and not fired[k]:
                heapq.heappush(ready, k)
        ant_idx = [current[a] for a in r.antecedents]
        rule_idx = current[r.rule_id]
        target = current[r.consequent]
        # the first derivation upgrades the atomic placeholder in place,
        # keeping its position; a later one becomes an extra argument
        result_idx = target if records[target]["atomic"] else len(records)
        kind, premises, sub = _modus_ponens(
            ekb, r, feeders,
            [(records[i]["premises"], records[i]["sub"]) for i in ant_idx],
            rule_idx, result_idx)
        derived = {"kind": kind, "content": r.consequent, "premises": premises,
                   "sub": sub, "top_rule": r.rule_id, "atomic": False}
        if result_idx == target:
            records[target] = derived
        else:
            records.append(derived)
            member_records[r.consequent].append(result_idx)
            current[r.consequent] = result_idx
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

