"""Argument derivation: modus ponens over the knowledge base.

Every knowledge-base member (premise formula or rule) is an atomic argument;
claim texts enter as atomic conclusion arguments.  Firing each rule replaces
the atomic argument of its consequent with a derived argument carrying
Prem/Conc/Sub structure, unless an earlier firing used that atomic argument;
then the derived argument is added right after it.  Argument ids follow
document order, with a derived argument numbered at its consequent's position
and each paragraph's conclusions numbered after its premises and rules.
"""

import heapq
from collections import namedtuple
from functools import cached_property
from typing import NamedTuple

P = "P"
IRP = "IRP"
C = "C"


class DerivationError(ValueError):
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


def _fire(ekb):
    """The firing pass of derive_argument_set: the order rules fire in and
    the argument records each firing reads and writes, with no Prem or Sub.

    Record i < len(ekb.member_order) is the atomic argument of member i; a
    firing whose result is an extra argument opens the next record.  Returns
    the firings in order, as (rule, antecedent records, rule record, result
    record, whether the consequent feeds another rule), and the records in
    argument-id order, each as (record, member id).
    """
    rules = ekb.rules
    members = ekb.member_order
    position = {r.rule_id: j for j, r in enumerate(rules)}
    feeders = {}     # formula id -> ids of the rules taking it as an antecedent
    for r in rules:
        for a in r.antecedents:
            feeders.setdefault(a, set()).add(r.rule_id)

    # waits[j]: unfired rules deriving an antecedent of rule j
    waits = [0] * len(rules)
    for r in rules:
        for rid in feeders.get(r.consequent, ()):
            waits[position[rid]] += 1
    ready = [j for j, w in enumerate(waits) if w == 0]
    fired = [False] * len(rules)
    earliest = 0
    current = {m: i for i, m in enumerate(members)}
    extras = {}      # member id -> its extra records
    n_records = len(members)
    derived = set()  # records holding a derived argument
    used = set()     # records some firing took as an antecedent
    firings = []
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
        used.update(ant_idx)
        # the first derivation upgrades an unused atomic placeholder in
        # place, keeping its position; any other becomes an extra argument
        result = current[r.consequent]
        if result in derived or result in used:
            result = n_records
            n_records += 1
            extras.setdefault(r.consequent, []).append(result)
            current[r.consequent] = result
        derived.add(result)
        feeds_other = any(rid != r.rule_id for rid in feeders.get(r.consequent, ()))
        firings.append((r, ant_idx, current[r.rule_id], result, feeds_other))

    numbering = []
    for i, member_id in enumerate(members):
        numbering.append((i, member_id))
        for x in extras.get(member_id, ()):
            numbering.append((x, member_id))
    return firings, numbering


def argument_ids(ekb):
    """(argument id, member id) for each argument derive_argument_set(ekb)
    makes, in order, from its firing pass alone; a derived argument's member
    is the formula it concludes."""
    return [("A%d" % (pos + 1), member_id)
            for pos, (_, member_id) in enumerate(_fire(ekb)[1])]


def derive_argument_set(ekb):
    """Derive the full argument set for a knowledge base.

    Rules fire once each.  A rule fires only after every rule deriving one
    of its antecedents has fired, and among the rules ready to fire the
    earliest in document order goes first; when none is ready, which only a
    cycle of rules causes, the earliest unfired rule fires.  A firing
    replaces the atomic argument of its consequent, so every later rule
    takes that consequent in derived form.  A consequent derived by a second
    rule becomes an additional argument placed right after the first.  So
    does one whose atomic argument an earlier firing took as an antecedent,
    which only a cycle of rules causes: replacing it would put each of the
    two arguments in the other's Sub.
    """
    firings, numbering = _fire(ekb)
    rule_ids = {r.rule_id for r in ekb.rules}
    # one record per argument, by record index
    records = {}
    for i, member_id in enumerate(ekb.member_order):
        if member_id in rule_ids:
            kind = IRP
        else:
            kind = P if ekb.formula(member_id).premise_kind is not None else C
        records[i] = {"kind": kind, "content": member_id, "premises": {member_id},
                      "sub": [i], "top_rule": None}

    for r, ant_idx, rule_idx, result_idx, feeds_other in firings:
        # modus ponens: Prem is the union of the antecedents' premises; Sub
        # lists their subarguments in order, then the rule argument, then
        # the derived argument itself.  The consequent is a premise when
        # annotated as one or when it feeds another rule, else a conclusion.
        is_premise = ekb.formula(r.consequent).premise_kind is not None or feeds_other
        records[result_idx] = {
            "kind": P if is_premise else C,
            "content": r.consequent,
            "premises": set().union(*(records[i]["premises"] for i in ant_idx)),
            "sub": list(dict.fromkeys(
                [s for i in ant_idx for s in records[i]["sub"]] + [rule_idx, result_idx])),
            "top_rule": r.rule_id}

    # hand out argument ids in the firing pass's order
    arg_id = {idx: "A%d" % (pos + 1) for pos, (idx, _) in enumerate(numbering)}
    arguments = []
    for idx, _ in numbering:
        rec = records[idx]
        arguments.append(Argument(
            arg_id=arg_id[idx],
            kind=rec["kind"],
            content=rec["content"],
            premises=frozenset(rec["premises"]),
            conclusion=rec["content"],
            subargs=tuple(arg_id[i] for i in rec["sub"]),
            top_rule=rec["top_rule"]))
    apps = tuple(MPApplication(arg_id[rule_idx], tuple(arg_id[a] for a in ant_idx),
                               arg_id[result_idx])
                 for _, ant_idx, rule_idx, result_idx, _ in firings)
    return ArgumentSet(tuple(arguments), apps)
