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

P = "P"
IRP = "IRP"
C = "C"


class DerivationError(ValueError):
    pass


class UnknownArgument(DerivationError):
    pass


class Argument(namedtuple("Argument",
                           "arg_id kind content premises conclusion subargs top_rule",
                           defaults=(None,))):
    """One argument: atomic (an annotated formula or rule) or derived.

    kind is P, IRP or C; content is the formula or rule id behind it.
    premises is Prem, a frozenset of formula/rule ids, conclusion is Conc,
    subargs is Sub (arg ids, self-inclusive, in derivation order).  Derived
    arguments carry their top rule.
    """
    __slots__ = ()

    @property
    def derived(self):
        return self.top_rule is not None


class MPApplication(namedtuple("MPApplication", "rule_arg antecedent_args result_arg")):
    """One modus-ponens step: the rule argument and the antecedent arguments
    it applies to give the result argument."""
    __slots__ = ()


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
    return tuple(firings), tuple(numbering)


def argument_ids(ekb):
    """(argument id, member id) for each argument derive_argument_set(ekb)
    makes, in order, from its firing pass alone; a derived argument's member
    is the formula it concludes."""
    return [("A%d" % (pos + 1), member_id)
            for pos, (_, member_id) in enumerate(ekb._firing[1])]


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
    firings, numbering = ekb._firing
    # one entry per argument record in each table, by record index
    members = ekb.member_order
    rules, formula = ekb._rule_index, ekb.formula
    arg_id = [None] * len(numbering)
    for pos, (idx, _) in enumerate(numbering):
        arg_id[idx] = "A%d" % (pos + 1)
    extra = [None] * (len(numbering) - len(members))   # filled by the firings
    kinds = [IRP if m in rules else P if formula(m).premise_kind is not None else C
             for m in members] + extra
    contents = list(members) + extra
    premises = [frozenset((m,)) for m in members] + extra
    subs = [(a,) for a in arg_id[:len(members)]] + extra
    top_rules = [None] * len(numbering)
    for r, ant_idx, rule_idx, result_idx, feeds_other in firings:
        # modus ponens: Prem is the union of the antecedents' premises; Sub
        # lists their subarguments in order, then the rule argument, then
        # the derived argument itself.  The consequent is a premise when
        # annotated as one or when it feeds another rule, else a conclusion.
        is_premise = formula(r.consequent).premise_kind is not None or feeds_other
        kinds[result_idx] = P if is_premise else C
        contents[result_idx] = r.consequent
        premises[result_idx] = frozenset().union(*[premises[i] for i in ant_idx])
        subs[result_idx] = tuple(dict.fromkeys(
            [s for i in ant_idx for s in subs[i]] + [arg_id[rule_idx], arg_id[result_idx]]))
        top_rules[result_idx] = r.rule_id

    arguments = tuple(Argument(arg_id[i], kinds[i], contents[i], premises[i],
                               contents[i], subs[i], top_rules[i])
                      for i, _ in numbering)
    apps = tuple(MPApplication(arg_id[rule_idx], tuple(arg_id[a] for a in ant_idx),
                               arg_id[result_idx])
                 for _, ant_idx, rule_idx, result_idx, _ in firings)
    return ArgumentSet(arguments, apps)
