import pytest

from akgraph import arguments as A
from akgraph import ekb as E
from akgraph import markers
from akgraph.ingest import parse_brat_ann


def kb_from(txt, ann):
    doc = parse_brat_ann(txt, ann)
    return E.build_ekb(doc, markers.detect_ims(doc.document)), doc


@pytest.fixture
def chain_kb():
    # two chained rules: T1 => T2 (premise), T2 => T3 (claim)
    txt = "Ice melted. Therefore, roads got wet. Hence, driving was risky.\n"
    ann = "\n".join([
        "T1\tPremise 0 10\tIce melted",
        "T2\tPremise 23 36\troads got wet",
        "T3\tClaim 45 62\tdriving was risky",
        "R1\tSupports Arg1:T1 Arg2:T2",
        "R2\tSupports Arg1:T2 Arg2:T3",
    ]) + "\n"
    return kb_from(txt, ann)


def test_chain_derivation(chain_kb):
    kb, _ = chain_kb
    aset = A.derive_argument_set(kb)
    # members: T1, rule1, T2, rule2, T3 -> five arguments
    assert [a.arg_id for a in aset.arguments] == ["A1", "A2", "A3", "A4", "A5"]
    kinds = {a.arg_id: a.kind for a in aset.arguments}
    assert kinds == {"A1": "P", "A2": "IRP", "A3": "P", "A4": "IRP", "A5": "C"}

    a3 = aset.argument("A3")     # intermediate conclusion, kept as premise
    assert a3.derived and a3.top_rule == "R1"
    assert a3.premises == frozenset({"T1"})
    assert a3.conclusion == "T2"
    assert a3.subargs == ("A1", "A2", "A3")

    a5 = aset.argument("A5")
    assert a5.kind == "C"
    assert a5.premises == frozenset({"T1"})
    assert set(a5.subargs) == {"A1", "A2", "A3", "A4", "A5"}

    assert [app.result_arg for app in aset.mp_applications] == ["A3", "A5"]


def test_prem_conc_recomputation(essay):
    kb, aset = essay["ekb"], essay["aset"]
    for app in aset.mp_applications:
        rule = kb.rule(aset.argument(app.rule_arg).content)
        ants = sorted(aset.argument(x).content for x in app.antecedent_args)
        assert ants == sorted(rule.antecedents)
        result = aset.argument(app.result_arg)
        assert result.conclusion == rule.consequent
        want = frozenset().union(*(aset.argument(x).premises
                                   for x in app.antecedent_args))
        assert result.premises == want


def test_sub_closure_acyclic(essay):
    aset = essay["aset"]
    for arg in aset.arguments:
        # transitive closure of Sub, self-inclusive
        ids, stack = set(), [arg.arg_id]
        while stack:
            sid = stack.pop()
            if sid not in ids:
                ids.add(sid)
                stack.extend(aset.argument(sid).subargs)
        assert arg.arg_id in ids
        assert set(arg.subargs) == ids   # Sub is already closed
        for sid in arg.subargs:
            if sid != arg.arg_id:
                assert arg.arg_id not in aset.argument(sid).subargs


def doc_of(txt, spans, relations):
    """kb_from over (id, kind, surface) spans located in txt."""
    lines = ["%s\t%s %d %d\t%s" % (tid, kind, txt.index(s), txt.index(s) + len(s), s)
             for tid, kind, s in spans]
    lines += ["R%d\tSupports Arg1:%s Arg2:%s" % (i + 1, a, b)
              for i, (a, b) in enumerate(relations)]
    return kb_from(txt, "\n".join(lines) + "\n")


def assert_structure_closed(aset):
    """Each derived argument's Sub is closed under Sub, and its Prem is the
    union of the premises of the atomic non-rule arguments in its Sub."""
    for arg in (a for a in aset.arguments if a.derived):
        subs = [aset.argument(s) for s in arg.subargs]
        for sub in subs:
            assert set(sub.subargs) <= set(arg.subargs), (arg.arg_id, sub.arg_id)
        atomic = [s.premises for s in subs if not s.derived and s.kind != A.IRP]
        assert arg.premises == frozenset().union(*atomic), arg.arg_id


def test_rule_fires_after_the_rules_deriving_its_antecedents(essay, pollock):
    # R1 (T1+T4 => T2) comes first in document order, but its antecedent is
    # the consequent of R2 (T3 => T1+T4)
    kb, _ = doc_of("Pets are nice. Hence, get a pet. Dogs wag tails. "
                   "Therefore, pets are nice indeed.",
                   [("T1", "MajorClaim", "Pets are nice"), ("T2", "Claim", "get a pet"),
                    ("T3", "Premise", "Dogs wag tails"),
                    ("T4", "MajorClaim", "pets are nice indeed")],
                   [("T1", "T2"), ("T3", "T4")])
    assert [(r.rule_id, r.antecedents, r.consequent) for r in kb.rules] == \
        [("R1", ("T1+T4",), "T2"), ("R2", ("T3",), "T1+T4")]
    aset = A.derive_argument_set(kb)
    a4, a5 = aset.argument("A4"), aset.argument("A5")
    assert (a5.content, a5.top_rule, a5.premises) == ("T1+T4", "R2", {"T3"})
    assert (a4.content, a4.top_rule, a4.premises) == ("T2", "R1", {"T3"})
    assert a4.subargs == ("A2", "A3", "A5", "A1", "A4")
    assert [(m.rule_arg, m.result_arg) for m in aset.mp_applications] == \
        [("A3", "A5"), ("A1", "A4")]
    for s in (aset, essay["aset"], pollock["aset"]):
        assert_structure_closed(s)


def test_rule_cycle_fires_in_document_order():
    # R1: T1+T3 => T2 and R2: T2 => T1+T3 wait on each other
    kb, _ = doc_of("Ice melted. Therefore, roads got wet. Hence, ice melted indeed.",
                   [("T1", "MajorClaim", "Ice melted"), ("T2", "Premise", "roads got wet"),
                    ("T3", "MajorClaim", "ice melted indeed")],
                   [("T1", "T2"), ("T2", "T3")])
    aset = A.derive_argument_set(kb)
    assert [(m.rule_arg, m.antecedent_args, m.result_arg)
            for m in aset.mp_applications] == [("A1", ("A4",), "A2"),
                                               ("A3", ("A2",), "A4")]
    # every Sub names each argument once and ends with the argument itself
    for a in aset.arguments:
        assert len(set(a.subargs)) == len(a.subargs)
        assert a.subargs[-1] == a.arg_id
    assert aset.argument("A4").subargs == ("A1", "A2", "A3", "A4")


def test_apply_modus_ponens_matches_pipeline(chain_kb):
    kb, _ = chain_kb
    aset = A.derive_argument_set(kb)
    rule_arg = aset.argument("A2")
    built = A.apply_modus_ponens(kb, rule_arg, [aset.argument("A1")], arg_id="A3")
    assert built == aset.argument("A3")


def test_apply_modus_ponens_rejects_wrong_antecedents(chain_kb):
    kb, _ = chain_kb
    aset = A.derive_argument_set(kb)
    with pytest.raises(A.AntecedentMismatch):
        A.apply_modus_ponens(kb, aset.argument("A2"), [aset.argument("A5")])
    with pytest.raises(A.AntecedentMismatch):
        A.apply_modus_ponens(kb, aset.argument("A2"), [])
    with pytest.raises(A.AntecedentMismatch):
        # not a rule argument
        A.apply_modus_ponens(kb, aset.argument("A1"), [aset.argument("A1")])


def shared_consequent_doc():
    # both rules conclude the merged major-claim formula
    txt = ("Cats purr a lot. Therefore, pets are nice. "
           "Dogs wag tails. Hence, pets are nice indeed.\n")
    ann = "\n".join([
        "T1\tPremise 0 15\tCats purr a lot",
        "T2\tMajorClaim 28 41\tpets are nice",
        "T3\tPremise 43 57\tDogs wag tails",
        "T4\tMajorClaim 66 86\tpets are nice indeed",
        "R1\tSupports Arg1:T1 Arg2:T2",
        "R2\tSupports Arg1:T3 Arg2:T4",
    ]) + "\n"
    return parse_brat_ann(txt, ann)


def test_two_rules_same_consequent():
    doc = shared_consequent_doc()
    kb = E.build_ekb(doc, markers.detect_ims(doc.document))
    assert len(kb.rules) == 2
    assert {r.consequent for r in kb.rules} == {"T2+T4"}
    aset = A.derive_argument_set(kb)
    both = [a for a in aset.arguments if a.content == "T2+T4"]
    assert [a.arg_id for a in both] == ["A5", "A6"]
    first, second = both
    assert first.top_rule == "R1" and second.top_rule == "R2"
    assert first.derived and second.derived
    assert len(aset.mp_applications) == 2


def test_determinism(essay):
    kb = essay["ekb"]
    assert A.derive_argument_set(kb) == A.derive_argument_set(kb)


def test_no_rules_all_atomic():
    txt = "Cats purr. Dogs bark.\n"
    ann = "\n".join([
        "T1\tPremise 0 9\tCats purr",
        "T2\tPremise 11 20\tDogs bark",
    ]) + "\n"
    kb, _ = kb_from(txt, ann)
    aset = A.derive_argument_set(kb)
    assert all(not a.derived for a in aset.arguments)
    assert aset.mp_applications == ()
    assert all(a.premises == frozenset({a.content}) for a in aset.arguments)


def test_unknown_argument_lookup(essay):
    with pytest.raises(A.UnknownArgument):
        essay["aset"].argument("A99")


def test_lookups_match_scans_and_take_first_of_duplicate_ids(essay):
    aset = essay["aset"]
    for a in aset.arguments:
        assert aset.argument(a.arg_id) is a
    first = aset.arguments[0]
    twin = first._replace(kind=A.C)
    dup = A.ArgumentSet((first, twin))
    assert dup.argument(first.arg_id) is first
