import importlib.util
import json

import pytest
from hypothesis import strategies as st

from pathlib import Path

from akgraph.cli import PipelineConfig, run_pipeline
from akgraph.ingest import natural_key

DATA = Path(__file__).parent / "data"


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, DATA.parents[1] / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perfbench_inputs():
    """The benchmark's input builder, which imports nothing from akgraph."""
    return _perfbench("inputs")


ORACLE = _perfbench("oracle")   # the benchmark's exhaustive 2^n reference


def oracle_families(af):
    """The naive and preferred families of af, at most ORACLE.MAX_ARGS
    arguments, from the benchmark's subset-table oracle, which shares no code
    with akgraph: each a list of frozensets of argument ids in report order,
    that of their members' natural keys, members in natural order."""
    index = {a: i for i, a in enumerate(af.args)}
    found = ORACLE.families(len(af.args), [(index[a], index[b]) for a, b in af.atts])

    def decode(masks):
        sets = [frozenset(a for a, i in index.items() if m >> i & 1) for m in masks]
        return sorted(sets, key=lambda s: sorted(map(natural_key, s)))

    return decode(found["naive"]), decode(found["preferred"])


@pytest.fixture(scope="session")
def essay_report():
    cfg = PipelineConfig(input_path=str(DATA / "essay056.txt"),
                         ann_path=str(DATA / "essay056.ann"),
                         prefs_path=str(DATA / "essay056.prefs"))
    return run_pipeline(cfg)


@pytest.fixture(scope="session")
def pollock_report():
    cfg = PipelineConfig(input_path=str(DATA / "pollock.json"))
    return run_pipeline(cfg)


@pytest.fixture(scope="session")
def essay(essay_report):
    return essay_report.artifacts


@pytest.fixture(scope="session")
def pollock(pollock_report):
    return pollock_report.artifacts


_CLAUSES = ("Pets are nice", "dogs bark", "cats purr when happy",
            "we should get a pet", "rain falls")
# joins with the offset and length of their inference marker, if any
_JOINS = ((". ", None), (".\n", None), (". Therefore, ", (2, 9)), (" because ", (1, 7)),
          ("; thus ", (2, 4)), (", so ", (2, 2)), (" as ", (1, 2)), (". Since ", (2, 5)))
# besides T<n>, ids equal to some T<n> as numbers, and ids shaped like the
# ids the EKB makes up: rules, merged major claims
_IDS = tuple("T%d" % i for i in range(1, 25)) + ("T01", "T002", "R1", "R2", "T1+T2",
                                                 "T1+T2+", "A1")


@st.composite
def canonical_docs(draw, max_components=12):
    """Canonical JSON that the parser accepts: clauses joined by inference
    markers, components on some clauses, rule spans on some markers, and
    relations and stances between them."""
    text, comps, rule_spans = "", [], []
    for _ in range(draw(st.integers(1, max_components))):
        clause = draw(st.sampled_from(_CLAUSES))
        join, marker = draw(st.sampled_from(_JOINS))
        kind = draw(st.sampled_from((None, "MajorClaim", "Claim", "Premise")))
        if kind:
            comps.append({"kind": kind, "start": len(text), "end": len(text) + len(clause)})
        text += clause
        if marker and draw(st.booleans()):
            start = len(text) + marker[0]
            rule_spans.append({"start": start, "end": start + marker[1]})
        text += join
    ids = draw(st.permutations(_IDS))
    for entry, entry_id in zip(comps + rule_spans, ids):
        entry["id"] = entry_id
    targets = [e["id"] for e in comps + rule_spans]
    relations = []
    if len(comps) > 1:
        pairs = st.tuples(st.sampled_from(comps), st.sampled_from(targets),
                          st.sampled_from(("Supports", "Attacks")))
        for i, (src, tgt, kind) in enumerate(draw(st.lists(pairs, max_size=6)), 1):
            if src["id"] != tgt:
                relations.append({"id": "R%d" % i, "kind": kind,
                                  "source": src["id"], "target": tgt})
    stances = [{"id": "A%d" % i, "claim": c["id"],
                "stance": draw(st.sampled_from(("For", "Against")))}
               for i, c in enumerate(comps, 1) if c["kind"] == "Claim" and draw(st.booleans())]
    return json.dumps({"doc_id": "fuzz", "text": text, "components": comps,
                       "rule_spans": rule_spans, "relations": relations,
                       "stances": stances})
