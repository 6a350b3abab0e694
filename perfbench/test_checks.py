"""Self-tests of the benchmark's checkers: each must pass a right answer and
reject a deliberately wrong one.

    python3 perfbench/test_checks.py      (or: python3 -m pytest perfbench)
"""

import itertools
import json
import random
import sys
import tempfile
import unittest
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402

IM = namedtuple("IM", "surface span")


def _random_af(rng, n, density):
    args = ["x%d" % i for i in range(n)]
    atts = [(a, b) for a, b in itertools.product(args, args) if rng.random() < density]
    return args, atts


def _essay_report(copies):
    """A right semantics report for essay056 x copies, written out by hand."""
    last = "A%d" % (inputs.ARGS_PER_COPY * copies + 1)
    args = ["A%d" % i for i in range(1, inputs.ARGS_PER_COPY * copies + 2)]
    without = lambda *xs: [a for a in args if a not in xs]  # noqa: E731
    return {"args": args, "atts": [["A16", "A17"], ["A17", last]],
            "naive": [without("A17"), without("A16", last)],
            "preferred": [without("A17")], "checked_sets": []}


class BruteForce(unittest.TestCase):
    def test_numpy_oracle_agrees_with_subset_search(self):
        rng = random.Random(11)
        for _ in range(60):
            args, atts = _random_af(rng, rng.randint(1, 7), rng.choice((0.1, 0.25, 0.4)))
            naive, preferred = checks.brute_families(args, atts)
            index = {a: i for i, a in enumerate(args)}
            got = oracle.families(len(args), [(index[a], index[b]) for a, b in atts])
            to_sets = lambda masks: {frozenset(a for a in args if m >> index[a] & 1)  # noqa: E731
                                     for m in masks}
            self.assertEqual(to_sets(got["naive"]), naive, atts)
            self.assertEqual(to_sets(got["preferred"]), preferred, atts)

    def test_product_of_pieces_is_the_union_s_families(self):
        for seed in range(5):
            (args, atts, pieces), = inputs.label(
                inputs.pieces_structures(seed, frameworks=1, pieces=2), seed)
            fams = [checks.brute_families(a, t) for a, t in pieces]
            naive, preferred = checks.brute_families(args, atts)
            self.assertEqual(checks.product([f[0] for f in fams]), naive)
            self.assertEqual(checks.product([f[1] for f in fams]), preferred)

    def test_pieces_are_disjoint_and_connected(self):
        for args, atts, pieces in inputs.label(inputs.pieces_structures(1, 2, 6), 3):
            self.assertEqual(sorted(args), sorted(a for p, _ in pieces for a in p))
            for p_args, p_atts in pieces:
                self.assertIn(len(p_args), (3, 4))
                index = {a: i for i, a in enumerate(p_args)}
                self.assertTrue(inputs._is_connected(
                    len(p_args), {(index[a], index[b]) for a, b in p_atts}))


class Families(unittest.TestCase):
    expected = {frozenset("ac"), frozenset("b")}

    def test_right_family_passes(self):
        self.assertEqual(checks.check_family("naive", set(self.expected), self.expected), [])

    def test_dropped_extension_is_rejected(self):
        problems = checks.check_family("naive", {frozenset("ac")}, self.expected)
        self.assertTrue(problems and "missing" in problems[0])

    def test_extra_extension_is_rejected(self):
        problems = checks.check_family(
            "naive", self.expected | {frozenset("a")}, self.expected)
        self.assertTrue(problems and "extra" in problems[0])

    def test_af_report_checks_both_families(self):
        naive, preferred = checks.brute_families("abc", [("a", "b"), ("b", "c")])
        report = {"naive": [sorted(e) for e in naive],
                  "preferred": [sorted(e) for e in preferred]}
        self.assertEqual(checks.check_af_report(report, naive, preferred), [])
        report["preferred"].append(["b"])
        self.assertTrue(checks.check_af_report(report, naive, preferred))


class EssaySemantics(unittest.TestCase):
    def test_right_report_passes(self):
        for copies in (1, 32):
            self.assertEqual(checks.check_essay_semantics(_essay_report(copies), copies), [])

    def test_wrong_reports_are_rejected(self):
        for mutate in (lambda r: r["preferred"].pop(),
                       lambda r: r["preferred"].append(r["naive"][1]),
                       lambda r: r["naive"].pop(0),
                       lambda r: r["atts"].append(["A1", "A2"]),
                       lambda r: r["atts"].pop(),
                       lambda r: r["args"].pop()):
            report = _essay_report(32)
            mutate(report)
            self.assertTrue(checks.check_essay_semantics(report, 32))

    def test_counts_off_by_one_are_rejected(self):
        right = {"components": 480, "rules": 128, "arguments": 545, "attacks": 2,
                 "preferred extensions": 1}
        self.assertEqual(checks.check_counts(right, 32), [])
        for key in right:
            for delta in (-1, 1):
                self.assertTrue(checks.check_counts(dict(right, **{key: right[key] + delta}), 32))


class Markers(unittest.TestCase):
    copy = "It rains. Thus the road is wet because water falls due to the fact that clouds form.\n"
    surfaces = {"thus", "because", "due to"}

    def ims(self, copies):
        out = []
        for k in range(copies):
            base = k * len(self.copy)
            for surface, extra in (("Thus", 0), ("because", 0), ("due to", len(checks.BRIDGE))):
                s = base + self.copy.index(surface)
                out.append(IM(surface, (s, s + len(surface) + extra)))
        return out

    def test_right_spans_pass(self):
        self.assertEqual(checks.check_ims(self.copy * 3, self.ims(3), self.surfaces,
                                          len(self.copy), 3), [])

    def test_span_shifted_by_one_is_rejected(self):
        for i in range(6):
            for delta in (-1, 1):
                ims = self.ims(2)
                s, e = ims[i].span
                ims[i] = IM(ims[i].surface, (s + delta, e + delta))
                self.assertTrue(checks.check_ims(self.copy * 2, ims, self.surfaces,
                                                 len(self.copy), 2))

    def test_surface_outside_the_lexicon_is_rejected(self):
        self.assertTrue(checks.check_ims(self.copy, self.ims(1), {"thus", "because"},
                                         len(self.copy), 1))

    def test_missing_marker_in_a_copy_is_rejected(self):
        self.assertTrue(checks.check_ims(self.copy * 2, self.ims(2)[:-1], self.surfaces,
                                         len(self.copy), 2))

    def test_lexicon_file_is_parsed(self):
        surfaces = checks.lexicon_surfaces(SRC / "akgraph" / "data" / "inference_markers.tsv")
        self.assertIn("because", surfaces)
        self.assertIn("as a result", surfaces)


class CliOutput(unittest.TestCase):
    def write(self, out, report):
        for suffix in checks.SUFFIXES:
            (out / ("essay056.%s" % suffix)).write_text("x")
        (out / "essay056.semantics.json").write_text(json.dumps(report))

    def test_right_output_passes(self):
        with tempfile.TemporaryDirectory() as d:
            self.write(Path(d), _essay_report(1))
            self.assertEqual(checks.check_cli_output(d, 0, "", "essay056"), [])

    def test_wrong_output_is_rejected(self):
        with tempfile.TemporaryDirectory() as d:
            self.write(Path(d), _essay_report(1))
            self.assertTrue(checks.check_cli_output(d, 1, "", "essay056"))
            self.assertTrue(checks.check_cli_output(d, 0, "Traceback", "essay056"))
            (Path(d) / "essay056.apx").unlink()
            self.assertTrue(checks.check_cli_output(d, 0, "", "essay056"))
        with tempfile.TemporaryDirectory() as d:
            report = _essay_report(1)
            report["preferred"][0].remove("A1")
            self.write(Path(d), report)
            self.assertTrue(checks.check_cli_output(d, 0, "", "essay056"))


@unittest.skipUnless((SRC / "akgraph").is_dir(), "needs the akgraph sources")
class RealPipeline(unittest.TestCase):
    """The checks accept what akgraph computes on essay056 x 2."""

    def test_pipeline_output_passes(self):
        sys.path.insert(0, str(SRC))
        from akgraph.cli import PipelineConfig, run_pipeline

        text, ann, prefs = inputs.read_essay()
        long_text, long_ann, long_prefs = inputs.replicate(text, ann, prefs, 2)
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for ext, content in (("txt", long_text), ("ann", inputs.shuffle_ann(long_ann, 4)),
                                 ("prefs", long_prefs)):
                paths.append(Path(d) / ("doc." + ext))
                paths[-1].write_text(content, encoding="utf-8")
            report = run_pipeline(PipelineConfig(*map(str, paths[:2]), prefs_path=str(paths[2]),
                                                 cap=100))
        self.assertEqual(checks.check_counts(report.counts, 2), [])
        self.assertEqual(checks.check_essay_semantics(report.artifacts["semantics"], 2), [])
        surfaces = checks.lexicon_surfaces(SRC / "akgraph" / "data" / "inference_markers.tsv")
        self.assertEqual(checks.check_ims(long_text, report.artifacts["ims"], surfaces,
                                          len(text), 2), [])


if __name__ == "__main__":
    unittest.main()
