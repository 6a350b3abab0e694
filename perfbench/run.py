"""Stage benchmark for akgraph.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; akgraph is imported from `src/`.
One process, one client, closed loop: each operation starts when the
previous one has finished and been checked.  Workloads and metrics are
described in perfbench/README.md.

--trace 0 prints the end-to-end metrics; --trace 1 times each layer of
akgraph from outside, around calls into its public functions, and prints the
per-layer metrics.  Either way the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics, and a copy of
it goes to perfbench/results/.
"""

import argparse
import gc
import hashlib
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import inputs  # noqa: E402

# Fresh processes timed for setup_s, cli.start_ms and cli.import_ms.
SETUP_RUNS = 5
START_RUNS = 7

# long-essay: essay056 repeated this many times (48.5k characters, 545
# arguments); the ladder runs in the traced long-essay run only.
COPIES = 32
LADDER = (1, 4, 16, 32)

# Seed of the framework batches' structure, the same in every run; --seed
# only renames arguments.
STRUCTURE_SEED = 1
PIECES = dict(frameworks=4, pieces=6)
DENSE = dict(frameworks=32, size=20, density=0.15)


def _env():
    """Environment of child interpreters: akgraph from src/, and bytecode
    cached in src/akgraph/__pycache__ as for an installed package, whatever
    PYTHONDONTWRITEBYTECODE says, so that each run does not recompile it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _import_akgraph():
    if str(SRC) in sys.path:
        return
    sys.path.insert(0, str(SRC))
    # The library logs one warning per dropped marker; a caller that keeps
    # its own log configuration does not print them.
    logging.getLogger("akgraph").addHandler(logging.NullHandler())


def _digest(out_dir):
    h = hashlib.sha256()
    for p in sorted(Path(out_dir).iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _write_inputs(dest, text, ann, prefs, stem):
    dest.mkdir(parents=True, exist_ok=True)
    paths = {}
    for ext, content in (("txt", text), ("ann", ann), ("prefs", prefs)):
        paths[ext] = dest / ("%s.%s" % (stem, ext))
        paths[ext].write_text(content, encoding="utf-8")
    return paths


class OpFailed(Exception):
    pass


class Timer:
    """Named durations of one traced operation, in ms."""

    def __init__(self):
        self.ms = {}

    @contextmanager
    def __call__(self, name):
        t0 = time.perf_counter()
        yield
        self.ms[name] = (time.perf_counter() - t0) * 1e3


def _pieces(atts):
    """Weakly connected pieces of an attack graph, over attacked/attacking
    arguments only."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for a, b in atts:
        parent[find(a)] = find(b)
    return len({find(x) for x in list(parent)})


# -- traced layers --

def trace_document(paths, cap, out_dir, copies):
    """Run the pipeline on one document, one layer call at a time.

    Returns (timer, counts, problems).
    """
    from akgraph import (build_akg, build_ekb, build_kb_graph, derive_argument_set,
                         detect_ims, load_lexicon, naive_extensions,
                         parse_brat_ann, parse_preference_file,
                         preferred_extensions, project_af, semantics_report,
                         validate_document)
    from akgraph.cli import (FORMATS, ExitReport, PipelineConfig, render_format,
                             write_formats)

    text = paths["txt"].read_text(encoding="utf-8")
    ann = paths["ann"].read_text(encoding="utf-8")
    prefs_text = paths["prefs"].read_text(encoding="utf-8")
    t = Timer()
    with t("ingest.ms"):
        adoc = parse_brat_ann(text, ann, doc_id=paths["txt"].stem)
        violations = validate_document(adoc)
    with t("markers.ms"):
        ims = detect_ims(adoc.document, load_lexicon())
    with t("ekb.ms"):
        ekb = build_ekb(adoc, ims, prefs=parse_preference_file(prefs_text))
    with t("kbgraph.ms"):
        kbg = build_kb_graph(ekb)
    with t("arguments.ms"):
        aset = derive_argument_set(ekb)
    with t("akg.ms"):
        akg = build_akg(kbg, aset, adoc)
        af = project_af(akg)
    with t("semantics.naive_ms"):
        naive = naive_extensions(af, cap)
    with t("semantics.preferred_ms"):
        preferred = preferred_extensions(af, cap)
    report = semantics_report(af, cap)
    artifacts = {"doc": adoc, "ims": tuple(ims), "ekb": ekb, "kb_graph": kbg,
                 "aset": aset, "akg": akg, "af": af, "semantics": report}
    with t("exports.ms"):
        payloads = [render_format(f, artifacts) for f in FORMATS]
    # write_formats renders each format again before writing it, so its
    # time is exports.ms plus the writes.
    config = PipelineConfig(input_path=str(paths["txt"]), out_dir=str(out_dir),
                            formats=FORMATS, cap=cap)
    with t("cli.write_ms"):
        write_formats(config, ExitReport(0, artifacts=artifacts))

    core = {x for pair in af.atts for x in pair}
    counts = {
        "ingest.chars": len(adoc.document.raw_text),
        "ingest.components": len(adoc.components),
        "markers.ims": len(ims),
        "ekb.rules": len(ekb.rules),
        "ekb.dropped_ims": len(ekb.dropped_ims),
        "arguments.count": len(aset.arguments),
        "akg.edges": len(akg.edges),
        "semantics.core_args": len(core),
        "semantics.pieces": _pieces(af.atts),
        "semantics.extensions": len(naive) + len(preferred),
        "exports.bytes": sum(len(p.encode("utf-8")) for p in payloads),
    }
    problems = ["invalid document: %s" % v for v in violations]
    problems += checks.check_counts({
        "components": len(adoc.components), "rules": len(ekb.rules),
        "arguments": len(aset.arguments), "attacks": len(af.atts),
        "preferred extensions": len(preferred)}, copies)
    problems += checks.check_essay_semantics(report, copies)
    return t, counts, problems


def trace_semantics(batch, expected):
    """Time naive and preferred enumeration over a batch of frameworks."""
    from akgraph import naive_extensions, preferred_extensions

    t = Timer()
    naive, preferred = [], []
    with t("semantics.naive_ms"):
        for af in batch:
            naive.append(naive_extensions(af))
    with t("semantics.preferred_ms"):
        for af in batch:
            preferred.append(preferred_extensions(af))
    problems = []
    for exts_n, exts_p, (exp_n, exp_p) in zip(naive, preferred, expected):
        problems += checks.check_family("naive", {e.members for e in exts_n}, exp_n)
        problems += checks.check_family("preferred", {e.members for e in exts_p}, exp_p)
    counts = {
        "semantics.core_args": sum(len({x for p in af.atts for x in p}) for af in batch),
        "semantics.pieces": sum(_pieces(af.atts) for af in batch),
        "semantics.extensions": sum(len(n) + len(p) for n, p in zip(naive, preferred)),
    }
    return t, counts, problems


def process_start_ms():
    """Median ms of a bare interpreter start and of `import akgraph.cli`."""
    start, imp = [], []
    for _ in range(START_RUNS):
        for code, samples in (("pass", start), ("import akgraph.cli", imp)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT,
                           check=True)
            samples.append((time.perf_counter() - t0) * 1e3)
    s = statistics.median(start)
    return {"cli.start_ms": s, "cli.import_ms": statistics.median(imp) - s}


# -- workloads --

class Workload:
    """One operation, repeated.  setup() is what setup_s times; expect()
    derives the expected outputs; run() is the timed operation; check()
    inspects its result untimed."""

    def __init__(self, work, seed):
        self.work = work
        self.seed = seed
        self.ops = 0

    def op_dir(self):
        self.ops += 1
        return self.work / ("op%d" % self.ops)

    def setup(self):
        self.make_inputs()
        self.warm_ctx = self.prepare()
        self.warm = self.run(self.warm_ctx)

    def expect(self):
        problems = self.check(self.warm_ctx, self.warm)
        self.finish(self.warm_ctx)
        return problems

    def prepare(self):
        return {"dir": self.op_dir()}

    def finish(self, ctx):
        shutil.rmtree(ctx["dir"], ignore_errors=True)


class CliEssay(Workload):
    """A fresh `python -m akgraph.cli run` on essay056, all seven formats."""

    def make_inputs(self):
        text, ann, prefs = inputs.read_essay()
        self.paths = _write_inputs(self.work / "input", text,
                                   inputs.shuffle_ann(ann, self.seed), prefs,
                                   inputs.ESSAY)
        self.env = _env()
        self.peak_kb = 0

    def prepare(self):
        ctx = super().prepare()
        ctx["dir"].mkdir()
        ctx["out"] = ctx["dir"] / "out"
        ctx["stdout"] = open(ctx["dir"] / "stdout", "wb")
        ctx["stderr"] = open(ctx["dir"] / "stderr", "w+b")
        return ctx

    def run(self, ctx):
        p = subprocess.Popen(
            [sys.executable, "-m", "akgraph.cli", "run",
             "--input", str(self.paths["txt"]), "--ann", str(self.paths["ann"]),
             "--prefs", str(self.paths["prefs"]), "--out", str(ctx["out"])],
            cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            stdout=ctx["stdout"], stderr=ctx["stderr"])
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if p.returncode != 0:
            raise OpFailed("exit status %d" % p.returncode)
        return p.returncode

    def check(self, ctx, returncode):
        ctx["stderr"].seek(0)
        stderr = ctx["stderr"].read().decode("utf-8", "replace")
        return checks.check_cli_output(ctx["out"], returncode, stderr, inputs.ESSAY)

    def finish(self, ctx):
        ctx["stdout"].close()
        ctx["stderr"].close()
        super().finish(ctx)

    def peak_rss_mb(self):
        return self.peak_kb / 1024

    def trace(self, ctx):
        _import_akgraph()
        return trace_document(self.paths, 64, ctx["out"], 1)


class LongEssay(Workload):
    """In-process run_pipeline + write_formats on essay056 x COPIES."""

    copies = COPIES

    def make_inputs(self):
        _import_akgraph()
        from akgraph import cli

        self.cli = cli
        text, ann, prefs = inputs.read_essay()
        self.text, ann, prefs = inputs.replicate(text, ann, prefs, self.copies)
        self.copy_len = len(text)
        self.paths = _write_inputs(self.work / "input", self.text,
                                   inputs.shuffle_ann(ann, self.seed), prefs,
                                   "%sx%d" % (inputs.ESSAY, self.copies))
        self.cap = inputs.ARGS_PER_COPY * self.copies + 2

    def prepare(self):
        ctx = super().prepare()
        ctx["config"] = self.cli.PipelineConfig(
            input_path=str(self.paths["txt"]), ann_path=str(self.paths["ann"]),
            prefs_path=str(self.paths["prefs"]), out_dir=str(ctx["dir"]),
            formats=self.cli.FORMATS, cap=self.cap)
        return ctx

    def run(self, ctx):
        config = ctx["config"]
        return self.cli.write_formats(config, self.cli.run_pipeline(config))

    def expect(self):
        self.surfaces = checks.lexicon_surfaces(
            SRC / "akgraph" / "data" / "inference_markers.tsv")
        self.digest = _digest(self.warm_ctx["dir"])
        return super().expect()

    def check(self, ctx, report):
        problems = checks.check_counts(report.counts, self.copies)
        problems += checks.check_essay_semantics(report.artifacts["semantics"],
                                                 self.copies)
        problems += checks.check_ims(self.text, report.artifacts["ims"],
                                     self.surfaces, self.copy_len, self.copies)
        if _digest(ctx["dir"]) != self.digest:
            problems.append("exports differ from the first operation's")
        return problems

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def trace(self, ctx):
        return trace_document(self.paths, self.cap, ctx["dir"], self.copies)

    def ladder(self):
        """Per-layer medians of three traced runs at each LADDER size."""
        text, ann, prefs = inputs.read_essay()
        out = {}
        for n in LADDER:
            paths = _write_inputs(self.work / ("ladder%d" % n),
                                  *inputs.replicate(text, ann, prefs, n),
                                  "%sx%d" % (inputs.ESSAY, n))
            runs = []
            for _ in range(3):
                ctx = self.prepare()
                t, counts, problems = trace_document(
                    paths, inputs.ARGS_PER_COPY * n + 2, ctx["dir"], n)
                self.finish(ctx)
                if problems:
                    raise OpFailed("ladder %d: %s" % (n, problems[0]))
                runs.append(t.ms)
            out[str(n)] = dict(counts, **{k: statistics.median(r[k] for r in runs)
                                          for k in runs[0]})
        return out


class AFBatch(Workload):
    """semantics_report on a fixed batch of frameworks."""

    def make_inputs(self):
        _import_akgraph()
        from akgraph.semantics import AFProjection, semantics_report

        self._report = semantics_report
        self.frameworks = inputs.label(self.structures(), self.seed)
        self.batch = [AFProjection(args, atts) for args, atts, _ in self.frameworks]
        # The traced run also times the document layers, on essay056.
        self.essay_paths = _write_inputs(self.work / "input", *inputs.read_essay(),
                                         inputs.ESSAY)

    def run(self, ctx):
        return [self._report(af) for af in self.batch]

    def check(self, ctx, reports):
        problems = []
        for report, (naive, preferred) in zip(reports, self.expected):
            problems += checks.check_af_report(report, naive, preferred)
        return problems

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def trace(self, ctx):
        t, counts, problems = trace_document(self.essay_paths, 64, ctx["dir"], 1)
        ts, scounts, sproblems = trace_semantics(self.batch, self.expected)
        t.ms.update(ts.ms)
        counts.update(scounts)
        return t, counts, problems + sproblems


class AFPieces(AFBatch):
    def structures(self):
        return inputs.pieces_structures(STRUCTURE_SEED, **PIECES)

    def expect(self):
        self.expected = []
        for _, _, pieces in self.frameworks:
            fams = [checks.brute_families(args, atts) for args, atts in pieces]
            self.expected.append((checks.product([f[0] for f in fams]),
                                  checks.product([f[1] for f in fams])))
        return super().expect()


class AFDense(AFBatch):
    def structures(self):
        return inputs.dense_structures(STRUCTURE_SEED, **DENSE)

    def expect(self):
        request = []
        for args, atts, _ in self.frameworks:
            index = {a: i for i, a in enumerate(args)}
            request.append({"n": len(args),
                            "atts": [[index[a], index[b]] for a, b in atts]})
        done = subprocess.run([sys.executable, str(HERE / "oracle.py")],
                              input=json.dumps(request), capture_output=True,
                              text=True, check=True, cwd=ROOT)
        self.expected = []
        for (args, _, _), fams in zip(self.frameworks, json.loads(done.stdout)):
            self.expected.append(tuple(
                {frozenset(args[i] for i in range(len(args)) if m >> i & 1)
                 for m in fams[k]} for k in ("naive", "preferred")))
        return super().expect()


WORKLOADS = {"cli-essay": CliEssay, "long-essay": LongEssay,
             "af-pieces": AFPieces, "af-dense": AFDense}


# -- measurement --

def tail(samples):
    """The highest percentile with at least ten samples beyond it; below 40
    samples that would be no tail, so the median stands in."""
    s = sorted(samples)
    return s[len(s) - 11] if len(s) >= 40 else statistics.median(s)


def setup_seconds(args):
    """Median wall time of SETUP_RUNS fresh processes, each from its start
    through import, input generation and a warm-up operation."""
    samples = []
    for _ in range(SETUP_RUNS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--probe"]
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                             stdin=subprocess.DEVNULL)
        line = p.stdout.readline()
        samples.append(time.perf_counter() - t0)
        p.stdout.close()
        if p.wait() != 0 or line.strip() != b"ready":
            raise OpFailed("set-up probe failed")
    return statistics.median(samples)


def measure(w, seconds, traced):
    """Closed loop for `seconds`: one timed operation, then its checks."""
    times, layers, problems = [], [], []
    failed = attempted = 0
    counts = {}
    deadline = time.perf_counter() + seconds
    while True:
        ctx = w.prepare()
        # Garbage left by the previous check would otherwise trigger a
        # collection at an arbitrary point of the next timed operation.
        gc.collect()
        attempted += 1
        try:
            if traced:
                t, counts, op_problems = w.trace(ctx)
                layers.append(t.ms)
            else:
                t0 = time.perf_counter()
                result = w.run(ctx)
                times.append(time.perf_counter() - t0)
        except Exception as exc:  # count it and keep the loop running
            failed += 1
            print("operation %d failed: %r" % (attempted, exc), file=sys.stderr)
        else:
            if not traced:
                try:
                    op_problems = w.check(ctx, result)
                except Exception as exc:  # output of the wrong shape
                    op_problems = ["operation %d: check raised %r" % (attempted, exc)]
            problems += op_problems
        finally:
            w.finish(ctx)
        if time.perf_counter() >= deadline:
            break
    return times, layers, counts, problems, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "akgraph" / "__init__.py").is_file():
        print("run.py: no akgraph sources under %s; run from a source checkout"
              % SRC, file=sys.stderr)
        return 2

    work = WORK / ("%s-%d" % (args.workload, os.getpid()))
    w = WORKLOADS[args.workload](work, args.seed)
    try:
        if args.probe:
            w.setup()
            print("ready", flush=True)
            return 0
        setup_s = None if args.trace else setup_seconds(args)
        w.setup()
        problems = w.expect()
        times, layers, counts, op_problems, attempted, failed = measure(
            w, args.seconds, args.trace)
        problems += op_problems
        if not (times or layers):
            print("run.py: every operation failed", file=sys.stderr)
            return 1
        extra = {}
        if args.trace:
            values = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
            values.update(process_start_ms())
            values.update(counts)
            if isinstance(w, LongEssay):
                extra["ladder"] = w.ladder()
        else:
            values = {
                "setup_s": setup_s,
                "op_ms.p50": statistics.median(times) * 1e3,
                "op_ms.tail": tail(times) * 1e3,
                "ops_per_s": len(times) / sum(times),
                "peak_rss_mb": w.peak_rss_mb(),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print("run.py: metrics %s do not match BENCHMARK.json %s"
              % (sorted(values), sorted(units)), file=sys.stderr)
        return 1
    for p in problems[:20]:
        print("check failed: %s" % p, file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    RESULTS.mkdir(exist_ok=True)
    name = "%s-trace%d-seed%d.json" % (args.workload, args.trace, args.seed)
    (RESULTS / name).write_text(json.dumps(dict(result, samples=len(times) or len(layers),
                                                **extra), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
