"""Check that other Python interpreters write the same exports as this one.

Runs `python -m akgraph.cli run` from this checkout's src/ on the golden
cases (essay056 with preferences, essay056 with --implicit-ims with and
without preferences, pollock as .ann and as canonical JSON, the latter also
with a checked set, and ties.json, whose ids T1 and T01 are equal as
numbers), first under the interpreter running this script, then under each
interpreter given, each interpreter also with -S (no site module, as on a
host without site hooks), and compares the seven written files of each case
byte for byte with the first run, along with the exit status and the run's
stderr (its warnings).  The first run has PYTHONHASHSEED=0 and every other
run its own fixed seed, so an output that follows the hash seed differs on
every run, not by chance.  Standard library only, so that a bare interpreter
can run it.

    python tools/interpreter_parity.py /path/to/python3.10 /path/to/python3.13

Prints one line per interpreter, flag and case; exits 1 if any case differs.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
ESSAY = ["--input", str(DATA / "essay056.txt"), "--ann", str(DATA / "essay056.ann")]
PREFS = ["--prefs", str(DATA / "essay056.prefs")]
CASES = {
    "essay056-prefs": ESSAY + PREFS,
    "essay056-implicit": ESSAY + ["--implicit-ims"],
    "essay056-implicit-prefs": ESSAY + ["--implicit-ims"] + PREFS,
    "pollock-ann": ["--input", str(DATA / "pollock.txt"), "--ann", str(DATA / "pollock.ann")],
    "pollock-json": ["--input", str(DATA / "pollock.json")],
    "pollock-json-checkset": ["--input", str(DATA / "pollock.json"), "--check-set", "A1,A2"],
    "ties": ["--input", str(DATA / "ties.json")],
}
# each interpreter runs every case as is and without the site module
FLAGS = ((), ("-S",))


def run_case(python, flags, seed, args, out):
    """Exit status, stderr bytes and {file name: bytes} of one run under the
    hash seed given into the directory out."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED=str(seed))
    done = subprocess.run([python, *flags, "-m", "akgraph.cli", "run", *args,
                           "--out", str(out)],
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    files = {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}
    return done.returncode, done.stderr, files


def main(pythons):
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        runs = {}
        interpreters = [sys.executable] + pythons
        for k, python in enumerate(interpreters):
            for j, flags in enumerate(FLAGS):
                seed = k * len(FLAGS) + j     # 0 for the reference run
                for case, args in CASES.items():
                    out = Path(tmp, str(k), "".join(flags), case)
                    out.mkdir(parents=True)
                    runs[k, flags, case] = run_case(python, flags, seed, args, out)
        for (k, flags, case), (status, stderr, files) in runs.items():
            if (k, flags) == (0, ()):
                continue   # the reference run
            ref_status, ref_stderr, ref_files = runs[0, (), case]
            differ = sorted(name for name in set(files) | set(ref_files)
                            if files.get(name) != ref_files.get(name))
            if stderr != ref_stderr:
                differ.append("stderr")
            same = status == ref_status and len(files) == 7 and not differ
            failed |= not same
            print("%s %s: %s" % (" ".join((interpreters[k],) + flags), case, "same" if same else
                                 "exit %d, differs in %s" % (status, differ or "-")))
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
