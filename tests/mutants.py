"""Mutation check: each listed mutant of src/ must fail the tests named for it.

    python3 tests/mutants.py           # every mutant
    python3 tests/mutants.py NAME ...  # the named mutants only

A mutant is a file under src/, an exact old text that occurs there once, the
new text put in its place, and the tests that must kill it. Each mutant is
applied to its own temporary copy of src/, and only its tests run, with that
copy first on PYTHONPATH. The tests of all the selected mutants first run
once on an unchanged copy, where they must pass.

It exits 1 when the unchanged copy fails, when a mutant's old text is not
found exactly once, or when a mutant survives; a surviving mutant needs a
test that kills it. pytest does not collect this script.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parent.parent
# a mutant that sends its tests into a loop is killed by this
TIMEOUT_S = 300

NORMALIZE = "src/dialoscope/normalize.py"
CORPUS = "src/dialoscope/corpus.py"
ANALYSIS = "src/dialoscope/analysis.py"
LINEARIZE = "src/dialoscope/linearize.py"
EVALUATE = "src/dialoscope/evaluate.py"

T_NORMALIZE = "tests/test_normalize.py"
TYPO_PASS = f"{T_NORMALIZE}::TestMatchInText::test_typo_pass_as_reference"
SAME_VERDICT = f"{T_NORMALIZE}::TestMatchInText::test_same_verdict_as_reference"
SHORT_PAIRS = f"{T_NORMALIZE}::TestDamerauLevenshtein::test_every_short_pair_as_reference"
SHARED_AFFIXES = f"{T_NORMALIZE}::TestDamerauLevenshtein::test_shared_affixes_as_reference"
CANONICAL_SLOT = "tests/test_corpus.py::TestCanonicalSlot"
SGD_ELEMENTS = "tests/test_corpus.py::TestSgdElementDecoding"
GOLDEN = "tests/test_golden.py::test_outputs_match_recorded_digests"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: Tuple[str, ...]


MUTANTS = (
    # normalize: the typo pass and its edit distance
    Mutant("trim-one-past-the-suffix", NORMALIZE,
           "while tail < shorter - head and",
           "while tail <= shorter - head and",
           (SHORT_PAIRS, SHARED_AFFIXES)),
    Mutant("trim-no-suffix-bound", NORMALIZE,
           "while tail < shorter - head and a[la - 1 - tail]",
           "while tail < shorter and a[la - 1 - tail]",
           (SHORT_PAIRS, SHARED_AFFIXES)),
    Mutant("typo-span-from-the-last-token", NORMALIZE,
           "start, end = toks[0].start(), toks[-1].end()",
           "start, end = toks[-1].start(), toks[-1].end()",
           (TYPO_PASS,)),
    Mutant("typo-tie-goes-to-the-later-start", NORMALIZE,
           "if best is None or (dist, first) < best[:2]:",
           "if best is None or (dist, first) <= best[:2]:",
           (TYPO_PASS,)),
    Mutant("multi-probe-plan-unsorted", NORMALIZE,
           "    if len(probes) > 1:\n        probes.sort(",
           "    if False:\n        probes.sort(",
           (f"{T_NORMALIZE}::TestMatchInText::test_semantic_phrase", SAME_VERDICT)),
    Mutant("ascii-table-from-unlowered-text", NORMALIZE,
           "_TOKEN_RE.findall(text.lower() if ascii_text else text)",
           "_TOKEN_RE.findall(text)",
           (f"{T_NORMALIZE}::TestTokens",)),
    Mutant("non-ascii-candidates-unlowered", NORMALIZE,
           "        cands = [cand.lower() for cand in cands]\n",
           "        pass\n",
           (f"{T_NORMALIZE}::TestTokens",)),
    Mutant("typo-threshold-off-by-one", NORMALIZE,
           "return 2 if len(target) >= 8 else 1",
           "return 2 if len(target) > 8 else 1",
           (TYPO_PASS,)),
    Mutant("category-rank-entity-after-semantic", NORMALIZE,
           "MatchCategory.VERBATIM: 0, MatchCategory.ENTITY_RECOGNITION: 1,\n"
           "                 MatchCategory.SEMANTIC_UNDERSTANDING: 2,",
           "MatchCategory.VERBATIM: 0, MatchCategory.ENTITY_RECOGNITION: 2,\n"
           "                 MatchCategory.SEMANTIC_UNDERSTANDING: 1,",
           (f"{T_NORMALIZE}::TestMatchInText::test_precedence_between_categories",)),
    # corpus: the slot-name fold
    Mutant("fold-without-strip", CORPUS,
           "key = name.strip().lower()",
           "key = name.lower()",
           (CANONICAL_SLOT,)),
    Mutant("fold-without-glued-booking-names", CORPUS,
           "return _GLUED_BOOKING.get(key, key)",
           "return key",
           (CANONICAL_SLOT,)),
    Mutant("fold-without-book-underscore-prefix", CORPUS,
           'if key.startswith(("book ", "book_")):',
           'if key.startswith("book "):',
           (CANONICAL_SLOT,)),
    Mutant("fold-without-hyphen", CORPUS,
           'key.replace("_", " ").replace("-", " ").split()',
           'key.replace("_", " ").split()',
           (CANONICAL_SLOT,)),
    # corpus: the streaming JSON reader, and the order of a loader's checks
    Mutant("sgd-fault-reported-before-malformed-json", CORPUS,
           "                _loads(text, file)  # malformed JSON is reported first\n",
           "",
           (SGD_ELEMENTS,)),
    Mutant("elements-without-a-comma", CORPUS,
           "                if text[end:end + 1] != \",\":\n"
           "                    break\n"
           "                end = _json_space(text, end + 1).end()",
           "                if text[end:end + 1] == closer:\n"
           "                    break\n"
           "                end = _json_space(text, end + (text[end:end + 1] == \",\")).end()",
           (SGD_ELEMENTS,)),
    Mutant("trailing-data-accepted", CORPUS,
           "if _json_space(text, end + 1).end() != len(text):",
           "if False:",
           (SGD_ELEMENTS,)),
    Mutant("sgd-object-top-level-accepted", CORPUS,
           "        if what is not None:\n",
           "        if False:\n",
           (SGD_ELEMENTS,)),
    Mutant("multiwoz-odd-log-checked-before-user-state", CORPUS,
           "        if metadata:\n"
           "            raise InputError(f\"{_where(path, dialog_id, i)}: \"\n"
           "                             \"non-alternating speakers (state on a user turn)\")\n"
           "        if i + 1 == len(log):\n"
           "            raise InputError(\n"
           "                f\"{_where(path, dialog_id, i)}: user turn has no system annotation\")\n",
           "        if i + 1 == len(log):\n"
           "            raise InputError(\n"
           "                f\"{_where(path, dialog_id, i)}: user turn has no system annotation\")\n"
           "        if metadata:\n"
           "            raise InputError(f\"{_where(path, dialog_id, i)}: \"\n"
           "                             \"non-alternating speakers (state on a user turn)\")\n",
           ("tests/test_corpus.py::TestMultiwozWalk",)),
    # evaluate: the JGA fold
    Mutant("jga-accumulated-folds-onto-gold", EVALUATE,
           "            if oracle:\n                state = gold\n",
           "            if True:\n                state = gold\n",
           ("tests/test_evaluate.py::TestJga::test_accumulated_error_propagates",)),
    Mutant("jga-oracle-folds-onto-predictions", EVALUATE,
           "            if oracle:\n                state = gold\n",
           "            if False:\n                state = gold\n",
           ("tests/test_evaluate.py::TestJga::test_oracle_error_does_not_propagate",)),
    # analysis and linearize
    Mutant("pool-not-clamped-to-usable-cpus", ANALYSIS,
           "workers = min(workers, len(os.sched_getaffinity(0))",
           "workers = max(workers, len(os.sched_getaffinity(0))",
           ("tests/test_analysis.py::TestAnalyzeCorpus::test_pool_is_clamped_to_cpu_count",)),
    Mutant("pool-not-clamped-without-affinity", ANALYSIS,
           "                  else os.cpu_count() or 1)",
           "                  else workers)",
           ("tests/test_analysis.py::TestAnalyzeCorpus::test_without_affinity_the_cpu_count_clamps",)),
    Mutant("override-skipped", ANALYSIS,
           "        elif override is not None:\n",
           "        elif False:\n",
           ("tests/test_analysis.py::TestOverrides::test_parse_and_apply",)),
    Mutant("head-memo-keyed-by-turn-index", ANALYSIS,
           "names = heads.get(id(tree))\n"
           "        if names is None:\n"
           "            called = call_heads(tree)\n"
           "            names = heads[id(tree)] =",
           "names = heads.get(turn.index)\n"
           "        if names is None:\n"
           "            called = call_heads(tree)\n"
           "            names = heads[turn.index] =",
           ("tests/test_analysis.py::TestRecount::test_smcalflow_programs_shared_across_dialogs",)),
    Mutant("printed-target-memo-keyed-by-turn-index", LINEARIZE,
           "target = printed.get(id(tree))\n"
           "            if target is None:\n"
           "                target = printed[id(tree)] =",
           "target = printed.get(turn.index)\n"
           "            if target is None:\n"
           "                target = printed[turn.index] =",
           (GOLDEN,)),
    Mutant("shared-empty-state-mutated", LINEARIZE,
           "            prev_gold = turn.state\n",
           "            prev_gold = turn.state\n"
           "        EMPTY_STATE.setdefault((\"x\", \"y\"), (\"z\",))\n",
           ("tests/test_value_types.py::TestCorpusIsNotMutated",)),
)


def run_tests(src: Path, tests, workdir: Path) -> Tuple[bool, str]:
    """Run the tests against the package in `src`; (passed, output tail)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    # absolute test paths keep the repository's pytest settings; running in
    # workdir keeps hypothesis's example database out of the checkout
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *(str(ROOT / t) for t in tests)]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return proc.returncode == 0, tail[0] if tail else ""


def copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    selected = [by_name[n] for n in args.names] if args.names else list(MUTANTS)

    failures = []
    with tempfile.TemporaryDirectory(prefix="dialoscope-mutants-") as tmp:
        tmp = Path(tmp)
        tests = list(dict.fromkeys(t for m in selected for t in m.tests))
        passed, tail = run_tests(copy_src(tmp / "unchanged"), tests, tmp)
        print(f"unchanged copy: {'pass' if passed else 'FAIL'} ({tail})", flush=True)
        if not passed:
            return 1
        for m in selected:
            start = time.monotonic()
            src = copy_src(tmp / m.name)
            path = src.parent / m.file
            text = path.read_text("utf-8")
            found = text.count(m.old)
            if found != 1:
                failures.append(m.name)
                print(f"{m.name}: old text found {found} times in {m.file}", flush=True)
                continue
            path.write_text(text.replace(m.old, m.new), "utf-8")
            survived, tail = run_tests(src, m.tests, tmp)
            verdict = "SURVIVED" if survived else "killed"
            if survived:
                failures.append(m.name)
            print(f"{m.name}: {verdict} in {time.monotonic() - start:.1f} s ({tail})",
                  flush=True)
    print(f"{len(selected) - len(failures)} of {len(selected)} mutants killed")
    if failures:
        print("not killed:", ", ".join(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
