"""Byte-identity of the CLI's outputs on the test fixtures and on the
benchmark corpus.

Each corpus set is written to a temporary working directory, where one CLI
matrix runs on each of its datasets in-process, with relative paths:

- `fixtures`: the MultiWOZ fixture of tests/conftest.py with one override
  row, the planted corpus written as MultiWOZ, the SGD fixture, and the
  SMCalFlow fixture plus a dialog with non-ASCII text;
- `seed7` and `seed11`: the corpus that `perfbench/gen.py` generates.

The matrix:

- `analyze` at `--workers` 1 and 2 (MultiWOZ with its overrides), writing
  the report JSON, Markdown and histogram CSV;
- `linearize` in all four representations, and on MultiWOZ and SGD with
  `--previous-state predicted` in all four;
- `eval` jga-oracle and jga on MultiWOZ and SGD, on SGD also with
  `--fuzzy-sgd-matching`; exact match on SMCalFlow, plain, with
  `--honor-refer-flags` and with `--strict-exact-match`;
- `validate` and `inspect`.

The exit code and the sha256 of stdout, of stderr and of every output file
are compared with tests/identity_digests.json, named
`<set>/<call>/{exit,stdout,stderr}` and `<set>/out/<file>`. The
`--workers 2` calls fork their workers, which write to their own copy of
the captured stderr; their stderr is not compared. A dataset that ships no
predictions file is scored on the targets of its `linearize --repr user`
records, every fifth left out, every third wrong and the seventh one that
does not parse.

    python3 tests/identity.py             # check; exits 1 naming each moved digest
    python3 tests/identity.py --record    # rewrite the digests

A change that moves a digest says which one moved and why. pytest does not
collect this script; tests/test_golden.py checks the `fixtures` set.
"""
import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("identity_digests.json")
REPRS = ("user", "exchange", "prev-state", "full")
# per dataset kind: a wrong prediction and one that does not parse
BAD_PREDICTIONS = {"multiwoz": ("hotel:name=the wrong hotel", "no equals sign"),
                   "sgd": ("hotel:name=the wrong hotel", "no equals sign"),
                   "smcalflow": ("(Yield :output (Tomorrow))", "(Yield :output")}

sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (puts the checkout's src/ first on sys.path)
from conftest import (build_planted_corpus, mwz_dialog, mwz_dialogs,  # noqa: E402
                      sgd_dialogs, smcalflow_dialogs, write_sgd)
from dialoscope.cli import main as cli_main  # noqa: E402


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(digests: dict, name: str, *argv, stderr: bool = True) -> None:
    """Run the CLI on `argv`; record its exit code, stdout and stderr under `name`."""
    out, err = io.StringIO(), io.StringIO()
    # a logged warning reaches the captured stderr under pytest too, whose
    # own handlers would otherwise keep it from logging's last resort
    handler = logging.StreamHandler(err)
    logging.getLogger().addHandler(handler)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # a usage error
            code = exc.code
        finally:
            logging.getLogger().removeHandler(handler)
    digests[f"{name}/exit"] = code
    digests[f"{name}/stdout"] = sha256(out.getvalue().encode("utf-8"))
    if stderr:
        digests[f"{name}/stderr"] = sha256(err.getvalue().encode("utf-8"))


def write_predictions(records: str, kind: str, path: str) -> None:
    """Predictions from the targets of `linearize --repr user` records."""
    wrong, unparseable = BAD_PREDICTIONS[kind]
    lines = []
    with open(records, encoding="utf-8") as f:
        for n, line in enumerate(f, start=1):
            rec = json.loads(line)
            if n % 5 == 0:
                continue
            pred = wrong if n % 3 == 0 else unparseable if n == 7 else rec["target"]
            lines.append(json.dumps({"dialogue_id": rec["dialogue_id"],
                                     "turn_index": rec["turn_index"], "prediction": pred}))
    Path(path).write_text("\n".join(lines) + "\n", "utf-8")


def matrix(datasets: dict) -> dict:
    """name -> digest or exit code of every output of the CLI calls on
    `datasets`, run in the current working directory. `datasets` maps a
    short name to its --dataset, --path and --split arguments, the
    --overrides arguments of analyze and inspect, the dialog to inspect and
    the predictions file shipped with it, if any."""
    Path("out").mkdir()
    digests: dict = {}
    for name, (common, overrides, dialog_id, preds) in datasets.items():
        kind = common[1]  # the value of --dataset
        for workers in (1, 2):
            call = f"analyze-{name}-w{workers}"
            run(digests, call, "analyze", *common, *overrides, "--workers", str(workers),
                "--out", f"out/{call}.json", "--markdown", f"out/{call}.md",
                "--histogram", f"out/{call}.csv", stderr=workers == 1)
        for repr_ in REPRS:
            call = f"linearize-{name}-{repr_}"
            run(digests, call, "linearize", *common, "--repr", repr_,
                "--out", f"out/{call}.jsonl")
        if not preds:
            preds = f"{name}-preds.jsonl"
            write_predictions(f"out/linearize-{name}-user.jsonl", kind, preds)

        if kind == "smcalflow":
            evals = [(f"{name}-exact-match-{variant}", "exact-match", flags)
                     for variant, flags in (("plain", []),
                                            ("refer-flags", ["--honor-refer-flags"]),
                                            ("strict", ["--strict-exact-match"]))]
        else:
            for repr_ in REPRS:
                call = f"linearize-{name}-{repr_}-predicted"
                run(digests, call, "linearize", *common, "--repr", repr_,
                    "--previous-state", "predicted", "--preds", preds,
                    "--out", f"out/{call}.jsonl")
            variants = [(name, [])]
            if kind == "sgd":
                variants.append((f"{name}-fuzzy", ["--fuzzy-sgd-matching"]))
            evals = [(f"{label}-{mode}", mode, flags)
                     for label, flags in variants for mode in ("jga-oracle", "jga")]
        for label, mode, flags in evals:
            run(digests, f"eval-{label}", "eval", *common, "--preds", preds,
                "--mode", mode, *flags, "--out", f"out/eval-{label}.json")

        run(digests, f"validate-{name}", "validate", *common)
        run(digests, f"inspect-{name}", "inspect", *common, *overrides, dialog_id)

    for path in sorted(Path("out").iterdir()):
        digests[f"out/{path.name}"] = sha256(path.read_bytes())
    return digests


def write_planted_multiwoz(path: Path) -> None:
    """The planted corpus as raw MultiWOZ: each user turn's state goes on
    the agent turn after it, and a closing agent turn is added."""
    corpus, _ = build_planted_corpus()
    raw = {}
    for dialog in corpus.dialogs:
        exchanges = []
        for turn in dialog.user_turns():
            following = [t for t in dialog.turns if t.index == turn.index + 1]
            state = {"test": {}}  # a non-empty metadata with no slot set
            for (dom, slot), vals in sorted(turn.state.items()):
                state.setdefault(dom, {})[slot] = "|".join(vals)
            exchanges.append((turn.utterance, state,
                              following[0].utterance if following else "goodbye"))
        raw[dialog.dialog_id] = mwz_dialog(exchanges)
    path.write_text(json.dumps(raw), "utf-8")


def fixtures() -> dict:
    """Write the test fixtures under corpus/; return the datasets of the set."""
    corpus = Path("corpus")
    write_sgd(corpus, sgd_dialogs())  # makes corpus/
    (corpus / "mwz.json").write_text(json.dumps(mwz_dialogs()), "utf-8")
    write_planted_multiwoz(corpus / "planted.json")
    smcalflow = smcalflow_dialogs() + [{"dialogue_id": "calflow-2", "turns": [
        {"user_utterance": {"original_text": "lunch with zoë at the café"},
         "lispress": '(Yield :output (CreateEvent (attendee #(PersonName "Zoë"))))',
         "agent_utterance": {"original_text": "booked lunch at the café ."}}]}]
    (corpus / "calflow.jsonl").write_text("".join(json.dumps(d, ensure_ascii=False) + "\n"
                                                  for d in smcalflow), "utf-8")
    (corpus / "ov.tsv").write_text("MUL0635.json\t10\ttrain\tdestination\t5\t-"
                                   "\texternal_knowledge\n", "utf-8")
    return {
        "mwz": (["--dataset", "multiwoz", "--path", "corpus/mwz.json"],
                ["--overrides", "corpus/ov.tsv"], "MUL0635.json", None),
        "planted": (["--dataset", "multiwoz", "--path", "corpus/planted.json"], [],
                    "plant-00-verbatim-d0", None),
        "sgd": (["--dataset", "sgd", "--path", "corpus/sgd", "--split", "test"], [],
                "1_00000", None),
        "smc": (["--dataset", "smcalflow", "--path", "corpus/calflow.jsonl"], [],
                "calflow-0", None),
    }


def benchmark_corpus(seed: int) -> dict:
    """Generate the benchmark corpus under corpus/; return its datasets,
    each inspected at the first dialog of its file."""
    gen.generate("corpus", seed)
    smc = "corpus/smcalflow/valid.dataflow_dialogues.jsonl"
    with open(smc, encoding="utf-8") as f:
        smc_id = json.loads(f.readline())["dialogue_id"]
    sgd_dialog = json.loads(Path("corpus/sgd/test/dialogues_001.json").read_text("utf-8"))[0]
    return {
        "mwz": (["--dataset", "multiwoz", "--path", "corpus/mwz", "--split", "test"],
                ["--overrides", "corpus/mwz/overrides.tsv"],
                Path("corpus/mwz/testListFile.txt").read_text("utf-8").split()[0], None),
        "sgd": (["--dataset", "sgd", "--path", "corpus/sgd", "--split", "test"], [],
                sgd_dialog["dialogue_id"], "corpus/preds/sgd.jsonl"),
        "smc": (["--dataset", "smcalflow", "--path", smc], [], smc_id,
                "corpus/preds/smcalflow.jsonl"),
    }


SETS = {"fixtures": fixtures,
        "seed7": lambda: benchmark_corpus(7),
        "seed11": lambda: benchmark_corpus(11)}


def set_digests(name: str) -> dict:
    """The digests of the matrix on corpus set `name`, prefixed `<name>/`."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            digests = matrix(SETS[name]())
        finally:
            os.chdir(cwd)
    return {f"{name}/{key}": value for key, value in digests.items()}


def recorded_digests() -> dict:
    return json.loads(DIGESTS.read_text("utf-8"))


def moved(recorded: dict, digests: dict) -> list:
    """The names whose digest differs, or that only one side has."""
    both = recorded.keys() & digests.keys()
    return sorted(name for name in recorded.keys() | digests.keys()
                  if name not in both or recorded[name] != digests[name])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite {DIGESTS.name} instead of checking it")
    args = parser.parse_args(argv)
    digests = {}
    for name in SETS:
        digests.update(set_digests(name))
    if args.record:
        DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", "utf-8")
        print(f"recorded {len(digests)} digests in {DIGESTS}")
        return 0
    recorded = recorded_digests()
    changed = moved(recorded, digests)
    for name in changed:
        print(f"moved: {name}: {recorded.get(name)} -> {digests.get(name)}")
    total = len(recorded.keys() | digests.keys())
    print(f"{total - len(changed)} of {total} digests unchanged")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
