"""Byte-identity of the CLI's outputs on the benchmark corpus.

For each of seeds 7 and 11 this builds the corpus that `perfbench/gen.py`
generates, runs 37 CLI calls in-process from a temporary working directory
with relative paths, and compares the sha256 of every output file, of
stdout and of stderr, and the exit code, with tests/identity_digests.json:

- `analyze` at `--workers` 1 and 2 on MultiWOZ (with the overrides), SGD
  and SMCalFlow, writing the report JSON, Markdown and histogram CSV;
- `linearize` in all four representations on all three datasets, and on
  SGD with `--previous-state predicted` in all four;
- `eval` jga-oracle and jga on SGD, also with `--fuzzy-sgd-matching`, and
  on MultiWOZ; exact match on SMCalFlow, plain, with
  `--honor-refer-flags` and with `--strict-exact-match`;
- `validate` and `inspect` on each dataset.

The `--workers 2` calls fork their workers, which write to their own copy
of the captured stderr; for those calls the files, stdout and exit code are
compared, and stderr is not. The MultiWOZ predictions are the targets of
the `linearize --repr user` records, every fifth left out and every third
replaced by a wrong one.

    python3 tests/identity.py             # check; exits 1 naming each moved digest
    python3 tests/identity.py --record    # rewrite the digests

Standard library only; pytest does not collect it.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("identity_digests.json")
SEEDS = (7, 11)
REPRS = ("user", "exchange", "prev-state", "full")

sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (puts the checkout's src/ first on sys.path)
from dialoscope.cli import main as cli_main  # noqa: E402

MWZ = ["--dataset", "multiwoz", "--path", "corpus/mwz", "--split", "test"]
SGD = ["--dataset", "sgd", "--path", "corpus/sgd", "--split", "test"]
SMC = ["--dataset", "smcalflow", "--path", "corpus/smcalflow/valid.dataflow_dialogues.jsonl"]
OVERRIDES = ["--overrides", "corpus/mwz/overrides.tsv"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(digests: dict, name: str, *argv, stderr: bool = True) -> None:
    """Run the CLI on `argv`; record its exit code, stdout and stderr under `name`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # a usage error
            code = exc.code
    digests[f"{name}/exit"] = code
    digests[f"{name}/stdout"] = sha256(out.getvalue().encode("utf-8"))
    if stderr:
        digests[f"{name}/stderr"] = sha256(err.getvalue().encode("utf-8"))


def first_dialog_ids() -> dict:
    """The first dialog id of each dataset's file: the dialogs to inspect."""
    mwz = Path("corpus/mwz/testListFile.txt").read_text("utf-8").split()[0]
    sgd = json.loads(Path("corpus/sgd/test/dialogues_001.json").read_text("utf-8"))[0]
    with open(SMC[-1], encoding="utf-8") as f:
        smc = json.loads(f.readline())
    return {"mwz": mwz, "sgd": sgd["dialogue_id"], "smc": smc["dialogue_id"]}


def write_mwz_predictions(records: Path, path: Path) -> None:
    lines = []
    with open(records, encoding="utf-8") as f:
        for n, line in enumerate(f, start=1):
            rec = json.loads(line)
            if n % 5 == 0:
                continue
            pred = "hotel:name=the wrong hotel" if n % 3 == 0 else rec["target"]
            lines.append(json.dumps({"dialogue_id": rec["dialogue_id"],
                                     "turn_index": rec["turn_index"], "prediction": pred}))
    path.write_text("\n".join(lines) + "\n", "utf-8")


def seed_digests(seed: int) -> dict:
    """name -> digest or exit code of every output of the calls on one seed's
    corpus, run in the current working directory."""
    gen.generate("corpus", seed)
    Path("out").mkdir()
    digests: dict = {}
    datasets = {"mwz": MWZ, "sgd": SGD, "smc": SMC}

    for name, common in datasets.items():
        extra = OVERRIDES if name == "mwz" else []
        for workers in (1, 2):
            call = f"analyze-{name}-w{workers}"
            run(digests, call, "analyze", *common, *extra, "--workers", str(workers),
                "--out", f"out/{call}.json", "--markdown", f"out/{call}.md",
                "--histogram", f"out/{call}.csv", stderr=workers == 1)
        for repr_ in REPRS:
            call = f"linearize-{name}-{repr_}"
            run(digests, call, "linearize", *common, "--repr", repr_,
                "--out", f"out/{call}.jsonl")
    for repr_ in REPRS:
        call = f"linearize-sgd-{repr_}-predicted"
        run(digests, call, "linearize", *SGD, "--repr", repr_, "--previous-state",
            "predicted", "--preds", "corpus/preds/sgd.jsonl", "--out", f"out/{call}.jsonl")

    write_mwz_predictions(Path("out/linearize-mwz-user.jsonl"), Path("mwz-preds.jsonl"))
    evals = [("sgd", SGD, "corpus/preds/sgd.jsonl", []),
             ("sgd-fuzzy", SGD, "corpus/preds/sgd.jsonl", ["--fuzzy-sgd-matching"]),
             ("mwz", MWZ, "mwz-preds.jsonl", [])]
    for name, common, preds, flags in evals:
        for mode in ("jga-oracle", "jga"):
            call = f"eval-{name}-{mode}"
            run(digests, call, "eval", *common, "--preds", preds, "--mode", mode, *flags,
                "--out", f"out/{call}.json")
    for name, flags in (("plain", []), ("refer-flags", ["--honor-refer-flags"]),
                        ("strict", ["--strict-exact-match"])):
        call = f"eval-smc-exact-match-{name}"
        run(digests, call, "eval", *SMC, "--preds", "corpus/preds/smcalflow.jsonl",
            "--mode", "exact-match", *flags, "--out", f"out/{call}.json")

    dialog_ids = first_dialog_ids()
    for name, common in datasets.items():
        run(digests, f"validate-{name}", "validate", *common)
        extra = OVERRIDES if name == "mwz" else []
        run(digests, f"inspect-{name}", "inspect", *common, *extra, dialog_ids[name])

    for path in sorted(Path("out").iterdir()):
        digests[f"out/{path.name}"] = sha256(path.read_bytes())
    return {f"seed{seed}/{name}": value for name, value in digests.items()}


def all_digests() -> dict:
    digests = {}
    cwd = os.getcwd()
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                digests.update(seed_digests(seed))
            finally:
                os.chdir(cwd)
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite {DIGESTS.name} instead of checking it")
    args = parser.parse_args(argv)
    digests = all_digests()
    if args.record:
        DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", "utf-8")
        print(f"recorded {len(digests)} digests in {DIGESTS}")
        return 0
    recorded = json.loads(DIGESTS.read_text("utf-8"))
    names = digests.keys() | recorded.keys()
    moved = sorted(name for name in names if digests.get(name) != recorded.get(name))
    for name in moved:
        print(f"moved: {name}: {recorded.get(name)} -> {digests.get(name)}")
    print(f"{len(names) - len(moved)} of {len(names)} digests unchanged")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
