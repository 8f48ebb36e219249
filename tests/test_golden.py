"""Golden outputs: the sha256 of every file the CLI writes for the test
fixtures and the planted corpus, compared with recorded digests.

Covers the report JSON, Markdown and CSV; records at all four
representations with gold and with predicted previous state; SMCalFlow
records; eval JSON for jga-oracle, jga and exact-match; and what
`validate` and `inspect` print. A change that alters any byte of these
outputs fails here. When a change of output is intended, record the new
digests with

    DIALOSCOPE_RECORD_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py

and say in the change why they moved.
"""
import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from conftest import build_planted_corpus, mwz_dialog
from dialoscope.cli import main
from dialoscope.corpus import (DatasetKind, load_multiwoz, load_sgd, load_smcalflow,
                               state_update)
from dialoscope.linearize import linearize_target

DIGESTS = Path(__file__).with_name("golden_digests.json")


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


def write_predictions(path: Path, corpus) -> None:
    """Gold predictions, with every third one changed, every fifth left out
    and one that does not parse, so each scorer has every outcome."""
    lines = []
    n = 0
    for dialog in corpus.dialogs:
        for turn in dialog.user_turns():
            n += 1
            if n % 5 == 0:
                continue
            if corpus.dataset_kind is DatasetKind.SMCALFLOW:
                pred = turn.program if n % 3 else "(Yield :output (Tomorrow))"
            else:
                prev = dialog.previous_user_state(turn.index)
                pred = linearize_target(state_update(prev, turn.state))
                if n % 3 == 0:
                    pred = "hotel:name=the wrong hotel"
                if n == 7:
                    pred = "no equals sign"
            lines.append(json.dumps({"dialogue_id": dialog.dialog_id,
                                     "turn_index": turn.index, "prediction": pred}))
    path.write_text("\n".join(lines) + "\n", "utf-8")


def run_cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return f"exit {code}\n{out.getvalue()}"


def golden_outputs(root: Path, mwz_path, sgd_path, smcalflow_raw) -> dict:
    """name -> bytes of every output of the CLI runs below."""
    planted_path = root / "planted.json"
    write_planted_multiwoz(planted_path)
    smcalflow_path = root / "calflow.jsonl"
    smcalflow_raw.append({"dialogue_id": "calflow-2", "turns": [
        {"user_utterance": {"original_text": "lunch with zoë at the café"},
         "lispress": '(Yield :output (CreateEvent (attendee #(PersonName "Zoë"))))',
         "agent_utterance": {"original_text": "booked lunch at the café ."}}]})
    smcalflow_path.write_text("\n".join(json.dumps(d, ensure_ascii=False)
                                        for d in smcalflow_raw) + "\n", "utf-8")
    overrides = root / "ov.tsv"
    overrides.write_text("MUL0635.json\t10\ttrain\tdestination\t5\t-"
                         "\texternal_knowledge\n", "utf-8")
    frames = {
        "mwz": (["--dataset", "multiwoz", "--path", mwz_path], load_multiwoz(mwz_path)),
        "planted": (["--dataset", "multiwoz", "--path", planted_path],
                    load_multiwoz(planted_path)),
        "sgd": (["--dataset", "sgd", "--path", sgd_path, "--split", "test"],
                load_sgd(sgd_path, "test")),
    }
    smc = ["--dataset", "smcalflow", "--path", smcalflow_path]
    out = root / "out"
    out.mkdir()
    texts = {}

    for name, (common, _) in frames.items():
        extra = ["--overrides", overrides] if name == "mwz" else []
        run_cli("analyze", *common, *extra, "--out", out / f"{name}_report.json",
                "--markdown", out / f"{name}_report.md",
                "--histogram", out / f"{name}_hist.csv")
    run_cli("analyze", *smc, "--out", out / "smc_report.json",
            "--markdown", out / "smc_report.md")

    for name, (common, corp) in frames.items():
        preds = root / f"{name}_preds.jsonl"
        write_predictions(preds, corp)
        for repr_ in ("user", "exchange", "prev-state", "full"):
            run_cli("linearize", *common, "--repr", repr_,
                    "--out", out / f"{name}_{repr_}_gold.jsonl")
            run_cli("linearize", *common, "--repr", repr_, "--previous-state",
                    "predicted", "--preds", preds,
                    "--out", out / f"{name}_{repr_}_predicted.jsonl")
        for mode in ("jga-oracle", "jga"):
            texts[f"{name}_eval_{mode}.txt"] = run_cli(
                "eval", *common, "--preds", preds, "--mode", mode,
                "--out", out / f"{name}_eval_{mode}.json")
        texts[f"{name}_validate.txt"] = run_cli("validate", *common)

    for repr_ in ("user", "exchange", "prev-state", "full"):
        run_cli("linearize", *smc, "--repr", repr_, "--out", out / f"smc_{repr_}.jsonl")
    smc_preds = root / "smc_preds.jsonl"
    write_predictions(smc_preds, load_smcalflow(smcalflow_path))
    for flags in ([], ["--honor-refer-flags"]):
        name = "smc_eval_exact_match" + ("_flags" if flags else "")
        texts[name + ".txt"] = run_cli("eval", *smc, "--preds", smc_preds,
                                       "--mode", "exact-match", *flags,
                                       "--out", out / f"{name}.json")
    texts["smc_validate.txt"] = run_cli("validate", *smc)

    inspected = {"mwz": ("MUL0635.json", ["--overrides", overrides]),
                 "planted": ("plant-00-verbatim-d0", []), "sgd": ("1_00000", [])}
    for name, (dialog_id, extra) in inspected.items():
        texts[f"{name}_inspect.txt"] = run_cli("inspect", *frames[name][0], *extra, dialog_id)
    texts["smc_inspect.txt"] = run_cli("inspect", *smc, "calflow-0")

    outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    outputs.update((name, text.encode("utf-8")) for name, text in texts.items())
    return outputs


def test_outputs_match_recorded_digests(tmp_path, mwz_path, sgd_path, smcalflow_raw):
    outputs = golden_outputs(tmp_path, mwz_path, sgd_path, smcalflow_raw)
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in sorted(outputs.items())}
    if os.environ.get("DIALOSCOPE_RECORD_GOLDEN"):
        DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", "utf-8")
    recorded = json.loads(DIGESTS.read_text("utf-8"))
    assert sorted(digests) == sorted(recorded)
    changed = [name for name in digests if digests[name] != recorded[name]]
    assert changed == []
