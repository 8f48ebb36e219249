import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dialoscope
from dialoscope import cli, corpus
from dialoscope.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from dialoscope.corpus import DatasetKind
from dialoscope.lispress import MAX_DEPTH
from conftest import SGD_SCHEMA, gold_predictions
from test_corpus import MALFORMED, write_layout


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_stdout_report(self, capsys, mwz_path):
        code, out, _ = run(capsys, "analyze", "--dataset", "multiwoz",
                           "--path", str(mwz_path))
        assert code == EXIT_OK
        assert "nothing to predict" in out
        assert "verbatim" in out

    def test_file_outputs(self, capsys, mwz_path, tmp_path):
        out_json = tmp_path / "r.json"
        out_md = tmp_path / "r.md"
        out_csv = tmp_path / "r.csv"
        code, _, _ = run(capsys, "analyze", "--dataset", "multiwoz",
                         "--path", str(mwz_path), "--out", str(out_json),
                         "--markdown", str(out_md),
                         "--histogram", str(out_csv))
        assert code == EXIT_OK
        doc = json.loads(out_json.read_text("utf-8"))
        assert doc["total_user_turns"] == 9
        assert out_md.read_text("utf-8").startswith("# multiwoz")
        assert out_csv.read_text("utf-8").startswith("delta_c,count")

    @pytest.mark.parametrize("old", [None, "old report\n"])
    def test_unwritable_output_leaves_every_output_as_it_was(self, capsys, mwz_path,
                                                             tmp_path, old):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out_json = out_dir / "r.json"
        if old is not None:
            out_json.write_text(old, "utf-8")
        out_md = tmp_path / "missing-dir" / "x.md"
        code, _, err = run(capsys, "analyze", "--dataset", "multiwoz",
                           "--path", str(mwz_path), "--out", str(out_json),
                           "--markdown", str(out_md),
                           "--histogram", str(out_dir / "r.csv"))
        assert code == EXIT_FAILURE
        assert err == f"error: [Errno 2] No such file or directory: '{out_md}'\n"
        assert [p.name for p in out_dir.iterdir()] == ([] if old is None else ["r.json"])
        if old is not None:
            assert out_json.read_text("utf-8") == old

    def test_directory_target_leaves_every_output_as_it_was(self, capsys, mwz_path,
                                                            tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out_json = out_dir / "r.json"
        out_json.write_text("old report\n", "utf-8")
        out_md = out_dir / "d"
        out_md.mkdir()
        code, _, err = run(capsys, "analyze", "--dataset", "multiwoz",
                           "--path", str(mwz_path), "--out", str(out_json),
                           "--markdown", str(out_md))
        assert code == EXIT_FAILURE
        assert err == f"error: [Errno 21] Is a directory: '{out_md}'\n"
        assert out_json.read_text("utf-8") == "old report\n"
        assert sorted(p.name for p in out_dir.iterdir()) == ["d", "r.json"]
        assert list(out_md.iterdir()) == []

    def test_worker_warnings_reach_stderr(self, capfd, mwz_path, tmp_path):
        # a fresh process, as a user runs it: under pytest the root logger
        # has handlers, so a warning would not reach stderr in-process
        ov = tmp_path / "ov.tsv"
        ov.write_text("MUL0635.json\t10\ttrain\tarriveby\t9\t-\tsituational\n", "utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(dialoscope.__file__).parents[1]))
        reports = []
        for workers in ("1", "2"):
            out_json = tmp_path / f"r{workers}.json"
            code = subprocess.call(
                [sys.executable, "-m", "dialoscope.cli", "analyze", "--dataset", "multiwoz",
                 "--path", str(mwz_path), "--overrides", str(ov), "--out", str(out_json),
                 "--workers", workers], env=env)
            err = capfd.readouterr().err
            assert code == EXIT_OK
            assert err == ("override for resolved slot "
                           "('MUL0635.json', 10, 'train', 'arriveby') ignored\n")
            reports.append(out_json.read_bytes())
        assert reports[0] == reports[1]

    def test_overrides_flag(self, capsys, mwz_path, tmp_path):
        ov = tmp_path / "ov.tsv"
        ov.write_text("MUL0635.json\t10\ttrain\tdestination\t5\t-"
                      "\texternal_knowledge\n", "utf-8")
        out_json = tmp_path / "r.json"
        code, _, _ = run(capsys, "analyze", "--dataset", "multiwoz",
                         "--path", str(mwz_path), "--overrides", str(ov),
                         "--out", str(out_json))
        assert code == EXIT_OK
        doc = json.loads(out_json.read_text("utf-8"))
        assert doc["conversationality"]["unresolved"] == 0.0

    @pytest.mark.parametrize("row", [
        "MUL0635.json\t1_0\ttrain\tdestination\t5\t-\t-\n",
        "MUL0635.json\t10\ttrain\tdestination\t-1\t-\t-\n",
        "MUL0635.json\t10\ttrain\tdestination\t5\t-\t-\n" * 2,
    ], ids=["turn_index", "delta_c", "duplicate"])
    def test_bad_override_row_exits_one(self, capsys, mwz_path, tmp_path, row):
        ov = tmp_path / "ov.tsv"
        ov.write_text(row, "utf-8")
        out_json = tmp_path / "r.json"
        code, _, err = run(capsys, "analyze", "--dataset", "multiwoz",
                           "--path", str(mwz_path), "--overrides", str(ov),
                           "--out", str(out_json))
        assert code == EXIT_FAILURE
        assert err.startswith(f"error: {ov}:")
        assert not out_json.exists()

    def test_missing_dataset_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--dataset", "multiwoz",
                           "--path", str(tmp_path / "nope.json"))
        assert code == EXIT_FAILURE
        assert "error:" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_exits_one(self, capsys, tmp_path, case):
        dataset, files, rel, named = MALFORMED[case]
        write_layout(tmp_path, files)
        code, _, err = run(capsys, "analyze", "--dataset", dataset,
                           "--path", str(tmp_path / rel), "--split", "test")
        assert code == EXIT_FAILURE
        assert err.startswith("error: ")
        assert all(part in err for part in named)

    def test_data_dir_env(self, capsys, mwz_path, monkeypatch, tmp_path):
        root = tmp_path / "datasets"
        root.mkdir()
        (root / "multiwoz").write_bytes(mwz_path.read_bytes())
        monkeypatch.setenv("DIALOSCOPE_DATA_DIR", str(root))
        code, out, _ = run(capsys, "analyze", "--dataset", "multiwoz")
        assert code == EXIT_OK
        assert "nothing to predict" in out


class TestLinearize:
    def test_emit(self, capsys, mwz_path, tmp_path):
        out = tmp_path / "records.jsonl"
        code, stdout, _ = run(capsys, "linearize", "--dataset", "multiwoz",
                              "--path", str(mwz_path), "--repr", "exchange",
                              "--out", str(out))
        assert code == EXIT_OK
        assert "wrote 9 records" in stdout
        assert len(out.read_text("utf-8").splitlines()) == 9

    def test_smcalflow(self, capsys, smcalflow_path, tmp_path):
        out = tmp_path / "records.jsonl"
        code, _, _ = run(capsys, "linearize", "--dataset", "smcalflow",
                         "--path", str(smcalflow_path), "--repr", "full",
                         "--out", str(out))
        assert code == EXIT_OK
        rec = json.loads(out.read_text("utf-8").splitlines()[0])
        assert rec["target"].startswith("(")
        assert "__User" in rec["input"]

    def test_unparseable_gold_program_exits_one(self, capsys, smcalflow_raw, tmp_path):
        smcalflow_raw[0]["turns"][1]["lispress"] = "(Yield ("
        source = tmp_path / "calflow.jsonl"
        source.write_text("\n".join(json.dumps(d) for d in smcalflow_raw), "utf-8")
        out = tmp_path / "records.jsonl"
        code, _, err = run(capsys, "linearize", "--dataset", "smcalflow",
                           "--path", str(source), "--repr", "full", "--out", str(out))
        assert code == EXIT_FAILURE
        assert f"{source}:1: dialog calflow-0, turn 2" in err
        assert not out.exists()
        assert list(tmp_path.iterdir()) == [source]

    def test_empty_gold_program_stops_like_analyze(self, capsys, smcalflow_raw, tmp_path):
        source = tmp_path / "calflow.jsonl"
        dialog = {"dialogue_id": "calflow-0", "turns": [
            {**smcalflow_raw[0]["turns"][0], "lispress": ""}]}
        source.write_text(json.dumps(dialog) + "\n", "utf-8")
        out = tmp_path / "records.jsonl"
        code, stdout, err = run(capsys, "linearize", "--dataset", "smcalflow",
                                "--path", str(source), "--repr", "user", "--out", str(out))
        assert (code, stdout) == (EXIT_FAILURE, "")
        assert err == (f"error: {source}:1: dialog calflow-0, turn 0: "
                       "gold program does not parse: empty input (at character offset 0)\n")
        assert not out.exists()
        assert run(capsys, "analyze", "--dataset", "smcalflow",
                   "--path", str(source)) == (EXIT_FAILURE, "", err)

    def test_predictions_for_unknown_turns_are_warned_about(self, capfd, mwz_path,
                                                            tmp_path):
        # predictions that name no turn leave every predicted state empty;
        # linearize warns about each as eval does, in predictions-file order.
        # A fresh process: under pytest the root logger has handlers
        from dialoscope.corpus import load_multiwoz
        records = [{"dialogue_id": f"x{dialog_id}", "turn_index": index, "prediction": pred}
                   for (dialog_id, index), pred
                   in gold_predictions(load_multiwoz(mwz_path)).items()]
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
        common = ["--dataset", "multiwoz", "--path", str(mwz_path), "--preds", str(preds)]
        env = dict(os.environ, PYTHONPATH=str(Path(dialoscope.__file__).parents[1]))
        errs = []
        for argv in (["linearize", "--repr", "prev-state", "--previous-state", "predicted",
                      "--out", str(tmp_path / "records.jsonl")],
                     ["eval", "--mode", "jga"]):
            code = subprocess.call([sys.executable, "-m", "dialoscope.cli", *argv, *common],
                                   env=env, stdout=subprocess.DEVNULL)
            assert code == EXIT_OK
            errs.append(capfd.readouterr().err)
        assert errs[0].splitlines() == [
            f"prediction for unknown turn {(r['dialogue_id'], r['turn_index'])} ignored"
            for r in records]
        assert errs[0] == errs[1]

    def test_bad_repr_is_usage_error(self, capsys, mwz_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["linearize", "--dataset", "multiwoz", "--path",
                  str(mwz_path), "--repr", "bogus",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_USAGE


def write_gold_predictions(corpus, path):
    """`gold_predictions(corpus)` as a predictions file at `path`."""
    path.write_text("".join(json.dumps({"dialogue_id": dialog_id, "turn_index": index,
                                        "prediction": prediction}) + "\n"
                            for (dialog_id, index), prediction
                            in gold_predictions(corpus).items()), "utf-8")
    return path


class TestEval:
    @pytest.fixture
    def gold_preds_file(self, mwz_path, tmp_path):
        from dialoscope.corpus import load_multiwoz
        return write_gold_predictions(load_multiwoz(mwz_path), tmp_path / "preds.jsonl")

    def test_jga_modes(self, capsys, mwz_path, gold_preds_file, tmp_path):
        for mode in ("jga-oracle", "jga"):
            out = tmp_path / f"{mode}.json"
            code, stdout, _ = run(capsys, "eval", "--dataset", "multiwoz",
                                  "--path", str(mwz_path), "--preds",
                                  str(gold_preds_file), "--mode", mode,
                                  "--out", str(out))
            assert code == EXIT_OK
            assert "accuracy                1.0000" in stdout
            assert json.loads(out.read_text("utf-8"))["accuracy"] == 1.0

    def test_exact_match(self, capsys, smcalflow_path, tmp_path):
        from dialoscope.corpus import load_smcalflow
        p = write_gold_predictions(load_smcalflow(smcalflow_path), tmp_path / "preds.jsonl")
        code, stdout, _ = run(capsys, "eval", "--dataset", "smcalflow",
                              "--path", str(smcalflow_path), "--preds", str(p),
                              "--mode", "exact-match")
        assert code == EXIT_OK
        assert "accuracy                1.0000" in stdout
        code, stdout, _ = run(capsys, "eval", "--dataset", "smcalflow",
                              "--path", str(smcalflow_path), "--preds", str(p),
                              "--mode", "exact-match", "--honor-refer-flags")
        assert code == EXIT_OK
        assert "correct but flagged     1" in stdout

    def test_unparseable_gold_program_exits_one(self, capsys, smcalflow_raw, tmp_path):
        smcalflow_raw[0]["turns"][1]["lispress"] = "(Yield (foo"
        source = tmp_path / "calflow.jsonl"
        source.write_text("\n".join(json.dumps(d) for d in smcalflow_raw), "utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"dialogue_id": "calflow-0", "turn_index": 2,
                                     "prediction": "(Yield (foo))"}) + "\n", "utf-8")
        out = tmp_path / "score.json"
        code, _, err = run(capsys, "eval", "--dataset", "smcalflow", "--path", str(source),
                           "--preds", str(preds), "--mode", "exact-match",
                           "--out", str(out))
        assert code == EXIT_FAILURE
        assert f"error: {source}:1: dialog calflow-0, turn 2: gold program does not parse" in err
        assert err.count("character offset") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_exact_match_counts_unparseable_predictions(self, capsys, smcalflow_path,
                                                        tmp_path):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"dialogue_id": "calflow-0", "turn_index": 0,
                                     "prediction": "(Yield (foo"}) + "\n", "utf-8")
        for strict in ([], ["--strict-exact-match"]):
            code, stdout, _ = run(capsys, "eval", "--dataset", "smcalflow",
                                  "--path", str(smcalflow_path), "--preds", str(preds),
                                  "--mode", "exact-match", *strict)
            assert code == EXIT_OK
            assert "unparseable predictions 1" in stdout
            assert "missing predictions     3" in stdout

    @pytest.mark.parametrize("mode", ["jga", "exact-match"])
    @pytest.mark.parametrize("record,named", [
        ({"turn_index": 0, "prediction": 5}, "prediction must be a string, got int"),
        ({"turn_index": 0, "prediction": None}, "prediction must be a string, got NoneType"),
        ({"dialogue_id": ["d"], "turn_index": 0, "prediction": "x"},
         "dialogue_id must be a string, got list"),
        ({"turn_index": 1e400, "prediction": "x"}, "need dialogue_id, turn_index, prediction"),
        *(({"turn_index": i, "prediction": "x"}, "need dialogue_id, turn_index, prediction")
          for i in (2.9, True, " 4 ", 4.0, "1_0")),
    ])
    def test_invalid_prediction_record_exits_one(self, capsys, mwz_path, smcalflow_path,
                                                 tmp_path, mode, record, named):
        dataset, path, dialog_id = (("smcalflow", smcalflow_path, "calflow-0")
                                    if mode == "exact-match"
                                    else ("multiwoz", mwz_path, "MUL0635.json"))
        p = tmp_path / "preds.jsonl"
        p.write_text("\n" + json.dumps({"dialogue_id": dialog_id, **record}) + "\n", "utf-8")
        code, _, err = run(capsys, "eval", "--dataset", dataset, "--path", str(path),
                           "--preds", str(p), "--mode", mode)
        assert code == EXIT_FAILURE
        assert err == f"error: {p}:2: {named}\n"

    def test_malformed_preds_file(self, capsys, mwz_path, tmp_path):
        p = tmp_path / "preds.jsonl"
        p.write_text("{broken\n", "utf-8")
        code, _, err = run(capsys, "eval", "--dataset", "multiwoz",
                           "--path", str(mwz_path), "--preds", str(p),
                           "--mode", "jga-oracle")
        assert code == EXIT_FAILURE
        assert "error:" in err


class TestValidate:
    def test_clean(self, capsys, mwz_path):
        code, out, _ = run(capsys, "validate", "--dataset", "multiwoz",
                           "--path", str(mwz_path))
        assert code == EXIT_OK
        assert "no violations" in out

    def test_duplicate_sgd_dialog_id(self, capsys, tmp_path, sgd_raw):
        # the same dialog in two dialogues files of one split
        write_layout(tmp_path, {"test/schema.json": SGD_SCHEMA,
                                "test/dialogues_001.json": sgd_raw,
                                "test/dialogues_002.json": sgd_raw[:1]})
        code, out, err = run(capsys, "validate", "--dataset", "sgd",
                             "--path", str(tmp_path), "--split", "test")
        assert code == EXIT_FAILURE
        assert out == ""
        assert err == (f"error: {tmp_path / 'test' / 'dialogues_002.json'}: "
                       "dialog 1_00000: duplicate dialog id\n")

    @pytest.mark.parametrize("command", ["analyze", "linearize", "eval"])
    def test_copied_sgd_file_stops_every_command(self, capsys, tmp_path, sgd_raw, command):
        # a dialogues file copied under a second name: every turn would count twice
        write_layout(tmp_path, {"test/schema.json": SGD_SCHEMA,
                                "test/dialogues_001.json": sgd_raw,
                                "test/dialogues_005.json": sgd_raw})
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"dialogue_id": "1_00000", "turn_index": 0,
                                     "prediction": ""}) + "\n", "utf-8")
        out_path = tmp_path / "out.jsonl"
        extra = {"analyze": [],
                 "linearize": ["--repr", "user", "--out", str(out_path)],
                 "eval": ["--preds", str(preds), "--mode", "jga-oracle"]}[command]
        code, out, err = run(capsys, command, "--dataset", "sgd", "--path", str(tmp_path),
                             "--split", "test", *extra)
        assert code == EXIT_FAILURE
        assert out == ""
        assert err == (f"error: {tmp_path / 'test' / 'dialogues_005.json'}: "
                       "dialog 1_00000: duplicate dialog id\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("sub,split", [("test", "train"), ("", "tset")])
    def test_sgd_unknown_split_exits_one(self, capsys, sgd_path, sub, split):
        path = sgd_path / sub
        code, out, err = run(capsys, "validate", "--dataset", "sgd",
                             "--path", str(path), "--split", split)
        assert code == EXIT_FAILURE
        assert out == ""
        assert err == f"error: no SGD split directory '{split}' under {path}\n"

    @pytest.mark.parametrize("sub,split", [("", "test"), ("test", "test"), ("test", "all")])
    def test_sgd_split_directory(self, capsys, sgd_path, sub, split):
        code, out, _ = run(capsys, "validate", "--dataset", "sgd",
                           "--path", str(sgd_path / sub), "--split", split)
        assert code == EXIT_OK
        assert out == "ok: 2 dialogs, 6 user turns, no violations\n"

    @pytest.mark.parametrize("with_path", [False, True], ids=["data-dir", "path"])
    def test_smcalflow_directory_reads_the_split_file(self, capsys, tmp_path, monkeypatch,
                                                      smcalflow_path, with_path):
        root = tmp_path / "datasets"
        (root / "smcalflow").mkdir(parents=True)
        (root / "smcalflow" / "valid.dataflow_dialogues.jsonl").write_bytes(
            smcalflow_path.read_bytes())
        monkeypatch.setenv("DIALOSCOPE_DATA_DIR", str(root))
        path = ["--path", str(root / "smcalflow")] if with_path else []
        code, out, err = run(capsys, "validate", "--dataset", "smcalflow", *path,
                             "--split", "valid")
        assert (code, out, err) == (EXIT_OK, "ok: 2 dialogs, 4 user turns, no violations\n", "")
        code, out, err = run(capsys, "validate", "--dataset", "smcalflow", *path,
                             "--split", "test")
        missing = root / "smcalflow" / "test.dataflow_dialogues.jsonl"
        assert (code, out, err) == (EXIT_FAILURE, "", f"error: missing file: {missing}\n")

    def test_duplicate_smcalflow_dialog_id(self, capsys, tmp_path, smcalflow_raw):
        write_layout(tmp_path, {"c.jsonl": smcalflow_raw + smcalflow_raw[1:]})
        code, out, err = run(capsys, "validate", "--dataset", "smcalflow",
                             "--path", str(tmp_path / "c.jsonl"))
        assert code == EXIT_FAILURE
        assert out == ""
        assert err == f"error: {tmp_path / 'c.jsonl'}:3: dialog calflow-1: duplicate dialog id\n"


class TestDeepNesting:
    """Input nested deeper than Python recurses is malformed, never a traceback."""

    DEEP = "(" * 3000 + "x" + ")" * 3000
    AT_BOUND = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH

    def test_deep_prediction_is_unparseable(self, capsys, smcalflow_path, tmp_path):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"dialogue_id": "calflow-0", "turn_index": 0,
                                     "prediction": self.DEEP}) + "\n", "utf-8")
        code, out, _ = run(capsys, "eval", "--dataset", "smcalflow",
                           "--path", str(smcalflow_path), "--preds", str(preds),
                           "--mode", "exact-match")
        assert code == EXIT_OK
        assert "unparseable predictions 1" in out

    @pytest.mark.parametrize("reader", ["smcalflow", "predictions", "json"])
    def test_deep_json_exits_one(self, capsys, tmp_path, mwz_path, reader):
        deep = tmp_path / "deep"
        deep.write_text("\n" + "[" * 200_000 + "\n", "utf-8")
        argv, where = {
            "smcalflow": (["validate", "--dataset", "smcalflow", "--path", str(deep)],
                          f"{deep}:2: malformed JSON"),
            "predictions": (["eval", "--dataset", "multiwoz", "--path", str(mwz_path),
                             "--preds", str(deep), "--mode", "jga"],
                            f"{deep}:2: malformed JSON"),
            "json": (["validate", "--dataset", "multiwoz", "--path", str(deep)],
                     f"malformed JSON in {deep}"),
        }[reader]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_FAILURE
        assert err.startswith(f"error: {where}: ")

    @pytest.mark.parametrize("command", ["analyze", "linearize", "eval"])
    def test_deep_gold_program_exits_one(self, capsys, smcalflow_raw, tmp_path, command):
        smcalflow_raw[0]["turns"][1]["lispress"] = self.DEEP
        write_layout(tmp_path, {"c.jsonl": smcalflow_raw})
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"dialogue_id": "calflow-0", "turn_index": 2,
                                     "prediction": "(x)"}) + "\n", "utf-8")
        extra = {"analyze": [],
                 "linearize": ["--repr", "user", "--out", str(tmp_path / "out.jsonl")],
                 "eval": ["--preds", str(preds), "--mode", "exact-match"]}[command]
        code, _, err = run(capsys, command, "--dataset", "smcalflow",
                           "--path", str(tmp_path / "c.jsonl"), *extra)
        assert code == EXIT_FAILURE
        assert err == (f"error: {tmp_path / 'c.jsonl'}:1: dialog calflow-0, turn 2: gold program "
                       f"does not parse: nesting deeper than {MAX_DEPTH} "
                       f"(at character offset {MAX_DEPTH})\n")
        assert not (tmp_path / "out.jsonl").exists()

    def test_unparseable_gold_program_without_prediction_exits_one(self, capsys,
                                                                   smcalflow_raw, tmp_path):
        # the gold program is parsed whether or not the turn has a prediction
        smcalflow_raw[0]["turns"][0]["lispress"] = "(Yield (Foo"
        write_layout(tmp_path, {"c.jsonl": smcalflow_raw})
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"dialogue_id": "calflow-0", "turn_index": 2,
                                     "prediction": "(x)"}) + "\n", "utf-8")
        code, out, err = run(capsys, "eval", "--dataset", "smcalflow",
                             "--path", str(tmp_path / "c.jsonl"), "--preds", str(preds),
                             "--mode", "exact-match")
        assert code == EXIT_FAILURE
        assert out == ""
        assert err.startswith(f"error: {tmp_path / 'c.jsonl'}:1: dialog calflow-0, turn 0: "
                              "gold program does not parse: ")

    @pytest.mark.parametrize("program", ["(Yield (Foo", DEEP])
    def test_validate_words_a_bad_gold_program_as_analyze_does(self, capsys, smcalflow_raw,
                                                               tmp_path, program):
        smcalflow_raw[0]["turns"][1]["lispress"] = program
        write_layout(tmp_path, {"c.jsonl": smcalflow_raw})
        path = ["--dataset", "smcalflow", "--path", str(tmp_path / "c.jsonl")]
        code, out, err = run(capsys, "validate", *path)
        assert (code, out) == (EXIT_FAILURE, "")
        assert err.startswith(f"error: {tmp_path / 'c.jsonl'}:1: dialog calflow-0, turn 2: "
                              "gold program does not parse: ")
        assert run(capsys, "analyze", *path) == (EXIT_FAILURE, "", err)

    def test_program_at_the_bound_parses_and_prints(self, capsys, smcalflow_raw, tmp_path):
        smcalflow_raw[0]["turns"][1]["lispress"] = self.AT_BOUND
        source = tmp_path / "c.jsonl"
        write_layout(tmp_path, {"c.jsonl": smcalflow_raw})
        out = tmp_path / "records.jsonl"
        code, _, _ = run(capsys, "linearize", "--dataset", "smcalflow", "--path", str(source),
                         "--repr", "user", "--out", str(out))
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.read_text("utf-8").splitlines()]
        assert records[1]["target"] == self.AT_BOUND
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(json.dumps({"dialogue_id": r["dialogue_id"],
                                             "turn_index": r["turn_index"],
                                             "prediction": r["target"]}) + "\n"
                                 for r in records), "utf-8")
        code, stdout, _ = run(capsys, "eval", "--dataset", "smcalflow", "--path", str(source),
                              "--preds", str(preds), "--mode", "exact-match")
        assert code == EXIT_OK
        assert "accuracy                1.0000" in stdout
        assert run(capsys, "analyze", "--dataset", "smcalflow", "--path", str(source))[0] == EXIT_OK


class TestBadGoldProgram:
    """A gold program that does not parse is a load error: every command
    stops on it with one line naming the file, line, dialog and turn, and
    replaces no output."""

    @pytest.mark.parametrize("command", ["analyze", "linearize", "eval", "validate", "inspect"])
    @pytest.mark.parametrize("program,reason", [
        ("(Yield (foo", "unbalanced '(' (at character offset 7)"),
        ("", "empty input (at character offset 0)"),
        ("(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1),
         f"nesting deeper than {MAX_DEPTH} (at character offset {MAX_DEPTH})"),
    ], ids=["unbalanced", "empty", "deep"])
    def test_every_command_stops_on_it(self, capsys, smcalflow_raw, tmp_path, command,
                                       program, reason):
        smcalflow_raw[0]["turns"][1]["lispress"] = program
        source = tmp_path / "c.jsonl"
        write_layout(tmp_path, {"c.jsonl": smcalflow_raw})
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"dialogue_id": "calflow-0", "turn_index": 2,
                                     "prediction": "(x)"}) + "\n", "utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "old").write_text("old output\n", "utf-8")
        out = ["--out", str(out_dir / "old")]
        extra = {"analyze": [*out, "--markdown", str(out_dir / "r.md"),
                             "--histogram", str(out_dir / "r.csv")],
                 "linearize": ["--repr", "user", *out],
                 "eval": ["--preds", str(preds), "--mode", "exact-match", *out],
                 "validate": [],
                 "inspect": ["calflow-1"]}[command]
        code, stdout, err = run(capsys, command, "--dataset", "smcalflow",
                                "--path", str(source), *extra)
        assert (code, stdout) == (EXIT_FAILURE, "")
        assert err == (f"error: {source}:1: dialog calflow-0, turn 2: "
                       f"gold program does not parse: {reason}\n")
        assert [p.name for p in out_dir.iterdir()] == ["old"]
        assert (out_dir / "old").read_text("utf-8") == "old output\n"


class TestLongIntegers:
    """Integers past the int/str conversion digit limit are malformed input
    or plain values, never a traceback."""

    LONG = "1" * 4301

    @pytest.fixture(autouse=True)
    def digit_limit(self):
        # the interpreter's default limit, whatever PYTHONINTMAXSTRDIGITS says
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(before)

    def dumps(self, doc) -> str:
        """JSON text of `doc` with each "LONG" string written as the long integer."""
        return json.dumps(doc).replace('"LONG"', self.LONG)

    @pytest.mark.parametrize("reader", ["multiwoz", "sgd", "smcalflow", "predictions",
                                        "overrides"])
    def test_long_integer_exits_one(self, capsys, tmp_path, mwz_raw, sgd_raw,
                                    smcalflow_raw, reader):
        mwz = tmp_path / "data.json"
        mwz.write_text(json.dumps(mwz_raw), "utf-8")
        bad = tmp_path / "bad"
        if reader == "multiwoz":
            mwz_raw["MUL0635.json"]["log"][1]["metadata"]["hotel"]["semi"]["name"] = "LONG"
            bad.write_text(self.dumps(mwz_raw), "utf-8")
        elif reader == "sgd":
            frame = sgd_raw[0]["turns"][0]["frames"][0]
            frame["state"]["slot_values"]["city"] = ["LONG"]
            write_layout(tmp_path, {"test/schema.json": SGD_SCHEMA})
            bad = tmp_path / "test" / "dialogues_001.json"
            bad.write_text(self.dumps(sgd_raw), "utf-8")
        elif reader == "smcalflow":
            smcalflow_raw[0]["turns"][0]["program_execution_oracle"]["has_exception"] = "LONG"
            bad.write_text("".join(self.dumps(d) + "\n" for d in smcalflow_raw), "utf-8")
        elif reader == "predictions":
            bad.write_text(self.dumps({"dialogue_id": "d1", "turn_index": "LONG",
                                       "prediction": "x"}) + "\n", "utf-8")
        else:
            bad.write_text(f"MUL0635.json\t{self.LONG}\ttrain\tdestination\t5\t-\t-\n",
                           "utf-8")
        argv, where = {
            "multiwoz": (["validate", "--dataset", "multiwoz", "--path", str(bad)],
                         f"malformed JSON in {bad}: "),
            "sgd": (["validate", "--dataset", "sgd", "--path", str(tmp_path),
                     "--split", "test"], f"malformed JSON in {bad}: "),
            "smcalflow": (["validate", "--dataset", "smcalflow", "--path", str(bad)],
                          f"{bad}:1: malformed JSON: "),
            "predictions": (["eval", "--dataset", "multiwoz", "--path", str(mwz),
                             "--preds", str(bad), "--mode", "jga"],
                            f"{bad}:1: malformed JSON: "),
            "overrides": (["analyze", "--dataset", "multiwoz", "--path", str(mwz),
                           "--overrides", str(bad)],
                          f"{bad}:1: turn_index must be a non-negative integer"),
        }[reader]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_FAILURE
        assert out == ""
        assert err.startswith(f"error: {where}")

    @pytest.mark.parametrize("command", ["analyze", "inspect"])
    @pytest.mark.parametrize("value", [LONG, "$" + "9" * 3000],
                             ids=["past-the-limit", "dollars"])
    def test_long_numeric_values_are_analyzed(self, capsys, tmp_path, sgd_raw, command,
                                              value):
        # neither is spelled in words: int() refused the first, and the words
        # of the second recursed without end
        sgd_raw[0]["turns"][0]["frames"][0]["state"]["slot_values"]["city"] = [value]
        write_layout(tmp_path, {"test/schema.json": SGD_SCHEMA,
                                "test/dialogues_001.json": sgd_raw})
        code, out, _ = run(capsys, command, "--dataset", "sgd", "--path", str(tmp_path),
                           "--split", "test", *(["1_00000"] if command == "inspect" else []))
        assert code == EXIT_OK
        assert out


class TestCollector:
    """A command runs with the cyclic collector paused, restores the
    caller's setting on every exit, and leaves no cyclic garbage that
    grows with the data."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    def test_setting_survives_every_exit(self, capsys, collector, mwz_path, tmp_path,
                                         monkeypatch):
        mwz = ["--dataset", "multiwoz", "--path", str(mwz_path)]
        during = []
        load = cli._LOADERS[DatasetKind.MULTIWOZ]
        monkeypatch.setitem(cli._LOADERS, DatasetKind.MULTIWOZ,
                            lambda *args: during.append(gc.isenabled()) or load(*args))
        assert main(["validate", *mwz]) == EXIT_OK
        assert during == [False]
        assert gc.isenabled() is collector
        assert main(["validate", "--dataset", "multiwoz",
                     "--path", str(tmp_path / "nope")]) == EXIT_FAILURE
        assert gc.isenabled() is collector
        with pytest.raises(SystemExit) as exc:
            main(["eval", *mwz, "--preds", "p.jsonl", "--mode", "exact-match"])
        assert exc.value.code == EXIT_USAGE
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("command", [
        ["analyze", "--workers", "1"],
        ["analyze", "--workers", "2"],
        ["linearize", "--repr", "full", "--out", "{root}/records.jsonl"],
        ["eval", "--mode", "jga", "--preds", "{root}/preds.jsonl"],
        ["validate"],
    ], ids=["analyze-1", "analyze-2", "linearize", "eval-jga", "validate"])
    @pytest.mark.parametrize("collector", [False], indirect=True, ids=["disabled"])
    def test_cyclic_garbage_does_not_grow_with_the_data(self, capsys, collector, tmp_path,
                                                         sgd_raw, command):
        from dialoscope.linearize import linearize_target

        def layout(name, copies):
            root = tmp_path / name
            dialogs = [dict(d, dialogue_id=f"{d['dialogue_id']}-{k}")
                       for k in range(copies) for d in sgd_raw]
            write_layout(root / "test", {"schema.json": SGD_SCHEMA,
                                         "dialogues_001.json": dialogs})
            (root / "preds.jsonl").write_text("".join(
                json.dumps({"dialogue_id": dialog.dialog_id, "turn_index": turn.index,
                            "prediction": linearize_target(corpus.state_update(
                                dialog.previous_user_state(turn.index), turn.state))})
                + "\n"
                for dialog in corpus.load_sgd(root, "test").dialogs
                for turn in dialog.user_turns()), "utf-8")
            return root

        def garbage(root):
            gc.collect()
            argv = [command[0], "--dataset", "sgd", "--path", str(root), "--split", "test",
                    *(arg.format(root=root) for arg in command[1:])]
            assert main(argv) == EXIT_OK
            capsys.readouterr()
            return gc.collect()

        small, large = layout("small", 1), layout("large", 4)
        garbage(small)  # first use builds lazy tables and caches
        assert garbage(small) == garbage(large)


class TestInspect:
    def test_trace_output(self, capsys, mwz_path):
        code, out, _ = run(capsys, "inspect", "--dataset", "multiwoz",
                           "--path", str(mwz_path), "MUL0635.json")
        assert code == EXIT_OK
        assert "δc=4" in out          # friday
        assert "δc=0" in out          # 09:00
        assert "unresolved" in out    # cambridge
        assert "(nothing to predict)" in out

    def test_unknown_dialog(self, capsys, mwz_path):
        code, out, err = run(capsys, "inspect", "--dataset", "multiwoz",
                             "--path", str(mwz_path), "NOPE.json")
        assert (code, out, err) == (EXIT_FAILURE, "", "error: unknown dialog_id: NOPE.json\n")


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_dataset(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--dataset", "cornell-movies"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_workers_below_one_is_usage_error(self, capsys, mwz_path, workers):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--dataset", "multiwoz", "--path", str(mwz_path),
                  "--workers", workers])
        assert exc.value.code == EXIT_USAGE
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["linearize", "--repr", "user", "--out", "o.jsonl"],
        ["eval", "--preds", "p.jsonl", "--mode", "jga"],
        ["validate"],
        ["inspect", "MUL0635.json"],
    ])
    def test_workers_is_analyze_only(self, capsys, mwz_path, tmp_path, monkeypatch,
                                     command):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command[0], "--dataset", "multiwoz", "--path", str(mwz_path),
                  "--workers", "2", *command[1:]])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    @pytest.mark.parametrize("dataset,command", [
        ("smcalflow", ["eval", "--preds", "p.jsonl", "--mode", "jga-oracle"]),
        ("smcalflow", ["eval", "--preds", "p.jsonl", "--mode", "jga"]),
        ("multiwoz", ["eval", "--preds", "p.jsonl", "--mode", "exact-match"]),
        ("sgd", ["eval", "--preds", "p.jsonl", "--mode", "exact-match"]),
        ("smcalflow", ["linearize", "--repr", "prev-state", "--previous-state",
                       "predicted", "--preds", "p.jsonl", "--out", "o.jsonl"]),
        ("multiwoz", ["linearize", "--repr", "prev-state", "--preds", "p.jsonl",
                      "--out", "o.jsonl"]),
        ("sgd", ["linearize", "--repr", "user", "--previous-state", "gold",
                 "--preds", "p.jsonl", "--out", "o.jsonl"]),
        ("smcalflow", ["eval", "--preds", "p.jsonl", "--mode", "exact-match",
                       "--fuzzy-sgd-matching"]),
        ("multiwoz", ["eval", "--preds", "p.jsonl", "--mode", "jga", "--fuzzy-sgd-matching"]),
        ("sgd", ["eval", "--preds", "p.jsonl", "--mode", "jga", "--honor-refer-flags"]),
        ("multiwoz", ["eval", "--preds", "p.jsonl", "--mode", "jga-oracle",
                      "--strict-exact-match"]),
        ("sgd", ["eval", "--preds", "p.jsonl", "--mode", "jga", "--honor-refer-flags",
                 "--strict-exact-match"]),
        ("smcalflow", ["linearize", "--repr", "prev-state", "--out", "o.jsonl"]),
    ])
    def test_mode_for_another_dataset_is_usage_error(self, capsys, tmp_path, monkeypatch,
                                                     dataset, command):
        # the path does not exist: the mismatch is caught before any load
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command[0], "--dataset", dataset, "--path", str(tmp_path / "none"),
                  *command[1:]])
        assert exc.value.code == EXIT_USAGE
        assert "applies to" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("DIALOSCOPE_DATA_DIR", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--dataset", "multiwoz"])
        assert exc.value.code == EXIT_USAGE
        assert "--path is required" in capsys.readouterr().err

    def test_predicted_previous_state_needs_preds(self, capsys, mwz_path,
                                                  tmp_path):
        out = tmp_path / "records.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["linearize", "--dataset", "multiwoz", "--path", str(mwz_path),
                  "--repr", "prev-state", "--previous-state", "predicted",
                  "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert "requires --preds" in capsys.readouterr().err
        assert not out.exists()


class TestUnreadableInput:
    UTF16 = "\ufeffnot UTF-8".encode("utf-16-le")  # starts with the bytes ff fe

    @pytest.mark.parametrize("reader", ["json", "split-list", "smcalflow",
                                        "predictions", "overrides", "lexicon"])
    def test_non_utf8_file_exits_one(self, capsys, tmp_path, mwz_path, reader):
        bad = tmp_path / "bad"
        bad.write_bytes(self.UTF16)
        mwz = ["--dataset", "multiwoz", "--path", str(mwz_path)]
        if reader == "split-list":
            bad = tmp_path / "testListFile.txt"
            bad.write_bytes(self.UTF16)
            (tmp_path / "data.json").write_bytes(mwz_path.read_bytes())
        argv = {
            "json": ["validate", "--dataset", "multiwoz", "--path", str(bad)],
            "split-list": ["validate", "--dataset", "multiwoz", "--path", str(tmp_path),
                           "--split", "test"],
            "smcalflow": ["validate", "--dataset", "smcalflow", "--path", str(bad)],
            "predictions": ["eval", *mwz, "--preds", str(bad), "--mode", "jga"],
            "overrides": ["analyze", *mwz, "--overrides", str(bad)],
            "lexicon": ["analyze", *mwz, "--lexicon", str(bad)],
        }[reader]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_FAILURE
        assert err.startswith(f"error: {bad}: not UTF-8 text")

    @pytest.mark.parametrize("reader", ["json", "sgd-schema", "smcalflow",
                                        "predictions", "overrides", "lexicon"])
    def test_missing_file_exits_one(self, capsys, tmp_path, mwz_path, reader):
        missing = tmp_path / "nope"
        mwz = ["--dataset", "multiwoz", "--path", str(mwz_path)]
        if reader == "sgd-schema":
            (tmp_path / "test").mkdir()
            missing = tmp_path / "test" / "schema.json"
        argv = {
            "json": ["validate", "--dataset", "multiwoz", "--path", str(missing)],
            "sgd-schema": ["validate", "--dataset", "sgd", "--path", str(tmp_path),
                           "--split", "test"],
            "smcalflow": ["validate", "--dataset", "smcalflow", "--path", str(missing)],
            "predictions": ["eval", *mwz, "--preds", str(missing), "--mode", "jga"],
            "overrides": ["analyze", *mwz, "--overrides", str(missing)],
            "lexicon": ["analyze", *mwz, "--lexicon", str(missing)],
        }[reader]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_FAILURE
        assert err == f"error: missing file: {missing}\n"

    def test_malformed_lexicon_exits_one(self, capsys, tmp_path, mwz_path):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("garbage line\n", "utf-8")
        code, _, err = run(capsys, "analyze", "--dataset", "multiwoz",
                           "--path", str(mwz_path), "--lexicon", str(lexicon))
        assert code == EXIT_FAILURE
        assert err.startswith(f"error: {lexicon}:1: expected 'key: phrase|phrase'")
