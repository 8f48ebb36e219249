import json

import pytest

from dialoscope.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
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

    def test_bad_repr_is_usage_error(self, capsys, mwz_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["linearize", "--dataset", "multiwoz", "--path",
                  str(mwz_path), "--repr", "bogus",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_USAGE


class TestEval:
    @pytest.fixture
    def gold_preds_file(self, mwz_path, tmp_path):
        from dialoscope.corpus import load_multiwoz, state_update
        from dialoscope.linearize import linearize_target
        lines = []
        for dialog in load_multiwoz(mwz_path).dialogs:
            for turn in dialog.user_turns():
                prev = dialog.previous_user_state(turn.index)
                lines.append(json.dumps({
                    "dialogue_id": dialog.dialog_id,
                    "turn_index": turn.index,
                    "prediction": linearize_target(
                        state_update(prev, turn.state))}))
        p = tmp_path / "preds.jsonl"
        p.write_text("\n".join(lines) + "\n", "utf-8")
        return p

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
        lines = []
        for dialog in load_smcalflow(smcalflow_path).dialogs:
            for turn in dialog.user_turns():
                lines.append(json.dumps({"dialogue_id": dialog.dialog_id,
                                         "turn_index": turn.index,
                                         "prediction": turn.program}))
        p = tmp_path / "preds.jsonl"
        p.write_text("\n".join(lines) + "\n", "utf-8")
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

    def test_corrupt_smcalflow_program(self, capsys, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps({"dialogue_id": "d", "turns": [
            {"user_utterance": {"original_text": "hi"},
             "lispress": "(unbalanced"}]}) + "\n", "utf-8")
        code, out, _ = run(capsys, "validate", "--dataset", "smcalflow",
                           "--path", str(p))
        assert code == EXIT_FAILURE
        assert "violation" in out


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
        code, _, err = run(capsys, "inspect", "--dataset", "multiwoz",
                           "--path", str(mwz_path), "NOPE.json")
        assert code == EXIT_FAILURE
        assert "unknown dialog_id" in err


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
