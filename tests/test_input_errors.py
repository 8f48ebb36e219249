"""Every input file fails the same way: a missing, non-UTF-8 or malformed
file raises a `dialoscope.InputError` whose message names the file, and the
CLI prints that message and exits 1. No other exception is caught."""
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dialoscope
from dialoscope import cli
from dialoscope.analysis import apply_overrides
from dialoscope.cli import EXIT_FAILURE, main
from dialoscope.corpus import InputError, load_multiwoz, load_sgd, load_smcalflow
from dialoscope.evaluate import load_predictions
from dialoscope.linearize import TargetParseError
from dialoscope.lispress import LispressError
from dialoscope.normalize import load_lexicon

NOT_UTF8 = b"ok\n\xff\xfe\n"
SMC_LINE = json.dumps({"dialogue_id": "C1", "turns": [
    {"user_utterance": {"original_text": "hi"}, "lispress": "(x)"}]})

# reader -> (the file it reads, under the root; the files written beside it;
# the malformed contents of that file; a library call on the root; the CLI
# arguments on the root and a valid MultiWOZ file)
READERS = {
    "load_multiwoz": (
        "mwz/data.json", {}, json.dumps({"D1": []}),
        lambda root: load_multiwoz(root / "mwz/data.json"),
        lambda root, mwz: ["validate", "--dataset", "multiwoz",
                           "--path", root / "mwz/data.json"]),
    "load_sgd": (
        "sgd/test/schema.json", {"sgd/test/dialogues_001.json": "[]"},
        json.dumps([{"description": "no name"}]),
        lambda root: load_sgd(root / "sgd", "test"),
        lambda root, mwz: ["validate", "--dataset", "sgd", "--path", root / "sgd",
                           "--split", "test"]),
    "load_smcalflow": (
        "c.jsonl", {}, SMC_LINE + "\nnot json\n",
        lambda root: load_smcalflow(root / "c.jsonl"),
        lambda root, mwz: ["validate", "--dataset", "smcalflow", "--path", root / "c.jsonl"]),
    "load_predictions": (
        "preds.jsonl", {}, json.dumps({"dialogue_id": "D1"}) + "\n",
        lambda root: load_predictions(root / "preds.jsonl"),
        lambda root, mwz: ["eval", "--dataset", "multiwoz", "--path", mwz,
                           "--preds", root / "preds.jsonl", "--mode", "jga"]),
    "apply_overrides": (
        "ov.tsv", {}, "D1\t0\thotel\n",
        lambda root: apply_overrides(root / "ov.tsv"),
        lambda root, mwz: ["analyze", "--dataset", "multiwoz", "--path", mwz,
                           "--overrides", root / "ov.tsv"]),
    "load_lexicon": (
        "lexicon.txt", {}, "garbage line\n",
        lambda root: load_lexicon(root / "lexicon.txt"),
        lambda root, mwz: ["analyze", "--dataset", "multiwoz", "--path", mwz,
                           "--lexicon", root / "lexicon.txt"]),
}


class TestEveryReader:
    @pytest.mark.parametrize("fault", ["missing", "not-utf8", "malformed"])
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_raises_input_error_and_exits_one(self, capsys, tmp_path, mwz_path,
                                              reader, fault):
        target, beside, malformed, load, argv = READERS[reader]
        root = tmp_path / "in"
        for name, text in [*beside.items(), (target, malformed)]:
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text, "utf-8")
        path = root / target
        if fault == "missing":
            path.unlink()
        elif fault == "not-utf8":
            path.write_bytes(NOT_UTF8)
        with pytest.raises(Exception) as exc:
            load(root)
        assert type(exc.value) is InputError
        assert str(path) in str(exc.value)
        code = main([str(a) for a in argv(root, mwz_path)])
        assert (code, *capsys.readouterr()) == (EXIT_FAILURE, "", f"error: {exc.value}\n")

    def test_is_a_value_error_exported_by_the_package(self):
        assert dialoscope.InputError is InputError
        assert issubclass(InputError, ValueError)

    @pytest.mark.parametrize("error", [ValueError("not an input problem"),
                                       TargetParseError("not an input problem"),
                                       LispressError("not an input problem", 0)],
                             ids=lambda e: type(e).__name__)
    def test_other_value_errors_escape_the_cli(self, monkeypatch, mwz_path, error):
        def fail(args):
            raise error
        monkeypatch.setattr(cli, "cmd_validate", fail)
        with pytest.raises(ValueError) as exc:
            main(["validate", "--dataset", "multiwoz", "--path", str(mwz_path)])
        assert exc.value is error


class TestMultiwozDuplicateId:
    def test_a_repeated_dialog_id_exits_one(self, capsys, tmp_path):
        dialog = json.dumps({"log": [{"text": "hi", "metadata": {}},
                                     {"text": "ok", "metadata": {"hotel": {}}}]})
        path = tmp_path / "d.json"
        path.write_text('{"D1": %s, "D2": %s, "D1": %s}' % (dialog, dialog, dialog), "utf-8")
        code = main(["validate", "--dataset", "multiwoz", "--path", str(path)])
        assert (code, *capsys.readouterr()) == (
            EXIT_FAILURE, "", f"error: {path}: dialog D1: duplicate dialog id\n")


class TestByteOrderMark:
    """A line file saved with a UTF-8 byte order mark stops at its line 1,
    since the mark would stick to the first line's text."""

    @staticmethod
    def saved_with_a_mark(path, text):
        path.write_text("\ufeff" + text, "utf-8")
        return f"{path}:1: starts with a UTF-8 byte order mark; save the file without one"

    def test_split_list(self, tmp_path, mwz_path):
        # the first listed dialog would leave the split for train
        (tmp_path / "data.json").write_bytes(mwz_path.read_bytes())
        message = self.saved_with_a_mark(tmp_path / "testListFile.txt",
                                         "SNG0073.json\nMUL0635.json\n")
        with pytest.raises(InputError) as exc:
            load_multiwoz(tmp_path, "test")
        assert str(exc.value) == message

    def test_overrides(self, tmp_path):
        # the header line would not be a comment
        path = tmp_path / "overrides.tsv"
        message = self.saved_with_a_mark(
            path, "# dialog\tturn\tdomain\tslot\tdelta_c\tcategory\tcontext\n"
                  "D1\t0\thotel\tarea\t1\tother\t-\n")
        with pytest.raises(InputError) as exc:
            apply_overrides(path)
        assert str(exc.value) == message

    def test_lexicon(self, tmp_path):
        # the first rule's key would start with the mark
        path = tmp_path / "lexicon.txt"
        message = self.saved_with_a_mark(path, "pricerange/cheap: on a budget\n")
        with pytest.raises(InputError) as exc:
            load_lexicon(path)
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# the three line readers on any text: they return, or raise an InputError
# that starts with the path, and `path:line:` for an error in a line
# ---------------------------------------------------------------------------

_LONG_NUMBER = "9" * 5000  # more digits than int() converts by default
_PIECES = [
    '{"dialogue_id": "D1", "turn_index": 0, "prediction": "hotel:area=north"}',
    '{"dialogue_id": "D1", "turn_index": ' + _LONG_NUMBER + ', "prediction": "x"}',
    "D1\t0\thotel\tarea\t1\tother\t-", "D1\t" + _LONG_NUMBER + "\thotel\tarea\t-\t-\t-",
    "hotel/area/north: up north|northern", "!shortcut cambridge: cam",
    "!other */x: y", "\t", ":", "|", "#", "!other ", "!shortcut ", "/", "-",
    _LONG_NUMBER, "\n", "\r", "\x85", "\r\n", "zoë", "日本", " ",
]
_contents = st.tuples(
    st.lists(st.sampled_from(_PIECES) | st.text(max_size=4), max_size=12).map("".join),
    st.sampled_from([b"", b"\xff", b"\x80"])).map(lambda t: t[0].encode("utf-8") + t[1])

LINE_READERS = {"load_predictions": load_predictions, "apply_overrides": apply_overrides,
                "load_lexicon": load_lexicon}


class TestLineReaderProperties:
    @settings(max_examples=150, deadline=None)
    @given(_contents)
    def test_return_or_located_input_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input"
            path.write_bytes(data)
            # the readers open text in universal newlines mode: "\r" ends a line too
            lines = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n") + 1
            for name, reader in LINE_READERS.items():
                try:
                    reader(path)
                except InputError as exc:
                    located = re.match(re.escape(str(path)) + r"(?::(\d+))?: ", str(exc))
                    assert located, (name, str(exc))
                    assert located[1] is None or 1 <= int(located[1]) <= lines, name
