import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dialoscope.corpus import (Corpus, CorpusError, DialogState, DatasetKind,
                               LoadError, Speaker, StructuralError, apply_update,
                               canonical_slot, load_multiwoz, load_sgd,
                               load_smcalflow, state_update, validate_corpus)
from conftest import SGD_SCHEMA, mwz_dialog, sgd_turn, sgd_user_frame


def state(d):
    return DialogState.from_dict(d)


class TestStateUpdate:
    def test_first_turn_diff(self):
        upd = state_update(DialogState(), state({("train", "day"): ("friday",)}))
        assert upd.added_or_changed == {("train", "day", ("friday",))}
        assert not upd.dropped and not upd.dontcared

    def test_changed_value(self):
        upd = state_update(state({("restaurant", "area"): ("center",)}),
                           state({("restaurant", "area"): ("north",)}))
        assert upd.added_or_changed == {("restaurant", "area", ("north",))}

    def test_relaxed_to_dontcare(self):
        upd = state_update(state({("hotel", "stars"): ("4",)}),
                           state({("hotel", "stars"): ("dontcare",)}))
        assert upd.dontcared == {("hotel", "stars")}
        assert not upd.added_or_changed

    def test_new_slot_set_to_dontcare_counts_as_addition(self):
        upd = state_update(DialogState(),
                           state({("restaurant", "food"): ("dontcare",)}))
        assert upd.added_or_changed == {("restaurant", "food", ("dontcare",))}

    def test_dropped_slot(self):
        upd = state_update(state({("hotel", "area"): ("west",)}), DialogState())
        assert upd.dropped == {("hotel", "area")}

    def test_apply_update_inverts(self):
        prev = state({("a", "b"): ("x",), ("c", "d"): ("y",)})
        curr = state({("a", "b"): ("z",), ("e", "f"): ("w", "v")})
        assert apply_update(prev, state_update(prev, curr)) == curr


class TestCanonicalSlot:
    @pytest.mark.parametrize("raw,expected", [
        ("leaveAt", "leaveat"),
        ("leave at", "leaveat"),
        ("arrive_by", "arriveby"),
        ("book stay", "stay"),
        ("book people", "people"),
        ("price range", "pricerange"),
        ("Area", "area"),
    ])
    def test_folding(self, raw, expected):
        assert canonical_slot(raw) == expected


class TestLoadMultiwoz:
    def test_load(self, mwz_path):
        corpus = load_multiwoz(mwz_path)
        assert corpus.dataset_kind is DatasetKind.MULTIWOZ
        assert [d.dialog_id for d in corpus.dialogs] == ["MUL0635.json",
                                                         "SNG0073.json"]
        assert corpus.user_turn_count() == 9

    def test_cumulative_state_on_user_turns(self, mwz_path):
        dialog = load_multiwoz(mwz_path).get_dialog("MUL0635.json")
        last = dialog.turns[10]
        assert last.speaker is Speaker.USER
        got = last.state.as_dict()
        assert got[("train", "arriveby")] == ("09:00",)
        assert got[("hotel", "people")] == ("2",)  # "book people" folded

    def test_multi_value_split(self, tmp_path):
        raw = {"D.json": mwz_dialog([
            ("any centre or north place", {"restaurant": {"area": "centre|north"}},
             "ok"),
        ])}
        p = tmp_path / "d.json"
        p.write_text(json.dumps(raw), "utf-8")
        dialog = load_multiwoz(p).dialogs[0]
        assert dialog.turns[0].state.as_dict()[("restaurant", "area")] == (
            "centre", "north")

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("{}", "utf-8")
        with pytest.raises(LoadError):
            load_multiwoz(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError) as exc:
            load_multiwoz(tmp_path / "nope.json")
        assert "nope.json" in str(exc.value)

    def test_non_alternating_is_structural_error(self, tmp_path):
        raw = {"BAD.json": {"log": [
            {"text": "hello", "metadata": {"hotel": {"semi": {}, "book": {}}}},
            {"text": "hi", "metadata": {"hotel": {"semi": {}, "book": {}}}},
        ]}}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw), "utf-8")
        with pytest.raises(StructuralError) as exc:
            load_multiwoz(p)
        assert "BAD.json" in str(exc.value)

    def test_split_selection(self, tmp_path, mwz_raw):
        root = tmp_path / "mwz"
        root.mkdir()
        (root / "data.json").write_text(json.dumps(mwz_raw), "utf-8")
        (root / "valListFile.txt").write_text("MUL0635.json\n", "utf-8")
        (root / "testListFile.txt").write_text("SNG0073.json\n", "utf-8")
        assert [d.dialog_id for d in load_multiwoz(root, "dev").dialogs] == [
            "MUL0635.json"]
        assert [d.dialog_id for d in load_multiwoz(root, "test").dialogs] == [
            "SNG0073.json"]
        with pytest.raises(LoadError):
            load_multiwoz(root, "train")  # all dialogs are in dev/test lists
        (root / "testListFile.txt").write_text("OTHER.json\n", "utf-8")
        assert [d.dialog_id for d in load_multiwoz(root, "train").dialogs] == [
            "SNG0073.json"]

    def test_deterministic(self, mwz_path):
        assert load_multiwoz(mwz_path) == load_multiwoz(mwz_path)


class TestLoadSgd:
    def test_load(self, sgd_path):
        corpus = load_sgd(sgd_path, "test")
        assert len(corpus.dialogs) == 2
        assert set(corpus.schemas) == {"Restaurants_1", "Hotels_1"}
        d1 = corpus.get_dialog("1_00000")
        assert d1.services == ("Restaurants_1",)
        assert d1.turns[6].state.as_dict()[("Restaurants_1", "partysize")] == ("2",)

    def test_both_service_names_exposed(self, sgd_path):
        corpus = load_sgd(sgd_path, "test")
        services = {s for d in corpus.dialogs for s in d.services}
        assert services == {"Restaurants_1", "Hotels_1"}

    def test_missing_schema(self, tmp_path):
        split_dir = tmp_path / "test"
        split_dir.mkdir()
        (split_dir / "dialogues_001.json").write_text("[]", "utf-8")
        with pytest.raises(LoadError):
            load_sgd(tmp_path, "test")

    def test_unknown_service_rejected(self, tmp_path, sgd_raw):
        sgd_raw[0]["services"] = ["Flights_9"]
        split_dir = tmp_path / "test"
        split_dir.mkdir()
        (split_dir / "schema.json").write_text(
            json.dumps([{"service_name": "Restaurants_1", "description": ""}]),
            "utf-8")
        (split_dir / "dialogues_001.json").write_text(json.dumps(sgd_raw), "utf-8")
        with pytest.raises(StructuralError) as exc:
            load_sgd(tmp_path, "test")
        assert "1_00000" in str(exc.value) and "Flights_9" in str(exc.value)

    def test_deterministic(self, sgd_path):
        assert load_sgd(sgd_path, "test") == load_sgd(sgd_path, "test")


class TestLoadSmcalflow:
    def test_load(self, smcalflow_path):
        corpus = load_smcalflow(smcalflow_path)
        assert len(corpus.dialogs) == 2
        d0 = corpus.get_dialog("calflow-0")
        users = d0.user_turns()
        assert len(users) == 3
        assert all(t.program for t in users)
        assert "refer_are_incorrect" in users[1].flags
        assert "refer_are_incorrect" not in users[0].flags

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("", "utf-8")
        with pytest.raises(LoadError):
            load_smcalflow(p)

    def test_bad_line_reports_number(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        good = json.dumps({"dialogue_id": "a", "turns": [
            {"user_utterance": {"original_text": "hi"}, "lispress": "(x)"}]})
        p.write_text(good + "\nnot json\n", "utf-8")
        with pytest.raises(Exception) as exc:
            load_smcalflow(p)
        assert ":2" in str(exc.value)

    def test_missing_program_is_structural(self, tmp_path):
        p = tmp_path / "noprog.jsonl"
        p.write_text(json.dumps({"dialogue_id": "x", "turns": [
            {"user_utterance": {"original_text": "hi"}}]}) + "\n", "utf-8")
        with pytest.raises(StructuralError):
            load_smcalflow(p)


class TestValidate:
    def test_clean_fixtures(self, mwz_path, sgd_path, smcalflow_path):
        assert validate_corpus(load_multiwoz(mwz_path)) == []
        assert validate_corpus(load_sgd(sgd_path, "test")) == []
        assert validate_corpus(load_smcalflow(smcalflow_path)) == []

    def test_accumulation_identity_holds_on_fixtures(self, mwz_path, sgd_path):
        from dialoscope.corpus import EMPTY_STATE
        for corpus in (load_multiwoz(mwz_path), load_sgd(sgd_path, "test")):
            for dialog in corpus.dialogs:
                running = EMPTY_STATE
                for turn in dialog.user_turns():
                    running = apply_update(running,
                                           state_update(running, turn.state))
                    assert running == turn.state

    def test_broken_state_flagged(self, planted):
        corpus, _ = planted
        violations = validate_corpus(corpus)
        assert violations == []


# ---------------------------------------------------------------------------
# malformed input: a located CorpusError, never a traceback
# ---------------------------------------------------------------------------

def _mwz_agent_meta(meta):
    return {"D1": {"log": [{"text": "hi", "metadata": {}},
                           {"text": "ok", "metadata": meta}]}}


def _sgd_dialogues(values_by_turn):
    """One SGD dialog whose user turn k sets Restaurants_1 city to values_by_turn[k]."""
    turns = []
    for values in values_by_turn:
        frame = sgd_user_frame("Restaurants_1", {})
        frame["state"]["slot_values"]["city"] = values
        turns += [sgd_turn("USER", "hello", [frame]), sgd_turn("SYSTEM", "ok")]
    return [{"dialogue_id": "S1", "services": ["Restaurants_1"], "turns": turns}]


def _smc_turn(**extra):
    return {"user_utterance": {"original_text": "hi"}, "lispress": "(x)", **extra}


# (dataset, files to write under the root, the load path under the root,
#  substrings the error must name)
MALFORMED = {
    "mwz-dialog-is-list": ("multiwoz", {"d.json": {"D1": []}}, "d.json",
                           ["d.json", "dialog D1"]),
    "mwz-semi-is-list": ("multiwoz", {"d.json": _mwz_agent_meta(
        {"hotel": {"semi": ["cheap"], "book": {}}})}, "d.json",
        ["d.json", "dialog D1", "turn 1", "'semi'"]),
    "mwz-book-is-list": ("multiwoz", {"d.json": _mwz_agent_meta(
        {"hotel": {"semi": {}, "book": []}})}, "d.json",
        ["d.json", "dialog D1", "turn 1", "'book'"]),
    "mwz-text-not-string": ("multiwoz", {"d.json": {"D1": {"log": [
        {"text": 7, "metadata": {}},
        {"text": "ok", "metadata": {"hotel": {"semi": {"area": "north"}}}}]}}},
        "d.json", ["d.json", "dialog D1", "turn 0", "text"]),
    "sgd-schema-without-name": ("sgd", {
        "test/schema.json": [{"description": "no name"}],
        "test/dialogues_001.json": []}, ".", ["schema.json", "service 0", "service_name"]),
    "sgd-dialogues-is-object": ("sgd", {
        "test/schema.json": SGD_SCHEMA,
        "test/dialogues_001.json": {"dialogue_id": "S1"}}, ".", ["dialogues_001.json"]),
    "sgd-value-not-string": ("sgd", {
        "test/schema.json": SGD_SCHEMA,
        "test/dialogues_001.json": _sgd_dialogues([[3]])}, ".",
        ["dialogues_001.json", "dialog S1", "turn 0", "'city'"]),
    "sgd-value-is-string": ("sgd", {
        "test/schema.json": SGD_SCHEMA,
        "test/dialogues_001.json": _sgd_dialogues([["abc"], "abc"])}, ".",
        ["dialogues_001.json", "dialog S1", "turn 2", "'city'"]),
    "sgd-value-chars-then-string": ("sgd", {
        "test/schema.json": SGD_SCHEMA,
        "test/dialogues_001.json": _sgd_dialogues([["a", "b", "c"], "abc"])}, ".",
        ["dialogues_001.json", "dialog S1", "turn 2", "'city'"]),
    "sgd-string-then-nested": ("sgd", {
        "test/schema.json": SGD_SCHEMA,
        "test/dialogues_001.json": _sgd_dialogues([["3"], [["3"]]])}, ".",
        ["dialogues_001.json", "dialog S1", "turn 2", "'city'"]),
    "smc-line-is-list": ("smcalflow", {"c.jsonl": [["not", "a", "dialog"]]}, "c.jsonl",
                         ["c.jsonl:1"]),
    "smc-lispress-not-string": ("smcalflow", {"c.jsonl": [
        {"dialogue_id": "C1", "turns": [_smc_turn(), _smc_turn(lispress=["x"])]}]},
        "c.jsonl", ["c.jsonl", "dialog C1", "turn 1", "lispress"]),
}


def write_layout(root: Path, files):
    for name, doc in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if name.endswith(".jsonl"):
            path.write_text("".join(json.dumps(line) + "\n" for line in doc), "utf-8")
        else:
            path.write_text(json.dumps(doc), "utf-8")


LOADERS = {"multiwoz": load_multiwoz, "sgd": load_sgd, "smcalflow": load_smcalflow}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_located_corpus_error(self, tmp_path, case):
        dataset, files, rel, named = MALFORMED[case]
        write_layout(tmp_path, files)
        with pytest.raises(CorpusError) as exc:
            LOADERS[dataset](tmp_path / rel, "test")
        for part in named:
            assert part in str(exc.value)

    def test_sgd_repeated_valid_values_load(self, tmp_path):
        dialogues = _sgd_dialogues([["a", "b"], ["a", "b"], ["none"], ["b", "a", "b"]])
        for turn in dialogues[0]["turns"][::2]:  # the same slot and values in a second service
            turn["frames"].append(sgd_user_frame("Hotels_1", {"city": ["a", "b"]}))
        dialogues[0]["services"].append("Hotels_1")
        write_layout(tmp_path, {"test/schema.json": SGD_SCHEMA,
                                "test/dialogues_001.json": dialogues})
        states = [t.state.as_dict() for t in load_sgd(tmp_path).dialogs[0].user_turns()]
        assert [s.get(("Restaurants_1", "city")) for s in states] == [
            ("a", "b"), ("a", "b"), None, ("b", "a")]
        assert [s.get(("Hotels_1", "city")) for s in states] == [("a", "b")] * 4

    def test_mwz_non_string_values_are_coerced(self, tmp_path):
        write_layout(tmp_path, {"d.json": _mwz_agent_meta(
            {"hotel": {"semi": {"stars": 4, "area": ["north", "west"], "name": [],
                                "type": " Not Mentioned ", "parking": "NONE"}}})})
        state = load_multiwoz(tmp_path / "d.json").dialogs[0].turns[0].state
        assert state.as_dict() == {("hotel", "stars"): ("4",), ("hotel", "area"): ("north",)}


# any JSON value: what the properties below put in place of each value of a
# well-formed document in turn
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12)


def _paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


def _flatten(pairs):
    return [entry for pair in pairs for entry in pair]


_value = st.sampled_from(["", "hi", "none", "not mentioned", " Cheap ", "a|b", "|", "dontcare"])
_mwz_section = st.dictionaries(
    st.sampled_from(["area", "booked", "people", "leaveAt"]),
    st.one_of(_value, st.lists(_value, max_size=2), st.integers()), max_size=3)
_mwz_meta = st.dictionaries(
    st.sampled_from(["hotel", "train"]),
    st.fixed_dictionaries({}, optional={"semi": _mwz_section, "book": _mwz_section}),
    min_size=1, max_size=2)
_mwz_pair = st.tuples(
    st.fixed_dictionaries({"text": _value}, optional={"metadata": st.just({})}),
    st.fixed_dictionaries({"text": _value, "metadata": _mwz_meta}))
_mwz_data = st.dictionaries(
    st.sampled_from(["D1", "D2"]),
    st.fixed_dictionaries({"log": st.lists(_mwz_pair, min_size=1, max_size=3).map(_flatten)}),
    min_size=1, max_size=2)

_sgd_services = st.sampled_from(["Restaurants_1", "Hotels_1"])
_sgd_frame = st.fixed_dictionaries({"service": _sgd_services}, optional={
    "state": st.fixed_dictionaries({}, optional={"slot_values": st.dictionaries(
        st.sampled_from(["city", "date"]), st.lists(_value, max_size=3), max_size=2)})})
_sgd_pair = st.tuples(
    st.fixed_dictionaries({"speaker": st.just("USER"), "utterance": _value},
                          optional={"frames": st.lists(_sgd_frame, max_size=2)}),
    st.fixed_dictionaries({"speaker": st.just("SYSTEM"), "utterance": _value}))
_sgd_dialogue_list = st.lists(st.fixed_dictionaries(
    {"dialogue_id": st.just("S1"),
     "turns": st.lists(_sgd_pair, min_size=1, max_size=3).map(_flatten)},
    optional={"services": st.lists(_sgd_services, max_size=2)}), min_size=1, max_size=2)

_smc_utterance = st.one_of(st.none(), _value, st.fixed_dictionaries({"original_text": _value}))
_smc_turn = st.fixed_dictionaries(
    {"user_utterance": _smc_utterance, "lispress": st.sampled_from(["(x)", "(a (refer b))"])},
    optional={"agent_utterance": _smc_utterance, "refer_are_incorrect": st.booleans(),
              "program_execution_oracle": st.fixed_dictionaries(
                  {}, optional={"refer_are_incorrect": st.booleans()})})
_smc_lines = st.lists(st.fixed_dictionaries(
    {"dialogue_id": st.sampled_from(["C1", "C2"]),
     "turns": st.lists(_smc_turn, min_size=1, max_size=3)}), min_size=1, max_size=2)


def _check_every_value_replaced(dataset, files, rel, junk, min_depth=1):
    """Load `files` as they are, then once with each value at `min_depth` or
    deeper (a whole file at depth 1) replaced by a junk value: each load
    returns a Corpus or raises a CorpusError."""
    paths = [p for p in _paths(files) if len(p) >= min_depth]
    variants = [files] + [_replaced(files, p, junk[k % len(junk)]) for k, p in enumerate(paths)]
    with tempfile.TemporaryDirectory() as tmp:
        for variant in variants:
            write_layout(Path(tmp), variant)
            try:
                result = LOADERS[dataset](Path(tmp) / rel, "test")
            except CorpusError:
                continue
            assert isinstance(result, Corpus)


_junk = st.lists(_json, min_size=1, max_size=4)


class TestLoaderProperties:
    @settings(max_examples=30, deadline=None)
    @given(_mwz_data, _junk)
    def test_multiwoz_any_json(self, data, junk):
        _check_every_value_replaced("multiwoz", {"data.json": data}, "data.json", junk)

    @settings(max_examples=30, deadline=None)
    @given(_sgd_dialogue_list, _junk)
    def test_sgd_any_json(self, dialogues, junk):
        _check_every_value_replaced("sgd", {"test/schema.json": SGD_SCHEMA,
                                            "test/dialogues_001.json": dialogues}, ".", junk)

    @settings(max_examples=30, deadline=None)
    @given(_smc_lines, _junk)
    def test_smcalflow_any_json(self, lines, junk):
        # the file is JSON lines: replace single lines, not the whole file
        _check_every_value_replaced("smcalflow", {"c.jsonl": lines}, "c.jsonl", junk,
                                    min_depth=2)
