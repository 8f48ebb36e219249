import json
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dialoscope import lispress
from dialoscope.corpus import (Corpus, Dialog, DatasetKind, InputError, Speaker, Turn, _check,
                               _parse_multiwoz_state, _sgd_dialog, _type_error, _where,
                               apply_update, canonical_slot, load_multiwoz, load_sgd,
                               load_smcalflow, state_update)
from conftest import SGD_SCHEMA, mwz_dialog, sgd_turn, sgd_user_frame


class TestStateUpdate:
    def test_first_turn_diff(self):
        upd = state_update({}, {("train", "day"): ("friday",)})
        assert upd.added_or_changed == {("train", "day", ("friday",))}
        assert not upd.dropped and not upd.dontcared

    def test_changed_value(self):
        upd = state_update({("restaurant", "area"): ("center",)},
                           {("restaurant", "area"): ("north",)})
        assert upd.added_or_changed == {("restaurant", "area", ("north",))}

    def test_relaxed_to_dontcare(self):
        upd = state_update({("hotel", "stars"): ("4",)},
                           {("hotel", "stars"): ("dontcare",)})
        assert upd.dontcared == {("hotel", "stars")}
        assert not upd.added_or_changed

    def test_new_slot_set_to_dontcare_counts_as_addition(self):
        upd = state_update({}, {("restaurant", "food"): ("dontcare",)})
        assert upd.added_or_changed == {("restaurant", "food", ("dontcare",))}

    def test_dropped_slot(self):
        upd = state_update({("hotel", "area"): ("west",)}, {})
        assert upd.dropped == {("hotel", "area")}

    def test_apply_update_inverts(self):
        prev = {("a", "b"): ("x",), ("c", "d"): ("y",)}
        curr = {("a", "b"): ("z",), ("e", "f"): ("w", "v")}
        assert apply_update(prev, state_update(prev, curr)) == curr


# the slot-name table the package once shipped, looked up before and after
# the fold: a reference for the fold with its four glued booking names
_SLOT_TABLE = {
    "price range": "pricerange", "price_range": "pricerange",
    "leave at": "leaveat", "leave_at": "leaveat", "leaveat": "leaveat",
    "arrive by": "arriveby", "arrive_by": "arriveby", "arriveby": "arriveby",
    "book day": "day", "book people": "people", "book stay": "stay", "book time": "time",
    "bookday": "day", "bookpeople": "people", "bookstay": "stay", "booktime": "time",
}


def reference_canonical_slot(name):
    key = name.strip().lower()
    if key in _SLOT_TABLE:
        return _SLOT_TABLE[key]
    if key.startswith("book "):
        key = key[len("book "):]
    elif key.startswith("book_"):
        key = key[len("book_"):]
    key = key.replace("_", " ").replace("-", " ")
    key = "".join(key.split())
    return _SLOT_TABLE.get(key, key)


# the table's words in several cases, near misses of `book`, and the
# separators, whitespace and case-changing letters the fold must handle
_SLOT_NAME_PARTS = ["book", "Book", "BOOK", "booking", "ed", "day", "People", "STAY",
                    "time", "price", "range", "leave", "at", "arrive", "by", "area",
                    " ", "_", "-", "\t", "\n", "\u00a0", "\u0130", "ß"]


class TestCanonicalSlot:
    @pytest.mark.parametrize("raw,expected", [
        ("leaveAt", "leaveat"),
        ("leave at", "leaveat"),
        ("arrive_by", "arriveby"),
        ("book stay", "stay"),
        ("book people", "people"),
        ("price range", "pricerange"),
        ("Area", "area"),
        ("bookday", "day"),
        ("BookPeople", "people"),
        ("book_time", "time"),
        ("booked", "booked"),
        ("bookingref", "bookingref"),
        # each folds otherwise without the strip, the `book_` prefix or the
        # hyphen rule; a glued booking name would fold the same either way
        (" book area", "area"),
        ("book_area", "area"),
        ("leave-at", "leaveat"),
    ])
    def test_folding(self, raw, expected):
        assert canonical_slot(raw) == expected

    @settings(max_examples=2000, deadline=None)
    @given(st.lists(st.sampled_from(_SLOT_NAME_PARTS), max_size=6).map("".join)
           | st.text(max_size=12))
    def test_equals_the_table_driven_fold(self, name):
        assert canonical_slot(name) == reference_canonical_slot(name)


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
        got = last.state
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
        assert dialog.turns[0].state[("restaurant", "area")] == (
            "centre", "north")

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("{}", "utf-8")
        with pytest.raises(InputError):
            load_multiwoz(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError) as exc:
            load_multiwoz(tmp_path / "nope.json")
        assert "nope.json" in str(exc.value)

    def test_non_alternating_is_structural_error(self, tmp_path):
        raw = {"BAD.json": {"log": [
            {"text": "hello", "metadata": {"hotel": {"semi": {}, "book": {}}}},
            {"text": "hi", "metadata": {"hotel": {"semi": {}, "book": {}}}},
        ]}}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw), "utf-8")
        with pytest.raises(InputError) as exc:
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
        with pytest.raises(InputError):
            load_multiwoz(root, "train")  # all dialogs are in dev/test lists
        (root / "testListFile.txt").write_text("OTHER.json\n", "utf-8")
        assert [d.dialog_id for d in load_multiwoz(root, "train").dialogs] == [
            "SNG0073.json"]

    def test_deterministic(self, mwz_path):
        assert load_multiwoz(mwz_path) == load_multiwoz(mwz_path)


def _generated_multiwoz(n_dialogs):
    """MultiWOZ-shaped data: 8 exchanges per dialog, seven domain frames on
    every agent turn, most slots not mentioned."""
    data = {}
    for k in range(n_dialogs):
        log = []
        for i in range(8):
            metadata = {domain: {"book": {"booked": [], "people": ""},
                                 "semi": dict.fromkeys(["area", "name", "type", "day"],
                                                       "not mentioned")}
                        for domain in ("restaurant", "hotel", "attraction", "train",
                                       "taxi", "hospital", "police")}
            metadata["hotel"]["semi"]["area"] = f"area {i}"
            log += [{"text": f"user turn {i} of dialog {k}", "metadata": {}},
                    {"text": "ok", "metadata": metadata}]
        data[f"D{k:04}.json"] = {"log": log}
    return data


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMultiwozLoadMemory:
    def test_peak_below_json_load_of_the_file(self, tmp_path):
        # the loader decodes one dialog at a time: the document never
        # exists whole, only its text and the dialogs built so far
        path = tmp_path / "data.json"
        path.write_text(json.dumps(_generated_multiwoz(200)), "utf-8")
        load_multiwoz(path)  # fills canonical_slot's cache once

        def json_load():
            with open(path, encoding="utf-8") as f:
                json.load(f)
        assert _peak_bytes(lambda: load_multiwoz(path)) < _peak_bytes(json_load)


def _generated_sgd(n_dialogs):
    """SGD-shaped dialogs: 8 exchanges each, a user frame restating its
    service's growing state on every user turn, a system frame on every
    system turn."""
    dialogs = []
    for k in range(n_dialogs):
        turns = []
        slot_values = {}
        for i in range(8):
            slot_values = {**slot_values, f"slot_{i % 4}": [f"value {i} of {k}"]}
            turns += [{"speaker": "USER", "utterance": f"user turn {i} of dialog {k}",
                       "frames": [{"service": "Hotels_1", "slots": [],
                                   "state": {"active_intent": "NONE", "requested_slots": [],
                                             "slot_values": slot_values}}]},
                      {"speaker": "SYSTEM", "utterance": "ok",
                       "frames": [{"service": "Hotels_1", "slots": [], "actions": []}]}]
        dialogs.append({"dialogue_id": f"{k}_00000", "services": ["Hotels_1"],
                        "turns": turns})
    return dialogs


class TestSgdLoadMemory:
    def test_peak_below_json_load_of_the_file(self, tmp_path):
        # the loader decodes one dialog at a time: the list never exists
        # whole, only the file's text and the dialogs built so far
        write_layout(tmp_path, {"test/schema.json": SGD_SCHEMA,
                                "test/dialogues_001.json": _generated_sgd(200)})
        load_sgd(tmp_path, "test")  # fills canonical_slot's cache once

        def json_load():
            with open(tmp_path / "test" / "dialogues_001.json", encoding="utf-8") as f:
                json.load(f)
        assert _peak_bytes(lambda: load_sgd(tmp_path, "test")) < _peak_bytes(json_load)


class TestLoadSgd:
    def test_load(self, sgd_path):
        corpus = load_sgd(sgd_path, "test")
        assert len(corpus.dialogs) == 2
        assert set(corpus.schemas) == {"Restaurants_1", "Hotels_1"}
        d1 = corpus.get_dialog("1_00000")
        assert d1.services == ("Restaurants_1",)
        assert d1.turns[6].state[("Restaurants_1", "partysize")] == ("2",)

    def test_both_service_names_exposed(self, sgd_path):
        corpus = load_sgd(sgd_path, "test")
        services = {s for d in corpus.dialogs for s in d.services}
        assert services == {"Restaurants_1", "Hotels_1"}

    def test_missing_schema(self, tmp_path):
        split_dir = tmp_path / "test"
        split_dir.mkdir()
        (split_dir / "dialogues_001.json").write_text("[]", "utf-8")
        with pytest.raises(InputError):
            load_sgd(tmp_path, "test")

    def test_unknown_service_rejected(self, tmp_path, sgd_raw):
        sgd_raw[0]["services"] = ["Flights_9"]
        split_dir = tmp_path / "test"
        split_dir.mkdir()
        (split_dir / "schema.json").write_text(
            json.dumps([{"service_name": "Restaurants_1", "description": ""}]),
            "utf-8")
        (split_dir / "dialogues_001.json").write_text(json.dumps(sgd_raw), "utf-8")
        with pytest.raises(InputError) as exc:
            load_sgd(tmp_path, "test")
        assert "1_00000" in str(exc.value) and "Flights_9" in str(exc.value)

    def test_deterministic(self, sgd_path):
        assert load_sgd(sgd_path, "test") == load_sgd(sgd_path, "test")

    def test_dialog_id_in_two_files_rejected(self, tmp_path, sgd_raw):
        # a dialogues file copied under a second name
        write_layout(tmp_path, {"test/schema.json": SGD_SCHEMA,
                                "test/dialogues_001.json": sgd_raw,
                                "test/dialogues_005.json": sgd_raw})
        with pytest.raises(InputError) as exc:
            load_sgd(tmp_path, "test")
        assert str(exc.value) == (f"{tmp_path / 'test' / 'dialogues_005.json'}: "
                                  "dialog 1_00000: duplicate dialog id")

    def test_dialog_id_twice_in_one_file_rejected(self, tmp_path, sgd_raw):
        write_layout(tmp_path, {"test/schema.json": SGD_SCHEMA,
                                "test/dialogues_001.json": sgd_raw + sgd_raw[1:]})
        with pytest.raises(InputError) as exc:
            load_sgd(tmp_path, "test")
        assert str(exc.value).endswith(f"dialog {sgd_raw[1]['dialogue_id']}: duplicate dialog id")


class TestLoadSmcalflow:
    def test_load(self, smcalflow_path):
        corpus = load_smcalflow(smcalflow_path)
        assert len(corpus.dialogs) == 2
        d0 = corpus.get_dialog("calflow-0")
        users = d0.user_turns()
        assert len(users) == 3
        assert all(t.program for t in users)
        assert users[0].tree == lispress.parse("(Yield :output (Today))")
        assert users[1].refer_are_incorrect
        assert not users[0].refer_are_incorrect

    def test_gold_program_that_does_not_parse(self, tmp_path, smcalflow_raw):
        # the turn is the turn_index of records and predictions: exchange 1 is turn 2
        smcalflow_raw[1]["turns"] = smcalflow_raw[0]["turns"][:2]
        smcalflow_raw[1]["turns"][1] = {**smcalflow_raw[1]["turns"][1], "lispress": "(a b"}
        p = tmp_path / "c.jsonl"
        write_layout(tmp_path, {"c.jsonl": smcalflow_raw})
        with pytest.raises(InputError) as exc:
            load_smcalflow(p)
        assert str(exc.value) == (f"{p}:2: dialog calflow-1, turn 2: gold program does not "
                                  "parse: unbalanced '(' (at character offset 0)")
        assert exc.value.__cause__.offset == 0

    def test_equal_programs_share_one_tree(self, smcalflow_repeated_path):
        first, second = (d.user_turns() for d in load_smcalflow(smcalflow_repeated_path).dialogs)
        # across turns of one dialog, and across dialogs
        assert first[1].tree is first[2].tree
        assert first[0].tree is second[0].tree
        assert first[0].tree is not first[1].tree
        for turn in first + second:
            assert turn.tree == lispress.parse(turn.program)

    def test_each_distinct_program_parsed_once(self, smcalflow_repeated_path, parse_calls):
        corpus = load_smcalflow(smcalflow_repeated_path)
        programs = [t.program for d in corpus.dialogs for t in d.user_turns()]
        assert len(programs) == 4
        assert parse_calls == Counter(set(programs)) and len(parse_calls) == 2

    def test_repeated_bad_program_fails_at_its_first_line(self, tmp_path, smcalflow_raw):
        smcalflow_raw[0]["turns"][1]["lispress"] = "(a b"
        write_layout(tmp_path, {"once.jsonl": smcalflow_raw})
        smcalflow_raw[0]["turns"][2]["lispress"] = "(a b"
        smcalflow_raw[1]["turns"][0]["lispress"] = "(a b"
        write_layout(tmp_path, {"c.jsonl": smcalflow_raw})
        messages = []
        for name in ("once.jsonl", "c.jsonl"):
            with pytest.raises(InputError) as exc:
                load_smcalflow(tmp_path / name)
            messages.append(str(exc.value).replace(str(tmp_path / name), "<file>"))
        assert messages[0] == messages[1] == (
            "<file>:1: dialog calflow-0, turn 2: gold program does not parse: "
            "unbalanced '(' (at character offset 0)")

    def test_refer_flag_at_the_turn(self, tmp_path, smcalflow_raw):
        # the fixture flags turn 2 under program_execution_oracle
        smcalflow_raw[0]["turns"][0]["refer_are_incorrect"] = True
        smcalflow_raw[0]["turns"][1]["refer_are_incorrect"] = False
        write_layout(tmp_path, {"c.jsonl": smcalflow_raw})
        users = load_smcalflow(tmp_path / "c.jsonl").dialogs[0].user_turns()
        assert [t.refer_are_incorrect for t in users] == [True, True, False]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("", "utf-8")
        with pytest.raises(InputError):
            load_smcalflow(p)

    def test_bad_line_reports_number(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        good = json.dumps({"dialogue_id": "a", "turns": [
            {"user_utterance": {"original_text": "hi"}, "lispress": "(x)"}]})
        p.write_text(good + "\nnot json\n", "utf-8")
        with pytest.raises(InputError) as exc:
            load_smcalflow(p)
        assert ":2" in str(exc.value)

    def test_dialog_id_on_two_lines_rejected(self, tmp_path, smcalflow_raw):
        p = tmp_path / "c.jsonl"
        write_layout(tmp_path, {"c.jsonl": smcalflow_raw + smcalflow_raw[:1]})
        with pytest.raises(InputError) as exc:
            load_smcalflow(p)
        assert str(exc.value) == f"{p}:3: dialog calflow-0: duplicate dialog id"

    def test_missing_program_is_structural(self, tmp_path):
        p = tmp_path / "noprog.jsonl"
        p.write_text(json.dumps({"dialogue_id": "x", "turns": [
            {"user_utterance": {"original_text": "hi"}}]}) + "\n", "utf-8")
        with pytest.raises(InputError):
            load_smcalflow(p)


class TestValidate:
    def test_clean_fixtures(self, mwz_path, sgd_path, smcalflow_path):
        # what `validate` reports: each fixture loads, with every user turn
        # holding its state or its gold program's tree
        for corpus in (load_multiwoz(mwz_path), load_sgd(sgd_path, "test")):
            assert all(t.state is not None for d in corpus.dialogs for t in d.user_turns())
        corpus = load_smcalflow(smcalflow_path)
        assert all(t.tree == lispress.parse(t.program)
                   for d in corpus.dialogs for t in d.user_turns())

    def test_accumulation_identity_holds_on_fixtures(self, mwz_path, sgd_path):
        from dialoscope.corpus import EMPTY_STATE
        for corpus in (load_multiwoz(mwz_path), load_sgd(sgd_path, "test")):
            for dialog in corpus.dialogs:
                running = EMPTY_STATE
                for turn in dialog.user_turns():
                    running = apply_update(running,
                                           state_update(running, turn.state))
                    assert running == turn.state


# ---------------------------------------------------------------------------
# malformed input: a located InputError, never a traceback
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
    # an object or a nested list would load as its Python repr
    "mwz-value-is-object": ("multiwoz", {"d.json": _mwz_agent_meta(
        {"hotel": {"semi": {"area": {"x": 1}}}})}, "d.json",
        ["d.json", "dialog D1", "turn 1", "'hotel' slot 'area' must be a string, got dict"]),
    "mwz-list-value-holds-a-list": ("multiwoz", {"d.json": _mwz_agent_meta(
        {"hotel": {"book": {"name": [["a"]]}}})}, "d.json",
        ["d.json", "dialog D1", "turn 1", "'hotel' slot 'name' must be a string, got list"]),
    # two members with one id: decoding the whole document keeps only the last
    "mwz-duplicate-dialog-id": ("multiwoz", {"d.json": (
        '{"D1": %s, "D1": %s}' % (json.dumps(_mwz_agent_meta({"hotel": {}})["D1"]),
                                  json.dumps(_mwz_agent_meta({"train": {}})["D1"]))).encode()},
        "d.json", ["d.json: dialog D1: duplicate dialog id"]),
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
        "c.jsonl", ["c.jsonl", "dialog C1", "turn 2", "lispress"]),
    # a truthy string would flag the turn, and --honor-refer-flags score it 0
    "smc-refer-flag-is-string": ("smcalflow", {"c.jsonl": [
        {"dialogue_id": "C1", "turns": [_smc_turn(), _smc_turn(refer_are_incorrect="false")]}]},
        "c.jsonl", ["c.jsonl:1", "dialog C1", "turn 2",
                    "refer_are_incorrect must be a JSON boolean, got str"]),
    "smc-oracle-refer-flag-is-number": ("smcalflow", {"c.jsonl": [
        {"dialogue_id": "C1", "turns": [_smc_turn(program_execution_oracle={
            "refer_are_incorrect": 0})]}]},
        "c.jsonl", ["c.jsonl:1", "dialog C1", "turn 0",
                    "program_execution_oracle.refer_are_incorrect must be a JSON boolean"]),
}


def write_layout(root: Path, files):
    """Write each file: bytes as they are, a document as JSON, a list of
    documents under a .jsonl name as JSON lines."""
    for name, doc in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        elif name.endswith(".jsonl"):
            path.write_text("".join(json.dumps(line) + "\n" for line in doc), "utf-8")
        else:
            path.write_text(json.dumps(doc), "utf-8")


LOADERS = {"multiwoz": load_multiwoz, "sgd": load_sgd, "smcalflow": load_smcalflow}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_located_corpus_error(self, tmp_path, case):
        dataset, files, rel, named = MALFORMED[case]
        write_layout(tmp_path, files)
        with pytest.raises(InputError) as exc:
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
        states = [t.state for t in load_sgd(tmp_path).dialogs[0].user_turns()]
        assert [s.get(("Restaurants_1", "city")) for s in states] == [
            ("a", "b"), ("a", "b"), None, ("b", "a")]
        assert [s.get(("Hotels_1", "city")) for s in states] == [("a", "b")] * 4

    def test_mwz_non_string_values_are_coerced(self, tmp_path):
        write_layout(tmp_path, {"d.json": _mwz_agent_meta(
            {"hotel": {"semi": {"stars": 4, "area": ["north", "west"], "name": [],
                                "type": " Not Mentioned ", "parking": "NONE"}}})})
        state = load_multiwoz(tmp_path / "d.json").dialogs[0].turns[0].state
        assert state == {("hotel", "stars"): ("4",), ("hotel", "area"): ("north",)}


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
    {"dialogue_id": st.sampled_from(["S1", "S2"]),
     "turns": st.lists(_sgd_pair, min_size=1, max_size=3).map(_flatten)},
    optional={"services": st.lists(_sgd_services, max_size=2)}),
    min_size=1, max_size=2, unique_by=lambda d: d["dialogue_id"])

_smc_utterance = st.one_of(st.none(), _value, st.fixed_dictionaries({"original_text": _value}))
_smc_turn = st.fixed_dictionaries(
    {"user_utterance": _smc_utterance, "lispress": st.sampled_from(["(x)", "(a (refer b))"])},
    optional={"agent_utterance": _smc_utterance, "refer_are_incorrect": st.booleans(),
              "program_execution_oracle": st.fixed_dictionaries(
                  {}, optional={"refer_are_incorrect": st.booleans()})})
_smc_lines = st.lists(st.fixed_dictionaries(
    {"dialogue_id": st.sampled_from(["C1", "C2"]),
     "turns": st.lists(_smc_turn, min_size=1, max_size=3)}),
    min_size=1, max_size=2, unique_by=lambda d: d["dialogue_id"])


def _scalar_texts(doc):
    """Each JSON string, number or boolean value in `doc`, as the MultiWOZ
    loader reads it: str() of it, split at '|', each part stripped."""
    if isinstance(doc, (dict, list)):
        for value in doc.values() if isinstance(doc, dict) else doc:
            yield from _scalar_texts(value)
    elif doc is not None:
        yield from (part.strip() for part in str(doc).split("|"))


def _check_every_value_replaced(dataset, files, rel, junk, min_depth=1):
    """Load `files` as they are, then once with each value at `min_depth` or
    deeper (a whole file at depth 1) replaced by a junk value: each load
    returns a Corpus or raises an InputError. In a returned Corpus, turn
    indexes are positions, speakers alternate starting with the user, every
    user turn has a state (MultiWOZ, SGD) or a program whose tree is its
    parse (SMCalFlow), and every state's alternates are non-empty and hold
    no duplicates; a MultiWOZ alternate is text from a JSON string, number
    or boolean of the document, never the repr of an object or a list."""
    paths = [p for p in _paths(files) if len(p) >= min_depth]
    variants = [files] + [_replaced(files, p, junk[k % len(junk)]) for k, p in enumerate(paths)]
    with tempfile.TemporaryDirectory() as tmp:
        for variant in variants:
            write_layout(Path(tmp), variant)
            try:
                result = LOADERS[dataset](Path(tmp) / rel, "test")
            except InputError:
                continue
            assert isinstance(result, Corpus)
            scalars = set(_scalar_texts(variant)) if dataset == "multiwoz" else None
            for dialog in result.dialogs:
                assert [t.index for t in dialog.turns] == list(range(len(dialog.turns)))
                assert [t.speaker for t in dialog.turns] == [
                    (Speaker.USER, Speaker.AGENT)[i % 2] for i in range(len(dialog.turns))]
                for turn in dialog.user_turns():
                    if dataset == "smcalflow":
                        assert turn.tree == lispress.parse(turn.program)
                        continue
                    assert turn.state is not None
                    for vals in turn.state.values():
                        assert vals and len(set(vals)) == len(vals)
                        assert scalars is None or scalars.issuperset(vals)


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


# ---------------------------------------------------------------------------
# reference MultiWOZ state parser: the per-turn version that parses every
# frame, frozen here so the loader's frame memo is checked state for state
# ---------------------------------------------------------------------------

def reference_multiwoz_state(metadata):
    entries = {}
    for domain, frame in metadata.items():
        for section, prefix in (("semi", ""), ("book", "book ")):
            for slot, value in frame.get(section, {}).items():
                if slot == "booked":
                    continue
                if isinstance(value, list):
                    value = value[0] if value else ""
                if not isinstance(value, str):
                    value = str(value)
                if value.strip().lower() in {"", "none", "not mentioned"}:
                    continue
                vals = [v.strip() for v in value.split("|") if v.strip()]
                if vals:
                    key = (domain.lower(), canonical_slot(prefix + slot))
                    entries.setdefault(key, []).extend(vals)
    return {key: tuple(dict.fromkeys(vals)) for key, vals in entries.items()}


# values that compare equal but load differently (1, True, 1.0, "1"), and
# values that load to nothing or to repeated alternates
_memo_value = st.sampled_from([1, True, 1.0, "1", "none", " Not Mentioned ", "a|b|a", "b"])
_memo_section = st.dictionaries(
    st.sampled_from(["stars", "area", "booked"]),
    st.one_of(_memo_value, st.lists(_memo_value, max_size=2)), max_size=3)
_memo_frame = st.fixed_dictionaries({}, optional={"semi": _memo_section, "book": _memo_section})


@st.composite
def _reordered(draw, frame):
    """`frame` with the slots of each section in a drawn order."""
    return {section: {slot: slots[slot] for slot in draw(st.permutations(list(slots)))}
            for section, slots in frame.items()}


_frame_pool = st.lists(_memo_frame, min_size=1, max_size=3)


@st.composite
def _repeating_frames_dialog(draw, pool=None):
    """A dialog whose agent turns draw each domain's frame from a small pool
    (drawn unless given), or a copy of one that lists its slots in another
    order, so that consecutive frames are often equal, and often equal only
    by ==."""
    pool = draw(_frame_pool) if pool is None else pool
    frame = st.sampled_from(pool).flatmap(lambda f: st.just(f) | _reordered(f))
    metadata = st.dictionaries(st.sampled_from(["Hotel", "hotel", "train"]), frame,
                               min_size=1, max_size=3)
    metas = draw(st.lists(metadata, min_size=1, max_size=6))
    log = []
    for meta in metas:
        log += [{"text": "hi", "metadata": {}}, {"text": "ok", "metadata": meta}]
    return {"log": log}


@st.composite
def _dialogs_sharing_frames(draw):
    """One to three dialogs drawing their frames from one pool: the frame
    memo spans a load, so a dialog's first frames are often equal to the
    last frames of the dialog before it."""
    pool = draw(_frame_pool)
    return draw(st.lists(_repeating_frames_dialog(pool), min_size=1, max_size=3))


def _user_states(logs):
    """The user-turn states of each log's dialog, all loaded from one file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.json"
        path.write_text(json.dumps({f"D{k}": {"log": log} for k, log in enumerate(logs)}),
                        "utf-8")
        return [[t.state for t in d.user_turns()] for d in load_multiwoz(path).dialogs]


def _one_frame_log(frame):
    return [{"text": "hi", "metadata": {}}, {"text": "ok", "metadata": {"hotel": frame}}]


class TestMultiwozFrameMemo:
    @settings(max_examples=200, deadline=None)
    @given(_dialogs_sharing_frames())
    def test_states_as_reference(self, dialogs):
        data = {f"D{k}": dialog for k, dialog in enumerate(dialogs)}
        with tempfile.TemporaryDirectory() as tmp:
            write_layout(Path(tmp), {"d.json": data})
            corpus = load_multiwoz(Path(tmp) / "d.json")
        for dialog in corpus.dialogs:
            raw = data[dialog.dialog_id]["log"]
            for turn in dialog.user_turns():
                # key order and alternate order included
                expected = reference_multiwoz_state(raw[turn.index + 1]["metadata"])
                assert list(turn.state.items()) == list(expected.items())

    def test_equal_frames_in_another_slot_order_load_in_their_order(self, tmp_path):
        log = []
        for semi in ({"area": "north", "name": "x"}, {"name": "x", "area": "north"}):
            log += [{"text": "hi", "metadata": {}},
                    {"text": "ok", "metadata": {"hotel": {"semi": semi}}}]
        write_layout(tmp_path, {"d.json": {"D1": {"log": log}}})
        states = [t.state for t in load_multiwoz(tmp_path / "d.json").dialogs[0].user_turns()]
        assert [list(s) for s in states] == [[("hotel", "area"), ("hotel", "name")],
                                             [("hotel", "name"), ("hotel", "area")]]

    def test_equal_frames_of_other_types_load_apart(self, tmp_path):
        log = []
        for stars in (1, True, 1.0, "1"):
            log += [{"text": "hi", "metadata": {}},
                    {"text": "ok", "metadata": {"hotel": {"semi": {"stars": stars}}}}]
        write_layout(tmp_path, {"d.json": {"D1": {"log": log}}})
        states = [t.state for t in load_multiwoz(tmp_path / "d.json").dialogs[0].user_turns()]
        assert [s[("hotel", "stars")] for s in states] == [("1",), ("True",), ("1.0",), ("1",)]

    def test_the_previous_dialogs_frame_in_another_slot_order_loads_in_its_order(self):
        states = _user_states([_one_frame_log({"semi": {"area": "north", "name": "x"}}),
                               _one_frame_log({"semi": {"name": "x", "area": "north"}})])
        assert [list(s[0]) for s in states] == [[("hotel", "area"), ("hotel", "name")],
                                                [("hotel", "name"), ("hotel", "area")]]

    def test_the_previous_dialogs_frame_of_other_types_loads_apart(self):
        states = _user_states([_one_frame_log({"semi": {"stars": stars}})
                               for stars in (1, True, 1.0, "1", 1)])
        assert [s[0][("hotel", "stars")] for s in states] == [
            ("1",), ("True",), ("1.0",), ("1",), ("1",)]


# ---------------------------------------------------------------------------
# reference MultiWOZ loader: the per-entry loop that read each agent entry
# twice, as its user turn's look-ahead and as itself, frozen here so the
# exchange walk is checked turn for turn and error for error
# ---------------------------------------------------------------------------

def reference_load_multiwoz(data, path):
    def entry_of(entry, turn):
        _check(entry, dict, "log entry", path, dialog_id, turn)
        return (_check(entry.get("text", ""), str, "text", path, dialog_id, turn),
                _check(entry.get("metadata", {}), dict, "metadata", path, dialog_id, turn))

    dialogs = []
    for dialog_id in data:
        log = _check(data[dialog_id], dict, "dialog", path, dialog_id).get("log")
        if not isinstance(log, list) or not log:
            raise InputError(f"{_where(path, dialog_id)}: missing or empty turn log")
        turns = []
        memo = {}
        for i, entry in enumerate(log):
            utterance, metadata = entry_of(entry, i)
            is_user = i % 2 == 0
            if is_user and metadata:
                raise InputError(f"{_where(path, dialog_id, i)}: "
                                 "non-alternating speakers (state on a user turn)")
            if not is_user and not metadata:
                raise InputError(f"{_where(path, dialog_id, i)}: "
                                 "non-alternating speakers (no state on an agent turn)")
            if is_user:
                if i + 1 >= len(log):
                    raise InputError(
                        f"{_where(path, dialog_id, i)}: user turn has no system annotation")
                _, agent_metadata = entry_of(log[i + 1], i + 1)
                state = _parse_multiwoz_state(agent_metadata, path, dialog_id, i + 1, memo, {})
                turns.append(Turn(i, Speaker.USER, utterance, state=state))
            else:
                turns.append(Turn(i, Speaker.AGENT, utterance))
        dialogs.append(Dialog(dialog_id, tuple(turns)))
    return dialogs


_BAD_ENTRIES = [None, 3, "entry", ["x"]]
_BAD_TEXTS = [None, 3, ["x"], {"a": "b"}]
_BAD_METADATA = [None, 3, "meta", ["x"]]
_LAST_ENTRIES = [{"text": "hi"}, {"text": "hi", "metadata": {"hotel": {}}},
                 {"text": 3, "metadata": {"x": 3}}, {"text": "hi", "metadata": 3}, None]
_BAD_FRAMES = [[], "x", 3, {"semi": []}, {"book": "x"}, {"semi": {"area": "x"}, "book": 3}]


@st.composite
def _broken_log(draw):
    """A well-formed log with zero to three drawn faults (metadata on a user
    entry, empty agent metadata, a non-dict entry or metadata, a non-string
    text, or a frame that does not parse), and maybe an odd length."""
    log = list(draw(_repeating_frames_dialog())["log"])
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["user-metadata", "agent-metadata-empty",
                                      "entry", "text", "metadata", "frame"]))
        i = draw(st.integers(0, len(log) - 1))
        if fault == "user-metadata":
            i -= i % 2
        elif fault in ("agent-metadata-empty", "frame"):
            i |= 1
        entry = log[i] if isinstance(log[i], dict) else {}
        if fault == "user-metadata":
            log[i] = {**entry, "metadata": draw(st.sampled_from([{"hotel": {}}, {"x": 3}]))}
        elif fault == "agent-metadata-empty":
            log[i] = draw(st.sampled_from([{**entry, "metadata": {}}, {"text": "ok"}]))
        elif fault == "entry":
            log[i] = draw(st.sampled_from(_BAD_ENTRIES))
        elif fault == "text":
            log[i] = {**entry, "text": draw(st.sampled_from(_BAD_TEXTS))}
        elif fault == "metadata":
            log[i] = {**entry, "metadata": draw(st.sampled_from(_BAD_METADATA))}
        else:
            metadata = entry.get("metadata")
            metadata = dict(metadata) if isinstance(metadata, dict) else {}
            metadata[draw(st.sampled_from(["hotel", "train"]))] = draw(st.sampled_from(_BAD_FRAMES))
            log[i] = {**entry, "metadata": metadata}
    if draw(st.booleans()):  # an odd length, ending in a user entry that may be faulty too
        log.append(draw(st.sampled_from(_LAST_ENTRIES)))
    return {"log": log}


def _mwz_outcome(dialogs):
    """Each dialog's turns as plain values, or the type and message of the
    error that stopped the load."""
    if isinstance(dialogs, Exception):
        return type(dialogs), str(dialogs)
    return [(d.dialog_id, [(t.index, t.speaker, t.utterance,
                            None if t.state is None else list(t.state.items()))
                           for t in d.turns]) for d in dialogs]


class TestMultiwozWalk:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_broken_log(), min_size=1, max_size=2))
    # a lone user entry that carries a state: its state is reported, not
    # the missing system turn
    @example([{"log": [{"text": "hi", "metadata": {"taxi": {}}}]}])
    def test_turns_and_errors_as_reference(self, logs):
        data = {f"D{k}": log for k, log in enumerate(logs)}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.json"
            write_layout(Path(tmp), {"d.json": data})
            try:
                new = load_multiwoz(path).dialogs
            except InputError as exc:
                new = exc
            try:
                ref = reference_load_multiwoz(data, path)
            except InputError as exc:
                ref = exc
        # key order and alternate order included
        assert _mwz_outcome(new) == _mwz_outcome(ref)


# ---------------------------------------------------------------------------
# reference whole-document MultiWOZ loader: json.loads of the whole file, then
# every dialog, frozen here so the loader's member-by-member decoding is
# checked result for result and JSON error for JSON error
# ---------------------------------------------------------------------------

def reference_load_document(path):
    text = path.read_text("utf-8")
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}")
    if not isinstance(data, dict) or not data:
        raise InputError(f"no dialogs found in {path}")
    return reference_load_multiwoz(data, path)


_space = st.text(" \t\n\r", max_size=3)
_mwz_document = st.dictionaries(
    st.sampled_from(["D1", "D2", "Dé", 'D"3', "D\\4"]),
    st.fixed_dictionaries({"log": st.lists(_mwz_pair, min_size=1, max_size=3).map(_flatten)}),
    max_size=3)


@st.composite
def _mwz_text(draw):
    """A MultiWOZ document serialized with drawn whitespace, escapes and
    indentation, then maybe mutated: truncated at any offset, trailing
    junk, a leading UTF-8 BOM, a comma before a closing bracket, a member
    name that is not a string, or a top level that is not an object."""
    text = draw(_space) + json.dumps(
        draw(_mwz_document), ensure_ascii=draw(st.booleans()),
        indent=draw(st.sampled_from([None, 0, 2, "\t", "\r\n "])),
        separators=(draw(_space) + "," + draw(_space), draw(_space) + ":" + draw(_space)),
    ) + draw(_space)
    mutation = draw(st.sampled_from(
        [None, "truncate", "junk", "bom", "comma", "name", "top-level"]))
    if mutation == "truncate":
        text = text[:draw(st.integers(0, len(text)))]
    elif mutation == "junk":
        text += draw(st.sampled_from(["x", "{}", "]", "}", ",", " 1", '"', "\x00"]))
    elif mutation == "bom":
        text = "\ufeff" + text
    elif mutation == "comma":
        closers = [i for i, c in enumerate(text) if c in "}]"]
        if closers:
            i = draw(st.sampled_from(closers))
            text = text[:i] + "," + text[i:]
    elif mutation == "name":
        name = draw(st.sampled_from(['"D1"', '"log"', '"text"', '"hotel"']))
        text = text.replace(name, draw(st.sampled_from(["1", "D1", "null", "[]"])), 1)
    elif mutation == "top-level":
        text = draw(st.sampled_from(["[%s]", "%s", "3", '"x"', "null", "[]", " "])).replace(
            "%s", text if text.strip() else "{}")
    return text


class TestMultiwozMemberDecoding:
    @settings(max_examples=300, deadline=None)
    @given(_mwz_text())
    def test_as_whole_document_reference(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.json"
            path.write_bytes(text.encode("utf-8"))
            try:
                new = load_multiwoz(path).dialogs
            except InputError as exc:
                new = exc
            try:
                ref = reference_load_document(path)
            except InputError as exc:
                ref = exc
        # a malformed file: "malformed JSON in <path>: " and json.loads's
        # message, as the running Python words it
        assert _mwz_outcome(new) == _mwz_outcome(ref)


# ---------------------------------------------------------------------------
# reference SGD dialog loader: the version that rebuilt the cumulative state
# from every frame, frozen here so the loader's frame reuse is checked state
# for state and error for error
# ---------------------------------------------------------------------------

def reference_sgd_dialog(raw, path, schemas, memo):
    _check(raw, dict, "dialog", path)
    dialog_id = _check(raw.get("dialogue_id", "?"), str, "dialogue_id", path)
    services = tuple(_check(raw.get("services", []), list, "services", path, dialog_id))
    for svc in services:
        if not isinstance(svc, str) or svc not in schemas:
            raise InputError(
                f"{_where(path, dialog_id)}: references service {svc!r} not in schema")
    turns = []
    cumulative = {}
    for i, t in enumerate(_check(raw.get("turns", []), list, "turns", path, dialog_id)):
        _check(t, dict, "turn", path, dialog_id, i)
        speaker = _check(t.get("speaker", ""), str, "speaker", path, dialog_id, i).upper()
        utterance = _check(t.get("utterance", ""), str, "utterance", path, dialog_id, i)
        if speaker != ("USER" if i % 2 == 0 else "SYSTEM"):
            raise InputError(f"{_where(path, dialog_id, i)}: non-alternating speakers")
        if speaker == "SYSTEM":
            turns.append(Turn(i, Speaker.AGENT, utterance))
            continue
        for frame in _check(t.get("frames", []), list, "frames", path, dialog_id, i):
            _check(frame, dict, "frame", path, dialog_id, i)
            svc = frame.get("service", "")
            if not isinstance(svc, str) or svc not in schemas:
                raise InputError(f"{_where(path, dialog_id, i)}: "
                                 f"frame references service {svc!r} not in schema")
            state = _check(frame.get("state", {}), dict, "frame state", path, dialog_id, i)
            slot_values = _check(state.get("slot_values", {}), dict, "slot_values",
                                 path, dialog_id, i)
            cumulative = {k: v for k, v in cumulative.items() if k[0] != svc}
            for slot, values in slot_values.items():
                if not isinstance(values, list):
                    raise _type_error(f"values of slot {slot!r}", list, values,
                                      path, dialog_id, i)
                try:
                    key, vals = memo[(svc, slot, tuple(values))]
                except (KeyError, TypeError):
                    for v in values:
                        if not isinstance(v, str):
                            raise _type_error(f"value of slot {slot!r}", str, v,
                                              path, dialog_id, i)
                    key = (svc, canonical_slot(slot))
                    vals = tuple(dict.fromkeys(
                        v for v in values if v.strip().lower() not in {"", "none", "not mentioned"}))
                    memo[(svc, slot, tuple(values))] = (key, vals)
                if vals:
                    cumulative[key] = vals
        turns.append(Turn(i, Speaker.USER, utterance, state=cumulative))
    if not turns:
        raise InputError(f"{_where(path, dialog_id)}: empty dialog")
    return Dialog(dialog_id, tuple(turns), services=services)


_SGD_MEMO_SCHEMAS = {"Restaurants_1": "", "Hotels_1": ""}
# "City" and "ci_ty" canonicalize to "city"
_sgd_memo_values = st.lists(
    st.sampled_from(["a", "b", "none", "", " Not Mentioned "]), max_size=3)
_SGD_MEMO_JUNK = [3, "abc", None, {"a": ["b"]}, [3], [["a"]], ["a", None]]
_sgd_memo_junk = st.sampled_from(_SGD_MEMO_JUNK)


@st.composite
def _sgd_memo_slot_values(draw):
    """A slot_values object; about one slot value in twenty is not a list of strings."""
    return {slot: draw(_sgd_memo_junk if draw(st.integers(0, 19)) == 0 else _sgd_memo_values)
            for slot in draw(st.lists(st.sampled_from(["city", "City", "ci_ty", "date"]),
                                      unique=True, max_size=4))}


@st.composite
def _repeating_sgd_dialog(draw):
    """A dialog whose frames draw their slot_values from a small pool: the
    same object, an equal copy, or a copy listing its slots in another
    order. A turn holds zero to three frames, so a service can appear twice
    in one turn and the services change order. One dialog in five has a
    turn, frame, or a field the loader checks replaced by a junk value."""
    pool = draw(st.lists(_sgd_memo_slot_values(), min_size=1, max_size=3))
    turns = []
    for _ in range(draw(st.integers(1, 6))):
        frames = []
        for _ in range(draw(st.integers(0, 3))):
            slot_values = draw(st.sampled_from(pool))
            copy = draw(st.sampled_from(["same", "equal", "reordered"]))
            if copy == "equal":
                slot_values = json.loads(json.dumps(slot_values))
            elif copy == "reordered":
                slot_values = {slot: slot_values[slot]
                               for slot in draw(st.permutations(list(slot_values)))}
            frames.append({"service": draw(st.sampled_from(sorted(_SGD_MEMO_SCHEMAS))),
                           "state": {"slot_values": slot_values}})
        turns += [sgd_turn("USER", "u", frames), sgd_turn("SYSTEM", "s")]
    dialog = {"dialogue_id": "S1", "services": [], "turns": turns}
    checked = [path for path in _paths(dialog)
               if path[-1:] in [("speaker",), ("utterance",), ("frames",), ("service",),
                                ("state",), ("slot_values",)]
               or len(path) in (2, 4) and path[0] == "turns"]
    if draw(st.integers(0, 4)) == 0:
        dialog = _replaced(dialog, draw(st.sampled_from(checked)), draw(_sgd_memo_junk))
    return dialog


def _sgd_outcome(load, dialogs):
    """Each dialog's per-user-turn slot items, read once every dialog is
    loaded; or the type and message of the error that stopped the load."""
    memo = {}
    try:
        loaded = [load(raw, Path("d.json"), _SGD_MEMO_SCHEMAS, memo) for raw in dialogs]
    except InputError as exc:
        return type(exc), str(exc)
    return [[list(t.state.items()) for t in dialog.user_turns()] for dialog in loaded]


class TestSgdFrameMemo:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_repeating_sgd_dialog(), min_size=1, max_size=2))
    def test_states_and_errors_as_reference(self, dialogs):
        # key order and alternate order included
        assert _sgd_outcome(_sgd_dialog, dialogs) == _sgd_outcome(reference_sgd_dialog, dialogs)

    def test_every_value_replaced_fails_as_reference(self, sgd_raw):
        for path in list(_paths(sgd_raw))[1:]:
            for junk in _SGD_MEMO_JUNK:
                dialogs = _replaced(sgd_raw, path, junk)
                assert (_sgd_outcome(_sgd_dialog, dialogs)
                        == _sgd_outcome(reference_sgd_dialog, dialogs)), (path, junk)

    def test_reordered_frame_loads_in_its_order(self):
        frames = [{"city": ["a"], "date": ["b"]}, {"date": ["b"], "city": ["a"]}]
        raw = {"dialogue_id": "S1", "turns": [
            turn for sv in frames
            for turn in (sgd_turn("USER", "u", [sgd_user_frame("Hotels_1", sv)]),
                         sgd_turn("SYSTEM", "s"))]}
        dialog = _sgd_dialog(raw, Path("d.json"), _SGD_MEMO_SCHEMAS, {})
        assert [[slot for _, slot in t.state] for t in dialog.user_turns()] == [
            ["city", "date"], ["date", "city"]]

    def test_unchanged_turn_shares_the_state(self):
        frame = sgd_user_frame("Hotels_1", {"city": ["a"]})
        raw = {"dialogue_id": "S1", "turns": [
            sgd_turn("USER", "u", [frame]), sgd_turn("SYSTEM", "s"),
            sgd_turn("USER", "u", [json.loads(json.dumps(frame))])]}
        first, second = _sgd_dialog(raw, Path("d.json"), _SGD_MEMO_SCHEMAS, {}).user_turns()
        assert second.state is first.state


# ---------------------------------------------------------------------------
# reference whole-file SGD loader: json.loads of a dialogues file, then each
# of its dialogs, frozen here so the loader's element-by-element decoding is
# checked result for result and error for error
# ---------------------------------------------------------------------------

def reference_load_sgd_file(path):
    """The dialogs of a split whose one dialogues file is `path`."""
    text = path.read_text("utf-8")
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}")
    memo, dialogs = {}, {}
    for raw in _check(data, list, "dialogues file", path):
        dialog = _sgd_dialog(raw, path, _SGD_MEMO_SCHEMAS, memo)
        if dialog.dialog_id in dialogs:
            raise InputError(f"{_where(path, dialog.dialog_id)}: duplicate dialog id")
        dialogs[dialog.dialog_id] = dialog
    if not dialogs:
        raise InputError(f"no dialogs found under {path.parent}")
    return tuple(dialogs.values())


# two dialogs that pass every check
_SGD_S1 = '{"dialogue_id": "S1", "turns": [{"speaker": "USER", "utterance": "u"}]}'
_SGD_S2 = _SGD_S1.replace("S1", "S2")

# elements that fail the loader's checks: not a dialog, a dialogue_id that
# is not a string, turns that are not a list, no turns
_SGD_BAD_DIALOGS = [3, None, "S9", [], {"dialogue_id": 3}, {"dialogue_id": "F", "turns": 3},
                    {"dialogue_id": "F"}]


@st.composite
def _sgd_text(draw):
    """An SGD dialogues file: a list of dialogs, serialized with drawn
    whitespace, escapes and indentation, then maybe mutated: truncated at
    any offset, trailing data, a missing ',' between two elements, a
    leading UTF-8 BOM, a top level that is not a list, or a dialog that
    fails a check ahead of a JSON syntax error further on."""
    # a valid file, and a missing ',', drawn twice as often as the others
    mutation = draw(st.sampled_from(
        [None, None, "truncate", "junk", "comma", "comma", "bom", "top-level", "fault-first"]))
    dialogs = [dict(d, dialogue_id=f"S{k}") for k, d in enumerate(draw(st.lists(
        _repeating_sgd_dialog(), min_size=2 if mutation == "comma" else 0, max_size=3)))]
    if mutation == "fault-first":
        dialogs.insert(0, draw(st.sampled_from(_SGD_BAD_DIALOGS)))
    ensure_ascii = draw(st.booleans())
    indent = draw(st.sampled_from([None, 0, 2, "\t"]))
    elements = [json.dumps(d, ensure_ascii=ensure_ascii, indent=indent) for d in dialogs]
    separators = [draw(_space) + "," + draw(_space) for _ in elements[1:]]
    if mutation == "comma" and separators:
        i = draw(st.integers(0, len(separators) - 1))
        separators[i] = separators[i].replace(",", "")
    body = "".join(sep + element for sep, element in zip(["", *separators], elements))
    text = draw(_space) + "[" + draw(_space) + body + draw(_space) + "]" + draw(_space)
    if mutation == "truncate":
        text = text[:draw(st.integers(0, len(text)))]
    elif mutation == "junk":
        text += draw(st.sampled_from(["x", "[]", "]", "}", ",", " 1", '"', "\x00"]))
    elif mutation == "bom":
        text = "\ufeff" + text
    elif mutation == "top-level":
        # the list under a key, a dialog alone, {} or a scalar
        text = draw(st.sampled_from(['{"d": %s}' % text, *elements[:1], "{}", "3", '"x"',
                                     "null", " "]))
    elif mutation == "fault-first":
        # the syntax error after the faulty dialog: no closing bracket, or
        # trailing data
        text = draw(st.sampled_from([text.rstrip()[:-1], text + "]", text + "x"]))
    return text


class TestSgdElementDecoding:
    @settings(max_examples=300, deadline=None)
    @given(_sgd_text())
    def test_as_whole_file_reference(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            write_layout(Path(tmp), {"test/schema.json": SGD_SCHEMA})
            path = Path(tmp) / "test" / "dialogues_001.json"
            path.write_bytes(text.encode("utf-8"))
            try:
                new = load_sgd(tmp, "test").dialogs
            except InputError as exc:
                new = exc
            try:
                ref = reference_load_sgd_file(path)
            except InputError as exc:
                ref = exc
        if isinstance(ref, InputError):
            assert (type(new), str(new)) == (type(ref), str(ref))
        else:
            assert new == ref

    @pytest.mark.parametrize("text, message", [
        ("[]", "no dialogs found under {dir}"),
        ("{}", "{path}: dialogues file must be a JSON list, got dict"),
        (_SGD_S1, "{path}: dialogues file must be a JSON list, got dict"),
        (f"[{_SGD_S1}, {_SGD_S2}]", None),
        (f"[{_SGD_S1}] x", "malformed JSON in {path}: Extra data"),
        (f"[{_SGD_S1} {_SGD_S2}]", "malformed JSON in {path}: Expecting ',' delimiter"),
        # a dialog that fails a check, then the file ends inside the list
        (f"[3, {_SGD_S1}", "malformed JSON in {path}: Expecting ',' delimiter"),
    ])
    def test_fault_messages(self, tmp_path, text, message):
        write_layout(tmp_path, {"test/schema.json": SGD_SCHEMA,
                                "test/dialogues_001.json": text.encode("utf-8")})
        path = tmp_path / "test" / "dialogues_001.json"
        if message is None:
            assert [d.dialog_id for d in load_sgd(tmp_path, "test").dialogs] == ["S1", "S2"]
            return
        with pytest.raises(InputError) as exc:
            load_sgd(tmp_path, "test")
        assert str(exc.value).startswith(message.format(dir=path.parent, path=path))
