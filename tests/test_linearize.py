import json

import pytest

from dialoscope import linearize
from dialoscope.corpus import (DatasetKind, DialogState, StateUpdate,
                               load_multiwoz, load_sgd, load_smcalflow)
from dialoscope.linearize import (InputRepresentation, TargetParseError,
                                  emit_dataset, linearize_input,
                                  linearize_state, linearize_target,
                                  parse_target, records_for_dialog)


def update(added=(), dropped=(), dontcared=()):
    return StateUpdate(frozenset(added), frozenset(dropped),
                       frozenset(dontcared))


class TestTarget:
    def test_sorted_entries(self):
        upd = update({("train", "day", ("friday",)),
                      ("train", "arriveby", ("09:00",))})
        assert linearize_target(upd) == \
            "train:arriveby=09:00, train:day=friday"

    def test_empty_update(self):
        assert linearize_target(update()) == ""

    def test_dontcare_and_drop_encodings(self):
        upd = update(dropped={("hotel", "area")},
                     dontcared={("restaurant", "pricerange")})
        assert linearize_target(upd) == \
            "hotel:area=none, restaurant:pricerange=dontcare"

    def test_smcalflow_target_is_canonical(self):
        assert linearize_target("( Yield  :output ( Today ) )") == \
            "(Yield :output (Today))"

    def test_parse_round_trip(self):
        upd = update({("train", "day", ("friday",))},
                     dropped={("hotel", "area")},
                     dontcared={("restaurant", "food")})
        assert parse_target(linearize_target(upd)) == upd

    def test_parse_empty(self):
        assert parse_target("") == StateUpdate()
        assert parse_target("   ") == StateUpdate()

    def test_parse_malformed(self):
        with pytest.raises(TargetParseError):
            parse_target("train:day")
        with pytest.raises(TargetParseError):
            parse_target("noequals, also bad")

    def test_bad_type(self):
        with pytest.raises(TypeError):
            linearize_target(42)


class TestState:
    def test_sorted_first_alternate(self):
        st = DialogState.from_dict({("b", "y"): ("2", "two"),
                                    ("a", "x"): ("1",)})
        assert linearize_state(st) == "a:x=1, b:y=2"

    def test_empty(self):
        assert linearize_state(DialogState()) == ""


class TestInput:
    @pytest.fixture
    def dialog(self, mwz_path):
        return load_multiwoz(mwz_path).get_dialog("MUL0635.json")

    def test_user_only(self, dialog):
        text = linearize_input(dialog, 10, InputRepresentation.CURRENT_USER_TURN,
                               DatasetKind.MULTIWOZ)
        assert text == "[user] i need to arrive by 09:00 ."

    def test_exchange_adds_last_agent_turn(self, dialog):
        text = linearize_input(dialog, 10,
                               InputRepresentation.PLUS_LAST_AGENT_TURN,
                               DatasetKind.MULTIWOZ)
        assert text == ("[agent] where would you like to go , and when ? "
                        "[user] i need to arrive by 09:00 .")

    def test_prev_state_prefix(self, dialog):
        text = linearize_input(dialog, 10,
                               InputRepresentation.PLUS_PREVIOUS_DIALOG_STATE,
                               DatasetKind.MULTIWOZ)
        assert text.startswith("[states] attraction:type=museum, ")
        assert text.endswith("[user] i need to arrive by 09:00 .")
        assert "[agent]" in text

    def test_full_history(self, dialog):
        text = linearize_input(dialog, 10,
                               InputRepresentation.FULL_DIALOG_HISTORY,
                               DatasetKind.MULTIWOZ)
        assert text.count("[user]") == 6
        assert text.count("[agent]") == 5
        assert text.startswith("[user] i'd like to book a room")

    def test_suffix_chain(self, dialog):
        # each narrower representation is a suffix of the next wider one
        user = linearize_input(dialog, 10,
                               InputRepresentation.CURRENT_USER_TURN,
                               DatasetKind.MULTIWOZ)
        exchange = linearize_input(dialog, 10,
                                   InputRepresentation.PLUS_LAST_AGENT_TURN,
                                   DatasetKind.MULTIWOZ)
        full = linearize_input(dialog, 10,
                               InputRepresentation.FULL_DIALOG_HISTORY,
                               DatasetKind.MULTIWOZ)
        assert exchange.endswith(user)
        assert full.endswith(exchange)

    def test_first_turn_has_no_agent_context(self, dialog):
        text = linearize_input(dialog, 0,
                               InputRepresentation.PLUS_LAST_AGENT_TURN,
                               DatasetKind.MULTIWOZ)
        assert "[agent]" not in text

    def test_first_turn_prev_state_is_empty(self, dialog):
        text = linearize_input(dialog, 0,
                               InputRepresentation.PLUS_PREVIOUS_DIALOG_STATE,
                               DatasetKind.MULTIWOZ)
        assert text.startswith("[states] [user]")

    def test_agent_turn_rejected(self, dialog):
        with pytest.raises(ValueError):
            linearize_input(dialog, 1, InputRepresentation.CURRENT_USER_TURN,
                            DatasetKind.MULTIWOZ)

    def test_smcalflow_tags(self, smcalflow_path):
        dialog = load_smcalflow(smcalflow_path).get_dialog("calflow-0")
        text = linearize_input(dialog, 2,
                               InputRepresentation.PLUS_LAST_AGENT_TURN,
                               DatasetKind.SMCALFLOW)
        assert text.startswith("__Agent ")
        assert "__User " in text
        assert "[user]" not in text

    def test_sgd_schema_prefix(self, sgd_path):
        corpus = load_sgd(sgd_path, "test")
        dialog = corpus.get_dialog("1_00000")
        text = linearize_input(dialog, 0,
                               InputRepresentation.CURRENT_USER_TURN,
                               DatasetKind.SGD, schemas=corpus.schemas)
        assert text.startswith(
            "A service for finding and reserving restaurants [user]")

    def test_predicted_previous_state(self, dialog):
        predicted = {("MUL0635.json", 8): DialogState.from_dict(
            {("train", "day"): ("friday",)})}
        text = linearize_input(dialog, 10,
                               InputRepresentation.PLUS_PREVIOUS_DIALOG_STATE,
                               DatasetKind.MULTIWOZ,
                               previous_state_source="predicted",
                               predicted_states=predicted)
        assert "[states] train:day=friday" in text

    def test_predicted_source_requires_states(self, dialog):
        with pytest.raises(ValueError):
            linearize_input(dialog, 10,
                            InputRepresentation.PLUS_PREVIOUS_DIALOG_STATE,
                            DatasetKind.MULTIWOZ,
                            previous_state_source="predicted")


class TestRecords:
    def test_one_record_per_user_turn(self, mwz_path):
        dialog = load_multiwoz(mwz_path).get_dialog("MUL0635.json")
        records = records_for_dialog(
            dialog, InputRepresentation.CURRENT_USER_TURN, DatasetKind.MULTIWOZ)
        assert [r.turn_index for r in records] == [0, 2, 4, 6, 8, 10]

    def test_targets_replay_to_gold_state(self, mwz_path):
        from dialoscope.corpus import EMPTY_STATE, apply_update
        dialog = load_multiwoz(mwz_path).get_dialog("SNG0073.json")
        records = records_for_dialog(
            dialog, InputRepresentation.CURRENT_USER_TURN, DatasetKind.MULTIWOZ)
        running = EMPTY_STATE
        for rec in records:
            running = apply_update(running, parse_target(rec.target))
            assert running == dialog.turns[rec.turn_index].state

    def test_smcalflow_targets_are_programs(self, smcalflow_path):
        corpus = load_smcalflow(smcalflow_path)
        records = records_for_dialog(corpus.get_dialog("calflow-0"),
                                     InputRepresentation.CURRENT_USER_TURN,
                                     DatasetKind.SMCALFLOW)
        assert all(r.target.startswith("(") for r in records)


class TestEmitDataset:
    def test_emit_counts_and_shape(self, mwz_path, tmp_path):
        corpus = load_multiwoz(mwz_path)
        out = tmp_path / "out.jsonl"
        n = emit_dataset(corpus, InputRepresentation.PLUS_LAST_AGENT_TURN, out)
        lines = out.read_text("utf-8").splitlines()
        assert n == len(lines) == corpus.user_turn_count() == 9
        rec = json.loads(lines[0])
        assert set(rec) == {"dialogue_id", "turn_index", "input", "target"}

    def test_byte_identical_across_worker_counts(self, planted, tmp_path):
        corpus, _ = planted
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        emit_dataset(corpus, InputRepresentation.FULL_DIALOG_HISTORY, a,
                     workers=1)
        emit_dataset(corpus, InputRepresentation.FULL_DIALOG_HISTORY, b,
                     workers=8)
        assert a.read_bytes() == b.read_bytes()

    def test_pool_is_clamped_to_cpu_count(self, planted, tmp_path, monkeypatch):
        # a stand-in executor records the pool size and runs in-process, so
        # no large pool is ever started
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(linearize, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(linearize.os, "cpu_count", lambda: 3)
        corpus, _ = planted
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        emit_dataset(corpus, InputRepresentation.FULL_DIALOG_HISTORY, a, workers=64)
        assert sizes == [3]
        monkeypatch.setattr(linearize.os, "cpu_count", lambda: 1)
        emit_dataset(corpus, InputRepresentation.FULL_DIALOG_HISTORY, b, workers=64)
        assert sizes == [3]  # one CPU runs serially, without a pool
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path(self, mwz_path, tmp_path):
        corpus = load_multiwoz(mwz_path)
        with pytest.raises(OSError):
            emit_dataset(corpus, InputRepresentation.CURRENT_USER_TURN,
                         tmp_path / "missing-dir" / "out.jsonl")
