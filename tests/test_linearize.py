import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dialoscope import linearize, lispress
from dialoscope.corpus import (EMPTY_STATE, Corpus, DatasetKind, Dialog,
                               Speaker, StateUpdate, Turn, load_multiwoz, load_sgd,
                               load_smcalflow, state_update)
from dialoscope.linearize import (InputRepresentation, Seq2SeqRecord, TargetParseError,
                                  emit_dataset, linearize_state, linearize_target,
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
        assert linearize_target(lispress.parse("( Yield  :output ( Today ) )")) == \
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
        for twice in ("hotel:area=north, hotel:area=south",
                      "hotel:area=north, hotel:area=none",
                      "hotel:area=dontcare, hotel:area=north"):
            with pytest.raises(TargetParseError):
                parse_target(twice)

    def test_bad_type(self):
        # program text too: a program is parsed once, by the loader
        for update in (42, "(Yield :output (Today))"):
            with pytest.raises(TypeError):
                linearize_target(update)


class TestState:
    def test_sorted_first_alternate(self):
        st = {("b", "y"): ("2", "two"), ("a", "x"): ("1",)}
        assert linearize_state(st) == "a:x=1, b:y=2"

    def test_empty(self):
        assert linearize_state({}) == ""


def input_at(dialog, turn_index, repr, kind, predicted_states=None, schemas=None):
    """The input of the record `records_for_dialog` writes for one user turn."""
    [text] = [rec.input for rec in records_for_dialog(dialog, repr, kind, predicted_states,
                                                      schemas)
              if rec.turn_index == turn_index]
    return text


class TestInput:
    @pytest.fixture
    def dialog(self, mwz_path):
        return load_multiwoz(mwz_path).get_dialog("MUL0635.json")

    def test_user_only(self, dialog):
        text = input_at(dialog, 10, InputRepresentation.CURRENT_USER_TURN,
                        DatasetKind.MULTIWOZ)
        assert text == "[user] i need to arrive by 09:00 ."

    def test_exchange_adds_last_agent_turn(self, dialog):
        text = input_at(dialog, 10, InputRepresentation.PLUS_LAST_AGENT_TURN,
                        DatasetKind.MULTIWOZ)
        assert text == ("[agent] where would you like to go , and when ? "
                        "[user] i need to arrive by 09:00 .")

    def test_prev_state_prefix(self, dialog):
        text = input_at(dialog, 10, InputRepresentation.PLUS_PREVIOUS_DIALOG_STATE,
                        DatasetKind.MULTIWOZ)
        assert text.startswith("[states] attraction:type=museum, ")
        assert text.endswith("[user] i need to arrive by 09:00 .")
        assert "[agent]" in text

    def test_full_history(self, dialog):
        text = input_at(dialog, 10, InputRepresentation.FULL_DIALOG_HISTORY,
                        DatasetKind.MULTIWOZ)
        assert text.count("[user]") == 6
        assert text.count("[agent]") == 5
        assert text.startswith("[user] i'd like to book a room")

    def test_suffix_chain(self, dialog):
        # each narrower representation is a suffix of the next wider one
        user, exchange, full = (
            input_at(dialog, 10, repr, DatasetKind.MULTIWOZ)
            for repr in (InputRepresentation.CURRENT_USER_TURN,
                         InputRepresentation.PLUS_LAST_AGENT_TURN,
                         InputRepresentation.FULL_DIALOG_HISTORY))
        assert exchange.endswith(user)
        assert full.endswith(exchange)

    def test_first_turn_has_no_agent_context(self, dialog):
        text = input_at(dialog, 0, InputRepresentation.PLUS_LAST_AGENT_TURN,
                        DatasetKind.MULTIWOZ)
        assert "[agent]" not in text

    def test_first_turn_prev_state_is_empty(self, dialog):
        text = input_at(dialog, 0, InputRepresentation.PLUS_PREVIOUS_DIALOG_STATE,
                        DatasetKind.MULTIWOZ)
        assert text.startswith("[states] [user]")

    def test_smcalflow_tags(self, smcalflow_path):
        dialog = load_smcalflow(smcalflow_path).get_dialog("calflow-0")
        text = input_at(dialog, 2, InputRepresentation.PLUS_LAST_AGENT_TURN,
                        DatasetKind.SMCALFLOW)
        assert text.startswith("__Agent ")
        assert "__User " in text
        assert "[user]" not in text

    def test_sgd_schema_prefix(self, sgd_path):
        corpus = load_sgd(sgd_path, "test")
        dialog = corpus.get_dialog("1_00000")
        text = input_at(dialog, 0, InputRepresentation.CURRENT_USER_TURN,
                        DatasetKind.SGD, schemas=corpus.schemas)
        assert text.startswith(
            "A service for finding and reserving restaurants [user]")

    def test_predicted_previous_state(self, dialog):
        # the state predicted at the preceding user turn
        predicted = {(dialog.dialog_id, 8): {("train", "day"): ("friday",)}}
        text = input_at(dialog, 10, InputRepresentation.PLUS_PREVIOUS_DIALOG_STATE,
                        DatasetKind.MULTIWOZ, predicted_states=predicted)
        assert text.startswith("[states] train:day=friday [agent]")


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


_REF_TAGS = {DatasetKind.SMCALFLOW: {Speaker.USER: "__User", Speaker.AGENT: "__Agent"}}
_REF_FRAME_TAGS = {Speaker.USER: "[user]", Speaker.AGENT: "[agent]"}


def reference_input(dialog, turn_index, repr, kind, schemas, previous_state):
    """One record's input built on its own: every turn it shows is looked
    up by index and tagged here."""
    tags = _REF_TAGS.get(kind, _REF_FRAME_TAGS)

    def tagged(turn):
        return f"{tags[turn.speaker]} {turn.utterance}".rstrip()
    turns = dialog.turns
    if repr is InputRepresentation.FULL_DIALOG_HISTORY:
        parts = [tagged(t) for t in turns[:turn_index + 1]]
    else:
        parts = []
        if repr is InputRepresentation.PLUS_PREVIOUS_DIALOG_STATE:
            parts.append(f"[states] {linearize_state(previous_state)}".rstrip())
        if repr is not InputRepresentation.CURRENT_USER_TURN and turn_index > 0:
            parts.append(tagged(turns[turn_index - 1]))
        parts.append(tagged(turns[turn_index]))
    text = " ".join(parts)
    if kind is DatasetKind.SGD and schemas is not None:
        prefix = " ".join(schemas.get(svc, "") for svc in dialog.services).strip()
        if prefix:
            text = f"{prefix} {text}"
    return text


def reference_records(dialog, repr, kind, predicted_states=None, schemas=None):
    """`records_for_dialog` as it was before it carried the previous state
    and the tagged turns: each turn looks its previous state up, the
    predicted one at the preceding user turn or, by default, the gold one,
    and tags the turns its input shows."""
    records = []
    for turn in dialog.user_turns():
        previous = dialog.previous_user_state(turn.index)
        if predicted_states is not None:
            previous = EMPTY_STATE
            for t in reversed(dialog.turns[:turn.index]):
                if t.speaker is Speaker.USER:
                    previous = predicted_states.get((dialog.dialog_id, t.index), EMPTY_STATE)
                    break
        inp = reference_input(dialog, turn.index, repr, kind, schemas, previous)
        if kind is DatasetKind.SMCALFLOW:
            target = lispress.print_canonical(lispress.parse(turn.program))
        else:
            target = linearize_target(
                state_update(dialog.previous_user_state(turn.index), turn.state))
        records.append(Seq2SeqRecord(dialog.dialog_id, turn.index, inp, target))
    return records


def _some_predicted_states(corpus):
    """A predicted state, unlike the gold one, for every other user turn."""
    return {(dialog.dialog_id, turn.index): {("pred", "slot"): (str(turn.index),)}
            for dialog in corpus.dialogs for turn in dialog.user_turns()[::2]}


class TestRecordsAsReference:
    def _check(self, corpus, with_predictions):
        predicted = _some_predicted_states(corpus) if with_predictions else None
        for repr in InputRepresentation:
            if (corpus.dataset_kind is DatasetKind.SMCALFLOW
                    and repr is InputRepresentation.PLUS_PREVIOUS_DIALOG_STATE):
                continue  # a ValueError: TestSmcalflowHasNoPrevState
            for dialog in corpus.dialogs:
                args = (dialog, repr, corpus.dataset_kind, predicted, corpus.schemas)
                assert records_for_dialog(*args) == reference_records(*args)

    @pytest.mark.parametrize("with_predictions", [False, True])
    def test_fixtures(self, mwz_path, sgd_path, smcalflow_path, with_predictions):
        self._check(load_multiwoz(mwz_path), with_predictions)
        self._check(load_sgd(sgd_path, "test"), with_predictions)
        if not with_predictions:
            self._check(load_smcalflow(smcalflow_path), with_predictions)

    @pytest.mark.parametrize("with_predictions", [False, True])
    def test_planted(self, planted, with_predictions):
        self._check(planted[0], with_predictions)


class TestSmcalflowHasNoPrevState:
    def test_records_for_dialog_raises(self, smcalflow_path):
        dialog = load_smcalflow(smcalflow_path).dialogs[0]
        with pytest.raises(ValueError, match="prev-state input applies to multiwoz and sgd"):
            records_for_dialog(dialog, InputRepresentation.PLUS_PREVIOUS_DIALOG_STATE,
                               DatasetKind.SMCALFLOW)

    def test_emit_dataset_raises_and_writes_nothing(self, smcalflow_path, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        with pytest.raises(ValueError, match="prev-state input applies to multiwoz and sgd"):
            emit_dataset(load_smcalflow(smcalflow_path),
                         InputRepresentation.PLUS_PREVIOUS_DIALOG_STATE, out_dir / "records.jsonl")
        assert list(out_dir.iterdir()) == []


# text that JSON escapes, or that a line splitter could take for a line end;
# no lone surrogate, which a UTF-8 file cannot hold
_json_text = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\r", "\u2028", "\u2029",
                     "\U0001f600", "é"]),
    st.characters(exclude_categories=["Cs"])), max_size=6)


@st.composite
def _json_text_corpus(draw):
    dialogs = []
    for k in range(draw(st.integers(1, 2))):
        turns = []
        for i in range(draw(st.integers(1, 4))):
            if i % 2:
                turns.append(Turn(i, Speaker.AGENT, draw(_json_text)))
                continue
            state = {("dom", draw(_json_text)): (draw(_json_text),)}
            turns.append(Turn(i, Speaker.USER, draw(_json_text), state=state))
        dialogs.append(Dialog(f"{draw(_json_text)}-{k}", tuple(turns)))
    return Corpus(DatasetKind.MULTIWOZ, "test", tuple(dialogs))


class TestEmitDataset:
    @settings(max_examples=100, deadline=None)
    @given(_json_text_corpus(), st.sampled_from(list(InputRepresentation)))
    def test_each_line_is_json_dumps(self, corpus, repr):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.jsonl"
            emit_dataset(corpus, repr, out)
            with open(out, "r", encoding="utf-8", newline="") as f:
                lines = f.read().split("\n")
        records = [rec for dialog in corpus.dialogs
                   for rec in records_for_dialog(dialog, repr, corpus.dataset_kind)]
        assert lines == [json.dumps({"dialogue_id": rec.dialog_id,
                                     "turn_index": rec.turn_index,
                                     "input": rec.input, "target": rec.target},
                                    ensure_ascii=False)
                         for rec in records] + [""]

    def test_emit_counts_and_shape(self, mwz_path, tmp_path):
        corpus = load_multiwoz(mwz_path)
        out = tmp_path / "out.jsonl"
        n = emit_dataset(corpus, InputRepresentation.PLUS_LAST_AGENT_TURN, out)
        lines = out.read_text("utf-8").splitlines()
        assert n == len(lines) == corpus.user_turn_count() == 9
        rec = json.loads(lines[0])
        assert set(rec) == {"dialogue_id", "turn_index", "input", "target"}

    def test_failure_leaves_the_old_output(self, smcalflow_path, tmp_path, monkeypatch):
        # the second dialog fails, so the first dialog's records are already
        # written when the error comes
        corpus = load_smcalflow(smcalflow_path)
        linearized = []

        def records(dialog, *args):
            if dialog is corpus.dialogs[1]:
                raise ValueError(f"dialog {dialog.dialog_id} fails")
            linearized.append(dialog.dialog_id)
            return records_for_dialog(dialog, *args)
        monkeypatch.setattr(linearize, "records_for_dialog", records)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "records.jsonl"
        out.write_text("old records\n", "utf-8")
        with pytest.raises(ValueError, match="dialog calflow-1 fails"):
            emit_dataset(corpus, InputRepresentation.FULL_DIALOG_HISTORY, out)
        assert linearized == ["calflow-0"]
        assert out.read_text("utf-8") == "old records\n"
        assert [p.name for p in out_dir.iterdir()] == ["records.jsonl"]

    def test_unwritable_path(self, mwz_path, tmp_path):
        corpus = load_multiwoz(mwz_path)
        with pytest.raises(OSError):
            emit_dataset(corpus, InputRepresentation.CURRENT_USER_TURN,
                         tmp_path / "missing-dir" / "out.jsonl")
