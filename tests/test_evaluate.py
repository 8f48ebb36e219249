import dataclasses
import itertools
import json
import logging
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dialoscope import evaluate, lispress
from dialoscope.corpus import (Corpus, DatasetKind, Dialog, InputError,
                               Speaker, Turn, apply_update, load_multiwoz, load_sgd,
                               load_smcalflow)
from dialoscope.evaluate import (ScoreReport, accumulate_predicted_states,
                                 exact_match_score, jga, load_predictions,
                                 states_equal)
from dialoscope.linearize import TargetParseError, parse_target
from conftest import gold_predictions


class TestLoadPredictions:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "preds.jsonl"
        p.write_text(json.dumps({"dialogue_id": "d", "turn_index": 0,
                                 "prediction": "a:b=c"}) + "\n", "utf-8")
        assert load_predictions(p) == {("d", 0): "a:b=c"}

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "preds.jsonl"
        p.write_text('\n{"dialogue_id": "d", "turn_index": 1, '
                     '"prediction": ""}\n\n', "utf-8")
        assert load_predictions(p) == {("d", 1): ""}

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "preds.jsonl"
        rec = json.dumps({"dialogue_id": "d", "turn_index": 0, "prediction": "x"})
        p.write_text(rec + "\n" + rec + "\n", "utf-8")
        with pytest.raises(InputError) as exc:
            load_predictions(p)
        assert ":2" in str(exc.value)

    def test_missing_field_rejected(self, tmp_path):
        p = tmp_path / "preds.jsonl"
        p.write_text('{"dialogue_id": "d", "turn_index": 0}\n', "utf-8")
        with pytest.raises(InputError):
            load_predictions(p)

    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "preds.jsonl"
        p.write_text('{"dialogue_id": "d", "turn_index": 0, "prediction": ""}\n'
                     "{broken\n", "utf-8")
        with pytest.raises(InputError) as exc:
            load_predictions(p)
        assert ":2" in str(exc.value)

    @pytest.mark.parametrize("turn_index", [2.9, True, " 4 ", 4.0, "1_0", 0])
    def test_turn_index_is_a_json_integer(self, tmp_path, turn_index):
        p = tmp_path / "preds.jsonl"
        p.write_text(json.dumps({"dialogue_id": "d", "turn_index": turn_index,
                                 "prediction": "x"}) + "\n", "utf-8")
        if type(turn_index) is int:
            assert load_predictions(p) == {("d", turn_index): "x"}
            return
        with pytest.raises(InputError) as exc:
            load_predictions(p)
        assert str(exc.value) == f"{p}:1: need dialogue_id, turn_index, prediction"


class TestStatesEqual:
    def test_case_and_whitespace_insensitive(self):
        a = {("t", "day"): ("Friday",)}
        b = {("t", "day"): ("friday",)}
        assert states_equal(a, b)

    def test_alternate_values_accepted(self):
        pred = {("r", "area"): ("center",)}
        gold = {("r", "area"): ("centre", "center")}
        assert states_equal(pred, gold)

    def test_key_set_mismatch(self):
        a = {("t", "day"): ("friday",)}
        assert not states_equal(a, {})
        assert not states_equal({}, a)

    def test_verbatim_alternate_is_not_canonicalized(self, monkeypatch):
        def canonical_value(value):
            raise AssertionError(f"canonicalized {value!r}")
        monkeypatch.setattr(evaluate, "canonical_value", canonical_value)
        pred = {("r", "area"): ("center",), ("r", "food"): ("thai",)}
        gold = {("r", "area"): ("centre", "center"), ("r", "food"): ("thai",)}
        assert states_equal(pred, gold)
        assert states_equal(pred, gold, fuzzy=True)

    def test_fuzzy_matching(self):
        pred = {("r", "name"): ("intercontinental hotl",)}
        gold = {("r", "name"): ("intercontinental hotel",)}
        assert not states_equal(pred, gold)
        assert states_equal(pred, gold, fuzzy=True)


class TestJga:
    def test_gold_predictions_are_perfect_oracle(self, mwz_path):
        corpus = load_multiwoz(mwz_path)
        report = jga(corpus, gold_predictions(corpus), mode="oracle")
        assert report.accuracy == 1.0
        assert report.total == 9

    def test_gold_predictions_are_perfect_accumulated(self, mwz_path):
        corpus = load_multiwoz(mwz_path)
        report = jga(corpus, gold_predictions(corpus), mode="accumulated")
        assert report.accuracy == 1.0

    def test_oracle_error_does_not_propagate(self, mwz_path):
        corpus = load_multiwoz(mwz_path)
        preds = gold_predictions(corpus)
        # hotel name is never revised later: only turn 0 itself suffers
        preds[("MUL0635.json", 0)] = "hotel:name=the wrong hotel"
        report = jga(corpus, preds, mode="oracle")
        assert report.correct == report.total - 1
        verdicts = {(d, t): ok for d, t, ok in report.verdicts}
        assert verdicts[("MUL0635.json", 0)] is False

    def test_accumulated_error_propagates(self, mwz_path):
        corpus = load_multiwoz(mwz_path)
        preds = gold_predictions(corpus)
        preds[("MUL0635.json", 0)] = "hotel:name=the wrong hotel"
        report = jga(corpus, preds, mode="accumulated")
        # the poisoned slot persists through all 6 MUL0635 user turns
        verdicts = {(d, t): ok for d, t, ok in report.verdicts}
        assert [verdicts[("MUL0635.json", i)] for i in (0, 2, 4, 6, 8, 10)] == \
            [False] * 6
        assert all(verdicts[("SNG0073.json", i)] for i in (0, 2, 4))
        assert report.correct == 3

    def test_missing_prediction_counts_wrong(self, mwz_path):
        corpus = load_multiwoz(mwz_path)
        preds = gold_predictions(corpus)
        del preds[("SNG0073.json", 2)]
        report = jga(corpus, preds, mode="oracle")
        assert report.missing == 1
        assert report.correct == report.total - 1

    def test_unparseable_prediction_counts_wrong(self, mwz_path):
        corpus = load_multiwoz(mwz_path)
        preds = gold_predictions(corpus)
        preds[("SNG0073.json", 2)] = "%%% nonsense %%%"
        report = jga(corpus, preds, mode="oracle")
        assert report.unparseable == 1
        assert report.correct == report.total - 1

    def test_slot_named_twice_is_unparseable(self, mwz_path):
        # MUL0635 turn 10 sets train:arriveby; naming it twice must not let
        # the hash order of the update pick the value that is scored
        corpus = load_multiwoz(mwz_path)
        preds = gold_predictions(corpus)
        gold = preds[("MUL0635.json", 10)]
        preds[("MUL0635.json", 10)] = f"{gold}, train:arriveby=10:00"
        report = jga(corpus, preds, mode="oracle")
        assert report.unparseable == 1
        assert report.correct == report.total - 1
        verdicts = {(d, t): ok for d, t, ok in report.verdicts}
        assert verdicts[("MUL0635.json", 10)] is False

    def test_unknown_mode(self, mwz_path):
        corpus = load_multiwoz(mwz_path)
        with pytest.raises(ValueError):
            jga(corpus, {}, mode="strict")

    def test_smcalflow_rejected(self, smcalflow_path):
        with pytest.raises(ValueError):
            jga(load_smcalflow(smcalflow_path), {})

    def test_empty_predictions_score_zero_unless_state_empty(self, mwz_path):
        corpus = load_multiwoz(mwz_path)
        report = jga(corpus, {}, mode="oracle")
        assert report.correct == 0  # every fixture turn has non-empty state
        assert report.missing == report.total


class TestAccumulatePredictedStates:
    def test_gold_fold_matches_gold_states(self, mwz_path):
        corpus = load_multiwoz(mwz_path)
        states = accumulate_predicted_states(corpus, gold_predictions(corpus))
        for dialog in corpus.dialogs:
            for turn in dialog.user_turns():
                assert states[(dialog.dialog_id, turn.index)] == turn.state

    def test_missing_treated_as_empty_update(self, mwz_path):
        corpus = load_multiwoz(mwz_path)
        preds = gold_predictions(corpus)
        del preds[("SNG0073.json", 2)]
        states = accumulate_predicted_states(corpus, preds)
        # state at turn 2 equals the turn-0 state (nothing applied)
        assert states[("SNG0073.json", 2)] == states[("SNG0073.json", 0)]


class TestExactMatch:
    def test_gold_predictions(self, smcalflow_path):
        corpus = load_smcalflow(smcalflow_path)
        report = exact_match_score(corpus, gold_predictions(corpus))
        assert report.accuracy == 1.0
        assert report.total == 4

    def test_whitespace_variant_still_matches(self, smcalflow_path):
        corpus = load_smcalflow(smcalflow_path)
        preds = {k: f"( {v[1:-1]} )" if v.startswith("(") else v
                 for k, v in gold_predictions(corpus).items()}
        report = exact_match_score(corpus, preds)
        assert report.accuracy == 1.0
        assert exact_match_score(corpus, preds, strict=True).accuracy < 1.0

    def test_honor_refer_flags(self, smcalflow_path):
        corpus = load_smcalflow(smcalflow_path)
        preds = gold_predictions(corpus)
        plain = exact_match_score(corpus, preds)
        flagged = exact_match_score(corpus, preds, honor_refer_flags=True)
        # one fixture turn carries refer_are_incorrect
        assert plain.correct - flagged.correct == 1
        assert flagged.correct_but_flagged == 1

    def test_missing_prediction(self, smcalflow_path):
        corpus = load_smcalflow(smcalflow_path)
        preds = gold_predictions(corpus)
        key = next(iter(preds))
        del preds[key]
        report = exact_match_score(corpus, preds)
        assert report.missing == 1
        assert report.correct == report.total - 1

    def test_frame_corpus_rejected(self, mwz_path):
        with pytest.raises(ValueError):
            exact_match_score(load_multiwoz(mwz_path), {})

    @pytest.mark.parametrize("strict", [False, True])
    def test_unparseable_prediction_counted_and_wrong(self, smcalflow_path, strict):
        corpus = load_smcalflow(smcalflow_path)
        preds = gold_predictions(corpus)
        preds[("calflow-0", 0)] = "(Yield (foo"
        preds[("calflow-1", 0)] = ""
        report = exact_match_score(corpus, preds, strict=strict)
        assert report.unparseable == 2
        assert report.missing == 0
        verdicts = {(d, t): ok for d, t, ok in report.verdicts}
        assert not verdicts[("calflow-0", 0)] and not verdicts[("calflow-1", 0)]
        assert report.correct == report.total - 2

    def test_each_distinct_prediction_parsed_once_per_call(self, smcalflow_repeated_path,
                                                           parse_calls):
        corpus = load_smcalflow(smcalflow_repeated_path)
        preds = {key: "(Yield (foo" if key[1] == 0 else text
                 for key, text in gold_predictions(corpus).items()}
        parse_calls.clear()
        report = exact_match_score(corpus, preds)
        assert parse_calls == Counter(set(preds.values())) and len(parse_calls) == 2
        assert report.unparseable == 2
        # the memo is the call's own: a second call parses again
        exact_match_score(corpus, preds)
        assert parse_calls == Counter({text: 2 for text in preds.values()})

    def test_unparseable_gold_names_dialog_and_turn(self, smcalflow_raw, tmp_path):
        # the loader parses each gold program, so no corpus reaches the scorer
        # with one that does not parse
        smcalflow_raw[0]["turns"][1]["lispress"] = "(Yield (foo"
        path = tmp_path / "c.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in smcalflow_raw), "utf-8")
        with pytest.raises(InputError) as exc:
            load_smcalflow(path)
        assert str(exc.value).startswith(
            f"{path}:1: dialog calflow-0, turn 2: gold program does not parse: ")
        assert str(exc.value).count("character offset") == 1

    def test_turn_without_parsed_program(self):
        # a hand-built turn with the program text only is an error, not a miss
        turn = Turn(0, Speaker.USER, "hi", program="(refer (x))")
        corpus = Corpus(DatasetKind.SMCALFLOW, "test", (Dialog("d", (turn,)),))
        with pytest.raises(ValueError, match="^dialog d, turn 0: no parsed gold program$"):
            exact_match_score(corpus, {("d", 0): "(refer (x))"})


class TestScoreReport:
    def test_json_text_and_table(self, mwz_path):
        corpus = load_multiwoz(mwz_path)
        report = jga(corpus, gold_predictions(corpus))
        doc = json.loads(report.json_text())
        assert doc["accuracy"] == 1.0
        assert len(doc["verdicts"]) == 9
        assert "jga-oracle" in report.table()

    def test_zero_total_accuracy(self):
        from dialoscope.evaluate import ScoreReport
        assert ScoreReport(metric="jga-oracle").accuracy == 0.0


# text that JSON escapes, that a line splitter could take for a line end,
# lone surrogates and characters outside the BMP
_json_text = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\u2028", "\u2029",
                     "\ud800", "\udfff", "\U0001f600", "é"]),
    st.characters()), max_size=8)


def score_doc(report):
    """The document `ScoreReport.json_text` writes, key for key."""
    return {
        "metric": report.metric,
        "accuracy": report.accuracy,
        "correct": report.correct,
        "total": report.total,
        "missing_predictions": report.missing,
        "unparseable_predictions": report.unparseable,
        "correct_but_flagged": report.correct_but_flagged,
        "verdicts": [{"dialogue_id": d, "turn_index": t, "correct": ok}
                     for d, t, ok in report.verdicts],
    }


class TestReportJsonText:
    @settings(max_examples=200, deadline=None)
    @given(st.builds(
        ScoreReport, metric=_json_text, correct=st.integers(0, 10**6),
        total=st.integers(0, 10**6), missing=st.integers(0, 10**6),
        unparseable=st.integers(0, 10**6), correct_but_flagged=st.integers(0, 10**6),
        verdicts=st.lists(st.tuples(_json_text, st.integers(), st.booleans()), max_size=5)))
    def test_equals_indented_dumps(self, report):
        assert report.json_text() == json.dumps(
            score_doc(report), indent=2, ensure_ascii=False) + "\n"

    def test_empty_verdicts(self):
        report = ScoreReport(metric="jga")
        text = report.json_text()
        assert text.endswith('"verdicts": []\n}\n')
        assert text == json.dumps(score_doc(report), indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# equivalence with the scorers before the shared fold and scoring loop
# ---------------------------------------------------------------------------

def reference_jga(corpus, predictions, mode="oracle", fuzzy_values=False):
    """`jga` as it was written before it shared the predicted-state fold."""
    report = ScoreReport(metric=f"jga-{mode}")
    known_keys = set()
    for dialog in corpus.dialogs:
        running = {}
        for turn in dialog.user_turns():
            key = (dialog.dialog_id, turn.index)
            known_keys.add(key)
            report.total += 1
            base = (dialog.previous_user_state(turn.index)
                    if mode == "oracle" else running)
            correct = False
            if key not in predictions:
                report.missing += 1
            else:
                try:
                    update = parse_target(predictions[key])
                except TargetParseError:
                    report.unparseable += 1
                    update = None
                if update is not None:
                    predicted = apply_update(base, update)
                    if mode == "accumulated":
                        running = predicted
                    correct = states_equal(predicted, turn.state, fuzzy_values)
            report.correct += correct
            report.verdicts.append((dialog.dialog_id, turn.index, correct))
    for key in predictions:
        if key not in known_keys:
            logging.getLogger("dialoscope.evaluate").warning(
                "prediction for unknown turn %s ignored", key)
    return report


def reference_accumulate(corpus, predictions):
    """`accumulate_predicted_states` before the shared fold."""
    states = {}
    for dialog in corpus.dialogs:
        running = {}
        for turn in dialog.user_turns():
            key = (dialog.dialog_id, turn.index)
            try:
                update = parse_target(predictions.get(key, ""))
            except TargetParseError:
                update = None
            if update is not None:
                running = apply_update(running, update)
            states[key] = running
    return states


def reference_exact_match(corpus, predictions, honor_refer_flags=False, strict=False):
    """`exact_match_score` before the shared scoring loop, with the
    `lispress.exact_match` it called written out; it never counted an
    unparseable prediction."""
    report = ScoreReport(metric="exact-match")
    known_keys = set()
    for dialog in corpus.dialogs:
        for turn in dialog.user_turns():
            key = (dialog.dialog_id, turn.index)
            known_keys.add(key)
            report.total += 1
            correct = False
            if key not in predictions:
                report.missing += 1
            else:
                gold = lispress.parse(turn.program)
                if strict:
                    correct = predictions[key] == turn.program
                else:
                    try:
                        correct = (lispress.print_canonical(lispress.parse(predictions[key]))
                                   == lispress.print_canonical(gold))
                    except lispress.LispressError:
                        correct = False
            if correct and honor_refer_flags and turn.refer_are_incorrect:
                report.correct_but_flagged += 1
                correct = False
            report.correct += correct
            report.verdicts.append((dialog.dialog_id, turn.index, correct))
    for key in predictions:
        if key not in known_keys:
            logging.getLogger("dialoscope.evaluate").warning(
                "prediction for unknown turn %s ignored", key)
    return report


WRONG_UPDATES = ["hotel:name=the wrong hotel", "", "test:instrument=none",
                 "restaurant:area=dontcare", "attraction:type=museum, hotel:name=none"]
UNPARSEABLE_UPDATES = ["%%% nonsense %%%", "hotel=name", "hotel:=x, a:b=c"]
WRONG_PROGRAMS = ["(Yield :output (Tomorrow))", "( Yield :output ( Today ) )", "(x)"]
UNPARSEABLE_PROGRAMS = ["(Yield (foo", "", ")", '"open']
UNKNOWN_KEYS = [("nope.json", 0), ("MUL0635.json", 1), ("calflow-0", 99)]


def draw_predictions(data, corpus, gold, wrong, unparseable):
    """Per user turn a gold, wrong, missing or unparseable prediction, and
    some predictions for turns the corpus does not have."""
    predictions = {}
    for key, target in gold.items():
        kind = data.draw(st.sampled_from(["gold", "wrong", "missing", "unparseable"]))
        if kind == "gold":
            predictions[key] = target
        elif kind == "wrong":
            predictions[key] = data.draw(st.sampled_from(wrong + list(gold.values())))
        elif kind == "unparseable":
            predictions[key] = data.draw(st.sampled_from(unparseable))
    for key in data.draw(st.lists(st.sampled_from(UNKNOWN_KEYS), unique=True)):
        predictions[key] = data.draw(st.sampled_from(wrong))
    return predictions


def warnings_of(caplog, score):
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="dialoscope.evaluate"):
        result = score()
    return result, [r.getMessage() for r in caplog.records]


class TestEquivalence:
    def test_jga_and_fold_match_the_reference(self, mwz_path, sgd_path, planted, caplog):
        corpora = [load_multiwoz(mwz_path), load_sgd(sgd_path, "test"), planted[0]]

        @settings(max_examples=150, deadline=None)
        @given(st.data())
        def check(data):
            corpus = data.draw(st.sampled_from(corpora))
            preds = draw_predictions(data, corpus, gold_predictions(corpus),
                                     WRONG_UPDATES, UNPARSEABLE_UPDATES)
            fuzzy = data.draw(st.booleans())
            for mode in ("oracle", "accumulated"):
                new, new_log = warnings_of(caplog, lambda: jga(corpus, preds, mode, fuzzy))
                ref, ref_log = warnings_of(
                    caplog, lambda: reference_jga(corpus, preds, mode, fuzzy))
                assert new == ref
                assert new.table() == ref.table()
                assert new_log == ref_log
            states, fold_log = warnings_of(
                caplog, lambda: accumulate_predicted_states(corpus, preds))
            # the fold warns as the scorer does, in predictions-file order
            assert fold_log == ref_log
            ref_states = reference_accumulate(corpus, preds)
            assert list(states) == list(ref_states)
            for key, ref_state in ref_states.items():
                assert states[key] == ref_state

        check()

    def test_exact_match_matches_the_reference(self, smcalflow_path, caplog):
        corpus = load_smcalflow(smcalflow_path)
        gold = gold_predictions(corpus)

        @settings(max_examples=150, deadline=None)
        @given(st.data())
        def check(data):
            preds = draw_predictions(data, corpus, gold, WRONG_PROGRAMS,
                                     UNPARSEABLE_PROGRAMS)
            flags, strict = data.draw(st.booleans()), data.draw(st.booleans())
            new, new_log = warnings_of(
                caplog, lambda: exact_match_score(corpus, preds, flags, strict))
            ref, ref_log = warnings_of(
                caplog, lambda: reference_exact_match(corpus, preds, flags, strict))
            assert new.unparseable == sum(
                p in UNPARSEABLE_PROGRAMS for k, p in preds.items() if k in gold)
            assert ref.unparseable == 0
            assert dataclasses.replace(new, unparseable=0) == ref
            assert new_log == ref_log

        check()

    def test_repeated_predictions_match_the_reference(self, smcalflow_repeated_path):
        # every assignment of these texts to the four turns: repeated gold
        # programs, repeated unparseable texts and gaps; calflow-0's turns 2
        # and 4 share one gold tree and only turn 2 is flagged
        corpus = load_smcalflow(smcalflow_repeated_path)
        gold = gold_predictions(corpus)
        programs = sorted(set(gold.values()))
        pool = [None, *programs, f"( {programs[0][1:]}", *UNPARSEABLE_PROGRAMS[:2]]
        for texts in itertools.product(pool, repeat=len(gold)):
            preds = {key: text for key, text in zip(gold, texts) if text is not None}
            for flags, strict in itertools.product((False, True), repeat=2):
                new = exact_match_score(corpus, preds, flags, strict)
                ref = reference_exact_match(corpus, preds, flags, strict)
                assert new.unparseable == sum(
                    p in UNPARSEABLE_PROGRAMS for p in preds.values())
                assert ref.unparseable == 0
                assert dataclasses.replace(new, unparseable=0) == ref, preds
