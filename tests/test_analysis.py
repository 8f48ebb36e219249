import pytest

from dialoscope import analysis
from dialoscope.analysis import (ContextClass, OverrideError, TurnKind,
                                 analyze_corpus, apply_overrides, histogram,
                                 trace_turn)
from dialoscope.corpus import load_multiwoz, load_sgd, load_smcalflow
from dialoscope.normalize import MatchCategory, default_lexicon, match_in_text


@pytest.fixture(scope="module")
def lexicon():
    return default_lexicon()


class TestTraceTurn:
    def test_value_in_current_turn_is_distance_zero(self, mwz_path, lexicon):
        dialog = load_multiwoz(mwz_path).get_dialog("MUL0635.json")
        result = trace_turn(dialog, 10, lexicon)
        by_slot = {t.slot: t for t in result.slot_traces}
        assert by_slot[("train", "arriveby")].delta_c == 0
        assert by_slot[("train", "arriveby")].match.category is \
            MatchCategory.VERBATIM

    def test_backward_search_distance_four(self, mwz_path, lexicon):
        dialog = load_multiwoz(mwz_path).get_dialog("MUL0635.json")
        result = trace_turn(dialog, 10, lexicon)
        by_slot = {t.slot: t for t in result.slot_traces}
        assert by_slot[("train", "day")].delta_c == 4  # "friday" at turn 6

    def test_never_surfaced_value_is_unresolved(self, mwz_path, lexicon):
        dialog = load_multiwoz(mwz_path).get_dialog("MUL0635.json")
        result = trace_turn(dialog, 10, lexicon)
        by_slot = {t.slot: t for t in result.slot_traces}
        trace = by_slot[("train", "destination")]
        assert trace.delta_c is None
        assert trace.match.category is MatchCategory.UNRESOLVED
        assert trace.context_class is ContextClass.UNKNOWN
        assert result.turn_delta_c is None  # withheld: one slot unresolved

    def test_empty_update_is_nothing_to_predict(self, mwz_path, lexicon):
        dialog = load_multiwoz(mwz_path).get_dialog("MUL0635.json")
        result = trace_turn(dialog, 4, lexicon)  # "thanks" turn, no change
        assert result.kind is TurnKind.NOTHING_TO_PREDICT
        assert result.slot_traces == ()

    def test_relaxation_counted_not_traced(self, mwz_path, lexicon):
        dialog = load_multiwoz(mwz_path).get_dialog("SNG0073.json")
        result = trace_turn(dialog, 4, lexicon)  # pricerange -> dontcare
        assert result.dontcared_count == 1
        assert ("restaurant", "pricerange") not in {
            t.slot for t in result.slot_traces}

    def test_agent_turn_rejected(self, mwz_path, lexicon):
        dialog = load_multiwoz(mwz_path).get_dialog("MUL0635.json")
        with pytest.raises(ValueError):
            trace_turn(dialog, 1, lexicon)
        with pytest.raises(ValueError):
            trace_turn(dialog, 99, lexicon)

    def test_sgd_confirmation_pattern_distance_three(self, sgd_path, lexicon):
        dialog = load_sgd(sgd_path, "test").get_dialog("1_00000")
        result = trace_turn(dialog, 6, lexicon)
        by_slot = {t.slot: t for t in result.slot_traces}
        assert by_slot[("Restaurants_1", "partysize")].delta_c == 3
        assert result.turn_delta_c == 3

    def test_planted_ground_truth(self, planted, lexicon):
        corpus, expectations = planted
        for (dialog_id, turn_index, domain, slot), expected in expectations.items():
            delta, category, sub_kind = expected
            dialog = corpus.get_dialog(dialog_id)
            result = trace_turn(dialog, turn_index, lexicon)
            trace = {t.slot: t for t in result.slot_traces}[(domain, slot)]
            assert trace.delta_c == delta, dialog_id
            assert trace.match.category.value == category, dialog_id
            if sub_kind:
                assert trace.match.sub_kind.value == sub_kind, dialog_id

    def test_nearest_match_property(self, planted, lexicon):
        # re-run the matcher at every distance below the reported one: it
        # must fail there, for the exact value the trace resolved
        corpus, expectations = planted
        for (dialog_id, turn_index, _, _), (delta, _, _) in expectations.items():
            dialog = corpus.get_dialog(dialog_id)
            result = trace_turn(dialog, turn_index, lexicon)
            for trace in result.slot_traces:
                for d in range(trace.delta_c):
                    nearer = dialog.turns[turn_index - d]
                    r = match_in_text(trace.value, trace.slot,
                                      nearer.utterance, lexicon)
                    assert not r.resolved


class TestOverrides:
    def test_parse_and_apply(self, tmp_path, mwz_path, lexicon):
        p = tmp_path / "ov.tsv"
        p.write_text("# comment\nMUL0635.json\t10\ttrain\tdestination\t5\t-"
                     "\texternal_knowledge\n", "utf-8")
        overrides = apply_overrides(p)
        dialog = load_multiwoz(mwz_path).get_dialog("MUL0635.json")
        result = trace_turn(dialog, 10, lexicon, overrides)
        trace = {t.slot: t for t in result.slot_traces}[("train", "destination")]
        assert trace.delta_c == 5
        assert trace.context_class is ContextClass.EXTERNAL_KNOWLEDGE
        assert trace.overridden
        assert result.turn_delta_c == 5

    def test_bundled_example_override_file(self, mwz_path, lexicon):
        from importlib import resources
        with resources.as_file(resources.files("dialoscope") / "data" /
                               "overrides_multiwoz_examples.tsv") as p:
            overrides = apply_overrides(p)
        dialog = load_multiwoz(mwz_path).get_dialog("MUL0635.json")
        result = trace_turn(dialog, 10, lexicon, overrides)
        trace = {t.slot: t for t in result.slot_traces}[("train", "destination")]
        assert trace.delta_c == 5

    def test_empty_file_no_change(self, tmp_path, mwz_path, lexicon):
        p = tmp_path / "ov.tsv"
        p.write_text("", "utf-8")
        dialog = load_multiwoz(mwz_path).get_dialog("MUL0635.json")
        assert trace_turn(dialog, 10, lexicon, apply_overrides(p)) == \
            trace_turn(dialog, 10, lexicon)

    def test_override_on_resolved_slot_ignored(self, tmp_path, mwz_path,
                                               lexicon, caplog):
        p = tmp_path / "ov.tsv"
        p.write_text("MUL0635.json\t10\ttrain\tarriveby\t9\t-\tsituational\n",
                     "utf-8")
        dialog = load_multiwoz(mwz_path).get_dialog("MUL0635.json")
        import logging
        with caplog.at_level(logging.WARNING, logger="dialoscope.analysis"):
            result = trace_turn(dialog, 10, lexicon, apply_overrides(p))
        trace = {t.slot: t for t in result.slot_traces}[("train", "arriveby")]
        assert trace.delta_c == 0  # matcher result kept
        assert any("ignored" in r.message for r in caplog.records)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "ov.tsv"
        p.write_text("too\tfew\tfields\n", "utf-8")
        with pytest.raises(OverrideError) as exc:
            apply_overrides(p)
        assert ":1" in str(exc.value)


class TestAnalyzeCorpus:
    def test_fixture_report(self, mwz_path, lexicon):
        report = analyze_corpus(load_multiwoz(mwz_path), lexicon)
        assert report.total_user_turns == 9
        conv = report.conversationality
        # MUL0635: turns 4 and 8 empty; SNG0073: turn 4 is relaxation-only
        assert conv["nothing_to_predict"] == pytest.approx(100 * 3 / 9)
        # partition sums to 100
        total = (conv["nothing_to_predict"] + conv["delta0"] + conv["delta1"]
                 + conv["delta2_plus"] + conv["unresolved"])
        assert total == pytest.approx(100.0)
        # cumulative rows never decrease
        assert conv["cum_delta0"] >= conv["nothing_to_predict"]
        assert conv["cum_delta1"] >= conv["cum_delta0"]

    def test_relaxation_fraction(self, mwz_path, lexicon):
        report = analyze_corpus(load_multiwoz(mwz_path), lexicon)
        assert report.relaxation == pytest.approx(100 * 1 / 9)

    def test_all_empty_updates(self, lexicon):
        from dialoscope.corpus import (Corpus, DatasetKind, Dialog, DialogState,
                                       Speaker, Turn)
        dialog = Dialog("d0", (
            Turn(0, Speaker.USER, "hello", state=DialogState()),))
        corpus = Corpus(DatasetKind.MULTIWOZ, "toy", (dialog,))
        report = analyze_corpus(corpus, lexicon)
        assert report.conversationality["nothing_to_predict"] == 100.0

    def test_smcalflow_refer_revise(self, smcalflow_path):
        report = analyze_corpus(load_smcalflow(smcalflow_path))
        # 4 user turns: 1 refer, 1 revise
        assert report.smcalflow["refer"] == pytest.approx(25.0)
        assert report.smcalflow["revise"] == pytest.approx(25.0)

    def test_worker_count_does_not_change_result(self, planted, lexicon):
        corpus, _ = planted
        assert analyze_corpus(corpus, lexicon, workers=1) == \
            analyze_corpus(corpus, lexicon, workers=4)

    def test_pool_is_clamped_to_cpu_count(self, planted, lexicon, monkeypatch):
        # a stand-in executor records the pool size and runs in-process, so
        # no large pool is ever started
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(analysis, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(analysis, "_worker_args", ())
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 3)
        corpus, _ = planted
        pooled = analyze_corpus(corpus, lexicon, workers=64)
        assert sizes == [3]
        assert pooled == analyze_corpus(corpus, lexicon, workers=1)
        assert sizes == [3]  # one worker runs serially, without a pool

    def test_normalization_denominator_is_tracked_turns(self, planted, lexicon):
        corpus, _ = planted
        report = analyze_corpus(corpus, lexicon)
        # every tracked turn resolves in exactly one category here
        assert sum(report.normalization.values()) == pytest.approx(100.0)


class TestHistogram:
    def test_buckets(self, planted, lexicon):
        corpus, expectations = planted
        report = analyze_corpus(corpus, lexicon)
        buckets = dict(histogram(report))
        expected = {}
        for (_, _, _, _), (delta, _, _) in expectations.items():
            if delta >= 2:
                expected[delta] = expected.get(delta, 0) + 1
        assert buckets == expected
        assert sum(buckets.values()) == sum(
            1 for (d, _, _) in expectations.values() if d >= 2)

    def test_empty_when_no_conversational_turns(self, lexicon, mwz_path):
        corpus = load_multiwoz(mwz_path)
        report = analyze_corpus(corpus, lexicon)
        assert all(d >= 2 for d, _ in histogram(report))
