"""Acceptance suite: one test per acceptance criterion.

Criteria that need the real datasets (MultiWOZ 2.4, SGD, SMCalFlow) look
for them under $DIALOSCOPE_DATA_DIR/{multiwoz,sgd,smcalflow}. When a
dataset is not present the criterion is skipped with an explicit notice;
everything else runs on the bundled synthetic fixtures.
"""
import json
import os
import time
from pathlib import Path

import pytest

from dialoscope import lispress
from dialoscope.analysis import analyze_corpus, histogram, trace_turn
from dialoscope.corpus import (EMPTY_STATE, apply_update, load_multiwoz, load_sgd,
                               load_smcalflow, state_update)
from dialoscope.evaluate import exact_match_score, jga
from dialoscope.linearize import InputRepresentation, emit_dataset, records_for_dialog
from dialoscope.normalize import default_lexicon
from conftest import gold_predictions, load_table2


def dataset_dir(name: str) -> Path:
    root = os.environ.get("DIALOSCOPE_DATA_DIR")
    if not root:
        pytest.skip(f"SKIP NOTICE: {name} dataset not available "
                    "(set DIALOSCOPE_DATA_DIR to run this criterion)")
    path = Path(root) / name
    if not path.exists():
        pytest.skip(f"SKIP NOTICE: {name} dataset not found at {path}")
    return path


@pytest.fixture(scope="module")
def lexicon():
    return default_lexicon()


def out_of_tolerance(report, reference, tolerances, default_tolerance, prefix=""):
    """'cell: expected E got A' for each number of a Table 2 reference
    document that `report` misses by more than the cell's tolerance, and for
    each other value that `report` does not equal. Keys starting with `_`
    are notes; a reference key that `report` lacks fails the test."""
    cells = []
    for key, expected in reference.items():
        if key.startswith("_"):
            continue
        cell = prefix + key
        if key not in report:
            pytest.fail(f"reference key missing from report: {cell}")
        actual = report[key]
        if isinstance(expected, dict):
            cells += out_of_tolerance(actual, expected, tolerances, default_tolerance,
                                      cell + ".")
        elif (abs(actual - expected) > tolerances.get(cell, default_tolerance)
              if isinstance(expected, (int, float)) else actual != expected):
            cells.append(f"{cell}: expected {expected} got {actual}")
    return cells


class TestFixtureGroundTruth:
    """Planted synthetic corpus: 100% (δc, category) recovery in < 1 s."""

    def test_full_recovery_under_one_second(self, planted, lexicon):
        corpus, expectations = planted
        start = time.perf_counter()
        recovered = 0
        for (dialog_id, turn_index, domain, slot), exp in expectations.items():
            delta, category, sub_kind = exp
            dialog = corpus.get_dialog(dialog_id)
            result = trace_turn(dialog, turn_index, lexicon)
            trace = {t.slot: t for t in result.slot_traces}[(domain, slot)]
            assert trace.delta_c == delta, (dialog_id, domain, slot)
            assert trace.match.category.value == category, (dialog_id, slot)
            if sub_kind:
                assert trace.match.sub_kind.value == sub_kind, (dialog_id, slot)
            recovered += 1
        elapsed = time.perf_counter() - start
        assert recovered == len(expectations) and recovered > 0
        assert elapsed < 1.0, f"trace recovery took {elapsed:.2f}s (limit 1s)"


class TestTable2Reproduction:
    """Published per-dataset statistics, within stated tolerances."""

    TOLERANCES = {
        "conversationality.nothing_to_predict": 1.0,
        "conversationality.cum_delta0": 1.0,
        "conversationality.cum_delta1": 1.0,
        "conversationality.delta2_plus": 1.0,
        "relaxation": 0.3,
    }

    def _check(self, corpus, reference_name):
        report = analyze_corpus(corpus, default_lexicon(), workers=os.cpu_count() or 1)
        violations = out_of_tolerance(report, load_table2(reference_name),
                                      self.TOLERANCES, default_tolerance=2.0)
        assert not violations, f"{reference_name}: out-of-tolerance cells: {violations}"

    def test_multiwoz_test_split(self):
        path = dataset_dir("multiwoz")
        self._check(load_multiwoz(path, "test"), "table2_multiwoz_test")

    def test_multiwoz_dev_split(self):
        path = dataset_dir("multiwoz")
        self._check(load_multiwoz(path, "dev"), "table2_multiwoz_dev")

    def test_sgd_test_split(self):
        path = dataset_dir("sgd")
        self._check(load_sgd(path, "test"), "table2_sgd_test")


class TestTable2Comparison:
    """`out_of_tolerance` on the fixture report, which needs no dataset."""

    @pytest.fixture
    def report(self, mwz_path, lexicon):
        return analyze_corpus(load_multiwoz(mwz_path), lexicon)

    def test_self_compare_passes(self, report):
        reference = json.loads(json.dumps(report))
        assert out_of_tolerance(report, reference, {}, 1.0) == []
        reference["conversationality"]["nothing_to_predict"] += 0.5
        assert out_of_tolerance(report, reference, {}, 1.0) == []

    def test_cell_past_its_tolerance_is_named(self, report):
        reference = json.loads(json.dumps(report))
        reference["normalization"]["verbatim"] += 5.0
        assert out_of_tolerance(report, reference, {}, 1.0) == [
            f"normalization.verbatim: expected {reference['normalization']['verbatim']} "
            f"got {report['normalization']['verbatim']}"]

    def test_per_cell_tolerance_overrides_the_default(self, report):
        reference = {"relaxation": report["relaxation"] + 2.0}
        assert [cell.split(":")[0] for cell in out_of_tolerance(
            report, reference, {}, 1.0)] == ["relaxation"]
        assert out_of_tolerance(report, reference, {"relaxation": 3.0}, 1.0) == []

    def test_missing_key_fails(self, report):
        with pytest.raises(pytest.fail.Exception,
                           match="missing from report: conversationality.no_such_row$"):
            out_of_tolerance(report, {"conversationality": {"no_such_row": 1.0}}, {}, 1.0)

    def test_notes_are_skipped(self, report):
        reference = {"_comment": "reference notes", "relaxation": report["relaxation"]}
        assert out_of_tolerance(report, reference, {}, 1.0) == []


class TestRelaxationStatistic:
    def test_multiwoz(self):
        corpus = load_multiwoz(dataset_dir("multiwoz"), "test")
        report = analyze_corpus(corpus, default_lexicon())
        assert report["relaxation"] == pytest.approx(2.08, abs=0.3)

    def test_sgd(self):
        corpus = load_sgd(dataset_dir("sgd"), "test")
        report = analyze_corpus(corpus, default_lexicon())
        assert report["relaxation"] == pytest.approx(0.27, abs=0.3)


class TestHistogramShape:
    def test_multiwoz_max_delta_is_17(self):
        corpus = load_multiwoz(dataset_dir("multiwoz"), "test")
        report = analyze_corpus(corpus, default_lexicon())
        buckets = histogram(report)
        assert buckets and max(d for d, _ in buckets) == 17

    def test_sgd_long_tail_and_modal_bucket(self):
        corpus = load_sgd(dataset_dir("sgd"), "test")
        report = analyze_corpus(corpus, default_lexicon())
        buckets = dict(histogram(report))
        assert any(d > 24 and c > 0 for d, c in buckets.items())
        modal = max(buckets, key=lambda d: buckets[d])
        assert modal == 3


class TestSmcalflowFractions:
    def test_refer_revise_on_train_split(self):
        path = dataset_dir("smcalflow")
        train = path / "train.dataflow_dialogues.jsonl"
        if not train.exists():
            pytest.skip(f"SKIP NOTICE: SMCalFlow train split not found at {train}")
        report = analyze_corpus(load_smcalflow(train))
        # per the open-questions resolution, also report the dev split when present
        dev = path / "valid.dataflow_dialogues.jsonl"
        if dev.exists():
            dev_report = analyze_corpus(load_smcalflow(dev))
            print(f"dev split: refer={dev_report['smcalflow']['refer']:.2f} "
                  f"revise={dev_report['smcalflow']['revise']:.2f}")
        assert report["smcalflow"]["refer"] == pytest.approx(29.19, abs=2.0)
        assert report["smcalflow"]["revise"] == pytest.approx(8.77, abs=2.0)


class TestLispressRobustness:
    def test_corpus_wide_parse_print_match(self):
        path = dataset_dir("smcalflow")
        files = sorted(path.glob("*.jsonl"))
        if not files:
            pytest.skip(f"SKIP NOTICE: no SMCalFlow jsonl files under {path}")
        for f in files:
            corpus = load_smcalflow(f)
            for dialog in corpus.dialogs:
                for turn in dialog.user_turns():
                    node = lispress.parse(turn.program)  # must not raise
                    printed = lispress.print_canonical(node)
                    assert lispress.print_canonical(lispress.parse(printed)) \
                        == printed
                    assert lispress.parse(printed) == node

    def test_fixture_programs_round_trip(self, smcalflow_path):
        # same invariants on the bundled fixtures, always run
        corpus = load_smcalflow(smcalflow_path)
        for dialog in corpus.dialogs:
            for turn in dialog.user_turns():
                node = lispress.parse(turn.program)
                printed = lispress.print_canonical(node)
                assert lispress.print_canonical(lispress.parse(printed)) == printed
                assert lispress.parse(printed) == node


class TestEvalCorrectness:
    def test_gold_as_predictions_scores_one(self, mwz_path, smcalflow_path):
        frame = load_multiwoz(mwz_path)
        preds = gold_predictions(frame)
        assert jga(frame, preds, mode="oracle").accuracy == 1.0
        assert jga(frame, preds, mode="accumulated").accuracy == 1.0
        programs = load_smcalflow(smcalflow_path)
        assert exact_match_score(programs, gold_predictions(programs)).accuracy \
            == 1.0

    def test_hand_traced_poisoned_fixture(self, mwz_path):
        corpus = load_multiwoz(mwz_path)
        preds = gold_predictions(corpus)
        # hand-derived: hotel:name is set at turn 0 and never revised, so
        # poisoning it fails exactly turn 0 in oracle mode and all six
        # MUL0635 user turns in accumulated mode
        preds[("MUL0635.json", 0)] = "hotel:name=the wrong hotel"
        oracle = {(d, t): ok for d, t, ok in
                  jga(corpus, preds, mode="oracle").verdicts}
        accumulated = {(d, t): ok for d, t, ok in
                       jga(corpus, preds, mode="accumulated").verdicts}
        expected_oracle = {("MUL0635.json", i): i != 0 for i in (0, 2, 4, 6, 8, 10)}
        expected_oracle.update({("SNG0073.json", i): True for i in (0, 2, 4)})
        expected_accumulated = {("MUL0635.json", i): False
                                for i in (0, 2, 4, 6, 8, 10)}
        expected_accumulated.update({("SNG0073.json", i): True for i in (0, 2, 4)})
        assert oracle == expected_oracle
        assert accumulated == expected_accumulated

    def test_accumulation_identity_corpus_wide(self, mwz_path, sgd_path, planted):
        corpora = [load_multiwoz(mwz_path), load_sgd(sgd_path, "test"),
                   planted[0]]
        for corpus in corpora:
            for dialog in corpus.dialogs:
                running = EMPTY_STATE
                for turn in dialog.user_turns():
                    running = apply_update(
                        running, state_update(running, turn.state))
                    assert running == turn.state, (dialog.dialog_id, turn.index)


class TestLinearizationProperties:
    REPRS = (InputRepresentation.CURRENT_USER_TURN,
             InputRepresentation.PLUS_LAST_AGENT_TURN,
             InputRepresentation.FULL_DIALOG_HISTORY)

    def all_fixture_corpora(self, mwz_path, sgd_path, smcalflow_path, planted):
        return [load_multiwoz(mwz_path), load_sgd(sgd_path, "test"),
                load_smcalflow(smcalflow_path), planted[0]]

    def test_suffix_chain_every_turn(self, mwz_path, sgd_path, smcalflow_path,
                                     planted):
        for corpus in self.all_fixture_corpora(mwz_path, sgd_path,
                                               smcalflow_path, planted):
            for dialog in corpus.dialogs:
                texts = [records_for_dialog(dialog, r, corpus.dataset_kind)
                         for r in self.REPRS]
                for narrower, wider in zip(texts, texts[1:]):
                    for n, w in zip(narrower, wider, strict=True):
                        assert w.turn_index == n.turn_index
                        assert w.input.endswith(n.input), \
                            (corpus.dataset_kind, dialog.dialog_id, n.turn_index)

    def test_record_counts_match_user_turns(self, mwz_path, sgd_path,
                                            smcalflow_path, planted, tmp_path):
        for i, corpus in enumerate(self.all_fixture_corpora(
                mwz_path, sgd_path, smcalflow_path, planted)):
            out = tmp_path / f"records_{i}.jsonl"
            n = emit_dataset(corpus, InputRepresentation.PLUS_LAST_AGENT_TURN,
                             out)
            assert n == corpus.user_turn_count()
            assert len(out.read_text("utf-8").splitlines()) == n

    def test_analysis_identical_across_workers_1_and_8(self, planted):
        corpus, _ = planted
        lexicon = default_lexicon()
        r1 = analyze_corpus(corpus, lexicon, workers=1)
        r8 = analyze_corpus(corpus, lexicon, workers=8)
        assert json.dumps(r1, sort_keys=True) == \
            json.dumps(r8, sort_keys=True)
