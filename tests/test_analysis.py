import dataclasses
import json
import os
import pickle
import signal
import sys
import time
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from dialoscope import analysis
from dialoscope.analysis import (ContextClass, analyze_corpus, apply_overrides,
                                 histogram, trace_turn)
from dialoscope.corpus import (Corpus, DatasetKind, Dialog, InputError, Speaker, Turn,
                               load_multiwoz, load_sgd, load_smcalflow, state_update)
from dialoscope.evaluate import jga
from dialoscope.linearize import linearize_target
from dialoscope.lispress import List, Symbol, TypedLiteral, parse
from dialoscope.normalize import MatchCategory, default_lexicon, match_in_text
from conftest import DATA


@pytest.fixture(scope="module")
def lexicon():
    return default_lexicon()


def usable_cpus(monkeypatch, count, machine=None):
    """Let this process run on `count` CPUs of a machine with `machine`
    (default `count`), on any platform."""
    monkeypatch.setattr(analysis.os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: machine or count)


@pytest.fixture
def recording_pool(monkeypatch):
    """The sizes of the pools `analyze_corpus` forks (this process and its
    children), the children's pids and what this process unpickles from
    them. The children really fork; a call that would fork a fourth child
    fails instead."""
    if sys.platform != "linux":
        pytest.skip("analyze_corpus forks its workers on Linux only")
    record = SimpleNamespace(sizes=[], pids=[], received=[])
    fork, loads, forked_tallies = os.fork, pickle.loads, analysis._forked_tallies

    def capped_fork():
        if len(record.pids) == 3:
            raise AssertionError("a fourth worker forked")
        pid = fork()
        if pid:
            record.pids.append(pid)
        return pid

    def recording_loads(data):
        record.received.append(loads(data))
        return record.received[-1]

    def recording(*args):
        record.pids.clear()
        try:
            return forked_tallies(*args)
        finally:
            record.sizes.append(len(record.pids) + 1)

    monkeypatch.setattr(os, "fork", capped_fork)
    monkeypatch.setattr(pickle, "loads", recording_loads)
    monkeypatch.setattr(analysis, "_forked_tallies", recording)
    return record


def no_child_left(pids):
    """Every one of these children has been reaped. (Not every child of
    this process: a spawned pool leaves its resource tracker running.)"""
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


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
        overrides = apply_overrides(DATA / "overrides_multiwoz_examples.tsv")
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
        with pytest.raises(InputError) as exc:
            apply_overrides(p)
        assert ":1" in str(exc.value)

    @pytest.mark.parametrize("value", ["1_0", "+3", "\u0663", "-1"])
    @pytest.mark.parametrize("field", ["turn_index", "delta_c"])
    def test_integers_are_ascii_digits(self, tmp_path, field, value):
        # int() would read these as 10, 3, 3 and -1
        row = {"turn_index": "10", "delta_c": "5", field: value}
        p = tmp_path / "ov.tsv"
        p.write_text(f"# header\nMUL0635.json\t{row['turn_index']}\ttrain\tdestination"
                     f"\t{row['delta_c']}\t-\t-\n", "utf-8")
        with pytest.raises(InputError) as exc:
            apply_overrides(p)
        assert str(exc.value).startswith(f"{p}:2: {field} must be a non-negative integer")

    def test_second_row_for_a_slot_rejected(self, tmp_path):
        p = tmp_path / "ov.tsv"
        p.write_text("MUL0635.json\t10\ttrain\tdestination\t5\t-\t-\n"
                     "MUL0635.json\t10\ttrain\tday\t5\t-\t-\n"
                     "MUL0635.json\t10\ttrain\tdestination\t3\tother\t-\n", "utf-8")
        with pytest.raises(InputError) as exc:
            apply_overrides(p)
        message = str(exc.value)
        assert message.startswith(f"{p}:3: ")
        assert "line 1" in message


    def test_slot_names_are_canonicalized(self, tmp_path, mwz_path, lexicon):
        # slot names as the raw MultiWOZ file spells them; the loader names
        # these slots arriveby, people and destination
        p = tmp_path / "ov.tsv"
        p.write_text("MUL0635.json\t10\ttrain\tarriveBy\t9\t-\t-\n"
                     "MUL0635.json\t10\ttrain\tbook people\t9\t-\t-\n"
                     "MUL0635.json\t10\ttrain\tDestination\t5\t-\t-\n", "utf-8")
        overrides = apply_overrides(p)
        assert sorted(overrides) == [("MUL0635.json", 10, "train", slot)
                                     for slot in ("arriveby", "destination", "people")]
        dialog = load_multiwoz(mwz_path).get_dialog("MUL0635.json")
        trace = {t.slot: t for t in trace_turn(dialog, 10, lexicon, overrides).slot_traces}[
            ("train", "destination")]
        assert trace.delta_c == 5 and trace.overridden

    def test_raw_and_canonical_slot_name_are_one_slot(self, tmp_path):
        p = tmp_path / "ov.tsv"
        p.write_text("MUL0635.json\t10\ttrain\tarriveby\t5\t-\t-\n"
                     "MUL0635.json\t10\ttrain\tarriveBy\t3\t-\t-\n", "utf-8")
        with pytest.raises(InputError) as exc:
            apply_overrides(p)
        message = str(exc.value)
        assert message.startswith(f"{p}:2: second row for ")
        assert "line 1" in message

    def test_lines_end_only_at_newlines(self, tmp_path):
        # str.splitlines() would also break the comment at \u2028, \x85 and
        # \x0c and read its tail as a row
        p = tmp_path / "ov.tsv"
        p.write_text("# adjudicated\u2028by hand\x85see notes\x0cbelow\n"
                     "MUL0635.json\t10\ttrain\tdestination\t5\t-\t-\n", "utf-8")
        assert list(apply_overrides(p)) == [("MUL0635.json", 10, "train", "destination")]


class TestAnalyzeCorpus:
    def test_fixture_report(self, mwz_path, lexicon):
        report = analyze_corpus(load_multiwoz(mwz_path), lexicon)
        assert report["total_user_turns"] == 9
        conv = report["conversationality"]
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
        assert report["relaxation"] == pytest.approx(100 * 1 / 9)

    def test_all_empty_updates(self, lexicon):
        dialog = Dialog("d0", (
            Turn(0, Speaker.USER, "hello", state={}),))
        corpus = Corpus(DatasetKind.MULTIWOZ, "toy", (dialog,))
        report = analyze_corpus(corpus, lexicon)
        assert report["conversationality"]["nothing_to_predict"] == 100.0

    def test_smcalflow_turn_without_parsed_program(self):
        # a hand-built turn with the program text only is an error, not a 0
        turn = Turn(0, Speaker.USER, "hi", program="(refer (x))")
        corpus = Corpus(DatasetKind.SMCALFLOW, "test", (Dialog("d", (turn,)),))
        with pytest.raises(ValueError, match="^dialog d, turn 0: no parsed gold program$"):
            analyze_corpus(corpus)

    def test_smcalflow_refer_revise(self, smcalflow_path):
        report = analyze_corpus(load_smcalflow(smcalflow_path))
        # 4 user turns: 1 refer, 1 revise
        assert report["smcalflow"]["refer"] == pytest.approx(25.0)
        assert report["smcalflow"]["revise"] == pytest.approx(25.0)

    def test_worker_count_does_not_change_result(self, planted, lexicon, monkeypatch):
        # two usable CPUs on any host, so the pool really starts
        usable_cpus(monkeypatch, 2)
        corpus, _ = planted
        assert analyze_corpus(corpus, lexicon, workers=1) == \
            analyze_corpus(corpus, lexicon, workers=2)

    def test_pool_is_clamped_to_cpu_count(self, planted, lexicon, monkeypatch,
                                          recording_pool):
        usable_cpus(monkeypatch, 3, machine=8)
        corpus, _ = planted
        pooled = analyze_corpus(corpus, lexicon, workers=64)
        assert recording_pool.sizes == [3]
        assert pooled == analyze_corpus(corpus, lexicon, workers=1)
        assert recording_pool.sizes == [3]  # one worker runs serially, without forking

    def test_pool_is_clamped_to_dialog_count(self, planted, lexicon, monkeypatch,
                                             recording_pool):
        usable_cpus(monkeypatch, 3)
        planted_corpus, _ = planted
        corpus = Corpus(planted_corpus.dataset_kind, planted_corpus.split,
                        planted_corpus.dialogs[:2])
        pooled = analyze_corpus(corpus, lexicon, workers=3)
        assert recording_pool.sizes == [2]
        assert pooled == analyze_corpus(corpus, lexicon, workers=1)

    def test_one_usable_cpu_runs_serially(self, planted, lexicon, monkeypatch,
                                          recording_pool):
        # taskset -c 0 on a 2-CPU machine
        usable_cpus(monkeypatch, 1, machine=2)
        corpus, _ = planted
        assert analyze_corpus(corpus, lexicon, workers=2) == \
            analyze_corpus(corpus, lexicon, workers=1)
        assert recording_pool.sizes == []

    def test_without_affinity_the_cpu_count_clamps(self, planted, lexicon, monkeypatch,
                                                   recording_pool):
        # macOS and Windows have no sched_getaffinity
        monkeypatch.delattr(analysis.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 2)
        corpus, _ = planted
        analyze_corpus(corpus, lexicon, workers=64)
        assert recording_pool.sizes == [2]

    def test_no_dialog_is_pickled_for_the_pool(self, planted, lexicon, monkeypatch,
                                               recording_pool):
        # forked children inherit the corpus, so nothing is pickled for them,
        # and each sends back one Counter; a dialog that cannot be pickled
        # does not stop the pool
        def refuse(self, protocol):
            raise AssertionError(f"dialog {self.dialog_id} was pickled")

        usable_cpus(monkeypatch, 3)
        monkeypatch.setattr(Dialog, "__reduce_ex__", refuse)
        corpus, _ = planted
        pooled = analyze_corpus(corpus, lexicon, workers=3)
        assert recording_pool.sizes == [3]
        assert [type(tally) for tally in recording_pool.received] == [Counter, Counter]
        assert pooled == analyze_corpus(corpus, lexicon, workers=1)

    def test_spawned_workers_match_serial(self, planted, lexicon, monkeypatch):
        # macOS and Windows start a pool of spawned workers, which pickles
        # the corpus, lexicon and overrides once per worker. analyze_corpus
        # reads the platform through its own `sys` name, so only it takes
        # the spawn branch here
        monkeypatch.setattr(analysis, "sys", SimpleNamespace(platform="darwin"))
        usable_cpus(monkeypatch, 2)
        planted_corpus, _ = planted
        # a value no utterance surfaces, filled in by an override
        unplaced = Dialog("unplaced", (Turn(0, Speaker.USER, "somewhere my wife likes",
                                            {("test", "venue"): ("blue door",)}),))
        corpus = Corpus(planted_corpus.dataset_kind, planted_corpus.split,
                        planted_corpus.dialogs + (unplaced,))
        overrides = {("unplaced", 0, "test", "venue"): analysis.Override(
            3, MatchCategory.OTHER, ContextClass.USER_KNOWLEDGE)}
        serial = analyze_corpus(corpus, lexicon, overrides, workers=1)
        assert serial != analyze_corpus(corpus, lexicon, workers=1)
        assert analyze_corpus(corpus, lexicon, overrides, workers=2) == serial

    def test_normalization_denominator_is_tracked_turns(self, planted, lexicon):
        corpus, _ = planted
        report = analyze_corpus(corpus, lexicon)
        # every tracked turn resolves in exactly one category here
        assert sum(report["normalization"].values()) == pytest.approx(100.0)


class _Unrebuildable(Exception):
    # pickles, but unpickling calls __init__ with one argument
    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


class TestForkedWorkers:
    """A failure in a forked child, or in this process's own share, raises
    here after every child has been killed and reaped."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        usable_cpus(monkeypatch, 2)

    @pytest.fixture(autouse=True)
    def deadline(self):
        # a pipe that never reaches its end would hang the test: fail instead
        def expire(*_):
            raise TimeoutError("analyze_corpus took over 20 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(20)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def fail(self, monkeypatch, how):
        """Run `how(dialog)` in place of tallying each dialog, in this
        process (`parent=True`) or in the children."""
        tally, parent = analysis._tally_dialog, os.getpid()

        def tally_or_fail(dialog, *args):
            how(dialog, os.getpid() == parent)
            return tally(dialog, *args)

        monkeypatch.setattr(analysis, "_tally_dialog", tally_or_fail)

    def test_child_exception_is_raised_with_its_traceback(self, planted, lexicon,
                                                          monkeypatch, recording_pool):
        corpus, _ = planted
        bad = corpus.dialogs[1].dialog_id  # in share 1 of 2: the child's

        def planted_failure(dialog, in_parent):
            if dialog.dialog_id == bad:
                raise ValueError(f"planted failure in {dialog.dialog_id}")

        self.fail(monkeypatch, planted_failure)
        with pytest.raises(ValueError, match=f"^planted failure in {bad}$") as info:
            analyze_corpus(corpus, lexicon, workers=2)
        remote = info.value.__cause__
        assert isinstance(remote, ChildProcessError)
        assert str(remote).startswith(f"analyze worker 1 (pid {recording_pool.pids[0]}) "
                                      "failed:\nTraceback (most recent call last):\n")
        assert "in planted_failure\n" in str(remote)
        assert str(remote).endswith(f"ValueError: planted failure in {bad}\n")
        no_child_left(recording_pool.pids)

    def test_exception_that_cannot_be_rebuilt(self, planted, lexicon, monkeypatch,
                                              recording_pool):
        def unrebuildable(dialog, in_parent):
            if not in_parent:
                raise _Unrebuildable("failure", dialog.dialog_id)

        self.fail(monkeypatch, unrebuildable)
        corpus, _ = planted
        with pytest.raises(ChildProcessError, match=r"^analyze worker 1 \(pid \d+\) failed:\n"
                           r"(.|\n)*_Unrebuildable: failure in \S+\n$"):
            analyze_corpus(corpus, lexicon, workers=2)
        no_child_left(recording_pool.pids)

    def test_killed_child_is_named(self, planted, lexicon, monkeypatch, recording_pool):
        def killed(dialog, in_parent):
            if not in_parent:
                os.kill(os.getpid(), signal.SIGKILL)

        self.fail(monkeypatch, killed)
        corpus, _ = planted
        with pytest.raises(ChildProcessError) as info:
            analyze_corpus(corpus, lexicon, workers=2)
        assert str(info.value) == (f"analyze worker 1 (pid {recording_pool.pids[0]}) "
                                   "ended without a result (killed by SIGKILL)")
        no_child_left(recording_pool.pids)

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_parent_failure_leaves_no_child(self, planted, lexicon, monkeypatch,
                                            recording_pool, error):
        def parent_fails(dialog, in_parent):
            if in_parent:
                raise error("this process's share failed")
            time.sleep(15)  # still at work when this process fails
            os._exit(0)

        self.fail(monkeypatch, parent_fails)
        corpus, _ = planted
        started = time.monotonic()
        with pytest.raises(error, match="^this process's share failed$"):
            analyze_corpus(corpus, lexicon, workers=2)
        assert recording_pool.sizes == [2]
        no_child_left(recording_pool.pids)
        assert time.monotonic() - started < 5  # the child was killed, not awaited


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


def _calls(node, fname) -> bool:
    """True iff some list subterm has Symbol(fname) in head position."""
    if isinstance(node, List):
        if node.children and node.children[0] == Symbol(fname):
            return True
        return any(_calls(c, fname) for c in node.children)
    if isinstance(node, TypedLiteral):
        return _calls(node.child, fname)
    return False


def recount(corpus, lexicon=None, overrides=None) -> dict:
    """The report JSON of `corpus`, counted afresh from what each user turn
    means: `trace_turn` for frame corpora, the parsed gold program for
    SMCalFlow. It shares no code with `analyze_corpus`'s aggregation."""
    turns = [(dialog, turn) for dialog in corpus.dialogs for turn in dialog.user_turns()]
    n = len(turns)

    def pct(count, denom=n):
        return 100.0 * count / denom if denom else 0.0

    doc = {"dataset": corpus.dataset_kind.value, "split": corpus.split,
           "total_user_turns": n, "tracked_turns": 0, "conversationality": {},
           "contextuality": {}, "normalization": {}, "histogram": {},
           "relaxation": 0.0, "smcalflow": {}}
    if corpus.dataset_kind is DatasetKind.SMCALFLOW:
        programs = [parse(turn.program) for _, turn in turns]
        doc["smcalflow"] = {
            name: pct(sum(_calls(p, name) for p in programs))
            for name in ("refer", "revise")}
        return doc

    results = [trace_turn(dialog, turn.index, lexicon, overrides)
               for dialog, turn in turns]
    tracked = [r for r in results if r.slot_traces]
    # a turn's δc is the largest of its slots', and unknown if any is unknown
    deltas = [None if any(t.delta_c is None for t in r.slot_traces)
              else max(t.delta_c for t in r.slot_traces) for r in tracked]
    nothing = n - len(tracked)
    d0, d1 = deltas.count(0), deltas.count(1)
    doc["tracked_turns"] = len(tracked)
    doc["conversationality"] = {
        "nothing_to_predict": pct(nothing),
        "delta0": pct(d0),
        "delta1": pct(d1),
        "cum_delta0": pct(nothing + d0),
        "cum_delta1": pct(nothing + d0 + d1),
        "delta2_plus": pct(sum(1 for d in deltas if d is not None and d >= 2)),
        "unresolved": pct(deltas.count(None)),
    }

    def context_classes(result):
        # a turn with no flagged slot (or no slot at all) is non-contextual
        flagged = {t.context_class for t in result.slot_traces} - {
            ContextClass.NON_CONTEXTUAL}
        return flagged or {ContextClass.NON_CONTEXTUAL}

    doc["contextuality"] = {
        cls.value: pct(sum(cls in context_classes(r) for r in results))
        for cls in ContextClass}

    def category(trace):
        # a typo two or more edits away is reported as "other"
        if trace.match.category is MatchCategory.TYPO and trace.match.distance >= 2:
            return MatchCategory.OTHER
        return trace.match.category

    doc["normalization"] = {
        cat.value: pct(sum(any(category(t) is cat for t in r.slot_traces)
                           for r in tracked), len(tracked))
        for cat in MatchCategory}
    doc["histogram"] = {str(d): deltas.count(d) for d in sorted(
        {d for d in deltas if d is not None and d >= 2})}
    doc["relaxation"] = pct(sum(1 for r in results
                                if r.dropped_count or r.dontcared_count))
    return doc


class TestRecount:
    """Every number of the report, checked against a recount from the
    per-turn traces; the JSON text also fixes the order of the keys."""

    def check(self, corpus, lexicon=None, overrides=None, workers=1):
        actual = analyze_corpus(corpus, lexicon, overrides, workers=workers)
        assert json.dumps(actual) == json.dumps(recount(corpus, lexicon, overrides))

    def test_multiwoz(self, mwz_path, lexicon):
        self.check(load_multiwoz(mwz_path), lexicon)

    def test_multiwoz_with_overrides(self, tmp_path, mwz_path, lexicon):
        p = tmp_path / "ov.tsv"
        p.write_text("MUL0635.json\t10\ttrain\tdestination\t5\tother"
                     "\texternal_knowledge\n", "utf-8")
        self.check(load_multiwoz(mwz_path), lexicon, apply_overrides(p))

    def test_sgd(self, sgd_path, lexicon):
        self.check(load_sgd(sgd_path, "test"), lexicon)

    def test_smcalflow(self, smcalflow_path):
        self.check(load_smcalflow(smcalflow_path))

    def test_smcalflow_programs_shared_across_dialogs(self, tmp_path, smcalflow_raw):
        # each turn of the first dialog again as a dialog of its own: it
        # repeats a program, and so shares its tree, at another turn index
        raw = smcalflow_raw + [{"dialogue_id": f"alone-{i}", "turns": [turn]}
                               for i, turn in enumerate(smcalflow_raw[0]["turns"])]
        path = tmp_path / "calflow.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in raw), "utf-8")
        self.check(load_smcalflow(path))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_planted(self, planted, lexicon, workers):
        corpus, _ = planted
        self.check(corpus, lexicon, workers=workers)

    def test_mixed_turns(self, lexicon):
        # a typo two edits away, two categories in one turn, a dropped slot,
        # overrides with two context classes and an unresolved slot

        def user(i, text, slots):
            return Turn(i, Speaker.USER, text,
                        state={("test", s): (v,) for s, v in slots.items()})

        mix = Dialog("mix", (
            user(0, "a harpsikord and a cello please",
                 {"instrument": "harpsichord", "second": "cello"}),
            Turn(1, Speaker.AGENT, "noted"),
            user(2, "at my usual venue , the usual time",
                 {"second": "cello", "venue": "grand hall", "time": "noon"}),
        ))
        ctx = Dialog("ctx", (
            user(0, "somewhere my wife likes", {"venue": "blue door"}),
            Turn(1, Speaker.AGENT, "certainly"),
            user(2, "thanks", {"venue": "blue door"}),
        ))
        overrides = {
            ("mix", 2, "test", "venue"): analysis.Override(
                None, None, ContextClass.SITUATIONAL),
            ("ctx", 0, "test", "venue"): analysis.Override(
                0, MatchCategory.OTHER, ContextClass.USER_KNOWLEDGE),
        }
        corpus = Corpus(DatasetKind.MULTIWOZ, "toy", (mix, ctx))
        traces = [t for d in corpus.dialogs for u in d.user_turns()
                  for t in trace_turn(d, u.index, lexicon, overrides).slot_traces]
        assert {(t.match.category, t.match.distance) for t in traces} >= {
            (MatchCategory.TYPO, 2), (MatchCategory.VERBATIM, None)}
        self.check(corpus, lexicon, overrides)


def window_predictions(corpus, k, lexicon=None, overrides=None) -> dict:
    """Each user turn's gold update restricted to the slots traced at
    δc <= k, with all its drops and dontcares: the best a model that sees
    only the last k utterances before the user's can do."""
    preds = {}
    for dialog in corpus.dialogs:
        for turn in dialog.user_turns():
            near = {t.slot for t in trace_turn(dialog, turn.index, lexicon,
                                               overrides).slot_traces
                    if t.delta_c is not None and t.delta_c <= k}
            update = state_update(dialog.previous_user_state(turn.index), turn.state)
            preds[(dialog.dialog_id, turn.index)] = linearize_target(dataclasses.replace(
                update, added_or_changed=frozenset(
                    e for e in update.added_or_changed if e[:2] in near)))
    return preds


class TestWindowOracle:
    """The analysis and the scorer agree: oracle JGA of the k-window
    predictions is the share of turns with δc <= k in the report."""

    def test_jga_is_the_conversationality_ceiling(self, mwz_path, sgd_path, planted,
                                                  lexicon):
        corpora = [load_multiwoz(mwz_path), load_sgd(sgd_path, "test"), planted[0]]
        examples = apply_overrides(DATA / "overrides_multiwoz_examples.tsv")

        @settings(max_examples=60, deadline=None)
        @given(st.data())
        def check(data):
            corpus = data.draw(st.sampled_from(corpora))
            keys = data.draw(st.sets(st.sampled_from(sorted(examples))))
            overrides = {key: examples[key] for key in keys}
            k = data.draw(st.integers(0, 8))
            doc = analyze_corpus(corpus, lexicon, overrides)
            conv, n = doc["conversationality"], doc["total_user_turns"]
            expected = conv["cum_delta0"] if k == 0 else conv["cum_delta1"] + sum(
                100.0 * count / n for d, count in histogram(doc) if d <= k)
            score = jga(corpus, window_predictions(corpus, k, lexicon, overrides))
            assert score.accuracy * 100 == pytest.approx(expected)

        check()
