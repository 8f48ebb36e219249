"""The value types built per dialog, turn, state, match, trace, record and
parse node: slotted and unfrozen, with the equality, hashing and pickling
they had as frozen dataclasses; and a loaded corpus that nothing the
library runs on it changes."""
import dataclasses
import pickle

import pytest

from dialoscope import analysis, corpus, linearize, lispress, normalize
from dialoscope.analysis import analyze_corpus, trace_turn
from dialoscope.corpus import (DatasetKind, Dialog, Speaker, StateUpdate, Turn,
                               load_multiwoz, load_sgd, load_smcalflow, state_update)
from dialoscope.evaluate import accumulate_predicted_states, exact_match_score, jga
from dialoscope.linearize import InputRepresentation, emit_dataset, linearize_target
from dialoscope.normalize import EntityKind, MatchCategory, default_lexicon

STATE = {("hotel", "area"): ("north", "centre")}
MATCH = normalize.MatchResult(MatchCategory.TYPO, None, (0, 5), "nortj", 1)
TRACE = analysis.SlotTrace(("hotel", "area"), "north", 1, MATCH)


def examples():
    """For each type that a frozen dataclass gave a hash, a builder that
    takes the value of its last field."""
    return {
        corpus.StateUpdate: lambda last: StateUpdate(
            frozenset({("hotel", "area", ("north",))}), frozenset({("hotel", "name")}),
            frozenset({last})),
        corpus.Turn: lambda last: Turn(0, Speaker.USER, "hi", None, "(f)",
                                       lispress.parse("(f)"), last),
        corpus.Dialog: lambda last: Dialog("d", (Turn(1, Speaker.AGENT, "ok"),), (last,)),
        normalize.Variant: lambda last: normalize.Variant(
            "four", MatchCategory.ENTITY_RECOGNITION, EntityKind(last)),
        normalize.MatchResult: lambda last: normalize.MatchResult(
            MatchCategory.TYPO, None, (0, 5), "nortj", len(last)),
        normalize._MatchPlan: lambda last: normalize._MatchPlan(
            ((MatchCategory.VERBATIM, None, "north", "north"),),
            (("north", 1, 1, frozenset(last)),)),
        analysis.SlotTrace: lambda last: analysis.SlotTrace(
            ("hotel", "area"), "north", 1, MATCH, analysis.ContextClass(last)),
        analysis.TurnAnalysis: lambda last: analysis.TurnAnalysis(
            "d", 2, 1, (TRACE,), 0, len(last)),
        linearize.Seq2SeqRecord: lambda last: linearize.Seq2SeqRecord("d", 0, "[user] hi", last),
        lispress.StringLit: lambda last: lispress.StringLit(last),
        lispress.TypedLiteral: lambda last: lispress.TypedLiteral(
            "Date", lispress.StringLit(last)),
    }


# two values the builder takes for the last field; ("a", "bc") by default
LAST = {corpus.Turn: (False, True), normalize.Variant: ("number", "shortcut"),
        analysis.SlotTrace: ("situational", "unknown")}


class TestValueSemantics:
    @pytest.mark.parametrize("cls", list(examples()), ids=lambda c: c.__qualname__)
    def test_field_equality_and_hash(self, cls):
        build = examples()[cls]
        first, second = LAST.get(cls, ("a", "bc"))
        a, b, other = build(first), build(first), build(second)
        assert a is not b and a == b and not a != b
        assert a != other and not a == other
        fields = tuple(getattr(a, f.name) for f in dataclasses.fields(cls))
        # what a frozen dataclass hashed: the tuple of its fields
        assert hash(a) == hash(b) == hash(fields)
        assert len({a, b, other}) == 2
        assert pickle.loads(pickle.dumps(a)) == a

    @pytest.mark.parametrize("cls", list(examples()) + [lispress.List],
                             ids=lambda c: c.__qualname__)
    def test_slotted_types_reject_unknown_attributes(self, cls):
        node = lispress.StringLit("x")
        obj = (examples()[cls](LAST.get(cls, "a")[0]) if cls in examples()
               else lispress.List([node]))
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.note = "x"

    def test_nodes_of_different_kinds_differ(self):
        assert lispress.Symbol("x") != lispress.StringLit("x")
        assert lispress.Number("1") != lispress.StringLit("1")
        assert lispress.List([lispress.Symbol("x")]) != lispress.List([lispress.StringLit("x")])

    def test_list_compares_and_hashes_by_children(self):
        tree = lispress.parse('(f "x" #(Date "y") 1 #z)')
        again = lispress.parse('(f "x" #(Date "y") 1 #z)')
        assert tree is not again and tree == again
        assert hash(tree) == hash(again) == hash(tuple(tree.children))
        assert len({tree, again, lispress.parse('(f "x")')}) == 2
        assert pickle.loads(pickle.dumps(tree)) == tree

    def test_turn_with_a_state_stays_unhashable(self):
        turn = Turn(0, Speaker.USER, "north", STATE)
        assert turn == Turn(0, Speaker.USER, "north", dict(STATE))
        # the first alternate is the one a linearized state shows
        assert turn != Turn(0, Speaker.USER, "north", {("hotel", "area"): ("centre", "north")})
        assert turn != Turn(0, Speaker.USER, "north", {})
        with pytest.raises(TypeError):
            hash(turn)

    def test_pickled_dialog_keeps_a_shared_state_shared(self):
        # SGD turns whose frames changed nothing share one state; this is
        # what a spawned analyze pool sends each worker
        dialog = Dialog("d", (Turn(0, Speaker.USER, "north", STATE),
                              Turn(1, Speaker.AGENT, "ok"),
                              Turn(2, Speaker.USER, "yes", STATE)), ("hotels",))
        copy = pickle.loads(pickle.dumps(dialog))
        assert copy == dialog
        assert copy.turns[0].state is copy.turns[2].state
        assert copy.turns[0].state == STATE

    def test_pickled_dialogs_keep_a_shared_tree_shared(self, smcalflow_repeated_path):
        # turns with equal programs share one tree, within and across dialogs;
        # a spawned analyze pool sends each worker the dialogs in one pickle
        dialogs = load_smcalflow(smcalflow_repeated_path).dialogs
        copy = pickle.loads(pickle.dumps(dialogs))
        assert copy == dialogs
        first, second = (d.user_turns() for d in copy)
        assert first[1].tree is first[2].tree
        assert first[0].tree is second[0].tree
        assert first[0].tree == lispress.parse(first[0].program)

    @pytest.mark.parametrize("text, cls", [("x", lispress.Symbol), ("1", lispress.Number)])
    def test_shared_atoms_stay_frozen(self, text, cls):
        # the parser's atom cache hands one node to every tree
        node = lispress.parse(text)
        assert type(node) is cls and lispress.parse(f"(f {text})").children[1] is node
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, dataclasses.fields(cls)[0].name, "y")


# ---------------------------------------------------------------------------
# nothing the library runs changes a loaded corpus
# ---------------------------------------------------------------------------

def snapshot(corp, trees):
    """Every turn field, each state's entries and the print of each of
    `trees`, as values that a later change to the corpus cannot reach."""
    return ([(d.dialog_id, d.services,
              [(t.index, t.speaker, t.utterance, t.program, t.refer_are_incorrect,
                None if t.state is None else list(t.state.items()))
               for t in d.turns])
             for d in corp.dialogs],
            [lispress.print_canonical(tree) for tree in trees])


def some_predictions(corp):
    """Gold predictions, with every third one wrong and every fourth missing."""
    preds = {}
    for dialog in corp.dialogs:
        prev = {}
        for k, turn in enumerate(dialog.user_turns()):
            key = (dialog.dialog_id, turn.index)
            if corp.dataset_kind is DatasetKind.SMCALFLOW:
                preds[key] = "(Wrong" if k % 3 == 2 else turn.program
            elif k % 4 != 3:
                preds[key] = ("pred:slot=x" if k % 3 == 2
                              else linearize_target(state_update(prev, turn.state)))
            if turn.state is not None:
                prev = turn.state
    return preds


def run_everything(corp, out_dir):
    """Run every library call on `corp`; after each one, the empty state
    that every dialog starts from is still empty."""
    def run(call, *args, **kwargs):
        result = call(*args, **kwargs)
        assert corpus.EMPTY_STATE == {}, f"{call.__name__} changed EMPTY_STATE"
        return result

    preds = some_predictions(corp)
    lexicon = default_lexicon()
    if corp.dataset_kind is DatasetKind.SMCALFLOW:
        run(exact_match_score, corp, preds)
        predicted = [None]
    else:
        for dialog in corp.dialogs:
            for turn in dialog.user_turns():
                run(trace_turn, dialog, turn.index, lexicon)
        run(jga, corp, preds, mode="oracle")
        run(jga, corp, preds, mode="accumulated")
        predicted = [None, run(accumulate_predicted_states, corp, preds)]
    for workers in (1, 2):
        run(analyze_corpus, corp, lexicon, workers=workers)
    for repr in InputRepresentation:
        if (corp.dataset_kind is DatasetKind.SMCALFLOW
                and repr is InputRepresentation.PLUS_PREVIOUS_DIALOG_STATE):
            continue  # a ValueError: an SMCalFlow dialog has no slot state
        for states in predicted:
            run(emit_dataset, corp, repr, out_dir / f"{repr.value}.jsonl", states)


class TestCorpusIsNotMutated:
    def _check(self, corp, out_dir):
        # the loaded trees themselves: every call on the corpus shares them
        trees = [t.tree for d in corp.dialogs for t in d.user_turns() if t.tree is not None]
        before = snapshot(corp, trees)
        run_everything(corp, out_dir)
        assert snapshot(corp, trees) == before

    def test_fixtures(self, mwz_path, sgd_path, smcalflow_path, tmp_path):
        self._check(load_multiwoz(mwz_path), tmp_path)
        self._check(load_sgd(sgd_path, "test"), tmp_path)
        self._check(load_smcalflow(smcalflow_path), tmp_path)

    def test_smcalflow_with_repeated_programs(self, smcalflow_repeated_path, tmp_path):
        # turns with equal programs share one tree, so a change made through
        # one turn's tree would show in another turn's
        self._check(load_smcalflow(smcalflow_repeated_path), tmp_path)

    def test_planted(self, planted, tmp_path):
        self._check(planted[0], tmp_path)
