"""Scoring of prediction files: Joint Goal Accuracy and exact match.

JGA compares the full cumulative state per user turn; in oracle mode the
predicted update is applied to the gold previous state, in accumulated
mode to the running predicted state. SMCalFlow predictions are compared
program-for-program as parsed trees, with optional honoring of the
dataset's refer_are_incorrect force-zero flag.
"""
from __future__ import annotations

import difflib
import json
import logging
from dataclasses import dataclass, field
from json.encoder import encode_basestring as json_string
from typing import Container, Dict, Iterable, List, Optional, Tuple

from . import lispress
from .corpus import (Corpus, DatasetKind, DONTCARE, EMPTY_STATE, InputError, Slots,
                     Speaker, apply_update, json_lines)
from .linearize import TargetParseError, parse_target

log = logging.getLogger(__name__)

PredKey = Tuple[str, int]


_RECORD_FIELDS = {"dialogue_id", "turn_index", "prediction"}


def load_predictions(path) -> Dict[PredKey, str]:
    """Read a line-delimited JSON predictions file."""
    predictions: Dict[PredKey, str] = {}
    for lineno, rec in json_lines(path):
        # turn_index is a JSON integer: no float, bool or numeric string
        if not (isinstance(rec, dict) and _RECORD_FIELDS <= rec.keys()
                and type(rec["turn_index"]) is int):
            raise InputError(
                f"{path}:{lineno}: need dialogue_id, turn_index, prediction")
        key = (rec["dialogue_id"], rec["turn_index"])
        pred = rec["prediction"]
        for name, value in (("dialogue_id", key[0]), ("prediction", pred)):
            if not isinstance(value, str):
                raise InputError(f"{path}:{lineno}: {name} must be a string, "
                                 f"got {type(value).__name__}")
        if key in predictions:
            raise InputError(f"{path}:{lineno}: duplicate record for {key}")
        predictions[key] = pred
    return predictions


@dataclass
class ScoreReport:
    metric: str
    correct: int = 0
    total: int = 0
    verdicts: List[Tuple[str, int, bool]] = field(default_factory=list)
    missing: int = 0
    unparseable: int = 0
    correct_but_flagged: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def json_text(self) -> str:
        """The report as `eval --out` writes it, as `json.dumps(indent=2,
        ensure_ascii=False)` would. The verdicts, most of the document, are
        formatted directly: the indenting encoder is pure Python."""
        head = json.dumps({
            "metric": self.metric,
            "accuracy": self.accuracy,
            "correct": self.correct,
            "total": self.total,
            "missing_predictions": self.missing,
            "unparseable_predictions": self.unparseable,
            "correct_but_flagged": self.correct_but_flagged,
            "verdicts": [],
        }, indent=2, ensure_ascii=False)
        if not self.verdicts:
            return head + "\n"
        rows = ",\n".join(
            f'    {{\n      "dialogue_id": {json_string(dialog_id)},\n'
            f'      "turn_index": {turn_index},\n'
            f'      "correct": {"true" if correct else "false"}\n    }}'
            for dialog_id, turn_index, correct in self.verdicts)
        # head ends in `"verdicts": []\n}`
        return f"{head[:-4]}[\n{rows}\n  ]\n}}\n"

    def table(self) -> str:
        lines = [
            f"metric                  {self.metric}",
            f"accuracy                {self.accuracy:.4f}",
            f"correct / total         {self.correct} / {self.total}",
            f"missing predictions     {self.missing}",
            f"unparseable predictions {self.unparseable}",
        ]
        if self.correct_but_flagged:
            lines.append(f"correct but flagged     {self.correct_but_flagged}")
        return "\n".join(lines)


def canonical_value(value: str) -> str:
    return " ".join(value.strip().lower().split())


def _values_match(pred: str, gold_alternates, fuzzy: bool = False) -> bool:
    # a verbatim alternate also matches after canonicalizing; in oracle mode
    # every slot the prediction did not touch is gold's own tuple
    if pred in gold_alternates:
        return True
    pred_c = canonical_value(pred)
    gold = [canonical_value(g) for g in gold_alternates]
    if pred_c in gold:
        return True
    if fuzzy and pred_c != DONTCARE:
        return any(
            difflib.SequenceMatcher(None, pred_c, g).ratio() >= 0.9 for g in gold)
    return False


def states_equal(pred: Slots, gold: Slots, fuzzy: bool = False) -> bool:
    """Full-state equality: same keys, each predicted value equal to any
    gold alternate (case-insensitive, whitespace-collapsed)."""
    return pred.keys() == gold.keys() and all(
        _values_match(pred_vals[0], gold[key], fuzzy) for key, pred_vals in pred.items())


def _score(report: ScoreReport, predictions: Dict[PredKey, str],
           verdicts: Iterable[Tuple[PredKey, Optional[bool]]]) -> ScoreReport:
    """Tally one (key, verdict) per user turn; a None verdict marks an
    unparseable prediction. Missing and unparseable predictions are wrong."""
    for key, correct in verdicts:
        report.total += 1
        if key not in predictions:
            report.missing += 1
        elif correct is None:
            report.unparseable += 1
        report.correct += bool(correct)
        report.verdicts.append((*key, bool(correct)))
    _warn_unknown(predictions, {(dialog_id, index) for dialog_id, index, _ in report.verdicts})
    return report


def _warn_unknown(predictions: Dict[PredKey, str], known_keys: Container[PredKey]) -> None:
    """One warning per prediction for a turn not in `known_keys`, in
    predictions-file order."""
    for key in predictions:
        if key not in known_keys:
            log.warning("prediction for unknown turn %s ignored", key)


def _predicted_states(corpus: Corpus, predictions: Dict[PredKey, str], oracle: bool):
    """(key, turn, predicted state, parsed) per user turn, in corpus order.

    Each turn's predicted update is applied to the gold previous state
    (oracle) or to the running predicted state; a missing or unparseable
    prediction (parsed False) applies no update."""
    if corpus.dataset_kind is DatasetKind.SMCALFLOW:
        raise ValueError("JGA applies to MultiWOZ/SGD corpora only")
    for dialog in corpus.dialogs:
        state = gold = EMPTY_STATE
        for turn in dialog.turns:
            if turn.speaker is not Speaker.USER:
                continue
            key = (dialog.dialog_id, turn.index)
            if oracle:
                state = gold
            try:
                update = parse_target(predictions[key]) if key in predictions else None
            except TargetParseError:
                update = None
            if update is not None:
                state = apply_update(state, update)
            if turn.state is not None:
                gold = turn.state
            yield key, turn, state, update is not None


def jga(corpus: Corpus, predictions: Dict[PredKey, str], mode: str = "oracle",
        fuzzy_values: bool = False) -> ScoreReport:
    """Joint Goal Accuracy over all user turns.

    mode "oracle": predicted update applied to the gold previous state;
    mode "accumulated": applied to the running predicted state. Missing or
    unparseable predictions count as wrong.
    """
    if mode not in ("oracle", "accumulated"):
        raise ValueError(f"unknown JGA mode {mode!r}")
    return _score(ScoreReport(metric=f"jga-{mode}"), predictions, (
        (key, states_equal(state, turn.state, fuzzy_values) if parsed else None)
        for key, turn, state, parsed in _predicted_states(corpus, predictions, mode == "oracle")))


def accumulate_predicted_states(corpus: Corpus, predictions: Dict[PredKey, str]
                                ) -> Dict[PredKey, Slots]:
    """Running fold of predicted updates per dialog: the cumulative predicted
    state at each user turn. A missing or unparseable prediction applies no
    update; a prediction for an unknown turn is warned about and ignored."""
    states = {key: state
              for key, _, state, _ in _predicted_states(corpus, predictions, oracle=False)}
    _warn_unknown(predictions, states)
    return states


def exact_match_score(corpus: Corpus, predictions: Dict[PredKey, str],
                      honor_refer_flags: bool = False,
                      strict: bool = False) -> ScoreReport:
    """Per-turn Lispress exact match for SMCalFlow corpora.

    Each prediction is compared with the gold tree the loader parsed. A
    prediction that does not parse counts as unparseable and wrong, in
    strict mode too. With honor_refer_flags, turns carrying
    refer_are_incorrect score 0 no matter the prediction (the dataset
    authors' scorer semantics); such turns whose prediction was actually
    correct are tallied separately.
    """
    if corpus.dataset_kind is not DatasetKind.SMCALFLOW:
        raise ValueError("exact match applies to SMCalFlow corpora only")
    report = ScoreReport(metric="exact-match")
    # prediction text -> its tree, or None if it does not parse: each
    # distinct text is parsed once per call
    trees: Dict[str, Optional[lispress.Node]] = {}

    def verdicts():
        for dialog in corpus.dialogs:
            for turn in dialog.user_turns():
                key = (dialog.dialog_id, turn.index)
                gold = dialog.gold_tree(turn)
                if key not in predictions:
                    yield key, False
                    continue
                text = predictions[key]
                if text not in trees:
                    try:
                        trees[text] = lispress.parse(text)
                    except lispress.LispressError:
                        trees[text] = None
                pred = trees[text]
                if pred is None:
                    yield key, None
                    continue
                # parse(print_canonical(t)) == t for every parsed tree, so
                # equal trees are exactly equal canonical prints
                correct = text == turn.program if strict else pred == gold
                if correct and honor_refer_flags and turn.refer_are_incorrect:
                    report.correct_but_flagged += 1
                    correct = False
                yield key, correct

    return _score(report, predictions, verdicts())
