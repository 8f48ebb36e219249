"""Conversational-distance tracing and corpus-level aggregation.

For every (slot, value) a user turn adds or changes, search backward from
the current utterance until the value (or a generated variant of it)
surfaces; the number of utterances rewound is the slot's conversational
distance. Values the matcher cannot place are either filled in from a
manual-adjudication override file or reported as unresolved.
"""
from __future__ import annotations

import logging
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .corpus import Corpus, DatasetKind, Dialog, Speaker, gold_program_error, state_update
from .lispress import LispressError, contains_call, parse
from .normalize import Lexicon, MatchCategory, MatchResult, match_in_text

log = logging.getLogger(__name__)

# typo matches needing 2 edits are counted in the "other" bucket, alongside
# curated-other phrases and manual overrides
_OTHER_TYPO_DISTANCE = 2


class ContextClass(str, Enum):
    NON_CONTEXTUAL = "non_contextual"
    SITUATIONAL = "situational"
    USER_KNOWLEDGE = "user_knowledge"
    EXTERNAL_KNOWLEDGE = "external_knowledge"
    UNKNOWN = "unknown"


class TurnKind(str, Enum):
    NOTHING_TO_PREDICT = "nothing_to_predict"
    TRACKED = "tracked"


@dataclass(frozen=True)
class SlotTrace:
    slot: Tuple[str, str]
    value: str
    delta_c: Optional[int]
    match: MatchResult
    context_class: ContextClass = ContextClass.NON_CONTEXTUAL
    overridden: bool = False

    @property
    def report_category(self) -> MatchCategory:
        if (self.match.category is MatchCategory.TYPO
                and (self.match.distance or 0) >= _OTHER_TYPO_DISTANCE):
            return MatchCategory.OTHER
        return self.match.category


@dataclass(frozen=True)
class TurnAnalysis:
    dialog_id: str
    turn_index: int
    kind: TurnKind
    turn_delta_c: Optional[int]
    slot_traces: Tuple[SlotTrace, ...]
    dropped_count: int = 0
    dontcared_count: int = 0

    @property
    def relaxes(self) -> bool:
        return bool(self.dropped_count or self.dontcared_count)

    @property
    def unresolved(self) -> bool:
        return self.kind is TurnKind.TRACKED and self.turn_delta_c is None


# ---------------------------------------------------------------------------
# overrides
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Override:
    delta_c: Optional[int]
    category: Optional[MatchCategory]
    context_class: Optional[ContextClass]


OverrideKey = Tuple[str, int, str, str]
Overrides = Dict[OverrideKey, Override]

_OVERRIDE_CATEGORIES = {"computation": MatchCategory.COMPUTATION,
                        "other": MatchCategory.OTHER}


class OverrideError(ValueError):
    pass


def apply_overrides(path) -> Overrides:
    """Parse a tab-separated manual-adjudication file."""
    overrides: Overrides = {}
    try:
        text = Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise OverrideError(f"{path}: not UTF-8 text: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 7:
            raise OverrideError(f"{path}:{lineno}: expected 7 tab-separated fields")
        dialog_id, turn_index, domain, slot, delta_c, category, context = (
            p.strip() for p in parts)
        try:
            idx = int(turn_index)
        except ValueError:
            raise OverrideError(f"{path}:{lineno}: turn_index must be an integer")
        delta = None
        if delta_c != "-":
            try:
                delta = int(delta_c)
            except ValueError:
                raise OverrideError(f"{path}:{lineno}: delta_c must be an integer or '-'")
        cat = None
        if category != "-":
            if category not in _OVERRIDE_CATEGORIES:
                raise OverrideError(
                    f"{path}:{lineno}: category must be one of "
                    f"{sorted(_OVERRIDE_CATEGORIES)} or '-'")
            cat = _OVERRIDE_CATEGORIES[category]
        ctx = None
        if context != "-":
            try:
                ctx = ContextClass(context)
            except ValueError:
                raise OverrideError(f"{path}:{lineno}: unknown context class {context!r}")
        overrides[(dialog_id, idx, domain, slot)] = Override(delta, cat, ctx)
    return overrides


# ---------------------------------------------------------------------------
# per-turn tracing
# ---------------------------------------------------------------------------

def trace_turn(dialog: Dialog, turn_index: int, lexicon: Optional[Lexicon] = None,
               overrides: Optional[Overrides] = None) -> TurnAnalysis:
    """Backward-search every added/changed slot of a user turn.

    The current user turn is distance 0, the preceding agent turn 1, and
    so on down to the dialog opening. Overrides only ever fill traces the
    matcher left unresolved.
    """
    if turn_index < 0 or turn_index >= len(dialog.turns):
        raise ValueError(f"turn index {turn_index} out of range for {dialog.dialog_id}")
    turn = dialog.turns[turn_index]
    if turn.speaker is not Speaker.USER or turn.state is None:
        raise ValueError(
            f"{dialog.dialog_id}: turn {turn_index} is not a user turn with a state")
    overrides = overrides or {}
    prev = dialog.previous_user_state(turn_index)
    update = state_update(prev, turn.state)

    traces: List[SlotTrace] = []
    for domain, slot, values in sorted(update.added_or_changed):
        best: Optional[Tuple[int, MatchResult, str]] = None
        for distance in range(turn_index + 1):
            i = turn_index - distance
            for value in values:
                result = match_in_text(value, (domain, slot),
                                       dialog.turns[i].utterance, lexicon)
                if result.resolved:
                    if best is None or _category_rank(result) < _category_rank(best[1]):
                        best = (distance, result, value)
            if best is not None:
                break
        key = (dialog.dialog_id, turn_index, domain, slot)
        override = overrides.get(key)
        if best is not None:
            if override is not None:
                log.warning("override for resolved slot %s ignored", key)
            traces.append(SlotTrace((domain, slot), best[2], best[0], best[1]))
        elif override is not None:
            traces.append(SlotTrace(
                (domain, slot), values[0], override.delta_c,
                MatchResult(override.category or MatchCategory.UNRESOLVED),
                override.context_class or ContextClass.UNKNOWN,
                overridden=True))
        else:
            traces.append(SlotTrace(
                (domain, slot), values[0], None,
                MatchResult(MatchCategory.UNRESOLVED), ContextClass.UNKNOWN))

    kind = TurnKind.NOTHING_TO_PREDICT if not update.added_or_changed else TurnKind.TRACKED
    turn_delta = None
    if kind is TurnKind.TRACKED and all(t.delta_c is not None for t in traces):
        turn_delta = max(t.delta_c for t in traces)
    return TurnAnalysis(dialog.dialog_id, turn_index, kind, turn_delta, tuple(traces),
                        dropped_count=len(update.dropped),
                        dontcared_count=len(update.dontcared))


def _category_rank(result: MatchResult) -> int:
    order = [MatchCategory.VERBATIM, MatchCategory.ENTITY_RECOGNITION,
             MatchCategory.SEMANTIC_UNDERSTANDING, MatchCategory.COMPUTATION,
             MatchCategory.OTHER, MatchCategory.TYPO]
    return order.index(result.category) if result.category in order else len(order)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

@dataclass
class AnalysisReport:
    """Aggregated per-turn statistics; all fractions are percentages (0-100).

    Conversationality and contextuality are over all user turns;
    normalization is over tracked turns (turns with a non-empty update) and
    may sum above 100 since a turn can feature several effects.
    """
    dataset_kind: str
    split: str
    total_user_turns: int
    tracked_turns: int
    conversationality: Dict[str, float] = field(default_factory=dict)
    contextuality: Dict[str, float] = field(default_factory=dict)
    normalization: Dict[str, float] = field(default_factory=dict)
    histogram_counts: Dict[int, int] = field(default_factory=dict)
    relaxation: float = 0.0
    smcalflow: Dict[str, float] = field(default_factory=dict)


@dataclass
class _Tally:
    user_turns: int = 0
    nothing: int = 0
    delta: Counter = field(default_factory=Counter)
    unresolved_turns: int = 0
    tracked: int = 0
    norm_turns: Counter = field(default_factory=Counter)
    context_turns: Counter = field(default_factory=Counter)
    relax_turns: int = 0
    refer_turns: int = 0
    revise_turns: int = 0

    def merge(self, other: "_Tally") -> "_Tally":
        self.user_turns += other.user_turns
        self.nothing += other.nothing
        self.delta.update(other.delta)
        self.unresolved_turns += other.unresolved_turns
        self.tracked += other.tracked
        self.norm_turns.update(other.norm_turns)
        self.context_turns.update(other.context_turns)
        self.relax_turns += other.relax_turns
        self.refer_turns += other.refer_turns
        self.revise_turns += other.revise_turns
        return self


def _tally_frame_dialog(dialog: Dialog, lexicon: Optional[Lexicon],
                        overrides: Optional[Overrides]) -> _Tally:
    tally = _Tally()
    for turn in dialog.user_turns():
        analysis = trace_turn(dialog, turn.index, lexicon, overrides)
        tally.user_turns += 1
        if analysis.relaxes:
            tally.relax_turns += 1
        if analysis.kind is TurnKind.NOTHING_TO_PREDICT:
            tally.nothing += 1
            tally.context_turns["non_contextual"] += 1
            continue
        tally.tracked += 1
        for category in {t.report_category.value for t in analysis.slot_traces}:
            tally.norm_turns[category] += 1
        flagged = {t.context_class for t in analysis.slot_traces} - {
            ContextClass.NON_CONTEXTUAL}
        if not flagged:
            tally.context_turns["non_contextual"] += 1
        else:
            for ctx in flagged:
                tally.context_turns[ctx.value] += 1
        if analysis.turn_delta_c is None:
            tally.unresolved_turns += 1
        else:
            tally.delta[analysis.turn_delta_c] += 1
    return tally


def _tally_program_dialog(dialog: Dialog) -> _Tally:
    tally = _Tally()
    for turn in dialog.user_turns():
        tally.user_turns += 1
        try:
            program = parse(turn.program or "")
        except LispressError as exc:
            raise gold_program_error(dialog.dialog_id, turn.index, exc) from exc
        if contains_call(program, "refer"):
            tally.refer_turns += 1
        if contains_call(program, "revise"):
            tally.revise_turns += 1
    return tally


def _tally_dialog(dialog: Dialog, kind: DatasetKind, lexicon: Optional[Lexicon],
                 overrides: Optional[Overrides]) -> _Tally:
    if kind is DatasetKind.SMCALFLOW:
        return _tally_program_dialog(dialog)
    return _tally_frame_dialog(dialog, lexicon, overrides)


# set once per pool worker, so the lexicon and overrides are pickled once
# per worker and the lexicon's match-plan cache stays warm across dialogs
_worker_args: tuple = ()


def _init_worker(kind: DatasetKind, lexicon: Optional[Lexicon],
                 overrides: Optional[Overrides]) -> None:
    global _worker_args
    _worker_args = (kind, lexicon, overrides)


def _tally_in_worker(dialog: Dialog) -> _Tally:
    return _tally_dialog(dialog, *_worker_args)


def analyze_corpus(corpus: Corpus, lexicon: Optional[Lexicon] = None,
                   overrides: Optional[Overrides] = None,
                   workers: int = 1) -> AnalysisReport:
    """Aggregate per-turn traces into corpus-level percentages.

    The merge is pure counting (associative and commutative), so results
    are identical for any worker count. The pool never exceeds the CPU count.
    """
    kind = corpus.dataset_kind
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and len(corpus.dialogs) > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(kind, lexicon, overrides)) as pool:
            tallies = list(pool.map(_tally_in_worker, corpus.dialogs, chunksize=16))
    else:
        tallies = [_tally_dialog(d, kind, lexicon, overrides) for d in corpus.dialogs]
    total = _Tally()
    for t in tallies:
        total.merge(t)

    n = total.user_turns
    report = AnalysisReport(corpus.dataset_kind.value, corpus.split, n, total.tracked)
    if n == 0:
        return report

    def pct(x, denom=n):
        return 100.0 * x / denom if denom else 0.0

    if corpus.dataset_kind is DatasetKind.SMCALFLOW:
        report.smcalflow = {
            "refer": pct(total.refer_turns),
            "revise": pct(total.revise_turns),
        }
        return report

    d0 = total.delta.get(0, 0)
    d1 = total.delta.get(1, 0)
    d2 = sum(c for d, c in total.delta.items() if d >= 2)
    report.conversationality = {
        "nothing_to_predict": pct(total.nothing),
        "delta0": pct(d0),
        "delta1": pct(d1),
        "cum_delta0": pct(total.nothing + d0),
        "cum_delta1": pct(total.nothing + d0 + d1),
        "delta2_plus": pct(d2),
        "unresolved": pct(total.unresolved_turns),
    }
    report.contextuality = {
        cls.value: pct(total.context_turns.get(cls.value, 0)) for cls in ContextClass
    }
    norm_order = [MatchCategory.VERBATIM, MatchCategory.TYPO,
                  MatchCategory.ENTITY_RECOGNITION,
                  MatchCategory.SEMANTIC_UNDERSTANDING,
                  MatchCategory.COMPUTATION, MatchCategory.OTHER,
                  MatchCategory.UNRESOLVED]
    report.normalization = {
        cat.value: pct(total.norm_turns.get(cat.value, 0), total.tracked)
        for cat in norm_order
    }
    report.histogram_counts = {d: c for d, c in sorted(total.delta.items()) if d >= 2}
    report.relaxation = pct(total.relax_turns)
    return report


def histogram(report: AnalysisReport) -> List[Tuple[int, int]]:
    """Ordered (delta_c, count) buckets for delta_c from 2 to the observed
    maximum; intermediate empty buckets are included with count 0."""
    if not report.histogram_counts:
        return []
    top = max(report.histogram_counts)
    return [(d, report.histogram_counts.get(d, 0)) for d in range(2, top + 1)]
