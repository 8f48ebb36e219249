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
import signal
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Dict, List, NoReturn, Optional, Sequence, Tuple

from .corpus import (Corpus, DatasetKind, Dialog, InputError, Speaker, canonical_slot,
                     state_update, text_lines)
from .lispress import call_heads
from .normalize import CATEGORY_RANK, Lexicon, MatchCategory, MatchResult, match_in_text

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


@dataclass(slots=True, unsafe_hash=True)
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


@dataclass(slots=True, unsafe_hash=True)
class TurnAnalysis:
    """A user turn's traces; empty `slot_traces` means nothing to predict."""
    dialog_id: str
    turn_index: int
    turn_delta_c: Optional[int]
    slot_traces: Tuple[SlotTrace, ...]
    dropped_count: int = 0
    dontcared_count: int = 0

    @property
    def relaxes(self) -> bool:
        return bool(self.dropped_count or self.dontcared_count)


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


def _natural(text: str) -> Optional[int]:
    """`text` as a non-negative integer in ASCII digits, else None: no sign,
    no `_` separator, no other script's digits, no more digits than int()
    converts."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # past the int/str conversion digit limit
        return None


def apply_overrides(path) -> Overrides:
    """Parse a tab-separated manual-adjudication file, one row per slot."""
    overrides: Overrides = {}
    lines: Dict[OverrideKey, int] = {}
    for lineno, line in text_lines(path):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 7:
            raise InputError(f"{path}:{lineno}: expected 7 tab-separated fields")
        dialog_id, turn_index, domain, slot, delta_c, category, context = (
            p.strip() for p in parts)
        idx = _natural(turn_index)
        if idx is None:
            raise InputError(f"{path}:{lineno}: turn_index must be a non-negative integer")
        delta = None
        if delta_c != "-":
            delta = _natural(delta_c)
            if delta is None:
                raise InputError(
                    f"{path}:{lineno}: delta_c must be a non-negative integer or '-'")
        cat = None
        if category != "-":
            if category not in _OVERRIDE_CATEGORIES:
                raise InputError(
                    f"{path}:{lineno}: category must be one of "
                    f"{sorted(_OVERRIDE_CATEGORIES)} or '-'")
            cat = _OVERRIDE_CATEGORIES[category]
        ctx = None
        if context != "-":
            try:
                ctx = ContextClass(context)
            except ValueError:
                raise InputError(f"{path}:{lineno}: unknown context class {context!r}")
        key = (dialog_id, idx, domain, canonical_slot(slot))
        if key in lines:
            raise InputError(f"{path}:{lineno}: second row for {key}, "
                             f"first on line {lines[key]}")
        lines[key] = lineno
        overrides[key] = Override(delta, cat, ctx)
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

    turns = dialog.turns
    traces: List[SlotTrace] = []
    for domain, slot, values in sorted(update.added_or_changed):
        slot_key = (domain, slot)
        best: Optional[Tuple[int, MatchResult, str]] = None
        for distance in range(turn_index + 1):
            utterance = turns[turn_index - distance].utterance
            for value in values:
                result = match_in_text(value, slot_key, utterance, lexicon)
                if result.resolved:
                    if (best is None or CATEGORY_RANK[result.category]
                            < CATEGORY_RANK[best[1].category]):
                        best = (distance, result, value)
            if best is not None:
                break
        key = (dialog.dialog_id, turn_index, domain, slot)
        override = overrides.get(key)
        if best is not None:
            if override is not None:
                log.warning("override for resolved slot %s ignored", key)
            traces.append(SlotTrace(slot_key, best[2], best[0], best[1]))
        elif override is not None:
            traces.append(SlotTrace(
                slot_key, values[0], override.delta_c,
                MatchResult(override.category or MatchCategory.UNRESOLVED),
                override.context_class or ContextClass.UNKNOWN,
                overridden=True))
        else:
            traces.append(SlotTrace(
                slot_key, values[0], None,
                MatchResult(MatchCategory.UNRESOLVED), ContextClass.UNKNOWN))

    turn_delta = None
    if traces and all(t.delta_c is not None for t in traces):
        turn_delta = max(t.delta_c for t in traces)
    return TurnAnalysis(dialog.dialog_id, turn_index, turn_delta, tuple(traces),
                        dropped_count=len(update.dropped),
                        dontcared_count=len(update.dontcared))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

# A dialog's tally counts its user turns by report cell: "user_turns",
# "tracked" (a non-empty update), "relaxed", ("delta", turn δc or None when
# unresolved), ("norm", MatchCategory), ("context", ContextClass), and for
# SMCalFlow "refer" and "revise".

def _tally_frame_dialog(dialog: Dialog, lexicon: Optional[Lexicon],
                        overrides: Optional[Overrides]) -> Counter:
    tally: Counter = Counter()
    non_contextual = ContextClass.NON_CONTEXTUAL
    for turn in dialog.user_turns():
        traced = trace_turn(dialog, turn.index, lexicon, overrides)
        traces = traced.slot_traces
        tally["user_turns"] += 1
        if traced.relaxes:
            tally["relaxed"] += 1
        # each distinct class or category counts the turn once
        flagged = {t.context_class for t in traces}
        flagged.discard(non_contextual)
        for ctx in flagged or (non_contextual,):
            tally["context", ctx] += 1
        if traces:
            tally["tracked"] += 1
            tally["delta", traced.turn_delta_c] += 1
            for category in {t.report_category for t in traces}:
                tally["norm", category] += 1
    return tally


# the id of an SMCalFlow gold tree -> the names of ("refer", "revise") it
# calls; one per share of the dialogs (one per spawned pool worker), whose
# corpus keeps every tree alive, so turns that share a tree walk it once
HeadMemo = Dict[int, Tuple[str, ...]]


def _tally_program_dialog(dialog: Dialog, heads: HeadMemo) -> Counter:
    tally: Counter = Counter()
    for turn in dialog.user_turns():
        tally["user_turns"] += 1
        tree = dialog.gold_tree(turn)
        names = heads.get(id(tree))
        if names is None:
            called = call_heads(tree)
            names = heads[id(tree)] = tuple(
                name for name in ("refer", "revise") if name in called)
        tally.update(names)
    return tally


def _tally_dialog(dialog: Dialog, kind: DatasetKind, lexicon: Optional[Lexicon],
                 overrides: Optional[Overrides], heads: HeadMemo) -> Counter:
    if kind is DatasetKind.SMCALFLOW:
        return _tally_program_dialog(dialog, heads)
    return _tally_frame_dialog(dialog, lexicon, overrides)


def _tally_share(dialogs: Sequence[Dialog], kind: DatasetKind, lexicon: Optional[Lexicon],
                 overrides: Optional[Overrides]) -> Counter:
    heads: HeadMemo = {}
    total: Counter = Counter()
    for dialog in dialogs:
        total.update(_tally_dialog(dialog, kind, lexicon, overrides, heads))
    return total


def _tally_in_child(sink: BinaryIO, dialogs: Sequence[Dialog], kind: DatasetKind,
                    lexicon: Optional[Lexicon], overrides: Optional[Overrides]) -> NoReturn:
    """A forked child's whole life: tally its share, write the pickled
    `Counter`, or the exception and its traceback, to `sink`, and exit
    without running the parent's cleanup or flushing its copies of the
    parent's output buffers."""
    import pickle
    code = 1
    try:
        try:
            result = pickle.dumps(_tally_share(dialogs, kind, lexicon, overrides))
        except BaseException as exc:  # raised again in the parent
            text = traceback.format_exc()
            try:
                result = pickle.dumps((exc, text))
                pickle.loads(result)  # the parent must be able to rebuild it
            except Exception:
                result = pickle.dumps((None, text))
        sink.write(result)
        sink.flush()
        code = 0
    finally:
        os._exit(code)


def _received(data: bytes, worker: int, pid: int, status: int) -> Counter:
    """The tally a child sent, or its exception raised here."""
    import pickle
    name = f"analyze worker {worker} (pid {pid})"
    try:
        result = pickle.loads(data)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit code {code}"
        raise ChildProcessError(f"{name} ended without a result ({how})") from None
    if isinstance(result, Counter):
        return result
    error, text = result
    remote = ChildProcessError(f"{name} failed:\n{text}")
    if error is None:
        raise remote
    raise error from remote


def _forked_tallies(dialogs: Sequence[Dialog], workers: int, kind: DatasetKind,
                    lexicon: Optional[Lexicon], overrides: Optional[Overrides]) -> List[Counter]:
    """Fork `workers - 1` children; child k tallies `dialogs[k::workers]`
    and this process tallies share 0. A child inherits the corpus, so
    nothing is pickled for it, and it sends back one pickled `Counter`
    through its own pipe. On any failure, here or in a child, every child
    is killed and reaped before the exception propagates."""
    pipes: List[BinaryIO] = []
    running: List[int] = []  # children not yet reaped, in share order
    try:
        for k in range(1, workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    _tally_in_child(sink, dialogs[k::workers], kind, lexicon, overrides)
                running.append(pid)
        tallies = [_tally_share(dialogs[::workers], kind, lexicon, overrides)]
        for k, pipe in enumerate(pipes, 1):
            data = pipe.read()
            pid = running[0]
            status = os.waitpid(pid, 0)[1]
            del running[0]
            tallies.append(_received(data, k, pid, status))
        return tallies
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


# set once per spawned pool worker, so the corpus, lexicon and overrides
# reach each worker once, a task is a dialog index, and the lexicon's
# match-plan cache stays warm across dialogs
_worker_args: tuple = ()


def _init_worker(dialogs: Tuple[Dialog, ...], kind: DatasetKind,
                 lexicon: Optional[Lexicon], overrides: Optional[Overrides]) -> None:
    # runs once per worker: a task then carries only a dialog index, and
    # the worker's lexicon keeps its match plans from dialog to dialog
    global _worker_args
    _worker_args = (dialogs, kind, lexicon, overrides, {})


def _tally_in_worker(index: int) -> Counter:
    dialogs, kind, lexicon, overrides, heads = _worker_args
    return _tally_dialog(dialogs[index], kind, lexicon, overrides, heads)


def analyze_corpus(corpus: Corpus, lexicon: Optional[Lexicon] = None,
                   overrides: Optional[Overrides] = None,
                   workers: int = 1) -> dict:
    """Aggregate per-turn traces into the report document `analyze --out`
    writes.

    Every value is a percentage (0-100). Conversationality, contextuality
    and relaxation are over all user turns; normalization is over tracked
    turns (turns with a non-empty update) and may sum above 100 since a
    turn can feature several effects. `histogram` counts tracked turns by
    δc from 2 up, keyed by δc as a string so the document survives a JSON
    round trip.

    The merge is pure counting (associative and commutative), so results
    are identical for any worker count. `workers` is first clamped to the
    CPUs this process may run on and to the number of dialogs. On Linux
    this process then tallies one share of the dialogs and `workers - 1`
    forked children tally the rest, which is unsafe in a process that runs
    other threads; a child's warnings go to the inherited stderr. Elsewhere
    a pool of spawned workers, which pickles the corpus once per worker,
    tallies every dialog.
    """
    kind = corpus.dataset_kind
    dialogs = corpus.dialogs
    # taskset or a cpuset may leave this process fewer CPUs than the machine has
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    workers = min(workers, cpus, len(dialogs))
    if workers <= 1:
        tallies = [_tally_share(dialogs, kind, lexicon, overrides)]
    elif sys.platform == "linux":
        tallies = _forked_tallies(dialogs, workers, kind, lexicon, overrides)
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn"),
                                 initializer=_init_worker,
                                 initargs=(dialogs, kind, lexicon, overrides)) as pool:
            tallies = list(pool.map(_tally_in_worker, range(len(dialogs)), chunksize=16))
    total: Counter = Counter()
    for tally in tallies:
        total.update(tally)

    n = total["user_turns"]
    tracked = total["tracked"]
    doc = {"dataset": kind.value, "split": corpus.split, "total_user_turns": n,
           "tracked_turns": tracked, "conversationality": {}, "contextuality": {},
           "normalization": {}, "histogram": {}, "relaxation": 0.0, "smcalflow": {}}
    if n == 0:
        return doc

    def pct(x, denom=n):
        return 100.0 * x / denom if denom else 0.0

    if kind is DatasetKind.SMCALFLOW:
        doc["smcalflow"] = {name: pct(total[name]) for name in ("refer", "revise")}
        return doc

    nothing = n - tracked
    d0, d1 = total[("delta", 0)], total[("delta", 1)]
    deep = sorted((key[1], count) for key, count in total.items()
                  if isinstance(key, tuple) and key[0] == "delta"
                  and key[1] is not None and key[1] >= 2)
    doc["conversationality"] = {
        "nothing_to_predict": pct(nothing),
        "delta0": pct(d0),
        "delta1": pct(d1),
        "cum_delta0": pct(nothing + d0),
        "cum_delta1": pct(nothing + d0 + d1),
        "delta2_plus": pct(sum(count for _, count in deep)),
        "unresolved": pct(total[("delta", None)]),
    }
    doc["contextuality"] = {
        cls.value: pct(total[("context", cls)]) for cls in ContextClass}
    doc["normalization"] = {
        cat.value: pct(total[("norm", cat)], tracked) for cat in MatchCategory}
    doc["histogram"] = {str(d): count for d, count in deep}
    doc["relaxation"] = pct(total["relaxed"])
    return doc


def histogram(doc: dict) -> List[Tuple[int, int]]:
    """Ordered (delta_c, count) buckets of a report document for delta_c
    from 2 to the observed maximum; intermediate empty buckets are included
    with count 0."""
    counts = {int(d): count for d, count in doc["histogram"].items()}
    if not counts:
        return []
    return [(d, counts.get(d, 0)) for d in range(2, max(counts) + 1)]
