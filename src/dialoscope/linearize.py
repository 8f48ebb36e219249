"""Seq2seq input/target emission for the four input representations.

Inputs concatenate speaker-tagged utterances (plus, optionally, the
previous dialog state); targets are comma-separated `domain:slot=value`
update strings for the frame datasets, or the canonically printed
Lispress program for SMCalFlow.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import lispress
from .corpus import (Corpus, DatasetKind, Dialog, DialogState, DONTCARE,
                     Speaker, StateUpdate, state_update)


class InputRepresentation(str, Enum):
    # order matches the widening conversational windows
    CURRENT_USER_TURN = "user"
    PLUS_LAST_AGENT_TURN = "exchange"
    PLUS_PREVIOUS_DIALOG_STATE = "prev-state"
    FULL_DIALOG_HISTORY = "full"


@dataclass(frozen=True)
class Seq2SeqRecord:
    dialog_id: str
    turn_index: int
    input: str
    target: str


_FRAME_TAGS = {Speaker.USER: "[user]", Speaker.AGENT: "[agent]"}
_FRAME_STATE_TAG = "[states]"
_PROGRAM_TAGS = {Speaker.USER: "__User", Speaker.AGENT: "__Agent"}
_PROGRAM_STATE_TAG = "__State"


class TargetParseError(ValueError):
    pass


def linearize_state(state: DialogState) -> str:
    """Cumulative state in the same syntax as targets (first alternate)."""
    entries = sorted((dom, slot, vals[0]) for dom, slot, vals in state.entries)
    return ", ".join(f"{dom}:{slot}={val}" for dom, slot, val in entries)


def linearize_target(update) -> str:
    """Target string for one user turn.

    Frame updates: sorted `domain:slot=value` entries; a relaxation to
    "dontcare" emits that literal and a dropped slot emits value "none"
    (the scripts' absent-marker), so accumulation can replay relaxations.
    SMCalFlow: the Lispress program, canonically printed.
    """
    if isinstance(update, str):
        return lispress.print_canonical(lispress.parse(update))
    if not isinstance(update, StateUpdate):
        raise TypeError(f"expected StateUpdate or program text, got {type(update)}")
    entries = [(dom, slot, vals[0]) for dom, slot, vals in update.added_or_changed]
    entries += [(dom, slot, DONTCARE) for dom, slot in update.dontcared]
    entries += [(dom, slot, "none") for dom, slot in update.dropped]
    entries.sort()
    return ", ".join(f"{dom}:{slot}={val}" for dom, slot, val in entries)


def parse_target(text: str) -> StateUpdate:
    """Inverse of linearize_target for frame updates."""
    text = text.strip()
    if not text:
        return StateUpdate()
    added, dropped, dontcared = set(), set(), set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, sep, value = chunk.partition("=")
        domain, sep2, slot = head.partition(":")
        if not sep or not sep2 or not domain.strip() or not slot.strip():
            raise TargetParseError(f"malformed update entry: {chunk!r}")
        key = (domain.strip(), slot.strip())
        value = value.strip()
        if value == "none":
            dropped.add(key)
        elif value == DONTCARE:
            dontcared.add(key)
        else:
            added.add((key[0], key[1], (value,)))
    return StateUpdate(frozenset(added), frozenset(dropped), frozenset(dontcared))


PredictedStates = Dict[Tuple[str, int], DialogState]


def linearize_input(dialog: Dialog, turn_index: int, repr: InputRepresentation,
                    kind: DatasetKind,
                    previous_state_source: str = "gold",
                    predicted_states: Optional[PredictedStates] = None,
                    schemas: Optional[Dict[str, str]] = None) -> str:
    """Tagged concatenation of the selected context for one user turn."""
    turn = dialog.turns[turn_index]
    if turn.speaker is not Speaker.USER:
        raise ValueError(f"{dialog.dialog_id}: turn {turn_index} is not a user turn")
    tags = _PROGRAM_TAGS if kind is DatasetKind.SMCALFLOW else _FRAME_TAGS
    state_tag = _PROGRAM_STATE_TAG if kind is DatasetKind.SMCALFLOW else _FRAME_STATE_TAG

    def tagged(t) -> str:
        return f"{tags[t.speaker]} {t.utterance}".rstrip()

    parts: List[str] = []
    if repr is InputRepresentation.FULL_DIALOG_HISTORY:
        parts = [tagged(t) for t in dialog.turns[:turn_index + 1]]
    else:
        if repr is InputRepresentation.PLUS_PREVIOUS_DIALOG_STATE:
            parts.append(f"{state_tag} {_previous_state_text(dialog, turn_index, previous_state_source, predicted_states)}".rstrip())
        if repr in (InputRepresentation.PLUS_LAST_AGENT_TURN,
                    InputRepresentation.PLUS_PREVIOUS_DIALOG_STATE):
            if turn_index > 0:
                parts.append(tagged(dialog.turns[turn_index - 1]))
        parts.append(tagged(turn))

    text = " ".join(parts)
    if kind is DatasetKind.SGD and schemas is not None:
        prefix = " ".join(schemas.get(svc, "") for svc in dialog.services).strip()
        if prefix:
            text = f"{prefix} {text}"
    return text


def _previous_state_text(dialog, turn_index, source, predicted_states) -> str:
    if source == "gold":
        return linearize_state(dialog.previous_user_state(turn_index))
    if source != "predicted":
        raise ValueError(f"unknown previous_state_source {source!r}")
    prev_user = None
    for t in reversed(dialog.turns[:turn_index]):
        if t.speaker is Speaker.USER:
            prev_user = t
            break
    if prev_user is None:
        return ""
    if predicted_states is None:
        raise ValueError("previous_state_source='predicted' requires predicted_states")
    return linearize_state(
        predicted_states.get((dialog.dialog_id, prev_user.index), DialogState()))


def records_for_dialog(dialog: Dialog, repr: InputRepresentation, kind: DatasetKind,
                       previous_state_source: str = "gold",
                       predicted_states: Optional[PredictedStates] = None,
                       schemas: Optional[Dict[str, str]] = None) -> List[Seq2SeqRecord]:
    records = []
    for turn in dialog.user_turns():
        inp = linearize_input(dialog, turn.index, repr, kind,
                              previous_state_source, predicted_states, schemas)
        if kind is DatasetKind.SMCALFLOW:
            target = linearize_target(turn.program or "()")
        else:
            prev = dialog.previous_user_state(turn.index)
            target = linearize_target(state_update(prev, turn.state))
        records.append(Seq2SeqRecord(dialog.dialog_id, turn.index, inp, target))
    return records


def _dialog_job(args) -> List[Seq2SeqRecord]:
    return records_for_dialog(*args)


def emit_dataset(corpus: Corpus, repr: InputRepresentation, out_path,
                 previous_state_source: str = "gold",
                 predicted_states: Optional[PredictedStates] = None,
                 workers: int = 1) -> int:
    """Write one line-delimited JSON record per user turn, in corpus order."""
    jobs = [(d, repr, corpus.dataset_kind, previous_state_source,
             predicted_states, corpus.schemas or None) for d in corpus.dialogs]
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_dialog = list(pool.map(_dialog_job, jobs, chunksize=16))
    else:
        per_dialog = [_dialog_job(j) for j in jobs]

    out_path = Path(out_path)
    count = 0
    try:
        with open(out_path, "w", encoding="utf-8") as f:
            for records in per_dialog:
                for rec in records:
                    f.write(json.dumps(
                        {"dialogue_id": rec.dialog_id, "turn_index": rec.turn_index,
                         "input": rec.input, "target": rec.target},
                        ensure_ascii=False) + "\n")
                    count += 1
    except OSError as exc:
        raise OSError(f"cannot write records to {out_path}: {exc}") from exc
    return count
