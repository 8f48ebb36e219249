"""Seq2seq input/target emission for the four input representations.

Inputs concatenate speaker-tagged utterances (plus, optionally, the
previous dialog state); targets are comma-separated `domain:slot=value`
update strings for the frame datasets, or the canonically printed
Lispress program for SMCalFlow.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring as json_string
from typing import Dict, List, Optional, Tuple

from . import lispress
from .atomic import write_atomically
from .corpus import (Corpus, DatasetKind, Dialog, DONTCARE, EMPTY_STATE, Slots,
                     Speaker, StateUpdate, state_update)


class InputRepresentation(str, Enum):
    # order matches the widening conversational windows
    CURRENT_USER_TURN = "user"
    PLUS_LAST_AGENT_TURN = "exchange"
    PLUS_PREVIOUS_DIALOG_STATE = "prev-state"
    FULL_DIALOG_HISTORY = "full"


@dataclass(slots=True, unsafe_hash=True)
class Seq2SeqRecord:
    dialog_id: str
    turn_index: int
    input: str
    target: str


_FRAME_TAGS = {Speaker.USER: "[user]", Speaker.AGENT: "[agent]"}
_FRAME_STATE_TAG = "[states]"
_PROGRAM_TAGS = {Speaker.USER: "__User", Speaker.AGENT: "__Agent"}


class TargetParseError(ValueError):
    pass


def _join_entries(entries) -> str:
    """(domain, slot, value) entries as sorted, comma-joined `domain:slot=value`."""
    return ", ".join(f"{dom}:{slot}={val}" for dom, slot, val in sorted(entries))


def linearize_state(state: Slots) -> str:
    """Cumulative state in the same syntax as targets (first alternate)."""
    return _join_entries((dom, slot, vals[0]) for (dom, slot), vals in state.items())


def linearize_target(update) -> str:
    """Target string for one user turn.

    Frame updates: sorted `domain:slot=value` entries; a relaxation to
    "dontcare" emits that literal and a dropped slot emits value "none"
    (the scripts' absent-marker), so accumulation can replay relaxations.
    SMCalFlow: the parsed Lispress program, canonically printed.
    """
    if not isinstance(update, StateUpdate):
        return lispress.print_canonical(update)  # a TypeError if not a parsed program
    entries = [(dom, slot, vals[0]) for dom, slot, vals in update.added_or_changed]
    entries += [(dom, slot, DONTCARE) for dom, slot in update.dontcared]
    entries += [(dom, slot, "none") for dom, slot in update.dropped]
    return _join_entries(entries)


def parse_target(text: str) -> StateUpdate:
    """Inverse of linearize_target for frame updates; an update names each
    slot at most once."""
    text = text.strip()
    if not text:
        return StateUpdate()
    added, dropped, dontcared = set(), set(), set()
    seen = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, sep, value = chunk.partition("=")
        domain, sep2, slot = head.partition(":")
        if not sep or not sep2 or not domain.strip() or not slot.strip():
            raise TargetParseError(f"malformed update entry: {chunk!r}")
        key = (domain.strip(), slot.strip())
        if key in seen:
            raise TargetParseError(f"slot {key[0]}:{key[1]} named twice")
        seen.add(key)
        value = value.strip()
        if value == "none":
            dropped.add(key)
        elif value == DONTCARE:
            dontcared.add(key)
        else:
            added.add((key[0], key[1], (value,)))
    return StateUpdate(frozenset(added), frozenset(dropped), frozenset(dontcared))


PredictedStates = Dict[Tuple[str, int], Slots]


def linearize_input(repr: InputRepresentation, prefix: str, state: str,
                    history: List[str]) -> str:
    """One record's input. `history` holds the tagged turns up to and
    including the user turn: a user input shows its last turn, an exchange
    input its last two, a prev-state input the same two after `state`, the
    tagged previous state, and a full input all of it. A non-empty
    `prefix`, the SGD schema descriptions, comes first."""
    if repr is InputRepresentation.FULL_DIALOG_HISTORY:
        parts = history
    elif repr is InputRepresentation.CURRENT_USER_TURN:
        parts = history[-1:]
    elif repr is InputRepresentation.PLUS_LAST_AGENT_TURN:
        parts = history[-2:]
    else:
        parts = [state, *history[-2:]]
    text = " ".join(parts)
    return f"{prefix} {text}" if prefix else text


def records_for_dialog(dialog: Dialog, repr: InputRepresentation, kind: DatasetKind,
                       predicted_states: Optional[PredictedStates] = None,
                       schemas: Optional[Dict[str, str]] = None,
                       printed: Optional[Dict[int, str]] = None) -> List[Seq2SeqRecord]:
    """One record per user turn, from one walk over the turns that carries
    the tagged turns so far, the previous gold state and the previous state
    that a prev-state input shows (gold, or predicted). A prev-state input
    of an SMCalFlow dialog, which has no slot state, is a ValueError.

    `printed` maps the id of an SMCalFlow gold tree to its target, so that a
    tree that turns share is printed once; the caller keeps every tree in it
    alive while it is in use."""
    with_state = repr is InputRepresentation.PLUS_PREVIOUS_DIALOG_STATE
    if kind is DatasetKind.SMCALFLOW and with_state:
        raise ValueError("a prev-state input applies to multiwoz and sgd only")
    tags = _PROGRAM_TAGS if kind is DatasetKind.SMCALFLOW else _FRAME_TAGS
    # only SGD dialogs name services
    prefix = " ".join(schemas.get(svc, "") for svc in dialog.services).strip() if schemas else ""
    if printed is None:
        printed = {}
    records = []
    history: List[str] = []
    prev_gold = shown = EMPTY_STATE
    for turn in dialog.turns:
        history.append(f"{tags[turn.speaker]} {turn.utterance}".rstrip())
        if turn.speaker is not Speaker.USER:
            continue
        state = f"{_FRAME_STATE_TAG} {linearize_state(shown)}".rstrip() if with_state else ""
        inp = linearize_input(repr, prefix, state, history)
        if kind is DatasetKind.SMCALFLOW:
            tree = dialog.gold_tree(turn)
            target = printed.get(id(tree))
            if target is None:
                target = printed[id(tree)] = linearize_target(tree)
        else:
            target = linearize_target(state_update(prev_gold, turn.state))
        if turn.state is not None:
            prev_gold = turn.state
        shown = (prev_gold if predicted_states is None else
                 predicted_states.get((dialog.dialog_id, turn.index), EMPTY_STATE))
        records.append(Seq2SeqRecord(dialog.dialog_id, turn.index, inp, target))
    return records


def emit_dataset(corpus: Corpus, repr: InputRepresentation, out_path,
                 predicted_states: Optional[PredictedStates] = None) -> int:
    """Write one line-delimited JSON record per user turn, in corpus order.

    Each line is the bytes of `json.dumps(record, ensure_ascii=False)`.
    Records go to a temporary file as each dialog is linearized, which
    replaces `out_path` only once every record is written."""
    count = 0
    printed: Dict[int, str] = {}  # the corpus keeps each tree alive
    try:
        with write_atomically(out_path) as f:
            for dialog in corpus.dialogs:
                for rec in records_for_dialog(dialog, repr, corpus.dataset_kind,
                                              predicted_states, corpus.schemas, printed):
                    f.write(f'{{"dialogue_id": {json_string(rec.dialog_id)}, '
                            f'"turn_index": {rec.turn_index}, '
                            f'"input": {json_string(rec.input)}, '
                            f'"target": {json_string(rec.target)}}}\n')
                    count += 1
    except OSError as exc:
        raise OSError(f"cannot write records to {out_path}: {exc}") from exc
    return count
