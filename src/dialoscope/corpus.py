"""Normalized in-memory data model for MultiWOZ, SGD and SMCalFlow corpora.

All three datasets are loaded into the same Corpus/Dialog/Turn shape:
user turns carry either a cumulative slot-value state (MultiWOZ,
SGD) or a Lispress program, as source text and parsed tree (SMCalFlow).
Values are kept verbatim from the source files; only slot *names* are
canonicalized at load time.
"""
from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from . import lispress

DONTCARE = "dontcare"
_ABSENT_VALUES = {"", "none", "not mentioned"}


class InputError(ValueError):
    """An input file that cannot be read: a corpus, predictions, overrides or
    lexicon file. The message names the file, and the dialog, turn or line."""


class DatasetKind(str, Enum):
    MULTIWOZ = "multiwoz"
    SGD = "sgd"
    SMCALFLOW = "smcalflow"


class Speaker(str, Enum):
    USER = "user"
    AGENT = "agent"


# ---------------------------------------------------------------------------
# slot-name canonicalization
# ---------------------------------------------------------------------------

# the booking names some releases glue together; every other booking name
# loses its `book` prefix in the fold itself
_GLUED_BOOKING = {"bookday": "day", "bookpeople": "people", "bookstay": "stay",
                  "booktime": "time"}


@functools.lru_cache(maxsize=4096)
def canonical_slot(name: str) -> str:
    """Lowercase, drop a leading 'book ' or 'book_', drop separators and
    whitespace, then unglue a booking name. Keeps the three public eval
    scripts' namings mergeable."""
    key = name.strip().lower()
    if key.startswith(("book ", "book_")):
        key = key[len("book "):]
    key = "".join(key.replace("_", " ").replace("-", " ").split())
    return _GLUED_BOOKING.get(key, key)


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

def _value_tuple(vals: Iterable[str]) -> Tuple[str, ...]:
    # dedupe while preserving the order the source file listed alternates in
    return tuple(dict.fromkeys(vals))


# A dialog state: the cumulative slot-value frame, (domain, slot) ->
# alternates. Alternates model MultiWOZ 2.4's "a|b" multi-value annotations.
# They keep source order, so that emitting "the first alternate" is
# deterministic, hold no duplicates and are never empty. A state is shared,
# never mutated: tests/test_value_types.py::TestCorpusIsNotMutated checks
# that nothing the library runs on a loaded corpus changes it.
Slots = Dict[Tuple[str, str], Tuple[str, ...]]

EMPTY_STATE: Slots = {}


# The records built per dialog, turn, update, match, trace, output record and
# Lispress node (StateUpdate, Turn, Dialog, normalize.MatchResult and the
# like) are slotted but not frozen: a frozen dataclass sets each field
# through object.__setattr__, which made them several times slower to
# build. Nothing changes them once built; tests/test_value_types.py checks
# that the library leaves a loaded corpus as it was.
@dataclass(slots=True, unsafe_hash=True)
class StateUpdate:
    """Per-turn diff between consecutive cumulative states."""
    added_or_changed: FrozenSet[Tuple[str, str, Tuple[str, ...]]] = frozenset()
    dropped: FrozenSet[Tuple[str, str]] = frozenset()
    dontcared: FrozenSet[Tuple[str, str]] = frozenset()


@dataclass(slots=True, unsafe_hash=True)
class Turn:
    index: int
    speaker: Speaker
    utterance: str
    state: Optional[Slots] = None
    program: Optional[str] = None  # SMCalFlow: the gold program's source text
    tree: Optional[lispress.Node] = None  # and its parsed tree
    refer_are_incorrect: bool = False  # SMCalFlow: the dataset's force-zero flag


@dataclass(slots=True, unsafe_hash=True)
class Dialog:
    dialog_id: str
    turns: Tuple[Turn, ...]
    services: Tuple[str, ...] = ()  # SGD only: the services the dialog names

    def user_turns(self) -> List[Turn]:
        return [t for t in self.turns if t.speaker is Speaker.USER]

    def previous_user_state(self, turn_index: int) -> Slots:
        """Cumulative state at the user turn preceding turn_index (empty if none)."""
        for t in reversed(self.turns[:turn_index]):
            if t.speaker is Speaker.USER and t.state is not None:
                return t.state
        return EMPTY_STATE

    def gold_tree(self, turn: Turn) -> lispress.Node:
        """An SMCalFlow user turn's parsed gold program; a ValueError for a
        turn without one, such as a hand-built turn with only `program`."""
        if turn.tree is None:
            raise ValueError(f"dialog {self.dialog_id}, turn {turn.index}: no parsed gold program")
        return turn.tree


@dataclass(frozen=True)
class Corpus:
    dataset_kind: DatasetKind
    split: str
    dialogs: Tuple[Dialog, ...]
    schemas: Dict[str, str] = field(default_factory=dict)  # SGD service -> description

    def user_turn_count(self) -> int:
        return sum(len(d.user_turns()) for d in self.dialogs)

    def get_dialog(self, dialog_id: str) -> Dialog:
        for d in self.dialogs:
            if d.dialog_id == dialog_id:
                return d
        raise KeyError(dialog_id)


# ---------------------------------------------------------------------------
# state diffing
# ---------------------------------------------------------------------------

def state_update(prev: Slots, curr: Slots) -> StateUpdate:
    """Diff of cumulative states; total over any pair of states.

    A slot that was set and becomes the literal "dontcare" is a relaxation
    (dontcared), not an addition. A brand-new slot whose first value is
    "dontcare" counts as added (it still has to be predicted).
    """
    added = set()
    dontcared = set()
    for key, vals in curr.items():
        old = prev.get(key)
        # the loaders' memos make most alternates the previous turn's tuple
        if old is not None and (old == vals or set(old) == set(vals)):
            continue
        if old is not None and set(vals) == {DONTCARE}:
            dontcared.add(key)
        else:
            added.add((key[0], key[1], vals))
    dropped = {key for key in prev if key not in curr}
    return StateUpdate(frozenset(added), frozenset(dropped), frozenset(dontcared))


def apply_update(prev: Slots, update: StateUpdate) -> Slots:
    """Left fold step; inverse of state_update given the same prev."""
    d = dict(prev)
    for dom, slot, vals in update.added_or_changed:
        d[(dom, slot)] = vals
    for key in update.dontcared:
        d[key] = (DONTCARE,)
    for key in update.dropped:
        d.pop(key, None)
    return d


# ---------------------------------------------------------------------------
# reading input files
# ---------------------------------------------------------------------------

# what json.load raises on a malformed document: ValueError covers
# JSONDecodeError and an integer past the int/str conversion digit limit
_JSON_ERRORS = (ValueError, RecursionError)


@contextlib.contextmanager
def _text_file(path) -> Iterator[IO[str]]:
    """`path` open as UTF-8 text: the one place where a missing input file,
    or one whose bytes are not UTF-8, becomes an InputError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            yield f
    except FileNotFoundError:
        raise InputError(f"missing file: {path}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}")


def _read_text(path: Path) -> str:
    with _text_file(path) as f:
        return f.read()


def _loads(text: str, path):
    try:
        return json.loads(text)
    except _JSON_ERRORS as exc:
        raise InputError(f"malformed JSON in {path}: {exc}")


_json_space = json.decoder.WHITESPACE.match
_json_value = json.JSONDecoder().raw_decode


def _json_members(text: str, path, kind: type, what: str) -> Iterator[object]:
    """The members of the JSON document `text`, a `kind`, in document order:
    (key, value) of each member of an object, a repeated key included, or
    each element of a list. Each value is decoded only when it is reached,
    so the whole document never exists at once, and a caller that checks
    each member as it comes stops at the first fault in document order. A
    document of another type raises the InputError `_check` gives for
    `what`; malformed text raises, once its fault is reached, the
    InputError json.loads would give."""
    opener, closer = ("{", "}") if kind is dict else ("[", "]")
    end = _json_space(text).end()
    if text[end:end + 1] != opener:
        raise _type_error(what, kind, _loads(text, path), path)  # or malformed
    end = _json_space(text, end + 1).end()
    try:
        if text[end:end + 1] != closer:
            while True:
                if kind is dict:
                    if text[end:end + 1] != '"':
                        raise ValueError("expecting a member name")
                    key, end = json.decoder.scanstring(text, end + 1)
                    end = _json_space(text, end).end()
                    if text[end:end + 1] != ":":
                        raise ValueError("expecting ':'")
                    value, end = _json_value(text, _json_space(text, end + 1).end())
                    yield key, value
                else:
                    value, end = _json_value(text, end)
                    yield value
                end = _json_space(text, end).end()
                if text[end:end + 1] != ",":
                    break
                end = _json_space(text, end + 1).end()
            if text[end:end + 1] != closer:
                raise ValueError(f"expecting ',' or '{closer}'")
        if _json_space(text, end + 1).end() != len(text):
            raise ValueError("extra data")
    except _JSON_ERRORS as exc:
        # json.loads decodes from the start, so it stops at the same first
        # fault, and words it as the running Python does
        _loads(text, path)
        raise InputError(f"malformed JSON in {path}: {exc}")


def text_lines(path) -> Iterator[Tuple[int, str]]:
    """(line number, line) for each line of the UTF-8 text file `path`,
    split only at newlines. A missing file, or bytes that are not UTF-8,
    raise an InputError naming the file, and a leading byte order mark one
    naming its line 1: it would stick to the first line's text."""
    with _text_file(path) as f:
        for lineno, line in enumerate(f, start=1):
            if lineno == 1 and line.startswith("\ufeff"):
                raise InputError(f"{path}:1: starts with a UTF-8 byte order mark; "
                                 "save the file without one")
            yield lineno, line


def json_lines(path) -> Iterator[Tuple[int, object]]:
    """(line number, value) for each non-blank line of the JSON-lines file
    `path`; a line that is not JSON raises an InputError naming `path:line`."""
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            value = json.loads(line)
        except _JSON_ERRORS as exc:
            raise InputError(f"{path}:{lineno}: malformed JSON: {exc}")
        yield lineno, value


def _where(path, dialog_id=None, turn=None) -> str:
    """Location prefix of a loader error: the file, then the dialog and turn."""
    where = str(path)
    if dialog_id is not None:
        where += f": dialog {dialog_id}"
    if turn is not None:
        where += f", turn {turn}"
    return where


_KIND_NAMES = {dict: "a JSON object", list: "a JSON list", str: "a string",
               bool: "a JSON boolean"}


def _type_error(what: str, kind, value, path, dialog_id=None, turn=None) -> InputError:
    return InputError(f"{_where(path, dialog_id, turn)}: {what} must be "
                      f"{_KIND_NAMES[kind]}, got {type(value).__name__}")


def _check(value, kind, what: str, path, dialog_id=None, turn=None):
    """`value` if it is a `kind`, else an InputError naming where it was found."""
    if isinstance(value, kind):
        return value
    raise _type_error(what, kind, value, path, dialog_id, turn)


def _add_dialog(dialogs: Dict[str, Dialog], dialog: Dialog, path) -> None:
    """Keep `dialog` under its id; an id kept before raises, naming `path`."""
    if dialog.dialog_id in dialogs:
        raise InputError(f"{_where(path, dialog.dialog_id)}: duplicate dialog id")
    dialogs[dialog.dialog_id] = dialog


# ---------------------------------------------------------------------------
# MultiWOZ
# ---------------------------------------------------------------------------

# a load's memos: raw domain name -> (its last raw frame, that frame's
# entries), and (raw domain, section prefix, raw slot, value as a string)
# -> the slot's entry, or None for an absent value
_Entry = Tuple[Tuple[str, str], Tuple[str, ...]]
_FrameMemo = Dict[str, Tuple[dict, List[_Entry]]]
_ValueMemo = Dict[Tuple[str, str, str, str], Optional[_Entry]]


def _multiwoz_slot(domain: str, prefix: str, slot: str, value: str) -> Optional[_Entry]:
    """The ((domain, slot), alternates) entry of one value, or None when
    the value is absent or the slot is "booked"."""
    if slot == "booked" or value.strip().lower() in _ABSENT_VALUES:
        return None
    vals = _value_tuple(v.strip() for v in value.split("|") if v.strip())
    return ((domain.lower(), canonical_slot(prefix + slot)), vals) if vals else None


def _parse_multiwoz_frame(domain: str, frame, path, dialog_id, turn, values: _ValueMemo):
    """The ((domain, slot), alternates) entries of one domain's frame, in
    source order, and whether every value read from it was a string."""
    if not isinstance(frame, dict):
        raise _type_error(f"metadata for domain {domain!r}", dict, frame,
                          path, dialog_id, turn)
    entries = []
    all_str = True
    for section, prefix in (("semi", ""), ("book", "book ")):
        slots = frame.get(section, {})
        if not isinstance(slots, dict):
            raise _type_error(f"{domain!r} {section!r} section", dict, slots,
                              path, dialog_id, turn)
        for slot, value in slots.items():
            if type(value) is not str:
                if slot == "booked":
                    continue
                if isinstance(value, list):
                    value = value[0] if value else ""
                if not isinstance(value, str):
                    if isinstance(value, (dict, list)):
                        raise _type_error(f"{domain!r} slot {slot!r}", str, value,
                                          path, dialog_id, turn)
                    all_str = False
                    value = str(value)  # a number, boolean or null
            if value in _ABSENT_VALUES:  # most values, so tested first
                continue
            key = (domain, prefix, slot, value)
            try:
                entry = values[key]
            except KeyError:
                entry = values[key] = _multiwoz_slot(domain, prefix, slot, value)
            if entry is not None:
                entries.append(entry)
    return entries, all_str


def _same_key_order(a: dict, b: dict) -> bool:
    """Whether the equal domain frames `a` and `b` list their slots in the
    same order."""
    return (tuple(a.get("semi", ())) == tuple(b.get("semi", ()))
            and tuple(a.get("book", ())) == tuple(b.get("book", ())))


def _parse_multiwoz_state(metadata: dict, path, dialog_id, turn,
                          frames: _FrameMemo, values: _ValueMemo) -> Slots:
    slots: Slots = {}
    for domain, frame in metadata.items():
        # most frames equal the domain's frame one user turn earlier, in this
        # dialog or the one before. A frame is remembered only when every
        # value it read was a string: 1, 1.0 and True are equal but coerce
        # to different strings. Dict == ignores key order, which orders two
        # or more entries
        hit = frames.get(domain)
        if hit is not None and hit[0] == frame and (
                len(hit[1]) < 2 or _same_key_order(hit[0], frame)):
            entries = hit[1]
        else:
            entries, all_str = _parse_multiwoz_frame(domain, frame, path, dialog_id, turn,
                                                     values)
            if all_str:
                frames[domain] = (frame, entries)
        for key, vals in entries:
            # a key seen twice (semi and book, or two raw domains that
            # lowercase to one name): concatenate, then dedupe
            old = slots.get(key)
            slots[key] = vals if old is None else _value_tuple(old + vals)
    return slots


def _multiwoz_split_ids(root: Path, split: str) -> Tuple[Optional[Set[str]], Set[str]]:
    """(ids to keep, or None for every id; ids to leave out) of a split."""
    names = {
        "dev": ["valListFile.txt", "valListFile.json"],
        "test": ["testListFile.txt", "testListFile.json"],
    }
    if split == "all":
        return None, set()
    if split in names:
        for name in names[split]:
            p = root / name
            if p.exists():
                return {line.strip() for _, line in text_lines(p) if line.strip()}, set()
        raise InputError(f"missing split list file for {split!r} under {root}")
    if split == "train":
        return None, _multiwoz_split_ids(root, "dev")[0] | _multiwoz_split_ids(root, "test")[0]
    raise InputError(f"unknown MultiWOZ split {split!r}")


def _multiwoz_entry(entry, path, dialog_id, turn) -> Tuple[str, dict]:
    """(text, metadata) of one log entry."""
    _check(entry, dict, "log entry", path, dialog_id, turn)
    return (_check(entry.get("text", ""), str, "text", path, dialog_id, turn),
            _check(entry.get("metadata", {}), dict, "metadata", path, dialog_id, turn))


def _multiwoz_dialog(dialog_id: str, raw, path, frames: _FrameMemo,
                     values: _ValueMemo) -> Dialog:
    log = _check(raw, dict, "dialog", path, dialog_id).get("log")
    if not isinstance(log, list) or not log:
        raise InputError(f"{_where(path, dialog_id)}: missing or empty turn log")
    turns: List[Turn] = []
    user, agent = Speaker.USER, Speaker.AGENT  # faster than the enum's attributes
    # one (user, agent) exchange per step: the cumulative belief state of a
    # user turn lives in the following wizard turn's metadata
    for i in range(0, len(log), 2):
        utterance, metadata = _multiwoz_entry(log[i], path, dialog_id, i)
        if metadata:
            raise InputError(f"{_where(path, dialog_id, i)}: "
                             "non-alternating speakers (state on a user turn)")
        if i + 1 == len(log):
            raise InputError(
                f"{_where(path, dialog_id, i)}: user turn has no system annotation")
        reply, metadata = _multiwoz_entry(log[i + 1], path, dialog_id, i + 1)
        if not metadata:
            raise InputError(f"{_where(path, dialog_id, i + 1)}: "
                             "non-alternating speakers (no state on an agent turn)")
        state = _parse_multiwoz_state(metadata, path, dialog_id, i + 1, frames, values)
        turns.append(Turn(i, user, utterance, state))
        turns.append(Turn(i + 1, agent, reply))
    return Dialog(dialog_id, tuple(turns))


def load_multiwoz(path, split: str = "all") -> Corpus:
    """Load MultiWOZ 2.1/2.4-format data.

    `path` may be the data JSON itself (all its dialogs become the split)
    or a directory holding data.json plus valListFile/testListFile. Each
    dialog is built as soon as its JSON is decoded, so the whole document
    never exists at once.
    """
    path = Path(path)
    wanted, excluded = None, set()
    if path.is_dir():
        wanted, excluded = _multiwoz_split_ids(path, split)
        path = path / "data.json"
    text = _read_text(path)

    frames: _FrameMemo = {}
    values: _ValueMemo = {}
    dialogs: Dict[str, Dialog] = {}
    found = False
    for dialog_id, raw in _json_members(text, path, dict, "data file"):
        found = True
        if (wanted is None or dialog_id in wanted) and dialog_id not in excluded:
            _add_dialog(dialogs, _multiwoz_dialog(dialog_id, raw, path, frames, values), path)
    if not found:
        raise InputError(f"no dialogs found in {path}")
    if not dialogs:
        raise InputError(f"split {split!r} selected no dialogs from {path}")
    return Corpus(DatasetKind.MULTIWOZ, split, tuple(dialogs.values()))


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------

# (service, raw slot name, raw values) -> ((service, canonical slot),
# alternates, empty when every value is absent); one per load_sgd call
_SlotMemo = Dict[tuple, Tuple[Tuple[str, str], Tuple[str, ...]]]


def _sgd_schemas(path: Path) -> Dict[str, str]:
    schemas = {}
    for k, svc in enumerate(_json_members(_read_text(path), path, list, "schema")):
        where = f"service {k}"
        _check(svc, dict, where, path)
        if "service_name" not in svc:
            raise InputError(f"{path}: {where}: missing 'service_name'")
        name = _check(svc["service_name"], str, f"{where} service_name", path)
        schemas[name] = _check(svc.get("description", ""), str, f"{where} description", path)
    return schemas


def _sgd_slot(memo: _SlotMemo, svc: str, slot: str, values, path, dialog_id, turn):
    """Memo entry of one slot; cached only once its values are checked to be
    a list of strings, so a hit never admits what a miss would reject."""
    for v in values:
        if not isinstance(v, str):
            raise _type_error(f"value of slot {slot!r}", str, v, path, dialog_id, turn)
    canon = (svc, canonical_slot(slot))
    vals = _value_tuple(v for v in values if v.strip().lower() not in _ABSENT_VALUES)
    memo[(svc, slot, tuple(values))] = hit = (canon, vals)
    return hit


def _sgd_dialog(raw, path: Path, schemas: Dict[str, str], memo: _SlotMemo) -> Dialog:
    _check(raw, dict, "dialog", path)
    dialog_id = _check(raw.get("dialogue_id", "?"), str, "dialogue_id", path)
    services = tuple(_check(raw.get("services", []), list, "services", path, dialog_id))
    for svc in services:
        if not isinstance(svc, str) or svc not in schemas:
            raise InputError(
                f"{_where(path, dialog_id)}: references service {svc!r} not in schema")
    turns: List[Turn] = []
    # service -> (its last raw slot_values, their entries), in the order the
    # services were last restated: the cumulative state joins the entries
    restated: Dict[str, Tuple[dict, Slots]] = {}
    order: Tuple[str, ...] = ()
    state: Slots = {}
    user, agent = Speaker.USER, Speaker.AGENT  # faster than the enum's attributes
    for i, t in enumerate(_check(raw.get("turns", []), list, "turns", path, dialog_id)):
        if not isinstance(t, dict):
            raise _type_error("turn", dict, t, path, dialog_id, i)
        speaker = t.get("speaker", "")
        if not isinstance(speaker, str):
            raise _type_error("speaker", str, speaker, path, dialog_id, i)
        utterance = t.get("utterance", "")
        if not isinstance(utterance, str):
            raise _type_error("utterance", str, utterance, path, dialog_id, i)
        speaker = speaker.upper()
        if speaker != ("USER" if i % 2 == 0 else "SYSTEM"):
            raise InputError(f"{_where(path, dialog_id, i)}: non-alternating speakers")
        if speaker == "SYSTEM":
            turns.append(Turn(i, agent, utterance))
            continue
        frames = t.get("frames", [])
        if not isinstance(frames, list):
            raise _type_error("frames", list, frames, path, dialog_id, i)
        changed = False  # whether a service's entries changed
        for frame in frames:
            if not isinstance(frame, dict):
                raise _type_error("frame", dict, frame, path, dialog_id, i)
            svc = frame.get("service", "")
            if not isinstance(svc, str) or svc not in schemas:
                raise InputError(f"{_where(path, dialog_id, i)}: "
                                 f"frame references service {svc!r} not in schema")
            frame_state = frame.get("state", {})
            if not isinstance(frame_state, dict):
                raise _type_error("frame state", dict, frame_state, path, dialog_id, i)
            slot_values = frame_state.get("slot_values", {})
            if not isinstance(slot_values, dict):
                raise _type_error("slot_values", dict, slot_values, path, dialog_id, i)
            # SGD frames restate a service's whole state on every turn. An
            # equal slot_values that lists its slots in the same order has
            # the same entries: dict == ignores order, and of two raw slots
            # with one canonical name the later one wins
            old = restated.pop(svc, None)
            if (old is not None and old[0] == slot_values
                    and (len(slot_values) < 2 or list(old[0]) == list(slot_values))):
                entries = old[1]
            else:
                changed = True
                entries = {}
                for slot, values in slot_values.items():
                    # checked first: tuple() of a string or object could equal a key
                    if not isinstance(values, list):
                        raise _type_error(f"values of slot {slot!r}", list, values,
                                          path, dialog_id, i)
                    try:
                        key, vals = memo[(svc, slot, tuple(values))]
                    except (KeyError, TypeError):  # TypeError: an unhashable, so invalid, value
                        key, vals = _sgd_slot(memo, svc, slot, values, path, dialog_id, i)
                    if vals:
                        entries[key] = vals
            # restating a service moves it last
            restated[svc] = (slot_values, entries)
        if changed or tuple(restated) != order:
            order = tuple(restated)
            # a new mapping: the states of earlier turns keep theirs
            state = {}
            for _, entries in restated.values():
                state.update(entries)
        turns.append(Turn(i, user, utterance, state))
    if not turns:
        raise InputError(f"{_where(path, dialog_id)}: empty dialog")
    return Dialog(dialog_id, tuple(turns), services=services)


def load_sgd(path, split: str = "test") -> Corpus:
    """Load an SGD split directory (dialogues_*.json + schema.json).

    `path` is the dataset root containing per-split subdirectories, or the
    split directory itself; that one is taken only when `split` is "all"
    or its directory name. Each dialog is built as soon as its JSON is
    decoded, so no dialogues file exists whole as decoded JSON.
    """
    root = Path(path)
    if (root / split).is_dir():
        split_dir = root / split
    elif split in ("all", root.name):
        split_dir = root
    else:
        raise InputError(f"no SGD split directory '{split}' under {root}")
    schemas = _sgd_schemas(split_dir / "schema.json")

    dialog_files = sorted(split_dir.glob("dialogues_*.json"))
    if not dialog_files:
        raise InputError(f"no dialogues_*.json files under {split_dir}")

    memo: _SlotMemo = {}
    dialogs: Dict[str, Dialog] = {}
    for file in dialog_files:
        for raw in _json_members(_read_text(file), file, list, "dialogues file"):
            _add_dialog(dialogs, _sgd_dialog(raw, file, schemas, memo), file)
    if not dialogs:
        raise InputError(f"no dialogs found under {split_dir}")
    return Corpus(DatasetKind.SGD, split, tuple(dialogs.values()), schemas=schemas)


# ---------------------------------------------------------------------------
# SMCalFlow
# ---------------------------------------------------------------------------

def load_smcalflow(path, split: str = "train") -> Corpus:
    """Load a line-delimited SMCalFlow dialog file.

    `path` is the file itself, or a directory holding the release's
    `<split>.dataflow_dialogues.jsonl`. Each source exchange becomes a user
    turn (with its Lispress program, parsed here) followed by the agent's
    reply; a trailing empty agent reply is dropped so dialogs may end on a
    user turn. Turns whose program texts are equal share one tree, parsed
    once per load: treat it as read-only.
    """
    # a file path stays as the caller wrote it: every error message names it
    if Path(path).is_dir():
        path = Path(path) / f"{split}.dataflow_dialogues.jsonl"
    dialogs: Dict[str, Dialog] = {}
    # program text -> its tree, for this load only: a cache in lispress.parse
    # would keep every tree the process ever parsed
    trees: Dict[str, lispress.Node] = {}
    for lineno, raw in json_lines(path):
        line_path = f"{path}:{lineno}"
        _check(raw, dict, "dialog", line_path)
        dialog_id = _check(raw.get("dialogue_id", f"line{lineno}"), str, "dialogue_id", line_path)
        turns: List[Turn] = []
        source_turns = _check(raw.get("turns", []), list, "turns", line_path, dialog_id)
        for k, t in enumerate(source_turns):
            user = len(turns)  # the turn_index records and predictions use
            _check(t, dict, "turn", line_path, dialog_id, user)
            user_text = _utt_text(t.get("user_utterance"), line_path, dialog_id, user)
            program = t.get("lispress")
            if program is None:
                raise InputError(f"{_where(line_path, dialog_id, user)}: missing a program")
            _check(program, str, "lispress", line_path, dialog_id, user)
            oracle = _check(t.get("program_execution_oracle", {}), dict,
                            "program_execution_oracle", line_path, dialog_id, user)
            flagged = False
            for source, what in ((t, "refer_are_incorrect"),
                                 (oracle, "program_execution_oracle.refer_are_incorrect")):
                flagged |= _check(source.get("refer_are_incorrect", False), bool,
                                  what, line_path, dialog_id, user)
            tree = trees.get(program)
            if tree is None:
                try:
                    tree = trees[program] = lispress.parse(program)
                except lispress.LispressError as exc:
                    raise InputError(f"{_where(line_path, dialog_id, user)}: "
                                     f"gold program does not parse: {exc}") from exc
            turns.append(Turn(user, Speaker.USER, user_text, program=program, tree=tree,
                              refer_are_incorrect=flagged))
            agent_text = _utt_text(t.get("agent_utterance"), line_path, dialog_id, user + 1)
            if agent_text or k + 1 < len(source_turns):
                turns.append(Turn(user + 1, Speaker.AGENT, agent_text))
        if not turns:
            raise InputError(f"{_where(line_path, dialog_id)}: empty dialog")
        _add_dialog(dialogs, Dialog(dialog_id, tuple(turns)), line_path)
    if not dialogs:
        raise InputError(f"empty SMCalFlow file: {path}")
    return Corpus(DatasetKind.SMCALFLOW, split, tuple(dialogs.values()))


def _utt_text(utt, path, dialog_id, turn) -> str:
    if utt is None:
        return ""
    if isinstance(utt, str):
        return utt
    _check(utt, dict, "utterance", path, dialog_id, turn)
    return _check(utt.get("original_text", ""), str, "original_text", path, dialog_id, turn)


def validate_corpus(corpus: Corpus) -> List[str]:
    """The violations a loaded corpus holds: none, since every check,
    including that each SMCalFlow gold program parses, is the loader's.
    Kept for callers written against the earlier validation API."""
    return []
