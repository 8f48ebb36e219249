"""Normalized in-memory data model for MultiWOZ, SGD and SMCalFlow corpora.

All three datasets are loaded into the same Corpus/Dialog/Turn shape:
user turns carry either a cumulative slot-value DialogState (MultiWOZ,
SGD) or a Lispress program source (SMCalFlow). Values are kept verbatim
from the source files; only slot *names* are canonicalized at load time
via a versioned mapping table.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

DONTCARE = "dontcare"
_ABSENT_VALUES = {"", "none", "not mentioned"}


class CorpusError(Exception):
    """Base class for load/structure failures."""


class LoadError(CorpusError):
    pass


class ParseError(CorpusError):
    pass


class StructuralError(CorpusError):
    pass


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

def _load_slot_map() -> Dict[str, str]:
    text = (resources.files("dialoscope") / "data" / "slot_names.txt").read_text("utf-8")
    mapping = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        raw, _, canon = line.partition(":")
        mapping[raw.strip().lower()] = canon.strip().lower()
    return mapping


_SLOT_MAP: Optional[Dict[str, str]] = None


@functools.lru_cache(maxsize=4096)
def canonical_slot(name: str) -> str:
    """Lowercase, fold separators and the 'book ' prefix, apply the shipped
    exception table. Keeps the three public eval scripts' namings mergeable."""
    global _SLOT_MAP
    if _SLOT_MAP is None:
        _SLOT_MAP = _load_slot_map()
    key = name.strip().lower()
    if key in _SLOT_MAP:
        return _SLOT_MAP[key]
    if key.startswith("book "):
        key = key[len("book "):]
    elif key.startswith("book_"):
        key = key[len("book_"):]
    key = key.replace("_", " ").replace("-", " ")
    key = "".join(key.split())
    return _SLOT_MAP.get(key, key)


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

def _value_tuple(vals: Iterable[str]) -> Tuple[str, ...]:
    # dedupe while preserving the order the source file listed alternates in
    return tuple(dict.fromkeys(vals))


@dataclass(frozen=True)
class DialogState:
    """Cumulative slot-value frame: (domain, slot) -> alternates, source order.

    Alternates model MultiWOZ 2.4's "a|b" multi-value annotations; order is
    preserved so that emitting "the first alternate" is deterministic.
    Entry equality is order-insensitive on the alternate set.
    """
    entries: FrozenSet[Tuple[str, str, Tuple[str, ...]]] = frozenset()

    @staticmethod
    def from_dict(d: Dict[Tuple[str, str], Iterable[str]]) -> "DialogState":
        return DialogState(frozenset(
            (dom, slot, _value_tuple(vals)) for (dom, slot), vals in d.items() if vals
        ))

    def as_dict(self) -> Dict[Tuple[str, str], Tuple[str, ...]]:
        return {(dom, slot): vals for dom, slot, vals in self.entries}

    def keys(self) -> Set[Tuple[str, str]]:
        return {(dom, slot) for dom, slot, _ in self.entries}

    def __bool__(self):
        return bool(self.entries)

    def __eq__(self, other):
        if not isinstance(other, DialogState):
            return NotImplemented
        return self._normalized() == other._normalized()

    def __hash__(self):
        return hash(self._normalized())

    def _normalized(self):
        return frozenset((d, s, frozenset(v)) for d, s, v in self.entries)


EMPTY_STATE = DialogState()


@dataclass(frozen=True)
class StateUpdate:
    """Per-turn diff between consecutive cumulative states."""
    added_or_changed: FrozenSet[Tuple[str, str, Tuple[str, ...]]] = frozenset()
    dropped: FrozenSet[Tuple[str, str]] = frozenset()
    dontcared: FrozenSet[Tuple[str, str]] = frozenset()

    @property
    def empty(self) -> bool:
        return not (self.added_or_changed or self.dropped or self.dontcared)

    @property
    def relaxes(self) -> bool:
        return bool(self.dropped or self.dontcared)


@dataclass(frozen=True)
class Turn:
    index: int
    speaker: Speaker
    utterance: str
    state: Optional[DialogState] = None
    program: Optional[str] = None
    flags: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class Dialog:
    dialog_id: str
    turns: Tuple[Turn, ...]
    services: Tuple[str, ...] = ()
    schema_refs: Tuple[str, ...] = ()

    def user_turns(self) -> List[Turn]:
        return [t for t in self.turns if t.speaker is Speaker.USER]

    def previous_user_state(self, turn_index: int) -> DialogState:
        """Cumulative state at the user turn preceding turn_index (empty if none)."""
        for t in reversed(self.turns[:turn_index]):
            if t.speaker is Speaker.USER and t.state is not None:
                return t.state
        return EMPTY_STATE


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

def state_update(prev: DialogState, curr: DialogState) -> StateUpdate:
    """Diff of cumulative states; total over any pair of states.

    A slot that was set and becomes the literal "dontcare" is a relaxation
    (dontcared), not an addition. A brand-new slot whose first value is
    "dontcare" counts as added (it still has to be predicted).
    """
    prev_d = prev.as_dict()
    curr_d = curr.as_dict()
    added = set()
    dontcared = set()
    for key, vals in curr_d.items():
        old = prev_d.get(key)
        if old is not None and set(old) == set(vals):
            continue
        if old is not None and set(vals) == {DONTCARE}:
            dontcared.add(key)
        else:
            added.add((key[0], key[1], vals))
    dropped = {key for key in prev_d if key not in curr_d}
    return StateUpdate(frozenset(added), frozenset(dropped), frozenset(dontcared))


def apply_update(prev: DialogState, update: StateUpdate) -> DialogState:
    """Left fold step; inverse of state_update given the same prev."""
    d = prev.as_dict()
    for dom, slot, vals in update.added_or_changed:
        d[(dom, slot)] = vals
    for key in update.dontcared:
        d[key] = (DONTCARE,)
    for key in update.dropped:
        d.pop(key, None)
    return DialogState.from_dict(d)


# ---------------------------------------------------------------------------
# reading input files
# ---------------------------------------------------------------------------

def _read_json(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise LoadError(f"missing file: {path}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}")


def _where(path, dialog_id=None, turn=None) -> str:
    """Location prefix of a loader error: the file, then the dialog and turn."""
    where = str(path)
    if dialog_id is not None:
        where += f": dialog {dialog_id}"
    if turn is not None:
        where += f", turn {turn}"
    return where


_KIND_NAMES = {dict: "a JSON object", list: "a JSON list", str: "a string"}


def _type_error(what: str, kind, value, path, dialog_id=None, turn=None) -> ParseError:
    return ParseError(f"{_where(path, dialog_id, turn)}: {what} must be "
                      f"{_KIND_NAMES[kind]}, got {type(value).__name__}")


def _check(value, kind, what: str, path, dialog_id=None, turn=None):
    """`value` if it is a `kind`, else a ParseError naming where it was found."""
    if isinstance(value, kind):
        return value
    raise _type_error(what, kind, value, path, dialog_id, turn)


# ---------------------------------------------------------------------------
# MultiWOZ
# ---------------------------------------------------------------------------

def _parse_multiwoz_state(metadata: dict, path, dialog_id, turn) -> DialogState:
    entries: Dict[Tuple[str, str], List[str]] = {}
    for domain, frame in metadata.items():
        if not isinstance(frame, dict):
            raise _type_error(f"metadata for domain {domain!r}", dict, frame,
                              path, dialog_id, turn)
        for section, prefix in (("semi", ""), ("book", "book ")):
            slots = frame.get(section, {})
            if not isinstance(slots, dict):
                raise _type_error(f"{domain!r} {section!r} section", dict, slots,
                                  path, dialog_id, turn)
            for slot, value in slots.items():
                if slot == "booked":
                    continue
                if isinstance(value, list):
                    value = value[0] if value else ""
                if not isinstance(value, str):
                    value = str(value)
                if value in _ABSENT_VALUES or value.strip().lower() in _ABSENT_VALUES:
                    continue
                vals = [v.strip() for v in value.split("|") if v.strip()]
                if not vals:
                    continue
                key = (domain.lower(), canonical_slot(prefix + slot))
                entries.setdefault(key, []).extend(vals)
    return DialogState.from_dict(entries)


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
                return {line.strip() for line in p.read_text("utf-8").splitlines()
                        if line.strip()}, set()
        raise LoadError(f"missing split list file for {split!r} under {root}")
    if split == "train":
        return None, _multiwoz_split_ids(root, "dev")[0] | _multiwoz_split_ids(root, "test")[0]
    raise LoadError(f"unknown MultiWOZ split {split!r}")


def _multiwoz_entry(entry, path, dialog_id, turn) -> Tuple[str, dict]:
    """(text, metadata) of one log entry."""
    _check(entry, dict, "log entry", path, dialog_id, turn)
    return (_check(entry.get("text", ""), str, "text", path, dialog_id, turn),
            _check(entry.get("metadata", {}), dict, "metadata", path, dialog_id, turn))


def load_multiwoz(path, split: str = "all") -> Corpus:
    """Load MultiWOZ 2.1/2.4-format data.

    `path` may be the data JSON itself (all its dialogs become the split)
    or a directory holding data.json plus valListFile/testListFile.
    """
    path = Path(path)
    wanted, excluded = None, set()
    if path.is_dir():
        path = path / "data.json"
        data = _read_json(path)
        wanted, excluded = _multiwoz_split_ids(path.parent, split)
    else:
        data = _read_json(path)
    if not isinstance(data, dict) or not data:
        raise LoadError(f"no dialogs found in {path}")

    ids = [i for i in data if (wanted is None or i in wanted) and i not in excluded]
    if not ids:
        raise LoadError(f"split {split!r} selected no dialogs from {path}")

    dialogs = []
    for dialog_id in ids:
        log = _check(data[dialog_id], dict, "dialog", path, dialog_id).get("log")
        if not isinstance(log, list) or not log:
            raise StructuralError(f"{_where(path, dialog_id)}: missing or empty turn log")
        turns: List[Turn] = []
        domains = set()
        for i, entry in enumerate(log):
            utterance, metadata = _multiwoz_entry(entry, path, dialog_id, i)
            is_user = i % 2 == 0
            if is_user and metadata:
                raise StructuralError(f"{_where(path, dialog_id, i)}: "
                                      "non-alternating speakers (state on a user turn)")
            if not is_user and not metadata:
                raise StructuralError(f"{_where(path, dialog_id, i)}: "
                                      "non-alternating speakers (no state on an agent turn)")
            if is_user:
                # cumulative belief state for a user turn lives in the
                # following wizard turn's metadata
                if i + 1 >= len(log):
                    raise StructuralError(
                        f"{_where(path, dialog_id, i)}: user turn has no system annotation")
                _, agent_metadata = _multiwoz_entry(log[i + 1], path, dialog_id, i + 1)
                state = _parse_multiwoz_state(agent_metadata, path, dialog_id, i + 1)
                turns.append(Turn(i, Speaker.USER, utterance, state=state))
                domains |= {dom for dom, _, _ in state.entries}
            else:
                turns.append(Turn(i, Speaker.AGENT, utterance))
        dialogs.append(Dialog(dialog_id, tuple(turns), services=tuple(sorted(domains))))
    return Corpus(DatasetKind.MULTIWOZ, split, tuple(dialogs))


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------

# (service, raw slot name, raw values) -> ((service, canonical slot), state
# entry, or None when every value is absent); one per load_sgd call
_SlotMemo = Dict[tuple, Tuple[Tuple[str, str], Optional[Tuple[str, str, Tuple[str, ...]]]]]


def _sgd_schemas(path: Path) -> Dict[str, str]:
    schemas = {}
    for k, svc in enumerate(_check(_read_json(path), list, "schema", path)):
        where = f"service {k}"
        _check(svc, dict, where, path)
        if "service_name" not in svc:
            raise StructuralError(f"{path}: {where}: missing 'service_name'")
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
    memo[(svc, slot, tuple(values))] = hit = (canon, (svc, canon[1], vals) if vals else None)
    return hit


def _sgd_dialog(raw, path: Path, schemas: Dict[str, str], memo: _SlotMemo) -> Dialog:
    _check(raw, dict, "dialog", path)
    dialog_id = _check(raw.get("dialogue_id", "?"), str, "dialogue_id", path)
    services = tuple(_check(raw.get("services", []), list, "services", path, dialog_id))
    for svc in services:
        if not isinstance(svc, str) or svc not in schemas:
            raise StructuralError(
                f"{_where(path, dialog_id)}: references service {svc!r} not in schema")
    turns: List[Turn] = []
    cumulative: Dict[Tuple[str, str], Tuple[str, str, Tuple[str, ...]]] = {}
    for i, t in enumerate(_check(raw.get("turns", []), list, "turns", path, dialog_id)):
        _check(t, dict, "turn", path, dialog_id, i)
        speaker = _check(t.get("speaker", ""), str, "speaker", path, dialog_id, i).upper()
        utterance = _check(t.get("utterance", ""), str, "utterance", path, dialog_id, i)
        if speaker != ("USER" if i % 2 == 0 else "SYSTEM"):
            raise StructuralError(f"{_where(path, dialog_id, i)}: non-alternating speakers")
        if speaker == "SYSTEM":
            turns.append(Turn(i, Speaker.AGENT, utterance))
            continue
        for frame in _check(t.get("frames", []), list, "frames", path, dialog_id, i):
            _check(frame, dict, "frame", path, dialog_id, i)
            svc = frame.get("service", "")
            if not isinstance(svc, str) or svc not in schemas:
                raise StructuralError(f"{_where(path, dialog_id, i)}: "
                                      f"frame references service {svc!r} not in schema")
            state = _check(frame.get("state", {}), dict, "frame state", path, dialog_id, i)
            slot_values = _check(state.get("slot_values", {}), dict, "slot_values",
                                 path, dialog_id, i)
            # rebuild this service's slice of the cumulative state; SGD frames
            # restate a service's whole state on every turn, so most slot
            # entries repeat an earlier one
            cumulative = {k: v for k, v in cumulative.items() if k[0] != svc}
            for slot, values in slot_values.items():
                # checked first: tuple() of a string or object could equal a key
                if not isinstance(values, list):
                    raise _type_error(f"values of slot {slot!r}", list, values,
                                      path, dialog_id, i)
                try:
                    key, entry = memo[(svc, slot, tuple(values))]
                except (KeyError, TypeError):  # TypeError: an unhashable, so invalid, value
                    key, entry = _sgd_slot(memo, svc, slot, values, path, dialog_id, i)
                if entry is not None:
                    cumulative[key] = entry
        turns.append(Turn(i, Speaker.USER, utterance,
                          state=DialogState(frozenset(cumulative.values()))))
    if not turns:
        raise StructuralError(f"{_where(path, dialog_id)}: empty dialog")
    return Dialog(dialog_id, tuple(turns), services=services, schema_refs=services)


def load_sgd(path, split: str = "test") -> Corpus:
    """Load an SGD split directory (dialogues_*.json + schema.json).

    `path` is the dataset root containing per-split subdirectories, or the
    split directory itself.
    """
    root = Path(path)
    split_dir = root / split if (root / split).is_dir() else root
    schema_path = split_dir / "schema.json"
    if not schema_path.exists():
        raise LoadError(f"missing schema file: {schema_path}")
    schemas = _sgd_schemas(schema_path)

    dialog_files = sorted(split_dir.glob("dialogues_*.json"))
    if not dialog_files:
        raise LoadError(f"no dialogues_*.json files under {split_dir}")

    memo: _SlotMemo = {}
    dialogs = [_sgd_dialog(raw, file, schemas, memo)
               for file in dialog_files
               for raw in _check(_read_json(file), list, "dialogues file", file)]
    if not dialogs:
        raise LoadError(f"no dialogs found under {split_dir}")
    return Corpus(DatasetKind.SGD, split, tuple(dialogs), schemas=schemas)


# ---------------------------------------------------------------------------
# SMCalFlow
# ---------------------------------------------------------------------------

def load_smcalflow(path, split: str = "train") -> Corpus:
    """Load a line-delimited SMCalFlow dialog file.

    Each source exchange becomes a user turn (with its Lispress program)
    followed by the agent's reply; a trailing empty agent reply is dropped
    so dialogs may end on a user turn.
    """
    path = Path(path)
    if not path.exists():
        raise LoadError(f"missing file: {path}")
    dialogs = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: malformed JSON: {exc}")
            line_path = f"{path}:{lineno}"
            _check(raw, dict, "dialog", line_path)
            dialog_id = _check(raw.get("dialogue_id", f"line{lineno}"), str, "dialogue_id",
                               line_path)
            turns: List[Turn] = []
            idx = 0
            source_turns = _check(raw.get("turns", []), list, "turns", line_path, dialog_id)
            for k, t in enumerate(source_turns):
                _check(t, dict, "turn", line_path, dialog_id, k)
                user_text = _utt_text(t.get("user_utterance"), line_path, dialog_id, k)
                program = t.get("lispress")
                if program is None:
                    raise StructuralError(f"{_where(line_path, dialog_id, k)}: missing a program")
                _check(program, str, "lispress", line_path, dialog_id, k)
                flags = set()
                oracle = _check(t.get("program_execution_oracle", {}), dict,
                                "program_execution_oracle", line_path, dialog_id, k)
                if oracle.get("refer_are_incorrect") or t.get("refer_are_incorrect"):
                    flags.add("refer_are_incorrect")
                turns.append(Turn(idx, Speaker.USER, user_text,
                                  program=program, flags=frozenset(flags)))
                idx += 1
                agent_text = _utt_text(t.get("agent_utterance"), line_path, dialog_id, k)
                if agent_text or k + 1 < len(source_turns):
                    turns.append(Turn(idx, Speaker.AGENT, agent_text))
                    idx += 1
            if not turns:
                raise StructuralError(f"{_where(line_path, dialog_id)}: empty dialog")
            dialogs.append(Dialog(dialog_id, tuple(turns)))
    if not dialogs:
        raise LoadError(f"empty SMCalFlow file: {path}")
    return Corpus(DatasetKind.SMCALFLOW, split, tuple(dialogs))


def _utt_text(utt, path, dialog_id, turn) -> str:
    if utt is None:
        return ""
    if isinstance(utt, str):
        return utt
    _check(utt, dict, "utterance", path, dialog_id, turn)
    return _check(utt.get("original_text", ""), str, "original_text", path, dialog_id, turn)


# ---------------------------------------------------------------------------
# structural validation (used by the CLI validate subcommand)
# ---------------------------------------------------------------------------

def validate_corpus(corpus: Corpus) -> List[str]:
    """Return a list of human-readable invariant violations (empty = clean)."""
    from . import lispress

    violations = []
    seen_ids = set()
    for dialog in corpus.dialogs:
        if dialog.dialog_id in seen_ids:
            violations.append(f"duplicate dialog_id {dialog.dialog_id}")
        seen_ids.add(dialog.dialog_id)
        prev_speaker = None
        for turn in dialog.turns:
            if turn.index == 0 and turn.speaker is not Speaker.USER:
                violations.append(f"{dialog.dialog_id}: first turn is not a user turn")
            if prev_speaker is not None and turn.speaker is prev_speaker:
                violations.append(
                    f"{dialog.dialog_id}: consecutive {turn.speaker.value} turns at {turn.index}")
            prev_speaker = turn.speaker
            if turn.speaker is Speaker.USER:
                if corpus.dataset_kind is DatasetKind.SMCALFLOW:
                    if turn.program is None:
                        violations.append(
                            f"{dialog.dialog_id}: user turn {turn.index} has no program")
                    else:
                        try:
                            lispress.parse(turn.program)
                        except lispress.LispressError as exc:
                            violations.append(
                                f"{dialog.dialog_id}: turn {turn.index} program does not parse: {exc}")
                elif turn.state is None:
                    violations.append(
                        f"{dialog.dialog_id}: user turn {turn.index} has no state")
        # accumulation identity: folding per-turn updates rebuilds every state
        if corpus.dataset_kind is not DatasetKind.SMCALFLOW:
            running = EMPTY_STATE
            for turn in dialog.user_turns():
                if turn.state is None:
                    continue
                upd = state_update(running, turn.state)
                running = apply_update(running, upd)
                if running != turn.state:
                    violations.append(
                        f"{dialog.dialog_id}: accumulation identity broken at turn {turn.index}")
                    running = turn.state
    return violations
