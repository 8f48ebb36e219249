"""Shared fixtures: miniature raw dataset files and synthetic corpora."""
import json
from collections import Counter
from pathlib import Path

import pytest

from dialoscope import lispress
from dialoscope.corpus import Corpus, DatasetKind, Dialog, Speaker, Turn, state_update
from dialoscope.linearize import linearize_target

# test data files: the published Table 2 numbers and example overrides
DATA = Path(__file__).resolve().parent / "data"


def load_table2(name):
    """A published Table 2 document, e.g. 'table2_multiwoz_test'."""
    return json.loads((DATA / f"{name}.json").read_text("utf-8"))


def gold_predictions(corpus):
    """Perfect predictions derived from the gold annotations."""
    preds = {}
    for dialog in corpus.dialogs:
        for turn in dialog.user_turns():
            if corpus.dataset_kind is DatasetKind.SMCALFLOW:
                preds[(dialog.dialog_id, turn.index)] = turn.program
            else:
                prev = dialog.previous_user_state(turn.index)
                preds[(dialog.dialog_id, turn.index)] = linearize_target(
                    state_update(prev, turn.state))
    return preds


# ---------------------------------------------------------------------------
# raw MultiWOZ fixtures
# ---------------------------------------------------------------------------

def mwz_metadata(state):
    """state: {domain: {slot: value}} -> raw metadata dict (semi slots)."""
    meta = {}
    for domain, slots in state.items():
        meta[domain] = {"semi": dict(slots), "book": {"booked": []}}
    return meta


def mwz_dialog(exchanges):
    """exchanges: list of (user_text, cumulative_state, agent_text)."""
    log = []
    for user_text, state, agent_text in exchanges:
        log.append({"text": user_text, "metadata": {}})
        log.append({"text": agent_text, "metadata": mwz_metadata(state)})
    return {"log": log}


def mwz_dialogs():
    """Two hand-built dialogs: a Fig-1-style trace target and a relaxation case."""
    mul0635 = mwz_dialog([
        ("i'd like to book a room at the university arms hotel .",
         {"hotel": {"name": "university arms hotel"}},
         "sure , anything else ?"),
        ("also find me a museum to visit .",
         {"hotel": {"name": "university arms hotel"},
          "attraction": {"type": "museum"}},
         "the broughton house gallery is nice ."),
        ("thanks , that works .",
         {"hotel": {"name": "university arms hotel"},
          "attraction": {"type": "museum"}},
         "anything else ?"),
        ("we will be there from friday , just the 2 of us .",
         {"hotel": {"name": "university arms hotel", "day": "friday",
                    "book people": "2"},
          "attraction": {"type": "museum"}},
         "booking done . can i help with more ?"),
        ("i need a train to get there .",
         {"hotel": {"name": "university arms hotel", "day": "friday",
                    "book people": "2"},
          "attraction": {"type": "museum"}},
         "where would you like to go , and when ?"),
        ("i need to arrive by 09:00 .",
         {"hotel": {"name": "university arms hotel", "day": "friday",
                    "book people": "2"},
          "attraction": {"type": "museum"},
          "train": {"arriveBy": "09:00", "day": "friday",
                    "destination": "cambridge"}},
         "booked !"),
    ])
    sng0073 = mwz_dialog([
        ("i want a cheap restaurant in the center of town .",
         {"restaurant": {"area": "centre", "pricerange": "cheap"}},
         "there are several . any cuisine preference ?"),
        ("actually make it the north , cuisine doesn't matter .",
         {"restaurant": {"area": "north", "pricerange": "cheap",
                         "food": "dontcare"}},
         "alright ."),
        ("on second thought , any price range is fine .",
         {"restaurant": {"area": "north", "pricerange": "dontcare",
                         "food": "dontcare"}},
         "done ."),
    ])
    return {"MUL0635.json": mul0635, "SNG0073.json": sng0073}


@pytest.fixture
def mwz_raw():
    return mwz_dialogs()


@pytest.fixture
def mwz_path(tmp_path, mwz_raw):
    path = tmp_path / "mwz.json"
    path.write_text(json.dumps(mwz_raw), "utf-8")
    return path


# ---------------------------------------------------------------------------
# raw SGD fixtures
# ---------------------------------------------------------------------------

SGD_SCHEMA = [
    {"service_name": "Restaurants_1",
     "description": "A service for finding and reserving restaurants"},
    {"service_name": "Hotels_1",
     "description": "A service for booking hotel rooms"},
]


def sgd_turn(speaker, utterance, frames=None):
    turn = {"speaker": speaker, "utterance": utterance}
    if speaker == "USER":
        turn["frames"] = frames or []
    return turn


def sgd_user_frame(service, slot_values):
    return {"service": service,
            "state": {"active_intent": "NONE", "requested_slots": [],
                      "slot_values": {k: list(v) for k, v in slot_values.items()}}}


def sgd_dialogs():
    dlg1 = {
        "dialogue_id": "1_00000",
        "services": ["Restaurants_1"],
        "turns": [
            sgd_turn("USER", "i want a table at sushi go in san francisco .",
                     [sgd_user_frame("Restaurants_1",
                                     {"restaurant_name": ["sushi go"],
                                      "city": ["san francisco"]})]),
            sgd_turn("SYSTEM", "when would you like the reservation ?"),
            sgd_turn("USER", "friday at 6 pm .",
                     [sgd_user_frame("Restaurants_1",
                                     {"restaurant_name": ["sushi go"],
                                      "city": ["san francisco"],
                                      "date": ["friday"], "time": ["6 pm"]})]),
            sgd_turn("SYSTEM",
                     "please confirm : a table for 2 at sushi go on friday at 6 pm ."),
            sgd_turn("USER", "is there parking nearby ?",
                     [sgd_user_frame("Restaurants_1",
                                     {"restaurant_name": ["sushi go"],
                                      "city": ["san francisco"],
                                      "date": ["friday"], "time": ["6 pm"]})]),
            sgd_turn("SYSTEM", "yes , there is a lot next door ."),
            sgd_turn("USER", "great , go ahead and book it .",
                     [sgd_user_frame("Restaurants_1",
                                     {"restaurant_name": ["sushi go"],
                                      "city": ["san francisco"],
                                      "date": ["friday"], "time": ["6 pm"],
                                      "party_size": ["2"]})]),
            sgd_turn("SYSTEM", "your table is booked ."),
        ],
    }
    dlg2 = {
        "dialogue_id": "1_00001",
        "services": ["Hotels_1"],
        "turns": [
            sgd_turn("USER", "find me a hotel in london .",
                     [sgd_user_frame("Hotels_1", {"location": ["london"]})]),
            sgd_turn("SYSTEM", "how many nights ?"),
            sgd_turn("USER", "three nights please .",
                     [sgd_user_frame("Hotels_1", {"location": ["london"],
                                                  "number_of_days": ["3"]})]),
            sgd_turn("SYSTEM", "done ."),
        ],
    }
    return [dlg1, dlg2]


def write_sgd(root, dialogs):
    """Write `dialogs` as the test split of root/sgd; return root/sgd."""
    split_dir = root / "sgd" / "test"
    split_dir.mkdir(parents=True)
    (split_dir / "schema.json").write_text(json.dumps(SGD_SCHEMA), "utf-8")
    (split_dir / "dialogues_001.json").write_text(json.dumps(dialogs), "utf-8")
    return root / "sgd"


@pytest.fixture
def sgd_raw():
    return sgd_dialogs()


@pytest.fixture
def sgd_path(tmp_path, sgd_raw):
    return write_sgd(tmp_path, sgd_raw)


# ---------------------------------------------------------------------------
# raw SMCalFlow fixtures
# ---------------------------------------------------------------------------

def smcalflow_dialogs():
    def turn(user, program, agent, flagged=False):
        return {
            "user_utterance": {"original_text": user},
            "lispress": program,
            "agent_utterance": {"original_text": agent},
            "program_execution_oracle": {"has_exception": False,
                                         "refer_are_incorrect": flagged},
        }
    return [
        {"dialogue_id": "calflow-0", "turns": [
            turn("what is today", "(Yield :output (Today))", "it is monday ."),
            turn("whats on my calendar then",
                 "(Yield :output (refer (extensionConstraint (Event))))",
                 "you have one event .", flagged=True),
            turn("move it an hour later",
                 "(Yield :output (a (b (revise (c)))))", ""),
        ]},
        {"dialogue_id": "calflow-1", "turns": [
            turn("create a meeting with dan",
                 '(Yield :output (CreateEvent (attendee #(PersonName "Dan"))))',
                 "done ."),
        ]},
    ]


@pytest.fixture
def smcalflow_raw():
    return smcalflow_dialogs()


@pytest.fixture
def smcalflow_path(tmp_path, smcalflow_raw):
    path = tmp_path / "calflow.jsonl"
    path.write_text("\n".join(json.dumps(d) for d in smcalflow_raw) + "\n", "utf-8")
    return path


@pytest.fixture
def parse_calls(monkeypatch):
    """A Counter of the texts `lispress.parse` is called on, through the
    module attribute (as the benchmark's tracer counts its calls)."""
    calls = Counter()
    parse = lispress.parse

    def counting_parse(text):
        calls[text] += 1
        return parse(text)

    monkeypatch.setattr(lispress, "parse", counting_parse)
    return calls


def smcalflow_repeated_dialogs():
    """The SMCalFlow fixture with two distinct programs over four turns:
    calflow-0's flagged `refer` turn repeats as its unflagged last turn,
    and its first program opens calflow-1."""
    dialogs = smcalflow_dialogs()
    first, second = dialogs
    first["turns"][2]["lispress"] = first["turns"][1]["lispress"]
    second["turns"][0]["lispress"] = first["turns"][0]["lispress"]
    return dialogs


@pytest.fixture
def smcalflow_repeated_path(tmp_path):
    path = tmp_path / "repeated.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in smcalflow_repeated_dialogs()),
                    "utf-8")
    return path


# ---------------------------------------------------------------------------
# synthetic planted-distance corpus (the analysis ground-truth oracle)
# ---------------------------------------------------------------------------

FILLERS = ["okay then", "certainly", "let me see", "alright", "understood",
           "of course", "noted", "very well", "sounds good", "anything else"]

# (label, domain, slot, value, planted surface, expected category, sub-kind)
PLANT_SPECS = [
    ("verbatim", "test", "instrument", "harpsichord", "harpsichord",
     "verbatim", None),
    ("typo", "test", "instrument", "harpsichord", "harpsichrod",
     "typo", None),
    ("number", "test", "people", "4", "four",
     "entity_recognition", "number"),
    ("date_time", "test", "time", "16:30", "half past 4",
     "entity_recognition", "date_time"),
    ("alt_spelling", "test", "venue", "theatre", "theater",
     "entity_recognition", "alt_spelling"),
    ("shortcut", "test", "day", "saturday", "sat",
     "entity_recognition", "shortcut"),
    ("semantic", "test", "pricerange", "inexpensive", "on a budget",
     "semantic_understanding", None),
]


def build_planted_corpus():
    """21 dialogs, one planted slot value each, covering every category at
    distances 0..6. Returns (corpus, expectations) where expectations maps
    (dialog_id, turn_index, domain, slot) -> (delta_c, category, sub_kind).
    """
    target = 12  # user turn the value is added at; 13 turns per dialog
    dialogs = []
    expectations = {}
    combos = [(spec, delta) for delta in range(7) for spec in PLANT_SPECS]
    # 7 deltas x 7 categories is 49; take a 21-dialog slice that still covers
    # every category and every delta at least twice
    chosen = [combos[i] for i in range(0, len(combos), 7)]  # one per delta, rotating
    for delta in range(7):
        for k, spec in enumerate(PLANT_SPECS):
            if (spec, delta) not in chosen and (delta + k) % 3 == 0:
                chosen.append((spec, delta))
    chosen = chosen[:21]

    for n, (spec, delta) in enumerate(chosen):
        label, domain, slot, value, surface, category, sub_kind = spec
        dialog_id = f"plant-{n:02d}-{label}-d{delta}"
        turns = []
        plant_at = target - delta
        for i in range(target + 1):
            speaker = Speaker.USER if i % 2 == 0 else Speaker.AGENT
            text = FILLERS[(n + i) % len(FILLERS)]
            if i == plant_at:
                text = f"{text} , {surface} please"
            state = None
            if speaker is Speaker.USER:
                state = {(domain, slot): (value,)} if i == target else {}
            turns.append(Turn(i, speaker, text, state=state))
        dialogs.append(Dialog(dialog_id, tuple(turns)))
        expectations[(dialog_id, target, domain, slot)] = (delta, category, sub_kind)
    return (Corpus(DatasetKind.MULTIWOZ, "synthetic", tuple(dialogs)),
            expectations)


@pytest.fixture(scope="session")
def planted():
    return build_planted_corpus()
