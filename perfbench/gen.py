"""Seeded synthetic corpora for the dialoscope benchmark.

`generate(out_dir, seed)` writes raw dataset files in the three formats
the loaders read, plus everything the benchmark checks outputs against:

    mwz/data.json, mwz/testListFile.txt, mwz/valListFile.txt
    mwz/overrides.tsv        adjudications for deliberately unresolvable values
    sgd/test/schema.json, sgd/test/dialogues_NNN.json
    smcalflow/valid.dataflow_dialogues.jsonl
    preds/sgd.jsonl          gold targets, a fixed share wrong, missing or unparseable
    preds/smcalflow.jsonl    gold programs, re-indented
    truth.json               planted truth: delta_c, category and context per slot

The same seed and sizes give byte-identical files.

Every planted value surfaces once in its dialog, at the planted
conversational distance, in a form whose match category is fixed by the
tables below. Values within a dialog are kept apart (distinct literals,
random names more than four edits from each other and from the filler
vocabulary), so no other utterance can match a value first.

SGD street addresses keep their commas. Their update targets do not
survive `parse_target` today, and the benchmark counts that, rather than
leaving them out.

    python3 perfbench/gen.py --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import json
import random
import re
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import srcpath  # noqa: F401
from dialoscope.corpus import StateUpdate, canonical_slot
from dialoscope.linearize import linearize_target


@dataclass(frozen=True)
class Sizes:
    mwz_dialogs: int = 1000   # test split
    mwz_other: int = 100      # dialogs outside the test split
    sgd_dialogs: int = 200
    sgd_per_file: int = 64
    smc_dialogs: int = 500


FULL = Sizes()
TINY = Sizes(mwz_dialogs=12, mwz_other=3, sgd_dialogs=8, sgd_per_file=3,
             smc_dialogs=12)

# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

# Filler sentences carry no value. test_perfbench checks that none of them
# matches any fixed value below, typo pass included.
USER_FILLERS = ["okay then", "let me think", "that sounds lovely",
                "please note this", "could you check", "thanks so much",
                "i would like that", "perfect , thanks", "go ahead",
                "hmm , good question", "that works well", "sounds great"]
AGENT_FILLERS = ["how can i help", "anything more", "let me look into it",
                 "i have noted it down", "just a moment please",
                 "happy to help", "what else do you need", "got it"]

NUMBER_WORDS = {2: "two", 3: "three", 4: "four", 5: "five", 6: "six",
                7: "seven", 8: "eight", 9: "nine"}
# (value, entity surface): renderings the paper counts as entity recognition
# ("past" would be a typo of "east" and "pasta"; "tue" one of "true")
TIMES = [("16:30", "4:30 pm"), ("18:00", "6 pm"), ("18:00", "6 o'clock"),
         ("09:15", "9:15 am"), ("19:45", "quarter to 8"), ("19:45", "7:45 pm"),
         ("12:30", "12:30pm"), ("20:00", "8 pm"), ("10:30", "10:30am"),
         ("17:15", "5:15 pm")]
WEEKDAYS = {"monday": "mon", "wednesday": "wed", "thursday": "thu",
            "friday": "fri", "saturday": "sat", "sunday": "sun"}
AREAS = ["north", "south", "west", "centre"]
CITIES = [("san francisco", "san fran"), ("san francisco", "sf"),
          ("new york", "nyc"), ("los angeles", "la"), ("cambridge", "cambs")]
# slot kind -> (value, surface) pairs the bundled lexicon maps semantically
SEMANTIC = {
    "pricerange": [("cheap", "low priced"), ("cheap", "on a budget"),
                   ("expensive", "upscale"), ("moderate", "mid-range")],
    "parking": [("yes", "free parking")],
    "internet": [("yes", "wifi")],
    "hoteltype": [("guesthouse", "guest house")],
    "food": [("italian", "pizza")],
    "stay": [("7", "a week")],
    "outdoor": [("true", "outdoor seating")],
    "smoking": [("true", "smoking allowed")],
}
STREET_SUFFIXES = ["avenue", "street", "road", "boulevard", "lane", "drive"]

NAME_KINDS = {"name", "food", "attraction"}
CONTEXTS = ["situational", "user_knowledge", "external_knowledge"]

_CONS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

FIXED_WORDS = sorted({w for s in USER_FILLERS + AGENT_FILLERS for w in s.split()}
                     | set(NUMBER_WORDS.values()) | set(WEEKDAYS) | set(AREAS)
                     | {w for _, s in TIMES for w in s.split()}
                     | {w for v, s in CITIES for w in (v + " " + s).split()}
                     | {w for pairs in SEMANTIC.values() for v, s in pairs
                        for w in (v + " " + s).split()}
                     | set(STREET_SUFFIXES) | {"theatre", "theater", "suite"})


_NAME_GAP = 4  # typo surfaces are 2 edits off, typo thresholds are 2
_NAME_LENGTHS = (9, 12)  # three or four consonant-vowel-consonant syllables


def _within(a: str, b: str, limit: int) -> bool:
    """True if the optimal string alignment distance of a and b is <= limit
    (the generator's own copy, with an early exit)."""
    prev2: List[int] = []
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        curr = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cost = a[i - 1] != b[j - 1]
            curr[j] = min(prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                curr[j] = min(curr[j], prev2[j - 2] + 1)
        if min(curr) > limit:
            return False
        prev2, prev = prev, curr
    return prev[-1] <= limit


def _near(a: str, ca: Dict[str, int], b: str, cb: Dict[str, int]) -> bool:
    """True if a and b (with letter counts ca, cb) are <= _NAME_GAP edits apart."""
    if abs(len(a) - len(b)) > _NAME_GAP:
        return False
    get = ca.get
    if max(len(a), len(b)) - sum(min(n, get(ch, 0)) for ch, n in cb.items()) > _NAME_GAP:
        return False
    return _within(a, b, _NAME_GAP)


# The typo pass only compares strings whose lengths differ by at most 2, so
# a name can only be confused with words of nearby length.
_FIXED_BY_LENGTH = {
    n: [(w, dict(Counter(w))) for w in FIXED_WORDS if abs(len(w) - n) <= 2]
    for n in _NAME_LENGTHS}


class _Names:
    """Random pronounceable names; two names of one length, or a name and a
    fixed word, are more than _NAME_GAP edits apart."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used = {n: [] for n in _NAME_LENGTHS}

    def fresh(self) -> str:
        rng = self.rng
        while True:
            name = "".join(rng.choice(_CONS) + rng.choice(_VOWELS) + rng.choice(_CONS)
                           for _ in range(rng.choice(_NAME_LENGTHS) // 3))
            counts = dict(Counter(name))
            taken = self.used[len(name)]
            if any(_near(name, counts, w, c) for w, c in taken):
                continue
            if any(_near(name, counts, w, c) for w, c in _FIXED_BY_LENGTH[len(name)]):
                continue
            taken.append((name, counts))
            return name


def _transpose(rng: random.Random, name: str) -> str:
    """One adjacent transposition: edit distance 1."""
    while True:
        j = rng.randrange(2, len(name) - 3)
        if name[j] != name[j + 1]:
            return name[:j] + name[j + 1] + name[j] + name[j + 2:]


def _substitute_two(rng: random.Random, name: str) -> str:
    """Two non-adjacent substitutions: edit distance 2."""
    j = rng.randrange(1, len(name) // 2 - 1)
    k = rng.randrange(len(name) // 2 + 1, len(name) - 1)
    chars = list(name)
    for pos in (j, k):
        pool = _VOWELS if chars[pos] in _VOWELS else _CONS
        chars[pos] = rng.choice([c for c in pool if c != chars[pos]])
    return "".join(chars)


# ---------------------------------------------------------------------------
# slot catalogs
# ---------------------------------------------------------------------------

# MultiWOZ: domain -> section -> [(raw slot, kind)]
MWZ_SCHEMA = {
    "restaurant": {"semi": [("food", "food"), ("pricerange", "pricerange"),
                            ("name", "name"), ("area", "area")],
                   "book": [("time", "time"), ("day", "day"),
                            ("people", "number")]},
    "hotel": {"semi": [("name", "name"), ("area", "area"),
                       ("parking", "parking"), ("pricerange", "pricerange"),
                       ("stars", "number"), ("internet", "internet"),
                       ("type", "hoteltype")],
              "book": [("stay", "stay"), ("day", "day"), ("people", "number")]},
    "attraction": {"semi": [("type", "name"), ("name", "attraction"),
                            ("area", "area")], "book": []},
    "train": {"semi": [("leaveAt", "time"), ("destination", "name"),
                       ("day", "day"), ("arriveBy", "time"),
                       ("departure", "name")],
              "book": [("people", "number")]},
    "taxi": {"semi": [("leaveAt", "time"), ("destination", "name"),
                      ("departure", "name"), ("arriveBy", "time")], "book": []},
    "hospital": {"semi": [("department", "name")], "book": []},
    "police": {"semi": [], "book": []},
}

# SGD: service -> (description, [(raw slot, kind)])
SGD_SCHEMA = {
    "Restaurants_1": ("A leading provider for restaurant search and reservations",
                      [("restaurant_name", "name"), ("city", "city"),
                       ("date", "day"), ("time", "time"),
                       ("party_size", "number"), ("street_address", "address"),
                       ("price_range", "pricerange"), ("cuisine", "name"),
                       ("has_seating_outdoors", "outdoor")]),
    "Hotels_2": ("A popular service for searching and reserving houses for "
                 "getaways", [("where_to", "city"), ("check_in_date", "day"),
                              ("number_of_adults", "number"), ("address", "address"),
                              ("property_name", "name"), ("smoking_allowed", "smoking")]),
    "Events_1": ("The comprehensive portal to find and reserve seats at events "
                 "near you", [("event_name", "name"), ("category", "name"),
                              ("subcategory", "name"), ("venue", "attraction"),
                              ("venue_address", "address"),
                              ("number_of_seats", "number"), ("city_of_event", "city")]),
    "Movies_1": ("A go-to provider for finding movies, searching for show "
                 "times and booking tickets", [("movie_name", "name"),
                                               ("theater_name", "name"),
                                               ("genre", "name"), ("show_time", "time"),
                                               ("number_of_tickets", "number")]),
    "RideSharing_2": ("App to book a cab to any destination, number of seats "
                      "and ride type", [("destination", "address"),
                                        ("ride_type", "name"),
                                        ("number_of_riders", "number")]),
    "Travel_1": ("The biggest database of tourist attractions and points of "
                 "interest", [("location", "city"), ("attraction_name", "attraction"),
                              ("category", "name"), ("good_for_kids", "name")]),
    "Music_1": ("A popular provider of a wide range of music content for "
                "searching and listening", [("song_name", "name"), ("artist", "name"),
                                            ("album", "name"), ("playback_device", "name")]),
    "Homes_1": ("A widely used service for finding apartments and scheduling "
                "visits", [("area", "city"), ("property_name", "name"),
                           ("address", "address"), ("visit_date", "day"),
                           ("number_of_beds", "number")]),
}


@dataclass(frozen=True)
class Profile:
    """Shape of one corpus: delta_c, slots per turn and category mix."""
    p_nothing: float
    p_relax: float
    slots_per_turn: Tuple[Tuple[int, float], ...]
    dc_head: Tuple[float, ...]     # P(delta_c = 0), P(1), ...
    dc_tail_p: float               # geometric decay past the head
    dc_max: int
    categories: Tuple[Tuple[str, float], ...]


MWZ_PROFILE = Profile(
    p_nothing=0.22, p_relax=0.35,
    slots_per_turn=((1, 0.6), (2, 0.3), (3, 0.1)),
    dc_head=(0.70, 0.14), dc_tail_p=0.30, dc_max=17,
    categories=(("verbatim", 0.55), ("typo1", 0.05), ("typo2", 0.02),
                ("entity", 0.17), ("semantic", 0.10), ("override", 0.07),
                ("unresolved", 0.02)))

# modal delta_c >= 2 bucket is 3; the tail reaches past 24
SGD_PROFILE = Profile(
    p_nothing=0.30, p_relax=0.25,
    slots_per_turn=((1, 0.65), (2, 0.28), (3, 0.07)),
    dc_head=(0.35, 0.12, 0.08, 0.15), dc_tail_p=0.15, dc_max=30,
    categories=(("verbatim", 0.55), ("address", 0.06), ("typo1", 0.04),
                ("typo2", 0.02), ("entity", 0.16), ("semantic", 0.10),
                ("unresolved", 0.04)))


def _weighted(rng: random.Random, pairs):
    x = rng.random() * sum(w for _, w in pairs)
    for item, w in pairs:
        x -= w
        if x < 0:
            return item
    return pairs[-1][0]


def _shuffled(rng: random.Random, pairs, n: int) -> list:
    """n items in the proportions of the (item, weight) pairs, shuffled, so
    that corpus sizes do not vary with the seed."""
    total = sum(w for _, w in pairs)
    items = [item for item, w in pairs for _ in range(int(n * w / total))]
    items += [item for item, _ in sorted(pairs, key=lambda p: -p[1])][:n - len(items)]
    rng.shuffle(items)
    return items


def _put_first(items: list, item):
    """Move one `item` to the front, or let it replace the first one."""
    if item in items:
        items.remove(item)
        items.insert(0, item)
    else:
        items[0] = item


def _draw_dc(rng: random.Random, prof: Profile) -> int:
    x = rng.random()
    for d, p in enumerate(prof.dc_head):
        if x < p:
            return d
        x -= p
    d = len(prof.dc_head)
    while d < prof.dc_max and rng.random() > prof.dc_tail_p:
        d += 1
    return d


# ---------------------------------------------------------------------------
# dialog planning
# ---------------------------------------------------------------------------

Key = Tuple[str, str]  # (domain or service, raw slot name)


def _digits(text: str) -> set:
    return set(re.findall(r"\d+", text))


class _Dialog:
    """Plants one dialog's values; `turns` holds the truth per user turn."""

    def __init__(self, rng, dialog_id, catalog: Dict[Key, str], canon, prof):
        self.rng = rng
        self.dialog_id = dialog_id
        self.catalog = catalog
        self.canon = canon            # Key -> canonical (domain, slot)
        self.prof = prof
        self.names = _Names(rng)
        self.used_values: set = set()
        self.digits: set = set()      # digit tokens present in planted text
        self.exclusive: set = set()   # kinds allowed once per dialog
        self.state: Dict[Key, str] = {}
        self.turn_keys: set = set()   # slots set by the user turn being built
        self.surfaces: List[List[str]] = []
        self.states: List[Dict[Key, str]] = []
        self.turns: List[dict] = []
        self.overrides: List[Tuple] = []

    def build(self, n_exchanges: int, forced_dc: Optional[int] = None):
        self.surfaces = [[] for _ in range(2 * n_exchanges)]
        for k in range(n_exchanges):
            i = 2 * k
            slots = []
            relax = False
            last = k == n_exchanges - 1
            self.turn_keys = set()
            if forced_dc is not None and last:
                slots.append(self._add(i, dc=min(forced_dc, i), category="verbatim"))
            elif self.rng.random() < self.prof.p_nothing:
                if self.state and self.rng.random() < self.prof.p_relax:
                    key = self.rng.choice(sorted(self.state))
                    if self.state[key] == "dontcare" or self.rng.random() < 0.5:
                        del self.state[key]
                    else:
                        self.state[key] = "dontcare"
                    relax = True
            else:
                for _ in range(_weighted(self.rng, self.prof.slots_per_turn)):
                    slots.append(self._add(i))
            slots = [s for s in slots if s is not None]
            self.states.append(dict(self.state))
            self.turns.append({"dialog_id": self.dialog_id, "turn_index": i,
                               "slots": slots, "relax": relax})
        return self

    def _free(self, kinds) -> List[Key]:
        return [k for k, kind in self.catalog.items()
                if kind in kinds and k not in self.state and k not in self.turn_keys]

    def _claim(self, value: str, kind: str) -> bool:
        key = (value, kind) if value in ("yes", "true") else value
        if key in self.used_values:
            return False
        self.used_values.add(key)
        return True

    def _add(self, i: int, dc: Optional[int] = None, category: Optional[str] = None):
        rng = self.rng
        if dc is None:
            dc = min(_draw_dc(rng, self.prof), i)
        if category is None:
            category = _weighted(rng, self.prof.categories)
        planted = self._plant(category)
        if planted is None:
            planted = self._plant("verbatim", name_only=True)
        if planted is None:
            return None
        key, value, surface, category = planted
        self.state[key] = value
        self.turn_keys.add(key)
        domain, slot = self.canon[key]
        if category == "override":
            odc = rng.randint(0, min(i, self.prof.dc_max))
            ocat = rng.choice(["computation", "other"])
            octx = rng.choice(CONTEXTS)
            self.overrides.append((self.dialog_id, i, domain, slot, odc, ocat, octx))
            return [domain, slot, odc, ocat, octx]
        if category == "unresolved":
            return [domain, slot, None, "unresolved", "unknown"]
        self.surfaces[i - dc].append(surface)
        report = {"typo1": "typo", "typo2": "other", "address": "verbatim",
                  "entity": "entity_recognition",
                  "semantic": "semantic_understanding"}.get(category, category)
        return [domain, slot, dc, report, "non_contextual"]

    def _name_key(self) -> Optional[Key]:
        """A free name-valued slot, else an occupied one to change."""
        free = self._free(NAME_KINDS)
        if free:
            return self.rng.choice(free)
        taken = sorted(k for k, kind in self.catalog.items()
                       if kind in NAME_KINDS and k not in self.turn_keys)
        return self.rng.choice(taken) if taken else None

    def _plant(self, category: str, name_only: bool = False):
        """(key, value, surface, category) or None if the category cannot be
        planted in this dialog any more."""
        rng = self.rng
        if category in ("verbatim", "typo1", "typo2", "override", "unresolved"):
            if category == "verbatim" and not name_only and rng.random() < 0.5:
                planted = self._plant_fixed_verbatim()
                if planted is not None:
                    return planted
            key = self._name_key()
            if key is None:
                return None
            value = self.names.fresh()
            if self.catalog[key] == "attraction":
                value += " theatre"
            self._claim(value, "name")
            surface = value
            if category in ("typo1", "typo2"):
                typo = _transpose if category == "typo1" else _substitute_two
                surface = value.replace(value.split()[0], typo(rng, value.split()[0]))
            return key, value, surface, category
        if category == "address":
            free = self._free({"address"})
            if not free:
                return None
            value = (f"{rng.randint(1000, 9899)} {self.names.fresh()} "
                     f"{rng.choice(STREET_SUFFIXES)}")
            if rng.random() < 0.7:
                value += f", suite {rng.randint(100, 989)}"
            self._claim(value, "address")
            return rng.choice(free), value, value, "address"
        if category == "entity":
            return self._plant_entity()
        if category == "semantic":
            free = self._free(set(SEMANTIC) - self.exclusive)
            rng.shuffle(free)
            for key in free:
                kind = self.catalog[key]
                value, surface = rng.choice(SEMANTIC[kind])
                if value == "7" and "7" in self.digits:
                    continue
                if self._claim(value, kind):
                    self.exclusive.add(kind)
                    self.digits |= _digits(value)
                    return key, value, surface, "semantic"
            return None
        return None

    def _pick_number(self, key: Key, word: bool):
        choices = [n for n in NUMBER_WORDS if str(n) not in self.digits
                   and str(n) not in self.used_values]
        if not choices:
            return None
        n = self.rng.choice(choices)
        self._claim(str(n), "number")
        self.digits.add(str(n))
        return key, str(n), NUMBER_WORDS[n] if word else str(n)

    def _pick_time(self, key: Key, verbatim: bool):
        if "time" in self.exclusive:
            return None
        options = [(v, s) for v, s in TIMES
                   if not (_digits(v if verbatim else s) & self.digits)]
        if not options:
            return None
        value, surface = self.rng.choice(options)
        surface = value if verbatim else surface
        self.exclusive.add("time")
        self._claim(value, "time")
        self.digits |= _digits(surface)
        return key, value, surface

    def _plant_fixed_verbatim(self):
        rng = self.rng
        free = self._free({"number", "time", "day", "area", "city", "pricerange", "stay"})
        rng.shuffle(free)
        for key in free:
            kind = self.catalog[key]
            got = None
            if kind in ("number", "stay"):
                got = self._pick_number(key, word=False)
            elif kind == "time":
                got = self._pick_time(key, verbatim=True)
            elif kind in ("day", "pricerange") and kind not in self.exclusive:
                pool = list(WEEKDAYS) if kind == "day" else ["cheap", "expensive", "moderate"]
                value = rng.choice(pool)
                self.exclusive.add(kind)
                self._claim(value, kind)
                got = key, value, value
            elif kind == "area":
                pool = [a for a in AREAS if a not in self.used_values]
                if pool:
                    value = rng.choice(pool)
                    self._claim(value, kind)
                    got = key, value, value
            elif kind == "city":
                pool = [c for c, _ in CITIES if c not in self.used_values]
                if pool:
                    value = rng.choice(pool)
                    self._claim(value, kind)
                    got = key, value, value
            if got is not None:
                return got + ("verbatim",)
        return None

    def _plant_entity(self):
        rng = self.rng
        free = self._free({"number", "stay", "time", "day", "area", "city", "attraction"})
        rng.shuffle(free)
        for key in free:
            kind = self.catalog[key]
            got = None
            if kind in ("number", "stay"):
                got = self._pick_number(key, word=True)
            elif kind == "time":
                got = self._pick_time(key, verbatim=False)
            elif kind == "day" and "day" not in self.exclusive:
                value = rng.choice(list(WEEKDAYS))
                self.exclusive.add("day")
                self._claim(value, kind)
                got = key, value, WEEKDAYS[value]
            elif kind == "area" and "centre" not in self.used_values:
                self._claim("centre", kind)
                got = key, "centre", "center"
            elif kind == "city":
                pool = [(c, s) for c, s in CITIES if c not in self.used_values]
                if pool:
                    value, surface = rng.choice(pool)
                    self._claim(value, kind)
                    got = key, value, surface
            elif kind == "attraction":
                name = self.names.fresh()
                self._claim(name + " theatre", "name")
                got = key, name + " theatre", name + " theater"
            if got is not None:
                return got + ("entity",)
        return None

    def utterances(self) -> List[str]:
        out = []
        for i, planted in enumerate(self.surfaces):
            fillers = USER_FILLERS if i % 2 == 0 else AGENT_FILLERS
            text = " , ".join(self.rng.sample(fillers, 2))
            if planted:
                text += " , " + " and ".join(planted)
            out.append(text + " .")
        return out


def _diff(prev: Dict[Key, str], curr: Dict[Key, str]):
    """(set, drop, dontcare) key lists, with dialoscope's state-diff rules."""
    set_, dontcare = [], []
    for key, value in curr.items():
        old = prev.get(key)
        if old == value:
            continue
        if old is not None and value == "dontcare":
            dontcare.append(key)
        else:
            set_.append(key)
    drop = [key for key in prev if key not in curr]
    return set_, drop, dontcare


# ---------------------------------------------------------------------------
# MultiWOZ
# ---------------------------------------------------------------------------

def _mwz_catalog():
    catalog, canon = {}, {}
    for domain, sections in MWZ_SCHEMA.items():
        for section, slots in sections.items():
            for raw, kind in slots:
                key = (domain, f"{section}:{raw}")
                catalog[key] = kind
                prefix = "book " if section == "book" else ""
                canon[key] = (domain, canonical_slot(prefix + raw))
    return catalog, canon


def _mwz_metadata(state: Dict[Key, str]) -> dict:
    meta = {}
    for domain, sections in MWZ_SCHEMA.items():
        book = {"booked": []}
        book.update({raw: state.get((domain, f"book:{raw}"), "")
                     for raw, _ in sections["book"]})
        semi = {raw: state.get((domain, f"semi:{raw}"), "not mentioned")
                for raw, _ in sections["semi"]}
        meta[domain] = {"book": book, "semi": semi}
    return meta


# (exchanges, weight): 7.5 user turns per dialog on average
_MWZ_LENGTHS = [(3, 4), (4, 8), (5, 12), (6, 15), (7, 15), (8, 12), (9, 10),
                (10, 8), (11, 7), (12, 4), (13, 3), (14, 1)]


def _gen_mwz(rng, sizes: Sizes):
    catalog, canon = _mwz_catalog()
    data, test_ids, val_ids, truth, overrides = {}, [], [], [], []
    total = sizes.mwz_dialogs + sizes.mwz_other
    lengths = (_shuffled(rng, _MWZ_LENGTHS, sizes.mwz_dialogs)
               + _shuffled(rng, _MWZ_LENGTHS, sizes.mwz_other))
    _put_first(lengths, 10)
    for n in range(total):
        prefix = rng.choice(["SNG", "MUL", "PMUL"])
        dialog_id = f"{prefix}{n:05d}.json"
        in_test = n < sizes.mwz_dialogs
        # the first test dialog carries the deepest planted distance
        forced = MWZ_PROFILE.dc_max if n == 0 else None
        length = lengths[n]
        dlg = _Dialog(rng, dialog_id, catalog, canon, MWZ_PROFILE).build(length, forced)
        texts = dlg.utterances()
        log = []
        for k, state in enumerate(dlg.states):
            log.append({"text": texts[2 * k], "metadata": {}})
            log.append({"text": texts[2 * k + 1], "metadata": _mwz_metadata(state)})
        data[dialog_id] = {"goal": {}, "log": log}
        if in_test:
            test_ids.append(dialog_id)
            truth.extend(dlg.turns)
            overrides.extend(dlg.overrides)
        elif n % 2:
            val_ids.append(dialog_id)
    return data, test_ids, val_ids, truth, overrides


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------

_PRED_KINDS = (("gold", 0.90), ("wrong", 0.05), ("missing", 0.025),
               ("unparseable", 0.025))
UNPARSEABLE = "garbled prediction"


def _update_doc(canon, state_prev, state_curr) -> dict:
    set_, drop, dontcare = _diff(state_prev, state_curr)
    return {"set": [[*canon[k], state_curr[k]] for k in set_],
            "drop": [list(canon[k]) for k in drop],
            "dontcare": [list(canon[k]) for k in dontcare]}


def _state_update(doc: dict) -> StateUpdate:
    return StateUpdate(
        frozenset((d, s, (v,)) for d, s, v in doc["set"]),
        frozenset((d, s) for d, s in doc["drop"]),
        frozenset((d, s) for d, s in doc["dontcare"]))


def _gen_sgd(rng, sizes: Sizes):
    services = list(SGD_SCHEMA)
    dialogs, truth, preds = [], [], []
    lengths = _shuffled(rng, [(k, 1) for k in range(10, 31)], sizes.sgd_dialogs)
    _put_first(lengths, 30)
    n_services = _shuffled(rng, [(1, 1), (2, 2), (3, 1)], sizes.sgd_dialogs)
    for n in range(sizes.sgd_dialogs):
        dialog_id = f"{n // sizes.sgd_per_file + 1}_{n % sizes.sgd_per_file:05d}"
        used = sorted(rng.sample(services, n_services[n]),
                      key=services.index)
        catalog = {(svc, raw): kind for svc in used for raw, kind in SGD_SCHEMA[svc][1]}
        canon = {key: (key[0], canonical_slot(key[1])) for key in catalog}
        forced = 27 if n == 0 else None
        length = lengths[n]
        dlg = _Dialog(rng, dialog_id, catalog, canon, SGD_PROFILE).build(length, forced)
        texts = dlg.utterances()
        turns = []
        prev: Dict[Key, str] = {}
        for k, state in enumerate(dlg.states):
            frames = [{"service": svc, "slots": [],
                       "state": {"active_intent": "NONE", "requested_slots": [],
                                 "slot_values": {raw: [v] for (s, raw), v in state.items()
                                                 if s == svc}}}
                      for svc in used]
            turns.append({"speaker": "USER", "utterance": texts[2 * k], "frames": frames})
            turns.append({"speaker": "SYSTEM", "utterance": texts[2 * k + 1],
                          "frames": [{"service": used[0], "slots": [], "actions": []}]})
            entry = dlg.turns[k]
            entry["update"] = _update_doc(canon, prev, state)
            kind = _weighted(rng, _PRED_KINDS)
            entry["pred"] = kind
            entry["pred_update"] = None
            prediction = None
            if kind == "gold":
                entry["pred_update"] = entry["update"]
                prediction = linearize_target(_state_update(entry["update"]))
            elif kind == "wrong":
                wrong = json.loads(json.dumps(entry["update"]))
                if wrong["set"]:
                    wrong["set"][0][2] = dlg.names.fresh()
                else:
                    wrong["set"].append([used[0], "bogus", dlg.names.fresh()])
                entry["pred_update"] = wrong
                prediction = linearize_target(_state_update(wrong))
            elif kind == "unparseable":
                prediction = UNPARSEABLE
            if prediction is not None:
                preds.append({"dialogue_id": dialog_id, "turn_index": 2 * k,
                              "prediction": prediction})
            truth.append(entry)
            prev = state
        dialogs.append({"dialogue_id": dialog_id, "services": used, "turns": turns})
    schema = [{"service_name": svc, "description": desc,
               "slots": [{"name": raw, "description": raw.replace("_", " ")}
                         for raw, _ in slots], "intents": []}
              for svc, (desc, slots) in SGD_SCHEMA.items()]
    return schema, dialogs, truth, preds


# ---------------------------------------------------------------------------
# SMCalFlow
# ---------------------------------------------------------------------------

_SUBJECTS = ["lunch with dan", "team sync", "dentist", 'the \\"big\\" review',
             "coffee", "quarterly planning", "yoga", "call with mom"]
_DATES = ["Today", "Tomorrow", "NextWeek", "ThisWeekend"]
P_REFER = 0.29
P_REVISE = 0.09


def _typed(tag, child):
    return ("#", tag, child)


def _event(rng):
    return ["Constraint[Event]",
            ":subject", ["?=", f'"{rng.choice(_SUBJECTS)}"'],
            ":start", ["?=", ["DateAtTimeWithDefaults",
                              ":date", [rng.choice(_DATES)],
                              ":time", ["NumberPM", ":number",
                                        _typed("Number", str(rng.randint(1, 11)))]]]]


def _program(rng, refer: bool, revise: bool):
    if refer:
        target = ["refer", ["extensionConstraint", ["Constraint[Event]"]]]
        core = ["UpdateCommitEventWrapper",
                ":event", ["UpdatePreflightEventWrapper",
                           ":id", [":id", ["singleton", [":results", [
                               "FindEventWrapperWithDefaults", ":constraint", target]]]],
                           ":update", _event(rng)]]
    else:
        core = ["CreateCommitEventWrapper",
                ":event", ["CreatePreflightEventWrapper", ":constraint", _event(rng)]]
    if revise:
        core = ["revise", ":oldLocation", ["Constraint[Constraint[Event]]"],
                ":rootLocation", ["roleConstraint", ["Path.apply", '"output"']],
                ":new", core]
    return ["Yield", ":output", core]


def _canonical(node) -> str:
    if isinstance(node, str):
        return node
    if isinstance(node, tuple):
        return f"#({node[1]} {_canonical(node[2])})"
    return "(" + " ".join(_canonical(c) for c in node) + ")"


def _pretty(node, indent: str, depth: int = 0) -> str:
    if not isinstance(node, list):
        return _canonical(node)
    pad = "\n" + indent * (depth + 1)
    parts = [_pretty(c, indent, depth + 1) for c in node]
    return "(" + parts[0] + "".join(
        (pad if isinstance(c, list) else " ") + p for c, p in zip(node[1:], parts[1:])) + ")"


def _gen_smcalflow(rng, sizes: Sizes):
    lines, truth, preds = [], [], []
    lengths = _shuffled(rng, [(k, 1) for k in range(1, 7)], sizes.smc_dialogs)
    for n in range(sizes.smc_dialogs):
        dialog_id = f"smc-{n:05d}"
        turns = []
        n_turns = lengths[n]
        for k in range(n_turns):
            refer, revise = rng.random() < P_REFER, rng.random() < P_REVISE
            program = _program(rng, refer, revise)
            last = k == n_turns - 1
            agent = "" if last and rng.random() < 0.5 else rng.choice(AGENT_FILLERS)
            turns.append({
                "user_utterance": {"original_text": rng.choice(USER_FILLERS)},
                "agent_utterance": {"original_text": agent},
                "lispress": _pretty(program, "  "),
                "program_execution_oracle": {"has_exception": False,
                                             "refer_are_incorrect": rng.random() < 0.05},
            })
            truth.append({"dialog_id": dialog_id, "turn_index": 2 * k,
                          "program": _canonical(program), "refer": refer,
                          "revise": revise})
            preds.append({"dialogue_id": dialog_id, "turn_index": 2 * k,
                          "prediction": _pretty(program, "\t")})
        lines.append(json.dumps({"dialogue_id": dialog_id, "turns": turns}))
    return lines, truth, preds


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, "utf-8")


def _jsonl(records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def generate(out_dir, seed: int, sizes: Sizes = FULL) -> Path:
    """Write every input file and truth.json under out_dir; return out_dir."""
    out = Path(out_dir)
    rng = random.Random(seed)
    data, test_ids, val_ids, mwz_truth, overrides = _gen_mwz(rng, sizes)
    _write(out / "mwz" / "data.json", json.dumps(data))
    _write(out / "mwz" / "testListFile.txt", "".join(i + "\n" for i in test_ids))
    _write(out / "mwz" / "valListFile.txt", "".join(i + "\n" for i in val_ids))
    rows = ["# dialog_id\tturn_index\tdomain\tslot\tdelta_c\tcategory\tcontext_class"]
    rows += ["\t".join(str(f) for f in row) for row in overrides]
    _write(out / "mwz" / "overrides.tsv", "\n".join(rows) + "\n")

    schema, sgd_dialogs, sgd_truth, sgd_preds = _gen_sgd(rng, sizes)
    _write(out / "sgd" / "test" / "schema.json", json.dumps(schema, indent=2))
    for start in range(0, len(sgd_dialogs), sizes.sgd_per_file):
        number = start // sizes.sgd_per_file + 1
        _write(out / "sgd" / "test" / f"dialogues_{number:03d}.json",
               json.dumps(sgd_dialogs[start:start + sizes.sgd_per_file], indent=2))
    _write(out / "preds" / "sgd.jsonl", _jsonl(sgd_preds))

    smc_lines, smc_truth, smc_preds = _gen_smcalflow(rng, sizes)
    _write(out / "smcalflow" / "valid.dataflow_dialogues.jsonl",
           "".join(line + "\n" for line in smc_lines))
    _write(out / "preds" / "smcalflow.jsonl", _jsonl(smc_preds))

    truth = {"seed": seed, "sizes": asdict(sizes), "mwz": mwz_truth,
             "sgd": sgd_truth, "smcalflow": smc_truth}
    _write(out / "truth.json", json.dumps(truth))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.out, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
