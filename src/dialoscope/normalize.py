"""Surface-variant generation and slot-value matching in utterance text.

A normalized slot value may surface in an utterance verbatim, as a typo,
as an equivalent entity rendering (number words, time phrases, weekday
abbreviations, alternative spellings, shortcuts), or as a semantically
equivalent phrase from a curated lexicon. `variants` enumerates the
generatable surfaces; `match_in_text` locates the value in a turn's text
and classifies how it surfaced.
"""
from __future__ import annotations

import re
import string
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import islice
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .corpus import InputError, text_lines


class MatchCategory(str, Enum):
    VERBATIM = "verbatim"
    TYPO = "typo"
    ENTITY_RECOGNITION = "entity_recognition"
    SEMANTIC_UNDERSTANDING = "semantic_understanding"
    COMPUTATION = "computation"
    # curated-other lexicon phrases and manual overrides land here
    OTHER = "other"
    UNRESOLVED = "unresolved"


class EntityKind(str, Enum):
    ALT_SPELLING = "alt_spelling"
    NUMBER = "number"
    DATE_TIME = "date_time"
    SHORTCUT = "shortcut"


@dataclass(slots=True, unsafe_hash=True)
class Variant:
    surface: str
    category: MatchCategory
    sub_kind: Optional[EntityKind] = None


# slotted but not frozen, for build speed: see the note above corpus.StateUpdate
@dataclass(slots=True, unsafe_hash=True)
class MatchResult:
    category: MatchCategory
    sub_kind: Optional[EntityKind] = None
    span: Optional[Tuple[int, int]] = None
    matched_surface: Optional[str] = None
    distance: Optional[int] = None  # edit distance, typo matches only

    @property
    def resolved(self) -> bool:
        return self.category is not MatchCategory.UNRESOLVED


UNRESOLVED = MatchResult(MatchCategory.UNRESOLVED)


# ---------------------------------------------------------------------------
# lexicon
# ---------------------------------------------------------------------------


@dataclass
class Lexicon:
    """Curated phrase mappings, immutable after load.

    Keys are "domain/slot/value", "slot/value" or "*/value", all lowercase.
    `match_in_text` caches one match plan per (value, slot) on the lexicon
    that produced it. The cache and the index of phrase-key values take no
    part in equality.
    """
    semantic_map: Dict[str, Set[str]]
    shortcut_map: Dict[str, Set[str]]
    other_map: Dict[str, Set[str]]
    _plans: Dict[Tuple[str, Optional[Tuple[str, str]]], "_MatchPlan"] = field(
        default_factory=dict, compare=False, repr=False)
    # every lowered value that can hit a semantic or other key: each tail of
    # a key after one of its '/'s, since a value may hold '/' itself (*/24/7)
    _phrase_values: FrozenSet[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        keys = [key.split("/") for table in (self.semantic_map, self.other_map)
                for key in table]
        self._phrase_values = frozenset(
            "/".join(parts[i:]) for parts in keys for i in range(1, len(parts)))

    @staticmethod
    def empty() -> "Lexicon":
        return Lexicon({}, {}, {})

    def _lookup(self, table: Dict[str, Set[str]], value: str,
                slot: Optional[Tuple[str, str]]) -> List[str]:
        value = value.lower()
        keys = []
        if slot is not None:
            domain, name = slot
            keys.append(f"{domain.lower()}/{name.lower()}/{value}")
            keys.append(f"{name.lower()}/{value}")
        keys.append(f"*/{value}")
        phrases: List[str] = []
        for key in keys:
            for phrase in sorted(table.get(key, ())):
                if phrase not in phrases:
                    phrases.append(phrase)
        return phrases

    def semantic_phrases(self, value, slot=None):
        return self._lookup(self.semantic_map, value, slot)

    def other_phrases(self, value, slot=None):
        return self._lookup(self.other_map, value, slot)

    def shortcuts(self, value: str) -> List[str]:
        return sorted(self.shortcut_map.get(value.lower(), ()))


def load_lexicon(path) -> Lexicon:
    """Parse the plain-text lexicon file.

    Line format: `[domain/]slot/value: phrase|phrase|...`. Lines starting
    with `!shortcut` map an entity to abbreviations, `!other` marks
    curated-other phrases. `#` starts a comment; duplicate keys merge.
    """
    semantic: Dict[str, Set[str]] = {}
    shortcut: Dict[str, Set[str]] = {}
    other: Dict[str, Set[str]] = {}
    for lineno, line in text_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        table = semantic
        if line.startswith("!shortcut "):
            table = shortcut
            line = line[len("!shortcut "):]
        elif line.startswith("!other "):
            table = other
            line = line[len("!other "):]
        key, sep, phrases = line.partition(":")
        key = key.strip().lower()
        if not sep or not key:
            raise InputError(f"{path}:{lineno}: expected 'key: phrase|phrase'")
        if table is not shortcut and "/" not in key:
            raise InputError(f"{path}:{lineno}: key must be [domain/]slot/value")
        phrase_set = {p.strip().lower() for p in phrases.split("|") if p.strip()}
        if not phrase_set:
            raise InputError(f"{path}:{lineno}: empty phrase set")
        table.setdefault(key, set()).update(phrase_set)
    return Lexicon(semantic, shortcut, other)


_EMPTY_LEXICON = Lexicon.empty()


def default_lexicon() -> Lexicon:
    from importlib import resources
    with resources.as_file(resources.files("dialoscope") / "data" / "lexicon.txt") as p:
        return load_lexicon(p)


# ---------------------------------------------------------------------------
# entity renderings
# ---------------------------------------------------------------------------

_ONES = ["zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
         "nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
         "sixteen", "seventeen", "eighteen", "nineteen"]
_TENS = ["", "", "twenty", "thirty", "forty", "fifty", "sixty", "seventy",
         "eighty", "ninety"]


def number_to_words(n: int) -> str:
    if n < 0:
        return "minus " + number_to_words(-n)
    if n < 20:
        return _ONES[n]
    if n < 100:
        tens, ones = divmod(n, 10)
        return _TENS[tens] + (f" {_ONES[ones]}" if ones else "")
    if n < 1000:
        hundreds, rest = divmod(n, 100)
        out = f"{_ONES[hundreds]} hundred"
        return out + (f" {number_to_words(rest)}" if rest else "")
    thousands, rest = divmod(n, 1000)
    out = f"{number_to_words(thousands)} thousand"
    return out + (f" {number_to_words(rest)}" if rest else "")


@lru_cache(maxsize=1)
def _words_to_number() -> Dict[str, int]:
    table = {}
    for i in range(0, 1000):
        words = number_to_words(i)
        table[words] = i
        table[words.replace(" ", "-")] = i
    return table


_WEEKDAYS = {
    "monday": "mon", "tuesday": "tue", "wednesday": "wed", "thursday": "thu",
    "friday": "fri", "saturday": "sat", "sunday": "sun",
}
_WEEKDAY_ABBR = {abbr: full for full, abbr in _WEEKDAYS.items()}
_WEEKDAY_ABBR.update({"tues": "tuesday", "thur": "thursday", "thurs": "thursday"})

_ALT_SPELLINGS = [
    ("center", "centre"), ("theater", "theatre"), ("color", "colour"),
    ("neighborhood", "neighbourhood"), ("gray", "grey"),
    ("catalog", "catalogue"), ("favorite", "favourite"),
    ("jewelry", "jewellery"), ("traveling", "travelling"),
]

_ALT_WORDS = frozenset(w for pair in _ALT_SPELLINGS for w in pair)

_TIME_24H = re.compile(r"^([01]?\d|2[0-3]):([0-5]\d)$")
_TIME_12H = re.compile(r"^(1[0-2]|0?\d):([0-5]\d)\s*(am|pm)$", re.IGNORECASE)
_CURRENCY = re.compile(r"^\$\s?(\d+)(?:\.\d+)?$")
_INT = re.compile(r"^\d+$")


def _clock_variants(hour24: int, minute: int) -> List[str]:
    h12 = hour24 % 12 or 12
    ampm = "am" if hour24 < 12 else "pm"
    out = [f"{h12}:{minute:02d} {ampm}", f"{h12}:{minute:02d}{ampm}"]
    if minute == 0:
        out += [f"{h12} {ampm}", f"{h12} o'clock"]
    elif minute == 30:
        out.append(f"half past {h12}")
    elif minute == 15:
        out.append(f"quarter past {h12}")
    elif minute == 45:
        nxt = (hour24 + 1) % 24 % 12 or 12
        out.append(f"quarter to {nxt}")
    return out


def _time_variants(value: str) -> List[str]:
    m = _TIME_24H.match(value)
    if m:
        hour, minute = int(m.group(1)), int(m.group(2))
        out = list(_clock_variants(hour, minute))
        h12 = hour % 12 or 12
        for alt in (f"{hour}:{minute:02d}", f"{hour:02d}:{minute:02d}",
                    f"{h12}:{minute:02d}"):
            if alt != value:
                out.append(alt)
        return list(dict.fromkeys(out))
    m = _TIME_12H.match(value)
    if m:
        h12, minute, ampm = int(m.group(1)), int(m.group(2)), m.group(3).lower()
        hour24 = h12 % 12 + (12 if ampm == "pm" else 0)
        out = [f"{hour24:02d}:{minute:02d}", f"{hour24 % 24}:{minute:02d}"]
        out += [v for v in _clock_variants(hour24, minute) if v.lower() != value.lower()]
        return list(dict.fromkeys(out))
    return []


# numbers are spelled in words only below 1,000,000, that is with at most
# this many significant digits; int() never sees a longer digit string
_WORDS_MAX_DIGITS = 6


def _decimal(digits: str) -> str:
    """str(int(digits)) for a run of decimal digits in any script, without
    int(), which refuses strings past its digit limit."""
    if not digits.isascii():
        digits = "".join(str(unicodedata.decimal(c)) for c in digits)
    return digits.lstrip("0") or "0"


def _number_variants(value: str) -> List[str]:
    m = _INT.match(value)
    if m:
        text = _decimal(m.group())
        if len(text) > _WORDS_MAX_DIGITS:
            return []
        words = number_to_words(int(text))
        return [words, words.replace(" ", "-")] if " " in words else [words]
    n = _words_to_number().get(value.lower())
    return [str(n)] if n is not None else []


def _currency_variants(value: str) -> List[str]:
    m = _CURRENCY.match(value)
    if not m:
        return []
    text = _decimal(m.group(1))
    out = [f"{text} dollars", f"{text} bucks"]
    if len(text) <= _WORDS_MAX_DIGITS:
        words = number_to_words(int(text))
        out += [f"{words} dollars", f"{words} bucks"]
    return out


def _alt_spelling_variants(words: List[str]) -> List[str]:
    out = []
    for a, b in _ALT_SPELLINGS:
        for src, dst in ((a, b), (b, a)):
            if src in words:
                out.append(" ".join(dst if w == src else w for w in words))
    return out


def variants(value: str, slot: Optional[Tuple[str, str]] = None,
             lexicon: Optional[Lexicon] = None) -> List[Variant]:
    """All generatable surfaces of a value, verbatim first.

    Typo forms are never enumerated; they are caught at match time by
    bounded edit distance.
    """
    if not value:
        raise ValueError("value must be non-empty")
    lexicon = lexicon or _EMPTY_LEXICON
    lowered = value.lower()
    out = [Variant(value, MatchCategory.VERBATIM)]
    seen = {lowered}

    def add(surfaces, kind: Optional[EntityKind],
            category=MatchCategory.ENTITY_RECOGNITION):
        for s in surfaces:
            s = s.strip()
            if s and s.lower() not in seen:
                seen.add(s.lower())
                out.append(Variant(s, category, kind))

    # a family runs only when its regex or table can match the value
    if value[0].isdigit() or lowered in _words_to_number():
        add(_number_variants(value), EntityKind.NUMBER)
    if value[0] == "$":
        add(_currency_variants(value), EntityKind.NUMBER)
    if ":" in value:
        add(_time_variants(value), EntityKind.DATE_TIME)
    weekday = _WEEKDAYS.get(lowered) or _WEEKDAY_ABBR.get(lowered)
    if weekday:
        add([weekday], EntityKind.SHORTCUT)
    words = lowered.split()
    if not _ALT_WORDS.isdisjoint(words):
        add(_alt_spelling_variants(words), EntityKind.ALT_SPELLING)
    if lowered in lexicon.shortcut_map:
        add(lexicon.shortcuts(value), EntityKind.SHORTCUT)
    if lowered in lexicon._phrase_values:
        add(lexicon.semantic_phrases(value, slot), None, MatchCategory.SEMANTIC_UNDERSTANDING)
        add(lexicon.other_phrases(value, slot), None, MatchCategory.OTHER)
    return out


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

@lru_cache(maxsize=65536)
def _bounded_pattern(surface: str) -> "re.Pattern":
    return re.compile(r"(?<!\w)" + re.escape(surface) + r"(?!\w)", re.IGNORECASE)


_ASCII_WORD_CHARS = frozenset(string.ascii_letters + string.digits + "_")


def _find_word_bounded_ascii(needle: str, haystack: str) -> int:
    """Start of the first occurrence of needle in haystack with no word
    character on either side, or -1.

    Both strings ASCII and lowered: there the case-insensitive pattern of
    `_bounded_pattern` matches exactly these spans, and a substring search
    is much cheaper than compiling the pattern.
    """
    start = haystack.find(needle)
    while start >= 0:
        end = start + len(needle)
        if ((start == 0 or haystack[start - 1] not in _ASCII_WORD_CHARS)
                and (end == len(haystack) or haystack[end] not in _ASCII_WORD_CHARS)):
            return start
        start = haystack.find(needle, start + 1)
    return -1


# a token is a run of non-space characters stripped of this punctuation at
# both edges: it starts and ends with a character that is neither
_TOKEN_CHAR = r"[^\s" + re.escape(".,;!?\"'()[]") + "]"
_TOKEN_RE = re.compile(_TOKEN_CHAR + r"(?:\S*" + _TOKEN_CHAR + ")?")


# the backward search re-reads each utterance of a dialog for every slot of
# every later turn; 1024 entries hold a long dialog's utterances at each of
# the few word counts its values have
@lru_cache(maxsize=1024)
def _word_ngrams(text: str, n_words: int) -> Dict[int, List[Tuple[str, int]]]:
    """(lowered candidate, index of its first token) for each run of n_words
    tokens, in text order, grouped by the candidate's length.

    No candidate carries its character span: `_typo_match` recovers the
    span of its winner alone. Lowering ASCII text keeps every offset, so
    ASCII text is lowered once before it is tokenized; elsewhere each
    candidate is lowered on its own, since lowering can change a length
    (`İ`) or depend on the context (final sigma).
    """
    ascii_text = text.isascii()
    toks = _TOKEN_RE.findall(text.lower() if ascii_text else text)
    cands = toks if n_words == 1 else [
        " ".join(toks[i:i + n_words]) for i in range(len(toks) - n_words + 1)]
    if not ascii_text:
        cands = [cand.lower() for cand in cands]
    by_length: Dict[int, List[Tuple[str, int]]] = {}
    for first, cand in enumerate(cands):
        by_length.setdefault(len(cand), []).append((cand, first))
    return by_length


def damerau_levenshtein(a: str, b: str, limit: int) -> int:
    """Optimal string alignment distance (adjacent transposition counts 1),
    or `limit + 1` for any distance above `limit`.

    Only the diagonal band |i - j| <= limit is computed (cells outside it
    are above the limit anyway). The computation stops once the result is
    certain: at once when the lengths differ by more than `limit`, else at
    the first row whose minimum exceeds it; row minima never decrease
    (Ukkonen 1985). `limit=max(len(a), len(b))` gives the exact distance.

    The common prefix and suffix are trimmed first. The trim is exact: some
    alignment of least cost leaves a shared prefix or suffix unedited,
    transpositions across its boundary included, so the rest has the
    distance of the whole.
    """
    la, lb = len(a), len(b)
    if abs(la - lb) > limit:
        return limit + 1
    head, shorter = 0, min(la, lb)
    while head < shorter and a[head] == b[head]:
        head += 1
    tail = 0
    while tail < shorter - head and a[la - 1 - tail] == b[lb - 1 - tail]:
        tail += 1
    a, b = a[head:la - tail], b[head:lb - tail]
    la, lb = la - head - tail, lb - head - tail
    if la == 0 or lb == 0:
        return max(la, lb)
    cap = limit + 1  # stands for every value outside the band
    prev2: List[int] = []
    prev = [j if j <= limit else cap for j in range(lb + 1)]
    for i in range(1, la + 1):
        ca = a[i - 1]
        curr = [cap] * (lb + 1)
        if i <= limit:
            curr[0] = i
        for j in range(max(1, i - limit), min(lb, i + limit) + 1):
            d = prev[j - 1] + (ca != b[j - 1])
            if prev[j] < d:
                d = prev[j] + 1
            if curr[j - 1] < d:
                d = curr[j - 1] + 1
            if (i > 1 and j > 1 and ca == b[j - 2] and a[i - 2] == b[j - 1]
                    and prev2[j - 2] < d):
                d = prev2[j - 2] + 1
            curr[j] = d
        if min(curr) > limit:
            return cap
        prev2, prev = prev, curr
    return min(prev[lb], cap)


# typo matching is too noisy on very short strings; 4 chars is the floor
_TYPO_MIN_LEN = 4


def _typo_threshold(target: str) -> int:
    return 2 if len(target) >= 8 else 1


# (lowered surface, word count, threshold, the surface's characters)
_TypoTarget = Tuple[str, int, int, FrozenSet[str]]


# the typo pass reads each utterance once for every slot searched past it
@lru_cache(maxsize=1024)
def _text_chars(haystack: str) -> FrozenSet[str]:
    """The characters of lowered ASCII text, and the space that joins the
    words of a candidate."""
    return frozenset(haystack).union(" ")


def _typo_match(targets: Tuple[_TypoTarget, ...], text: str,
                haystack: Optional[str]) -> Optional[MatchResult]:
    """The typo of a target in text at the least distance, then the earliest
    start, then from the first target listed.

    A candidate is compared only when it is within `threshold` of the target
    in length and lacks at most `threshold` of the target's characters: an
    edit removes at most one of those, so any other candidate is farther
    off. In ASCII text (`haystack`, the lowered text) that also holds for
    the whole text, whose characters every candidate's are among. Outside
    ASCII lowering depends on context (final sigma), so the text is not
    checked there.

    Candidates are ranked by the index of their first token, which orders
    them as their start offsets do. Only the winner's character span is
    computed, by tokenizing the text once more.
    """
    best: Optional[Tuple[int, int, int]] = None  # (distance, first token, words)
    text_chars = None if haystack is None else _text_chars(haystack)
    for tgt, n_words, threshold, chars in targets:
        if text_chars is not None and len(chars - text_chars) > threshold:
            continue
        by_length = _word_ngrams(text, n_words)
        for length in range(len(tgt) - threshold, len(tgt) + threshold + 1):
            for cand, first in by_length.get(length, ()):
                if len(chars.difference(cand)) > threshold:
                    continue
                dist = damerau_levenshtein(tgt, cand, threshold)
                if dist == 0 or dist > threshold:
                    continue
                if best is None or (dist, first) < best[:2]:
                    best = (dist, first, n_words)
    if best is None:
        return None
    dist, first, n_words = best
    toks = list(islice(_TOKEN_RE.finditer(text), first, first + n_words))
    start, end = toks[0].start(), toks[-1].end()
    return MatchResult(MatchCategory.TYPO, span=(start, end),
                       matched_surface=text[start:end], distance=dist)


# (category, sub-kind, surface, needle); the needle, the lowered surface, is
# searched for directly in ASCII text, and is None for a non-ASCII surface,
# which is always searched for with its pattern
_Probe = Tuple[MatchCategory, Optional[EntityKind], str, Optional[str]]


@dataclass(slots=True, unsafe_hash=True)
class _MatchPlan:
    """The part of matching a (value, slot) that does not depend on the text."""
    # the value itself, then every other generated surface, in precedence
    # order: entity, semantic, other; longest surfaces first within a
    # category so the most specific phrase claims the span
    probes: Tuple[_Probe, ...]
    # every surface long enough for the typo pass (whitespace-only ones
    # have no words and can never match)
    typo_targets: Tuple[_TypoTarget, ...]


# match-category precedence, of the probes in a plan and of two surfaces
# found at the same distance: the lower rank wins
CATEGORY_RANK = {MatchCategory.VERBATIM: 0, MatchCategory.ENTITY_RECOGNITION: 1,
                 MatchCategory.SEMANTIC_UNDERSTANDING: 2, MatchCategory.OTHER: 3,
                 MatchCategory.TYPO: 4}
_PLAN_CACHE_MAX = 65536


def _match_plan(value: str, slot: Optional[Tuple[str, str]],
                lexicon: Lexicon) -> _MatchPlan:
    """Plan the matching of a (value, slot) from one pass over its variants,
    and cache the plan on the lexicon.

    The probes are the variants stably sorted by (category rank, longest
    surface first); a lone probe needs no sort. The typo targets keep the
    variants' order, which breaks ties between equal typo hits.
    """
    probes: List[_Probe] = []
    targets: List[_TypoTarget] = []
    for v in variants(value, slot, lexicon):
        surface = v.surface
        lowered = surface.lower()
        probes.append((v.category, v.sub_kind, surface,
                       lowered if surface.isascii() else None))
        if len(surface) >= _TYPO_MIN_LEN:
            n_words = len(surface.split())
            if n_words:
                targets.append((lowered, n_words, _typo_threshold(surface),
                                frozenset(lowered)))
    if len(probes) > 1:
        probes.sort(key=lambda p: (CATEGORY_RANK[p[0]], -len(p[2])))
    plan = _MatchPlan(tuple(probes), tuple(targets))
    if len(lexicon._plans) >= _PLAN_CACHE_MAX:
        lexicon._plans.clear()
    lexicon._plans[(value, slot)] = plan
    return plan


def match_in_text(value: str, slot: Optional[Tuple[str, str]], text: str,
                  lexicon: Optional[Lexicon] = None) -> MatchResult:
    """Locate a slot value in text, by category precedence.

    Precedence: verbatim, then entity recognition, then semantic
    understanding, then curated-other phrases, then typo (bounded
    Damerau-Levenshtein against the value or any variant). Only the text
    scan runs per call; the surfaces to look for are planned once per
    (value, slot) and cached on the lexicon.
    """
    if not value or not text:
        return UNRESOLVED
    lexicon = lexicon or _EMPTY_LEXICON
    plan = lexicon._plans.get((value, slot))
    if plan is None:
        plan = _match_plan(value, slot, lexicon)
    haystack = text.lower() if text.isascii() else None
    for category, sub_kind, surface, needle in plan.probes:
        if haystack is not None and needle is not None:
            start = _find_word_bounded_ascii(needle, haystack)
            if start < 0:
                continue
            span = (start, start + len(needle))
        else:
            m = _bounded_pattern(surface).search(text)
            if not m:
                continue
            span = m.span()
        return MatchResult(category, sub_kind=sub_kind, span=span,
                           matched_surface=text[span[0]:span[1]])
    return _typo_match(plan.typo_targets, text, haystack) or UNRESOLVED
