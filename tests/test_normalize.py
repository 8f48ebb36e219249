import re

import pytest
from hypothesis import given, settings, strategies as st

from dialoscope.normalize import (EntityKind, Lexicon, LexiconError,
                                  MatchCategory, MatchResult, UNRESOLVED,
                                  damerau_levenshtein, default_lexicon,
                                  load_lexicon, match_in_text, variants)

DEFAULT_LEXICON = default_lexicon()


# ---------------------------------------------------------------------------
# reference matcher: the straightforward per-call version, frozen here so the
# cached match plans and the bounded distance are checked verdict for verdict
# ---------------------------------------------------------------------------

def _ref_find(surface, text):
    m = re.search(r"(?<!\w)" + re.escape(surface) + r"(?!\w)", text, re.IGNORECASE)
    return (m.start(), m.end()) if m else None


def _ref_tokens(text):
    toks = []
    for m in re.finditer(r"\S+", text):
        tok, start = m.group(), m.start()
        stripped = tok.strip(".,;!?\"'()[]")
        if not stripped:
            continue
        offset = tok.index(stripped[0])
        toks.append((stripped, start + offset, start + offset + len(stripped)))
    return toks


def _ref_distance(a, b):
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return max(la, lb)
    prev2 = []
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        curr = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            curr[j] = min(prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + cost)
            if (i > 1 and j > 1 and a[i - 1] == b[j - 2]
                    and a[i - 2] == b[j - 1]):
                curr[j] = min(curr[j], prev2[j - 2] + 1)
        prev2, prev = prev, curr
    return prev[lb]


def _ref_typo(targets, text):
    toks = _ref_tokens(text)
    best = None
    for target in targets:
        if len(target) < 4:
            continue
        n_words = len(target.split())
        threshold = 2 if len(target) >= 8 else 1
        tgt = target.lower()
        for i in range(len(toks) - n_words + 1):
            cand = " ".join(t[0] for t in toks[i:i + n_words]).lower()
            if abs(len(cand) - len(tgt)) > threshold:
                continue
            dist = _ref_distance(tgt, cand)
            if dist == 0 or dist > threshold:
                continue
            span = (toks[i][1], toks[i + n_words - 1][2])
            result = MatchResult(MatchCategory.TYPO, span=span,
                                 matched_surface=text[span[0]:span[1]],
                                 distance=dist)
            if best is None or (dist, span[0]) < best[:2]:
                best = (dist, span[0], result)
    return best[2] if best else None


def reference_match_in_text(value, slot, text, lexicon=None):
    if not value or not text:
        return UNRESOLVED
    vlist = variants(value, slot, lexicon or Lexicon.empty())
    span = _ref_find(value, text)
    if span:
        return MatchResult(MatchCategory.VERBATIM, span=span,
                           matched_surface=text[span[0]:span[1]])
    for category in (MatchCategory.ENTITY_RECOGNITION,
                     MatchCategory.SEMANTIC_UNDERSTANDING, MatchCategory.OTHER):
        group = [v for v in vlist if v.category is category]
        group.sort(key=lambda v: -len(v.surface))
        for var in group:
            span = _ref_find(var.surface, text)
            if span:
                return MatchResult(category, sub_kind=var.sub_kind, span=span,
                                   matched_surface=text[span[0]:span[1]])
    return _ref_typo([v.surface for v in vlist], text) or UNRESOLVED


MATCH_VALUES = [
    ("harpsichord", ("test", "instrument")),
    ("guesthouse", ("hotel", "type")),
    ("university arms hotel", ("hotel", "name")),
    ("16:30", ("train", "arriveby")),
    ("4:30 pm", None),
    ("3", ("restaurant", "people")),
    ("$30", None),
    ("saturday", ("train", "day")),
    ("centre", ("attraction", "area")),
    ("inexpensive", ("restaurant", "pricerange")),
    ("cheap", ("restaurant", "pricerange")),
    ("cheap", ("hotel", "stars")),
    ("dontcare", ("restaurant", "food")),
    ("san francisco", None),
    ("    ", None),
    ("café crème", ("restaurant", "name")),
    ("straße", None),
    ("ΟΔΟΣ ΣΑΣ", None),
]
FILLER = ["please", "a", "table", "for", "at", "the", "in", "town", "okay",
          "I", "need", "to", "leave", "cheap", "centre", "arms", "budget",
          "naïve", "_", "x_", "ΟΔΟΣ", "ΣΑΣ", "\u1e9e"]
PUNCT = [".", ",", "!", "?", "'", "(", ")", "\"", ":", "-", " , ", " . "]
# non-ASCII letters that case-fold onto ASCII ones (Kelvin sign, long s,
# dotted capital I) take the texts off the ASCII fast path; a capital sigma
# lowercases by its context (final or not), capital sharp s to one letter
EDIT_CHARS = "aeiourstn019:!. _\u212a\u017f\u0130éΣ\u1e9e"


@st.composite
def typo(draw, surface):
    chars = list(surface)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["delete", "insert", "substitute", "swap"]))
        i = draw(st.integers(0, max(len(chars) - 1, 0)))
        c = draw(st.sampled_from(EDIT_CHARS))
        if op == "insert":
            chars.insert(i, c)
        elif not chars:
            continue
        elif op == "delete":
            del chars[i]
        elif op == "substitute":
            chars[i] = c
        elif i + 1 < len(chars):
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
    text = "".join(chars)
    return text.upper() if draw(st.booleans()) else text


@st.composite
def value_and_text(draw):
    value, slot = draw(st.sampled_from(MATCH_VALUES))
    surfaces = [v.surface for v in variants(value, slot, DEFAULT_LEXICON)]
    piece = st.one_of(st.sampled_from(surfaces).flatmap(typo),
                      st.sampled_from(FILLER), st.sampled_from(PUNCT))
    pieces = draw(st.lists(piece, min_size=1, max_size=6))
    seps = draw(st.lists(st.sampled_from([" ", "", "  ", "\t"]),
                         min_size=len(pieces), max_size=len(pieces)))
    return value, slot, "".join(p + s for p, s in zip(pieces, seps))


@pytest.fixture(scope="module")
def lexicon():
    return default_lexicon()


def surfaces(vlist):
    return [v.surface for v in vlist]


class TestVariants:
    def test_verbatim_always_first(self, lexicon):
        vlist = variants("x")
        assert vlist[0].surface == "x"
        assert vlist[0].category is MatchCategory.VERBATIM
        assert len(vlist) == 1  # no generators fire without lexicon entries

    def test_number_word(self, lexicon):
        vlist = variants("3", ("restaurant", "people"), lexicon)
        kinds = {(v.surface, v.sub_kind) for v in vlist}
        assert ("three", EntityKind.NUMBER) in kinds

    def test_weekday_shortcut(self, lexicon):
        vlist = variants("saturday", ("train", "day"), lexicon)
        assert any(v.surface == "sat" and v.sub_kind is EntityKind.SHORTCUT
                   for v in vlist)

    def test_time_renderings(self):
        got = surfaces(variants("16:30"))
        assert "4:30 pm" in got
        assert "half past 4" in got

    def test_time_12h_to_24h(self):
        assert "16:30" in surfaces(variants("4:30 pm"))

    def test_currency(self):
        got = surfaces(variants("$30"))
        assert "thirty bucks" in got and "30 dollars" in got

    @pytest.mark.parametrize("value,words", [
        ("0000012", "twelve"), ("999999", "nine hundred ninety nine thousand nine "
                                            "hundred ninety nine"),
        ("\u0661\u0662", "twelve")])  # Arabic-Indic digits
    def test_numbers_below_a_million_are_spelled(self, value, words):
        got = surfaces(variants(value))
        assert words in got
        assert f"{words} dollars" in surfaces(variants("$" + value))

    @pytest.mark.parametrize("digits", ["1000000", "2000000", "0" * 7 + "1234567",
                                        "9" * 3000, "1" * 4301],
                             ids=["1e6", "2e6", "leading-zeros", "3000-digits", "4301-digits"])
    def test_numbers_from_a_million_are_not_spelled(self, digits):
        number = digits.lstrip("0")
        assert surfaces(variants(digits)) == [digits]
        assert set(surfaces(variants("$" + digits))) == {
            "$" + digits, f"{number} dollars", f"{number} bucks"}

    def test_alt_spelling_both_directions(self):
        assert "centre" in surfaces(variants("center"))
        assert "center" in surfaces(variants("centre"))
        assert "theatre" in surfaces(variants("theater"))

    def test_lexicon_semantic_phrases(self, lexicon):
        vlist = variants("inexpensive", ("restaurant", "pricerange"), lexicon)
        sem = [v for v in vlist
               if v.category is MatchCategory.SEMANTIC_UNDERSTANDING]
        assert "on a budget" in [v.surface for v in sem]

    def test_lexicon_shortcut(self, lexicon):
        vlist = variants("san francisco", None, lexicon)
        assert any(v.surface == "san fran" and v.sub_kind is EntityKind.SHORTCUT
                   for v in vlist)

    def test_no_empty_surfaces(self, lexicon):
        for value in ("3", "$30", "16:30", "saturday", "center", "dontcare"):
            assert all(v.surface for v in variants(value, None, lexicon))

    def test_empty_value_rejected(self):
        with pytest.raises(ValueError):
            variants("")


class TestMatchInText:
    def test_typo_with_punctuation(self, lexicon):
        r = match_in_text("18:15", ("train", "leaveat"),
                          "I need to leave at 18:!5", lexicon)
        assert r.category is MatchCategory.TYPO
        assert r.matched_surface == "18:!5"

    def test_unresolved_when_absent(self, lexicon):
        r = match_in_text("cambridge", ("train", "destination"),
                          "take me there", lexicon)
        assert r.category is MatchCategory.UNRESOLVED
        assert r.span is None

    def test_semantic_phrase(self, lexicon):
        r = match_in_text("inexpensive", ("restaurant", "pricerange"),
                          "we're on a budget", lexicon)
        assert r.category is MatchCategory.SEMANTIC_UNDERSTANDING
        assert r.matched_surface == "on a budget"

    def test_verbatim_beats_everything(self, lexicon):
        # text contains both the verbatim value and a semantic phrase
        r = match_in_text("cheap", ("restaurant", "pricerange"),
                          "something cheap , we are on a budget", lexicon)
        assert r.category is MatchCategory.VERBATIM

    def test_verbatim_case_insensitive_word_bounded(self):
        r = match_in_text("Centre", None, "in the CENTRE of town")
        assert r.category is MatchCategory.VERBATIM
        assert r.span == (7, 13)

    def test_no_substring_match_inside_word(self):
        r = match_in_text("3", None, "room 13 please")
        assert r.category is MatchCategory.UNRESOLVED

    def test_dontcare_phrase(self, lexicon):
        r = match_in_text("dontcare", ("restaurant", "food"),
                          "the cuisine doesn't matter", lexicon)
        assert r.category is MatchCategory.SEMANTIC_UNDERSTANDING

    def test_typo_distance_two_for_long_values(self, lexicon):
        r = match_in_text("guesthouse", ("hotel", "type"),
                          "a nice guesthuose please", lexicon)  # transposed
        assert r.category is MatchCategory.TYPO

    def test_short_values_never_typo_match(self):
        assert match_in_text("3", None, "a table for e").category is \
            MatchCategory.UNRESOLVED

    def test_deterministic(self, lexicon):
        args = ("16:30", ("train", "arriveby"),
                "come at half past 4 or half past 4", lexicon)
        assert match_in_text(*args) == match_in_text(*args)

    @pytest.mark.parametrize("value,text", [
        ("centre", "centrea"),
        ("centre", "centre_ or _centre"),
        ("centre", "centrecentre, then the CENTRE."),
        ("centre", "\u00e9centre or centre\u00e9 centre"),
        ("kings", "\u212aings"),
        ("\u017ftation", "station"),
        ("istanbul", "\u0130stanbul or istanbul"),
        ("3", "room 13, 3a or 3"),
    ])
    def test_word_bounds_as_reference(self, value, text):
        assert match_in_text(value, None, text) == \
            reference_match_in_text(value, None, text)

    @pytest.mark.parametrize("value,phrase,text", [
        # two targets of different word counts hit at (1, 0): the first
        # target listed claims the span, and so its end
        ("kings college", "kings", "kimgs college is fine"),
        ("kings", "kings college", "kimgs college is fine"),
        # a miss in the target's own length comes first in the text, the
        # hit is one character longer
        ("centre", None, "cantro then centres"),
        # the earlier hit is in the longer length bucket
        ("centre", None, "centres or centr"),
        # distance 2 on an 8-character target, two of its letters missing
        ("saturday", None, "leave on saxyrday please"),
        # words apart by a tab still make a candidate with a space
        ("st ives", None, "st\tivs"),
    ])
    def test_typo_pass_as_reference(self, value, phrase, text):
        lex = Lexicon({f"*/{value}": {phrase}} if phrase else {}, {}, {})
        got = match_in_text(value, None, text, lex)
        assert got == reference_match_in_text(value, None, text, lex)
        assert got.category is MatchCategory.TYPO

    @settings(max_examples=400)
    @given(value_and_text(), st.booleans())
    def test_same_verdict_as_reference(self, case, with_lexicon):
        value, slot, text = case
        lex = DEFAULT_LEXICON if with_lexicon else None
        assert match_in_text(value, slot, text, lex) == \
            reference_match_in_text(value, slot, text, lex)

    def test_plan_cache_is_per_lexicon_and_slot(self):
        key = "restaurant/pricerange/cheapish"
        semantic = Lexicon({key: {"a bargain"}}, {}, {})
        other = Lexicon({}, {}, {key: {"a bargain"}})
        slot, text = ("restaurant", "pricerange"), "we want a bargain tonight"
        assert match_in_text("cheapish", slot, text, semantic).category is \
            MatchCategory.SEMANTIC_UNDERSTANDING
        assert match_in_text("cheapish", ("hotel", "pricerange"), text,
                             semantic).category is MatchCategory.UNRESOLVED
        assert match_in_text("cheapish", slot, text, other).category is \
            MatchCategory.OTHER
        assert match_in_text("cheapish", slot, text).category is \
            MatchCategory.UNRESOLVED
        # the cache takes no part in equality
        assert semantic == Lexicon({key: {"a bargain"}}, {}, {})

    @given(st.text(max_size=40))
    def test_verbatim_precedence_property(self, text):
        # if the value occurs word-bounded, the category is always verbatim
        value = "harpsichord"
        r = match_in_text(value, None, f"{text} {value}")
        assert r.category is MatchCategory.VERBATIM


class TestDamerauLevenshtein:
    @pytest.mark.parametrize("a,b,d", [
        ("abc", "abc", 0),
        ("abc", "acb", 1),
        ("abc", "ab", 1),
        ("abc", "abcd", 1),
        ("abc", "axc", 1),
        ("kitten", "sitting", 3),
        ("", "ab", 2),
    ])
    def test_known_distances(self, a, b, d):
        assert damerau_levenshtein(a, b) == d

    @given(st.text(max_size=10), st.text(max_size=10))
    def test_symmetric(self, a, b):
        assert damerau_levenshtein(a, b) == damerau_levenshtein(b, a)

    @given(st.text(max_size=10))
    def test_identity(self, a):
        assert damerau_levenshtein(a, a) == 0

    @given(st.text(alphabet="abcd", max_size=10),
           st.text(alphabet="abcd", max_size=10), st.sampled_from([1, 2]))
    def test_limit_caps_the_distance(self, a, b, k):
        full = damerau_levenshtein(a, b)
        assert full == _ref_distance(a, b)
        assert damerau_levenshtein(a, b, limit=k) == min(full, k + 1)


class TestLoadLexicon:
    def test_line_parsing(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("price_range/inexpensive: low-cost|budget|low priced\n",
                     "utf-8")
        lex = load_lexicon(p)
        assert lex.semantic_map["price_range/inexpensive"] == {
            "low-cost", "budget", "low priced"}

    def test_empty_file(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("", "utf-8")
        lex = load_lexicon(p)
        assert lex == Lexicon.empty()

    def test_duplicate_keys_merge(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("a/b: one\na/b: two\n", "utf-8")
        assert load_lexicon(p).semantic_map["a/b"] == {"one", "two"}

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("a/b: ok\nnot a mapping\n", "utf-8")
        with pytest.raises(LexiconError) as exc:
            load_lexicon(p)
        assert ":2" in str(exc.value)

    def test_bad_line_numbered_by_file_line(self, tmp_path):
        # a form feed ends no line: str.splitlines() would count three here
        p = tmp_path / "lex.txt"
        p.write_text("a/b: ok\x0c\nnot a mapping\n", "utf-8")
        with pytest.raises(LexiconError) as exc:
            load_lexicon(p)
        assert str(exc.value) == f"{p}:2: expected 'key: phrase|phrase'"

    def test_shortcut_and_other_sections(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("!shortcut new york: ny|nyc\n!other a/b: weird phrase\n",
                     "utf-8")
        lex = load_lexicon(p)
        assert lex.shortcut_map["new york"] == {"ny", "nyc"}
        assert lex.other_map["a/b"] == {"weird phrase"}
