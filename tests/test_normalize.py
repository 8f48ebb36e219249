import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from dialoscope import normalize
from dialoscope.corpus import InputError
from dialoscope.normalize import (EntityKind, Lexicon, MatchCategory, MatchResult,
                                  UNRESOLVED, Variant,
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


def _ref_ngrams(text, n_words):
    by_length = {}
    toks = _ref_tokens(text)
    for i in range(len(toks) - n_words + 1):
        cand = " ".join(t[0] for t in toks[i:i + n_words]).lower()
        by_length.setdefault(len(cand), []).append((cand, i))
    return by_length


_REF_WEEKDAYS = {"monday": "mon", "tuesday": "tue", "wednesday": "wed", "thursday": "thu",
                 "friday": "fri", "saturday": "sat", "sunday": "sun"}
_REF_WEEKDAY_ABBR = {abbr: full for full, abbr in _REF_WEEKDAYS.items()}
_REF_WEEKDAY_ABBR.update({"tues": "tuesday", "thur": "thursday", "thurs": "thursday"})
_REF_ALT_SPELLINGS = [
    ("center", "centre"), ("theater", "theatre"), ("color", "colour"),
    ("neighborhood", "neighbourhood"), ("gray", "grey"),
    ("catalog", "catalogue"), ("favorite", "favourite"),
    ("jewelry", "jewellery"), ("traveling", "travelling"),
]


def _ref_variants(value, slot=None, lexicon=None):
    """`variants` with every rendering family run on every value; the number,
    currency and time generators are the module's own."""
    lexicon = lexicon or Lexicon.empty()
    out = [Variant(value, MatchCategory.VERBATIM)]
    seen = {value.lower()}

    def add(surfaces, kind, category=MatchCategory.ENTITY_RECOGNITION):
        for s in surfaces:
            s = s.strip()
            if s and s.lower() not in seen:
                seen.add(s.lower())
                out.append(Variant(s, category, kind))

    v = value.lower()
    words = v.split()
    add(normalize._number_variants(value), EntityKind.NUMBER)
    add(normalize._currency_variants(value), EntityKind.NUMBER)
    add(normalize._time_variants(value), EntityKind.DATE_TIME)
    add([_REF_WEEKDAYS[v]] if v in _REF_WEEKDAYS else
        [_REF_WEEKDAY_ABBR[v]] if v in _REF_WEEKDAY_ABBR else [], EntityKind.SHORTCUT)
    add([" ".join(dst if w == src else w for w in words)
         for a, b in _REF_ALT_SPELLINGS for src, dst in ((a, b), (b, a)) if src in words],
        EntityKind.ALT_SPELLING)
    add(lexicon.shortcuts(value), EntityKind.SHORTCUT)
    add(lexicon.semantic_phrases(value, slot), None, MatchCategory.SEMANTIC_UNDERSTANDING)
    add(lexicon.other_phrases(value, slot), None, MatchCategory.OTHER)
    return out


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
    vlist = _ref_variants(value, slot, lexicon)
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


# values that reach every gate of `variants`: digits in any script (and
# superscripts, digits that are not decimal), number words, `$` amounts,
# clock times with whitespace around them, weekdays in any case, alternative
# spellings inside longer values, shortcut keys and lexicon-key values
DIGITS = "0123456789\u0661\u0662\u0966\u096f\uff11\uff19\u00b2\u2460"
_cased = st.sampled_from([str.lower, str.upper, str.title, str.capitalize])
_digit_runs = st.text(alphabet=DIGITS, min_size=1, max_size=8)
_clock = st.builds(
    "{}{}:{:02d}{}{}".format,
    st.sampled_from(["", " ", "\t", "\n"]), st.integers(0, 25), st.integers(0, 61),
    st.sampled_from(["", " am", "pm", " PM", "Am", "  pm"]),
    st.sampled_from(["", " ", "\n", " \n"]))
_VALUE_WORDS = (["zero", "one", "twelve", "twenty", "twenty-one", "twenty one",
                 "nine hundred ninety-nine", "seven thousand", "minus one"]
                + list(_REF_WEEKDAYS) + list(_REF_WEEKDAY_ABBR)
                + [w for pair in _REF_ALT_SPELLINGS for w in pair]
                + ["san francisco", "nyc", "cheap", "inexpensive", "dontcare", "24/7",
                   "a/b", "guesthouse", "7", "14", "yes", "true", "north"])
_value_piece = st.one_of(
    _digit_runs,
    st.builds("${}{}{}".format, st.sampled_from(["", " ", "  "]), _digit_runs,
              st.sampled_from(["", ".50", ".", "x"])),
    _clock,
    st.builds(lambda case, w: case(w), _cased, st.sampled_from(_VALUE_WORDS)),
    st.text(alphabet="ab/:$1 \u0130\u03a3", min_size=1, max_size=5))
renderable_values = st.lists(_value_piece, min_size=1, max_size=3).map(" ".join).filter(bool)
slots = st.sampled_from([None, ("hotel", "name"), ("restaurant", "pricerange"),
                         ("Hotel", "Name"), ("hotel/name", "a")])


@st.composite
def lexicons(draw, value):
    """A lexicon whose keys name the value, or one of its words, in every key
    form, beside keys that name nothing drawn."""
    parts = [value.lower()] + value.lower().split() + ["a/b", "b", "zz"]
    key = st.builds("{}/{}".format,
                    st.sampled_from(["*", "name", "hotel/name", "pricerange",
                                     "restaurant/pricerange", "hotel/name/a", "x"]),
                    st.sampled_from(parts))
    phrases = st.sets(st.sampled_from(["around the clock", "a bargain", "the ab",
                                       "Twelve", " ", "nyc"]), min_size=1, max_size=2)
    table = st.dictionaries(key, phrases, max_size=4)
    shortcuts = st.dictionaries(st.sampled_from(parts), phrases, max_size=2)
    return Lexicon(draw(table), draw(shortcuts), draw(table))


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

    @settings(max_examples=500)
    @given(renderable_values, slots, st.data())
    def test_gated_families_as_reference(self, value, slot, data):
        lex = data.draw(st.one_of(st.just(DEFAULT_LEXICON), lexicons(value)))
        assert variants(value, slot, lex) == _ref_variants(value, slot, lex)
        # every rendering matches as the reference matcher finds it
        for v in _ref_variants(value, slot, lex):
            text = f"so {v.surface} then"
            assert match_in_text(value, slot, text, lex) == \
                reference_match_in_text(value, slot, text, lex)

    @pytest.mark.parametrize("line,value,slot,phrase", [
        ("*/24/7: around the clock", "24/7", None, "around the clock"),
        ("hotel/name/a/b: the ab", "A/B", ("Hotel", "name"), "the ab"),
        ("hotel/name/a/b: the ab", "a/b", ("name", "a"), None),
        ("hotel/name/a/b: the ab", "b", ("hotel/name", "a"), "the ab"),
        ("!other */24/7: all hours", "24/7", ("x", "y"), "all hours"),
    ])
    def test_value_holding_a_slash(self, tmp_path, line, value, slot, phrase):
        p = tmp_path / "lex.txt"
        p.write_text(line + "\n", "utf-8")
        lex = load_lexicon(p)
        phrases = [v.surface for v in variants(value, slot, lex)
                   if v.category in (MatchCategory.SEMANTIC_UNDERSTANDING, MatchCategory.OTHER)]
        assert phrases == ([phrase] if phrase else [])
        text = "open around the clock, all hours, at the ab"
        result = match_in_text(value, slot, text, lex)
        assert result == reference_match_in_text(value, slot, text, lex)
        assert result.resolved is bool(phrase)


class TestTokens:
    @settings(max_examples=400)
    @given(st.lists(st.one_of(
        st.sampled_from(list(".,;!?\"'()[] \t\n\u3000\x1c-_:aZ") + [
            "\u03a3", "\u03c2", "\u03c3", "\u039f\u0394\u039f\u03a3", "\u0130", "\u00df",
            "\u00e9", "caf\u00e9", "Centre"]),
        st.characters(blacklist_categories=("Cs",))), max_size=30).map("".join),
        st.integers(1, 3))
    def test_ngrams_as_reference(self, text, n_words):
        assert normalize._word_ngrams(text, n_words) == _ref_ngrams(text, n_words)
        # the tokens whose index a candidate holds are those that give a
        # typo winner its span
        assert [(m.group(), m.start(), m.end()) for m in normalize._TOKEN_RE.finditer(text)] \
            == _ref_tokens(text)

    @pytest.mark.parametrize("text", [
        "", " \t\n", "((.))", "(a)", "'tis the [end].", "a.b, c!?d", "\u039f\u0394\u039f\u03a3. \u03a3\u0391\u03a3!",
        "CENTRE of Town", "\u0130 Kings COLLEGE"])
    def test_edges(self, text):
        for n_words in (1, 2, 3):
            assert normalize._word_ngrams(text, n_words) == _ref_ngrams(text, n_words)


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

    @pytest.mark.parametrize("value,expected", [
        ("center", MatchCategory.ENTITY_RECOGNITION),  # "centre" beats "downtown"
        ("midtown", MatchCategory.SEMANTIC_UNDERSTANDING),  # "downtown" beats "the middle"
    ])
    def test_precedence_between_categories(self, value, expected):
        lex = Lexicon({f"*/{value}": {"downtown"}}, {}, {f"*/{value}": {"the middle"}})
        text = "the middle of downtown, the centre"
        got = match_in_text(value, None, text, lex)
        assert got == reference_match_in_text(value, None, text, lex)
        assert got.category is expected

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
        # two hits at distance 1 in one length bucket: the earlier start wins
        ("centre", None, "centra or cantre"),
        # a 2-word winner after a capital dotted I, which lowercases to two
        # characters: the span is in the text's own offsets
        ("kings college", None, "\u0130 went to KIMGS College today"),
        # a 3-word winner that ends in a capital sigma, lowered to a final sigma
        ("\u03bc\u03b9\u03b1 \u03ba\u03b1\u03bb\u03b7 \u03bf\u03b4\u03bf\u03c2", None,
         "\u03a3\u03a4\u0397\u039d \u039c\u0399\u0391 \u039a\u0391\u039b\u0399 \u039f\u0394\u039f\u03a3!"),
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


def full_distance(a, b):
    """The exact distance: no distance exceeds the longer length."""
    return damerau_levenshtein(a, b, limit=max(len(a), len(b)))


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
        assert full_distance(a, b) == d

    @given(st.text(max_size=10), st.text(max_size=10))
    def test_symmetric(self, a, b):
        assert full_distance(a, b) == full_distance(b, a)

    @given(st.text(max_size=10))
    def test_identity(self, a):
        assert full_distance(a, a) == 0

    @given(st.text(alphabet="abcd", max_size=10),
           st.text(alphabet="abcd", max_size=10), st.sampled_from([1, 2]))
    def test_limit_caps_the_distance(self, a, b, k):
        full = full_distance(a, b)
        assert full == _ref_distance(a, b)
        assert damerau_levenshtein(a, b, limit=k) == min(full, k + 1)

    def test_every_short_pair_as_reference(self):
        # every pair of strings up to 4 characters over abc: each shared
        # prefix and suffix the trim can meet, transpositions at its edges
        words = [""] + ["".join(p) for n in range(1, 5)
                        for p in itertools.product("abc", repeat=n)]
        for a in words:
            for b in words:
                ref = _ref_distance(a, b)
                for k in (1, 2, max(len(a), len(b))):
                    assert damerau_levenshtein(a, b, k) == min(ref, k + 1), (a, b, k)

    @settings(max_examples=500)
    @given(st.text(alphabet="abc", max_size=4), st.text(alphabet="abc", max_size=4),
           st.text(alphabet="abc", max_size=4), st.text(alphabet="abc", max_size=4),
           st.sampled_from([1, 2, None]))
    def test_shared_affixes_as_reference(self, prefix, x, y, suffix, k):
        a, b = prefix + x + suffix, prefix + y + suffix
        k = max(len(a), len(b)) if k is None else k
        assert damerau_levenshtein(a, b, k) == min(_ref_distance(a, b), k + 1)


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
        with pytest.raises(InputError) as exc:
            load_lexicon(p)
        assert ":2" in str(exc.value)

    def test_bad_line_numbered_by_file_line(self, tmp_path):
        # a form feed ends no line: str.splitlines() would count three here
        p = tmp_path / "lex.txt"
        p.write_text("a/b: ok\x0c\nnot a mapping\n", "utf-8")
        with pytest.raises(InputError) as exc:
            load_lexicon(p)
        assert str(exc.value) == f"{p}:2: expected 'key: phrase|phrase'"

    def test_shortcut_and_other_sections(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("!shortcut new york: ny|nyc\n!other a/b: weird phrase\n",
                     "utf-8")
        lex = load_lexicon(p)
        assert lex.shortcut_map["new york"] == {"ny", "nyc"}
        assert lex.other_map["a/b"] == {"weird phrase"}
