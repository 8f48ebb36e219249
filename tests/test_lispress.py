import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from dialoscope import lispress
from dialoscope.lispress import (LispressError, List, Number, StringLit, Symbol,
                                 TypedLiteral, contains_call, exact_match, parse,
                                 print_canonical)


class TestParse:
    def test_simple_program(self):
        node = parse("(Yield :output (Today))")
        assert node == List([Symbol("Yield"), Symbol(":output"),
                             List([Symbol("Today")])])

    def test_empty_list(self):
        assert parse("()") == List([])

    def test_string_literal(self):
        node = parse('(a (b "c d"))')
        assert node == List([Symbol("a"), List([Symbol("b"), StringLit("c d")])])

    def test_number_kept_verbatim(self):
        node = parse("(f 3.50)")
        assert node.children[1] == Number("3.50")
        assert print_canonical(node) == "(f 3.50)"

    def test_typed_literal(self):
        node = parse('#(PersonName "Dan")')
        assert node == TypedLiteral("PersonName", StringLit("Dan"))

    def test_whitespace_insignificant(self):
        assert parse("( a\n\tb )") == parse("(a b)")

    @pytest.mark.parametrize("source", ["(a", "(a))", "a b", '("unterminated',
                                        "", "   ", ")"])
    def test_malformed(self, source):
        with pytest.raises(LispressError):
            parse(source)

    def test_error_carries_offset(self):
        with pytest.raises(LispressError) as exc:
            parse('(a "b')
        assert exc.value.offset == 3


class TestPrint:
    def test_whitespace_normalization(self):
        assert print_canonical(parse("( a  b )")) == "(a b)"

    def test_escape_round_trip(self):
        node = List([StringLit('say "hi" \\ back')])
        printed = print_canonical(node)
        assert parse(printed) == node

    def test_idempotent(self):
        source = '(Yield :output (CreateEvent (attendee #(PersonName "Dan"))))'
        once = print_canonical(parse(source))
        assert print_canonical(parse(once)) == once


@st.composite
def lispress_nodes(draw, depth=3):
    symbol = st.from_regex(r"[A-Za-z:+*=<>_.?-][A-Za-z0-9:+*=<>_.?-]*",
                           fullmatch=True).filter(
        lambda s: not lispress._NUMBER_RE.match(s)).map(Symbol)
    number = st.from_regex(r"[+-]?\d{1,6}(\.\d{1,4})?", fullmatch=True).map(Number)
    string = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                     max_size=12).map(StringLit)
    leaf = st.one_of(symbol, number, string)
    if depth == 0:
        return draw(leaf)
    children = st.lists(lispress_nodes(depth=depth - 1), max_size=4)
    return draw(st.one_of(leaf, children.map(List)))


class TestProperties:
    @given(lispress_nodes())
    def test_parse_inverts_print(self, node):
        printed = print_canonical(node)
        # non-list top-level atoms are valid single forms too
        assert parse(printed) == node
        assert repr(parse(printed)) == repr(reference_parse(printed))

    @given(lispress_nodes())
    def test_print_idempotent(self, node):
        printed = print_canonical(node)
        assert print_canonical(parse(printed)) == printed

    @given(lispress_nodes())
    def test_exact_match_reflexive(self, node):
        printed = print_canonical(node)
        assert exact_match(printed, printed)


class TestContainsCall:
    def test_refer(self):
        node = parse("(Yield :output (refer (extensionConstraint (Event))))")
        assert contains_call(node, "refer")
        assert not contains_call(node, "revise")

    def test_symbol_leaf(self):
        assert not contains_call(Symbol("refer"), "refer")

    def test_nested_depth_three(self):
        node = parse("(a (b (revise (c))))")
        assert contains_call(node, "revise")

    def test_monotone_under_embedding(self):
        inner = parse("(refer (x))")
        outer = List([Symbol("wrap"), inner])
        assert contains_call(outer, "refer")


class TestExactMatch:
    def test_verbatim_equal(self):
        assert exact_match("(a b)", "(a b)")

    def test_whitespace_only_difference(self):
        assert exact_match("( a   b )", "(a b)")

    def test_renamed_symbol(self):
        assert not exact_match("(a c)", "(a b)")

    def test_unparseable_pred_is_false(self):
        assert not exact_match("(a", "(a b)")

    def test_unparseable_gold_is_error(self):
        with pytest.raises(LispressError):
            exact_match("(a)", "(a")

    def test_strict_mode(self):
        assert not exact_match("( a   b )", "(a b)", strict=True)
        assert exact_match("(a b)", "(a b)", strict=True)

    def test_symmetric_and_transitive_via_canonical_form(self):
        a, b, c = "( a b )", "(a  b)", "(a b)"
        assert exact_match(a, b) and exact_match(b, a)
        assert exact_match(b, c) and exact_match(a, c)


# ---------------------------------------------------------------------------
# frozen reference: the character-at-a-time recursive-descent parser that
# `parse` replaced; the property below requires the same tree or error
# ---------------------------------------------------------------------------

class _RefLexer:
    def __init__(self, source):
        self.src = source
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.src):
            return None
        return self.src[self.pos]

    def read_string(self):
        start = self.pos
        self.pos += 1
        out = []
        while self.pos < len(self.src):
            ch = self.src[self.pos]
            if ch == "\\":
                if self.pos + 1 >= len(self.src):
                    raise LispressError("unterminated escape in string", self.pos)
                nxt = self.src[self.pos + 1]
                if nxt not in ('"', "\\"):
                    raise LispressError(f"invalid escape '\\{nxt}'", self.pos)
                out.append(nxt)
                self.pos += 2
            elif ch == '"':
                self.pos += 1
                return StringLit("".join(out))
            else:
                out.append(ch)
                self.pos += 1
        raise LispressError("unterminated string literal", start)

    def read_atom(self):
        start = self.pos
        while self.pos < len(self.src):
            ch = self.src[self.pos]
            if ch.isspace() or ch in '()"#':
                break
            self.pos += 1
        text = self.src[start:self.pos]
        if not text:
            raise LispressError("empty atom", start)
        if lispress._NUMBER_RE.match(text):
            return Number(text)
        return Symbol(text)


def _ref_parse_form(lex):
    ch = lex.peek()
    if ch is None:
        raise LispressError("unexpected end of input", lex.pos)
    if ch == "(":
        open_pos = lex.pos
        lex.pos += 1
        children = []
        while True:
            nxt = lex.peek()
            if nxt is None:
                raise LispressError("unbalanced '(' ", open_pos)
            if nxt == ")":
                lex.pos += 1
                return List(children)
            children.append(_ref_parse_form(lex))
    if ch == ")":
        raise LispressError("unbalanced ')'", lex.pos)
    if ch == '"':
        return lex.read_string()
    if ch == "#":
        lex.pos += 1
        form = _ref_parse_form(lex)
        if (isinstance(form, List) and len(form.children) == 2
                and isinstance(form.children[0], Symbol)):
            return TypedLiteral(form.children[0].name, form.children[1])
        return TypedLiteral("", form)
    return lex.read_atom()


def reference_parse(source):
    if not source or not source.strip():
        raise LispressError("empty input", 0)
    lex = _RefLexer(source)
    node = _ref_parse_form(lex)
    if lex.peek() is not None:
        raise LispressError("trailing tokens after top-level form", lex.pos)
    return node


def _outcome(fn, source):
    try:
        return "ok", repr(fn(source))
    except LispressError as exc:
        return "error", str(exc), exc.offset


# fragments of well-formed and broken Lispress: stray '#', unbalanced
# parens, bad and dangling escapes, numbers next to symbols, and
# whitespace that only str.isspace() knows (\x1c, \u2028, \xa0)
_FRAGMENTS = ["(", ")", "(", ")", "#", "#(", '"', '"a b"', '\\', '\\"', '\\n',
              '"x\\"y"', '"\\\\"', "a", "Yield", ":output", "?=", "12", "-3.5e2",
              "+7", "1.", "\u0663", "\xe9", " ", " ", "\n", "\t", "\x1c", "\u2028",
              "\xa0", "\u3000"]
_lispress_like = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join),
    st.text(alphabet=st.sampled_from('()#"\\ \t\n\x1c\u2028ab1.-e:'), max_size=40),
)


class TestAgainstReference:
    @settings(max_examples=500)
    @given(_lispress_like)
    def test_same_tree_or_same_error(self, source):
        assert _outcome(parse, source) == _outcome(reference_parse, source)

    @pytest.mark.parametrize("source", [
        "#", "(a #", "(a #)", "#)", "# (a", "(# (b", '(a "b', '"a\\', '"a\\q"',
        "a b", "(a) (b)", 'a "unterminated', "()\u2028x", "\x1c(a)\x1c",
        "(a))", "((a)", "#(T x y)", "##(T x)", '#"s"', "(x 1e5 +2 -0.5 1.2.3)",
    ])
    def test_edge_cases(self, source):
        assert _outcome(parse, source) == _outcome(reference_parse, source)

    def test_regex_whitespace_is_str_isspace(self):
        # the tokenizer relies on \s matching exactly the characters the
        # reference skipped with str.isspace()
        ws = re.compile(r"\s")
        differ = [cp for cp in range(sys.maxunicode + 1)
                  if bool(ws.match(chr(cp))) != chr(cp).isspace()]
        assert differ == []
