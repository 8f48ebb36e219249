import json
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dialoscope import lispress
from dialoscope.corpus import InputError, load_smcalflow
from dialoscope.evaluate import exact_match_score
from dialoscope.lispress import (MAX_DEPTH, LispressError, List, Number, StringLit, Symbol,
                                 TypedLiteral, call_heads, parse, print_canonical)


def scored_correct(pred: str, gold: str, strict: bool = False) -> bool:
    """Whether `exact_match_score` counts `pred` correct on a one-turn
    SMCalFlow file, `d.jsonl`, whose gold program is `gold`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        path.write_text(json.dumps({"dialogue_id": "d", "turns": [
            {"user_utterance": "u", "lispress": gold}]}) + "\n", "utf-8")
        corpus = load_smcalflow(path)
    return exact_match_score(corpus, {("d", 0): pred}, strict=strict).correct == 1


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

    def test_error_offset_counts_characters(self):
        # the backslash is character 6 of the source and byte 7 of its UTF-8
        with pytest.raises(LispressError) as exc:
            parse('("\xe9" "\\q")')
        assert exc.value.offset == 6
        assert str(exc.value).endswith("(at character offset 6)")

    @pytest.mark.parametrize("opener,closer,levels", [
        ("(", ")", 1), ("#", "", 1), ("#(T ", ")", 2)])  # '#(' is two levels
    def test_nesting_bound(self, opener, closer, levels):
        n = MAX_DEPTH // levels
        at_bound = opener * n + "x" + closer * n
        node = parse(at_bound)
        assert parse(print_canonical(node)) == node
        assert call_heads(node) == ({"x"} if opener == "(" else set())
        deeper = "(" + at_bound + ")"
        with pytest.raises(LispressError) as exc:
            parse(deeper)
        assert exc.value.message == f"nesting deeper than {MAX_DEPTH}"
        # the offset is that of the innermost opener
        x = deeper.index("x")
        assert exc.value.offset == max(deeper.rfind("(", 0, x), deeper.rfind("#", 0, x))


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
        assert scored_correct(printed, printed)


@st.composite
def twin_nodes(draw, node):
    """A tree that prints like `node` or nearly: each drawn flip turns a Number
    into the Symbol of the same text, a string into one with one more
    escaped or plain character, or a `(T x)` list into `#(T x)`, built with
    the tag or without it."""
    flip = draw(st.booleans())
    if flip and isinstance(node, Number):
        return Symbol(node.text)
    if flip and isinstance(node, StringLit):
        return StringLit(node.text + draw(st.sampled_from(['"', "\\", " "])))
    if isinstance(node, List):
        children = [draw(twin_nodes(c)) for c in node.children]
        if flip and len(children) == 2 and isinstance(children[0], Symbol):
            return draw(st.sampled_from([TypedLiteral(children[0].name, children[1]),
                                         TypedLiteral("", List(children))]))
        return List(children)
    return node


_SPACES = st.sampled_from(["", " ", "  ", "\n", "\t ", "\u3000"])


@st.composite
def sources(draw, node):
    """`node` printed with drawn whitespace around its parens and '#'s and
    between its forms."""
    if isinstance(node, TypedLiteral):
        inner = draw(sources(node.child))
        if node.tag:
            inner = f"({draw(_SPACES)}{node.tag} {draw(_SPACES)}{inner}{draw(_SPACES)})"
        return f"#{draw(_SPACES)}{inner}"
    if isinstance(node, List):
        parts = [draw(sources(c)) for c in node.children]
        return "(" + draw(_SPACES) + "".join(
            p + (" " + draw(_SPACES) if i + 1 < len(parts) else "")
            for i, p in enumerate(parts)) + draw(_SPACES) + ")"
    return print_canonical(node)


class TestTreeEquality:
    """Exact match compares parsed trees; that must be the verdict of
    comparing their canonical prints."""

    @settings(max_examples=300)
    @given(st.data())
    def test_equal_trees_iff_equal_prints(self, data):
        a = data.draw(lispress_nodes())
        b = data.draw(st.one_of(twin_nodes(a), lispress_nodes()))
        src_a, src_b = data.draw(sources(a)), data.draw(sources(b))
        tree_a, tree_b = parse(src_a), parse(src_b)
        same_print = print_canonical(tree_a) == print_canonical(tree_b)
        assert (tree_a == tree_b) == same_print
        assert scored_correct(src_a, src_b) == same_print

    @pytest.mark.parametrize("a,b,same", [
        ("(f 1)", "(f\n\t1 )", True),
        ("(f 1)", '(f "1")', False),
        ("(f 1.0)", "(f 1.00)", False),
        ("1", "+1", False),
        ("#(T x)", "# ( T  x )", True),
        ("#(T x)", "(T x)", False),
        ("#(T x)", "#((T) x)", False),
        ("#x", "x", False),
        ('"a\\"b"', '"a\\\\b"', False),
        ('("a\\"b")', '( "a\\"b" )', True),
    ])
    def test_confusable_pairs(self, a, b, same):
        assert (parse(a) == parse(b)) is same
        assert (print_canonical(parse(a)) == print_canonical(parse(b))) is same
        assert scored_correct(a, b) is same

    def test_parses_share_atoms(self):
        first, second = parse("(f 1 x)"), parse("(g x 1)")
        assert first.children[1] is second.children[2]
        assert first.children[2] is second.children[1]
        assert parse("(x)") is not parse("(x)")  # lists are never shared

    def test_atom_cache_is_bounded(self):
        cap = lispress._atom.cache_info().maxsize
        assert cap is not None
        parse("(" + " ".join(f"atom{i}" for i in range(cap + 10)) + ")")
        assert lispress._atom.cache_info().currsize <= cap

    @pytest.mark.parametrize("opener,closer,levels", [
        ("(", ")", 1), ("#", "", 1), ("#(T ", ")", 2)])
    def test_exact_match_at_the_nesting_bound(self, opener, closer, levels):
        n = MAX_DEPTH // levels
        gold = opener * n + "x" + closer * n
        assert scored_correct(" " + gold.replace("x", " x "), gold)
        assert not scored_correct(gold.replace("x", "y"), gold)


class TestCallHeads:
    def test_refer(self):
        node = parse("(Yield :output (refer (extensionConstraint (Event))))")
        assert call_heads(node) == {"Yield", "refer", "extensionConstraint", "Event"}
        assert "revise" not in call_heads(node)

    def test_symbol_leaf(self):
        assert call_heads(Symbol("refer")) == set()

    def test_only_head_position(self):
        assert call_heads(parse("(a refer (revise) ((b)) ())")) == {"a", "revise", "b"}

    def test_nested_depth_three(self):
        node = parse("(a (b (revise (c))))")
        assert "revise" in call_heads(node)

    def test_inside_typed_literal(self):
        # a tag is not a call
        assert call_heads(parse("#(T (refer x))")) == {"refer"}

    def test_monotone_under_embedding(self):
        inner = parse("(refer (x))")
        outer = List([Symbol("wrap"), inner])
        assert call_heads(outer) == call_heads(inner) | {"wrap"}

    @given(lispress_nodes(), st.booleans())
    def test_every_head_of_a_list_subterm(self, node, tagged):
        def heads(n):
            if isinstance(n, TypedLiteral):
                return heads(n.child)
            if not isinstance(n, List):
                return set()
            out = {n.children[0].name} if n.children and isinstance(n.children[0], Symbol) else set()
            return out.union(*map(heads, n.children))
        node = TypedLiteral("T", List([node, node])) if tagged else node
        assert call_heads(node) == heads(node)


class TestExactMatch:
    def test_verbatim_equal(self):
        assert scored_correct("(a b)", "(a b)")

    def test_whitespace_only_difference(self):
        assert scored_correct("( a   b )", "(a b)")

    def test_renamed_symbol(self):
        assert not scored_correct("(a c)", "(a b)")

    def test_unparseable_pred_is_false(self):
        assert not scored_correct("(a", "(a b)")

    def test_unparseable_gold_is_error(self):
        with pytest.raises(InputError):
            scored_correct("(a)", "(a")

    def test_gold_error_names_one_offset(self):
        with pytest.raises(InputError) as exc:
            scored_correct("(a)", "(Yield (foo")
        assert str(exc.value).endswith("d.jsonl:1: dialog d, turn 0: gold program does not "
                                       "parse: unbalanced '(' (at character offset 7)")
        assert exc.value.__cause__.offset == 7

    def test_strict_mode(self):
        assert not scored_correct("( a   b )", "(a b)", strict=True)
        assert scored_correct("(a b)", "(a b)", strict=True)

    def test_symmetric_and_transitive_via_canonical_form(self):
        a, b, c = "( a b )", "(a  b)", "(a b)"
        assert scored_correct(a, b) and scored_correct(b, a)
        assert scored_correct(b, c) and scored_correct(a, c)


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
                raise LispressError("unbalanced '('", open_pos)
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
