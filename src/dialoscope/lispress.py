"""Parser, canonical printer and queries for Lispress programs.

Lispress is the s-expression program language used to express SMCalFlow
dialog states. We only need to parse, re-print canonically (for
exact-match scoring) and walk the tree (for refer/revise detection);
programs are never executed.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import List as ListT

_NUMBER_RE = re.compile(r"^[+-]?\d+(\.\d+)?([eE][+-]?\d+)?$")


class LispressError(ValueError):
    """Raised on malformed Lispress source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Symbol:
    name: str


@dataclass(frozen=True)
class StringLit:
    text: str


@dataclass(frozen=True)
class Number:
    # kept verbatim so canonical printing never re-formats numerics
    text: str


@dataclass(frozen=True)
class TypedLiteral:
    tag: str
    child: "Node"


@dataclass(frozen=True)
class List:
    children: ListT["Node"] = field(default_factory=list)

    def __hash__(self):
        return hash(tuple(self.children))

    def __eq__(self, other):
        return isinstance(other, List) and self.children == other.children


Node = object  # Symbol | StringLit | Number | TypedLiteral | List


# One token per match, after optional whitespace: a paren or '#', a complete
# string literal, an atom, or any other character. Only a '"' that opens a
# malformed string literal can reach the last alternative. `\s` matches
# exactly the characters for which str.isspace() is true.
_TOKEN_RE = re.compile(r'\s*([()#]|"(?:[^"\\]|\\["\\])*"|[^\s()"#]+|\S)')
_STRING_PREFIX_RE = re.compile(r'"(?:[^"\\]|\\["\\])*')
_UNESCAPE_RE = re.compile(r'\\(["\\])')
_HASH = object()  # a pending '#', waiting for the form it tags


def _token_offset(source: str, index: int) -> int:
    return next(itertools.islice(_TOKEN_RE.finditer(source), index, None)).start(1)


def _string_error(source: str, start: int) -> LispressError:
    end = _STRING_PREFIX_RE.match(source, start).end()
    if end == len(source):
        return LispressError("unterminated string literal", start)
    if end + 1 == len(source):
        return LispressError("unterminated escape in string", end)
    return LispressError(f"invalid escape '\\{source[end + 1]}'", end)


def _tagged(form) -> TypedLiteral:
    if (isinstance(form, List) and len(form.children) == 2
            and isinstance(form.children[0], Symbol)):
        return TypedLiteral(form.children[0].name, form.children[1])
    return TypedLiteral("", form)


def parse(source: str) -> Node:
    """Parse exactly one top-level Lispress form."""
    if not source or not source.strip():
        raise LispressError("empty input", 0)
    tokens = _TOKEN_RE.findall(source)
    children: list = []  # forms (and pending '#'s) of the innermost open list
    open_lists: list = []  # (children of the enclosing list, index of the '(')
    for i, tok in enumerate(tokens):
        head = tok[0]
        if head == "(":
            open_lists.append((children, i))
            children = []
            continue
        if head == "#":
            children.append(_HASH)
            continue
        if head == ")":
            if not open_lists or (children and children[-1] is _HASH):
                raise LispressError("unbalanced ')'", _token_offset(source, i))
            node = List(children)
            children = open_lists.pop()[0]
        elif head != '"':
            # a number ends in a (Unicode) decimal digit; most atoms do not
            node = (Number(tok) if tok[-1].isdecimal() and _NUMBER_RE.match(tok)
                    else Symbol(tok))
        elif len(tok) == 1:
            raise _string_error(source, _token_offset(source, i))
        else:
            text = tok[1:-1]
            node = StringLit(_UNESCAPE_RE.sub(r"\1", text) if "\\" in text else text)
        while children and children[-1] is _HASH:
            children.pop()
            node = _tagged(node)
        if not open_lists:
            if i + 1 < len(tokens):
                raise LispressError("trailing tokens after top-level form",
                                    _token_offset(source, i + 1))
            return node
        children.append(node)
    if children and children[-1] is _HASH:
        raise LispressError("unexpected end of input", len(source))
    raise LispressError("unbalanced '(' ", _token_offset(source, open_lists[-1][1]))


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def print_canonical(node: Node) -> str:
    """Single-line, single-space-separated rendering; right inverse of parse."""
    if isinstance(node, Symbol):
        return node.name
    if isinstance(node, Number):
        return node.text
    if isinstance(node, StringLit):
        return f'"{_escape(node.text)}"'
    if isinstance(node, TypedLiteral):
        if node.tag:
            return f"#({node.tag} {print_canonical(node.child)})"
        return "#" + print_canonical(node.child)
    if isinstance(node, List):
        return "(" + " ".join(print_canonical(c) for c in node.children) + ")"
    raise TypeError(f"not a Lispress node: {node!r}")


def contains_call(node: Node, fname: str) -> bool:
    """True iff some list subterm has Symbol(fname) in head position."""
    if isinstance(node, List):
        if node.children and isinstance(node.children[0], Symbol) and node.children[0].name == fname:
            return True
        return any(contains_call(c, fname) for c in node.children)
    if isinstance(node, TypedLiteral):
        return contains_call(node.child, fname)
    return False


def exact_match(pred: str, gold: str, strict: bool = False) -> bool:
    """Program equality after canonicalization.

    With strict=True, compares raw bytes instead (for parity experiments
    against scorers that do not canonicalize whitespace).
    """
    try:
        gold_node = parse(gold)
    except LispressError as exc:
        raise LispressError(f"gold program does not parse: {exc}", exc.offset) from exc
    if strict:
        return pred == gold
    try:
        pred_node = parse(pred)
    except LispressError:
        return False
    return print_canonical(pred_node) == print_canonical(gold_node)
