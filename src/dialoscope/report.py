"""Rendering of analysis report documents to Markdown and histogram CSV."""
from __future__ import annotations

from typing import Dict, List, Tuple

from .analysis import histogram

_CONVERSATIONALITY_ROWS = [
    ("nothing to predict", "nothing_to_predict"),
    ("+ δc = 0", "cum_delta0"),
    ("+ δc = 1", "cum_delta1"),
    ("δc ≥ 2", "delta2_plus"),
    ("unresolved", "unresolved"),
]
_CONTEXTUALITY_ROWS = [
    ("non-contextual", "non_contextual"),
    ("situational", "situational"),
    ("knowledge about the user", "user_knowledge"),
    ("external knowledge", "external_knowledge"),
    ("unknown", "unknown"),
]
_NORMALIZATION_ROWS = [
    ("verbatim", "verbatim"),
    ("typos", "typo"),
    ("entity recognition", "entity_recognition"),
    ("semantic understanding", "semantic_understanding"),
    ("computation", "computation"),
    ("other", "other"),
    ("unresolved", "unresolved"),
]
_SMCALFLOW_ROWS = [("refer", "refer"), ("revise", "revise")]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def markdown(doc: dict) -> str:
    """The Markdown table of a report document; percentages printed to two
    decimals."""
    lines = [
        f"# {doc['dataset']} ({doc['split']}) — per-turn analysis",
        "",
        f"User turns analyzed: {doc['total_user_turns']}",
        "",
        "| Section | Row | % of turns |",
        "| --- | --- | --- |",
    ]

    def section(name: str, rows: List[Tuple[str, str]], table: Dict[str, float]):
        if not table:
            return
        for label, key in rows:
            lines.append(f"| {name} | {label} | {_fmt(table.get(key, 0.0))} |")

    section("Conversationality", _CONVERSATIONALITY_ROWS, doc["conversationality"])
    if doc["conversationality"]:
        lines.append(f"| Conversationality | relaxed (drop/dontcare) | {_fmt(doc['relaxation'])} |")
    section("Contextuality", _CONTEXTUALITY_ROWS, doc["contextuality"])
    section("Normalization", _NORMALIZATION_ROWS, doc["normalization"])
    section("Programs", _SMCALFLOW_ROWS, doc["smcalflow"])
    return "\n".join(lines) + "\n"


def histogram_csv(doc: dict) -> str:
    """The δc ≥ 2 histogram of a report document as CSV."""
    return "delta_c,count\n" + "".join(f"{d},{c}\n" for d, c in histogram(doc))
