"""Rendering of analysis report documents to Markdown and histogram CSV,
plus tolerance-based comparison against reference numbers."""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


@dataclass(frozen=True)
class CellDelta:
    cell: str
    expected: float
    actual: float
    tolerance: float

    @property
    def delta(self) -> float:
        return self.actual - self.expected

    @property
    def within(self) -> bool:
        return abs(self.delta) <= self.tolerance


class SchemaMismatch(KeyError):
    pass


def diff_reports(actual: dict, reference: dict,
                 tolerances: Optional[Dict[str, float]] = None,
                 default_tolerance: float = 1.0) -> Tuple[bool, List[CellDelta]]:
    """Compare every numeric cell of a reference document against a report
    document; returns overall pass plus per-cell deltas."""
    tolerances = tolerances or {}
    deltas: List[CellDelta] = []
    missing: List[str] = []

    def walk(ref, act, path: str):
        if isinstance(ref, dict):
            for key, val in ref.items():
                if key.startswith("_") or key in ("dataset", "split"):
                    continue
                sub = f"{path}.{key}" if path else key
                if not isinstance(act, dict) or key not in act:
                    missing.append(sub)
                    continue
                walk(val, act[key], sub)
        elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
            tol = tolerances.get(path, default_tolerance)
            deltas.append(CellDelta(path, float(ref), float(act), tol))

    walk(reference, actual, "")
    if missing:
        raise SchemaMismatch(f"reference keys missing from report: {missing}")
    return all(d.within for d in deltas), deltas


def load_reference(name: str) -> dict:
    """Load a bundled reference document, e.g. 'table2_multiwoz_test'."""
    from importlib import resources
    text = (resources.files("dialoscope") / "data" / "reference" /
            f"{name}.json").read_text("utf-8")
    return json.loads(text)
