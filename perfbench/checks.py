"""Checks of the program's outputs against the planted truth in truth.json.

Each check returns an `Outcome`: per-turn operations attempted and
failed, how many of the failures come from the one known defect (a
comma inside a frame value, which `parse_target` splits on), and a
message for every other disagreement. A run is correct when every
failure is a known one.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import srcpath  # noqa: F401
from dialoscope.linearize import TargetParseError, parse_target

COMMA_DEFECT = "comma-valued frame target (parse_target splits values on ',')"


@dataclass
class Outcome:
    name: str
    attempted: int = 0
    failed: int = 0
    known: int = 0
    problems: List[str] = field(default_factory=list)

    def problem(self, message: str):
        if len(self.problems) < 5:
            self.problems.append(message)
        elif len(self.problems) == 5:
            self.problems.append("...")

    @property
    def unexplained(self) -> bool:
        return self.failed > self.known or bool(self.problems)

    def describe(self) -> List[str]:
        lines = []
        if self.known:
            lines.append(f"{self.name}: {self.known} of {self.attempted} turns failed "
                         f"on the known defect: {COMMA_DEFECT}")
        lines += [f"{self.name}: FAILED CHECK: {p}" for p in self.problems]
        return lines


def failed_call(name: str, attempted: int, why: str) -> Outcome:
    """Every turn of a call that crashed, exited non-zero or wrote nothing."""
    out = Outcome(name, attempted, attempted)
    out.problem(why)
    return out


# ---------------------------------------------------------------------------
# analyze reports
# ---------------------------------------------------------------------------

def expected_analysis(turns: List[dict]) -> Dict[str, int]:
    """Turn counts the analyze report must show, from the planted slots."""
    c: Counter = Counter()
    for t in turns:
        c["total_user_turns"] += 1
        c["relaxation"] += bool(t["relax"])
        slots = t["slots"]
        if not slots:
            c["conversationality.nothing_to_predict"] += 1
            c["contextuality.non_contextual"] += 1
            continue
        c["tracked_turns"] += 1
        for category in {s[3] for s in slots}:
            c[f"normalization.{category}"] += 1
        flagged = {s[4] for s in slots} - {"non_contextual"}
        for ctx in flagged or {"non_contextual"}:
            c[f"contextuality.{ctx}"] += 1
        deltas = [s[2] for s in slots]
        if None in deltas:
            c["conversationality.unresolved"] += 1
        elif max(deltas) < 2:
            c[f"conversationality.delta{max(deltas)}"] += 1
        else:
            c[f"histogram.{max(deltas)}"] += 1
    return c


def report_counts(doc: dict) -> Dict[str, int]:
    """Turn counts behind the percentages of an analyze report JSON."""
    n, tracked = doc["total_user_turns"], doc["tracked_turns"]
    c: Counter = Counter({"total_user_turns": n, "tracked_turns": tracked})
    for section, denom in (("conversationality", n), ("contextuality", n),
                           ("normalization", tracked)):
        for key, pct in doc.get(section, {}).items():
            if key in ("cum_delta0", "cum_delta1", "delta2_plus"):
                continue
            c[f"{section}.{key}"] = round(pct * denom / 100)
    for delta, count in doc.get("histogram", {}).items():
        c[f"histogram.{delta}"] = count
    c["relaxation"] = round(doc.get("relaxation", 0.0) * n / 100)
    return +c


def _compare_counts(out: Outcome, expected: Dict[str, int], got: Dict[str, int]):
    diff = 0
    for key in sorted(set(expected) | set(got)):
        e, g = expected.get(key, 0), got.get(key, 0)
        if e != g:
            diff += abs(e - g)
            out.problem(f"{key}: report has {g} turns, planted {e}")
    out.failed = min(out.attempted, diff)


def check_analysis(name: str, report_path: Path, turns: List[dict]) -> Outcome:
    out = Outcome(name, len(turns))
    doc = json.loads(Path(report_path).read_text("utf-8"))
    _compare_counts(out, expected_analysis(turns), report_counts(doc))
    return out


def check_smcalflow_analysis(name: str, report_path: Path, turns: List[dict]) -> Outcome:
    out = Outcome(name, len(turns))
    doc = json.loads(Path(report_path).read_text("utf-8"))
    n = doc["total_user_turns"]
    expected = {"total_user_turns": len(turns),
                "refer": sum(t["refer"] for t in turns),
                "revise": sum(t["revise"] for t in turns)}
    got = {"total_user_turns": n,
           "refer": round(doc["smcalflow"].get("refer", 0.0) * n / 100),
           "revise": round(doc["smcalflow"].get("revise", 0.0) * n / 100)}
    _compare_counts(out, expected, got)
    return out


# ---------------------------------------------------------------------------
# linearized records
# ---------------------------------------------------------------------------

def _has_comma(update: Optional[dict]) -> bool:
    return update is not None and any("," in v for _, _, v in update["set"])


def _as_sets(update: dict):
    return ({(d, s, (v,)) for d, s, v in update["set"]},
            {(d, s) for d, s in update["drop"]},
            {(d, s) for d, s in update["dontcare"]})


def _read_jsonl(path: Path) -> List[dict]:
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def check_frame_records(name: str, path: Path, turns: List[dict]) -> Outcome:
    """One record per user turn, in order, whose target parses back to the
    planted update."""
    out = Outcome(name, len(turns))
    records = _read_jsonl(path)
    if len(records) != len(turns):
        out.problem(f"{len(records)} records for {len(turns)} user turns")
    for rec, t in zip(records, turns):
        if (rec["dialogue_id"], rec["turn_index"]) != (t["dialog_id"], t["turn_index"]):
            out.failed += 1
            out.problem(f"record {rec['dialogue_id']}/{rec['turn_index']} "
                        f"out of order, expected {t['dialog_id']}/{t['turn_index']}")
            continue
        try:
            upd = parse_target(rec["target"])
            ok = (set(upd.added_or_changed), set(upd.dropped),
                  set(upd.dontcared)) == _as_sets(t["update"])
        except TargetParseError:
            ok = False
        if not ok:
            out.failed += 1
            if _has_comma(t["update"]):
                out.known += 1
            else:
                out.problem(f"{t['dialog_id']}/{t['turn_index']}: target "
                            f"{rec['target']!r} does not parse back to the gold update")
    out.failed += max(0, len(turns) - len(records))
    return out


def check_program_records(name: str, path: Path, turns: List[dict]) -> Outcome:
    out = Outcome(name, len(turns))
    records = _read_jsonl(path)
    if len(records) != len(turns):
        out.problem(f"{len(records)} records for {len(turns)} user turns")
    for rec, t in zip(records, turns):
        if rec["target"] != t["program"]:
            out.failed += 1
            out.problem(f"{t['dialog_id']}/{t['turn_index']}: target is not the "
                        "canonical gold program")
    out.failed += max(0, len(turns) - len(records))
    return out


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------

def _apply(state: Dict[tuple, str], update: dict):
    for d, s, v in update["set"]:
        state[(d, s)] = v
    for d, s in update["dontcare"]:
        state[(d, s)] = "dontcare"
    for d, s in update["drop"]:
        state.pop((d, s), None)


def expected_jga_verdicts(turns: List[dict], mode: str, comma_breaks: bool) -> List[bool]:
    """Per-turn JGA verdicts from the planted predictions. With comma_breaks,
    a prediction holding a comma-valued slot counts as unparseable."""
    verdicts = []
    dialog = None
    gold: Dict[tuple, str] = {}
    running: Dict[tuple, str] = {}
    for t in turns:
        if t["dialog_id"] != dialog:
            dialog, gold, running = t["dialog_id"], {}, {}
        gold_prev = dict(gold)
        _apply(gold, t["update"])
        pred = t["pred_update"]
        usable = pred is not None and not (comma_breaks and _has_comma(pred))
        base = gold_prev if mode == "jga-oracle" else running
        if usable:
            predicted = dict(base)
            _apply(predicted, pred)
            if mode == "jga":
                running = predicted
        else:
            predicted = None
        verdicts.append(predicted == gold)
    return verdicts


def check_jga(name: str, path: Path, turns: List[dict], mode: str) -> Outcome:
    out = Outcome(name, len(turns))
    doc = json.loads(Path(path).read_text("utf-8"))
    got = [v["correct"] for v in doc["verdicts"]]
    ideal = expected_jga_verdicts(turns, mode, comma_breaks=False)
    defect = expected_jga_verdicts(turns, mode, comma_breaks=True)
    if len(got) != len(turns):
        out.problem(f"{len(got)} verdicts for {len(turns)} user turns")
    for g, i, d, t in zip(got, ideal, defect, turns):
        if g == i:
            continue
        out.failed += 1
        if g == d:
            out.known += 1
        else:
            out.problem(f"{t['dialog_id']}/{t['turn_index']}: scored {g}, planted {i}")
    out.failed += max(0, len(turns) - len(got))
    unparseable = sum(t["pred"] == "unparseable"
                      or (t["pred"] in ("gold", "wrong") and _has_comma(t["pred_update"]))
                      for t in turns)
    if doc["unparseable_predictions"] != unparseable:
        out.problem(f"{doc['unparseable_predictions']} unparseable predictions, "
                    f"expected {unparseable}")
    return out


def check_exact_match(name: str, path: Path, turns: List[dict]) -> Outcome:
    """Gold programs scored against themselves must all match."""
    out = Outcome(name, len(turns))
    doc = json.loads(Path(path).read_text("utf-8"))
    out.failed = sum(not v["correct"] for v in doc["verdicts"])
    out.failed += max(0, len(turns) - len(doc["verdicts"]))
    if out.failed or doc["accuracy"] != 1.0:
        out.problem(f"exact match of gold programs is {doc['accuracy']}, not 1.0")
    return out
