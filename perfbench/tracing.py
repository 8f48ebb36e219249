"""Span tracing of dialoscope's public functions, done from outside the package.

`Tracer.install()` replaces each target function at every place the
package looks it up (module globals, module-level dicts such as the CLI's
loader table, and class attributes) with a wrapper that records a span:
(id, parent id, name, start ns, end ns, job id, note). The note keeps the
one fact about a call's arguments or result that a per-layer ratio
needs. `uninstall()` puts every original back. Spans stay in memory
until `dump()` writes them; `summarize()` turns them into the per-layer
metrics.

Wrappers cannot see into process-pool workers, so traced jobs run
serially.
"""
from __future__ import annotations

import functools
import importlib
import json
import operator
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import srcpath  # noqa: F401


def _emit_note(args, kwargs, result):
    out_path = kwargs.get("out_path", args[2] if len(args) > 2 else None)
    return [result, os.path.getsize(out_path)]


def _variants_note(args, kwargs, result):
    slot = kwargs.get("slot", args[1] if len(args) > 1 else None)
    return f"{args[0]}\x1f{slot}"


# target ("module.qualname" under dialoscope) -> note(args, kwargs, result)
TARGETS: Dict[str, Optional[Callable]] = {
    "corpus.load_multiwoz": None,
    "corpus.load_sgd": None,
    "corpus.load_smcalflow": None,
    "corpus.state_update": None,
    "corpus.apply_update": None,
    "corpus.Dialog.previous_user_state": None,
    "normalize.variants": _variants_note,
    "normalize.match_in_text": lambda a, k, r: r.category.value,
    "normalize.damerau_levenshtein": lambda a, k, r: r,
    "analysis.trace_turn": lambda a, k, r: len(r.slot_traces),
    "analysis.analyze_corpus": None,
    "linearize.emit_dataset": _emit_note,
    "linearize.linearize_input": None,
    "linearize.linearize_target": None,
    "linearize.parse_target": None,
    "evaluate.load_predictions": None,
    "evaluate.jga": lambda a, k, r: r.unparseable,
    "evaluate.accumulate_predicted_states": None,
    "evaluate.exact_match_score": lambda a, k, r: r.unparseable,
    "lispress.parse": None,
    "lispress.print_canonical": None,
    "cli.main": None,
}


def _resolve(target: str):
    module, *path = target.split(".")
    obj = importlib.import_module(f"dialoscope.{module}")
    for part in path:
        obj = getattr(obj, part)
    return obj


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dialoscope" or name.startswith("dialoscope."))]


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.job = 0
        self._stack: List[int] = []
        self._depth: Counter = Counter()
        self._patches: List[tuple] = []  # (container, key, original, setter)

    def _wrap(self, name: str, fn, note):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[name]:  # a recursive call is part of its outermost span
                return fn(*args, **kwargs)
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            depth[name] += 1
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                spans[span_id] = (span_id, parent, name, start, end, self.job,
                                  note(args, kwargs, result)
                                  if note is not None and result is not None else None)
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for target, note in TARGETS.items():
            fn = _resolve(target)
            wrappers[id(fn)] = (fn, self._wrap(target, fn, note))

        def swap(container, key, value, set_item):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                set_item(container, key, hit[1])
                self._patches.append((container, key, value, set_item))

        for module in _package_modules():
            for key, value in list(vars(module).items()):
                swap(module, key, value, setattr)
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        swap(value, k, v, operator.setitem)
                elif (isinstance(value, type)
                      and value.__module__ == module.__name__):
                    for k, v in list(vars(value).items()):
                        swap(value, k, v, setattr)
        patched = {id(p[2]) for p in self._patches}
        missing = [t for t, (fn, _) in zip(TARGETS, wrappers.values())
                   if id(fn) not in patched]
        if missing:
            self.uninstall()
            raise RuntimeError(f"no call site found for {missing}")

    def uninstall(self):
        for container, key, original, set_item in reversed(self._patches):
            set_item(container, key, original)
        self._patches.clear()

    def dump(self, path):
        """Write the spans, one tab-separated line each (note as JSON)."""
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]}\t{s[4]}\t{s[5]}\t"
                        f"{json.dumps(s[6])}\n")


def load_spans(path) -> List[tuple]:
    spans = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            sid, parent, name, start, end, job, note = line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), name, int(start), int(end), int(job),
                          json.loads(note)))
    return spans


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit; "count" metrics must repeat exactly between runs of one seed
LAYER_METRICS = {
    "corpus.load_s": "s",
    "corpus.state_update_calls": "count",
    "corpus.state_update_s": "s",
    "corpus.previous_user_state_calls": "count",
    "corpus.previous_user_state_s": "s",
    "corpus.apply_update_s": "s",
    "normalize.match_in_text_calls": "count",
    "normalize.match_in_text_s": "s",
    "normalize.match_resolved_ratio": "ratio",
    "normalize.typo_pass_calls": "count",
    "normalize.edit_distance_calls": "count",
    "normalize.edit_distance_s": "s",
    "normalize.edit_distance_hit_ratio": "ratio",
    "normalize.variants_calls": "count",
    "normalize.variants_s": "s",
    "normalize.variants_distinct_ratio": "ratio",
    "analysis.trace_turn_calls": "count",
    "analysis.trace_turn_self_s": "s",
    "analysis.slots_traced": "count",
    "analysis.scan_depth_mean": "ratio",
    "analysis.pool_efficiency": "ratio",
    "linearize.records": "count",
    "linearize.bytes_written": "bytes",
    "linearize.emit_dataset_s": "s",
    "linearize.linearize_input_s": "s",
    "linearize.linearize_target_s": "s",
    "linearize.parse_target_s": "s",
    "evaluate.load_predictions_s": "s",
    "evaluate.jga_s": "s",
    "evaluate.accumulate_s": "s",
    "evaluate.exact_match_s": "s",
    "evaluate.unparseable": "count",
    "lispress.parse_calls": "count",
    "lispress.parse_s": "s",
    "lispress.print_canonical_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
# measured outside the traced job
UNTRACED = {"analysis.pool_efficiency", "trace.overhead_ratio"}
# deterministic for a seed: counts, and ratios of counts
EXACT = {k for k, unit in LAYER_METRICS.items() if unit in ("count", "bytes")} | {
    "normalize.match_resolved_ratio", "normalize.edit_distance_hit_ratio",
    "normalize.variants_distinct_ratio", "analysis.scan_depth_mean"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans: List[tuple]) -> Dict[str, float]:
    """Per-layer metrics of one traced job (all but UNTRACED)."""
    calls: Counter = Counter()
    total: Dict[str, int] = defaultdict(int)
    child: Dict[int, int] = defaultdict(int)
    notes: Dict[str, list] = defaultdict(list)
    for sid, parent, name, start, end, job, note in spans:
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
        if note is not None:
            notes[name].append(note)
    self_ns: Dict[str, int] = defaultdict(int)
    for sid, parent, name, start, end, job, note in spans:
        self_ns[name] += end - start - child[sid]

    def sec(name):
        return total[name] / 1e9

    matches = Counter(notes["normalize.match_in_text"])
    dl = notes["normalize.damerau_levenshtein"]
    variant_keys = notes["normalize.variants"]
    slots = sum(notes["analysis.trace_turn"])
    emitted = notes["linearize.emit_dataset"]
    return {
        "corpus.load_s": sum(sec(f"corpus.load_{k}") for k in ("multiwoz", "sgd", "smcalflow")),
        "corpus.state_update_calls": calls["corpus.state_update"],
        "corpus.state_update_s": sec("corpus.state_update"),
        "corpus.previous_user_state_calls": calls["corpus.Dialog.previous_user_state"],
        "corpus.previous_user_state_s": sec("corpus.Dialog.previous_user_state"),
        "corpus.apply_update_s": sec("corpus.apply_update"),
        "normalize.match_in_text_calls": calls["normalize.match_in_text"],
        "normalize.match_in_text_s": sec("normalize.match_in_text"),
        "normalize.match_resolved_ratio": _ratio(
            calls["normalize.match_in_text"] - matches["unresolved"],
            calls["normalize.match_in_text"]),
        "normalize.typo_pass_calls": matches["typo"] + matches["unresolved"],
        "normalize.edit_distance_calls": calls["normalize.damerau_levenshtein"],
        "normalize.edit_distance_s": sec("normalize.damerau_levenshtein"),
        "normalize.edit_distance_hit_ratio": _ratio(sum(1 <= d <= 2 for d in dl), len(dl)),
        "normalize.variants_calls": calls["normalize.variants"],
        "normalize.variants_s": sec("normalize.variants"),
        "normalize.variants_distinct_ratio": _ratio(len(set(variant_keys)), len(variant_keys)),
        "analysis.trace_turn_calls": calls["analysis.trace_turn"],
        "analysis.trace_turn_self_s": self_ns["analysis.trace_turn"] / 1e9,
        "analysis.slots_traced": slots,
        "analysis.scan_depth_mean": _ratio(calls["normalize.match_in_text"], slots),
        "linearize.records": sum(n for n, _ in emitted),
        "linearize.bytes_written": sum(b for _, b in emitted),
        "linearize.emit_dataset_s": sec("linearize.emit_dataset"),
        "linearize.linearize_input_s": sec("linearize.linearize_input"),
        "linearize.linearize_target_s": sec("linearize.linearize_target"),
        "linearize.parse_target_s": sec("linearize.parse_target"),
        "evaluate.load_predictions_s": sec("evaluate.load_predictions"),
        "evaluate.jga_s": sec("evaluate.jga"),
        "evaluate.accumulate_s": sec("evaluate.accumulate_predicted_states"),
        "evaluate.exact_match_s": sec("evaluate.exact_match_score"),
        "evaluate.unparseable": (sum(notes["evaluate.jga"])
                                 + sum(notes["evaluate.exact_match_score"])),
        "lispress.parse_calls": calls["lispress.parse"],
        "lispress.parse_s": sec("lispress.parse"),
        "lispress.print_canonical_s": sec("lispress.print_canonical"),
        "cli.main_s": sec("cli.main"),
        "cli.self_s": self_ns["cli.main"] / 1e9,
    }


def combine(per_run: List[Dict[str, float]]) -> Dict[str, float]:
    """Counts from the first traced job, times as the median over jobs."""
    out = {}
    for key in per_run[0]:
        values = [m[key] for m in per_run]
        out[key] = values[0] if key in EXACT else statistics.median(values)
    return out


def count_drift(per_run: List[Dict[str, float]]) -> List[str]:
    """Names of deterministic metrics that differ between traced jobs."""
    return [k for k in per_run[0] if k in EXACT and len({m[k] for m in per_run}) > 1]
