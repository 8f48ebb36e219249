"""Command-line entry point: analyze, linearize, eval, validate, inspect."""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from . import analysis, corpus, evaluate, linearize, report
from .atomic import write_text, write_texts
from .corpus import DatasetKind, Speaker
from .normalize import default_lexicon, load_lexicon

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

_LOADERS = {
    DatasetKind.MULTIWOZ: corpus.load_multiwoz,
    DatasetKind.SGD: corpus.load_sgd,
    DatasetKind.SMCALFLOW: corpus.load_smcalflow,
}


class UsageError(Exception):
    """An argument combination the parser cannot reject by itself; exits 2."""


def _dataset_path(args) -> Path:
    if args.path:
        return Path(args.path)
    root = os.environ.get("DIALOSCOPE_DATA_DIR")
    if root:
        return Path(root) / args.dataset
    raise UsageError("--path is required (or set DIALOSCOPE_DATA_DIR)")


def _load_corpus(args) -> corpus.Corpus:
    kind = DatasetKind(args.dataset)
    loader = _LOADERS[kind]
    return loader(_dataset_path(args), args.split)


def _load_lexicon(args):
    if args.lexicon:
        return load_lexicon(args.lexicon)
    return default_lexicon()


def _load_overrides(args):
    if args.overrides:
        return analysis.apply_overrides(args.overrides)
    return None


def cmd_analyze(args) -> int:
    corp = _load_corpus(args)
    doc = analysis.analyze_corpus(corp, _load_lexicon(args),
                                  _load_overrides(args), workers=args.workers)
    # every output is rendered, and written to its temporary file, before
    # any replaces its target, so a failure leaves no new output behind
    md = report.markdown(doc)
    outputs = [(args.out, json.dumps(doc, indent=2, ensure_ascii=False) + "\n"),
               (args.markdown, md), (args.histogram, report.histogram_csv(doc))]
    write_texts([(path, text) for path, text in outputs if path])
    print(md)
    return EXIT_OK


def cmd_linearize(args) -> int:
    if args.previous_state == "predicted" and not args.preds:
        raise UsageError("--previous-state predicted requires --preds")
    if args.preds and args.previous_state != "predicted":
        raise UsageError("--preds applies to --previous-state predicted only")
    if args.previous_state == "predicted" and args.dataset == DatasetKind.SMCALFLOW.value:
        raise UsageError("--previous-state predicted applies to multiwoz and sgd only")
    if args.repr == "prev-state" and args.dataset == DatasetKind.SMCALFLOW.value:
        raise UsageError("--repr prev-state applies to multiwoz and sgd only")
    corp = _load_corpus(args)
    repr_ = linearize.InputRepresentation(args.repr)
    predicted_states = None
    if args.previous_state == "predicted":
        preds = evaluate.load_predictions(args.preds)
        predicted_states = evaluate.accumulate_predicted_states(corp, preds)
    count = linearize.emit_dataset(corp, repr_, args.out, predicted_states)
    print(f"wrote {count} records to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if (args.mode == "exact-match") != (args.dataset == DatasetKind.SMCALFLOW.value):
        raise UsageError("--mode exact-match applies to smcalflow only, "
                         "jga-oracle and jga to multiwoz and sgd only")
    if args.fuzzy_sgd_matching and args.dataset != DatasetKind.SGD.value:
        raise UsageError("--fuzzy-sgd-matching applies to sgd only")
    for flag, given in (("--honor-refer-flags", args.honor_refer_flags),
                        ("--strict-exact-match", args.strict_exact_match)):
        if given and args.mode != "exact-match":
            raise UsageError(f"{flag} applies to --mode exact-match only")
    corp = _load_corpus(args)
    preds = evaluate.load_predictions(args.preds)
    if args.mode == "exact-match":
        result = evaluate.exact_match_score(corp, preds,
                                            honor_refer_flags=args.honor_refer_flags,
                                            strict=args.strict_exact_match)
    else:
        mode = "oracle" if args.mode == "jga-oracle" else "accumulated"
        result = evaluate.jga(corp, preds, mode=mode,
                              fuzzy_values=args.fuzzy_sgd_matching)
    print(result.table())
    if args.out:
        write_text(args.out, result.json_text())
    return EXIT_OK


def cmd_validate(args) -> int:
    corp = _load_corpus(args)  # every check is the loader's
    print(f"ok: {len(corp.dialogs)} dialogs, {corp.user_turn_count()} user turns, "
          "no violations")
    return EXIT_OK


def cmd_inspect(args) -> int:
    corp = _load_corpus(args)
    try:
        dialog = corp.get_dialog(args.dialog_id)
    except KeyError:
        raise corpus.InputError(f"unknown dialog_id: {args.dialog_id}")
    lexicon = _load_lexicon(args)
    overrides = _load_overrides(args)
    for turn in dialog.turns:
        print(f"[{turn.index}] {turn.speaker.value}: {turn.utterance}")
        if turn.speaker is not Speaker.USER:
            continue
        if corp.dataset_kind is DatasetKind.SMCALFLOW:
            print(f"      program: {turn.program}")
            continue
        result = analysis.trace_turn(dialog, turn.index, lexicon, overrides)
        if not result.slot_traces:
            print("      (nothing to predict)")
            continue
        for trace in result.slot_traces:
            delta = trace.delta_c if trace.delta_c is not None else "?"
            extras = []
            if trace.match.matched_surface:
                extras.append(f"matched {trace.match.matched_surface!r}")
            if trace.match.span:
                extras.append(f"span {trace.match.span}")
            if trace.context_class is not analysis.ContextClass.NON_CONTEXTUAL:
                extras.append(trace.context_class.value)
            suffix = f" ({', '.join(extras)})" if extras else ""
            print(f"      {trace.slot[0]}:{trace.slot[1]}={trace.value}  "
                  f"δc={delta}  {trace.match.category.value}{suffix}")
        if result.dropped_count or result.dontcared_count:
            print(f"      relaxations: {result.dropped_count} dropped, "
                  f"{result.dontcared_count} dontcared")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialoscope",
        description="Measure conversationality, contextuality and value "
                    "normalization of task-oriented dialog corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_lexicon=False):
        p.add_argument("--dataset", required=True,
                       choices=[k.value for k in DatasetKind])
        p.add_argument("--path", help="dataset file or directory "
                                      "(default: $DIALOSCOPE_DATA_DIR/<dataset>)")
        p.add_argument("--split", default="all")
        if with_lexicon:
            p.add_argument("--lexicon", help="lexicon file (default: bundled seed)")
            p.add_argument("--overrides", help="manual-adjudication override file")

    p = sub.add_parser("analyze", help="per-turn statistics report")
    common(p, with_lexicon=True)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--out", help="report JSON output path")
    p.add_argument("--markdown", help="report Markdown output path")
    p.add_argument("--histogram", help="histogram CSV output path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("linearize", help="emit seq2seq records")
    common(p)
    p.add_argument("--repr", required=True,
                   choices=[r.value for r in linearize.InputRepresentation])
    p.add_argument("--out", required=True)
    p.add_argument("--previous-state", choices=["gold", "predicted"], default="gold")
    p.add_argument("--preds", help="predictions file for --previous-state predicted")
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("eval", help="score a predictions file")
    common(p)
    p.add_argument("--preds", required=True)
    p.add_argument("--mode", required=True,
                   choices=["jga-oracle", "jga", "exact-match"])
    p.add_argument("--honor-refer-flags", action="store_true")
    p.add_argument("--fuzzy-sgd-matching", action="store_true")
    p.add_argument("--strict-exact-match", action="store_true")
    p.add_argument("--out", help="score JSON output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("validate", help="structural invariant checks")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("inspect", help="per-turn trace of one dialog")
    common(p, with_lexicon=True)
    p.add_argument("dialog_id")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a command builds one large acyclic graph that reference counting
    # frees; the cyclic collector would only rescan it as it grows
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (corpus.InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
