"""Corpus-analysis toolkit for task-oriented dialog datasets.

Loads MultiWOZ, SGD and SMCalFlow into one data model, measures
conversational distance, contextuality and value-normalization effects,
emits seq2seq linearizations, and scores dialog-state-tracking
predictions (JGA and Lispress exact match).
"""
from .corpus import (Corpus, Dialog, DatasetKind, InputError, Speaker,
                     StateUpdate, Turn, apply_update, load_multiwoz, load_sgd,
                     load_smcalflow, state_update)
from .analysis import (ContextClass, SlotTrace, TurnAnalysis, analyze_corpus,
                       apply_overrides, histogram, trace_turn)
from .normalize import (Lexicon, MatchCategory, MatchResult, default_lexicon,
                        load_lexicon, match_in_text, variants)
from .linearize import (InputRepresentation, Seq2SeqRecord, emit_dataset,
                        linearize_input, linearize_target, parse_target)
from .evaluate import (ScoreReport, accumulate_predicted_states,
                       exact_match_score, jga, load_predictions)

__version__ = "0.1.0"
