"""Evaluation harness: metrics, perturbations, robustness curves, reports."""

from .harness import (
    EVAL_KINDS,
    MAX_NEW_TOKENS,
    EvalReport,
    EvalSet,
    answer_question,
    dialect_breakdown,
    emit_report,
    greedy_continue,
    load_eval_set,
    robustness_curve,
    validate_report,
)
from .metrics import (
    bleu,
    exact_match,
    next_word_accuracy,
    normalize_for_match,
    perplexity,
    qa_f1,
    token_f1,
)
from .perturb import CONFUSABLE_GROUPS, DEFAULT_LEVELS, OPS, PerturbationConfig, perturb

__all__ = [
    "CONFUSABLE_GROUPS",
    "DEFAULT_LEVELS",
    "EVAL_KINDS",
    "EvalReport",
    "EvalSet",
    "MAX_NEW_TOKENS",
    "OPS",
    "PerturbationConfig",
    "answer_question",
    "bleu",
    "dialect_breakdown",
    "emit_report",
    "exact_match",
    "greedy_continue",
    "load_eval_set",
    "next_word_accuracy",
    "normalize_for_match",
    "perplexity",
    "perturb",
    "qa_f1",
    "robustness_curve",
    "token_f1",
    "validate_report",
]
