"""Evaluation harness: metrics, perturbations, robustness curves, reports."""

from .harness import (
    EVAL_KINDS,
    MAX_NEW_TOKENS,
    EvalReport,
    EvalSet,
    dialect_breakdown,
    emit_report,
    greedy_batch,
    greedy_continue,
    load_eval_set,
    robustness_curve,
    validate_report,
)
from .metrics import (
    bleu,
    exact_match,
    lm_scores,
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
    "bleu",
    "dialect_breakdown",
    "emit_report",
    "exact_match",
    "greedy_batch",
    "greedy_continue",
    "lm_scores",
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
