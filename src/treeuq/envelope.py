"""Three-way classification outcomes at a confidence threshold.

Given an ensemble's class posterior for a test point, the outcome is
confidently correct when the top class reaches the confidence probability p0
and matches the truth, confidently incorrect when it reaches p0 on a wrong
class, and uncertain otherwise. The lowest achievable top probability is
1/C, so p0 must exceed it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EnvelopeSummary",
    "cross_fold_summary",
    "envelope_rates",
    "p_min",
]

POSTERIOR_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class EnvelopeSummary:
    """Outcome rates over a test set, plus plain argmax accuracy.

    For cross-fold summaries, the two_sigma_* fields hold twice the sample
    standard deviation of each rate, and of the accuracy, across folds.
    """

    rate_correct: float
    rate_uncertain: float
    rate_incorrect: float
    accuracy: float
    two_sigma_correct: float | None = None
    two_sigma_uncertain: float | None = None
    two_sigma_incorrect: float | None = None
    two_sigma_accuracy: float | None = None


def p_min(num_classes: int) -> float:
    """Smallest achievable top vote share: 1/C."""
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    return 1.0 / num_classes


def envelope_rates(posteriors, labels, p0: float) -> EnvelopeSummary:
    """Outcome fractions and argmax accuracy over one test set.

    Row i of posteriors is the class posterior of test point i and labels[i]
    its true class. The predicted class is the row's argmax (ties to the
    lower index); the outcome is confident when its probability reaches p0.
    """
    posteriors = np.asarray(posteriors, dtype=np.float64)
    given = np.asarray(labels)
    with np.errstate(invalid="ignore"):  # a NaN label casts to an arbitrary integer
        labels = given.astype(np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be a vector, got shape {labels.shape}")
    if posteriors.ndim != 2 or posteriors.shape[0] != labels.shape[0]:
        raise ValueError(f"got posteriors of shape {posteriors.shape} for {labels.shape[0]} labels")
    if posteriors.shape[0] < 1:
        raise ValueError("need at least one prediction")
    # a NaN entry fails both comparisons, an infinite one (or inf - inf) one of them
    with np.errstate(invalid="ignore"):
        valid = (posteriors.min(axis=1) >= -POSTERIOR_SUM_TOLERANCE) & (
            np.abs(posteriors.sum(axis=1) - 1.0) <= POSTERIOR_SUM_TOLERANCE
        )
    if not valid.all():
        bad = int(np.argmin(valid))
        raise ValueError(
            f"invalid posterior {bad} {posteriors[bad]!r}: entries must be probabilities summing to 1"
        )
    num_classes = posteriors.shape[1]
    if not p_min(num_classes) < p0 <= 1.0:
        raise ValueError(f"p0 must lie in (1/{num_classes}, 1], got {p0}")
    fractional = labels != given
    if fractional.any():
        bad = int(np.argmax(fractional))
        raise ValueError(f"label {bad} is {given[bad]}, not a whole number")
    outside = (labels < 0) | (labels >= num_classes)
    if outside.any():
        bad = int(np.argmax(outside))
        raise ValueError(f"label {bad} is {labels[bad]}, outside 0..{num_classes - 1}")

    predicted = np.argmax(posteriors, axis=1)
    confident = posteriors[np.arange(len(labels)), predicted] >= p0
    correct = predicted == labels
    rate_correct = float(np.mean(confident & correct))
    rate_incorrect = float(np.mean(confident & ~correct))
    return EnvelopeSummary(
        rate_correct=rate_correct,
        rate_uncertain=float(np.mean(~confident)),
        rate_incorrect=rate_incorrect,
        accuracy=float(np.mean(correct)),
    )


def cross_fold_summary(fold_summaries) -> EnvelopeSummary:
    """Mean rates and accuracy across folds with 2-sigma interval widths.

    Each width is twice the sample standard deviation across folds (not a
    +/- half-width).
    """
    folds = tuple(fold_summaries)
    if len(folds) < 2:
        raise ValueError(f"need at least 2 folds, got {len(folds)}")
    correct = np.array([f.rate_correct for f in folds])
    uncertain = np.array([f.rate_uncertain for f in folds])
    incorrect = np.array([f.rate_incorrect for f in folds])
    accuracy = np.array([f.accuracy for f in folds])
    return EnvelopeSummary(
        rate_correct=float(correct.mean()),
        rate_uncertain=float(uncertain.mean()),
        rate_incorrect=float(incorrect.mean()),
        accuracy=float(accuracy.mean()),
        two_sigma_correct=float(2.0 * correct.std(ddof=1)),
        two_sigma_uncertain=float(2.0 * uncertain.std(ddof=1)),
        two_sigma_incorrect=float(2.0 * incorrect.std(ddof=1)),
        two_sigma_accuracy=float(2.0 * accuracy.std(ddof=1)),
    )
