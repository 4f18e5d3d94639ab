"""Diagnostics for treatment-probability models: ROC/AUC, log-loss, Brier, accuracy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RocCurve:
    """Staircase from (0,0) to (1,1); thresholds[i] is the score cut at point i.

    The opening point uses threshold +inf (nothing classified positive).
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray

    def __post_init__(self):
        fpr = np.asarray(self.fpr, dtype=float)
        tpr = np.asarray(self.tpr, dtype=float)
        if not (fpr[0] == 0.0 and tpr[0] == 0.0 and fpr[-1] == 1.0 and tpr[-1] == 1.0):
            raise ValueError("ROC curve must run from (0,0) to (1,1)")
        if np.any(np.diff(fpr) < 0) or np.any(np.diff(tpr) < 0):
            raise ValueError("ROC coordinates must be nondecreasing")


def is_binary(values) -> bool:
    """Whether every entry is 0 or 1.  The test is elementwise on purpose: a
    plain np.unique imports numpy.ma on its first call, which a stage would
    pay for.  Every 0/1 check in the package goes through here."""
    values = np.asarray(values)
    return bool(np.all((values == 0.0) | (values == 1.0)))


def has_both_classes(values) -> bool:
    """Whether `values` is 0/1 with at least one of each."""
    values = np.asarray(values)
    return is_binary(values) and 0.0 < values.sum() < len(values)


def _binary_labels(labels) -> np.ndarray:
    labels = np.asarray(labels, dtype=float)
    if not is_binary(labels):
        raise ValueError("labels must be 0/1")
    return labels


def roc_and_auc(scores, labels) -> tuple[RocCurve, float]:
    """ROC over unique score thresholds and its trapezoidal area.

    Tied scores are grouped at a single threshold, which credits tied
    positive/negative pairs with 1/2 in the equivalent pair-counting form.
    """
    scores = np.asarray(scores, dtype=float)
    labels = _binary_labels(labels)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]

    # one ROC point per run of tied scores, counted through the run's last
    # subject; its threshold is the run's first score (0.0 and -0.0 tie)
    ends = np.append(np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]), len(scores) - 1)
    tp = np.cumsum(sorted_labels)[ends]
    fp = ends + 1 - tp
    starts = np.append(0, ends[:-1] + 1)
    thresholds = np.append(np.inf, sorted_scores[starts])
    fpr = np.append(0.0, fp / n_neg)
    tpr = np.append(0.0, tp / n_pos)
    auc = float(np.sum(0.5 * (tpr[1:] + tpr[:-1]) * np.diff(fpr)))
    return RocCurve(thresholds, fpr, tpr), auc


def log_loss(probs, labels) -> float:
    """-mean[y ln p + (1-y) ln(1-p)]; rejects probabilities at exactly 0 or 1."""
    probs = np.asarray(probs, dtype=float)
    labels = _binary_labels(labels)
    if np.any(probs <= 0.0) or np.any(probs >= 1.0):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    return float(-np.mean(labels * np.log(probs) + (1 - labels) * np.log1p(-probs)))


def brier(probs, labels) -> float:
    """Mean squared difference between predicted probabilities and labels."""
    probs = np.asarray(probs, dtype=float)
    labels = _binary_labels(labels)
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    return float(np.mean((probs - labels) ** 2))


def accuracy(probs, labels, threshold: float = 0.5) -> float:
    """Fraction classified correctly at the threshold; ties classified positive."""
    probs = np.asarray(probs, dtype=float)
    labels = _binary_labels(labels)
    return float(np.mean((probs >= threshold) == (labels == 1.0)))
