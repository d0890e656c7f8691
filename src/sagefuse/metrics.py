"""Evaluation metrics: argmax accuracy and rank-based ROC-AUC.

Binary tasks report ROC-AUC with the Mann-Whitney tie convention (each
tied pair contributes one half); multiclass tasks report accuracy.
"""

from __future__ import annotations

import numpy as np


class MetricError(ValueError):
    pass


def accuracy(logits, labels):
    preds = np.asarray(logits).argmax(axis=1)
    labels = np.asarray(labels)
    return float((preds == labels).mean())


def roc_auc(scores, labels):
    """P(score of a random positive > score of a random negative), ties 0.5.

    Computed via average ranks, which is arithmetic-identical to counting
    all positive/negative pairs.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("ROC-AUC needs both classes present in the split")
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    # Average 1-based rank of each distinct score: exact half-integers.
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def positive_scores(logits):
    """Positive-class probability from binary logits, for ROC-AUC."""
    logits = np.asarray(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    p /= p.sum(axis=1, keepdims=True)
    return p[:, 1]


def split_metric(logits, labels, num_classes):
    """The dataset's headline metric: ROC-AUC when binary, else accuracy."""
    if num_classes == 2:
        return roc_auc(positive_scores(logits), labels)
    return accuracy(logits, labels)


def metric_name(num_classes):
    return "roc_auc" if num_classes == 2 else "accuracy"
