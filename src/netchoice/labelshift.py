"""Black Box Shift Estimation for classifier-derived prevalence.

A classifier trained on source-distributed data reports biased class
prevalences on a target population whose label distribution has shifted.
Under label shift, the target prediction marginal mu satisfies C w = mu,
where C is the source joint confusion matrix P(prediction, truth) and w holds
the target/source prior ratios; solving for w and rescaling by the source
priors recovers corrected target priors. Finite-sample noise can push
entries slightly negative, so the corrected vector is clipped at zero and
renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class IllConditionedError(RuntimeError):
    """The confusion matrix is too ill-conditioned to invert reliably."""

    def __init__(self, condition_number, threshold):
        self.condition_number = condition_number
        self.threshold = threshold
        super().__init__(
            f"confusion matrix condition number {condition_number:.6g} exceeds {threshold:.6g}"
        )


@dataclass(frozen=True)
class ConfusionJoint:
    """Joint frequencies P(prediction = i, truth = j) from held-out source data."""

    matrix: np.ndarray
    classes: tuple
    n_holdout: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("confusion matrix must be square")
        if (m < 0).any():
            raise ValueError("confusion entries must be nonnegative")
        if abs(float(m.sum()) - 1.0) > 1e-12:
            raise ValueError("confusion entries must sum to 1")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class ShiftEstimate:
    """BBSE output: prior ratios, corrected priors, and diagnostics."""

    weights: np.ndarray
    corrected: np.ndarray
    target_marginal: np.ndarray
    condition_number: float
    classes: tuple

    def to_json_dict(self) -> dict:
        return {
            "classes": [str(c) for c in self.classes],
            "weights": [float(w) for w in self.weights],
            "corrected_priors": [float(q) for q in self.corrected],
            "target_marginal": [float(m) for m in self.target_marginal],
            "condition_number": float(self.condition_number),
        }


def confusion_from_holdout(predictions, labels, classes=None) -> ConfusionJoint:
    """Tally the joint (prediction, truth) frequencies on held-out data."""
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise ValueError(f"length mismatch: {len(predictions)} predictions vs {len(labels)} labels")
    n = len(labels)
    if n == 0:
        raise ValueError("empty holdout")
    if classes is None:
        classes = tuple(sorted(set(labels) | set(predictions)))
    else:
        classes = tuple(classes)
        known = set(classes)
        stray = (set(labels) | set(predictions)) - known
        if stray:
            raise ValueError(f"values outside the class set: {sorted(map(str, stray))}")
    index = {c: i for i, c in enumerate(classes)}
    k = len(classes)
    matrix = np.zeros((k, k), dtype=np.float64)
    for pred, truth in zip(predictions, labels):
        matrix[index[pred], index[truth]] += 1.0
    matrix /= n
    return ConfusionJoint(matrix=matrix, classes=classes, n_holdout=n)


def bbse_weights(confusion, target_marginal, condition_threshold: float = 1e8) -> np.ndarray:
    """Solve C w = mu for the target/source prior ratios w."""
    C = confusion.matrix if isinstance(confusion, ConfusionJoint) else np.asarray(confusion, dtype=np.float64)
    mu = np.asarray(target_marginal, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("confusion matrix must be square")
    if mu.shape != (C.shape[0],):
        raise ValueError("target marginal length does not match the confusion matrix")
    condition = float(np.linalg.cond(C))
    if not math.isfinite(condition) or condition > condition_threshold:
        raise IllConditionedError(condition, condition_threshold)
    return np.linalg.solve(C, mu)


def corrected_priors(weights, confusion) -> np.ndarray:
    """Corrected target priors q_j = w_j * P_source(truth = j), cleaned up.

    Negative entries (finite-sample artifacts) clip to zero and the vector
    renormalizes to sum exactly 1.
    """
    C = confusion.matrix if isinstance(confusion, ConfusionJoint) else np.asarray(confusion, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    q = w * C.sum(axis=0)
    q = np.clip(q, 0.0, None)
    total = q.sum()
    if total <= 0:
        raise ValueError("corrected priors vanished; the inputs are inconsistent")
    return q / total


def estimate_shift(confusion: ConfusionJoint, target_marginal, condition_threshold: float = 1e8) -> ShiftEstimate:
    """Full BBSE pass: weights, corrected priors, and diagnostics."""
    mu = np.asarray(target_marginal, dtype=np.float64)
    w = bbse_weights(confusion, mu, condition_threshold)
    q = corrected_priors(w, confusion)
    return ShiftEstimate(
        weights=w,
        corrected=q,
        target_marginal=mu,
        condition_number=float(np.linalg.cond(confusion.matrix)),
        classes=confusion.classes,
    )


@dataclass(frozen=True)
class FoldSummary:
    """Across-fold aggregation of a proportion estimate.

    Both the across-fold standard deviation and sd/sqrt(folds) are reported,
    since either may be meant by a quoted standard error.
    """

    mean: float
    sd: float
    se: float
    n_folds: int

    def to_json_dict(self) -> dict:
        return {"mean": self.mean, "sd": self.sd, "se": self.se, "n_folds": self.n_folds}


def fold_proportion(estimates) -> FoldSummary:
    """Mean, sample sd, and sd/sqrt(F) of per-fold proportion estimates."""
    values = np.asarray(list(estimates), dtype=np.float64)
    if values.size < 2:
        raise ValueError("need at least 2 folds")
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    return FoldSummary(mean=mean, sd=sd, se=sd / math.sqrt(values.size), n_folds=int(values.size))
