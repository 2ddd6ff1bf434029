"""Training objective: numeric-edge modulation, margin loss, regularizer,
and their analytic gradients.

Raw scores f are squashed through softplus and scaled by a weight-dependent
factor alpha:

    positives:  alpha = beta + (1 - beta) * w
    negatives:  alpha = beta + (1 - beta) * (1 - w)   (w of the parent positive)

At beta = 1 the edge weights are invisible; as beta anneals to 0 a
low-weight positive stops pulling its score up while its corruptions barely
push back, so it behaves like a soft negative. The batch loss is a summed
pairwise hinge over each positive and its eta corruptions,

    L = sum max(0, margin + g(neg) - g(pos)),

plus an L_p penalty over the set of embeddings the batch touches.

:func:`hinge_part` and :func:`regularizer_part` each return their term's
loss and, given a :class:`Gradients`, accumulate its gradient.
``training.loss_and_grad`` adds the two; it is the one entry point that
training, validation and the tests share.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import ModelParams


def softplus(x):
    """log(1 + e^x), overflow-safe for any float64 input."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def focuse_modulate(raw_score, weight, beta, is_positive: bool):
    """Modulated score alpha * softplus(raw). Accepts scalars or arrays."""
    w = np.asarray(weight, dtype=np.float64)
    if np.any(w < 0.0) or np.any(w > 1.0):
        raise InputError("edge weights must lie in [0, 1]")
    if not (0.0 <= beta <= 1.0):
        raise InputError(f"beta must lie in [0, 1], got {beta}")
    influence = w if is_positive else 1.0 - w
    alpha = beta + (1.0 - beta) * influence
    result = alpha * softplus(raw_score)
    return float(result) if np.ndim(result) == 0 else result


@dataclass(frozen=True)
class TrainingBatch:
    """One optimization step's worth of data: positives, their weights,
    pre-drawn corruptions (eta per positive, grouped), and the current beta."""

    pos: np.ndarray  # (B, 3) int64
    pos_weights: np.ndarray  # (B,)
    neg: np.ndarray  # (B * eta, 3) int64
    eta: int
    beta: float

    def __post_init__(self):
        if self.pos.shape[0] * self.eta != self.neg.shape[0]:
            raise InputError(
                f"batch of {self.pos.shape[0]} positives needs {self.pos.shape[0] * self.eta} "
                f"corruptions, got {self.neg.shape[0]}"
            )
        if self.pos.shape[0] != self.pos_weights.shape[0]:
            raise InputError("one weight per positive required")

    def touched_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique entity and relation rows this batch references."""
        ent = np.unique(np.concatenate([self.pos[:, [0, 2]].ravel(), self.neg[:, [0, 2]].ravel()]))
        rel = np.unique(np.concatenate([self.pos[:, 1], self.neg[:, 1]]))
        return ent, rel


@dataclass
class Gradients:
    """Dense gradients matching the four parameter matrices."""

    ent_re: np.ndarray
    ent_im: np.ndarray
    rel_re: np.ndarray
    rel_im: np.ndarray

    @classmethod
    def zeros_like(cls, model: ModelParams) -> "Gradients":
        return cls(*(np.zeros_like(a) for a in model.arrays()))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.ent_re, self.ent_im, self.rel_re, self.rel_im)


def _neg_weights(batch: TrainingBatch) -> np.ndarray:
    return np.repeat(batch.pos_weights, batch.eta)


def _scatter_score_grads(
    model: ModelParams, grads: Gradients, idx: np.ndarray, coeff: np.ndarray
) -> None:
    """Accumulate coeff_t * (d f_t / d component) for each triple t in idx."""
    live = coeff != 0.0
    if not live.any():
        return
    idx = idx[live]
    coeff = coeff[live][:, None]
    s, p, o = idx[:, 0], idx[:, 1], idx[:, 2]
    sr, si = model.ent_re[s], model.ent_im[s]
    pr, pi = model.rel_re[p], model.rel_im[p]
    or_, oi = model.ent_re[o], model.ent_im[o]
    # df/dsr = pr*or + pi*oi        df/dsi = pr*oi - pi*or
    # df/dpr = sr*or + si*oi        df/dpi = sr*oi - si*or
    # df/dor = sr*pr - si*pi        df/doi = sr*pi + si*pr
    np.add.at(grads.ent_re, s, coeff * (pr * or_ + pi * oi))
    np.add.at(grads.ent_im, s, coeff * (pr * oi - pi * or_))
    np.add.at(grads.rel_re, p, coeff * (sr * or_ + si * oi))
    np.add.at(grads.rel_im, p, coeff * (sr * oi - si * or_))
    np.add.at(grads.ent_re, o, coeff * (sr * pr - si * pi))
    np.add.at(grads.ent_im, o, coeff * (si * pr + sr * pi))


def hinge_part(
    model: ModelParams, batch: TrainingBatch, margin: float, grads: Gradients | None = None
) -> float:
    """Hinge loss of the batch; with ``grads``, its gradient is accumulated there.

    The hinge subgradient at an exactly-zero violation is taken as zero, so
    only strictly positive violations propagate.
    """
    from .model import score_triples  # looked up per call, so wrappers on it apply

    f_pos = score_triples(model, batch.pos)
    f_neg = score_triples(model, batch.neg)
    g_pos = focuse_modulate(f_pos, batch.pos_weights, batch.beta, True)
    g_neg = focuse_modulate(f_neg, _neg_weights(batch), batch.beta, False)
    b, eta = batch.pos.shape[0], batch.eta
    viol = margin + g_neg.reshape(b, eta) - g_pos[:, None]
    active = viol > 0.0
    loss = float(viol[active].sum()) if active.any() else 0.0
    if grads is None:
        return loss

    w_pos = np.asarray(batch.pos_weights, dtype=np.float64)
    alpha_pos = batch.beta + (1.0 - batch.beta) * w_pos
    alpha_neg = batch.beta + (1.0 - batch.beta) * (1.0 - _neg_weights(batch))
    # dL/df_pos = -alpha_pos * sigmoid(f_pos) * (#active pairs of that positive)
    coeff_pos = -alpha_pos * sigmoid(f_pos) * active.sum(axis=1)
    # dL/df_neg = alpha_neg * sigmoid(f_neg) for each active pair
    coeff_neg = alpha_neg * sigmoid(f_neg) * active.reshape(-1)
    _scatter_score_grads(model, grads, batch.pos, coeff_pos)
    _scatter_score_grads(model, grads, batch.neg, coeff_neg)
    return loss


def regularizer_part(
    model: ModelParams,
    ent_rows: np.ndarray,
    rel_rows: np.ndarray,
    p: int,
    lam: float,
    grads: Gradients | None = None,
) -> float:
    """Penalty lam * sum |x|^p over the touched rows; with ``grads``,
    d/dx = lam * p * |x|^(p-1) * sign(x) is accumulated there."""
    if lam == 0.0:
        return 0.0
    loss = 0.0
    for rows, name in ((ent_rows, "ent_re"), (ent_rows, "ent_im"),
                       (rel_rows, "rel_re"), (rel_rows, "rel_im")):
        x = getattr(model, name)[rows]
        loss += float(np.sum(np.abs(x) ** p))
        if grads is not None:
            getattr(grads, name)[rows] += lam * p * np.abs(x) ** (p - 1) * np.sign(x)
    return lam * loss
