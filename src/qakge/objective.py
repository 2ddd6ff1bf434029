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

    def entity_slots(self) -> np.ndarray:
        """Entity row of every subject and object slot, in the order
        positive subjects, positive objects, corruption subjects,
        corruption objects."""
        return np.concatenate([self.pos[:, 0], self.pos[:, 2], self.neg[:, 0], self.neg[:, 2]])

    def relation_slots(self) -> np.ndarray:
        """Relation row of every triple, positives first."""
        return np.concatenate([self.pos[:, 1], self.neg[:, 1]])

    def touched_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique entity and relation rows this batch references."""
        return np.unique(self.entity_slots()), np.unique(self.relation_slots())


def _compact(slots: np.ndarray, trainable: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The sorted unique rows of ``slots`` that ``trainable`` marks (all of
    them for None), and the buffer row of each slot; a slot whose row is not
    trained gets ``len(rows)``, one past the last buffer row."""
    rows, at = np.unique(slots, return_inverse=True)
    if trainable is None:
        return rows, at
    keep = trainable[rows]
    buffer_row = np.cumsum(keep) - 1
    buffer_row[~keep] = np.count_nonzero(keep)
    return rows[keep], buffer_row[at]


def scatter_rows(at: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum of the rows of ``values`` grouped by target row ``at``, as an
    (n_rows, k) array; values whose target row is ``n_rows`` or more are
    dropped.

    One flat ``np.bincount`` adds, in each cell, the values in the order
    they come, as ``np.add.at`` would, at a fraction of its cost.
    """
    k = values.shape[1]
    cells = (at[:, None] * k + np.arange(k)).ravel()
    width = max(n_rows, int(at.max(initial=-1)) + 1) * k
    summed = np.bincount(cells, weights=values.ravel(), minlength=width)
    return summed[: n_rows * k].reshape(n_rows, k)


@dataclass
class Gradients:
    """Gradients over the rows one batch trains, in compact buffers.

    Row i of ``ent_re`` and ``ent_im`` belongs to entity ``ent_rows[i]``,
    row i of ``rel_re`` and ``rel_im`` to relation ``rel_rows[i]``.
    ``ent_at`` and ``rel_at`` give the buffer row of each slot of
    :meth:`TrainingBatch.entity_slots` and :meth:`TrainingBatch.relation_slots`,
    or one past the last buffer row for a row that is not trained.
    """

    ent_rows: np.ndarray
    rel_rows: np.ndarray
    ent_at: np.ndarray
    rel_at: np.ndarray
    ent_re: np.ndarray
    ent_im: np.ndarray
    rel_re: np.ndarray
    rel_im: np.ndarray

    @classmethod
    def for_batch(
        cls, batch: TrainingBatch, k: int,
        trainable: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "Gradients":
        """Zero gradients of width ``k`` over the rows ``batch`` touches;
        with ``trainable`` (entity and relation masks over the vocabulary),
        over only those of them the masks mark."""
        ent_mask, rel_mask = (None, None) if trainable is None else trainable
        ent_rows, ent_at = _compact(batch.entity_slots(), ent_mask)
        rel_rows, rel_at = _compact(batch.relation_slots(), rel_mask)
        n, m = len(ent_rows), len(rel_rows)
        return cls(ent_rows, rel_rows, ent_at, rel_at,
                   np.zeros((n, k)), np.zeros((n, k)), np.zeros((m, k)), np.zeros((m, k)))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.ent_re, self.ent_im, self.rel_re, self.rel_im)

    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The parameter rows each of :meth:`arrays` covers."""
        return (self.ent_rows, self.ent_rows, self.rel_rows, self.rel_rows)


def _neg_weights(batch: TrainingBatch) -> np.ndarray:
    return np.repeat(batch.pos_weights, batch.eta)


def _scatter_score_grads(
    model: ModelParams, grads: Gradients, batch: TrainingBatch,
    coeff_pos: np.ndarray, coeff_neg: np.ndarray,
) -> None:
    """Accumulate coeff_t * (d f_t / d component) for each triple t of the
    batch, with one scatter per matrix. Triples with a zero coefficient add
    nothing and are skipped.

    Each buffer cell adds its terms in a fixed order: subjects of
    positives, objects of positives, subjects of corruptions, objects of
    corruptions. Scattering the four parts one after another with
    ``np.add.at`` gives the same sums bit for bit.
    """
    b = batch.pos.shape[0]
    coeff = np.concatenate([coeff_pos, coeff_neg])
    live = coeff != 0.0
    if not live.any():
        return
    idx = np.concatenate([batch.pos, batch.neg])[live]
    coeff = coeff[live][:, None]
    s, p, o = idx[:, 0], idx[:, 1], idx[:, 2]
    sr, si = model.ent_re[s], model.ent_im[s]
    pr, pi = model.rel_re[p], model.rel_im[p]
    or_, oi = model.ent_re[o], model.ent_im[o]

    cut = int(np.count_nonzero(live[:b]))  # live positives come first

    def by_slot(subj: np.ndarray, obj: np.ndarray) -> np.ndarray:
        return np.concatenate([subj[:cut], obj[:cut], subj[cut:], obj[cut:]])

    ent_at = grads.ent_at[np.concatenate([live[:b], live[:b], live[b:], live[b:]])]
    rel_at = grads.rel_at[live]
    n_ent, n_rel = len(grads.ent_rows), len(grads.rel_rows)
    # df/dsr = pr*or + pi*oi        df/dsi = pr*oi - pi*or
    # df/dpr = sr*or + si*oi        df/dpi = sr*oi - si*or
    # df/dor = sr*pr - si*pi        df/doi = sr*pi + si*pr
    grads.ent_re += scatter_rows(
        ent_at, by_slot(coeff * (pr * or_ + pi * oi), coeff * (sr * pr - si * pi)), n_ent)
    grads.ent_im += scatter_rows(
        ent_at, by_slot(coeff * (pr * oi - pi * or_), coeff * (si * pr + sr * pi)), n_ent)
    grads.rel_re += scatter_rows(rel_at, coeff * (sr * or_ + si * oi), n_rel)
    grads.rel_im += scatter_rows(rel_at, coeff * (sr * oi - si * or_), n_rel)


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
    _scatter_score_grads(model, grads, batch, coeff_pos, coeff_neg)
    return loss


def regularizer_part(
    model: ModelParams,
    ent_rows: np.ndarray,
    rel_rows: np.ndarray,
    p: int,
    lam: float,
    grads: Gradients | None = None,
) -> float:
    """Penalty lam * sum |x|^p over the given rows; with ``grads``, which
    must cover exactly these rows, d/dx = lam * p * |x|^(p-1) * sign(x) is
    accumulated there."""
    if lam == 0.0:
        return 0.0
    loss = 0.0
    targets = (None,) * 4 if grads is None else grads.arrays()
    for param, rows, g in zip(model.arrays(), (ent_rows, ent_rows, rel_rows, rel_rows), targets):
        x = param[rows]
        loss += float(np.sum(np.abs(x) ** p))
        if g is not None:
            g += lam * p * np.abs(x) ** (p - 1) * np.sign(x)
    return lam * loss
