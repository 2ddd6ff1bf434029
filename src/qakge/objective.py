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
    """Gradients over the rows one batch trains, in compact complex buffers.

    Row i of ``ent`` belongs to entity ``ent_rows[i]``, row i of ``rel`` to
    relation ``rel_rows[i]``; a buffer entry holds d/d(real part) plus
    1j * d/d(imaginary part) of its parameter. ``ent_at`` and ``rel_at``
    give the buffer row of each slot of :meth:`TrainingBatch.entity_slots`
    and :meth:`TrainingBatch.relation_slots`, or one past the last buffer
    row for a row that is not trained.
    """

    ent_rows: np.ndarray
    rel_rows: np.ndarray
    ent_at: np.ndarray
    rel_at: np.ndarray
    ent: np.ndarray  # (len(ent_rows), k) complex128
    rel: np.ndarray  # (len(rel_rows), k) complex128

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
        return cls(ent_rows, rel_rows, ent_at, rel_at,
                   np.zeros((len(ent_rows), k), dtype=np.complex128),
                   np.zeros((len(rel_rows), k), dtype=np.complex128))


def _neg_weights(batch: TrainingBatch) -> np.ndarray:
    return np.repeat(batch.pos_weights, batch.eta)


def _scatter_score_grads(
    model: ModelParams, grads: Gradients, batch: TrainingBatch,
    coeff_pos: np.ndarray, coeff_neg: np.ndarray,
) -> None:
    """Accumulate coeff_t * (d f_t / d parameter) for each triple t of the
    batch, with one scatter per matrix. Triples with a zero coefficient add
    nothing and are skipped, and so are the relation terms when no relation
    row is trained.

    With f = Re(s * p * conj(o)), the complex gradients are

        d/do = s * p,   d/ds = conj(p) * o,   d/dp = conj(s) * o,

    each scaled by the real coefficient through its float view. Each buffer
    cell adds its terms in a fixed order: subjects of positives, objects of
    positives, subjects of corruptions, objects of corruptions. Scattering
    the four parts one after another with ``np.add.at`` gives the same sums
    bit for bit.
    """
    b = batch.pos.shape[0]
    coeff = np.concatenate([coeff_pos, coeff_neg])
    live = coeff != 0.0
    if not live.any():
        return
    idx = np.concatenate([batch.pos, batch.neg])[live]
    coeff = coeff[live][:, None]
    s, p, o = model.ent[idx[:, 0]], model.rel[idx[:, 1]], model.ent[idx[:, 2]]
    n_live, cut = len(idx), int(np.count_nonzero(live[:b]))  # live positives come first

    # entity terms in slot order: subjects and objects of the live
    # positives, then of the live corruptions
    ent_terms = np.empty((2 * n_live, model.k), dtype=np.complex128)
    parts = (slice(0, cut), slice(cut, n_live))
    subj_terms = (ent_terms[:cut], ent_terms[2 * cut:cut + n_live])
    obj_terms = (ent_terms[cut:2 * cut], ent_terms[cut + n_live:])
    for part, out in zip(parts, obj_terms):
        np.multiply(s[part], p[part], out=out)
    np.conjugate(p, out=p)
    for part, out in zip(parts, subj_terms):
        np.multiply(p[part], o[part], out=out)
    ent_terms.view(np.float64)[...] *= np.concatenate(
        [coeff[:cut], coeff[:cut], coeff[cut:], coeff[cut:]])
    ent_at = grads.ent_at[np.concatenate([live[:b], live[:b], live[b:], live[b:]])]
    grads.ent.view(np.float64)[...] += scatter_rows(
        ent_at, ent_terms.view(np.float64), len(grads.ent_rows))

    if len(grads.rel_rows) == 0:  # fold-in with every relation frozen
        return
    rel_terms = np.conjugate(s, out=s)
    rel_terms *= o
    rel_terms.view(np.float64)[...] *= coeff
    grads.rel.view(np.float64)[...] += scatter_rows(
        grads.rel_at[live], rel_terms.view(np.float64), len(grads.rel_rows))


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


def int_power(a: np.ndarray, n: int) -> np.ndarray:
    """a ** n for an integer n >= 0 by repeated squaring, as a new array.

    A few multiplications cost several times less than float ``pow``."""
    if n < 2:
        return np.ones_like(a) if n == 0 else a.copy()
    half = a if n < 4 else int_power(a, n // 2)
    result = half * half
    if n & 1:
        result *= a
    return result


def regularizer_part(
    model: ModelParams,
    ent_rows: np.ndarray,
    rel_rows: np.ndarray,
    p: int,
    lam: float,
    grads: Gradients | None = None,
) -> float:
    """Penalty lam * sum |x|^p over the real and imaginary parts of the
    given rows; with ``grads``, which must cover exactly these rows,
    d/dx = lam * p * |x|^(p-1) * sign(x) is accumulated there (zero at
    x = 0, also for p = 1)."""
    if lam == 0.0:
        return 0.0
    loss = 0.0
    targets = (None, None) if grads is None else (grads.ent, grads.rel)
    for param, rows, g in zip((model.ent, model.rel), (ent_rows, rel_rows), targets):
        x = param[rows].view(np.float64)
        a = np.abs(x)
        slope = int_power(a, p - 1)  # |x|^(p-1)
        loss += float(np.dot(slope.ravel(), a.ravel()))  # sum of |x|^p
        if g is not None:
            if p == 1:
                slope = np.sign(x)
            else:
                np.copysign(slope, x, out=slope)
            slope *= lam * p
            g.view(np.float64)[...] += slope
    return lam * loss
