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
training, validation and the tests share. Their temporaries, and those of
the optimizer step, live in the :class:`Arena` a caller passes; a caller
that passes none gets a fresh one.
"""
from __future__ import annotations

import mmap
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


def _compact(
    slots: np.ndarray, n: int, trainable: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted unique rows of ``slots`` that ``trainable`` marks (all of
    them for None), and the buffer row of each slot; a slot whose row is not
    trained gets ``len(rows)``, one past the last buffer row. An id outside
    [0, n) raises IndexError, checked here once per batch because the step
    gathers rows with ``np.take(mode="wrap")``, which would wrap it."""
    rows, at = np.unique(slots, return_inverse=True)
    if rows.size and (rows[0] < 0 or rows[-1] >= n):
        bad = rows[0] if rows[0] < 0 else rows[-1]
        raise IndexError(f"id {bad} is out of range for {n} rows")
    if trainable is None:
        return rows, at
    keep = trainable[rows]
    buffer_row = np.cumsum(keep) - 1
    buffer_row[~keep] = np.count_nonzero(keep)
    return rows[keep], buffer_row[at]


def scatter_rows(
    at: np.ndarray, values: np.ndarray, n_rows: int, cells: np.ndarray | None = None
) -> np.ndarray:
    """Sum of the rows of ``values`` grouped by target row ``at``, as an
    (n_rows, k) array; values whose target row is ``n_rows`` or more are
    dropped. ``cells``, an int64 array of the shape of ``values``, receives
    the flat cell indices (a new array when None).

    One flat ``np.bincount`` adds, in each cell, the values in the order
    they come, as ``np.add.at`` would, at a fraction of its cost.
    """
    k = values.shape[1]
    cells = np.add(at[:, None] * k, np.arange(k), out=cells)
    width = max(n_rows, int(at.max(initial=-1)) + 1) * k
    summed = np.bincount(cells.ravel(), weights=values.ravel(), minlength=width)
    return summed[: n_rows * k].reshape(n_rows, k)


class Arena:
    """Scratch memory for the steps of one ``train`` call, or the batches of
    one ``validation_loss``.

    It is sized once, for batches of up to ``triples`` triples of width
    ``k`` that train up to ``ent_rows`` entity and ``rel_rows`` relation
    rows, and backed by one anonymous ``mmap``, outside the malloc heap.
    glibc trims a step's large temporaries off the top of the heap after
    every batch and maps them again, hundreds of page faults a batch; the
    arena's pages are touched once, on first use, and unmapped when the
    last view of it dies.

    ``ent`` and ``rel`` hold a step's gradients. The rest is one region that
    the hinge, the penalty and Adam carve up in turn, since none of their
    temporaries outlives its phase:

    - hinge: ``first`` and ``second``, the two factors of up to
      ``2 * triples`` slot products, and ``cells``, their int64 cell indices
      for ``scatter_rows``;
    - penalty and Adam: ``rows``, four (rows, 2k) float matrices.
    """

    def __init__(self, triples: int, k: int, ent_rows: int, rel_rows: int):
        slots, rows = 2 * triples, max(ent_rows, rel_rows)
        row = 16 * k  # bytes of a complex row, its float view or its int64 cells
        shared = ent_rows + rel_rows  # first row of the shared region
        size = (shared + max(3 * slots, 4 * rows)) * row
        memory = np.frombuffer(mmap.mmap(-1, max(size, 1)), dtype=np.uint8)

        def carve(start: int, n: int, dtype, width: int) -> np.ndarray:
            return memory[start * row:(start + n) * row].view(dtype).reshape(n, width)

        self.ent = carve(0, ent_rows, np.complex128, k)
        self.rel = carve(ent_rows, rel_rows, np.complex128, k)
        self.first = carve(shared, slots, np.complex128, k)
        self.second = carve(shared + slots, slots, np.complex128, k)
        self.cells = carve(shared + 2 * slots, slots, np.int64, 2 * k)
        self.rows = [carve(shared + i * rows, rows, np.float64, 2 * k) for i in range(4)]

    @classmethod
    def for_batches(cls, positives: int, eta: int, k: int, ent_rows: int, rel_rows: int) -> "Arena":
        """An arena for batches of up to ``positives`` positives and their
        ``eta`` corruptions each, over ``ent_rows`` entity and ``rel_rows``
        relation rows that may be trained; every triple names two entity
        rows and one relation row."""
        triples = positives * (1 + eta)
        return cls(triples, k, min(ent_rows, 2 * triples), min(rel_rows, triples))


@dataclass
class Gradients:
    """Gradients over the rows one batch trains, in compact complex buffers
    carved from an :class:`Arena`.

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
        cls, batch: TrainingBatch, model: ModelParams,
        trainable: tuple[np.ndarray, np.ndarray] | None = None, arena: Arena | None = None,
    ) -> "Gradients":
        """Zero gradients over the rows ``batch`` touches; with ``trainable``
        (entity and relation masks over the vocabulary), over only those of
        them the masks mark. The buffers are ``arena.ent`` and ``arena.rel``,
        which must fit them. An id outside the model's vocabulary raises
        IndexError."""
        ent_mask, rel_mask = (None, None) if trainable is None else trainable
        ent_rows, ent_at = _compact(batch.entity_slots(), model.vocab.n_entities, ent_mask)
        rel_rows, rel_at = _compact(batch.relation_slots(), model.vocab.n_relations, rel_mask)
        if arena is None:
            arena = Arena(0, model.k, len(ent_rows), len(rel_rows))
        ent, rel = arena.ent[: len(ent_rows)], arena.rel[: len(rel_rows)]
        ent.fill(0.0)
        rel.fill(0.0)
        return cls(ent_rows, rel_rows, ent_at, rel_at, ent, rel)


def _neg_weights(batch: TrainingBatch) -> np.ndarray:
    return np.repeat(batch.pos_weights, batch.eta)


def _scatter_score_grads(
    model: ModelParams, grads: Gradients, batch: TrainingBatch,
    coeff_pos: np.ndarray, coeff_neg: np.ndarray, arena: Arena,
) -> None:
    """Accumulate coeff_t * (d f_t / d parameter) for each triple t of the
    batch, with one scatter per matrix. Only entity slots with a nonzero
    coefficient and a trained row are computed: a frozen row or a triple
    whose hinge is slack adds nothing. Relation terms are computed for the
    live triples, and not at all when no relation row is trained.

    With f = Re(s * p * conj(o)), the complex gradients are

        d/do = s * p,   d/ds = conj(p) * o,   d/dp = conj(s) * o,

    each scaled by the real coefficient through its float view. Each buffer
    cell adds its terms in a fixed order: subjects of positives, objects of
    positives, subjects of corruptions, objects of corruptions. Scattering
    the four parts one after another with ``np.add.at`` gives the same sums
    bit for bit.
    """
    pos, neg = batch.pos, batch.neg
    b, n = len(pos), len(neg)
    coeff = np.concatenate([coeff_pos, coeff_pos, coeff_neg, coeff_neg])  # per entity slot
    live = coeff != 0.0

    # kept entity slots, in the order of TrainingBatch.entity_slots; column
    # 0 holds the entity on the other side of each one's triple, column 1
    # its relation
    keep = live & (grads.ent_at < len(grads.ent_rows))
    kept = np.concatenate([pos[:, ::-1], pos, neg[:, ::-1], neg]).compress(keep, axis=0)
    size = len(kept)
    terms = np.take(model.rel, kept[:, 1], axis=0, out=arena.first[:size], mode="wrap")
    e = np.take(model.ent, kept[:, 0], axis=0, out=arena.second[:size], mode="wrap")
    c1, c2, c3, _ = np.add.reduceat(keep, (0, b, 2 * b, 2 * b + n)).tolist()
    for part in (slice(0, c1), slice(c1 + c2, c1 + c2 + c3)):  # subjects: conj(p) * o
        np.conjugate(terms[part], out=terms[part])
        np.multiply(terms[part], e[part], out=terms[part])
    for part in (slice(c1, c1 + c2), slice(c1 + c2 + c3, size)):  # objects: s * p
        np.multiply(e[part], terms[part], out=terms[part])
    values = terms.view(np.float64)
    values *= coeff[keep][:, None]
    g = grads.ent.view(np.float64)
    g += scatter_rows(grads.ent_at[keep], values, len(grads.ent_rows), arena.cells[:size])

    if len(grads.rel_rows) == 0:  # fold-in with every relation frozen
        return
    # relation slots are the triples, positives first: the middle of the
    # entity slots; a frozen relation row falls in scatter_rows' overflow row
    coeff, live = coeff[b:2 * b + n], live[b:2 * b + n]
    size = np.count_nonzero(live)
    terms = arena.first[:size]
    if len(e) == 2 * size:  # every live entity slot is trained, so e holds
        # o and s of each live positive, then of each live corruption
        for out, s, o in ((terms[:c1], e[c1:2 * c1], e[:c1]),
                          (terms[c1:], e[2 * c1 + c3:], e[2 * c1:2 * c1 + c3])):
            np.conjugate(s, out=out)
            out *= o
    else:
        kept = np.concatenate([pos, neg]).compress(live, axis=0)
        np.take(model.ent, kept[:, 0], axis=0, out=terms, mode="wrap")
        np.conjugate(terms, out=terms)
        terms *= np.take(model.ent, kept[:, 2], axis=0, out=arena.second[:size], mode="wrap")
    values = terms.view(np.float64)
    values *= coeff[live][:, None]
    g = grads.rel.view(np.float64)
    g += scatter_rows(grads.rel_at[live], values, len(grads.rel_rows), arena.cells[:size])


def hinge_part(
    model: ModelParams, batch: TrainingBatch, margin: float, grads: Gradients | None = None,
    arena: Arena | None = None,
) -> float:
    """Hinge loss of the batch; with ``grads``, its gradient is accumulated
    there, with ``arena`` (or a fresh one) as scratch.

    The hinge subgradient at an exactly-zero violation is taken as zero, so
    only strictly positive violations propagate.
    """
    from .model import score_triples  # looked up per call, so wrappers on it apply

    f_pos = score_triples(model, batch.pos)
    f_neg = score_triples(model, batch.neg)
    w_neg = _neg_weights(batch)
    g_pos = focuse_modulate(f_pos, batch.pos_weights, batch.beta, True)
    g_neg = focuse_modulate(f_neg, w_neg, batch.beta, False)
    b, eta = batch.pos.shape[0], batch.eta
    viol = margin + g_neg.reshape(b, eta) - g_pos[:, None]
    active = viol > 0.0
    loss = float(viol[active].sum()) if active.any() else 0.0
    if grads is None:
        return loss

    w_pos = np.asarray(batch.pos_weights, dtype=np.float64)
    alpha_pos = batch.beta + (1.0 - batch.beta) * w_pos
    alpha_neg = batch.beta + (1.0 - batch.beta) * (1.0 - w_neg)
    # dL/df_pos = -alpha_pos * sigmoid(f_pos) * (#active pairs of that positive)
    coeff_pos = -alpha_pos * sigmoid(f_pos) * active.sum(axis=1)
    # dL/df_neg = alpha_neg * sigmoid(f_neg) for each active pair
    coeff_neg = alpha_neg * sigmoid(f_neg) * active.reshape(-1)
    if arena is None:
        arena = Arena(len(batch.pos) + len(batch.neg), model.k, 0, 0)
    _scatter_score_grads(model, grads, batch, coeff_pos, coeff_neg, arena)
    return loss


def int_power(a: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """a ** n for an integer n >= 0 by repeated squaring, into ``out`` (a
    new array when None), which may not be ``a`` itself.

    A few multiplications cost several times less than float ``pow``."""
    if n < 2:
        return np.power(a, n, out=out)  # exact: 1 and a
    if n < 4:
        out = np.multiply(a, a, out=out)
    else:
        out = int_power(a, n // 2, out)
        out *= out
    if n & 1:
        out *= a
    return out


def regularizer_part(
    model: ModelParams,
    ent_rows: np.ndarray,
    rel_rows: np.ndarray,
    p: int,
    lam: float,
    grads: Gradients | None = None,
    arena: Arena | None = None,
) -> float:
    """Penalty lam * sum |x|^p over the real and imaginary parts of the
    given rows; with ``grads``, which must cover exactly these rows,
    d/dx = lam * p * |x|^(p-1) * sign(x) is accumulated there (zero at
    x = 0, also for p = 1). Its scratch is ``arena``, or a fresh one."""
    if lam == 0.0:
        return 0.0
    if arena is None:
        arena = Arena(0, model.k, len(ent_rows), len(rel_rows))
    x_buf, a_buf, slope_buf = arena.rows[:3]
    loss = 0.0
    targets = (None, None) if grads is None else (grads.ent, grads.rel)
    for param, rows, g in zip((model.ent, model.rel), (ent_rows, rel_rows), targets):
        size = len(rows)
        x = np.take(param.view(np.float64), rows, axis=0, out=x_buf[:size], mode="wrap")
        a = np.abs(x, out=a_buf[:size])
        slope = int_power(a, p - 1, slope_buf[:size])  # |x|^(p-1)
        loss += float(np.dot(slope.ravel(), a.ravel()))  # sum of |x|^p
        if g is not None:
            if p == 1:
                np.sign(x, out=slope)
            else:
                np.copysign(slope, x, out=slope)
            slope *= lam * p
            g = g.view(np.float64)
            g += slope
    return lam * loss
