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
training, validation and the tests share. A step works on rows of the
model's parameter block, entity and relation rows alike: per batch it
checks the ids once (:func:`block_slots`), marks the rows they name in one
mask, gathers the row of every slot once, and scatters, penalizes and
updates the trained rows in one pass each. Its temporaries, and those of
the optimizer step, live in the :class:`Arena` a caller passes; a caller
that passes none gets a fresh one.
"""
from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import ModelParams
from .triples import Vocabulary


def softplus(x):
    """log(1 + e^x), overflow-safe for any float64 input."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def focuse_alpha(weights, beta, is_positive: bool):
    """FocusE factor alpha of the raw scores of positives with edge weights
    ``weights`` (is_positive), or of the corruptions of such positives. The
    modulated score is alpha * softplus(raw). Accepts scalars or arrays."""
    influence = weights if is_positive else 1.0 - weights
    return beta + (1.0 - beta) * influence


@dataclass(frozen=True)
class TrainingBatch:
    """One optimization step's worth of data: positives, their weights,
    pre-drawn corruptions (eta per positive, grouped), and the current beta.
    Weights and beta must lie in [0, 1]."""

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
        if self.pos_weights.min(initial=0.0) < 0.0 or self.pos_weights.max(initial=1.0) > 1.0:
            raise InputError("edge weights must lie in [0, 1]")
        if not (0.0 <= self.beta <= 1.0):
            raise InputError(f"beta must lie in [0, 1], got {self.beta}")


def block_slots(batch: TrainingBatch, vocab: Vocabulary) -> np.ndarray:
    """Block row of every slot of the batch's T = B * (1 + eta) triples,
    positives first: T subjects, then T relations (relation p is block row
    ``n_entities + p``), then T objects.

    An id outside the vocabulary raises IndexError. It is checked here, once
    per batch, because the step gathers block rows with
    ``np.take(mode="wrap")``: an entity id of ``n_entities`` would read the
    first relation row, and a negative id would wrap.
    """
    slots = np.concatenate((batch.pos, batch.neg)).T.reshape(-1)  # a copy, by kind
    kinds = slots.reshape(3, -1)
    sizes = (vocab.n_entities, vocab.n_relations, vocab.n_entities)
    if kinds.min(initial=0) < 0 or (kinds.max(axis=1, initial=-1) >= sizes).any():
        for name, ids, size in zip(("subject", "relation", "object"), kinds, sizes):
            bad = ids[(ids < 0) | (ids >= size)]
            if bad.size:
                raise IndexError(f"{name} id {bad[0]} is out of range for {size} rows")
    kinds[1] += vocab.n_entities
    return slots


def touched_rows(slots: np.ndarray, model: ModelParams, trainable: np.ndarray | None = None):
    """Mask of the block rows that ``slots`` name and ``trainable`` marks
    (all of them for None), those rows ascending, and how many of them are
    entity rows."""
    touched = np.zeros(len(model.block), dtype=bool)
    touched[slots] = True
    if trainable is not None:
        touched &= trainable
    rows = np.flatnonzero(touched)
    return touched, rows, int(np.searchsorted(rows, model.vocab.n_entities))


def scatter_rows(
    at: np.ndarray, values: np.ndarray, n_rows: int, table: np.ndarray,
    cells: np.ndarray | None = None,
) -> np.ndarray:
    """Sum of the rows of ``values`` grouped by target row ``at``, each in
    [0, n_rows), as an (n_rows, k) array. Row i of ``table`` holds the flat
    cell indices ``i * k + arange(k)``, for at least ``n_rows`` rows.
    ``cells``, an int64 array of the shape of ``values``, receives the cell
    index of every value (a new array when None).

    The cells are one ``take`` of table rows, and one flat ``np.bincount``
    adds, in each cell, the values in the order they come, as
    ``np.add.at`` would, at a fraction of its cost. A target row outside
    [0, n_rows) raises IndexError, checked here because the take would
    silently wrap it.
    """
    limit = min(n_rows, len(table))
    if at.size and (at.min() < 0 or at.max() >= limit):
        raise IndexError(f"scatter target rows span [{at.min()}, {at.max()}], outside [0, {limit})")
    cells = np.take(table, at, axis=0, out=cells, mode="wrap")
    summed = np.bincount(cells.ravel(), weights=values.ravel(), minlength=n_rows * table.shape[1])
    return summed.reshape(n_rows, table.shape[1])


class Arena:
    """Scratch memory for the steps of one ``train`` call, or the batches of
    one ``validation_loss``.

    It is sized once, for batches of up to ``triples`` triples of width
    ``k`` that train up to ``rows`` block rows, and backed by one anonymous
    ``mmap``, outside the malloc heap. glibc trims a step's large
    temporaries off the top of the heap after every batch and maps them
    again, hundreds of page faults a batch; the arena's pages are touched
    once, on first use, and unmapped when the last view of it dies.

    ``grads`` holds a step's gradients and ``table`` the cell table of
    ``scatter_rows`` for ``rows`` rows of 2k floats, written once. The rest
    is one region that the hinge, the penalty and Adam carve up in turn,
    since none of their temporaries outlives its phase:

    - hinge: ``gather``, the subject, relation and object rows of every
      triple, and later the kept gradient terms; ``terms``, the subject,
      object and relation terms of every triple, whose memory then holds
      ``cells``, the int64 cell indices of the kept terms for
      ``scatter_rows``;
    - penalty and Adam: ``rows``, four (rows, 2k) float matrices.

    It also keeps the scatter order of each batch size the hinge has seen
    (:meth:`_scatter_order`).
    """

    def __init__(self, triples: int, k: int, rows: int):
        slots = 3 * triples
        row = 16 * k  # bytes of a complex row, its float view or its int64 cells
        size = (2 * rows + max(2 * slots, 4 * rows)) * row
        memory = np.frombuffer(mmap.mmap(-1, max(size, 1)), dtype=np.uint8)

        def carve(start: int, n: int, dtype, width: int) -> np.ndarray:
            return memory[start * row:(start + n) * row].view(dtype).reshape(n, width)

        self.grads = carve(0, rows, np.complex128, k)
        self.table = carve(rows, rows, np.int64, 2 * k)
        self.table[:] = np.arange(2 * k)
        self.table += np.arange(0, rows * 2 * k, 2 * k)[:, None]
        scratch = 2 * rows
        self.gather = carve(scratch, slots, np.complex128, k)
        self.terms = carve(scratch + slots, slots, np.complex128, k)
        self.cells = carve(scratch + slots, slots, np.int64, 2 * k)
        self.rows = [carve(scratch + i * rows, rows, np.float64, 2 * k) for i in range(4)]
        self._orders: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def _scatter_order(self, b: int, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Index into :func:`block_slots` of ``t`` triples, the first ``b``
        of them positives, of every slot in the order its term is
        scattered, and the triple of each such slot.

        The order is subjects of positives, objects of positives, subjects
        of corruptions, objects of corruptions, then the relations. Each
        buffer cell adds its terms in this order, as ``np.add.at`` over the
        four parts one after another would, so the sums match it bit for
        bit."""
        if (b, t) not in self._orders:
            slot = np.arange(3 * t)
            order = np.concatenate((slot[:b], slot[2 * t:2 * t + b], slot[b:t], slot[2 * t + b:],
                                    slot[t:2 * t]))
            self._orders[b, t] = order, order % t
        return self._orders[b, t]

    @classmethod
    def for_batches(cls, positives: int, eta: int, k: int, ent_rows: int, rel_rows: int) -> "Arena":
        """An arena for batches of up to ``positives`` positives and their
        ``eta`` corruptions each, over ``ent_rows`` entity and ``rel_rows``
        relation rows that may be trained; every triple names two entity
        rows and one relation row."""
        triples = positives * (1 + eta)
        return cls(triples, k, min(ent_rows, 2 * triples) + min(rel_rows, triples))


@dataclass
class Gradients:
    """Gradients over the block rows one batch trains, in a compact complex
    buffer carved from an :class:`Arena`.

    Row i of ``values`` belongs to block row ``rows[i]``: the first
    ``n_ent`` are entity rows, the rest relation rows. An entry holds
    d/d(real part) plus 1j * d/d(imaginary part) of its parameter.
    ``slots`` is :func:`block_slots` of the batch, ``at`` the buffer row of
    each slot, and ``trained`` marks the slots whose row is trained (None
    when all are); ``at`` means nothing at a slot that is not.
    """

    slots: np.ndarray
    rows: np.ndarray
    n_ent: int
    at: np.ndarray
    trained: np.ndarray | None
    values: np.ndarray  # (len(rows), k) complex128

    @property
    def ent_rows(self) -> np.ndarray:
        return self.rows[: self.n_ent]

    @property
    def rel_rows(self) -> np.ndarray:
        """Block rows of the trained relations."""
        return self.rows[self.n_ent:]

    @classmethod
    def for_batch(
        cls, batch: TrainingBatch, model: ModelParams,
        trainable: np.ndarray | None = None, arena: Arena | None = None,
    ) -> "Gradients":
        """Zero gradients over the block rows ``batch`` touches; with
        ``trainable``, a mask over the block, over only those of them it
        marks. The buffer is ``arena.grads``, which must fit it. An id
        outside the model's vocabulary raises IndexError."""
        slots = block_slots(batch, model.vocab)
        touched, rows, n_ent = touched_rows(slots, model, trainable)
        at = np.cumsum(touched)[slots] - 1
        trained = None if trainable is None else touched[slots]
        if arena is None:
            arena = Arena(0, model.k, len(rows))
        values = arena.grads[: len(rows)]
        values.fill(0.0)
        return cls(slots, rows, n_ent, at, trained, values)


def _scatter_score_grads(grads: Gradients, coeff: np.ndarray, b: int, arena: Arena) -> None:
    """Accumulate coeff_t * (d f_t / d parameter) for each triple t of the
    batch whose rows ``arena.gather`` holds, with one scatter.

    ``arena.terms`` holds the term of every slot in the order of
    :func:`block_slots`. Its object terms, s * p, are there already; the
    subject terms are written here, and the relation terms only when a
    relation row is trained. A slot whose coefficient is zero (its hinge is
    slack) or whose row is frozen adds nothing and is dropped before the
    scaling and the scatter.
    """
    t = len(coeff)
    s, p, o = arena.gather[:t], arena.gather[t:2 * t], arena.gather[2 * t:3 * t]
    terms = arena.terms[:3 * t]
    np.conjugate(p, out=terms[:t])  # d/ds = conj(p) * o
    terms[:t] *= o
    if grads.n_ent < len(grads.rows):  # d/dp = conj(s) * o
        np.conjugate(s, out=terms[t:2 * t])
        terms[t:2 * t] *= o
    order, triple = arena._scatter_order(b, t)
    slot_coeff = coeff[triple]
    keep = slot_coeff != 0.0
    if grads.trained is not None:
        keep &= grads.trained[order]
    kept = order[keep]
    # the terms have been read: the gather buffer takes the kept ones, and
    # the terms' memory their cells
    values = np.take(terms, kept, axis=0, out=arena.gather[:len(kept)], mode="wrap").view(np.float64)
    values *= slot_coeff[keep][:, None]
    g = grads.values.view(np.float64)
    g += scatter_rows(grads.at[kept], values, len(grads.rows), arena.table, arena.cells[:len(kept)])


def hinge_part(
    model: ModelParams, batch: TrainingBatch, margin: float, grads: Gradients | None = None,
    arena: Arena | None = None, slots: np.ndarray | None = None,
) -> float:
    """Hinge loss of the batch; with ``grads``, its gradient is accumulated
    there, with ``arena`` (or a fresh one) as scratch. ``slots`` is
    :func:`block_slots` of the batch, built here when None and taken from
    ``grads`` when it is given.

    Every subject, relation and object row is gathered once. With
    f = Re(s * p * conj(o)), the complex gradients are

        d/do = s * p,   d/ds = conj(p) * o,   d/dp = conj(s) * o,

    and s * p is also the factor the score takes against o. The hinge
    subgradient at an exactly-zero violation is taken as zero, so only
    strictly positive violations propagate.
    """
    if grads is not None:
        slots = grads.slots
    elif slots is None:
        slots = block_slots(batch, model.vocab)
    b, t = len(batch.pos), len(slots) // 3
    if arena is None:
        arena = Arena(t, model.k, 0 if grads is None else len(grads.rows))
    gathered = np.take(model.block, slots, axis=0, out=arena.gather[:3 * t], mode="wrap")
    s, p, o = gathered[:t], gathered[t:2 * t], gathered[2 * t:]
    sp = np.multiply(s, p, out=arena.terms[2 * t:3 * t])
    # Re(a * conj(b)) summed over a row is the dot product of the float rows
    f = np.einsum("ij,ij->i", sp.view(np.float64), o.view(np.float64))
    w = batch.pos_weights
    alpha = np.concatenate((focuse_alpha(w, batch.beta, True),
                            np.repeat(focuse_alpha(w, batch.beta, False), batch.eta)))
    g = alpha * softplus(f)
    viol = margin + g[b:].reshape(b, batch.eta) - g[:b, None]
    active = viol > 0.0
    loss = float(viol[active].sum()) if active.any() else 0.0
    if grads is None:
        return loss

    # dL/df = -alpha * sigmoid(f) * (#active pairs) for a positive, and
    # alpha * sigmoid(f) for each active pair's corruption
    coeff = alpha * sigmoid(f)
    coeff *= np.concatenate((-active.sum(axis=1), active.reshape(-1)))
    _scatter_score_grads(grads, coeff, b, arena)
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
    given block rows, entity rows and then relation rows (relation r is
    block row ``n_entities + r``); with ``grads``, which must cover exactly
    these rows, d/dx = lam * p * |x|^(p-1) * sign(x) is accumulated there
    (zero at x = 0, also for p = 1). Its scratch is ``arena``, or a fresh
    one."""
    if lam == 0.0:
        return 0.0
    rows = np.concatenate((ent_rows, rel_rows))
    size, split = len(rows), len(ent_rows)
    if arena is None:
        arena = Arena(0, model.k, size)
    x_buf, a_buf, slope_buf = arena.rows[:3]
    x = np.take(model.block.view(np.float64), rows, axis=0, out=x_buf[:size], mode="wrap")
    a = np.abs(x, out=a_buf[:size])
    slope = int_power(a, p - 1, slope_buf[:size])  # |x|^(p-1)
    # sum of |x|^p, over the entity rows and then the relation rows
    loss = float(np.dot(slope[:split].ravel(), a[:split].ravel()))
    loss += float(np.dot(slope[split:].ravel(), a[split:].ravel()))
    if grads is not None:
        if p == 1:
            np.sign(x, out=slope)
        else:
            np.copysign(slope, x, out=slope)
        slope *= lam * p
        g = grads.values.view(np.float64)
        g += slope
    return lam * loss
