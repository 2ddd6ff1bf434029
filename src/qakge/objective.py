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
loss and write its gradient: the hinge's one ``np.bincount`` scatter is the
gradient, and the penalty adds its slope to it. ``training.loss_and_grad``
adds the two; it is the one entry point that training, validation and the
tests share, and validation discards the gradient. A step works on rows of
the model's parameter block, entity and relation rows alike. Only
:func:`prepare_steps` makes a :class:`Step`: it checks a chunk of
consecutive batches once, their shapes, weights, beta and ids, and finds
every step's slots and trained rows with one range check
(:func:`block_slots`) and one row mask, a row of the block per step. A
chunk holds as many steps as fit in ``CHUNK_SLOTS`` slots
(:func:`chunk_steps`), so each of its arrays holds at most 64 KiB, unless
one step alone needs more, whatever the length of the run or the size of
the graph. The step then gathers the row of every slot once, and
scatters, penalizes and updates the trained rows in one pass each. Its
temporaries, and those of the optimizer step, live in the :class:`Arena`
a caller passes.
"""
from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .model import ModelParams
from .triples import Vocabulary


def softplus(x):
    """log(1 + e^x), overflow-safe for any float64 input."""
    x = np.asarray(x, dtype=np.float64)
    return _softplus(x, np.exp(-np.abs(x)))


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    return _sigmoid(x, np.exp(-np.abs(x)))


def _softplus(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """softplus(x) given z = exp(-|x|)."""
    return np.maximum(x, 0.0) + np.log1p(z)


def _sigmoid(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sigmoid(x) given z = exp(-|x|): 1 / (1 + z) where x >= 0, else
    z / (1 + z), with one division of the same operands."""
    return np.where(x >= 0.0, 1.0, z) / (1.0 + z)


# slots one chunk of training steps prepares at once (64 KiB of int64)
CHUNK_SLOTS = 1 << 13


def chunk_steps(slots: int, rows: int) -> int:
    """Steps one chunk holds when each step names up to ``slots`` slots of
    a block of ``rows`` rows: each takes its slots or, when more, its row of
    the chunk's row mask out of ``CHUNK_SLOTS``; at least one step."""
    return max(1, CHUNK_SLOTS // max(slots, rows))


def block_slots(steps: Sequence[tuple[np.ndarray, np.ndarray]], vocab: Vocabulary) -> np.ndarray:
    """Block row of every slot of consecutive steps, each given as its
    positives and corruptions, T = B * (1 + eta) triples: step after step,
    its T subjects, then T relations (relation p is block row
    ``n_entities + p``), then T objects, positives first. For the steps of
    one chunk, the result and its by-kind copy hold at most
    ``CHUNK_SLOTS`` ids each, or one step's when that is more.

    An id outside the vocabulary raises IndexError. It is checked here, once
    for all the steps, because a step gathers block rows with
    ``np.take(mode="wrap")``: an entity id of ``n_entities`` would read the
    first relation row, and a negative id would wrap.
    """
    # C order: the per-kind reductions of a transposed view would be strided
    kinds = np.concatenate([part for pair in steps for part in pair]).T.copy()
    n, m = vocab.n_entities, vocab.n_relations
    top_s, top_p, top_o = np.maximum.reduce(kinds, axis=1, initial=-1).tolist()
    if np.minimum.reduce(kinds, None, initial=0) < 0 or top_s >= n or top_p >= m or top_o >= n:
        for name, ids, size in zip(("subject", "relation", "object"), kinds, (n, m, n)):
            bad = ids[(ids < 0) | (ids >= size)]
            if bad.size:
                raise IndexError(f"{name} id {bad[0]} is out of range for {size} rows")
    kinds[1] += n
    slots = np.empty(kinds.size, dtype=np.int64)
    start = 0
    for pos, neg in steps:
        stop = start + len(pos) + len(neg)
        slots[3 * start:3 * stop].reshape(3, stop - start)[...] = kinds[:, start:stop]
        start = stop
    return slots


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
    width = table.shape[1]
    if not at.size:  # np.bincount would count nothing as int64
        return np.zeros((n_rows, width))
    limit = min(n_rows, len(table))
    if np.minimum.reduce(at) < 0 or np.maximum.reduce(at) >= limit:
        raise IndexError(f"scatter target rows span [{at.min()}, {at.max()}], outside [0, {limit})")
    cells = table.take(at, 0, cells, "wrap")
    summed = np.bincount(cells.ravel(), weights=values.ravel(), minlength=n_rows * width)
    return summed.reshape(n_rows, width)


class Arena:
    """Scratch memory for the steps of one ``train`` call, or of one
    ``validation_loss``.

    It is sized once, for batches of up to ``triples`` triples of width
    ``k`` that train up to ``rows`` block rows, and backed by one anonymous
    ``mmap``, outside the malloc heap. glibc trims a step's large
    temporaries off the top of the heap after every batch and maps them
    again, hundreds of page faults a batch; the arena's pages are touched
    once, on first use, and unmapped when the last view of it dies.

    ``table`` holds the cell table of ``scatter_rows`` for ``rows`` rows of
    2k floats, written once. A step's gradient is not here: it is the
    ``np.bincount`` output of the hinge's scatter. The rest is one region
    that the hinge, the penalty and Adam carve up in turn, since none of
    their temporaries outlives its phase:

    - hinge: ``gather``, the subject, relation and object rows of every
      triple, and later the kept gradient terms; ``terms``, the subject,
      object and relation terms of every triple, whose memory then holds
      ``cells``, the int64 cell indices of the kept terms for
      ``scatter_rows``;
    - penalty and Adam: ``rows``, four (rows, 2k) float matrices, stacked
      as one (4, rows, 2k) array so that one slice cuts all four to a
      step's rows.

    It also keeps the scatter order of each batch size the hinge has seen
    (:meth:`_scatter_order`).
    """

    def __init__(self, triples: int, k: int, rows: int):
        slots = 3 * triples
        row = 16 * k  # bytes of a complex row, its float view or its int64 cells
        size = (rows + max(2 * slots, 4 * rows)) * row
        memory = np.frombuffer(mmap.mmap(-1, max(size, 1)), dtype=np.uint8)

        def carve(start: int, n: int, dtype, width: int) -> np.ndarray:
            return memory[start * row:(start + n) * row].view(dtype).reshape(n, width)

        self.table = carve(0, rows, np.int64, 2 * k)
        self.table[:] = np.arange(2 * k)
        self.table += np.arange(0, rows * 2 * k, 2 * k)[:, None]
        scratch = rows
        self.gather = carve(scratch, slots, np.complex128, k)
        self.terms = carve(scratch + slots, slots, np.complex128, k)
        self.cells = carve(scratch + slots, slots, np.int64, 2 * k)
        self.rows = carve(scratch, 4 * rows, np.float64, 2 * k).reshape(4, rows, 2 * k)
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
    def for_steps(cls, positives: int, eta: int, k: int, ent_rows: int, rel_rows: int) -> "Arena":
        """An arena for steps of up to ``positives`` positives and their
        ``eta`` corruptions each, over ``ent_rows`` entity and ``rel_rows``
        relation rows that may be trained; every triple names two entity
        rows and one relation row."""
        triples = positives * (1 + eta)
        return cls(triples, k, min(ent_rows, 2 * triples) + min(rel_rows, triples))


@dataclass(slots=True)
class Step:
    """One training step, as :func:`prepare_steps` checked and prepared it.

    ``pos`` holds the positives, ``pos_weights`` their edge weights, ``neg``
    their ``eta`` corruptions each, grouped by positive, and ``beta`` the
    modulation strength. ``slots`` is :func:`block_slots` of the batch, and
    ``rows`` the block rows it trains, ascending, the first ``n_ent`` of
    them entity rows. ``at`` is the row of ``values`` of each slot, and
    ``trained`` marks the slots whose row is trained (None when all are;
    ``at`` means nothing at the others). These four are views of the
    arrays of the chunk :func:`prepare_steps` prepared.

    ``values`` is None until :func:`hinge_part` stores its scatter's
    ``np.bincount`` sum there; :func:`regularizer_part` adds its slope to
    it. Row i is the gradient of block row ``rows[i]``: an entry holds
    d/d(real part) plus 1j * d/d(imaginary part) of its parameter.
    """

    pos: np.ndarray  # (B, 3) int64
    pos_weights: np.ndarray  # (B,)
    neg: np.ndarray  # (B * eta, 3) int64
    eta: int
    beta: float
    slots: np.ndarray
    rows: np.ndarray
    n_ent: int
    at: np.ndarray
    trained: np.ndarray | None
    values: np.ndarray | None = None  # (len(rows), k) complex128

    @property
    def ent_rows(self) -> np.ndarray:
        return self.rows[: self.n_ent]

    @property
    def rel_rows(self) -> np.ndarray:
        """Block rows of the trained relations."""
        return self.rows[self.n_ent:]


def prepare_steps(
    batches: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, float]], eta: int,
    model: ModelParams, trainable: np.ndarray | None = None,
) -> list[Step]:
    """The consecutive ``batches``, each its positives, their weights, their
    ``eta`` corruptions each and beta, as steps of ``model`` that train the
    block rows their slots name or, given the block mask ``trainable``,
    only those it marks.

    The batches are checked once, together: mismatched shapes, or a weight
    or beta outside [0, 1] (NaN included), raise InputError, and an id
    outside the vocabulary IndexError (:func:`block_slots`). One row mask,
    a row of the block per step, finds every step's rows, and each step's
    arrays are views of the chunk's; :func:`chunk_steps` bounds how many
    steps that memory holds.
    """
    sizes = []
    for pos, w, neg, beta in batches:
        if len(neg) != len(pos) * eta:
            raise InputError(f"batch of {len(pos)} positives needs {len(pos) * eta} "
                             f"corruptions, got {len(neg)}")
        if len(w) != len(pos):
            raise InputError("one weight per positive required")
        if not (0.0 <= beta <= 1.0):
            raise InputError(f"beta must lie in [0, 1], got {beta}")
        sizes.append(3 * (len(pos) + len(neg)))
    weights = np.concatenate([w for _, w, _, _ in batches])
    if not (np.minimum.reduce(weights, initial=0.0) >= 0.0
            and np.maximum.reduce(weights, initial=1.0) <= 1.0):
        raise InputError("edge weights must lie in [0, 1]")
    slots = block_slots([(pos, neg) for pos, _, neg, _ in batches], model.vocab)
    width = len(model.block)
    offsets = np.arange(0, len(batches) * width, width)  # each step's first mask cell
    cell = offsets.repeat(sizes)
    cell += slots  # the mask cell of every slot
    touched = np.zeros((len(batches), width), dtype=bool)
    mask = touched.reshape(-1)
    mask[cell] = True
    if trainable is not None:
        touched &= trainable
    rows = mask.nonzero()[0]  # ascending, so step by step
    ends = rows.searchsorted(offsets + width)
    firsts = np.concatenate(([0], ends[:-1]))
    ent_ends = rows.searchsorted(offsets + model.vocab.n_entities).tolist()
    counts = ends - firsts
    # the index of each trained cell among its step's rows
    index = np.zeros(len(mask), dtype=np.intp)
    index[rows] = np.arange(len(rows)) - firsts.repeat(counts)
    at = index.take(cell)
    rows -= offsets.repeat(counts)
    trained = None if trainable is None else mask.take(cell)
    found, start = [], 0
    for (pos, w, neg, beta), size, first, end, ent_end in zip(
            batches, sizes, firsts.tolist(), ends.tolist(), ent_ends):
        cut = slice(start, start + size)
        found.append(Step(pos, w, neg, eta, beta, slots[cut], rows[first:end], ent_end - first,
                          at[cut], None if trained is None else trained[cut]))
        start += size
    return found


def _scatter_score_grads(step: Step, coeff: np.ndarray, b: int, arena: Arena) -> None:
    """Store in ``step.values`` the sum of coeff_t * (d f_t / d parameter)
    over the triples t of the batch whose rows ``arena.gather`` holds, made
    by one scatter.

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
    if step.n_ent < len(step.rows):  # d/dp = conj(s) * o
        np.conjugate(s, out=terms[t:2 * t])
        terms[t:2 * t] *= o
    order, triple = arena._scatter_order(b, t)
    slot_coeff = coeff.take(triple)
    keep = slot_coeff != 0.0
    if step.trained is not None:
        keep &= step.trained.take(order)
    kept = order[keep]
    # the terms have been read: the gather buffer takes the kept ones, and
    # the terms' memory their cells
    values = terms.take(kept, 0, arena.gather[:len(kept)], "wrap").view(np.float64)
    values *= slot_coeff[keep][:, None]
    summed = scatter_rows(step.at.take(kept), values, len(step.rows), arena.table,
                          arena.cells[:len(kept)])
    step.values = summed.view(np.complex128)


def hinge_part(model: ModelParams, step: Step, margin: float, arena: Arena) -> float:
    """Hinge loss of the step's batch, with ``arena`` as scratch; its
    gradient is stored in ``step.values``.

    Every subject, relation and object row is gathered once. With
    f = Re(s * p * conj(o)), the complex gradients are

        d/do = s * p,   d/ds = conj(p) * o,   d/dp = conj(s) * o,

    and s * p is also the factor the score takes against o. The hinge
    subgradient at an exactly-zero violation is taken as zero, so only
    strictly positive violations propagate.
    """
    b, t = len(step.pos), len(step.slots) // 3
    gathered = model.block.take(step.slots, 0, arena.gather[:3 * t], "wrap")
    s, p, o = gathered[:t], gathered[t:2 * t], gathered[2 * t:]
    sp = np.multiply(s, p, out=arena.terms[2 * t:3 * t])
    # Re(a * conj(b)) summed over a row is the dot product of the float rows
    f = np.einsum("ij,ij->i", sp.view(np.float64), o.view(np.float64))
    # the FocusE factor of every triple, beta + (1 - beta) * influence: the
    # influence of a positive is its weight w, that of each corruption 1 - w
    w, beta, eta = step.pos_weights, step.beta, step.eta
    alpha = beta + (1.0 - beta) * np.concatenate((w, (1.0 - w).repeat(eta)))
    z = np.exp(-np.abs(f))  # shared by softplus and, for the gradient, sigmoid
    g = alpha * _softplus(f, z)
    viol = margin + g[b:].reshape(b, eta) - g[:b, None]
    active = viol > 0.0
    loss = float(np.add.reduce(viol[active]))  # 0.0 when every pair is slack
    # dL/df = -alpha * sigmoid(f) * (#active pairs) for a positive, and
    # alpha * sigmoid(f) for each active pair's corruption
    coeff = alpha * _sigmoid(f, z)
    coeff *= np.concatenate((-np.add.reduce(active, 1), active.reshape(-1)))
    _scatter_score_grads(step, coeff, b, arena)
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
    arena: Arena,
    grad: np.ndarray,
) -> float:
    """Penalty lam * sum |x|^p over the real and imaginary parts of the
    given block rows, entity rows and then relation rows (relation r is
    block row ``n_entities + r``), with ``arena`` as scratch. Its slope,
    d/dx = lam * p * |x|^(p-1) * sign(x) (zero at x = 0, also for p = 1),
    is added to ``grad``, the complex gradient of these rows in this order,
    such as :attr:`Step.values`."""
    if lam == 0.0:
        return 0.0
    split = len(ent_rows)
    x, a, slope = arena.rows[:3, :split + len(rel_rows)]
    block = model.block.view(np.float64)
    block.take(ent_rows, 0, x[:split], "wrap")
    block.take(rel_rows, 0, x[split:], "wrap")
    np.abs(x, out=a)
    int_power(a, p - 1, slope)  # |x|^(p-1)
    # sum of |x|^p, over the entity rows and then the relation rows
    loss = float(np.dot(slope[:split].ravel(), a[:split].ravel()))
    loss += float(np.dot(slope[split:].ravel(), a[split:].ravel()))
    if p == 1:
        np.sign(x, out=slope)
    else:
        np.copysign(slope, x, out=slope)
    slope *= lam * p
    g = grad.view(np.float64)
    g += slope
    return lam * loss
