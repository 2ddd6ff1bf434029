"""Training loop: hyperparameters, beta schedule, Adam, epoch iteration.

All randomness (shuffling, corruption draws) flows from one seeded generator
owned by :func:`train`, so a (graph, hyperparams) pair fully determines the
final parameters bit for bit. :func:`train` draws and prepares a chunk of
consecutive steps before it runs them (``objective.CHUNK_SLOTS``); the
draws come in the same order as one step at a time, so the chunk size
changes no number.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .contexts import check_integer, check_number
from .errors import InputError, TrainingDiverged
from .model import ModelParams, init_model, score_triples
from .objective import (
    Arena, Gradients, TrainingBatch, chunk_steps, hinge_part, regularizer_part,
)
from .sampling import sample_corruptions
from .triples import TripleGraph

logger = logging.getLogger(__name__)

# Adam moment decays and denominator floor (Kingma & Ba, ICLR 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class Hyperparams:
    """Model and optimization settings.

    ``beta_decay_epochs=None`` means the modulation anneal spans the whole
    run; ``focuse=False`` pins beta at 1 so edge weights are ignored
    entirely.
    """

    k: int = 50
    eta: int = 5
    batch_size: int = 64
    learning_rate: float = 1e-5
    margin: float = 0.5
    epochs: int = 5000
    reg_p: int = 4
    reg_lambda: float = 1e-4
    beta_decay_epochs: int | None = None
    focuse: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("k", "eta", "batch_size", "epochs", "reg_p"):
            check_integer(name, getattr(self, name), 1)
        check_integer("seed", self.seed, 0)
        if self.beta_decay_epochs is not None:
            check_integer("beta_decay_epochs", self.beta_decay_epochs, 0)
        check_number("learning_rate", self.learning_rate, 0, above=True)
        check_number("margin", self.margin, 0)
        check_number("reg_lambda", self.reg_lambda, 0)
        if not isinstance(self.focuse, bool):
            raise InputError(f"focuse must be true or false, got {self.focuse!r}")


def beta_value(epoch: int, hp: Hyperparams) -> float:
    """Modulation strength for an epoch: linear from 1 down to 0.

    With decay span D, beta(e) = max(0, 1 - e/D); D = 0 puts full weight
    influence on from the first epoch. ``focuse=False`` holds beta at 1.
    """
    if not hp.focuse:
        return 1.0
    span = hp.epochs if hp.beta_decay_epochs is None else hp.beta_decay_epochs
    if span <= 0:
        return 0.0
    return max(0.0, 1.0 - epoch / span)


@dataclass
class TrainReport:
    """Per-epoch loss trace and run provenance."""

    losses: list[float]
    wall_time: float
    final_beta: float
    seed: int


class _Adam:
    """Lazy Adam: each step updates the moments and parameters of the rows
    its gradients cover and leaves every other row as it is.

    The step count is global, as in PyTorch ``SparseAdam`` and TF-Addons
    ``LazyAdam``, so a row's first update is bias-corrected with the number
    of steps taken so far, not with one. Real and imaginary parts are
    separate parameters: the moments are float matrices laid out like the
    float view of ``model.block``.
    """

    def __init__(self, model: ModelParams, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(model.block.view(np.float64))
        self.v = np.zeros_like(model.block.view(np.float64))

    def step(self, model: ModelParams, grads: Gradients, arena: Arena) -> None:
        """One update; its temporaries are the four row buffers of ``arena``."""
        rows = grads.rows
        self.t += 1
        bc2 = 1.0 - ADAM_BETA2**self.t
        scale = self.lr / (1.0 - ADAM_BETA1**self.t)
        m, v = self.m, self.v
        scratch, m_rows, v_rows, p_rows = arena.rows[:, :len(rows)]
        g = grads.values.view(np.float64)
        np.multiply(g, 1.0 - ADAM_BETA1, out=scratch)
        m.take(rows, 0, m_rows, "wrap")
        m_rows *= ADAM_BETA1
        m_rows += scratch  # beta1 * m + (1 - beta1) * g
        m[rows] = m_rows
        np.square(g, out=scratch)
        scratch *= 1.0 - ADAM_BETA2
        v.take(rows, 0, v_rows, "wrap")
        v_rows *= ADAM_BETA2
        v_rows += scratch  # beta2 * v + (1 - beta2) * g^2
        v[rows] = v_rows
        np.divide(v_rows, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        m_rows *= scale
        m_rows /= scratch  # scale * m / (sqrt(v / bc2) + eps)
        param = model.block.view(np.float64)
        param.take(rows, 0, p_rows, "wrap")
        p_rows -= m_rows
        param[rows] = p_rows


def loss_and_grad(
    model: ModelParams, batch: TrainingBatch, hp: Hyperparams, arena: Arena,
    grads: Gradients | None = None,
) -> float:
    """Hinge + regularizer loss for one batch, with ``arena`` as scratch;
    with ``grads``, from :meth:`Gradients.for_steps`, its gradient is
    stored in ``grads.values``, and the penalty covers only the rows
    ``grads`` trains (the others add a constant)."""
    found = Gradients.for_batch(batch, model) if grads is None else grads
    loss = hinge_part(model, batch, hp.margin, found.slots, arena, grads)
    loss += regularizer_part(model, found.ent_rows, found.rel_rows, hp.reg_p, hp.reg_lambda,
                             arena, grads)
    return loss


def _fold_in(graph: TripleGraph, hp: Hyperparams, base: ModelParams) -> tuple[ModelParams, np.ndarray]:
    """Fresh init for the graph's vocabulary with every row ``base`` names
    copied from it, and a mask of the block rows it lacks."""
    if base.k != hp.k:
        raise InputError(f"warm start dimension {base.k} does not match configured k {hp.k}")
    model = init_model(graph.vocab, hp.k, hp.seed)
    shared = []
    for ours, theirs, dst, src in (
        (graph.vocab.entities, base.vocab.entity_index, model.ent, base.ent),
        (graph.vocab.relations, base.vocab.relation_index, model.rel, base.rel),
    ):
        known = np.array([name in theirs for name in ours], dtype=bool)
        dst[known] = src[[theirs[name] for name in ours if name in theirs]]
        shared.append(known)
    fresh = ~np.concatenate(shared)
    if not fresh.any():
        raise InputError("base model covers every row: nothing to train")
    return model, fresh


def train(
    graph: TripleGraph, hp: Hyperparams, *, base: ModelParams | None = None
) -> tuple[ModelParams, TrainReport]:
    """Fit embeddings to a weighted graph.

    Without ``base`` every row starts from ``init_model`` and is trained.
    With it, the graph is folded into that model: every entity and relation
    row whose name ``base`` has is copied from it and keeps that value, and
    only the other rows are optimized, only on the triples that touch one of
    them. Corruptions are still drawn from the whole vocabulary. Raises
    :class:`TrainingDiverged` with the epoch, batch, and offending triple
    rows if the loss leaves the finite range.
    """
    if len(graph) == 0:
        raise InputError("cannot train on an empty graph")
    idx, weights = graph.index_arrays()
    n = graph.vocab.n_entities
    if base is None:
        model = init_model(graph.vocab, hp.k, hp.seed)
        trainable = None
        n_ent, n_rel = n, model.vocab.n_relations
    else:
        model, trainable = _fold_in(graph, hp, base)
        touches = trainable[idx[:, 0]] | trainable[n + idx[:, 1]] | trainable[idx[:, 2]]
        idx, weights = idx[touches], weights[touches]
        n_ent, n_rel = np.count_nonzero(trainable[:n]), np.count_nonzero(trainable[n:])

    rng = np.random.default_rng((hp.seed, 1))
    adam = _Adam(model, hp.learning_rate)
    n, size, eta, vocab = idx.shape[0], hp.batch_size, hp.eta, graph.vocab
    arena = Arena.for_batches(min(n, size), eta, hp.k, n_ent, n_rel)
    per_chunk = chunk_steps(3 * min(n, size) * (1 + eta), len(model.block))
    last = (n - 1) // size  # number of each epoch's last batch
    steps = _schedule(n, size, hp, rng)
    losses: list[float] = []
    epoch_loss = 0.0
    started = time.perf_counter()
    while True:
        # preparation: every draw of the chunk's steps, in step order, and
        # their slots and rows; the steps then only touch parameters
        drawn = []
        for epoch, batch_no, beta, take in islice(steps, per_chunk):
            pos = idx.take(take, 0)
            neg = sample_corruptions(pos, eta, vocab, rng)
            drawn.append((epoch, batch_no, beta, pos, weights.take(take), neg))
        if not drawn:
            break
        found = Gradients.for_steps([(pos, neg) for *_, pos, _, neg in drawn], model, trainable)
        for (epoch, batch_no, beta, pos, w, neg), grads in zip(drawn, found):
            batch = TrainingBatch(pos, w, neg, eta, beta)
            loss = loss_and_grad(model, batch, hp, arena, grads)
            if not math.isfinite(loss):
                rows = _non_finite_rows(model, batch)
                raise TrainingDiverged(epoch, batch_no, rows)
            adam.step(model, grads, arena)
            grads.values = None  # spent: the chunk holds no step's gradient
            epoch_loss += loss
            if batch_no == last:
                losses.append(epoch_loss)
                epoch_loss = 0.0
    report = TrainReport(
        losses=losses,
        wall_time=time.perf_counter() - started,
        final_beta=beta_value(hp.epochs - 1, hp),
        seed=hp.seed,
    )
    return model, report


def _schedule(n: int, size: int, hp: Hyperparams, rng: np.random.Generator):
    """(epoch, batch number, beta, rows of the index arrays) of every step
    of a run over ``n`` triples; each epoch's permutation is drawn from
    ``rng`` when its first step is reached."""
    for epoch in range(hp.epochs):
        beta = beta_value(epoch, hp)
        perm = rng.permutation(n)
        for batch_no, start in enumerate(range(0, n, size)):
            yield epoch, batch_no, beta, perm[start : start + size]


def _non_finite_rows(model: ModelParams, batch: TrainingBatch) -> list[int]:
    """Vocab row ids of triples whose raw score is no longer finite."""
    stacked = np.concatenate([batch.pos, batch.neg])
    with np.errstate(all="ignore"):
        scores = score_triples(model, stacked)
    bad = ~np.isfinite(scores)
    if not bad.any():
        return []
    return sorted({int(r) for r in stacked[bad].ravel()})
