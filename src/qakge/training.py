"""Training loop: hyperparameters, beta schedule, Adam, epoch iteration.

All randomness (shuffling, corruption draws) flows from one seeded generator
owned by :func:`train`, so a (graph, hyperparams) pair fully determines the
final parameters bit for bit. :func:`chunked_steps` draws and prepares a
chunk of consecutive steps before it runs them (``objective.CHUNK_SLOTS``),
for :func:`train` and ``evaluation.validation_loss`` alike; the draws come
in the same order as one step at a time, so the chunk size changes no
number.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .contexts import check_integer, check_number
from .errors import InputError, TrainingDiverged
from .model import ModelParams, init_model, score_triples
from .objective import Arena, Step, chunk_steps, hinge_part, prepare_steps, regularizer_part
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

    ``eta`` is the number of corruptions per positive; its default is
    measured in README, "Negatives per positive".

    ``beta_decay_epochs=None`` means the modulation anneal spans the whole
    run; ``focuse=False`` pins beta at 1 so edge weights are ignored
    entirely.
    """

    k: int = 50
    eta: int = 4
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

    def step(self, model: ModelParams, step: Step, arena: Arena) -> None:
        """One update by the step's gradient; its temporaries are the four
        row buffers of ``arena``."""
        rows = step.rows
        self.t += 1
        bc2 = 1.0 - ADAM_BETA2**self.t
        scale = self.lr / (1.0 - ADAM_BETA1**self.t)
        m, v = self.m, self.v
        scratch, m_rows, v_rows, p_rows = arena.rows[:, :len(rows)]
        g = step.values.view(np.float64)
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


def loss_and_grad(model: ModelParams, step: Step, hp: Hyperparams, arena: Arena) -> float:
    """Hinge + regularizer loss of one step, with ``arena`` as scratch; its
    gradient is stored in ``step.values``. The penalty covers only the rows
    the step trains (the others add a constant)."""
    loss = hinge_part(model, step, hp.margin, arena)
    loss += regularizer_part(model, step.ent_rows, step.rel_rows, hp.reg_p, hp.reg_lambda,
                             arena, step.values)
    return loss


def chunked_steps(
    model: ModelParams, hp: Hyperparams, n: int, batches: Iterable[tuple], draw: Callable,
    rng: np.random.Generator, trainable: np.ndarray | None = None,
) -> Iterator[tuple[object, Step, Arena]]:
    """(key, step, arena) of every batch of a run over ``n`` triples in
    batches of ``hp.batch_size``, each given as a key, its positives, their
    weights and beta. A step's corruptions are ``draw(positives, hp.eta,
    model.vocab, rng)``, and all steps share the arena. As many batches as
    :func:`chunk_steps` allows are taken and drawn, in order, before
    :func:`prepare_steps` prepares them together and they are yielded. A
    step's gradient is dropped when the next step is asked for, so the
    chunk holds at most one.
    """
    positives = min(n, hp.batch_size)
    live = np.ones(len(model.block), bool) if trainable is None else trainable
    split = model.vocab.n_entities
    arena = Arena.for_steps(positives, hp.eta, model.k, np.count_nonzero(live[:split]),
                            np.count_nonzero(live[split:]))
    per_chunk = chunk_steps(3 * positives * (1 + hp.eta), len(model.block))
    batches = iter(batches)
    while chunk := [(key, pos, w, draw(pos, hp.eta, model.vocab, rng), beta)
                    for key, pos, w, beta in islice(batches, per_chunk)]:
        steps = prepare_steps([batch[1:] for batch in chunk], hp.eta, model, trainable)
        for (key, *_), step in zip(chunk, steps):
            yield key, step, arena
            step.values = None  # spent: the chunk holds no step's gradient


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
    if base is None:
        model, trainable = init_model(graph.vocab, hp.k, hp.seed), None
    else:
        model, trainable = _fold_in(graph, hp, base)
        n = graph.vocab.n_entities
        touches = trainable[idx[:, 0]] | trainable[n + idx[:, 1]] | trainable[idx[:, 2]]
        idx, weights = idx[touches], weights[touches]

    rng = np.random.default_rng((hp.seed, 1))
    adam = _Adam(model, hp.learning_rate)
    last = (len(idx) - 1) // hp.batch_size  # number of each epoch's last batch
    steps = chunked_steps(model, hp, len(idx), _schedule(idx, weights, hp, rng),
                          sample_corruptions, rng, trainable)
    losses: list[float] = []
    epoch_loss = 0.0
    started = time.perf_counter()
    for (epoch, batch_no), step, arena in steps:
        loss = loss_and_grad(model, step, hp, arena)
        if not math.isfinite(loss):
            raise TrainingDiverged(epoch, batch_no, _non_finite_rows(model, step))
        adam.step(model, step, arena)
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


def _schedule(idx: np.ndarray, weights: np.ndarray, hp: Hyperparams, rng: np.random.Generator):
    """((epoch, batch number), positives, weights, beta) of every step of a
    run over the triples ``idx`` of weights ``weights``; each epoch's
    permutation is drawn from ``rng`` when its first step is reached."""
    n, size = len(idx), hp.batch_size
    for epoch in range(hp.epochs):
        beta = beta_value(epoch, hp)
        perm = rng.permutation(n)
        for batch_no, start in enumerate(range(0, n, size)):
            take = perm[start : start + size]
            yield (epoch, batch_no), idx.take(take, 0), weights.take(take), beta


def _non_finite_rows(model: ModelParams, step: Step) -> list[int]:
    """Vocab row ids of triples whose raw score is no longer finite."""
    stacked = np.concatenate([step.pos, step.neg])
    with np.errstate(all="ignore"):
        scores = score_triples(model, stacked)
    bad = ~np.isfinite(scores)
    if not bad.any():
        return []
    return sorted({int(r) for r in stacked[bad].ravel()})
