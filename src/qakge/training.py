"""Training loop: hyperparameters, beta schedule, Adam, epoch iteration.

All randomness (shuffling, corruption draws) flows from one seeded generator
owned by :func:`train`, so a (graph, hyperparams) pair fully determines the
final parameters bit for bit.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError, TrainingDiverged
from .model import ModelParams, init_model, score_triples
from .objective import Gradients, TrainingBatch, hinge_part, regularizer_part
from .sampling import CORRUPTION_MODES, sample_corruptions
from .triples import TripleGraph, Vocabulary

logger = logging.getLogger(__name__)


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
    corruption_mode: str = "all"
    reg_p: int = 4
    reg_lambda: float = 1e-4
    beta_decay_epochs: int | None = None
    focuse: bool = True
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if self.eta < 1:
            raise InputError(f"eta must be >= 1, got {self.eta}")
        if self.batch_size < 1:
            raise InputError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (self.learning_rate > 0.0):
            raise InputError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.margin < 0.0:
            raise InputError(f"margin must be >= 0, got {self.margin}")
        if self.epochs < 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if self.corruption_mode not in CORRUPTION_MODES:
            raise InputError(
                f"corruption_mode must be one of {CORRUPTION_MODES}, got {self.corruption_mode!r}"
            )
        if self.reg_p < 1:
            raise InputError(f"reg_p must be >= 1, got {self.reg_p}")
        if self.reg_lambda < 0.0:
            raise InputError(f"reg_lambda must be >= 0, got {self.reg_lambda}")
        if self.beta_decay_epochs is not None and self.beta_decay_epochs < 0:
            raise InputError(f"beta_decay_epochs must be >= 0, got {self.beta_decay_epochs}")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise InputError("adam moment decays must lie in [0, 1)")
        if self.adam_eps <= 0.0:
            raise InputError(f"adam_eps must be > 0, got {self.adam_eps}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_HP_KEYS = {f.name for f in fields(Hyperparams)}


def hyperparams_from_dict(doc: dict) -> Hyperparams:
    if not isinstance(doc, dict):
        raise InputError(f"hyperparams must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - _HP_KEYS
    if unknown:
        raise InputError(f"unknown hyperparameter fields: {sorted(unknown)}")
    return Hyperparams(**doc)


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

    def to_dict(self) -> dict:
        return {
            "losses": self.losses,
            "wall_time": self.wall_time,
            "final_beta": self.final_beta,
            "seed": self.seed,
        }


class _Adam:
    """Adam with bias correction; one moment pair per matrix.

    With ``rows`` (entity rows, relation rows) only those rows are updated
    and the moments are sized to them; otherwise every row is.
    """

    def __init__(self, model: ModelParams, hp: Hyperparams,
                 rows: tuple[np.ndarray, np.ndarray] | None = None):
        self.lr = hp.learning_rate
        self.b1 = hp.adam_beta1
        self.b2 = hp.adam_beta2
        self.eps = hp.adam_eps
        self.t = 0
        self.rows = None if rows is None else (rows[0], rows[0], rows[1], rows[1])
        arrays = model.arrays()
        if self.rows is not None:
            arrays = [a[r] for a, r in zip(arrays, self.rows)]
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]

    def step(self, model: ModelParams, grads: Gradients) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        scale = self.lr / bc1
        moments = zip(model.arrays(), grads.arrays(), self.m, self.v)
        if self.rows is None:
            for param, g, m, v in moments:
                self._update(param, g, m, v, scale, bc2)
            return
        for (param, g, m, v), rows in zip(moments, self.rows):
            part = param[rows]
            self._update(part, g[rows], m, v, scale, bc2)
            param[rows] = part

    def _update(self, param, g, m, v, scale: float, bc2: float) -> None:
        m *= self.b1
        m += (1.0 - self.b1) * g
        v *= self.b2
        v += (1.0 - self.b2) * np.square(g)
        param -= scale * m / (np.sqrt(v / bc2) + self.eps)


def loss_and_grad(
    model: ModelParams, batch: TrainingBatch, hp: Hyperparams, grads: Gradients | None = None
) -> float:
    """Hinge + regularizer loss for one batch; with ``grads``, its gradient
    is accumulated there in place."""
    loss = hinge_part(model, batch, hp.margin, grads)
    ent_rows, rel_rows = batch.touched_rows()
    loss += regularizer_part(model, ent_rows, rel_rows, hp.reg_p, hp.reg_lambda, grads)
    return loss


def _trainable(
    vocab: Vocabulary, frozen: Vocabulary, idx: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Entity and relation rows whose names ``frozen`` lacks, and a mask of
    the triples that touch at least one of them."""
    ent = np.array([name not in frozen.entity_index for name in vocab.entities], dtype=bool)
    rel = np.array([name not in frozen.relation_index for name in vocab.relations], dtype=bool)
    if not (ent.any() or rel.any()):
        raise InputError("frozen vocabulary covers every row: nothing to train")
    touches = ent[idx[:, 0]] | rel[idx[:, 1]] | ent[idx[:, 2]]
    return (np.flatnonzero(ent), np.flatnonzero(rel)), touches


def train(
    graph: TripleGraph,
    hp: Hyperparams,
    *,
    initial: ModelParams | None = None,
    frozen: Vocabulary | None = None,
) -> tuple[ModelParams, TrainReport]:
    """Fit embeddings to a weighted graph.

    ``initial`` warm-starts from existing parameters (their vocabulary must
    match the graph's). With ``frozen``, every entity and relation row whose
    name it contains keeps its starting value: only the other rows are
    optimized, only on the triples that touch one of them, and the optimizer
    state covers only those rows. Corruptions are still drawn from the whole
    vocabulary. Raises :class:`TrainingDiverged` with the epoch, batch, and
    offending triple rows if the loss leaves the finite range.
    """
    if len(graph) == 0:
        raise InputError("cannot train on an empty graph")
    idx, weights = graph.index_arrays()
    if initial is None:
        model = init_model(graph.vocab, hp.k, hp.seed)
    else:
        if initial.vocab != graph.vocab:
            raise InputError("warm-start parameters use a different vocabulary than the graph")
        if initial.k != hp.k:
            raise InputError(f"warm-start k={initial.k} does not match hp.k={hp.k}")
        model = initial.copy()
    trainable = None
    if frozen is not None:
        trainable, touches = _trainable(graph.vocab, frozen, idx)
        idx, weights = idx[touches], weights[touches]

    rng = np.random.default_rng((hp.seed, 1))
    adam = _Adam(model, hp, trainable)
    grads = Gradients.zeros_like(model)
    n = idx.shape[0]
    losses: list[float] = []
    beta = beta_value(0, hp)
    started = time.perf_counter()
    for epoch in range(hp.epochs):
        beta = beta_value(epoch, hp)
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for batch_no, start in enumerate(range(0, n, hp.batch_size)):
            take = perm[start : start + hp.batch_size]
            pos = idx[take]
            neg = sample_corruptions(pos, hp.eta, hp.corruption_mode, graph.vocab, rng)
            batch = TrainingBatch(pos, weights[take], neg, hp.eta, beta)
            for g in grads.arrays():
                g.fill(0.0)
            loss = loss_and_grad(model, batch, hp, grads)
            if not np.isfinite(loss):
                rows = _non_finite_rows(model, batch)
                raise TrainingDiverged(epoch, batch_no, rows)
            adam.step(model, grads)
            epoch_loss += loss
        losses.append(epoch_loss)
    report = TrainReport(
        losses=losses,
        wall_time=time.perf_counter() - started,
        final_beta=beta,
        seed=hp.seed,
    )
    return model, report


def _non_finite_rows(model: ModelParams, batch: TrainingBatch) -> list[int]:
    """Vocab row ids of triples whose raw score is no longer finite."""
    stacked = np.concatenate([batch.pos, batch.neg])
    with np.errstate(all="ignore"):
        scores = score_triples(model, stacked)
    bad = ~np.isfinite(scores)
    if not bad.any():
        return []
    return sorted({int(r) for r in stacked[bad].ravel()})
