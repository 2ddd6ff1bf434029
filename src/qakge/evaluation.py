"""Link prediction evaluation: ranks, MRR/MR/Hits@N, validation loss.

Each test triple is ranked twice, once per corruption side, against every
entity in the model's vocabulary. The filtered protocol removes candidates
that would re-create a different known-positive triple, so the model is not
punished for preferring another true fact.

:func:`evaluate` is the one ranking entry point. It ranks the split in
blocks of queries, each scored against every entity by one matrix product.
A block holds at most ``BLOCK_SCORES`` scores, so memory grows with neither
the split nor the graph.

:func:`validation_loss` runs the split's batches as the steps ``train``
runs, prepared a chunk at a time by ``training.chunked_steps``, and keeps
their losses; each step's gradient is computed and discarded.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import InputError
from .model import ModelParams, score_all_objects, score_all_subjects
from .sampling import sample_corruptions
from .training import Hyperparams, chunked_steps, loss_and_grad
from .triples import TripleGraph

PROTOCOLS = ("raw", "filtered")

HITS = (1, 3, 10)

SIDES = ("object", "subject")  # the corrupted side, in record order

# scores one ranking block holds (512 KiB of float64)
BLOCK_SCORES = 1 << 16


def aggregate_ranks(ranks: Iterable[int]) -> dict[str, float | dict[int, float]]:
    """MRR, MR and Hits@1/3/10 over a list of ranks."""
    arr = np.asarray(list(ranks), dtype=np.float64)
    if arr.size == 0:
        raise InputError("cannot aggregate an empty rank list")
    if (arr < 1).any():
        raise InputError("ranks must be >= 1")
    return {
        "mrr": float(np.mean(1.0 / arr)),
        "mr": float(np.mean(arr)),
        "hits": {n: float(np.mean(arr <= n)) for n in HITS},
    }


def _known_ids(known: Iterable[tuple[str, str, str]], model: ModelParams) -> np.ndarray:
    """The known positives as an (M, 3) id array. Facts outside the model's
    world cannot affect candidate ranks, so they are dropped."""
    e_idx, r_idx = model.vocab.entity_index, model.vocab.relation_index
    ids = [(e_idx.get(s), r_idx.get(p), e_idx.get(o)) for s, p, o in known]
    return np.array([t for t in ids if None not in t], dtype=np.int64).reshape(-1, 3)


def _side_ranks(model: ModelParams, idx: np.ndarray, side: str, known: np.ndarray) -> np.ndarray:
    """Rank of the true entity of each (s, p, o) row of ``idx`` when ``side``
    is replaced by every entity but the other ``known`` answers to its query:
    1 + #{strictly better} + round_half_up(#{tied others} / 2)."""
    if side == "object":
        score_all, (a, b), truth = score_all_objects, (0, 1), 2
    else:
        score_all, (a, b), truth = score_all_subjects, (1, 2), 0
    width = model.block.shape[0]  # above every id, so a * width + b names a query
    key = known[:, a] * width + known[:, b]
    order = np.argsort(key, kind="stable")
    known_keys, known_answers = key[order], known[order, truth]
    rows = max(1, BLOCK_SCORES // model.vocab.n_entities)
    ranks = np.empty(len(idx), dtype=np.int64)
    for start in range(0, len(idx), rows):
        block = idx[start : start + rows]
        scores = score_all(model, block[:, a], block[:, b])
        at, true_idx = np.arange(len(block)), block[:, truth]
        s_true = scores[at, true_idx]
        # query i's known answers are known_answers[lo[i] : lo[i] + n_known[i]]
        keys = block[:, a] * width + block[:, b]
        lo = np.searchsorted(known_keys, keys)
        n_known = np.searchsorted(known_keys, keys, side="right") - lo
        offset = np.repeat(lo - (np.cumsum(n_known) - n_known), n_known)
        answers = known_answers[offset + np.arange(n_known.sum())]
        scores[np.repeat(at, n_known), answers] = -np.inf
        scores[at, true_idx] = s_true  # the test triple itself stays a candidate
        n_greater = np.count_nonzero(scores > s_true[:, None], axis=1)
        n_tied = np.count_nonzero(scores == s_true[:, None], axis=1) - 1
        ranks[start : start + len(block)] = 1 + n_greater + (n_tied + 1) // 2
    return ranks


@dataclass(frozen=True, slots=True)
class RankRecord:
    source: str
    relation: str
    target: str
    side: str  # which side was corrupted
    rank: int


@dataclass
class EvalMetrics:
    loss: float | None  # None unless evaluate was given the hyperparameters
    mrr: float
    mr: float
    hits: dict[int, float]
    n_test: int
    protocol: str
    ranks: list[RankRecord] = field(repr=False)
    per_relation_mrr: dict[str, float] = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        return {
            "loss": self.loss,
            "mrr": self.mrr,
            "mr": self.mr,
            "hits": {str(n): v for n, v in sorted(self.hits.items())},
            "n_test": self.n_test,
            "protocol": self.protocol,
            "per_relation_mrr": self.per_relation_mrr,
        }


def validation_loss(model: ModelParams, graph: TripleGraph, hp: Hyperparams) -> float:
    """Mean per-positive training objective on held-out triples.

    Corruptions are drawn from a dedicated generator with a fixed seed, so
    the number is reproducible. Beta is 0, as at the end of a fully annealed
    run, which keeps values comparable across configurations.
    """
    if len(graph) == 0:
        raise InputError("cannot evaluate loss on an empty graph")
    idx, weights = graph.index_arrays(model.vocab)
    size = hp.batch_size
    batches = ((None, idx[start : start + size], weights[start : start + size], 0.0)
               for start in range(0, len(idx), size))
    # drawn through this module's name, so the benchmark's training draw
    # counts and epoch clock leave validation out
    steps = chunked_steps(model, hp, len(idx), batches, sample_corruptions,
                          np.random.default_rng((0, 99)))
    total = 0.0
    for _, step, arena in steps:
        total += loss_and_grad(model, step, hp, arena)
    return total / len(graph)


def evaluate(
    model: ModelParams,
    test_graph: TripleGraph,
    known_positives: TripleGraph | Iterable[tuple[str, str, str]],
    protocol: str = "filtered",
    *,
    hp: Hyperparams | None = None,
) -> EvalMetrics:
    """Rank every test triple on both sides and aggregate.

    Records come in test order, the object side before the subject side.
    ``known_positives`` should contain all facts treated as true (typically
    train + test) when the protocol is filtered. ``loss`` is the
    :func:`validation_loss` of the test triples under ``hp``, the settings
    the model was trained with, and None when ``hp`` is not given.
    """
    if protocol not in PROTOCOLS:
        raise InputError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if len(test_graph) == 0:
        raise InputError("empty test set")
    idx, _ = test_graph.index_arrays(model.vocab)
    known = known_positives.keys() if isinstance(known_positives, TripleGraph) else known_positives
    known_ids = _known_ids(known, model) if protocol == "filtered" else np.empty((0, 3), np.int64)
    ranks = np.column_stack([_side_ranks(model, idx, side, known_ids) for side in SIDES])
    records = [RankRecord(t.source, t.relation, t.target, side, rank)
               for t, pair in zip(test_graph.triples, ranks.tolist())
               for side, rank in zip(SIDES, pair)]

    by_relation: dict[str, list[float]] = {}
    for r in records:
        by_relation.setdefault(r.relation, []).append(1.0 / r.rank)
    per_relation = {rel: float(np.mean(vals)) for rel, vals in sorted(by_relation.items())}
    loss = validation_loss(model, test_graph, hp) if hp is not None else None
    return EvalMetrics(loss=loss, n_test=len(test_graph), protocol=protocol, ranks=records,
                       per_relation_mrr=per_relation,
                       **aggregate_ranks(r.rank for r in records))
