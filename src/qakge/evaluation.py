"""Link prediction evaluation: ranks, MRR/MR/Hits@N, validation loss.

Each test triple is ranked twice, once per corruption side, against every
entity in the model's vocabulary. The filtered protocol removes candidates
that would re-create a different known-positive triple, so the model is not
punished for preferring another true fact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import InputError
from .model import ModelParams, score_all_objects, score_all_subjects
from .objective import Arena, TrainingBatch
from .sampling import sample_corruptions
from .training import Hyperparams, loss_and_grad
from .triples import TripleGraph

PROTOCOLS = ("raw", "filtered")

DEFAULT_HITS = (1, 3, 10)


def aggregate_ranks(
    ranks: Iterable[int], hits_at: tuple[int, ...] = DEFAULT_HITS
) -> dict[str, float | dict[int, float]]:
    """MRR, MR and Hits@N over a list of ranks."""
    arr = np.asarray(list(ranks), dtype=np.float64)
    if arr.size == 0:
        raise InputError("cannot aggregate an empty rank list")
    if (arr < 1).any():
        raise InputError("ranks must be >= 1")
    return {
        "mrr": float(np.mean(1.0 / arr)),
        "mr": float(np.mean(arr)),
        "hits": {n: float(np.mean(arr <= n)) for n in hits_at},
    }


def _rank_from_scores(scores: np.ndarray, true_idx: int, excluded: np.ndarray | None) -> int:
    """Competition rank with half-up tie splitting.

    rank = 1 + #{strictly better} + round_half_up(#{tied others} / 2).
    """
    s_true = scores[true_idx]
    valid = np.ones(scores.shape[0], dtype=bool)
    if excluded is not None and excluded.size:
        valid[excluded] = False
    valid[true_idx] = False
    n_greater = int(np.count_nonzero(scores[valid] > s_true))
    n_equal = int(np.count_nonzero(scores[valid] == s_true))
    return 1 + n_greater + int(math.floor(n_equal / 2.0 + 0.5))


def _known_sets(
    known: Iterable[tuple[str, str, str]], model: ModelParams
) -> tuple[dict[tuple[int, int], list[int]], dict[tuple[int, int], list[int]]]:
    """Index the filter sets: (s, p) -> known objects, (p, o) -> known subjects."""
    by_sp: dict[tuple[int, int], list[int]] = {}
    by_po: dict[tuple[int, int], list[int]] = {}
    e_idx, r_idx = model.vocab.entity_index, model.vocab.relation_index
    for s_name, p_name, o_name in known:
        s, p, o = e_idx.get(s_name), r_idx.get(p_name), e_idx.get(o_name)
        if s is None or p is None or o is None:
            continue  # facts outside the model's world cannot affect candidate ranks
        by_sp.setdefault((s, p), []).append(o)
        by_po.setdefault((p, o), []).append(s)
    return by_sp, by_po


def _resolve(model: ModelParams, triple: tuple[str, str, str]) -> tuple[int, int, int]:
    s_name, p_name, o_name = triple
    try:
        return (
            model.vocab.entity_index[s_name],
            model.vocab.relation_index[p_name],
            model.vocab.entity_index[o_name],
        )
    except KeyError as exc:
        raise InputError(f"symbol not in model vocabulary: {exc.args[0]!r}") from exc


def _rank_side(
    model: ModelParams,
    s: int,
    p: int,
    o: int,
    side: str,
    by_sp: Mapping[tuple[int, int], list[int]],
    by_po: Mapping[tuple[int, int], list[int]],
    filtered: bool,
) -> int:
    """Rank of the true entity when ``side`` of (s, p, o) is replaced by
    every entity; filtered ranking skips the other known positives."""
    if side == "object":
        scores, true_idx, known = score_all_objects(model, s, p), o, by_sp.get((s, p), ())
    else:
        scores, true_idx, known = score_all_subjects(model, p, o), s, by_po.get((p, o), ())
    excluded = None
    if filtered:
        excluded = np.array([e for e in known if e != true_idx], dtype=np.int64)
    return _rank_from_scores(scores, true_idx, excluded)


@dataclass(frozen=True, slots=True)
class RankRecord:
    source: str
    relation: str
    target: str
    side: str  # which side was corrupted
    rank: int


@dataclass
class EvalMetrics:
    loss: float
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
    rng = np.random.default_rng((0, 99))
    arena = Arena.for_batches(min(len(graph), hp.batch_size), hp.eta, model.k,
                              model.vocab.n_entities, model.vocab.n_relations)
    total = 0.0
    for start in range(0, len(graph), hp.batch_size):
        pos = idx[start : start + hp.batch_size]
        neg = sample_corruptions(pos, hp.eta, model.vocab, rng)
        batch = TrainingBatch(pos, weights[start : start + hp.batch_size], neg, hp.eta, 0.0)
        total += loss_and_grad(model, batch, hp, arena)
    return total / len(graph)


def ranking_metrics(
    model: ModelParams,
    test_graph: TripleGraph,
    known_positives: TripleGraph | Iterable[tuple[str, str, str]],
    hits_at: tuple[int, ...] = DEFAULT_HITS,
    protocol: str = "filtered",
) -> tuple[list[RankRecord], dict]:
    """Rank every test triple on both sides and aggregate.

    Returns the rank records and a dict of ``mrr``, ``mr``, ``hits`` and
    ``per_relation_mrr``. ``known_positives`` should contain all facts
    treated as true (typically train + test) when the protocol is filtered.
    """
    if protocol not in PROTOCOLS:
        raise InputError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if len(test_graph.triples) == 0:
        raise InputError("empty test set")
    if any(n < 1 for n in hits_at):
        raise InputError(f"hits_at cutoffs must be >= 1, got {hits_at}")
    known = known_positives.keys() if isinstance(known_positives, TripleGraph) else known_positives
    filtered = protocol == "filtered"
    by_sp, by_po = _known_sets(known, model) if filtered else ({}, {})

    records: list[RankRecord] = []
    for t in test_graph.triples:
        s, p, o = _resolve(model, t.key)
        for side in ("object", "subject"):
            rank = _rank_side(model, s, p, o, side, by_sp, by_po, filtered)
            records.append(RankRecord(t.source, t.relation, t.target, side, rank))

    by_relation: dict[str, list[float]] = {}
    for r in records:
        by_relation.setdefault(r.relation, []).append(1.0 / r.rank)
    per_relation = {rel: float(np.mean(vals)) for rel, vals in sorted(by_relation.items())}
    return records, {**aggregate_ranks([r.rank for r in records], hits_at),
                     "per_relation_mrr": per_relation}


def evaluate(
    model: ModelParams,
    test_graph: TripleGraph,
    known_positives: TripleGraph | Iterable[tuple[str, str, str]],
    hits_at: tuple[int, ...] = DEFAULT_HITS,
    protocol: str = "filtered",
    *,
    hp: Hyperparams | None = None,
) -> EvalMetrics:
    """:func:`ranking_metrics` plus the :func:`validation_loss` of the test
    triples under ``hp`` (the default hyperparameters when None)."""
    records, summary = ranking_metrics(model, test_graph, known_positives, hits_at, protocol)
    loss = validation_loss(model, test_graph, hp if hp is not None else Hyperparams())
    return EvalMetrics(loss=loss, n_test=len(test_graph.triples), protocol=protocol,
                       ranks=records, **summary)
