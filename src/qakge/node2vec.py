"""Random-walk node embeddings and plan retrieval by context similarity.

This is the retrieval baseline: embed every node of the metadata graph with
biased second-order walks plus a skip-gram model, then answer a new context
by copying the plan of its nearest existing schema under cosine similarity.
Everything is hand-rolled on numpy so runs are bit-reproducible.
"""
from __future__ import annotations

import logging
import numbers
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .contexts import REL_SCHEMA, AssessmentPlan, ContextDescriptor, extract_plan
from .errors import InputError, NoMatchError, ZeroVectorError
from .objective import scatter_rows
from .triples import TripleGraph

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True, eq=False)
class AdjacencyStructure:
    """Undirected neighbor lists over entity ids, sorted for binary search."""

    names: tuple[str, ...]
    index: dict[str, int]
    neighbors: tuple[np.ndarray, ...]

    @classmethod
    def from_graph(cls, graph: TripleGraph) -> "AdjacencyStructure":
        names = graph.vocab.entities
        index = graph.vocab.entity_index
        sets: list[set[int]] = [set() for _ in names]
        for t in graph.triples:
            s, o = index[t.source], index[t.target]
            if s == o:
                continue  # self-loops add nothing to a walk
            sets[s].add(o)
            sets[o].add(s)
        neigh = tuple(np.array(sorted(s), dtype=np.int64) for s in sets)
        return cls(names, dict(index), neigh)


def transition_probs(
    adj: AdjacencyStructure, prev: int | None, cur: int, p: float, q: float
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate next nodes and their normalized second-order probabilities.

    Weights: 1/p to step back to ``prev``, 1 to a common neighbor of
    ``prev`` and ``cur``, 1/q otherwise. ``prev=None`` (walk start) is
    uniform over the neighbors of ``cur``.
    """
    if p <= 0 or q <= 0:
        raise InputError(f"walk bias parameters must be positive, got p={p}, q={q}")
    cand = adj.neighbors[cur]
    if cand.size == 0:
        return cand, np.empty(0, dtype=np.float64)
    if prev is None:
        w = np.full(cand.size, 1.0)
    else:
        prev_neigh = adj.neighbors[prev]
        pos = np.searchsorted(prev_neigh, cand)
        shared = (pos < prev_neigh.size) & (prev_neigh[np.minimum(pos, prev_neigh.size - 1)] == cand)
        w = np.where(shared, 1.0, 1.0 / q)
        w[cand == prev] = 1.0 / p
    return cand, w / w.sum()


def generate_walks(
    graph: TripleGraph,
    walks_per_node: int = 10,
    walk_length: int = 80,
    p: float = 1.0,
    q: float = 1.0,
    seed: int = 0,
) -> list[np.ndarray]:
    """Biased random walks, ``walks_per_node`` from every entity.

    Each start node gets its own generator keyed by (seed, node id), so the
    output is independent of how many other nodes exist. Isolated nodes
    yield length-1 walks. Walks from one node are consecutive in the result.

    The transition out of each (previous, current) pair is computed once
    per call, by :func:`transition_probs`, and kept as its candidates and
    cumulative probabilities. A step is then one uniform draw and a binary
    search for the first cumulative probability that is not below it.
    """
    if walks_per_node < 1 or walk_length < 1:
        raise InputError("walks_per_node and walk_length must be >= 1")
    adj = AdjacencyStructure.from_graph(graph)
    transitions: dict[tuple[int | None, int], tuple[list[int], list[float]]] = {}
    walks: list[np.ndarray] = []
    for node in range(len(adj.names)):
        rng = np.random.default_rng((seed, node))
        for _ in range(walks_per_node):
            walk = [node]
            prev: int | None = None
            cur = node
            for _ in range(1, walk_length):
                key = (prev, cur)
                if key not in transitions:
                    cand, probs = transition_probs(adj, prev, cur, p, q)
                    transitions[key] = (cand.tolist(), np.cumsum(probs).tolist())
                cand, cdf = transitions[key]
                if not cand:
                    break  # dead end (isolated node)
                # clip guards the case where the cumsum tops out just below 1.0
                pick = min(bisect_left(cdf, rng.random()), len(cand) - 1)
                prev, cur = cur, cand[pick]
                walk.append(cur)
            walks.append(np.array(walk, dtype=np.int64))
    return walks


def window_pairs(walk: np.ndarray, window: int) -> np.ndarray:
    """All (center, context) id pairs within ``window`` positions, in order:
    by center, then by context position."""
    if window < 1:
        raise InputError(f"window must be >= 1, got {window}")
    n = walk.shape[0]
    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    centers = np.repeat(np.arange(n), 2 * window)
    contexts = centers + np.tile(offsets, n)
    inside = (contexts >= 0) & (contexts < n)
    return walk[np.stack((centers, contexts), axis=1)[inside]].astype(np.int64, copy=False)


@dataclass(frozen=True, slots=True, eq=False)
class NodeEmbeddings:
    names: tuple[str, ...]
    index: dict[str, int]
    vectors: np.ndarray  # (n, d)

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.names):
            raise InputError("embedding matrix shape does not match name list")

    def vector(self, name: str) -> np.ndarray:
        if name not in self.index:
            raise InputError(f"unknown node {name!r}")
        return self.vectors[self.index[name]]


def train_skipgram(
    walks: Sequence[np.ndarray],
    names: tuple[str, ...],
    d: int = 64,
    window: int = 5,
    negatives: int = 5,
    epochs: int = 5,
    learning_rate: float = 0.025,
    seed: int = 0,
) -> NodeEmbeddings:
    """Skip-gram with negative sampling over precomputed walks.

    Noise distribution is the unigram frequency of walk tokens raised to
    0.75. Updates are applied in fixed-size batches, summed per row by
    ``scatter_rows`` through one cell table per call, so repeated rows
    accumulate deterministically. The learning rate decays linearly to a
    floor of 1e-4 of its start value.
    """
    if d < 1 or negatives < 1 or epochs < 1:
        raise InputError("d, negatives and epochs must all be >= 1")
    if learning_rate <= 0:
        raise InputError(f"learning_rate must be positive, got {learning_rate}")
    n = len(names)
    pair_blocks = [window_pairs(w, window) for w in walks if w.shape[0] > 1]
    if not pair_blocks:
        raise InputError("no training pairs: every walk has length 1")
    pairs = np.concatenate(pair_blocks, axis=0)

    counts = np.bincount(pairs[:, 0], minlength=n).astype(np.float64)
    noise = counts**0.75
    if noise.sum() == 0:
        raise InputError("degenerate noise distribution")
    noise_cdf = np.cumsum(noise / noise.sum())

    rng = np.random.default_rng((seed, 7))
    w_in = (rng.random((n, d)) - 0.5) / d
    w_out = np.zeros((n, d))
    table = np.arange(n * d).reshape(n, d)  # row i: the flat cells of row i

    batch = 256
    total_steps = epochs * ((pairs.shape[0] + batch - 1) // batch)
    step = 0
    for _ in range(epochs):
        order = rng.permutation(pairs.shape[0])
        for start in range(0, pairs.shape[0], batch):
            sel = pairs[order[start : start + batch]]
            centers, contexts = sel[:, 0], sel[:, 1]
            b = centers.shape[0]
            neg = np.minimum(np.searchsorted(noise_cdf, rng.random((b, negatives))), n - 1)
            alpha = learning_rate * max(1e-4, 1.0 - step / total_steps)

            vc = w_in[centers]  # (b, d)
            # positive: push sigmoid(vc . u_ctx) toward 1
            u_pos = w_out[contexts]
            g_pos = 1.0 / (1.0 + np.exp(-np.einsum("bd,bd->b", vc, u_pos))) - 1.0
            grad_c = g_pos[:, None] * u_pos
            d_pos = g_pos[:, None] * vc
            # negatives: push sigmoid(vc . u_neg) toward 0
            u_neg = w_out[neg]  # (b, k, d)
            g_neg = 1.0 / (1.0 + np.exp(-np.einsum("bd,bkd->bk", vc, u_neg)))
            grad_c += np.einsum("bk,bkd->bd", g_neg, u_neg)
            d_neg = g_neg[:, :, None] * vc[:, None, :]

            w_in += scatter_rows(centers, -alpha * grad_c, n, table)
            w_out += scatter_rows(np.concatenate([contexts, neg.reshape(-1)]),
                                  -alpha * np.concatenate([d_pos, d_neg.reshape(-1, d)]), n, table)
            step += 1
    return NodeEmbeddings(names, {name: i for i, name in enumerate(names)}, w_in)


def embed_graph(
    graph: TripleGraph,
    config: "BaselineConfig | None" = None,
    seed: int = 0,
) -> NodeEmbeddings:
    """Convenience wrapper: walks then skip-gram with one config."""
    cfg = config if config is not None else BaselineConfig()
    walks = generate_walks(
        graph, cfg.walks_per_node, cfg.walk_length, cfg.p, cfg.q, seed=seed
    )
    return train_skipgram(
        walks,
        graph.vocab.entities,
        d=cfg.d,
        window=cfg.window,
        negatives=cfg.negatives,
        epochs=cfg.epochs,
        learning_rate=cfg.learning_rate,
        seed=seed,
    )


def nearest_context(
    embeddings: NodeEmbeddings,
    query: str,
    candidates: Iterable[str],
    threshold: float = 0.7,
) -> str | None:
    """Best cosine match for ``query`` among ``candidates``, or None.

    Candidates are scanned in sorted order and a later candidate must be
    strictly better to displace the incumbent, so exact ties resolve to the
    lexicographically smallest name. Matches below ``threshold`` are
    rejected.
    """
    if not 0.0 <= threshold <= 1.0:
        raise InputError(f"threshold must lie in [0, 1], got {threshold}")
    qv = embeddings.vector(query)
    qn = float(np.linalg.norm(qv))
    if qn == 0.0:
        raise ZeroVectorError(query)
    best_name: str | None = None
    best_sim = -np.inf
    for name in sorted(set(candidates)):
        if name == query:
            continue
        cv = embeddings.vector(name)
        cn = float(np.linalg.norm(cv))
        if cn == 0.0:
            raise ZeroVectorError(name)
        sim = float(qv @ cv) / (qn * cn)
        if sim > best_sim:
            best_name, best_sim = name, sim
    if best_name is None or best_sim < threshold:
        return None
    return best_name


@dataclass(frozen=True, slots=True)
class BaselineConfig:
    """Knobs for the walk-embedding retrieval baseline."""

    p: float = 1.0
    q: float = 1.0
    walks_per_node: int = 10
    walk_length: int = 80
    d: int = 64
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    threshold: float = 0.7

    def __post_init__(self) -> None:
        for name in ("p", "q", "learning_rate", "threshold"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise InputError(f"{name} must be a number, got {getattr(self, name)!r}")
        if self.p <= 0 or self.q <= 0:
            raise InputError("p and q must be positive")
        sizes = (self.walks_per_node, self.walk_length, self.d, self.window,
                 self.negatives, self.epochs)
        if not all(isinstance(v, numbers.Integral) for v in sizes):
            raise InputError("walks_per_node, walk_length, d, window, negatives and epochs "
                             "must all be integers")
        if min(sizes) < 1:
            raise InputError("walk and skip-gram sizes must all be >= 1")
        if self.learning_rate <= 0:
            raise InputError("learning_rate must be positive")
        if not 0.0 <= self.threshold <= 1.0:
            raise InputError("threshold must lie in [0, 1]")


def baseline_plan(
    graph: TripleGraph,
    embeddings: NodeEmbeddings,
    query_context: ContextDescriptor,
    threshold: float = 0.7,
) -> AssessmentPlan:
    """Copy the plan of the most similar existing context onto the query.

    The graph must already contain the query context's description triples
    (so it has an embedding). Candidates are every other context with a
    schema edge. The retrieved plan keeps its rule and dimension edges
    verbatim; only the owning context id is relabeled.
    """
    candidates = {
        t.source for t in graph.triples
        if t.relation == REL_SCHEMA and t.source != query_context.context_id
    }
    match = nearest_context(
        embeddings, query_context.context_id, candidates, threshold=threshold
    )
    if match is None:
        raise NoMatchError(
            f"no stored context within similarity threshold {threshold} "
            f"of {query_context.context_id!r}"
        )
    logger.info("baseline matched %r -> %r", query_context.context_id, match)
    donor = extract_plan(graph, match)
    return AssessmentPlan(
        context_id=query_context.context_id,
        rule_edges=donor.rule_edges,
        dimension_edges=donor.dimension_edges,
    )
