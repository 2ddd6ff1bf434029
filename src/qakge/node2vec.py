"""Random-walk node embeddings and plan retrieval by context similarity.

This is the retrieval baseline: embed every node of the metadata graph with
biased second-order walks plus a skip-gram model, then answer a new context
by copying the plan of its nearest existing schema under cosine similarity.
Everything is hand-rolled on numpy so seeded runs repeat: walks bit for
bit anywhere, embeddings bit for bit on one machine and BLAS build.

:class:`BaselineConfig` is the one place a walk or skip-gram setting is
declared, defaulted and checked; :func:`embed_graph` is the one entry point
of the embedding, and the steps it calls read their settings from the
config they are given.
"""
from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .contexts import REL_SCHEMA, AssessmentPlan, ContextDescriptor, extract_plan
from .errors import InputError, NoMatchError, ZeroVectorError, check_integer, check_number
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
    uniform over the neighbors of ``cur``. ``p`` and ``q`` are positive and
    finite, as :class:`BaselineConfig` checks.
    """
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


def generate_walks(graph: TripleGraph, cfg: BaselineConfig, seed: int) -> list[np.ndarray]:
    """Biased random walks, ``cfg.walks_per_node`` from every entity, each
    of up to ``cfg.walk_length`` nodes and biased by ``cfg.p`` and ``cfg.q``.

    Each start node gets its own generator keyed by (seed, node id), so the
    output is independent of how many other nodes exist. Isolated nodes
    yield length-1 walks. Walks from one node are consecutive in the result.

    The transition out of each (previous, current) pair is computed once
    per call, by :func:`transition_probs`, and kept as its candidates and
    cumulative probabilities. A step is then one uniform draw and a binary
    search for the first cumulative probability that is not below it.
    """
    adj = AdjacencyStructure.from_graph(graph)
    transitions: dict[tuple[int | None, int], tuple[list[int], list[float]]] = {}
    walks: list[np.ndarray] = []
    for node in range(len(adj.names)):
        rng = np.random.default_rng((seed, node))
        for _ in range(cfg.walks_per_node):
            walk = [node]
            prev: int | None = None
            cur = node
            for _ in range(1, cfg.walk_length):
                key = (prev, cur)
                if key not in transitions:
                    cand, probs = transition_probs(adj, prev, cur, cfg.p, cfg.q)
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


def _distinct_rows(ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of ``ids``, each in [0, n), and the index
    of every entry of ``ids`` among them. An n-sized mask costs less than
    ``np.unique`` for the graphs and batch sizes skip-gram sees."""
    named = np.zeros(n, dtype=bool)
    named[ids] = True
    return np.flatnonzero(named), (np.cumsum(named) - 1)[ids]


def train_skipgram(
    walks: Sequence[np.ndarray], names: tuple[str, ...], cfg: BaselineConfig, seed: int
) -> NodeEmbeddings:
    """Skip-gram with negative sampling over precomputed walks, with the
    dimension, window, negatives, epochs and learning rate of ``cfg``.

    Noise distribution is the unigram frequency of walk tokens raised to
    0.75. Updates are applied in fixed-size batches, to the rows the batch
    names only. The center rows are summed per row by ``scatter_rows``, so
    repeated rows accumulate deterministically. The output rows take one
    dense product per batch, ``H.T @ w_in[distinct centers]``: H (distinct
    centers x distinct rows that the contexts and negatives name) sums the
    logit gradients of the pairs against each row, and the center vectors
    are read before the batch updates them. Summing by center first does
    the arithmetic once per distinct center rather than once per pair.
    The product sums in BLAS order, so seeded embeddings repeat bit for bit
    on one machine and BLAS build, and may differ in the last bits on
    another. The learning rate decays linearly to a floor of 1e-4 of its
    start value.
    """
    d = cfg.d
    n = len(names)
    pair_blocks = [window_pairs(w, cfg.window) for w in walks if w.shape[0] > 1]
    if not pair_blocks:
        raise InputError("no training pairs: every walk has length 1")
    pairs = np.concatenate(pair_blocks, axis=0)
    del pair_blocks  # as large as pairs; the batches reuse its memory

    counts = np.bincount(pairs[:, 0], minlength=n).astype(np.float64)
    noise = counts**0.75
    noise_cdf = np.cumsum(noise / noise.sum())

    batch = 256
    rng = np.random.default_rng((seed, 7))
    w_in = (rng.random((n, d)) - 0.5) / d
    w_out = np.zeros((n, d))
    table = np.arange(batch * d).reshape(batch, d)  # row i: the flat cells of row i

    total_steps = cfg.epochs * ((pairs.shape[0] + batch - 1) // batch)
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(pairs.shape[0])
        for start in range(0, pairs.shape[0], batch):
            sel = pairs[order[start : start + batch]]
            centers, contexts = sel[:, 0], sel[:, 1]
            b = centers.shape[0]
            neg = np.minimum(np.searchsorted(noise_cdf, rng.random((b, cfg.negatives))), n - 1)
            alpha = cfg.learning_rate * max(1e-4, 1.0 - step / total_steps)

            vc = w_in[centers]  # (b, d)
            # positive: push sigmoid(vc . u_ctx) toward 1
            u_pos = w_out[contexts]
            g_pos = 1.0 / (1.0 + np.exp(-np.einsum("bd,bd->b", vc, u_pos))) - 1.0
            grad_c = g_pos[:, None] * u_pos
            # negatives: push sigmoid(vc . u_neg) toward 0
            u_neg = w_out[neg]  # (b, k, d)
            g_neg = 1.0 / (1.0 + np.exp(-np.einsum("bd,bkd->bk", vc, u_neg)))
            grad_c += np.einsum("bk,bkd->bd", g_neg, u_neg)

            # H[c, j] sums the logit gradients of the pairs with the c-th
            # distinct center against the j-th distinct row they name
            distinct, center_id = _distinct_rows(centers, n)
            targets = np.column_stack((contexts, neg))  # (b, 1 + k)
            rows, column = _distinct_rows(targets, n)
            m = rows.shape[0]
            H = np.bincount((center_id[:, None] * m + column).ravel(),
                            weights=np.column_stack((g_pos, g_neg)).ravel(),
                            minlength=distinct.shape[0] * m).reshape(-1, m)
            w_out[rows] -= alpha * (H.T @ w_in[distinct])
            w_in[distinct] += scatter_rows(center_id, -alpha * grad_c, distinct.shape[0], table)
            step += 1
    return NodeEmbeddings(names, {name: i for i, name in enumerate(names)}, w_in)


def embed_graph(graph: TripleGraph, config: BaselineConfig, seed: int) -> NodeEmbeddings:
    """Embed every entity of ``graph``: walks, then skip-gram over them,
    with the settings of ``config`` and one ``seed`` for both.

    The only entry point of the walk embedding. ``config`` was checked when
    it was built, and ``seed`` is checked here.
    """
    check_integer("seed", seed, 0)
    return train_skipgram(generate_walks(graph, config, seed), graph.vocab.entities, config, seed)


def nearest_context(
    embeddings: NodeEmbeddings,
    query: str,
    candidates: Iterable[str],
    threshold: float,
) -> str | None:
    """Best cosine match for ``query`` among ``candidates``, or None.

    Candidates are scanned in sorted order and a later candidate must be
    strictly better to displace the incumbent, so exact ties resolve to the
    lexicographically smallest name. Matches below ``threshold`` are
    rejected.
    """
    check_number("threshold", threshold, 0, 1)
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
    """Settings of the walk-embedding retrieval baseline, each checked
    when the config is built."""

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
        for name in ("p", "q", "learning_rate"):
            check_number(name, getattr(self, name), 0, above=True)
        for name in ("walks_per_node", "walk_length", "d", "window", "negatives", "epochs"):
            check_integer(name, getattr(self, name), 1)
        check_number("threshold", self.threshold, 0, 1)


def baseline_plan(
    graph: TripleGraph,
    embeddings: NodeEmbeddings,
    query_context: ContextDescriptor,
    threshold: float,
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
