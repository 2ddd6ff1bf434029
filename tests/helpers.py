"""Hand-built oracles the test suite checks the library against.

Everything here is written the slow, obvious way on purpose: python
complex numbers, per-component finite differences, exhaustive loops.
"""
from __future__ import annotations

import math
import random

import numpy as np

from qakge.model import ModelParams, init_model, score_triples
from qakge.node2vec import (
    AdjacencyStructure, BaselineConfig, NodeEmbeddings, transition_probs, window_pairs,
)
from qakge.objective import (
    Arena, Gradients, TrainingBatch, int_power, scatter_rows, sigmoid, softplus,
)
from qakge.training import loss_and_grad
from qakge.triples import TripleGraph, Vocabulary, WeightedTriple

GRAD_NAMES = ("ent_re", "ent_im", "rel_re", "rel_im")


def modulated(raw, weight, beta, is_positive: bool):
    """FocusE-modulated score alpha * softplus(raw) of a positive with edge
    weight ``weight`` (is_positive), or of a corruption of such a positive:
    alpha = beta + (1 - beta) * influence, where the influence is the weight,
    or 1 - weight for a corruption."""
    weight = np.asarray(weight, dtype=np.float64)
    influence = weight if is_positive else 1.0 - weight
    return (beta + (1.0 - beta) * influence) * softplus(raw)


def touched_ids(batch: TrainingBatch) -> tuple[np.ndarray, np.ndarray]:
    """Unique entity and relation ids the batch references."""
    ent = np.concatenate([batch.pos[:, 0], batch.pos[:, 2], batch.neg[:, 0], batch.neg[:, 2]])
    return np.unique(ent), np.unique(np.concatenate([batch.pos[:, 1], batch.neg[:, 1]]))


def arena_for(model: ModelParams, batch: TrainingBatch | None = None) -> Arena:
    """An arena for batches of the size of ``batch`` (one positive and one
    corruption when None) that may train every row of ``model``."""
    positives, eta = (1, 1) if batch is None else (len(batch.pos), batch.eta)
    return Arena.for_batches(positives, eta, model.k, model.vocab.n_entities, model.vocab.n_relations)


def gradient_parts(model: ModelParams, grads: Gradients) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(parameter rows, gradient view) for each of ``GRAD_NAMES``; relation
    rows are relation ids, not block rows."""
    ent, rel = grads.values[: grads.n_ent], grads.values[grads.n_ent:]
    ent_rows, rel_rows = grads.ent_rows, grads.rel_rows - model.vocab.n_entities
    return ((ent_rows, ent.real), (ent_rows, ent.imag), (rel_rows, rel.real), (rel_rows, rel.imag))


def dense_gradients(model: ModelParams, batch: TrainingBatch, hp) -> dict[str, np.ndarray]:
    """Analytic gradient of the training loss, expanded from the compact
    buffer into dense arrays that are zero outside the touched rows."""
    arena = arena_for(model, batch)
    grads = Gradients.for_batch(batch, model)
    loss_and_grad(model, batch, hp, arena, grads)
    out = {}
    for name, param, (rows, g) in zip(GRAD_NAMES, model.arrays(), gradient_parts(model, grads)):
        out[name] = np.zeros_like(param)
        out[name][rows] = g
    return out


def add_at_gradients(model: ModelParams, batch: TrainingBatch, hp) -> dict[str, np.ndarray]:
    """Dense gradient of the training loss, scattered with ``np.add.at`` one
    triple group and one side at a time: positives (subject, relation,
    object), then corruptions, then the penalty over the touched rows.

    Each term is the library's: numpy's complex product (not bit-equal to
    the four-product float formula) times the coefficient, and the penalty
    slope from ``int_power``, so the sums can be compared with ``==``."""
    out = {name: np.zeros_like(a) for name, a in zip(GRAD_NAMES, model.arrays())}
    beta = batch.beta
    w_neg = np.repeat(batch.pos_weights, batch.eta)
    g_pos = modulated(score_triples(model, batch.pos), batch.pos_weights, beta, True)
    g_neg = modulated(score_triples(model, batch.neg), w_neg, beta, False)
    b = batch.pos.shape[0]
    active = hp.margin + g_neg.reshape(b, batch.eta) - g_pos[:, None] > 0.0
    alpha_pos = beta + (1.0 - beta) * batch.pos_weights
    alpha_neg = beta + (1.0 - beta) * (1.0 - w_neg)
    coeff_pos = -alpha_pos * sigmoid(score_triples(model, batch.pos)) * active.sum(axis=1)
    coeff_neg = alpha_neg * sigmoid(score_triples(model, batch.neg)) * active.reshape(-1)
    for idx, coeff in ((batch.pos, coeff_pos), (batch.neg, coeff_neg)):
        c = coeff[:, None]
        s, p, o = idx[:, 0], idx[:, 1], idx[:, 2]
        e_s, w_p, e_o = model.ent[s], model.rel[p], model.ent[o]
        for rows, side, grad in ((s, "ent", np.conj(w_p) * e_o),
                                 (p, "rel", np.conj(e_s) * e_o),
                                 (o, "ent", e_s * w_p)):
            np.add.at(out[side + "_re"], rows, c * grad.real)
            np.add.at(out[side + "_im"], rows, c * grad.imag)
    if hp.reg_lambda != 0.0:
        ent_rows, rel_rows = touched_ids(batch)
        lam, q = hp.reg_lambda, hp.reg_p
        for name, rows in zip(GRAD_NAMES, (ent_rows, ent_rows, rel_rows, rel_rows)):
            x = getattr(model, name)[rows]
            sign = np.sign(x) if q == 1 else np.copysign(int_power(np.abs(x), q - 1), x)
            out[name][rows] += lam * q * sign
    return out


def fd_gradients(model: ModelParams, batch: TrainingBatch, hp, h: float = 1e-6) -> dict[str, np.ndarray]:
    """Central finite differences of the training loss, touched rows only."""
    ent_rows, rel_rows = touched_ids(batch)
    arena = arena_for(model, batch)
    out = {
        "ent_re": np.zeros_like(model.ent_re),
        "ent_im": np.zeros_like(model.ent_im),
        "rel_re": np.zeros_like(model.rel_re),
        "rel_im": np.zeros_like(model.rel_im),
    }
    plan = [("ent_re", ent_rows), ("ent_im", ent_rows),
            ("rel_re", rel_rows), ("rel_im", rel_rows)]
    for name, rows in plan:
        arr = getattr(model, name)
        for i in rows:
            for j in range(model.k):
                orig = arr[i, j]
                arr[i, j] = orig + h
                f_plus = loss_and_grad(model, batch, hp, arena)
                arr[i, j] = orig - h
                f_minus = loss_and_grad(model, batch, hp, arena)
                arr[i, j] = orig
                out[name][i, j] = (f_plus - f_minus) / (2.0 * h)
    return out


def max_relative_error(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray],
                       floor: float = 1e-5) -> float:
    """Worst componentwise relative error; tiny components compare absolutely.

    Central differences at h=1e-6 carry ~2e-10 of rounding noise, so
    components below `floor` are judged on |a-n| against floor*tol instead
    of a meaningless ratio of two near-zero numbers.
    """
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def score_py(model: ModelParams, s: int, p: int, o: int) -> float:
    """Triple score via python complex arithmetic, one component at a time."""
    total = 0.0
    for j in range(model.k):
        e_s = complex(model.ent_re[s, j], model.ent_im[s, j])
        w_p = complex(model.rel_re[p, j], model.rel_im[p, j])
        e_o = complex(model.ent_re[o, j], model.ent_im[o, j])
        total += (e_s * w_p * e_o.conjugate()).real
    return total


def oracle_rank(
    model: ModelParams,
    triple: tuple[int, int, int],
    side: str,
    known: set[tuple[int, int, int]],
    mode: str,
) -> int:
    """Exhaustive-scoring rank with half-up tie splitting."""
    s, p, o = triple
    n = model.vocab.n_entities
    if side == "object":
        scores = [score_py(model, s, p, e) for e in range(n)]
        true_idx = o
        excluded = {e for (s2, p2, e) in known if s2 == s and p2 == p and e != o}
    else:
        scores = [score_py(model, e, p, o) for e in range(n)]
        true_idx = s
        excluded = {e for (e, p2, o2) in known if p2 == p and o2 == o and e != s}
    if mode == "raw":
        excluded = set()
    s_true = scores[true_idx]
    others = [scores[e] for e in range(n) if e != true_idx and e not in excluded]
    n_greater = sum(1 for x in others if x > s_true)
    n_equal = sum(1 for x in others if x == s_true)
    return 1 + n_greater + int(math.floor(n_equal / 2.0 + 0.5))


def toy_graph(n_entities: int = 20, n_relations: int = 3, n_triples: int = 50,
              seed: int = 123, weight_range: tuple[float, float] = (0.5, 1.0)) -> TripleGraph:
    """Small random graph with distinct triples and mid-to-high weights."""
    rng = random.Random(seed)
    entities = [f"e{i:02d}" for i in range(n_entities)]
    relations = [f"r{i}" for i in range(n_relations)]
    seen: set[tuple[str, str, str]] = set()
    triples: list[WeightedTriple] = []
    while len(triples) < n_triples:
        s = rng.choice(entities)
        o = rng.choice(entities)
        p = rng.choice(relations)
        if s == o or (s, p, o) in seen:
            continue
        seen.add((s, p, o))
        triples.append(WeightedTriple(s, p, o, round(rng.uniform(*weight_range), 4)))
    return TripleGraph.from_triples(triples)


def small_vocab(n_entities: int = 8, n_relations: int = 3) -> Vocabulary:
    return Vocabulary.from_names(
        [f"e{i}" for i in range(n_entities)], [f"r{i}" for i in range(n_relations)]
    )


def random_model(n_entities: int = 8, n_relations: int = 3, k: int = 4,
                 seed: int = 0) -> ModelParams:
    return init_model(small_vocab(n_entities, n_relations), k, seed)


def random_batch(n_entities: int, n_relations: int, rng: np.random.Generator,
                 n_pos: int = 6, eta: int = 3, beta: float = 0.3,
                 weights: np.ndarray | None = None) -> TrainingBatch:
    """Random positives plus one-sided corruptions, shapes only (no semantics)."""
    pos = np.stack([
        rng.integers(0, n_entities, n_pos),
        rng.integers(0, n_relations, n_pos),
        rng.integers(0, n_entities, n_pos),
    ], axis=1).astype(np.int64)
    if weights is None:
        weights = rng.uniform(0.0, 1.0, n_pos)
    neg = np.repeat(pos, eta, axis=0)
    side = rng.integers(0, 2, n_pos * eta)
    neg[np.arange(n_pos * eta), side * 2] = rng.integers(0, n_entities, n_pos * eta)
    return TrainingBatch(pos, np.asarray(weights, dtype=np.float64), neg, eta, beta)


def step_by_step_walks(graph: TripleGraph, cfg: BaselineConfig, seed: int) -> list[np.ndarray]:
    """Biased walks that compute every step's transition afresh and pick
    the next node with ``np.searchsorted`` over its cumulative sum."""
    adj = AdjacencyStructure.from_graph(graph)
    walks = []
    for node in range(len(adj.names)):
        rng = np.random.default_rng((seed, node))
        for _ in range(cfg.walks_per_node):
            walk = np.empty(cfg.walk_length, dtype=np.int64)
            walk[0] = node
            prev, length = None, 1
            for step in range(1, cfg.walk_length):
                cur = int(walk[step - 1])
                cand, probs = transition_probs(adj, prev, cur, cfg.p, cfg.q)
                if cand.size == 0:
                    break
                u = rng.random()
                pick = min(int(np.searchsorted(np.cumsum(probs), u)), cand.size - 1)
                walk[step] = cand[pick]
                prev, length = cur, step + 1
            walks.append(walk[:length])
    return walks


def scattered_skipgram(walks, names: tuple[str, ...], cfg: BaselineConfig,
                       seed: int) -> NodeEmbeddings:
    """``train_skipgram`` with the output update done one value at a time:
    every (pair, context or negative) term -alpha * g * vc is formed and
    summed into its row with ``scatter_rows``, in slot order. The draws,
    logits and center update are the library's."""
    n, d = len(names), cfg.d
    pairs = np.concatenate([window_pairs(w, cfg.window) for w in walks if w.shape[0] > 1], axis=0)
    noise = np.bincount(pairs[:, 0], minlength=n).astype(np.float64) ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    rng = np.random.default_rng((seed, 7))
    w_in = (rng.random((n, d)) - 0.5) / d
    w_out = np.zeros((n, d))
    table = np.arange(n * d).reshape(n, d)
    batch = 256
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
            vc = w_in[centers]
            u_pos = w_out[contexts]
            g_pos = 1.0 / (1.0 + np.exp(-np.einsum("bd,bd->b", vc, u_pos))) - 1.0
            grad_c = g_pos[:, None] * u_pos
            d_pos = g_pos[:, None] * vc
            u_neg = w_out[neg]
            g_neg = 1.0 / (1.0 + np.exp(-np.einsum("bd,bkd->bk", vc, u_neg)))
            grad_c += np.einsum("bk,bkd->bd", g_neg, u_neg)
            d_neg = g_neg[:, :, None] * vc[:, None, :]
            w_in += scatter_rows(centers, -alpha * grad_c, n, table)
            w_out += scatter_rows(np.concatenate([contexts, neg.reshape(-1)]),
                                  -alpha * np.concatenate([d_pos, d_neg.reshape(-1, d)]), n, table)
            step += 1
    return NodeEmbeddings(names, {name: i for i, name in enumerate(names)}, w_in)


def looped_window_pairs(walk: np.ndarray, window: int) -> np.ndarray:
    """(center, context) pairs by a double loop over positions."""
    pairs = []
    n = walk.shape[0]
    for i in range(n):
        for j in range(max(0, i - window), min(n, i + window + 1)):
            if j != i:
                pairs.append((int(walk[i]), int(walk[j])))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def fancy_index_corruptions(batch: np.ndarray, eta: int, vocab: Vocabulary,
                            rng: np.random.Generator) -> np.ndarray:
    """Corruptions written through a row and column fancy index into a copy
    of the repeated batch, with the same draws in the same order as
    ``sample_corruptions``."""
    total = batch.shape[0] * eta
    base = np.repeat(batch, eta, axis=0)
    side = rng.integers(0, 2, size=total)
    repl = rng.integers(0, vocab.n_entities, size=total)
    col = side * 2
    rows = np.arange(total)
    bad = repl == base[rows, col]
    while bad.any():
        hit = np.flatnonzero(bad)
        side[hit] = rng.integers(0, 2, size=hit.size)
        repl[hit] = rng.integers(0, vocab.n_entities, size=hit.size)
        col[hit] = side[hit] * 2
        bad[hit] = repl[hit] == base[hit, col[hit]]
    out = base.copy()
    out[rows, col] = repl
    return out
