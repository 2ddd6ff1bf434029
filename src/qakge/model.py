"""Complex bilinear embedding model: parameters, initialization, scoring.

Every entity and relation owns a k-dimensional complex vector, stored as
separate real and imaginary float64 matrices. The score of a triple
(s, p, o) is the real part of the Hermitian product of their vectors:

    f(s, p, o) = sum_j Re( e_s[j] * w_p[j] * conj(e_o[j]) )

which expands over real components to

    f = <sr, pr, or> + <si, pr, oi> + <sr, pi, oi> - <si, pi, or>.

The asymmetry under s <-> o lives entirely in the imaginary relation part,
so one relation can model both symmetric and directed patterns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .triples import Vocabulary


@dataclass(eq=False)
class ModelParams:
    """Embedding matrices plus the vocabulary they are indexed by."""

    ent_re: np.ndarray  # (n_entities, k)
    ent_im: np.ndarray
    rel_re: np.ndarray  # (n_relations, k)
    rel_im: np.ndarray
    vocab: Vocabulary

    @property
    def k(self) -> int:
        return self.ent_re.shape[1]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.ent_re, self.ent_im, self.rel_re, self.rel_im)

    def __post_init__(self):
        n, m = self.vocab.n_entities, self.vocab.n_relations
        k = self.ent_re.shape[1] if self.ent_re.ndim == 2 else -1
        expected = ((n, k), (n, k), (m, k), (m, k))
        shapes = tuple(a.shape for a in self.arrays())
        if k < 1 or shapes != expected:
            raise InputError(f"inconsistent parameter shapes {shapes} for vocab ({n} entities, {m} relations)")


def init_model(vocab: Vocabulary, k: int, seed: int) -> ModelParams:
    """Fresh parameters, i.i.d. uniform on [-b, b] with b = sqrt(6 / (2k)).

    The bound treats fan-in and fan-out as the embedding width itself, which
    keeps initial scores of order one regardless of k. Matrices are drawn in
    a fixed order so a seed pins every coefficient.
    """
    if k < 1:
        raise InputError(f"embedding width k must be >= 1, got {k}")
    if vocab.n_entities == 0 or vocab.n_relations == 0:
        raise InputError("cannot initialize a model over an empty vocabulary")
    bound = math.sqrt(6.0 / (2 * k))
    rng = np.random.default_rng(seed)
    ent_re = rng.uniform(-bound, bound, size=(vocab.n_entities, k))
    ent_im = rng.uniform(-bound, bound, size=(vocab.n_entities, k))
    rel_re = rng.uniform(-bound, bound, size=(vocab.n_relations, k))
    rel_im = rng.uniform(-bound, bound, size=(vocab.n_relations, k))
    return ModelParams(ent_re, ent_im, rel_re, rel_im, vocab)


def complex_score(model: ModelParams, triple_indices: tuple[int, int, int]) -> float:
    """Raw score of one triple given as (subject, relation, object) ids."""
    s, p, o = triple_indices
    n, m = model.vocab.n_entities, model.vocab.n_relations
    if not (0 <= s < n and 0 <= o < n):
        raise InputError(f"entity index out of range: subject={s}, object={o}, n={n}")
    if not (0 <= p < m):
        raise InputError(f"relation index out of range: {p}, m={m}")
    sr, si = model.ent_re[s], model.ent_im[s]
    pr, pi = model.rel_re[p], model.rel_im[p]
    or_, oi = model.ent_re[o], model.ent_im[o]
    return float(np.sum(sr * pr * or_ + si * pr * oi + sr * pi * oi - si * pi * or_))


def score_triples(model: ModelParams, idx: np.ndarray) -> np.ndarray:
    """Vectorized raw scores for an (N, 3) id array."""
    s, p, o = idx[:, 0], idx[:, 1], idx[:, 2]
    sr, si = model.ent_re[s], model.ent_im[s]
    pr, pi = model.rel_re[p], model.rel_im[p]
    or_, oi = model.ent_re[o], model.ent_im[o]
    return np.einsum("ij->i", sr * pr * or_ + si * pr * oi + sr * pi * oi - si * pi * or_)


def score_all_objects(model: ModelParams, s: int, p: int) -> np.ndarray:
    """Scores of (s, p, e) for every entity e, as an (n_entities,) array."""
    sr, si = model.ent_re[s], model.ent_im[s]
    pr, pi = model.rel_re[p], model.rel_im[p]
    # f(o) = (sr pr - si pi) . or + (sr pi + si pr) . oi
    a = sr * pr - si * pi
    b = sr * pi + si * pr
    return model.ent_re @ a + model.ent_im @ b


def score_all_subjects(model: ModelParams, p: int, o: int) -> np.ndarray:
    """Scores of (e, p, o) for every entity e."""
    pr, pi = model.rel_re[p], model.rel_im[p]
    or_, oi = model.ent_re[o], model.ent_im[o]
    # f(s) = sr . (pr or + pi oi) + si . (pr oi - pi or)
    c = pr * or_ + pi * oi
    d = pr * oi - pi * or_
    return model.ent_re @ c + model.ent_im @ d
