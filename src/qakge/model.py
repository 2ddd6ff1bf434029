"""Complex bilinear embedding model: parameters, initialization, scoring.

Every entity and relation owns a k-dimensional complex vector. The score of
a triple (s, p, o) is the real part of the Hermitian product of their
vectors (ComplEx, Trouillon et al., ICML 2016):

    f(s, p, o) = sum_j Re( e_s[j] * w_p[j] * conj(e_o[j]) )

which expands over real components to

    f = <sr, pr, or> + <si, pr, oi> + <sr, pi, oi> - <si, pi, or>.

The asymmetry under s <-> o lives entirely in the imaginary relation part,
so one relation can model both symmetric and directed patterns.

The vectors are stored as one C-contiguous complex128 block with a row per
entity, then a row per relation: relation p is block row
``n_entities + p``, so a training step gathers, scatters and updates the
rows of both kinds at once. ``ent`` and ``rel`` are row views of the block.
Its float64 view ``z.view(np.float64)`` interleaves real and imaginary
parts, so Re(a * conj(b)) of two complex vectors is the dot product of their
float views, and scoring one query against every entity is one
matrix-vector product over contiguous memory. A strided ``.real`` view
would make BLAS copy or fall back to a slower loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .triples import Vocabulary


@dataclass(eq=False)
class ModelParams:
    """Embedding block plus the vocabulary it is indexed by.

    ``ent`` and ``rel`` are the entity and relation rows of ``block``;
    ``ent_re``, ``ent_im``, ``rel_re`` and ``rel_im`` are writable views of
    their parts.
    """

    block: np.ndarray  # (n_entities + n_relations, k) complex128, entity rows first
    vocab: Vocabulary
    ent: np.ndarray = field(init=False, repr=False)  # (n_entities, k) view of block
    rel: np.ndarray = field(init=False, repr=False)  # (n_relations, k) view of block

    @classmethod
    def empty(cls, vocab: Vocabulary, k: int) -> "ModelParams":
        """Parameters of width ``k`` over ``vocab``, not yet written."""
        return cls(np.empty((vocab.n_entities + vocab.n_relations, k), dtype=np.complex128), vocab)

    @property
    def k(self) -> int:
        return self.block.shape[1]

    @property
    def ent_re(self) -> np.ndarray:
        return self.ent.real

    @property
    def ent_im(self) -> np.ndarray:
        return self.ent.imag

    @property
    def rel_re(self) -> np.ndarray:
        return self.rel.real

    @property
    def rel_im(self) -> np.ndarray:
        return self.rel.imag

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.ent_re, self.ent_im, self.rel_re, self.rel_im)

    def __post_init__(self):
        n, m = self.vocab.n_entities, self.vocab.n_relations
        z = self.block
        if z.dtype != np.complex128 or not z.flags.c_contiguous:
            raise InputError(f"block must be a C-contiguous complex128 matrix, got {z.dtype}")
        if z.ndim != 2 or z.shape[0] != n + m or z.shape[1] < 1:
            raise InputError(f"inconsistent parameter shape {z.shape} for vocab ({n} entities, {m} relations)")
        self.ent, self.rel = z[:n], z[n:]


def init_model(vocab: Vocabulary, k: int, seed: int) -> ModelParams:
    """Fresh parameters, i.i.d. uniform on [-b, b] with b = sqrt(6 / (2k)).

    The bound treats fan-in and fan-out as the embedding width itself, which
    keeps initial scores of order one regardless of k. The real and
    imaginary parts of entities, then of relations, are drawn in a fixed
    order so a seed pins every coefficient.
    """
    if k < 1:
        raise InputError(f"embedding width k must be >= 1, got {k}")
    if vocab.n_entities == 0 or vocab.n_relations == 0:
        raise InputError("cannot initialize a model over an empty vocabulary")
    bound = math.sqrt(6.0 / (2 * k))
    rng = np.random.default_rng(seed)
    model = ModelParams.empty(vocab, k)
    for part in model.arrays():
        part[...] = rng.uniform(-bound, bound, size=part.shape)
    return model


def complex_score(model: ModelParams, triple_indices: tuple[int, int, int]) -> float:
    """Raw score of one triple given as (subject, relation, object) ids."""
    s, p, o = triple_indices
    n, m = model.vocab.n_entities, model.vocab.n_relations
    if not (0 <= s < n and 0 <= o < n):
        raise InputError(f"entity index out of range: subject={s}, object={o}, n={n}")
    if not (0 <= p < m):
        raise InputError(f"relation index out of range: {p}, m={m}")
    return float((model.ent[s] * model.rel[p]).view(np.float64) @ model.ent[o].view(np.float64))


def score_triples(model: ModelParams, idx: np.ndarray) -> np.ndarray:
    """Vectorized raw scores for an (N, 3) id array."""
    sp = model.ent[idx[:, 0]]
    sp *= model.rel[idx[:, 1]]
    # Re(a * conj(b)) summed over a row is the dot product of the float rows
    return np.einsum("ij,ij->i", sp.view(np.float64), model.ent[idx[:, 2]].view(np.float64))


def score_all_objects(model: ModelParams, s: int, p: int) -> np.ndarray:
    """Scores of (s, p, e) for every entity e, as an (n_entities,) array."""
    # f(o) = Re(a * conj(e_o)) with a = e_s * w_p
    return model.ent.view(np.float64) @ (model.ent[s] * model.rel[p]).view(np.float64)


def score_all_subjects(model: ModelParams, p: int, o: int) -> np.ndarray:
    """Scores of (e, p, o) for every entity e."""
    # f(s) = Re(e_s * conj(c)) with c = conj(w_p) * e_o
    return model.ent.view(np.float64) @ (np.conj(model.rel[p]) * model.ent[o]).view(np.float64)
