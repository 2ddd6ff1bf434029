"""Negative sampling: corrupt one side of each positive triple.

Corruptions follow the open-world convention: a corruption may coincide with
some other true triple and is still used as a negative. Only a corruption
identical to its own positive is rejected and redrawn.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError
from .triples import Vocabulary


def sample_corruptions(
    batch: np.ndarray,
    eta: int,
    vocab: Vocabulary,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``eta`` corruptions per positive; rows i*eta..(i+1)*eta-1 of the
    result belong to positive i.

    Each corruption picks a side uniformly (subject or object) and replaces
    it with an entity drawn uniformly from the whole entity vocabulary.
    """
    if eta < 1:
        raise InputError(f"eta must be >= 1, got {eta}")
    if batch.ndim != 2 or batch.shape[1] != 3:
        raise InputError(f"batch must be (B, 3) index array, got shape {batch.shape}")
    n = vocab.n_entities
    if n < 2:
        raise InputError(f"entity pool of size {n}: cannot corrupt")

    total = batch.shape[0] * eta
    out = batch.repeat(eta, axis=0)
    flat = out.reshape(-1)  # corruption i's subject is cell 3i, its object 3i + 2
    side = rng.integers(0, 2, size=total)  # 0 -> subject, 1 -> object
    repl = rng.integers(0, n, size=total)
    cell = np.arange(0, 3 * total, 3)
    cell += 2 * side
    hit = (repl == flat.take(cell)).nonzero()[0]

    # only the rows that still collide are carried, in ascending order, so
    # each pass draws for them as redrawing every colliding row would; with
    # n >= 2 each redraw clears a row with probability >= 1/2, so the loop
    # ends after a few passes
    while hit.size:
        side = rng.integers(0, 2, size=hit.size)
        drawn = rng.integers(0, n, size=hit.size)
        at = 3 * hit + 2 * side
        repl[hit] = drawn
        cell[hit] = at
        hit = hit[drawn == flat.take(at)]

    flat[cell] = repl
    return out
