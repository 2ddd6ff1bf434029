"""Exhaustive hyperparameter sweep scored by held-out validation loss."""
from __future__ import annotations

import itertools
import logging
import time
from dataclasses import replace
from typing import Any, Mapping, Sequence

from .errors import InputError
from .evaluation import validation_loss
from .training import Hyperparams, train
from .triples import TripleGraph

logger = logging.getLogger(__name__)


def grid_search(
    train_graph: TripleGraph,
    valid_graph: TripleGraph,
    grid: Mapping[str, Sequence[Any]],
    budget_epochs: int,
    base: Hyperparams | None = None,
) -> tuple[Hyperparams, list[dict]]:
    """Train one model per grid combination, pick the lowest validation loss.

    ``grid`` maps hyperparameter field names to candidate value lists;
    combinations are enumerated in dict insertion order (last key varies
    fastest). Every combination trains for exactly ``budget_epochs`` so
    scores are comparable. Returns the winning full config plus a
    leaderboard sorted by validation loss (ties keep enumeration order).
    """
    if not grid:
        raise InputError("empty hyperparameter grid")
    for name, values in grid.items():
        if not values:
            raise InputError(f"empty candidate list for {name!r}")
    if budget_epochs < 1:
        raise InputError(f"budget_epochs must be >= 1, got {budget_epochs}")
    if len(valid_graph) == 0:
        raise InputError("empty validation graph")
    base = base if base is not None else Hyperparams()

    names = list(grid.keys())
    combos = list(itertools.product(*(grid[n] for n in names)))
    rows: list[dict] = []
    for combo_no, values in enumerate(combos):
        combo = dict(zip(names, values))
        try:
            hp = replace(base, **combo, epochs=budget_epochs)
        except TypeError as exc:
            raise InputError(f"unknown hyperparameter in grid: {exc}") from None
        t0 = time.perf_counter()
        model, _ = train(train_graph, hp)
        # beta=0 so early-annealing configs are judged by their end-state loss
        val = validation_loss(model, valid_graph, hp, beta=0.0, seed=base.seed)
        elapsed = time.perf_counter() - t0
        logger.info("grid %d/%d: %s -> val_loss %.6f (%.1fs)",
                    combo_no + 1, len(combos), combo, val, elapsed)
        rows.append({"params": combo, "val_loss": val, "seconds": elapsed})

    order = sorted(range(len(rows)), key=lambda i: rows[i]["val_loss"])
    leaderboard = [rows[i] for i in order]
    best = replace(base, **leaderboard[0]["params"], epochs=budget_epochs)
    return best, leaderboard
