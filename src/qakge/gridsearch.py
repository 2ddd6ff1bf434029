"""Exhaustive hyperparameter sweep scored by filtered held-out MRR."""
from __future__ import annotations

import itertools
import logging
import time
from dataclasses import fields, replace
from typing import Any, Mapping, Sequence

from .contexts import check_integer
from .errors import InputError
from .evaluation import evaluate
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
    """Train one model per grid combination, pick the highest validation MRR.

    ``grid`` maps hyperparameter field names to candidate value lists;
    combinations are enumerated in dict insertion order (last key varies
    fastest). Every combination trains for exactly ``budget_epochs``, so
    scores are comparable and ``epochs`` cannot be searched. Each model is
    scored by filtered MRR on ``valid_graph``, with train and validation
    triples as the known positives; the validation loss is not a fair
    score, because it grows with the ``margin`` and ``eta`` being searched. Returns the winning full
    config plus a leaderboard sorted by MRR, highest first (ties keep
    enumeration order).
    """
    if not grid:
        raise InputError("empty hyperparameter grid")
    for name, values in grid.items():
        if not values:
            raise InputError(f"empty candidate list for {name!r}")
    unknown = [name for name in grid if name not in {f.name for f in fields(Hyperparams)}]
    if unknown:
        raise InputError(f"unknown hyperparameter in grid: {', '.join(map(repr, unknown))}")
    if "epochs" in grid:
        raise InputError("epochs cannot be searched: every combination trains for budget_epochs")
    check_integer("budget_epochs", budget_epochs, 1)
    if len(valid_graph) == 0:
        raise InputError("empty validation graph")
    base = base if base is not None else Hyperparams()
    known = train_graph.keys() | valid_graph.keys()

    names = list(grid.keys())
    combos = list(itertools.product(*(grid[n] for n in names)))
    rows: list[dict] = []
    for combo_no, values in enumerate(combos):
        combo = dict(zip(names, values))
        hp = replace(base, **combo, epochs=budget_epochs)
        t0 = time.perf_counter()
        model, _ = train(train_graph, hp)
        mrr = evaluate(model, valid_graph, known).mrr
        elapsed = time.perf_counter() - t0
        logger.info("grid %d/%d: %s -> val_mrr %.6f (%.1fs)",
                    combo_no + 1, len(combos), combo, mrr, elapsed)
        rows.append({"params": combo, "val_mrr": mrr, "seconds": elapsed})

    order = sorted(range(len(rows)), key=lambda i: -rows[i]["val_mrr"])
    leaderboard = [rows[i] for i in order]
    best = replace(base, **leaderboard[0]["params"], epochs=budget_epochs)
    return best, leaderboard
