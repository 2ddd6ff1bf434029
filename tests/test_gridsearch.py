"""Grid sweep: enumeration order, scoring, leaderboard shape."""
from dataclasses import replace

import pytest

from qakge.errors import InputError
from qakge.evaluation import evaluate
from qakge.gridsearch import grid_search
from qakge.training import Hyperparams, train

from .helpers import toy_graph

BASE = Hyperparams(k=4, eta=2, batch_size=32, learning_rate=1e-3, seed=1)


def split_toy():
    graph = toy_graph(n_entities=14, n_triples=40, seed=2)
    from qakge.triples import split_train_test

    return split_train_test(graph, 0.25, seed=0)


def test_grid_search_ranks_all_combinations():
    train_g, valid_g = split_toy()
    grid = {"k": [2, 4], "margin": [0.2, 0.5, 1.0]}
    best, board = grid_search(train_g, valid_g, grid, budget_epochs=2, base=BASE)
    assert len(board) == 6
    mrrs = [row["val_mrr"] for row in board]
    assert mrrs == sorted(mrrs, reverse=True)
    assert board[0]["params"] == {"k": best.k, "margin": best.margin}
    assert best.epochs == 2
    assert all(set(row) == {"params", "val_mrr", "seconds"} for row in board)
    assert all(row["seconds"] > 0 for row in board)
    # untouched fields come from the base config
    assert best.eta == BASE.eta and best.seed == BASE.seed


def test_grid_search_is_reproducible():
    train_g, valid_g = split_toy()
    grid = {"margin": [0.3, 0.7]}
    best_a, board_a = grid_search(train_g, valid_g, grid, budget_epochs=2, base=BASE)
    best_b, board_b = grid_search(train_g, valid_g, grid, budget_epochs=2, base=BASE)
    assert best_a == best_b
    assert [r["val_mrr"] for r in board_a] == [r["val_mrr"] for r in board_b]


def test_grid_search_scores_filtered_validation_mrr():
    train_g, valid_g = split_toy()
    grid = {"margin": [0.1, 2.0], "eta": [1, 5]}
    best, board = grid_search(train_g, valid_g, grid, budget_epochs=2, base=BASE)
    known = train_g.keys() | valid_g.keys()
    for row in board:
        hp = replace(BASE, **row["params"], epochs=2)
        model, _ = train(train_g, hp)
        assert row["val_mrr"] == evaluate(model, valid_g, known, hp=hp).mrr
    assert board[0]["params"] == {"margin": best.margin, "eta": best.eta}


def test_grid_search_computes_no_validation_loss(monkeypatch):
    import qakge.evaluation

    def refuse(*args, **kwargs):
        raise AssertionError("grid_search computed a validation loss")

    monkeypatch.setattr(qakge.evaluation, "validation_loss", refuse)
    train_g, valid_g = split_toy()
    _, board = grid_search(train_g, valid_g, {"margin": [0.3]}, budget_epochs=1, base=BASE)
    assert len(board) == 1


def test_grid_search_names_unknown_fields_before_training(monkeypatch):
    import qakge.gridsearch

    def refuse(*args, **kwargs):
        raise AssertionError("grid_search trained before checking the grid")

    monkeypatch.setattr(qakge.gridsearch, "train", refuse)
    train_g, valid_g = split_toy()
    grid = {"margin": [0.5], "depth": [2], "width": [3]}
    with pytest.raises(InputError, match="unknown hyperparameter in grid: 'depth', 'width'$"):
        grid_search(train_g, valid_g, grid, budget_epochs=1, base=BASE)
    with pytest.raises(InputError, match="epochs cannot be searched"):
        grid_search(train_g, valid_g, {"margin": [0.5], "epochs": [2]}, budget_epochs=1, base=BASE)


def test_grid_search_ties_keep_enumeration_order():
    # with focuse off beta is pinned at 1, so the decay span cannot change the model
    train_g, valid_g = split_toy()
    grid = {"beta_decay_epochs": [3, 1, 2]}
    _, board = grid_search(train_g, valid_g, grid, budget_epochs=2,
                           base=replace(BASE, focuse=False))
    assert len({row["val_mrr"] for row in board}) == 1
    assert [row["params"]["beta_decay_epochs"] for row in board] == [3, 1, 2]


def test_grid_search_validation_errors():
    train_g, valid_g = split_toy()
    with pytest.raises(InputError, match="empty hyperparameter grid"):
        grid_search(train_g, valid_g, {}, budget_epochs=1)
    with pytest.raises(InputError, match="empty candidate list"):
        grid_search(train_g, valid_g, {"k": []}, budget_epochs=1)
    with pytest.raises(InputError, match="budget_epochs"):
        grid_search(train_g, valid_g, {"k": [2]}, budget_epochs=0)
    with pytest.raises(InputError, match="unknown hyperparameter"):
        grid_search(train_g, valid_g, {"depth": [2]}, budget_epochs=1, base=BASE)
    with pytest.raises(InputError, match="learning_rate must be a number, got 'x'"):
        grid_search(train_g, valid_g, {"learning_rate": ["x"]}, budget_epochs=1, base=BASE)
    from qakge.triples import TripleGraph

    with pytest.raises(InputError, match="empty validation graph"):
        grid_search(train_g, TripleGraph.from_triples([]), {"k": [2]}, budget_epochs=1)
